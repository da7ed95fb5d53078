//! Domain model for the Internet of Battlefield Things (IoBT) platform.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: node identities and [affiliations](Affiliation) (blue/red/gray,
//! per §II of the paper), [capability profiles](CapabilityProfile) covering
//! sensors, compute, actuators and radios, [geometry](geo), [energy
//! budgets](energy::EnergyBudget), [trust scores](trust::TrustScore), and
//! [mission specifications](mission::Mission) expressing commander's intent.
//!
//! # Examples
//!
//! Build a small blue sensing node and a surveillance mission:
//!
//! ```
//! use iobt_types::prelude::*;
//!
//! let node = NodeSpec::builder(NodeId::new(1))
//!     .affiliation(Affiliation::Blue)
//!     .position(Point::new(100.0, 250.0))
//!     .sensor(Sensor::new(SensorKind::Acoustic, 150.0, 0.9))
//!     .radio(Radio::new(RadioKind::TacticalUhf))
//!     .energy(EnergyBudget::new(5_000.0))
//!     .build();
//! assert!(node.capabilities().can_sense(SensorKind::Acoustic));
//!
//! let mission = Mission::builder(MissionId::new(7), MissionKind::Surveillance)
//!     .area(Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0)))
//!     .require_modality(SensorKind::Acoustic)
//!     .latency_bound_ms(250.0)
//!     .resilience(2)
//!     .build();
//! assert_eq!(mission.kind(), MissionKind::Surveillance);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod catalog;
pub mod energy;
pub mod error;
pub mod geo;
pub mod mission;
pub mod node;
pub mod trust;

mod affiliation;
mod capability;
mod id;

pub use affiliation::Affiliation;
pub use capability::{
    ActuatorKind, CapabilityProfile, CapabilityProfileBuilder, ComputeClass, Radio, RadioKind,
    Sensor, SensorKind,
};
pub use catalog::NodeCatalog;
pub use energy::EnergyBudget;
pub use error::TypesError;
pub use geo::{Point, Rect};
pub use id::{MissionId, NodeId, TaskId};
pub use mission::{CommanderIntent, Mission, MissionBuilder, MissionKind, Priority};
pub use node::{NodeSpec, NodeSpecBuilder};
pub use trust::{TrustLedger, TrustScore};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::{
        ActuatorKind, Affiliation, CapabilityProfile, CommanderIntent, ComputeClass, EnergyBudget,
        Mission, MissionId, MissionKind, NodeCatalog, NodeId, NodeSpec, Point, Priority, Radio,
        RadioKind, Rect, Sensor, SensorKind, TaskId, TrustLedger, TrustScore, TypesError,
    };
}
