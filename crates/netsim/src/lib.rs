//! Deterministic discrete-event battlefield network simulator.
//!
//! This crate is the substrate the paper's envisioned deployments run on in
//! this reproduction (see `DESIGN.md`): terrain-aware wireless propagation
//! with jamming ([`channel`]), node mobility ([`mobility`]), energy-limited
//! heterogeneous nodes, connectivity and reliability-aware routing
//! ([`graph`]), churn/failure injection, and an event-driven application
//! layer ([`sim`]).
//!
//! Everything is seeded and tie-broken deterministically: the same inputs
//! produce bit-identical runs, which the experiment harnesses rely on.
//!
//! # Examples
//!
//! See [`sim`] for an end-to-end ping-pong example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod churn;
pub mod graph;
pub mod message;
pub mod mobility;
pub mod sim;
pub mod stats;
pub mod terrain;
pub mod time;

pub use bytes::Bytes;
pub use channel::{Channel, Jammer};
pub use churn::{ChurnPlan, ChurnProcess};
pub use graph::{ConnectivityGraph, GraphNode, LinkQuality};
pub use message::Message;
pub use mobility::{MobilityModel, MobilityState};
pub use sim::{
    Behavior, BehaviorRegistry, BehaviorSnapshot, CompromiseSpec, Context, LinkDegradation,
    PartitionSpec, SimulatorBuilder, SleepSchedule, Simulator, SnapshotError,
};
pub use stats::{NetStats, Summary};
pub use terrain::{Clutter, Terrain};
pub use time::{SimDuration, SimTime};

pub use iobt_obs::Recorder;

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::{
        Behavior, BehaviorRegistry, BehaviorSnapshot, Bytes, Channel, ChurnProcess, Clutter,
        CompromiseSpec, ConnectivityGraph, Context, Jammer, LinkDegradation, Message,
        MobilityModel, NetStats, PartitionSpec, SimDuration, SimTime, Simulator, SleepSchedule,
        SnapshotError, Summary, Terrain,
    };
}
