//! # iobt-faults — deterministic fault injection for the IoBT stack
//!
//! The paper's core promise is *adaptive, resilient execution* under
//! battle damage, jamming, and partial compromise (§IV), and the IoBT
//! literature treats disruption as the default operating condition: Kott
//! et al. (arXiv:1712.08980) argue battlefield things must assume loss,
//! deception, and intermittent connectivity, and Farooq & Zhu
//! (arXiv:1703.01224) study exactly the correlated-failure and partition
//! regimes that point failures cannot express.
//!
//! This crate provides the attack side of that story as data:
//!
//! * [`FaultPlan`] — a declarative, sim-time-stamped list of fault
//!   events (crash, crash-with-recovery, region blackout, network
//!   partition, link degradation, compromised relays) that
//!   [`FaultPlan::schedule`]s onto a [`Simulator`] through its injection
//!   hooks. Plans compose with churn and jammer schedules and with each
//!   other ([`FaultPlan::merge`]).
//! * [`generate_campaign`] — a seeded random campaign generator: one
//!   `u64` seed reproduces the whole campaign, which is what makes the
//!   chaos harness's same-seed digest assertions possible.
//! * [`failpoint`] — the deterministic FNV-1a failpoint trigger shared
//!   by `iobt-fleet`'s `FailingStore` and `iobt-bridge`'s
//!   `FaultyTransport`: per-operation fault decisions as a pure
//!   function of `(seed, domain, key, op)`.
//!
//! Everything here is pure data until `schedule` is called; no wall
//! clock, no ambient entropy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod campaign;
pub mod failpoint;
mod plan;

pub use campaign::{generate_campaign, CampaignConfig};
pub use plan::{FaultEvent, FaultKind, FaultPlan};

#[allow(unused_imports)]
use iobt_netsim::Simulator;
