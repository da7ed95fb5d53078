//! Multi-tenant mission scheduling: many concurrent missions
//! time-sliced across a worker pool, with idle missions checkpointed to
//! disk.
//!
//! The paper's IoBT vision is not one big simulation but vast numbers of
//! concurrent, independently-tasked missions. `iobt-core`'s
//! [`MissionRunner`](iobt_core::MissionRunner) already makes a mission a
//! pausable, serializable unit of work — this crate adds the service
//! layer that exploits it: an admission queue, a
//! `std::thread::scope` worker pool that uses
//! [`step_window`](iobt_core::MissionRunner::step_window) as its
//! scheduling quantum, and checkpoint-eviction of idle missions through
//! [`CheckpointStore`](iobt_ckpt::CheckpointStore) so resident memory
//! stays bounded no matter how many missions are in flight.
//!
//! # Example
//!
//! ```no_run
//! use iobt_core::{persistent_surveillance, RunConfig};
//! use iobt_fleet::{FleetBuilder, MissionStatus};
//!
//! let mut fleet = FleetBuilder::new().workers(4).build().expect("valid fleet config");
//! let ticket = fleet
//!     .submit(persistent_surveillance(80, 42), RunConfig::default())
//!     .expect("admissible mission");
//! assert_eq!(fleet.poll(ticket), Some(MissionStatus::Queued));
//! let summary = fleet.drain();
//! assert_eq!(summary.completed, 1);
//! let report = fleet.report(ticket).expect("completed mission has a report");
//! println!("mean utility {:.2}", report.mean_utility());
//! ```
//!
//! # Determinism
//!
//! Each mission's end state is a pure function of its scenario and
//! config: missions never share RNG streams (every simulator is seeded
//! from its own scenario seed), and the checkpoint/resume cycle used for
//! eviction is bit-exact by `iobt-core`'s crash-resume contract. A
//! mission's [`EndStateDigest`](iobt_core::EndStateDigest) and metrics
//! fingerprint are therefore identical under any worker count, admission
//! order, or eviction schedule — the property the fleet test matrix
//! asserts. Scheduler *trace* events are recorded after the pool joins,
//! grouped by ticket in mission order, so the trace layout is also
//! stable; the number of evict/resume events, however, reflects the
//! actual schedule and is only reproducible under a deterministic
//! schedule (one worker, or `evict_every_slice`).
//!
//! # Supervision and recovery
//!
//! The scheduler supervises its missions rather than trusting them:
//!
//! - **Panic isolation** — every slice runs under `catch_unwind`; a
//!   panicking mission is [`MissionStatus::Quarantined`] with its
//!   payload captured in a typed [`MissionError`], the worker survives,
//!   and every other mission's digest is bit-identical to a panic-free
//!   run.
//! - **Checkpoint-IO fault tolerance** — storage is abstracted behind
//!   [`Store`] ([`DiskStore`] in production, [`FailingStore`] for
//!   deterministic fault injection); transient faults retry up to
//!   [`FleetBuilder::retry_limit`] with capped exponential backoff
//!   measured in scheduler slices, never wall time.
//! - **Deadlines and backpressure** — [`FleetBuilder::slice_budget`]
//!   quarantines runaway missions;
//!   [`FleetBuilder::max_queued`] sheds new admissions with
//!   [`SubmitError::QueueFull`] instead of growing without bound.
//! - **Whole-fleet crash recovery** — with
//!   [`FleetBuilder::durable_manifest`] on, a versioned, checksummed
//!   manifest records every durable state transition and
//!   [`Fleet::recover`] rebuilds the fleet after a process death; the
//!   completed batch's digests are bit-identical to an uninterrupted
//!   run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod config;
mod core;
mod error;
mod manifest;
mod scheduler;
mod store;
mod ticket;

pub use config::{FleetBuilder, FleetConfigError};
pub use error::{MissionError, MissionErrorKind, RecoverError};
pub use scheduler::{Fleet, FleetSummary};
pub use store::{DiskStore, FailingStore, FaultProfile, Store};
pub use ticket::{MissionStatus, MissionTicket, SubmitError};
