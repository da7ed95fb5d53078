//! The IoBT runtime facade (paper Fig. 1): discovery → recruitment →
//! assured synthesis → adaptive execution, end to end over the battlefield
//! simulator. The adaptation and learning services sit beside it in the
//! root `iobt` crate.
//!
//! * [`scenario`] — builders for the operations the paper motivates
//!   (urban evacuation, persistent surveillance, disaster relief).
//! * [`runtime`] — [`run_mission`]: the full pipeline with per-window
//!   utility tracing, disruption injection, and the repair reflex —
//!   plus [`MissionRunner`], the window-stepping form of the same
//!   pipeline.
//! * [`checkpoint`] — crash-safe checkpointing: [`MissionRunner::save`]
//!   and [`MissionRunner::resume`] over the `iobt-ckpt` file format,
//!   with byte-identical post-resume behaviour.
//! * [`tasking`] — arbitration of one asset pool across multiple
//!   concurrent missions by priority (§II's competing networks).
//! * [`humans`] — human-asset characterization: truth-discovery output
//!   becomes trust-ledger evidence (§III-A human assets).
//! * [`diagnostics`] — tomography run against the simulated network:
//!   localizing dead nodes from monitor observations only (§V-A).
//! * [`behaviors`] — the simulator behaviours (sensor reporters, command
//!   sink) the runtime deploys.
//!
//! The subsystems the runtime calls are re-exported for direct access:
//! [`discovery`], [`synthesis`], [`truth`], [`tomography`], [`netsim`],
//! [`types`].
//!
//! # Examples
//!
//! ```no_run
//! use iobt_core::prelude::*;
//!
//! let scenario = persistent_surveillance(200, 42);
//! let report = run_mission(&scenario, &RunConfig::default());
//! println!(
//!     "recruited {} assets, mean utility {:.2}, {} repairs",
//!     report.recruited,
//!     report.mean_utility(),
//!     report.repairs
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behaviors;
pub mod checkpoint;
pub mod diagnostics;
pub mod humans;
pub mod resilience;
pub mod runtime;
pub mod tasking;
pub mod scenario;

pub use behaviors::{
    mission_behavior_registry, new_report_log, new_task_board, CommandSink, DeliveredReport,
    ReportLog, SensorReporter, TaskBoard, TaskingSink, TaskingStats,
};
pub use checkpoint::encode_end_state_digest;
pub use diagnostics::{diagnose_failures, DiagnosisReport, NetworkModel};
pub use humans::{calibrate_human_trust, CalibrationSummary};
pub use resilience::{DegradationLadder, FailureDetector, LadderStep, MAX_LADDER_LEVEL};
pub use runtime::{
    run_mission, EndStateDigest, MissionReport, MissionRunner, PortableRunConfig,
    ResilienceReport, RunConfig, RunConfigBuilder, RunConfigError, StepOutcome, WallClockReport,
    WindowStat,
};
pub use tasking::{allocate_missions, MissionAllocation, TaskingPlan};
pub use scenario::{
    disaster_relief, persistent_surveillance, urban_evacuation, Disruption, Scenario,
    COMMAND_POST_ID,
};

pub use iobt_ckpt as ckpt;
pub use iobt_discovery as discovery;
pub use iobt_faults as faults;
pub use iobt_obs as obs;
pub use iobt_netsim as netsim;
pub use iobt_synthesis as synthesis;
pub use iobt_tomography as tomography;
pub use iobt_truth as truth;
pub use iobt_types as types;

/// Convenience re-exports for examples and integration tests.
pub mod prelude {
    pub use crate::resilience::{DegradationLadder, FailureDetector, LadderStep};
    pub use crate::runtime::{
        run_mission, EndStateDigest, MissionReport, MissionRunner, ResilienceReport, RunConfig,
        RunConfigBuilder, RunConfigError, WallClockReport, WindowStat,
    };
    pub use iobt_ckpt::{CheckpointStore, CkptError, LatestGood};
    pub use iobt_faults::{generate_campaign, CampaignConfig, FaultKind, FaultPlan};
    pub use iobt_obs::{
        MetricsDigest, Recorder, SamplingConfig, SharedBytes, Subsystem, TraceEvent, TraceRecord,
    };
    pub use crate::scenario::{
        disaster_relief, persistent_surveillance, urban_evacuation, Disruption, Scenario,
    };
    pub use crate::tasking::{allocate_missions, MissionAllocation, TaskingPlan};
    pub use crate::humans::{calibrate_human_trust, CalibrationSummary};
    pub use crate::diagnostics::{diagnose_failures, DiagnosisReport, NetworkModel};
}
