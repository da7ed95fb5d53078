//! Fleet construction: the validating builder and its error type.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use iobt_obs::Recorder;

use crate::scheduler::Fleet;
use crate::store::{DiskStore, Store};

/// Validated scheduler parameters (internal; built by [`FleetBuilder`]).
#[derive(Debug, Clone)]
pub(crate) struct FleetConfig {
    /// Worker threads in the pool.
    pub(crate) workers: usize,
    /// Missions a worker keeps materialized before evicting its
    /// least-recently-sliced resident to disk.
    pub(crate) max_resident: usize,
    /// Test/chaos policy: checkpoint-evict every mission after every
    /// slice, so each slice exercises the full resume path.
    pub(crate) evict_every_slice: bool,
    /// Directory evicted-mission checkpoints and the fleet manifest
    /// live under (one checkpoint subdirectory per ticket).
    pub(crate) checkpoint_root: PathBuf,
    /// Checkpoint storage the scheduler reads and writes through —
    /// [`DiskStore`] in production, a fault-injecting wrapper in chaos
    /// tests.
    pub(crate) store: Arc<dyn Store>,
    /// Admission bound: non-terminal missions the fleet will hold
    /// before shedding new submissions (0 = unbounded).
    pub(crate) max_queued: usize,
    /// Per-mission slice budget; a mission still unfinished after this
    /// many slices is quarantined (`None` = no deadline).
    pub(crate) slice_budget: Option<u64>,
    /// Attempts allowed per mission for retryable checkpoint-IO faults
    /// before quarantine.
    pub(crate) retry_limit: u32,
    /// First retry backoff, in scheduler slices.
    pub(crate) retry_backoff_base: u64,
    /// Backoff ceiling, in scheduler slices.
    pub(crate) retry_backoff_cap: u64,
    /// Persist the fleet manifest at every durable state transition,
    /// enabling [`Fleet::recover`] after a crash.
    pub(crate) durable_manifest: bool,
    /// Test/chaos policy: panic inside the given mission's slice when
    /// its runner reaches the given window index.
    pub(crate) inject_panic: Option<(u64, u64)>,
    /// Test/chaos policy: stop the worker pool once the global slice
    /// clock reaches this count, leaving unfinished missions in place
    /// (a controlled stand-in for a process kill).
    pub(crate) halt_after_slices: Option<u64>,
}

/// Why a [`FleetBuilder`] configuration was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FleetConfigError {
    /// `workers` was 0: the pool could never run anything.
    ZeroWorkers,
    /// `max_resident` was 0: a worker could never hold a mission long
    /// enough to step it — every admission would immediately evict.
    ZeroResidency,
    /// `retry_limit` was 0: the first checkpoint-IO fault would have no
    /// attempt to charge, not even the one that failed.
    ZeroRetryLimit,
}

impl fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetConfigError::ZeroWorkers => write!(f, "fleet needs at least one worker"),
            FleetConfigError::ZeroResidency => {
                write!(f, "eviction threshold must allow at least one resident mission")
            }
            FleetConfigError::ZeroRetryLimit => {
                write!(f, "retry limit must allow at least one attempt")
            }
        }
    }
}

impl std::error::Error for FleetConfigError {}

/// Fluent, validating builder for a [`Fleet`] (same shape as
/// `RunConfigBuilder`): chain setters, then [`build`](Self::build).
///
/// ```
/// use iobt_fleet::FleetBuilder;
///
/// let fleet = FleetBuilder::new()
///     .workers(4)
///     .max_resident(64)
///     .build()
///     .expect("valid fleet config");
/// # drop(fleet);
/// ```
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    workers: usize,
    max_resident: usize,
    evict_every_slice: bool,
    checkpoint_root: Option<PathBuf>,
    recorder: Recorder,
    store: Option<Arc<dyn Store>>,
    max_queued: usize,
    slice_budget: Option<u64>,
    retry_limit: u32,
    retry_backoff_base: u64,
    retry_backoff_cap: u64,
    durable_manifest: bool,
    inject_panic: Option<(u64, u64)>,
    halt_after_slices: Option<u64>,
}

impl Default for FleetBuilder {
    fn default() -> Self {
        FleetBuilder {
            workers: std::thread::available_parallelism().map_or(4, usize::from),
            max_resident: 64,
            evict_every_slice: false,
            checkpoint_root: None,
            recorder: Recorder::disabled(),
            store: None,
            max_queued: 0,
            slice_budget: None,
            retry_limit: 5,
            retry_backoff_base: 1,
            retry_backoff_cap: 8,
            durable_manifest: false,
            inject_panic: None,
            halt_after_slices: None,
        }
    }
}

impl FleetBuilder {
    /// Starts from the defaults: one worker per hardware thread, a
    /// one-window quantum, 64 resident missions per worker, per-mission
    /// metrics on, disk-backed checkpoints under a process-scoped temp
    /// directory, 5 retry attempts with 1→8-slice capped backoff, no
    /// deadline, no admission bound, and no durable manifest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker threads in the pool. Must be ≥ 1. Worker count changes
    /// scheduling only — never any mission's result.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Missions a worker keeps materialized in memory (the eviction
    /// threshold). Must be ≥ 1. When a worker exceeds this, its
    /// least-recently-sliced mission is checkpointed to disk and its
    /// runner dropped; any worker may later resume it.
    pub fn max_resident(mut self, missions: usize) -> Self {
        self.max_resident = missions;
        self
    }

    /// Chaos/test policy: evict every mission after every slice, forcing
    /// each slice through the full checkpoint → disk → resume path. Off
    /// by default.
    pub fn evict_every_slice(mut self, on: bool) -> Self {
        self.evict_every_slice = on;
        self
    }

    /// Directory under which evicted-mission checkpoints and the fleet
    /// manifest are written (one checkpoint subdirectory per ticket).
    /// Defaults to a process-scoped directory under the system temp
    /// dir.
    pub fn checkpoint_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.checkpoint_root = Some(root.into());
        self
    }

    /// Recorder for the fleet's own scheduler trace (admit / slice /
    /// evict / resume / retry / quarantine / complete events under the
    /// `fleet` subsystem). Distinct from per-mission metrics. Disabled
    /// by default.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Checkpoint storage the scheduler reads and writes through.
    /// Defaults to a [`DiskStore`] rooted at the checkpoint root; tests
    /// substitute a [`FailingStore`](crate::FailingStore) to exercise
    /// the retry and quarantine paths under injected IO faults.
    pub fn store(mut self, store: impl Store + 'static) -> Self {
        self.store = Some(Arc::new(store));
        self
    }

    /// Admission bound: once the fleet holds this many non-terminal
    /// missions, [`Fleet::submit`](crate::Fleet::submit) sheds new work
    /// with [`SubmitError::QueueFull`](crate::SubmitError::QueueFull)
    /// instead of growing without limit. `0` (the default) disables the
    /// bound.
    pub fn max_queued(mut self, missions: usize) -> Self {
        self.max_queued = missions;
        self
    }

    /// Per-mission deadline, measured in scheduler slices (the only
    /// clock the determinism contract allows): a mission still
    /// unfinished after consuming this many slices is quarantined with
    /// [`MissionErrorKind::DeadlineExceeded`](crate::MissionErrorKind::DeadlineExceeded).
    /// `None` (the default) disables deadlines.
    pub fn slice_budget(mut self, slices: Option<u64>) -> Self {
        self.slice_budget = slices;
        self
    }

    /// Attempts allowed per mission for retryable checkpoint-IO faults
    /// (write errors, ENOSPC, torn files, read errors) before the
    /// mission is quarantined. Must be ≥ 1. Default 5.
    pub fn retry_limit(mut self, attempts: u32) -> Self {
        self.retry_limit = attempts;
        self
    }

    /// Retry backoff, measured in scheduler slices: attempt *n* waits
    /// `min(cap, base << (n - 1))` slices before the mission is
    /// rescheduled. Slice-denominated backoff keeps faulty runs
    /// deterministic — no wall clock ever reaches a scheduling
    /// decision. Defaults: base 1, cap 8.
    pub fn retry_backoff(mut self, base_slices: u64, cap_slices: u64) -> Self {
        self.retry_backoff_base = base_slices;
        self.retry_backoff_cap = cap_slices;
        self
    }

    /// Persist the versioned, checksummed fleet manifest at every
    /// durable state transition, making the whole fleet recoverable
    /// with [`Fleet::recover`] after a process death. Off by default
    /// (manifest writes cost one fsync per transition).
    pub fn durable_manifest(mut self, on: bool) -> Self {
        self.durable_manifest = on;
        self
    }

    /// Test/chaos policy: panic inside mission `ticket`'s slice when
    /// its runner reaches window index `window` — exercises panic
    /// isolation end to end. Off by default.
    pub fn inject_panic(mut self, ticket: u64, window: u64) -> Self {
        self.inject_panic = Some((ticket, window));
        self
    }

    /// Test/chaos policy: stop the worker pool once the global slice
    /// clock reaches `slices`, leaving unfinished missions wherever
    /// they are — a controlled, in-process stand-in for `kill -9` used
    /// by the recovery test matrix. Off by default.
    pub fn halt_after_slices(mut self, slices: u64) -> Self {
        self.halt_after_slices = Some(slices);
        self
    }

    /// Validates the configuration and constructs the fleet.
    pub fn build(self) -> Result<Fleet, FleetConfigError> {
        if self.workers == 0 {
            return Err(FleetConfigError::ZeroWorkers);
        }
        if self.max_resident == 0 {
            return Err(FleetConfigError::ZeroResidency);
        }
        if self.retry_limit == 0 {
            return Err(FleetConfigError::ZeroRetryLimit);
        }
        let checkpoint_root = self.checkpoint_root.unwrap_or_else(|| {
            std::env::temp_dir().join(format!("iobt-fleet-{}", std::process::id()))
        });
        let store = self
            .store
            .unwrap_or_else(|| Arc::new(DiskStore::new(checkpoint_root.clone())));
        Ok(Fleet::from_parts(
            FleetConfig {
                workers: self.workers,
                max_resident: self.max_resident,
                evict_every_slice: self.evict_every_slice,
                checkpoint_root,
                store,
                max_queued: self.max_queued,
                slice_budget: self.slice_budget,
                retry_limit: self.retry_limit,
                retry_backoff_base: self.retry_backoff_base,
                retry_backoff_cap: self.retry_backoff_cap,
                durable_manifest: self.durable_manifest,
                inject_panic: self.inject_panic,
                halt_after_slices: self.halt_after_slices,
            },
            self.recorder,
        ))
    }

    /// Builds the fleet *from its durable manifest*: rebuilds the
    /// ticket table from the newest good manifest generation under the
    /// checkpoint root, validates each re-supplied scenario against its
    /// recorded fingerprint (scenarios are not serialisable, so the
    /// caller provides them again, in ticket order), re-admits every
    /// unfinished mission from its latest good checkpoint, and turns
    /// the durable manifest on for the recovered fleet.
    ///
    /// A subsequent [`Fleet::drain`](crate::Fleet::drain) completes the
    /// batch with digests bit-identical to an uninterrupted run.
    pub fn recover(
        self,
        scenarios: Vec<iobt_core::Scenario>,
    ) -> Result<Fleet, crate::RecoverError> {
        let mut fleet = self
            .durable_manifest(true)
            .build()
            .map_err(crate::RecoverError::Config)?;
        fleet.restore_from_manifest(scenarios)?;
        Ok(fleet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_degenerate_configs() {
        assert_eq!(
            FleetBuilder::new().workers(0).build().err(),
            Some(FleetConfigError::ZeroWorkers)
        );
        assert_eq!(
            FleetBuilder::new().max_resident(0).build().err(),
            Some(FleetConfigError::ZeroResidency)
        );
        assert_eq!(
            FleetBuilder::new().retry_limit(0).build().err(),
            Some(FleetConfigError::ZeroRetryLimit)
        );
        assert!(FleetBuilder::new().workers(1).build().is_ok());
    }

    #[test]
    fn errors_display_their_cause() {
        for e in [
            FleetConfigError::ZeroWorkers,
            FleetConfigError::ZeroResidency,
            FleetConfigError::ZeroRetryLimit,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
