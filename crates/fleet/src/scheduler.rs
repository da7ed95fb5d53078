//! The fleet scheduler: admission queue, `std::thread::scope` worker
//! pool, checkpoint-eviction, and the supervision layer (panic
//! isolation, retry/backoff on checkpoint-IO faults, quarantine,
//! deadlines, and whole-fleet crash recovery).
//!
//! # Scheduling model
//!
//! Missions are `Send`-able *data* (scenario + portable config +
//! checkpoint bytes); live [`MissionRunner`]s are deliberately
//! thread-bound and never cross a thread. A mission moves between
//! workers only through its serialized checkpoint — which is exactly the
//! eviction path, so migration and crash recovery are one mechanism.
//!
//! Every scheduling decision — admission before residents, LRU eviction
//! past `max_resident`, retry or quarantine, the slice clock, the halt
//! latch — is made by the plain-data core (`core.rs`); this file is its
//! shell. The pool shares one `Mutex` (the core and the manifest mirror)
//! and one `Condvar`: a worker locks, asks the core what to do, does it
//! outside the lock, reports back under it and wakes the parked, whose
//! wait therefore needs no timeout.
//!
//! # Supervision model
//!
//! Every slice and eviction runs under `catch_unwind`: a panicking
//! mission is [`Quarantined`](MissionStatus::Quarantined) with its
//! payload captured, the worker survives, and — because missions share
//! no mutable state — every other mission's digest is bit-identical to a
//! panic-free run. Checkpoint-IO faults are classified by
//! [`MissionError::retryable`]: transient faults retry up to
//! [`FleetBuilder::retry_limit`] times with capped exponential backoff
//! measured in *scheduler slices* (the fleet's only clock — wall time
//! never reaches a scheduling decision, so a faulty run is exactly
//! reproducible); exhausted or non-retryable faults quarantine. With
//! [`FleetBuilder::durable_manifest`] on, every durable state
//! transition is recorded in a checksummed manifest *after* its
//! checkpoint write and before another worker can take the ticket, and
//! [`Fleet::recover`] rebuilds the whole fleet from the newest good
//! manifest generation.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use iobt_ckpt::CkptError;
use iobt_core::{
    EndStateDigest, MissionReport, MissionRunner, PortableRunConfig, RunConfig, Scenario,
    StepOutcome,
};
use iobt_obs::{Recorder, TraceEvent};

use crate::config::FleetConfig;
use crate::core::{Action, Core, End, Eviction, Outcome, Ticket};
use crate::error::{ckpt_fault_is_retryable, MissionError, MissionErrorKind, RecoverError};
use crate::manifest::{scenario_fingerprint, ManifestFile, ManifestState, TicketRecord};
use crate::{FleetBuilder, MissionStatus, MissionTicket, SubmitError};

/// Aggregate outcome of one [`Fleet::drain`] call.
///
/// `wall_s` and the slice-latency quantiles are wall-clock measurements:
/// reporting only, never part of any determinism contract (mirroring
/// `WallClockReport` in `iobt-core`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[non_exhaustive]
pub struct FleetSummary {
    /// Missions this drain started with (non-terminal at entry).
    pub submitted: usize,
    /// Missions that finished every window.
    pub completed: usize,
    /// Missions isolated after a panic, exhausted checkpoint-IO
    /// retries, a blown slice budget, or an unrecoverable checkpoint.
    pub quarantined: usize,
    /// Checkpoint-IO retry attempts across all missions.
    pub retries: u64,
    /// Scheduler quanta executed.
    pub slices: u64,
    /// Utility windows executed across all missions.
    pub windows: u64,
    /// Checkpoint-evictions to disk.
    pub evictions: u64,
    /// Resumes from an on-disk checkpoint.
    pub resumes: u64,
    /// Wall-clock duration of the drain, seconds (reporting only).
    pub wall_s: f64,
    /// Median slice latency, milliseconds (reporting only).
    pub p50_slice_ms: f64,
    /// 99th-percentile slice latency, milliseconds (reporting only).
    pub p99_slice_ms: f64,
}

/// A multi-tenant mission scheduler: submit missions, drain the batch
/// across a worker pool, poll tickets for status and results.
///
/// Built by [`FleetBuilder`]; see the crate docs for an example and the
/// determinism contract.
pub struct Fleet {
    cfg: FleetConfig,
    recorder: Recorder,
    tickets: Vec<Ticket>,
    /// Not serialisable; recovery takes them from the caller again and
    /// checks each against its record's `scenario_hash`.
    scenarios: Vec<Scenario>,
    /// In-memory mirror of the on-disk ticket table, when durability is
    /// on.
    manifest: Option<ManifestState>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("workers", &self.cfg.workers)
            .field("missions", &self.tickets.len())
            .finish_non_exhaustive()
    }
}

impl Fleet {
    pub(crate) fn from_parts(cfg: FleetConfig, recorder: Recorder) -> Self {
        let manifest = cfg
            .durable_manifest
            .then(|| ManifestState::open(&cfg.checkpoint_root));
        Fleet {
            cfg,
            recorder,
            tickets: Vec::new(),
            scenarios: Vec::new(),
            manifest,
        }
    }

    /// Rebuilds this (empty) fleet's ticket table from the newest good
    /// manifest generation under the checkpoint root. Called by
    /// [`FleetBuilder::recover`].
    pub(crate) fn restore_from_manifest(
        &mut self,
        scenarios: Vec<Scenario>,
    ) -> Result<(), RecoverError> {
        let loaded = match ManifestFile::load_latest(&self.cfg.checkpoint_root) {
            Ok(Some(loaded)) => loaded,
            Ok(None) => return Err(RecoverError::NoManifest),
            Err(e) => return Err(RecoverError::Load(e)),
        };
        if loaded.records.len() != scenarios.len() {
            return Err(RecoverError::ScenarioCount {
                expected: loaded.records.len(),
                got: scenarios.len(),
            });
        }
        let mut tickets = Vec::with_capacity(scenarios.len());
        for (i, (record, scenario)) in loaded.records.into_iter().zip(&scenarios).enumerate() {
            let ticket = i as u64;
            let hash = scenario_fingerprint(&format!("{scenario:?}"));
            if hash != record.scenario_hash {
                return Err(RecoverError::ScenarioMismatch { ticket });
            }
            // Terminal states are final; anything in flight re-enters
            // as `Evicted` (resume from its newest good checkpoint) or
            // `Queued` (deterministic replay from scratch) — either way
            // the completed batch's digests are bit-identical to an
            // uninterrupted run.
            let (status, ckpt_window) = match record.status {
                MissionStatus::Done => (MissionStatus::Done, None),
                MissionStatus::Quarantined => (MissionStatus::Quarantined, None),
                MissionStatus::Queued => (MissionStatus::Queued, None),
                MissionStatus::Running | MissionStatus::Idle | MissionStatus::Evicted => {
                    match record.ckpt_window {
                        Some(window) => (MissionStatus::Evicted, Some(window)),
                        None => (MissionStatus::Queued, None),
                    }
                }
            };
            if !status.is_terminal() {
                self.recorder.record_at(
                    ckpt_window.unwrap_or(0) * record.window_us,
                    TraceEvent::FleetRecover {
                        ticket,
                        window: ckpt_window.unwrap_or(0),
                    },
                );
            }
            tickets.push(Ticket {
                record: TicketRecord {
                    status,
                    ckpt_window,
                    ..record
                },
                report: None,
                events: Vec::new(),
            });
        }
        self.recorder.flush();
        self.tickets = tickets;
        self.scenarios = scenarios;
        if let Some(manifest) = &mut self.manifest {
            manifest.replace(self.tickets.iter().map(|t| t.record.clone()).collect());
        }
        Ok(())
    }

    /// Rebuilds a fleet from the durable manifest under `dir` with the
    /// default configuration: the one-call crash-recovery entry point.
    /// Scenarios are re-supplied in ticket order (they are not
    /// serialisable) and validated against the recorded fingerprints;
    /// see [`FleetBuilder::recover`] to recover with custom settings.
    pub fn recover(
        dir: impl Into<std::path::PathBuf>,
        scenarios: Vec<Scenario>,
    ) -> Result<Fleet, RecoverError> {
        FleetBuilder::new().checkpoint_root(dir).recover(scenarios)
    }

    /// Admits a mission and returns its ticket. The config must not
    /// carry an enabled recorder (recorders are thread-bound); per-
    /// mission metrics come from [`Fleet::metrics_fingerprint`]
    /// instead. Sheds with [`SubmitError::QueueFull`] when the fleet
    /// already holds
    /// [`FleetBuilder::max_queued`] non-terminal missions.
    pub fn submit(
        &mut self,
        scenario: Scenario,
        config: RunConfig,
    ) -> Result<MissionTicket, SubmitError> {
        if config.recorder.is_enabled() {
            return Err(SubmitError::RecorderAttached);
        }
        if scenario.catalog.is_empty() {
            return Err(SubmitError::EmptyCatalog);
        }
        if self.cfg.max_queued > 0 {
            let queued = self.tickets.iter().filter(|t| !t.record.status.is_terminal()).count();
            if queued >= self.cfg.max_queued {
                self.recorder.record_at(
                    0,
                    TraceEvent::FleetShed {
                        ticket: self.tickets.len() as u64,
                        queued: queued as u64,
                    },
                );
                return Err(SubmitError::QueueFull { queued });
            }
        }
        let total_windows =
            (config.duration.as_secs_f64() / config.window.as_secs_f64()).ceil() as u64;
        let window_us = config.window.as_micros();
        let seed = scenario.seed;
        let (portable, _disabled) = config.into_portable();
        let ticket = MissionTicket(self.tickets.len() as u64);
        let record = TicketRecord {
            scenario_hash: scenario_fingerprint(&format!("{scenario:?}")),
            seed,
            window_us,
            total_windows,
            status: MissionStatus::Queued,
            ckpt_window: None,
            retries: 0,
            slices_used: 0,
            digest: None,
            metrics_fp: None,
            error: None,
            portable,
        };
        if let Some(manifest) = &mut self.manifest {
            manifest.update(ticket.0, record.clone());
        }
        self.tickets.push(Ticket {
            record,
            report: None,
            events: Vec::new(),
        });
        self.scenarios.push(scenario);
        self.recorder.record_at(
            0,
            TraceEvent::FleetAdmit {
                ticket: ticket.0,
                seed,
                windows: total_windows,
            },
        );
        Ok(ticket)
    }

    fn record(&self, ticket: MissionTicket) -> Option<&TicketRecord> {
        self.tickets.get(ticket.0 as usize).map(|t| &t.record)
    }

    /// The mission's current lifecycle state, or `None` for a ticket
    /// this fleet never issued.
    pub fn poll(&self, ticket: MissionTicket) -> Option<MissionStatus> {
        self.record(ticket).map(|r| r.status)
    }

    /// The completed mission's full report (`None` until `Done`, and
    /// `None` after crash recovery — only the digest and metrics
    /// fingerprint survive the manifest).
    pub fn report(&self, ticket: MissionTicket) -> Option<&MissionReport> {
        self.tickets.get(ticket.0 as usize).and_then(|t| t.report.as_ref())
    }

    /// The completed mission's end-state digest (`None` until `Done`).
    pub fn digest(&self, ticket: MissionTicket) -> Option<&EndStateDigest> {
        self.record(ticket).and_then(|r| r.digest.as_ref())
    }

    /// The completed mission's metrics fingerprint (`None` until `Done`).
    pub fn metrics_fingerprint(&self, ticket: MissionTicket) -> Option<u64> {
        self.record(ticket).and_then(|r| r.metrics_fp)
    }

    /// Why a [`Quarantined`](MissionStatus::Quarantined) mission was
    /// isolated (`None` otherwise).
    pub fn error(&self, ticket: MissionTicket) -> Option<&MissionError> {
        self.record(ticket).and_then(|r| r.error.as_ref())
    }

    /// Every ticket this fleet has issued, in submission order.
    pub fn tickets(&self) -> Vec<MissionTicket> {
        (0..self.tickets.len() as u64).map(MissionTicket).collect()
    }

    /// Runs every non-terminal mission to completion across the worker
    /// pool and returns the batch summary. Safe to call repeatedly:
    /// missions submitted after a drain are picked up by the next one,
    /// and a drain stopped early by [`FleetBuilder::halt_after_slices`]
    /// leaves unfinished missions resumable by the next drain (or by
    /// [`Fleet::recover`] in a new process).
    pub fn drain(&mut self) -> FleetSummary {
        self.drain_with(|shell, state| {
            let (shell, state, cv) = (&shell, &Mutex::new(state), &Condvar::new());
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..shell.cfg.workers)
                    .map(|w| s.spawn(move || shell.worker(w, state, cv)))
                    .collect();
                let joined = workers.into_iter().map(|h| h.join());
                joined.flat_map(|r| r.unwrap_or_else(|p| resume_unwind(p))).collect()
            })
        })
    }

    /// A drain whose worker pool is `pool`: it runs the shell's workers
    /// against the shared state and returns their slice latencies.
    fn drain_with(
        &mut self,
        pool: impl FnOnce(Shell<'_>, Shared<'_>) -> Vec<f64>,
    ) -> FleetSummary {
        let submitted = self.tickets.iter().filter(|t| !t.record.status.is_terminal()).count();
        let start = Instant::now(); // lint: allow(wall-clock) — reporting only; lands in FleetSummary.wall_s, never in a decision or digest
        let mut latencies = Vec::new();
        if submitted > 0 {
            let shell = Shell {
                cfg: &self.cfg,
                scenarios: &self.scenarios,
            };
            let state = Shared {
                core: Core::new(&self.cfg, &mut self.tickets),
                manifest: self.manifest.as_mut(),
            };
            latencies = pool(shell, state);
        }
        let mut summary = FleetSummary {
            submitted,
            wall_s: start.elapsed().as_secs_f64(),
            ..FleetSummary::default()
        };

        // Fold the buffered scheduler events into the fleet trace in
        // canonical (ticket, mission-chronological) order — the layout
        // stays deterministic whatever the schedule — and total up.
        for ticket in &mut self.tickets {
            for (t_us, event) in std::mem::take(&mut ticket.events) {
                match event {
                    TraceEvent::FleetSlice { windows, .. } => {
                        summary.slices += 1;
                        summary.windows += windows;
                    }
                    TraceEvent::FleetEvict { .. } => summary.evictions += 1,
                    TraceEvent::FleetResume { .. } => summary.resumes += 1,
                    TraceEvent::FleetRetry { .. } => summary.retries += 1,
                    TraceEvent::FleetComplete { .. } => summary.completed += 1,
                    TraceEvent::FleetQuarantine { .. } => summary.quarantined += 1,
                    _ => {}
                }
                self.recorder.record_at(t_us, event);
            }
        }
        self.recorder.flush();
        latencies.sort_by(f64::total_cmp);
        summary.p50_slice_ms = quantile(&latencies, 0.50);
        summary.p99_slice_ms = quantile(&latencies, 0.99);
        summary
    }
}

/// Nearest-rank quantile of an ascending-sorted slice (0.0 when empty).
/// Reporting only — consumed solely by the wall-clock summary fields.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Locks the drain's one mutex, recovering the data on poisoning.
fn lock<'m, 'a>(m: &'m Mutex<Shared<'a>>) -> MutexGuard<'m, Shared<'a>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A mission materialized on one worker (boxed: a runner is kilobytes).
type Live = Box<(MissionRunner, Recorder)>;

/// A held ticket's mission: live on this worker, or what materializing
/// it needs from its record (the newest checkpoint's window, if any, and
/// the run parameters).
enum Mission {
    Live(Live),
    Stored(Option<u64>, PortableRunConfig),
}

impl Mission {
    /// Takes `t` out of `runners`, or copies what materializing it needs.
    fn take(runners: &mut BTreeMap<u64, Live>, t: u64, record: &TicketRecord) -> Self {
        match runners.remove(&t) {
            Some(live) => Mission::Live(live),
            None => Mission::Stored(record.ckpt_window, record.portable.clone()),
        }
    }
}

/// Everything the drain's one lock guards.
struct Shared<'a> {
    core: Core<'a>,
    /// The durable manifest, when enabled.
    manifest: Option<&'a mut ManifestState>,
}

impl Shared<'_> {
    /// Hands worker `w`'s report on ticket `t` to the core and mirrors a
    /// durable change into the manifest; `true` when the worker keeps
    /// the ticket's runner.
    fn complete(&mut self, w: usize, t: u64, outcome: Outcome) -> bool {
        let settled = self.core.complete(w, outcome);
        if let Some(manifest) = self.manifest.as_deref_mut().filter(|_| settled.persist) {
            manifest.update(t, self.core.record(t).clone());
        }
        settled.keep
    }
}

/// What a worker reads outside the lock: fixed for the whole drain.
struct Shell<'a> {
    cfg: &'a FleetConfig,
    scenarios: &'a [Scenario],
}

impl Shell<'_> {
    /// One pool thread: lock, ask, run outside the lock, report, wake the
    /// parked. Returns its slice latencies.
    fn worker(&self, w: usize, shared: &Mutex<Shared<'_>>, cv: &Condvar) -> Vec<f64> {
        let mut runners = BTreeMap::new();
        let mut latencies = Vec::new();
        let mut state = lock(shared);
        loop {
            let action = state.core.next(w);
            let (Action::Run(t, _) | Action::Evict(t)) = action else {
                if action == Action::Exit {
                    return latencies;
                }
                state = cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let mission = Mission::take(&mut runners, t, state.core.record(t));
            drop(state);
            let (outcome, live) = self.act(action, mission, &mut latencies);
            state = lock(shared);
            if state.complete(w, t, outcome) {
                runners.extend(live.map(|live| (t, live)));
            }
            cv.notify_all();
        }
    }

    /// Runs `action` outside the lock and returns the report, with the
    /// runner while it lives.
    fn act(&self, action: Action, mission: Mission, lat: &mut Vec<f64>) -> (Outcome, Option<Live>) {
        match (action, mission) {
            (Action::Run(t, evict_after), mission) => self.slice(t, evict_after, mission, lat),
            (Action::Evict(t), Mission::Live(live)) => {
                let window = live.0.window_index() as u64;
                let eviction = catch_unwind(AssertUnwindSafe(|| self.save(t, &live.0)))
                    .unwrap_or_else(|p| Eviction { window, saved: Err(panicked(p)) });
                // A runner checkpointed to disk is dropped here, outside the lock.
                let kept = eviction.saved.is_err().then_some(live);
                (Outcome::Evict(eviction), kept)
            }
            _ => unreachable!("the core evicts only residents and never hands out Park or Exit"),
        }
    }

    /// One scheduling quantum under an unwind guard: a panic anywhere in
    /// materializing, stepping, finishing or saving quarantines this
    /// mission and leaves the worker — and every other mission —
    /// untouched.
    fn slice(
        &self,
        t: u64,
        evict_after: bool,
        mission: Mission,
        latencies: &mut Vec<f64>,
    ) -> (Outcome, Option<Live>) {
        let (mut resumed, mut stepped, mut kept) = (None, None, None);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let (mut runner, recorder) = match mission {
                Mission::Live(live) => *live,
                Mission::Stored(ckpt, portable) => {
                    self.materialize(t, ckpt, portable, &mut resumed)?
                }
            };
            let from_window = runner.window_index() as u64;
            if self.cfg.inject_panic == Some((t, from_window)) {
                // Deliberate chaos injection behind the test-only
                // inject_panic knob; the guard around us catches it.
                panic!("injected panic in mission m-{t:06} at window {from_window}");
            }
            let t0 = Instant::now(); // lint: allow(wall-clock) — reporting only; slice latency lands in FleetSummary, never in a decision or digest
            // `Finished`, and conservatively any future non-progress
            // outcome (`StepOutcome` is `#[non_exhaustive]`), ran no window.
            let ran = matches!(runner.step_window(), StepOutcome::WindowClosed { .. });
            latencies.push(t0.elapsed().as_secs_f64() * 1_000.0);
            stepped = Some((from_window, u64::from(ran)));
            if runner.is_finished() {
                let windows = runner.total_windows() as u64;
                let report = runner.finish();
                let metrics_fp = recorder.metrics_digest().fingerprint();
                // The checkpoints are no longer needed; reclaim the disk
                // (best-effort — a leftover directory is harmless).
                self.cfg.store.clear(t);
                return Ok(End::Finished(windows, metrics_fp, Box::new(report)));
            }
            let eviction = evict_after.then(|| self.save(t, &runner));
            if eviction.as_ref().is_none_or(|e| e.saved.is_err()) {
                kept = Some(Box::new((runner, recorder)));
            }
            Ok(End::Live(eviction))
        }));
        let end = result.unwrap_or_else(|p| Err(panicked(p))).unwrap_or_else(End::Failed);
        (Outcome::Slice { resumed, stepped, end }, kept)
    }

    /// Builds the mission's runner on this worker: fresh, or resumed
    /// from its newest good on-disk checkpoint when it has one.
    fn materialize(
        &self,
        t: u64,
        ckpt_window: Option<u64>,
        portable: PortableRunConfig,
        resumed: &mut Option<u64>,
    ) -> Result<(MissionRunner, Recorder), MissionError> {
        // Metrics-only, so `Fleet::metrics_fingerprint` has something to read.
        let recorder = Recorder::null();
        let config = portable.into_config(recorder.clone());
        let scenario = &self.scenarios[t as usize];
        if ckpt_window.is_none() {
            return Ok((MissionRunner::new(scenario, &config), recorder));
        }
        let fault = |kind, e: &CkptError, detail| {
            MissionError::new(kind, ckpt_fault_is_retryable(e), detail)
        };
        let latest = self.cfg.store.load_latest(t, scenario.seed).map_err(|e| {
            fault(MissionErrorKind::CheckpointLoad, &e, format!("scan checkpoints: {e}"))
        })?;
        let Some((window, payload)) = latest else {
            let detail = "evicted mission has no good checkpoint on disk".to_string();
            return Err(MissionError::new(MissionErrorKind::NoCheckpoint, false, detail));
        };
        let runner = MissionRunner::resume(scenario, &config, &payload).map_err(|e| {
            fault(MissionErrorKind::Resume, &e, format!("resume from window {window}: {e}"))
        })?;
        *resumed = Some(window);
        Ok((runner, recorder))
    }

    /// Checkpoints `runner` to the mission's store.
    fn save(&self, t: u64, runner: &MissionRunner) -> Eviction {
        let window = runner.window_index() as u64;
        let saved = match runner.save() {
            // Serialization failure is a bug in mission state, not a
            // storage fault; retrying cannot fix it.
            Err(e) => Err(MissionError::new(
                MissionErrorKind::CheckpointSave,
                false,
                format!("serialize mission state: {e}"),
            )),
            Ok(payload) => {
                let seed = self.scenarios[t as usize].seed;
                let written = self.cfg.store.save(t, seed, window, &payload);
                written.map(|()| payload.len() as u64).map_err(|e| {
                    let retryable = ckpt_fault_is_retryable(&e);
                    let detail = format!("write checkpoint: {e}");
                    MissionError::new(MissionErrorKind::CheckpointSave, retryable, detail)
                })
            }
        };
        Eviction { window, saved }
    }
}

/// A caught panic as a quarantine cause.
fn panicked(payload: Box<dyn std::any::Any + Send>) -> MissionError {
    let detail = if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    };
    MissionError::new(MissionErrorKind::Panic, false, detail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iobt_core::persistent_surveillance;
    use iobt_netsim::SimDuration;

    fn quick_config() -> RunConfig {
        RunConfig::builder()
            .duration(SimDuration::from_secs_f64(30.0))
            .window(SimDuration::from_secs_f64(10.0))
            .build()
            .expect("valid run config")
    }

    fn temp_root(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("iobt-fleet-test-{}-{tag}", std::process::id()))
    }

    #[test]
    fn batch_drains_to_done_with_reports() {
        let root = temp_root("drain");
        let mut fleet = FleetBuilder::new()
            .workers(2)
            .checkpoint_root(&root)
            .build()
            .expect("valid");
        let tickets: Vec<MissionTicket> = (0..4)
            .map(|i| {
                fleet
                    .submit(persistent_surveillance(60, 7 + i), quick_config())
                    .expect("admissible")
            })
            .collect();
        for &t in &tickets {
            assert_eq!(fleet.poll(t), Some(MissionStatus::Queued));
            assert!(fleet.report(t).is_none(), "no report before drain");
        }
        let summary = fleet.drain();
        assert_eq!(summary.submitted, 4);
        assert_eq!(summary.completed, 4);
        assert_eq!(summary.quarantined, 0);
        assert_eq!(summary.retries, 0);
        assert_eq!(summary.windows, 4 * 3, "3 windows each");
        for &t in &tickets {
            assert_eq!(fleet.poll(t), Some(MissionStatus::Done));
            let report = fleet.report(t).expect("report after drain");
            assert_eq!(report.windows.len(), 3);
            assert!(fleet.digest(t).is_some());
            assert!(fleet.metrics_fingerprint(t).is_some());
            assert!(fleet.error(t).is_none());
        }
        // A second drain has nothing to do; a late submission is picked
        // up by the next one.
        assert_eq!(fleet.drain().submitted, 0);
        let late = fleet
            .submit(persistent_surveillance(60, 99), quick_config())
            .expect("admissible");
        let second = fleet.drain();
        assert_eq!(second.submitted, 1);
        assert_eq!(second.completed, 1);
        assert_eq!(fleet.poll(late), Some(MissionStatus::Done));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn forced_eviction_round_trips_every_slice_through_disk() {
        let root = temp_root("evict");
        let mut fleet = FleetBuilder::new()
            .workers(2)
            .evict_every_slice(true)
            .checkpoint_root(&root)
            .build()
            .expect("valid");
        for i in 0..3 {
            fleet
                .submit(persistent_surveillance(60, 11 + i), quick_config())
                .expect("admissible");
        }
        let summary = fleet.drain();
        assert_eq!(summary.completed, 3);
        // 3 windows per mission at quantum 1: evicted after windows 1
        // and 2, resumed twice, finished on the third slice.
        assert_eq!(summary.evictions, 6);
        assert_eq!(summary.resumes, 6);
        assert_eq!(summary.slices, 9);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn submit_rejects_recorders_and_empty_catalogs() {
        let mut fleet = FleetBuilder::new().build().expect("valid");
        let (rec, _ring) = Recorder::memory(16);
        let armed = RunConfig::builder()
            .recorder(rec)
            .build()
            .expect("valid run config");
        assert_eq!(
            fleet.submit(persistent_surveillance(60, 1), armed).err(),
            Some(crate::SubmitError::RecorderAttached)
        );
        let mut empty = persistent_surveillance(60, 1);
        empty.catalog = iobt_core::types::NodeCatalog::new();
        assert_eq!(
            fleet.submit(empty, quick_config()).err(),
            Some(crate::SubmitError::EmptyCatalog)
        );
        // Unknown tickets answer `None` everywhere.
        let stranger = MissionTicket(123);
        assert_eq!(fleet.poll(stranger), None);
        assert!(fleet.report(stranger).is_none());
    }

    #[test]
    fn admission_bound_sheds_new_work() {
        let mut fleet = FleetBuilder::new()
            .max_queued(2)
            .build()
            .expect("valid");
        fleet
            .submit(persistent_surveillance(60, 1), quick_config())
            .expect("admissible");
        fleet
            .submit(persistent_surveillance(60, 2), quick_config())
            .expect("admissible");
        assert_eq!(
            fleet
                .submit(persistent_surveillance(60, 3), quick_config())
                .err(),
            Some(crate::SubmitError::QueueFull { queued: 2 })
        );
        // Draining the backlog reopens admission.
        let summary = fleet.drain();
        assert_eq!(summary.completed, 2);
        fleet
            .submit(persistent_surveillance(60, 3), quick_config())
            .expect("admissible after drain");
    }

    #[test]
    fn scheduler_trace_counts_match_the_summary() {
        let root = temp_root("trace");
        let (rec, ring) = Recorder::memory(4096);
        let mut fleet = FleetBuilder::new()
            .workers(2)
            .evict_every_slice(true)
            .recorder(rec.clone())
            .checkpoint_root(&root)
            .build()
            .expect("valid");
        for i in 0..2 {
            fleet
                .submit(persistent_surveillance(60, 21 + i), quick_config())
                .expect("admissible");
        }
        let summary = fleet.drain();
        let records = ring.records();
        let count = |kind: &str| records.iter().filter(|r| r.event.kind() == kind).count() as u64;
        assert_eq!(count("fleet_admit"), 2);
        assert_eq!(count("fleet_slice"), summary.slices);
        assert_eq!(count("fleet_evict"), summary.evictions);
        assert_eq!(count("fleet_resume"), summary.resumes);
        assert_eq!(count("fleet_complete"), 2);
        let d = rec.metrics_digest();
        assert_eq!(d.counter("fleet.admitted"), Some(2));
        assert_eq!(d.counter("fleet.completed"), Some(2));
        assert_eq!(d.counter("fleet.slices"), Some(summary.slices));
        assert_eq!(d.counter("fleet.windows"), Some(summary.windows));
        // Canonical layout: all of ticket 0's post-join events precede
        // ticket 1's.
        let tickets: Vec<u64> = records
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::FleetSlice { ticket, .. }
                | TraceEvent::FleetEvict { ticket, .. }
                | TraceEvent::FleetResume { ticket, .. }
                | TraceEvent::FleetComplete { ticket, .. } => Some(ticket),
                _ => None,
            })
            .collect();
        let mut sorted = tickets.clone();
        sorted.sort_unstable();
        assert_eq!(tickets, sorted, "post-join events are grouped by ticket");
        let _ = std::fs::remove_dir_all(&root);
    }

    use crate::core::tests::{interleave, Rng};
    use crate::core::Settled;
    use crate::{DiskStore, FailingStore, FaultProfile};

    /// What the single-threaded driver keeps per virtual worker, and the
    /// manifest it mirrors records into.
    struct Harness<'m> {
        runners: Vec<BTreeMap<u64, Live>>,
        held: Vec<Option<Live>>,
        latencies: Vec<f64>,
        manifest: Option<&'m mut ManifestState>,
        root: std::path::PathBuf,
        generation: u64,
    }

    /// Drains `fleet` on one thread: the pool's shell actions, with the
    /// worker at every step picked by `seed` (`interleave`). With the
    /// manifest on, every persisted record must be on disk in a newer
    /// generation before the next step.
    fn drain_seeded(fleet: &mut Fleet, seed: u64) -> FleetSummary {
        let root = fleet.cfg.checkpoint_root.clone();
        fleet.drain_with(|shell, mut state| {
            let n = shell.cfg.workers;
            let mut h = Harness {
                runners: (0..n).map(|_| BTreeMap::new()).collect(),
                held: (0..n).map(|_| None).collect(),
                latencies: Vec::new(),
                manifest: state.manifest.take(),
                root,
                generation: 0,
            };
            let act = |h: &mut Harness<'_>, core: &Core<'_>, w: usize, action: Action| {
                let (Action::Run(t, _) | Action::Evict(t)) = action else { unreachable!() };
                let mission = Mission::take(&mut h.runners[w], t, core.record(t));
                let (outcome, live) = shell.act(action, mission, &mut h.latencies);
                h.held[w] = live;
                outcome
            };
            let settle = |h: &mut Harness<'_>, core: &Core<'_>, w: usize, t: u64, s: Settled| {
                let live = h.held[w].take();
                if s.keep {
                    h.runners[w].extend(live.map(|live| (t, live)));
                }
                if let Some(manifest) = h.manifest.as_deref_mut().filter(|_| s.persist) {
                    manifest.update(t, core.record(t).clone());
                    let disk = ManifestFile::load_latest(&h.root).unwrap().unwrap();
                    assert!(disk.generation > h.generation, "manifest generations are monotone");
                    assert_eq!(&disk.records[t as usize], core.record(t));
                    h.generation = disk.generation;
                }
            };
            interleave(&mut state.core, &mut Rng(seed), &mut h, act, settle);
            h.latencies
        })
    }

    /// One seed of the real-mission sweep: three 3-window missions under
    /// a seed-picked worker count, residency and eviction policy, and one
    /// of four profiles — clean, checkpoint-IO faults, an injected panic,
    /// or a halt followed by recovery. Every finished mission must match
    /// its solo run.
    fn explore_real(seed: u64, solo: &[(EndStateDigest, u64)]) {
        let mut rng = Rng(seed);
        let root = temp_root(&format!("explore-{seed}"));
        let _ = std::fs::remove_dir_all(&root);
        let workers = [1, 2, 4][rng.below(3) as usize];
        let configure = |rng: &mut Rng| {
            FleetBuilder::new()
                .workers(workers)
                .checkpoint_root(&root)
                .max_resident(1 + rng.below(3) as usize)
                .evict_every_slice(rng.below(2) == 0)
        };
        let mut builder = configure(&mut rng);
        let profile = seed % 4;
        let mut panicked = None;
        match profile {
            1 => {
                let faults = FaultProfile::uniform(seed, 4);
                builder = builder
                    .store(FailingStore::new(DiskStore::new(&root), faults))
                    .retry_limit(64)
                    .retry_backoff(rng.below(3), 4);
            }
            2 => {
                let (ticket, window) = (rng.below(3), rng.below(3));
                panicked = Some(ticket);
                builder = builder.inject_panic(ticket, window);
            }
            3 => builder = builder.durable_manifest(true).halt_after_slices(1 + rng.below(8)),
            _ => {}
        }
        let scenarios: Vec<Scenario> = (0..3).map(|i| persistent_surveillance(60, 7 + i)).collect();
        let mut fleet = builder.build().expect("valid");
        for scenario in &scenarios {
            fleet.submit(scenario.clone(), quick_config()).expect("admissible");
        }
        drain_seeded(&mut fleet, seed);
        if profile == 3 {
            drop(fleet);
            fleet = configure(&mut rng).recover(scenarios).expect("manifest rebuilds the fleet");
            drain_seeded(&mut fleet, !seed);
        }
        for (i, ticket) in fleet.tickets().into_iter().enumerate() {
            if panicked == Some(i as u64) {
                assert_eq!(fleet.poll(ticket), Some(MissionStatus::Quarantined), "seed {seed}");
                continue;
            }
            assert_eq!(fleet.poll(ticket), Some(MissionStatus::Done), "seed {seed}: {ticket}");
            assert_eq!(fleet.digest(ticket), Some(&solo[i].0), "seed {seed}: {ticket}");
            assert_eq!(fleet.metrics_fingerprint(ticket), Some(solo[i].1), "seed {seed}: {ticket}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    fn solo_runs() -> Vec<(EndStateDigest, u64)> {
        (0..3)
            .map(|i| {
                let recorder = Recorder::null();
                let mut config = quick_config();
                config.recorder = recorder.clone();
                let report = iobt_core::run_mission(&persistent_surveillance(60, 7 + i), &config);
                (report.digest, recorder.metrics_digest().fingerprint())
            })
            .collect()
    }

    #[test]
    fn explored_interleavings_of_real_missions_match_solo_runs() {
        let solo = solo_runs();
        for seed in 0..64 {
            explore_real(seed, &solo);
        }
    }

    /// The same sweep over 1,000 seeds; run it in release
    /// (`cargo test --release -p iobt-fleet -- --ignored`).
    #[test]
    #[ignore = "1,000 seeds: minutes in a debug build"]
    fn explored_interleavings_of_real_missions_match_solo_runs_1000_seeds() {
        let solo = solo_runs();
        for seed in 0..1_000 {
            explore_real(seed, &solo);
        }
    }
}
