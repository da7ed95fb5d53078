//! The fleet scheduler: admission queue, `std::thread::scope` worker
//! pool, per-mission state machine, checkpoint-eviction, and the
//! supervision layer (panic isolation, retry/backoff on checkpoint-IO
//! faults, quarantine, deadlines, and whole-fleet crash recovery).
//!
//! # Scheduling model
//!
//! Missions are `Send`-able *data* (scenario + portable config +
//! checkpoint bytes); live [`MissionRunner`]s are deliberately
//! thread-bound and never cross a thread. A mission moves between
//! workers only through its serialized checkpoint — which is exactly the
//! eviction path, so migration and crash recovery are one mechanism.
//!
//! Each worker is admission-first: it prefers the global queue (fresh
//! and evicted tickets) over its own residents, so every submitted
//! mission keeps making progress instead of the first `max_resident`
//! running to completion while the rest wait. When a worker's resident
//! count exceeds its threshold, the least-recently-sliced resident is
//! checkpointed to disk and its ticket returned to the global queue for
//! any worker to resume.
//!
//! # Supervision model
//!
//! Every slice runs under `catch_unwind`: a panicking mission is
//! [`Quarantined`](MissionStatus::Quarantined) with its payload
//! captured, the worker survives, and — because missions share no
//! mutable state — every other mission's digest is bit-identical to a
//! panic-free run. Checkpoint-IO faults are classified by
//! [`MissionError::retryable`]: transient faults retry up to
//! [`FleetBuilder::retry_limit`] times with capped exponential backoff
//! measured in *scheduler slices* (the fleet's only clock — wall time
//! never reaches a scheduling decision, so a faulty run is exactly
//! reproducible); exhausted or non-retryable faults quarantine. With
//! [`FleetBuilder::durable_manifest`] on, every durable state
//! transition is recorded in a checksummed manifest *after* its
//! checkpoint write, and [`Fleet::recover`] rebuilds the whole fleet
//! from the newest good manifest generation.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use iobt_core::{
    EndStateDigest, MissionReport, MissionRunner, RunConfig, Scenario, StepOutcome,
};
use iobt_obs::{Recorder, TraceEvent};

use crate::config::FleetConfig;
use crate::error::{ckpt_fault_is_retryable, MissionError, MissionErrorKind, RecoverError};
use crate::manifest::{scenario_fingerprint, ManifestFile, ManifestState, TicketRecord};
use crate::{FleetBuilder, MissionStatus, MissionTicket, SubmitError};

/// Locks a mutex, recovering the data on poisoning: a worker that
/// panicked mid-slice fails its own mission, but must not take the whole
/// fleet's bookkeeping down with it.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Everything the fleet knows about one submitted mission: the durable
/// record the manifest persists as it stands, and beside it what a crash
/// loses.
struct Slot {
    record: TicketRecord,
    /// Not serialisable; recovery takes it from the caller again and
    /// checks it against `record.scenario_hash`.
    scenario: Scenario,
    /// The full report once `Done`; after a recovery only the record's
    /// digest and metrics fingerprint are left of it.
    report: Option<MissionReport>,
    /// Scheduler events `(t_us, event)` observed by workers, recorded into
    /// the fleet recorder after the pool joins (in canonical ticket order
    /// — the same post-join pattern the portfolio solver uses to keep
    /// multi-threaded traces deterministic in layout).
    events: Vec<(u64, TraceEvent)>,
}

impl Slot {
    /// Buffers `event`, stamped with the mission's own sim time at the
    /// `window` boundary (the fleet has no clock of its own).
    fn note(&mut self, window: u64, event: TraceEvent) {
        self.events.push((window * self.record.window_us, event));
    }
}

// Missions must cross worker threads as plain data; this is the
// compile-time proof that a `Slot` (scenario, portable config, report,
// buffered events) contains nothing thread-bound.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Slot>();
};

/// The shared runnable-work pool: `ready` tickets any worker may take
/// now, and `deferred` tickets waiting out a retry backoff (promoted to
/// `ready` when the slice clock reaches their time).
struct QueueState {
    ready: VecDeque<u64>,
    deferred: Vec<(u64, u64)>,
}

/// Moves every deferred ticket whose backoff has elapsed into `ready`.
fn promote_due(q: &mut QueueState, now: u64) {
    let mut i = 0;
    while i < q.deferred.len() {
        if q.deferred[i].0 <= now {
            let (_, ticket) = q.deferred.remove(i);
            q.ready.push_back(ticket);
        } else {
            i += 1;
        }
    }
}

/// Shared state for one `drain` run.
struct DrainCtx<'a> {
    cfg: &'a FleetConfig,
    cells: &'a [Mutex<&'a mut Slot>],
    /// Tickets runnable by any worker: fresh admissions, evicted
    /// missions, and backoff-deferred retries.
    queue: Mutex<QueueState>,
    /// Wakes parked workers when the queue grows or the drain finishes.
    cv: Condvar,
    /// Missions not yet `Done`/`Quarantined`.
    remaining: AtomicUsize,
    /// The fleet's logical clock: total slices executed this drain.
    /// Retry backoff is measured against this — never wall time — so
    /// faulty runs stay deterministic. Fast-forwarded when only
    /// deferred work remains.
    slice_clock: AtomicU64,
    /// Set when `halt_after_slices` trips: workers stop taking work and
    /// unfinished missions stay wherever they are.
    halted: AtomicBool,
    /// Wall-clock slice latencies, milliseconds. Reporting only — never
    /// feeds back into scheduling decisions or results.
    latencies: Mutex<Vec<f64>>,
    /// The durable manifest, when enabled.
    manifest: Option<&'a Mutex<ManifestState>>,
}

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
    slots: Vec<Slot>,
    /// In-memory mirror of the on-disk ticket table, when durability is
    /// on.
    manifest: Option<Mutex<ManifestState>>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("workers", &self.cfg.workers)
            .field("missions", &self.slots.len())
            .finish_non_exhaustive()
    }
}

impl Fleet {
    pub(crate) fn from_parts(cfg: FleetConfig, recorder: Recorder) -> Self {
        let manifest = cfg
            .durable_manifest
            .then(|| Mutex::new(ManifestState::open(&cfg.checkpoint_root)));
        Fleet {
            cfg,
            recorder,
            slots: Vec::new(),
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
        let mut slots = Vec::with_capacity(scenarios.len());
        for (i, (record, scenario)) in loaded.records.into_iter().zip(scenarios).enumerate() {
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
            slots.push(Slot {
                record: TicketRecord {
                    status,
                    ckpt_window,
                    ..record
                },
                scenario,
                report: None,
                events: Vec::new(),
            });
        }
        self.recorder.flush();
        self.slots = slots;
        if let Some(manifest) = &self.manifest {
            lock(manifest).replace(self.slots.iter().map(|s| s.record.clone()).collect());
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
            let queued = self.slots.iter().filter(|s| !s.record.status.is_terminal()).count();
            if queued >= self.cfg.max_queued {
                self.recorder.record_at(
                    0,
                    TraceEvent::FleetShed {
                        ticket: self.slots.len() as u64,
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
        let ticket = MissionTicket(self.slots.len() as u64);
        let scenario_hash = scenario_fingerprint(&format!("{scenario:?}"));
        self.slots.push(Slot {
            record: TicketRecord {
                scenario_hash,
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
            },
            scenario,
            report: None,
            events: Vec::new(),
        });
        if let Some(manifest) = &self.manifest {
            let record = self.slots[ticket.0 as usize].record.clone();
            lock(manifest).update(ticket.0, record);
        }
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

    /// The mission's current lifecycle state, or `None` for a ticket
    /// this fleet never issued.
    pub fn poll(&self, ticket: MissionTicket) -> Option<MissionStatus> {
        self.slots.get(ticket.0 as usize).map(|s| s.record.status)
    }

    /// The completed mission's full report (`None` until `Done`, and
    /// `None` after crash recovery — only the digest and metrics
    /// fingerprint survive the manifest).
    pub fn report(&self, ticket: MissionTicket) -> Option<&MissionReport> {
        self.slots
            .get(ticket.0 as usize)
            .and_then(|s| s.report.as_ref())
    }

    /// The completed mission's end-state digest (`None` until `Done`).
    pub fn digest(&self, ticket: MissionTicket) -> Option<&EndStateDigest> {
        self.slots
            .get(ticket.0 as usize)
            .and_then(|s| s.record.digest.as_ref())
    }

    /// The completed mission's metrics fingerprint (`None` until `Done`).
    pub fn metrics_fingerprint(&self, ticket: MissionTicket) -> Option<u64> {
        self.slots.get(ticket.0 as usize).and_then(|s| s.record.metrics_fp)
    }

    /// Why a [`Quarantined`](MissionStatus::Quarantined) mission was
    /// isolated (`None` otherwise).
    pub fn error(&self, ticket: MissionTicket) -> Option<&MissionError> {
        self.slots
            .get(ticket.0 as usize)
            .and_then(|s| s.record.error.as_ref())
    }

    /// Every ticket this fleet has issued, in submission order.
    pub fn tickets(&self) -> Vec<MissionTicket> {
        (0..self.slots.len() as u64).map(MissionTicket).collect()
    }

    /// Total utility windows the mission will execute (`None` for a
    /// ticket this fleet never issued).
    pub fn total_windows(&self, ticket: MissionTicket) -> Option<u64> {
        self.slots.get(ticket.0 as usize).map(|s| s.record.total_windows)
    }

    /// Runs every non-terminal mission to completion across the worker
    /// pool and returns the batch summary. Safe to call repeatedly:
    /// missions submitted after a drain are picked up by the next one,
    /// and a drain stopped early by [`FleetBuilder::halt_after_slices`]
    /// leaves unfinished missions resumable by the next drain (or by
    /// [`Fleet::recover`] in a new process).
    pub fn drain(&mut self) -> FleetSummary {
        let pending: Vec<u64> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.record.status.is_terminal())
            .map(|(i, _)| i as u64)
            .collect();
        let submitted = pending.len();
        let start = Instant::now(); // lint: allow(wall-clock) — reporting only; lands in FleetSummary.wall_s, never in a decision or digest
        let mut latencies: Vec<f64> = Vec::new();
        if submitted > 0 {
            let manifest = self.manifest.as_ref();
            let cells: Vec<Mutex<&mut Slot>> = self.slots.iter_mut().map(Mutex::new).collect();
            let ctx = DrainCtx {
                cfg: &self.cfg,
                cells: &cells,
                queue: Mutex::new(QueueState {
                    ready: pending.iter().copied().collect(),
                    deferred: Vec::new(),
                }),
                cv: Condvar::new(),
                remaining: AtomicUsize::new(submitted),
                slice_clock: AtomicU64::new(0),
                halted: AtomicBool::new(false),
                latencies: Mutex::new(Vec::new()),
                manifest,
            };
            std::thread::scope(|s| {
                for _ in 0..self.cfg.workers {
                    s.spawn(|| worker_loop(&ctx));
                }
            });
            latencies = ctx.latencies.into_inner().unwrap_or_else(|e| e.into_inner());
        }
        let wall_s = start.elapsed().as_secs_f64();

        // Post-join: fold the workers' buffered scheduler events into
        // the fleet trace in canonical (ticket, mission-chronological)
        // order — the post-join pattern that keeps a multi-threaded
        // trace's layout deterministic — and total up the summary.
        let mut summary = FleetSummary {
            submitted,
            wall_s,
            ..FleetSummary::default()
        };
        let recorder = self.recorder.clone();
        for slot in &mut self.slots {
            for (t_us, event) in std::mem::take(&mut slot.events) {
                match event {
                    TraceEvent::FleetSlice { windows, .. } => {
                        summary.slices += 1;
                        summary.windows += windows;
                    }
                    TraceEvent::FleetEvict { .. } => summary.evictions += 1,
                    TraceEvent::FleetResume { .. } => summary.resumes += 1,
                    TraceEvent::FleetRetry { .. } => summary.retries += 1,
                    _ => {}
                }
                recorder.record_at(t_us, event);
            }
        }
        for &i in &pending {
            match self.slots[i as usize].record.status {
                MissionStatus::Done => summary.completed += 1,
                MissionStatus::Quarantined => summary.quarantined += 1,
                _ => {}
            }
        }
        recorder.flush();
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

fn worker_loop(ctx: &DrainCtx<'_>) {
    let mut resident: VecDeque<u64> = VecDeque::new();
    let mut runners: BTreeMap<u64, (MissionRunner, Recorder)> = BTreeMap::new();
    loop {
        if ctx.remaining.load(Ordering::SeqCst) == 0 || ctx.halted.load(Ordering::SeqCst) {
            break;
        }
        // Admission-first: prefer the global queue so every submitted
        // mission keeps progressing; fall back to our own residents.
        let next = {
            let mut q = lock(&ctx.queue);
            promote_due(&mut q, ctx.slice_clock.load(Ordering::SeqCst));
            q.ready.pop_front()
        }
        .or_else(|| resident.pop_front());
        match next {
            Some(ticket) => run_slice(ctx, ticket, &mut resident, &mut runners),
            None => {
                let mut q = lock(&ctx.queue);
                if !q.ready.is_empty() {
                    continue;
                }
                if !q.deferred.is_empty() {
                    // Only backoff-deferred work is left anywhere this
                    // worker can see: fast-forward the slice clock to
                    // the earliest due time instead of spinning.
                    // Backoff paces retries relative to fleet progress;
                    // when there is no other progress to wait behind,
                    // waiting has no meaning — and the clock is never
                    // digest-visible.
                    let due = q.deferred.iter().map(|&(at, _)| at).min().unwrap_or(0);
                    ctx.slice_clock.fetch_max(due, Ordering::SeqCst);
                    promote_due(&mut q, ctx.slice_clock.load(Ordering::SeqCst));
                    ctx.cv.notify_all();
                } else if ctx.remaining.load(Ordering::SeqCst) != 0
                    && !ctx.halted.load(Ordering::SeqCst)
                {
                    // Nothing runnable on this worker. Park until
                    // notified (evictions, retries, and completion all
                    // notify); the long timeout is only a liveness
                    // backstop against a lost wakeup, not a poll
                    // interval.
                    let _ = ctx
                        .cv
                        .wait_timeout(q, Duration::from_millis(100))
                        .unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }
}

/// How a slice left its mission, as seen by `run_slice`'s unwind guard.
/// The runner is boxed so the settled arm doesn't pay for the largest
/// variant.
enum SliceOutcome {
    /// The mission stays materialized on this worker.
    Resident(Box<(MissionRunner, Recorder)>),
    /// The mission completed, evicted, deferred, or quarantined; no
    /// runner survives on this worker.
    Settled,
}

/// A classified fault on the slice path, before retry accounting.
struct Fault {
    kind: MissionErrorKind,
    retryable: bool,
    detail: String,
}

/// Executes one scheduling quantum for `ticket` on this worker under an
/// unwind guard: a panic anywhere in materialization, stepping, or
/// completion quarantines *this* mission and leaves the worker — and
/// every other mission — untouched.
fn run_slice(
    ctx: &DrainCtx<'_>,
    ticket: u64,
    resident: &mut VecDeque<u64>,
    runners: &mut BTreeMap<u64, (MissionRunner, Recorder)>,
) {
    let mut guard = lock(&ctx.cells[ticket as usize]);
    let slot: &mut Slot = &mut guard;
    let existing = runners.remove(&ticket);
    // The cell guard is held *outside* the unwind boundary, so a panic
    // can never poison the slot's mutex.
    let outcome = catch_unwind(AssertUnwindSafe(|| slice_body(ctx, slot, ticket, existing)));
    match outcome {
        Ok(SliceOutcome::Resident(pair)) => {
            slot.record.status = MissionStatus::Idle;
            resident.push_back(ticket);
            runners.insert(ticket, *pair);
            drop(guard);
            enforce_residency(ctx, resident, runners);
        }
        Ok(SliceOutcome::Settled) => {}
        Err(payload) => {
            let error = MissionError::new(MissionErrorKind::Panic, false, panic_detail(payload));
            quarantine(ctx, slot, ticket, error);
        }
    }
}

/// The fallible/panicky part of a slice: materialize (fresh or
/// resumed), step one utility window, then complete, keep resident,
/// or evict.
fn slice_body(
    ctx: &DrainCtx<'_>,
    slot: &mut Slot,
    ticket: u64,
    existing: Option<(MissionRunner, Recorder)>,
) -> SliceOutcome {
    let (mut runner, recorder) = match existing {
        Some(pair) => pair,
        None => match materialize(ctx, slot, ticket) {
            Ok(pair) => pair,
            Err(fault) => {
                mission_fault(ctx, slot, ticket, fault);
                return SliceOutcome::Settled;
            }
        },
    };

    slot.record.status = MissionStatus::Running;
    let from_window = runner.window_index() as u64;
    let t0 = Instant::now(); // lint: allow(wall-clock) — reporting only; slice latency lands in FleetSummary, never in a decision or digest
    if let Some((target, window)) = ctx.cfg.inject_panic {
        if target == ticket && runner.window_index() as u64 == window {
            // Deliberate chaos injection behind the test-only
            // inject_panic knob; the supervision layer under test
            // catches this unwind.
            panic!("injected panic in mission m-{ticket:06} at window {window}");
        }
    }
    // `Finished`, and conservatively any future non-progress outcome
    // (`StepOutcome` is `#[non_exhaustive]`), ran no window.
    let ran = u64::from(matches!(runner.step_window(), StepOutcome::WindowClosed { .. }));
    lock(&ctx.latencies).push(t0.elapsed().as_secs_f64() * 1_000.0);
    slot.note(from_window + ran, TraceEvent::FleetSlice { ticket, from_window, windows: ran });
    slot.record.slices_used += 1;
    tick_clock(ctx);

    if runner.is_finished() {
        let windows = runner.total_windows() as u64;
        let report = runner.finish();
        let repairs = report.repairs as u64;
        slot.note(windows, TraceEvent::FleetComplete { ticket, windows, repairs });
        slot.record.metrics_fp = Some(recorder.metrics_digest().fingerprint());
        slot.record.digest = Some(report.digest.clone());
        slot.report = Some(report);
        slot.record.ckpt_window = None;
        slot.record.status = MissionStatus::Done;
        // The mission's checkpoints are no longer needed; reclaim the
        // disk space (best-effort — a leftover directory is harmless).
        ctx.cfg.store.clear(ticket);
        persist_slot(ctx, ticket, slot);
        finish_one(ctx);
        return SliceOutcome::Settled;
    }

    if let Some(budget) = ctx.cfg.slice_budget {
        if slot.record.slices_used >= budget {
            let attempts = slot.record.retries + 1;
            drop(runner);
            quarantine(
                ctx,
                slot,
                ticket,
                MissionError {
                    kind: MissionErrorKind::DeadlineExceeded,
                    retryable: false,
                    attempts,
                    detail: format!(
                        "mission still at window {} of {} after {budget} slices",
                        from_window + ran,
                        slot.record.total_windows
                    ),
                },
            );
            return SliceOutcome::Settled;
        }
    }

    if ctx.cfg.evict_every_slice {
        match evict(ctx, slot, ticket, runner, recorder) {
            Some(pair) => SliceOutcome::Resident(Box::new(pair)),
            None => SliceOutcome::Settled,
        }
    } else {
        SliceOutcome::Resident(Box::new((runner, recorder)))
    }
}

/// Advances the global slice clock and trips the halt latch when the
/// configured kill point is reached.
fn tick_clock(ctx: &DrainCtx<'_>) {
    let now = ctx.slice_clock.fetch_add(1, Ordering::SeqCst) + 1;
    if let Some(halt) = ctx.cfg.halt_after_slices {
        if now >= halt && !ctx.halted.swap(true, Ordering::SeqCst) {
            ctx.cv.notify_all();
        }
    }
}

/// Residency cap: checkpoint the least-recently-sliced missions out
/// until this worker is back under its threshold.
fn enforce_residency(
    ctx: &DrainCtx<'_>,
    resident: &mut VecDeque<u64>,
    runners: &mut BTreeMap<u64, (MissionRunner, Recorder)>,
) {
    while resident.len() > ctx.cfg.max_resident {
        let Some(victim) = resident.pop_front() else {
            break;
        };
        let Some((victim_runner, victim_rec)) = runners.remove(&victim) else {
            continue;
        };
        // Only this worker owns `victim`, so locking its cell here
        // cannot contend with another worker.
        let mut vguard = lock(&ctx.cells[victim as usize]);
        if let Some(pair) = evict(ctx, &mut vguard, victim, victim_runner, victim_rec) {
            // The checkpoint write failed retryably: keep the runner
            // resident (dropping it would strand live state) and stop
            // evicting this round; the next slice retries the save.
            vguard.record.status = MissionStatus::Idle;
            resident.push_back(victim);
            runners.insert(victim, pair);
            break;
        }
    }
}

/// Builds the mission's runner on this worker: fresh for `Queued`,
/// or resumed from its newest good on-disk checkpoint for `Evicted`.
fn materialize(
    ctx: &DrainCtx<'_>,
    slot: &mut Slot,
    ticket: u64,
) -> Result<(MissionRunner, Recorder), Fault> {
    // Metrics-only, so `Fleet::metrics_fingerprint` has something to read.
    let recorder = Recorder::null();
    let config = slot.record.portable.clone().into_config(recorder.clone());
    match slot.record.ckpt_window {
        None => Ok((MissionRunner::new(&slot.scenario, &config), recorder)),
        Some(_) => {
            let latest = ctx
                .cfg
                .store
                .load_latest(ticket, slot.record.seed)
                .map_err(|e| Fault {
                    kind: MissionErrorKind::CheckpointLoad,
                    retryable: ckpt_fault_is_retryable(&e),
                    detail: format!("scan checkpoints: {e}"),
                })?;
            let (window, payload) = latest.ok_or_else(|| Fault {
                kind: MissionErrorKind::NoCheckpoint,
                retryable: false,
                detail: "evicted mission has no good checkpoint on disk".to_string(),
            })?;
            let runner =
                MissionRunner::resume(&slot.scenario, &config, &payload).map_err(|e| Fault {
                    kind: MissionErrorKind::Resume,
                    retryable: ckpt_fault_is_retryable(&e),
                    detail: format!("resume from window {window}: {e}"),
                })?;
            slot.note(window, TraceEvent::FleetResume { ticket, window });
            Ok((runner, recorder))
        }
    }
}

/// Backoff before attempt `attempts + 1`, in scheduler slices: capped
/// exponential on the attempt count — pure arithmetic, no clock, no
/// jitter, so faulty runs replay exactly.
fn backoff_for(cfg: &FleetConfig, attempts: u32) -> u64 {
    let exp = attempts.saturating_sub(1).min(32);
    cfg.retry_backoff_base
        .checked_shl(exp)
        .unwrap_or(u64::MAX)
        .min(cfg.retry_backoff_cap)
}

/// Supervises a classified fault on a mission with no live runner
/// (materialization failed): retryable faults within budget are
/// backoff-deferred; everything else quarantines.
fn mission_fault(ctx: &DrainCtx<'_>, slot: &mut Slot, ticket: u64, fault: Fault) {
    let attempts = slot.record.retries + 1;
    if fault.retryable && attempts < ctx.cfg.retry_limit {
        slot.record.retries = attempts;
        let backoff = backoff_for(ctx.cfg, attempts);
        let window = slot.record.ckpt_window.unwrap_or(0);
        slot.note(
            window,
            TraceEvent::FleetRetry {
                ticket,
                window,
                attempt: u64::from(attempts),
                backoff_slices: backoff,
            },
        );
        persist_slot(ctx, ticket, slot);
        let ready_at = ctx.slice_clock.load(Ordering::SeqCst) + backoff;
        lock(&ctx.queue).deferred.push((ready_at, ticket));
        ctx.cv.notify_all();
    } else {
        quarantine(
            ctx,
            slot,
            ticket,
            MissionError {
                kind: fault.kind,
                retryable: fault.retryable,
                attempts,
                detail: fault.detail,
            },
        );
    }
}

/// Checkpoints `runner` to the mission's store, drops it, and returns
/// the ticket to the global queue for any worker to resume. On a
/// retryable store fault within budget, hands the runner back to the
/// caller (`Some`) so the mission stays resident and retries the save
/// on its next slice; otherwise quarantines and returns `None`.
fn evict(
    ctx: &DrainCtx<'_>,
    slot: &mut Slot,
    ticket: u64,
    runner: MissionRunner,
    recorder: Recorder,
) -> Option<(MissionRunner, Recorder)> {
    let window = runner.window_index() as u64;
    let payload = match runner.save() {
        Ok(p) => p,
        Err(e) => {
            // Serialization failure is a bug in mission state, not a
            // storage fault; retrying cannot fix it.
            let attempts = slot.record.retries + 1;
            quarantine(
                ctx,
                slot,
                ticket,
                MissionError {
                    kind: MissionErrorKind::CheckpointSave,
                    retryable: false,
                    attempts,
                    detail: format!("serialize mission state: {e}"),
                },
            );
            return None;
        }
    };
    match ctx.cfg.store.save(ticket, slot.record.seed, window, &payload) {
        Ok(()) => {
            let bytes = payload.len() as u64;
            slot.note(window, TraceEvent::FleetEvict { ticket, window, bytes });
            slot.record.ckpt_window = Some(window);
            slot.record.status = MissionStatus::Evicted;
            persist_slot(ctx, ticket, slot);
            lock(&ctx.queue).ready.push_back(ticket);
            ctx.cv.notify_one();
            None
        }
        Err(e) => {
            let attempts = slot.record.retries + 1;
            let retryable = ckpt_fault_is_retryable(&e);
            if retryable && attempts < ctx.cfg.retry_limit {
                slot.record.retries = attempts;
                // The mission stays resident with its live runner, so
                // the retry happens at its next natural slice — no
                // deferral needed (backoff_slices: 0 in the event).
                slot.note(
                    window,
                    TraceEvent::FleetRetry {
                        ticket,
                        window,
                        attempt: u64::from(attempts),
                        backoff_slices: 0,
                    },
                );
                persist_slot(ctx, ticket, slot);
                Some((runner, recorder))
            } else {
                quarantine(
                    ctx,
                    slot,
                    ticket,
                    MissionError {
                        kind: MissionErrorKind::CheckpointSave,
                        retryable,
                        attempts,
                        detail: format!("write checkpoint: {e}"),
                    },
                );
                None
            }
        }
    }
}

/// Isolates a mission terminally: records the typed error, marks the
/// slot `Quarantined`, persists the transition, and accounts for the
/// termination. Every other mission is unaffected.
fn quarantine(ctx: &DrainCtx<'_>, slot: &mut Slot, ticket: u64, error: MissionError) {
    slot.note(
        slot.record.ckpt_window.unwrap_or(0),
        TraceEvent::FleetQuarantine {
            ticket,
            error: error.kind.as_str(),
            attempts: u64::from(error.attempts),
        },
    );
    slot.record.error = Some(error);
    slot.record.status = MissionStatus::Quarantined;
    persist_slot(ctx, ticket, slot);
    finish_one(ctx);
}

/// Renders a caught panic payload for the quarantine record.
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Mirrors the slot's durable image into the manifest (no-op unless
/// durability is on). Best-effort: a manifest write failure degrades
/// recoverability, never the running batch.
fn persist_slot(ctx: &DrainCtx<'_>, ticket: u64, slot: &Slot) {
    if let Some(manifest) = ctx.manifest {
        lock(manifest).update(ticket, slot.record.clone());
    }
}

/// One mission reached a terminal state; wake everyone when it was the
/// last.
fn finish_one(ctx: &DrainCtx<'_>) {
    if ctx.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
        ctx.cv.notify_all();
    }
}

impl Default for Fleet {
    fn default() -> Self {
        // Defaults are always valid; the builder only rejects explicit
        // zeros.
        match FleetBuilder::new().build() {
            Ok(fleet) => fleet,
            Err(_) => unreachable!("default fleet configuration is valid"),
        }
    }
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
        assert_eq!(fleet.total_windows(stranger), None);
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
}
