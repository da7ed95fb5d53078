//! Mission-level checkpoint payloads: [`MissionRunner::save`] and
//! [`MissionRunner::resume`].
//!
//! A mission checkpoint is taken at a utility-window boundary and
//! captures *only* the execution-phase state that cannot be recomputed:
//!
//! * a **guard** section — scenario seed, catalog size, command post,
//!   and the run parameters that shape execution, stored as their
//!   [`encode_portable_config`] bytes. Resume verifies the guard against
//!   the scenario and config it was handed and refuses with
//!   [`CkptError::Mismatch`] on any disagreement, because resuming
//!   under a different configuration would silently diverge;
//! * the **window loop** state — next window, repairs, per-window
//!   utility stats, the current selection and composition result, the
//!   set of ever-failed nodes, failure-detector heartbeat table, and
//!   degradation-ladder counters;
//! * the **delivered-report log** and acked-tasking board;
//! * the **recorder clock** — sim-time, trace sequence, per-subsystem
//!   sampling phase, and the full metrics registry (the trace *sink* is
//!   deliberately not captured: a resumed run opens a fresh sink and
//!   appends only post-resume records, so the resumed file equals the
//!   tail of the uninterrupted one);
//! * the **simulator snapshot** from
//!   [`Simulator::save_state`](iobt_netsim::Simulator::save_state) —
//!   clock, RNG stream, event queue, per-node state, fault state, and
//!   behaviour state — as one length-prefixed blob.
//!
//! Everything recomputable from `(scenario, config)` — discovery,
//! recruitment, the composition problem, assurance — is *not* stored;
//! resume re-runs those phases with a disabled recorder so no trace
//! events are double-counted. Wall-clock timings are never stored.

use iobt_ckpt::{CkptError, Dec, DecodeError, Enc};
use iobt_netsim::{SimDuration, SimTime};
use iobt_obs::{HistogramSnapshot, MetricsDigest, Recorder, RecorderCheckpoint, Subsystem};
use iobt_synthesis::{CompositionResult, Solver};
use iobt_types::NodeId;

use crate::behaviors::{
    mission_behavior_registry, new_report_log, new_task_board, DeliveredReport, TaskingStats,
};
use crate::resilience::{DegradationLadder, FailureDetector};
use crate::runtime::{
    build_sim, degraded_problem, prologue, EndStateDigest, MissionRunner, PortableRunConfig,
    ResilienceReport, RunConfig, WindowStat,
};
use crate::scenario::Scenario;

use std::collections::BTreeSet;

fn mismatch(what: &str, expected: impl std::fmt::Display, found: impl std::fmt::Display) -> CkptError {
    CkptError::Mismatch(format!(
        "checkpoint was taken under a different {what}: checkpoint has {found}, resume has {expected}"
    ))
}

/// The parameters a checkpoint is bound to: every one except
/// `reference_mode`, which is carried but not guarded — it selects
/// between equivalence-tested execution paths (patch, keep ahead, memoise
/// and batch, or none of them) and so never shapes the checkpointed state.
fn guarded(params: &PortableRunConfig) -> PortableRunConfig {
    PortableRunConfig {
        reference_mode: false,
        ..params.clone()
    }
}

fn portable_config_bytes(params: &PortableRunConfig) -> Vec<u8> {
    let mut e = Enc::new();
    encode_portable_config(&mut e, params);
    e.into_bytes()
}

/// Encodes the scenario/config guard. Order is part of the format.
fn encode_guard(e: &mut Enc, scenario: &Scenario, config: &RunConfig) {
    // Exhaustive destructures (R6): a new `Scenario` or `RunConfig`
    // field fails this lint until its guard story is decided. The
    // scenario guard is deliberately shallow — seed, catalog size, and
    // command post identify a scenario cheaply; the heavyweight fields
    // (`terrain`/`mission`/…) are covered transitively by the seed under
    // the deterministic generator. `recorder` is a sink handle, so it
    // does not shape the checkpointed state.
    let Scenario {
        catalog,
        terrain: _,
        mission: _,
        intent: _,
        jammers: _,
        disruptions: _,
        fault_plan: _,
        command_post,
        seed,
    } = scenario;
    let RunConfig { params, recorder: _ } = config;
    e.u64(*seed);
    e.usize(catalog.len());
    e.u64(command_post.raw());
    e.bytes(&portable_config_bytes(&guarded(params)));
}

/// Decodes and verifies the guard section against the caller's
/// scenario and config.
fn check_guard(d: &mut Dec<'_>, scenario: &Scenario, config: &RunConfig) -> Result<(), CkptError> {
    let seed = d.u64()?;
    if seed != scenario.seed {
        return Err(mismatch("seed", scenario.seed, seed));
    }
    let catalog_len = d.usize()?;
    if catalog_len != scenario.catalog.len() {
        return Err(mismatch("catalog size", scenario.catalog.len(), catalog_len));
    }
    let command_post = d.u64()?;
    if command_post != scenario.command_post.raw() {
        return Err(mismatch(
            "command post",
            scenario.command_post.raw(),
            command_post,
        ));
    }
    // Compared as encoded bytes, so every parameter has to match
    // bit-for-bit (floats included) without being named here.
    let found = d.bytes()?;
    let expected = guarded(&config.params);
    if found != portable_config_bytes(&expected) {
        let mut stored = Dec::new(found);
        let found = decode_portable_config(&mut stored)?;
        stored.finish()?;
        return Err(mismatch(
            "run configuration",
            format!("{expected:?}"),
            format!("{found:?}"),
        ));
    }
    Ok(())
}

/// Encodes the recorder clock, sampling phase and metrics registry.
fn enc_recorder(e: &mut Enc, checkpoint: &RecorderCheckpoint) {
    let RecorderCheckpoint { t_us, seq, emitted, metrics } = checkpoint;
    e.u64(*t_us);
    e.u64(*seq);
    // Length-prefixed: a build with one more subsystem grows this block
    // without moving any field after it.
    e.usize(emitted.len());
    for v in emitted {
        e.u64(*v);
    }
    enc_digest(e, metrics);
}

fn dec_recorder(d: &mut Dec<'_>) -> Result<RecorderCheckpoint, CkptError> {
    let t_us = d.u64()?;
    let seq = d.u64()?;
    let slots = d.usize()?;
    if slots > Subsystem::COUNT {
        return Err(CkptError::Mismatch(format!(
            "checkpoint counts emissions for {slots} subsystems, this build knows {}",
            Subsystem::COUNT
        )));
    }
    // Subsystems the writing build did not know have emitted nothing.
    let mut emitted = [0u64; Subsystem::COUNT];
    for slot in &mut emitted[..slots] {
        *slot = d.u64()?;
    }
    let metrics = dec_digest(d)?;
    Ok(RecorderCheckpoint {
        t_us,
        seq,
        emitted,
        metrics,
    })
}

fn enc_digest(e: &mut Enc, digest: &MetricsDigest) {
    // Exhaustive destructures (R6): a new digest or histogram field
    // fails this lint until it is encoded (and decoded, in order).
    let MetricsDigest { counters, gauges, histograms } = digest;
    e.usize(counters.len());
    for (name, value) in counters {
        e.str(name);
        e.u64(*value);
    }
    e.usize(gauges.len());
    for (name, value) in gauges {
        e.str(name);
        e.f64(*value);
    }
    e.usize(histograms.len());
    for (name, snap) in histograms {
        let HistogramSnapshot { bounds, counts, total, sum } = snap;
        e.str(name);
        e.usize(bounds.len());
        for b in bounds {
            e.f64(*b);
        }
        e.usize(counts.len());
        for c in counts {
            e.u64(*c);
        }
        e.u64(*total);
        e.f64(*sum);
    }
}

fn dec_digest(d: &mut Dec<'_>) -> Result<MetricsDigest, DecodeError> {
    let n = d.usize()?;
    let mut counters = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = d.str()?;
        let value = d.u64()?;
        counters.push((name, value));
    }
    let n = d.usize()?;
    let mut gauges = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = d.str()?;
        let value = d.f64()?;
        gauges.push((name, value));
    }
    let n = d.usize()?;
    let mut histograms = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = d.str()?;
        let nb = d.usize()?;
        let mut bounds = Vec::with_capacity(nb.min(1024));
        for _ in 0..nb {
            bounds.push(d.f64()?);
        }
        let nc = d.usize()?;
        let mut counts = Vec::with_capacity(nc.min(1024));
        for _ in 0..nc {
            counts.push(d.u64()?);
        }
        let total = d.u64()?;
        let sum = d.f64()?;
        histograms.push((
            name,
            HistogramSnapshot {
                bounds,
                counts,
                total,
                sum,
            },
        ));
    }
    Ok(MetricsDigest {
        counters,
        gauges,
        histograms,
    })
}

fn enc_solver(e: &mut Enc, solver: &Solver) {
    match solver {
        Solver::Greedy => e.u8(0),
        Solver::Anneal { iterations, seed } => {
            e.u8(1);
            e.usize(*iterations);
            e.u64(*seed);
        }
        Solver::Random { seed } => {
            e.u8(2);
            e.u64(*seed);
        }
        Solver::Exhaustive => e.u8(3),
        Solver::Portfolio { iterations, seed } => {
            e.u8(4);
            e.usize(*iterations);
            e.u64(*seed);
        }
    }
}

fn dec_solver(d: &mut Dec<'_>) -> Result<Solver, DecodeError> {
    match d.u8()? {
        0 => Ok(Solver::Greedy),
        1 => Ok(Solver::Anneal {
            iterations: d.usize()?,
            seed: d.u64()?,
        }),
        2 => Ok(Solver::Random { seed: d.u64()? }),
        3 => Ok(Solver::Exhaustive),
        4 => Ok(Solver::Portfolio {
            iterations: d.usize()?,
            seed: d.u64()?,
        }),
        tag => Err(DecodeError::UnknownTag {
            what: "solver",
            tag,
        }),
    }
}

/// Encodes a [`PortableRunConfig`] into `e` with the fixed-order layout
/// [`decode_portable_config`] reads back: the one codec for run
/// parameters. The checkpoint guard stores these bytes to refuse a
/// resume under different parameters, and the fleet manifest stores
/// them to re-admit a mission bit-identically after a process death.
pub fn encode_portable_config(e: &mut Enc, config: &PortableRunConfig) {
    // Exhaustive destructure (R6): a field added to the parameters
    // fails this lint until it is encoded (and decoded, in order).
    let PortableRunConfig {
        duration,
        window,
        report_period,
        adaptive,
        repair_threshold,
        grid,
        solver,
        require_reachability,
        early_repair,
        detector_ticks,
        suspicion_periods,
        degradation_ladder,
        shed_threshold,
        restore_threshold,
        ladder_patience,
        acked_tasking,
        task_attempts,
        task_retry_base,
        reference_mode,
    } = config;
    e.u64(duration.as_micros());
    e.u64(window.as_micros());
    e.u64(report_period.as_micros());
    e.bool(*adaptive);
    e.f64(*repair_threshold);
    e.usize(*grid);
    enc_solver(e, solver);
    e.bool(*require_reachability);
    e.bool(*early_repair);
    e.u32(*detector_ticks);
    e.f64(*suspicion_periods);
    e.bool(*degradation_ladder);
    e.f64(*shed_threshold);
    e.f64(*restore_threshold);
    e.u32(*ladder_patience);
    e.bool(*acked_tasking);
    e.u32(*task_attempts);
    e.u64(task_retry_base.as_micros());
    e.bool(*reference_mode);
}

/// Decodes a [`PortableRunConfig`] written by [`encode_portable_config`].
pub fn decode_portable_config(d: &mut Dec<'_>) -> Result<PortableRunConfig, DecodeError> {
    // Fields are read in the order written here, which is the wire order.
    Ok(PortableRunConfig {
        duration: SimDuration::from_micros(d.u64()?),
        window: SimDuration::from_micros(d.u64()?),
        report_period: SimDuration::from_micros(d.u64()?),
        adaptive: d.bool()?,
        repair_threshold: d.f64()?,
        grid: d.usize()?,
        solver: dec_solver(d)?,
        require_reachability: d.bool()?,
        early_repair: d.bool()?,
        detector_ticks: d.u32()?,
        suspicion_periods: d.f64()?,
        degradation_ladder: d.bool()?,
        shed_threshold: d.f64()?,
        restore_threshold: d.f64()?,
        ladder_patience: d.u32()?,
        acked_tasking: d.bool()?,
        task_attempts: d.u32()?,
        task_retry_base: SimDuration::from_micros(d.u64()?),
        reference_mode: d.bool()?,
    })
}

/// Encodes an [`EndStateDigest`] (with its nested [`ResilienceReport`]
/// and [`TaskingStats`]) into `e`, bit-exactly: every `f64` travels as
/// its IEEE-754 pattern, so a digest restored by
/// [`decode_end_state_digest`] compares equal to the one saved. Used by
/// the fleet manifest to keep completed missions' results across a
/// scheduler crash.
pub fn encode_end_state_digest(e: &mut Enc, digest: &EndStateDigest) {
    // Exhaustive destructures (R6): a new digest field fails this lint
    // until it is encoded (and decoded, in order).
    let EndStateDigest {
        sent,
        delivered,
        dropped,
        dropped_no_route,
        dropped_channel,
        dropped_dead,
        dropped_asleep,
        retransmits,
        tampered,
        energy_spent_j,
        node_energy_j,
        mean_utility,
        repairs,
        final_selection,
        resilience,
    } = digest;
    let ResilienceReport {
        suspected,
        early_repairs,
        sheds,
        restores,
        final_ladder_level,
        tasking,
    } = resilience;
    let TaskingStats {
        assigned,
        acked,
        retries,
        abandoned,
        tampered_rejected,
    } = tasking;
    e.u64(*sent);
    e.u64(*delivered);
    e.u64(*dropped);
    e.u64(*dropped_no_route);
    e.u64(*dropped_channel);
    e.u64(*dropped_dead);
    e.u64(*dropped_asleep);
    e.u64(*retransmits);
    e.u64(*tampered);
    e.f64(*energy_spent_j);
    e.usize(node_energy_j.len());
    for (node, energy) in node_energy_j {
        e.u64(node.raw());
        e.f64(*energy);
    }
    e.f64(*mean_utility);
    e.usize(*repairs);
    e.usize(final_selection.len());
    for &i in final_selection {
        e.usize(i);
    }
    e.u64(*suspected);
    e.u64(*early_repairs);
    e.u64(*sheds);
    e.u64(*restores);
    e.u64(*final_ladder_level);
    e.u64(*assigned);
    e.u64(*acked);
    e.u64(*retries);
    e.u64(*abandoned);
    e.u64(*tampered_rejected);
}

/// Decodes an [`EndStateDigest`] written by [`encode_end_state_digest`].
pub fn decode_end_state_digest(d: &mut Dec<'_>) -> Result<EndStateDigest, DecodeError> {
    let sent = d.u64()?;
    let delivered = d.u64()?;
    let dropped = d.u64()?;
    let dropped_no_route = d.u64()?;
    let dropped_channel = d.u64()?;
    let dropped_dead = d.u64()?;
    let dropped_asleep = d.u64()?;
    let retransmits = d.u64()?;
    let tampered = d.u64()?;
    let energy_spent_j = d.f64()?;
    let n = d.usize()?;
    let mut node_energy_j = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let node = NodeId::new(d.u64()?);
        let energy = d.f64()?;
        node_energy_j.push((node, energy));
    }
    let mean_utility = d.f64()?;
    let repairs = d.usize()?;
    let n = d.usize()?;
    let mut final_selection = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        final_selection.push(d.usize()?);
    }
    let suspected = d.u64()?;
    let early_repairs = d.u64()?;
    let sheds = d.u64()?;
    let restores = d.u64()?;
    let final_ladder_level = d.u64()?;
    let assigned = d.u64()?;
    let acked = d.u64()?;
    let retries = d.u64()?;
    let abandoned = d.u64()?;
    let tampered_rejected = d.u64()?;
    Ok(EndStateDigest {
        sent,
        delivered,
        dropped,
        dropped_no_route,
        dropped_channel,
        dropped_dead,
        dropped_asleep,
        retransmits,
        tampered,
        energy_spent_j,
        node_energy_j,
        mean_utility,
        repairs,
        final_selection,
        resilience: ResilienceReport {
            suspected,
            early_repairs,
            sheds,
            restores,
            final_ladder_level,
            tasking: TaskingStats {
                assigned,
                acked,
                retries,
                abandoned,
                tampered_rejected,
            },
        },
    })
}

impl MissionRunner {
    /// Serialises the runner's complete execution state as a checkpoint
    /// payload (wrap it in an envelope with
    /// [`iobt_ckpt::CheckpointStore::save`] or
    /// [`iobt_ckpt::write_checkpoint_atomic`]).
    ///
    /// Call between [`step_window`](MissionRunner::step_window) calls —
    /// window boundaries are the only states the format captures.
    ///
    /// # Errors
    ///
    /// Fails when an attached simulator behaviour is not
    /// checkpointable (see
    /// [`Behavior::save_state`](iobt_netsim::Behavior::save_state)).
    pub fn save(&self) -> Result<Vec<u8>, CkptError> {
        // Exhaustive-destructure convention (R6): adding a field to
        // `MissionRunner` fails this lint until its checkpoint story is
        // written. Phase 1–3 products (`recruited` … `problem`) are
        // recomputed at resume; `solve_ms`/`repair_ms` are wall-clock
        // reporting; `total_windows` is derived from the config.
        let Self {
            scenario: _,
            config: _,
            recruited: _,
            rejected_red: _,
            unreachable: _,
            infiltration_rate: _,
            composition: _,
            assurance: _,
            specs: _,
            base_problem: _,
            problem: _,
            sim: _,
            log: _,
            board: _,
            selection: _,
            current: _,
            active_reporters: _,
            windows: _,
            repairs: _,
            total_windows: _,
            next_window: _,
            failed_ever: _,
            detector: _,
            ladder: _,
            resilience: _,
            log_cursor: _,
            solve_ms: _,
            repair_ms: _,
        } = self;
        let mut e = Enc::new();
        encode_guard(&mut e, &self.scenario, &self.config);

        // Window-loop progress and resilience counters.
        e.usize(self.next_window);
        e.usize(self.repairs);
        e.usize(self.log_cursor);
        e.u64(self.resilience.suspected);
        e.u64(self.resilience.early_repairs);
        e.u64(self.resilience.sheds);
        e.u64(self.resilience.restores);

        // Selection, reporter set, failure history.
        e.usize(self.selection.len());
        for &i in &self.selection {
            e.usize(i);
        }
        e.usize(self.active_reporters.len());
        for id in &self.active_reporters {
            e.u64(id.raw());
        }
        e.usize(self.failed_ever.len());
        for id in &self.failed_ever {
            e.u64(id.raw());
        }

        // Current composition result.
        e.usize(self.current.selected.len());
        for &i in &self.current.selected {
            e.usize(i);
        }
        e.f64(self.current.coverage);
        e.f64(self.current.cost);
        e.bool(self.current.satisfied);

        // Completed windows.
        e.usize(self.windows.len());
        for w in &self.windows {
            e.f64(w.start_s);
            e.usize(w.expected);
            e.usize(w.reporting);
            e.f64(w.utility);
        }

        // Failure detector heartbeat table.
        e.u64(self.detector.threshold().as_micros());
        let entries = self.detector.entries();
        e.usize(entries.len());
        for (node, at) in entries {
            e.u64(node.raw());
            e.u64(at.as_micros());
        }

        // Degradation ladder counters.
        let (level, below, above) = self.ladder.counters();
        e.usize(level);
        e.u32(below);
        e.u32(above);

        // Delivered-report log.
        {
            let log = self.log.borrow();
            e.usize(log.len());
            for r in log.iter() {
                e.u64(r.from.raw());
                e.u64(r.at.as_micros());
            }
        }

        // Acked-tasking board.
        {
            let board = self.board.borrow();
            let pending = board.pending_entries();
            e.usize(pending.len());
            for (node, attempts, next_at) in pending {
                e.u64(node.raw());
                e.u32(attempts);
                e.u64(next_at.as_micros());
            }
            let TaskingStats { assigned, acked, retries, abandoned, tampered_rejected } =
                board.stats();
            e.u64(assigned);
            e.u64(acked);
            e.u64(retries);
            e.u64(abandoned);
            e.u64(tampered_rejected);
        }

        // Recorder clock + metrics (absent when the recorder is
        // disabled; the trace sink is never captured).
        match self.config.recorder.checkpoint() {
            Some(checkpoint) => {
                e.bool(true);
                enc_recorder(&mut e, &checkpoint);
            }
            None => e.bool(false),
        }

        // Full simulator snapshot as one length-prefixed blob.
        let blob = self.sim.save_state()?;
        e.bytes(&blob);
        Ok(e.into_bytes())
    }

    /// Rebuilds a runner from a checkpoint payload so that stepping it
    /// produces exactly the windows, traces, and end state the
    /// uninterrupted run would have produced.
    ///
    /// `scenario` and `config` must be the ones the checkpointed run
    /// was started with; the payload's guard section is verified
    /// against them. Recomputable pipeline phases (discovery,
    /// recruitment, synthesis, assurance) are re-run with a disabled
    /// recorder; everything else is restored from the payload.
    ///
    /// # Errors
    ///
    /// * [`CkptError::Decode`] — the payload is malformed (truncated,
    ///   bad tags, trailing bytes);
    /// * [`CkptError::Mismatch`] — the payload decoded but belongs to a
    ///   different scenario, config, or build (unknown behaviour kind,
    ///   node-count disagreement, inconsistent recorder state).
    pub fn resume(
        scenario: &Scenario,
        config: &RunConfig,
        payload: &[u8],
    ) -> Result<Self, CkptError> {
        let mut d = Dec::new(payload);
        check_guard(&mut d, scenario, config)?;

        let next_window = d.usize()?;
        let repairs = d.usize()?;
        let log_cursor = d.usize()?;
        let resilience = ResilienceReport {
            suspected: d.u64()?,
            early_repairs: d.u64()?,
            sheds: d.u64()?,
            restores: d.u64()?,
            ..ResilienceReport::default()
        };

        let n = d.usize()?;
        let mut selection = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            selection.push(d.usize()?);
        }
        let n = d.usize()?;
        let mut active_reporters = BTreeSet::new();
        for _ in 0..n {
            active_reporters.insert(NodeId::new(d.u64()?));
        }
        let n = d.usize()?;
        let mut failed_ever = BTreeSet::new();
        for _ in 0..n {
            failed_ever.insert(NodeId::new(d.u64()?));
        }

        let n = d.usize()?;
        let mut current_selected = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            current_selected.push(d.usize()?);
        }
        let current = CompositionResult {
            selected: current_selected,
            coverage: d.f64()?,
            cost: d.f64()?,
            satisfied: d.bool()?,
        };

        let n = d.usize()?;
        let mut windows = Vec::with_capacity(n.min(65_536));
        for _ in 0..n {
            windows.push(WindowStat {
                start_s: d.f64()?,
                expected: d.usize()?,
                reporting: d.usize()?,
                utility: d.f64()?,
            });
        }

        let detector_threshold = SimDuration::from_micros(d.u64()?);
        let n = d.usize()?;
        let mut detector_entries = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let node = NodeId::new(d.u64()?);
            let at = SimTime::from_micros(d.u64()?);
            detector_entries.push((node, at));
        }

        let ladder_level = d.usize()?;
        let ladder_below = d.u32()?;
        let ladder_above = d.u32()?;

        let n = d.usize()?;
        let mut log_entries = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            log_entries.push(DeliveredReport {
                from: NodeId::new(d.u64()?),
                at: SimTime::from_micros(d.u64()?),
            });
        }
        if log_cursor > log_entries.len() {
            return Err(CkptError::Mismatch(format!(
                "log cursor {log_cursor} exceeds delivered-report log of {}",
                log_entries.len()
            )));
        }

        let n = d.usize()?;
        let mut pending = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let node = NodeId::new(d.u64()?);
            let attempts = d.u32()?;
            let next_at = SimTime::from_micros(d.u64()?);
            pending.push((node, attempts, next_at));
        }
        let stats = TaskingStats {
            assigned: d.u64()?,
            acked: d.u64()?,
            retries: d.u64()?,
            abandoned: d.u64()?,
            tampered_rejected: d.u64()?,
        };

        let recorder_ck = if d.bool()? {
            Some(dec_recorder(&mut d)?)
        } else {
            None
        };

        let blob = d.bytes()?.to_vec();
        d.finish()?;

        // All bytes verified — now stand up a fresh simulator with no
        // faults scheduled (the restored event queue already contains
        // them) and rebuild the pure pipeline products over it (disabled
        // recorder: those trace events were already emitted by the run
        // that wrote this checkpoint).
        let mut sim = build_sim(scenario, config);
        let p = prologue(scenario, config, &Recorder::disabled(), &mut sim);
        let base_problem = p.problem.clone();
        let problem = if ladder_level == 0 {
            base_problem.clone()
        } else {
            degraded_problem(
                &base_problem,
                &scenario.mission,
                &p.specs,
                config.grid,
                ladder_level,
            )
        };

        // Restore the snapshot over the simulator, which patches the t = 0
        // graph it holds from the prologue's look up to the restored world
        // instead of building it again. Behaviours are rebuilt through the registry
        // and share the restored log/board handles.
        let log = new_report_log();
        let board = new_task_board();
        *log.borrow_mut() = log_entries;
        board.borrow_mut().restore(&pending, stats);
        let registry = mission_behavior_registry(&log, &board);
        sim.restore_state(&blob, &registry)?;

        // Restore the recorder clock so post-resume traces continue the
        // original sequence numbering and sampling phase.
        if let Some(ck) = recorder_ck {
            if config.recorder.is_enabled() && !config.recorder.restore_checkpoint(&ck) {
                return Err(CkptError::Mismatch(
                    "recorder metrics in checkpoint are internally inconsistent".to_string(),
                ));
            }
        }

        let detector = FailureDetector::from_checkpoint(detector_threshold, &detector_entries);
        let mut ladder = DegradationLadder::new(
            config.shed_threshold,
            config.restore_threshold,
            config.ladder_patience,
        );
        ladder.restore_counters(ladder_level, ladder_below, ladder_above);

        let total_windows =
            (config.duration.as_secs_f64() / config.window.as_secs_f64()).ceil() as usize;

        Ok(MissionRunner {
            scenario: scenario.clone(),
            config: config.clone(),
            recruited: p.recruited,
            rejected_red: p.rejected_red,
            unreachable: p.unreachable,
            infiltration_rate: p.infiltration_rate,
            composition: p.composition,
            assurance: p.assurance,
            specs: p.specs,
            base_problem,
            problem,
            sim,
            log,
            board,
            selection,
            current,
            active_reporters,
            windows,
            repairs,
            total_windows,
            next_window,
            failed_ever,
            detector,
            ladder,
            resilience,
            log_cursor,
            solve_ms: p.solve_ms,
            repair_ms: 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::StepOutcome;
    use crate::scenario::persistent_surveillance;
    use iobt_netsim::SimDuration;

    fn cfg() -> RunConfig {
        RunConfig::builder()
            .duration(SimDuration::from_secs_f64(40.0))
            .window(SimDuration::from_secs_f64(10.0))
            .build()
            .expect("valid")
    }

    #[test]
    fn save_resume_roundtrip_reproduces_the_uninterrupted_digest() {
        let scenario = persistent_surveillance(80, 11);
        let config = cfg();
        let baseline = crate::runtime::run_mission(&scenario, &config);

        let mut runner = MissionRunner::new(&scenario, &config);
        runner.step_window().window_stat().expect("window 0");
        runner.step_window().window_stat().expect("window 1");
        let payload = runner.save().expect("checkpointable");
        drop(runner); // the "crashed" process

        let mut resumed = MissionRunner::resume(&scenario, &config, &payload).expect("resume");
        assert_eq!(resumed.window_index(), 2);
        while let StepOutcome::WindowClosed { .. } = resumed.step_window() {}
        let report = resumed.finish();
        assert_eq!(report.digest, baseline.digest);
        assert_eq!(report.windows, baseline.windows);
    }

    #[test]
    fn resume_rejects_wrong_seed_and_config() {
        let scenario = persistent_surveillance(80, 11);
        let config = cfg();
        let mut runner = MissionRunner::new(&scenario, &config);
        runner.step_window().window_stat().expect("window 0");
        let payload = runner.save().expect("checkpointable");

        let mut other_seed = scenario.clone();
        other_seed.seed ^= 1;
        assert!(matches!(
            MissionRunner::resume(&other_seed, &config, &payload),
            Err(CkptError::Mismatch(_))
        ));

        let other_cfg = RunConfig::builder()
            .duration(SimDuration::from_secs_f64(40.0))
            .window(SimDuration::from_secs_f64(10.0))
            .repair_threshold(0.5)
            .build()
            .expect("valid");
        assert!(matches!(
            MissionRunner::resume(&scenario, &other_cfg, &payload),
            Err(CkptError::Mismatch(_))
        ));
    }

    #[test]
    fn resume_rejects_a_flip_of_every_guarded_parameter() {
        use crate::runtime::RunConfigBuilder;

        let scenario = persistent_surveillance(80, 11);
        let base = || {
            RunConfig::builder()
                .duration(SimDuration::from_secs_f64(40.0))
                .window(SimDuration::from_secs_f64(10.0))
        };
        let config = base().build().expect("valid");
        let mut runner = MissionRunner::new(&scenario, &config);
        runner.step_window().window_stat().expect("window 0");
        let payload = runner.save().expect("checkpointable");

        type Flip = fn(RunConfigBuilder) -> RunConfigBuilder;
        let flips: [Flip; 18] = [
            |b| b.duration(SimDuration::from_secs_f64(50.0)),
            |b| b.window(SimDuration::from_secs_f64(20.0)),
            |b| b.report_period(SimDuration::from_secs_f64(1.0)),
            |b| b.adaptive(false),
            |b| b.repair_threshold(0.5),
            |b| b.grid(7),
            |b| b.solver(Solver::Random { seed: 1 }),
            |b| b.require_reachability(false),
            |b| b.early_repair(true),
            |b| b.detector_ticks(5),
            |b| b.suspicion_periods(2.0),
            |b| b.degradation_ladder(true),
            |b| b.shed_threshold(0.4),
            |b| b.restore_threshold(0.9),
            |b| b.ladder_patience(3),
            |b| b.acked_tasking(true),
            |b| b.task_attempts(5),
            |b| b.task_retry_base(SimDuration::from_millis(500)),
        ];
        for (i, flip) in flips.into_iter().enumerate() {
            let flipped = flip(base()).build().expect("valid");
            assert_ne!(flipped.params, config.params, "flip {i} changes nothing");
            match MissionRunner::resume(&scenario, &flipped, &payload) {
                Err(CkptError::Mismatch(why)) => {
                    // Both sides are rendered, so the differing field is
                    // readable off the message.
                    assert!(why.contains(&format!("{:?}", config.params)), "{why}");
                    assert!(why.contains(&format!("{:?}", flipped.params)), "{why}");
                }
                other => panic!("flip {i} must be refused as a mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn reference_mode_is_not_guarded() {
        let scenario = persistent_surveillance(80, 11);
        let with_reference = |reference| {
            RunConfig::builder()
                .duration(SimDuration::from_secs_f64(40.0))
                .window(SimDuration::from_secs_f64(10.0))
                .reference_mode(reference)
                .build()
                .expect("valid")
        };
        let baseline = crate::runtime::run_mission(&scenario, &with_reference(false));

        let mut runner = MissionRunner::new(&scenario, &with_reference(true));
        runner.step_window().window_stat().expect("window 0");
        runner.step_window().window_stat().expect("window 1");
        let payload = runner.save().expect("checkpointable");
        drop(runner);

        let mut resumed = MissionRunner::resume(&scenario, &with_reference(false), &payload)
            .expect("reference_mode may differ between save and resume");
        while let StepOutcome::WindowClosed { .. } = resumed.step_window() {}
        assert_eq!(resumed.finish().digest, baseline.digest);
    }

    #[test]
    fn recorder_counter_block_zero_fills_fewer_slots_and_refuses_more() {
        let block = |slots: usize| {
            let mut e = Enc::new();
            e.u64(9);
            e.u64(3);
            e.usize(slots);
            for i in 0..slots {
                e.u64(i as u64 + 1);
            }
            enc_digest(&mut e, &MetricsDigest::default());
            e.into_bytes()
        };
        // Written by a build that knew only two subsystems.
        let older = dec_recorder(&mut Dec::new(&block(2))).expect("fewer slots load");
        assert_eq!((older.t_us, older.seq), (9, 3));
        assert_eq!(older.emitted[..2], [1, 2]);
        assert!(older.emitted[2..].iter().all(|&v| v == 0));
        // Written by this build: exact round trip.
        let mut e = Enc::new();
        enc_recorder(&mut e, &older);
        let same = dec_recorder(&mut Dec::new(&e.into_bytes())).expect("round trip");
        assert_eq!(same, older);
        // Written by a build that knows a subsystem this one does not.
        assert!(matches!(
            dec_recorder(&mut Dec::new(&block(Subsystem::COUNT + 1))),
            Err(CkptError::Mismatch(_))
        ));
    }

    #[test]
    fn truncated_payloads_error_instead_of_panicking() {
        let scenario = persistent_surveillance(80, 11);
        let config = cfg();
        let mut runner = MissionRunner::new(&scenario, &config);
        runner.step_window().window_stat().expect("window 0");
        let payload = runner.save().expect("checkpointable");
        // Every prefix must decode to an error, never panic. Stride keeps
        // the test fast on multi-hundred-KB payloads.
        for len in (0..payload.len()).step_by(97) {
            assert!(
                MissionRunner::resume(&scenario, &config, &payload[..len]).is_err(),
                "prefix of {len} bytes must be rejected"
            );
        }
        // Trailing garbage is rejected too.
        let mut padded = payload;
        padded.push(0);
        assert!(MissionRunner::resume(&scenario, &config, &padded).is_err());
    }
}
