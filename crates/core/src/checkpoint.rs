//! Mission-level checkpoint payloads: [`MissionRunner::save`] and
//! [`MissionRunner::resume`].
//!
//! A mission checkpoint is taken at a utility-window boundary and
//! captures everything a resume needs besides `(scenario, config)`:
//!
//! * a **guard** section — scenario seed, catalog size, command post,
//!   and the run parameters that shape execution, stored as their
//!   [`PortableRunConfig`] wire bytes. Resume verifies the guard against
//!   the scenario and config it was handed and refuses with
//!   [`CkptError::Mismatch`] on any disagreement, because resuming
//!   under a different configuration would silently diverge;
//! * the **prologue** section — the products of discovery, recruitment,
//!   synthesis and assurance (phases 1–3), which are fixed once the
//!   mission starts: the recruitment counts, the infiltration rate, the
//!   initial composition, the assurance report, and the ids of the
//!   admitted, reachable assets in candidate order. Resume takes those
//!   assets' specs from the scenario's catalog and rebuilds the
//!   composition problem over them, instead of re-running the
//!   classifier, the reachability sweep, the solve and the assurance
//!   trials;
//! * the **window loop** state — next window, repairs, per-window
//!   utility stats, the current selection, the set of ever-failed nodes,
//!   failure-detector heartbeat table (its threshold follows from the
//!   guarded report period), and degradation-ladder counters;
//! * the acked-tasking board;
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
//! What follows cheaply from the payload is *not* stored: the
//! composition problem (from the carried asset ids), the connectivity
//! graph (built at the restored world on its first use) and the
//! simulator's fixed configuration. Nor is history that no resume
//! reads: the delivered-report log is emptied as each window closes, so
//! it is empty at every boundary, and the network statistics keep a
//! running latency sum, not the samples. Wall-clock timings are never stored, so a
//! resumed run reports a `solve_ms` of zero.
//!
//! The value types this crate persists whole state their layouts here,
//! once each, as [`wire_struct!`] lists; [`MissionRunner`] itself has
//! derived fields, so its `save`/`resume` are written out by hand under
//! an exhaustive destructure (DESIGN.md, "Payload codec").

use iobt_ckpt::{wire_struct, CkptError, Dec, Enc};
use iobt_netsim::SimTime;
use iobt_obs::{RecorderCheckpoint, Subsystem};
use iobt_synthesis::{AssuranceReport, CompositionProblem, CompositionResult};
use iobt_types::{NodeId, NodeSpec};

use crate::behaviors::{mission_behavior_registry, new_report_log, new_task_board, TaskingStats};
use crate::resilience::{DegradationLadder, FailureDetector};
use crate::runtime::{
    build_sim, degraded_problem, EndStateDigest, MissionRunner, PortableRunConfig, Prologue,
    ResilienceReport, RunConfig, WindowStat,
};
use crate::scenario::Scenario;

use std::collections::BTreeSet;

// The run parameters: what the checkpoint guard compares byte for byte
// and the fleet manifest stores to re-admit a mission bit-identically
// after a process death.
wire_struct!(PortableRunConfig {
    duration,
    window,
    report_period,
    adaptive,
    repair_threshold,
    grid,
    solver,
    early_repair,
    degradation_ladder,
    acked_tasking,
    reference_mode,
});

wire_struct!(TaskingStats {
    assigned,
    acked,
    retries,
    abandoned,
    tampered_rejected,
});

wire_struct!(ResilienceReport {
    suspected,
    early_repairs,
    sheds,
    restores,
    final_ladder_level,
    tasking,
});

wire_struct!(EndStateDigest {
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
});

wire_struct!(WindowStat {
    start_s,
    expected,
    reporting,
    utility,
});

/// Appends `digest` in its wire layout (every `f64` as its IEEE-754
/// pattern, so a digest read back with [`Dec::get`] compares equal to the
/// one saved): the bytes the fleet manifest keeps a completed mission's
/// result in, and the ones the digest fingerprints hash.
pub fn encode_end_state_digest(e: &mut Enc, digest: &EndStateDigest) {
    e.put(digest);
}

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
    e.put(params);
    e.into_bytes()
}

/// Encodes the scenario/config guard. Order is part of the format.
fn encode_guard(e: &mut Enc, scenario: &Scenario, config: &RunConfig) {
    // Exhaustive destructures: a new `Scenario` or `RunConfig` field
    // fails this compile (E0027) until its guard story is decided. The
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
    e.put(command_post);
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
    let command_post: NodeId = d.get()?;
    if command_post != scenario.command_post {
        return Err(mismatch(
            "command post",
            scenario.command_post.raw(),
            command_post.raw(),
        ));
    }
    // Compared as encoded bytes, so every parameter has to match
    // bit-for-bit (floats included) without being named here.
    let found = d.bytes()?;
    let expected = guarded(&config.params);
    if found != portable_config_bytes(&expected) {
        let mut stored = Dec::new(found);
        let found: PortableRunConfig = stored.get()?;
        stored.finish()?;
        return Err(mismatch(
            "run configuration",
            format!("{expected:?}"),
            format!("{found:?}"),
        ));
    }
    Ok(())
}

/// Encodes the phase 1–3 products. Order is part of the format.
fn encode_prologue(e: &mut Enc, p: &Prologue) {
    // Exhaustive destructures (E0027 on a new field; a value lost between
    // here and `decode_prologue` fails `tests/checkpoint.rs`
    // `every_checkpointed_value_resumes_and_steps_to_the_same_bytes`):
    // `problem` follows from `specs`, which travel as their ids;
    // `solve_ms` is wall-clock reporting.
    let Prologue {
        recruited,
        rejected_red,
        unreachable,
        infiltration_rate,
        composition,
        assurance,
        specs,
        problem: _,
        solve_ms: _,
    } = p;
    let AssuranceReport {
        expected_coverage,
        success_probability,
    } = assurance;
    e.usize(*recruited);
    e.usize(*rejected_red);
    e.usize(*unreachable);
    e.f64(*infiltration_rate);
    e.put(composition);
    e.f64(*expected_coverage);
    e.f64(*success_probability);
    let ids: Vec<NodeId> = specs.iter().map(NodeSpec::id).collect();
    e.put(&ids);
}

/// Decodes the phase 1–3 products: each carried id must name a distinct
/// asset of `scenario`'s catalog, and the initial composition must select
/// among the candidates the rebuilt problem holds.
fn decode_prologue(
    d: &mut Dec<'_>,
    scenario: &Scenario,
    config: &RunConfig,
) -> Result<Prologue, CkptError> {
    let recruited = d.usize()?;
    let rejected_red = d.usize()?;
    let unreachable = d.usize()?;
    let infiltration_rate = d.f64()?;
    let composition: CompositionResult = d.get()?;
    let assurance = AssuranceReport {
        expected_coverage: d.f64()?,
        success_probability: d.f64()?,
    };
    let ids: Vec<NodeId> = d.get()?;
    let mut seen = BTreeSet::new();
    let mut specs = Vec::with_capacity(ids.len());
    for id in ids {
        if !seen.insert(id) {
            return Err(CkptError::Mismatch(format!(
                "checkpoint lists asset {} among the recruits twice",
                id.raw()
            )));
        }
        let spec = scenario.catalog.get(id).ok_or_else(|| {
            CkptError::Mismatch(format!(
                "checkpoint recruits asset {}, which the scenario's catalog does not hold",
                id.raw()
            ))
        })?;
        specs.push(spec.clone());
    }
    let problem = CompositionProblem::from_mission(&scenario.mission, &specs, config.grid);
    check_selected("initial composition", &composition.selected, &problem)?;
    Ok(Prologue {
        recruited,
        rejected_red,
        unreachable,
        infiltration_rate,
        composition,
        assurance,
        specs,
        problem,
        solve_ms: 0.0,
    })
}

/// Refuses a carried selection that indexes past `problem`'s candidates
/// (every relaxation of the ladder keeps the same candidates).
fn check_selected(
    what: &str,
    selected: &[usize],
    problem: &CompositionProblem,
) -> Result<(), CkptError> {
    let candidates = problem.candidates.len();
    match selected.iter().find(|&&i| i >= candidates) {
        Some(i) => Err(CkptError::Mismatch(format!(
            "checkpoint's {what} selects candidate {i} of {candidates}"
        ))),
        None => Ok(()),
    }
}

/// Encodes the recorder clock, sampling phase and metrics registry.
fn enc_recorder(e: &mut Enc, checkpoint: &RecorderCheckpoint) {
    let RecorderCheckpoint { t_us, seq, emitted, metrics } = checkpoint;
    e.u64(*t_us);
    e.u64(*seq);
    // Length-prefixed: a build with one more subsystem grows this block
    // without moving any field after it.
    e.seq(emitted.iter());
    e.put(metrics);
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
    let metrics = d.get()?;
    Ok(RecorderCheckpoint {
        t_us,
        seq,
        emitted,
        metrics,
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
        // Exhaustive-destructure convention: adding a field to
        // `MissionRunner` fails this compile (E0027) until its checkpoint
        // story is written, and `tests/checkpoint.rs`
        // `every_checkpointed_value_resumes_and_steps_to_the_same_bytes`
        // fails on a value written here but not restored, or on one
        // restored wrong. The phase 1–3 products (`prologue`) are carried, so a
        // resume runs none of those phases; `problem` follows from them
        // and the ladder level; `log` is empty between windows;
        // `repair_ms` is wall-clock reporting; `total_windows` is derived
        // from the config.
        let Self {
            scenario: _,
            config: _,
            prologue,
            problem: _,
            sim: _,
            log: _,
            board: _,
            selection: _,
            active_reporters: _,
            windows: _,
            repairs: _,
            total_windows: _,
            next_window: _,
            failed_ever: _,
            detector: _,
            ladder: _,
            resilience: _,
            repair_ms: _,
        } = self;
        let mut e = Enc::new();
        encode_guard(&mut e, &self.scenario, &self.config);
        encode_prologue(&mut e, prologue);

        // Window-loop progress and the resilience counters the loop
        // itself keeps (the ladder level and the tasking counters travel
        // with the ladder and the board below).
        e.usize(self.next_window);
        e.usize(self.repairs);
        e.u64(self.resilience.suspected);
        e.u64(self.resilience.early_repairs);
        e.u64(self.resilience.sheds);
        e.u64(self.resilience.restores);

        // Selection, reporter set, failure history.
        e.put(&self.selection);
        e.put(&self.active_reporters);
        e.put(&self.failed_ever);

        // Completed windows.
        e.put(&self.windows);

        // Failure detector heartbeat table.
        e.put(&self.detector.entries());

        // Degradation ladder counters.
        let (level, below, above) = self.ladder.counters();
        e.usize(level);
        e.u32(below);
        e.u32(above);

        // Acked-tasking board.
        {
            let board = self.board.borrow();
            e.put(&board.pending_entries());
            e.put(&board.stats());
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
    /// against them. Nothing of phases 1–3 runs again: the recruitment
    /// counts, the initial composition and its assurance come from the
    /// payload, and the composition problem is rebuilt over the carried
    /// recruits' catalog specs. The report of a resumed run therefore
    /// says `wall_clock.solve_ms == 0.0`.
    ///
    /// # Errors
    ///
    /// * [`CkptError::Decode`] — the payload is malformed (truncated,
    ///   bad tags, trailing bytes);
    /// * [`CkptError::Mismatch`] — the payload decoded but belongs to a
    ///   different scenario, config, or build (unknown behaviour kind,
    ///   node-count disagreement, inconsistent recorder state, a recruit
    ///   the catalog lacks or lists twice, a selection past the
    ///   candidates).
    pub fn resume(
        scenario: &Scenario,
        config: &RunConfig,
        payload: &[u8],
    ) -> Result<Self, CkptError> {
        let mut d = Dec::new(payload);
        check_guard(&mut d, scenario, config)?;
        let p = decode_prologue(&mut d, scenario, config)?;

        let next_window = d.usize()?;
        let repairs = d.usize()?;
        let resilience = ResilienceReport {
            suspected: d.u64()?,
            early_repairs: d.u64()?,
            sheds: d.u64()?,
            restores: d.u64()?,
            ..ResilienceReport::default()
        };

        let selection: Vec<usize> = d.get()?;
        let active_reporters: BTreeSet<NodeId> = d.get()?;
        let failed_ever: BTreeSet<NodeId> = d.get()?;

        check_selected("selection", &selection, &p.problem)?;
        let windows: Vec<WindowStat> = d.get()?;

        let detector_entries: Vec<(NodeId, SimTime)> = d.get()?;

        let ladder_level = d.usize()?;
        let ladder_below = d.u32()?;
        let ladder_above = d.u32()?;

        let pending: Vec<(NodeId, u32, SimTime)> = d.get()?;
        let stats: TaskingStats = d.get()?;

        let recorder_ck = if d.bool()? {
            Some(dec_recorder(&mut d)?)
        } else {
            None
        };

        let blob = d.bytes()?;
        d.finish()?;

        // All bytes verified — now stand up a fresh simulator with no
        // faults scheduled (the restored event queue already contains
        // them).
        let mut sim = build_sim(scenario, config);
        let problem = degraded_problem(
            &p.problem,
            &scenario.mission,
            &p.specs,
            config.grid,
            ladder_level,
        );

        // Restore the snapshot over the simulator. It holds no graph yet:
        // a snapshot that had one gets it built once, at the restored
        // world, and one that had none leaves that to the first access.
        // Behaviours are rebuilt through the registry and share the
        // runner's (empty) log and restored board handles.
        let log = new_report_log();
        let board = new_task_board();
        board.borrow_mut().restore(&pending, stats);
        let registry = mission_behavior_registry(&log, &board);
        sim.restore_state(blob, &registry)?;

        // Restore the recorder clock so post-resume traces continue the
        // original sequence numbering and sampling phase.
        if let Some(ck) = recorder_ck {
            if config.recorder.is_enabled() && !config.recorder.restore_checkpoint(&ck) {
                return Err(CkptError::Mismatch(
                    "recorder metrics in checkpoint are internally inconsistent".to_string(),
                ));
            }
        }

        let detector = FailureDetector::from_checkpoint(config.report_period, &detector_entries);
        let mut ladder = DegradationLadder::new();
        ladder.restore_counters(ladder_level, ladder_below, ladder_above);

        let total_windows =
            (config.duration.as_secs_f64() / config.window.as_secs_f64()).ceil() as usize;

        Ok(MissionRunner {
            scenario: scenario.clone(),
            config: config.clone(),
            prologue: p,
            problem,
            sim,
            log,
            board,
            selection,
            active_reporters,
            windows,
            repairs,
            total_windows,
            next_window,
            failed_ever,
            detector,
            ladder,
            resilience,
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
    use iobt_synthesis::Solver;

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
        let flips: [Flip; 10] = [
            |b| b.duration(SimDuration::from_secs_f64(50.0)),
            |b| b.window(SimDuration::from_secs_f64(20.0)),
            |b| b.report_period(SimDuration::from_secs_f64(1.0)),
            |b| b.adaptive(false),
            |b| b.repair_threshold(0.5),
            |b| b.grid(7),
            |b| b.solver(Solver::Random { seed: 1 }),
            |b| b.early_repair(true),
            |b| b.degradation_ladder(true),
            |b| b.acked_tasking(true),
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
            e.put(&iobt_obs::MetricsDigest::default());
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

    /// A payload saved from `persistent_surveillance(80, 11)` after one
    /// window, with its carried prologue edited by `edit` first; what a
    /// resume of it returns.
    fn resume_with_edited_prologue(
        edit: impl FnOnce(&mut Prologue),
    ) -> Result<MissionRunner, CkptError> {
        let scenario = persistent_surveillance(80, 11);
        let config = cfg();
        let mut runner = MissionRunner::new(&scenario, &config);
        runner.step_window().window_stat().expect("window 0");
        edit(&mut runner.prologue);
        let payload = runner.save().expect("checkpointable");
        MissionRunner::resume(&scenario, &config, &payload)
    }

    #[test]
    fn a_recruit_the_catalog_lacks_is_a_mismatch() {
        let resumed = resume_with_edited_prologue(|p| {
            p.specs[0] = iobt_types::NodeSpec::builder(NodeId::new(u64::MAX)).build();
        });
        assert!(
            matches!(&resumed, Err(CkptError::Mismatch(why)) if why.contains("does not hold")),
            "{resumed:?}"
        );
    }

    #[test]
    fn a_recruit_listed_twice_is_a_mismatch() {
        let resumed = resume_with_edited_prologue(|p| {
            let first = p.specs[0].clone();
            p.specs.push(first);
        });
        assert!(
            matches!(&resumed, Err(CkptError::Mismatch(why)) if why.contains("twice")),
            "{resumed:?}"
        );
    }

    #[test]
    fn an_initial_composition_past_the_recruits_is_a_mismatch() {
        let resumed = resume_with_edited_prologue(|p| {
            let past = p.specs.len();
            p.composition.selected.push(past);
        });
        assert!(
            matches!(&resumed, Err(CkptError::Mismatch(why)) if why.contains("initial composition")),
            "{resumed:?}"
        );
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
