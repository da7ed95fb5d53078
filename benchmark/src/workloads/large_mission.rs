//! `large_mission`: one surveillance mission at the paper's scale, from
//! intent to a composed, assured force, through a mid-mission crash and
//! resume, to the final report.
//!
//! `core`'s prologue (discovery → recruit → reachability → synthesis →
//! assurance) runs twice, once in `MissionRunner::new` and once in
//! `MissionRunner::resume`, and carries most of the wall time; `fleet`
//! and `bridge` are not touched. It is also the write-heavy use of
//! `ckpt`: a durable save after every window, one load.

use std::time::Instant;

use iobt::ckpt::{CheckpointStore, CkptError};
use iobt::prelude::*;
use iobt::types::TrustLedger;

use super::{fold_digest, Ctx, Layers, Outcome, SMALL_SETUP_REPEATS, THEATRE_SEED};
use crate::stats::{self, fnv1a, FNV_OFFSET};
use crate::trace::Tracer;

/// Catalog size. 1,000 nodes keep a repetition near 3 s on two cores
/// (composition grows roughly with the cube: 0.9 s here, 6.9 s at 2,000).
const NODES: usize = 1_000;
const QUICK_NODES: usize = 150;
/// Six 10 s windows; the runner is dropped and resumed after the third.
const MISSION_SECONDS: f64 = 60.0;

/// One repetition.
pub fn run(ctx: &Ctx) -> Outcome {
    let nodes = if ctx.quick { QUICK_NODES } else { NODES };
    let mut out = Outcome::default();

    let ((scenario, config, store), setup_s) =
        ctx.setup("large_mission.setup", SMALL_SETUP_REPEATS, || {
            let (mut scenario, _) =
                ctx.time("core.scenario_build", || persistent_surveillance(nodes, THEATRE_SEED));
            scenario.seed = ctx.seed;
            let config = RunConfig::builder()
                .duration(SimDuration::from_secs_f64(MISSION_SECONDS))
                .build()
                .expect("60 s of 10 s windows is a valid run config");
            let store = CheckpointStore::open(ctx.scratch.join("ckpt"));
            (scenario, config, store)
        });
    out.setup_s = setup_s;
    let store = match store {
        Ok(store) => store,
        Err(e) => return failed_early(out, &format!("open checkpoint directory: {e}")),
    };

    let timed = Instant::now();
    let (mut runner, compose_s) =
        ctx.time("core.compose", || MissionRunner::new(&scenario, &config));
    let windows = runner.total_windows();
    out.attempted = 2 * windows as u64 + 2;
    let mut progress = Progress::default();
    if let Err(e) = step_and_save(ctx, &mut runner, &store, windows / 2, &mut progress) {
        return failed_early(out, &format!("checkpoint before the crash: {e}"));
    }
    drop(runner);

    let (resumed, resume_s) = ctx.time("large_mission.resume", || {
        let (latest, _) = ctx.time("ckpt.load", || store.load_latest_good(scenario.seed));
        let (_, payload) = latest?.loaded.ok_or_else(|| {
            CkptError::Mismatch("no good checkpoint on disk after three saves".into())
        })?;
        ctx.time("core.resume", || MissionRunner::resume(&scenario, &config, &payload)).0
    });
    let mut runner = match resumed {
        Ok(runner) => runner,
        Err(e) => return failed_early(out, &format!("resume: {e}")),
    };
    if let Err(e) = step_and_save(ctx, &mut runner, &store, windows, &mut progress) {
        return failed_early(out, &format!("checkpoint after the resume: {e}"));
    }
    let (report, _) = ctx.time("core.finish", || runner.finish());
    out.wall_s = timed.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(store.dir());

    out.work = scenario.catalog.len() as f64;
    out.work_s = compose_s;
    if report.windows.len() != windows {
        out.failed += (windows - report.windows.len().min(windows)) as u64;
    }
    out.fingerprint = fingerprint(&report);
    out.phases = vec![
        ("compose_s", compose_s),
        ("resume_s", resume_s),
        ("sim_s_per_wall_s", MISSION_SECONDS / progress.step_s),
    ];
    if let Some(tracer) = &ctx.tracer {
        out.layers = layers(ctx, tracer, &scenario, &config, &report);
        out.layers.insert("ckpt.bytes", progress.ckpt_bytes as f64);
    }
    out
}

#[derive(Default)]
struct Progress {
    /// Seconds spent inside `step_window`.
    step_s: f64,
    /// Size of the newest checkpoint payload.
    ckpt_bytes: usize,
}

/// Steps `runner` up to window `until`, writing a durable checkpoint
/// after every window.
fn step_and_save(
    ctx: &Ctx,
    runner: &mut MissionRunner,
    store: &CheckpointStore,
    until: usize,
    progress: &mut Progress,
) -> Result<(), CkptError> {
    while runner.window_index() < until {
        let (_, s) = ctx.time("core.step_window", || runner.step_window());
        progress.step_s += s;
        let window = runner.window_index() as u64;
        let payload = ctx.time("core.save", || runner.save()).0?;
        progress.ckpt_bytes = payload.len();
        ctx.time("ckpt.write", || store.save(ctx.seed, window, &payload)).0?;
    }
    Ok(())
}

fn failed_early(mut out: Outcome, why: &str) -> Outcome {
    eprintln!("large_mission: {why}");
    out.attempted = out.attempted.max(1);
    out.failed = out.attempted;
    out
}

/// Digest, window trace and the prologue's products: everything a change
/// to composition, simulation or resume could disturb.
fn fingerprint(report: &MissionReport) -> u64 {
    let mut fp = FNV_OFFSET;
    fold_digest(&mut fp, &report.digest);
    for n in [report.recruited, report.rejected_red, report.unreachable] {
        fnv1a(&mut fp, &(n as u64).to_le_bytes());
    }
    for &i in &report.composition.selected {
        fnv1a(&mut fp, &(i as u64).to_le_bytes());
    }
    let floats = [
        report.infiltration_rate,
        report.composition.coverage,
        report.composition.cost,
        report.assurance.expected_coverage,
        report.assurance.success_probability,
        report.delivery_ratio,
        report.mean_latency_ms,
    ];
    for f in floats.into_iter().chain(report.windows.iter().map(|w| w.utility)) {
        fnv1a(&mut fp, &f.to_bits().to_le_bytes());
    }
    fp
}

/// Per-layer metrics of a traced repetition: the spans around the timed
/// section, plus a replay of the prologue's steps through their public
/// functions on the same inputs.
fn layers(
    ctx: &Ctx,
    tracer: &Tracer,
    scenario: &Scenario,
    config: &RunConfig,
    report: &MissionReport,
) -> Layers {
    let run = ctx.rep;
    let mut l = Layers::new();
    let ms = |v: Vec<f64>| v.into_iter().map(|s| s * 1e3).collect::<Vec<f64>>();
    let prologue_s = tracer.total(run, "core.compose");
    let resume_s = tracer.total(run, "core.resume");
    let steps = ms(tracer.durations(run, "core.step_window"));
    l.insert("core.scenario_build_s", stats::median(&tracer.durations(run, "core.scenario_build")));
    l.insert("core.prologue_s", prologue_s);
    l.insert("core.step_window_ms_p50", stats::median(&steps));
    l.insert("core.step_window_ms_max", stats::max(&steps));
    l.insert("core.repairs", report.repairs as f64);
    l.insert("synthesis.repair_ms", report.wall_clock.repair_ms);
    l.insert("core.finish_ms", tracer.total(run, "core.finish") * 1e3);
    l.insert("core.save_ms_p50", stats::median(&ms(tracer.durations(run, "core.save"))));
    l.insert("ckpt.write_ms_p50", stats::median(&ms(tracer.durations(run, "ckpt.write"))));
    l.insert("ckpt.load_ms", tracer.total(run, "ckpt.load") * 1e3);
    l.insert("core.resume_s", resume_s);
    l.insert("core.resume_over_prologue", resume_s / prologue_s);

    let reach_queries = replay_prologue(ctx, scenario, config);
    l.insert("netsim.reach_queries", reach_queries as f64);
    let mut attributed = 0.0;
    for (name, span) in [
        ("discovery.classify_s", "discovery.classify"),
        ("discovery.recruit_s", "discovery.recruit"),
        ("netsim.graph_build_s", "netsim.graph_build"),
        ("netsim.reach_filter_s", "netsim.reach_filter"),
        ("synthesis.problem_build_s", "synthesis.problem_build"),
        ("synthesis.solve_s", "synthesis.solve"),
        ("synthesis.assess_s", "synthesis.assess"),
        ("netsim.build_s", "netsim.build"),
    ] {
        let s = tracer.total(run, span);
        attributed += s;
        l.insert(name, s);
    }
    l.insert("core.prologue_unattributed_frac", 1.0 - attributed / prologue_s);
    l
}

/// What `MissionRunner::new` does, step by step, through the same public
/// functions and with the same arguments, so each step can be timed from
/// outside. Runs after the timed section; its cost is not in `wall_s`.
/// Returns the number of reachability queries the filter made.
fn replay_prologue(ctx: &Ctx, scenario: &Scenario, config: &RunConfig) -> usize {
    let ((tracker, ledger), _) = ctx.time("discovery.classify", || {
        let mut emissions = EmissionModel::new(scenario.seed ^ 0xD15C);
        let train = emissions.labelled_dataset(300);
        let classifier = NaiveBayes::fit(&train).expect("balanced training set");
        let mut tracker = DiscoveryTracker::new(TrackerConfig::default());
        let mut ledger = TrustLedger::new();
        for node in scenario.catalog.iter() {
            let first = emissions.observe_with_spoofing(node.affiliation(), 0.1);
            tracker.observe(node.id(), 0.0, node.position(), classifier.posterior(&first));
            let second = emissions.observe_with_spoofing(node.affiliation(), 0.1);
            tracker.observe(node.id(), 1.0, node.position(), classifier.posterior(&second));
            let estimate = tracker.estimate(node.id()).expect("just observed");
            ledger.enroll(node.id(), estimate.affiliation());
        }
        (tracker, ledger)
    });
    let (pool, _) = ctx.time("discovery.recruit", || {
        recruit(
            &scenario.catalog,
            &tracker,
            &ledger,
            &RecruitPolicy::default(),
            2.0,
            TrackerConfig::default().presence_tau_s,
        )
    });
    let mut specs: Vec<NodeSpec> = pool.admitted.iter().map(|a| a.spec.clone()).collect();
    let reach_queries = specs.len();
    let (graph, _) = ctx.time("netsim.graph_build", || {
        Simulator::builder(scenario.catalog.clone())
            .terrain(scenario.terrain.clone())
            .seed(scenario.seed)
            .build()
            .connectivity()
    });
    ctx.time("netsim.reach_filter", || {
        specs.retain(|spec| graph.route(spec.id(), scenario.command_post).is_some());
    });
    let (problem, _) = ctx.time("synthesis.problem_build", || {
        CompositionProblem::from_mission(&scenario.mission, &specs, config.grid)
    });
    let (composition, _) = ctx.time("synthesis.solve", || config.solver.solve(&problem));
    ctx.time("synthesis.assess", || {
        let failure: Vec<f64> = composition
            .selected
            .iter()
            .map(|&i| failure_probability(problem.candidates[i].trust, 0.05, 0.3))
            .collect();
        let mut deployed = problem.clone();
        deployed.required_fraction = composition.coverage * 0.9;
        assess(&deployed, &composition.selected, &failure, 2_000, scenario.seed ^ 0xA55E)
    });
    // The execution simulator `MissionRunner::new` stands up next.
    ctx.time("netsim.build", || {
        Simulator::builder(scenario.catalog.clone())
            .terrain(scenario.terrain.clone())
            .seed(scenario.seed)
            .build()
    });
    reach_queries
}
