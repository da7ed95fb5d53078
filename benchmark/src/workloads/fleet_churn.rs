//! `fleet_churn`: a batch of communicating missions pushed through one
//! scheduler worker with a residency cap a third of the batch, so most
//! slices end in a checkpoint-eviction and most start with a resume.
//!
//! The `fleet` scheduler, `ckpt` write/fsync/read and `core`'s resume
//! recompute carry most of the wall time; `bridge` and `obs` idle. One
//! worker, because two-worker numbers do not repeat on two cores
//! (508–691 missions/s measured back to back). Unlike `fleet_scale`'s
//! 32-node vignettes these missions really communicate, and the run fails
//! if any of them sent nothing.

use iobt::prelude::*;

use super::{fold_digest, Ctx, Layers, Outcome, SMALL_SETUP_REPEATS, THEATRE_SEED};
use crate::stats::{self, fnv1a, FNV_OFFSET};
use crate::timed::{StoreCall, StoreLog, TimedStore};
use crate::trace::Tracer;

/// Missions per repetition, nodes per mission and the residency cap: the
/// ratio of the fleet's defaults at 200 missions (64 resident), scaled so
/// a repetition takes about 1.5 s.
const MISSIONS: usize = 32;
const MISSION_NODES: usize = 150;
const MAX_RESIDENT: usize = 10;
const QUICK_MISSIONS: usize = 8;
const QUICK_MAX_RESIDENT: usize = 3;
/// Six 10 s windows per mission.
const MISSION_SECONDS: f64 = 60.0;
/// Missions replayed single-threaded in a traced repetition.
const SAMPLE: usize = 6;

fn mission_config(recorder: Recorder) -> RunConfig {
    RunConfig::builder()
        .duration(SimDuration::from_secs_f64(MISSION_SECONDS))
        .recorder(recorder)
        .build()
        .expect("60 s of 10 s windows is a valid run config")
}

/// One repetition.
pub fn run(ctx: &Ctx) -> Outcome {
    let (missions, max_resident) =
        if ctx.quick { (QUICK_MISSIONS, QUICK_MAX_RESIDENT) } else { (MISSIONS, MAX_RESIDENT) };
    let root = ctx.scratch.join("fleet");

    let (scenarios, setup_s) = ctx.setup("fleet_churn.setup", SMALL_SETUP_REPEATS, || {
        (0..missions as u64)
            .map(|i| {
                let mut scenario = persistent_surveillance(MISSION_NODES, THEATRE_SEED + i);
                scenario.seed = ctx.seed.wrapping_add(i);
                scenario
            })
            .collect::<Vec<Scenario>>()
    });

    let fleet_recorder = if ctx.tracer.is_some() { Recorder::null() } else { Recorder::disabled() };
    let mut store_log = None;
    let ((mut fleet, tickets), submit_s) = ctx.time("fleet.submit", || {
        let mut builder = FleetBuilder::new()
            .workers(1)
            .max_resident(max_resident)
            .checkpoint_root(&root)
            .recorder(fleet_recorder.clone());
        if ctx.tracer.is_some() {
            let (store, log) = TimedStore::new(DiskStore::new(&root));
            builder = builder.store(store);
            store_log = Some(log);
        }
        let mut fleet = builder.build().expect("one worker and a positive residency cap are valid");
        let tickets: Vec<_> = scenarios
            .iter()
            .map(|s| fleet.submit(s.clone(), mission_config(Recorder::disabled())))
            .collect();
        (fleet, tickets)
    });
    let (summary, drain_s) = ctx.time("fleet.drain", || fleet.drain());
    let _ = std::fs::remove_dir_all(&root);

    let mut out = Outcome {
        setup_s,
        wall_s: submit_s + drain_s,
        work: missions as f64,
        work_s: drain_s,
        attempted: missions as u64,
        phases: vec![("missions_per_s", missions as f64 / drain_s)],
        ..Outcome::default()
    };
    let mut fp = FNV_OFFSET;
    for ticket in &tickets {
        let done = ticket.as_ref().ok().and_then(|&t| {
            (fleet.poll(t) == Some(MissionStatus::Done)).then_some(())?;
            Some((fleet.digest(t)?, fleet.metrics_fingerprint(t)?))
        });
        match done {
            // A mission that sent nothing is `fleet_scale`'s empty
            // vignette again: it would measure the scheduler, not churn.
            Some((digest, metrics)) if digest.sent > 0 => {
                fold_digest(&mut fp, digest);
                fnv1a(&mut fp, &metrics.to_le_bytes());
            }
            _ => out.failed += 1,
        }
    }
    out.fingerprint = fp;

    if let (Some(tracer), Some(log)) = (&ctx.tracer, &store_log) {
        let l = &mut out.layers;
        l.insert("fleet.submit_s", submit_s);
        l.insert("fleet.drain_s", drain_s);
        l.insert("fleet.slices", summary.slices as f64);
        l.insert("fleet.evictions", summary.evictions as f64);
        l.insert("fleet.resumes", summary.resumes as f64);
        l.insert("fleet.retries", summary.retries as f64);
        l.insert("fleet.slice_ms_p50", summary.p50_slice_ms);
        l.insert("fleet.slice_ms_p99", summary.p99_slice_ms);
        let evicted = fleet_recorder.metrics_digest().counter("fleet.evicted_bytes").unwrap_or(0);
        l.insert("fleet.evicted_bytes", evicted as f64);
        store_layers(l, log, tracer);
        // One worker: the store calls are sequential children of the
        // drain, so its self time is what the scheduler and the missions
        // themselves took.
        let outside_store_s = tracer.self_time(ctx.rep, "fleet.drain");
        let replay = replay_cycle(ctx, &scenarios);
        let estimates = [
            ("fleet.materialize_est_s", replay.materialize_s * missions as f64),
            ("fleet.step_est_s", replay.step_s * summary.windows as f64),
            ("fleet.save_encode_est_s", replay.save_s * summary.evictions as f64),
            ("fleet.resume_est_s", replay.resume_s * summary.resumes as f64),
        ];
        let mut unattributed_s = outside_store_s;
        for (name, value) in estimates {
            unattributed_s -= value;
            l.insert(name, value);
        }
        l.insert("fleet.resume_share", estimates[3].1 / drain_s);
        l.insert("fleet.unattributed_frac", unattributed_s / drain_s);
        if ctx.first_traced {
            l.insert(
                "fleet.workers2_missions_per_s",
                two_worker_rate(ctx, &scenarios, max_resident),
            );
        }
    }
    out
}

/// Hands the store log to the tracer as children of the drain span and
/// folds it into the `fleet.store_*` metrics.
fn store_layers(l: &mut Layers, log: &StoreLog, tracer: &Tracer) {
    let log = log.lock().expect("the fleet's workers have joined");
    let ms_of = |call: StoreCall, span: &'static str| -> Vec<f64> {
        let ops = log.iter().filter(|op| op.call == call);
        ops.map(|op| {
            tracer.adopt(span, op.start, op.end, "fleet.drain");
            (op.end - op.start).as_secs_f64() * 1e3
        })
        .collect()
    };
    let saves = ms_of(StoreCall::Save, "fleet.store_save");
    let loads = ms_of(StoreCall::Load, "fleet.store_load");
    let clears = ms_of(StoreCall::Clear, "fleet.store_clear");
    l.insert("fleet.store_save_s", saves.iter().sum::<f64>() / 1e3);
    l.insert("fleet.store_save_calls", saves.len() as f64);
    l.insert("fleet.store_save_ms_p50", stats::median(&saves));
    l.insert("fleet.store_save_ms_p99", stats::quantile(&saves, 0.99));
    l.insert("fleet.store_load_s", loads.iter().sum::<f64>() / 1e3);
    l.insert("fleet.store_load_calls", loads.len() as f64);
    l.insert("fleet.store_load_ms_p50", stats::median(&loads));
    l.insert("fleet.store_clear_s", clears.iter().sum::<f64>() / 1e3);
}

/// Mean seconds per call of the four things a worker does to a mission
/// besides talking to the store.
struct Cycle {
    materialize_s: f64,
    step_s: f64,
    save_s: f64,
    resume_s: f64,
}

/// Replays materialize → step → `save` → `resume` single-threaded on the
/// first missions of the batch, with the metrics-only recorder the fleet
/// attaches, so each call can be timed from outside the scheduler.
fn replay_cycle(ctx: &Ctx, scenarios: &[Scenario]) -> Cycle {
    let (mut news, mut steps, mut saves, mut resumes) = (vec![], vec![], vec![], vec![]);
    for scenario in scenarios.iter().take(SAMPLE) {
        let config = mission_config(Recorder::null());
        let (mut runner, s) =
            ctx.time("fleet.replay_materialize", || MissionRunner::new(scenario, &config));
        news.push(s);
        while !runner.is_finished() {
            steps.push(ctx.time("fleet.replay_step", || runner.step_window()).1);
            if runner.is_finished() {
                break;
            }
            let (payload, s) = ctx.time("fleet.replay_save", || runner.save());
            saves.push(s);
            let Ok(payload) = payload else { continue };
            let config = mission_config(Recorder::null());
            let (resumed, s) = ctx
                .time("fleet.replay_resume", || MissionRunner::resume(scenario, &config, &payload));
            resumes.push(s);
            if let Ok(resumed) = resumed {
                runner = resumed;
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    Cycle {
        materialize_s: mean(&news),
        step_s: mean(&steps),
        save_s: mean(&saves),
        resume_s: mean(&resumes),
    }
}

/// Missions per second of the same batch on two workers. Informational:
/// on a two-core box this number does not repeat well enough to gate.
fn two_worker_rate(ctx: &Ctx, scenarios: &[Scenario], max_resident: usize) -> f64 {
    let root = ctx.scratch.join("fleet-w2");
    let mut fleet = FleetBuilder::new()
        .workers(2)
        .max_resident(max_resident)
        .checkpoint_root(&root)
        .build()
        .expect("two workers and a positive residency cap are valid");
    for scenario in scenarios {
        let _ = fleet.submit(scenario.clone(), mission_config(Recorder::disabled()));
    }
    let (summary, drain_s) = ctx.time("fleet.workers2_drain", || fleet.drain());
    let _ = std::fs::remove_dir_all(&root);
    summary.completed as f64 / drain_s
}
