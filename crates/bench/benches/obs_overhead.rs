//! Experiment `obs_overhead`: cost of the observability layer on the f1
//! evacuation vignette.
//!
//! Acceptance bound for the tracing subsystem: a metrics-only recorder
//! (`NullSink`) must stay within a few percent of a fully disabled
//! recorder, so observability can be left on in every experiment harness.

use std::time::Instant;

use iobt_bench::{f1, f3, Table};
use iobt_core::prelude::*;
use iobt_netsim::{SimDuration, SimTime};
use iobt_obs::{Recorder, SharedBytes};

/// A recorder sink under test: its row label and how to make one.
type Mode = (&'static str, fn() -> Recorder);

fn scenario() -> Scenario {
    let mut s = urban_evacuation(200, 11);
    s.disruptions = vec![Disruption::JammerOn {
        at: SimTime::from_secs_f64(60.0),
        index: 0,
    }];
    s
}

fn run_with(scenario: &Scenario, recorder: Recorder) -> f64 {
    let config = RunConfig::builder()
        .duration(SimDuration::from_secs_f64(120.0))
        .recorder(recorder)
        .build().expect("valid run config");
    let t0 = Instant::now();
    let report = run_mission(scenario, &config);
    let ms = t0.elapsed().as_secs_f64() * 1_000.0;
    assert!(report.digest.delivered > 0);
    ms
}

fn main() {
    let s = scenario();
    let reps = 5usize;
    // Warm-up run so allocator/page-cache effects hit every mode equally.
    run_with(&s, Recorder::disabled());

    let mut table = Table::new(
        "obs_overhead",
        "f1 evacuation (200 nodes, 120 s): run time by recorder sink",
        &["sink", "mean ms", "min ms", "overhead vs disabled %"],
    );
    let modes: [Mode; 4] = [
        ("disabled", Recorder::disabled),
        ("null (metrics only)", Recorder::null),
        ("memory ring (64k)", || Recorder::memory(1 << 16).0),
        ("jsonl (in-memory writer)", || {
            Recorder::jsonl(SharedBytes::new())
        }),
    ];
    let mut baseline = f64::NAN;
    for (name, make) in modes {
        let times: Vec<f64> = (0..reps).map(|_| run_with(&s, make())).collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        if baseline.is_nan() {
            baseline = mean;
        }
        table.row(vec![
            name.to_string(),
            f1(mean),
            f1(min),
            f3((mean / baseline - 1.0) * 100.0),
        ]);
    }
    table.finish();
    println!(
        "\nShape check: the NullSink column should sit within ~5% of the \
         disabled baseline (one branch + counter bumps per event); the ring \
         adds record copies; JSONL adds serialization, still far below the \
         simulation's own cost."
    );
}
