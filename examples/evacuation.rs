//! Non-combatant evacuation under jamming (the paper's §I vignette):
//! compares the adaptive runtime against a static plan when an RF jammer
//! switches on mid-mission near the evacuation corridor.
//!
//! ```sh
//! cargo run --release --example evacuation
//! # Write the adaptive run's full JSONL trace for offline analysis:
//! cargo run --release --example evacuation -- --trace evacuation.jsonl
//! ```

use std::fs::File;
use std::io::BufWriter;

use iobt::prelude::*;

fn run(adaptive: bool, recorder: Recorder) -> MissionReport {
    let mut scenario = urban_evacuation(220, 7);
    scenario.disruptions = vec![Disruption::JammerOn {
        at: SimTime::from_secs_f64(60.0),
        index: 0,
    }];
    let config = RunConfig::builder()
        .duration(SimDuration::from_secs_f64(180.0))
        .adaptive(adaptive)
        .recorder(recorder)
        .build().expect("valid run config");
    run_mission(&scenario, &config)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1));
    let recorder = match trace_path {
        Some(path) => match File::create(path) {
            Ok(file) => Recorder::jsonl(BufWriter::new(file)),
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                std::process::exit(2);
            }
        },
        None => Recorder::disabled(),
    };

    println!("urban evacuation, 220 nodes, jammer fires at t=60 s\n");
    let adaptive = run(true, recorder.clone());
    let static_plan = run(false, Recorder::disabled());

    println!("{:<8} {:^22} {:^22}", "window", "adaptive", "static plan");
    for (a, s) in adaptive.windows.iter().zip(&static_plan.windows) {
        let bar = |u: f64| "#".repeat((u * 18.0) as usize);
        println!(
            "t={:>4.0}s  {:>5.2} {:<18} {:>5.2} {:<18}",
            a.start_s,
            a.utility,
            bar(a.utility),
            s.utility,
            bar(s.utility),
        );
    }
    println!(
        "\nmean utility     : adaptive {:.2} vs static {:.2}",
        adaptive.mean_utility(),
        static_plan.mean_utility()
    );
    println!(
        "post-jam utility : adaptive {:.2} vs static {:.2}",
        adaptive.utility_after(60.0),
        static_plan.utility_after(60.0)
    );
    println!(
        "repairs          : adaptive {} vs static {}",
        adaptive.repairs, static_plan.repairs
    );
    if let Some(path) = trace_path {
        recorder.flush();
        if let Some(kind) = recorder.io_error() {
            eprintln!("trace: writing {path} failed ({kind}); the trace is incomplete");
            std::process::exit(1);
        }
        let digest = recorder.metrics_digest();
        println!(
            "\ntrace            : {} sends / {} deliveries traced -> {path} \
             (inspect with `iobt-trace --summary {path}`)",
            digest.counter("netsim.msg_sent").unwrap_or(0),
            digest.counter("netsim.msg_delivered").unwrap_or(0),
        );
    }
    println!(
        "\nThe adaptive runtime notices selected sensors going silent under \
         the jammer\nand re-covers their cells from spare assets outside the \
         jamming footprint."
    );
}
