//! Experiment `f1_end_to_end` (paper Fig. 1 and the §I evacuation
//! vignette): the full discovery → synthesis → execution pipeline on an
//! urban evacuation with mid-mission jamming, comparing the adaptive
//! runtime against a static plan.
//!
//! Paper claim (qualitative): the self-aware IoBT "regroups and
//! reconfigures independently … in response to unexpected conditions",
//! sustaining mission utility where a static plan degrades.

use iobt_bench::{f3, pm, Table};
use iobt_core::prelude::*;
use iobt_netsim::{SimDuration, SimTime};

fn main() {
    let seeds = [11u64, 23, 47];
    let node_counts = [200usize, 400];
    let mut table = Table::new(
        "f1_end_to_end",
        "Urban evacuation under jamming: adaptive vs static runtime",
        &[
            "nodes",
            "runtime",
            "mean utility",
            "post-jam utility",
            "delivery %",
            "repairs",
            "recruited",
            "infiltration %",
        ],
    );
    for &n in &node_counts {
        for adaptive in [true, false] {
            let mut mean_u = Vec::new();
            let mut post_u = Vec::new();
            let mut delivery = Vec::new();
            let mut repairs = Vec::new();
            let mut recruited = Vec::new();
            let mut infiltration = Vec::new();
            for &seed in &seeds {
                let mut scenario = urban_evacuation(n, seed);
                // Jam earlier so the run has a long post-jam phase.
                scenario.disruptions = vec![Disruption::JammerOn {
                    at: SimTime::from_secs_f64(60.0),
                    index: 0,
                }];
                let config = RunConfig::builder()
                    .duration(SimDuration::from_secs_f64(180.0))
                    .adaptive(adaptive)
                    .build().expect("valid run config");
                let report = run_mission(&scenario, &config);
                mean_u.push(report.mean_utility());
                post_u.push(report.utility_after(60.0));
                delivery.push(report.delivery_ratio * 100.0);
                repairs.push(report.repairs as f64);
                recruited.push(report.recruited as f64);
                infiltration.push(report.infiltration_rate * 100.0);
            }
            table.row(vec![
                n.to_string(),
                if adaptive { "adaptive" } else { "static" }.to_string(),
                pm(&mean_u),
                pm(&post_u),
                pm(&delivery),
                f3(repairs.iter().sum::<f64>() / repairs.len() as f64),
                f3(recruited.iter().sum::<f64>() / recruited.len() as f64),
                pm(&infiltration),
            ]);
        }
    }
    table.finish();
    println!(
        "\nShape check: at 200 nodes the jammer bites and the adaptive runtime \
         repairs around it (post-jam utility recovers); at 400 nodes the reflex \
         still fires (see the repairs column) but buys nothing measurable: \
         adaptive and static post-jam utility agree within their spread, \
         because the denser mesh routes around the jammer on its own — \
         resilience through redundancy, as Fig. 2 argues."
    );
}
