//! The metric tables `BENCHMARK.json` is written from, and the result
//! line the driver reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload, never zero, gated.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. Every workload reports every one of them.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "work_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.10 },
];

use Better::{Higher, Lower};

/// The per-layer metrics, `(name, unit, direction)`. A traced run
/// reports all of them; a layer a workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str, Better); 78] = [
    // large_mission → composition
    ("core.scenario_build_s", "s", Lower),
    ("discovery.classify_s", "s", Lower),
    ("discovery.recruit_s", "s", Lower),
    ("netsim.graph_build_s", "s", Lower),
    ("netsim.reach_filter_s", "s", Lower),
    ("netsim.reach_queries", "count", Lower),
    ("synthesis.problem_build_s", "s", Lower),
    ("synthesis.solve_s", "s", Lower),
    ("synthesis.assess_s", "s", Lower),
    ("core.prologue_s", "s", Lower),
    ("core.prologue_unattributed_frac", "frac", Lower),
    // large_mission → the window loop
    ("core.step_window_ms_p50", "ms", Lower),
    ("core.step_window_ms_max", "ms", Lower),
    ("core.repairs", "count", Lower),
    ("synthesis.repair_ms", "ms", Lower),
    ("core.finish_ms", "ms", Lower),
    // large_mission → checkpoint and resume
    ("core.save_ms_p50", "ms", Lower),
    ("ckpt.write_ms_p50", "ms", Lower),
    ("ckpt.bytes", "bytes", Lower),
    ("ckpt.load_ms", "ms", Lower),
    ("core.resume_s", "s", Lower),
    ("core.resume_over_prologue", "ratio", Lower),
    // netsim_dense, netsim_mobile (netsim.build_s also on large_mission)
    ("netsim.build_s", "s", Lower),
    ("netsim.first_graph_s", "s", Lower),
    ("netsim.run_s", "s", Lower),
    ("netsim.events", "count", Lower),
    ("netsim.us_per_event", "us", Lower),
    ("netsim.graph_rebuilds", "count", Lower),
    ("netsim.hop_attempts", "count", Lower),
    ("netsim.retransmits", "count", Lower),
    ("netsim.behavior_cb_s", "s", Lower),
    ("netsim.behavior_cb_calls", "count", Lower),
    ("netsim.delivered_frac", "frac", Higher),
    // fleet_churn
    ("fleet.submit_s", "s", Lower),
    ("fleet.drain_s", "s", Lower),
    ("fleet.slices", "count", Lower),
    ("fleet.evictions", "count", Lower),
    ("fleet.resumes", "count", Lower),
    ("fleet.retries", "count", Lower),
    ("fleet.evicted_bytes", "bytes", Lower),
    ("fleet.slice_ms_p50", "ms", Lower),
    ("fleet.slice_ms_p99", "ms", Lower),
    ("fleet.store_save_s", "s", Lower),
    ("fleet.store_save_calls", "count", Lower),
    ("fleet.store_save_ms_p50", "ms", Lower),
    ("fleet.store_save_ms_p99", "ms", Lower),
    ("fleet.store_load_s", "s", Lower),
    ("fleet.store_load_calls", "count", Lower),
    ("fleet.store_load_ms_p50", "ms", Lower),
    ("fleet.store_clear_s", "s", Lower),
    ("fleet.materialize_est_s", "s", Lower),
    ("fleet.step_est_s", "s", Lower),
    ("fleet.save_encode_est_s", "s", Lower),
    ("fleet.resume_est_s", "s", Lower),
    ("fleet.resume_share", "frac", Lower),
    ("fleet.unattributed_frac", "frac", Lower),
    ("fleet.workers2_missions_per_s", "1/s", Higher),
    // bridge_stream
    ("obs.record_self_s", "s", Lower),
    ("bridge.sink_accept_s", "s", Lower),
    ("bridge.encode_frame_us", "us", Lower),
    ("bridge.pump_s", "s", Lower),
    ("bridge.pump_calls", "count", Lower),
    ("bridge.pump_ms_p50", "ms", Lower),
    ("bridge.pump_ms_p99", "ms", Lower),
    ("bridge.transport_send_s", "s", Lower),
    ("bridge.transport_send_calls", "count", Lower),
    ("bridge.transport_send_us_p50", "us", Lower),
    ("bridge.transport_send_us_p99", "us", Lower),
    ("bridge.transport_recv_s", "s", Lower),
    ("bridge.bytes_out", "bytes", Lower),
    ("bridge.emitted", "count", Higher),
    ("bridge.delivered", "count", Higher),
    ("bridge.dropped", "count", Lower),
    ("bridge.retries", "count", Lower),
    ("bridge.connects", "count", Lower),
    ("bridge.frame_lag_ms_p50", "ms", Lower),
    ("bridge.frame_lag_ms_p99", "ms", Lower),
    // every workload
    ("trace.overhead_frac", "frac", Lower),
];

/// The result line: one JSON object with exactly the keys the driver
/// expects, values printed with all their digits.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // A non-finite value has no JSON spelling; 0 marks it missing.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

/// A child's result line, read back by `run`.
#[derive(Debug, serde::Deserialize)]
pub struct ResultLine {
    /// Outputs were correct.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, Value>,
}

/// One metric value of a [`ResultLine`].
#[derive(Debug, serde::Deserialize)]
pub struct Value {
    /// The number.
    pub value: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let line = result_line(
            true,
            12,
            0,
            &[("wall_s", 1.234_567_890_123, "s"), ("broken", f64::NAN, "s")],
        );
        let parsed: ResultLine = serde_json::from_str(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (12, 0));
        assert_eq!(parsed.metrics["wall_s"].value, 1.234_567_890_123);
        assert_eq!(parsed.metrics["broken"].value, 0.0);
    }

    /// `BENCHMARK.json` is written by hand; this keeps it and the tables
    /// the binary reports from saying the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        #[derive(serde::Deserialize)]
        struct Named {
            name: String,
            unit: Option<String>,
            better: Option<String>,
            bound: Option<f64>,
        }
        #[derive(serde::Deserialize)]
        struct Contract {
            command: Vec<String>,
            paths: Vec<String>,
            run_seconds: u64,
            workloads: Vec<Named>,
            end_to_end: Vec<Named>,
            per_layer: Vec<Named>,
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let contract: Contract =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(contract.paths, ["benchmark"]);
        assert!(contract.command.iter().any(|a| a == "benchmark/Cargo.toml"));
        assert!((1..=60).contains(&contract.run_seconds));
        let names: Vec<&str> = contract.workloads.iter().map(|w| w.name.as_str()).collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        assert_eq!(contract.end_to_end.len(), END_TO_END.len());
        for (theirs, ours) in contract.end_to_end.iter().zip(END_TO_END) {
            assert_eq!(theirs.name, ours.name);
            assert_eq!(theirs.unit.as_deref(), Some(ours.unit));
            assert_eq!(theirs.better.as_deref(), Some(ours.better.as_str()));
            assert_eq!(theirs.bound, Some(ours.bound));
        }
        assert_eq!(contract.per_layer.len(), PER_LAYER.len());
        for (theirs, (name, unit, better)) in contract.per_layer.iter().zip(PER_LAYER) {
            assert_eq!(theirs.name, name);
            assert_eq!(theirs.unit.as_deref(), Some(unit));
            assert_eq!(theirs.better.as_deref(), Some(better.as_str()));
            assert_eq!(theirs.bound, None, "per-layer metrics have no bound");
        }
    }
}
