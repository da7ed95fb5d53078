//! Integration: the fleet scheduler never changes what a mission
//! computes. The same 8-mission batch run under one worker, four
//! workers, a shuffled admission order, and forced evict-every-window
//! must produce, for every mission, the exact `EndStateDigest` and
//! metrics fingerprint that a solo [`run_mission`] produces — the
//! ISSUE's "determinism survives arbitrary interleaving and eviction"
//! acceptance gate.

use iobt::prelude::*;

/// Mixed 8-mission batch: all three scenario families, distinct seeds
/// and sizes, so missions genuinely differ in length and behaviour.
fn batch() -> Vec<Scenario> {
    vec![
        persistent_surveillance(50, 101),
        urban_evacuation(60, 102),
        disaster_relief(55, 103),
        persistent_surveillance(45, 104),
        urban_evacuation(40, 105),
        disaster_relief(65, 106),
        persistent_surveillance(70, 107),
        urban_evacuation(52, 108),
    ]
}

fn mission_config() -> RunConfig {
    RunConfig::builder()
        .duration(SimDuration::from_secs_f64(40.0))
        .window(SimDuration::from_secs_f64(10.0))
        .build()
        .expect("valid run config")
}

struct Baseline {
    digest: EndStateDigest,
    fingerprint: u64,
    windows: usize,
}

/// Solo ground truth, one `run_mission` per scenario. Uses
/// `Recorder::null()` — the same recorder the fleet attaches to every
/// mission — so the metrics fingerprints are comparable.
fn baselines() -> Vec<Baseline> {
    batch()
        .iter()
        .map(|scenario| {
            let recorder = Recorder::null();
            let cfg = RunConfig::builder()
                .duration(SimDuration::from_secs_f64(40.0))
                .window(SimDuration::from_secs_f64(10.0))
                .recorder(recorder.clone())
                .build()
                .expect("valid run config");
            let report = run_mission(scenario, &cfg);
            Baseline {
                digest: report.digest.clone(),
                fingerprint: recorder.metrics_digest().fingerprint(),
                windows: report.windows.len(),
            }
        })
        .collect()
}

fn temp_root(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("iobt-fleet-matrix-{}-{tag}", std::process::id()))
}

/// Runs the batch through a fleet, admitting missions in `order`
/// (a permutation of batch indices), and asserts every mission's digest
/// and fingerprint against its solo baseline. Returns the summary.
fn run_and_check(
    mut fleet: Fleet,
    order: &[usize],
    baselines: &[Baseline],
    label: &str,
) -> FleetSummary {
    let scenarios = batch();
    let mut tickets: Vec<(usize, MissionTicket)> = Vec::new();
    for &i in order {
        let t = fleet
            .submit(scenarios[i].clone(), mission_config())
            .expect("admissible mission");
        assert_eq!(fleet.poll(t), Some(MissionStatus::Queued), "{label}");
        tickets.push((i, t));
    }
    let summary = fleet.drain();
    assert_eq!(summary.submitted, scenarios.len(), "{label}");
    assert_eq!(summary.completed, scenarios.len(), "{label}");
    assert_eq!(summary.quarantined, 0, "{label}");
    for &(i, t) in &tickets {
        assert_eq!(fleet.poll(t), Some(MissionStatus::Done), "{label}: {t}");
        assert!(fleet.error(t).is_none(), "{label}: {t}");
        let digest = fleet.digest(t).expect("done mission has a digest");
        assert_eq!(
            *digest, baselines[i].digest,
            "{label}: mission {i} ({t}) digest must match its solo run"
        );
        let fp = fleet
            .metrics_fingerprint(t)
            .expect("a Done mission has a metrics fingerprint");
        assert_eq!(
            fp, baselines[i].fingerprint,
            "{label}: mission {i} ({t}) metrics fingerprint must match its solo run"
        );
        let report = fleet.report(t).expect("done mission has a report");
        assert_eq!(report.windows.len(), baselines[i].windows, "{label}: {t}");
    }
    summary
}

#[test]
fn schedule_matrix_preserves_every_mission_digest() {
    let baselines = baselines();
    let in_order: Vec<usize> = (0..8).collect();
    // Fixed permutation — admission order must not matter.
    let shuffled = [5usize, 2, 7, 0, 6, 3, 1, 4];

    let solo_root = temp_root("w1");
    let one_worker = FleetBuilder::new()
        .workers(1)
        .checkpoint_root(&solo_root)
        .build()
        .expect("valid");
    run_and_check(one_worker, &in_order, &baselines, "1 worker");

    let quad_root = temp_root("w4");
    let four_workers = FleetBuilder::new()
        .workers(4)
        .checkpoint_root(&quad_root)
        .build()
        .expect("valid");
    run_and_check(four_workers, &in_order, &baselines, "4 workers");

    let shuf_root = temp_root("shuf");
    let shuffled_fleet = FleetBuilder::new()
        .workers(4)
        .checkpoint_root(&shuf_root)
        .build()
        .expect("valid");
    run_and_check(shuffled_fleet, &shuffled, &baselines, "shuffled admission");

    for root in [solo_root, quad_root, shuf_root] {
        let _ = std::fs::remove_dir_all(root);
    }
}

#[test]
fn forced_eviction_every_window_still_matches_solo_runs() {
    let baselines = baselines();
    let root = temp_root("forced");
    let fleet = FleetBuilder::new()
        .workers(4)
        .evict_every_slice(true)
        .checkpoint_root(&root)
        .build()
        .expect("valid");
    let in_order: Vec<usize> = (0..8).collect();
    let summary = run_and_check(fleet, &in_order, &baselines, "forced eviction");
    // Every mission runs 4 windows at quantum 1: evicted after windows
    // 1–3, resumed from disk three times, finished on the fourth slice.
    assert_eq!(summary.evictions, 8 * 3, "one eviction per non-final window");
    assert_eq!(
        summary.resumes, summary.evictions,
        "every eviction is resumed exactly once"
    );
    assert_eq!(summary.slices, 8 * 4);
    assert_eq!(summary.windows, 8 * 4);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn tight_residency_cap_forces_lru_churn_without_changing_results() {
    let baselines = baselines();
    let root = temp_root("lru");
    // Two workers, one resident mission each: admitting 8 missions
    // forces continual LRU eviction through the disk round-trip.
    let fleet = FleetBuilder::new()
        .workers(2)
        .max_resident(1)
        .checkpoint_root(&root)
        .build()
        .expect("valid");
    let in_order: Vec<usize> = (0..8).collect();
    let summary = run_and_check(fleet, &in_order, &baselines, "max_resident=1");
    assert!(
        summary.evictions > 0,
        "a tight residency cap must actually evict"
    );
    assert_eq!(
        summary.resumes, summary.evictions,
        "every evicted mission is resumed to completion"
    );
    let _ = std::fs::remove_dir_all(root);
}
