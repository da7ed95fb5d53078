//! Integration: crash-safe checkpointing with deterministic resume.
//!
//! The property under test is the strongest one the runtime promises: a
//! run killed after *any* window and resumed from its checkpoint must be
//! indistinguishable — end-state digest, metrics fingerprint, and the
//! post-resume JSONL trace — from the same-seed run that was never
//! interrupted. Plus the storage half: corrupted checkpoint files of any
//! kind are rejected with an error, never a panic, and never silently
//! accepted.

use iobt::ckpt::{decode_checkpoint, encode_checkpoint};
use iobt::prelude::*;

const SEEDS: [u64; 3] = [3, 17, 42];

fn quick_config(recorder: Recorder) -> RunConfig {
    RunConfig::builder()
        .duration(SimDuration::from_secs_f64(60.0))
        .window(SimDuration::from_secs_f64(10.0))
        .recorder(recorder)
        .build()
        .expect("valid run config")
}

fn armed_chaos_config(recorder: Recorder) -> RunConfig {
    RunConfig::builder()
        .duration(SimDuration::from_secs_f64(120.0))
        .window(SimDuration::from_secs_f64(10.0))
        .early_repair(true)
        .degradation_ladder(true)
        .acked_tasking(true)
        .recorder(recorder)
        .build()
        .expect("valid run config")
}

/// Two windows whose boundary falls half-way between two mobility
/// ticks, with reports every half second: the reports routed after the
/// tick at 2 s leave the graph announced and in step (the snapshot's
/// disposition byte 1) at the 2.5 s boundary, and the ones routed before
/// the tick at 3 s find it so. Every 10 s boundary holds a graph owing a
/// patch (2) or none (0), and a resume treats those two alike.
fn clean_graph_config(recorder: Recorder) -> RunConfig {
    RunConfig::builder()
        .duration(SimDuration::from_secs_f64(5.0))
        .window(SimDuration::from_secs_f64(2.5))
        .report_period(SimDuration::from_secs_f64(0.5))
        .recorder(recorder)
        .build()
        .expect("valid run config")
}

/// The reaction layer without early repair: the failure detector no
/// longer drops a silent reporter mid-window, so a window's utility can
/// fall below the degradation ladder's shed threshold.
fn ladder_config(recorder: Recorder) -> RunConfig {
    RunConfig::builder()
        .duration(SimDuration::from_secs_f64(120.0))
        .window(SimDuration::from_secs_f64(10.0))
        .degradation_ladder(true)
        .acked_tasking(true)
        .recorder(recorder)
        .build()
        .expect("valid run config")
}

/// Surveillance whose every relay is compromised from 15 s to 45 s:
/// reports routed through one are in flight with their tamper flag
/// raised at the window boundaries, and the command post rejects them,
/// so utility collapses and the ladder sheds, then restores.
fn compromised_surveillance() -> Scenario {
    let mut scenario = persistent_surveillance(200, 3);
    let relays: Vec<NodeId> = scenario
        .catalog
        .iter()
        .map(|n| n.id())
        .filter(|&id| id != scenario.command_post)
        .collect();
    scenario.fault_plan = FaultPlan::new().compromise(
        SimTime::from_secs_f64(15.0),
        CompromiseSpec::new(relays, SimDuration::from_millis(20), true),
        SimDuration::from_secs_f64(30.0),
    );
    scenario
}

fn chaos_scenario(seed: u64) -> Scenario {
    let mut scenario = persistent_surveillance(200, seed);
    let blue: Vec<NodeId> = scenario
        .catalog
        .with_affiliation(Affiliation::Blue)
        .iter()
        .map(|n| n.id())
        .collect();
    let campaign = CampaignConfig::light(
        SimDuration::from_secs_f64(120.0),
        scenario.mission.area(),
    );
    scenario.fault_plan = generate_campaign(seed, &blue, &campaign);
    scenario
}

/// Seeds × kill-points: a checkpoint taken after every window (including
/// window 0, before any stepping, and the final window) resumes to the
/// exact digest and metrics fingerprint of the uninterrupted run.
#[test]
fn crash_resume_matrix_is_bit_identical() {
    for seed in SEEDS {
        let scenario = persistent_surveillance(80, seed);

        // The uninterrupted reference run.
        let (rec, _ring) = Recorder::memory(200_000);
        let baseline = run_mission(&scenario, &quick_config(rec.clone()));
        let baseline_fp = rec.metrics_digest().fingerprint();

        // One stepped run, checkpointing at every window boundary.
        let (rec_killed, _ring_killed) = Recorder::memory(200_000);
        let killed_cfg = quick_config(rec_killed);
        let mut runner = MissionRunner::new(&scenario, &killed_cfg);
        let mut payloads = vec![runner.save().expect("checkpoint at window 0")];
        while let StepOutcome::WindowClosed { .. } = runner.step_window() {
            payloads.push(runner.save().expect("checkpoint at window boundary"));
        }
        assert_eq!(payloads.len(), baseline.windows.len() + 1);

        // "Crash" at every kill-point and resume from its checkpoint.
        for (kill_at, payload) in payloads.iter().enumerate() {
            let (rec_resumed, _ring_resumed) = Recorder::memory(200_000);
            let resumed_cfg = quick_config(rec_resumed.clone());
            let mut resumed = MissionRunner::resume(&scenario, &resumed_cfg, payload)
                .unwrap_or_else(|e| panic!("seed {seed} kill {kill_at}: resume failed: {e}"));
            assert_eq!(resumed.window_index(), kill_at);
            while let StepOutcome::WindowClosed { .. } = resumed.step_window() {}
            let report = resumed.finish();
            assert_eq!(
                report.digest, baseline.digest,
                "seed {seed}, killed after window {kill_at}: digest diverged"
            );
            assert_eq!(
                report.windows, baseline.windows,
                "seed {seed}, killed after window {kill_at}: utility trace diverged"
            );
            assert_eq!(
                rec_resumed.metrics_digest().fingerprint(),
                baseline_fp,
                "seed {seed}, killed after window {kill_at}: metrics fingerprint diverged"
            );
        }
    }
}

/// The same guarantee with the full reaction layer armed and a fault
/// campaign in flight: the checkpoint captures in-flight fault events,
/// detector suspicions, ladder level, and retransmit state.
#[test]
fn chaos_run_killed_mid_campaign_resumes_bit_identically() {
    let seed = 17;
    let scenario = chaos_scenario(seed);

    let (rec, _ring) = Recorder::memory(400_000);
    let baseline = run_mission(&scenario, &armed_chaos_config(rec.clone()));
    let baseline_fp = rec.metrics_digest().fingerprint();
    let res = baseline.digest.resilience;
    assert!(
        res.suspected > 0 || res.sheds > 0 || res.tasking.retries > 0,
        "campaign must actually exercise the reaction layer"
    );

    // Kill mid-campaign, while transient faults are still in the queue.
    let (rec_killed, _rk) = Recorder::memory(400_000);
    let mut runner = MissionRunner::new(&scenario, &armed_chaos_config(rec_killed));
    for _ in 0..5 {
        runner.step_window().window_stat().expect("campaign run has 12 windows");
    }
    let payload = runner.save().expect("checkpointable mid-campaign");
    drop(runner);

    let (rec_resumed, _rr) = Recorder::memory(400_000);
    let mut resumed =
        MissionRunner::resume(&scenario, &armed_chaos_config(rec_resumed.clone()), &payload)
            .expect("resume mid-campaign");
    while let StepOutcome::WindowClosed { .. } = resumed.step_window() {}
    let report = resumed.finish();
    assert_eq!(report.digest, baseline.digest);
    assert_eq!(report.windows, baseline.windows);
    assert_eq!(rec_resumed.metrics_digest().fingerprint(), baseline_fp);
}

/// Every value a checkpoint carries is restored and matters, with no
/// field list to keep in step: at every window boundary, the resumed
/// runner saves back the payload it was resumed from, and after one more
/// window saves exactly the payload the uninterrupted run saved there;
/// resumed at the last boundary, it finishes with the uninterrupted
/// report and metrics. A value restored as its default fails the first
/// check; a value missing from both save and restore fails the second at
/// the first window whose bytes it shapes, or the third if only the
/// report reads it. The runs are the armed chaos campaigns, the
/// evacuation (its jammer switches on at 60 s), the compromised
/// surveillance (tampered messages in flight, the ladder mid-hysteresis)
/// and a short surveillance whose one inner boundary holds a clean graph;
/// EXPERIMENTS.md, "The linter keeps R9" and "State, not history",
/// ledgers which of them catches each value. The recorder is enabled, so
/// its clock and metrics are in every payload too.
#[test]
fn every_checkpointed_value_resumes_and_steps_to_the_same_bytes() {
    for seed in SEEDS {
        let run = format!("chaos seed {seed}");
        resume_then_step_at_every_window(&run, &chaos_scenario(seed), armed_chaos_config);
    }
    resume_then_step_at_every_window("evacuation", &urban_evacuation(250, 42), armed_chaos_config);
    let compromised = compromised_surveillance();
    resume_then_step_at_every_window("compromised surveillance", &compromised, ladder_config);
    let clean = persistent_surveillance(55, 3);
    resume_then_step_at_every_window("clean graph", &clean, clean_graph_config);
}

fn resume_then_step_at_every_window(
    run: &str,
    scenario: &Scenario,
    config: fn(Recorder) -> RunConfig,
) {
    let recorder = || Recorder::memory(1024).0;
    let uninterrupted = recorder();
    let mut runner = MissionRunner::new(scenario, &config(uninterrupted.clone()));
    let mut payloads = vec![runner.save().expect("checkpoint at window 0")];
    while let StepOutcome::WindowClosed { .. } = runner.step_window() {
        payloads.push(runner.save().expect("checkpoint at window boundary"));
    }
    let report = runner.finish();
    let first_difference =
        |a: &[u8], b: &[u8]| (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i));
    for (k, payload) in payloads.iter().enumerate() {
        let resumed_recorder = recorder();
        let mut resumed = MissionRunner::resume(scenario, &config(resumed_recorder.clone()), payload)
            .unwrap_or_else(|e| panic!("{run}, window {k}: resume failed: {e}"));
        let again = resumed.save().expect("a resumed runner saves");
        assert_eq!(
            first_difference(&again, payload),
            None,
            "{run}, window {k}: the re-saved payload differs at this byte"
        );
        if let Some(next) = payloads.get(k + 1) {
            resumed.step_window().window_stat().expect("a window is left to run");
            let stepped = resumed.save().expect("checkpoint after one window");
            assert_eq!(
                first_difference(&stepped, next),
                None,
                "{run}, window {k}: one window after resume, the payload differs from the \
                 uninterrupted run's at this byte"
            );
        } else {
            // The last boundary carries every counter at its final value:
            // what only the report reads must come back too.
            let finished = resumed.finish();
            assert_eq!(finished.digest, report.digest, "{run}: the resumed report's digest");
            assert_eq!(finished.windows, report.windows, "{run}: the resumed report's windows");
            assert_eq!(
                resumed_recorder.metrics_digest().fingerprint(),
                uninterrupted.metrics_digest().fingerprint(),
                "{run}: the resumed run's metrics"
            );
        }
    }
}

/// The post-resume JSONL trace is byte-identical to the tail of the
/// uninterrupted run's trace: a resumed process appends exactly the
/// records the uninterrupted process would have written from that point.
#[test]
fn post_resume_jsonl_trace_is_the_exact_tail_of_the_uninterrupted_one() {
    let seed = 17;
    let scenario = persistent_surveillance(80, seed);

    let full = SharedBytes::new();
    let baseline = run_mission(
        &scenario,
        &quick_config(Recorder::jsonl(full.clone())),
    );
    let full_bytes = full.to_vec();
    assert!(!full_bytes.is_empty());

    let killed_sink = SharedBytes::new();
    let mut runner = MissionRunner::new(&scenario, &quick_config(Recorder::jsonl(killed_sink)));
    runner.step_window().window_stat().expect("window 0");
    runner.step_window().window_stat().expect("window 1");
    let payload = runner.save().expect("checkpointable");
    drop(runner); // the crash: its sink dies with it

    let tail_sink = SharedBytes::new();
    let resumed_cfg = quick_config(Recorder::jsonl(tail_sink.clone()));
    let mut resumed =
        MissionRunner::resume(&scenario, &resumed_cfg, &payload).expect("resume");
    while let StepOutcome::WindowClosed { .. } = resumed.step_window() {}
    let report = resumed.finish();
    assert_eq!(report.digest, baseline.digest);

    let tail_bytes = tail_sink.to_vec();
    assert!(!tail_bytes.is_empty(), "post-resume windows must trace");
    assert!(
        full_bytes.ends_with(&tail_bytes),
        "resumed JSONL must be the byte tail of the uninterrupted JSONL \
         (full {} bytes, tail {} bytes)",
        full_bytes.len(),
        tail_bytes.len()
    );
}

/// Corruption fuzz over a *real* mission checkpoint envelope: flipping
/// any single byte, truncating at any length, and appending trailing
/// garbage must each produce `Err` — never a panic, never a silent
/// acceptance.
#[test]
fn corrupted_checkpoint_envelopes_are_always_rejected() {
    let seed = 3;
    let scenario = persistent_surveillance(60, seed);
    let config = quick_config(Recorder::disabled());
    let mut runner = MissionRunner::new(&scenario, &config);
    runner.step_window().window_stat().expect("window 0");
    let payload = runner.save().expect("checkpointable");
    let file = encode_checkpoint(seed, 1, &payload);
    assert!(decode_checkpoint(&file).is_ok(), "pristine file must verify");

    // Flip every byte in turn.
    let mut mutated = file.clone();
    for i in 0..mutated.len() {
        mutated[i] ^= 0xA5;
        assert!(
            decode_checkpoint(&mutated).is_err(),
            "flip at byte {i} must be detected"
        );
        mutated[i] ^= 0xA5;
    }
    assert_eq!(mutated, file, "fuzz loop must restore the original");

    // Truncate at every length.
    for len in 0..file.len() {
        assert!(
            decode_checkpoint(&file[..len]).is_err(),
            "truncation to {len} bytes must be detected"
        );
    }

    // Trailing garbage.
    let mut padded = file.clone();
    padded.extend_from_slice(b"\x00\xff");
    assert!(decode_checkpoint(&padded).is_err());
}

/// The store-level contract end to end: a torn newest file is reported
/// and skipped, the previous good checkpoint loads, and the resumed run
/// still matches the uninterrupted digest.
#[test]
fn store_falls_back_past_a_torn_checkpoint_and_still_resumes_exactly() {
    let seed = 42;
    let scenario = persistent_surveillance(80, seed);
    let config = quick_config(Recorder::disabled());
    let baseline = run_mission(&scenario, &config);

    let dir = std::env::temp_dir().join(format!(
        "iobt-ckpt-integration-{}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("open store");

    let mut runner = MissionRunner::new(&scenario, &config);
    for w in 1..=3u64 {
        runner.step_window().window_stat().expect("window");
        let payload = runner.save().expect("checkpointable");
        store.save(seed, w, &payload).expect("write checkpoint");
    }
    drop(runner);

    // Tear the newest checkpoint mid-file, as a crash during a
    // non-atomic write would.
    let newest = store.path_for(3);
    let bytes = std::fs::read(&newest).expect("read newest");
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).expect("tear newest");

    let latest = store.load_latest_good(seed).expect("scan");
    assert_eq!(latest.skipped.len(), 1, "torn file must be reported");
    let (window, payload) = latest.loaded.expect("previous good checkpoint");
    assert_eq!(window, 2);

    let mut resumed =
        MissionRunner::resume(&scenario, &config, &payload).expect("resume from fallback");
    while let StepOutcome::WindowClosed { .. } = resumed.step_window() {}
    assert_eq!(resumed.finish().digest, baseline.digest);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoint bytes, not only what resumes from them, are part of the
/// contract: the FNV-1a and the length of every window's payload for
/// `urban_evacuation(250, 42)`, recorded on the commit before movement
/// became a graph patch and re-recorded for `FORMAT_VERSION` 6, whose
/// payloads are the version-5 ones with the removed run settings, the
/// detector threshold and the snapshot's builder guard (73 bytes) cut out,
/// and again for `FORMAT_VERSION` 7, whose payloads are the version-6 ones
/// with the prologue section (1,969 bytes here) inserted after the guard,
/// and for `FORMAT_VERSION` 8, whose snapshots are the version-7 ones with
/// each node's sleep-schedule byte (251 here) cut, and for
/// `FORMAT_VERSION` 9, whose snapshots are the version-8 ones with each
/// sensor reporter's payload size (22 × 8 bytes) and each in-flight
/// message's payload bytes (128 at two boundaries) cut, and for
/// `FORMAT_VERSION` 10, whose payloads are the version-9 ones with the
/// delivered-report log, its cursor, the current composition result, each
/// node's id and the per-kind delivered counts cut and the latency
/// samples replaced by their sum and count (20,210 → 17,985 bytes at
/// window 0, 42,276 → 18,247 at window 9).
/// The payload carries the simulator's
/// graph-disposition byte, so a change to when the graph counts as
/// fully stale, clean or pending moves a hash here (the jammer at 60 s
/// is a full invalidation; every other boundary is a pending patch).
///
/// A checkpoint holds the mission's state, not its history: from window
/// 1 to window 9 a payload may grow by 8 closed windows' stats (32 bytes
/// each), the nodes the reflex gives up on (8 bytes each), the reporters
/// it attaches instead (their ids, behaviour state and timers) and the
/// reports in flight — well under 1 KiB. Version 9's payload grew by
/// 19,430 bytes over the same windows, nearly all of it delivered reports
/// and latency samples.
#[test]
fn evacuation_checkpoint_payloads_are_pinned() {
    const PINNED: [(u64, usize); 10] = [
        (0xf7662dd6c0be960e, 17_985),
        (0x364b6dbd565e2080, 18_017),
        (0x44e1c386793131b1, 18_049),
        (0x36be522f02f2a9c9, 18_081),
        (0x4819bc201862c913, 18_113),
        (0xfd814574a9c287dd, 18_199),
        (0x1660a3572e1b813d, 18_151),
        (0xab1860a4a7267518, 18_237),
        (0xa8baf65552ddf9cd, 18_215),
        (0x3e59d80be2f2baf3, 18_247),
    ];
    let scenario = urban_evacuation(250, 42);
    let config = RunConfig::builder()
        .duration(SimDuration::from_secs_f64(90.0))
        .window(SimDuration::from_secs_f64(10.0))
        .build()
        .expect("valid run config");
    let mut runner = MissionRunner::new(&scenario, &config);
    let pin = |payload: Vec<u8>| (iobt::obs::fnv1a(&payload), payload.len());
    let mut pins = vec![pin(runner.save().expect("window 0"))];
    while let StepOutcome::WindowClosed { .. } = runner.step_window() {
        pins.push(pin(runner.save().expect("window boundary")));
    }
    let growth = pins[9].1.saturating_sub(pins[1].1);
    assert!(
        growth < 1_024,
        "window 9's payload is {growth} bytes longer than window 1's"
    );
    assert_eq!(pins, PINNED);
}
