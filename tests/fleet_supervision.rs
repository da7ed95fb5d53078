//! Integration: fleet supervision. A panicking mission is quarantined
//! while every other mission finishes with its solo digest; injected
//! checkpoint-IO faults are retried to bit-identical completion;
//! exhausted retry budgets, blown slice deadlines, and a full admission
//! queue all surface as typed errors instead of hangs or crashes — the
//! ISSUE's "one bad mission never takes the fleet down" acceptance
//! gate.

use iobt::prelude::*;

/// Four-mission batch spanning all scenario families, small enough to
/// keep the chaos matrix fast but long enough (4 windows each) to
/// evict, retry, and quarantine mid-flight.
fn batch() -> Vec<Scenario> {
    vec![
        persistent_surveillance(40, 201),
        urban_evacuation(44, 202),
        disaster_relief(48, 203),
        persistent_surveillance(52, 204),
    ]
}

fn mission_config() -> RunConfig {
    RunConfig::builder()
        .duration(SimDuration::from_secs_f64(40.0))
        .window(SimDuration::from_secs_f64(10.0))
        .build()
        .expect("valid run config")
}

/// Solo ground truth: digest + metrics fingerprint per scenario, using
/// the same `Recorder::null()` the fleet attaches.
fn baselines() -> Vec<(EndStateDigest, u64)> {
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
            (
                report.digest.clone(),
                recorder.metrics_digest().fingerprint(),
            )
        })
        .collect()
}

fn temp_root(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("iobt-fleet-supervision-{}-{tag}", std::process::id()))
}

#[test]
fn injected_panic_quarantines_one_mission_and_spares_the_rest() {
    let baselines = baselines();
    let root = temp_root("panic");
    // Panic inside mission m-000002's slice at window 1: the worker
    // must catch the unwind, quarantine only that mission, and keep
    // slicing the other three to their solo digests.
    let mut fleet = FleetBuilder::new()
        .workers(2)
        .checkpoint_root(&root)
        .inject_panic(2, 1)
        .build()
        .expect("valid");
    let tickets: Vec<MissionTicket> = batch()
        .into_iter()
        .map(|s| fleet.submit(s, mission_config()).expect("admissible"))
        .collect();
    let summary = fleet.drain();
    assert_eq!(summary.submitted, 4);
    assert_eq!(summary.completed, 3);
    assert_eq!(summary.quarantined, 1);
    for (i, &t) in tickets.iter().enumerate() {
        if t.raw() == 2 {
            assert_eq!(fleet.poll(t), Some(MissionStatus::Quarantined));
            let err = fleet.error(t).expect("quarantined mission has an error");
            assert_eq!(err.kind, MissionErrorKind::Panic);
            assert!(!err.retryable, "a panic is never retryable");
            assert_eq!(err.attempts, 1);
            assert!(
                err.detail.contains("injected panic"),
                "panic payload is preserved in the detail: {}",
                err.detail
            );
            assert!(fleet.digest(t).is_none());
        } else {
            assert_eq!(fleet.poll(t), Some(MissionStatus::Done), "{t}");
            assert!(fleet.error(t).is_none(), "{t}");
            assert_eq!(
                fleet.digest(t),
                Some(&baselines[i].0),
                "{t}: surviving missions must match their solo digests"
            );
            assert_eq!(fleet.metrics_fingerprint(t), Some(baselines[i].1), "{t}");
        }
    }
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn checkpoint_io_faults_are_retried_to_digest_identical_completion() {
    let baselines = baselines();
    let root = temp_root("faults");
    // Evict after every slice so every mission round-trips the store
    // constantly, and fail roughly one in three of those operations
    // across all four fault domains. With a generous retry budget the
    // batch must still complete, and completion must be bit-identical:
    // faults may only cost slices, never change results.
    let store = FailingStore::new(DiskStore::new(&root), FaultProfile::uniform(7, 3));
    let mut fleet = FleetBuilder::new()
        .workers(2)
        .evict_every_slice(true)
        .checkpoint_root(&root)
        .store(store)
        .retry_limit(64)
        .retry_backoff(1, 2)
        .build()
        .expect("valid");
    let tickets: Vec<MissionTicket> = batch()
        .into_iter()
        .map(|s| fleet.submit(s, mission_config()).expect("admissible"))
        .collect();
    let summary = fleet.drain();
    assert_eq!(summary.completed, 4, "all missions survive injected faults");
    assert_eq!(summary.quarantined, 0);
    assert!(
        summary.retries > 0,
        "a 1-in-3 fault rate over forced eviction must actually trigger retries"
    );
    for (i, &t) in tickets.iter().enumerate() {
        assert_eq!(fleet.poll(t), Some(MissionStatus::Done), "{t}");
        assert_eq!(
            fleet.digest(t),
            Some(&baselines[i].0),
            "{t}: faults may cost slices but never change the digest"
        );
        assert_eq!(fleet.metrics_fingerprint(t), Some(baselines[i].1), "{t}");
    }
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn fault_retries_are_deterministic_across_runs() {
    // Same seed, same fault profile, same batch: two independent runs
    // must agree on every digest AND on the retry count — the fault
    // schedule is a pure function of (seed, domain, ticket, op).
    let run = || {
        let root = temp_root("repro");
        let _ = std::fs::remove_dir_all(&root);
        let store = FailingStore::new(DiskStore::new(&root), FaultProfile::uniform(11, 4));
        let mut fleet = FleetBuilder::new()
            .workers(1)
            .evict_every_slice(true)
            .checkpoint_root(&root)
            .store(store)
            .retry_limit(64)
            .build()
            .expect("valid");
        let tickets: Vec<MissionTicket> = batch()
            .into_iter()
            .map(|s| fleet.submit(s, mission_config()).expect("admissible"))
            .collect();
        let summary = fleet.drain();
        let digests: Vec<Option<EndStateDigest>> = tickets
            .iter()
            .map(|&t| fleet.digest(t).cloned())
            .collect();
        let _ = std::fs::remove_dir_all(root);
        (summary.retries, digests)
    };
    let (retries_a, digests_a) = run();
    let (retries_b, digests_b) = run();
    assert_eq!(retries_a, retries_b, "fault schedule is deterministic");
    assert_eq!(digests_a, digests_b);
}

#[test]
fn exhausted_retry_budget_quarantines_with_a_typed_error() {
    let root = temp_root("exhaust");
    // Every save fails: two attempts each, then quarantine. The typed
    // error must say what failed (checkpoint save), that the fault was
    // retryable, and how many attempts were burned.
    let store = FailingStore::new(
        DiskStore::new(&root),
        FaultProfile {
            seed: 1,
            write_error_one_in: 1,
            torn_write_one_in: 0,
            enospc_one_in: 0,
            read_error_one_in: 0,
        },
    );
    let mut fleet = FleetBuilder::new()
        .workers(2)
        .evict_every_slice(true)
        .checkpoint_root(&root)
        .store(store)
        .retry_limit(2)
        .build()
        .expect("valid");
    let tickets: Vec<MissionTicket> = batch()
        .into_iter()
        .map(|s| fleet.submit(s, mission_config()).expect("admissible"))
        .collect();
    let summary = fleet.drain();
    assert_eq!(summary.completed, 0);
    assert_eq!(summary.quarantined, 4, "no checkpoint ever lands, so every mission quarantines");
    for &t in &tickets {
        assert_eq!(fleet.poll(t), Some(MissionStatus::Quarantined), "{t}");
        let err = fleet.error(t).expect("typed error");
        assert_eq!(err.kind, MissionErrorKind::CheckpointSave, "{t}");
        assert!(err.retryable, "{t}: write errors are classified transient");
        assert_eq!(err.attempts, 2, "{t}: the configured budget was consumed");
    }
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn blown_slice_budget_quarantines_with_deadline_exceeded() {
    let root = temp_root("deadline");
    // Each mission needs 4 slices at quantum 1; a budget of 2 dooms all
    // of them — deterministically, at the same window every run.
    let mut fleet = FleetBuilder::new()
        .workers(2)
        .checkpoint_root(&root)
        .slice_budget(Some(2))
        .build()
        .expect("valid");
    let tickets: Vec<MissionTicket> = batch()
        .into_iter()
        .map(|s| fleet.submit(s, mission_config()).expect("admissible"))
        .collect();
    let summary = fleet.drain();
    assert_eq!(summary.quarantined, 4);
    for &t in &tickets {
        let err = fleet.error(t).expect("typed error");
        assert_eq!(err.kind, MissionErrorKind::DeadlineExceeded, "{t}");
        assert!(!err.retryable, "{t}: rerunning an over-budget mission cannot help");
        assert!(
            err.detail.contains("after 2 slices"),
            "{t}: detail names the budget: {}",
            err.detail
        );
    }
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn admission_bound_sheds_new_work_with_queue_full() {
    let root = temp_root("shed");
    let mut fleet = FleetBuilder::new()
        .workers(1)
        .checkpoint_root(&root)
        .max_queued(2)
        .build()
        .expect("valid");
    let scenarios = batch();
    fleet
        .submit(scenarios[0].clone(), mission_config())
        .expect("under the bound");
    fleet
        .submit(scenarios[1].clone(), mission_config())
        .expect("at the bound");
    let shed = fleet.submit(scenarios[2].clone(), mission_config());
    assert_eq!(shed, Err(SubmitError::QueueFull { queued: 2 }));
    // Draining the admitted pair re-opens admission.
    let summary = fleet.drain();
    assert_eq!(summary.completed, 2);
    fleet
        .submit(scenarios[2].clone(), mission_config())
        .expect("admission re-opens once the queue drains");
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn backoff_parking_stays_live_without_busy_waiting() {
    let baselines = baselines();
    let root = temp_root("liveness");
    // One worker, one mission, every-slice eviction, saves that fail
    // half the time, and a flat 8-slice backoff: whenever the only
    // mission is deferred there is NO ready work, so the scheduler must
    // fast-forward its slice clock and notify the parked worker rather
    // than spin or stall on the liveness backstop. The run must finish
    // promptly in wall-clock terms (seconds, not the minutes a stuck
    // 100ms-backstop loop would take) and still match the solo digest.
    #[expect(
        clippy::disallowed_methods,
        reason = "bounds test runtime only; no simulated result depends on it"
    )]
    let t0 = std::time::Instant::now();
    let store = FailingStore::new(
        DiskStore::new(&root),
        FaultProfile {
            seed: 5,
            write_error_one_in: 2,
            torn_write_one_in: 0,
            enospc_one_in: 0,
            read_error_one_in: 0,
        },
    );
    let mut fleet = FleetBuilder::new()
        .workers(1)
        .evict_every_slice(true)
        .checkpoint_root(&root)
        .store(store)
        .retry_limit(64)
        .retry_backoff(8, 8)
        .build()
        .expect("valid");
    let scenario = batch().remove(0);
    let t = fleet.submit(scenario, mission_config()).expect("admissible");
    let summary = fleet.drain();
    assert_eq!(summary.completed, 1);
    assert!(summary.retries > 0, "the fault profile must actually defer the mission");
    assert_eq!(fleet.digest(t), Some(&baselines[0].0));
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(30),
        "deferred-only queues must fast-forward, not stall: took {:?}",
        t0.elapsed()
    );
    let _ = std::fs::remove_dir_all(root);
}

/// Eight missions over all three scenario families, for the residency
/// row of the decision goldens.
fn eight() -> Vec<Scenario> {
    (0..8u64)
        .map(|i| match i % 3 {
            0 => persistent_surveillance(40 + 2 * i as usize, 301 + i),
            1 => urban_evacuation(40 + 2 * i as usize, 301 + i),
            _ => disaster_relief(40 + 2 * i as usize, 301 + i),
        })
        .collect()
}

/// What a one-worker drain decided: its summary counts (slices, windows,
/// evictions, resumes, retries, completed, quarantined) and the FNV-1a
/// of the fleet recorder's JSONL, admissions and recoveries included.
type Decisions = ([u64; 7], u64);

fn decisions_of(summary: &FleetSummary, jsonl: &SharedBytes) -> Decisions {
    let counts = [
        summary.slices,
        summary.windows,
        summary.evictions,
        summary.resumes,
        summary.retries,
        summary.completed as u64,
        summary.quarantined as u64,
    ];
    (counts, iobt::obs::fnv1a(&jsonl.to_vec()))
}

/// Submits `scenarios` to a one-worker fleet built by `configure` under
/// a fresh root, drains it and returns its decisions.
fn one_worker_drain(
    tag: &str,
    scenarios: Vec<Scenario>,
    configure: impl FnOnce(FleetBuilder, &std::path::Path) -> FleetBuilder,
) -> Decisions {
    let root = temp_root(&format!("golden-{tag}"));
    let _ = std::fs::remove_dir_all(&root);
    let jsonl = SharedBytes::new();
    let builder = FleetBuilder::new()
        .workers(1)
        .checkpoint_root(&root)
        .recorder(Recorder::jsonl(jsonl.clone()));
    let mut fleet = configure(builder, &root).build().expect("valid");
    for s in scenarios {
        fleet.submit(s, mission_config()).expect("admissible");
    }
    let summary = fleet.drain();
    let _ = std::fs::remove_dir_all(root);
    decisions_of(&summary, &jsonl)
}

/// A one-worker schedule is what CI and the ledger reproduce, so every
/// scheduling decision it makes — admission before residents, the LRU
/// victim, retry or quarantine, the backoff and its fast-forward, the
/// halt latch and what recovery finds — is pinned here, row by row.
/// Recorded on the scheduler before it was split into a plain-data core
/// and a thread shell; the split had to reproduce every row unedited. The
/// FNVs were re-recorded for `FORMAT_VERSION` 6, which only shrinks every
/// `fleet_evict` record's `bytes` by 73, and for `FORMAT_VERSION` 7, which
/// only grows them by the mission's prologue section (105–457 bytes), and
/// for `FORMAT_VERSION` 8, which only shrinks them by the mission's node
/// count (one sleep-schedule byte per node, 41–56), and for
/// `FORMAT_VERSION` 9, which only shrinks them by 8 bytes per sensor
/// reporter and the payload bytes of each report in flight (0–200), and
/// for `FORMAT_VERSION` 10, which only shrinks them by the mission's
/// delivered-report log, latency samples, node ids and current
/// composition (369–3,693 bytes); the counts did not move.
#[test]
fn one_worker_decisions_are_pinned() {
    let residency = one_worker_drain("resident3", eight(), |b, _| b.max_resident(3));
    let evict_all = one_worker_drain("evict-all", batch(), |b, _| b.evict_every_slice(true));
    let io_faults = one_worker_drain("io-faults", eight(), |b, root| {
        let profile = FaultProfile {
            seed: 13,
            write_error_one_in: 3,
            torn_write_one_in: 0,
            enospc_one_in: 0,
            read_error_one_in: 3,
        };
        b.max_resident(2)
            .store(FailingStore::new(DiskStore::new(root), profile))
            .retry_backoff(2, 8)
    });
    let deadline = one_worker_drain("deadline", batch(), |b, _| {
        b.max_resident(2).slice_budget(Some(3))
    });
    let panic = one_worker_drain("panic", batch(), |b, _| {
        b.evict_every_slice(true).inject_panic(1, 2)
    });

    let root = temp_root("golden-halt");
    let _ = std::fs::remove_dir_all(&root);
    let halt_jsonl = SharedBytes::new();
    let mut halted = FleetBuilder::new()
        .workers(1)
        .max_resident(2)
        .checkpoint_root(&root)
        .durable_manifest(true)
        .halt_after_slices(7)
        .recorder(Recorder::jsonl(halt_jsonl.clone()))
        .build()
        .expect("valid");
    for s in batch() {
        halted.submit(s, mission_config()).expect("admissible");
    }
    let halt = decisions_of(&halted.drain(), &halt_jsonl);
    drop(halted);
    let recover_jsonl = SharedBytes::new();
    let mut recovered = FleetBuilder::new()
        .workers(1)
        .max_resident(2)
        .checkpoint_root(&root)
        .recorder(Recorder::jsonl(recover_jsonl.clone()))
        .recover(batch())
        .expect("manifest rebuilds the fleet");
    let recover = decisions_of(&recovered.drain(), &recover_jsonl);
    let _ = std::fs::remove_dir_all(root);

    let rows = [
        ("max_resident(3)", residency),
        ("evict_every_slice", evict_all),
        ("io faults 1-in-3", io_faults),
        ("slice_budget(3)", deadline),
        ("inject_panic(1, 2)", panic),
        ("halt_after_slices(7)", halt),
        ("recover", recover),
    ];
    let expected: [Decisions; 7] = [
        ([32, 32, 21, 21, 0, 8, 0], 0x3dec_08c3_4a9f_0940),
        ([16, 16, 12, 12, 0, 4, 0], 0x8ae3_39ae_55b0_fc63),
        ([32, 32, 21, 21, 14, 8, 0], 0xf920_ad51_6f9e_4607),
        ([12, 12, 6, 6, 0, 0, 4], 0xb47d_228f_ac9a_1a15),
        ([14, 14, 11, 11, 0, 3, 1], 0x50d2_8fe5_f7ef_d47f),
        ([7, 7, 5, 3, 0, 0, 0], 0x3674_724c_0607_9a1a),
        ([11, 11, 5, 9, 0, 4, 0], 0xda6e_adfa_8472_1d58),
    ];
    for ((label, got), want) in rows.iter().zip(expected) {
        // ([slices, windows, evictions, resumes, retries, completed,
        // quarantined], FNV-1a of the JSONL)
        assert_eq!(*got, want, "{label}");
    }
}
