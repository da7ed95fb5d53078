//! Integration: the observability layer is itself deterministic — the
//! property that makes traces diffable across runs, machines, and CI.

use iobt::prelude::*;

fn f1_scenario() -> Scenario {
    let mut scenario = urban_evacuation(150, 7);
    scenario.disruptions = vec![Disruption::JammerOn {
        at: SimTime::from_secs_f64(30.0),
        index: 0,
    }];
    scenario
}

fn traced_run(sink: SharedBytes) -> (MissionReport, MetricsDigest) {
    let recorder = Recorder::jsonl(sink);
    let config = RunConfig::builder()
        .duration(SimDuration::from_secs_f64(60.0))
        .recorder(recorder.clone())
        .build().expect("valid run config");
    let report = run_mission(&f1_scenario(), &config);
    recorder.flush();
    (report, recorder.metrics_digest())
}

/// The golden-trace property: the f1 evacuation vignette, run twice with
/// the same seed and a JSONL sink, must produce *byte-identical* traces
/// and equal metrics digests. Sim-time timestamps and deterministic event
/// ordering are exactly what make this possible; a single wall-clock
/// timestamp or hash-ordered iteration anywhere in the hot path breaks it.
#[test]
fn f1_jsonl_traces_are_byte_identical_across_runs() {
    let bytes_a = SharedBytes::new();
    let bytes_b = SharedBytes::new();
    let (report_a, digest_a) = traced_run(bytes_a.clone());
    let (report_b, digest_b) = traced_run(bytes_b.clone());

    assert!(!bytes_a.is_empty(), "the run must produce trace output");
    assert_eq!(
        bytes_a.to_vec(),
        bytes_b.to_vec(),
        "same scenario + seed must serialize to byte-identical JSONL"
    );
    assert_eq!(digest_a, digest_b, "metrics digests must agree");
    assert_eq!(
        digest_a.fingerprint(),
        digest_b.fingerprint(),
        "digest fingerprints must agree"
    );
    assert_eq!(report_a.digest, report_b.digest);

    // The trace is valid single-line JSON with the stable leading keys.
    let text = bytes_a.to_string_lossy();
    let mut lines = 0usize;
    for line in text.lines() {
        assert!(line.starts_with("{\"seq\":"), "bad line: {line}");
        assert!(line.ends_with('}'), "bad line: {line}");
        assert!(line.contains("\"t_us\":") && line.contains("\"sub\":"));
        lines += 1;
    }
    assert!(lines > 100, "a 60 s mission should trace many events: {lines}");

    // Metrics agree with the report's own accounting.
    assert_eq!(
        digest_a.counter("netsim.msg_delivered"),
        Some(report_a.digest.delivered)
    );
    assert_eq!(
        digest_a.counter("core.windows").unwrap_or(0),
        report_a.windows.len() as u64
    );
}

/// A metrics-only (NullSink) recorder must observe the same counters as a
/// full JSONL recorder, and attaching either must not change the mission
/// outcome relative to a disabled recorder.
#[test]
fn sinks_do_not_change_the_mission_and_metrics_agree() {
    let scenario = f1_scenario();
    let quick = |recorder: Recorder| {
        let config = RunConfig::builder()
            .duration(SimDuration::from_secs_f64(40.0))
            .recorder(recorder)
            .build().expect("valid run config");
        run_mission(&scenario, &config)
    };

    let disabled = quick(Recorder::disabled());
    let null_recorder = Recorder::null();
    let with_null = quick(null_recorder.clone());
    let bytes = SharedBytes::new();
    let jsonl_recorder = Recorder::jsonl(bytes.clone());
    let with_jsonl = quick(jsonl_recorder.clone());

    assert_eq!(disabled.digest, with_null.digest);
    assert_eq!(disabled.digest, with_jsonl.digest);
    assert_eq!(disabled.windows, with_null.windows);

    let null_digest = null_recorder.metrics_digest();
    let jsonl_digest = jsonl_recorder.metrics_digest();
    assert!(!null_digest.is_empty());
    assert_eq!(null_digest, jsonl_digest, "sinks must not affect metrics");
    // Disabled recorders observe nothing at all.
    assert!(Recorder::disabled().metrics_digest().is_empty());
}

/// Sampling drops sink records but keeps metrics exact, and sequence
/// numbers still count every event (gaps reveal what sampling skipped).
#[test]
fn sampling_gates_the_sink_but_not_the_metrics() {
    let scenario = f1_scenario();
    let run = |sampling: SamplingConfig| {
        let (recorder, ring) = Recorder::memory(1 << 20);
        let recorder = recorder.with_sampling(sampling);
        let config = RunConfig::builder()
            .duration(SimDuration::from_secs_f64(40.0))
            .recorder(recorder.clone())
            .build().expect("valid run config");
        run_mission(&scenario, &config);
        (recorder.metrics_digest(), ring.records())
    };

    let (full_digest, full_records) = run(SamplingConfig::keep_all());
    let (sampled_digest, sampled_records) =
        run(SamplingConfig::keep_all().with(Subsystem::Netsim, 10));

    assert_eq!(full_digest, sampled_digest, "metrics never sampled");
    assert!(
        sampled_records.len() < full_records.len(),
        "sampling must drop netsim records: {} vs {}",
        sampled_records.len(),
        full_records.len()
    );
    // Core events survive untouched.
    let core_count = |rs: &[TraceRecord]| {
        rs.iter()
            .filter(|r| r.event.subsystem() == Subsystem::Core)
            .count()
    };
    assert_eq!(core_count(&full_records), core_count(&sampled_records));
}

include!("support/one_of_each.rs");

fn stamped(events: Vec<TraceEvent>) -> Vec<TraceRecord> {
    events
        .into_iter()
        .enumerate()
        .map(|(i, event)| TraceRecord { t_us: 1_000 * i as u64 + 7, seq: i as u64, event })
        .collect()
}

/// Every byte the trace schema decides, for one event of every kind,
/// pinned to literals read off the build *before* the schema became one
/// table (PR 19): the JSONL lines, the bridge frames, the metrics every
/// event folds into, and the `kind`/subsystem/primary-node mapping.
/// `bridge_cmd_dup` is left out of the two line hashes — its command
/// sequence moved from a second `"seq"` key to `cmd_seq` in that PR —
/// and pinned as a literal instead.
#[test]
fn one_of_each_kind_is_pinned_to_the_hand_written_encoder() {
    let records = stamped(one_of_each());
    let (mut lines, mut frames, mut mapping) = (String::new(), String::new(), String::new());
    let recorder = Recorder::null();
    for r in &records {
        if r.event.kind() != "bridge_cmd_dup" {
            lines.push_str(&r.to_jsonl());
            frames.push_str(&iobt::bridge::encode_frame(7, r));
        }
        mapping.push_str(&format!(
            "{}|{}|{:?}\n",
            r.event.kind(),
            r.event.subsystem().as_str(),
            r.event.primary_node()
        ));
        recorder.record_at(r.t_us, r.event.clone());
    }
    let fnv = |s: &str| iobt::obs::fnv1a(s.as_bytes());
    assert_eq!(fnv(&lines), 0xb3f3_ca3f_3208_836e, "JSONL lines");
    assert_eq!(fnv(&frames), 0x87e9_65a6_27a6_aa68, "bridge frames");
    assert_eq!(recorder.metrics_digest().fingerprint(), 0x68a7_2f7c_c254_9f50, "metrics");
    assert_eq!(fnv(&mapping), 0x4efa_bfc4_bfa1_52ab, "kind|sub|primary_node");
}

/// `one_of_each()` and `TraceEvent::SCHEMA` describe the same 44 kinds,
/// row for row — so the pins above cover the whole schema, and what
/// `iobt-trace` reads from `SCHEMA` is what the encoder writes.
#[test]
fn schema_rows_match_what_the_encoder_writes() {
    let records = stamped(one_of_each());
    assert_eq!(records.len(), TraceEvent::SCHEMA.len());
    let mut kinds = std::collections::BTreeSet::new();
    for (r, row) in records.iter().zip(TraceEvent::SCHEMA) {
        assert!(kinds.insert(row.kind), "kind {} declared twice", row.kind);
        assert_eq!((r.event.kind(), r.event.subsystem()), (row.kind, row.sub));
        // The line is flat and its strings are snake_case names, so
        // splitting on `,` and `:` is a complete parse.
        let line = r.to_jsonl();
        let members: Vec<(&str, &str)> = line
            .trim_end()
            .trim_start_matches('{')
            .trim_end_matches('}')
            .split(',')
            .map(|m| m.split_once(':').expect("key:value"))
            .map(|(k, v)| (k.trim_matches('"'), v))
            .collect();
        let keys: Vec<&str> = members.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys[..4], ["seq", "t_us", "sub", "kind"]);
        assert_eq!(keys[4..], *row.fields, "{}", row.kind);
        for key in row.fields {
            assert!(
                !["topic", "seq", "t_us", "sub", "kind"].contains(key),
                "{}: payload key {key} collides with the envelope",
                row.kind
            );
        }
        for key in row.node_keys {
            assert!(row.fields.contains(key), "{}: node key {key} is not a field", row.kind);
        }
        let primary = row.node_keys.first().map(|key| {
            let (_, v) = members.iter().find(|(k, _)| k == key).expect("node key present");
            v.parse::<u64>().expect("node ids are integers")
        });
        assert_eq!(r.event.primary_node(), primary, "{}", row.kind);
    }

    // The one line that differs from the hand-written encoder's.
    let dup = records.last().expect("44 records");
    assert_eq!(
        dup.to_jsonl(),
        "{\"seq\":43,\"t_us\":43007,\"sub\":\"bridge\",\"kind\":\"bridge_cmd_dup\",\
         \"src\":183,\"cmd_seq\":184,\"stale\":true}\n"
    );

    // Slot order is the checkpoint's counter-block order.
    let names: Vec<&str> = Subsystem::ALL.iter().map(|s| s.as_str()).collect();
    assert_eq!(names, ["netsim", "core", "synthesis", "adapt", "faults", "fleet", "bridge"]);
    assert_eq!(Subsystem::COUNT, 7);
}
