//! Integration: the edge bridge under chaos.
//!
//! The contract under test is the tentpole robustness claim: attaching
//! a bridge — over a transport that disconnects, stalls, tears frames,
//! duplicates deliveries, and refuses reconnects — must never panic,
//! must keep the exactly-once ledger
//! (`delivered + dropped + buffered == emitted`) balanced, and must
//! leave the mission's end-state digest and metrics fingerprint
//! *bit-identical* to a bridgeless run. The matrix walks seeds
//! {3, 17, 42} × all three overflow policies × fault profiles
//! including a disconnect armed at every single flush boundary.
//!
//! That matrix compares a run with itself. The goldens at the bottom
//! compare it with an earlier build: every cell's whole `BridgeReport`
//! and the bytes the consumer received, and the exact call sequence a
//! transport sees under a scripted offer/pump sequence, are pinned to
//! literals, so a bridge whose behaviour under faults moves between
//! commits fails here.

use std::cell::RefCell;
use std::rc::Rc;

use iobt::bridge::{
    memory_pair, parse_command, Bridge, BridgeConfig, BridgeReport, ConnState, FaultyTransport,
    MemoryEndpoint, OverflowPolicy, Transport, TransportError, TransportFaultProfile,
};
use iobt::obs::{fnv1a, TraceEvent, TraceRecord, TraceSink};
use iobt::prelude::*;

const SEEDS: [u64; 3] = [3, 17, 42];

const POLICIES: [OverflowPolicy; 3] = [
    OverflowPolicy::DropOldest,
    OverflowPolicy::DropNewest,
    OverflowPolicy::Block { deadline: 4 },
];

fn scenario_for(seed: u64) -> Scenario {
    urban_evacuation(40, seed)
}

fn mission_config(recorder: Recorder) -> RunConfig {
    RunConfig::builder()
        .duration(SimDuration::from_secs_f64(12.0))
        .window(SimDuration::from_secs_f64(6.0))
        .recorder(recorder)
        .build()
        .expect("valid run config")
}

fn bridge_config(seed: u64, policy: OverflowPolicy) -> BridgeConfig {
    BridgeConfig {
        mission: seed,
        seed,
        ring_capacity: 32,
        overflow: policy,
        backoff_base: 1,
        backoff_cap: 8,
        max_attempts: 4,
        heartbeat_every: 4,
        batch_per_tick: 8,
        ..BridgeConfig::default()
    }
}

/// Steps the mission to completion without any bridge; the reference
/// digest and metrics fingerprint every bridged run must reproduce.
fn bridgeless_run(seed: u64) -> (EndStateDigest, u64) {
    let recorder = Recorder::null();
    let config = mission_config(recorder.clone());
    let scenario = scenario_for(seed);
    let mut runner = MissionRunner::new(&scenario, &config);
    while let StepOutcome::WindowClosed { .. } = runner.step_window() {}
    let report = runner.finish();
    (report.digest, recorder.metrics_digest().fingerprint())
}

/// Steps the same mission with a bridge attached over the given faulty
/// transport, pumping between windows like a host loop would.
fn bridged_run(
    seed: u64,
    policy: OverflowPolicy,
    profile: TransportFaultProfile,
) -> (EndStateDigest, u64, BridgeReport, MemoryEndpoint) {
    bridged_run_sampled(seed, policy, profile, 16)
}

/// [`bridged_run`] keeping one record in `stride` per subsystem: 16 is a
/// trickle the ring of 32 always holds, 1 is every record, which overflows
/// it inside the first window.
fn bridged_run_sampled(
    seed: u64,
    policy: OverflowPolicy,
    profile: TransportFaultProfile,
    stride: u32,
) -> (EndStateDigest, u64, BridgeReport, MemoryEndpoint) {
    let (mem, peer) = memory_pair();
    let transport = FaultyTransport::new(mem, profile);
    let bridge = Bridge::new(bridge_config(seed, policy), Box::new(transport));
    let recorder =
        Recorder::with_sink(Box::new(bridge.sink())).with_sampling(SamplingConfig::all(stride));
    let config = mission_config(recorder.clone());
    let scenario = scenario_for(seed);
    let mut runner = MissionRunner::new(&scenario, &config);
    bridge.attach_board(runner.task_board());
    while let StepOutcome::WindowClosed { .. } = runner.step_window() {
        bridge.pump_n(4);
    }
    let report = runner.finish();
    // Final drain; under hostile profiles the bridge may time out or
    // give up — both are legitimate outcomes, the ledger still has to
    // balance.
    let _ = bridge.drain(200);
    (
        report.digest,
        recorder.metrics_digest().fingerprint(),
        bridge.report(),
        peer,
    )
}

/// Chaos matrix: every seed × every overflow policy × benign, chaotic,
/// and connect-refusing transports. The mission must be bit-identical
/// to the bridgeless reference in every cell, and the bridge ledger
/// must balance exactly.
#[test]
fn mission_digests_are_bit_identical_under_every_fault_profile() {
    for seed in SEEDS {
        let (ref_digest, ref_fp) = bridgeless_run(seed);
        let mut profiles = vec![
            ("benign", TransportFaultProfile::benign(seed)),
            ("chaos", TransportFaultProfile::chaos(seed)),
        ];
        // Refuse every connect: the bridge must walk the backoff
        // ladder, give up, and detach without touching the mission.
        let mut refuse = TransportFaultProfile::benign(seed);
        refuse.connect_fail_one_in = 1;
        profiles.push(("refuse_all", refuse));

        for policy in POLICIES {
            for (name, profile) in &profiles {
                let (digest, fp, report, _peer) = bridged_run(seed, policy, *profile);
                assert_eq!(
                    digest, ref_digest,
                    "seed {seed} policy {policy:?} profile {name}: digest drifted"
                );
                assert_eq!(
                    fp, ref_fp,
                    "seed {seed} policy {policy:?} profile {name}: fingerprint drifted"
                );
                assert!(
                    report.accounted(),
                    "seed {seed} policy {policy:?} profile {name}: ledger imbalance {report:?}"
                );
                if *name == "refuse_all" {
                    assert_eq!(report.state, ConnState::GaveUp);
                    assert_eq!(report.delivered, 0);
                    assert_eq!(report.dropped, report.emitted);
                }
            }
        }
    }
}

/// Walks a single-shot disconnect across *every* flush boundary of the
/// run, for every seed and overflow policy: no panic, exact
/// accounting, and mission bit-identity at each boundary.
#[test]
fn disconnect_at_every_flush_boundary_is_survivable() {
    for seed in SEEDS {
        let (ref_digest, ref_fp) = bridgeless_run(seed);
        for policy in POLICIES {
            // Benign pass to learn how many transport sends the run
            // performs (frames + heartbeats).
            let (_, _, benign_report, _peer) = bridged_run(
                seed,
                policy,
                TransportFaultProfile::benign(seed),
            );
            let total_sends = benign_report.delivered + benign_report.heartbeats;
            assert!(
                total_sends >= 4,
                "seed {seed}: run too small to exercise boundaries ({total_sends} sends)"
            );
            for boundary in 0..total_sends {
                let mut profile = TransportFaultProfile::benign(seed);
                profile.disconnect_at_send = Some(boundary);
                let (digest, fp, report, _peer) = bridged_run(seed, policy, profile);
                assert_eq!(
                    digest, ref_digest,
                    "seed {seed} policy {policy:?} boundary {boundary}: digest drifted"
                );
                assert_eq!(
                    fp, ref_fp,
                    "seed {seed} policy {policy:?} boundary {boundary}: fingerprint drifted"
                );
                assert!(
                    report.accounted(),
                    "seed {seed} policy {policy:?} boundary {boundary}: imbalance {report:?}"
                );
                // One reconnect must have healed the link: frames kept
                // flowing after the cut.
                assert!(
                    report.delivered > 0,
                    "seed {seed} boundary {boundary}: nothing delivered"
                );
            }
        }
    }
}

/// Consumers dedupe by (topic, seq): under a duplicating + torn-frame
/// transport, the deduped stream the consumer reconstructs is exactly
/// the delivered prefix of the emission order — duplicates collapse,
/// torn frames are discarded, order is preserved.
#[test]
fn consumer_dedup_recovers_exactly_once_delivery() {
    let seed = 17;
    let mut profile = TransportFaultProfile::benign(seed);
    profile.duplicate_one_in = 3;
    profile.partial_one_in = 7;
    let (_, _, report, peer) = bridged_run(seed, OverflowPolicy::DropOldest, profile);
    assert!(report.accounted());
    assert!(report.delivered > 0);

    let mut seen = std::collections::BTreeSet::new();
    let mut deduped = 0u64;
    let mut torn = 0u64;
    for frame in peer.take_frames() {
        let Ok(text) = String::from_utf8(frame) else {
            torn += 1;
            continue;
        };
        // A whole frame is one JSON line ending in `}`; torn prefixes
        // are not.
        if !text.trim_end().ends_with('}') || !text.starts_with("{\"topic\":\"") {
            torn += 1;
            continue;
        }
        if text.contains("/heartbeat\"") {
            continue;
        }
        let key = text.clone();
        if seen.insert(key) {
            deduped += 1;
        }
    }
    assert!(torn > 0, "the partial-write profile should tear frames");
    // Every delivered frame appears at least once; dedup collapses the
    // duplicated deliveries back to the exact delivered count.
    assert_eq!(
        deduped, report.delivered,
        "dedup by frame identity must reconstruct exactly-once delivery"
    );
}

/// Ingress fuzz: every single-bit flip and every truncation of a valid
/// command frame must produce a typed error or a harmless reparse —
/// never a panic — both at the parser and end-to-end through a live
/// bridge.
#[test]
fn ingress_survives_every_flip_and_truncation() {
    let valid = b"{\"src\":5,\"seq\":11,\"cmd\":\"assign\",\"node\":42}".to_vec();
    assert!(parse_command(&valid).is_ok());

    // Truncations: a strict prefix can never be a complete object.
    for cut in 0..valid.len() {
        assert!(
            parse_command(&valid[..cut]).is_err(),
            "truncation at {cut} should be rejected"
        );
    }

    // Bit flips: exercised for the no-panic property; a flip inside a
    // digit may still parse (to different numbers), which is fine.
    for i in 0..valid.len() {
        for bit in 0..8 {
            let mut corrupt = valid.clone();
            corrupt[i] ^= 1 << bit;
            let _ = parse_command(&corrupt);
        }
    }

    // End-to-end: feed the same corruptions through a live bridge; it
    // must stay up, count rejections, and apply the valid command once.
    let (mem, peer) = memory_pair();
    let bridge = Bridge::new(
        BridgeConfig {
            batch_per_tick: 4096,
            ..BridgeConfig::default()
        },
        Box::new(mem),
    );
    let board = iobt::core::new_task_board();
    bridge.attach_board(board);
    bridge.pump();
    assert_eq!(bridge.state(), ConnState::Connected);
    peer.push_command(&valid);
    for i in 0..valid.len() {
        let mut corrupt = valid.clone();
        corrupt[i] ^= 0x80; // force non-ASCII / structural damage
        peer.push_command(&corrupt);
        peer.push_command(&valid[..i]);
    }
    bridge.pump();
    let report = bridge.report();
    assert_eq!(report.cmds_applied, 1, "the valid command applies once");
    assert!(report.cmds_rejected > 0);
    assert_eq!(bridge.state(), ConnState::Connected);
}

/// External tasking rides the acked TaskBoard path: a command injected
/// mid-mission reaches the mission's tasking pipeline, and replaying it
/// is idempotent.
#[test]
fn external_commands_enter_the_mission_once() {
    let seed = 42;
    let (mem, peer) = memory_pair();
    let bridge = Bridge::new(
        bridge_config(seed, OverflowPolicy::DropOldest),
        Box::new(mem),
    );
    let recorder = Recorder::with_sink(Box::new(bridge.sink()));
    let config = mission_config(recorder.clone());
    let scenario = scenario_for(seed);
    let mut runner = MissionRunner::new(&scenario, &config);
    bridge.attach_board(runner.task_board());
    bridge.pump(); // connect
    let cmd = b"{\"src\":9,\"seq\":1,\"cmd\":\"assign\",\"node\":3}";
    peer.push_command(cmd);
    peer.push_command(cmd); // replay
    while let StepOutcome::WindowClosed { .. } = runner.step_window() {
        bridge.pump_n(4);
        peer.push_command(cmd); // replay again mid-mission
    }
    let _ = runner.finish();
    let report = bridge.report();
    assert_eq!(report.cmds_applied, 1, "one (src, seq) applies exactly once");
    assert!(report.cmds_dup >= 2, "replays are counted, not re-applied");
    assert!(report.accounted());
}

/// One line per ledger: every `BridgeReport` field, in declaration order.
fn ledger_line(r: &BridgeReport) -> String {
    format!(
        "emitted={} delivered={} dropped={} buffered={} heartbeats={} connects={} retries={} \
         state={} cmds={}/{}/{}",
        r.emitted,
        r.delivered,
        r.dropped,
        r.buffered,
        r.heartbeats,
        r.connects,
        r.retries,
        r.state,
        r.cmds_applied,
        r.cmds_dup,
        r.cmds_rejected
    )
}

/// Recorded on the build before `Transport::send_batch` existed (PR 19):
/// sampling stride, seed, overflow policy, profile → the ledger and
/// FNV-1a of every byte the consumer received, torn and duplicated frames
/// included. Stride 16 is the chaos matrix's own trickle, which the ring
/// always holds; stride 1 overflows it, so the policies tell apart.
const PINNED_RUNS: &[&str] = &[
    "1/16 3 oldest benign: emitted=8 delivered=8 dropped=0 buffered=0 heartbeats=2 connects=1 retries=0 state=connected cmds=0/0/0 egress=d377180437a0cdbd",
    "1/16 3 oldest chaos: emitted=8 delivered=8 dropped=0 buffered=0 heartbeats=0 connects=7 retries=1 state=connected cmds=0/0/0 egress=decd4bce9002d20f",
    "1/16 3 newest benign: emitted=8 delivered=8 dropped=0 buffered=0 heartbeats=2 connects=1 retries=0 state=connected cmds=0/0/0 egress=d377180437a0cdbd",
    "1/16 3 newest chaos: emitted=8 delivered=8 dropped=0 buffered=0 heartbeats=0 connects=7 retries=1 state=connected cmds=0/0/0 egress=decd4bce9002d20f",
    "1/16 3 block4 benign: emitted=8 delivered=8 dropped=0 buffered=0 heartbeats=2 connects=1 retries=0 state=connected cmds=0/0/0 egress=d377180437a0cdbd",
    "1/16 3 block4 chaos: emitted=8 delivered=8 dropped=0 buffered=0 heartbeats=0 connects=7 retries=1 state=connected cmds=0/0/0 egress=decd4bce9002d20f",
    "1/16 17 oldest benign: emitted=7 delivered=7 dropped=0 buffered=0 heartbeats=2 connects=1 retries=0 state=connected cmds=0/0/0 egress=e410cdd2b4dc0219",
    "1/16 17 oldest chaos: emitted=7 delivered=7 dropped=0 buffered=0 heartbeats=0 connects=8 retries=0 state=connected cmds=0/0/0 egress=e879c5cc0bcfb66f",
    "1/16 17 newest benign: emitted=7 delivered=7 dropped=0 buffered=0 heartbeats=2 connects=1 retries=0 state=connected cmds=0/0/0 egress=e410cdd2b4dc0219",
    "1/16 17 newest chaos: emitted=7 delivered=7 dropped=0 buffered=0 heartbeats=0 connects=8 retries=0 state=connected cmds=0/0/0 egress=e879c5cc0bcfb66f",
    "1/16 17 block4 benign: emitted=7 delivered=7 dropped=0 buffered=0 heartbeats=2 connects=1 retries=0 state=connected cmds=0/0/0 egress=e410cdd2b4dc0219",
    "1/16 17 block4 chaos: emitted=7 delivered=7 dropped=0 buffered=0 heartbeats=0 connects=8 retries=0 state=connected cmds=0/0/0 egress=e879c5cc0bcfb66f",
    "1/16 42 oldest benign: emitted=8 delivered=8 dropped=0 buffered=0 heartbeats=2 connects=1 retries=0 state=connected cmds=0/0/0 egress=71789711d34b66e7",
    "1/16 42 oldest chaos: emitted=8 delivered=8 dropped=0 buffered=0 heartbeats=2 connects=5 retries=0 state=connected cmds=0/0/0 egress=efbfc095d7120078",
    "1/16 42 newest benign: emitted=8 delivered=8 dropped=0 buffered=0 heartbeats=2 connects=1 retries=0 state=connected cmds=0/0/0 egress=71789711d34b66e7",
    "1/16 42 newest chaos: emitted=8 delivered=8 dropped=0 buffered=0 heartbeats=2 connects=5 retries=0 state=connected cmds=0/0/0 egress=efbfc095d7120078",
    "1/16 42 block4 benign: emitted=8 delivered=8 dropped=0 buffered=0 heartbeats=2 connects=1 retries=0 state=connected cmds=0/0/0 egress=71789711d34b66e7",
    "1/16 42 block4 chaos: emitted=8 delivered=8 dropped=0 buffered=0 heartbeats=2 connects=5 retries=0 state=connected cmds=0/0/0 egress=efbfc095d7120078",
    "1/1 3 oldest benign: emitted=92 delivered=64 dropped=28 buffered=0 heartbeats=2 connects=1 retries=0 state=connected cmds=0/0/0 egress=31c89998ef823aa2",
    "1/1 3 oldest chaos: emitted=92 delivered=35 dropped=57 buffered=0 heartbeats=4 connects=24 retries=8 state=connected cmds=0/0/0 egress=fd5270f0b15c62ba",
    "1/1 3 newest benign: emitted=92 delivered=64 dropped=28 buffered=0 heartbeats=2 connects=1 retries=0 state=connected cmds=0/0/0 egress=025c2f5aac742a3e",
    "1/1 3 newest chaos: emitted=92 delivered=35 dropped=57 buffered=0 heartbeats=4 connects=24 retries=8 state=connected cmds=0/0/0 egress=57d1f9fbb5bf91ef",
    "1/1 3 block4 benign: emitted=92 delivered=77 dropped=15 buffered=0 heartbeats=2 connects=1 retries=0 state=connected cmds=0/0/0 egress=2d6db04f80295084",
    "1/1 3 block4 chaos: emitted=92 delivered=35 dropped=57 buffered=0 heartbeats=4 connects=24 retries=8 state=connected cmds=0/0/0 egress=57d1f9fbb5bf91ef",
    "1/1 17 oldest benign: emitted=72 delivered=64 dropped=8 buffered=0 heartbeats=2 connects=1 retries=0 state=connected cmds=0/0/0 egress=638cbbd0e355c853",
    "1/1 17 oldest chaos: emitted=72 delivered=37 dropped=35 buffered=0 heartbeats=1 connects=19 retries=6 state=connected cmds=0/0/0 egress=5414989a20fcd097",
    "1/1 17 newest benign: emitted=72 delivered=64 dropped=8 buffered=0 heartbeats=2 connects=1 retries=0 state=connected cmds=0/0/0 egress=41d83dfc961cffc8",
    "1/1 17 newest chaos: emitted=72 delivered=37 dropped=35 buffered=0 heartbeats=1 connects=19 retries=6 state=connected cmds=0/0/0 egress=5fa6d0855e0c4d92",
    "1/1 17 block4 benign: emitted=72 delivered=67 dropped=5 buffered=0 heartbeats=2 connects=1 retries=0 state=connected cmds=0/0/0 egress=353a768e14f8eedf",
    "1/1 17 block4 chaos: emitted=72 delivered=37 dropped=35 buffered=0 heartbeats=1 connects=19 retries=6 state=connected cmds=0/0/0 egress=5fa6d0855e0c4d92",
    "1/1 42 oldest benign: emitted=86 delivered=64 dropped=22 buffered=0 heartbeats=2 connects=1 retries=0 state=connected cmds=0/0/0 egress=ed768945b9517f12",
    "1/1 42 oldest chaos: emitted=86 delivered=39 dropped=47 buffered=0 heartbeats=8 connects=29 retries=7 state=connected cmds=0/0/0 egress=6f5571def213e969",
    "1/1 42 newest benign: emitted=86 delivered=64 dropped=22 buffered=0 heartbeats=2 connects=1 retries=0 state=connected cmds=0/0/0 egress=ca6c5a6ff4a47344",
    "1/1 42 newest chaos: emitted=86 delivered=39 dropped=47 buffered=0 heartbeats=8 connects=29 retries=7 state=connected cmds=0/0/0 egress=7d0a416494bd3d82",
    "1/1 42 block4 benign: emitted=86 delivered=73 dropped=13 buffered=0 heartbeats=2 connects=1 retries=0 state=connected cmds=0/0/0 egress=7b771291f94ca6db",
    "1/1 42 block4 chaos: emitted=86 delivered=39 dropped=47 buffered=0 heartbeats=8 connects=29 retries=7 state=connected cmds=0/0/0 egress=7d0a416494bd3d82",
];

/// The chaos matrix again, against an earlier build instead of against
/// itself: what the bridge delivered, dropped, retried and put on the
/// wire under each fault schedule is part of its contract (the faulty
/// transport keys its schedule on the order of `send` calls, so a bridge
/// that drives its transport differently lands different faults).
#[test]
fn bridge_reports_and_egress_bytes_are_pinned() {
    let mut lines = Vec::new();
    for stride in [16, 1] {
        for seed in SEEDS {
            for (policy, policy_name) in POLICIES.into_iter().zip(["oldest", "newest", "block4"]) {
                for (profile, profile_name) in [
                    (TransportFaultProfile::benign(seed), "benign"),
                    (TransportFaultProfile::chaos(seed), "chaos"),
                ] {
                    let (_, _, report, peer) = bridged_run_sampled(seed, policy, profile, stride);
                    let egress = fnv1a(&peer.take_frames().concat());
                    lines.push(format!(
                        "1/{stride} {seed} {policy_name} {profile_name}: {} egress={egress:016x}",
                        ledger_line(&report)
                    ));
                }
            }
        }
    }
    assert_eq!(lines, PINNED_RUNS, "got:\n{}", lines.join("\n"));
}

/// What a [`ScriptedTransport`] was asked to do, one line per call, and
/// which `send` ordinals (0-based, heartbeats included) it must fail.
#[derive(Default)]
struct Script {
    log: String,
    sends: u64,
    fail_send: Vec<(u64, TransportError)>,
}

/// A transport that implements the four required methods only, logs each
/// call with its outcome, and fails the scripted sends.
struct ScriptedTransport(Rc<RefCell<Script>>);

impl Transport for ScriptedTransport {
    fn connect(&mut self) -> Result<(), TransportError> {
        self.0.borrow_mut().log.push_str("connect\n");
        Ok(())
    }

    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        let mut s = self.0.borrow_mut();
        let ordinal = s.sends;
        s.sends += 1;
        let planned = s.fail_send.iter().find(|(at, _)| *at == ordinal);
        let outcome = planned.map_or(Ok(()), |(_, e)| Err(*e));
        let line = format!("send#{ordinal} {} {outcome:?}\n", frame.len());
        s.log.push_str(&line);
        outcome
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        self.0.borrow_mut().log.push_str("recv\n");
        Ok(None)
    }

    fn close(&mut self) {
        self.0.borrow_mut().log.push_str("close\n");
    }
}

/// Recorded on the build before `Transport::send_batch` existed (PR 19).
/// `send` calls, and FNV-1a of the whole log.
const PINNED_CALL_LOG: (u64, u64) = (21, 0x8482969dca5934fd);

/// A transport that does not override `send_batch` sees one `send` per
/// frame, in ring order, stopping at the first failure — the sequence a
/// decorator's fault schedule is keyed on. The script walks a `Block`
/// overflow flushed inline, a `Busy` in the middle of a pump batch, a
/// `Disconnected` in the middle of the next, the resend after reconnect,
/// and inline flushes that stall and then die.
#[test]
fn a_transport_without_send_batch_sees_the_same_calls() {
    let script = Rc::new(RefCell::new(Script {
        // 3: second frame of the first pump batch. 8: second frame of a
        // later batch. 13: an inline flush stalls once. 15: an inline
        // flush finds the link dead. 19: a heartbeat stalls, and the
        // batch behind it still goes out.
        fail_send: vec![
            (3, TransportError::Busy),
            (8, TransportError::Disconnected),
            (13, TransportError::Busy),
            (15, TransportError::Disconnected),
            (19, TransportError::Busy),
        ],
        ..Script::default()
    }));
    let bridge = Bridge::new(
        BridgeConfig {
            mission: 9,
            ring_capacity: 4,
            overflow: OverflowPolicy::Block { deadline: 3 },
            heartbeat_every: 3,
            batch_per_tick: 3,
            ..BridgeConfig::default()
        },
        Box::new(ScriptedTransport(Rc::clone(&script))),
    );
    let mut sink = bridge.sink();
    let mut seq = 0u64;
    let mut offer = |n: u64| {
        for _ in 0..n {
            // Frame lengths vary with the digits of `seq` and `to`.
            let event = TraceEvent::MsgSent {
                from: seq % 7,
                to: seq * seq * 1_000,
            };
            sink.accept(&TraceRecord {
                t_us: seq * 250,
                seq,
                event,
            });
            seq += 1;
        }
    };
    let mark = |what: &str| {
        let line = format!("-- {what}: {}\n", ledger_line(&bridge.report()));
        script.borrow_mut().log.push_str(&line);
    };

    bridge.pump();
    mark("connected");
    offer(6); // four fill the ring, two are flushed in inline
    mark("offered 6 into a ring of 4");
    bridge.pump(); // one frame out, then Busy
    mark("stalled mid-batch");
    bridge.pump_n(2); // the degraded probe succeeds and the batch follows it
    mark("recovered");
    offer(4);
    bridge.pump(); // one frame out, then Disconnected
    mark("cut mid-batch");
    bridge.pump_n(2); // redial, heartbeat, resend from the ring front
    mark("reconnected");
    offer(6); // refill; inline flushes stall once, then the link dies
    mark("inline flush died");
    offer(1); // reconnecting: no inline flush, dropped at once
    let drained = bridge.drain(50);
    mark("drained");

    let s = script.borrow();
    assert_eq!(drained, Ok(2), "log:\n{}", s.log);
    assert!(bridge.report().accounted());
    assert_eq!(
        (s.sends, fnv1a(s.log.as_bytes())),
        PINNED_CALL_LOG,
        "log:\n{}",
        s.log
    );
}
