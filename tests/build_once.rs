//! Integration: one graph build per runner, and nothing else moves.
//!
//! `MissionRunner::new` and `resume` stand up the execution simulator
//! first and take the reachability filter's answer from a silent look at
//! *its* t=0 graph. The simulator keeps that graph, still owing its
//! `GraphRebuilt`: node changes are patched into it, the first real access
//! announces it and a restore patches it to the restored world. The
//! byte-level pins below were taken on the commit before PR 16, where the
//! filter still built a throw-away probe simulator: checkpoint payloads,
//! the position and payload of the first `GraphRebuilt` record and the
//! order of the prologue's records must not notice which simulator
//! answered, nor that the graph is now held in the same slot as any other.
//! The payload hashes were re-recorded for `FORMAT_VERSION` 6: each payload
//! is its version-5 self with the removed fixed settings (73 bytes) cut.

use iobt::netsim::Jammer;
use iobt::obs::{fnv1a, TraceEvent};
use iobt::prelude::*;

fn config(duration_s: f64, recorder: Recorder) -> RunConfig {
    RunConfig::builder()
        .duration(SimDuration::from_secs_f64(duration_s))
        .window(SimDuration::from_secs_f64(10.0))
        .recorder(recorder)
        .build()
        .expect("valid run config")
}

/// While the graph is held ahead of its first access the snapshot's
/// disposition byte stays `0` ("absent"), exactly as when a separate probe
/// simulator held it: straight after `new`, and through a mission that
/// never routes a message (reports are not due before the mission ends)
/// but loses a node in window 1, which is patched into the graph without
/// announcing it.
#[test]
fn a_primed_graph_is_not_a_cached_graph_in_the_checkpoint() {
    const AFTER_NEW: u64 = 0x5d8d4daa8c71e48b;
    const SILENT: [u64; 4] = [
        0xcc3b8ce13b59efc0,
        0xb908fac6293ce45e,
        0xc316d40036d5c120,
        0xe01dd67de8409f16,
    ];
    let scenario = persistent_surveillance(300, 42);
    let runner = MissionRunner::new(&scenario, &config(30.0, Recorder::disabled()));
    assert_eq!(fnv1a(&runner.save().expect("window 0")), AFTER_NEW);

    let mut silent = persistent_surveillance(120, 42);
    let lost = silent
        .catalog
        .with_affiliation(Affiliation::Blue)
        .iter()
        .map(|n| n.id())
        .find(|&id| id != silent.command_post)
        .expect("a blue asset besides the post");
    silent.disruptions = vec![Disruption::NodeLoss {
        at: SimTime::from_secs_f64(15.0),
        node: lost,
    }];
    let quiet = RunConfig::builder()
        .duration(SimDuration::from_secs_f64(30.0))
        .window(SimDuration::from_secs_f64(10.0))
        .report_period(SimDuration::from_secs_f64(1_000.0))
        .build()
        .expect("valid run config");
    let mut runner = MissionRunner::new(&silent, &quiet);
    let mut hashes = vec![fnv1a(&runner.save().expect("window 0"))];
    while let StepOutcome::WindowClosed { .. } = runner.step_window() {
        hashes.push(fnv1a(&runner.save().expect("window boundary")));
    }
    assert_eq!(runner.finish().digest.sent, 0, "the mission must stay silent");
    assert_eq!(hashes, SILENT);
}

/// The first `GraphRebuilt` of the evacuation trace sits where it sat,
/// says what it said, and the prologue's records keep their order:
/// recruitment, then the solve, then every `FaultScheduled` — although
/// the simulator that records the faults now exists before the solve.
#[test]
fn the_trace_does_not_see_which_simulator_answered_the_filter() {
    let mut scenario = urban_evacuation(250, 42);
    let blue: Vec<NodeId> = scenario
        .catalog
        .with_affiliation(Affiliation::Blue)
        .iter()
        .map(|n| n.id())
        .collect();
    let horizon = SimDuration::from_secs_f64(30.0);
    scenario.fault_plan =
        generate_campaign(42, &blue, &CampaignConfig::light(horizon, scenario.mission.area()));
    let (recorder, ring) = Recorder::memory(1 << 20);
    let mut runner = MissionRunner::new(&scenario, &config(30.0, recorder));
    runner.step_window().window_stat().expect("window 0");
    let records = ring.records();

    let first = records
        .iter()
        .position(|r| matches!(r.event, TraceEvent::GraphRebuilt { .. }))
        .expect("a mission that reports builds its graph");
    assert_eq!(
        (first, records[first].t_us, &records[first].event),
        (10, 131_965, &TraceEvent::GraphRebuilt { nodes: 251, edges: 2215 }),
    );

    let before: Vec<&str> = records[..first].iter().map(|r| r.event.kind()).collect();
    let mut expected = vec!["recruitment", "solve"];
    expected.extend(["fault_scheduled"; 7]);
    expected.push("msg_sent");
    assert_eq!(before, expected);
}

/// One from-scratch build per runner, counted: by the end of the first
/// window after `new`, and of the first window after `resume`, the
/// simulator has built its graph once — the prologue's look included. The
/// reference path keeps no graph ahead and pays twice, as both paths did
/// before; it stays the oracle the equivalence suites compare against.
/// (Windows are shorter than the 1 s mobility step, so the windows counted
/// hold no tick: on the reference path every tick is one more build.)
#[test]
fn a_runner_builds_its_graph_once() {
    let scenario = persistent_surveillance(300, 42);
    for (reference_mode, expected) in [(false, 1), (true, 2)] {
        let cfg = RunConfig::builder()
            .duration(SimDuration::from_secs_f64(2.0))
            .window(SimDuration::from_secs_f64(0.4))
            .report_period(SimDuration::from_secs_f64(0.1))
            .reference_mode(reference_mode)
            .build()
            .expect("valid run config");
        let mut runner = MissionRunner::new(&scenario, &cfg);
        assert_eq!(runner.graph_builds(), 1, "the prologue's look");
        runner.step_window().window_stat().expect("window 0");
        assert_eq!(runner.graph_builds(), expected, "new + window 1 ({reference_mode})");
        runner.step_window().window_stat().expect("window 1");
        runner.step_window().window_stat().expect("window 2, across the tick at 1 s");
        if !reference_mode {
            assert_eq!(runner.graph_builds(), 1, "a tick that moves nothing builds nothing");
        }
        let payload = runner.save().expect("checkpointable");

        let mut resumed = MissionRunner::resume(&scenario, &cfg, &payload).expect("resume");
        resumed.step_window().window_stat().expect("window 3");
        assert_eq!(resumed.graph_builds(), expected, "resume + window 4 ({reference_mode})");
        while let StepOutcome::WindowClosed { .. } = runner.step_window() {}
        while let StepOutcome::WindowClosed { .. } = resumed.step_window() {}
        let (fresh, resumed) = (runner.finish(), resumed.finish());
        assert!(fresh.digest.sent > 0, "the windows counted must route messages");
        assert_eq!(resumed.digest, fresh.digest);
    }
}

/// The jammer-at-t=0 decision. Every committed scenario's jammers start
/// inactive, and an inactive jammer adds nothing to the noise floor, so
/// the execution simulator's t = 0 graph is the jammer-less graph the
/// probe simulator used to build. A scenario whose jammer already
/// radiates at t = 0 now has its recruits judged on the topology the
/// mission actually starts on: the ones it cuts off count as
/// `unreachable` — the same ones fresh and resumed.
#[test]
fn a_jammer_radiating_at_t0_is_seen_by_the_reachability_filter() {
    let clear = persistent_surveillance(150, 42);
    let jammed_with = |active: bool| {
        let mut scenario = clear.clone();
        scenario.jammers = vec![Jammer {
            position: Point::new(600.0, 600.0),
            power_w: 200.0,
            active,
        }];
        scenario
    };
    let cfg = config(30.0, Recorder::disabled());
    let baseline = run_mission(&clear, &cfg);
    let dormant = run_mission(&jammed_with(false), &cfg);
    assert_eq!(dormant.unreachable, baseline.unreachable);
    assert_eq!(dormant.digest, baseline.digest);

    let radiating = jammed_with(true);
    let mut runner = MissionRunner::new(&radiating, &cfg);
    runner.step_window().window_stat().expect("window 0");
    let payload = runner.save().expect("checkpointable");
    let resumed = MissionRunner::resume(&radiating, &cfg, &payload).expect("resume");
    let (fresh, resumed) = (runner.finish(), resumed.finish());
    assert!(
        fresh.unreachable > baseline.unreachable,
        "the jammer must cut recruits off: {} vs {}",
        fresh.unreachable,
        baseline.unreachable
    );
    assert_eq!(fresh.recruited, baseline.recruited);
    assert_eq!(resumed.unreachable, fresh.unreachable);
    assert_eq!(resumed.composition, fresh.composition);
}
