//! Command by intent, end to end (paper §I, §IV-A, §VI): a commander
//! issues weighted objectives; autonomous agents self-organize through a
//! potential game; two concurrent missions compete for one asset pool; and
//! actuation stays behind the human-authority and occupancy interlocks.
//!
//! ```sh
//! cargo run --release --example command_intent
//! ```

use iobt::prelude::*;

fn main() {
    // 1. Intent decomposition: three objectives with weights 6/3/1; forty
    //    autonomous agents pick tasks selfishly and converge to a Nash
    //    staffing with no explicit coordination.
    println!("-- intent decomposition (potential game) --");
    let game = IntentGame::new(vec![6.0, 3.0, 1.0]);
    let eq = game.best_response(40, 1);
    println!(
        "40 agents converged in {} sweeps ({} moves); staffing per objective: {:?} (weights 6/3/1)",
        eq.sweeps,
        eq.moves,
        eq.task_loads(3)
    );
    assert!(game.is_nash(&eq.assignment));

    // 2. Two missions, one pool: the critical evacuation outranks routine
    //    surveillance for contested sensors.
    println!("\n-- multi-mission asset arbitration --");
    let pool = persistent_surveillance(300, 5).catalog;
    let specs: Vec<NodeSpec> = pool.iter().cloned().collect();
    let evacuation = Mission::builder(MissionId::new(1), MissionKind::Evacuation)
        .area(Rect::new(Point::new(0.0, 0.0), Point::new(1_500.0, 1_500.0)))
        .priority(Priority::Critical)
        .coverage_fraction(0.8)
        .min_trust(0.3)
        .build();
    let surveillance = Mission::builder(MissionId::new(2), MissionKind::Surveillance)
        .area(Rect::new(Point::new(500.0, 500.0), Point::new(2_500.0, 2_500.0)))
        .coverage_fraction(0.8)
        .min_trust(0.3)
        .build();
    let plan = allocate_missions(&specs, &[surveillance, evacuation], 6, Solver::Greedy);
    for a in &plan.allocations {
        println!(
            "  {} [{}]: {} assets, coverage {:.0}% (standalone would be {:.0}%)",
            a.mission.kind(),
            a.mission.priority(),
            a.granted.len(),
            a.composition.coverage * 100.0,
            a.standalone_coverage * 100.0
        );
    }
    println!(
        "  spare assets: {}, total contention cost: {:.3}",
        plan.spare,
        plan.contention_cost()
    );

    // 3. Safety: a demolition request near a damaged building — §VI's
    //    example — stays behind the human-authority and occupancy gates.
    println!("\n-- actuation interlocks (§VI) --");
    let (recorder, trace) = Recorder::memory(64);
    let mut safety = ActuationController::new(0.3, 60.0).with_recorder(recorder);
    let robot = NodeId::new(42);
    let show = |d: ActuationDecision| match d {
        ActuationDecision::Approved => "APPROVED",
        ActuationDecision::WithheldOccupied => "WITHHELD (zone occupied)",
        ActuationDecision::DeniedNoAuthorization => "DENIED (no human authorization)",
    };
    let d = safety.request(robot, ActuatorKind::Demolition, 1, 10.0);
    println!("  t=10s  demolition, no authorization : {}", show(d));
    safety.grant(HumanAuthorization {
        actuator: ActuatorKind::Demolition,
        zone: 1,
        expires_at_s: 600.0,
    });
    safety.report_occupancy(1, 0.9, 20.0); // occupancy sensor trips
    let d = safety.request(robot, ActuatorKind::Demolition, 1, 25.0);
    println!("  t=25s  authorized but zone occupied : {}", show(d));
    let d = safety.request(robot, ActuatorKind::Demolition, 1, 300.0);
    println!("  t=300s occupancy decayed            : {}", show(d));
    // The trace is the audit log: who asked, for what, where, when, and
    // what the interlocks decided.
    println!("  audit log:");
    for record in trace.records() {
        if let TraceEvent::Actuation { requester, zone, decision, .. } = record.event {
            let t_s = record.t_us / 1_000_000;
            println!("    t={t_s}s node {requester} zone {zone}: {decision}");
        }
    }
}
