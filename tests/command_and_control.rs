//! Integration: command-by-intent facilities working over real scenario
//! populations — multi-mission arbitration, intent games, human trust
//! calibration, and safety interlocks.

use iobt::prelude::*;

#[test]
fn critical_mission_outranks_normal_on_a_real_population() {
    let catalog = persistent_surveillance(300, 8).catalog;
    let specs: Vec<NodeSpec> = catalog.iter().cloned().collect();
    let shared_area = Rect::new(Point::new(0.0, 0.0), Point::new(2_000.0, 2_000.0));
    let critical = Mission::builder(MissionId::new(1), MissionKind::Evacuation)
        .area(shared_area)
        .priority(Priority::Critical)
        .coverage_fraction(0.7)
        .min_trust(0.3)
        .build();
    let normal = Mission::builder(MissionId::new(2), MissionKind::Surveillance)
        .area(shared_area)
        .coverage_fraction(0.7)
        .min_trust(0.3)
        .build();
    let plan = allocate_missions(&specs, &[normal.clone(), critical.clone()], 6, Solver::Greedy);
    assert_eq!(plan.allocations[0].mission.id(), critical.id());
    // The first-served mission never pays a contention cost.
    let first = &plan.allocations[0];
    assert!((first.standalone_coverage - first.composition.coverage).abs() < 1e-9);
    // No asset serves two missions.
    let mut all: Vec<NodeId> = plan
        .allocations
        .iter()
        .flat_map(|a| a.granted.clone())
        .collect();
    let before = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), before);
}

#[test]
fn intent_game_staffing_respects_weights_at_scale() {
    let game = IntentGame::new(vec![8.0, 4.0, 2.0, 1.0]);
    let eq = game.best_response(600, 3);
    assert!(eq.converged && game.is_nash(&eq.assignment));
    let loads = eq.task_loads(4);
    // Loads ordered like the weights.
    assert!(loads[0] > loads[1] && loads[1] > loads[2] && loads[2] > loads[3]);
}

#[test]
fn human_reports_recalibrate_trust_then_gate_recruitment_end_to_end() {
    // Gray humans file claims; truth discovery estimates their accuracy;
    // liars' trust drops below the recruitment floor.
    let s = ScenarioBuilder::new(25, 150)
        .observe_prob(0.6)
        .adversarial_fraction(0.3)
        .build(13);
    let est = discover(&s.reports, s.num_sources, s.num_claims, EmConfig::default());
    let ids: Vec<NodeId> = (0..25).map(|i| NodeId::new(500 + i as u64)).collect();
    let mut ledger = TrustLedger::new();
    for &id in &ids {
        ledger.enroll(id, Affiliation::Gray);
    }
    calibrate_human_trust(&mut ledger, &est, &s.reports, &ids);
    let floor = 0.4; // default RecruitPolicy::min_trust
    let mut liars_blocked = 0;
    let mut liars = 0;
    for (i, &id) in ids.iter().enumerate() {
        if s.adversarial[i] {
            liars += 1;
            if ledger.score(id).unwrap().value() < floor {
                liars_blocked += 1;
            }
        }
    }
    assert!(liars > 0);
    assert!(
        liars_blocked as f64 / liars as f64 > 0.8,
        "most liars fall below the recruitment floor: {liars_blocked}/{liars}"
    );
}

#[test]
fn safety_gate_blocks_unauthorized_demolition_in_a_scenario() {
    let scenario = disaster_relief(100, 4);
    let mut gate = ActuationController::new(0.3, 60.0);
    let robot = scenario.catalog.ids()[0];
    // Nobody authorized demolition: denied.
    assert_eq!(
        gate.request(robot, ActuatorKind::Demolition, 0, 0.0),
        ActuationDecision::DeniedNoAuthorization
    );
    // Command post authorizes, but an occupancy sensor trips first.
    gate.grant(HumanAuthorization {
        actuator: ActuatorKind::Demolition,
        zone: 0,
        expires_at_s: 1_000.0,
    });
    gate.report_occupancy(0, 0.95, 5.0);
    assert_eq!(
        gate.request(robot, ActuatorKind::Demolition, 0, 6.0),
        ActuationDecision::WithheldOccupied
    );
    // Markers never needed authorization at all.
    assert_eq!(
        gate.request(robot, ActuatorKind::Marker, 1, 6.0),
        ActuationDecision::Approved
    );
}

#[test]
fn diagnostics_bridge_works_on_a_scenario_mesh() {
    let scenario = persistent_surveillance(120, 6);
    let mut sim = Simulator::builder(scenario.catalog.clone())
        .terrain(scenario.terrain.clone())
        .seed(scenario.seed)
        .build();
    let graph = sim.connectivity();
    // Model the blue force's mesh.
    let blue: Vec<NodeId> = scenario
        .catalog
        .with_affiliation(Affiliation::Blue)
        .iter()
        .map(|n| n.id())
        .collect();
    let Some(model) = NetworkModel::from_connectivity(&graph, &blue) else {
        panic!("blue mesh should have links");
    };
    assert!(model.topology.edge_count() > 0);
    // Diagnose with every blue node as a monitor and no failures: the
    // report must be clean.
    let report = diagnose_failures(&model, &blue, &[]).unwrap();
    assert!(report.suspected_nodes.is_empty());
    assert_eq!(report.link_precision, 1.0);
}
