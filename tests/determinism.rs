//! Integration: every public entry point is reproducible given the same
//! seeds — the property all experiment harnesses rely on.

use iobt::prelude::*;
use iobt::types::catalog::PopulationBuilder;

#[test]
fn populations_are_reproducible() {
    let b = PopulationBuilder::new(Rect::square(1_000.0)).count(300);
    assert_eq!(b.build(5), b.build(5));
}

#[test]
fn scenarios_are_reproducible() {
    for (a, b) in [
        (urban_evacuation(100, 3), urban_evacuation(100, 3)),
        (
            persistent_surveillance(100, 3),
            persistent_surveillance(100, 3),
        ),
        (disaster_relief(100, 3), disaster_relief(100, 3)),
    ] {
        assert_eq!(a.catalog, b.catalog);
        assert_eq!(a.mission, b.mission);
        assert_eq!(a.disruptions, b.disruptions);
    }
}

#[test]
fn missions_are_reproducible() {
    let scenario = urban_evacuation(120, 21);
    let cfg = RunConfig::builder()
        .duration(SimDuration::from_secs_f64(50.0))
        .build().expect("valid run config");
    let a = run_mission(&scenario, &cfg);
    let b = run_mission(&scenario, &cfg);
    assert_eq!(a.windows, b.windows);
    assert_eq!(a.repairs, b.repairs);
    assert_eq!(a.composition.selected, b.composition.selected);
    assert_eq!(
        a.assurance.success_probability,
        b.assurance.success_probability
    );
}

/// The f1 evacuation vignette run twice with the same seed must agree on
/// its *entire* end state — every event counter, every node's remaining
/// energy (bit-identical `f64`s), the utility trace, and the final
/// selection — not just the summary statistics the weaker test above
/// compares. This is the property that makes experiment results
/// replayable, and it is exactly what hash-ordered iteration or
/// wall-clock-driven budgets would silently break.
#[test]
fn f1_end_state_digest_is_identical_across_runs() {
    let scenario = urban_evacuation(120, 21);
    let cfg = RunConfig::builder()
        .duration(SimDuration::from_secs_f64(50.0))
        .build().expect("valid run config");
    let a = run_mission(&scenario, &cfg);
    let b = run_mission(&scenario, &cfg);

    // Digest is a plain PartialEq over every field; a single diverging
    // event count or energy bit fails the run.
    assert_eq!(a.digest, b.digest, "end-state digests must match exactly");

    // Sanity: the digest actually captured a non-trivial run.
    assert!(a.digest.sent > 0, "messages flowed");
    assert!(a.digest.delivered > 0, "messages arrived");
    assert_eq!(
        a.digest.node_energy_j.len(),
        scenario.catalog.len(),
        "every node's energy is fingerprinted"
    );
    assert!(
        a.digest.node_energy_j.windows(2).all(|w| w[0].0 < w[1].0),
        "energy entries are sorted by node id"
    );
    assert!(a.digest.mean_utility > 0.0);
    assert!(!a.digest.final_selection.is_empty());
    assert!(a.digest.energy_spent_j > 0.0);
}

#[test]
fn truth_discovery_is_reproducible() {
    let s = ScenarioBuilder::new(30, 80).build(4);
    let run = || {
        discover(&s.reports, s.num_sources, s.num_claims, EmConfig::default()).claim_posterior
    };
    assert_eq!(run(), run());
}

#[test]
fn federated_training_is_reproducible() {
    let d = logistic_dataset(600, 4, 5.0, 6);
    let (train, test) = d.examples.split_at(500);
    let ds = Dataset {
        examples: train.to_vec(),
        dim: 4,
        true_weights: d.true_weights.clone(),
    };
    let shards = partition(&ds, 6, 0.5, 7);
    let cfg = FederatedConfig {
        attack: Some(ByzantineAttack::GaussianNoise { std: 3.0 }),
        num_attackers: 2,
        aggregator: Aggregator::Median,
        rounds: 15,
        ..FederatedConfig::default()
    };
    let a = train_federated(4, &shards, test, &cfg);
    let b = train_federated(4, &shards, test, &cfg);
    assert_eq!(a.accuracy_per_round, b.accuracy_per_round);
}

#[test]
fn indexed_problem_construction_matches_scan_reference() {
    use iobt::synthesis::CompositionProblem;
    use iobt::types::prelude::*;

    // A 24×24 grid with two modalities is 1,152 pairs (18 bitset words);
    // a zero-width area yields coincident columns, which is not a lattice
    // and takes the index's scan layout.
    let area = Rect::square(2_000.0);
    let strip = Rect::new(Point::new(1_000.0, 0.0), Point::new(1_000.0, 2_000.0));
    for seed in 0..8u64 {
        let catalog = PopulationBuilder::new(area).count(400).build(seed);
        let specs: Vec<NodeSpec> = catalog.iter().cloned().collect();
        for (mission_area, grids) in [(area, &[1usize, 7, 12, 24][..]), (strip, &[7][..])] {
            let mission = Mission::builder(MissionId::new(1), MissionKind::Surveillance)
                .area(mission_area)
                .require_modality(SensorKind::Visual)
                .require_modality(SensorKind::Acoustic)
                .coverage_fraction(0.9)
                .resilience(2)
                .min_trust(0.3)
                .build();
            for &grid in grids {
                let indexed = CompositionProblem::from_mission(&mission, &specs, grid);
                assert!(
                    indexed.candidates.iter().any(|c| !c.covers.is_empty()),
                    "the instance must cover something (seed {seed}, grid {grid})"
                );
                assert_eq!(
                    indexed,
                    CompositionProblem::from_mission_scan(&mission, &specs, grid),
                    "indexed and scan construction must agree \
                     (seed {seed}, area {mission_area:?}, grid {grid})"
                );
            }
        }
    }
}

#[test]
fn portfolio_solver_is_reproducible() {
    use iobt::synthesis::{CompositionProblem, Solver};
    use iobt::types::prelude::*;

    let area = Rect::square(1_500.0);
    let catalog = PopulationBuilder::new(area).count(250).build(17);
    let specs: Vec<NodeSpec> = catalog.iter().cloned().collect();
    let mission = Mission::builder(MissionId::new(2), MissionKind::Surveillance)
        .area(area)
        .require_modality(SensorKind::Visual)
        .coverage_fraction(0.85)
        .min_trust(0.3)
        .build();
    let problem = CompositionProblem::from_mission(&mission, &specs, 10);
    let solver = Solver::Portfolio {
        iterations: 1_000,
        seed: 42,
    };
    let a = solver.solve(&problem);
    let b = solver.solve(&problem);
    // Same selection, cost, and coverage regardless of which portfolio
    // thread finished first.
    assert_eq!(a.selected, b.selected);
    assert_eq!(a.cost, b.cost);
    assert_eq!(a.coverage, b.coverage);
    assert_eq!(a.satisfied, b.satisfied);
}

#[test]
fn different_seeds_actually_differ() {
    let a = PopulationBuilder::new(Rect::square(1_000.0)).count(100).build(1);
    let b = PopulationBuilder::new(Rect::square(1_000.0)).count(100).build(2);
    assert_ne!(a, b, "seeding must matter");
}
