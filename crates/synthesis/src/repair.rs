//! Incremental re-synthesis: repairing a composition after losses.
//!
//! §III: "it should be possible to assemble (or re-assemble, for example,
//! upon damage) composite assets … on demand and within an appropriately
//! short time", and discovery/composition "will need to be robust to
//! failure or removal of assets as a normal operating regime." Instead of
//! re-solving from scratch, [`repair`] keeps the surviving selection and
//! re-covers only the pairs that dropped below redundancy — typically
//! orders of magnitude cheaper than full re-synthesis (measured in
//! experiment `f2_synthesis_scale`).

use std::collections::BTreeSet;
use std::time::Instant;

use iobt_types::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::problem::CompositionProblem;
use crate::solvers::{greedy_extend, CompositionResult, SolveStats, Solver};

/// Outcome of a repair pass. Selection-determined only — wall-clock
/// timing lives in the separate channel of [`repair_with_timed`].
#[derive(Debug, Clone, PartialEq)]
pub struct RepairResult {
    /// The repaired selection (survivors + replacements), sorted.
    pub selected: Vec<usize>,
    /// Replacement candidates added.
    pub added: Vec<usize>,
    /// Coverage fraction after repair.
    pub coverage: f64,
    /// Whether the requirement is met again.
    pub satisfied: bool,
}

/// Repairs `previous` after the nodes in `failed` (by id) are lost, using
/// the default greedy strategy. Equivalent to
/// [`repair_with`]`(…, `[`Solver::Greedy`]`)`.
pub fn repair(
    problem: &CompositionProblem,
    previous: &CompositionResult,
    failed: &BTreeSet<NodeId>,
) -> RepairResult {
    repair_with(problem, previous, failed, Solver::Greedy)
}

/// Repairs `previous` after the nodes in `failed` (by id) are lost.
///
/// Keeps every surviving selected candidate, then extends the selection
/// with unused, non-failed candidates according to `solver`:
///
/// - [`Solver::Greedy`], [`Solver::Anneal`], [`Solver::Exhaustive`], and
///   [`Solver::Portfolio`] all extend lazily by marginal-gain-per-cost
///   (the repair pool is small, so the CELF extension is the right tool
///   regardless of how the original composition was produced);
/// - [`Solver::Random`] extends with uniformly random eligible candidates
///   — the matching baseline for repair experiments.
pub fn repair_with(
    problem: &CompositionProblem,
    previous: &CompositionResult,
    failed: &BTreeSet<NodeId>,
    solver: Solver,
) -> RepairResult {
    let survivors: Vec<usize> = previous
        .selected
        .iter()
        .copied()
        .filter(|&i| !failed.contains(&problem.candidates[i].id))
        .collect();
    let mut counter = problem.counter_for(&survivors);
    let mut in_set: Vec<bool> = vec![false; problem.candidates.len()];
    for &i in &survivors {
        in_set[i] = true;
    }
    let eligible = |i: usize| !in_set[i] && !failed.contains(&problem.candidates[i].id);
    let added = match solver {
        Solver::Random { seed } => {
            let needed = problem.pairs_needed();
            let pool: Vec<usize> = (0..problem.candidates.len()).filter(|&i| eligible(i)).collect();
            let mut order = pool;
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut added = Vec::new();
            for i in order {
                if counter.satisfied() >= needed {
                    break;
                }
                counter.add(&problem.candidates[i].covers);
                added.push(i);
            }
            added
        }
        _ => greedy_extend(problem, &mut counter, eligible, &mut SolveStats::default()),
    };
    let mut selected = survivors;
    selected.extend_from_slice(&added);
    selected.sort_unstable();
    let coverage = problem.coverage_fraction(&selected);
    RepairResult {
        satisfied: coverage + 1e-12 >= problem.required_fraction,
        selected,
        added,
        coverage,
    }
}

/// [`repair_with`] plus a wall-clock timing channel in milliseconds —
/// the reporting companion benches and the runtime's `WallClockReport`
/// use. The timing can never influence the repair itself.
pub fn repair_with_timed(
    problem: &CompositionProblem,
    previous: &CompositionResult,
    failed: &BTreeSet<NodeId>,
    solver: Solver,
) -> (RepairResult, f64) {
    #[expect(clippy::disallowed_methods, reason = "reporting only: the timing channel never influences the repair")]
    let start = Instant::now();
    let result = repair_with(problem, previous, failed, solver);
    (result, start.elapsed().as_secs_f64() * 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::Solver;
    use iobt_types::{
        Affiliation, EnergyBudget, Mission, MissionId, MissionKind, NodeSpec, Point, Rect, Sensor,
        SensorKind,
    };

    fn node_at(id: u64, x: f64, y: f64, range: f64) -> NodeSpec {
        NodeSpec::builder(NodeId::new(id))
            .affiliation(Affiliation::Blue)
            .position(Point::new(x, y))
            .sensor(Sensor::new(SensorKind::Visual, range, 0.9))
            .energy(EnergyBudget::unlimited())
            .build()
    }

    fn problem() -> CompositionProblem {
        let m = Mission::builder(MissionId::new(1), MissionKind::Surveillance)
            .area(Rect::square(200.0))
            .require_modality(SensorKind::Visual)
            .coverage_fraction(1.0)
            .build();
        // Two redundant central nodes plus corner spares.
        let nodes = vec![
            node_at(0, 100.0, 100.0, 180.0),
            node_at(1, 100.0, 100.0, 180.0),
            node_at(2, 50.0, 50.0, 180.0),
            node_at(3, 150.0, 150.0, 180.0),
        ];
        CompositionProblem::from_mission(&m, &nodes, 3)
    }

    #[test]
    fn no_failures_is_a_noop() {
        let p = problem();
        let base = Solver::Greedy.solve(&p);
        let r = repair(&p, &base, &BTreeSet::new());
        assert_eq!(r.selected, base.selected);
        assert!(r.added.is_empty());
        assert!(r.satisfied);
    }

    #[test]
    fn repair_replaces_a_failed_coverer() {
        let p = problem();
        let base = Solver::Greedy.solve(&p);
        assert!(base.satisfied);
        // Fail every selected node.
        let failed: BTreeSet<NodeId> = base
            .selected
            .iter()
            .map(|&i| p.candidates[i].id)
            .collect();
        let r = repair(&p, &base, &failed);
        assert!(r.satisfied, "spares should restore coverage");
        assert!(!r.added.is_empty());
        for &i in &r.selected {
            assert!(!failed.contains(&p.candidates[i].id));
        }
    }

    #[test]
    fn unrepairable_losses_are_reported() {
        let p = problem();
        let base = Solver::Greedy.solve(&p);
        // Fail everything.
        let failed: BTreeSet<NodeId> = p.candidates.iter().map(|c| c.id).collect();
        let r = repair(&p, &base, &failed);
        assert!(!r.satisfied);
        assert!(r.selected.is_empty());
        assert_eq!(r.coverage, 0.0);
    }

    #[test]
    fn repair_keeps_survivors() {
        let p = problem();
        let base = Solver::Greedy.solve(&p);
        let first_id = p.candidates[base.selected[0]].id;
        let mut failed = BTreeSet::new();
        // Fail a node that is NOT selected — nothing should change.
        for c in &p.candidates {
            if !base.selected.iter().any(|&i| p.candidates[i].id == c.id) {
                failed.insert(c.id);
                break;
            }
        }
        let r = repair(&p, &base, &failed);
        assert!(r.selected.iter().any(|&i| p.candidates[i].id == first_id));
        assert!(r.satisfied);
    }

    #[test]
    fn random_repair_restores_coverage_with_more_nodes() {
        let p = problem();
        let base = Solver::Greedy.solve(&p);
        let failed: BTreeSet<NodeId> = base.selected.iter().map(|&i| p.candidates[i].id).collect();
        let greedy_fix = repair_with(&p, &base, &failed, Solver::Greedy);
        let random_fix = repair_with(&p, &base, &failed, Solver::Random { seed: 3 });
        assert!(random_fix.satisfied);
        assert!(random_fix.added.len() >= greedy_fix.added.len());
        for &i in &random_fix.selected {
            assert!(!failed.contains(&p.candidates[i].id));
        }
    }

    #[test]
    fn repair_with_is_deterministic() {
        let p = problem();
        let base = Solver::Greedy.solve(&p);
        let failed: BTreeSet<NodeId> = [p.candidates[base.selected[0]].id].into_iter().collect();
        for solver in [Solver::Greedy, Solver::Random { seed: 1 }] {
            let a = repair_with(&p, &base, &failed, solver);
            let b = repair_with(&p, &base, &failed, solver);
            assert_eq!(a.selected, b.selected);
            assert_eq!(a.added, b.added);
        }
    }
}
