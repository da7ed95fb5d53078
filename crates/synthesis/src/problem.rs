//! The composition problem: from mission requirements and candidate
//! assets to a covering-selection instance.
//!
//! §III-B reduces "reasoning from goals to means" to concrete needs: which
//! sensing modalities must cover which cells of the mission area, with what
//! redundancy, drawing only on sufficiently trusted assets. We discretize
//! the mission area into a grid; a *coverage pair* is one (cell, modality)
//! combination. A candidate covers a pair when it carries a matching
//! sensor whose range reaches the cell center. The solvers in
//! [`crate::solvers`] then pick candidate subsets that cover enough pairs
//! `k` times over at minimum cost.

use iobt_types::{Mission, NodeId, NodeSpec, Point, SensorKind};

use crate::coverage::{CoverageCounter, CoverageSet};
use crate::index::CellIndex;

/// A recruitable asset as the solver sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Node identity.
    pub id: NodeId,
    /// Position at composition time.
    pub position: Point,
    /// Trust score in `[0, 1]`.
    pub trust: f64,
    /// Selection cost (see [`candidate_cost`]).
    pub cost: f64,
    /// Coverage pairs this candidate covers, as a packed bitset.
    pub covers: CoverageSet,
}

/// Relative cost of selecting a node: every node costs 1, gray and
/// battery-limited assets cost more (prefer durable blue infrastructure),
/// mirroring the "fewest/cheapest assets" objectives of §III-B.
pub fn candidate_cost(spec: &NodeSpec) -> f64 {
    let mut cost = 1.0;
    if !spec.affiliation().is_friendly() {
        cost += 0.5;
    }
    if spec.energy().capacity_j().is_finite() {
        cost += 0.25;
    }
    if spec.is_human() {
        cost += 0.25;
    }
    cost
}

/// A fully-specified composition instance.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositionProblem {
    /// Candidates that passed the trust gate.
    pub candidates: Vec<Candidate>,
    /// Total number of coverage pairs (`cells × modalities`; pair
    /// `cell · modalities + modality`).
    pub pair_count: usize,
    /// Required redundancy `k` per pair.
    pub redundancy: usize,
    /// Fraction of pairs that must reach redundancy `k` for success.
    pub required_fraction: f64,
}

impl CompositionProblem {
    /// Builds the instance from a mission and candidate specs, using a
    /// `grid x grid` discretization of the mission area.
    ///
    /// Candidates below the mission's trust floor are dropped here, so the
    /// solvers never see them. Cell lookups go through a [`CellIndex`], so
    /// each candidate pays only for the cells its sensors can reach rather
    /// than a full scan of the grid.
    ///
    /// # Panics
    ///
    /// Panics when `grid == 0`.
    pub fn from_mission(mission: &Mission, specs: &[NodeSpec], grid: usize) -> Self {
        let (cell_centers, modalities, pair_count) = Self::layout(mission, grid);
        let index = CellIndex::build(&cell_centers);
        let stride = modalities.len();
        let mut candidates = Vec::with_capacity(specs.len());
        // Best range per required modality for the current spec; a single
        // pass over the node's sensors replaces one filtered max-scan per
        // modality (`best_sensor` semantics: max range wins, and a missing
        // modality contributes nothing).
        let mut ranges = vec![f64::NEG_INFINITY; stride];
        for s in specs {
            let trust = s.trust().value();
            if trust < mission.min_trust() {
                continue;
            }
            ranges.fill(f64::NEG_INFINITY);
            for sensor in s.capabilities().sensors() {
                if let Some(mi) = modalities.iter().position(|&m| m == sensor.kind()) {
                    if sensor.range_m() > ranges[mi] {
                        ranges[mi] = sensor.range_m();
                    }
                }
            }
            // One union-disc sweep covers all modalities at once (the
            // NEG_INFINITY sentinel entries never hit); each reported cell
            // run lands as strided word masks in the backing bitset, so
            // interior cells cost neither a distance test nor a per-bit
            // insert.
            let mut covers = CoverageSet::with_capacity(pair_count);
            let words = covers.words_mut();
            index.for_each_covered_run(&cell_centers, s.position(), &ranges, |cs, ce, mi| {
                crate::coverage::set_strided_run(
                    words,
                    cs * stride as u32 + mi as u32,
                    ce - cs,
                    stride as u32,
                );
            });
            candidates.push(Candidate {
                id: s.id(),
                position: s.position(),
                trust,
                cost: candidate_cost(s),
                covers,
            });
        }
        CompositionProblem {
            candidates,
            pair_count,
            redundancy: mission.resilience(),
            required_fraction: mission.coverage_fraction(),
        }
    }

    /// Brute-force construction checking every cell center per candidate.
    ///
    /// This is the pre-index implementation kept verbatim — including its
    /// per-candidate `Vec<u32>` accumulation and sort, with only a final
    /// conversion into the packed [`CoverageSet`] representation —
    /// so equivalence tests can assert the indexed path builds the exact
    /// same instance and the `synthesis_kernels` / `f2_synthesis_scale`
    /// benchmarks measure the real before/after construction cost.
    #[doc(hidden)]
    pub fn from_mission_scan(mission: &Mission, specs: &[NodeSpec], grid: usize) -> Self {
        let (cell_centers, modalities, pair_count) = Self::layout(mission, grid);
        let candidates = specs
            .iter()
            .filter(|s| s.trust().value() >= mission.min_trust())
            .map(|s| {
                let mut covers = Vec::new();
                for (mi, &modality) in modalities.iter().enumerate() {
                    let Some(sensor) = s.capabilities().best_sensor(modality) else {
                        continue;
                    };
                    let range_sq = sensor.range_m() * sensor.range_m();
                    for (ci, center) in cell_centers.iter().enumerate() {
                        if s.position().distance_sq_to(*center) <= range_sq {
                            covers.push((ci * modalities.len() + mi) as u32);
                        }
                    }
                }
                covers.sort_unstable();
                Candidate {
                    id: s.id(),
                    position: s.position(),
                    trust: s.trust().value(),
                    cost: candidate_cost(s),
                    covers: CoverageSet::from_indices(pair_count, covers),
                }
            })
            .collect();
        CompositionProblem {
            candidates,
            pair_count,
            redundancy: mission.resilience(),
            required_fraction: mission.coverage_fraction(),
        }
    }

    fn layout(mission: &Mission, grid: usize) -> (Vec<Point>, Vec<SensorKind>, usize) {
        assert!(grid > 0, "grid must be nonzero");
        let cells = mission.area().grid(grid, grid);
        let cell_centers: Vec<Point> = cells.iter().map(|c| c.center()).collect();
        let modalities = mission.required_modalities();
        let pair_count = cell_centers.len() * modalities.len();
        (cell_centers, modalities, pair_count)
    }

    /// Number of pairs at redundancy ≥ `k` under a selection (indices into
    /// `candidates`).
    pub fn pairs_satisfied(&self, selection: &[usize]) -> usize {
        self.counter_for(selection).satisfied()
    }

    /// Builds an incremental redundancy counter pre-loaded with a
    /// selection — the entry point the solvers share.
    pub fn counter_for(&self, selection: &[usize]) -> CoverageCounter {
        let mut counter = CoverageCounter::new(self.pair_count, self.redundancy);
        for &i in selection {
            counter.add(&self.candidates[i].covers);
        }
        counter
    }

    /// Number of satisfied pairs needed to meet the mission requirement.
    pub fn pairs_needed(&self) -> usize {
        ((self.required_fraction * self.pair_count as f64).ceil() as usize).min(self.pair_count)
    }

    /// Fraction of pairs at redundancy ≥ `k` under a selection.
    pub fn coverage_fraction(&self, selection: &[usize]) -> f64 {
        if self.pair_count == 0 {
            return 1.0;
        }
        self.pairs_satisfied(selection) as f64 / self.pair_count as f64
    }

    /// Total cost of a selection.
    pub fn cost(&self, selection: &[usize]) -> f64 {
        selection.iter().map(|&i| self.candidates[i].cost).sum()
    }

    /// Whether a selection meets the mission requirement.
    pub fn is_satisfied(&self, selection: &[usize]) -> bool {
        self.coverage_fraction(selection) + 1e-12 >= self.required_fraction
    }

    /// The best achievable coverage fraction using *all* candidates —
    /// an upper bound telling solvers whether the requirement is feasible
    /// at all.
    pub fn max_achievable_fraction(&self) -> f64 {
        let all: Vec<usize> = (0..self.candidates.len()).collect();
        self.coverage_fraction(&all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iobt_types::{Affiliation, EnergyBudget, MissionId, MissionKind, Rect, Sensor, TrustScore};

    fn sensing_node(id: u64, x: f64, y: f64, kind: SensorKind, range: f64) -> NodeSpec {
        NodeSpec::builder(NodeId::new(id))
            .affiliation(Affiliation::Blue)
            .position(Point::new(x, y))
            .sensor(Sensor::new(kind, range, 0.9))
            .energy(EnergyBudget::unlimited())
            .build()
    }

    fn mission() -> Mission {
        Mission::builder(MissionId::new(1), MissionKind::Surveillance)
            .area(Rect::square(100.0))
            .require_modality(SensorKind::Visual)
            .coverage_fraction(1.0)
            .resilience(1)
            .min_trust(0.5)
            .build()
    }

    #[test]
    fn central_long_range_node_covers_everything() {
        let node = sensing_node(1, 50.0, 50.0, SensorKind::Visual, 200.0);
        let p = CompositionProblem::from_mission(&mission(), &[node], 4);
        assert_eq!(p.pair_count, 16);
        assert_eq!(p.candidates.len(), 1);
        assert_eq!(p.candidates[0].covers.len(), 16);
        assert!(p.is_satisfied(&[0]));
        assert_eq!(p.coverage_fraction(&[0]), 1.0);
    }

    #[test]
    fn short_range_node_covers_its_corner_only() {
        let node = sensing_node(1, 10.0, 10.0, SensorKind::Visual, 20.0);
        let p = CompositionProblem::from_mission(&mission(), &[node], 4);
        let covered = p.candidates[0].covers.len();
        assert!((1..16).contains(&covered), "partial coverage: {covered}");
        assert!(!p.is_satisfied(&[0]));
    }

    #[test]
    fn wrong_modality_covers_nothing() {
        let node = sensing_node(1, 50.0, 50.0, SensorKind::Seismic, 500.0);
        let p = CompositionProblem::from_mission(&mission(), &[node], 4);
        assert!(p.candidates[0].covers.is_empty());
    }

    #[test]
    fn untrusted_candidates_are_dropped() {
        let node = sensing_node(1, 50.0, 50.0, SensorKind::Visual, 200.0)
            .with_trust(TrustScore::new(0.1));
        let p = CompositionProblem::from_mission(&mission(), &[node], 4);
        assert!(p.candidates.is_empty());
        assert_eq!(p.max_achievable_fraction(), 0.0);
    }

    #[test]
    fn redundancy_requires_k_distinct_coverers() {
        let m = Mission::builder(MissionId::new(2), MissionKind::Surveillance)
            .area(Rect::square(100.0))
            .require_modality(SensorKind::Visual)
            .coverage_fraction(1.0)
            .resilience(2)
            .build();
        let a = sensing_node(1, 50.0, 50.0, SensorKind::Visual, 200.0);
        let b = sensing_node(2, 50.0, 50.0, SensorKind::Visual, 200.0);
        let p = CompositionProblem::from_mission(&m, &[a, b], 3);
        assert!(!p.is_satisfied(&[0]), "one node cannot give k=2");
        assert!(p.is_satisfied(&[0, 1]));
    }

    #[test]
    fn costs_prefer_blue_unlimited_nonhuman() {
        let blue = sensing_node(1, 0.0, 0.0, SensorKind::Visual, 10.0);
        assert_eq!(candidate_cost(&blue), 1.0);
        let gray = NodeSpec::builder(NodeId::new(2))
            .affiliation(Affiliation::Gray)
            .energy(EnergyBudget::new(100.0))
            .human(true)
            .build();
        assert_eq!(candidate_cost(&gray), 2.0);
    }

    #[test]
    fn multi_modality_pairs_are_laid_out_per_cell() {
        let m = Mission::builder(MissionId::new(3), MissionKind::Surveillance)
            .area(Rect::square(100.0))
            .require_modality(SensorKind::Visual)
            .require_modality(SensorKind::Radar)
            .build();
        let node = sensing_node(1, 50.0, 50.0, SensorKind::Visual, 200.0);
        let p = CompositionProblem::from_mission(&m, &[node], 2);
        assert_eq!(p.pair_count, 8); // 4 cells × 2 modalities
        // Visual-only node covers exactly the visual pair of each cell.
        assert_eq!(p.candidates[0].covers.len(), 4);
        assert!(p.candidates[0].covers.iter().all(|pi| pi % 2 == 0));
    }
}
