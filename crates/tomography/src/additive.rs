//! Additive-metric tomography: inferring per-link delays from end-to-end
//! path measurements between monitors (refs \[20\], \[22\]).
//!
//! Monitors measure the sum of link metrics along monitor-to-monitor
//! paths. The measurement matrix `R` has one row per monitor pair (the
//! path's edge-indicator vector); a link is *identifiable* iff its
//! indicator basis vector lies in the row space of `R`. Inference uses the
//! minimum-norm solution, which is exact on identifiable links.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

use crate::matrix::{min_norm_solution, Matrix};
use crate::topology::Topology;

/// The measurement system induced by a monitor placement.
#[derive(Debug, Clone)]
pub struct MeasurementSystem {
    matrix: Matrix,
    paths: Vec<(usize, usize)>,
    edge_count: usize,
}

impl MeasurementSystem {
    /// Builds the path matrix for all monitor pairs, using shortest-path
    /// routing. Monitor pairs in different components are skipped.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two distinct monitors are given or a monitor
    /// id is out of range.
    pub fn build(topology: &Topology, monitors: &[usize]) -> Self {
        let mut unique: Vec<usize> = monitors.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert!(unique.len() >= 2, "need at least two monitors");
        for &m in &unique {
            assert!(m < topology.node_count(), "monitor out of range");
        }
        let e = topology.edge_count();
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut paths = Vec::new();
        for i in 0..unique.len() {
            for j in (i + 1)..unique.len() {
                let Some(path) = topology.shortest_path_edges(unique[i], unique[j]) else {
                    continue;
                };
                let mut row = vec![0.0; e];
                for edge in path {
                    row[edge] = 1.0;
                }
                rows.push(row);
                paths.push((unique[i], unique[j]));
            }
        }
        let matrix = if rows.is_empty() {
            // No measurable paths: a zero matrix keeps the API total.
            Matrix::zeros(1, e.max(1))
        } else {
            Matrix::from_rows(&rows)
        };
        MeasurementSystem {
            matrix,
            paths,
            edge_count: e,
        }
    }

    /// Monitor pairs with a usable path, in build order.
    pub fn paths(&self) -> &[(usize, usize)] {
        &self.paths
    }

    /// Rank of the measurement matrix.
    pub fn rank(&self) -> usize {
        self.matrix.rank()
    }

    /// Which edges are identifiable (their metric is uniquely determined by
    /// the measurements).
    pub fn identifiable_edges(&self) -> Vec<bool> {
        (0..self.edge_count)
            .map(|e| {
                let mut basis = vec![0.0; self.edge_count];
                basis[e] = 1.0;
                self.matrix.row_space_contains(&basis)
            })
            .collect()
    }

    /// Fraction of edges that are identifiable.
    pub fn identifiable_fraction(&self) -> f64 {
        if self.edge_count == 0 {
            return 0.0;
        }
        let identifiable = self.identifiable_edges().iter().filter(|&&b| b).count();
        identifiable as f64 / self.edge_count as f64
    }

    /// Simulates measurements for ground-truth edge metrics and infers
    /// per-edge estimates via the minimum-norm solution.
    ///
    /// `noise_std` adds Gaussian noise to each path measurement
    /// (deterministic in `seed`).
    ///
    /// # Panics
    ///
    /// Panics when `true_metrics.len()` differs from the edge count.
    pub fn infer(&self, true_metrics: &[f64], noise_std: f64, seed: u64) -> InferenceResult {
        assert_eq!(
            true_metrics.len(),
            self.edge_count,
            "metric vector must cover every edge"
        );
        let mut y = self.matrix.mul_vec(true_metrics);
        if noise_std > 0.0 {
            let mut rng = StdRng::seed_from_u64(seed);
            #[expect(clippy::expect_used, reason = "guarded by noise_std > 0.0, so the distribution parameters are valid")]
            let normal = Normal::new(0.0, noise_std).expect("finite std");
            for v in &mut y {
                *v += normal.sample(&mut rng);
            }
        }
        let estimate = min_norm_solution(&self.matrix, &y);
        InferenceResult {
            estimate,
            identifiable: self.identifiable_edges(),
            truth: true_metrics.to_vec(),
        }
    }
}

/// Outcome of additive inference.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceResult {
    /// Estimated metric per edge (minimum-norm).
    pub estimate: Vec<f64>,
    /// Identifiability flag per edge.
    pub identifiable: Vec<bool>,
    /// Ground truth used to simulate measurements.
    pub truth: Vec<f64>,
}

impl InferenceResult {
    /// RMSE over identifiable edges only (the ones theory says we can get
    /// right), or `0.0` when none are identifiable.
    pub fn identifiable_rmse(&self) -> f64 {
        let pairs: Vec<(f64, f64)> = self
            .estimate
            .iter()
            .zip(&self.truth)
            .zip(&self.identifiable)
            .filter(|(_, &id)| id)
            .map(|((e, t), _)| (*e, *t))
            .collect();
        if pairs.is_empty() {
            return 0.0;
        }
        let sq: f64 = pairs.iter().map(|(e, t)| (e - t) * (e - t)).sum();
        (sq / pairs.len() as f64).sqrt()
    }
}

/// Samples uniform ground-truth edge delays in `[lo, hi)` ms,
/// deterministic in `seed`.
pub fn sample_metrics(topology: &Topology, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..topology.edge_count())
        .map(|_| if hi > lo { rng.gen_range(lo..hi) } else { lo })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_with_end_monitors_identifies_nothing_individually() {
        // Only the total of the line is measured: no single edge is
        // identifiable when there are 2+ edges.
        let g = Topology::line(4);
        let sys = MeasurementSystem::build(&g, &[0, 3]);
        assert_eq!(sys.rank(), 1);
        assert_eq!(sys.identifiable_fraction(), 0.0);
    }

    #[test]
    fn line_with_all_monitors_identifies_everything() {
        let g = Topology::line(4);
        let sys = MeasurementSystem::build(&g, &[0, 1, 2, 3]);
        assert_eq!(sys.identifiable_fraction(), 1.0);
        let truth = sample_metrics(&g, 1.0, 10.0, 1);
        let result = sys.infer(&truth, 0.0, 0);
        assert!(result.identifiable_rmse() < 1e-5);
    }

    #[test]
    fn tree_with_leaf_monitors() {
        // Binary tree with monitors at all leaves: internal edges adjacent
        // to the root are covered by multiple paths; edges to leaves are
        // each the symmetric difference of paths. Classic result: all edges
        // identifiable except possibly those incident to degree-2 chains.
        let g = Topology::binary_tree(2);
        let sys = MeasurementSystem::build(&g, &g.leaves());
        let frac = sys.identifiable_fraction();
        assert!(frac > 0.0, "leaf monitors identify some edges: {frac}");
        let truth = sample_metrics(&g, 1.0, 5.0, 2);
        let result = sys.infer(&truth, 0.0, 0);
        assert!(result.identifiable_rmse() < 1e-5);
    }

    #[test]
    fn more_monitors_never_reduce_identifiability() {
        let g = Topology::random_connected(20, 10, 3);
        let few = MeasurementSystem::build(&g, &[0, 1, 2]);
        let many = MeasurementSystem::build(&g, &[0, 1, 2, 5, 9, 13, 17]);
        assert!(many.identifiable_fraction() >= few.identifiable_fraction());
        assert!(many.rank() >= few.rank());
    }

    #[test]
    fn noise_degrades_but_does_not_destroy_estimates() {
        let g = Topology::grid(4, 3);
        let monitors: Vec<usize> = (0..g.node_count()).collect();
        let sys = MeasurementSystem::build(&g, &monitors);
        let truth = sample_metrics(&g, 5.0, 20.0, 4);
        let clean = sys.infer(&truth, 0.0, 0).identifiable_rmse();
        let noisy = sys.infer(&truth, 1.0, 0).identifiable_rmse();
        assert!(clean < 1e-5);
        assert!(noisy > clean);
        assert!(noisy < 10.0, "noise should not blow up: {noisy}");
    }

    #[test]
    #[should_panic(expected = "two monitors")]
    fn rejects_single_monitor() {
        let g = Topology::line(3);
        MeasurementSystem::build(&g, &[0, 0]);
    }

    #[test]
    fn disconnected_monitor_pairs_are_skipped() {
        let g = Topology::new(4, vec![(0, 1), (2, 3)]);
        let sys = MeasurementSystem::build(&g, &[0, 1, 2]);
        // Only the (0,1) pair has a path.
        assert_eq!(sys.paths(), &[(0, 1)]);
    }

    #[test]
    fn inference_result_metrics() {
        let g = Topology::line(3);
        let sys = MeasurementSystem::build(&g, &[0, 1, 2]);
        let result = sys.infer(&[2.0, 3.0], 0.0, 0);
        assert!((result.estimate[0] - 2.0).abs() < 1e-5);
        assert!((result.estimate[1] - 3.0).abs() < 1e-5);
    }
}
