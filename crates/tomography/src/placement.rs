//! Monitor placement heuristics (ref \[20\], "monitor placement for maximal
//! identifiability").
//!
//! Three strategies of increasing cost: random, degree-ranked, and greedy
//! identifiability-maximizing. The greedy strategy is the reference; the
//! experiment `t4_tomography` compares how fast each drives the
//! identifiable-link fraction toward 1.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::additive::MeasurementSystem;
use crate::topology::Topology;

/// Picks `k` random monitors, deterministic in `seed`.
///
/// # Panics
///
/// Panics when `k < 2` or `k` exceeds the node count.
pub fn random_placement(topology: &Topology, k: usize, seed: u64) -> Vec<usize> {
    assert!(k >= 2, "need at least two monitors");
    assert!(k <= topology.node_count(), "more monitors than nodes");
    let mut nodes: Vec<usize> = (0..topology.node_count()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    nodes.shuffle(&mut rng);
    let mut picked: Vec<usize> = nodes.into_iter().take(k).collect();
    picked.sort_unstable();
    picked
}

/// Picks the `k` highest-degree nodes (ties by smaller id). High-degree
/// nodes sit on many shortest paths, which tends to grow the row space.
///
/// # Panics
///
/// Panics when `k < 2` or `k` exceeds the node count.
pub fn degree_placement(topology: &Topology, k: usize) -> Vec<usize> {
    assert!(k >= 2, "need at least two monitors");
    assert!(k <= topology.node_count(), "more monitors than nodes");
    let mut nodes: Vec<usize> = (0..topology.node_count()).collect();
    nodes.sort_by_key(|&v| (std::cmp::Reverse(topology.degree(v)), v));
    let mut picked: Vec<usize> = nodes.into_iter().take(k).collect();
    picked.sort_unstable();
    picked
}

/// Greedy identifiability-maximizing placement: starts from the two
/// highest-degree nodes and repeatedly adds the node that maximizes the
/// identifiable-link fraction (ties by smaller id).
///
/// Cost is `O(k · n · build)` — fine for the experiment sizes here.
///
/// # Panics
///
/// Panics when `k < 2` or `k` exceeds the node count.
pub fn greedy_placement(topology: &Topology, k: usize) -> Vec<usize> {
    assert!(k >= 2, "need at least two monitors");
    assert!(k <= topology.node_count(), "more monitors than nodes");
    let mut monitors = degree_placement(topology, 2);
    while monitors.len() < k {
        let mut best: Option<(usize, f64)> = None;
        for v in 0..topology.node_count() {
            if monitors.contains(&v) {
                continue;
            }
            let mut candidate = monitors.clone();
            candidate.push(v);
            let frac = MeasurementSystem::build(topology, &candidate).identifiable_fraction();
            let better = match best {
                None => true,
                Some((_, bf)) => frac > bf + 1e-12,
            };
            if better {
                best = Some((v, frac));
            }
        }
        #[expect(clippy::expect_used, reason = "k is clamped to the node count, so an unchosen candidate always remains")]
        let (v, _) = best.expect("k <= node count leaves candidates");
        monitors.push(v);
        monitors.sort_unstable();
    }
    monitors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_placement_is_deterministic_and_sized() {
        let g = Topology::grid(4, 4);
        let a = random_placement(&g, 5, 1);
        let b = random_placement(&g, 5, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted unique");
    }

    #[test]
    fn degree_placement_prefers_hubs() {
        // Star-ish graph: node 0 connects to everyone.
        let edges: Vec<(usize, usize)> = (1..6).map(|v| (0, v)).collect();
        let g = Topology::new(6, edges);
        let picked = degree_placement(&g, 2);
        assert!(picked.contains(&0), "hub must be picked: {picked:?}");
    }

    #[test]
    fn greedy_beats_or_matches_random() {
        let g = Topology::random_connected(15, 8, 2);
        let k = 5;
        let greedy = greedy_placement(&g, k);
        let random = random_placement(&g, k, 3);
        let gf = MeasurementSystem::build(&g, &greedy).identifiable_fraction();
        let rf = MeasurementSystem::build(&g, &random).identifiable_fraction();
        assert!(gf >= rf - 1e-9, "greedy {gf} vs random {rf}");
    }

    #[test]
    fn full_placement_maximizes_identifiability_on_line() {
        let g = Topology::line(5);
        let all = greedy_placement(&g, 5);
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        assert_eq!(
            MeasurementSystem::build(&g, &all).identifiable_fraction(),
            1.0
        );
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_k_below_two() {
        random_placement(&Topology::line(3), 1, 0);
    }

    #[test]
    #[should_panic(expected = "more monitors than nodes")]
    fn rejects_oversized_k() {
        degree_placement(&Topology::line(3), 4);
    }
}
