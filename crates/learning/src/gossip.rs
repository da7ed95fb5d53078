//! Decentralized averaging and gossip-based SGD over time-varying
//! topologies.
//!
//! §V-B asks "what is the impact of time-varying topology (such as that
//! caused by failures due to an adversary) on the correctness and
//! convergence of distributed learning algorithms?" This module provides
//! Metropolis-weighted gossip averaging (doubly-stochastic mixing, so the
//! network average is preserved exactly) and decentralized SGD where each
//! node alternates local gradient steps with gossip mixing — no
//! coordinator required.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::data::Example;
use crate::model::LogisticModel;

/// Per-round communication topology for gossip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixingTopology {
    /// Every pair talks every round (most traffic, fastest mixing).
    Complete,
    /// Ring: node `i` talks to `i±1` (least traffic, slowest mixing).
    Ring,
    /// Random `degree`-regular-ish connected graph, re-drawn every round.
    Random {
        /// Approximate degree per node.
        degree: usize,
    },
}

impl MixingTopology {
    /// Undirected edge list for `n` nodes at round `round` (deterministic
    /// in `(round, seed)`), sorted ascending.
    pub fn edges(&self, n: usize, round: u64, seed: u64) -> Vec<(usize, usize)> {
        if n < 2 {
            return Vec::new();
        }
        match *self {
            MixingTopology::Complete => {
                let mut edges = Vec::with_capacity(n * (n - 1) / 2);
                for i in 0..n {
                    for j in (i + 1)..n {
                        edges.push((i, j));
                    }
                }
                edges
            }
            MixingTopology::Ring => {
                let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
                if n > 2 {
                    edges.push((0, n - 1));
                }
                edges
            }
            MixingTopology::Random { degree } => {
                let mut rng = StdRng::seed_from_u64(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut edges = std::collections::BTreeSet::new();
                // A random Hamiltonian cycle keeps the graph connected...
                let mut perm: Vec<usize> = (0..n).collect();
                perm.shuffle(&mut rng);
                for w in perm.windows(2) {
                    edges.insert((w[0].min(w[1]), w[0].max(w[1])));
                }
                if n > 2 {
                    let (a, b) = (perm[0], perm[n - 1]);
                    edges.insert((a.min(b), a.max(b)));
                }
                // ...plus random chords up to the target degree.
                let target = n * degree.max(2) / 2;
                let mut guard = 0;
                while edges.len() < target && guard < 20 * target {
                    guard += 1;
                    let mut pick = || perm[rand::Rng::gen_range(&mut rng, 0..n)];
                    let (a, b) = (pick(), pick());
                    if a != b {
                        edges.insert((a.min(b), a.max(b)));
                    }
                }
                edges.into_iter().collect()
            }
        }
    }
}

/// One Metropolis-weighted gossip mixing round, in place.
///
/// With weights `w_ij = 1 / (1 + max(deg_i, deg_j))` the mixing matrix is
/// symmetric and doubly stochastic, so the vector average over nodes is
/// invariant — the key correctness property asserted in tests.
///
/// # Panics
///
/// Panics when vectors have inconsistent dimensions or an edge endpoint is
/// out of range.
pub fn gossip_mix(values: &mut [Vec<f64>], edges: &[(usize, usize)]) {
    let n = values.len();
    if n == 0 {
        return;
    }
    let dim = values[0].len();
    assert!(
        values.iter().all(|v| v.len() == dim),
        "vector dimensions must match"
    );
    let mut degree = vec![0usize; n];
    for &(a, b) in edges {
        assert!(a < n && b < n, "edge endpoint out of range");
        degree[a] += 1;
        degree[b] += 1;
    }
    let old = values.to_vec();
    for &(a, b) in edges {
        let w = 1.0 / (1.0 + degree[a].max(degree[b]) as f64);
        for d in 0..dim {
            let diff = old[b][d] - old[a][d];
            values[a][d] += w * diff;
            values[b][d] -= w * diff;
        }
    }
}

/// Maximum L2 distance of any node's vector from the global mean —
/// the consensus error.
pub fn consensus_error(values: &[Vec<f64>]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean = crate::aggregate::mean(values);
    values
        .iter()
        .map(|v| {
            v.iter()
                .zip(&mean)
                .map(|(x, m)| (x - m) * (x - m))
                .sum::<f64>()
                .sqrt()
        })
        .fold(0.0, f64::max)
}

/// Result of a decentralized SGD run.
#[derive(Debug, Clone, PartialEq)]
pub struct DecentralizedRun {
    /// Test accuracy of the average model per round.
    pub accuracy_per_round: Vec<f64>,
    /// Consensus error per round.
    pub consensus_per_round: Vec<f64>,
    /// Total undirected pairwise exchanges performed.
    pub messages: u64,
}

impl DecentralizedRun {
    /// Final accuracy of the averaged model.
    pub fn final_accuracy(&self) -> f64 {
        self.accuracy_per_round.last().copied().unwrap_or(0.0)
    }
}

/// Decentralized SGD: per round, every node takes a local gradient step on
/// its shard, then one gossip mix over `topology`.
///
/// # Panics
///
/// Panics when `shards` is empty.
pub fn decentralized_sgd(
    dim: usize,
    shards: &[Vec<Example>],
    test: &[Example],
    topology: MixingTopology,
    rounds: usize,
    lr: f64,
    seed: u64,
) -> DecentralizedRun {
    assert!(!shards.is_empty(), "need at least one node");
    let n = shards.len();
    let mut params: Vec<Vec<f64>> = vec![LogisticModel::new(dim).to_params(); n];
    let mut accuracy_per_round = Vec::with_capacity(rounds);
    let mut consensus_per_round = Vec::with_capacity(rounds);
    let mut messages = 0u64;
    for round in 0..rounds {
        // Local step.
        for (p, shard) in params.iter_mut().zip(shards) {
            if shard.is_empty() {
                continue;
            }
            let mut model = LogisticModel::from_params(p);
            let grad = model.gradient(shard);
            model.apply_gradient(&grad, lr);
            *p = model.to_params();
        }
        // Mix.
        let edges = topology.edges(n, round as u64, seed);
        messages += edges.len() as u64;
        gossip_mix(&mut params, &edges);
        // Trace.
        let avg = crate::aggregate::mean(&params);
        let avg_model = LogisticModel::from_params(&avg);
        accuracy_per_round.push(avg_model.accuracy(test));
        consensus_per_round.push(consensus_error(&params));
    }
    DecentralizedRun {
        accuracy_per_round,
        consensus_per_round,
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{logistic_dataset, partition, Dataset};

    #[test]
    fn gossip_preserves_the_mean_exactly() {
        let mut values = vec![vec![1.0, 10.0], vec![3.0, -2.0], vec![5.0, 4.0], vec![-1.0, 0.0]];
        let before = crate::aggregate::mean(&values);
        for round in 0..20 {
            let edges = MixingTopology::Random { degree: 2 }.edges(4, round, 1);
            gossip_mix(&mut values, &edges);
        }
        let after = crate::aggregate::mean(&values);
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-9, "mean must be invariant");
        }
    }

    #[test]
    fn gossip_converges_to_consensus() {
        let mut values: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 * 3.0]).collect();
        let initial = consensus_error(&values);
        for round in 0..100 {
            let edges = MixingTopology::Ring.edges(8, round, 0);
            gossip_mix(&mut values, &edges);
        }
        let final_err = consensus_error(&values);
        assert!(final_err < initial * 0.01, "{initial} -> {final_err}");
    }

    #[test]
    fn complete_mixes_faster_than_ring() {
        let run = |topology: MixingTopology| {
            let mut values: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
            for round in 0..5 {
                let edges = topology.edges(10, round, 0);
                gossip_mix(&mut values, &edges);
            }
            consensus_error(&values)
        };
        assert!(run(MixingTopology::Complete) < run(MixingTopology::Ring));
    }

    #[test]
    fn topology_edge_counts() {
        assert_eq!(MixingTopology::Complete.edges(5, 0, 0).len(), 10);
        assert_eq!(MixingTopology::Ring.edges(5, 0, 0).len(), 5);
        assert_eq!(MixingTopology::Ring.edges(2, 0, 0).len(), 1);
        assert!(MixingTopology::Complete.edges(1, 0, 0).is_empty());
    }

    #[test]
    fn random_topology_is_deterministic_and_varies_per_round() {
        let t = MixingTopology::Random { degree: 3 };
        assert_eq!(t.edges(12, 4, 9), t.edges(12, 4, 9));
        assert_ne!(t.edges(12, 4, 9), t.edges(12, 5, 9));
    }

    fn shards_and_test() -> (Vec<Vec<Example>>, Vec<Example>, usize) {
        let d = logistic_dataset(900, 4, 5.0, 1);
        let (train, test) = d.examples.split_at(700);
        let ds = Dataset {
            examples: train.to_vec(),
            dim: 4,
            true_weights: d.true_weights.clone(),
        };
        (partition(&ds, 8, 0.4, 2), test.to_vec(), 4)
    }

    #[test]
    fn decentralized_sgd_learns() {
        let (shards, test, dim) = shards_and_test();
        let run = decentralized_sgd(dim, &shards, &test, MixingTopology::Ring, 60, 0.5, 3);
        assert!(run.final_accuracy() > 0.8, "{}", run.final_accuracy());
        assert!(run.messages > 0);
        // Consensus shrinks over time.
        let early = run.consensus_per_round[5];
        let late = *run.consensus_per_round.last().unwrap();
        assert!(late <= early + 1e-6);
    }

    #[test]
    fn complete_topology_costs_more_messages_than_ring() {
        let (shards, test, dim) = shards_and_test();
        let ring = decentralized_sgd(dim, &shards, &test, MixingTopology::Ring, 10, 0.5, 3);
        let full = decentralized_sgd(dim, &shards, &test, MixingTopology::Complete, 10, 0.5, 3);
        assert!(full.messages > ring.messages * 2);
    }
}
