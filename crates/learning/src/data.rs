//! Synthetic learning workloads with heterogeneous (non-IID) partitioning.
//!
//! §V-B: data-parallel learning systems "are only marginally tolerant of
//! heterogeneous hardware configurations" and assume IID shards. Our
//! generator produces logistic-ground-truth classification data and splits
//! it across nodes with controllable label skew, so the experiments can
//! probe the non-IID regimes the paper worries about.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// One labelled example: feature vector and binary label.
#[derive(Debug, Clone, PartialEq)]
pub struct Example {
    /// Feature vector (fixed dimension per dataset).
    pub features: Vec<f64>,
    /// Binary label.
    pub label: bool,
}

/// A labelled dataset with the ground-truth generating weights attached.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Examples in generation order.
    pub examples: Vec<Example>,
    /// Feature dimension.
    pub dim: usize,
    /// True separating hyperplane weights (unit norm).
    pub true_weights: Vec<f64>,
}

/// Generates a logistic-model classification dataset.
///
/// Features are standard normal; labels follow
/// `P(y=1|x) = sigmoid(margin * <w, x>)` for a random unit `w`. Larger
/// `margin` means cleaner separation.
pub fn logistic_dataset(n: usize, dim: usize, margin: f64, seed: u64) -> Dataset {
    assert!(dim > 0, "dimension must be nonzero");
    let mut rng = StdRng::seed_from_u64(seed);
    #[expect(clippy::expect_used, reason = "constant valid parameters")]
    let normal = Normal::new(0.0, 1.0).expect("unit normal");
    let mut w: Vec<f64> = (0..dim).map(|_| normal.sample(&mut rng)).collect();
    let norm = w.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
    for v in &mut w {
        *v /= norm;
    }
    let mut examples = Vec::with_capacity(n);
    for _ in 0..n {
        let x: Vec<f64> = (0..dim).map(|_| normal.sample(&mut rng)).collect();
        let score: f64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
        let p = 1.0 / (1.0 + (-margin * score).exp());
        let label = rng.gen::<f64>() < p;
        examples.push(Example { features: x, label });
    }
    Dataset {
        examples,
        dim,
        true_weights: w,
    }
}

/// Splits a dataset across `num_nodes` shards with label-skew
/// heterogeneity.
///
/// `skew = 0` is an IID split; `skew = 1` sends (almost) all positive
/// examples to the first half of the nodes and negatives to the second
/// half — the extreme non-IID case.
pub fn partition(dataset: &Dataset, num_nodes: usize, skew: f64, seed: u64) -> Vec<Vec<Example>> {
    assert!(num_nodes > 0, "need at least one node");
    let skew = skew.clamp(0.0, 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shards: Vec<Vec<Example>> = vec![Vec::new(); num_nodes];
    let half = num_nodes.div_ceil(2);
    for ex in &dataset.examples {
        let biased = rng.gen::<f64>() < skew;
        let node = if biased {
            // Positive labels to the first half, negatives to the second.
            if ex.label {
                rng.gen_range(0..half)
            } else if half < num_nodes {
                rng.gen_range(half..num_nodes)
            } else {
                0
            }
        } else {
            rng.gen_range(0..num_nodes)
        };
        shards[node].push(ex.clone());
    }
    shards
}

/// Flips the label of each example independently with probability `p` —
/// the label-flip data-poisoning attack (§V-B, adversarial inputs).
pub fn poison_labels(shard: &mut [Example], p: f64, seed: u64) {
    let p = p.clamp(0.0, 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    for ex in shard {
        if rng.gen::<f64>() < p {
            ex.label = !ex.label;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_shape_and_determinism() {
        let d = logistic_dataset(100, 5, 4.0, 1);
        assert_eq!(d.examples.len(), 100);
        assert!(d.examples.iter().all(|e| e.features.len() == 5));
        assert_eq!(d, logistic_dataset(100, 5, 4.0, 1));
        let norm: f64 = d.true_weights.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn large_margin_labels_follow_hyperplane() {
        let d = logistic_dataset(500, 4, 50.0, 2);
        let consistent = d
            .examples
            .iter()
            .filter(|e| {
                let s: f64 = e.features.iter().zip(&d.true_weights).map(|(a, b)| a * b).sum();
                (s > 0.0) == e.label
            })
            .count();
        assert!(consistent as f64 / 500.0 > 0.95);
    }

    #[test]
    fn partition_conserves_examples() {
        let d = logistic_dataset(200, 3, 2.0, 3);
        for skew in [0.0, 0.5, 1.0] {
            let shards = partition(&d, 7, skew, 4);
            assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 200);
        }
    }

    #[test]
    fn skewed_partition_separates_labels() {
        let d = logistic_dataset(1_000, 3, 2.0, 5);
        let shards = partition(&d, 4, 1.0, 6);
        // First half mostly positive, second half mostly negative.
        let pos_frac = |s: &Vec<Example>| {
            if s.is_empty() {
                0.5
            } else {
                s.iter().filter(|e| e.label).count() as f64 / s.len() as f64
            }
        };
        assert!(pos_frac(&shards[0]) > 0.95);
        assert!(pos_frac(&shards[3]) < 0.05);
        // IID split stays near the base rate.
        let iid = partition(&d, 4, 0.0, 6);
        let base = pos_frac(&iid[0]);
        assert!((0.2..=0.8).contains(&base));
    }

    #[test]
    fn poison_flips_expected_fraction() {
        let d = logistic_dataset(1_000, 3, 2.0, 7);
        let mut shard = d.examples.clone();
        let before: Vec<bool> = shard.iter().map(|e| e.label).collect();
        poison_labels(&mut shard, 0.3, 8);
        let flipped = shard
            .iter()
            .zip(&before)
            .filter(|(e, b)| e.label != **b)
            .count();
        assert!((flipped as f64 / 1_000.0 - 0.3).abs() < 0.05);
        // p = 0 is a no-op.
        let mut untouched = d.examples.clone();
        poison_labels(&mut untouched, 0.0, 9);
        assert_eq!(untouched, d.examples);
    }
}
