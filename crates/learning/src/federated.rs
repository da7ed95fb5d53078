//! Round-based distributed training with Byzantine workers.
//!
//! A coordinator holds the global model; each round, every worker computes
//! a gradient on its local (possibly non-IID, possibly poisoned) shard,
//! compromised workers substitute forged gradients, and the coordinator
//! folds everything through a chosen [`Aggregator`]. This is the testbed
//! for experiment `f4_learning_services`.

use crate::aggregate::Aggregator;
use crate::attack::ByzantineAttack;
use crate::data::Example;
use crate::model::LogisticModel;

/// Configuration of a distributed training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FederatedConfig {
    /// Learning rate per round.
    pub learning_rate: f64,
    /// Number of synchronous rounds.
    pub rounds: usize,
    /// Aggregation rule at the coordinator.
    pub aggregator: Aggregator,
    /// Attack executed by compromised workers, if any.
    pub attack: Option<ByzantineAttack>,
    /// Number of compromised workers (the *last* shards are compromised).
    pub num_attackers: usize,
    /// RNG seed for attack forging.
    pub seed: u64,
}

impl Default for FederatedConfig {
    fn default() -> Self {
        FederatedConfig {
            learning_rate: 0.5,
            rounds: 50,
            aggregator: Aggregator::Mean,
            attack: None,
            num_attackers: 0,
            seed: 0,
        }
    }
}

/// Per-round trace of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedRun {
    /// Final model.
    pub model: LogisticModel,
    /// Test accuracy after each round.
    pub accuracy_per_round: Vec<f64>,
}

impl FederatedRun {
    /// Final test accuracy (0 when no rounds ran).
    pub fn final_accuracy(&self) -> f64 {
        self.accuracy_per_round.last().copied().unwrap_or(0.0)
    }
}

/// Trains a logistic model across worker shards.
///
/// `shards[i]` is worker `i`'s local data; the last
/// `config.num_attackers` workers are compromised (their data is ignored
/// and replaced by forged gradients when an attack is configured).
///
/// # Panics
///
/// Panics when `shards` is empty, every shard is empty, or
/// `num_attackers >= shards.len()`.
pub fn train_federated(
    dim: usize,
    shards: &[Vec<Example>],
    test: &[Example],
    config: &FederatedConfig,
) -> FederatedRun {
    assert!(!shards.is_empty(), "need at least one worker");
    assert!(
        config.num_attackers < shards.len(),
        "at least one honest worker required"
    );
    assert!(
        shards.iter().any(|s| !s.is_empty()),
        "all shards are empty"
    );
    let honest_count = shards.len() - config.num_attackers;
    let mut model = LogisticModel::new(dim);
    let mut accuracy_per_round = Vec::with_capacity(config.rounds);
    for round in 0..config.rounds {
        let honest_grads: Vec<Vec<f64>> = shards[..honest_count]
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| model.gradient(s))
            .collect();
        let mut grads = honest_grads.clone();
        if let Some(attack) = config.attack {
            let forged = attack.forge(
                &honest_grads,
                config.num_attackers,
                config.seed ^ round as u64,
            );
            grads.extend(forged);
        }
        let update = config.aggregator.aggregate(&grads);
        model.apply_gradient(&update, config.learning_rate);
        accuracy_per_round.push(model.accuracy(test));
    }
    FederatedRun {
        model,
        accuracy_per_round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{logistic_dataset, partition};

    fn setup(skew: f64) -> (Vec<Vec<Example>>, Vec<Example>) {
        let d = logistic_dataset(1_200, 5, 5.0, 1);
        let (train, test) = d.examples.split_at(1_000);
        let train_ds = crate::data::Dataset {
            examples: train.to_vec(),
            dim: 5,
            true_weights: d.true_weights.clone(),
        };
        (partition(&train_ds, 10, skew, 2), test.to_vec())
    }

    #[test]
    fn clean_federated_training_converges() {
        let (shards, test) = setup(0.0);
        let run = train_federated(5, &shards, &test, &FederatedConfig::default());
        assert!(run.final_accuracy() > 0.85, "{}", run.final_accuracy());
        assert_eq!(run.accuracy_per_round.len(), 50);
    }

    #[test]
    fn sign_flip_destroys_mean_but_not_krum() {
        let (shards, test) = setup(0.0);
        let attacked = |agg| {
            train_federated(
                5,
                &shards,
                &test,
                &FederatedConfig {
                    aggregator: agg,
                    attack: Some(ByzantineAttack::SignFlip { scale: 10.0 }),
                    num_attackers: 3,
                    ..FederatedConfig::default()
                },
            )
            .final_accuracy()
        };
        let mean_acc = attacked(Aggregator::Mean);
        let krum_acc = attacked(Aggregator::Krum { f: 3 });
        let median_acc = attacked(Aggregator::Median);
        assert!(mean_acc < 0.7, "mean should collapse: {mean_acc}");
        assert!(krum_acc > 0.8, "krum should survive: {krum_acc}");
        assert!(median_acc > 0.8, "median should survive: {median_acc}");
    }

    #[test]
    fn non_iid_shards_still_train_with_mean() {
        let (shards, test) = setup(1.0);
        let run = train_federated(5, &shards, &test, &FederatedConfig::default());
        assert!(run.final_accuracy() > 0.8, "{}", run.final_accuracy());
    }

    #[test]
    #[should_panic(expected = "honest worker")]
    fn rejects_all_attackers() {
        let (shards, test) = setup(0.0);
        train_federated(
            5,
            &shards,
            &test,
            &FederatedConfig {
                num_attackers: 10,
                ..FederatedConfig::default()
            },
        );
    }

    #[test]
    fn deterministic_per_config() {
        let (shards, test) = setup(0.0);
        let cfg = FederatedConfig {
            attack: Some(ByzantineAttack::GaussianNoise { std: 2.0 }),
            num_attackers: 2,
            aggregator: Aggregator::TrimmedMean { trim: 2 },
            rounds: 10,
            ..FederatedConfig::default()
        };
        let a = train_federated(5, &shards, &test, &cfg);
        let b = train_federated(5, &shards, &test, &cfg);
        assert_eq!(a, b);
    }
}
