//! Distributed, resilient, and continual learning services for the IoBT
//! (paper §V-B, refs \[24\]–\[33\]).
//!
//! Everything is built from scratch on a [logistic model](model):
//!
//! * [`federated`] — coordinator-based rounds with [Byzantine
//!   attacks](attack) and [resilient aggregation](aggregate) (Krum,
//!   median, trimmed mean vs the fragile mean).
//! * [`gossip`] — fully decentralized SGD over time-varying topologies
//!   with Metropolis mixing (no coordinator to lose).
//! * [`cost`] — communication-cost-aware topology activation, trading
//!   bytes for accuracy.
//! * [`continual`] — context-conditioned learning vs catastrophic
//!   forgetting.
//! * [`data`] — synthetic non-IID workloads with label-skew partitioning
//!   and label-poisoning.
//!
//! # Examples
//!
//! ```
//! use iobt_learning::{
//!     logistic_dataset, partition, train_federated, Aggregator, ByzantineAttack, Dataset,
//!     FederatedConfig,
//! };
//!
//! let data = logistic_dataset(800, 5, 5.0, 1);
//! let (train, test) = data.examples.split_at(600);
//! let train_ds = Dataset { examples: train.to_vec(), dim: 5, true_weights: data.true_weights.clone() };
//! let shards = partition(&train_ds, 8, 0.3, 2);
//! let run = train_federated(5, &shards, test, &FederatedConfig {
//!     aggregator: Aggregator::Krum { f: 2 },
//!     attack: Some(ByzantineAttack::SignFlip { scale: 10.0 }),
//!     num_attackers: 2,
//!     ..FederatedConfig::default()
//! });
//! assert!(run.final_accuracy() > 0.75, "Krum survives the attack");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod aggregate;
pub mod attack;
pub mod continual;
pub mod cost;
pub mod data;
pub mod federated;
pub mod gossip;
pub mod model;

pub use aggregate::{coordinate_median, krum, mean, trimmed_mean, Aggregator};
pub use attack::ByzantineAttack;
pub use continual::{train_blind, train_contextual, ContinualResult, TaskStream};
pub use cost::{cost_aware_sgd, ActivationPolicy, CostAwareRun};
pub use data::{logistic_dataset, partition, poison_labels, Dataset, Example};
pub use federated::{train_federated, FederatedConfig, FederatedRun};
pub use gossip::{
    consensus_error, decentralized_sgd, gossip_mix, DecentralizedRun, MixingTopology,
};
pub use model::LogisticModel;
