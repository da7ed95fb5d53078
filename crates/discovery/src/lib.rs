//! Asset discovery and recruitment for the IoBT (paper §III-A).
//!
//! The pipeline: a spectrum monitor observes [side-channel emission
//! features](features) of unknown nodes; from-scratch
//! [classifiers](classifier) estimate blue/red/gray affiliation; the
//! [tracker] fuses repeated observations into per-asset estimates under
//! mobility; and [recruitment](mod@recruit) joins that evidence with the
//! trust ledger to admit assets into the pool that the synthesis engine
//! composes from.
//!
//! # Examples
//!
//! ```
//! use iobt_discovery::{AffiliationClassifier, EmissionModel, NaiveBayes};
//! use iobt_types::Affiliation;
//!
//! // Train a side-channel classifier on synthetic emission captures.
//! let mut emissions = EmissionModel::new(42);
//! let train = emissions.labelled_dataset(200);
//! let nb = NaiveBayes::fit(&train).expect("all classes present");
//!
//! // Classify a fresh observation of a red emitter.
//! let obs = emissions.observe(Affiliation::Red);
//! let posterior = nb.posterior(&obs);
//! assert!((posterior.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod classifier;
pub mod features;
pub mod metrics;
pub mod recruit;
pub mod tracker;

pub use classifier::{
    evaluate, AffiliationClassifier, LogisticClassifier, LogisticConfig, NaiveBayes,
};
pub use features::{EmissionFeatures, EmissionModel, FEATURE_DIM};
pub use metrics::ConfusionMatrix;
pub use recruit::{recruit, RecruitPolicy, RecruitedAsset, RecruitmentPool};
pub use tracker::{AssetEstimate, DiscoveryTracker, TrackerConfig};
