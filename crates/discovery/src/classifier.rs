//! From-scratch affiliation classifiers over emission features.
//!
//! Two standard models are implemented directly (no ML dependency):
//! a Gaussian [`NaiveBayes`] and a softmax [`LogisticClassifier`] trained
//! with mini-batch SGD. Both consume [`EmissionFeatures`] and predict an
//! [`Affiliation`] with class probabilities, which downstream recruitment
//! uses to gate trust.

// Index loops mirror the math notation (sums over classes c and features
// j on fixed-size arrays); iterator chains obscure them here.
#![allow(clippy::needless_range_loop)]

use iobt_types::Affiliation;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::features::{EmissionFeatures, FEATURE_DIM};
use crate::metrics::ConfusionMatrix;

/// A classifier from emission features to affiliation posteriors.
pub trait AffiliationClassifier {
    /// Posterior probability of each class as `[blue, red, gray]`,
    /// summing to 1.
    fn posterior(&self, features: &EmissionFeatures) -> [f64; 3];

    /// The maximum-a-posteriori class.
    #[expect(clippy::expect_used, reason = "best is the argmax over exactly three classes, always a valid index")]
    fn classify(&self, features: &EmissionFeatures) -> Affiliation {
        let p = self.posterior(features);
        let mut best = 0;
        for i in 1..3 {
            if p[i] > p[best] {
                best = i;
            }
        }
        Affiliation::from_index(best).expect("index in 0..3")
    }
}

/// Evaluates any classifier on a labelled test set.
pub fn evaluate<C: AffiliationClassifier + ?Sized>(
    classifier: &C,
    test: &[(EmissionFeatures, Affiliation)],
) -> ConfusionMatrix {
    let mut m = ConfusionMatrix::new();
    for (f, truth) in test {
        m.record(*truth, classifier.classify(f));
    }
    m
}

/// Gaussian Naive Bayes: per-class, per-feature normal likelihoods with
/// maximum-likelihood parameters.
///
/// ```
/// # use iobt_discovery::features::EmissionModel;
/// # use iobt_discovery::classifier::{AffiliationClassifier, NaiveBayes, evaluate};
/// let mut model = EmissionModel::new(1);
/// let train = model.labelled_dataset(200);
/// let test = model.labelled_dataset(100);
/// let nb = NaiveBayes::fit(&train).unwrap();
/// let confusion = evaluate(&nb, &test);
/// assert!(confusion.accuracy() > 0.7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveBayes {
    /// Class log-priors.
    log_prior: [f64; 3],
    /// Per class, per feature mean.
    mean: [[f64; FEATURE_DIM]; 3],
    /// Per class, per feature variance (floored for stability).
    var: [[f64; FEATURE_DIM]; 3],
}

impl NaiveBayes {
    /// Fits maximum-likelihood parameters. Returns `None` when any class
    /// has no training samples.
    pub fn fit(train: &[(EmissionFeatures, Affiliation)]) -> Option<Self> {
        let mut counts = [0usize; 3];
        let mut mean = [[0.0; FEATURE_DIM]; 3];
        for (f, c) in train {
            let ci = c.index();
            counts[ci] += 1;
            for (j, v) in f.as_array().into_iter().enumerate() {
                mean[ci][j] += v;
            }
        }
        if counts.contains(&0) {
            return None;
        }
        for c in 0..3 {
            for j in 0..FEATURE_DIM {
                mean[c][j] /= counts[c] as f64;
            }
        }
        let mut var = [[0.0; FEATURE_DIM]; 3];
        for (f, c) in train {
            let ci = c.index();
            for (j, v) in f.as_array().into_iter().enumerate() {
                let d = v - mean[ci][j];
                var[ci][j] += d * d;
            }
        }
        let total = train.len() as f64;
        let mut log_prior = [0.0; 3];
        for c in 0..3 {
            for j in 0..FEATURE_DIM {
                var[c][j] = (var[c][j] / counts[c] as f64).max(1e-6);
            }
            log_prior[c] = (counts[c] as f64 / total).ln();
        }
        Some(NaiveBayes {
            log_prior,
            mean,
            var,
        })
    }
}

impl AffiliationClassifier for NaiveBayes {
    fn posterior(&self, features: &EmissionFeatures) -> [f64; 3] {
        let x = features.as_array();
        let mut log_post = [0.0; 3];
        for c in 0..3 {
            let mut lp = self.log_prior[c];
            for j in 0..FEATURE_DIM {
                let d = x[j] - self.mean[c][j];
                lp += -0.5 * (2.0 * std::f64::consts::PI * self.var[c][j]).ln()
                    - 0.5 * d * d / self.var[c][j];
            }
            log_post[c] = lp;
        }
        softmax_from_logs(log_post)
    }
}

/// Multinomial logistic regression trained by mini-batch SGD on
/// standardized features.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticClassifier {
    /// Per class: weights + bias (last element).
    weights: [[f64; FEATURE_DIM + 1]; 3],
    /// Standardization: feature means.
    feat_mean: [f64; FEATURE_DIM],
    /// Standardization: feature standard deviations.
    feat_std: [f64; FEATURE_DIM],
}

/// Training hyperparameters for [`LogisticClassifier`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogisticConfig {
    /// Learning rate.
    pub learning_rate: f64,
    /// Number of full passes over the training data.
    pub epochs: usize,
    /// L2 regularization strength.
    pub l2: f64,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        LogisticConfig {
            learning_rate: 0.1,
            epochs: 40,
            l2: 1e-4,
            seed: 0,
        }
    }
}

impl LogisticClassifier {
    /// Trains on the labelled set. Returns `None` when the training set is
    /// empty or any class is missing.
    pub fn fit(train: &[(EmissionFeatures, Affiliation)], config: LogisticConfig) -> Option<Self> {
        if train.is_empty() {
            return None;
        }
        let mut class_seen = [false; 3];
        for (_, c) in train {
            class_seen[c.index()] = true;
        }
        if class_seen.iter().any(|s| !s) {
            return None;
        }
        // Standardize features.
        let n = train.len() as f64;
        let mut feat_mean = [0.0; FEATURE_DIM];
        for (f, _) in train {
            for (j, v) in f.as_array().into_iter().enumerate() {
                feat_mean[j] += v / n;
            }
        }
        let mut feat_std = [0.0; FEATURE_DIM];
        for (f, _) in train {
            for (j, v) in f.as_array().into_iter().enumerate() {
                feat_std[j] += (v - feat_mean[j]).powi(2) / n;
            }
        }
        for s in &mut feat_std {
            *s = s.sqrt().max(1e-9);
        }
        let standardize = |f: &EmissionFeatures| {
            let mut x = f.as_array();
            for j in 0..FEATURE_DIM {
                x[j] = (x[j] - feat_mean[j]) / feat_std[j];
            }
            x
        };

        let mut weights = [[0.0; FEATURE_DIM + 1]; 3];
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let (f, truth) = &train[i];
                let x = standardize(f);
                let mut logits = [0.0; 3];
                for c in 0..3 {
                    logits[c] = weights[c][FEATURE_DIM]
                        + x.iter()
                            .zip(&weights[c][..FEATURE_DIM])
                            .map(|(xi, wi)| xi * wi)
                            .sum::<f64>();
                }
                let p = softmax_from_logs(logits);
                for c in 0..3 {
                    let err = p[c] - if c == truth.index() { 1.0 } else { 0.0 };
                    for j in 0..FEATURE_DIM {
                        weights[c][j] -= config.learning_rate
                            * (err * x[j] + config.l2 * weights[c][j]);
                    }
                    weights[c][FEATURE_DIM] -= config.learning_rate * err;
                }
            }
        }
        Some(LogisticClassifier {
            weights,
            feat_mean,
            feat_std,
        })
    }
}

impl AffiliationClassifier for LogisticClassifier {
    fn posterior(&self, features: &EmissionFeatures) -> [f64; 3] {
        let mut x = features.as_array();
        for j in 0..FEATURE_DIM {
            x[j] = (x[j] - self.feat_mean[j]) / self.feat_std[j];
        }
        let mut logits = [0.0; 3];
        for c in 0..3 {
            logits[c] = self.weights[c][FEATURE_DIM]
                + x.iter()
                    .zip(&self.weights[c][..FEATURE_DIM])
                    .map(|(xi, wi)| xi * wi)
                    .sum::<f64>();
        }
        softmax_from_logs(logits)
    }
}

fn softmax_from_logs(log_values: [f64; 3]) -> [f64; 3] {
    let max = log_values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut exp = [0.0; 3];
    let mut sum = 0.0;
    for c in 0..3 {
        exp[c] = (log_values[c] - max).exp();
        sum += exp[c];
    }
    for e in &mut exp {
        *e /= sum;
    }
    exp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::EmissionModel;

    type Labelled = Vec<(EmissionFeatures, Affiliation)>;

    fn split_data(seed: u64, per_class: usize) -> (Labelled, Labelled) {
        let mut model = EmissionModel::new(seed);
        let train = model.labelled_dataset(per_class);
        let test = model.labelled_dataset(per_class / 2);
        (train, test)
    }

    #[test]
    fn naive_bayes_beats_chance_comfortably() {
        let (train, test) = split_data(1, 300);
        let nb = NaiveBayes::fit(&train).unwrap();
        let m = evaluate(&nb, &test);
        assert!(m.accuracy() > 0.8, "NB accuracy {:.3}", m.accuracy());
    }

    #[test]
    fn logistic_beats_chance_comfortably() {
        let (train, test) = split_data(2, 300);
        let lr = LogisticClassifier::fit(&train, LogisticConfig::default()).unwrap();
        let m = evaluate(&lr, &test);
        assert!(m.accuracy() > 0.8, "LR accuracy {:.3}", m.accuracy());
    }

    #[test]
    fn posteriors_sum_to_one() {
        let (train, _) = split_data(3, 100);
        let nb = NaiveBayes::fit(&train).unwrap();
        let lr = LogisticClassifier::fit(&train, LogisticConfig::default()).unwrap();
        let mut model = EmissionModel::new(7);
        for class in Affiliation::ALL {
            let f = model.observe(class);
            for p in [nb.posterior(&f), lr.posterior(&f)] {
                assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
            }
        }
    }

    #[test]
    fn fit_rejects_missing_classes() {
        let mut model = EmissionModel::new(4);
        let only_blue: Vec<_> = (0..20)
            .map(|_| (model.observe(Affiliation::Blue), Affiliation::Blue))
            .collect();
        assert!(NaiveBayes::fit(&only_blue).is_none());
        assert!(LogisticClassifier::fit(&only_blue, LogisticConfig::default()).is_none());
        assert!(LogisticClassifier::fit(&[], LogisticConfig::default()).is_none());
    }

    #[test]
    fn noisier_observations_hurt_accuracy() {
        let accuracy_at = |noise: f64| {
            let mut model = EmissionModel::new(5).with_noise(noise);
            let train = model.labelled_dataset(200);
            let test = model.labelled_dataset(100);
            let nb = NaiveBayes::fit(&train).unwrap();
            evaluate(&nb, &test).accuracy()
        };
        let clean = accuracy_at(0.5);
        let noisy = accuracy_at(6.0);
        assert!(clean > noisy, "clean {clean:.3} vs noisy {noisy:.3}");
    }

    #[test]
    fn spoofing_red_reduces_red_recall() {
        let mut model = EmissionModel::new(6);
        let train = model.labelled_dataset(300);
        let nb = NaiveBayes::fit(&train).unwrap();
        let recall_at = |spoof: f64, model: &mut EmissionModel| {
            let mut m = ConfusionMatrix::new();
            for _ in 0..300 {
                let f = model.observe_with_spoofing(Affiliation::Red, spoof);
                m.record(Affiliation::Red, nb.classify(&f));
            }
            m.recall(Affiliation::Red)
        };
        let honest = recall_at(0.0, &mut model);
        let spoofed = recall_at(0.8, &mut model);
        assert!(honest > spoofed + 0.2, "honest {honest:.3} vs spoofed {spoofed:.3}");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (train, _) = split_data(8, 100);
        let a = LogisticClassifier::fit(&train, LogisticConfig::default()).unwrap();
        let b = LogisticClassifier::fit(&train, LogisticConfig::default()).unwrap();
        assert_eq!(a, b);
    }
}
