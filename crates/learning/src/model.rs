//! Logistic-regression model and SGD, from scratch.

use crate::data::Example;

/// A logistic-regression model: weights plus bias.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticModel {
    weights: Vec<f64>,
    bias: f64,
}

impl LogisticModel {
    /// Creates a zero-initialized model of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be nonzero");
        LogisticModel {
            weights: vec![0.0; dim],
            bias: 0.0,
        }
    }

    /// Model parameters as a flat vector `[weights…, bias]` — the format
    /// exchanged by distributed aggregation.
    pub fn to_params(&self) -> Vec<f64> {
        let mut p = self.weights.clone();
        p.push(self.bias);
        p
    }

    /// Rebuilds a model from the flat parameter format.
    ///
    /// # Panics
    ///
    /// Panics when `params.len() < 2`.
    pub fn from_params(params: &[f64]) -> Self {
        assert!(params.len() >= 2, "need weights and bias");
        LogisticModel {
            weights: params[..params.len() - 1].to_vec(),
            bias: params[params.len() - 1],
        }
    }

    /// Predicted probability of the positive class.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.weights.len(), "dimension mismatch");
        let z: f64 = features
            .iter()
            .zip(&self.weights)
            .map(|(x, w)| x * w)
            .sum::<f64>()
            + self.bias;
        1.0 / (1.0 + (-z).exp())
    }

    /// Hard prediction at threshold 0.5.
    pub fn predict(&self, features: &[f64]) -> bool {
        self.predict_proba(features) >= 0.5
    }

    /// Mean cross-entropy loss gradient over a batch, as a flat
    /// `[d_weights…, d_bias]` vector. Returns the zero vector for an empty
    /// batch.
    pub fn gradient(&self, batch: &[Example]) -> Vec<f64> {
        let dim = self.weights.len();
        let mut grad = vec![0.0; dim + 1];
        if batch.is_empty() {
            return grad;
        }
        for ex in batch {
            let p = self.predict_proba(&ex.features);
            let err = p - if ex.label { 1.0 } else { 0.0 };
            for (g, x) in grad[..dim].iter_mut().zip(&ex.features) {
                *g += err * x;
            }
            grad[dim] += err;
        }
        let n = batch.len() as f64;
        for g in &mut grad {
            *g /= n;
        }
        grad
    }

    /// Applies one gradient step: `params -= lr * grad`.
    ///
    /// # Panics
    ///
    /// Panics when `grad.len() != dim + 1`.
    pub fn apply_gradient(&mut self, grad: &[f64], lr: f64) {
        assert_eq!(grad.len(), self.weights.len() + 1, "gradient shape");
        for (w, g) in self.weights.iter_mut().zip(grad) {
            *w -= lr * g;
        }
        self.bias -= lr * grad[self.weights.len()];
    }

    /// Classification accuracy on a test set, or `0.0` when empty.
    pub fn accuracy(&self, test: &[Example]) -> f64 {
        if test.is_empty() {
            return 0.0;
        }
        let correct = test
            .iter()
            .filter(|e| self.predict(&e.features) == e.label)
            .count();
        correct as f64 / test.len() as f64
    }

    /// Trains with plain (centralized) mini-batch SGD — the upper-bound
    /// baseline for the distributed experiments.
    pub fn train_centralized(&mut self, data: &[Example], lr: f64, epochs: usize, batch: usize) {
        let batch = batch.max(1);
        for _ in 0..epochs {
            for chunk in data.chunks(batch) {
                let grad = self.gradient(chunk);
                self.apply_gradient(&grad, lr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::logistic_dataset;

    impl LogisticModel {
        /// Mean cross-entropy loss on a set, or `0.0` when empty.
        fn loss(&self, test: &[Example]) -> f64 {
            if test.is_empty() {
                return 0.0;
            }
            let sum: f64 = test
                .iter()
                .map(|e| {
                    let p = self.predict_proba(&e.features).clamp(1e-12, 1.0 - 1e-12);
                    if e.label {
                        -p.ln()
                    } else {
                        -(1.0 - p).ln()
                    }
                })
                .sum();
            sum / test.len() as f64
        }
    }

    #[test]
    fn params_roundtrip() {
        let mut m = LogisticModel::new(3);
        m.apply_gradient(&[0.1, -0.2, 0.3, 0.5], 1.0);
        let p = m.to_params();
        assert_eq!(p.len(), 4);
        assert_eq!(LogisticModel::from_params(&p), m);
    }

    #[test]
    fn zero_model_predicts_half() {
        let m = LogisticModel::new(2);
        assert!((m.predict_proba(&[1.0, -1.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gradient_descends_loss() {
        let d = logistic_dataset(300, 4, 3.0, 1);
        let mut m = LogisticModel::new(4);
        let l0 = m.loss(&d.examples);
        for _ in 0..50 {
            let g = m.gradient(&d.examples);
            m.apply_gradient(&g, 0.5);
        }
        let l1 = m.loss(&d.examples);
        assert!(l1 < l0, "loss must decrease: {l0} -> {l1}");
    }

    #[test]
    fn centralized_training_reaches_high_accuracy() {
        let d = logistic_dataset(1_000, 5, 5.0, 2);
        let test = logistic_dataset(500, 5, 5.0, 3); // same weights? no:
        // different seed gives different true weights, so evaluate on the
        // training distribution instead with a held-out split.
        let _ = test;
        let (train, holdout) = d.examples.split_at(800);
        let mut m = LogisticModel::new(5);
        m.train_centralized(train, 0.3, 20, 32);
        let acc = m.accuracy(holdout);
        assert!(acc > 0.85, "centralized accuracy {acc}");
    }

    #[test]
    fn empty_sets_are_safe() {
        let m = LogisticModel::new(2);
        assert_eq!(m.accuracy(&[]), 0.0);
        assert_eq!(m.loss(&[]), 0.0);
        assert_eq!(m.gradient(&[]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn predict_rejects_wrong_dim() {
        LogisticModel::new(3).predict_proba(&[1.0]);
    }
}
