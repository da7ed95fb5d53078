//! Two-parameter (Dawid–Skene) truth discovery: per-source sensitivity
//! *and* specificity.
//!
//! The single-accuracy model in [`crate::em`] assumes a source is equally
//! likely to corrupt a true claim as a false one. Real human sensors are
//! asymmetric (ref \[1\]'s estimation-theoretic model): a witness rarely
//! *fabricates* an event (high specificity) but often *misses* one (low
//! sensitivity). This module estimates both per source:
//!
//! * sensitivity `a_i = P(i reports true | claim is true)`
//! * specificity `b_i = P(i reports false | claim is false)`
//!
//! and outperforms the symmetric model whenever the two differ.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scenario::Report;

/// Result of two-parameter truth discovery.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoParamEstimate {
    /// Posterior probability each claim is true.
    pub claim_posterior: Vec<f64>,
    /// Estimated per-source sensitivity.
    // lint: allow(unused-pub) — the per-source sensitivity DESIGN.md:59 names
    pub sensitivity: Vec<f64>,
    /// Estimated per-source specificity.
    // lint: allow(unused-pub) — the per-source specificity DESIGN.md:59 names
    pub specificity: Vec<f64>,
    /// EM iterations performed.
    pub iterations: usize,
    /// Whether EM converged before the iteration cap.
    pub converged: bool,
}

impl TwoParamEstimate {
    /// Hard claim decisions at threshold 0.5.
    pub fn claim_values(&self) -> Vec<bool> {
        self.claim_posterior.iter().map(|&p| p >= 0.5).collect()
    }
}

/// Configuration for the two-parameter EM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoParamConfig {
    /// Maximum EM iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the max posterior change.
    pub tolerance: f64,
    /// Prior probability a claim is true.
    pub claim_prior: f64,
    /// Beta pseudo-counts `(correct, incorrect)` regularizing both rates.
    pub rate_prior: (f64, f64),
}

impl Default for TwoParamConfig {
    fn default() -> Self {
        TwoParamConfig {
            max_iterations: 200,
            tolerance: 1e-6,
            claim_prior: 0.5,
            rate_prior: (4.0, 2.0),
        }
    }
}

/// Runs Dawid–Skene EM over binary reports.
///
/// ```
/// # use iobt_truth::em2::{asymmetric_scenario, discover_two_param, TwoParamConfig};
/// let (reports, truth, _, _) =
///     asymmetric_scenario(30, 100, 0.5, (0.35, 0.5), (0.92, 0.99), 1);
/// let est = discover_two_param(&reports, 30, 100, TwoParamConfig::default());
/// let correct = truth.iter().zip(est.claim_values())
///     .filter(|(t, e)| **t == *e).count();
/// assert!(correct as f64 / 100.0 > 0.75);
/// ```
///
/// # Panics
///
/// Panics if any report references a source or claim out of range.
// lint: allow(unused-pub) — runs the two-parameter Dawid–Skene fact-finder DESIGN.md:93 names
pub fn discover_two_param(
    reports: &[Report],
    num_sources: usize,
    num_claims: usize,
    config: TwoParamConfig,
) -> TwoParamEstimate {
    for r in reports {
        assert!(r.source < num_sources, "report source out of range");
        assert!(r.claim < num_claims, "report claim out of range");
    }
    let prior = config.claim_prior.clamp(1e-6, 1.0 - 1e-6);
    let mut posterior = vec![prior; num_claims];
    let mut sensitivity: Vec<f64> = vec![0.7; num_sources];
    let mut specificity: Vec<f64> = vec![0.7; num_sources];
    let mut by_claim: Vec<Vec<(usize, bool)>> = vec![Vec::new(); num_claims];
    for r in reports {
        by_claim[r.claim].push((r.source, r.value));
    }
    let mut iterations = 0;
    let mut converged = false;
    while iterations < config.max_iterations {
        iterations += 1;
        // E-step.
        let mut max_delta: f64 = 0.0;
        for (c, rs) in by_claim.iter().enumerate() {
            let mut log_true = prior.ln();
            let mut log_false = (1.0 - prior).ln();
            for &(s, value) in rs {
                let a = sensitivity[s].clamp(1e-6, 1.0 - 1e-6);
                let b = specificity[s].clamp(1e-6, 1.0 - 1e-6);
                if value {
                    log_true += a.ln();
                    log_false += (1.0 - b).ln();
                } else {
                    log_true += (1.0 - a).ln();
                    log_false += b.ln();
                }
            }
            let m = log_true.max(log_false);
            let pt = (log_true - m).exp();
            let pf = (log_false - m).exp();
            let p = pt / (pt + pf);
            max_delta = max_delta.max((p - posterior[c]).abs());
            posterior[c] = p;
        }
        // M-step: expected counts per source, split by latent truth.
        let (pa, pb) = config.rate_prior;
        let mut true_hits = vec![pa; num_sources]; // reported true & claim true
        let mut true_total = vec![pa + pb; num_sources]; // claim true
        let mut false_hits = vec![pa; num_sources]; // reported false & claim false
        let mut false_total = vec![pa + pb; num_sources]; // claim false
        for r in reports {
            let p_true = posterior[r.claim];
            true_total[r.source] += p_true;
            false_total[r.source] += 1.0 - p_true;
            if r.value {
                true_hits[r.source] += p_true;
            } else {
                false_hits[r.source] += 1.0 - p_true;
            }
        }
        for s in 0..num_sources {
            sensitivity[s] = true_hits[s] / true_total[s];
            specificity[s] = false_hits[s] / false_total[s];
        }
        if max_delta < config.tolerance {
            converged = true;
            break;
        }
    }
    TwoParamEstimate {
        claim_posterior: posterior,
        sensitivity,
        specificity,
        iterations,
        converged,
    }
}

/// Generates an *asymmetric* social-sensing scenario: honest witnesses
/// rarely fabricate (specificity ~ `spec`) but often miss events
/// (sensitivity ~ `sens`). Returns `(reports, truth, sens_truth,
/// spec_truth)`.
// lint: allow(unused-pub) — generates the asymmetric witnesses DESIGN.md:59 names for em2
pub fn asymmetric_scenario(
    num_sources: usize,
    num_claims: usize,
    observe_prob: f64,
    sens: (f64, f64),
    spec: (f64, f64),
    seed: u64,
) -> (Vec<Report>, Vec<bool>, Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let truth: Vec<bool> = (0..num_claims).map(|_| rng.gen::<f64>() < 0.5).collect();
    let sample = |rng: &mut StdRng, (lo, hi): (f64, f64)| {
        if hi > lo {
            rng.gen_range(lo..hi)
        } else {
            lo
        }
    };
    let sens_truth: Vec<f64> = (0..num_sources).map(|_| sample(&mut rng, sens)).collect();
    let spec_truth: Vec<f64> = (0..num_sources).map(|_| sample(&mut rng, spec)).collect();
    let mut reports = Vec::new();
    for s in 0..num_sources {
        for (c, &t) in truth.iter().enumerate() {
            if rng.gen::<f64>() >= observe_prob {
                continue;
            }
            let value = if t {
                rng.gen::<f64>() < sens_truth[s]
            } else {
                rng.gen::<f64>() >= spec_truth[s]
            };
            reports.push(Report {
                source: s,
                claim: c,
                value,
            });
        }
    }
    (reports, truth, sens_truth, spec_truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::{discover, EmConfig};
    use crate::scenario::ScenarioBuilder;

    fn score(truth: &[bool], estimates: &[bool]) -> f64 {
        let correct = truth
            .iter()
            .zip(estimates)
            .filter(|(t, e)| t == e)
            .count();
        correct as f64 / truth.len().max(1) as f64
    }

    #[test]
    fn recovers_truth_on_symmetric_data() {
        let s = ScenarioBuilder::new(40, 150).observe_prob(0.4).build(1);
        let est = discover_two_param(
            &s.reports,
            s.num_sources,
            s.num_claims,
            TwoParamConfig::default(),
        );
        assert!(s.score_claims(&est.claim_values()) > 0.85);
    }

    #[test]
    fn beats_symmetric_em_on_asymmetric_sources() {
        // Witnesses: high specificity (0.93-0.99), low sensitivity
        // (0.3-0.5). A "true" report is strong evidence; silence is weak.
        let mut two_wins = 0;
        for seed in 0..5 {
            let (reports, truth, _, _) =
                asymmetric_scenario(40, 200, 0.5, (0.3, 0.5), (0.93, 0.99), seed);
            let two = discover_two_param(&reports, 40, 200, TwoParamConfig::default());
            let one = discover(&reports, 40, 200, EmConfig::default());
            let two_acc = score(&truth, &two.claim_values());
            let one_acc = score(&truth, &one.claim_values());
            if two_acc >= one_acc {
                two_wins += 1;
            }
        }
        assert!(
            two_wins >= 4,
            "two-parameter model should win on asymmetric data: {two_wins}/5"
        );
    }

    #[test]
    fn estimates_sensitivity_and_specificity_separately() {
        let (reports, _, sens_truth, spec_truth) =
            asymmetric_scenario(30, 400, 0.8, (0.35, 0.45), (0.9, 0.98), 7);
        let est = discover_two_param(&reports, 30, 400, TwoParamConfig::default());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // Estimated rates should track the generating regimes.
        assert!(
            (mean(&est.sensitivity) - mean(&sens_truth)).abs() < 0.12,
            "sensitivity: est {} vs truth {}",
            mean(&est.sensitivity),
            mean(&sens_truth)
        );
        assert!(
            (mean(&est.specificity) - mean(&spec_truth)).abs() < 0.12,
            "specificity: est {} vs truth {}",
            mean(&est.specificity),
            mean(&spec_truth)
        );
        // And the asymmetry must be visible.
        assert!(mean(&est.specificity) > mean(&est.sensitivity) + 0.2);
    }

    #[test]
    fn empty_reports_stay_at_prior() {
        let est = discover_two_param(&[], 3, 4, TwoParamConfig::default());
        assert!(est.claim_posterior.iter().all(|&p| (p - 0.5).abs() < 1e-9));
        assert!(est.converged);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_reports() {
        let r = [Report {
            source: 0,
            claim: 9,
            value: true,
        }];
        discover_two_param(&r, 1, 2, TwoParamConfig::default());
    }

    #[test]
    fn deterministic_scenario_generation() {
        let a = asymmetric_scenario(10, 20, 0.5, (0.4, 0.6), (0.8, 0.9), 3);
        let b = asymmetric_scenario(10, 20, 0.5, (0.4, 0.6), (0.8, 0.9), 3);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }
}
