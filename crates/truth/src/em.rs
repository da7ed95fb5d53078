//! Expectation-maximization truth discovery.
//!
//! Implements the estimation-theoretic fact-finder of the social-sensing
//! literature the paper builds on (refs \[1\], \[2\]): claims have latent binary
//! truth values, sources have latent accuracies, and EM alternates between
//! (E) computing claim posteriors given source accuracies and (M) re-
//! estimating source accuracies given claim posteriors — the binary
//! Dawid–Skene model. Adversarial sources converge to accuracy < 0.5 and
//! their reports are automatically *inverted* by the posterior, which is
//! exactly the resilience property §V-A asks for.

use crate::scenario::Report;

/// Result of a truth-discovery run.
#[derive(Debug, Clone, PartialEq)]
pub struct TruthEstimate {
    /// Posterior probability each claim is true.
    pub claim_posterior: Vec<f64>,
    /// Estimated accuracy of each source (probability its reports match
    /// the truth).
    pub source_accuracy: Vec<f64>,
    /// EM iterations performed.
    pub iterations: usize,
    /// Whether the run converged before the iteration cap.
    pub converged: bool,
}

impl TruthEstimate {
    /// Hard claim decisions at threshold 0.5.
    pub fn claim_values(&self) -> Vec<bool> {
        self.claim_posterior.iter().map(|&p| p >= 0.5).collect()
    }

    /// Sources whose estimated accuracy is below `threshold` — suspected
    /// bad/adversarial sources (information diagnostics, §V-A).
    pub fn suspected_sources(&self, threshold: f64) -> Vec<usize> {
        self.source_accuracy
            .iter()
            .enumerate()
            .filter(|(_, &a)| a < threshold)
            .map(|(i, _)| i)
            .collect()
    }
}

/// EM configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmConfig {
    /// Maximum EM iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the max posterior change.
    pub tolerance: f64,
    /// Prior probability a claim is true.
    pub claim_prior: f64,
    /// Beta-prior pseudo-counts regularizing accuracy estimates
    /// (`alpha` correct, `beta` incorrect).
    pub accuracy_prior: (f64, f64),
}

impl Default for EmConfig {
    fn default() -> Self {
        EmConfig {
            max_iterations: 100,
            tolerance: 1e-6,
            claim_prior: 0.5,
            accuracy_prior: (4.0, 2.0),
        }
    }
}

/// Runs EM truth discovery over `reports` covering `num_sources` sources
/// and `num_claims` claims.
///
/// Sources or claims without any report fall back to their priors.
///
/// # Panics
///
/// Panics if any report references a source or claim out of range.
///
/// ```
/// # use iobt_truth::scenario::ScenarioBuilder;
/// # use iobt_truth::em::{discover, EmConfig};
/// let s = ScenarioBuilder::new(30, 100).observe_prob(0.4).build(1);
/// let est = discover(&s.reports, s.num_sources, s.num_claims, EmConfig::default());
/// assert!(s.score_claims(&est.claim_values()) > 0.85);
/// ```
pub fn discover(
    reports: &[Report],
    num_sources: usize,
    num_claims: usize,
    config: EmConfig,
) -> TruthEstimate {
    for r in reports {
        assert!(r.source < num_sources, "report source out of range");
        assert!(r.claim < num_claims, "report claim out of range");
    }
    let claim_prior = config.claim_prior.clamp(1e-6, 1.0 - 1e-6);
    let mut posterior = vec![claim_prior; num_claims];
    let mut accuracy: Vec<f64> = vec![0.7; num_sources];
    // Pre-index reports by claim for the E-step.
    let mut by_claim: Vec<Vec<(usize, bool)>> = vec![Vec::new(); num_claims];
    for r in reports {
        by_claim[r.claim].push((r.source, r.value));
    }
    let mut iterations = 0;
    let mut converged = false;
    while iterations < config.max_iterations {
        iterations += 1;
        // E-step: claim posteriors from source accuracies.
        let mut max_delta: f64 = 0.0;
        for (c, rs) in by_claim.iter().enumerate() {
            let mut log_true = claim_prior.ln();
            let mut log_false = (1.0 - claim_prior).ln();
            for &(s, value) in rs {
                let a = accuracy[s].clamp(1e-6, 1.0 - 1e-6);
                if value {
                    log_true += a.ln();
                    log_false += (1.0 - a).ln();
                } else {
                    log_true += (1.0 - a).ln();
                    log_false += a.ln();
                }
            }
            let m = log_true.max(log_false);
            let pt = (log_true - m).exp();
            let pf = (log_false - m).exp();
            let p = pt / (pt + pf);
            max_delta = max_delta.max((p - posterior[c]).abs());
            posterior[c] = p;
        }
        // M-step: source accuracies from claim posteriors (expected
        // correct-report counts with a Beta prior).
        let (pa, pb) = config.accuracy_prior;
        let mut correct = vec![pa; num_sources];
        let mut total = vec![pa + pb; num_sources];
        for r in reports {
            let p_true = posterior[r.claim];
            let p_match = if r.value { p_true } else { 1.0 - p_true };
            correct[r.source] += p_match;
            total[r.source] += 1.0;
        }
        for s in 0..num_sources {
            accuracy[s] = correct[s] / total[s];
        }
        if max_delta < config.tolerance {
            converged = true;
            break;
        }
    }
    TruthEstimate {
        claim_posterior: posterior,
        source_accuracy: accuracy,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;

    /// Streaming EM: accumulates report batches as they arrive and, after
    /// each one, re-runs [`discover`] from scratch over every report seen so
    /// far — no state carries from one batch's EM to the next. Suited to the
    /// continuous, never-ending learning setting of §V-B.
    struct StreamingDiscoverer {
        num_sources: usize,
        num_claims: usize,
        config: EmConfig,
        reports: Vec<Report>,
        latest: Option<TruthEstimate>,
    }

    impl StreamingDiscoverer {
        /// Creates a streaming discoverer for a fixed source/claim universe.
        fn new(num_sources: usize, num_claims: usize, config: EmConfig) -> Self {
            StreamingDiscoverer {
                num_sources,
                num_claims,
                config,
                reports: Vec::new(),
                latest: None,
            }
        }

        /// Ingests a batch of reports and re-runs EM over everything seen so
        /// far.
        fn ingest(&mut self, batch: &[Report]) -> &TruthEstimate {
            self.reports.extend_from_slice(batch);
            let est = discover(&self.reports, self.num_sources, self.num_claims, self.config);
            self.latest.insert(est)
        }
    }

    #[test]
    fn em_beats_chance_and_estimates_reliability() {
        let s = ScenarioBuilder::new(40, 200).observe_prob(0.3).build(1);
        let est = discover(&s.reports, s.num_sources, s.num_claims, EmConfig::default());
        let acc = s.score_claims(&est.claim_values());
        assert!(acc > 0.85, "claim accuracy {acc}");
        assert!(s.reliability_rmse(&est.source_accuracy) < 0.2);
    }

    #[test]
    fn adversarial_sources_get_low_estimated_accuracy() {
        let s = ScenarioBuilder::new(60, 150)
            .adversarial_fraction(0.3)
            .observe_prob(0.4)
            .build(2);
        let est = discover(&s.reports, s.num_sources, s.num_claims, EmConfig::default());
        let suspected = est.suspected_sources(0.5);
        // Most adversaries should be flagged.
        let adversaries: Vec<usize> = s
            .adversarial
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| i)
            .collect();
        let caught = adversaries.iter().filter(|a| suspected.contains(a)).count();
        assert!(
            caught as f64 / adversaries.len() as f64 > 0.8,
            "caught {caught}/{}",
            adversaries.len()
        );
    }

    #[test]
    fn unreported_claims_stay_at_prior() {
        let est = discover(&[], 3, 5, EmConfig::default());
        assert!(est.claim_posterior.iter().all(|&p| (p - 0.5).abs() < 1e-9));
        assert!(est.converged);
    }

    #[test]
    fn posteriors_are_probabilities() {
        let s = ScenarioBuilder::new(20, 50).build(3);
        let est = discover(&s.reports, s.num_sources, s.num_claims, EmConfig::default());
        assert!(est
            .claim_posterior
            .iter()
            .all(|&p| (0.0..=1.0).contains(&p)));
        assert!(est
            .source_accuracy
            .iter()
            .all(|&a| (0.0..=1.0).contains(&a)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_reports() {
        let r = [Report {
            source: 5,
            claim: 0,
            value: true,
        }];
        discover(&r, 3, 3, EmConfig::default());
    }

    #[test]
    fn em_recovers_from_inverted_majority_when_reliable_minority_exists() {
        // 3 highly reliable honest sources vs 5 noisy ones: EM should weight
        // the reliable minority above uniform voting.
        let s = ScenarioBuilder::new(8, 300)
            .honest_reliability(0.55, 0.6)
            .observe_prob(1.0)
            .build(4);
        // Manually boost three sources to near-perfect by regenerating their
        // reports from truth.
        let mut reports = s.reports.clone();
        for r in &mut reports {
            if r.source < 3 {
                r.value = s.truth[r.claim];
            }
        }
        let est = discover(&reports, s.num_sources, s.num_claims, EmConfig::default());
        let acc = s.score_claims(&est.claim_values());
        assert!(acc > 0.9, "EM exploits reliable minority: {acc}");
        assert!(est.source_accuracy[0] > 0.9);
    }

    #[test]
    fn streaming_ingestion_improves_with_data() {
        let s = ScenarioBuilder::new(30, 100).observe_prob(0.5).build(5);
        let mut stream = StreamingDiscoverer::new(s.num_sources, s.num_claims, EmConfig::default());
        let third = s.reports.len() / 3;
        let first = stream.ingest(&s.reports[..third]).clone();
        let all = stream.ingest(&s.reports[third..]).clone();
        let acc_first = s.score_claims(&first.claim_values());
        let acc_all = s.score_claims(&all.claim_values());
        assert!(acc_all >= acc_first - 0.05, "{acc_first} -> {acc_all}");
        assert!(stream.latest.is_some());
    }

    #[test]
    fn convergence_flag_and_iteration_cap() {
        let s = ScenarioBuilder::new(10, 20).build(6);
        let est = discover(
            &s.reports,
            s.num_sources,
            s.num_claims,
            EmConfig {
                max_iterations: 1,
                ..EmConfig::default()
            },
        );
        assert_eq!(est.iterations, 1);
        assert!(!est.converged);
    }
}
