//! Synthetic social-sensing scenarios.
//!
//! The paper's social-sensing line of work (refs \[1\]–\[4\]) models humans as
//! unreliable sensors making binary claims about world state. With no real
//! crowdsensing corpus available, we generate scenarios from the same
//! estimation-theoretic model those papers analyze: each source `i` has a
//! latent reliability `t_i` (probability of reporting the true value of a
//! claim it observes), adversarial sources *invert* the truth, and each
//! source observes a random subset of claims.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Index of a source (a human reporter or sensing node).
pub type SourceId = usize;
/// Index of a claim (a binary statement about the world).
pub type ClaimId = usize;

/// One assertion: `source` says `claim` has truth-value `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Reporting source.
    pub source: SourceId,
    /// Claim being asserted.
    pub claim: ClaimId,
    /// Asserted polarity.
    pub value: bool,
}

/// A generated scenario with ground truth attached.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Number of sources.
    pub num_sources: usize,
    /// Number of claims.
    pub num_claims: usize,
    /// All reports, in generation order.
    pub reports: Vec<Report>,
    /// Ground-truth claim values.
    pub truth: Vec<bool>,
    /// Ground-truth per-source reliability (probability of honest and
    /// correct reporting; adversarial sources have low values).
    pub reliability: Vec<f64>,
    /// Which sources are adversarial (systematically inverting truth).
    pub adversarial: Vec<bool>,
}

/// Configures scenario generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioBuilder {
    num_sources: usize,
    num_claims: usize,
    observe_prob: f64,
    honest_reliability: (f64, f64),
    adversarial_fraction: f64,
}

/// Fraction of claims whose ground truth is `true`.
const TRUE_CLAIM_FRACTION: f64 = 0.5;

impl ScenarioBuilder {
    /// Starts a scenario with `num_sources` sources and `num_claims` claims.
    pub fn new(num_sources: usize, num_claims: usize) -> Self {
        ScenarioBuilder {
            num_sources,
            num_claims,
            observe_prob: 0.3,
            honest_reliability: (0.6, 0.95),
            adversarial_fraction: 0.0,
        }
    }

    /// Probability each source observes each claim (matrix density).
    pub fn observe_prob(mut self, p: f64) -> Self {
        self.observe_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Range of honest-source reliabilities (uniformly sampled).
    pub fn honest_reliability(mut self, lo: f64, hi: f64) -> Self {
        let lo = lo.clamp(0.0, 1.0);
        let hi = hi.clamp(lo, 1.0);
        self.honest_reliability = (lo, hi);
        self
    }

    /// Fraction of sources that are adversarial truth-inverters.
    pub fn adversarial_fraction(mut self, f: f64) -> Self {
        self.adversarial_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Generates the scenario deterministically from `seed`.
    // `s` and `c` are source/claim identifiers stored in the reports, not
    // just indices, so the range loops are the clearest form here.
    #[allow(clippy::needless_range_loop)]
    pub fn build(&self, seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let truth: Vec<bool> = (0..self.num_claims)
            .map(|_| rng.gen::<f64>() < TRUE_CLAIM_FRACTION)
            .collect();
        // Draw exactly round(fraction·n) adversaries rather than Bernoulli
        // per source: a chance draw near 50% adversarial mass pushes the
        // truth-discovery problem past its identifiability boundary (the
        // inverted labeling becomes likelihood-favored), which no caller
        // asking for a 30% adversary scenario expects.
        let num_adv = (self.adversarial_fraction * self.num_sources as f64).round() as usize;
        let mut adversarial = vec![false; self.num_sources];
        let mut indices: Vec<usize> = (0..self.num_sources).collect();
        indices.shuffle(&mut rng);
        for &i in indices.iter().take(num_adv.min(self.num_sources)) {
            adversarial[i] = true;
        }
        let mut reliability = Vec::with_capacity(self.num_sources);
        for s in 0..self.num_sources {
            if adversarial[s] {
                // Adversaries lie most of the time; their effective
                // probability of reporting the truth is low.
                reliability.push(rng.gen_range(0.05..0.25));
            } else {
                let (lo, hi) = self.honest_reliability;
                reliability.push(if hi > lo { rng.gen_range(lo..hi) } else { lo });
            }
        }
        let mut reports = Vec::new();
        for s in 0..self.num_sources {
            for c in 0..self.num_claims {
                if rng.gen::<f64>() >= self.observe_prob {
                    continue;
                }
                let correct = rng.gen::<f64>() < reliability[s];
                let value = if correct { truth[c] } else { !truth[c] };
                reports.push(Report {
                    source: s,
                    claim: c,
                    value,
                });
            }
        }
        Scenario {
            num_sources: self.num_sources,
            num_claims: self.num_claims,
            reports,
            truth,
            reliability,
            adversarial,
        }
    }
}

impl Scenario {
    /// Scores estimated claim values against ground truth, returning the
    /// fraction correct. Estimates shorter than the claim count score the
    /// missing tail as wrong.
    pub fn score_claims(&self, estimates: &[bool]) -> f64 {
        if self.num_claims == 0 {
            return 0.0;
        }
        let correct = self
            .truth
            .iter()
            .enumerate()
            .filter(|&(c, &t)| estimates.get(c) == Some(&t))
            .count();
        correct as f64 / self.num_claims as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Scenario {
        /// Root-mean-square error between estimated and true source
        /// reliabilities (over sources present in both).
        pub(crate) fn reliability_rmse(&self, estimates: &[f64]) -> f64 {
            let n = self.reliability.len().min(estimates.len());
            if n == 0 {
                return 0.0;
            }
            let sq: f64 = self
                .reliability
                .iter()
                .zip(estimates)
                .take(n)
                .map(|(t, e)| (t - e) * (t - e))
                .sum();
            (sq / n as f64).sqrt()
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let b = ScenarioBuilder::new(20, 50);
        assert_eq!(b.build(1), b.build(1));
        assert_ne!(b.build(1), b.build(2));
    }

    #[test]
    fn density_controls_report_count() {
        let sparse = ScenarioBuilder::new(50, 100).observe_prob(0.1).build(3);
        let dense = ScenarioBuilder::new(50, 100).observe_prob(0.9).build(3);
        assert!(dense.reports.len() > sparse.reports.len() * 4);
    }

    #[test]
    fn adversarial_sources_have_low_reliability() {
        let s = ScenarioBuilder::new(200, 10)
            .adversarial_fraction(0.5)
            .build(4);
        for (i, &adv) in s.adversarial.iter().enumerate() {
            if adv {
                assert!(s.reliability[i] < 0.3);
            } else {
                assert!(s.reliability[i] >= 0.6);
            }
        }
        let adv_count = s.adversarial.iter().filter(|&&a| a).count();
        assert!((adv_count as f64 / 200.0 - 0.5).abs() < 0.12);
    }

    #[test]
    fn highly_reliable_sources_mostly_report_truth() {
        let s = ScenarioBuilder::new(5, 400)
            .honest_reliability(0.95, 0.99)
            .observe_prob(1.0)
            .build(5);
        for src in 0..5 {
            let reports: Vec<&Report> = s.reports.iter().filter(|r| r.source == src).collect();
            let correct = reports
                .iter()
                .filter(|r| r.value == s.truth[r.claim])
                .count();
            let frac = correct as f64 / reports.len() as f64;
            assert!(frac > 0.9, "source {src} correct fraction {frac}");
        }
    }

    #[test]
    fn score_claims_handles_short_estimates() {
        let s = ScenarioBuilder::new(2, 4).build(6);
        assert_eq!(s.score_claims(&s.truth), 1.0);
        let empty: Vec<bool> = Vec::new();
        assert_eq!(s.score_claims(&empty), 0.0);
    }

    #[test]
    fn reliability_rmse_zero_for_exact() {
        let s = ScenarioBuilder::new(10, 10).build(7);
        assert_eq!(s.reliability_rmse(&s.reliability), 0.0);
        assert!(s.reliability_rmse(&[0.0; 10]) > 0.0);
    }
}
