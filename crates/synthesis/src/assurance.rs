//! Compositional assurance: quantifying the probability a composed asset
//! keeps meeting its requirement under failures.
//!
//! §III: "the aggregate properties of the composite, including timeliness,
//! performance/functionality, security, and dependability, must be formally
//! assured in an appropriately quantifiable and operationally relevant
//! manner, subject to well-understood assumptions." The assumption here:
//! nodes fail independently, node `i` with probability `p_i` (derived from
//! trust and energy). Under that model the per-pair survival probability
//! has a closed form, and mission success probability is estimated both
//! analytically (expected surviving coverage) and by Monte Carlo (exact up
//! to sampling error). Experiment `t3_assurance` validates the prediction
//! against actual failure injection.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::problem::CompositionProblem;

/// Assurance prediction for a composed selection.
#[derive(Debug, Clone, PartialEq)]
pub struct AssuranceReport {
    /// Expected fraction of required pairs keeping redundancy ≥ k after
    /// failures (analytic).
    pub expected_coverage: f64,
    /// Monte-Carlo estimate of P(mission stays satisfied).
    pub success_probability: f64,
}

/// Per-node failure probability from its trust score: distrusted assets
/// are modelled as more likely to defect/fail. `p = base + (1 - trust) * scale`,
/// clamped to `[0, 0.95]`.
pub fn failure_probability(trust: f64, base: f64, scale: f64) -> f64 {
    (base + (1.0 - trust.clamp(0.0, 1.0)) * scale).clamp(0.0, 0.95)
}

/// Computes the assurance report for a selection.
///
/// `node_failure[i]` is the failure probability of `selection[i]`'s
/// candidate (parallel arrays). The analytic part computes, per pair, the
/// probability that at least `k` of its covering selected nodes survive
/// (exact dynamic programming over the coverer set — no independence
/// approximation beyond the failure model itself).
///
/// # Panics
///
/// Panics when `selection` and `node_failure` lengths differ.
pub fn assess(
    problem: &CompositionProblem,
    selection: &[usize],
    node_failure: &[f64],
    trials: usize,
    seed: u64,
) -> AssuranceReport {
    assert_eq!(
        selection.len(),
        node_failure.len(),
        "one failure probability per selected node"
    );
    let k = problem.redundancy;
    // Coverers per pair.
    let mut coverers: Vec<Vec<usize>> = vec![Vec::new(); problem.pair_count];
    for (si, &ci) in selection.iter().enumerate() {
        for p in problem.candidates[ci].covers.iter() {
            coverers[p as usize].push(si);
        }
    }
    // Analytic per-pair survival: P(#survivors >= k) via DP on the
    // Poisson-binomial distribution of its coverers.
    let expected_coverage = if coverers.is_empty() {
        1.0
    } else {
        coverers
            .iter()
            .map(|cs| poisson_binomial_at_least(cs.iter().map(|&si| 1.0 - node_failure[si]), k))
            .sum::<f64>()
            / coverers.len() as f64
    };
    // Monte Carlo mission success.
    let needed = ((problem.required_fraction * problem.pair_count as f64).ceil() as usize)
        .min(problem.pair_count);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut successes = 0usize;
    for _ in 0..trials {
        let alive: Vec<bool> = node_failure.iter().map(|&p| rng.gen::<f64>() >= p).collect();
        let satisfied = coverers
            .iter()
            .filter(|cs| cs.iter().filter(|&&si| alive[si]).count() >= k)
            .count();
        if satisfied >= needed {
            successes += 1;
        }
    }
    AssuranceReport {
        expected_coverage,
        success_probability: if trials == 0 {
            0.0
        } else {
            successes as f64 / trials as f64
        },
    }
}

/// P(at least `k` of independent Bernoulli trials with probabilities `ps`
/// succeed), via the standard O(n·k) DP.
fn poisson_binomial_at_least(ps: impl Iterator<Item = f64>, k: usize) -> f64 {
    // dp[j] = P(exactly j successes so far) for j < k; dp[k] absorbs
    // "k or more". Updating in descending j keeps the pass in place.
    let mut dp = vec![0.0; k + 1];
    dp[0] = 1.0;
    for p in ps {
        for j in (0..=k).rev() {
            let promoted = if j > 0 { dp[j - 1] * p } else { 0.0 };
            dp[j] = if j == k {
                dp[k] + promoted // absorbed mass never leaves
            } else {
                dp[j] * (1.0 - p) + promoted
            };
        }
    }
    dp[k]
}

#[cfg(test)]
mod tests {
    use super::*;
    use iobt_types::{
        Affiliation, EnergyBudget, Mission, MissionId, MissionKind, NodeId, NodeSpec, Point, Rect,
        Sensor, SensorKind,
    };

    fn poisson_binomial_reference(ps: &[f64], k: usize) -> f64 {
        // Brute force over all outcomes.
        let n = ps.len();
        let mut total = 0.0;
        for mask in 0u32..(1 << n) {
            let mut prob = 1.0;
            let mut successes = 0;
            for (i, &p) in ps.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    prob *= p;
                    successes += 1;
                } else {
                    prob *= 1.0 - p;
                }
            }
            if successes >= k {
                total += prob;
            }
        }
        total
    }

    #[test]
    fn poisson_binomial_matches_bruteforce() {
        let cases: Vec<(Vec<f64>, usize)> = vec![
            (vec![0.9, 0.8, 0.7], 1),
            (vec![0.9, 0.8, 0.7], 2),
            (vec![0.9, 0.8, 0.7], 3),
            (vec![0.5; 6], 3),
            (vec![0.99, 0.01], 1),
            (vec![], 1),
            (vec![0.3], 0),
        ];
        for (ps, k) in cases {
            let dp = poisson_binomial_at_least(ps.iter().copied(), k);
            let brute = poisson_binomial_reference(&ps, k);
            assert!(
                (dp - brute).abs() < 1e-9,
                "ps={ps:?} k={k}: dp={dp} brute={brute}"
            );
        }
    }

    fn problem_with_nodes(nodes: &[NodeSpec], k: usize) -> CompositionProblem {
        let m = Mission::builder(MissionId::new(1), MissionKind::Surveillance)
            .area(Rect::square(100.0))
            .require_modality(SensorKind::Visual)
            .coverage_fraction(1.0)
            .resilience(k)
            .build();
        CompositionProblem::from_mission(&m, nodes, 2)
    }

    fn coverer(id: u64) -> NodeSpec {
        NodeSpec::builder(NodeId::new(id))
            .affiliation(Affiliation::Blue)
            .position(Point::new(50.0, 50.0))
            .sensor(Sensor::new(SensorKind::Visual, 200.0, 0.9))
            .energy(EnergyBudget::unlimited())
            .build()
    }

    #[test]
    fn redundant_coverage_survives_better() {
        let nodes = vec![coverer(0), coverer(1), coverer(2)];
        let p = problem_with_nodes(&nodes, 1);
        let single = assess(&p, &[0], &[0.3], 2_000, 1);
        let triple = assess(&p, &[0, 1, 2], &[0.3, 0.3, 0.3], 2_000, 1);
        assert!(triple.success_probability > single.success_probability);
        assert!(triple.expected_coverage > single.expected_coverage);
    }

    #[test]
    fn analytic_matches_monte_carlo() {
        let nodes = vec![coverer(0), coverer(1)];
        let p = problem_with_nodes(&nodes, 1);
        let report = assess(&p, &[0, 1], &[0.4, 0.2], 20_000, 2);
        // Every pair has the same two coverers: survival = 1 - 0.4*0.2.
        let expected = 1.0 - 0.4 * 0.2;
        assert!((report.expected_coverage - expected).abs() < 1e-9);
        // With full coverage required, success prob equals pair survival.
        assert!((report.success_probability - expected).abs() < 0.02);
    }

    #[test]
    fn zero_failure_probability_guarantees_success() {
        let nodes = vec![coverer(0)];
        let p = problem_with_nodes(&nodes, 1);
        let report = assess(&p, &[0], &[0.0], 500, 3);
        assert_eq!(report.success_probability, 1.0);
        assert!((report.expected_coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn failure_probability_mapping() {
        assert!(failure_probability(1.0, 0.05, 0.5) < failure_probability(0.0, 0.05, 0.5));
        assert_eq!(failure_probability(1.0, 0.05, 0.5), 0.05);
        assert!(failure_probability(-5.0, 0.9, 1.0) <= 0.95);
    }

    #[test]
    #[should_panic(expected = "one failure probability")]
    fn assess_validates_lengths() {
        let nodes = vec![coverer(0)];
        let p = problem_with_nodes(&nodes, 1);
        assess(&p, &[0], &[0.1, 0.2], 10, 0);
    }
}
