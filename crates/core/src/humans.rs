//! Human-asset characterization: bootstrapping trust from report history.
//!
//! §III-A ("Human assets"): social sensing offers "estimation-theoretic
//! and system identification-based approaches to characterize human
//! sources … to offer a foundation for identifying and characterizing
//! human components that work in various capacities within an IoBT."
//!
//! This module closes the loop between the [truth-discovery
//! service](iobt_truth) and the [trust ledger](iobt_types::TrustLedger):
//! humans file claims, the EM fact-finder estimates each source's
//! accuracy *without ground truth*, and that estimate becomes trust
//! evidence gating future recruitment.

use iobt_truth::{Report, TruthEstimate};
use iobt_types::{NodeId, TrustLedger};

/// Folds an EM [`TruthEstimate`] into the trust ledger.
///
/// `source_ids[i]` is the node behind source index `i`. Each source's
/// estimated accuracy `a` over its `n` filed reports becomes
/// `round(a·n)` positive and `n − round(a·n)` negative evidence — so
/// prolific accurate witnesses gain trust fast, prolific liars lose it
/// fast, and silent sources are left untouched.
///
/// Sources must already be enrolled in the ledger; unknown ids are
/// skipped like silent ones.
pub fn calibrate_human_trust(
    ledger: &mut TrustLedger,
    estimate: &TruthEstimate,
    reports: &[Report],
    source_ids: &[NodeId],
) {
    let mut report_counts = vec![0usize; source_ids.len()];
    for r in reports {
        if r.source < report_counts.len() {
            report_counts[r.source] += 1;
        }
    }
    for (i, &id) in source_ids.iter().enumerate() {
        let n = report_counts[i];
        if n == 0 || ledger.score(id).is_none() {
            continue;
        }
        let accuracy = estimate
            .source_accuracy
            .get(i)
            .copied()
            .unwrap_or(0.5)
            .clamp(0.0, 1.0);
        let positives = (accuracy * n as f64).round() as usize;
        for _ in 0..positives {
            ledger.record_positive(id);
        }
        for _ in 0..n.saturating_sub(positives) {
            ledger.record_negative(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iobt_truth::{discover, EmConfig, ScenarioBuilder};
    use iobt_types::Affiliation;

    #[test]
    fn accurate_witnesses_gain_trust_liars_lose_it() {
        let s = ScenarioBuilder::new(30, 150)
            .observe_prob(0.5)
            .adversarial_fraction(0.3)
            .build(5);
        let estimate = discover(&s.reports, s.num_sources, s.num_claims, EmConfig::default());
        let source_ids: Vec<NodeId> = (0..30).map(|i| NodeId::new(i as u64)).collect();
        let mut ledger = TrustLedger::new();
        for &id in &source_ids {
            ledger.enroll(id, Affiliation::Gray);
        }
        let before: Vec<f64> = source_ids
            .iter()
            .map(|&id| ledger.score(id).unwrap().value())
            .collect();
        calibrate_human_trust(&mut ledger, &estimate, &s.reports, &source_ids);
        // Adversaries (ground truth) should have lost trust; honest
        // high-reliability sources should have gained.
        let mut adv_deltas = Vec::new();
        let mut honest_deltas = Vec::new();
        for (i, &id) in source_ids.iter().enumerate() {
            let delta = ledger.score(id).unwrap().value() - before[i];
            if s.adversarial[i] {
                adv_deltas.push(delta);
            } else if s.reliability[i] > 0.8 {
                honest_deltas.push(delta);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(mean(&adv_deltas) < -0.1, "liars lose trust: {}", mean(&adv_deltas));
        assert!(
            mean(&honest_deltas) > 0.1,
            "good witnesses gain trust: {}",
            mean(&honest_deltas)
        );
    }

    #[test]
    fn silent_and_unenrolled_sources_are_skipped() {
        let s = ScenarioBuilder::new(3, 20).observe_prob(0.0).build(1);
        let estimate = discover(&s.reports, 3, 20, EmConfig::default());
        let ids = vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let mut ledger = TrustLedger::new();
        ledger.enroll(NodeId::new(1), Affiliation::Gray);
        let before = ledger.score(NodeId::new(1)).unwrap();
        calibrate_human_trust(&mut ledger, &estimate, &s.reports, &ids);
        assert_eq!(ledger.score(NodeId::new(1)).unwrap(), before, "no reports, no updates");
    }

    #[test]
    fn calibration_gates_future_recruitment() {
        // A liar that started at the neutral gray prior should fall below
        // the default recruitment trust floor after calibration. (Kept
        // below 50% adversarial mass — at 50/50 the truth-discovery
        // problem loses identifiability and EM may lock onto the inverted
        // labeling.)
        let s = ScenarioBuilder::new(20, 200)
            .observe_prob(0.8)
            .adversarial_fraction(0.3)
            .build(9);
        let estimate = discover(&s.reports, s.num_sources, s.num_claims, EmConfig::default());
        let ids: Vec<NodeId> = (0..20).map(|i| NodeId::new(i as u64)).collect();
        let mut ledger = TrustLedger::new();
        for &id in &ids {
            ledger.enroll(id, Affiliation::Gray);
        }
        calibrate_human_trust(&mut ledger, &estimate, &s.reports, &ids);
        for (i, &id) in ids.iter().enumerate() {
            let score = ledger.score(id).unwrap().value();
            if s.adversarial[i] {
                assert!(score < 0.4, "source {i} should be distrusted: {score}");
            }
        }
    }
}
