//! Trust scores and evidence-based trust ledgers.
//!
//! §III-A of the paper lists "reliability, trust and security" among the
//! capabilities that recruitment must characterize. We model trust as a
//! Beta-reputation system: each node accumulates positive and negative
//! evidence, and its [`TrustScore`] is the posterior mean of a Beta
//! distribution seeded by the node's [`Affiliation`] prior.

use std::collections::HashMap;
use std::fmt;

use crate::{Affiliation, NodeId};

/// A trust value in `[0, 1]`.
///
/// `0.0` means "certainly adversarial", `1.0` means "fully trusted".
/// Construction clamps out-of-range and non-finite inputs.
///
/// ```
/// # use iobt_types::TrustScore;
/// assert_eq!(TrustScore::new(1.7).value(), 1.0);
/// assert_eq!(TrustScore::new(f64::NAN).value(), 0.0);
/// assert!(TrustScore::new(0.8) > TrustScore::new(0.3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct TrustScore(f64);

impl TrustScore {
    /// Complete distrust.
    pub const ZERO: TrustScore = TrustScore(0.0);
    /// Complete trust.
    pub const FULL: TrustScore = TrustScore(1.0);

    /// Creates a score, clamping into `[0, 1]` (NaN maps to `0.0`).
    pub fn new(value: f64) -> Self {
        if value.is_nan() {
            TrustScore(0.0)
        } else {
            TrustScore(value.clamp(0.0, 1.0))
        }
    }

    /// The underlying value in `[0, 1]`.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Whether the score clears a recruitment threshold.
    pub fn meets(self, threshold: f64) -> bool {
        self.0 >= threshold
    }
}

impl Default for TrustScore {
    /// Maximum-entropy default: `0.5`.
    fn default() -> Self {
        TrustScore(0.5)
    }
}

impl Eq for TrustScore {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for TrustScore {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Clamped construction guarantees the value is never NaN.
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for TrustScore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

impl From<f64> for TrustScore {
    fn from(value: f64) -> Self {
        TrustScore::new(value)
    }
}

/// Beta-reputation evidence for one node.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Evidence {
    /// Pseudo-count of positive interactions (Beta α).
    alpha: f64,
    /// Pseudo-count of negative interactions (Beta β).
    beta: f64,
}

impl Evidence {
    fn from_prior(prior: f64, strength: f64) -> Self {
        Evidence {
            alpha: prior * strength,
            beta: (1.0 - prior) * strength,
        }
    }

    fn score(&self) -> TrustScore {
        TrustScore::new(self.alpha / (self.alpha + self.beta))
    }
}

/// Evidence-accumulating trust store for a population of nodes.
///
/// ```
/// # use iobt_types::{Affiliation, NodeId, TrustLedger};
/// let mut ledger = TrustLedger::new();
/// let n = NodeId::new(1);
/// ledger.enroll(n, Affiliation::Gray);
/// let before = ledger.score(n).unwrap();
/// for _ in 0..10 { ledger.record_positive(n); }
/// assert!(ledger.score(n).unwrap() > before);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrustLedger {
    prior_strength: f64,
    evidence: HashMap<NodeId, Evidence>,
}

impl TrustLedger {
    /// Default weight of the affiliation prior, in pseudo-observations.
    pub const DEFAULT_PRIOR_STRENGTH: f64 = 4.0;

    /// Creates a ledger with the default prior strength.
    pub fn new() -> Self {
        TrustLedger {
            prior_strength: Self::DEFAULT_PRIOR_STRENGTH,
            evidence: HashMap::new(),
        }
    }

    /// Registers a node, seeding its evidence from the affiliation prior.
    /// Re-enrolling an existing node resets its evidence.
    pub fn enroll(&mut self, node: NodeId, affiliation: Affiliation) {
        self.evidence.insert(
            node,
            Evidence::from_prior(affiliation.prior_trust(), self.prior_strength),
        );
    }

    /// Number of enrolled nodes.
    pub fn len(&self) -> usize {
        self.evidence.len()
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.evidence.is_empty()
    }

    /// Current score of a node, or `None` if it was never enrolled.
    pub fn score(&self, node: NodeId) -> Option<TrustScore> {
        self.evidence.get(&node).map(Evidence::score)
    }

    /// Records a positive interaction (correct report, completed task).
    /// Unknown nodes are ignored; enroll first.
    pub fn record_positive(&mut self, node: NodeId) {
        if let Some(e) = self.evidence.get_mut(&node) {
            e.alpha += 1.0;
        }
    }

    /// Records a negative interaction (bad data, defection, attack).
    /// Unknown nodes are ignored; enroll first.
    pub fn record_negative(&mut self, node: NodeId) {
        if let Some(e) = self.evidence.get_mut(&node) {
            e.beta += 1.0;
        }
    }

    /// Exponentially decays all evidence toward the prior-free state by
    /// factor `lambda` in `(0, 1]`; `1.0` is a no-op. Supports forgetting in
    /// long-lived deployments where behaviour can change (§V-B continuous
    /// learning).
    pub fn decay(&mut self, lambda: f64) {
        let lambda = lambda.clamp(0.0, 1.0);
        for e in self.evidence.values_mut() {
            e.alpha *= lambda;
            e.beta *= lambda;
            // Keep the posterior proper.
            e.alpha = e.alpha.max(1e-3);
            e.beta = e.beta.max(1e-3);
        }
    }

    /// Nodes whose score clears `threshold`, sorted by descending score then
    /// ascending id (deterministic output).
    pub fn trusted_nodes(&self, threshold: f64) -> Vec<(NodeId, TrustScore)> {
        let mut out: Vec<(NodeId, TrustScore)> = self
            .evidence
            .iter()
            .map(|(&id, e)| (id, e.score()))
            .filter(|(_, s)| s.meets(threshold))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Iterates over `(node, score)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, TrustScore)> + '_ {
        self.evidence.iter().map(|(&id, e)| (id, e.score()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scores_start_at_affiliation_prior() {
        let mut ledger = TrustLedger::new();
        for a in Affiliation::ALL {
            let id = NodeId::new(a.index() as u64);
            ledger.enroll(id, a);
            let s = ledger.score(id).unwrap();
            assert!((s.value() - a.prior_trust()).abs() < 1e-9);
        }
    }

    #[test]
    fn positive_evidence_raises_negative_lowers() {
        let mut ledger = TrustLedger::new();
        let n = NodeId::new(1);
        ledger.enroll(n, Affiliation::Gray);
        let base = ledger.score(n).unwrap();
        ledger.record_positive(n);
        assert!(ledger.score(n).unwrap() > base);
        ledger.record_negative(n);
        ledger.record_negative(n);
        assert!(ledger.score(n).unwrap() < base);
    }

    #[test]
    fn unknown_nodes_are_ignored() {
        let mut ledger = TrustLedger::new();
        ledger.record_positive(NodeId::new(99));
        assert_eq!(ledger.score(NodeId::new(99)), None);
        assert!(ledger.is_empty());
    }

    #[test]
    fn evidence_eventually_dominates_prior() {
        let mut ledger = TrustLedger::new();
        let red = NodeId::new(1);
        ledger.enroll(red, Affiliation::Red);
        for _ in 0..200 {
            ledger.record_positive(red);
        }
        // A consistently good red node (e.g. captured asset) becomes trusted.
        assert!(ledger.score(red).unwrap().meets(0.9));
    }

    #[test]
    fn trusted_nodes_sorted_and_filtered() {
        let mut ledger = TrustLedger::new();
        ledger.enroll(NodeId::new(1), Affiliation::Blue);
        ledger.enroll(NodeId::new(2), Affiliation::Red);
        ledger.enroll(NodeId::new(3), Affiliation::Gray);
        let trusted = ledger.trusted_nodes(0.4);
        assert_eq!(trusted.len(), 2);
        assert_eq!(trusted[0].0, NodeId::new(1));
        assert_eq!(trusted[1].0, NodeId::new(3));
    }

    #[test]
    fn decay_moves_toward_half_without_breaking_bounds() {
        let mut ledger = TrustLedger::new();
        let n = NodeId::new(5);
        ledger.enroll(n, Affiliation::Blue);
        for _ in 0..50 {
            ledger.record_positive(n);
        }
        let high = ledger.score(n).unwrap();
        for _ in 0..20 {
            ledger.decay(0.5);
        }
        let decayed = ledger.score(n).unwrap();
        assert!(decayed <= high);
        assert!(decayed.value() > 0.0 && decayed.value() <= 1.0);
    }

    #[test]
    fn trust_score_clamps() {
        assert_eq!(TrustScore::new(-0.5), TrustScore::ZERO);
        assert_eq!(TrustScore::new(2.0), TrustScore::FULL);
        assert_eq!(TrustScore::from(0.25).value(), 0.25);
    }

    proptest! {
        #[test]
        fn scores_always_in_unit_interval(
            seeds in proptest::collection::vec((0u64..50, 0usize..3, proptest::bool::ANY), 1..100)
        ) {
            let mut ledger = TrustLedger::new();
            for (raw, aff_idx, positive) in seeds {
                let id = NodeId::new(raw);
                if ledger.score(id).is_none() {
                    ledger.enroll(id, Affiliation::from_index(aff_idx).unwrap());
                }
                if positive { ledger.record_positive(id); } else { ledger.record_negative(id); }
                let s = ledger.score(id).unwrap().value();
                prop_assert!((0.0..=1.0).contains(&s));
            }
        }
    }
}
