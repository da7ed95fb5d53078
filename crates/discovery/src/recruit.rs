//! Recruitment: turning discovery output into an eligible asset pool.
//!
//! Recruitment joins two evidence streams — the [tracker's affiliation
//! estimates](crate::tracker) and the [trust
//! ledger](iobt_types::TrustLedger) — and admits assets into a
//! [`RecruitmentPool`] that the synthesis engine composes from. Suspected
//! red assets are excluded and reported separately (§III-A, resilience to
//! adversarial behaviour).

use iobt_types::{Affiliation, NodeCatalog, NodeId, NodeSpec, TrustLedger};

use crate::tracker::DiscoveryTracker;

/// Recruitment policy thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecruitPolicy {
    /// Minimum trust-ledger score.
    pub min_trust: f64,
    /// Minimum presence belief at recruitment time.
    pub min_presence: f64,
    /// Red-posterior above which an asset is rejected outright.
    pub max_red_posterior: f64,
    /// Whether gray (civilian) assets may be recruited at all.
    pub allow_gray: bool,
}

impl Default for RecruitPolicy {
    fn default() -> Self {
        RecruitPolicy {
            min_trust: 0.4,
            min_presence: 0.3,
            max_red_posterior: 0.5,
            allow_gray: true,
        }
    }
}

/// An asset admitted to the pool, with the evidence that admitted it.
#[derive(Debug, Clone, PartialEq)]
pub struct RecruitedAsset {
    /// The asset's full spec (as registered in the catalog).
    pub spec: NodeSpec,
    /// Trust score at recruitment time.
    pub trust: f64,
}

/// Result of a recruitment pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecruitmentPool {
    /// Admitted assets, ascending id.
    pub admitted: Vec<RecruitedAsset>,
    /// Assets rejected as suspected red.
    pub rejected_red: Vec<NodeId>,
    /// Assets rejected for low trust, low presence, or policy.
    pub rejected_other: Vec<NodeId>,
}

impl RecruitmentPool {
    /// Number of admitted red infiltrators (requires ground truth; used by
    /// experiments to score recruitment quality).
    pub fn infiltration_count(&self) -> usize {
        self.admitted
            .iter()
            .filter(|a| a.spec.affiliation() == Affiliation::Red)
            .count()
    }

    /// Fraction of admitted assets that are truly adversarial.
    pub fn infiltration_rate(&self) -> f64 {
        if self.admitted.is_empty() {
            0.0
        } else {
            self.infiltration_count() as f64 / self.admitted.len() as f64
        }
    }
}

/// Runs a recruitment pass at time `now_s`.
///
/// Only nodes present in both the catalog and the tracker are considered:
/// recruitment cannot admit what discovery has not seen.
pub fn recruit(
    catalog: &NodeCatalog,
    tracker: &DiscoveryTracker,
    ledger: &TrustLedger,
    policy: &RecruitPolicy,
    now_s: f64,
    presence_tau_s: f64,
) -> RecruitmentPool {
    let mut pool = RecruitmentPool::default();
    for est in tracker.iter() {
        let Some(spec) = catalog.get(est.id()) else {
            continue;
        };
        let posterior = est.posterior();
        if posterior[Affiliation::Red.index()] >= policy.max_red_posterior {
            pool.rejected_red.push(est.id());
            continue;
        }
        let presence = est.presence(now_s, presence_tau_s);
        let trust = ledger
            .score(est.id())
            .map(|s| s.value())
            .unwrap_or_else(|| est.affiliation().prior_trust());
        let policy_ok = policy.allow_gray || est.affiliation() != Affiliation::Gray;
        if presence < policy.min_presence || trust < policy.min_trust || !policy_ok {
            pool.rejected_other.push(est.id());
            continue;
        }
        pool.admitted.push(RecruitedAsset {
            spec: spec.clone(),
            trust,
        });
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::{DiscoveryTracker, TrackerConfig};
    use iobt_types::{NodeSpec, Point};

    fn admitted_ids(pool: &RecruitmentPool) -> Vec<NodeId> {
        pool.admitted.iter().map(|a| a.spec.id()).collect()
    }

    fn setup() -> (NodeCatalog, DiscoveryTracker, TrustLedger) {
        let mut catalog = NodeCatalog::new();
        let mut ledger = TrustLedger::new();
        for (id, aff) in [
            (1, Affiliation::Blue),
            (2, Affiliation::Red),
            (3, Affiliation::Gray),
        ] {
            catalog
                .insert(
                    NodeSpec::builder(NodeId::new(id))
                        .affiliation(aff)
                        .position(Point::ORIGIN)
                        .build(),
                )
                .unwrap();
            ledger.enroll(NodeId::new(id), aff);
        }
        let mut tracker = DiscoveryTracker::new(TrackerConfig::default());
        tracker.observe(NodeId::new(1), 100.0, Point::ORIGIN, [0.9, 0.05, 0.05]);
        tracker.observe(NodeId::new(2), 100.0, Point::ORIGIN, [0.05, 0.9, 0.05]);
        tracker.observe(NodeId::new(3), 100.0, Point::ORIGIN, [0.1, 0.1, 0.8]);
        (catalog, tracker, ledger)
    }

    #[test]
    fn recruits_blue_and_gray_rejects_red() {
        let (catalog, tracker, ledger) = setup();
        let pool = recruit(
            &catalog,
            &tracker,
            &ledger,
            &RecruitPolicy::default(),
            101.0,
            120.0,
        );
        assert_eq!(admitted_ids(&pool), vec![NodeId::new(1), NodeId::new(3)]);
        assert_eq!(pool.rejected_red, vec![NodeId::new(2)]);
        assert_eq!(pool.infiltration_count(), 0);
    }

    #[test]
    fn disallowing_gray_shrinks_pool() {
        let (catalog, tracker, ledger) = setup();
        let policy = RecruitPolicy {
            allow_gray: false,
            ..RecruitPolicy::default()
        };
        let pool = recruit(&catalog, &tracker, &ledger, &policy, 101.0, 120.0);
        assert_eq!(admitted_ids(&pool), vec![NodeId::new(1)]);
        assert!(pool.rejected_other.contains(&NodeId::new(3)));
    }

    #[test]
    fn stale_assets_fail_presence_gate() {
        let (catalog, tracker, ledger) = setup();
        // 10 minutes after last sighting with tau = 120 s: presence ~ 0.007.
        let pool = recruit(
            &catalog,
            &tracker,
            &ledger,
            &RecruitPolicy::default(),
            700.0,
            120.0,
        );
        assert!(pool.admitted.is_empty());
        assert_eq!(pool.rejected_other.len(), 2, "blue and gray too stale");
    }

    #[test]
    fn misclassified_red_infiltrates_and_is_counted() {
        let mut catalog = NodeCatalog::new();
        catalog
            .insert(
                NodeSpec::builder(NodeId::new(7))
                    .affiliation(Affiliation::Red)
                    .build(),
            )
            .unwrap();
        let mut ledger = TrustLedger::new();
        ledger.enroll(NodeId::new(7), Affiliation::Gray); // fooled enrollment
        let mut tracker = DiscoveryTracker::new(TrackerConfig::default());
        // Spoofed emissions made it look gray.
        tracker.observe(NodeId::new(7), 10.0, Point::ORIGIN, [0.1, 0.1, 0.8]);
        let pool = recruit(
            &catalog,
            &tracker,
            &ledger,
            &RecruitPolicy::default(),
            11.0,
            120.0,
        );
        assert_eq!(pool.infiltration_count(), 1);
        assert!((pool.infiltration_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_catalog_nodes_are_skipped() {
        let catalog = NodeCatalog::new();
        let mut tracker = DiscoveryTracker::new(TrackerConfig::default());
        tracker.observe(NodeId::new(1), 0.0, Point::ORIGIN, [0.9, 0.05, 0.05]);
        let ledger = TrustLedger::new();
        let pool = recruit(
            &catalog,
            &tracker,
            &ledger,
            &RecruitPolicy::default(),
            1.0,
            120.0,
        );
        assert!(pool.admitted.is_empty());
        assert!(pool.rejected_red.is_empty());
    }
}
