//! Continuous discovery: fusing repeated observations of moving assets.
//!
//! §III-A: assets "may move frequently, so their discovery needs to be
//! continuous". The [`DiscoveryTracker`] maintains one [`AssetEstimate`]
//! per node: a presence belief that decays between sightings, an
//! exponentially-weighted position estimate, and an affiliation posterior
//! fused across observations by accumulating classifier log-odds (naive
//! Bayes fusion — each observation is treated as independent evidence).

// Index loops over the fixed 3-class arrays mirror the math notation.
#![allow(clippy::needless_range_loop)]

use std::collections::BTreeMap;

use iobt_types::{Affiliation, NodeId, Point};

/// Fused state of one discovered asset.
#[derive(Debug, Clone, PartialEq)]
pub struct AssetEstimate {
    id: NodeId,
    observations: u64,
    last_seen_s: f64,
    position: Point,
    log_posterior: [f64; 3],
}

impl AssetEstimate {
    /// Node identity.
    pub const fn id(&self) -> NodeId {
        self.id
    }

    /// Smoothed position estimate.
    pub const fn position(&self) -> Point {
        self.position
    }

    /// Fused affiliation posterior as `[blue, red, gray]`, summing to 1.
    pub fn posterior(&self) -> [f64; 3] {
        let max = self
            .log_posterior
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let mut exp = [0.0; 3];
        let mut sum = 0.0;
        for i in 0..3 {
            exp[i] = (self.log_posterior[i] - max).exp();
            sum += exp[i];
        }
        for e in &mut exp {
            *e /= sum;
        }
        exp
    }

    /// Most likely affiliation.
    #[expect(clippy::expect_used, reason = "best is the argmax over exactly three classes, always a valid index")]
    pub fn affiliation(&self) -> Affiliation {
        let p = self.posterior();
        let mut best = 0;
        for i in 1..3 {
            if p[i] > p[best] {
                best = i;
            }
        }
        Affiliation::from_index(best).expect("index in 0..3")
    }

    /// Presence belief at time `now_s`: decays as `exp(-(now - last)/tau)`.
    pub fn presence(&self, now_s: f64, tau_s: f64) -> f64 {
        let dt = (now_s - self.last_seen_s).max(0.0);
        (-dt / tau_s.max(1e-9)).exp()
    }
}

/// Tracker configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerConfig {
    /// Presence decay constant in seconds: an asset unseen for `tau_s`
    /// drops to presence ≈ 0.37.
    pub presence_tau_s: f64,
    /// Position EMA weight for new observations, in `(0, 1]`.
    pub position_alpha: f64,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            presence_tau_s: 120.0,
            position_alpha: 0.5,
        }
    }
}

/// Fuses observations into per-asset estimates.
///
/// ```
/// # use iobt_discovery::tracker::{DiscoveryTracker, TrackerConfig};
/// # use iobt_types::{NodeId, Point};
/// let mut tracker = DiscoveryTracker::new(TrackerConfig::default());
/// // Two sightings: the second posterior is strongly red.
/// tracker.observe(NodeId::new(1), 10.0, Point::new(5.0, 5.0), [0.2, 0.6, 0.2]);
/// tracker.observe(NodeId::new(1), 20.0, Point::new(6.0, 5.0), [0.1, 0.8, 0.1]);
/// let est = tracker.estimate(NodeId::new(1)).unwrap();
/// assert_eq!(est.affiliation(), iobt_types::Affiliation::Red);
/// assert!(est.presence(21.0, 120.0) > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct DiscoveryTracker {
    config: TrackerConfig,
    assets: BTreeMap<NodeId, AssetEstimate>,
}

impl DiscoveryTracker {
    /// Creates an empty tracker.
    pub fn new(config: TrackerConfig) -> Self {
        DiscoveryTracker {
            config,
            assets: BTreeMap::new(),
        }
    }

    /// Number of tracked assets.
    pub fn len(&self) -> usize {
        self.assets.len()
    }

    /// Whether nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.assets.is_empty()
    }

    /// Fuses one observation: a sighting of `id` at `now_s` and `position`
    /// with a classifier posterior for this single observation.
    ///
    /// Out-of-order observations (older than the last sighting) still
    /// contribute evidence but do not move `last_seen` backwards.
    pub fn observe(&mut self, id: NodeId, now_s: f64, position: Point, posterior: [f64; 3]) {
        let entry = self.assets.entry(id).or_insert_with(|| AssetEstimate {
            id,
            observations: 0,
            last_seen_s: now_s,
            position,
            log_posterior: [0.0; 3],
        });
        entry.observations += 1;
        if now_s >= entry.last_seen_s {
            entry.last_seen_s = now_s;
            let a = self.config.position_alpha;
            entry.position = Point::new(
                entry.position.x * (1.0 - a) + position.x * a,
                entry.position.y * (1.0 - a) + position.y * a,
            );
        }
        for i in 0..3 {
            entry.log_posterior[i] += posterior[i].max(1e-12).ln();
        }
    }

    /// Current estimate for a node, if ever observed.
    pub fn estimate(&self, id: NodeId) -> Option<&AssetEstimate> {
        self.assets.get(&id)
    }

    /// Iterates over all estimates, ascending id.
    pub fn iter(&self) -> impl Iterator<Item = &AssetEstimate> {
        self.assets.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> DiscoveryTracker {
        DiscoveryTracker::new(TrackerConfig::default())
    }

    #[test]
    fn fusion_sharpens_posterior() {
        let mut t = tracker();
        let weak_red = [0.25, 0.5, 0.25];
        t.observe(NodeId::new(1), 0.0, Point::ORIGIN, weak_red);
        let p1 = t.estimate(NodeId::new(1)).unwrap().posterior()[1];
        for i in 1..5 {
            t.observe(NodeId::new(1), i as f64, Point::ORIGIN, weak_red);
        }
        let p5 = t.estimate(NodeId::new(1)).unwrap().posterior()[1];
        assert!(p5 > p1, "repeated weak evidence compounds: {p1:.3} -> {p5:.3}");
        assert!(p5 > 0.9);
    }

    #[test]
    fn conflicting_evidence_cancels() {
        let mut t = tracker();
        t.observe(NodeId::new(1), 0.0, Point::ORIGIN, [0.6, 0.2, 0.2]);
        t.observe(NodeId::new(1), 1.0, Point::ORIGIN, [0.2, 0.6, 0.2]);
        let p = t.estimate(NodeId::new(1)).unwrap().posterior();
        assert!((p[0] - p[1]).abs() < 1e-9, "blue and red evidence balance");
    }

    #[test]
    fn presence_decays_between_sightings() {
        let mut t = tracker();
        t.observe(NodeId::new(1), 100.0, Point::ORIGIN, [1.0 / 3.0; 3]);
        let e = t.estimate(NodeId::new(1)).unwrap();
        assert!(e.presence(100.0, 120.0) > 0.999);
        assert!((e.presence(220.0, 120.0) - (-1.0f64).exp()).abs() < 1e-9);
        assert!(e.presence(1_000.0, 120.0) < 0.001);
    }

    #[test]
    fn position_smoothing_follows_movement() {
        let mut t = tracker();
        t.observe(NodeId::new(1), 0.0, Point::new(0.0, 0.0), [1.0 / 3.0; 3]);
        t.observe(NodeId::new(1), 1.0, Point::new(10.0, 0.0), [1.0 / 3.0; 3]);
        let p = t.estimate(NodeId::new(1)).unwrap().position();
        assert!((p.x - 5.0).abs() < 1e-9, "EMA with alpha 0.5: {p}");
    }

    #[test]
    fn out_of_order_observations_do_not_rewind_last_seen() {
        let mut t = tracker();
        t.observe(NodeId::new(1), 50.0, Point::ORIGIN, [0.2, 0.6, 0.2]);
        t.observe(NodeId::new(1), 10.0, Point::new(100.0, 0.0), [0.2, 0.6, 0.2]);
        let e = t.estimate(NodeId::new(1)).unwrap();
        assert_eq!(e.last_seen_s, 50.0);
        assert_eq!(e.position(), Point::ORIGIN, "stale position ignored");
        assert_eq!(e.observations, 2, "evidence still fused");
    }
}
