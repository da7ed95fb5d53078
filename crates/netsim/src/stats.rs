//! Run statistics: counters and latency distributions.

use std::collections::BTreeMap;
use std::fmt;

use iobt_ckpt::{wire_struct, Dec, DecodeError, Enc, Wire};

/// An online summary of a set of samples (latencies, utilities, …).
///
/// Stores every sample so exact quantiles are available; experiments in
/// this workspace are small enough (≤ millions of samples) that this is the
/// right trade-off over a lossy sketch.
///
/// ```
/// # use iobt_netsim::stats::Summary;
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0, 4.0] { s.record(v); }
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.quantile(0.5), 2.0); // nearest-rank
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

/// The samples in the order held; `sorted` is derived, and a decoded
/// summary re-sorts on its first quantile query.
impl Wire for Summary {
    fn put(&self, e: &mut Enc) {
        let Self { samples, sorted: _ } = self;
        e.put(samples);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(Summary {
            samples: d.get()?,
            sorted: false,
        })
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample. Non-finite samples are ignored.
    pub fn record(&mut self, value: f64) {
        if value.is_finite() {
            self.samples.push(value);
            self.sorted = false;
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Exact `q`-quantile (`q` clamped to `[0, 1]`) using the
    /// nearest-rank-above method, or `0.0` when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.samples.len() as f64).ceil() as usize)
            .min(self.samples.len())
            .saturating_sub(1);
        // q = 0 should return the minimum.
        let idx = if q == 0.0 { 0 } else { idx };
        self.samples[idx]
    }

    /// Smallest sample, or `0.0` when empty.
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .pipe_finite()
    }

    /// Largest sample, or `0.0` when empty.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .pipe_finite()
    }
}

trait PipeFinite {
    fn pipe_finite(self) -> f64;
}

impl PipeFinite for f64 {
    fn pipe_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = self.clone();
        write!(
            f,
            "n={} mean={:.3} p50={:.3} p99={:.3} max={:.3}",
            s.len(),
            s.mean(),
            s.quantile(0.5),
            s.quantile(0.99),
            s.max()
        )
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

/// Network-level statistics accumulated by a simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetStats {
    /// Messages handed to the network by applications.
    pub sent: u64,
    /// Messages delivered to their destination behaviour.
    pub delivered: u64,
    /// Messages dropped (loss, no route, dead node).
    pub dropped: u64,
    /// Drops caused by missing routes (partition).
    pub dropped_no_route: u64,
    /// Drops caused by channel loss after retries.
    pub dropped_channel: u64,
    /// Drops because an endpoint or relay was dead/depleted.
    pub dropped_dead: u64,
    /// Always 0: no cause raises it since duty-cycle sleep schedules
    /// went. The slot stays because checkpoints and the benchmark's
    /// pinned fingerprints carry it.
    pub dropped_asleep: u64,
    /// Total per-hop MAC attempts (first transmissions + retransmits).
    pub hop_attempts: u64,
    /// Per-hop MAC retransmissions (attempts beyond the first).
    pub retransmits: u64,
    /// Messages tampered in flight by a compromised relay (counted at
    /// tamper time; the flagged copy may still be dropped downstream).
    pub tampered: u64,
    /// End-to-end delivery latencies in milliseconds.
    pub latency_ms: Summary,
    /// Total energy drained across all nodes, in joules.
    pub energy_spent_j: f64,
    /// Per-kind delivered counts, for application dispatch analysis.
    pub delivered_by_kind: BTreeMap<u32, u64>,
}

wire_struct!(NetStats {
    sent,
    delivered,
    dropped,
    dropped_no_route,
    dropped_channel,
    dropped_dead,
    dropped_asleep,
    hop_attempts,
    retransmits,
    tampered,
    energy_spent_j,
    latency_ms,
    delivered_by_kind,
});

impl NetStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of sent messages that were delivered, or `0.0` when no
    /// messages were sent.
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} delivered={} ({:.1}%) dropped={} [route={} chan={} dead={} asleep={}] \
             attempts={} retx={} tampered={} latency: {}",
            self.sent,
            self.delivered,
            self.delivery_ratio() * 100.0,
            self.dropped,
            self.dropped_no_route,
            self.dropped_channel,
            self.dropped_dead,
            self.dropped_asleep,
            self.hop_attempts,
            self.retransmits,
            self.tampered,
            self.latency_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_is_zeroed() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn nan_samples_are_ignored() {
        let mut s = Summary::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(1.0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn quantiles_are_exact() {
        let mut s: Summary = (1..=100).map(|v| v as f64).collect();
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(0.01), 1.0);
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
    }

    #[test]
    fn delivery_ratio_handles_zero_sent() {
        let stats = NetStats::new();
        assert_eq!(stats.delivery_ratio(), 0.0);
        let stats = NetStats {
            sent: 10,
            delivered: 7,
            ..NetStats::new()
        };
        assert!((stats.delivery_ratio() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn display_does_not_panic() {
        let mut s = Summary::new();
        s.record(3.0);
        let _ = s.to_string();
        let _ = NetStats::new().to_string();
    }

    proptest! {
        #[test]
        fn quantile_monotone(values in proptest::collection::vec(-1e6..1e6f64, 1..200),
                             q1 in 0.0..1.0f64, q2 in 0.0..1.0f64) {
            let mut s: Summary = values.into_iter().collect();
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(s.quantile(lo) <= s.quantile(hi));
            prop_assert!(s.quantile(0.0) == s.min());
            prop_assert!(s.quantile(1.0) == s.max());
        }

        #[test]
        fn mean_within_min_max(values in proptest::collection::vec(-1e6..1e6f64, 1..200)) {
            let s: Summary = values.into_iter().collect();
            prop_assert!(s.mean() >= s.min() - 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
        }
    }
}
