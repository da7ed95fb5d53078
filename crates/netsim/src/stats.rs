//! Run statistics: counters and the mean delivery latency.

use std::fmt;

use iobt_ckpt::wire_struct;

/// A running mean over a stream of samples (delivery latencies).
///
/// Stores no samples, only their sum and count. The sum starts at `-0.0`
/// and adds each sample in record order, the fold `Iterator::sum` makes
/// over an `f64` slice, so [`Summary::mean`] equals
/// `samples.iter().sum::<f64>() / n` bit for bit.
///
/// ```
/// # use iobt_netsim::stats::Summary;
/// let mut s = Summary::default();
/// for v in [1.0, 2.0, 3.0, 4.0] { s.record(v); }
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.mean(), 2.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sum: f64,
    count: u64,
}

wire_struct!(Summary { sum, count });

impl Default for Summary {
    fn default() -> Self {
        Summary {
            sum: -0.0,
            count: 0,
        }
    }
}

impl Summary {
    /// Adds a sample. Non-finite samples are ignored.
    pub fn record(&mut self, value: f64) {
        if value.is_finite() {
            self.sum += value;
            self.count += 1;
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={} mean={:.3}", self.len(), self.mean())
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
    /// Mean end-to-end delivery latency in milliseconds.
    pub latency_ms: Summary,
    /// Total energy drained across all nodes, in joules.
    pub energy_spent_j: f64,
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
    use iobt_ckpt::{Dec, Enc};
    use proptest::prelude::*;

    #[test]
    fn empty_summary_is_zeroed() {
        let mut s = Summary::default();
        assert_eq!(s.mean(), 0.0);
        assert!(s.is_empty());
        // The sum starts where `Iterator::sum` does: at `-0.0`.
        s.record(-0.0);
        assert_eq!(s.mean().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn nan_samples_are_ignored() {
        let mut s = Summary::default();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(1.0);
        assert_eq!(s.len(), 1);
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
        let mut s = Summary::default();
        s.record(3.0);
        let _ = s.to_string();
        let _ = NetStats::new().to_string();
    }

    proptest! {
        /// The running mean has the bits of the mean over the stored
        /// samples, `-0.0`s included, also for a summary saved and
        /// restored part-way and fed the rest afterwards.
        #[test]
        fn mean_is_the_sum_over_the_samples_bit_for_bit(
            drawn in proptest::collection::vec((-1e6..1e6f64, 0u8..4), 1..200),
            cut in 0usize..200,
        ) {
            // Half the draws are a signed zero.
            let values: Vec<f64> = drawn
                .iter()
                .map(|&(v, pick)| match pick {
                    0 => -0.0,
                    1 => 0.0,
                    _ => v,
                })
                .collect();
            let cut = cut.min(values.len());
            let mut s = Summary::default();
            for &v in &values[..cut] {
                s.record(v);
            }
            let mut e = Enc::new();
            e.put(&s);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            let mut s: Summary = d.get().expect("a summary decodes");
            for &v in &values[cut..] {
                s.record(v);
            }
            let want = values.iter().sum::<f64>() / values.len() as f64;
            prop_assert_eq!(s.mean().to_bits(), want.to_bits());
            prop_assert_eq!(s.len(), values.len());
        }
    }
}
