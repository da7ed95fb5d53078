//! Deterministic metrics: counters, gauges, fixed-bucket histograms, and
//! the stable [`MetricsDigest`] fingerprint.
//!
//! All maps are `BTreeMap`s keyed by `&'static str` metric names, so
//! iteration order — and therefore the digest and its fingerprint — is
//! identical across runs (lint rule R1 conventions).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

/// Interns a metric name, returning a `&'static str` usable as a
/// registry key. Registry keys are `&'static str` by design (every
/// normal call site passes a literal); checkpoint restore is the one
/// place names arrive as owned strings, so restored names are leaked
/// once and reused on every later restore of the same name. The set of
/// metric names in this workspace is small and fixed, so the leak is
/// bounded.
fn intern(name: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let cell = INTERNED.get_or_init(|| Mutex::new(BTreeSet::new()));
    // A poisoned lock only means another thread panicked mid-insert;
    // the set itself is still valid, so keep going.
    let mut set = match cell.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(existing) = set.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// A fixed-bound histogram with explicit underflow/overflow buckets.
///
/// For bounds `[b0, b1, …, bk]` there are `k + 2` buckets:
/// bucket `0` counts `v <= b0` (the underflow side), bucket `i` counts
/// `b(i-1) < v <= bi`, and the final bucket counts `v > bk` (overflow).
/// Bounds are fixed at construction, so merged or compared histograms
/// from identical runs are bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

impl Histogram {
    /// Creates a histogram over the given ascending bucket bounds.
    /// Non-ascending or non-finite bounds are dropped (the histogram
    /// keeps the longest valid ascending prefix).
    pub fn new(bounds: &[f64]) -> Self {
        let mut clean: Vec<f64> = Vec::with_capacity(bounds.len());
        for &b in bounds {
            if b.is_finite() && clean.last().is_none_or(|&prev| b > prev) {
                clean.push(b);
            }
        }
        let buckets = clean.len() + 1;
        Histogram {
            bounds: clean,
            counts: vec![0; buckets],
            total: 0,
            sum: 0.0,
        }
    }

    /// Records one observation. Non-finite values are counted in the
    /// overflow bucket (they are out of every bound) but excluded from
    /// `sum` so the mean stays finite.
    pub fn record(&mut self, v: f64) {
        self.total += 1;
        if !v.is_finite() {
            if let Some(last) = self.counts.last_mut() {
                *last += 1;
            }
            return;
        }
        self.sum += v;
        let idx = self.bounds.partition_point(|&b| b < v);
        if let Some(c) = self.counts.get_mut(idx) {
            *c += 1;
        }
    }

    /// Total number of observations (including non-finite ones).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all finite observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of finite observations, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// The bucket bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds().len() + 1` entries; the last is the
    /// overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Rebuilds a histogram from a snapshot (checkpoint restore).
    /// Returns `None` when the snapshot is internally inconsistent —
    /// non-ascending/non-finite bounds or a count vector of the wrong
    /// length — so corrupted checkpoints are rejected, not trusted.
    pub fn from_snapshot(snap: &HistogramSnapshot) -> Option<Self> {
        let clean = Histogram::new(&snap.bounds);
        if clean.bounds != snap.bounds || snap.counts.len() != snap.bounds.len() + 1 {
            return None;
        }
        Some(Histogram {
            bounds: snap.bounds.clone(),
            counts: snap.counts.clone(),
            total: snap.total,
            sum: snap.sum,
        })
    }

    /// Freezes this histogram into a digest-friendly snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            total: self.total,
            sum: self.sum,
        }
    }
}

/// An immutable, comparable snapshot of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Ascending bucket bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (`bounds.len() + 1` entries, overflow last).
    pub counts: Vec<u64>,
    /// Total observations.
    pub total: u64,
    /// Sum of finite observations.
    pub sum: f64,
}

iobt_ckpt::wire_struct!(HistogramSnapshot {
    bounds,
    counts,
    total,
    sum,
});

/// The registry every [`Recorder`](crate::Recorder) carries: ordered
/// maps of counters, gauges and histograms, read through its
/// [`MetricsDigest`].
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the named counter (creating it at zero).
    pub fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Sets the named gauge to `v` (last write wins).
    pub fn set_gauge(&mut self, name: &'static str, v: f64) {
        self.gauges.insert(name, v);
    }

    /// Records `v` into the named histogram, creating it with `bounds`
    /// on first use (later calls ignore `bounds`).
    pub fn observe(&mut self, name: &'static str, bounds: &[f64], v: f64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(bounds))
            .record(v);
    }

    /// Rebuilds a registry from a digest (checkpoint restore). Names
    /// are interned so they satisfy the `&'static str` key type.
    /// Returns `None` when any histogram snapshot is inconsistent.
    pub fn from_digest(digest: &MetricsDigest) -> Option<Self> {
        let mut reg = MetricsRegistry::new();
        for (name, v) in &digest.counters {
            reg.counters.insert(intern(name), *v);
        }
        for (name, v) in &digest.gauges {
            reg.gauges.insert(intern(name), *v);
        }
        for (name, snap) in &digest.histograms {
            reg.histograms.insert(intern(name), Histogram::from_snapshot(snap)?);
        }
        Some(reg)
    }

    /// Freezes the registry into a stable, comparable digest.
    pub fn digest(&self) -> MetricsDigest {
        MetricsDigest {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| ((*k).to_owned(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| ((*k).to_owned(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| ((*k).to_owned(), h.snapshot()))
                .collect(),
        }
    }
}

/// A frozen, ordered view of a [`MetricsRegistry`]: equality across two
/// digests means the two runs agreed on every counter, gauge and
/// histogram bucket. The determinism tests compare digests the same way
/// `EndStateDigest` compares end states (PR-2 conventions).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsDigest {
    /// `(name, value)` counters in name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges in name order.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` histograms in name order.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

iobt_ckpt::wire_struct!(MetricsDigest {
    counters,
    gauges,
    histograms,
});

impl MetricsDigest {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// True when no metric was ever touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the digest into one canonical string (the fingerprint
    /// input). Floats use shortest-roundtrip `Display`, so identical
    /// bit patterns render identically.
    pub fn canonical_string(&self) -> String {
        let mut s = String::with_capacity(256);
        for (k, v) in &self.counters {
            let _ = write!(s, "c:{k}={v};");
        }
        for (k, v) in &self.gauges {
            let _ = write!(s, "g:{k}={v};");
        }
        for (k, h) in &self.histograms {
            let _ = write!(s, "h:{k}=n{}s{}", h.total, h.sum);
            // Bucket bounds are part of the histogram's identity: two
            // runs bucketing the same samples differently must not
            // fingerprint as equal.
            for b in &h.bounds {
                let _ = write!(s, "|{b}");
            }
            for c in &h.counts {
                let _ = write!(s, ",{c}");
            }
            s.push(';');
        }
        s
    }

    /// A 64-bit FNV-1a fingerprint of the canonical rendering —
    /// convenient for logging one comparable number per run.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.canonical_string().as_bytes())
    }
}

/// 64-bit FNV-1a over `bytes`: the workspace's one non-cryptographic
/// fingerprint fold (metrics fingerprints, failpoint schedules, scenario
/// identities, bench fingerprints). Callers with several fields render
/// them into one canonical byte string first.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl fmt::Display for MetricsDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MetricsDigest(fingerprint={:016x}, {} counters, {} gauges, {} histograms)",
            self.fingerprint(),
            self.counters.len(),
            self.gauges.len(),
            self.histograms.len()
        )
    }
}

/// Standard latency bucket bounds in milliseconds.
pub(crate) const LATENCY_MS_BOUNDS: [f64; 10] = [
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
];

/// Standard solver-step bucket bounds.
pub(crate) const SOLVER_STEP_BOUNDS: [f64; 8] = [
    10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0, 10_000_000.0, 100_000_000.0,
];

/// Standard utility bucket bounds.
pub(crate) const UTILITY_BOUNDS: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_underflow_and_overflow() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        h.record(-5.0); // underflow side -> bucket 0
        h.record(0.5); // bucket 0
        h.record(1.0); // boundary is inclusive -> bucket 0
        h.record(1.0001); // bucket 1
        h.record(10.0); // bucket 1
        h.record(99.9); // bucket 2
        h.record(100.0); // bucket 2
        h.record(1e9); // overflow bucket
        assert_eq!(h.counts(), &[3, 2, 2, 1]);
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn histogram_handles_non_finite_and_empty() {
        let mut h = Histogram::new(&[1.0]);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.counts(), &[0, 2]);
        assert_eq!(h.sum(), 0.0);
        let empty = Histogram::new(&[1.0, 2.0]);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.counts(), &[0, 0, 0]);
    }

    #[test]
    fn histogram_rejects_bad_bounds() {
        let h = Histogram::new(&[1.0, 1.0, 0.5, 2.0, f64::NAN]);
        // Longest valid ascending prefix: [1.0, 2.0].
        assert_eq!(h.bounds(), &[1.0, 2.0]);
        assert_eq!(h.counts().len(), 3);
    }

    #[test]
    fn empty_digest_is_empty_and_stable() {
        let d = MetricsRegistry::new().digest();
        assert!(d.is_empty());
        assert_eq!(d, MetricsDigest::default());
        assert_eq!(d.fingerprint(), MetricsDigest::default().fingerprint());
        assert_eq!(d.counter("anything"), None);
        assert_eq!(d.histogram("anything"), None);
    }

    #[test]
    fn digest_equality_and_fingerprint_track_content() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        for r in [&mut a, &mut b] {
            r.inc("x.count", 2);
            r.set_gauge("x.level", 0.25);
            r.observe("x.lat", &[1.0, 10.0], 3.0);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.digest().fingerprint(), b.digest().fingerprint());
        // Value captured before the FNV copies were merged into `fnv1a`.
        assert_eq!(a.digest().fingerprint(), 0xf26f_c96d_1dc3_a028);
        b.inc("x.count", 1);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest().fingerprint(), b.digest().fingerprint());
        assert_eq!(a.digest().counter("x.count"), Some(2));
        assert_eq!(a.digest().gauge("x.level"), Some(0.25));
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn digest_display_is_compact() {
        let mut r = MetricsRegistry::new();
        r.inc("a", 1);
        let shown = r.digest().to_string();
        assert!(shown.contains("1 counters"));
        assert!(shown.contains("fingerprint="));
    }
}
