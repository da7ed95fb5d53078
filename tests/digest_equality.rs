//! Digest equality covers every field. The determinism tests compare
//! `EndStateDigest`s and `MetricsDigest`s with `==`, so an equality that
//! skipped a field would let two divergent runs pass as one.
//!
//! No field list is written here. Each digest's `wire_struct!` list is
//! its layout, and the compiler keeps that list exhaustive. So flipping
//! every encoded byte touches every field, nested types' fields included,
//! and a field added later too. XOR `0x01` never turns one `f64` into its
//! `±0.0` twin, so a flipped float cannot compare equal by value.

use iobt::ckpt::{Dec, Enc, Wire};
use iobt::prelude::*;

/// XORs each byte of `value`'s wire layout with `0x01` in turn: every
/// perturbed copy that decodes must compare unequal to `value`.
fn every_byte_flip_is_unequal<T: Wire + PartialEq + std::fmt::Debug>(what: &str, value: &T) {
    let mut e = Enc::new();
    e.put(value);
    let bytes = e.into_bytes();
    let decode = |buf: &[u8]| {
        let mut d = Dec::new(buf);
        d.get::<T>().ok().filter(|_| d.finish().is_ok())
    };
    assert_eq!(decode(&bytes).as_ref(), Some(value), "{what} round-trips");
    let mut decoded = 0;
    for at in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x01;
        if let Some(copy) = decode(&flipped) {
            decoded += 1;
            assert!(
                copy != *value,
                "{what}: flipping byte {at} of {} decodes to a digest that compares equal",
                bytes.len()
            );
        }
    }
    // Most bytes are field payload, so most flips decode: the check is
    // not vacuous.
    assert!(decoded * 2 > bytes.len(), "{what}: only {decoded} of {} flips decoded", bytes.len());
}

#[test]
fn a_flip_of_any_digest_byte_breaks_equality() {
    let mut scenario = urban_evacuation(150, 7);
    scenario.disruptions = vec![Disruption::JammerOn {
        at: SimTime::from_secs_f64(20.0),
        index: 0,
    }];
    let recorder = Recorder::null();
    let config = RunConfig::builder()
        .duration(SimDuration::from_secs_f64(40.0))
        .recorder(recorder.clone())
        .build()
        .expect("valid run config");
    let digest = run_mission(&scenario, &config).digest;
    let metrics = recorder.metrics_digest();
    // Every sequence is non-empty, so a flip lands inside each one's items
    // and not only in its length.
    assert!(!digest.node_energy_j.is_empty() && !digest.final_selection.is_empty());
    assert!(!metrics.counters.is_empty() && !metrics.gauges.is_empty());
    assert!(metrics.histograms.iter().all(|(_, h)| !h.bounds.is_empty() && !h.counts.is_empty()));
    assert!(!metrics.histograms.is_empty());

    every_byte_flip_is_unequal("EndStateDigest", &digest);
    every_byte_flip_is_unequal("MetricsDigest", &metrics);
}
