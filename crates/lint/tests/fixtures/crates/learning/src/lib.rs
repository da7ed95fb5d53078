//! Fixture: a "learning" crate with one seeded R4 violation — even though
//! the call sits inside test code, OS entropy is flagged everywhere.

/// Clean: seeded randomness is the required pattern.
pub fn seeded_rng_is_fine(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    #[test]
    fn seeded_entropy_violation() {
        // Seeded R4 violation on the next line (`thread_rng` never lexes
        // from this comment — comments yield no tokens).
        let _ = rand::thread_rng();
    }
}

/// Clean for R9: restricted visibility is rustc's to police, not ours.
pub(crate) fn restricted_and_unused() -> u64 {
    3
}

/// Seeded R9 violation: public, documented, and named nowhere else — not
/// even by `core/tests/callers.rs`, which vouches for every other fixture fn.
pub fn seeded_unused_pub() -> u64 {
    7
}
