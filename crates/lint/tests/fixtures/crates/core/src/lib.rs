//! Fixture: the "core" crate root, whose two unused-looking fns the
//! fixture test's planted `keep` entries name: one keep is live, and one
//! names a fn that has a caller (a seeded stale keep).

/// Clean: nothing calls it, and a live keep entry says why.
pub fn excused_unused() -> u32 {
    41
}

/// Clean for R9: `core/tests/callers.rs` calls it, so its keep entry
/// is stale.
pub fn called_and_excused() -> u32 {
    42
}
