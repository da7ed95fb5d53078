//! Fixture: the "core" crate root, where the allow directives live: a
//! justified one suppresses an R9 finding, and one suppresses nothing
//! (seeded R8).

/// Clean: nothing calls it, and the justified directive below says why.
// lint: allow(unused-pub) — kept for the fixture: a justified directive suppresses its finding
pub fn excused_unused() -> u32 {
    41
}

/// Clean for R9: `core/tests/callers.rs` calls it.
// Seeded R8 on the next line: the fn has a caller, so it excuses nothing.
// lint: allow(unused-pub) — stale since the caller arrived
pub fn called_and_excused() -> u32 {
    42
}
