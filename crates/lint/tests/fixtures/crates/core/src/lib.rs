//! Fixture: the "core" crate root: one `pub fn` nothing calls, and one
//! that `core/tests/callers.rs` calls.

/// Seeded R9 violation: nothing calls it.
pub fn seeded_unused_core() -> u32 {
    41
}

/// Clean for R9: `core/tests/callers.rs` calls it.
pub fn called_from_core_tests() -> u32 {
    42
}
