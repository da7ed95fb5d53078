//! Fixture: a "learning" crate with six seeded R9 violations, and the
//! visibility and test-code decoys R9 must not flag.

/// Clean for R9: `core/tests/callers.rs` calls it.
pub fn called_from_tests(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    /// Clean for R9: a `pub fn` inside test code is no library API, so
    /// nothing has to call it.
    pub fn test_helper_nobody_calls() -> u64 {
        // (a helper the crate's tests would share)
        5
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

/// Seeded R9 violation: its one caller is this crate's own unit test,
/// which does not count.
pub fn seeded_own_test_only() -> u64 {
    11
}

/// Seeded R9 violation: named only by the `pub use` below, which
/// re-exports it and calls nothing.
pub fn seeded_reexport_only() -> u64 {
    13
}

pub use self::seeded_reexport_only as reexported_name;

#[cfg(test)]
mod own_tests {
    #[test]
    fn calls_into_its_own_crate() {
        assert_eq!(super::seeded_own_test_only(), 11);
    }
}

/// Seeded R9 violation: a setter nothing calls. Its name is everywhere
/// else too — the field it sets, a local and a `wire_struct!` entry — but
/// none of those is a call.
pub struct SeededKnobs {
    seeded_field_twin: u32,
}

impl SeededKnobs {
    /// The uncalled setter.
    pub fn seeded_field_twin(mut self, v: u32) -> Self {
        self.seeded_field_twin = v;
        self
    }
}

/// Clean for R9: `core/tests/callers.rs` calls it. Its local shares the
/// setter's name.
pub fn seeded_twin_reader(k: &SeededKnobs) -> u32 {
    let seeded_field_twin = k.seeded_field_twin;
    seeded_field_twin
}

wire_struct!(SeededKnobs { seeded_field_twin });

/// Seeded R9 violation at its `new`: `core/tests/callers.rs` calls
/// `Other::new`, which is another type's `new`.
pub struct SeededShadowed;

impl SeededShadowed {
    /// The uncalled constructor.
    pub fn new() -> Self {
        SeededShadowed
    }
}

/// Clean for R9: its `new` is the one `core/tests/callers.rs` calls.
pub struct Other;

impl Other {
    /// The called constructor.
    pub fn new() -> Self {
        Other
    }
}

/// A report with one field read and one only written.
#[derive(Debug)]
pub struct SeededReport {
    /// Clean for R9: `core/tests/callers.rs` reads it.
    pub read: u32,
    /// Seeded R9 violation: initialised below and printed by the derived
    /// `Debug`, but read nowhere.
    pub unread: u32,
}

/// Clean for R9: `core/tests/callers.rs` calls it.
pub fn seeded_report() -> SeededReport {
    SeededReport { read: 1, unread: 2 }
}
