//! Fixture: digest types with seeded R7 equality violations.

/// Seeded R7: a digest type that does not derive `PartialEq`.
#[derive(Debug, Clone)]
struct EndStateDigest {
    delivered: u64,
    dropped: u64,
}

/// Derives equality, but hashes by hand — seeded R7 at the impl.
#[derive(Debug, Clone, PartialEq)]
struct ResilienceReport {
    repairs: u64,
}

impl std::hash::Hash for ResilienceReport {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.repairs);
    }
}
