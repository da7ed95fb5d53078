//! Fixture: the "netsim" crate root, clean under every rule. Hash
//! containers and wall-clock reads are clippy's to refuse
//! (`clippy.toml`), so none of these lines is the linter's business.

use std::collections::HashMap;

/// Clean for R9: `core/tests/callers.rs` calls it.
pub fn clean(m: &HashMap<u32, u32>) -> usize {
    m.len()
}
