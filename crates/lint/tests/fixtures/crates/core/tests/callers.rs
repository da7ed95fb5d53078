//! Fixture: the callers. R9 counts a name over every scanned file, so a
//! use from a `tests/` directory keeps a library's `pub fn` alive: every public
//! fixture function but the seeded one in `learning` is named here.

#[test]
fn every_other_fixture_fn_has_a_caller() {
    let _ = core::allowed_panic(Some(1));
    let _ = core::seeded_missing_docs();
    let _ = learning::seeded_rng_is_fine(7);
    let _ = netsim::decoy_strings();
    let _ = netsim::seeded_hash_iter();
    let _ = netsim::seeded_wall_clock();
    let _ = netsim::allowed_wall_clock();
    let _ = netsim::clean(&Default::default());
}
