//! Fixture: the callers. R9 counts a use over every scanned file, so a
//! use from a `tests/` directory keeps a library's `pub fn` or `pub`
//! field alive: every public fixture function but the seeded ones in
//! `learning` is named here, and one of `SeededReport`'s two fields read.

#[test]
fn every_other_fixture_fn_has_a_caller() {
    let _ = core::seeded_panic(Some(1));
    let _ = core::allowed_panic(Some(1));
    let _ = core::seeded_missing_docs();
    let _ = learning::seeded_rng_is_fine(7);
    let _ = learning::seeded_twin_reader(&Default::default());
    let _ = learning::Other::new();
    let _ = learning::seeded_report().read;
    let _ = netsim::decoy_strings();
    let _ = netsim::seeded_hash_iter();
    let _ = netsim::seeded_wall_clock();
    let _ = netsim::allowed_wall_clock();
    let _ = netsim::clean(&Default::default());
}
