//! Fixture: the callers. R9 counts a use over every scanned file, so a
//! use from a `tests/` directory keeps a library's `pub fn` or `pub`
//! field alive: every public fixture function but the seeded ones is
//! named here, and one of
//! `SeededReport`'s two fields read.

#[test]
fn every_other_fixture_fn_has_a_caller() {
    let _ = core::called_from_core_tests();
    let _ = learning::called_from_tests(7);
    let _ = learning::seeded_twin_reader(&Default::default());
    let _ = learning::Other::new();
    let _ = learning::seeded_report().read;
    let _ = netsim::clean(&Default::default());
}
