//! End-to-end test: lint the seeded fixture tree and assert every planted
//! violation is reported with the right rule ID and line, and nothing else.

use iobt_lint::{lint_root, Config, Rule};

fn fixture_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn fixture_tree_trips_every_rule_once() {
    let report = lint_root(&fixture_root(), &Config::default()).expect("fixture tree scans");
    assert_eq!(report.files_scanned, 7, "fixture tree has seven .rs files");

    let got: Vec<(String, &'static str, u32)> = report
        .violations
        .iter()
        .map(|(path, v)| (path.replace('\\', "/"), v.rule.id(), v.line))
        .collect();
    let want: Vec<(String, &'static str, u32)> = vec![
        // R8: stale allow(hash-iter); R6: save_state without destructure,
        // restore_state missing `pending`, a `Wire::put` without one.
        ("crates/core/src/checkpoint.rs".to_string(), "R8", 12),
        ("crates/core/src/checkpoint.rs".to_string(), "R6", 16),
        ("crates/core/src/checkpoint.rs".to_string(), "R6", 22),
        ("crates/core/src/checkpoint.rs".to_string(), "R6", 39),
        // R7: missing derive(PartialEq), manual Hash impl, unhashed field.
        ("crates/core/src/digest.rs".to_string(), "R7", 5),
        ("crates/core/src/digest.rs".to_string(), "R7", 16),
        ("crates/core/src/digest.rs".to_string(), "R7", 31),
        ("crates/core/src/lib.rs".to_string(), "R3", 6),
        ("crates/core/src/lib.rs".to_string(), "R5", 15),
        ("crates/learning/src/lib.rs".to_string(), "R4", 15),
        // R9: the one public fn `core/tests/callers.rs` does not name.
        ("crates/learning/src/lib.rs".to_string(), "R9", 26),
        ("crates/netsim/src/lib.rs".to_string(), "R1", 16),
        ("crates/netsim/src/lib.rs".to_string(), "R2", 22),
        // R6: rest-pattern destructure in a snapshot save_state.
        ("crates/netsim/src/sim/snapshot.rs".to_string(), "R6", 12),
    ];
    assert_eq!(got, want, "exactly the planted violations, nothing else");
}

#[test]
fn fixture_violations_can_be_silenced_by_path_allowlist() {
    // Silencing a rule for a path makes its in-file allow directives
    // stale, so R8 must be silenced alongside — the config below is the
    // "turn everything off" shape, and the tree must then be clean.
    let config = Config::parse(
        r#"
        [rules.hash-iter]
        allow = ["crates/netsim", "crates/core"]
        [rules.wall-clock]
        allow = ["crates/netsim"]
        [rules.panic]
        allow = ["crates/core"]
        [rules.docs]
        allow = ["crates/core"]
        [rules.entropy]
        allow = ["crates/learning"]
        [rules.state-coverage]
        allow = ["crates/netsim", "crates/core"]
        [rules.digest-coverage]
        allow = ["crates/core"]
        [rules.stale-allow]
        allow = ["crates/netsim", "crates/core"]
        [rules.unused-pub]
        allow = ["crates/learning"]
        "#,
    )
    .expect("config parses");
    let report = lint_root(&fixture_root(), &config).expect("fixture tree scans");
    assert!(report.is_clean(), "allowlisted: {:?}", report.violations);
}

#[test]
fn fixture_tree_is_invisible_when_skipped() {
    let mut config = Config::default();
    config.skip.push("crates".to_string());
    let report = lint_root(&fixture_root(), &config).expect("fixture tree scans");
    assert_eq!(report.files_scanned, 0);
    assert!(report.is_clean());
}

#[test]
fn rule_ids_round_trip_through_names() {
    for rule in Rule::ALL {
        assert_eq!(Rule::from_name(rule.name()), Some(rule));
    }
}
