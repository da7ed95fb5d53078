//! End-to-end test: lint the seeded fixture tree under the repository's
//! own `lint.toml` (as CI's fixture step does) and assert every planted
//! violation is reported with the right rule ID and line, and nothing else.

use std::path::{Path, PathBuf};

use iobt_lint::{lint_root, Config, Rule};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The repository's `lint.toml`: the one scope table.
fn root_config() -> Config {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../lint.toml");
    let text = std::fs::read_to_string(path).expect("lint.toml reads");
    Config::parse(&text).expect("lint.toml parses")
}

#[test]
fn fixture_tree_trips_every_rule_once() {
    let report = lint_root(&fixture_root(), &root_config()).expect("fixture tree scans");
    assert_eq!(report.files_scanned, 7, "fixture tree has seven .rs files");

    let got: Vec<(String, &'static str, u32)> = report
        .violations
        .iter()
        .map(|(path, v)| (path.replace('\\', "/"), v.rule.id(), v.line))
        .collect();
    let want: Vec<(String, &'static str, u32)> = vec![
        // R8: an allow naming a retired rule; R6: save_state without
        // destructure, restore_state missing `pending`, a `Wire::put`
        // without one.
        ("crates/core/src/checkpoint.rs".to_string(), "R8", 12),
        ("crates/core/src/checkpoint.rs".to_string(), "R6", 16),
        ("crates/core/src/checkpoint.rs".to_string(), "R6", 22),
        ("crates/core/src/checkpoint.rs".to_string(), "R6", 39),
        // R7: missing derive(PartialEq), manual Hash impl.
        ("crates/core/src/digest.rs".to_string(), "R7", 5),
        ("crates/core/src/digest.rs".to_string(), "R7", 16),
        // R8: an allow(unused-pub) above a fn that has a caller. The
        // justified one above it suppresses its R9 finding.
        ("crates/core/src/lib.rs".to_string(), "R8", 13),
        // R9: the one public fn `core/tests/callers.rs` does not name, one
        // named only by its own crate's unit test, one only by a `pub use`,
        // a setter whose name only a field, a local and a `wire_struct!`
        // entry share, a `new` hidden only by a call of `Other::new`, and
        // a field that is initialised and derived-`Debug` but never read.
        ("crates/learning/src/lib.rs".to_string(), "R9", 26),
        ("crates/learning/src/lib.rs".to_string(), "R9", 32),
        ("crates/learning/src/lib.rs".to_string(), "R9", 38),
        ("crates/learning/src/lib.rs".to_string(), "R9", 61),
        ("crates/learning/src/lib.rs".to_string(), "R9", 82),
        ("crates/learning/src/lib.rs".to_string(), "R9", 104),
        // R6: rest-pattern destructure in a snapshot save_state.
        ("crates/netsim/src/sim/snapshot.rs".to_string(), "R6", 12),
    ];
    assert_eq!(got, want, "exactly the planted violations, nothing else");
    let messages: Vec<&str> = report
        .violations
        .iter()
        .map(|(_, v)| v.message.as_str())
        .collect();
    assert!(
        messages[0].contains("names no known rule"),
        "{}",
        messages[0]
    );
    assert!(
        messages[6].contains("suppresses no findings"),
        "{}",
        messages[6]
    );
}

#[test]
fn fixture_violations_can_be_silenced_by_path_allowlist() {
    // Silencing a rule for a path makes its in-file allow directives
    // stale, so R8 must be silenced alongside — the config below is the
    // "turn everything off" shape, and the tree must then be clean.
    let config = Config::parse(
        r#"
        [rules.state-coverage]
        crates = ["core", "netsim"]
        allow = ["crates/netsim", "crates/core"]
        [rules.digest-coverage]
        crates = ["core"]
        types = ["EndStateDigest", "ResilienceReport"]
        allow = ["crates/core"]
        [rules.stale-allow]
        allow = ["crates/core"]
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
    let mut config = root_config();
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
