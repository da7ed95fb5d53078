//! End-to-end test: lint the seeded fixture tree under the repository's
//! own `lint.toml` scopes, with its `keep` list swapped for three planted
//! keeps, and compare every diagnostic line with `fixtures/expected.txt`.

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

/// Keeps for the fixture tree, which has none of the files the
/// repository's keeps name: one live, one whose fn has a caller and one
/// naming a fn that does not exist. R9 reports the last two at these
/// lines of this text.
const PLANTED_KEEPS: &str = r#"
[rules.unused-pub]
keep = [
    "crates/core/src/lib.rs excused_unused",
    "crates/core/src/lib.rs called_and_excused",
    "crates/core/src/lib.rs deleted_long_ago",
]
"#;

#[test]
fn fixture_tree_trips_every_rule_once() {
    let mut config = root_config();
    config.keep = Config::parse(PLANTED_KEEPS).expect("planted keeps parse").keep;
    let report = lint_root(&fixture_root(), &config).expect("fixture tree scans");
    assert_eq!(report.files_scanned, 4, "fixture tree has four .rs files");
    let got: String = report
        .violations
        .iter()
        .map(|(path, v)| format!("{path}:{}: {} {}\n", v.line, v.rule, v.message))
        .collect();
    let want =
        std::fs::read_to_string(fixture_root().join("expected.txt")).expect("expected.txt reads");
    assert_eq!(got, want, "exactly the planted violations, nothing else");
}

#[test]
fn fixture_tree_is_invisible_when_skipped() {
    let mut config = root_config();
    config.skip.push("crates".to_string());
    config.keep.clear();
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
