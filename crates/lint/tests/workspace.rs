//! The repository lints clean under its own `lint.toml`: what CI's
//! `iobt-lint --deny-all` job checks, run by `cargo test` too.

use iobt_lint::{lint_root, Config};

#[test]
fn repository_has_no_findings() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml reads");
    let config = Config::parse(&text).expect("lint.toml parses");
    let report = lint_root(&root, &config).expect("repository scans");
    assert!(report.files_scanned > 100, "scanned only {} files", report.files_scanned);
    let findings: Vec<String> = report
        .violations
        .iter()
        .map(|(path, v)| format!("{path}:{}: {} {}", v.line, v.rule, v.message))
        .collect();
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}
