//! The determinism and panic lists are clippy's (`clippy.toml` plus one
//! crate attribute per library root), so what holds them is wiring: a
//! crate added without the attribute, or a list that loses an entry,
//! would lint clean in silence. This keeps that wiring a `cargo test`
//! failure, not only a CI one.

use std::fs;
use std::path::{Path, PathBuf};

/// The attribute every library root carries, beside `missing_docs`.
const PANIC_LINTS: &str = "#![warn(clippy::unwrap_used, clippy::expect_used)]";

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every workspace crate directory under `crates/`, sorted.
fn crate_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/ lists")
        .map(|e| e.expect("crates/ entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

/// The quoted strings of `key = [ … ]` in a `clippy.toml`, comments
/// stripped (no entry holds a `#`).
fn toml_list(text: &str, key: &str) -> Vec<String> {
    let code: String = text
        .lines()
        .map(|l| l.split('#').next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n");
    let Some(at) = code.find(&format!("{key} = [")) else {
        return Vec::new();
    };
    let body = &code[at..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

#[test]
fn every_library_root_warns_unwrap_and_expect() {
    let mut roots = vec![root().join("src/lib.rs")];
    roots.extend(
        crate_dirs()
            .into_iter()
            .map(|d| d.join("src/lib.rs"))
            .filter(|p| p.is_file()),
    );
    assert!(
        roots.len() >= 17,
        "found only {} library roots",
        roots.len()
    );
    let missing: Vec<String> = roots
        .iter()
        .filter(|p| {
            !fs::read_to_string(p)
                .expect("lib.rs reads")
                .contains(PANIC_LINTS)
        })
        .map(|p| p.display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "library roots without `{PANIC_LINTS}`: {missing:?}"
    );
}

#[test]
fn root_clippy_toml_names_the_determinism_lists() {
    let text = fs::read_to_string(root().join("clippy.toml")).expect("clippy.toml reads");
    assert_eq!(
        toml_list(&text, "disallowed-types"),
        [
            "std::collections::HashMap",
            "std::collections::HashSet",
            "std::time::SystemTime"
        ]
    );
    assert_eq!(
        toml_list(&text, "disallowed-methods"),
        ["std::time::Instant::now"]
    );
    for key in ["allow-unwrap-in-tests", "allow-expect-in-tests"] {
        assert!(text.contains(&format!("{key} = true")), "{key}");
    }
}

#[test]
fn only_the_two_exempt_trees_shadow_the_root_clippy_toml() {
    // Clippy reads the nearest `clippy.toml` (or `.clippy.toml`) above a
    // crate's manifest, so one under a crate would replace the root lists.
    let exempt = [root().join("crates/bench"), root().join("compat")];
    let mut shadowing = Vec::new();
    for dir in crate_dirs().into_iter().chain([root().join("compat")]) {
        for path in [dir.join("clippy.toml"), dir.join(".clippy.toml")] {
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            let comment_only = text
                .lines()
                .all(|l| l.trim().is_empty() || l.trim().starts_with('#'));
            if !(comment_only && exempt.contains(&dir)) {
                shadowing.push(path.display().to_string());
            }
        }
    }
    assert!(
        shadowing.is_empty(),
        "only comment-only exemptions may shadow the root: {shadowing:?}"
    );
}
