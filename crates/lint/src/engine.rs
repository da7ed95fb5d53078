//! The workspace walker: finds every `.rs` file under a root, classifies
//! it (crate, section), decides which rules apply, and runs them.
//!
//! Classification is purely path-based, mirroring cargo's layout:
//!
//! | path                         | section    |
//! |------------------------------|------------|
//! | `crates/<c>/src/bin/…`       | `Bin`      |
//! | `crates/<c>/src/…`, `src/…`  | `Lib`      |
//! | `…/tests/…`, `tests/…`       | `Tests`    |
//! | `…/benches/…`                | `Benches`  |
//! | `…/examples/…`, `examples/…` | `Examples` |
//!
//! R9 reads its definitions in all `Lib` code and counts uses in every
//! scanned file but the defining crate's own `src/` test code and
//! `pub use` lists. Since that needs cross-file context, linting is
//! two-pass: pass one lexes and parses every file; pass two runs R9 over
//! all of them at once. R9 also reports the `keep` entries it no longer
//! needs, under the path `lint.toml`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::lexer::{lex, Lexed};
use crate::parser::{parse_items, ParsedFile};
use crate::regions::{map_file, FileMap};
use crate::rules::{check_unused_pub, FileInput, Rule, Violation};

/// Which cargo target-kind a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// `src/` of a crate (excluding `src/bin`).
    Lib,
    /// `src/bin/` binaries.
    Bin,
    /// Integration tests (`tests/` directories).
    Tests,
    /// Criterion/benchmark code (`benches/` directories).
    Benches,
    /// Example programs (`examples/` directories).
    Examples,
    /// Anything else (scripts, fixtures outside known layouts).
    Other,
}

/// Path-derived identity of one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Crate name (`crates/<name>/…`), or the workspace facade for root
    /// `src/`, or `None` for root-level `tests/`/`examples/`.
    pub crate_name: Option<String>,
    /// The target kind.
    pub section: Section,
}

/// Classifies a `/`-separated relative path.
pub fn classify(rel_path: &str) -> FileClass {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let (crate_name, rest): (Option<String>, &[&str]) = match parts.as_slice() {
        ["crates", name, rest @ ..] => (Some((*name).to_string()), rest),
        rest => (None, rest),
    };
    let section = match rest {
        ["src", "bin", ..] => Section::Bin,
        ["src", ..] => Section::Lib,
        ["tests", ..] => Section::Tests,
        ["benches", ..] => Section::Benches,
        ["examples", ..] => Section::Examples,
        _ => Section::Other,
    };
    // Root `src/` belongs to the facade crate `iobt`.
    let crate_name = match (&crate_name, section) {
        (None, Section::Lib | Section::Bin) => Some("iobt".to_string()),
        _ => crate_name,
    };
    FileClass { crate_name, section }
}

/// The rules that apply to a file's own items.
pub fn applicable_rules(class: &FileClass) -> Vec<Rule> {
    Rule::ALL
        .into_iter()
        .filter(|&rule| match rule {
            // A library's `pub fn` is the one rustc cannot call dead.
            Rule::UnusedPub => class.section == Section::Lib,
        })
        .collect()
}

/// The result of linting a tree.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// `(relative path, violation)` pairs, sorted by path then line; a
    /// stale `keep` entry's path is `lint.toml`.
    pub violations: Vec<(String, Violation)>,
}

impl Report {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One fully-analysed file, owning pass-one artifacts.
struct Unit {
    rel_path: String,
    crate_name: Option<String>,
    lexed: Lexed,
    map: FileMap,
    parsed: ParsedFile,
    rules: Vec<Rule>,
}

/// Lints every `.rs` file under `root` according to `config`.
pub fn lint_root(root: &Path, config: &Config) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, config, &mut files)?;
    files.sort();

    // Pass one: lex, parse and classify.
    let mut units: Vec<Unit> = Vec::new();
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        units.push(analyse(&rel, &src));
    }

    // Pass two: the workspace-wide R9 pass.
    let inputs: Vec<FileInput> = units.iter().map(file_input).collect();
    let applicable: Vec<bool> = units.iter().map(|u| u.rules.contains(&Rule::UnusedPub)).collect();
    let mut violations = check_unused_pub(&inputs, &applicable, &config.keep);
    violations.sort_by(|(pa, a), (pb, b)| {
        (pa, a.line, a.rule, &a.message).cmp(&(pb, b.line, b.rule, &b.message))
    });
    // Two findings of one rule on one line are one as far as the reader
    // is concerned.
    violations.dedup_by(|(pa, a), (pb, b)| pa == pb && a.line == b.line && a.rule == b.rule);
    Ok(Report {
        files_scanned: units.len(),
        violations,
    })
}

/// Pass one for a single file.
fn analyse(rel_path: &str, source: &str) -> Unit {
    let class = classify(rel_path);
    let rules = applicable_rules(&class);
    let lexed = lex(source);
    let map = map_file(&lexed);
    // Files in test/bench/example sections are wholly non-library code:
    // treat every line as test code for the line-level exclusions.
    let map = match class.section {
        Section::Tests | Section::Benches | Section::Examples => map.with_whole_file_test(),
        _ => map,
    };
    let parsed = parse_items(&lexed);
    Unit {
        rel_path: rel_path.to_string(),
        crate_name: class.crate_name,
        lexed,
        map,
        parsed,
        rules,
    }
}

fn file_input(u: &Unit) -> FileInput<'_> {
    FileInput {
        rel_path: &u.rel_path,
        crate_name: u.crate_name.as_deref(),
        lexed: &u.lexed,
        map: &u.map,
        parsed: &u.parsed,
    }
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    config: &Config,
    out: &mut Vec<String>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with('.') {
            continue;
        }
        let rel = rel_str(root, &path);
        if config.path_skipped(&rel) {
            continue;
        }
        let ftype = entry.file_type()?;
        if ftype.is_dir() {
            collect_rs_files(root, &path, config, out)?;
        } else if ftype.is_file() && name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Relative path with `/` separators regardless of platform.
fn rel_str(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lints one file's source text under its relative path, in memory:
    /// R9 over that one file, so only its own code can use its items.
    fn lint_source(rel_path: &str, source: &str) -> Vec<Violation> {
        let unit = analyse(rel_path, source);
        let applicable = unit.rules.contains(&Rule::UnusedPub);
        check_unused_pub(&[file_input(&unit)], &[applicable], &[])
            .into_iter()
            .map(|(_, v)| v)
            .collect()
    }

    #[test]
    fn classification_matches_cargo_layout() {
        let cases = [
            ("crates/netsim/src/sim.rs", Some("netsim"), Section::Lib),
            ("crates/lint/src/bin/iobt-lint.rs", Some("lint"), Section::Bin),
            ("crates/synthesis/benches/kernels.rs", Some("synthesis"), Section::Benches),
            ("crates/core/tests/it.rs", Some("core"), Section::Tests),
            ("src/lib.rs", Some("iobt"), Section::Lib),
            ("tests/determinism.rs", None, Section::Tests),
            ("examples/quickstart.rs", None, Section::Examples),
            ("crates/lint/tests/fixtures/crates/core/src/lib.rs", Some("lint"), Section::Tests),
        ];
        for (path, crate_name, section) in cases {
            let c = classify(path);
            assert_eq!(c.crate_name.as_deref(), crate_name, "{path}");
            assert_eq!(c.section, section, "{path}");
        }
    }

    #[test]
    fn rule_applicability_follows_scope_and_section() {
        let rules = |p: &str| applicable_rules(&classify(p));
        // A library's public items: R9 counts their uses.
        assert_eq!(rules("crates/netsim/src/sim.rs"), vec![Rule::UnusedPub]);
        assert_eq!(rules("src/lib.rs"), vec![Rule::UnusedPub]);
        // A binary's `pub fn` is rustc's to call dead.
        assert!(rules("crates/netsim/src/bin/tool.rs").is_empty());
        // Benches and integration tests only use items.
        assert!(rules("crates/bench/benches/f2_synthesis_scale.rs").is_empty());
        assert!(rules("tests/determinism.rs").is_empty());
    }

    /// A public fn nothing but the file's own unit test calls.
    const TEST_ONLY: &str = "pub fn lone() {}\n#[cfg(test)]\nmod tests {\n    fn t() { super::lone(); }\n}\n";

    #[test]
    fn lint_source_runs_end_to_end() {
        let v = lint_source("crates/core/src/fake.rs", TEST_ONLY);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), (Rule::UnusedPub, 1));
        // The same content outside library code defines no public API.
        assert!(lint_source("examples/fake.rs", TEST_ONLY).is_empty());
    }

    #[test]
    fn lint_source_runs_semantic_rules() {
        // A method counts through its type: `.m(` uses every type's `m`,
        // but another type's `Other::n` is not a use of `S::n`.
        let src = "pub struct S;\nimpl S {\n    pub fn m(&self) {}\n    pub fn n() {}\n}\nfn f(s: S) { s.m(); Other::n(); }\n";
        let v = lint_source("crates/core/src/fake.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
        assert!(v[0].message.contains("`pub fn S::n`"), "{}", v[0].message);
    }
}
