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
//! Rule applicability, with every scope read from `lint.toml`:
//!
//! | rule | runs on |
//! |------|---------|
//! | R6 | `Lib`+`Bin` of its `crates`, plus each file in its `paths` |
//! | R9 | definitions in all `Lib` code; uses in every scanned file but the defining crate's own `src/` test code and `pub use` lists |
//!
//! Since R6 and R9 need cross-file context, linting is two-pass: pass one
//! lexes/parses every file and builds the workspace [`SymbolTable`]; pass
//! two runs the rules. R9 also reports the `keep` entries it no longer
//! needs, under the path `lint.toml`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::lexer::{lex, Lexed};
use crate::parser::{parse_items, ParsedFile, SymbolTable};
use crate::regions::{map_file, FileMap};
use crate::rules::{check_state_coverage, check_unused_pub, FileInput, Rule, Violation};

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

/// The rules that apply to a file, given the config.
pub fn applicable_rules(class: &FileClass, rel_path: &str, config: &Config) -> Vec<Rule> {
    let in_scope = class
        .crate_name
        .as_deref()
        .is_some_and(|c| config.state_crates.iter().any(|s| s == c));
    Rule::ALL
        .into_iter()
        .filter(|&rule| match rule {
            Rule::StateCoverage => {
                (matches!(class.section, Section::Lib | Section::Bin) && in_scope)
                    || r6_path_scoped(rel_path, config)
            }
            // A library's `pub fn` is the one rustc cannot call dead.
            Rule::UnusedPub => class.section == Section::Lib,
        })
        .collect()
}

/// Whether `rel_path` is one of R6's `paths = […]` files, where the
/// exhaustiveness convention applies to every fn, not just the
/// `save_state`/`restore_state` pairs.
fn r6_path_scoped(rel_path: &str, config: &Config) -> bool {
    config.state_paths.iter().any(|p| p == rel_path)
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
    r6_path_scoped: bool,
}

/// Lints every `.rs` file under `root` according to `config`.
pub fn lint_root(root: &Path, config: &Config) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, config, &mut files)?;
    files.sort();

    // Pass one: lex, parse, classify, and build the symbol table.
    let mut units: Vec<Unit> = Vec::new();
    let mut table = SymbolTable::default();
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        let unit = analyse(&rel, &src, config);
        if let Some(crate_name) = &unit.crate_name {
            table.add_file(crate_name, &unit.parsed);
        }
        units.push(unit);
    }

    // Pass two: R6 per file, then the workspace-wide R9 pass.
    let inputs: Vec<FileInput> = units.iter().map(file_input).collect();
    let mut violations = Vec::new();
    for (u, input) in units.iter().zip(&inputs) {
        if u.rules.contains(&Rule::StateCoverage) {
            let found = check_state_coverage(input, &table, u.r6_path_scoped);
            violations.extend(found.into_iter().map(|v| (u.rel_path.clone(), v)));
        }
    }
    let applicable: Vec<bool> = units.iter().map(|u| u.rules.contains(&Rule::UnusedPub)).collect();
    violations.extend(check_unused_pub(&inputs, &applicable, &config.keep));
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
fn analyse(rel_path: &str, source: &str, config: &Config) -> Unit {
    let class = classify(rel_path);
    let rules = applicable_rules(&class, rel_path, config);
    let lexed = lex(source);
    let map = map_file(&lexed);
    // Files in test/bench/example sections are wholly non-library code:
    // treat every line as test code for the line-level exclusions, so a
    // `tests/` file never trips R6 even if it were scoped onto it.
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
        r6_path_scoped: r6_path_scoped(rel_path, config),
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

    /// Lints one file's source text under its relative path, in memory.
    /// Cross-file context is limited to this one file: R6 resolves only
    /// structs declared here, and R9, which is nothing without the
    /// callers' files, does not run.
    fn lint_source(rel_path: &str, source: &str, config: &Config) -> Vec<Violation> {
        let unit = analyse(rel_path, source, config);
        if !unit.rules.contains(&Rule::StateCoverage) {
            return Vec::new();
        }
        let mut table = SymbolTable::default();
        if let Some(crate_name) = &unit.crate_name {
            table.add_file(crate_name, &unit.parsed);
        }
        check_state_coverage(&file_input(&unit), &table, unit.r6_path_scoped)
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

    /// The scopes the tests below lint under, shaped like `lint.toml`.
    fn scoped() -> Config {
        Config::parse("[rules.state-coverage]\ncrates = [\"netsim\", \"core\"]\n").unwrap()
    }

    #[test]
    fn rule_applicability_follows_scope_and_section() {
        let config = scoped();
        let lib = |p: &str| applicable_rules(&classify(p), p, &config);
        // An R6-scoped crate's library: both rules.
        assert_eq!(lib("crates/netsim/src/sim.rs"), vec![Rule::StateCoverage, Rule::UnusedPub]);
        // A binary of a scoped crate: R6 but no R9 (a bin's `pub fn` is rustc's).
        assert_eq!(lib("crates/netsim/src/bin/tool.rs"), vec![Rule::StateCoverage]);
        // Unscoped crate: the unused-pub count only.
        assert_eq!(lib("crates/tomography/src/boolean.rs"), vec![Rule::UnusedPub]);
        // Benches and root integration tests: nothing to check.
        assert!(lib("crates/bench/benches/f2_synthesis_scale.rs").is_empty());
        assert!(lib("tests/determinism.rs").is_empty());
    }

    #[test]
    fn r6_paths_config_pulls_in_out_of_scope_files() {
        let config = Config::parse(
            "[rules.state-coverage]\ncrates = []\npaths = [\"crates/obs/src/recorder.rs\"]\n",
        )
        .unwrap();
        let rules = applicable_rules(
            &classify("crates/obs/src/recorder.rs"),
            "crates/obs/src/recorder.rs",
            &config,
        );
        assert!(rules.contains(&Rule::StateCoverage));
        // Sibling file in the same crate: not pulled in.
        let rules = applicable_rules(
            &classify("crates/obs/src/metrics.rs"),
            "crates/obs/src/metrics.rs",
            &config,
        );
        assert!(!rules.contains(&Rule::StateCoverage));
    }

    /// A `save_state` that never destructures `Self`.
    const UNPINNED: &str =
        "struct S { a: u32 }\nimpl S {\n    fn save_state(&self) -> u32 { self.a }\n}\n";

    #[test]
    fn lint_source_runs_end_to_end() {
        let config = scoped();
        let v = lint_source("crates/core/src/fake.rs", UNPINNED, &config);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), (Rule::StateCoverage, 3));
        // Same content in an out-of-scope crate: clean.
        assert!(lint_source("crates/tomography/src/fake.rs", UNPINNED, &config).is_empty());
    }

    #[test]
    fn lint_source_runs_semantic_rules() {
        let config = scoped();
        // The destructure is checked against the declaration: a missing
        // field fires, the exhaustive one is clean.
        let partial = UNPINNED.replace("self.a }", "let Self { } = self; 0 }");
        let v = lint_source("crates/netsim/src/fake.rs", &partial, &config);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("misses declared field(s) `a`"), "{}", v[0].message);
        let exhaustive = UNPINNED.replace("self.a }", "let Self { a } = self; *a }");
        assert!(lint_source("crates/netsim/src/fake.rs", &exhaustive, &config).is_empty());
    }
}
