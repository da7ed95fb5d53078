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
//! Rule applicability: R1/R2 run on `Lib`+`Bin` of their scoped crates;
//! R3 on all `Lib` code (panic discipline is a library property); R4
//! everywhere (OS entropy is never acceptable); R5 on `Lib` of the
//! contract crates; R6 on `Lib`+`Bin` of its scoped crates plus any file
//! listed in its `paths` config; R7 on `Lib` of its scoped crates; R8
//! everywhere (a stale directive is stale wherever it sits); R9 on the
//! definitions in all `Lib` code, counting names over every scanned file.
//!
//! Since the semantic rules (R6/R7/R9) need cross-file context, linting is
//! two-pass: pass one lexes/parses every file and builds the workspace
//! [`SymbolTable`]; pass two runs the rules and filters through the
//! allow directives.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::{AllowSet, Config};
use crate::lexer::{lex, Lexed};
use crate::parser::{parse_items, ParsedFile, SymbolTable};
use crate::regions::{map_file, FileMap};
use crate::rules::{
    apply_allows, check_digest_coverage, check_file_raw, check_unused_pub, FileInput, Rule,
    Violation,
};

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
    let in_scope = |rule: Rule| -> bool {
        class
            .crate_name
            .as_deref()
            .is_some_and(|c| config.scope_of(rule).iter().any(|s| s == c))
    };
    Rule::ALL
        .into_iter()
        .filter(|&rule| match rule {
            Rule::HashIter | Rule::WallClock => {
                matches!(class.section, Section::Lib | Section::Bin) && in_scope(rule)
            }
            Rule::Panic => class.section == Section::Lib,
            Rule::Entropy => true,
            Rule::Docs => class.section == Section::Lib && in_scope(rule),
            Rule::StateCoverage => {
                (matches!(class.section, Section::Lib | Section::Bin) && in_scope(rule))
                    || r6_path_scoped(rel_path, config)
            }
            Rule::DigestCoverage => class.section == Section::Lib && in_scope(rule),
            // Stale directives are reported wherever they sit — a dead
            // exemption in a test file is just as misleading.
            Rule::StaleAllow => true,
            // A library's `pub fn` is the one rustc cannot call dead.
            Rule::UnusedPub => class.section == Section::Lib,
        })
        .filter(|&rule| !config.path_allowed(rule, rel_path))
        .collect()
}

/// Whether `rel_path` is one of R6's `paths = […]` files, where the
/// exhaustiveness convention applies to every fn, not just the
/// `save_state`/`restore_state` pairs.
fn r6_path_scoped(rel_path: &str, config: &Config) -> bool {
    config
        .paths_of(Rule::StateCoverage)
        .iter()
        .any(|p| p == rel_path)
}

/// The result of linting a tree.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// `(relative path, violation)` pairs, sorted by path then line.
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
    allows: AllowSet,
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
            table.add_file(crate_name, &rel, &unit.parsed);
        }
        units.push(unit);
    }

    // Pass two: per-file rules, then the workspace-wide R7 and R9 passes,
    // then the allow-directive filter (which implements R8).
    let mut report = Report {
        files_scanned: units.len(),
        violations: Vec::new(),
    };
    let inputs: Vec<FileInput> = units.iter().map(file_input).collect();
    let mut raw: Vec<Vec<Violation>> = units
        .iter()
        .zip(&inputs)
        .map(|(u, input)| check_file_raw(input, &table, &u.rules, u.r6_path_scoped))
        .collect();
    let applicable = |rule: Rule| -> Vec<bool> {
        units.iter().map(|u| u.rules.contains(&rule)).collect()
    };
    let mut workspace_violations = Vec::new();
    check_digest_coverage(
        &inputs,
        &config.types_of(Rule::DigestCoverage),
        &applicable(Rule::DigestCoverage),
        &mut workspace_violations,
    );
    check_unused_pub(&inputs, &applicable(Rule::UnusedPub), &mut workspace_violations);
    for (i, v) in workspace_violations {
        raw[i].push(v);
    }
    for (u, raw) in units.iter().zip(raw) {
        let stale_check = u.rules.contains(&Rule::StaleAllow);
        for v in apply_allows(raw, &u.allows, stale_check) {
            report.violations.push((u.rel_path.clone(), v));
        }
    }
    Ok(report)
}

/// Lints one file's source text under its relative path. Exposed so the
/// fixture tests (and future editor integrations) can lint in-memory
/// content. Cross-file context is limited to this one file: R6 resolves
/// only structs declared here, R7 sees only this file's digest fns, and
/// R9, which is nothing without the callers' files, does not run.
pub fn lint_source(rel_path: &str, source: &str, config: &Config) -> Vec<Violation> {
    let unit = analyse(rel_path, source, config);
    if unit.rules.is_empty() {
        return Vec::new();
    }
    let mut table = SymbolTable::default();
    if let Some(crate_name) = &unit.crate_name {
        table.add_file(crate_name, rel_path, &unit.parsed);
    }
    let input = file_input(&unit);
    let mut raw = check_file_raw(&input, &table, &unit.rules, unit.r6_path_scoped);
    if unit.rules.contains(&Rule::DigestCoverage) {
        let mut digest_violations = Vec::new();
        check_digest_coverage(
            std::slice::from_ref(&input),
            &config.types_of(Rule::DigestCoverage),
            &[true],
            &mut digest_violations,
        );
        raw.extend(digest_violations.into_iter().map(|(_, v)| v));
    }
    apply_allows(raw, &unit.allows, unit.rules.contains(&Rule::StaleAllow))
}

/// Pass one for a single file.
fn analyse(rel_path: &str, source: &str, config: &Config) -> Unit {
    let class = classify(rel_path);
    let rules = applicable_rules(&class, rel_path, config);
    let lexed = lex(source);
    let map = map_file(&lexed);
    // Files in test/bench/example sections are wholly non-library code:
    // treat every line as test code for the line-level exclusions, so a
    // `tests/` file never trips R1/R3 even if R1 were scoped onto it.
    let map = match class.section {
        Section::Tests | Section::Benches | Section::Examples => map.with_whole_file_test(),
        _ => map,
    };
    let parsed = parse_items(&lexed);
    let allows = AllowSet::from_comments(&lexed.comments);
    Unit {
        rel_path: rel_path.to_string(),
        crate_name: class.crate_name,
        lexed,
        map,
        parsed,
        allows,
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
        let config = Config::default();
        let lib = |p: &str| applicable_rules(&classify(p), p, &config);
        // Scoped sim crate: everything except docs (netsim not a contract
        // crate); R6 applies (netsim holds snapshot code), R7 does not.
        assert_eq!(
            lib("crates/netsim/src/sim.rs"),
            vec![
                Rule::HashIter,
                Rule::WallClock,
                Rule::Panic,
                Rule::Entropy,
                Rule::StateCoverage,
                Rule::StaleAllow,
                Rule::UnusedPub
            ]
        );
        // Contract crate in determinism, docs, state, and digest scopes.
        assert_eq!(
            lib("crates/core/src/runtime.rs"),
            vec![
                Rule::HashIter,
                Rule::WallClock,
                Rule::Panic,
                Rule::Entropy,
                Rule::Docs,
                Rule::StateCoverage,
                Rule::DigestCoverage,
                Rule::StaleAllow,
                Rule::UnusedPub
            ]
        );
        // Unscoped crate: panic + entropy discipline, stale-allow hygiene
        // and the unused-pub count.
        assert_eq!(
            lib("crates/tomography/src/boolean.rs"),
            vec![Rule::Panic, Rule::Entropy, Rule::StaleAllow, Rule::UnusedPub]
        );
        // Benches: entropy + stale-allow only.
        assert_eq!(
            lib("crates/bench/benches/f2_synthesis_scale.rs"),
            vec![Rule::Entropy, Rule::StaleAllow]
        );
        // Root integration tests: entropy + stale-allow only.
        assert_eq!(
            lib("tests/determinism.rs"),
            vec![Rule::Entropy, Rule::StaleAllow]
        );
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

    #[test]
    fn path_allowlist_removes_a_rule_for_a_file() {
        let config = Config::parse(
            "[rules.hash-iter]\nallow = [\"crates/netsim/src/graph.rs\"]\n",
        )
        .unwrap();
        let rules = applicable_rules(
            &classify("crates/netsim/src/graph.rs"),
            "crates/netsim/src/graph.rs",
            &config,
        );
        assert!(!rules.contains(&Rule::HashIter));
        assert!(rules.contains(&Rule::WallClock));
    }

    #[test]
    fn lint_source_runs_end_to_end() {
        let config = Config::default();
        let v = lint_source(
            "crates/netsim/src/fake.rs",
            "use std::collections::HashMap;\n",
            &config,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::HashIter);
        // Same content in an out-of-scope crate: clean.
        assert!(lint_source(
            "crates/tomography/src/fake.rs",
            "use std::collections::HashMap;\n",
            &config
        )
        .is_empty());
    }

    #[test]
    fn lint_source_runs_semantic_rules() {
        let config = Config::default();
        // A save_state that never destructures Self: R6 fires.
        let v = lint_source(
            "crates/netsim/src/fake.rs",
            "struct S { a: u32 }\nimpl S {\n    fn save_state(&self) -> u32 { self.a }\n}\n",
            &config,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::StateCoverage);
        // A stale directive: R8 fires even in an unscoped crate.
        let v = lint_source(
            "crates/tomography/src/fake.rs",
            "// lint: allow(panic) — nothing here panics any more\nfn f() {}\n",
            &config,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::StaleAllow);
    }
}
