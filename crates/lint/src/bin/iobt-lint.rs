//! The `iobt-lint` command-line auditor.
//!
//! ```text
//! iobt-lint [--root DIR] [--config FILE] [--deny-all] [--list-rules]
//!           [--baseline FILE] [--write-baseline FILE] [--explain RULE]
//! ```
//!
//! Scans every `.rs` file under the root (default: the current
//! directory), applies R9 with the skips of the config
//! (default: `lint.toml` under the root; a missing one is an error), and
//! prints one `path:line: Rn[name] message` diagnostic per violation.
//! R1–R5 are the compiler's: see the root `clippy.toml`. With
//! `--deny-all` the process exits non-zero when any violation remains —
//! that is the CI mode. Without it the run is advisory (exit 0).
//!
//! `--baseline FILE` subtracts known findings
//! (per rule and path) so a legacy tree can ratchet down to zero;
//! `--write-baseline FILE` records the current findings as that
//! baseline. `--explain R9` prints the long-form rationale for a rule.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use iobt_lint::{lint_root, Config, Report, Rule};

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    deny_all: bool,
    list_rules: bool,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    explain: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        config: None,
        deny_all: false,
        list_rules: false,
        baseline: None,
        write_baseline: None,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a file")?));
            }
            "--deny-all" => args.deny_all = true,
            "--list-rules" => args.list_rules = true,
            "--baseline" => {
                args.baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a file")?));
            }
            "--write-baseline" => {
                args.write_baseline =
                    Some(PathBuf::from(it.next().ok_or("--write-baseline needs a file")?));
            }
            "--explain" => {
                args.explain = Some(it.next().ok_or("--explain needs a rule name or ID")?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: iobt-lint [--root DIR] [--config FILE] [--deny-all] [--list-rules]\n\
                     \x20                [--baseline FILE] [--write-baseline FILE]\n\
                     \x20                [--explain RULE]\n\
                     \n\
                     Applies R9 with the skips of --config\n\
                     (default: DIR/lint.toml).\n\
                     R1–R5 are clippy's and rustc's: see clippy.toml."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("iobt-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &args.explain {
        let Some(rule) = Rule::from_name(name) else {
            eprintln!(
                "iobt-lint: unknown rule `{name}` (known: {})",
                Rule::ALL.map(|r| r.id()).join(", ")
            );
            return ExitCode::from(2);
        };
        println!("{}", rule.explain());
        return ExitCode::SUCCESS;
    }
    let config_path = args.config.clone().unwrap_or_else(|| args.root.join("lint.toml"));
    let config = match std::fs::read_to_string(&config_path) {
        Ok(text) => match Config::parse(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("iobt-lint: {}: {e}", config_path.display());
                return ExitCode::from(2);
            }
        },
        Err(e) => {
            eprintln!("iobt-lint: cannot read {}: {e}", config_path.display());
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        print!("{}", rule_listing());
        return ExitCode::SUCCESS;
    }
    let mut report = match lint_root(&args.root, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("iobt-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.write_baseline {
        let text = baseline_text(&report);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("iobt-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "iobt-lint: wrote baseline with {} finding{} to {}",
            report.violations.len(),
            if report.violations.len() == 1 { "" } else { "s" },
            path.display()
        );
        return ExitCode::SUCCESS;
    }
    let mut baselined = 0usize;
    if let Some(path) = &args.baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("iobt-lint: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let budget = match parse_baseline(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("iobt-lint: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        baselined = apply_baseline(&mut report, budget);
    }
    for (path, v) in &report.violations {
        println!("{path}:{}: {} {}", v.line, v.rule, v.message);
    }
    let n = report.violations.len();
    eprintln!(
        "iobt-lint: {n} violation{} in {} file{} scanned{}",
        if n == 1 { "" } else { "s" },
        report.files_scanned,
        if report.files_scanned == 1 { "" } else { "s" },
        if baselined > 0 {
            format!(" ({baselined} baselined)")
        } else {
            String::new()
        },
    );
    if args.deny_all && !report.is_clean() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One line per rule: R9's scope.
fn rule_listing() -> String {
    format!("{}: every library file\n", Rule::UnusedPub)
}

/// Baseline file format: one `Rn <path> <count>` line per (rule, path)
/// group, sorted — diff-friendly and mergeable. `#` starts a comment.
fn baseline_text(report: &Report) -> String {
    let mut counts: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for (path, v) in &report.violations {
        *counts.entry((v.rule.id(), path)).or_insert(0) += 1;
    }
    let mut out = String::from("# iobt-lint findings baseline: `Rn path count` per line.\n");
    for ((rule, path), n) in counts {
        out.push_str(&format!("{rule} {path} {n}\n"));
    }
    out
}

fn parse_baseline(text: &str) -> Result<BTreeMap<(String, String), usize>, String> {
    let mut budget = BTreeMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(rule), Some(path), Some(count), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("line {}: expected `Rn path count`", lineno + 1));
        };
        if Rule::from_name(rule).is_none() {
            return Err(format!("line {}: unknown rule `{rule}`", lineno + 1));
        }
        let count: usize = count
            .parse()
            .map_err(|_| format!("line {}: bad count `{count}`", lineno + 1))?;
        *budget.entry((rule.to_string(), path.to_string())).or_insert(0) += count;
    }
    Ok(budget)
}

/// Subtracts baselined findings: the first `count` violations of a rule
/// in a path are forgiven; anything beyond the budget is reported. An
/// over-generous baseline is harmless — the ratchet only moves down when
/// the baseline file is regenerated.
fn apply_baseline(report: &mut Report, mut budget: BTreeMap<(String, String), usize>) -> usize {
    let before = report.violations.len();
    report.violations.retain(|(path, v)| {
        match budget.get_mut(&(v.rule.id().to_string(), path.clone())) {
            Some(n) if *n > 0 => {
                *n -= 1;
                false
            }
            _ => true,
        }
    });
    before - report.violations.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iobt_lint::Violation;

    fn report_with(violations: Vec<(&str, Rule, u32)>) -> Report {
        Report {
            files_scanned: violations.len(),
            violations: violations
                .into_iter()
                .map(|(p, rule, line)| {
                    (
                        p.to_string(),
                        Violation { line, rule, message: "msg with \"quotes\"".into() },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn rule_listing_shows_the_configured_scopes() {
        assert_eq!(rule_listing(), "R9[unused-pub]: every library file\n");
    }

    #[test]
    fn baseline_round_trips_and_subtracts() {
        let mut r = report_with(vec![
            ("a.rs", Rule::UnusedPub, 1),
            ("a.rs", Rule::UnusedPub, 9),
            ("b.rs", Rule::UnusedPub, 2),
        ]);
        let text = baseline_text(&r);
        assert_eq!(text.lines().count(), 3, "header + two groups: {text}");
        let budget = parse_baseline(&text).unwrap();
        assert_eq!(apply_baseline(&mut r, budget), 3);
        assert!(r.violations.is_empty());
    }

    #[test]
    fn baseline_budget_is_per_rule_and_path() {
        let mut r = report_with(vec![
            ("a.rs", Rule::UnusedPub, 1),
            ("a.rs", Rule::UnusedPub, 9),
            ("b.rs", Rule::UnusedPub, 2),
        ]);
        let budget = parse_baseline("R9 a.rs 1\n").unwrap();
        assert_eq!(apply_baseline(&mut r, budget), 1);
        // One a.rs finding forgiven; the second a.rs and the b.rs ones stay.
        assert_eq!(r.violations.len(), 2);
        assert_eq!(r.violations[0].1.line, 9);
        assert_eq!(r.violations[1].0, "b.rs");
    }

    #[test]
    fn baseline_rejects_garbage() {
        assert!(parse_baseline("# fine\n\nR9 a.rs 1\n").is_ok());
        assert!(parse_baseline("R99 a.rs 1\n").is_err());
        // A retired rule's ID is no longer a rule.
        assert!(parse_baseline("R3 a.rs 1\n").is_err());
        assert!(parse_baseline("R9 a.rs not-a-number\n").is_err());
        assert!(parse_baseline("R9 a.rs 1 extra\n").is_err());
    }
}
