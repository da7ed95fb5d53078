//! Linter configuration: the `lint.toml` allowlist file and inline
//! `// lint: allow(<rule>) — <reason>` directives.
//!
//! The config file is a deliberately small TOML subset (sections,
//! `key = "string"`, and single-line `key = ["a", "b"]` arrays) so the
//! linter needs no external dependencies and builds in fully offline CI
//! sandboxes. Unknown keys are ignored; malformed lines are reported as
//! errors so a typo cannot silently disable a rule.

use std::collections::BTreeMap;

use crate::lexer::Comment;
use crate::rules::Rule;

/// Parsed linter configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Path prefixes (relative to the lint root, `/`-separated) that are
    /// never scanned.
    pub skip: Vec<String>,
    /// Per-rule crate scopes (`crates = […]`), keyed by rule name. A
    /// rule that scopes by crate applies to no crate `lint.toml` omits.
    pub scopes: BTreeMap<String, Vec<String>>,
    /// Per-rule allowlisted path prefixes, keyed by rule name. A file
    /// whose relative path starts with an entry is exempt from that rule.
    pub allow_paths: BTreeMap<String, Vec<String>>,
    /// Per-rule *positive* path scopes, keyed by rule name (`paths = […]`).
    /// For R6 these are the snapshot/checkpoint files whose every fn —
    /// not just `save_state`/`restore_state` — is audited.
    pub rule_paths: BTreeMap<String, Vec<String>>,
    /// Per-rule type-name scopes, keyed by rule name (`types = […]`).
    /// For R7 these are the digest types whose equality must be derived.
    pub rule_types: BTreeMap<String, Vec<String>>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            skip: vec!["target".into(), "compat".into()],
            scopes: BTreeMap::new(),
            allow_paths: BTreeMap::new(),
            rule_paths: BTreeMap::new(),
            rule_types: BTreeMap::new(),
        }
    }
}

impl Config {
    /// The crates a rule applies to: its `[rules.<name>] crates = […]`,
    /// or none.
    pub fn scope_of(&self, rule: Rule) -> &[String] {
        listed(&self.scopes, rule)
    }

    /// Whether `rel_path` is exempt from `rule` via `allow = […]`.
    pub fn path_allowed(&self, rule: Rule, rel_path: &str) -> bool {
        listed(&self.allow_paths, rule)
            .iter()
            .any(|p| rel_path.starts_with(p.as_str()))
    }

    /// The positive path scope of `rule` (`paths = […]`), or none.
    pub fn paths_of(&self, rule: Rule) -> &[String] {
        listed(&self.rule_paths, rule)
    }

    /// The type-name scope of `rule` (`types = […]`), or none.
    pub fn types_of(&self, rule: Rule) -> &[String] {
        listed(&self.rule_types, rule)
    }

    /// Whether `rel_path` is skipped entirely.
    pub fn path_skipped(&self, rel_path: &str) -> bool {
        self.skip.iter().any(|p| {
            rel_path == p || rel_path.starts_with(&format!("{p}/"))
        })
    }

    /// Parses the `lint.toml` subset. Returns the config or a
    /// line-numbered error message.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config::default();
        let mut section: Vec<String> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(inner) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = inner.split('.').map(|s| s.trim().to_string()).collect();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("lint.toml:{}: expected `key = value`", lineno + 1));
            };
            let key = key.trim();
            let value = parse_value(value.trim())
                .ok_or_else(|| format!("lint.toml:{}: unparsable value for `{key}`", lineno + 1))?;
            match (section.as_slice(), key) {
                ([s], "skip") if s == "lint" => config.skip = value,
                ([r, name], "crates") if r == "rules" => {
                    config.scopes.insert(name.clone(), value);
                }
                ([r, name], "allow") if r == "rules" => {
                    config.allow_paths.insert(name.clone(), value);
                }
                ([r, name], "paths") if r == "rules" => {
                    config.rule_paths.insert(name.clone(), value);
                }
                ([r, name], "types") if r == "rules" => {
                    config.rule_types.insert(name.clone(), value);
                }
                // Unknown keys/sections are tolerated for forward
                // compatibility (e.g. documentation-only entries).
                _ => {}
            }
        }
        for name in config
            .scopes
            .keys()
            .chain(config.allow_paths.keys())
            .chain(config.rule_paths.keys())
            .chain(config.rule_types.keys())
        {
            if Rule::from_name(name).is_none() {
                return Err(format!("lint.toml: unknown rule `{name}`"));
            }
        }
        Ok(config)
    }
}

/// The list `lint.toml` gives `rule` under one key, or an empty one.
fn listed(lists: &BTreeMap<String, Vec<String>>, rule: Rule) -> &[String] {
    lists.get(rule.name()).map_or(&[], Vec::as_slice)
}

/// Strips a trailing `# comment`, ignoring `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `"str"` (as a one-element list) or `["a", "b"]`.
fn parse_value(value: &str) -> Option<Vec<String>> {
    if let Some(s) = parse_string(value) {
        return Some(vec![s]);
    }
    let inner = value.strip_prefix('[')?.strip_suffix(']')?.trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse_string)
        .collect()
}

fn parse_string(s: &str) -> Option<String> {
    s.strip_prefix('"')?.strip_suffix('"').map(str::to_string)
}

/// The inline allow directives of one file: which lines are exempt from
/// which rules.
///
/// Syntax, inside any comment:
///
/// ```text
/// // lint: allow(<rule-name>) — <non-empty reason>
/// ```
///
/// The separator may be `—`, `--`, `-`, or `:`. A directive covers the
/// comment's own line span **plus the next line**, so it works both as a
/// trailing comment and as a standalone comment above the offending line.
/// A directive without a justification is intentionally inert: the
/// violation is still reported (with a hint), so reviewers always see a
/// reason next to every exemption.
#[derive(Debug, Clone, Default)]
pub struct AllowSet {
    directives: Vec<Directive>,
}

/// One parsed `// lint: allow(<rule>)` directive.
///
/// `rule` is kept as the raw written name (it may not be a known rule —
/// R8 reports that), `line` anchors R8 findings to the comment itself,
/// and `[from, to]` is the inclusive line span the directive covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// The rule name as written inside `allow(…)`.
    pub rule: String,
    /// The comment's first line — where a stale-directive finding lands.
    pub line: u32,
    /// First covered line (the comment's own span start).
    pub from: u32,
    /// Last covered line (the comment's span end plus one line below).
    pub to: u32,
    /// Whether a non-empty justification follows the directive.
    pub justified: bool,
}

impl AllowSet {
    /// Builds the set from a file's comments. Doc comments are skipped:
    /// they *describe* the directive syntax (rule docs quote it), they
    /// don't enact it — a directive must sit in a regular comment.
    pub fn from_comments(comments: &[Comment]) -> AllowSet {
        let mut set = AllowSet::default();
        for c in comments {
            if c.doc {
                continue;
            }
            for (rule, justified) in parse_directives(&c.text) {
                set.directives.push(Directive {
                    rule,
                    line: c.line,
                    from: c.line,
                    to: c.end_line + 1,
                    justified,
                });
            }
        }
        set
    }

    /// All directives in the file, in source order.
    pub fn directives(&self) -> &[Directive] {
        &self.directives
    }
}

/// Extracts `(rule name, has_reason)` for every directive in a comment.
fn parse_directives(text: &str) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("lint: allow(") {
        rest = &rest[at + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else { break };
        let rule = rest[..close].trim().to_string();
        rest = &rest[close + 1..];
        // A justification must follow a separator and contain some
        // alphanumeric substance (not just punctuation).
        let tail = rest
            .trim_start()
            .trim_start_matches(['—', '-', ':', ' '])
            .trim();
        let justified = tail.chars().filter(|c| c.is_alphanumeric()).count() >= 3;
        if !rule.is_empty() {
            out.push((rule, justified));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    impl AllowSet {
        /// Whether `rule` is allowed on `line` by a justified directive.
        fn allowed(&self, rule: Rule, line: u32) -> bool {
            self.directives
                .iter()
                .any(|d| d.justified && d.rule == rule.name() && d.from <= line && line <= d.to)
        }
    }

    #[test]
    fn default_config_skips_target_and_compat() {
        let c = Config::default();
        assert!(c.path_skipped("target/debug/foo.rs"));
        assert!(c.path_skipped("compat/rand/src/lib.rs"));
        assert!(!c.path_skipped("crates/core/src/lib.rs"));
    }

    #[test]
    fn skip_matches_whole_components_only() {
        let c = Config {
            skip: vec!["crates/lint/tests/fixtures".into()],
            ..Config::default()
        };
        assert!(c.path_skipped("crates/lint/tests/fixtures/crates/a/src/lib.rs"));
        assert!(!c.path_skipped("crates/lint/tests/fixtures_extra.rs"));
    }

    #[test]
    fn parses_sections_arrays_and_comments() {
        let toml = r#"
# top comment
[lint]
skip = ["compat", "target"] # trailing

[rules.state-coverage]
crates = ["netsim", "core"]
allow = ["crates/netsim/src/graph.rs"]

[rules.digest-coverage]
crates = ["obs"]
types = ["MetricsDigest"]
"#;
        let c = Config::parse(toml).unwrap();
        assert_eq!(c.skip, vec!["compat".to_string(), "target".to_string()]);
        assert_eq!(
            c.scope_of(Rule::StateCoverage),
            ["netsim".to_string(), "core".to_string()]
        );
        assert!(c.path_allowed(Rule::StateCoverage, "crates/netsim/src/graph.rs"));
        assert!(!c.path_allowed(Rule::StateCoverage, "crates/netsim/src/sim.rs"));
        assert_eq!(c.scope_of(Rule::DigestCoverage), ["obs".to_string()]);
        assert_eq!(c.types_of(Rule::DigestCoverage), ["MetricsDigest".to_string()]);
    }

    #[test]
    fn unlisted_rules_have_no_scope() {
        let c = Config::parse("[rules.digest-coverage]\ncrates = [\"obs\"]\n").unwrap();
        assert!(c.scope_of(Rule::StateCoverage).is_empty());
        assert!(c.paths_of(Rule::StateCoverage).is_empty());
        assert!(c.types_of(Rule::DigestCoverage).is_empty());
        assert!(!c.path_allowed(Rule::DigestCoverage, "crates/obs/src/lib.rs"));
    }

    #[test]
    fn unknown_rules_and_garbage_are_errors() {
        assert!(Config::parse("[rules.no-such-rule]\ncrates = []\n").is_err());
        assert!(Config::parse("[lint]\nskip garbage\n").is_err());
        assert!(Config::parse("[lint]\nskip = nonsense\n").is_err());
    }

    #[test]
    fn directive_with_reason_allows_its_span_and_next_line() {
        let lexed = lex("fn f() {\n    // lint: allow(unused-pub) — named in DESIGN.md\n    let _ = 1;\n}\n");
        let a = AllowSet::from_comments(&lexed.comments);
        assert!(a.allowed(Rule::UnusedPub, 2), "the comment's own line");
        assert!(a.allowed(Rule::UnusedPub, 3), "the following line");
        assert!(!a.allowed(Rule::UnusedPub, 4));
        assert!(!a.allowed(Rule::StateCoverage, 3), "other rules unaffected");
    }

    #[test]
    fn directive_without_reason_is_inert_but_tracked() {
        let lexed = lex("// lint: allow(unused-pub)\npub fn f() {}\n");
        let a = AllowSet::from_comments(&lexed.comments);
        assert!(!a.allowed(Rule::UnusedPub, 2));
        assert!(!a.directives()[0].justified);
    }

    #[test]
    fn ascii_separators_work_too() {
        for sep in ["—", "--", "-", ":"] {
            let src = format!("// lint: allow(digest-coverage) {sep} test double only\nfoo();\n");
            let lexed = lex(&src);
            let a = AllowSet::from_comments(&lexed.comments);
            assert!(a.allowed(Rule::DigestCoverage, 2), "separator {sep:?}");
        }
    }

    #[test]
    fn doc_comments_never_enact_directives() {
        let lexed = lex(
            "/// Quote the syntax: `// lint: allow(unused-pub) — reason here`.\npub fn f() {}\n",
        );
        let a = AllowSet::from_comments(&lexed.comments);
        assert!(a.directives().is_empty());
    }

    #[test]
    fn block_comment_directive_covers_span() {
        let lexed = lex("/* lint: allow(unused-pub) — kept for the fixture\n   spanning */\npub fn f() {}\n");
        let a = AllowSet::from_comments(&lexed.comments);
        assert!(a.allowed(Rule::UnusedPub, 3));
    }
}
