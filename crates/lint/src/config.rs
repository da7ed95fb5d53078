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
    /// Per-rule crate scope overrides, keyed by rule name. Rules not
    /// listed keep their built-in default scope.
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
    /// The crates a rule applies to, honouring `[rules.<name>] crates = …`
    /// overrides and falling back to the rule's built-in default scope.
    pub fn scope_of(&self, rule: Rule) -> Vec<String> {
        if let Some(crates) = self.scopes.get(rule.name()) {
            return crates.clone();
        }
        rule.default_scope().iter().map(|s| s.to_string()).collect()
    }

    /// Whether `rel_path` is exempt from `rule` via `allow = […]`.
    pub fn path_allowed(&self, rule: Rule, rel_path: &str) -> bool {
        self.allow_paths
            .get(rule.name())
            .is_some_and(|prefixes| prefixes.iter().any(|p| rel_path.starts_with(p.as_str())))
    }

    /// The positive path scope of `rule` (`paths = […]` override, else the
    /// rule's built-in default paths).
    pub fn paths_of(&self, rule: Rule) -> Vec<String> {
        if let Some(paths) = self.rule_paths.get(rule.name()) {
            return paths.clone();
        }
        rule.default_paths().iter().map(|s| s.to_string()).collect()
    }

    /// The type-name scope of `rule` (`types = […]` override, else the
    /// rule's built-in default types).
    pub fn types_of(&self, rule: Rule) -> Vec<String> {
        if let Some(types) = self.rule_types.get(rule.name()) {
            return types.clone();
        }
        rule.default_types().iter().map(|s| s.to_string()).collect()
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
        let mut c = Config::default();
        c.skip = vec!["crates/lint/tests/fixtures".into()];
        assert!(c.path_skipped("crates/lint/tests/fixtures/crates/a/src/lib.rs"));
        assert!(!c.path_skipped("crates/lint/tests/fixtures_extra.rs"));
    }

    #[test]
    fn parses_sections_arrays_and_comments() {
        let toml = r#"
# top comment
[lint]
skip = ["compat", "target"] # trailing

[rules.hash-iter]
crates = ["netsim", "core"]
allow = ["crates/netsim/src/graph.rs"]

[rules.docs]
crates = ["types"]
"#;
        let c = Config::parse(toml).unwrap();
        assert_eq!(c.skip, vec!["compat".to_string(), "target".to_string()]);
        assert_eq!(
            c.scope_of(Rule::HashIter),
            vec!["netsim".to_string(), "core".to_string()]
        );
        assert!(c.path_allowed(Rule::HashIter, "crates/netsim/src/graph.rs"));
        assert!(!c.path_allowed(Rule::HashIter, "crates/netsim/src/sim.rs"));
        assert_eq!(c.scope_of(Rule::Docs), vec!["types".to_string()]);
    }

    #[test]
    fn unlisted_rules_keep_default_scope() {
        let c = Config::parse("[rules.docs]\ncrates = [\"types\"]\n").unwrap();
        assert_eq!(
            c.scope_of(Rule::HashIter),
            Rule::HashIter
                .default_scope()
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn unknown_rules_and_garbage_are_errors() {
        assert!(Config::parse("[rules.no-such-rule]\ncrates = []\n").is_err());
        assert!(Config::parse("[lint]\nskip garbage\n").is_err());
        assert!(Config::parse("[lint]\nskip = nonsense\n").is_err());
    }

    #[test]
    fn directive_with_reason_allows_its_span_and_next_line() {
        let lexed = lex("fn f() {\n    // lint: allow(panic) — invariant: map key inserted above\n    let _ = 1;\n}\n");
        let a = AllowSet::from_comments(&lexed.comments);
        assert!(a.allowed(Rule::Panic, 2), "the comment's own line");
        assert!(a.allowed(Rule::Panic, 3), "the following line");
        assert!(!a.allowed(Rule::Panic, 4));
        assert!(!a.allowed(Rule::HashIter, 3), "other rules unaffected");
    }

    #[test]
    fn directive_without_reason_is_inert_but_tracked() {
        let lexed = lex("// lint: allow(panic)\nlet x = y.unwrap();\n");
        let a = AllowSet::from_comments(&lexed.comments);
        assert!(!a.allowed(Rule::Panic, 2));
        assert!(!a.directives()[0].justified);
    }

    #[test]
    fn ascii_separators_work_too() {
        for sep in ["—", "--", "-", ":"] {
            let src = format!("// lint: allow(wall-clock) {sep} reporting only\nfoo();\n");
            let lexed = lex(&src);
            let a = AllowSet::from_comments(&lexed.comments);
            assert!(a.allowed(Rule::WallClock, 2), "separator {sep:?}");
        }
    }

    #[test]
    fn doc_comments_never_enact_directives() {
        let lexed = lex(
            "/// Quote the syntax: `// lint: allow(panic) — reason here`.\nfn f() { x.unwrap(); }\n",
        );
        let a = AllowSet::from_comments(&lexed.comments);
        assert!(a.directives().is_empty());
    }

    #[test]
    fn block_comment_directive_covers_span() {
        let lexed = lex("/* lint: allow(entropy) — fixture uses OS RNG deliberately\n   spanning */\nthread_rng();\n");
        let a = AllowSet::from_comments(&lexed.comments);
        assert!(a.allowed(Rule::Entropy, 3));
    }
}
