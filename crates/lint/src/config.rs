//! Linter configuration: `lint.toml`, the one table of the paths the
//! linter skips and of the unused `pub` items R9 keeps.
//!
//! The config file is a deliberately small TOML subset (sections,
//! `key = "string"`, and `key = ["a", "b"]` arrays, which may span lines)
//! so the linter needs no external dependencies and builds in fully
//! offline CI sandboxes. An unknown section or key and a malformed line
//! are line-numbered errors, so a typo cannot silently disable a rule.

/// Parsed linter configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Path prefixes (relative to the lint root, `/`-separated) that are
    /// never scanned (`[lint] skip`).
    pub skip: Vec<String>,
    /// The unused `pub` items R9 lets stand
    /// (`[rules.unused-pub] keep`).
    pub keep: Vec<Keep>,
}

/// One `keep` entry, written `"<path> <label>"`: the file an unused `pub`
/// item sits in and the label R9 prints for it (`fn`, `Type::method` or
/// `Type.field`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Keep {
    /// `/`-separated path relative to the lint root.
    pub path: String,
    /// The item's label.
    pub label: String,
    /// The `lint.toml` line the entry is written on, where R9 reports a
    /// keep that is no longer needed.
    pub line: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            skip: vec!["target".into(), "compat".into()],
            keep: Vec::new(),
        }
    }
}

impl Config {
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
        let mut section = None;
        let mut lines = text.lines().zip(1u32..);
        while let Some((raw, lineno)) = lines.next() {
            let err = |what: String| format!("line {lineno}: {what}");
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(inner) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let known = ["lint", "rules.unused-pub"];
                let Some(name) = known.into_iter().find(|s| *s == inner.trim()) else {
                    return Err(err(format!(
                        "unknown section `[{inner}]` (known: {})",
                        known.map(|s| format!("[{s}]")).join(", ")
                    )));
                };
                section = Some(name);
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err("expected `key = value`".into()));
            };
            let key = key.trim();
            let mut items = Vec::new();
            let mut rest = value.trim();
            if let Some(inner) = rest.strip_prefix('[') {
                // An array runs to the first line that ends in `]`.
                rest = inner;
                let mut at = lineno;
                loop {
                    let (body, closed) = match rest.strip_suffix(']') {
                        Some(body) => (body, true),
                        None => (rest, false),
                    };
                    for item in body.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                        let s = parse_string(item)
                            .ok_or_else(|| format!("line {at}: unparsable value for `{key}`"))?;
                        items.push((s, at));
                    }
                    if closed {
                        break;
                    }
                    let Some((next, n)) = lines.next() else {
                        return Err(err(format!("`{key}` opens an array that never closes")));
                    };
                    (rest, at) = (strip_comment(next).trim(), n);
                }
            } else {
                let s = parse_string(rest)
                    .ok_or_else(|| err(format!("unparsable value for `{key}`")))?;
                items.push((s, lineno));
            }
            let strings = || items.iter().map(|(s, _)| s.clone()).collect();
            match (section, key) {
                (Some("lint"), "skip") => config.skip = strings(),
                (Some("rules.unused-pub"), "keep") => {
                    for (entry, line) in &items {
                        let (path, label) = entry
                            .split_once(' ')
                            .filter(|(p, l)| !p.is_empty() && !l.is_empty() && !l.contains(' '))
                            .ok_or_else(|| {
                                format!(
                                    "line {line}: a keep entry is `\"<path> <label>\"`, \
                                     not `{entry:?}`"
                                )
                            })?;
                        config.keep.push(Keep {
                            path: path.to_string(),
                            label: label.to_string(),
                            line: *line,
                        });
                    }
                }
                (Some(s), _) => return Err(err(format!("unknown key `{key}` in `[{s}]`"))),
                (None, _) => return Err(err(format!("key `{key}` outside any section"))),
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

fn parse_string(s: &str) -> Option<String> {
    s.strip_prefix('"')?.strip_suffix('"').map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

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

[rules.unused-pub]
keep = [
    "crates/a/src/lib.rs Type::method",  # why, with a "quote" and a # mark
    "crates/b/src/lib.rs Type.field", "crates/c/src/lib.rs free_fn",
]
"#;
        let c = Config::parse(toml).unwrap();
        assert_eq!(c.skip, ["compat", "target"]);
        let keeps: Vec<(&str, &str, u32)> = c
            .keep
            .iter()
            .map(|k| (k.path.as_str(), k.label.as_str(), k.line))
            .collect();
        assert_eq!(
            keeps,
            [
                ("crates/a/src/lib.rs", "Type::method", 8),
                ("crates/b/src/lib.rs", "Type.field", 9),
                ("crates/c/src/lib.rs", "free_fn", 9),
            ]
        );
    }

    #[test]
    fn unlisted_rules_have_no_scope() {
        // An empty keep list keeps nothing, and an absent `[lint]` skips
        // only the built-in build output and vendored shims.
        let c = Config::parse("[rules.unused-pub]\nkeep = []\n").unwrap();
        assert!(c.keep.is_empty());
        assert_eq!(c, Config::default());
    }

    #[test]
    fn unknown_rules_and_garbage_are_errors() {
        assert!(Config::parse("[rules.no-such-rule]\ncrates = []\n").is_err());
        // R6 is gone, and its section with it.
        let r6 = Config::parse("[rules.state-coverage]\ncrates = [\"core\"]\n");
        assert!(r6.as_ref().is_err_and(|e| e.starts_with("line 1: unknown section")), "{r6:?}");
        assert!(Config::parse("[lint]\nskip garbage\n").is_err());
        assert!(Config::parse("[lint]\nskip = nonsense\n").is_err());
        assert!(Config::parse("[rules.unused-pub]\nkeep = [\n  \"a.rs f\",\n").is_err());
        assert!(Config::parse("[rules.unused-pub]\nkeep = [\"a.rs\"]\n").is_err());
        assert!(Config::parse("[rules.unused-pub]\nkeep = [\"a.rs f g\"]\n").is_err());
        assert!(Config::parse("skip = []\n").is_err(), "a key outside any section");
    }

    #[test]
    fn misspelt_keys_and_sections_are_line_numbered_errors() {
        // Both typos once left a rule silently unscoped.
        let key = Config::parse("[rules.unused-pub]\nkeeps = [\"a.rs f\"]\n");
        assert_eq!(
            key,
            Err("line 2: unknown key `keeps` in `[rules.unused-pub]`".to_string())
        );
        let section = Config::parse("[lint]\nskip = []\n[rule.unused-pub]\nkeep = []\n");
        let message = section.unwrap_err();
        assert!(message.starts_with("line 3: unknown section `[rule.unused-pub]`"), "{message}");
        // A key that is real, but another section's, is no better.
        assert!(Config::parse("[rules.unused-pub]\nskip = [\"x\"]\n").is_err());
    }
}
