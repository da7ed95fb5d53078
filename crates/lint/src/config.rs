//! Linter configuration: `lint.toml`, the table of the paths the linter
//! skips. Nothing else is configurable: an unused `pub` item that R9
//! finds gains a caller or goes.
//!
//! The config file is a deliberately small TOML subset (sections and
//! one-line `key = ["a", "b"]` string arrays) so the linter needs no
//! external dependencies and builds in fully offline CI sandboxes. An
//! unknown section or key and a malformed line are line-numbered errors,
//! so a typo cannot silently disable a rule.

/// Parsed linter configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Path prefixes (relative to the lint root, `/`-separated) that are
    /// never scanned (`[lint] skip`).
    pub skip: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            skip: vec!["target".into(), "compat".into()],
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
        for (raw, lineno) in text.lines().zip(1u32..) {
            let err = |what: String| format!("line {lineno}: {what}");
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(inner) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let known = ["lint"];
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
            let items = value
                .trim()
                .strip_prefix('[')
                .and_then(|v| v.strip_suffix(']'))
                .and_then(|body| {
                    let items = body.split(',').map(str::trim).filter(|s| !s.is_empty());
                    items.map(parse_string).collect()
                })
                .ok_or_else(|| err(format!("unparsable value for `{key}`")))?;
            match (section, key) {
                (Some("lint"), "skip") => config.skip = items,
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
        };
        assert!(c.path_skipped("crates/lint/tests/fixtures/crates/a/src/lib.rs"));
        assert!(!c.path_skipped("crates/lint/tests/fixtures_extra.rs"));
    }

    #[test]
    fn parses_sections_arrays_and_comments() {
        let toml = r#"
# top comment
[lint]
skip = ["compat", "a # mark", "fixtures"] # why, with a "quote" and a # mark
"#;
        let c = Config::parse(toml).unwrap();
        assert_eq!(c.skip, ["compat", "a # mark", "fixtures"]);
    }

    #[test]
    fn unlisted_rules_have_no_scope() {
        // An absent `[lint]` skips only the built-in build output and
        // vendored shims.
        assert_eq!(Config::parse("# nothing set\n").unwrap(), Config::default());
    }

    #[test]
    fn unknown_rules_and_garbage_are_errors() {
        assert!(Config::parse("[rules.no-such-rule]\ncrates = []\n").is_err());
        // R6 is gone, and its section with it; R9's keep list went too.
        let gone = ["[rules.state-coverage]\ncrates = [\"core\"]\n", "[rules.unused-pub]\nkeep = []\n"];
        for gone in gone {
            let e = Config::parse(gone);
            assert!(e.as_ref().is_err_and(|e| e.starts_with("line 1: unknown section")), "{e:?}");
        }
        assert!(Config::parse("[lint]\nskip garbage\n").is_err());
        assert!(Config::parse("[lint]\nskip = nonsense\n").is_err());
        assert!(Config::parse("[lint]\nskip = [\n  \"a\",\n]\n").is_err(), "arrays take one line");
        assert!(Config::parse("[lint]\nskip = \"a\"\n").is_err(), "a string is no array");
        assert!(Config::parse("skip = []\n").is_err(), "a key outside any section");
    }

    #[test]
    fn misspelt_keys_and_sections_are_line_numbered_errors() {
        // Both typos once left a rule silently unscoped.
        let key = Config::parse("[lint]\nskips = [\"a\"]\n");
        assert_eq!(key, Err("line 2: unknown key `skips` in `[lint]`".to_string()));
        let section = Config::parse("[lint]\nskip = []\n[lnit]\nskip = []\n");
        let message = section.unwrap_err();
        assert!(message.starts_with("line 3: unknown section `[lnit]`"), "{message}");
    }
}
