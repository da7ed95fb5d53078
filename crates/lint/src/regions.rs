//! Region bookkeeping over the token stream: which lines are test code.
//!
//! Test code is excluded from most rules. A region counts as test code
//! when it is the braced body following `#[cfg(test)]` (including
//! `#[cfg(all(test, …))]`), or a `mod tests { … }` / `mod test { … }`
//! block. `#![cfg(test)]` as an inner attribute marks the whole file.

use crate::lexer::Lexed;

/// Line-classification for one source file.
#[derive(Debug, Clone, Default)]
pub struct FileMap {
    /// Inclusive line spans of test regions.
    test_spans: Vec<(u32, u32)>,
    /// Whole file is test code (`#![cfg(test)]`).
    whole_file_test: bool,
}

impl FileMap {
    /// Whether `line` is inside test code.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.whole_file_test || self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// Marks the whole file as test code — used by the engine for files
    /// that live in `tests/`/`benches/`/`examples/` sections, where no
    /// line is library code.
    pub fn with_whole_file_test(mut self) -> FileMap {
        self.whole_file_test = true;
        self
    }
}

/// Builds the [`FileMap`] for a lexed file.
pub fn map_file(lexed: &Lexed) -> FileMap {
    let mut map = FileMap::default();
    let toks = &lexed.tokens;
    let mut i = 0usize;
    let mut brace_depth = 0i64;
    // (entry depth, start line) of currently-open test blocks.
    let mut open_tests: Vec<(i64, u32)> = Vec::new();
    // A `#[cfg(test)]` or `mod tests` seen, waiting for its `{`.
    let mut pending_test = false;
    // Paren/bracket depth when the pending flag was raised, so a `;` at
    // that depth cancels it (e.g. `#[cfg(test)] use foo;`).
    let mut pending_delim_depth = 0i64;
    let mut delim_depth = 0i64;

    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('#') {
            // Attribute: `#[…]` or `#![…]`.
            let mut j = i + 1;
            let inner = j < toks.len() && toks[j].is_punct('!');
            if inner {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('[') {
                let mut depth = 0i64;
                let mut has_cfg = false;
                let mut has_test = false;
                while j < toks.len() {
                    let a = &toks[j];
                    if a.is_punct('[') {
                        depth += 1;
                    } else if a.is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if a.is_ident("cfg") {
                        has_cfg = true;
                    } else if a.is_ident("test") {
                        has_test = true;
                    }
                    j += 1;
                }
                if has_cfg && has_test {
                    if inner {
                        map.whole_file_test = true;
                    } else {
                        pending_test = true;
                        pending_delim_depth = delim_depth;
                    }
                }
                i = j + 1;
                continue;
            }
        }
        if t.is_ident("mod")
            && toks
                .get(i + 1)
                .is_some_and(|n| n.is_ident("tests") || n.is_ident("test"))
        {
            pending_test = true;
            pending_delim_depth = delim_depth;
        }
        match () {
            _ if t.is_punct('(') || t.is_punct('[') => delim_depth += 1,
            _ if t.is_punct(')') || t.is_punct(']') => delim_depth -= 1,
            _ if t.is_punct('{') => {
                brace_depth += 1;
                if pending_test {
                    open_tests.push((brace_depth, t.line));
                    pending_test = false;
                }
            }
            _ if t.is_punct('}') => {
                if open_tests.last().is_some_and(|&(d, _)| d == brace_depth) {
                    let (_, start) = open_tests.pop().unwrap_or((0, t.line));
                    map.test_spans.push((start, t.line));
                }
                brace_depth -= 1;
            }
            _ if t.is_punct(';') && delim_depth <= pending_delim_depth => pending_test = false,
            _ => {}
        }
        i += 1;
    }
    // Unterminated regions (malformed source): close at EOF.
    let last_line = toks.last().map(|t| t.line).unwrap_or(1);
    for (_, start) in open_tests {
        map.test_spans.push((start, last_line));
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_source(src: &str) -> FileMap {
        map_file(&crate::lexer::lex(src))
    }

    #[test]
    fn cfg_test_module_is_a_test_region() {
        let src = "\
fn lib_code() {}
#[cfg(test)]
mod unit {
    fn helper() {}
}
fn more_lib() {}
";
        let m = map_source(src);
        assert!(!m.is_test_line(1));
        assert!(m.is_test_line(3));
        assert!(m.is_test_line(4));
        assert!(m.is_test_line(5));
        assert!(!m.is_test_line(6));
    }

    #[test]
    fn mod_tests_without_attr_is_a_test_region() {
        let src = "fn a() {}\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let m = map_source(src);
        assert!(!m.is_test_line(1));
        assert!(m.is_test_line(3));
        assert!(!m.is_test_line(5));
    }

    #[test]
    fn cfg_test_on_use_statement_does_not_open_a_region() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn lib(x: [u8; 3]) {}\n";
        let m = map_source(src);
        assert!(!m.is_test_line(3), "the fn body is not test code");
    }

    #[test]
    fn cfg_all_test_counts() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t {\n    fn f() {}\n}\n";
        let m = map_source(src);
        assert!(m.is_test_line(3));
    }

    #[test]
    fn inner_cfg_test_marks_whole_file() {
        let m = map_source("#![cfg(test)]\nfn anything() {}\n");
        assert!(m.is_test_line(2));
    }

    #[test]
    fn braces_in_char_literals_do_not_corrupt_spans() {
        let src = "#[cfg(test)]\nmod t {\n    const C: char = '}';\n    fn f() {}\n}\nfn lib() {}\n";
        let m = map_source(src);
        assert!(m.is_test_line(4));
        assert!(!m.is_test_line(6));
    }
}
