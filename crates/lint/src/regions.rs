//! Region bookkeeping over the token stream: which lines are test code,
//! which lines belong to attributes or doc comments, and where
//! trait-impl blocks are (their members inherit docs from the trait).
//!
//! Test code is excluded from most rules. A region counts as test code
//! when it is the braced body following `#[cfg(test)]` (including
//! `#[cfg(all(test, …))]`), or a `mod tests { … }` / `mod test { … }`
//! block. `#![cfg(test)]` as an inner attribute marks the whole file.

use std::collections::BTreeSet;

use crate::lexer::Lexed;

/// Line-classification for one source file.
#[derive(Debug, Clone, Default)]
pub struct FileMap {
    /// Inclusive line spans of test regions.
    test_spans: Vec<(u32, u32)>,
    /// Inclusive line spans of trait-impl blocks (`impl Trait for Type`).
    trait_impl_spans: Vec<(u32, u32)>,
    /// Lines covered by attribute tokens (`#[…]`, possibly multi-line).
    attr_lines: BTreeSet<u32>,
    /// Lines covered by doc comments.
    doc_lines: BTreeSet<u32>,
    /// Lines covered by plain (non-doc) comments.
    comment_lines: BTreeSet<u32>,
    /// Lines that carry at least one code token.
    code_lines: BTreeSet<u32>,
    /// Whole file is test code (`#![cfg(test)]`).
    whole_file_test: bool,
}

impl FileMap {
    /// Whether `line` is inside test code.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.whole_file_test || self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// Whether `line` is inside a trait-impl block.
    pub fn is_trait_impl_line(&self, line: u32) -> bool {
        self.trait_impl_spans
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// Marks the whole file as test code — used by the engine for files
    /// that live in `tests/`/`benches/`/`examples/` sections, where no
    /// line is library code.
    pub fn with_whole_file_test(mut self) -> FileMap {
        self.whole_file_test = true;
        self
    }

    /// Whether an item starting on `line` is documented: walking upward,
    /// skipping attribute lines, plain comments, and blank lines, the
    /// first significant thing must be a doc comment.
    pub fn has_doc_above(&self, line: u32) -> bool {
        let mut l = line;
        while l > 1 {
            l -= 1;
            if self.doc_lines.contains(&l) {
                return true;
            }
            if self.attr_lines.contains(&l) || self.comment_lines.contains(&l) {
                continue;
            }
            if self.code_lines.contains(&l) {
                return false; // some other code line: no adjacent docs
            }
            // Blank line: doc comments attach through whitespace.
        }
        false
    }
}

/// Builds the [`FileMap`] for a lexed file.
pub fn map_file(lexed: &Lexed) -> FileMap {
    let mut map = FileMap::default();
    for c in &lexed.comments {
        for l in c.line..=c.end_line {
            if c.doc {
                map.doc_lines.insert(l);
            } else {
                map.comment_lines.insert(l);
            }
        }
    }
    for t in &lexed.tokens {
        map.code_lines.insert(t.line);
    }

    let toks = &lexed.tokens;
    let mut i = 0usize;
    let mut brace_depth = 0i64;
    // (entry depth, start line) of currently-open test / trait-impl blocks.
    let mut open_tests: Vec<(i64, u32)> = Vec::new();
    let mut open_impls: Vec<(i64, u32)> = Vec::new();
    // A `#[cfg(test)]` or `mod tests` seen, waiting for its `{`.
    let mut pending_test = false;
    // An `impl … for …` header seen, waiting for its `{`.
    let mut pending_impl = false;
    // Paren/bracket depth when the pending flag was raised, so a `;` at
    // that depth cancels it (e.g. `#[cfg(test)] use foo;`).
    let mut pending_delim_depth = 0i64;
    let mut delim_depth = 0i64;
    // Inside an `impl` header, between `impl` and `{`.
    let mut impl_header = false;

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
                    map.attr_lines.insert(a.line);
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
                map.attr_lines.insert(t.line);
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
        if t.is_ident("impl") {
            impl_header = true;
            pending_impl = false;
        }
        if impl_header && t.is_ident("for") {
            pending_impl = true;
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
                if impl_header {
                    if pending_impl {
                        open_impls.push((brace_depth, t.line));
                    }
                    impl_header = false;
                    pending_impl = false;
                }
            }
            _ if t.is_punct('}') => {
                if open_tests.last().is_some_and(|&(d, _)| d == brace_depth) {
                    let (_, start) = open_tests.pop().unwrap_or((0, t.line));
                    map.test_spans.push((start, t.line));
                }
                if open_impls.last().is_some_and(|&(d, _)| d == brace_depth) {
                    let (_, start) = open_impls.pop().unwrap_or((0, t.line));
                    map.trait_impl_spans.push((start, t.line));
                }
                brace_depth -= 1;
            }
            _ if t.is_punct(';') => {
                if pending_test && delim_depth <= pending_delim_depth {
                    pending_test = false;
                }
                if impl_header && delim_depth == 0 {
                    impl_header = false;
                    pending_impl = false;
                }
            }
            _ => {}
        }
        i += 1;
    }
    // Unterminated regions (malformed source): close at EOF.
    let last_line = toks.last().map(|t| t.line).unwrap_or(1);
    for (_, start) in open_tests {
        map.test_spans.push((start, last_line));
    }
    for (_, start) in open_impls {
        map.trait_impl_spans.push((start, last_line));
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

    #[test]
    fn trait_impl_blocks_are_tracked() {
        let src = "\
struct S;
impl S {
    pub fn inherent(&self) {}
}
impl std::fmt::Display for S {
    fn fmt(&self) {}
}
";
        let m = map_source(src);
        assert!(!m.is_trait_impl_line(3), "inherent impl is not a trait impl");
        assert!(m.is_trait_impl_line(6));
    }

    #[test]
    fn doc_detection_walks_over_attributes_and_blanks() {
        let src = "\
/// Documented.
#[derive(Debug)]
pub struct A;

/// Documented through a blank line.

pub struct B;
pub struct C;
";
        let m = map_source(src);
        assert!(m.has_doc_above(3), "A");
        assert!(m.has_doc_above(7), "B");
        assert!(!m.has_doc_above(8), "C sits under B's code line");
    }

    #[test]
    fn multiline_attribute_lines_are_all_attr_lines() {
        let src = "/// Doc.\n#[derive(\n    Debug,\n    Clone\n)]\npub struct X;\n";
        let m = map_source(src);
        assert!(m.has_doc_above(6));
    }
}
