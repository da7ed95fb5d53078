//! Item-level parsing on top of the token stream: named structs (with
//! their fields) and impl blocks (with their body token ranges).
//!
//! This is not a full Rust parser — it is the minimal item skeleton R9
//! (unused-pub) needs:
//!
//! * which named structs exist, with their fields and which of those
//!   are `pub`;
//! * which token range each impl body spans, and for which type, so a
//!   `pub fn` is labelled `Type::method` and a `Self::m` resolves to the
//!   impl's type.
//!
//! The parser is forgiving: anything it does not understand is skipped,
//! never an error. Fn and trait bodies are skipped whole (an item inside
//! a fn is local to it), as are macro-rules bodies (their token soup
//! contains `fn`/`struct` keywords that are not items).

use crate::lexer::{Lexed, Token, TokenKind};

/// One named field of a struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name (raw identifiers keep their `r#` prefix).
    pub name: String,
    /// 1-based line of the field name.
    pub line: u32,
    /// Whether the field is `pub` (restricted `pub(…)` is not).
    pub public: bool,
}

/// One struct item with named fields (`struct S { … }`); tuple and
/// unit structs have no field R9 could count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Named fields, in declaration order.
    pub fields: Vec<FieldDef>,
}

/// One `impl` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplDef {
    /// The self type's final path segment (`crate::sim::Core` → `Core`).
    pub self_ty: String,
    /// For `impl Trait for Type`, the trait path's final segment.
    pub trait_name: Option<String>,
    /// Token index range of the body, *excluding* the outer braces.
    pub body: (usize, usize),
}

/// Everything the item parser extracted from one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedFile {
    /// Named structs, in source order (all module levels, flattened).
    pub structs: Vec<StructDef>,
    /// Impl blocks, in source order.
    pub impls: Vec<ImplDef>,
}

/// Parses the item skeleton of a lexed file.
pub fn parse_items(lexed: &Lexed) -> ParsedFile {
    Parser {
        toks: &lexed.tokens,
        out: ParsedFile::default(),
    }
    .run()
}

struct Parser<'a> {
    toks: &'a [Token],
    out: ParsedFile,
}

impl Parser<'_> {
    fn run(mut self) -> ParsedFile {
        let mut i = 0usize;
        while i < self.toks.len() {
            let t = &self.toks[i];
            if t.is_punct('#') {
                i = self.attr(i);
            } else if t.is_ident("macro_rules") || t.is_ident("trait") {
                i = self.skip_to_close_brace(i);
            } else if t.is_ident("struct") {
                i = self.struct_item(i);
            } else if t.is_ident("impl") {
                i = self.impl_item(i);
            } else if t.is_ident("fn") {
                i = self.skip_fn(i);
            } else if t.is_ident("enum")
                || (t.is_ident("union")
                    && self
                        .toks
                        .get(i + 1)
                        .is_some_and(|n| n.kind == TokenKind::Ident))
            {
                // Skip the body so variant fields are not misread.
                // (`union` is contextual: `.union(other)` is a method
                // call, hence the followed-by-identifier guard.)
                i = self.skip_to_close_brace(i);
            } else {
                // `mod x {` braces are scanned through transparently.
                i += 1;
            }
        }
        self.out
    }

    /// Skips one `#[…]` / `#![…]` attribute starting at the `#`. Returns
    /// the index after `]`.
    fn attr(&self, i: usize) -> usize {
        let open = i + 1 + usize::from(self.toks.get(i + 1).is_some_and(|t| t.is_punct('!')));
        if self.toks.get(open).is_some_and(|t| t.is_punct('[')) {
            self.skip_balanced(open)
        } else {
            i + 1 // `#` that is not an attribute (shebang leftovers)
        }
    }

    /// Skips from an opening context to just after the brace matching the
    /// next `{`. Used for enum/union/trait/macro bodies.
    fn skip_to_close_brace(&self, mut i: usize) -> usize {
        while i < self.toks.len() && !self.toks[i].is_punct('{') {
            if self.toks[i].is_punct(';') {
                return i + 1; // bodyless (`mod x;` style)
            }
            i += 1;
        }
        self.skip_balanced(i)
    }

    /// With `toks[i]` an opening delimiter, returns the index just after
    /// its match.
    fn skip_balanced(&self, i: usize) -> usize {
        (close_of(self.toks, i) + 1).min(self.toks.len())
    }

    /// Parses `struct Name …` starting at the `struct` keyword.
    fn struct_item(&mut self, i: usize) -> usize {
        let line = self.toks[i].line;
        let Some(name_tok) = self.toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            return i + 1;
        };
        let name = name_tok.text.clone();
        let mut j = i + 2;
        if self.toks.get(j).is_some_and(|t| t.is_punct('<')) {
            j = self.skip_balanced(j);
        }
        // Optional where clause before the body: scan to `{`, `(`, or `;`
        // outside nested delimiters and generics.
        let mut angle = 0i64;
        let mut paren = 0i64;
        let mut body_at = j;
        let mut where_seen = false;
        while let Some(t) = self.toks.get(body_at) {
            if angle <= 0 && paren == 0 {
                if t.is_punct(';') {
                    return body_at + 1; // `struct S;`
                }
                if t.is_punct('(') && !where_seen {
                    return self.skip_balanced(body_at); // `struct S(…);`
                }
                if t.is_punct('{') {
                    let end = self.skip_balanced(body_at);
                    let fields = self.named_fields(body_at + 1, end.saturating_sub(1));
                    self.out.structs.push(StructDef { name, line, fields });
                    return end;
                }
            }
            if t.is_ident("where") {
                where_seen = true;
            } else if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && body_at > 0 && !self.toks[body_at - 1].is_punct('-') {
                angle -= 1;
            } else if t.is_punct('(') || t.is_punct('[') {
                paren += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                paren -= 1;
            }
            body_at += 1;
        }
        body_at
    }

    /// Parses named fields between token indices (exclusive of braces).
    fn named_fields(&self, from: usize, to: usize) -> Vec<FieldDef> {
        let mut fields = Vec::new();
        let mut public = false;
        let mut j = from;
        while j < to {
            let t = &self.toks[j];
            // Skip attributes on fields.
            if t.is_punct('#') {
                let mut k = j + 1;
                if self.toks.get(k).is_some_and(|t| t.is_punct('[')) {
                    k = self.skip_balanced(k);
                }
                j = k;
                continue;
            }
            if t.is_ident("pub") {
                j += 1;
                public = true;
                if self.toks.get(j).is_some_and(|t| t.is_punct('(')) {
                    j = self.skip_balanced(j);
                    public = false;
                }
                continue;
            }
            // Field: `name : Type ,`
            if t.kind == TokenKind::Ident && self.toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
            {
                let name = t.text.clone();
                let line = t.line;
                let mut k = j + 2;
                let mut depth = 0i64;
                while k < to {
                    let ty = &self.toks[k];
                    if ty.is_punct('(') || ty.is_punct('[') || ty.is_punct('{') {
                        depth += 1;
                    } else if ty.is_punct(')') || ty.is_punct(']') || ty.is_punct('}') {
                        depth -= 1;
                    } else if ty.is_punct('<') {
                        depth += 1;
                    } else if ty.is_punct('>') && !self.toks[k - 1].is_punct('-') {
                        depth -= 1;
                    } else if ty.is_punct(',') && depth == 0 {
                        break;
                    }
                    k += 1;
                }
                fields.push(FieldDef {
                    name,
                    line,
                    public: std::mem::take(&mut public),
                });
                j = k + 1;
                continue;
            }
            j += 1;
        }
        fields
    }

    /// Parses `impl … { … }` starting at the `impl` keyword.
    fn impl_item(&mut self, i: usize) -> usize {
        let mut j = i + 1;
        if self.toks.get(j).is_some_and(|t| t.is_punct('<')) {
            j = self.skip_balanced(j);
        }
        // Collect the header up to `{`, splitting on a top-level `for`.
        let mut pre_for: Vec<&Token> = Vec::new();
        let mut post_for: Vec<&Token> = Vec::new();
        let mut saw_for = false;
        let mut angle = 0i64;
        while let Some(t) = self.toks.get(j) {
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !self.toks[j - 1].is_punct('-') {
                angle -= 1;
            }
            if angle <= 0 {
                if t.is_punct('{') {
                    break;
                }
                if t.is_punct(';') {
                    return j + 1; // `impl Trait for Type;` (unusual) — skip
                }
                if t.is_ident("for") {
                    saw_for = true;
                    j += 1;
                    continue;
                }
                if t.is_ident("where") {
                    // The rest of the header is bounds; stop collecting.
                    while let Some(w) = self.toks.get(j) {
                        if w.is_punct('{') {
                            break;
                        }
                        j += 1;
                    }
                    break;
                }
            }
            if saw_for {
                post_for.push(t);
            } else {
                pre_for.push(t);
            }
            j += 1;
        }
        let last_ident = |toks: &[&Token]| -> String {
            let mut depth = 0i64;
            let mut name = String::new();
            for (k, t) in toks.iter().enumerate() {
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>') && !(k > 0 && toks[k - 1].is_punct('-')) {
                    depth -= 1;
                } else if depth == 0 && t.kind == TokenKind::Ident && !t.is_ident("dyn") {
                    name = t.text.clone();
                }
            }
            name
        };
        let (self_ty, trait_name) = if saw_for {
            (last_ident(&post_for), Some(last_ident(&pre_for)))
        } else {
            (last_ident(&pre_for), None)
        };
        if !self.toks.get(j).is_some_and(|t| t.is_punct('{')) {
            return j;
        }
        let end = self.skip_balanced(j);
        self.out.impls.push(ImplDef {
            self_ty,
            trait_name,
            body: (j + 1, end.saturating_sub(1)),
        });
        end
    }

    /// Skips one fn starting at the `fn` keyword: returns the index after
    /// its body (or the `;` of a bodyless signature).
    fn skip_fn(&self, i: usize) -> usize {
        if !self.toks.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident) {
            return i + 1; // a `fn(…)` pointer type
        }
        let mut j = i + 2;
        if self.toks.get(j).is_some_and(|t| t.is_punct('<')) {
            j = self.skip_balanced(j);
        }
        if self.toks.get(j).is_some_and(|t| t.is_punct('(')) {
            j = self.skip_balanced(j);
        }
        // Return type / where clause: scan to the body `{` or a `;`,
        // tracking generics depth so `-> Result<(), Box<dyn Error>>` or
        // `-> impl Iterator<Item = u8>` cannot end the scan early.
        let mut angle = 0i64;
        while let Some(t) = self.toks.get(j) {
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !self.toks[j - 1].is_punct('-') {
                angle -= 1;
            } else if angle <= 0 && t.is_punct(';') {
                return j + 1;
            } else if angle <= 0 && t.is_punct('{') {
                return self.skip_balanced(j);
            }
            j += 1;
        }
        j
    }
}

/// With `toks[open]` an opening `(`, `[`, `{` or `<`, the index of its
/// match (`toks.len()` when there is none). A `->` arrow closes no `<`.
pub(crate) fn close_of(toks: &[Token], open: usize) -> usize {
    let Some(o) = toks.get(open).and_then(|t| t.text.chars().next()) else {
        return toks.len();
    };
    let c = match o {
        '(' => ')',
        '[' => ']',
        '<' => '>',
        _ => '}',
    };
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) && !(c == '>' && j > 0 && toks[j - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_items(&lex(src))
    }

    #[test]
    fn named_struct_fields_and_derives() {
        // The derive attribute is skipped whole: the struct after it parses.
        let p = parse(
            "#[derive(Debug, Clone, PartialEq)]\npub struct S {\n    pub a: u32,\n    pub(crate) b: Vec<(String, Inner)>,\n}\n",
        );
        assert_eq!(p.structs.len(), 1);
        let s = &p.structs[0];
        assert_eq!(s.name, "S");
        assert_eq!(
            s.fields.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert_eq!(
            s.fields.iter().map(|f| f.public).collect::<Vec<_>>(),
            vec![true, false],
            "restricted visibility is not `pub`"
        );
    }

    #[test]
    fn generics_with_where_clauses() {
        let p = parse(
            "struct Wrap<T, const N: usize>\nwhere\n    T: Clone + PartialOrd<T>,\n{\n    items: [T; N],\n    len: usize,\n}\n",
        );
        assert_eq!(p.structs.len(), 1);
        let s = &p.structs[0];
        assert_eq!(s.name, "Wrap");
        assert_eq!(
            s.fields.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            vec!["items", "len"]
        );
    }

    #[test]
    fn tuple_and_unit_structs() {
        // No named field to count: skipped whole, and the struct after
        // them still parses.
        let p = parse(
            "struct Id(pub u64);\nstruct Pair(u32, u32,);\nstruct Marker;\nstruct Empty();\nstruct Named { pub x: u8 }\n",
        );
        let names: Vec<_> = p.structs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["Named"]);
    }

    #[test]
    fn nested_mods_are_flattened() {
        let p = parse(
            "mod outer {\n    pub mod inner {\n        pub struct Deep { x: u8 }\n        impl Deep { pub fn get(&self) -> u8 { self.x } }\n    }\n}\n",
        );
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].name, "Deep");
        assert_eq!(p.impls.len(), 1);
        assert_eq!(p.impls[0].self_ty, "Deep");
    }

    #[test]
    fn raw_identifiers_survive() {
        let p = parse("struct r#Struct { r#type: u8 }\nimpl r#Struct { fn r#fn(&self) {} }\n");
        assert_eq!(p.structs[0].name, "r#Struct");
        assert_eq!(p.structs[0].fields[0].name, "r#type");
        assert_eq!(p.impls[0].self_ty, "r#Struct");
    }

    #[test]
    fn impl_blocks_carry_trait_and_self_ty() {
        let p = parse(
            "impl Foo { fn a(&self) {} }\nimpl<T> Display for Bar<T> { fn fmt(&self) {} }\nimpl crate::sim::Behavior for Baz { fn save_state(&self) {} }\n",
        );
        let heads: Vec<_> = p
            .impls
            .iter()
            .map(|i| (i.self_ty.as_str(), i.trait_name.as_deref()))
            .collect();
        assert_eq!(
            heads,
            vec![
                ("Foo", None),
                ("Bar", Some("Display")),
                ("Baz", Some("Behavior")),
            ]
        );
    }

    #[test]
    fn trait_default_bodies_are_not_impl_or_free_fns() {
        let p = parse(
            "trait Behavior {\n    fn save_state(&self) -> Option<u8> { struct Local { x: u8 } None }\n    fn id(&self) -> u32;\n}\nfn free() {}\nstruct After { y: u8 }\n",
        );
        assert_eq!(p.impls.len(), 0);
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].name, "After");
    }

    #[test]
    fn fn_bodies_cover_their_tokens_only() {
        let src = "impl A { fn a() { inner_a(); } }\nimpl B { fn b() { inner_b(); } }\n";
        let lexed = lex(src);
        let p = parse_items(&lexed);
        let body = |i: usize| &lexed.tokens[p.impls[i].body.0..p.impls[i].body.1];
        assert!(body(0).iter().any(|t| t.is_ident("inner_a")));
        assert!(!body(0).iter().any(|t| t.is_ident("inner_b")));
        assert!(body(1).iter().any(|t| t.is_ident("inner_b")));
    }

    #[test]
    fn nested_fns_inside_bodies_are_not_items() {
        // Nor is anything else inside a fn: the `impl` of its return type
        // opens no impl block, and a local struct is the fn's own.
        let p = parse(
            "fn outer() -> impl Iterator<Item = u8> {\n    fn inner() {}\n    struct Local { pub x: u8 }\n    impl Local { fn get(&self) {} }\n    std::iter::empty()\n}\nstruct After { y: u8 }\n",
        );
        assert!(p.impls.is_empty(), "{:?}", p.impls);
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].name, "After");
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let p = parse(
            "macro_rules! gen {\n    () => { struct NotReal { x: u8 } fn fake() {} };\n}\nstruct Real { y: u8 }\n",
        );
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].name, "Real");
    }

    #[test]
    fn enum_variant_bodies_are_not_structs() {
        let p = parse(
            "enum E {\n    A { x: u8 },\n    B(u32),\n}\nstruct After { z: u8 }\n",
        );
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].name, "After");
    }

    #[test]
    fn complex_return_types_do_not_end_fn_headers_early() {
        let p = parse(
            "fn f() -> Result<[u8; 4], Box<dyn std::error::Error>> { struct Hidden { x: u8 } Ok([0; 4]) }\nstruct After { y: u8 }\n",
        );
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].name, "After");
    }
}
