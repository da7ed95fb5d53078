//! Item-level parsing on top of the token stream: structs (with their
//! fields), impl blocks (with their fns and body token ranges),
//! trait definitions, and free fns.
//!
//! This is not a full Rust parser — it is the minimal item skeleton the
//! semantic rules (R6 state-coverage, R9 unused-pub) need:
//!
//! * which structs exist, with their exact field lists (so an
//!   exhaustive destructure can be validated against the declaration)
//!   and which of those fields are `pub`;
//! * which fns belong to which impl (so `save_state`, or a `Wire`
//!   impl's `put`, can be tied to the type it persists), with body token
//!   ranges (so the destructures inside can be found, and a `Self::m`
//!   resolved to the impl's type);
//! * which fns are trait-*definition* default bodies (excluded from
//!   R6 — a default body cannot know the implementor's fields).
//!
//! The parser is forgiving: anything it does not understand is skipped,
//! never an error. Macro-rules bodies are skipped wholesale (their
//! token soup contains `fn`/`struct` keywords that are not items).

use std::collections::BTreeMap;

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

/// The shape of a struct body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructKind {
    /// `struct S { … }`
    Named,
    /// `struct S(…);` with the field count.
    Tuple(usize),
    /// `struct S;`
    Unit,
}

/// One struct item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Body shape.
    pub kind: StructKind,
    /// Named fields (empty for tuple/unit structs).
    pub fields: Vec<FieldDef>,
}

/// One fn item, wherever it appears.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// Fn name (raw identifiers keep their `r#` prefix).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body, *excluding* the outer braces.
    /// Empty for bodyless trait signatures.
    pub body: (usize, usize),
}

impl FnDef {
    /// The body tokens within `lexed`.
    pub fn body_tokens<'a>(&self, lexed: &'a Lexed) -> &'a [Token] {
        &lexed.tokens[self.body.0..self.body.1]
    }
}

/// One `impl` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplDef {
    /// The self type's final path segment (`crate::sim::Core` → `Core`).
    pub self_ty: String,
    /// For `impl Trait for Type`, the trait path's final segment.
    pub trait_name: Option<String>,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Token index range of the body, *excluding* the outer braces.
    pub body: (usize, usize),
    /// Fns declared directly in the impl body.
    pub fns: Vec<FnDef>,
}

/// Everything the item parser extracted from one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedFile {
    /// Struct items, in source order (all module levels, flattened).
    pub structs: Vec<StructDef>,
    /// Impl blocks, in source order.
    pub impls: Vec<ImplDef>,
    /// Fns declared outside impls and traits.
    pub free_fns: Vec<FnDef>,
    /// Fns declared inside `trait` definitions (signatures and default
    /// bodies) — R6 never targets these.
    pub trait_fns: Vec<FnDef>,
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
            } else if t.is_ident("macro_rules") {
                i = self.skip_to_close_brace(i);
            } else if t.is_ident("struct") {
                i = self.struct_item(i);
            } else if t.is_ident("impl") {
                i = self.impl_item(i);
            } else if t.is_ident("trait") {
                i = self.trait_item(i);
            } else if t.is_ident("fn") {
                let (f, next) = self.fn_item(i);
                if let Some(f) = f {
                    self.out.free_fns.push(f);
                }
                i = next;
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
    /// next `{`. Used for enum/union/macro bodies.
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
        let mut kind = StructKind::Unit;
        let mut body_at = j;
        let mut where_seen = false;
        while let Some(t) = self.toks.get(body_at) {
            if angle <= 0 && paren == 0 {
                if t.is_punct(';') {
                    kind = StructKind::Unit;
                    break;
                }
                if t.is_punct('{') {
                    kind = StructKind::Named;
                    break;
                }
                if t.is_punct('(') && !where_seen {
                    kind = StructKind::Tuple(0);
                    break;
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
        match kind {
            StructKind::Unit => {
                self.out.structs.push(StructDef {
                    name,
                    line,
                    kind,
                    fields: Vec::new(),
                });
                body_at + 1
            }
            StructKind::Tuple(_) => {
                let end = self.skip_balanced(body_at);
                let arity = self.tuple_arity(body_at + 1, end.saturating_sub(1));
                self.out.structs.push(StructDef {
                    name,
                    line,
                    kind: StructKind::Tuple(arity),
                    fields: Vec::new(),
                });
                end
            }
            StructKind::Named => {
                let end = self.skip_balanced(body_at);
                let fields = self.named_fields(body_at + 1, end.saturating_sub(1));
                self.out.structs.push(StructDef {
                    name,
                    line,
                    kind,
                    fields,
                });
                end
            }
        }
    }

    /// Counts tuple-struct fields between token indices (exclusive of the
    /// parens): top-level comma count + 1 when non-empty.
    fn tuple_arity(&self, from: usize, to: usize) -> usize {
        if from >= to {
            return 0;
        }
        let mut depth = 0i64;
        let mut arity = 1usize;
        let mut trailing_comma = false;
        for t in &self.toks[from..to] {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') || t.is_punct('>') {
                depth -= 1;
            } else if t.is_punct(',') && depth == 0 {
                arity += 1;
                trailing_comma = true;
                continue;
            }
            trailing_comma = false;
        }
        arity - usize::from(trailing_comma)
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
        let line = self.toks[i].line;
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
        let fns = self.body_fns(j + 1, end.saturating_sub(1));
        self.out.impls.push(ImplDef {
            self_ty,
            trait_name,
            line,
            body: (j + 1, end.saturating_sub(1)),
            fns,
        });
        end
    }

    /// Parses `trait Name { … }`; its fns are recorded as trait fns.
    fn trait_item(&mut self, i: usize) -> usize {
        let mut j = i + 1;
        while j < self.toks.len() && !self.toks[j].is_punct('{') {
            if self.toks[j].is_punct(';') {
                return j + 1; // `trait Alias = …;` has no body
            }
            j += 1;
        }
        if j >= self.toks.len() {
            return j;
        }
        let end = self.skip_balanced(j);
        let fns = self.body_fns(j + 1, end.saturating_sub(1));
        self.out.trait_fns.extend(fns);
        end
    }

    /// Collects fns declared at the top level of a brace-delimited body
    /// (an impl or trait body), skipping over nested braces.
    fn body_fns(&self, from: usize, to: usize) -> Vec<FnDef> {
        let mut fns = Vec::new();
        let mut j = from;
        while j < to {
            let t = &self.toks[j];
            if t.is_ident("fn") {
                let (f, next) = self.fn_item(j);
                if let Some(f) = f {
                    fns.push(f);
                }
                j = next;
            } else if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                // Nested delimiters (const initialisers, etc.): skip.
                j = self.skip_balanced(j);
            } else {
                j += 1;
            }
        }
        fns
    }

    /// Parses one fn starting at the `fn` keyword. Returns the fn (None
    /// when malformed) and the index after the body (or the `;`).
    fn fn_item(&self, i: usize) -> (Option<FnDef>, usize) {
        let line = self.toks[i].line;
        let Some(name_tok) = self.toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            return (None, i + 1);
        };
        let name = name_tok.text.clone();
        let mut j = i + 2;
        if self.toks.get(j).is_some_and(|t| t.is_punct('<')) {
            j = self.skip_balanced(j);
        }
        if self.toks.get(j).is_some_and(|t| t.is_punct('(')) {
            j = self.skip_balanced(j);
        }
        // Return type / where clause: scan to the body `{` or a `;`
        // (bodyless trait signature), tracking generics depth so
        // `-> Result<(), Box<dyn Error>>` cannot end the scan early.
        let mut angle = 0i64;
        while let Some(t) = self.toks.get(j) {
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !self.toks[j - 1].is_punct('-') {
                angle -= 1;
            } else if angle <= 0 && t.is_punct(';') {
                return (
                    Some(FnDef {
                        name,
                        line,
                        body: (j, j),
                    }),
                    j + 1,
                );
            } else if angle <= 0 && t.is_punct('{') {
                let end = self.skip_balanced(j);
                return (
                    Some(FnDef {
                        name,
                        line,
                        body: (j + 1, end.saturating_sub(1)),
                    }),
                    end,
                );
            }
            j += 1;
        }
        (None, j)
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

/// A struct signature in the workspace symbol table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructSig {
    /// Body shape.
    pub kind: StructKind,
    /// Named field names, in declaration order.
    pub fields: Vec<String>,
    /// Two same-named structs with different shapes exist in the crate —
    /// field validation is skipped for ambiguous names.
    pub ambiguous: bool,
}

/// Struct signatures across the workspace, keyed by `(crate, name)`.
///
/// Built once per lint run from every parsed file, then consulted by the
/// semantic rules. `cfg`-gated duplicates (e.g. one definition per
/// platform) make a name ambiguous rather than guessing which is live.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    structs: BTreeMap<(String, String), StructSig>,
}

impl SymbolTable {
    /// Registers every struct of a parsed file under `crate_name`.
    pub fn add_file(&mut self, crate_name: &str, parsed: &ParsedFile) {
        for s in &parsed.structs {
            let key = (crate_name.to_string(), s.name.clone());
            let sig = StructSig {
                kind: s.kind,
                fields: s.fields.iter().map(|f| f.name.clone()).collect(),
                ambiguous: false,
            };
            match self.structs.get_mut(&key) {
                None => {
                    self.structs.insert(key, sig);
                }
                Some(existing) => {
                    if existing.kind != sig.kind || existing.fields != sig.fields {
                        existing.ambiguous = true;
                    }
                }
            }
        }
    }

    /// Looks up a struct by crate and name.
    pub fn lookup(&self, crate_name: &str, name: &str) -> Option<&StructSig> {
        self.structs
            .get(&(crate_name.to_string(), name.to_string()))
    }

    /// Looks up a struct by name alone, succeeding only when exactly one
    /// crate defines it (cross-crate destructures like `RecorderCheckpoint`
    /// in `core` code resolve through this).
    pub fn lookup_global(&self, name: &str) -> Option<&StructSig> {
        let mut hits = self
            .structs
            .iter()
            .filter(|((_, n), _)| n == name)
            .map(|(_, sig)| sig);
        let first = hits.next()?;
        hits.next().is_none().then_some(first)
    }
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
        assert_eq!(s.kind, StructKind::Named);
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
        let p = parse("struct Id(pub u64);\nstruct Pair(u32, u32,);\nstruct Marker;\nstruct Empty();\n");
        let kinds: Vec<_> = p.structs.iter().map(|s| (s.name.as_str(), s.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                ("Id", StructKind::Tuple(1)),
                ("Pair", StructKind::Tuple(2)),
                ("Marker", StructKind::Unit),
                ("Empty", StructKind::Tuple(0)),
            ]
        );
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
        assert_eq!(p.impls[0].fns[0].name, "get");
    }

    #[test]
    fn raw_identifiers_survive() {
        let p = parse("struct r#Struct { r#type: u8 }\nimpl r#Struct { fn r#fn(&self) {} }\n");
        assert_eq!(p.structs[0].name, "r#Struct");
        assert_eq!(p.structs[0].fields[0].name, "r#type");
        assert_eq!(p.impls[0].fns[0].name, "r#fn");
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
            "trait Behavior {\n    fn save_state(&self) -> Option<u8> { None }\n    fn id(&self) -> u32;\n}\nfn free() {}\n",
        );
        assert_eq!(p.impls.len(), 0);
        assert_eq!(
            p.trait_fns.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            vec!["save_state", "id"]
        );
        assert_eq!(p.free_fns.len(), 1);
        assert_eq!(p.free_fns[0].name, "free");
    }

    #[test]
    fn fn_bodies_cover_their_tokens_only() {
        let src = "fn a() { inner_a(); }\nfn b() { inner_b(); }\n";
        let lexed = lex(src);
        let p = parse_items(&lexed);
        let a = &p.free_fns[0];
        let b = &p.free_fns[1];
        assert!(a.body_tokens(&lexed).iter().any(|t| t.is_ident("inner_a")));
        assert!(!a.body_tokens(&lexed).iter().any(|t| t.is_ident("inner_b")));
        assert!(b.body_tokens(&lexed).iter().any(|t| t.is_ident("inner_b")));
    }

    #[test]
    fn nested_fns_inside_bodies_are_not_items() {
        let p = parse("fn outer() {\n    fn inner() {}\n    inner();\n}\n");
        assert_eq!(p.free_fns.len(), 1, "inner stays inside outer's body");
        assert_eq!(p.free_fns[0].name, "outer");
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let p = parse(
            "macro_rules! gen {\n    () => { struct NotReal { x: u8 } fn fake() {} };\n}\nstruct Real { y: u8 }\n",
        );
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].name, "Real");
        assert!(p.free_fns.is_empty());
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
            "fn f() -> Result<Vec<u8>, Box<dyn std::error::Error>> { body_marker(); Ok(vec![]) }\n",
        );
        assert_eq!(p.free_fns.len(), 1);
        let lexed = lex(
            "fn f() -> Result<Vec<u8>, Box<dyn std::error::Error>> { body_marker(); Ok(vec![]) }\n",
        );
        let p = parse_items(&lexed);
        assert!(p.free_fns[0]
            .body_tokens(&lexed)
            .iter()
            .any(|t| t.is_ident("body_marker")));
    }

    #[test]
    fn symbol_table_flags_ambiguous_names() {
        let mut table = SymbolTable::default();
        table.add_file("c", &parse("struct S { x: u8 }\n"));
        table.add_file("c", &parse("struct S { y: u8 }\n"));
        assert!(table.lookup("c", "S").is_some_and(|s| s.ambiguous));
        table.add_file("d", &parse("struct S { x: u8 }\n"));
        assert!(table.lookup("d", "S").is_some_and(|s| !s.ambiguous));
    }
}
