//! The rule catalogue: the workspace-wide use count R9 (public functions
//! and fields nobody uses, against `lint.toml`'s `keep` list). R1–R5
//! (hash containers, wall clock, panics, entropy, docs) are the
//! compiler's: the root `clippy.toml`, `clippy::unwrap_used` /
//! `expect_used` and `missing_docs`. R6's state coverage is
//! `tests/checkpoint.rs`'s resume-then-step byte test, R7's digest
//! equality is `tests/digest_equality.rs`'s, and R8's stale-exemption
//! check is R9's own. See `lint.toml` and the README "Static analysis"
//! section.

use std::collections::BTreeMap;

use crate::config::Keep;
use crate::engine::{classify, Section};
use crate::lexer::{Lexed, Token, TokenKind};
use crate::parser::{close_of, ParsedFile};
use crate::regions::FileMap;

/// A rule identity: stable ID (`R9`) plus the kebab-case name used in
/// `lint.toml` sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R9 `unused-pub`: a `pub fn` or named `pub` field in library code
    /// that nothing in the scanned workspace uses outside its own crate's
    /// unit tests and `pub use` lists; a method's uses are counted by its
    /// type, a field's by its reads. A `keep` entry lets one stand until
    /// it gains a use.
    UnusedPub,
}

impl Rule {
    /// Every rule, in ID order.
    pub const ALL: [Rule; 1] = [Rule::UnusedPub];

    /// Stable rule ID (`R9`; R1–R5 are the compiler's, R6–R8 are gone).
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnusedPub => "R9",
        }
    }

    /// Kebab-case name used in `lint.toml`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnusedPub => "unused-pub",
        }
    }

    /// Resolves a rule from its name or its `Rn` ID.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL
            .into_iter()
            .find(|r| r.name() == name || r.id() == name)
    }

    /// Long-form documentation for `--explain`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::UnusedPub => {
                "R9[unused-pub] — public API somebody uses.\n\
                 \n\
                 rustc reports dead private and `pub(crate)` code but must assume a\n\
                 `pub` item in a library has users elsewhere. In this workspace\n\
                 elsewhere is scanned too: a `pub fn` or named `pub` field in\n\
                 library code is unused when nothing uses it but the unit tests\n\
                 (test-only code) under its own crate's `src/` and `pub use`\n\
                 statements. Everything else counts: integration tests, examples,\n\
                 benches, the benchmark and other crates' unit tests (doc comments\n\
                 are not code).\n\
                 \n\
                 A free fn is used by a call or path of its name (`name(`,\n\
                 `name::<`, `module::name`). A method of an inherent `impl T` is\n\
                 used by `T::m`, by `Self::m` inside an `impl T`, by any `.m(`\n\
                 (receivers are not resolved, so it counts for every type's `m`)\n\
                 and by a qualifier that names no one type (a generic parameter,\n\
                 `<…>::`); another type's `U::m` is not a use. A field is used by a\n\
                 read: `.f` not followed by `(`, a `let`/`match`/`for`/parameter\n\
                 destructure, or a `wire_struct!` entry; an initialiser or a derive\n\
                 is not a read. A path segment (`crate::name::X`) uses nothing. A\n\
                 shared name can hide an unused item, never flag a used one.\n\
                 Delete the item, narrow it to `pub(crate)`, move it into the\n\
                 tests, or keep it: a `\"<path> <label>\"` entry in `lint.toml`'s\n\
                 `[rules.unused-pub] keep` list, with a `#` comment citing the\n\
                 DESIGN.md section that needs it. A keep whose item gains a use,\n\
                 or that names no unused `pub` item in a scanned library file, is\n\
                 itself a finding, so the list only shrinks."
            }
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.id(), self.name())
    }
}

/// One finding in one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// 1-based line number.
    pub line: u32,
    /// The rule violated.
    pub rule: Rule,
    /// Human-readable explanation, including the remediation.
    pub message: String,
}

/// Everything the per-file checks need to know about one file.
#[derive(Debug, Clone, Copy)]
pub struct FileInput<'a> {
    /// `/`-separated path relative to the lint root.
    pub rel_path: &'a str,
    /// Crate the file belongs to, when known.
    pub crate_name: Option<&'a str>,
    /// Token stream.
    pub lexed: &'a Lexed,
    /// Region map (test spans already widened for test-section files).
    pub map: &'a FileMap,
    /// Item skeleton.
    pub parsed: &'a ParsedFile,
}

/// One use R9 counts. A method is counted by type wherever the
/// qualifier names one; a field by name alone, since no receiver's type
/// is resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Use<'a> {
    /// `name(`, `name::<` or `module::name`: a free fn's call or path.
    Call(&'a str),
    /// `T::m`, or `Self::m` inside an `impl T`: `T`'s method `m` only.
    Method(&'a str, &'a str),
    /// `.m(`, or `Q::m` with `Q` a generic parameter, an alias or `<…>`:
    /// the method `m` of every type.
    AnyMethod(&'a str),
    /// `.f` not followed by `(`, a field a pattern binds, or a
    /// `wire_struct!` entry: a read of every struct's field `f`.
    Read(&'a str),
}

/// How often R9 saw one use outside `pub use` statements: in all, and
/// within each crate's own `src/` test code.
#[derive(Default)]
struct Tally<'a> {
    anywhere: usize,
    in_src_tests: BTreeMap<&'a str, usize>,
}

fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(c))
}

/// Whether `toks[i..]` opens with `::`.
fn path_sep_at(toks: &[Token], i: usize) -> bool {
    punct_at(toks, i, ':') && punct_at(toks, i + 1, ':')
}

fn is_type_name(t: &Token) -> bool {
    t.kind == TokenKind::Ident && t.text.starts_with(|c: char| c.is_ascii_uppercase())
}

/// What a qualifier that is no type's own name stands for, across the
/// workspace: a `type` alias or `use … as` rename stands for its target,
/// a generic parameter, an associated type or a name with two meanings
/// for no one type (`None`).
fn type_variables<'a>(inputs: &[FileInput<'a>]) -> BTreeMap<&'a str, Option<&'a str>> {
    let mut out: BTreeMap<&str, Option<&str>> = BTreeMap::new();
    let mut bind = |name: &'a str, target: Option<&'a str>| {
        let slot = out.entry(name).or_insert(target);
        if *slot != target {
            *slot = None;
        }
    };
    for input in inputs {
        let toks = &input.lexed.tokens;
        let ident = |i: usize| toks.get(i).filter(|t| t.kind == TokenKind::Ident);
        let mut in_use = false;
        for (k, t) in toks.iter().enumerate() {
            in_use = (in_use || t.is_ident("use")) && !t.is_punct(';');
            let renamed =
                (in_use && t.is_ident("as")).then(|| ident(k.wrapping_sub(1)).zip(ident(k + 1)));
            if let Some(Some((from, name))) = renamed {
                bind(&name.text, Some(&from.text));
            }
            if let Some(name) = ident(k + 1).filter(|_| t.is_ident("type")) {
                // `type X = a::B<…>;` stands for `B`; `type X;` for none.
                let mut j = k + 3;
                let mut target = ident(j).filter(|_| punct_at(toks, k + 2, '='));
                while let Some(seg) = target
                    .and(ident(j + 3))
                    .filter(|_| path_sep_at(toks, j + 1))
                {
                    (target, j) = (Some(seg), j + 3);
                }
                bind(&name.text, target.map(|t| t.text.as_str()));
            }
            let before =
                |i: usize, w: &str| toks.get(k.wrapping_sub(i)).is_some_and(|p| p.is_ident(w));
            let generics = t.is_punct('<')
                && (before(1, "impl")
                    || ["fn", "struct", "enum", "union", "trait", "type"]
                        .iter()
                        .any(|w| before(2, w)));
            if !generics {
                continue;
            }
            let mut depth = 0i64;
            for j in k..close_of(toks, k) {
                let p = &toks[j];
                if p.is_punct('<') || p.is_punct('(') || p.is_punct('[') {
                    depth += 1;
                } else if p.is_punct(')')
                    || p.is_punct(']')
                    || (p.is_punct('>') && !toks[j - 1].is_punct('-'))
                {
                    depth -= 1;
                } else if depth == 1
                    && p.kind == TokenKind::Ident
                    && !p.is_ident("const")
                    && (toks[j - 1].is_punct('<')
                        || toks[j - 1].is_punct(',')
                        || toks[j - 1].is_ident("const"))
                {
                    bind(&p.text, None);
                }
            }
        }
    }
    out
}

/// The use the identifier at `k` makes, after the `::` at `k - 2`: the
/// method of the type the qualifier names, any type's method for a
/// qualifier that names none, a free fn for a module path.
fn qualified_use<'a>(
    input: &FileInput<'a>,
    type_vars: &BTreeMap<&'a str, Option<&'a str>>,
    k: usize,
) -> Use<'a> {
    let toks = &input.lexed.tokens;
    let name = toks[k].text.as_str();
    let mut q = k - 3;
    if toks[q].is_punct('>') {
        // `Q::<…>::m` names `Q`; `<T as Tr>::m` names no type.
        let mut depth = 0i64;
        let open = (0..=q).rev().find(|&o| {
            depth += i64::from(toks[o].is_punct('>')) - i64::from(toks[o].is_punct('<'));
            depth == 0
        });
        match open {
            Some(open) if open >= 3 && path_sep_at(toks, open - 2) => q = open - 3,
            _ => return Use::AnyMethod(name),
        }
    }
    let qual = &toks[q];
    if qual.is_ident("Self") {
        // Outside a parsed impl, `Self` is a trait's implementor or a
        // macro's `$name`: neither reaches a parsed type's own method.
        let own = input
            .parsed
            .impls
            .iter()
            .find(|i| i.body.0 <= q && q < i.body.1);
        return Use::Method(own.map_or("Self", |i| &i.self_ty), name);
    }
    if !is_type_name(qual) {
        return Use::Call(name);
    }
    match type_vars.get(qual.text.as_str()) {
        Some(Some(target)) => Use::Method(target, name),
        Some(None) => Use::AnyMethod(name),
        None => Use::Method(&qual.text, name),
    }
}

/// The field names inside `toks[open..=close]`, a `{ … }` group: each
/// identifier directly inside a brace, after `{`, `,`, `ref` or `mut` and
/// before `,`, `}` or a single `:`.
fn bound_fields(toks: &[Token], open: usize, close: usize) -> impl Iterator<Item = &Token> + '_ {
    let mut stack: Vec<&str> = Vec::new();
    (open..close).filter_map(move |j| {
        let t = &toks[j];
        match t.text.as_str() {
            "{" | "(" | "[" if t.kind == TokenKind::Punct => stack.push(&t.text),
            "}" | ")" | "]" if t.kind == TokenKind::Punct => drop(stack.pop()),
            _ => {}
        }
        let lead = toks.get(j.wrapping_sub(1)).is_some_and(|p| {
            p.is_punct('{') || p.is_punct(',') || p.is_ident("ref") || p.is_ident("mut")
        });
        let field = t.kind == TokenKind::Ident
            && stack.last() == Some(&"{")
            && !["ref", "mut", "_"].iter().any(|w| t.is_ident(w))
            && lead
            && (punct_at(toks, j + 1, ',')
                || punct_at(toks, j + 1, '}')
                || (punct_at(toks, j + 1, ':') && !punct_at(toks, j + 2, ':')));
        field.then_some(t)
    })
}

/// Every use R9 counts in one file, with its line: calls and paths,
/// field reads, the fields patterns bind and `wire_struct!` entries.
/// `pub use` statements and the names `fn` items define are skipped.
fn uses_in<'a>(
    input: &FileInput<'a>,
    type_vars: &BTreeMap<&'a str, Option<&'a str>>,
) -> Vec<(Use<'a>, u32)> {
    let toks = &input.lexed.tokens;
    let mut out = Vec::new();
    let mut in_pub_use = false;
    for (k, t) in toks.iter().enumerate() {
        if in_pub_use || (t.is_ident("pub") && toks.get(k + 1).is_some_and(|u| u.is_ident("use"))) {
            in_pub_use = !t.is_punct(';');
            continue;
        }
        let read = |f: &'a Token| (Use::Read(&f.text), f.line);
        if t.is_ident("wire_struct") && punct_at(toks, k + 1, '!') {
            let open = (k..toks.len())
                .find(|&j| punct_at(toks, j, '{'))
                .unwrap_or(k);
            out.extend(bound_fields(toks, open, close_of(toks, open)).map(read));
        }
        // A `T { … }` group is a pattern when what follows it, past any
        // `)` or `]`, is `=`, `=>`, `in`, `if`, `|` or a single `:`.
        let typed = toks
            .get(k.wrapping_sub(1))
            .is_some_and(|p| p.is_ident("Self") || is_type_name(p));
        if t.is_punct('{') && typed {
            let close = close_of(toks, k);
            let after = (close + 1..toks.len())
                .find(|&j| !punct_at(toks, j, ')') && !punct_at(toks, j, ']'));
            let pattern = after.is_some_and(|a| {
                (punct_at(toks, a, '=') && !punct_at(toks, a + 1, '='))
                    || (punct_at(toks, a, ':') && !punct_at(toks, a + 1, ':'))
                    || punct_at(toks, a, '|')
                    || toks[a].is_ident("in")
                    || toks[a].is_ident("if")
            });
            if pattern {
                out.extend(bound_fields(toks, k, close).map(read));
            }
        }
        if t.kind != TokenKind::Ident || toks[k.saturating_sub(1)].is_ident("fn") {
            continue;
        }
        let name = t.text.as_str();
        let call =
            punct_at(toks, k + 1, '(') || (path_sep_at(toks, k + 1) && punct_at(toks, k + 3, '<'));
        let used = if path_sep_at(toks, k + 1) && !call {
            continue; // a path segment (`crate::name::X`) uses nothing
        } else if punct_at(toks, k.wrapping_sub(1), '.') && !punct_at(toks, k.wrapping_sub(2), '.')
        {
            if call {
                Use::AnyMethod(name)
            } else {
                Use::Read(name)
            }
        } else if k >= 3 && path_sep_at(toks, k - 2) {
            qualified_use(input, type_vars, k)
        } else if call {
            Use::Call(name)
        } else {
            continue;
        };
        out.push((used, t.line));
    }
    out
}

/// R9: every `pub fn` and named `pub` field (restricted `pub(…)`
/// visibility excluded) outside test code in the `applicable` files that
/// nothing across `inputs` uses but test code under its own crate's
/// `src/` and `pub use` statements. A free fn is used by a call or path
/// of its name; a method of an inherent `impl T` by `T::m`, `Self::m`
/// inside an `impl T`, `.m(` or a qualifier that names no one type; a
/// field by a read. An unused item a `keep` entry names stands; a keep
/// whose item has a use, or that names no `pub` item of an applicable
/// file, is reported at its `lint.toml` line. Returns `(path, violation)`
/// pairs.
pub fn check_unused_pub(
    inputs: &[FileInput],
    applicable: &[bool],
    keep: &[Keep],
) -> Vec<(String, Violation)> {
    let type_vars = type_variables(inputs);
    let mut tallies: BTreeMap<Use, Tally> = BTreeMap::new();
    for input in inputs {
        let src_crate = input.crate_name.filter(|_| {
            matches!(
                classify(input.rel_path).section,
                Section::Lib | Section::Bin
            )
        });
        for (used, line) in uses_in(input, &type_vars) {
            let tally = tallies.entry(used).or_default();
            tally.anywhere += 1;
            if let Some(c) = src_crate.filter(|_| input.map.is_test_line(line)) {
                *tally.in_src_tests.entry(c).or_default() += 1;
            }
        }
    }
    let mut out = Vec::new();
    // Per keep: `None` until it names an item, then whether one it named
    // is unused.
    let mut kept: Vec<Option<bool>> = vec![None; keep.len()];
    for (i, input) in inputs.iter().enumerate() {
        if !applicable[i] {
            continue;
        }
        let counts = |t: &Tally| {
            let own_tests = input.crate_name.and_then(|c| t.in_src_tests.get(c));
            t.anywhere > own_tests.copied().unwrap_or(0)
        };
        let used = |u: Use| tallies.get(&u).is_some_and(counts);
        // A macro's `impl $name` could be any type's: any use of the name counts.
        let used_by_name = |name: &str| {
            tallies.iter().any(|(u, t)| {
                matches!(*u, Use::Call(n) | Use::AnyMethod(n) | Use::Method(_, n) if n == name)
                    && counts(t)
            })
        };
        // Every public item: its line, its label and, when nothing uses
        // it, the finding.
        let mut items: Vec<(u32, String, Option<String>)> = Vec::new();
        let toks = &input.lexed.tokens;
        // `macro_rules!` bodies, whose `impl $name` no qualifier names.
        let macros: Vec<(usize, usize)> = (1..toks.len())
            .filter(|&k| toks[k - 1].is_ident("macro_rules") && punct_at(toks, k, '!'))
            .filter_map(|k| {
                (k..toks.len()).find(|&j| punct_at(toks, j, '{') || punct_at(toks, j, '('))
            })
            .map(|open| (open, close_of(toks, open)))
            .collect();
        for (k, t) in toks.iter().enumerate() {
            if !t.is_ident("pub") || input.map.is_test_line(t.line) {
                continue;
            }
            let qualifiers = toks[k + 1..]
                .iter()
                .take_while(|q| q.is_ident("const") || q.is_ident("async") || q.is_ident("unsafe"))
                .count();
            let [keyword, name, ..] = &toks[k + 1 + qualifiers..] else {
                continue;
            };
            if !keyword.is_ident("fn") || name.kind != TokenKind::Ident {
                continue;
            }
            let inherent = input
                .parsed
                .impls
                .iter()
                .find(|imp| imp.trait_name.is_none() && imp.body.0 <= k && k < imp.body.1);
            let m = name.text.as_str();
            let in_macro = macros.iter().any(|&(open, close)| open < k && k < close);
            let (label, unused) = match inherent {
                _ if in_macro => (
                    m.to_string(),
                    (!used_by_name(m)).then(|| format!("`pub fn {m}` is named nowhere")),
                ),
                Some(imp) => {
                    let ty = imp.self_ty.as_str();
                    let unused = (!used(Use::Method(ty, m)) && !used(Use::AnyMethod(m))).then(|| {
                        format!(
                            "`pub fn {ty}::{m}` is named by no `.{m}(`, `Self::{m}` or `{ty}::{m}`"
                        )
                    });
                    (format!("{ty}::{m}"), unused)
                }
                None => (
                    m.to_string(),
                    (!used(Use::Call(m))).then(|| format!("`pub fn {m}` is called nowhere")),
                ),
            };
            items.push((name.line, label, unused));
        }
        for s in &input.parsed.structs {
            if input.map.is_test_line(s.line) {
                continue;
            }
            for f in s.fields.iter().filter(|f| f.public) {
                let label = format!("{}.{}", s.name, f.name);
                let unused = (!used(Use::Read(&f.name))).then(|| {
                    format!(
                        "`pub` field `{label}` is read nowhere (an initialiser or a derive is \
                         not a read)"
                    )
                });
                items.push((f.line, label, unused));
            }
        }
        for (line, label, unused) in items {
            let path = input.rel_path;
            match keep.iter().position(|k| k.path == path && k.label == label) {
                Some(k) => kept[k] = Some(kept[k] == Some(true) || unused.is_some()),
                None => {
                    let Some(finding) = unused else { continue };
                    let message = format!(
                        "{finding} outside its own crate's unit tests: delete it, narrow it to \
                         `pub(crate)`, or keep it with `\"{path} {label}\"` and its reason \
                         in lint.toml's `[rules.unused-pub] keep`"
                    );
                    let v = Violation { line, rule: Rule::UnusedPub, message };
                    out.push((path.to_string(), v));
                }
            }
        }
    }
    for (k, state) in keep.iter().zip(kept) {
        let why = match state {
            Some(true) => continue,
            Some(false) => "is stale: its item now has a use; delete the entry",
            None => "names no `pub` item of a scanned library file; delete or correct the entry",
        };
        out.push((
            "lint.toml".to_string(),
            Violation {
                line: k.line,
                rule: Rule::UnusedPub,
                message: format!("keep `{} {}` {why}", k.path, k.label),
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::lexer::lex;
    use crate::parser::parse_items;
    use crate::regions::map_file;

    #[test]
    fn rule_names_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_name(r.name()), Some(r));
            assert_eq!(Rule::from_name(r.id()), Some(r));
        }
        assert_eq!(Rule::from_name("nope"), None);
        assert_eq!(Rule::UnusedPub.to_string(), "R9[unused-pub]");
    }

    /// Runs R9 over `(path, source)` files, each classified by its path;
    /// the library files are the applicable ones.
    fn unused_pub(sources: &[(&str, &str)], keep: &[Keep]) -> Vec<(String, Violation)> {
        let lexed: Vec<_> = sources.iter().map(|(_, src)| lex(src)).collect();
        let maps: Vec<_> = lexed.iter().map(map_file).collect();
        let items: Vec<_> = lexed.iter().map(parse_items).collect();
        let classes: Vec<_> = sources.iter().map(|(rel, _)| classify(rel)).collect();
        let inputs: Vec<FileInput> = (0..sources.len())
            .map(|i| FileInput {
                rel_path: sources[i].0,
                crate_name: classes[i].crate_name.as_deref(),
                lexed: &lexed[i],
                map: &maps[i],
                parsed: &items[i],
            })
            .collect();
        let applicable: Vec<bool> = classes.iter().map(|c| c.section == Section::Lib).collect();
        check_unused_pub(&inputs, &applicable, keep)
    }

    #[test]
    fn unused_pub_counts_names_across_files_and_flags_lone_definitions() {
        let lib = "\
pub fn called_from_the_other_file() {}
pub const fn lone_const() -> u8 { 0 }
pub(crate) fn restricted_is_rustcs_to_police() {}
pub fn named_in_a_comment_only() {} // named_in_a_comment_only
pub fn called_from_own_tests() {}
fn private() {}
pub fn named_only_in_a_pub_use() {}
pub use self::named_only_in_a_pub_use as renamed;
pub fn called_from_a_sibling_crates_tests() {}
pub struct Knobs { shares_its_name: u32 }
impl Knobs {
    pub fn shares_its_name(mut self, v: u32) -> Self { self.shares_its_name = v; self }
    pub fn called_as_a_method(&self) -> u32 { let shares_its_name = 1; shares_its_name }
    pub fn passed_as_a_path(&self) -> u32 { 0 }
}
wire_struct!(Knobs { shares_its_name, });
pub struct Shadowed;
impl Shadowed {
    pub fn new() -> Self { Shadowed }
    pub fn named_by_self() -> u32 { 0 }
    pub fn named_through_a_generic() -> u32 { 0 }
}
impl Default for Shadowed {
    fn default() -> Self { let _ = Self::named_by_self(); Shadowed }
}
fn generic<T: Default>() -> u32 { T::named_through_a_generic() }
pub fn named_only_as_a_segment() {}
#[derive(Debug)]
pub struct Report {
    pub read_by_dot: u32,
    pub read_by_a_pattern: u32,
    pub listed: u32,
    pub only_initialised: u32,
}
wire_struct!(Report { listed });
#[cfg(test)]
mod tests {
    pub fn helpers_in_tests_are_exempt() {}
    fn t() { super::called_from_own_tests(); }
}
";
        let caller = "\
fn main() { called_from_the_other_file(); k.called_as_a_method(); v.map(Knobs::passed_as_a_path); }
fn other() { let _ = Other::new(); c::named_only_as_a_segment::Item::build(); }
fn read(r: Report) -> u32 { let Report { read_by_a_pattern, .. } = r; r.read_by_dot + read_by_a_pattern }
fn make() -> Report { Report { read_by_dot: 1, read_by_a_pattern: 2, listed: 3, only_initialised: 4 } }
pub fn uncalled_but_not_applicable() {}
";
        let sibling =
            "#[cfg(test)]\nmod tests {\n    fn t() { c::called_from_a_sibling_crates_tests(); }\n}\n";
        let out = unused_pub(
            &[
                ("crates/c/src/lib.rs", lib),
                ("examples/caller.rs", caller),
                ("crates/d/src/lib.rs", sibling),
            ],
            &[],
        );
        assert!(out.iter().all(|(path, _)| path == "crates/c/src/lib.rs"), "{out:?}");
        let lines: Vec<u32> = out.iter().map(|(_, v)| v.line).collect();
        // Lone definition, comment-only name, own unit test only, `pub use`
        // only, a setter whose name only a field, a local and a
        // `wire_struct!` entry share, a `new` only another type's `new`
        // shares, a fn named only as a path segment, and a field only
        // initialised and derived-`Debug`. `.m()`, `Type::m`, `Self::m`,
        // a generic `T::m`, a `.f` read, a destructure and a
        // `wire_struct!` entry all count.
        assert_eq!(lines, [2, 4, 5, 7, 12, 19, 27, 33], "{out:?}");
        let messages: Vec<&str> = out.iter().map(|(_, v)| v.message.as_str()).collect();
        assert!(messages[0].contains("`pub fn lone_const`"), "{}", messages[0]);
        assert!(messages[5].contains("`pub fn Shadowed::new`"), "{}", messages[5]);
        assert!(messages[7].contains("`pub` field `Report.only_initialised`"), "{}", messages[7]);
    }

    #[test]
    fn unused_pub_keeps_live_entries_and_reports_stale_ones() {
        let lib = "\
pub fn kept_and_unused() {}
pub fn kept_but_called() {}
pub struct S { pub kept_field: u32 }
impl S {
    pub fn kept_method(&self) {}
}
pub fn not_kept() {}
";
        let caller = "fn main() { kept_but_called(); }\n";
        let keep = Config::parse(
            "[rules.unused-pub]\nkeep = [\n\
             \"crates/c/src/lib.rs kept_and_unused\",\n\
             \"crates/c/src/lib.rs kept_but_called\",\n\
             \"crates/c/src/lib.rs S.kept_field\",\n\
             \"crates/c/src/lib.rs S::kept_method\",\n\
             \"crates/c/src/lib.rs deleted_long_ago\",\n\
             \"examples/caller.rs main\",\n\
             ]\n",
        )
        .unwrap()
        .keep;
        let sources = [("crates/c/src/lib.rs", lib), ("examples/caller.rs", caller)];
        let out = unused_pub(&sources, &keep);
        let got: Vec<(&str, u32)> = out.iter().map(|(path, v)| (path.as_str(), v.line)).collect();
        // The one unkept item is flagged; the live keeps stay quiet; the
        // keep whose fn gained a caller, the one naming a deleted fn and
        // the one naming no library item are reported at their lines.
        assert_eq!(
            got,
            [("crates/c/src/lib.rs", 7), ("lint.toml", 4), ("lint.toml", 7), ("lint.toml", 8)],
            "{out:?}"
        );
        let messages: Vec<&str> = out.iter().map(|(_, v)| v.message.as_str()).collect();
        assert!(messages[0].contains("\"crates/c/src/lib.rs not_kept\""), "{}", messages[0]);
        assert!(messages[1].contains("now has a use"), "{}", messages[1]);
        assert!(messages[2].contains("names no `pub` item"), "{}", messages[2]);
    }
}
