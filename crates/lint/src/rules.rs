//! The rule catalogue: the semantic passes R6–R8 built on the item
//! parser (state coverage, digest equality, stale-allow hygiene) and the
//! workspace-wide use count R9 (public functions and fields nobody uses).
//! R1–R5 (hash containers, wall clock, panics, entropy, docs) are the
//! compiler's: the root `clippy.toml`, `clippy::unwrap_used` /
//! `expect_used` and `missing_docs`. See `lint.toml` and the README
//! "Static analysis" section for the rationale of each.

use std::collections::BTreeMap;

use crate::config::AllowSet;
use crate::engine::{classify, Section};
use crate::lexer::{Lexed, Token, TokenKind};
use crate::parser::{close_of, FnDef, ParsedFile, StructKind, StructSig, SymbolTable};
use crate::regions::FileMap;

/// A rule identity: stable ID (`R6`…`R9`) plus the kebab-case name used
/// in allow directives and `lint.toml` sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R6 `state-coverage`: save/restore fns, and a hand-written `Wire`
    /// impl's `put`, exhaustively destructure the type they persist (no
    /// `..` rest pattern).
    StateCoverage,
    /// R7 `digest-coverage`: digest/fingerprint types derive `PartialEq`
    /// and have no manual `PartialEq` or `Hash` impl.
    DigestCoverage,
    /// R8 `stale-allow`: a `// lint: allow(…)` directive that suppresses
    /// zero findings is itself an error.
    StaleAllow,
    /// R9 `unused-pub`: a `pub fn` or named `pub` field in library code
    /// that nothing in the scanned workspace uses outside its own crate's
    /// unit tests and `pub use` lists; a method's uses are counted by its
    /// type, a field's by its reads.
    UnusedPub,
}

impl Rule {
    /// Every rule, in ID order.
    pub const ALL: [Rule; 4] = [
        Rule::StateCoverage,
        Rule::DigestCoverage,
        Rule::StaleAllow,
        Rule::UnusedPub,
    ];

    /// Stable rule ID (`R6`…`R9`; R1–R5 are the compiler's now).
    pub fn id(self) -> &'static str {
        match self {
            Rule::StateCoverage => "R6",
            Rule::DigestCoverage => "R7",
            Rule::StaleAllow => "R8",
            Rule::UnusedPub => "R9",
        }
    }

    /// Kebab-case name used in `lint.toml` and allow directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::StateCoverage => "state-coverage",
            Rule::DigestCoverage => "digest-coverage",
            Rule::StaleAllow => "stale-allow",
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
            Rule::StateCoverage => {
                "R6[state-coverage] — checkpoint/snapshot fns pin their field coverage.\n\
                 \n\
                 Every `save_state`/`restore_state` impl (and every `save` fn in the\n\
                 scoped snapshot/checkpoint files) must exhaustively destructure the\n\
                 type it persists — `let Self { a, b, skipped: _ } = self;` with no\n\
                 `..` rest pattern. Adding a struct field then fails both the\n\
                 compile (E0027) and this lint until the field's save/restore story\n\
                 is written, which is exactly the silent-resume-divergence bug class\n\
                 this repo fears most. A hand-written `impl Wire` for a struct is\n\
                 held to the same convention in its `put` (value types whose every\n\
                 field travels use `wire_struct!` instead, where the compiler\n\
                 enforces it). In the scoped files, *all* destructures of known\n\
                 structs are held to the convention. Deliberately excluded fields\n\
                 are bound as `name: _`, which documents the exclusion at the\n\
                 destructure site."
            }
            Rule::DigestCoverage => {
                "R7[digest-coverage] — digest types derive their equality.\n\
                 \n\
                 End-state digests and metrics fingerprints exist to catch state\n\
                 divergence, and tests compare them with `==`. Scoped types must\n\
                 `#[derive(PartialEq)]` and carry no manual `PartialEq`/`Hash` impl:\n\
                 a hand-written one can silently skip a field. Whether every field\n\
                 reaches the fingerprint is the compiler's check, not this rule's:\n\
                 the digests fingerprint their `wire_struct!` bytes, and\n\
                 `MetricsDigest::canonical_string` destructures both its structs\n\
                 without `..`, so a new field fails to compile (E0027) until it is\n\
                 rendered."
            }
            Rule::StaleAllow => {
                "R8[stale-allow] — allow directives must suppress something.\n\
                 \n\
                 A `// lint: allow(rule)` directive that matches zero findings is\n\
                 dead weight: either the code it excused moved (so the exemption\n\
                 now silently waits to hide a future violation) or the rule no\n\
                 longer applies. Delete it, or move it next to the code it exempts."
            }
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
                 tests, or justify it with `// lint: allow(unused-pub) — <reason>`."
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

/// Runs the per-file rules, producing *raw* violations — no allow
/// filtering (that happens in [`apply_allows`], which also implements
/// R8). `r6_path_scoped` marks files listed in the R6 `paths` config,
/// where the exhaustiveness convention applies file-wide; `digest_types`
/// are R7's `types`.
pub fn check_file_raw(
    input: &FileInput,
    table: &SymbolTable,
    rules: &[Rule],
    r6_path_scoped: bool,
    digest_types: &[String],
) -> Vec<Violation> {
    let mut out = Vec::new();
    for &rule in rules {
        match rule {
            Rule::StateCoverage => check_state_coverage(input, table, r6_path_scoped, &mut out),
            Rule::DigestCoverage => check_digest_derives(input, digest_types, &mut out),
            // R9 needs the whole workspace; R8 needs the post-filter
            // outcome. Both run outside the per-file dispatch.
            Rule::StaleAllow | Rule::UnusedPub => {}
        }
    }
    sort_dedup(&mut out);
    out
}

fn sort_dedup(out: &mut Vec<Violation>) {
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)).then(a.message.cmp(&b.message)));
    // Two mentions on one line (e.g. `HashMap<..> = HashMap::new()`) are
    // one finding as far as the reader is concerned.
    out.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
}

/// Filters raw violations through the file's allow directives and, when
/// `stale_check` is on, reports directives that suppressed nothing (R8).
///
/// A justified directive covering a violation's line suppresses it. An
/// unjustified one leaves the violation in place with a hint appended —
/// and still counts as "targeting" something, so it is not stale. R8
/// findings themselves can be suppressed by a justified
/// `allow(stale-allow)` directive (single pass, no recursion).
pub fn apply_allows(raw: Vec<Violation>, allows: &AllowSet, stale_check: bool) -> Vec<Violation> {
    let dirs = allows.directives();
    let mut targeted = vec![false; dirs.len()];
    let mut kept: Vec<Violation> = Vec::new();
    for v in raw {
        let covering = |justified: bool| {
            dirs.iter().position(|d| {
                d.justified == justified
                    && d.rule == v.rule.name()
                    && d.from <= v.line
                    && v.line <= d.to
            })
        };
        if let Some(k) = covering(true) {
            targeted[k] = true;
            continue;
        }
        if let Some(k) = covering(false) {
            targeted[k] = true;
            kept.push(Violation {
                message: format!(
                    "{} (an allow directive was found but lacks a justification — \
                     write `// lint: allow({}) — <reason>`)",
                    v.message,
                    v.rule.name()
                ),
                ..v
            });
            continue;
        }
        kept.push(v);
    }
    if stale_check {
        for (k, d) in dirs.iter().enumerate() {
            if targeted[k] {
                continue;
            }
            // A justified allow(stale-allow) covering this directive's
            // anchor line suppresses the staleness finding.
            if dirs.iter().any(|s| {
                s.justified
                    && s.rule == Rule::StaleAllow.name()
                    && s.from <= d.line
                    && d.line <= s.to
            }) {
                continue;
            }
            let message = match Rule::from_name(&d.rule) {
                None => format!(
                    "`lint: allow({})` names no known rule (known: {})",
                    d.rule,
                    Rule::ALL.map(Rule::name).join(", ")
                ),
                Some(r) => format!(
                    "stale directive: `allow({})` suppresses no findings here — \
                     delete it, or move it next to the code it exempts",
                    r.name()
                ),
            };
            kept.push(Violation {
                line: d.line,
                rule: Rule::StaleAllow,
                message,
            });
        }
    }
    sort_dedup(&mut kept);
    kept
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
/// field by a read. Pushes `(file index, violation)` pairs.
pub fn check_unused_pub(
    inputs: &[FileInput],
    applicable: &[bool],
    out: &mut Vec<(usize, Violation)>,
) {
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
        let mut flag = |line: u32, finding: String| {
            out.push((
                i,
                Violation {
                    line,
                    rule: Rule::UnusedPub,
                    message: format!(
                        "{finding} outside its own crate's unit tests: delete it, narrow it to \
                         `pub(crate)`, or justify with `// lint: allow(unused-pub) — <reason>`"
                    ),
                },
            ));
        };
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
            let unused = match inherent {
                _ if in_macro => {
                    (!used_by_name(m)).then(|| format!("`pub fn {m}` is named nowhere"))
                }
                Some(imp) => {
                    let ty = imp.self_ty.as_str();
                    (!used(Use::Method(ty, m)) && !used(Use::AnyMethod(m))).then(|| {
                        format!(
                            "`pub fn {ty}::{m}` is named by no `.{m}(`, `Self::{m}` or `{ty}::{m}`"
                        )
                    })
                }
                None => (!used(Use::Call(m))).then(|| format!("`pub fn {m}` is called nowhere")),
            };
            if let Some(finding) = unused {
                flag(name.line, finding);
            }
        }
        for s in &input.parsed.structs {
            if input.map.is_test_line(s.line) {
                continue;
            }
            for f in s
                .fields
                .iter()
                .filter(|f| f.public && !used(Use::Read(&f.name)))
            {
                let finding = format!(
                    "`pub` field `{}.{}` is read nowhere (an initialiser or a derive is not a read)",
                    s.name, f.name
                );
                flag(f.line, finding);
            }
        }
    }
}

// ---------------------------------------------------------------------
// R6 state-coverage
// ---------------------------------------------------------------------

/// A struct-destructure pattern found in a fn body:
/// `let [&|ref|mut]* Path { fields… } = …` or `let Path(…) = …`.
#[derive(Debug)]
struct Destructure {
    line: u32,
    /// Final path segment of the pattern type (`Self` unresolved).
    ty: String,
    /// Field names bound at depth 1 (named patterns only; `_` excluded).
    fields: Vec<String>,
    /// `Some(count)` for tuple patterns.
    tuple_arity: Option<usize>,
    /// A `..` rest pattern at depth 1.
    has_rest: bool,
}

/// Scans a token slice for struct-destructure patterns.
fn find_destructures(toks: &[Token]) -> Vec<Destructure> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while toks
            .get(j)
            .is_some_and(|t| t.is_punct('&') || t.is_ident("mut") || t.is_ident("ref"))
        {
            j += 1;
        }
        let Some(first) = toks.get(j).filter(|t| t.kind == TokenKind::Ident) else {
            i += 1;
            continue;
        };
        let mut ty = first.text.clone();
        let line = first.line;
        j += 1;
        // Swallow path segments: `a::b::Ty`.
        while toks.get(j).is_some_and(|t| t.is_punct(':'))
            && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
        {
            let Some(seg) = toks.get(j + 2).filter(|t| t.kind == TokenKind::Ident) else {
                break;
            };
            ty = seg.text.clone();
            j += 3;
        }
        let d = match toks.get(j) {
            Some(t) if t.is_punct('{') => parse_braced_pattern(toks, j).map(|(fields, has_rest, close)| {
                (
                    Destructure {
                        line,
                        ty: ty.clone(),
                        fields,
                        tuple_arity: None,
                        has_rest,
                    },
                    close,
                )
            }),
            Some(t) if t.is_punct('(') => parse_tuple_pattern(toks, j).map(|(arity, has_rest, close)| {
                (
                    Destructure {
                        line,
                        ty: ty.clone(),
                        fields: Vec::new(),
                        tuple_arity: Some(arity),
                        has_rest,
                    },
                    close,
                )
            }),
            _ => None,
        };
        if let Some((d, close)) = d {
            // A destructure pattern is followed by `=` (plain `let`,
            // `if let`, `while let`, let-else all qualify).
            if toks.get(close + 1).is_some_and(|t| t.is_punct('=')) {
                out.push(d);
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// Parses `{ … }` at `toks[open]`; returns (field names, has_rest,
/// closing index). Field = ident at depth 1 preceded by `{`/`,`/`ref`/
/// `mut` and followed by `,`/`:`/`}`; `_` is not a field.
fn parse_braced_pattern(toks: &[Token], open: usize) -> Option<(Vec<String>, bool, usize)> {
    let mut depth = 0i64;
    let mut fields = Vec::new();
    let mut has_rest = false;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth == 0 && t.is_punct('}') {
                return Some((fields, has_rest, j));
            }
        } else if depth == 1 {
            if t.is_punct('.') && toks.get(j + 1).is_some_and(|n| n.is_punct('.')) {
                has_rest = true;
                j += 2;
                continue;
            }
            if t.kind == TokenKind::Ident && t.text != "_" {
                let prev_ok = j > 0
                    && (toks[j - 1].is_punct('{')
                        || toks[j - 1].is_punct(',')
                        || toks[j - 1].is_ident("ref")
                        || toks[j - 1].is_ident("mut"));
                let next_ok = toks
                    .get(j + 1)
                    .is_some_and(|n| n.is_punct(',') || n.is_punct(':') || n.is_punct('}'));
                if prev_ok && next_ok && !t.is_ident("ref") && !t.is_ident("mut") {
                    fields.push(t.text.clone());
                }
            }
        }
        j += 1;
    }
    None
}

/// Parses `( … )` at `toks[open]`; returns (arity, has_rest, closing
/// index). Arity counts top-level comma-separated slots, ignoring a
/// trailing comma and not counting `..` as a slot.
fn parse_tuple_pattern(toks: &[Token], open: usize) -> Option<(usize, bool, usize)> {
    let mut depth = 0i64;
    let mut has_rest = false;
    let mut slots = 0usize;
    let mut slot_open = false;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
            if depth == 1 {
                j += 1;
                continue;
            }
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 && t.is_punct(')') {
                return Some((slots + usize::from(slot_open), has_rest, j));
            }
        }
        if depth == 1 {
            if t.is_punct('.') && toks.get(j + 1).is_some_and(|n| n.is_punct('.')) {
                has_rest = true;
                j += 2;
                continue;
            }
            if t.is_punct(',') {
                slots += usize::from(slot_open);
                slot_open = false;
            } else {
                slot_open = true;
            }
        }
        j += 1;
    }
    None
}

/// R6: see [`Rule::StateCoverage`]. `path_scoped` widens the rule from
/// "save/restore fns" to the whole file (all destructures, `save` fns,
/// and free fns).
fn check_state_coverage(
    input: &FileInput,
    table: &SymbolTable,
    path_scoped: bool,
    out: &mut Vec<Violation>,
) {
    for imp in &input.parsed.impls {
        // A hand-written `Wire::put` is its struct's save fn. Enums and
        // foreign types have no field list to pin: a `match` on an enum is
        // exhaustive already.
        let wire_of_struct = imp.trait_name.as_deref() == Some("Wire")
            && resolve_struct(input, table, &imp.self_ty).is_some();
        for f in &imp.fns {
            let targeted = f.name == "save_state"
                || f.name == "restore_state"
                || (path_scoped && f.name == "save")
                || (wire_of_struct && f.name == "put");
            if targeted {
                audit_state_fn(input, table, f, Some(&imp.self_ty), true, out);
            } else if path_scoped {
                audit_state_fn(input, table, f, Some(&imp.self_ty), false, out);
            }
        }
    }

    if path_scoped {
        for f in &input.parsed.free_fns {
            audit_state_fn(input, table, f, None, false, out);
        }
    }
}

/// Resolves a struct by name: the file's own crate first, then a unique
/// workspace-wide match (snapshot code routinely destructures types
/// defined in sibling crates, e.g. `RecorderCheckpoint` from `obs`).
fn resolve_struct<'t>(
    input: &FileInput,
    table: &'t SymbolTable,
    ty: &str,
) -> Option<&'t StructSig> {
    let sig = input
        .crate_name
        .and_then(|c| table.lookup(c, ty))
        .or_else(|| table.lookup_global(ty))?;
    (!sig.ambiguous).then_some(sig)
}

/// Destructure hygiene for one fn body. `self_ty` resolves `Self`;
/// `require_self` demands at least one destructure of the self type.
fn audit_state_fn(
    input: &FileInput,
    table: &SymbolTable,
    f: &FnDef,
    self_ty: Option<&str>,
    require_self: bool,
    out: &mut Vec<Violation>,
) {
    {
        if input.map.is_test_line(f.line) || f.body.0 == f.body.1 {
            return;
        }
        let body = f.body_tokens(input.lexed);
        let mut self_destructured = false;
        for d in find_destructures(body) {
            let resolved = if d.ty == "Self" {
                match self_ty {
                    Some(s) => s.to_string(),
                    None => continue,
                }
            } else {
                d.ty.clone()
            };
            let is_self = self_ty == Some(resolved.as_str());
            let sig = resolve_struct(input, table, &resolved);
            if sig.is_none() && !is_self {
                continue; // Some/Ok/None and foreign types: not ours to judge
            }
            if d.has_rest {
                out.push(Violation {
                    line: d.line,
                    rule: Rule::StateCoverage,
                    message: format!(
                        "`..` rest pattern in a `{resolved}` destructure inside `{}`: list \
                         every field (bind excluded ones as `name: _`) so a new field \
                         fails the lint instead of being silently skipped",
                        f.name
                    ),
                });
            }
            if let Some(sig) = sig {
                match (sig.kind, d.tuple_arity) {
                    (StructKind::Named, None) if !d.has_rest => {
                        let missing: Vec<&String> =
                            sig.fields.iter().filter(|n| !d.fields.contains(n)).collect();
                        let unknown: Vec<&String> =
                            d.fields.iter().filter(|n| !sig.fields.contains(n)).collect();
                        if !missing.is_empty() {
                            out.push(Violation {
                                line: d.line,
                                rule: Rule::StateCoverage,
                                message: format!(
                                    "destructure of `{resolved}` in `{}` misses declared \
                                     field(s) {} — persist them or bind them as `name: _` \
                                     to record the exclusion",
                                    f.name,
                                    name_list(&missing),
                                ),
                            });
                        }
                        if !unknown.is_empty() {
                            out.push(Violation {
                                line: d.line,
                                rule: Rule::StateCoverage,
                                message: format!(
                                    "destructure of `{resolved}` in `{}` names unknown \
                                     field(s) {} — the declaration and this snapshot \
                                     have drifted apart",
                                    f.name,
                                    name_list(&unknown),
                                ),
                            });
                        }
                    }
                    (StructKind::Tuple(n), Some(got)) if !d.has_rest && got != n => {
                        out.push(Violation {
                            line: d.line,
                            rule: Rule::StateCoverage,
                            message: format!(
                                "tuple destructure of `{resolved}` in `{}` binds {got} of \
                                 {n} field(s)",
                                f.name
                            ),
                        });
                    }
                    _ => {}
                }
            }
            if is_self {
                // A rest-pattern Self destructure is already flagged
                // above; don't double-report a missing destructure.
                self_destructured = true;
            }
        }
        if require_self && !self_destructured {
            // Zero-field types have nothing to pin.
            let exempt = self_ty
                .and_then(|s| resolve_struct(input, table, s))
                .is_some_and(|sig| match sig.kind {
                    StructKind::Named => sig.fields.is_empty(),
                    StructKind::Tuple(n) => n == 0,
                    StructKind::Unit => true,
                });
            if !exempt {
                out.push(Violation {
                    line: f.line,
                    rule: Rule::StateCoverage,
                    message: format!(
                        "`{}` persists `{}` state without pinning its field coverage: \
                         open with `let Self {{ … }} = self;` (exhaustive, no `..`) so \
                         adding a field fails the lint and the compile until its \
                         save/restore story is written",
                        f.name,
                        self_ty.unwrap_or("Self"),
                    ),
                });
            }
        }
    }
}

fn name_list(names: &[&String]) -> String {
    names
        .iter()
        .map(|n| format!("`{n}`"))
        .collect::<Vec<_>>()
        .join(", ")
}

// ---------------------------------------------------------------------
// R7 digest-coverage
// ---------------------------------------------------------------------

/// R7: see [`Rule::DigestCoverage`]. A scoped type declared outside
/// test code must derive `PartialEq` and have no manual `PartialEq` or
/// `Hash` impl; findings anchor at the struct or the impl.
fn check_digest_derives(input: &FileInput, types: &[String], out: &mut Vec<Violation>) {
    let scoped = |name: &str| types.iter().any(|t| t == name);
    for s in &input.parsed.structs {
        let derived = s.derives.iter().any(|d| d == "PartialEq");
        if scoped(&s.name)
            && s.kind == StructKind::Named
            && !derived
            && !input.map.is_test_line(s.line)
        {
            out.push(Violation {
                line: s.line,
                rule: Rule::DigestCoverage,
                message: format!(
                    "digest type `{}` must `#[derive(PartialEq)]` so equality covers every \
                     field — divergence checks compare these wholesale",
                    s.name
                ),
            });
        }
    }
    for imp in &input.parsed.impls {
        let manual_eq = matches!(imp.trait_name.as_deref(), Some("PartialEq" | "Hash"));
        if manual_eq && scoped(&imp.self_ty) && !input.map.is_test_line(imp.line) {
            out.push(Violation {
                line: imp.line,
                rule: Rule::DigestCoverage,
                message: format!(
                    "manual `impl {} for {}` can silently skip fields — derive it instead so \
                     every field is compared",
                    imp.trait_name.as_deref().unwrap_or("PartialEq"),
                    imp.self_ty
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AllowSet;
    use crate::lexer::lex;
    use crate::parser::parse_items;
    use crate::regions::map_file;

    fn run_path(rel: &str, src: &str, rules: &[Rule], path_scoped: bool) -> Vec<Violation> {
        let lexed = lex(src);
        let map = map_file(&lexed);
        let parsed = parse_items(&lexed);
        let mut table = SymbolTable::default();
        table.add_file("c", &parsed);
        let input = FileInput {
            rel_path: rel,
            crate_name: Some("c"),
            lexed: &lexed,
            map: &map,
            parsed: &parsed,
        };
        let digest_types = ["EndStateDigest", "MetricsDigest", "TaskingStats"].map(String::from);
        let raw = check_file_raw(&input, &table, rules, path_scoped, &digest_types);
        let allows = AllowSet::from_comments(&lexed.comments);
        apply_allows(raw, &allows, rules.contains(&Rule::StaleAllow))
    }

    fn run(src: &str, rules: &[Rule]) -> Vec<Violation> {
        run_path("lib.rs", src, rules, false)
    }

    #[test]
    fn rule_names_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_name(r.name()), Some(r));
            assert_eq!(Rule::from_name(r.id()), Some(r));
        }
        assert_eq!(Rule::from_name("nope"), None);
        assert_eq!(Rule::StateCoverage.to_string(), "R6[state-coverage]");
    }

    // -- R6 ---------------------------------------------------------

    #[test]
    fn state_coverage_requires_self_destructure() {
        let src = "\
struct S { a: u32, b: u32 }
impl Behavior for S {
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(vec![self.a as u8, self.b as u8])
    }
}
";
        let v = run(src, &[Rule::StateCoverage]);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule.id(), v[0].line), ("R6", 3));
        assert!(v[0].message.contains("pinning"), "{}", v[0].message);
    }

    #[test]
    fn state_coverage_accepts_exhaustive_destructure() {
        let src = "\
struct S { a: u32, b: u32 }
impl Behavior for S {
    fn save_state(&self) -> Option<Vec<u8>> {
        let Self { a, b: _ } = self;
        Some(vec![*a as u8])
    }
    fn restore_state(&mut self, blob: &[u8]) {
        let Self { a: _, b: _ } = self;
        self.a = blob[0] as u32;
    }
}
";
        assert!(run(src, &[Rule::StateCoverage]).is_empty());
    }

    #[test]
    fn state_coverage_flags_rest_pattern_and_missing_fields() {
        let src = "\
struct S { a: u32, b: u32, c: u32 }
impl S {
    fn save_state(&self) {
        let Self { a, .. } = self;
        let _ = a;
    }
    fn restore_state(&mut self) {
        let Self { a: _, b: _ } = self;
    }
}
";
        let hits: Vec<_> = run(src, &[Rule::StateCoverage])
            .iter()
            .map(|v| (v.line, v.message.split_whitespace().next().unwrap_or("").to_string()))
            .collect();
        // Line 4: `..` rest. Line 8: missing field `c`.
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert_eq!(hits[0].0, 4);
        assert_eq!(hits[1].0, 8);
    }

    #[test]
    fn state_coverage_checks_every_known_struct_in_path_files() {
        let src = "\
struct Inner { x: u32, y: u32 }
fn enc_inner(v: &Inner) {
    let Inner { x, .. } = v;
    let _ = x;
}
";
        let v = run_path("crates/core/src/checkpoint.rs", src, &[Rule::StateCoverage], true);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("rest pattern"), "{}", v[0].message);
    }

    #[test]
    fn state_coverage_ignores_trait_default_bodies_and_tests() {
        let src = "\
trait Behavior {
    fn save_state(&self) -> Option<Vec<u8>> { None }
}
#[cfg(test)]
mod tests {
    struct T { a: u32 }
    impl T { fn save_state(&self) {} }
}
";
        assert!(run(src, &[Rule::StateCoverage]).is_empty());
    }

    #[test]
    fn state_coverage_exempts_zero_field_types() {
        let src = "\
struct Stateless;
impl Behavior for Stateless {
    fn save_state(&self) -> Option<Vec<u8>> { None }
    fn restore_state(&mut self, _blob: &[u8]) {}
}
";
        assert!(run(src, &[Rule::StateCoverage]).is_empty());
    }

    #[test]
    fn state_coverage_audits_a_hand_written_wire_put() {
        let unpinned = "\
struct Jammer { power_w: f64, active: bool }
impl Wire for Jammer {
    fn put(&self, e: &mut Enc) {
        e.f64(self.power_w);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(Jammer::new(d.f64()?))
    }
}
";
        let v = run(unpinned, &[Rule::StateCoverage]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3, "`put` is the save fn; `take` builds through a constructor");
        assert!(v[0].message.contains("pinning"), "{}", v[0].message);

        let pinned = unpinned.replace(
            "e.f64(self.power_w);",
            "let Self { power_w, active: _ } = self; e.f64(*power_w);",
        );
        assert!(run(&pinned, &[Rule::StateCoverage]).is_empty());

        // Not a struct this workspace declares: nothing to destructure.
        let an_enum = "\
enum Solver { Greedy, Random { seed: u64 } }
impl Wire for Solver {
    fn put(&self, e: &mut Enc) {
        match self { Solver::Greedy => e.u8(0), Solver::Random { seed } => e.u64(*seed) }
    }
}
impl Wire for u32 {
    fn put(&self, e: &mut Enc) { e.u32(*self) }
}
";
        assert!(run(an_enum, &[Rule::StateCoverage]).is_empty());
    }

    #[test]
    fn state_coverage_save_fn_targeted_only_in_path_files() {
        let src = "\
struct Runner { a: u32 }
impl Runner {
    fn save(&self) -> Vec<u8> { vec![self.a as u8] }
}
";
        assert!(run(src, &[Rule::StateCoverage]).is_empty(), "crate scope: `save` untargeted");
        let v = run_path("crates/core/src/checkpoint.rs", src, &[Rule::StateCoverage], true);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
    }

    // -- R7 ---------------------------------------------------------

    fn run_digest(src: &str) -> Vec<Violation> {
        run(src, &[Rule::DigestCoverage])
    }

    #[test]
    fn digest_coverage_requires_derived_partial_eq() {
        let src = "#[derive(Debug)]\nstruct EndStateDigest { sent: u64 }\n";
        let v = run_digest(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("PartialEq"), "{}", v[0].message);
    }

    #[test]
    fn digest_coverage_flags_manual_eq_impls() {
        let src = "\
#[derive(PartialEq)]
struct TaskingStats { sent: u64 }
impl PartialEq for MetricsDigest {
    fn eq(&self, _o: &Self) -> bool { true }
}
";
        let v = run_digest(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("manual"), "{}", v[0].message);
    }

    // -- R8 ---------------------------------------------------------

    /// A `save_state` that pins nothing: one R6 finding on line 3, where
    /// `fn save_state` sits.
    const UNPINNED: &str = "\
struct S { a: u32 }
impl S {
    fn save_state(&self) -> u32 { self.a }
}
";

    #[test]
    fn stale_allow_flags_directives_that_suppress_nothing() {
        let src = "\
fn clean() {}
// lint: allow(state-coverage) — leftover from a refactor
fn also_clean() {}
";
        let v = run(src, &[Rule::StateCoverage, Rule::StaleAllow]);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule.id(), v[0].line), ("R8", 2));
        assert!(v[0].message.contains("stale"), "{}", v[0].message);
    }

    #[test]
    fn stale_allow_accepts_live_directives() {
        // A justified directive suppresses the finding on its own line
        // (trailing) and on the line below (standalone), and is live.
        let trailing = UNPINNED.replace(
            "self.a }",
            "self.a } // lint: allow(state-coverage) — reporting-only state, rebuilt on restore",
        );
        let above = UNPINNED.replace(
            "impl S {\n",
            "impl S {\n    // lint: allow(state-coverage) — reporting-only state, rebuilt on restore\n",
        );
        for src in [trailing, above] {
            assert!(run(&src, &[Rule::StateCoverage, Rule::StaleAllow]).is_empty(), "{src}");
        }
    }

    #[test]
    fn stale_allow_flags_unknown_rule_names() {
        let src = "// lint: allow(no-such-rule) — whatever\nfn f() {}\n";
        let v = run(src, &[Rule::StaleAllow]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("no known rule"), "{}", v[0].message);
    }

    #[test]
    fn stale_allow_unjustified_live_directive_is_not_stale() {
        // The R6 violation is still reported, with a hint; the directive
        // targeted something, so R8 stays quiet.
        let src = UNPINNED.replace("self.a }", "self.a } // lint: allow(state-coverage)");
        let v = run(&src, &[Rule::StateCoverage, Rule::StaleAllow]);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), (Rule::StateCoverage, 3));
        assert!(v[0].message.contains("lacks a justification"), "{}", v[0].message);
    }

    #[test]
    fn stale_allow_can_itself_be_allowed() {
        let src = "\
// lint: allow(stale-allow) — directive below documents a planned exemption
// lint: allow(state-coverage) — waiting on the follow-up change
fn f() {}
";
        assert!(run(src, &[Rule::StateCoverage, Rule::StaleAllow]).is_empty());
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
        let sources = [
            ("crates/c/src/lib.rs", "c", lex(lib)),
            ("examples/caller.rs", "c", lex(caller)),
            ("crates/d/src/lib.rs", "d", lex(sibling)),
        ];
        let maps: Vec<_> = sources.iter().map(|(_, _, l)| map_file(l)).collect();
        let items: Vec<_> = sources.iter().map(|(_, _, l)| parse_items(l)).collect();
        let inputs: Vec<FileInput> = sources
            .iter()
            .zip(&maps)
            .zip(&items)
            .map(|(((rel_path, crate_name, lexed), map), parsed)| FileInput {
                rel_path,
                crate_name: Some(crate_name),
                lexed,
                map,
                parsed,
            })
            .collect();
        let mut out = Vec::new();
        check_unused_pub(&inputs, &[true, false, false], &mut out);
        let hits: Vec<(usize, u32)> = out.iter().map(|(file, v)| (*file, v.line)).collect();
        // Lone definition, comment-only name, own unit test only, `pub use`
        // only, a setter whose name only a field, a local and a
        // `wire_struct!` entry share, a `new` only another type's `new`
        // shares, a fn named only as a path segment, and a field only
        // initialised and derived-`Debug`. `.m()`, `Type::m`, `Self::m`,
        // a generic `T::m`, a `.f` read, a destructure and a
        // `wire_struct!` entry all count.
        assert_eq!(
            hits,
            vec![(0, 2), (0, 4), (0, 5), (0, 7), (0, 12), (0, 19), (0, 27), (0, 33)],
            "{out:?}"
        );
        let messages: Vec<&str> = out.iter().map(|(_, v)| v.message.as_str()).collect();
        assert!(messages[0].contains("`pub fn lone_const`"), "{}", messages[0]);
        assert!(messages[5].contains("`pub fn Shadowed::new`"), "{}", messages[5]);
        assert!(messages[7].contains("`pub` field `Report.only_initialised`"), "{}", messages[7]);
    }
}
