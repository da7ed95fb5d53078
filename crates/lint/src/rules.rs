//! The rule catalogue: token-level checks R1–R5 enforcing determinism
//! and panic discipline, the semantic passes R6–R8 built on the item
//! parser (state coverage, digest coverage, stale-allow hygiene), and the
//! workspace-wide name count R9 (public functions nobody names).
//! See `lint.toml` and the README "Static analysis" section for the
//! rationale of each.

use std::collections::BTreeMap;

use crate::config::AllowSet;
use crate::lexer::{Lexed, Token, TokenKind};
use crate::parser::{FnDef, ParsedFile, StructKind, StructSig, SymbolTable};
use crate::regions::FileMap;

/// A rule identity: stable ID (`R1`…`R9`) plus the kebab-case name used
/// in allow directives and `lint.toml` sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1 `hash-iter`: no `HashMap`/`HashSet` in simulation/solver
    /// crates — hash iteration order is nondeterministic and can change
    /// solver output run to run.
    HashIter,
    /// R2 `wall-clock`: no `Instant::now` / `SystemTime` in code that
    /// influences simulation or solver results. Pure time *reporting* is
    /// allowlisted inline; benches are out of scope by construction.
    WallClock,
    /// R3 `panic`: no `unwrap()`/`expect()` in non-test library code
    /// outside an inline-commented allowlist.
    Panic,
    /// R4 `entropy`: no `thread_rng`/`from_entropy` — all randomness must
    /// flow from seeded RNGs, in tests as much as in library code.
    Entropy,
    /// R5 `docs`: public items in the contract crates carry doc comments.
    Docs,
    /// R6 `state-coverage`: save/restore fns, and a hand-written `Wire`
    /// impl's `put`, exhaustively destructure the type they persist (no
    /// `..` rest pattern).
    StateCoverage,
    /// R7 `digest-coverage`: digest/fingerprint types derive `PartialEq`
    /// and every declared field flows into the digest computation.
    DigestCoverage,
    /// R8 `stale-allow`: a `// lint: allow(…)` directive that suppresses
    /// zero findings is itself an error.
    StaleAllow,
    /// R9 `unused-pub`: a `pub fn` in library code whose name appears
    /// nowhere else in the scanned workspace has no caller.
    UnusedPub,
}

impl Rule {
    /// Every rule, in ID order.
    pub const ALL: [Rule; 9] = [
        Rule::HashIter,
        Rule::WallClock,
        Rule::Panic,
        Rule::Entropy,
        Rule::Docs,
        Rule::StateCoverage,
        Rule::DigestCoverage,
        Rule::StaleAllow,
        Rule::UnusedPub,
    ];

    /// Stable rule ID (`R1`…`R9`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::HashIter => "R1",
            Rule::WallClock => "R2",
            Rule::Panic => "R3",
            Rule::Entropy => "R4",
            Rule::Docs => "R5",
            Rule::StateCoverage => "R6",
            Rule::DigestCoverage => "R7",
            Rule::StaleAllow => "R8",
            Rule::UnusedPub => "R9",
        }
    }

    /// Kebab-case name used in `lint.toml` and allow directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashIter => "hash-iter",
            Rule::WallClock => "wall-clock",
            Rule::Panic => "panic",
            Rule::Entropy => "entropy",
            Rule::Docs => "docs",
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

    /// The crates a rule applies to when `lint.toml` says nothing.
    pub fn default_scope(self) -> &'static [&'static str] {
        match self {
            // The simulation/solver crates whose outputs must replay
            // bit-for-bit.
            Rule::HashIter | Rule::WallClock => {
                &["netsim", "core", "synthesis", "adapt", "learning"]
            }
            // Panic, entropy, allow-directive hygiene and unused public
            // functions hold everywhere; the scope list is unused
            // (section-based).
            Rule::Panic | Rule::Entropy | Rule::StaleAllow | Rule::UnusedPub => &[],
            // The public-contract crates.
            Rule::Docs => &["types", "core"],
            // The crates holding snapshot/checkpoint code or a `Wire` impl.
            Rule::StateCoverage => {
                &["types", "netsim", "obs", "synthesis", "core", "ckpt", "fleet"]
            }
            // The crates defining digest/fingerprint types.
            Rule::DigestCoverage => &["core", "obs"],
        }
    }

    /// Files (relative paths) a rule additionally targets regardless of
    /// crate scope. For R6 these are the codec-heavy files where *every*
    /// destructure and every `save` fn is held to the exhaustiveness
    /// convention.
    pub fn default_paths(self) -> &'static [&'static str] {
        match self {
            Rule::StateCoverage => &[
                "crates/netsim/src/sim/snapshot.rs",
                "crates/core/src/checkpoint.rs",
            ],
            _ => &[],
        }
    }

    /// Type names a rule targets (R7's digest types).
    pub fn default_types(self) -> &'static [&'static str] {
        match self {
            Rule::DigestCoverage => &[
                "EndStateDigest",
                "ResilienceReport",
                "MetricsDigest",
                "TaskingStats",
                "HistogramSnapshot",
            ],
            _ => &[],
        }
    }

    /// Long-form documentation for `--explain`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::HashIter => {
                "R1[hash-iter] — no HashMap/HashSet in determinism-scoped crates.\n\
                 \n\
                 Hash iteration order is randomized per process, so any result that\n\
                 depends on iterating a hash container can change run to run without\n\
                 a single test failing. Use BTreeMap/BTreeSet, or sort before\n\
                 iterating and justify the container with\n\
                 `// lint: allow(hash-iter) — <reason>`."
            }
            Rule::WallClock => {
                "R2[wall-clock] — no Instant::now/SystemTime in result-affecting code.\n\
                 \n\
                 Wall-clock reads make solver budgets and sim outcomes depend on host\n\
                 speed. Use iteration/evaluation budgets or sim time. Pure reporting\n\
                 (timing printed, never branched on) is justified inline with\n\
                 `// lint: allow(wall-clock) — <reason>`."
            }
            Rule::Panic => {
                "R3[panic] — no unwrap()/expect() in non-test library code.\n\
                 \n\
                 Library panics take down whole missions. Return an error or handle\n\
                 the case; invariant-backed panics state the invariant inline with\n\
                 `// lint: allow(panic) — <reason>`."
            }
            Rule::Entropy => {
                "R4[entropy] — no thread_rng/from_entropy anywhere, tests included.\n\
                 \n\
                 OS entropy breaks replayability. All randomness flows from seeded\n\
                 RNGs (`StdRng::seed_from_u64` or a stream derived from the run seed)."
            }
            Rule::Docs => {
                "R5[docs] — public items in contract crates carry doc comments.\n\
                 \n\
                 The `types` and `core` crates are the repo's public API surface;\n\
                 an undocumented `pub` item there is an unreviewed contract."
            }
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
                "R7[digest-coverage] — digest types stay exhaustive.\n\
                 \n\
                 End-state digests and metrics fingerprints exist to catch state\n\
                 divergence; a field that is declared but never hashed or compared\n\
                 is a blind spot. Scoped types must `#[derive(PartialEq)]` (a\n\
                 manual impl can silently skip fields), and when a scoped type has\n\
                 a `canonical_string`/`fingerprint` computation, every field of it\n\
                 (and of scoped types nested in its fields) must appear in that\n\
                 computation."
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
                "R9[unused-pub] — a public function somebody names.\n\
                 \n\
                 rustc reports dead private and `pub(crate)` code but must assume a\n\
                 `pub fn` in a library has callers elsewhere. In this workspace\n\
                 elsewhere is scanned too: a `pub fn` in library code whose name\n\
                 occurs as an identifier exactly once — its definition — across\n\
                 every scanned file (tests, examples, benches and the benchmark\n\
                 included; doc comments are not code) has no caller. The check is\n\
                 by name, not by call graph: a shared name (`new`, `len`) hides an\n\
                 unused function, never the reverse. Delete the function, narrow\n\
                 it to `pub(crate)`, or justify it with\n\
                 `// lint: allow(unused-pub) — <reason>`."
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
/// where the exhaustiveness convention applies file-wide.
pub fn check_file_raw(
    input: &FileInput,
    table: &SymbolTable,
    rules: &[Rule],
    r6_path_scoped: bool,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for &rule in rules {
        match rule {
            Rule::HashIter => check_hash_iter(input.lexed, input.map, &mut out),
            Rule::WallClock => check_wall_clock(input.lexed, input.map, &mut out),
            Rule::Panic => check_panic(input.lexed, input.map, &mut out),
            Rule::Entropy => check_entropy(input.lexed, &mut out),
            Rule::Docs => check_docs(input.lexed, input.map, &mut out),
            Rule::StateCoverage => check_state_coverage(input, table, r6_path_scoped, &mut out),
            // R7 and R9 need the whole workspace; R8 needs the
            // post-filter outcome. All run outside the per-file dispatch.
            Rule::DigestCoverage | Rule::StaleAllow | Rule::UnusedPub => {}
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

/// R1: any `HashMap`/`HashSet` identifier outside test code. The rule is
/// deliberately broader than "iteration" — at token level the safe
/// invariant is *no hash-ordered containers at all* in result-affecting
/// crates; lookup-only uses state their case in an allow directive.
fn check_hash_iter(lexed: &Lexed, map: &FileMap, out: &mut Vec<Violation>) {
    for t in &lexed.tokens {
        if t.kind == TokenKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !map.is_test_line(t.line)
        {
            out.push(Violation {
                line: t.line,
                rule: Rule::HashIter,
                message: format!(
                    "`{}` in a determinism-scoped crate: hash iteration order varies \
                     run to run; use BTreeMap/BTreeSet (or sort before iterating and \
                     justify with `// lint: allow(hash-iter) — <reason>`)",
                    t.text
                ),
            });
        }
    }
}

/// R2: `Instant::now` call sites and any `SystemTime` mention outside
/// test code. `use std::time::Instant` alone is fine — only acquiring the
/// clock is flagged, so passing an externally-captured timestamp through
/// is allowed.
fn check_wall_clock(lexed: &Lexed, map: &FileMap, out: &mut Vec<Violation>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if map.is_test_line(t.line) {
            continue;
        }
        let flagged = if t.is_ident("Instant") {
            toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
                && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
                && toks.get(i + 3).is_some_and(|a| a.is_ident("now"))
        } else {
            t.is_ident("SystemTime")
        };
        if flagged {
            out.push(Violation {
                line: t.line,
                rule: Rule::WallClock,
                message: "wall-clock read in a determinism-scoped crate: results must not \
                 depend on real time; use iteration/evaluation budgets (e.g. \
                 `SolverBudget`) or sim time, and justify pure reporting with \
                 `// lint: allow(wall-clock) — <reason>`"
                    .to_string(),
            });
        }
    }
}

/// R3: `.unwrap(` / `.expect(` in non-test library code.
fn check_panic(lexed: &Lexed, map: &FileMap, out: &mut Vec<Violation>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_punct('.') {
            continue;
        }
        let Some(name) = toks.get(i + 1) else { continue };
        if !(name.is_ident("unwrap") || name.is_ident("expect")) {
            continue;
        }
        if !toks.get(i + 2).is_some_and(|p| p.is_punct('(')) {
            continue;
        }
        if map.is_test_line(name.line) {
            continue;
        }
        out.push(Violation {
            line: name.line,
            rule: Rule::Panic,
            message: format!(
                "`{}()` in library code: return an error or handle the case; if the \
                 panic is invariant-backed, justify with `// lint: allow(panic) — <reason>`",
                name.text
            ),
        });
    }
}

/// R4: `thread_rng` / `from_entropy` anywhere, including tests — OS
/// entropy breaks replayability wherever it appears.
fn check_entropy(lexed: &Lexed, out: &mut Vec<Violation>) {
    for t in &lexed.tokens {
        if t.kind == TokenKind::Ident && (t.text == "thread_rng" || t.text == "from_entropy") {
            out.push(Violation {
                line: t.line,
                rule: Rule::Entropy,
                message: format!(
                    "`{}` draws OS entropy: all randomness must flow from seeded RNGs \
                     (`StdRng::seed_from_u64` or a stream derived from the run seed)",
                    t.text
                ),
            });
        }
    }
}

/// R5: `pub` items in contract crates need a doc comment. Skips
/// `pub(…)` restricted visibility, `pub use` re-exports, `pub mod x;`
/// declarations (docs live in the module file), tuple-struct fields, and
/// members of trait impls (they inherit the trait's docs).
fn check_docs(lexed: &Lexed, map: &FileMap, out: &mut Vec<Violation>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") || map.is_test_line(t.line) || map.is_trait_impl_line(t.line) {
            continue;
        }
        let Some(next) = toks.get(i + 1) else { continue };
        // `pub(crate)` / `pub(super)`: not part of the public API.
        if next.is_punct('(') {
            continue;
        }
        // Re-exports and externs don't carry their own docs.
        if next.is_ident("use") || next.is_ident("extern") {
            continue;
        }
        // `pub mod x;` — the module documents itself with `//!`.
        if next.is_ident("mod") && toks.get(i + 3).is_some_and(|p| p.is_punct(';')) {
            continue;
        }
        // Tuple-struct fields (`pub struct Id(pub u64)`): preceded by a
        // `(` or `,` and NOT shaped like a named field (`pub name: Type`),
        // which can also follow a comma inside a braced struct.
        let named_field = matches!(next.kind, TokenKind::Ident)
            && toks.get(i + 2).is_some_and(|p| p.is_punct(':'));
        if i > 0 && (toks[i - 1].is_punct('(') || toks[i - 1].is_punct(',')) && !named_field {
            continue;
        }
        if !map.has_doc_above(t.line) {
            out.push(Violation {
                line: t.line,
                rule: Rule::Docs,
                message: "public item lacks a doc comment: add `///` docs (or justify with \
                 `// lint: allow(docs) — <reason>`)"
                    .to_string(),
            });
        }
    }
}

/// R9: every `pub fn` (restricted `pub(…)` visibility excluded) outside
/// test code in the `applicable` files whose name is an identifier token
/// exactly once across *all* of `inputs`. Pushes `(file index,
/// violation)` pairs.
pub fn check_unused_pub(
    inputs: &[FileInput],
    applicable: &[bool],
    out: &mut Vec<(usize, Violation)>,
) {
    let mut mentions: BTreeMap<&str, usize> = BTreeMap::new();
    for t in inputs.iter().flat_map(|input| &input.lexed.tokens) {
        if t.kind == TokenKind::Ident {
            *mentions.entry(&t.text).or_default() += 1;
        }
    }
    for (i, input) in inputs.iter().enumerate() {
        if !applicable[i] {
            continue;
        }
        let toks = &input.lexed.tokens;
        for (k, t) in toks.iter().enumerate() {
            if !t.is_ident("pub") || input.map.is_test_line(t.line) {
                continue;
            }
            let qualifiers = toks[k + 1..]
                .iter()
                .take_while(|q| q.is_ident("const") || q.is_ident("async") || q.is_ident("unsafe"))
                .count();
            let [keyword, name, ..] = &toks[k + 1 + qualifiers..] else { continue };
            if !keyword.is_ident("fn") || name.kind != TokenKind::Ident {
                continue;
            }
            if mentions.get(name.text.as_str()) == Some(&1) {
                out.push((
                    i,
                    Violation {
                        line: name.line,
                        rule: Rule::UnusedPub,
                        message: format!(
                            "`pub fn {}` is named nowhere else in the scanned workspace — no \
                             caller, test, bench or example: delete it, narrow it to \
                             `pub(crate)`, or justify with `// lint: allow(unused-pub) — <reason>`",
                            name.text
                        ),
                    },
                ));
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

/// R7: see [`Rule::DigestCoverage`]. Runs over the whole workspace at
/// once (a digest type and its fingerprint computation may live in
/// different files). Returns `(unit index, violation)` pairs; violations
/// anchor at the struct declaration (derive checks) or the digest fn
/// (field-flow checks). `applicable` gates which units the rule runs on.
pub fn check_digest_coverage(
    units: &[FileInput],
    types: &[String],
    applicable: &[bool],
    out: &mut Vec<(usize, Violation)>,
) {
    let scoped = |name: &str| types.iter().any(|t| t == name);

    // Struct declarations of scoped types: (unit, &StructDef).
    let mut decls: Vec<(usize, &crate::parser::StructDef)> = Vec::new();
    for (i, u) in units.iter().enumerate() {
        if !applicable[i] {
            continue;
        }
        for s in &u.parsed.structs {
            if scoped(&s.name) && !u.map.is_test_line(s.line) {
                decls.push((i, s));
            }
        }
    }

    // Check 1+2: derived equality, no manual PartialEq/Hash.
    for &(i, s) in &decls {
        if s.kind == StructKind::Named
            && !s.derives.iter().any(|d| d == "PartialEq")
        {
            out.push((
                i,
                Violation {
                    line: s.line,
                    rule: Rule::DigestCoverage,
                    message: format!(
                        "digest type `{}` must `#[derive(PartialEq)]` so equality \
                         covers every field — divergence checks compare these \
                         wholesale",
                        s.name
                    ),
                },
            ));
        }
    }
    for (i, u) in units.iter().enumerate() {
        if !applicable[i] {
            continue;
        }
        for imp in &u.parsed.impls {
            let manual_eq = matches!(imp.trait_name.as_deref(), Some("PartialEq" | "Hash"));
            if manual_eq && scoped(&imp.self_ty) && !u.map.is_test_line(imp.line) {
                out.push((
                    i,
                    Violation {
                        line: imp.line,
                        rule: Rule::DigestCoverage,
                        message: format!(
                            "manual `impl {} for {}` can silently skip fields — \
                             derive it instead so every field is compared",
                            imp.trait_name.as_deref().unwrap_or("PartialEq"),
                            imp.self_ty
                        ),
                    },
                ));
            }
        }
    }

    // Check 3: field flow into canonical_string/fingerprint computations.
    for root in types {
        // Digest fns of this root type, across the workspace.
        let mut mention: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let mut anchor: Option<(usize, u32)> = None;
        let mut fn_names: Vec<String> = Vec::new();
        for (i, u) in units.iter().enumerate() {
            if !applicable[i] {
                continue;
            }
            for imp in &u.parsed.impls {
                if imp.self_ty != *root {
                    continue;
                }
                for f in &imp.fns {
                    if (f.name == "canonical_string" || f.name == "fingerprint")
                        && !u.map.is_test_line(f.line)
                    {
                        anchor.get_or_insert((i, f.line));
                        fn_names.push(f.name.clone());
                        for t in f.body_tokens(u.lexed) {
                            if t.kind == TokenKind::Ident {
                                mention.insert(t.text.clone());
                            }
                        }
                    }
                }
            }
        }
        let Some((ai, aline)) = anchor else { continue };

        // Scoped types reachable from the root through field types.
        let mut reach: Vec<&str> = vec![root.as_str()];
        let mut k = 0usize;
        while k < reach.len() {
            let cur = reach[k];
            k += 1;
            for &(_, s) in &decls {
                if s.name != cur {
                    continue;
                }
                for fld in &s.fields {
                    for ty in &fld.ty_idents {
                        if scoped(ty) && !reach.contains(&ty.as_str()) {
                            reach.push(ty);
                        }
                    }
                }
            }
        }
        for ty in reach {
            for &(_, s) in &decls {
                if s.name != ty {
                    continue;
                }
                for fld in &s.fields {
                    if !mention.contains(&fld.name) {
                        out.push((
                            ai,
                            Violation {
                                line: aline,
                                rule: Rule::DigestCoverage,
                                message: format!(
                                    "field `{}.{}` does not flow into `{root}::{}` — \
                                     hash it, or exempt it with \
                                     `// lint: allow(digest-coverage) — <reason>`",
                                    s.name,
                                    fld.name,
                                    fn_names.first().map(String::as_str).unwrap_or("fingerprint"),
                                ),
                            },
                        ));
                    }
                }
            }
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
        table.add_file("c", rel, &parsed);
        let input = FileInput {
            rel_path: rel,
            crate_name: Some("c"),
            lexed: &lexed,
            map: &map,
            parsed: &parsed,
        };
        let raw = check_file_raw(&input, &table, rules, path_scoped);
        let allows = AllowSet::from_comments(&lexed.comments);
        apply_allows(raw, &allows, rules.contains(&Rule::StaleAllow))
    }

    fn run(src: &str, rules: &[Rule]) -> Vec<Violation> {
        run_path("lib.rs", src, rules, false)
    }

    fn rules_hit(src: &str, rules: &[Rule]) -> Vec<(&'static str, u32)> {
        run(src, rules).iter().map(|v| (v.rule.id(), v.line)).collect()
    }

    #[test]
    fn hash_iter_flags_non_test_uses_only() {
        let src = "\
use std::collections::HashMap;
fn lib(m: &HashMap<u32, u32>) {}
#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    fn t() { let _ = HashSet::<u32>::new(); }
}
";
        assert_eq!(rules_hit(src, &[Rule::HashIter]), vec![("R1", 1), ("R1", 2)]);
    }

    #[test]
    fn hash_iter_ignores_comments_and_strings() {
        let src = "// HashMap in a comment\nfn f() { let s = \"HashMap\"; let r = r#\"HashSet\"#; }\n";
        assert!(run(src, &[Rule::HashIter]).is_empty());
    }

    #[test]
    fn hash_iter_allow_directive_with_reason() {
        let src = "\
use std::collections::HashMap; // lint: allow(hash-iter) — lookup-only index, never iterated
fn f(m: &HashMap<u32, u32>) -> Option<&u32> { // lint: allow(hash-iter) — lookup-only
    m.get(&1)
}
";
        assert!(run(src, &[Rule::HashIter]).is_empty());
    }

    #[test]
    fn wall_clock_flags_now_but_not_type_mentions() {
        let src = "\
use std::time::Instant;
fn report(start: Instant) -> f64 { start.elapsed().as_secs_f64() }
fn bad() { let t = Instant::now(); let _ = t; }
fn worse() { let _ = std::time::SystemTime::now(); }
";
        assert_eq!(
            rules_hit(src, &[Rule::WallClock]),
            vec![("R2", 3), ("R2", 4)]
        );
    }

    #[test]
    fn wall_clock_allowlisted_reporting() {
        let src = "fn f() { let t = std::time::Instant::now(); } // lint: allow(wall-clock) — reporting only\n";
        assert!(run(src, &[Rule::WallClock]).is_empty());
    }

    #[test]
    fn panic_flags_unwrap_and_expect_outside_tests() {
        let src = "\
fn lib() {
    let a: Option<u32> = None;
    let _ = a.unwrap();
    let _ = a.expect(\"boom\");
    let _ = a.unwrap_or(3);
}
#[cfg(test)]
mod tests {
    fn t() { Some(1).unwrap(); }
}
";
        assert_eq!(rules_hit(src, &[Rule::Panic]), vec![("R3", 3), ("R3", 4)]);
    }

    #[test]
    fn panic_allow_requires_reason() {
        let with_reason = "fn f() { x.unwrap(); } // lint: allow(panic) — key inserted two lines above\n";
        assert!(run(with_reason, &[Rule::Panic]).is_empty());
        let without = "fn f() { x.unwrap(); } // lint: allow(panic)\n";
        let v = run(without, &[Rule::Panic]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("lacks a justification"), "{}", v[0].message);
    }

    #[test]
    fn entropy_flags_tests_too() {
        let src = "\
fn lib() { let r = rand::thread_rng(); }
#[cfg(test)]
mod tests {
    fn t() { let r = SmallRng::from_entropy(); }
}
";
        assert_eq!(rules_hit(src, &[Rule::Entropy]), vec![("R4", 1), ("R4", 4)]);
    }

    #[test]
    fn docs_flags_undocumented_pub_items() {
        let src = "\
/// Documented.
pub fn good() {}
pub fn bad() {}
pub struct AlsoBad;
pub(crate) fn internal() {}
pub use std::collections::BTreeMap;
pub mod submodule;
";
        assert_eq!(rules_hit(src, &[Rule::Docs]), vec![("R5", 3), ("R5", 4)]);
    }

    #[test]
    fn docs_sees_through_attributes_and_skips_tuple_fields() {
        let src = "\
/// Documented wrapper.
#[derive(Debug, Clone)]
pub struct Id(pub u64);

/// Documented struct.
pub struct S {
    /// Documented field.
    pub x: f64,
    pub y: f64,
}
";
        assert_eq!(rules_hit(src, &[Rule::Docs]), vec![("R5", 9)]);
    }

    #[test]
    fn docs_skips_trait_impl_members() {
        let src = "\
/// Documented.
pub struct S;
impl std::fmt::Display for S {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, \"s\")
    }
}
";
        assert!(run(src, &[Rule::Docs]).is_empty());
    }

    #[test]
    fn rule_names_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_name(r.name()), Some(r));
            assert_eq!(Rule::from_name(r.id()), Some(r));
        }
        assert_eq!(Rule::from_name("nope"), None);
        assert_eq!(Rule::HashIter.to_string(), "R1[hash-iter]");
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
        let lexed = lex(src);
        let map = map_file(&lexed);
        let parsed = parse_items(&lexed);
        let input = FileInput {
            rel_path: "lib.rs",
            crate_name: Some("c"),
            lexed: &lexed,
            map: &map,
            parsed: &parsed,
        };
        let types: Vec<String> = Rule::DigestCoverage
            .default_types()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut out = Vec::new();
        check_digest_coverage(&[input], &types, &[true], &mut out);
        out.into_iter().map(|(_, v)| v).collect()
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

    #[test]
    fn digest_coverage_requires_fields_to_flow_into_fingerprint() {
        let src = "\
#[derive(PartialEq)]
struct MetricsDigest { counters: Vec<u64>, spare: u32 }
impl MetricsDigest {
    fn canonical_string(&self) -> String {
        format!(\"{:?}\", self.counters)
    }
}
";
        let v = run_digest(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 4);
        assert!(v[0].message.contains("MetricsDigest.spare"), "{}", v[0].message);
    }

    #[test]
    fn digest_coverage_chases_nested_scoped_types() {
        let src = "\
#[derive(PartialEq)]
struct MetricsDigest { histograms: Vec<(String, HistogramSnapshot)> }
#[derive(PartialEq)]
struct HistogramSnapshot { counts: Vec<u64>, bounds: Vec<f64> }
impl MetricsDigest {
    fn canonical_string(&self) -> String {
        let mut s = String::new();
        for (k, h) in &self.histograms {
            s.push_str(k);
            s.push_str(&format!(\"{:?}\", h.counts));
        }
        s
    }
}
";
        let v = run_digest(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("HistogramSnapshot.bounds"), "{}", v[0].message);
    }

    // -- R8 ---------------------------------------------------------

    #[test]
    fn stale_allow_flags_directives_that_suppress_nothing() {
        let src = "\
fn clean() {}
// lint: allow(panic) — leftover from a refactor
fn also_clean() {}
";
        let v = run(src, &[Rule::Panic, Rule::StaleAllow]);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule.id(), v[0].line), ("R8", 2));
        assert!(v[0].message.contains("stale"), "{}", v[0].message);
    }

    #[test]
    fn stale_allow_accepts_live_directives() {
        let src = "fn f() { x.unwrap(); } // lint: allow(panic) — invariant: x checked above\n";
        assert!(run(src, &[Rule::Panic, Rule::StaleAllow]).is_empty());
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
        // The R3 violation is still reported (with a hint); the directive
        // targeted something, so R8 stays quiet.
        let src = "fn f() { x.unwrap(); } // lint: allow(panic)\n";
        let v = run(src, &[Rule::Panic, Rule::StaleAllow]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Panic);
    }

    #[test]
    fn stale_allow_can_itself_be_allowed() {
        let src = "\
// lint: allow(stale-allow) — directive below documents a planned exemption
// lint: allow(panic) — waiting on the follow-up change
fn f() {}
";
        assert!(run(src, &[Rule::Panic, Rule::StaleAllow]).is_empty());
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
#[cfg(test)]
mod tests {
    pub fn helpers_in_tests_are_exempt() {}
    fn t() { super::called_from_own_tests(); }
}
";
        let caller = "fn main() { called_from_the_other_file(); }\npub fn uncalled_but_not_applicable() {}\n";
        let (lib, caller) = (lex(lib), lex(caller));
        let (lib_map, caller_map) = (map_file(&lib), map_file(&caller));
        let (lib_items, caller_items) = (parse_items(&lib), parse_items(&caller));
        let input = |rel_path, lexed, map, parsed| FileInput {
            rel_path,
            crate_name: Some("c"),
            lexed,
            map,
            parsed,
        };
        let inputs = [
            input("crates/c/src/lib.rs", &lib, &lib_map, &lib_items),
            input("examples/caller.rs", &caller, &caller_map, &caller_items),
        ];
        let mut out = Vec::new();
        check_unused_pub(&inputs, &[true, false], &mut out);
        let hits: Vec<(usize, u32)> = out.iter().map(|(file, v)| (*file, v.line)).collect();
        assert_eq!(hits, vec![(0, 2), (0, 4)], "{out:?}");
        assert!(out[0].1.message.contains("`pub fn lone_const`"), "{}", out[0].1.message);
    }
}
