//! `iobt-lint`: the workspace's replay-contract auditor.
//!
//! The paper's central engineering demand is *assured* composition and
//! adaptation — quantifiable, reproducible behaviour. The whole
//! experimental methodology of this repo rests on the simulator and the
//! solvers being deterministic and replayable: the same scenario and seed
//! must produce the same composition, the same event trace, and the same
//! assurance numbers, on every machine, forever. Hash-ordered iteration,
//! wall-clock-driven budgets, and OS entropy silently break that property
//! without failing a single test — so the repository makes the
//! invariants machine-checkable instead of conventional.
//!
//! The token-level invariants are the compiler's, which checks them with
//! types: the root `clippy.toml` disallows `HashMap`/`HashSet`,
//! `SystemTime` and `Instant::now` (R1 `hash-iter`, R2 `wall-clock`),
//! every library root warns `clippy::unwrap_used`/`expect_used` (R3
//! `panic`) and `missing_docs` (R5 `docs`), and the seeded `compat/rand`
//! has no `thread_rng` or `from_entropy` to call (R4 `entropy`). CI runs
//! clippy with `-D warnings`; an exemption is an `#[expect(…, reason =
//! "…")]`, which fails clippy once it excuses nothing.
//!
//! What stays here is what no compiler check says: a from-scratch
//! item-level pass (no `syn`; the workspace builds fully offline) for
//! R6–R9:
//!
//! * [`lexer`] — a Rust lexer that gets the lexical layer right (nested
//!   block comments, raw strings, char-vs-lifetime, doc comments);
//! * [`regions`] — line classification: `#[cfg(test)]` / `mod tests`
//!   regions;
//! * [`parser`] — a lightweight item parser over the token stream:
//!   structs (fields, derives), impl blocks, fn bodies, and
//!   the workspace-wide symbol table the semantic rules resolve against;
//! * [`rules`] — the rule catalogue, R6–R9;
//! * [`config`] — `lint.toml` parsing (every rule's scope lives there)
//!   and inline `// lint: allow(<rule>) — <reason>` directives;
//! * [`engine`] — the workspace walker and two-pass rule dispatch
//!   (parse everything, then check with cross-file context).
//!
//! | ID | name | invariant |
//! |----|------|-----------|
//! | R6 | `state-coverage` | save/restore fns and hand-written `Wire::put`s destructure `Self` exhaustively |
//! | R7 | `digest-coverage` | digest types derive equality; no manual `PartialEq`/`Hash` |
//! | R8 | `stale-allow` | allow directives must suppress something |
//! | R9 | `unused-pub` | a library `pub fn` or `pub` field is used outside its own crate's unit tests and `pub use` lists (a method by its type, a field by a read) |
//!
//! The `iobt-lint` binary (`cargo run -p iobt-lint -- --deny-all`) wires
//! this into CI with `--format json`, a findings baseline for
//! ratcheting, and `--explain Rn` rationale text; see the README's
//! "Static analysis" section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod regions;
pub mod rules;

pub use config::{AllowSet, Config};
pub use engine::{applicable_rules, classify, lint_root, Report, Section};
pub use rules::{Rule, Violation};
