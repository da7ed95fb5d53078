//! `iobt-lint`: the workspace determinism & panic-discipline auditor.
//!
//! The paper's central engineering demand is *assured* composition and
//! adaptation — quantifiable, reproducible behaviour. The whole
//! experimental methodology of this repo rests on the simulator and the
//! solvers being deterministic and replayable: the same scenario and seed
//! must produce the same composition, the same event trace, and the same
//! assurance numbers, on every machine, forever. Hash-ordered iteration,
//! wall-clock-driven budgets, and OS entropy silently break that property
//! without failing a single test — so this crate makes the invariants
//! machine-checkable instead of conventional.
//!
//! It is a from-scratch static analysis pass (no `syn`, no clippy
//! plugin — the workspace builds fully offline), token-level for R1–R5
//! and R9 and item-level for the semantic rules R6–R8:
//!
//! * [`lexer`] — a Rust lexer that gets the lexical layer right (nested
//!   block comments, raw strings, char-vs-lifetime, doc comments);
//! * [`regions`] — line classification: `#[cfg(test)]` / `mod tests`
//!   regions, attribute and doc-comment lines, trait-impl spans;
//! * [`parser`] — a lightweight item parser over the token stream:
//!   structs (fields, derives, cfg-gating), impl blocks, fn bodies, and
//!   the workspace-wide symbol table the semantic rules resolve against;
//! * [`rules`] — the rule catalogue, R1–R9;
//! * [`config`] — `lint.toml` parsing and inline
//!   `// lint: allow(<rule>) — <reason>` directives;
//! * [`engine`] — the workspace walker and two-pass rule dispatch
//!   (parse everything, then check with cross-file context).
//!
//! | ID | name | invariant |
//! |----|------|-----------|
//! | R1 | `hash-iter`  | no `HashMap`/`HashSet` in sim/solver crates |
//! | R2 | `wall-clock` | no `Instant::now`/`SystemTime` affecting results |
//! | R3 | `panic`      | no `unwrap`/`expect` in non-test library code |
//! | R4 | `entropy`    | no `thread_rng`/`from_entropy` anywhere |
//! | R5 | `docs`       | public items in contract crates are documented |
//! | R6 | `state-coverage` | save/restore fns and hand-written `Wire::put`s destructure `Self` exhaustively |
//! | R7 | `digest-coverage` | every digest-root field flows into the fingerprint; equality is derived |
//! | R8 | `stale-allow` | allow directives must suppress something |
//! | R9 | `unused-pub` | a library `pub fn` is named somewhere besides its definition |
//!
//! The `iobt-lint` binary (`cargo run -p iobt-lint -- --deny-all`) wires
//! this into CI with `--format json`, a findings baseline for
//! ratcheting, and `--explain Rn` rationale text; see the README's
//! "Static analysis" section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod regions;
pub mod rules;

pub use config::{AllowSet, Config};
pub use engine::{applicable_rules, classify, lint_root, lint_source, Report, Section};
pub use rules::{Rule, Violation};
