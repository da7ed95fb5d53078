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
//! What stays here is what no compiler check or test says: a
//! from-scratch item-level pass (no `syn`; the workspace builds fully
//! offline) for R9. R6's state coverage is a test now (`tests/checkpoint.rs`
//! `every_checkpointed_value_resumes_and_steps_to_the_same_bytes` resumes
//! every window of an armed chaos run and demands the same payload bytes
//! back, and one window later), R7's digest equality is one too
//! (`tests/digest_equality.rs` flips every byte of two real digests'
//! wire layouts), and R8's stale-exemption check lives on in R9, which
//! reports a `keep` entry it no longer needs:
//!
//! * [`lexer`] — a Rust lexer that gets the lexical layer right (nested
//!   block comments, raw strings, char-vs-lifetime);
//! * [`regions`] — line classification: `#[cfg(test)]` / `mod tests`
//!   regions;
//! * [`parser`] — a lightweight item parser over the token stream:
//!   named structs (fields) and impl blocks (body ranges);
//! * [`rules`] — the rule catalogue, R9;
//! * [`config`] — `lint.toml` parsing: the skipped paths and R9's `keep`
//!   list, the only exemptions there are;
//! * [`engine`] — the workspace walker and two-pass rule dispatch
//!   (parse everything, then check with cross-file context).
//!
//! | ID | name | invariant |
//! |----|------|-----------|
//! | R9 | `unused-pub` | a library `pub fn` or `pub` field is used outside its own crate's unit tests and `pub use` lists (a method by its type, a field by a read), or kept by a live `lint.toml` entry |
//!
//! The `iobt-lint` binary (`cargo run -p iobt-lint -- --deny-all`) wires
//! this into CI, with `--explain Rn` rationale text; see the README's
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

pub use config::Config;
pub use engine::{applicable_rules, classify, lint_root, Report, Section};
pub use rules::{Rule, Violation};
