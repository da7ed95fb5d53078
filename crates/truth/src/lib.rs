//! Social-sensing truth discovery for the IoBT (paper §V-A, refs \[1\]–\[4\]).
//!
//! Humans and gray sensors are unreliable, biased, and sometimes
//! adversarial sources; this crate recovers ground truth from their
//! conflicting binary claims. It provides the [EM fact-finder](em)
//! (Dawid–Skene-style joint estimation of claim truth and source
//! accuracy), [voting baselines](vote), and [attention
//! diagnostics](diagnostics) that rank claims by anomaly
//! worthiness. [Synthetic scenarios](scenario) with ground truth drive the
//! experiments.
//!
//! # Examples
//!
//! ```
//! use iobt_truth::{discover, majority_vote, EmConfig, ScenarioBuilder};
//!
//! let scenario = ScenarioBuilder::new(40, 100)
//!     .observe_prob(0.4)
//!     .adversarial_fraction(0.2)
//!     .build(7);
//! let estimate = discover(
//!     &scenario.reports,
//!     scenario.num_sources,
//!     scenario.num_claims,
//!     EmConfig::default(),
//! );
//! let em_acc = scenario.score_claims(&estimate.claim_values());
//! let vote_acc = scenario.score_claims(&majority_vote(&scenario.reports, scenario.num_claims));
//! assert!(em_acc >= vote_acc - 0.05, "EM should not lose to voting");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod diagnostics;
pub mod em;
pub mod scenario;
pub mod vote;

pub use diagnostics::{rank_attention, AttentionScore};
pub use em::{discover, EmConfig, TruthEstimate};
pub use scenario::{ClaimId, Report, Scenario, ScenarioBuilder, SourceId};
pub use vote::{majority_vote, weighted_vote};
