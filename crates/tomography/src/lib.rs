//! Network tomography for IoBT system diagnostics (paper §V-A,
//! refs \[19\]–\[22\]).
//!
//! "Health … needs to be inferred (and damage, if any, assessed) without
//! direct component observation." This crate implements the two classic
//! tomography problems over simulated [topologies](topology):
//!
//! * [`additive`] — inferring per-link delays from end-to-end path sums,
//!   with exact [identifiability analysis](additive::MeasurementSystem::identifiable_edges)
//!   via row-space membership.
//! * [`boolean`] — localizing failed links from path reachability alone.
//!
//! [`placement`] provides monitor-placement heuristics, and [`matrix`] the
//! from-scratch linear algebra everything runs on.
//!
//! # Examples
//!
//! ```
//! use iobt_tomography::{greedy_placement, sample_metrics, MeasurementSystem, Topology};
//!
//! let net = Topology::grid(4, 3);
//! let monitors = greedy_placement(&net, 6);
//! let system = MeasurementSystem::build(&net, &monitors);
//! let truth = sample_metrics(&net, 1.0, 10.0, 42);
//! let result = system.infer(&truth, 0.0, 0);
//! assert!(result.identifiable_rmse() < 1e-5, "exact on identifiable links");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod additive;
pub mod boolean;
pub mod matrix;
pub mod placement;
pub mod topology;

pub use additive::{sample_metrics, InferenceResult, MeasurementSystem};
pub use boolean::{localize_failures, Localization};
pub use matrix::{min_norm_solution, solve, Matrix};
pub use placement::{degree_placement, greedy_placement, random_placement};
pub use topology::Topology;
