//! Assured synthesis of composite IoBT assets (paper §III, Fig. 2).
//!
//! From a [`Mission`](iobt_types::Mission) and a pool of recruited
//! candidates, this crate derives a [composition
//! problem](problem::CompositionProblem) (which sensing modality must cover
//! which cell of the area, with what redundancy), solves it with a
//! portfolio of [solvers](solvers::Solver) (greedy / annealing / exhaustive
//! / random baseline), quantifies the dependability of the result with the
//! [assurance calculus](assurance), and [repairs](mod@repair) compositions
//! incrementally when assets are lost.
//!
//! # Examples
//!
//! ```
//! use iobt_synthesis::{CompositionProblem, Solver};
//! use iobt_types::prelude::*;
//!
//! let mission = Mission::builder(MissionId::new(1), MissionKind::Surveillance)
//!     .area(Rect::square(500.0))
//!     .require_modality(SensorKind::Visual)
//!     .coverage_fraction(0.9)
//!     .build();
//! let nodes: Vec<NodeSpec> = (0..50)
//!     .map(|i| {
//!         NodeSpec::builder(NodeId::new(i))
//!             .affiliation(Affiliation::Blue)
//!             .position(Point::new((i % 10) as f64 * 55.0, (i / 10) as f64 * 110.0))
//!             .sensor(Sensor::new(SensorKind::Visual, 120.0, 0.9))
//!             .build()
//!     })
//!     .collect();
//! let problem = CompositionProblem::from_mission(&mission, &nodes, 6);
//! let result = Solver::Greedy.solve(&problem);
//! assert!(result.satisfied);
//! assert!(result.selected.len() < nodes.len(), "greedy economizes");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod assurance;
pub mod coverage;
pub mod index;
pub mod problem;
pub mod repair;
pub mod solvers;

pub use assurance::{assess, failure_probability, AssuranceReport};
pub use coverage::{CoverageCounter, CoverageSet};
pub use index::CellIndex;
pub use problem::{candidate_cost, Candidate, CompositionProblem};
pub use repair::{repair, repair_with, repair_with_timed, RepairResult};
pub use solvers::{CompositionResult, MemberOutcome, SolveStats, Solver, SolverBudget};
