//! Adaptive reflexes for IoBTs (paper §IV, Fig. 3).
//!
//! The four adaptation mechanisms the paper sketches, implemented
//! concretely:
//!
//! * [`invariant`] — self-stabilizing invariant monitors with corrective
//!   actions, run to a fixed point (and detecting non-convergent monitor
//!   interactions).
//! * [`game`] — command-by-intent as a potential game: agent objective
//!   functions whose selfish best-response dynamics provably converge to
//!   an equilibrium staffing the commander's objectives.
//! * [`modality`] — the sensing-modality switching reflex with hysteresis
//!   (visual → seismic when smoke or jamming blinds the cameras).
//! * [`alloc`] — adaptive edge-resource allocation that tracks hotspots
//!   and caps DoS regions.
//! * [`selfaware`] — the unifying goal/model/action abstraction (§IV-A's
//!   "unifying theory of self-aware adaptation") with instrumented
//!   assessment metrics. Its adaptive-control face, a PI admission
//!   controller with anti-windup, is a test exemplar (`control`).
//! * [`safety`] — §VI's actuation interlocks: human authorization for
//!   weapon-like effects and occupancy-based withholding, every decision
//!   traced.
//! * [`estimation`] — resilient state estimation: median-fusion tracking
//!   that bounds minority sensor contamination (§III's secure
//!   state-estimation bullet).
//!
//! # Examples
//!
//! ```
//! use iobt_adapt::IntentGame;
//!
//! // Commander's intent decomposed into three weighted objectives;
//! // twelve autonomous agents self-organize without coordination.
//! let game = IntentGame::new(vec![6.0, 3.0, 1.0]);
//! let eq = game.best_response(12, 42);
//! assert!(eq.converged);
//! assert!(game.is_nash(&eq.assignment));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod alloc;
mod control;
pub mod estimation;
pub mod game;
pub mod invariant;
pub mod modality;
pub mod safety;
pub mod selfaware;

pub use alloc::{
    hotspot_trace, mm1_latency_ms, simulate, simulate_observed, water_fill, AllocationPolicy,
    AllocationRun, SATURATION_PENALTY_MS,
};
pub use iobt_obs::Recorder;
pub use estimation::{track, AlphaBetaFilter, FusionRule, TrackingRun};
pub use game::{Equilibrium, IntentGame};
pub use invariant::{InvariantMonitor, StabilizationReport, Stabilizer};
pub use modality::{ModalitySwitcher, SwitchPolicy};
pub use safety::{ActuationController, ActuationDecision, HumanAuthorization};
pub use selfaware::{AdaptationLoop, AdaptationMetrics, SelfAware};
