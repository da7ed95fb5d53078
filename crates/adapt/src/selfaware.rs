//! A unifying abstraction for self-aware adaptation.
//!
//! §IV-A observes that self-stabilization, error-correcting decoding, and
//! adaptive control "all implicitly share the notion of *self* that
//! encapsulates state, models, actions, and goals, and that adapts its
//! actions and models as needed, such that its goals are met" — and asks
//! whether "this simple principle \[can\] serve as the cornerstone of a new
//! unifying theory of self-aware adaptation".
//!
//! [`SelfAware`] is that principle as a trait: a goal predicate over the
//! observable state plus an adaptation step. [`AdaptationLoop`] runs any
//! such component against a stream of observations and instruments the
//! quantities the paper says a theory must expose ("quantifiable
//! assessment metrics for self-aware and self-adaptive systems"):
//! time-in-goal fraction, violations detected, adaptations performed, and
//! worst violation streak.

/// A self-aware component: it knows its goal and can act toward it.
pub trait SelfAware {
    /// An observation of the environment delivered each step.
    type Observation;

    /// Updates the internal model with a fresh observation.
    fn observe(&mut self, observation: Self::Observation);

    /// Whether the goal currently holds, given the internal model.
    fn goal_met(&self) -> bool;

    /// Takes one corrective action toward the goal. Called only when the
    /// goal is violated. Returns `false` when the component has no action
    /// left to try (the loop records a dead end instead of spinning).
    fn adapt(&mut self) -> bool;
}

/// Instrumented metrics of one adaptation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdaptationMetrics {
    /// Observations processed.
    pub steps: usize,
    /// Steps at which the goal held (before any correction that step).
    pub steps_in_goal: usize,
    /// Corrective actions taken.
    pub adaptations: usize,
    /// Steps where adaptation was needed but the component had no action.
    pub dead_ends: usize,
    /// Longest consecutive run of violated steps.
    pub worst_violation_streak: usize,
}

/// Drives a [`SelfAware`] component over an observation stream: each step
/// delivers one observation, then adapts (up to `max_actions_per_step`
/// corrective actions) until the goal holds again or actions run out.
///
/// ```
/// # use iobt_adapt::selfaware::{AdaptationLoop, SelfAware};
/// // Goal: capacity covers the last observed load. Action: double it.
/// struct Scaler { load: f64, capacity: f64 }
/// impl SelfAware for Scaler {
///     type Observation = f64;
///     fn observe(&mut self, load: f64) { self.load = load; }
///     fn goal_met(&self) -> bool { self.load <= self.capacity }
///     fn adapt(&mut self) -> bool { self.capacity *= 2.0; true }
/// }
/// let mut service = Scaler { load: 0.0, capacity: 10.0 };
/// let metrics = AdaptationLoop::default().run(&mut service, [5.0, 60.0, 60.0]);
/// assert_eq!(service.capacity, 80.0, "scaled up under load");
/// assert_eq!((metrics.adaptations, metrics.steps_in_goal), (3, 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptationLoop {
    /// Correction budget per step (≥ 1).
    pub max_actions_per_step: usize,
}

impl Default for AdaptationLoop {
    fn default() -> Self {
        AdaptationLoop {
            max_actions_per_step: 4,
        }
    }
}

impl AdaptationLoop {
    /// Runs the component over the observations, returning the metrics.
    pub fn run<C: SelfAware>(
        &self,
        component: &mut C,
        observations: impl IntoIterator<Item = C::Observation>,
    ) -> AdaptationMetrics {
        let mut m = AdaptationMetrics::default();
        let mut streak = 0usize;
        for obs in observations {
            component.observe(obs);
            m.steps += 1;
            if component.goal_met() {
                m.steps_in_goal += 1;
                streak = 0;
                continue;
            }
            streak += 1;
            m.worst_violation_streak = m.worst_violation_streak.max(streak);
            let mut budget = self.max_actions_per_step.max(1);
            while !component.goal_met() && budget > 0 {
                if !component.adapt() {
                    m.dead_ends += 1;
                    break;
                }
                m.adaptations += 1;
                budget -= 1;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The adaptive-control exemplar from §IV-A wrapped as a [`SelfAware`]
    /// component: a service whose *goal* is keeping measured load within a
    /// band, whose *model* is an EMA of the load, and whose *action* is
    /// scaling capacity up/down.
    #[derive(Debug, Clone, PartialEq)]
    struct LoadBandService {
        /// Smoothed load estimate (the internal model).
        load_estimate: f64,
        /// Current capacity (the actuated resource).
        capacity: f64,
        /// Goal band on utilization `load / capacity`.
        band: (f64, f64),
        /// Capacity limits.
        limits: (f64, f64),
    }

    impl LoadBandService {
        /// Creates a service with `capacity` and a target utilization band.
        ///
        /// # Panics
        ///
        /// Panics when the band or limits are inverted or non-positive.
        fn new(capacity: f64, band: (f64, f64), limits: (f64, f64)) -> Self {
            assert!(0.0 < band.0 && band.0 < band.1, "invalid band");
            assert!(0.0 < limits.0 && limits.0 <= limits.1, "invalid limits");
            LoadBandService {
                load_estimate: 0.0,
                capacity: capacity.clamp(limits.0, limits.1),
                band,
                limits,
            }
        }

        /// Current capacity.
        const fn capacity(&self) -> f64 {
            self.capacity
        }

        /// Current utilization estimate.
        fn utilization(&self) -> f64 {
            self.load_estimate / self.capacity
        }
    }

    impl SelfAware for LoadBandService {
        type Observation = f64; // instantaneous load

        fn observe(&mut self, load: f64) {
            self.load_estimate = 0.5 * self.load_estimate + 0.5 * load.max(0.0);
        }

        fn goal_met(&self) -> bool {
            // Idle systems are in goal even below the band floor.
            let u = self.utilization();
            self.load_estimate < 1e-9 || (u >= self.band.0 && u <= self.band.1)
        }

        fn adapt(&mut self) -> bool {
            let u = self.utilization();
            let (lo, hi) = self.band;
            // Aim at the band midpoint, not the edge, so a still-ramping load
            // estimate does not re-violate on the very next observation.
            let mid = (lo + hi) / 2.0;
            let target = if u > hi || u < lo {
                self.load_estimate / mid
            } else {
                return true;
            };
            let new_capacity = target.clamp(self.limits.0, self.limits.1);
            if (new_capacity - self.capacity).abs() < 1e-12 {
                return false; // pinned at a limit: no action left
            }
            self.capacity = new_capacity;
            true
        }
    }

    #[test]
    fn service_scales_up_under_a_load_step() {
        let mut svc = LoadBandService::new(10.0, (0.4, 0.8), (1.0, 1_000.0));
        let metrics = AdaptationLoop::default().run(
            &mut svc,
            std::iter::repeat_n(50.0, 30),
        );
        assert!(svc.capacity() > 10.0, "must scale up: {}", svc.capacity());
        let u = svc.utilization();
        assert!((0.4..=0.8).contains(&u), "utilization in band: {u}");
        assert!(metrics.adaptations > 0);
        assert_eq!(metrics.dead_ends, 0);
        assert!(metrics.steps_in_goal > metrics.steps / 2, "{:?}", metrics);
    }

    #[test]
    fn service_scales_down_when_load_fades() {
        let mut svc = LoadBandService::new(500.0, (0.4, 0.8), (1.0, 1_000.0));
        AdaptationLoop::default().run(&mut svc, std::iter::repeat_n(20.0, 30));
        assert!(svc.capacity() < 100.0, "must shed capacity: {}", svc.capacity());
    }

    #[test]
    fn capacity_limits_cause_dead_ends_not_spins() {
        // Load far beyond the maximum capacity: goal unreachable.
        let mut svc = LoadBandService::new(10.0, (0.4, 0.8), (1.0, 20.0));
        let metrics = AdaptationLoop::default().run(
            &mut svc,
            std::iter::repeat_n(1_000.0, 10),
        );
        assert!(metrics.dead_ends > 0, "{metrics:?}");
        assert_eq!(svc.capacity(), 20.0, "pinned at the limit");
        assert!(metrics.steps_in_goal < metrics.steps / 2);
        assert!(metrics.worst_violation_streak >= 5);
    }

    #[test]
    fn idle_service_stays_in_goal() {
        let mut svc = LoadBandService::new(10.0, (0.4, 0.8), (1.0, 100.0));
        let metrics =
            AdaptationLoop::default().run(&mut svc, std::iter::repeat_n(0.0, 10));
        assert_eq!(metrics.steps_in_goal, 10);
        assert_eq!(metrics.adaptations, 0);
    }

    #[test]
    fn empty_run_reports_unit_goal_fraction() {
        let mut svc = LoadBandService::new(10.0, (0.4, 0.8), (1.0, 100.0));
        let metrics = AdaptationLoop::default().run(&mut svc, std::iter::empty());
        assert_eq!(metrics.steps, 0);
    }

    /// A second SelfAware implementation proving the abstraction is not
    /// shaped around one example: error-correction-style parity repair
    /// (§IV-A's coding example) — the goal is even parity of a register,
    /// the action flips the lowest set bit.
    struct ParityKeeper {
        register: u32,
    }

    impl SelfAware for ParityKeeper {
        type Observation = u32; // bits XORed in by the environment

        fn observe(&mut self, noise: u32) {
            self.register ^= noise;
        }

        fn goal_met(&self) -> bool {
            self.register.count_ones().is_multiple_of(2)
        }

        fn adapt(&mut self) -> bool {
            if self.register == 0 {
                return false;
            }
            self.register &= self.register - 1; // clear lowest set bit
            true
        }
    }

    #[test]
    fn parity_keeper_conforms_to_the_same_loop() {
        let mut keeper = ParityKeeper { register: 0 };
        let noise = [0b1u32, 0b110, 0b1, 0b0, 0b10000];
        let metrics = AdaptationLoop::default().run(&mut keeper, noise);
        assert!(keeper.goal_met());
        assert_eq!(metrics.steps, 5);
        assert!(metrics.adaptations >= 2);
    }
}
