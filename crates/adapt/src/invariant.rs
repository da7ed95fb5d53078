//! Self-stabilizing invariant monitors.
//!
//! §IV-A: "self-stabilizing algorithms adapt to maintain an invariant by
//! triggering corrective action, when the invariant is violated, to cause
//! the system to satisfy the invariant again." A [`Stabilizer`] owns a set
//! of [`InvariantMonitor`]s over some system state `S`; each round it
//! checks every invariant and applies the corrective action of violated
//! ones, until a fixed point (all hold) or a round budget is exhausted.

use std::fmt;

/// One invariant with its corrective action.
pub struct InvariantMonitor<S> {
    name: String,
    check: Box<dyn Fn(&S) -> bool>,
    correct: Box<dyn Fn(&mut S)>,
}

impl<S> InvariantMonitor<S> {
    /// Creates a monitor: `check` returns `true` when the invariant holds,
    /// `correct` mutates the state toward satisfaction.
    pub fn new(
        name: impl Into<String>,
        check: impl Fn(&S) -> bool + 'static,
        correct: impl Fn(&mut S) + 'static,
    ) -> Self {
        InvariantMonitor {
            name: name.into(),
            check: Box::new(check),
            correct: Box::new(correct),
        }
    }

    /// Whether the invariant currently holds.
    pub fn holds(&self, state: &S) -> bool {
        (self.check)(state)
    }
}

impl<S> fmt::Debug for InvariantMonitor<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InvariantMonitor")
            .field("name", &self.name)
            .finish()
    }
}

/// Result of a stabilization run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StabilizationReport {
    /// Rounds executed (a round checks every monitor once).
    pub rounds: usize,
    /// Total corrective actions applied.
    pub corrections: usize,
    /// Whether all invariants held at the end.
    pub stable: bool,
}

/// Runs monitors to a fixed point.
#[derive(Debug, Default)]
pub struct Stabilizer<S> {
    monitors: Vec<InvariantMonitor<S>>,
}

impl<S> Stabilizer<S> {
    /// Creates an empty stabilizer.
    pub fn new() -> Self {
        Stabilizer {
            monitors: Vec::new(),
        }
    }

    /// Adds a monitor; returns `self` for chaining.
    pub fn monitor(mut self, monitor: InvariantMonitor<S>) -> Self {
        self.monitors.push(monitor);
        self
    }

    /// Number of registered monitors.
    pub fn len(&self) -> usize {
        self.monitors.len()
    }

    /// Whether no monitors are registered.
    pub fn is_empty(&self) -> bool {
        self.monitors.is_empty()
    }

    /// Runs check-and-correct rounds until every invariant holds or
    /// `max_rounds` is exhausted (guarding against conflicting monitors
    /// that oscillate — the §IV-A "unexpected consequences" of interacting
    /// adaptive components).
    pub fn stabilize(&self, state: &mut S, max_rounds: usize) -> StabilizationReport {
        let mut corrections = 0;
        for round in 1..=max_rounds {
            let mut any_violation = false;
            for m in &self.monitors {
                if !m.holds(state) {
                    any_violation = true;
                    (m.correct)(state);
                    corrections += 1;
                }
            }
            if !any_violation {
                return StabilizationReport {
                    rounds: round,
                    corrections,
                    stable: true,
                };
            }
        }
        StabilizationReport {
            rounds: max_rounds,
            corrections,
            stable: self.monitors.iter().all(|m| m.holds(state)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct State {
        replicas: i32,
        leader: Option<u32>,
        queue_depth: i32,
    }

    fn real_stabilizer() -> Stabilizer<State> {
        Stabilizer::new()
            .monitor(InvariantMonitor::new(
                "replicas >= 3",
                |s: &State| s.replicas >= 3,
                |s: &mut State| s.replicas += 1,
            ))
            .monitor(InvariantMonitor::new(
                "has leader",
                |s: &State| s.leader.is_some(),
                |s: &mut State| s.leader = Some(1),
            ))
            .monitor(InvariantMonitor::new(
                "queue bounded",
                |s: &State| s.queue_depth <= 10,
                |s: &mut State| s.queue_depth -= 5,
            ))
    }

    #[test]
    fn converges_from_violating_state() {
        let s = real_stabilizer();
        let mut state = State {
            replicas: 0,
            leader: None,
            queue_depth: 23,
        };
        let report = s.stabilize(&mut state, 20);
        assert!(report.stable);
        assert_eq!(state.replicas, 3);
        assert_eq!(state.leader, Some(1));
        assert!(state.queue_depth <= 10);
        // replicas: 3 corrections; leader: 1; queue: 3 → ≥ 7 total.
        assert!(report.corrections >= 7);
    }

    #[test]
    fn already_stable_state_is_one_round() {
        let s = real_stabilizer();
        let mut state = State {
            replicas: 5,
            leader: Some(2),
            queue_depth: 1,
        };
        let report = s.stabilize(&mut state, 20);
        assert!(report.stable);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.corrections, 0);
    }

    #[test]
    fn oscillating_monitors_hit_the_round_budget() {
        // Two conflicting invariants that can never both hold — the
        // pathological interaction §IV-A warns about.
        let s: Stabilizer<i32> = Stabilizer::new()
            .monitor(InvariantMonitor::new("x >= 5", |x: &i32| *x >= 5, |x| *x += 3))
            .monitor(InvariantMonitor::new("x <= 2", |x: &i32| *x <= 2, |x| *x -= 3));
        let mut state = 0;
        let report = s.stabilize(&mut state, 50);
        assert!(!report.stable);
        assert_eq!(report.rounds, 50);
    }

    #[test]
    fn empty_stabilizer_is_trivially_stable() {
        let s: Stabilizer<i32> = Stabilizer::new();
        assert!(s.is_empty());
        let mut state = 42;
        let report = s.stabilize(&mut state, 5);
        assert!(report.stable);
        assert_eq!(report.corrections, 0);
    }
}
