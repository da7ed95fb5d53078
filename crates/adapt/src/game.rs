//! Game-theoretic intent decomposition: command by intent as a potential
//! game.
//!
//! §IV-A, "Operationalizing agent interactions": "by suitably choosing
//! agent objective functions, one may be able to guarantee that the
//! interactions between the multiple agents in the battlefield will
//! converge to an equilibrium in which the desired objectives are met.
//! The necessary distributed coordination and control between agents do
//! not need to be explicitly designed, but rather naturally result from
//! each agent seeking to optimize its given objective function."
//!
//! We implement the classic construction: mission objectives become tasks
//! with weights, each agent independently picks the task maximizing its
//! *own* utility `w_t / n_t` (the task's weight split among the agents on
//! it), and best-response dynamics provably converge because this is a
//! congestion (potential) game with potential
//! `Φ = Σ_t Σ_{i=1..n_t} w_t / i`, which strictly increases on every
//! improving move.

// `t` is a task identifier compared against the agent's current task, not
// a bare index; the range loop reads naturally here.
#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A task-allocation potential game.
#[derive(Debug, Clone, PartialEq)]
pub struct IntentGame {
    weights: Vec<f64>,
}

/// Outcome of running best-response dynamics.
#[derive(Debug, Clone, PartialEq)]
pub struct Equilibrium {
    /// Final task choice per agent.
    pub assignment: Vec<usize>,
    /// Best-response sweeps until no agent moved.
    pub sweeps: usize,
    /// Total improving moves taken.
    pub moves: usize,
    /// Whether a Nash equilibrium was certified (no agent can improve).
    pub converged: bool,
}

impl Equilibrium {
    /// Number of agents on each task.
    pub fn task_loads(&self, num_tasks: usize) -> Vec<usize> {
        let mut loads = vec![0usize; num_tasks];
        for &t in &self.assignment {
            loads[t] += 1;
        }
        loads
    }
}

impl IntentGame {
    /// Creates a game from positive task weights (the commander's
    /// decomposed objectives; weight = importance).
    ///
    /// # Panics
    ///
    /// Panics when `weights` is empty or any weight is non-positive.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "need at least one task");
        assert!(
            weights.iter().all(|&w| w > 0.0 && w.is_finite()),
            "weights must be positive and finite"
        );
        IntentGame { weights }
    }

    /// An agent's utility for being one of `n_t` agents on task `t`.
    pub fn utility(&self, task: usize, n_t: usize) -> f64 {
        self.weights[task] / n_t.max(1) as f64
    }

    /// Runs asynchronous best-response dynamics from a random initial
    /// assignment of `agents` agents (deterministic in `seed`). Agents are
    /// polled in shuffled order each sweep; each moves to its best task
    /// given everyone else's current choice.
    ///
    /// Always converges: every improving move strictly increases the
    /// Rosenthal potential, which takes finitely many values.
    pub fn best_response(&self, agents: usize, seed: u64) -> Equilibrium {
        let tasks = self.weights.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut assignment: Vec<usize> =
            (0..agents).map(|i| i % tasks).collect();
        assignment.shuffle(&mut rng);
        let mut loads = vec![0usize; tasks];
        for &t in &assignment {
            loads[t] += 1;
        }
        let mut order: Vec<usize> = (0..agents).collect();
        let mut moves = 0usize;
        let mut sweeps = 0usize;
        // An upper bound on sweeps: each sweep without a move terminates;
        // potential strictly increases otherwise, and the number of
        // distinct potentials is finite. Guard anyway.
        let max_sweeps = 10 * agents.max(1) * tasks.max(1) + 10;
        let mut converged = false;
        while sweeps < max_sweeps {
            sweeps += 1;
            order.shuffle(&mut rng);
            let mut any_moved = false;
            for &agent in &order {
                let current = assignment[agent];
                // Utility if staying: weight / current load. Utility if
                // moving to t: weight_t / (load_t + 1).
                let mut best_task = current;
                let mut best_utility = self.utility(current, loads[current]);
                for t in 0..tasks {
                    if t == current {
                        continue;
                    }
                    let u = self.utility(t, loads[t] + 1);
                    if u > best_utility + 1e-12 {
                        best_utility = u;
                        best_task = t;
                    }
                }
                if best_task != current {
                    loads[current] -= 1;
                    loads[best_task] += 1;
                    assignment[agent] = best_task;
                    moves += 1;
                    any_moved = true;
                }
            }
            if !any_moved {
                converged = true;
                break;
            }
        }
        Equilibrium {
            assignment,
            sweeps,
            moves,
            converged,
        }
    }

    /// Whether an assignment is a pure Nash equilibrium.
    pub fn is_nash(&self, assignment: &[usize]) -> bool {
        let tasks = self.weights.len();
        let mut loads = vec![0usize; tasks];
        for &t in assignment {
            loads[t] += 1;
        }
        for &current in assignment {
            let here = self.utility(current, loads[current]);
            for t in 0..tasks {
                if t != current && self.utility(t, loads[t] + 1) > here + 1e-12 {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl IntentGame {
        /// Rosenthal potential of an assignment.
        fn potential(&self, assignment: &[usize]) -> f64 {
            let mut loads = vec![0usize; self.weights.len()];
            for &t in assignment {
                loads[t] += 1;
            }
            loads
                .iter()
                .enumerate()
                .map(|(t, &n)| (1..=n).map(|i| self.weights[t] / i as f64).sum::<f64>())
                .sum()
        }
    }

    #[test]
    fn best_response_reaches_nash() {
        let g = IntentGame::new(vec![10.0, 6.0, 3.0, 1.0]);
        let eq = g.best_response(12, 1);
        assert!(eq.converged);
        assert!(g.is_nash(&eq.assignment));
    }

    #[test]
    fn loads_are_proportional_to_weights() {
        // With many agents, equilibrium loads approximate the weight ratio
        // (equal marginal utility across tasks).
        let g = IntentGame::new(vec![8.0, 4.0, 2.0]);
        let eq = g.best_response(140, 2);
        let loads = eq.task_loads(3);
        assert_eq!(loads.iter().sum::<usize>(), 140);
        let r0 = loads[0] as f64 / loads[1] as f64;
        let r1 = loads[1] as f64 / loads[2] as f64;
        assert!((r0 - 2.0).abs() < 0.3, "load ratio ~ weight ratio: {loads:?}");
        assert!((r1 - 2.0).abs() < 0.3, "{loads:?}");
    }

    #[test]
    fn every_task_gets_an_agent_when_enough_agents() {
        // Staffing every objective at equilibrium needs enough agents that
        // the most-staffed task's marginal utility drops below the least
        // weighty task's solo utility: with weights 5:2:1 and 16 agents,
        // n ∝ w gives loads ≈ (10, 4, 2).
        let g = IntentGame::new(vec![5.0, 2.0, 1.0]);
        let eq = g.best_response(16, 3);
        let loads = eq.task_loads(3);
        assert!(
            loads.iter().all(|&l| l > 0),
            "commander's objectives all staffed: {loads:?}"
        );
    }

    #[test]
    fn moves_strictly_increase_potential() {
        let g = IntentGame::new(vec![7.0, 3.0]);
        // Start everyone on task 1 (bad) and watch the potential climb.
        let all_on_one: Vec<usize> = vec![1; 6];
        let eq = g.best_response(6, 4);
        assert!(g.potential(&eq.assignment) >= g.potential(&all_on_one) - 1e-9);
    }

    #[test]
    fn single_task_is_immediately_nash() {
        let g = IntentGame::new(vec![1.0]);
        let eq = g.best_response(5, 0);
        assert!(eq.converged);
        assert_eq!(eq.moves, 0);
        assert_eq!(eq.task_loads(1), vec![5]);
    }

    #[test]
    fn zero_agents_is_trivially_converged() {
        let g = IntentGame::new(vec![1.0, 2.0]);
        let eq = g.best_response(0, 0);
        assert!(eq.converged);
        assert!(eq.assignment.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_weights() {
        IntentGame::new(vec![1.0, 0.0]);
    }

    proptest! {
        #[test]
        fn always_converges_to_nash(
            weights in proptest::collection::vec(0.1..10.0f64, 1..6),
            agents in 0usize..30,
            seed in 0u64..10,
        ) {
            let g = IntentGame::new(weights);
            let eq = g.best_response(agents, seed);
            prop_assert!(eq.converged, "potential games always converge");
            prop_assert!(g.is_nash(&eq.assignment));
        }
    }
}
