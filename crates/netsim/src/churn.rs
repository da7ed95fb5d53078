//! Churn injection: stochastic failure/recovery processes.
//!
//! §III: "The large scale of IoBTs implies continuous churn, so discovery
//! and composition solutions will need to be robust to failure or removal
//! of assets as a normal operating regime." A [`ChurnProcess`] samples
//! per-node exponential failure (and optional recovery) times and
//! schedules them on a [`Simulator`] up to a horizon.

use iobt_types::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Exp};

use crate::sim::Simulator;
use crate::time::SimTime;

/// A memoryless failure/recovery process.
///
/// ```
/// # use iobt_netsim::churn::ChurnProcess;
/// # use iobt_netsim::SimTime;
/// # use iobt_types::NodeId;
/// let churn = ChurnProcess::recovering(300.0, 30.0, 42);
/// let nodes: Vec<NodeId> = (0..10).map(NodeId::new).collect();
/// let plan = churn.plan(&nodes, SimTime::from_secs_f64(1_000.0));
/// assert!(plan.recoveries.len() <= plan.failures.len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnProcess {
    /// Mean time between failures per node, seconds.
    pub mtbf_s: f64,
    /// Mean time to recovery, seconds; `None` means failures are permanent
    /// (battle damage rather than reboots).
    pub mttr_s: Option<f64>,
    /// RNG seed.
    pub seed: u64,
}

/// What one churn scheduling pass injected.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Scheduled `(time, node)` failures, time-ordered.
    pub failures: Vec<(SimTime, NodeId)>,
    /// Scheduled `(time, node)` recoveries, time-ordered.
    pub recoveries: Vec<(SimTime, NodeId)>,
}

impl ChurnProcess {
    /// Creates a permanent-failure process.
    ///
    /// # Panics
    ///
    /// Panics when `mtbf_s` is not positive.
    pub fn permanent(mtbf_s: f64, seed: u64) -> Self {
        assert!(mtbf_s > 0.0, "MTBF must be positive");
        ChurnProcess {
            mtbf_s,
            mttr_s: None,
            seed,
        }
    }

    /// Creates a failure/recovery process.
    ///
    /// # Panics
    ///
    /// Panics when either mean is not positive.
    pub fn recovering(mtbf_s: f64, mttr_s: f64, seed: u64) -> Self {
        assert!(mtbf_s > 0.0 && mttr_s > 0.0, "means must be positive");
        ChurnProcess {
            mtbf_s,
            mttr_s: Some(mttr_s),
            seed,
        }
    }

    /// Samples the plan for `nodes` over `[0, horizon]` without touching a
    /// simulator — useful for analysis and tests.
    pub fn plan(&self, nodes: &[NodeId], horizon: SimTime) -> ChurnPlan {
        let mut rng = StdRng::seed_from_u64(self.seed);
        #[expect(clippy::expect_used, reason = "mtbf_s is validated positive at construction, so the rate is finite")]
        let fail = Exp::new(1.0 / self.mtbf_s).expect("positive rate");
        // Hoisted out of the per-failure loop: distribution construction
        // consumes no RNG words, so the sample sequence is unchanged, but
        // at 100k nodes the per-event `Exp::new` was pure overhead.
        #[expect(clippy::expect_used, reason = "mttr is validated positive at construction, so the rate is finite")]
        let repair = self.mttr_s.map(|mttr| {
            Exp::new(1.0 / mttr).expect("positive rate")
        });
        let horizon_s = horizon.as_secs_f64();
        let mut plan = ChurnPlan::default();
        for &node in nodes {
            let mut t = 0.0;
            loop {
                t += fail.sample(&mut rng);
                if t >= horizon_s {
                    break;
                }
                plan.failures.push((SimTime::from_secs_f64(t), node));
                match repair {
                    Some(repair) => {
                        t += repair.sample(&mut rng);
                        if t >= horizon_s {
                            break;
                        }
                        plan.recoveries.push((SimTime::from_secs_f64(t), node));
                    }
                    None => break, // permanent: one failure per node
                }
            }
        }
        // Unstable sort is safe: equal (time, node) keys are
        // indistinguishable, so any permutation of ties is the same plan.
        plan.failures.sort_unstable();
        plan.recoveries.sort_unstable();
        plan
    }

    /// Samples and schedules the plan onto a simulator. Returns the plan
    /// for inspection.
    pub fn schedule(
        &self,
        sim: &mut Simulator,
        nodes: &[NodeId],
        horizon: SimTime,
    ) -> ChurnPlan {
        let plan = self.plan(nodes, horizon);
        for &(at, node) in &plan.failures {
            sim.schedule_node_down(at, node);
        }
        for &(at, node) in &plan.recoveries {
            sim.schedule_node_up(at, node);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use iobt_types::{NodeCatalog, NodeSpec};

    fn ids(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn permanent_failure_count_tracks_mtbf() {
        // MTBF 100 s over a 100 s horizon: ~63% of nodes fail
        // (1 - e^-1); at most one failure per node.
        let p = ChurnProcess::permanent(100.0, 1);
        let plan = p.plan(&ids(1_000), SimTime::from_secs_f64(100.0));
        let frac = plan.failures.len() as f64 / 1_000.0;
        assert!((frac - 0.632).abs() < 0.05, "failure fraction {frac}");
        assert!(plan.recoveries.is_empty());
        let mut nodes: Vec<NodeId> = plan.failures.iter().map(|&(_, n)| n).collect();
        nodes.dedup();
        assert_eq!(nodes.len(), plan.failures.len(), "one failure per node");
    }

    #[test]
    fn recovering_process_alternates_down_up() {
        let p = ChurnProcess::recovering(50.0, 10.0, 2);
        let plan = p.plan(&ids(20), SimTime::from_secs_f64(1_000.0));
        assert!(!plan.failures.is_empty());
        assert!(!plan.recoveries.is_empty());
        // Per node: recoveries never exceed failures.
        for node in ids(20) {
            let f = plan.failures.iter().filter(|&&(_, n)| n == node).count();
            let r = plan.recoveries.iter().filter(|&&(_, n)| n == node).count();
            assert!(r <= f);
        }
    }

    #[test]
    fn plans_are_deterministic_and_time_ordered() {
        let p = ChurnProcess::recovering(30.0, 5.0, 7);
        let a = p.plan(&ids(10), SimTime::from_secs_f64(200.0));
        let b = p.plan(&ids(10), SimTime::from_secs_f64(200.0));
        assert_eq!(a, b);
        assert!(a.failures.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn scheduling_applies_to_the_simulator() {
        let mut catalog = NodeCatalog::new();
        for id in ids(10) {
            catalog.insert(NodeSpec::builder(id).build()).unwrap();
        }
        let mut sim = Simulator::builder(catalog).seed(0).build();
        let p = ChurnProcess::permanent(20.0, 3);
        let plan = p.schedule(&mut sim, &ids(10), SimTime::from_secs_f64(100.0));
        assert!(!plan.failures.is_empty());
        sim.run_until(SimTime::from_secs_f64(100.0));
        let dead = ids(10).iter().filter(|&&n| !sim.is_alive(n)).count();
        assert_eq!(dead, plan.failures.len());
    }

    #[test]
    fn horizon_zero_schedules_nothing() {
        let p = ChurnProcess::permanent(1.0, 0);
        let plan = p.plan(&ids(50), SimTime::ZERO);
        assert!(plan.failures.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_mtbf() {
        ChurnProcess::permanent(0.0, 0);
    }

    #[test]
    fn recovered_nodes_are_alive_again() {
        let mut catalog = NodeCatalog::new();
        for id in ids(30) {
            catalog.insert(NodeSpec::builder(id).build()).unwrap();
        }
        let mut sim = Simulator::builder(catalog).seed(0).build();
        // Fast failures, fast repairs: most nodes should be up at any time.
        let p = ChurnProcess::recovering(40.0, 2.0, 9);
        p.schedule(&mut sim, &ids(30), SimTime::from_secs_f64(500.0));
        sim.run_for(SimDuration::from_secs_f64(500.0));
        let alive = ids(30).iter().filter(|&&n| sim.is_alive(n)).count();
        assert!(alive >= 24, "steady-state availability ~ mtbf/(mtbf+mttr): {alive}/30");
    }
}
