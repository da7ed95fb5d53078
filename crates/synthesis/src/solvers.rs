//! Composition solvers: lazy greedy, simulated annealing, portfolio,
//! exhaustive, random.
//!
//! §III-B: "these approaches search discovered IoBT nodes to determine
//! subsets that optimally satisfy the requirements … clever solutions must
//! be developed to address tractability." The greedy solver exploits the
//! submodularity of coverage (the classic `1 − 1/e` guarantee applies to
//! its max-coverage core) and runs as CELF-style lazy greedy: marginal
//! gains only shrink as the selection grows, so stale heap entries are
//! upper bounds and most candidates are never re-evaluated. Annealing
//! refines greedy output with incrementally-scored moves; the portfolio
//! races independent strategies across threads and keeps the cheapest
//! satisfying answer; exhaustive search bounds optimality on small
//! instances; random selection is the naive baseline.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use iobt_ckpt::{wire_struct, Dec, DecodeError, Enc, Wire};
use iobt_obs::{Recorder, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::coverage::CoverageCounter;
use crate::problem::CompositionProblem;

/// A solver's output. Contains only selection-determined fields, so two
/// solves of the same `(problem, solver)` compare equal; wall-clock
/// timing lives outside the result (see [`Solver::solve_timed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CompositionResult {
    /// Selected candidate indices, sorted ascending.
    pub selected: Vec<usize>,
    /// Achieved coverage fraction (pairs at redundancy ≥ k).
    pub coverage: f64,
    /// Total selection cost.
    pub cost: f64,
    /// Whether the mission requirement was met.
    pub satisfied: bool,
}

wire_struct!(CompositionResult {
    selected,
    coverage,
    cost,
    satisfied,
});

/// Deterministic work counters accumulated during a solve: how many
/// budget steps (coverage-gain evaluations / move proposals / subset
/// evaluations) were spent and how the CELF lazy heap behaved. Stats are
/// pure functions of `(problem, solver)` — they feed the observability
/// layer, never the selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Solver steps consumed (the unit [`SolverBudget`] counts).
    pub steps: u64,
    /// Entries pushed onto the CELF lazy heap (initial + refreshed).
    pub heap_pushes: u64,
    /// Stale heap entries that had to be re-evaluated.
    pub heap_refreshes: u64,
}

impl SolveStats {
    /// Accumulates another stats block (used by the portfolio to sum its
    /// members).
    pub fn absorb(&mut self, other: SolveStats) {
        self.steps += other.steps;
        self.heap_pushes += other.heap_pushes;
        self.heap_refreshes += other.heap_refreshes;
    }
}

/// How one member of a portfolio race fared. Reported in member order
/// (never finish order), so the list is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberOutcome {
    /// Stable member label (`"greedy"`, `"anneal_a"`, …).
    pub member: &'static str,
    /// Whether the member satisfied the mission requirement.
    pub satisfied: bool,
    /// Cost of the member's selection.
    pub cost: f64,
    /// Number of candidates the member selected.
    pub selected: usize,
    /// Whether this member's selection was adopted as the winner.
    pub winner: bool,
    /// The member's own work counters.
    pub stats: SolveStats,
}

/// A deterministic computation budget for the randomized/enumerative
/// solvers, counted in solver steps (annealing move proposals, subset
/// evaluations) rather than wall-clock time.
///
/// A wall-clock budget makes the *result* depend on machine load: the
/// same seed could afford 10k annealing moves on one run and 9k on the
/// next, and select different nodes. Step budgets keep every solve
/// bit-reproducible for a fixed `(problem, budget, seed)`. Wall-clock
/// appears only in the timing channel of [`Solver::solve_timed`], which
/// is pure reporting and never feeds back into a selection (`iobt-lint`
/// rule R2 enforces this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverBudget {
    steps: u64,
}

impl SolverBudget {
    /// A budget of exactly `steps` solver steps.
    pub const fn steps(steps: u64) -> Self {
        SolverBudget { steps }
    }

    /// Steps remaining.
    pub const fn remaining(&self) -> u64 {
        self.steps
    }

    /// Whether the budget can pay for `cost` steps up front.
    pub const fn covers(&self, cost: u64) -> bool {
        cost <= self.steps
    }

    /// Consumes one step; returns `false` once the budget is exhausted.
    pub fn consume(&mut self) -> bool {
        if self.steps == 0 {
            return false;
        }
        self.steps -= 1;
        true
    }
}

/// Which solver to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// Marginal-gain-per-cost lazy greedy (CELF).
    Greedy,
    /// Greedy followed by simulated-annealing refinement.
    Anneal {
        /// Annealing iterations.
        iterations: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Uniform random selection until satisfied (baseline).
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Exact minimum-cost search (only for ≤ ~20 candidates).
    Exhaustive,
    /// Races greedy, three annealing seeds, and the random baseline on
    /// scoped threads; keeps the cheapest satisfying result (falling back
    /// to the best coverage when nothing satisfies). Deterministic for a
    /// fixed `seed`: every member is deterministic and the winner is
    /// picked by member order, never by finish order.
    Portfolio {
        /// Iteration budget for each annealing member.
        iterations: usize,
        /// Base RNG seed; members derive their own streams from it.
        seed: u64,
    },
}

/// A tag byte, then the variant's parameters. Tags are the format: a new
/// variant takes the next free one.
impl Wire for Solver {
    fn put(&self, e: &mut Enc) {
        match self {
            Solver::Greedy => e.u8(0),
            Solver::Anneal { iterations, seed } => {
                e.u8(1);
                e.usize(*iterations);
                e.u64(*seed);
            }
            Solver::Random { seed } => {
                e.u8(2);
                e.u64(*seed);
            }
            Solver::Exhaustive => e.u8(3),
            Solver::Portfolio { iterations, seed } => {
                e.u8(4);
                e.usize(*iterations);
                e.u64(*seed);
            }
        }
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(Solver::Greedy),
            1 => Ok(Solver::Anneal {
                iterations: d.usize()?,
                seed: d.u64()?,
            }),
            2 => Ok(Solver::Random { seed: d.u64()? }),
            3 => Ok(Solver::Exhaustive),
            4 => Ok(Solver::Portfolio {
                iterations: d.usize()?,
                seed: d.u64()?,
            }),
            tag => Err(DecodeError::UnknownTag {
                what: "solver",
                tag,
            }),
        }
    }
}

impl std::fmt::Display for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Solver::Greedy => write!(f, "greedy"),
            Solver::Anneal { iterations, .. } => write!(f, "anneal({iterations})"),
            Solver::Random { .. } => write!(f, "random"),
            Solver::Exhaustive => write!(f, "exhaustive"),
            Solver::Portfolio { iterations, .. } => write!(f, "portfolio({iterations})"),
        }
    }
}

impl Solver {
    /// Stable lower-case solver family name (used in trace events).
    pub fn name(&self) -> &'static str {
        match self {
            Solver::Greedy => "greedy",
            Solver::Anneal { .. } => "anneal",
            Solver::Random { .. } => "random",
            Solver::Exhaustive => "exhaustive",
            Solver::Portfolio { .. } => "portfolio",
        }
    }

    /// Runs the solver on a problem instance.
    pub fn solve(&self, problem: &CompositionProblem) -> CompositionResult {
        self.solve_inner(problem).0
    }

    /// Runs the solver and returns its deterministic work counters
    /// alongside the result.
    pub fn solve_with_stats(&self, problem: &CompositionProblem) -> (CompositionResult, SolveStats) {
        let (result, stats, _) = self.solve_inner(problem);
        (result, stats)
    }

    /// Runs the solver and records a [`TraceEvent::Solve`] (plus one
    /// [`TraceEvent::PortfolioMember`] per member, in member order) on
    /// `recorder`. Recording happens on the calling thread after any
    /// worker threads have joined, so the trace order is deterministic.
    pub fn solve_observed(
        &self,
        problem: &CompositionProblem,
        recorder: &Recorder,
    ) -> CompositionResult {
        let (result, stats, members) = self.solve_inner(problem);
        for m in &members {
            recorder.record(TraceEvent::PortfolioMember {
                member: m.member,
                satisfied: m.satisfied,
                cost: m.cost,
                selected: m.selected as u64,
                winner: m.winner,
            });
        }
        recorder.record(TraceEvent::Solve {
            solver: self.name(),
            steps: stats.steps,
            heap_pushes: stats.heap_pushes,
            heap_refreshes: stats.heap_refreshes,
            selected: result.selected.len() as u64,
            satisfied: result.satisfied,
        });
        result
    }

    /// Runs the solver and reports the wall-clock time it took, in
    /// milliseconds. The timing is a reporting channel only — it is not
    /// part of [`CompositionResult`] and can never influence a selection.
    pub fn solve_timed(&self, problem: &CompositionProblem) -> (CompositionResult, f64) {
        #[expect(clippy::disallowed_methods, reason = "reporting only: the timing channel never influences a selection")]
        let start = Instant::now();
        let result = self.solve(problem);
        (result, start.elapsed().as_secs_f64() * 1_000.0)
    }

    fn solve_inner(
        &self,
        problem: &CompositionProblem,
    ) -> (CompositionResult, SolveStats, Vec<MemberOutcome>) {
        let mut stats = SolveStats::default();
        let mut selected = match *self {
            Solver::Greedy => greedy(problem, &mut stats),
            Solver::Anneal { iterations, seed } => anneal(
                problem,
                SolverBudget::steps(iterations as u64),
                seed,
                &mut stats,
            ),
            Solver::Random { seed } => random_baseline(problem, seed, &mut stats),
            Solver::Exhaustive => exhaustive(problem, &mut stats),
            Solver::Portfolio { iterations, seed } => {
                return portfolio(problem, iterations, seed);
            }
        };
        selected.sort_unstable();
        (finish(problem, selected), stats, Vec::new())
    }

    /// The member solvers a [`Solver::Portfolio`] with these parameters
    /// races, in preference order.
    pub fn portfolio_members(iterations: usize, seed: u64) -> Vec<Solver> {
        vec![
            Solver::Greedy,
            Solver::Anneal { iterations, seed },
            Solver::Anneal {
                iterations,
                seed: seed.wrapping_add(1),
            },
            Solver::Anneal {
                iterations,
                seed: seed.wrapping_add(2),
            },
            Solver::Random {
                seed: seed.wrapping_add(3),
            },
        ]
    }
}

/// Stable labels for the five portfolio members, aligned with
/// [`Solver::portfolio_members`] order.
const PORTFOLIO_MEMBER_LABELS: [&str; 5] = ["greedy", "anneal_a", "anneal_b", "anneal_c", "random"];

pub(crate) fn finish(problem: &CompositionProblem, selected: Vec<usize>) -> CompositionResult {
    let coverage = problem.coverage_fraction(&selected);
    let cost = problem.cost(&selected);
    CompositionResult {
        satisfied: problem.is_satisfied(&selected),
        selected,
        coverage,
        cost,
    }
}

/// A CELF heap entry: the candidate's gain as of `stamp` selections.
struct CelfEntry {
    gain: usize,
    cost: f64,
    idx: usize,
    stamp: usize,
}

impl PartialEq for CelfEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for CelfEntry {}

impl PartialOrd for CelfEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CelfEntry {
    #[expect(clippy::expect_used, reason = "gains are small integers and costs are in [1, 2], so both products are finite")]
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on ratio; equal ratios pop the smaller index first.
        let lhs = self.gain as f64 * other.cost;
        let rhs = other.gain as f64 * self.cost;
        lhs.partial_cmp(&rhs)
            .expect("finite gains and costs")
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// CELF lazy-greedy extension of `counter` (already loaded with any
/// initial selection) over the candidates where `eligible` is true.
/// Returns the indices added, in selection order.
///
/// Coverage gains are submodular — adding nodes never increases another
/// node's marginal gain — so a heap entry computed at an earlier stamp is
/// an upper bound. A popped entry whose gain is current is therefore the
/// true argmax and is selected without touching the rest of the pool.
pub(crate) fn greedy_extend(
    problem: &CompositionProblem,
    counter: &mut CoverageCounter,
    eligible: impl Fn(usize) -> bool,
    stats: &mut SolveStats,
) -> Vec<usize> {
    let needed = problem.pairs_needed();
    let mut heap = BinaryHeap::with_capacity(problem.candidates.len());
    for (i, cand) in problem.candidates.iter().enumerate() {
        if !eligible(i) {
            continue;
        }
        stats.steps += 1;
        let gain = counter.gain(&cand.covers);
        if gain > 0 {
            stats.heap_pushes += 1;
            heap.push(CelfEntry {
                gain,
                cost: cand.cost,
                idx: i,
                stamp: 0,
            });
        }
    }
    let mut added = Vec::new();
    let mut stamp = 0usize;
    while counter.satisfied() < needed {
        let selected = loop {
            let Some(top) = heap.pop() else {
                return added; // nothing can add coverage
            };
            if top.stamp == stamp {
                break top.idx;
            }
            // Stale upper bound: refresh and reinsert (zero gains are
            // dropped — submodularity says they can never recover).
            stats.steps += 1;
            stats.heap_refreshes += 1;
            let gain = counter.gain(&problem.candidates[top.idx].covers);
            if gain > 0 {
                stats.heap_pushes += 1;
                heap.push(CelfEntry {
                    gain,
                    stamp,
                    ..top
                });
            }
        };
        counter.add(&problem.candidates[selected].covers);
        added.push(selected);
        stamp += 1;
    }
    added
}

/// Greedy marginal-gain-per-cost selection (lazy CELF evaluation). Stops
/// when the requirement is met or no candidate adds coverage.
fn greedy(problem: &CompositionProblem, stats: &mut SolveStats) -> Vec<usize> {
    let mut counter = problem.counter_for(&[]);
    greedy_extend(problem, &mut counter, |_| true, stats)
}

/// Simulated annealing from the greedy seed: random add/remove moves
/// scored by (deficit, cost) with a geometric temperature schedule. The
/// [`SolverBudget`] pays one step per proposed move, so the trajectory is
/// a pure function of `(problem, budget, seed)`.
/// Move deltas are evaluated incrementally against a [`CoverageCounter`]
/// — `O(pairs the node covers)` per proposal instead of re-scoring the
/// whole selection.
fn anneal(
    problem: &CompositionProblem,
    mut budget: SolverBudget,
    seed: u64,
    stats: &mut SolveStats,
) -> Vec<usize> {
    let n = problem.candidates.len();
    if n == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = greedy(problem, stats);
    let mut in_set = vec![false; n];
    for &i in &current {
        in_set[i] = true;
    }
    let needed = (problem.required_fraction * problem.pair_count as f64).ceil();
    // Heavy penalty per unsatisfied required pair, plus cost.
    let score = |satisfied: usize, cost: f64| -> f64 {
        (needed - satisfied as f64).max(0.0) * 100.0 + cost
    };
    let mut counter = problem.counter_for(&current);
    let mut current_cost = problem.cost(&current);
    let mut current_score = score(counter.satisfied(), current_cost);
    let mut best = current.clone();
    let mut best_score = current_score;
    let mut temperature = 5.0f64;
    let cooling = 0.995f64;
    while budget.consume() {
        stats.steps += 1;
        // Propose a move and score it without applying.
        let add = current.is_empty() || rng.gen::<f64>() < 0.5;
        let (idx, pos, proposed_score) = if add {
            let i = rng.gen_range(0..n);
            if in_set[i] {
                continue;
            }
            let covers = &problem.candidates[i].covers;
            let satisfied = counter.satisfied() + counter.newly_satisfied_if_added(covers);
            (i, usize::MAX, score(satisfied, current_cost + problem.candidates[i].cost))
        } else {
            let pos = rng.gen_range(0..current.len());
            let i = current[pos];
            let covers = &problem.candidates[i].covers;
            let satisfied = counter.satisfied() - counter.newly_unsatisfied_if_removed(covers);
            (i, pos, score(satisfied, current_cost - problem.candidates[i].cost))
        };
        let accept = proposed_score <= current_score
            || rng.gen::<f64>()
                < ((current_score - proposed_score) / temperature.max(1e-9)).exp();
        if accept {
            if add {
                counter.add(&problem.candidates[idx].covers);
                current.push(idx);
                in_set[idx] = true;
                current_cost += problem.candidates[idx].cost;
            } else {
                counter.remove(&problem.candidates[idx].covers);
                current.swap_remove(pos);
                in_set[idx] = false;
                current_cost -= problem.candidates[idx].cost;
            }
            current_score = proposed_score;
            if proposed_score < best_score {
                best_score = proposed_score;
                best = current.clone();
            }
        }
        temperature *= cooling;
    }
    best
}

/// Adds uniformly random unused candidates until the requirement is met
/// or everything is selected.
fn random_baseline(problem: &CompositionProblem, seed: u64, stats: &mut SolveStats) -> Vec<usize> {
    let n = problem.candidates.len();
    if n == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    // Fisher-Yates.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let needed = problem.pairs_needed();
    let mut counter = problem.counter_for(&[]);
    let mut selected = Vec::new();
    for i in order {
        if counter.satisfied() >= needed {
            break;
        }
        stats.steps += 1;
        counter.add(&problem.candidates[i].covers);
        selected.push(i);
    }
    selected
}

/// Subset evaluations [`exhaustive`] may spend before falling back to
/// greedy: `2^20` (i.e. at most 20 candidates).
const EXHAUSTIVE_BUDGET: SolverBudget = SolverBudget::steps(1 << 20);

/// Exact minimum-cost satisfying subset by subset enumeration. Falls back
/// to greedy when the enumeration would blow [`EXHAUSTIVE_BUDGET`].
fn exhaustive(problem: &CompositionProblem, stats: &mut SolveStats) -> Vec<usize> {
    let n = problem.candidates.len();
    if n == 0 {
        return Vec::new();
    }
    if n >= 64 || !EXHAUSTIVE_BUDGET.covers(1u64 << n) {
        return greedy(problem, stats);
    }
    // The empty selection is valid when the requirement is trivially met
    // (e.g. required fraction zero).
    if problem.is_satisfied(&[]) {
        return Vec::new();
    }
    let mut best: Option<(f64, Vec<usize>)> = None;
    for mask in 1u32..(1u32 << n) {
        stats.steps += 1;
        let selection: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        let cost = problem.cost(&selection);
        if let Some((bc, _)) = &best {
            if cost >= *bc {
                continue;
            }
        }
        if problem.is_satisfied(&selection) {
            best = Some((cost, selection));
        }
    }
    match best {
        Some((_, s)) => s,
        None => greedy(problem, stats),
    }
}

/// Races the portfolio members on scoped threads and picks the winner
/// deterministically: cheapest satisfying result, ties and the
/// nothing-satisfies case resolved by member order.
fn portfolio(
    problem: &CompositionProblem,
    iterations: usize,
    seed: u64,
) -> (CompositionResult, SolveStats, Vec<MemberOutcome>) {
    let members = Solver::portfolio_members(iterations, seed);
    #[expect(clippy::expect_used, reason = "join only fails if a member panicked; propagating that panic is the right response")]
    let results: Vec<(CompositionResult, SolveStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = members
            .iter()
            .map(|member| scope.spawn(move || member.solve_with_stats(problem)))
            .collect();
        // Joining in spawn order keeps the result list aligned with
        // `members` regardless of which thread finishes first.
        handles
            .into_iter()
            .map(|h| h.join().expect("portfolio member panicked"))
            .collect()
    });
    let mut winner: Option<usize> = None;
    for (i, (r, _)) in results.iter().enumerate() {
        let better = match winner {
            None => true,
            Some(w) => {
                let w = &results[w].0;
                match (r.satisfied, w.satisfied) {
                    (true, false) => true,
                    (false, true) => false,
                    (true, true) => r.cost < w.cost,
                    (false, false) => r.coverage > w.coverage,
                }
            }
        };
        if better {
            winner = Some(i);
        }
    }
    let mut stats = SolveStats::default();
    let outcomes: Vec<MemberOutcome> = results
        .iter()
        .enumerate()
        .map(|(i, (r, s))| {
            stats.absorb(*s);
            MemberOutcome {
                member: PORTFOLIO_MEMBER_LABELS.get(i).copied().unwrap_or("extra"),
                satisfied: r.satisfied,
                cost: r.cost,
                selected: r.selected.len(),
                winner: winner == Some(i),
                stats: *s,
            }
        })
        .collect();
    let selected = winner
        .map(|w| results[w].0.selected.clone())
        .unwrap_or_default();
    (finish(problem, selected), stats, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iobt_types::{
        Affiliation, EnergyBudget, Mission, MissionId, MissionKind, NodeId, NodeSpec, Point, Rect,
        Sensor, SensorKind,
    };

    /// Compares two candidates by marginal-gain-per-cost via cross
    /// multiplication, breaking exact ties toward the smaller index.
    ///
    /// Exact in `f64`: gains are small integers and candidate costs are
    /// multiples of 0.25 in `[1, 2]` (see
    /// [`candidate_cost`](crate::problem::candidate_cost)), so both products
    /// are computed without rounding. [`CelfEntry`]'s `Ord` spells the same
    /// comparison, which is what makes the two selections identical.
    fn better_ratio(gain_a: usize, cost_a: f64, idx_a: usize, gain_b: usize, cost_b: f64, idx_b: usize) -> bool {
        let lhs = gain_a as f64 * cost_b;
        let rhs = gain_b as f64 * cost_a;
        lhs > rhs || (lhs == rhs && idx_a < idx_b)
    }

    /// Reference greedy: full rescan of every candidate per selection, using
    /// the same exact comparator as the CELF path, so the tests below can
    /// assert the lazy evaluation changes nothing.
    fn greedy_scan(problem: &CompositionProblem) -> Vec<usize> {
        let needed = problem.pairs_needed();
        let mut counter = problem.counter_for(&[]);
        let mut selected = Vec::new();
        let mut in_set = vec![false; problem.candidates.len()];
        while counter.satisfied() < needed {
            let mut best: Option<(usize, usize)> = None; // (idx, gain)
            for (i, cand) in problem.candidates.iter().enumerate() {
                if in_set[i] {
                    continue;
                }
                let gain = counter.gain(&cand.covers);
                if gain == 0 {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bi, bg)) => {
                        better_ratio(gain, cand.cost, i, bg, problem.candidates[bi].cost, bi)
                    }
                };
                if better {
                    best = Some((i, gain));
                }
            }
            let Some((i, _)) = best else {
                break;
            };
            in_set[i] = true;
            selected.push(i);
            counter.add(&problem.candidates[i].covers);
        }
        selected
    }

    fn grid_mission(k: usize, fraction: f64) -> Mission {
        Mission::builder(MissionId::new(1), MissionKind::Surveillance)
            .area(Rect::square(300.0))
            .require_modality(SensorKind::Visual)
            .coverage_fraction(fraction)
            .resilience(k)
            .min_trust(0.5)
            .build()
    }

    fn node_at(id: u64, x: f64, y: f64, range: f64) -> NodeSpec {
        NodeSpec::builder(NodeId::new(id))
            .affiliation(Affiliation::Blue)
            .position(Point::new(x, y))
            .sensor(Sensor::new(SensorKind::Visual, range, 0.9))
            .energy(EnergyBudget::unlimited())
            .build()
    }

    fn corner_nodes() -> Vec<NodeSpec> {
        // Four corner nodes each cover one quadrant; one central node
        // covers everything but costs the same — greedy should prefer it.
        let mut nodes = vec![
            node_at(0, 75.0, 75.0, 120.0),
            node_at(1, 225.0, 75.0, 120.0),
            node_at(2, 75.0, 225.0, 120.0),
            node_at(3, 225.0, 225.0, 120.0),
        ];
        nodes.push(node_at(4, 150.0, 150.0, 250.0));
        nodes
    }

    #[test]
    fn greedy_prefers_the_dominating_node() {
        let p = CompositionProblem::from_mission(&grid_mission(1, 1.0), &corner_nodes(), 4);
        let r = Solver::Greedy.solve(&p);
        assert!(r.satisfied);
        assert_eq!(r.selected, vec![4], "central node dominates");
        assert_eq!(r.coverage, 1.0);
    }

    #[test]
    fn all_solvers_satisfy_a_feasible_instance() {
        let p = CompositionProblem::from_mission(&grid_mission(1, 0.9), &corner_nodes(), 4);
        for solver in [
            Solver::Greedy,
            Solver::Anneal { iterations: 500, seed: 1 },
            Solver::Random { seed: 2 },
            Solver::Exhaustive,
            Solver::Portfolio { iterations: 300, seed: 5 },
        ] {
            let r = solver.solve(&p);
            assert!(r.satisfied, "{solver} failed: coverage {}", r.coverage);
        }
    }

    #[test]
    fn exhaustive_is_at_least_as_cheap_as_greedy() {
        let p = CompositionProblem::from_mission(&grid_mission(1, 1.0), &corner_nodes(), 4);
        let g = Solver::Greedy.solve(&p);
        let e = Solver::Exhaustive.solve(&p);
        assert!(e.satisfied);
        assert!(e.cost <= g.cost + 1e-9);
    }

    #[test]
    fn anneal_never_worse_than_greedy() {
        let mut nodes = corner_nodes();
        // Add decoys with small coverage.
        for i in 5..25 {
            nodes.push(node_at(i, (i * 13 % 300) as f64, (i * 29 % 300) as f64, 40.0));
        }
        let p = CompositionProblem::from_mission(&grid_mission(1, 0.95), &nodes, 5);
        let g = Solver::Greedy.solve(&p);
        let a = Solver::Anneal { iterations: 2_000, seed: 3 }.solve(&p);
        assert!(a.satisfied);
        assert!(a.cost <= g.cost + 1e-9, "anneal {} vs greedy {}", a.cost, g.cost);
    }

    #[test]
    fn portfolio_never_worse_than_any_member() {
        let mut nodes = corner_nodes();
        for i in 5..30 {
            nodes.push(node_at(i, (i * 41 % 300) as f64, (i * 17 % 300) as f64, 50.0));
        }
        let p = CompositionProblem::from_mission(&grid_mission(1, 0.9), &nodes, 5);
        let r = Solver::Portfolio { iterations: 800, seed: 11 }.solve(&p);
        assert!(r.satisfied);
        for member in Solver::portfolio_members(800, 11) {
            let m = member.solve(&p);
            if m.satisfied {
                assert!(
                    r.cost <= m.cost + 1e-9,
                    "portfolio {} vs member {member} {}",
                    r.cost,
                    m.cost
                );
            }
        }
    }

    #[test]
    fn portfolio_is_deterministic() {
        let p = CompositionProblem::from_mission(&grid_mission(1, 0.9), &corner_nodes(), 4);
        let a = Solver::Portfolio { iterations: 400, seed: 9 }.solve(&p);
        let b = Solver::Portfolio { iterations: 400, seed: 9 }.solve(&p);
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.coverage, b.coverage);
    }

    #[test]
    fn lazy_greedy_matches_reference_scan() {
        use iobt_types::catalog::PopulationBuilder;
        for seed in 0..12u64 {
            let area = Rect::square(600.0);
            let catalog = PopulationBuilder::new(area).count(80).build(seed);
            let specs: Vec<NodeSpec> = catalog.iter().cloned().collect();
            let mission = Mission::builder(MissionId::new(1), MissionKind::Surveillance)
                .area(area)
                .require_modality(SensorKind::Visual)
                .coverage_fraction(0.9)
                .min_trust(0.3)
                .build();
            let p = CompositionProblem::from_mission(&mission, &specs, 6);
            assert_eq!(
                greedy(&p, &mut SolveStats::default()),
                greedy_scan(&p),
                "CELF must match the scan reference (seed {seed})"
            );
        }
    }

    #[test]
    fn random_uses_more_nodes_than_greedy_on_average() {
        let mut nodes = corner_nodes();
        for i in 5..40 {
            nodes.push(node_at(i, (i * 37 % 300) as f64, (i * 53 % 300) as f64, 60.0));
        }
        let p = CompositionProblem::from_mission(&grid_mission(1, 0.9), &nodes, 5);
        let g = Solver::Greedy.solve(&p);
        let avg_random: f64 = (0..10)
            .map(|s| Solver::Random { seed: s }.solve(&p).selected.len() as f64)
            .sum::<f64>()
            / 10.0;
        assert!(
            avg_random > g.selected.len() as f64,
            "random {avg_random} vs greedy {}",
            g.selected.len()
        );
    }

    #[test]
    fn infeasible_instances_report_unsatisfied() {
        // Nodes too short-ranged to cover everything.
        let nodes = vec![node_at(0, 10.0, 10.0, 30.0)];
        let p = CompositionProblem::from_mission(&grid_mission(1, 1.0), &nodes, 4);
        assert!(p.max_achievable_fraction() < 1.0);
        for solver in [
            Solver::Greedy,
            Solver::Exhaustive,
            Solver::Random { seed: 1 },
            Solver::Portfolio { iterations: 100, seed: 1 },
        ] {
            let r = solver.solve(&p);
            assert!(!r.satisfied, "{solver} cannot satisfy infeasible instance");
        }
    }

    #[test]
    fn redundancy_two_selects_more_nodes() {
        let nodes = corner_nodes();
        let p1 = CompositionProblem::from_mission(&grid_mission(1, 0.9), &nodes, 4);
        let p2 = CompositionProblem::from_mission(&grid_mission(2, 0.9), &nodes, 4);
        let r1 = Solver::Greedy.solve(&p1);
        let r2 = Solver::Greedy.solve(&p2);
        assert!(r2.selected.len() > r1.selected.len());
    }

    #[test]
    fn empty_candidate_set_is_handled() {
        let p = CompositionProblem::from_mission(&grid_mission(1, 1.0), &[], 3);
        for solver in [
            Solver::Greedy,
            Solver::Anneal { iterations: 100, seed: 0 },
            Solver::Random { seed: 0 },
            Solver::Exhaustive,
            Solver::Portfolio { iterations: 100, seed: 0 },
        ] {
            let r = solver.solve(&p);
            assert!(r.selected.is_empty());
            assert!(!r.satisfied);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Greedy must satisfy every instance the full pool can satisfy.
            #[test]
            fn greedy_satisfies_whenever_feasible(
                seed in 0u64..30,
                count in 5usize..60,
                fraction in 0.1..1.0f64,
            ) {
                use iobt_types::catalog::PopulationBuilder;
                let area = Rect::square(500.0);
                let catalog = PopulationBuilder::new(area).count(count).build(seed);
                let specs: Vec<NodeSpec> = catalog.iter().cloned().collect();
                let mission = Mission::builder(MissionId::new(1), MissionKind::Surveillance)
                    .area(area)
                    .require_modality(SensorKind::Visual)
                    .coverage_fraction(fraction)
                    .min_trust(0.3)
                    .build();
                let mut problem = CompositionProblem::from_mission(&mission, &specs, 4);
                // Scale the requirement to feasibility.
                problem.required_fraction = problem.max_achievable_fraction() * fraction;
                let r = Solver::Greedy.solve(&problem);
                prop_assert!(r.satisfied, "coverage {} < required {}", r.coverage, problem.required_fraction);
                // Selection indices are valid, sorted, and unique.
                prop_assert!(r.selected.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(r.selected.iter().all(|&i| i < problem.candidates.len()));
            }

            /// Lazy greedy and the scan reference agree on arbitrary
            /// populations and requirements.
            #[test]
            fn lazy_greedy_equals_scan_greedy(
                seed in 0u64..40,
                count in 5usize..70,
                fraction in 0.1..1.0f64,
            ) {
                use iobt_types::catalog::PopulationBuilder;
                let area = Rect::square(500.0);
                let catalog = PopulationBuilder::new(area).count(count).build(seed);
                let specs: Vec<NodeSpec> = catalog.iter().cloned().collect();
                let mission = Mission::builder(MissionId::new(1), MissionKind::Surveillance)
                    .area(area)
                    .require_modality(SensorKind::Visual)
                    .coverage_fraction(fraction)
                    .min_trust(0.3)
                    .build();
                let p = CompositionProblem::from_mission(&mission, &specs, 4);
                prop_assert_eq!(greedy(&p, &mut SolveStats::default()), greedy_scan(&p));
            }

            /// Annealing never produces an unsatisfied result when greedy
            /// satisfied (it starts from the greedy seed and only keeps
            /// improvements on the penalty-first score).
            #[test]
            fn anneal_keeps_feasibility(seed in 0u64..10) {
                use iobt_types::catalog::PopulationBuilder;
                let area = Rect::square(400.0);
                let catalog = PopulationBuilder::new(area).count(40).build(seed);
                let specs: Vec<NodeSpec> = catalog.iter().cloned().collect();
                let mission = Mission::builder(MissionId::new(1), MissionKind::Surveillance)
                    .area(area)
                    .require_modality(SensorKind::Visual)
                    .min_trust(0.3)
                    .build();
                let mut problem = CompositionProblem::from_mission(&mission, &specs, 4);
                problem.required_fraction = problem.max_achievable_fraction() * 0.8;
                let g = Solver::Greedy.solve(&problem);
                let a = Solver::Anneal { iterations: 500, seed }.solve(&problem);
                prop_assert!(!g.satisfied || a.satisfied);
                prop_assert!(a.cost <= g.cost + 1e-9);
            }
        }
    }

    #[test]
    fn solvers_are_deterministic() {
        let p = CompositionProblem::from_mission(&grid_mission(1, 0.9), &corner_nodes(), 4);
        let a = Solver::Anneal { iterations: 300, seed: 7 }.solve(&p);
        let b = Solver::Anneal { iterations: 300, seed: 7 }.solve(&p);
        assert_eq!(a.selected, b.selected);
    }

    #[test]
    fn budget_counts_steps_not_time() {
        let mut budget = SolverBudget::steps(3);
        assert_eq!(budget.remaining(), 3);
        assert!(budget.covers(3));
        assert!(!budget.covers(4));
        assert!(budget.consume());
        assert!(budget.consume());
        assert!(budget.consume());
        assert!(!budget.consume(), "fourth step exceeds the budget");
        assert_eq!(budget.remaining(), 0);
    }

    #[test]
    fn anneal_trajectory_is_a_function_of_budget_and_seed() {
        let mut nodes = corner_nodes();
        for i in 5..25 {
            nodes.push(node_at(i, (i * 13 % 300) as f64, (i * 29 % 300) as f64, 40.0));
        }
        let p = CompositionProblem::from_mission(&grid_mission(1, 0.95), &nodes, 5);
        let a = anneal(&p, SolverBudget::steps(1_000), 7, &mut SolveStats::default());
        let b = anneal(&p, SolverBudget::steps(1_000), 7, &mut SolveStats::default());
        assert_eq!(a, b, "same budget and seed, same trajectory");
        // A different budget is allowed to land elsewhere, but must itself
        // be reproducible.
        let c = anneal(&p, SolverBudget::steps(250), 7, &mut SolveStats::default());
        let d = anneal(&p, SolverBudget::steps(250), 7, &mut SolveStats::default());
        assert_eq!(c, d);
    }

    /// The portfolio winner must be identical across repeated runs even
    /// though members race on threads: every member is deterministic and
    /// the winner is chosen by member order, never finish order.
    #[test]
    fn portfolio_winner_is_stable_across_many_runs() {
        let mut nodes = corner_nodes();
        for i in 5..30 {
            nodes.push(node_at(i, (i * 41 % 300) as f64, (i * 17 % 300) as f64, 50.0));
        }
        let p = CompositionProblem::from_mission(&grid_mission(1, 0.9), &nodes, 5);
        let first = Solver::Portfolio { iterations: 400, seed: 13 }.solve(&p);
        for _ in 0..8 {
            let again = Solver::Portfolio { iterations: 400, seed: 13 }.solve(&p);
            assert_eq!(again.selected, first.selected);
            assert_eq!(again.cost, first.cost);
            assert_eq!(again.coverage, first.coverage);
            assert_eq!(again.satisfied, first.satisfied);
        }
    }
}
