//! The mission runtime: discovery → recruitment → synthesis → adaptive
//! execution, end to end over the simulator (paper Fig. 1).
//!
//! Execution is exposed at two granularities: [`run_mission`] runs a
//! scenario start to finish, and [`MissionRunner`] steps it one utility
//! window at a time so callers can checkpoint between windows (see
//! `iobt-ckpt` and [`MissionRunner::save`]).

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Deref;
use std::time::Instant;

use iobt_discovery::{
    recruit, AffiliationClassifier, DiscoveryTracker, EmissionModel, NaiveBayes, RecruitPolicy,
    TrackerConfig,
};
use iobt_netsim::{SimDuration, Simulator};
use iobt_obs::{Recorder, TraceEvent};
use iobt_synthesis::{
    assess, failure_probability, repair_with_timed, AssuranceReport, CompositionProblem,
    CompositionResult, RepairResult, Solver,
};
use iobt_types::{Mission, NodeId, NodeSpec, TrustLedger};

use crate::behaviors::{
    new_report_log, new_task_board, CommandSink, ReportLog, SensorReporter, TaskBoard,
    TaskingSink, TaskingStats,
};
use crate::resilience::{DegradationLadder, FailureDetector, LadderStep};
use crate::scenario::{Disruption, Scenario};

/// Execution parameters: every mission setting that is plain data,
/// i.e. everything in a [`RunConfig`] except the [`Recorder`] handle.
///
/// A `Recorder` is deliberately *not* `Send` (it is an `Rc` over shared
/// sinks — see `iobt-obs`), which makes a whole `RunConfig` thread-bound.
/// These parameters are the half that can cross threads and be
/// persisted: schedulers like `iobt-fleet` split a config with
/// [`RunConfig::into_portable`], ship the parameters across, and
/// rebuild a full config on the destination thread with
/// [`PortableRunConfig::into_config`], attaching a recorder that lives
/// on that thread. Both directions are moves, so the round trip is
/// exact. The same struct is what the checkpoint guard and the fleet
/// manifest store, in its one `Wire` layout (`checkpoint.rs`).
///
/// Construct through [`RunConfig::builder`]; the struct is
/// `#[non_exhaustive]` so it can grow fields without breaking
/// downstream crates.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct PortableRunConfig {
    /// Total mission duration.
    pub duration: SimDuration,
    /// Utility sampling window.
    pub window: SimDuration,
    /// Sensor report period.
    pub report_period: SimDuration,
    /// Whether the runtime repairs the composition when utility drops
    /// (the paper's adaptive reflexes; `false` gives the static baseline).
    pub adaptive: bool,
    /// Utility threshold that triggers a repair.
    pub repair_threshold: f64,
    /// Coverage grid resolution (cells per side).
    pub grid: usize,
    /// Composition solver.
    pub solver: Solver,
    /// Run the sim-time heartbeat failure detector between windows and
    /// repair as soon as nodes are suspected, instead of waiting for the
    /// window to close (requires `adaptive`). Off by default.
    pub early_repair: bool,
    /// Shed mission requirements down the graceful-degradation ladder
    /// when utility stays critically low, and restore them when it
    /// recovers (requires `adaptive`). Off by default.
    pub degradation_ladder: bool,
    /// Disseminate task assignments as acknowledged messages with
    /// bounded deterministic retries, instead of instantaneous
    /// out-of-band activation. Off by default.
    pub acked_tasking: bool,
    /// Run the network simulator on its reference path: never patch the
    /// connectivity graph, never keep one ahead of its first access,
    /// never memoise a route, one event per pop. Both paths are
    /// bit-identical by contract; this flag exists so equivalence tests
    /// can hold the oracle and the optimized run side by side in one
    /// process. Carried in a checkpoint but not guarded by it (either
    /// path resumes the other's). Off by default.
    pub reference_mode: bool,
}

impl Default for PortableRunConfig {
    fn default() -> Self {
        PortableRunConfig {
            duration: SimDuration::from_secs_f64(120.0),
            window: SimDuration::from_secs_f64(10.0),
            report_period: SimDuration::from_secs_f64(2.0),
            adaptive: true,
            repair_threshold: 0.7,
            grid: 6,
            solver: Solver::Greedy,
            early_repair: false,
            degradation_ladder: false,
            acked_tasking: false,
            reference_mode: false,
        }
    }
}

// The whole point of the split: the parameters must stay `Send` even as
// they grow fields. A thread-bound field mistakenly added would surface
// here as a compile error rather than in downstream crates.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<PortableRunConfig>();
};

impl PortableRunConfig {
    /// Rebuilds a full [`RunConfig`] on the current thread, attaching
    /// `recorder` (pass [`Recorder::disabled`] to run silent).
    pub fn into_config(self, recorder: Recorder) -> RunConfig {
        RunConfig {
            params: self,
            recorder,
        }
    }
}

/// Execution configuration: the [`PortableRunConfig`] parameters plus
/// the observability recorder.
///
/// Parameters are read straight off the config (`config.grid`,
/// `config.solver`) through `Deref`. Construct with
/// [`RunConfig::builder`]; the struct is `#[non_exhaustive]` so it can
/// grow fields without breaking downstream crates.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct RunConfig {
    pub(crate) params: PortableRunConfig,
    /// Observability recorder threaded through the whole pipeline
    /// (simulator, solver, repair reflex). Disabled by default.
    pub recorder: Recorder,
}

impl Deref for RunConfig {
    type Target = PortableRunConfig;

    fn deref(&self) -> &PortableRunConfig {
        &self.params
    }
}

impl RunConfig {
    /// Starts a builder from the default configuration.
    pub fn builder() -> RunConfigBuilder {
        RunConfigBuilder {
            config: RunConfig::default(),
        }
    }

    /// Splits this config into its thread-portable parameters and the
    /// recorder handle (the only part that cannot cross threads).
    pub fn into_portable(self) -> (PortableRunConfig, Recorder) {
        (self.params, self.recorder)
    }
}

/// Why a [`RunConfigBuilder`] refused to produce a [`RunConfig`].
///
/// Each variant names a configuration that would silently produce a
/// degenerate run (zero windows, a window that never closes, a
/// threshold no utility can ever cross).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum RunConfigError {
    /// The utility window is zero: the window loop would never advance.
    ZeroWindow,
    /// The report period is zero: no reporter would ever send.
    ZeroReportPeriod,
    /// The window is longer than the whole mission: not even one full
    /// window would close.
    WindowExceedsDuration {
        /// Configured window.
        window: SimDuration,
        /// Configured mission duration.
        duration: SimDuration,
    },
    /// A utility threshold lies outside `[0, 1]`, where utility lives.
    ThresholdOutOfRange {
        /// Which threshold field was rejected.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for RunConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunConfigError::ZeroWindow => {
                write!(f, "utility window must be positive")
            }
            RunConfigError::ZeroReportPeriod => {
                write!(f, "report period must be positive")
            }
            RunConfigError::WindowExceedsDuration { window, duration } => write!(
                f,
                "window ({:.3} s) exceeds mission duration ({:.3} s)",
                window.as_secs_f64(),
                duration.as_secs_f64()
            ),
            RunConfigError::ThresholdOutOfRange { field, value } => {
                write!(f, "{field} = {value} is outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for RunConfigError {}

/// Builder for [`RunConfig`] (the supported construction path now that the
/// struct is `#[non_exhaustive]`).
///
/// [`RunConfigBuilder::build`] validates the configuration and returns a
/// typed [`RunConfigError`] for settings that would produce a degenerate
/// run.
///
/// ```
/// use iobt_core::runtime::RunConfig;
/// use iobt_netsim::SimDuration;
///
/// let cfg = RunConfig::builder()
///     .duration(SimDuration::from_secs_f64(60.0))
///     .adaptive(false)
///     .build()
///     .expect("valid configuration");
/// assert!(!cfg.adaptive);
///
/// let err = RunConfig::builder().window(SimDuration::ZERO).build();
/// assert!(err.is_err());
/// ```
#[derive(Debug, Clone)]
pub struct RunConfigBuilder {
    config: RunConfig,
}

/// Generates the parameter setters: each takes the value for the
/// [`PortableRunConfig`] field of the same name.
macro_rules! param_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty,)*) => {$(
        $(#[$doc])*
        pub fn $field(mut self, $field: $ty) -> Self {
            self.config.params.$field = $field;
            self
        }
    )*};
}

impl RunConfigBuilder {
    param_setters! {
        /// Sets the total mission duration.
        duration: SimDuration,
        /// Sets the utility sampling window.
        window: SimDuration,
        /// Sets the sensor report period.
        report_period: SimDuration,
        /// Enables or disables the repair reflex.
        adaptive: bool,
        /// Sets the utility threshold that triggers a repair.
        repair_threshold: f64,
        /// Sets the coverage grid resolution (cells per side).
        grid: usize,
        /// Sets the composition solver.
        solver: Solver,
        /// Enables or disables between-window failure detection and early
        /// repair (active only when `adaptive` is also on).
        early_repair: bool,
        /// Enables or disables the graceful-degradation ladder (active only
        /// when `adaptive` is also on).
        degradation_ladder: bool,
        /// Enables or disables acknowledged task dissemination.
        acked_tasking: bool,
        /// Runs the simulator on its reference path — never patch, never
        /// keep ahead, never memoise, one event per pop (the oracle for
        /// the equivalence tests).
        reference_mode: bool,
    }

    /// Attaches an observability recorder.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.config.recorder = recorder;
        self
    }

    /// Validates and finishes the builder.
    ///
    /// # Errors
    ///
    /// * [`RunConfigError::ZeroWindow`] — the utility window is zero;
    /// * [`RunConfigError::ZeroReportPeriod`] — the report period is
    ///   zero;
    /// * [`RunConfigError::WindowExceedsDuration`] — the window is
    ///   longer than the mission;
    /// * [`RunConfigError::ThresholdOutOfRange`] — `repair_threshold`
    ///   lies outside `[0, 1]` (including NaN).
    pub fn build(self) -> Result<RunConfig, RunConfigError> {
        let c = &self.config;
        if c.window.as_micros() == 0 {
            return Err(RunConfigError::ZeroWindow);
        }
        if c.report_period.as_micros() == 0 {
            return Err(RunConfigError::ZeroReportPeriod);
        }
        if c.window > c.duration {
            return Err(RunConfigError::WindowExceedsDuration {
                window: c.window,
                duration: c.duration,
            });
        }
        if !(0.0..=1.0).contains(&c.repair_threshold) {
            return Err(RunConfigError::ThresholdOutOfRange {
                field: "repair_threshold",
                value: c.repair_threshold,
            });
        }
        Ok(self.config)
    }
}

/// Utility measured over one window.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct WindowStat {
    /// Window start, seconds.
    pub start_s: f64,
    /// Nodes expected to report (current selection size).
    pub expected: usize,
    /// Distinct selected nodes whose reports arrived.
    pub reporting: usize,
    /// `reporting / expected` (1.0 when nothing was expected).
    pub utility: f64,
}

/// What one [`MissionRunner::step_window`] call did.
///
/// Replaces the old bare `Option<WindowStat>` progress signal so callers —
/// schedulers in particular — branch on meaning rather than on `Option`
/// combinators. `#[non_exhaustive]` so further outcomes (e.g. a yield
/// point finer than a window) can be added without breaking matches that
/// already handle the two fundamental cases.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum StepOutcome {
    /// One utility window executed and closed.
    WindowClosed {
        /// Zero-based index of the window that just closed.
        window: usize,
        /// The utility measured over it.
        stats: WindowStat,
    },
    /// Every window had already executed; nothing ran. The runner is at a
    /// window boundary and [`MissionRunner::finish`] will produce the
    /// report.
    Finished,
}

impl StepOutcome {
    /// The closed window's stats, or `None` if the mission was already
    /// finished. The bridge for callers that only care about the
    /// measurement (and for tests that `expect` a window to run).
    pub fn window_stat(self) -> Option<WindowStat> {
        match self {
            StepOutcome::WindowClosed { stats, .. } => Some(stats),
            StepOutcome::Finished => None,
        }
    }

    /// `true` when the mission had no window left to run.
    pub fn is_finished(self) -> bool {
        matches!(self, StepOutcome::Finished)
    }
}

/// A full end-state fingerprint of a mission run.
///
/// Captures everything observable about where a run ended — event
/// counters, per-node energy, utility, repairs, and the final selection —
/// so reproducibility tests can assert that two runs of the same scenario
/// and seed agree on *all* of it, not just a summary statistic. Built by
/// [`run_mission`] from the simulator's terminal state.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct EndStateDigest {
    /// Messages sent.
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages dropped (all causes).
    pub dropped: u64,
    /// Drops for lack of a route.
    pub dropped_no_route: u64,
    /// Drops lost on the channel.
    pub dropped_channel: u64,
    /// Drops because an endpoint was dead.
    pub dropped_dead: u64,
    /// Always 0 ([`iobt_netsim::NetStats::dropped_asleep`]): kept so
    /// the digest's layout and fingerprints stay put.
    pub dropped_asleep: u64,
    /// MAC retransmissions across all hops.
    pub retransmits: u64,
    /// Messages tampered by compromised relays.
    pub tampered: u64,
    /// Total energy drawn across the run, joules.
    pub energy_spent_j: f64,
    /// Remaining energy per node at mission end, ascending node id.
    pub node_energy_j: Vec<(NodeId, f64)>,
    /// Mean utility across windows.
    pub mean_utility: f64,
    /// Repairs performed.
    pub repairs: usize,
    /// Final selection (candidate indices), ascending.
    pub final_selection: Vec<usize>,
    /// Resilience counters (suspicions, early repairs, ladder moves,
    /// tasking retries) — part of the digest so same-seed runs must
    /// agree on the whole reaction history, not just the outcome.
    pub resilience: ResilienceReport,
}

/// Counters from the failure-detection / graceful-degradation /
/// acked-tasking reaction layer, for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ResilienceReport {
    /// Nodes the heartbeat detector suspected (and handed to repair).
    pub suspected: u64,
    /// Repairs applied from a detector tick rather than a window close.
    pub early_repairs: u64,
    /// Ladder levels shed.
    pub sheds: u64,
    /// Ladder levels restored.
    pub restores: u64,
    /// Ladder level at mission end (0 = full requirement).
    pub final_ladder_level: u64,
    /// Acked task dissemination counters (all zero unless
    /// `acked_tasking` is on).
    pub tasking: TaskingStats,
}

/// Wall-clock timings measured while running a mission.
///
/// Deliberately separated from [`EndStateDigest`] (and every other report
/// field): wall-clock duration varies run to run on the same seed, so it
/// must never participate in determinism checks. Reporting only. For the
/// same reason it is *not* checkpointed — a resumed run reports only the
/// wall-clock it spent itself: no initial solve (`solve_ms` is `0.0`),
/// and the repairs since the resume.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[non_exhaustive]
pub struct WallClockReport {
    /// Wall-clock time spent in the initial composition solve, ms.
    pub solve_ms: f64,
    /// Cumulative wall-clock time spent in repair solves, ms.
    pub repair_ms: f64,
}

/// Full mission outcome.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct MissionReport {
    /// Assets admitted by recruitment.
    pub recruited: usize,
    /// Assets rejected as suspected red.
    pub rejected_red: usize,
    /// Recruited assets dropped because they could not reach the command
    /// post over the initial connectivity graph.
    pub unreachable: usize,
    /// Fraction of admitted assets that are truly red (ground truth).
    pub infiltration_rate: f64,
    /// The initial composition.
    pub composition: CompositionResult,
    /// Assurance prediction for the initial composition: probability of
    /// retaining ≥ 90% of the deployed coverage under trust-derived
    /// independent failures.
    pub assurance: AssuranceReport,
    /// Per-window utility trace.
    pub windows: Vec<WindowStat>,
    /// Repairs performed during execution.
    pub repairs: usize,
    /// Network delivery ratio across the run.
    pub delivery_ratio: f64,
    /// Mean end-to-end report latency in milliseconds.
    pub mean_latency_ms: f64,
    /// End-state fingerprint for reproducibility checks.
    pub digest: EndStateDigest,
    /// Wall-clock timings (solve/repair). Excluded from [`EndStateDigest`]
    /// and from all determinism comparisons.
    pub wall_clock: WallClockReport,
}

impl MissionReport {
    /// Mean utility across windows.
    pub fn mean_utility(&self) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        self.windows.iter().map(|w| w.utility).sum::<f64>() / self.windows.len() as f64
    }

    /// Mean utility over windows starting at or after `t_s` — used to
    /// measure post-disruption recovery.
    pub fn utility_after(&self, t_s: f64) -> f64 {
        let tail: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.start_s >= t_s)
            .map(|w| w.utility)
            .collect();
        if tail.is_empty() {
            0.0
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        }
    }
}

/// Products of the pre-simulation pipeline — discovery, recruitment,
/// synthesis, assurance (phases 1–3 of the paper's Fig. 1 flow).
///
/// Fixed once the mission starts, so [`MissionRunner::new`] computes them
/// once and a checkpoint carries them: every field but `problem` and
/// `solve_ms` travels in the payload (`specs` as its asset ids), and
/// [`MissionRunner::resume`] rebuilds `problem` over the carried specs
/// instead of re-running the classifier, the reachability sweep, the
/// solve and the assurance trials. The reachability filter is one
/// component sweep over the execution simulator's t = 0 graph, which the
/// first send then takes over (EXPERIMENTS.md, "Build once").
pub(crate) struct Prologue {
    pub(crate) recruited: usize,
    pub(crate) rejected_red: usize,
    pub(crate) unreachable: usize,
    pub(crate) infiltration_rate: f64,
    pub(crate) composition: CompositionResult,
    pub(crate) assurance: AssuranceReport,
    pub(crate) specs: Vec<NodeSpec>,
    pub(crate) problem: CompositionProblem,
    pub(crate) solve_ms: f64,
}

/// Runs phases 1–3 for a fresh run; the configured recorder observes the
/// recruitment and solve events. `sim` is the execution simulator from
/// [`build_sim`], still at t = 0: the reachability filter judges by a
/// silent look at its graph, the topology the mission starts on, which
/// the simulator keeps for the first message to route on.
fn prologue(scenario: &Scenario, config: &RunConfig, sim: &mut Simulator) -> Prologue {
    let recorder = &config.recorder;
    // ---- Phase 1: discovery (side-channel classification + tracking) ----
    let mut emissions = EmissionModel::new(scenario.seed ^ 0xD15C);
    let train = emissions.labelled_dataset(300);
    #[expect(clippy::expect_used, reason = "labelled_dataset(300) emits 100 examples per class, so fit always succeeds")]
    let classifier = NaiveBayes::fit(&train).expect("balanced training set");
    let mut tracker = DiscoveryTracker::new(TrackerConfig::default());
    let mut ledger = TrustLedger::new();
    for node in scenario.catalog.iter() {
        // Red emitters camouflage as gray 10% of the time.
        let obs = emissions.observe_with_spoofing(node.affiliation(), 0.1);
        let posterior = classifier.posterior(&obs);
        tracker.observe(node.id(), 0.0, node.position(), posterior);
        // Second sighting sharpens most estimates (continuous discovery).
        let obs2 = emissions.observe_with_spoofing(node.affiliation(), 0.1);
        tracker.observe(node.id(), 1.0, node.position(), classifier.posterior(&obs2));
        #[expect(clippy::expect_used, reason = "observe() for this id ran two lines up, so the estimate exists")]
        let est = tracker
            .estimate(node.id())
            .expect("just observed")
            .affiliation();
        ledger.enroll(node.id(), est);
    }

    // ---- Phase 2: recruitment ----
    let pool = recruit(
        &scenario.catalog,
        &tracker,
        &ledger,
        &RecruitPolicy::default(),
        2.0,
        TrackerConfig::default().presence_tau_s,
    );
    recorder.record_at(
        0,
        TraceEvent::Recruitment {
            candidates: scenario.catalog.len() as u64,
            recruited: pool.admitted.len() as u64,
        },
    );

    // ---- Phase 3: synthesis + assurance ----
    // Keep only assets in the command post's connected component of the
    // initial connectivity graph (§III-B network composition: selecting a
    // sensor that cannot report is wasted coverage). Links are undirected
    // with finite weights, so that is exactly "has a route to it". A peek,
    // not an access: the trace and the checkpoint must not see the look.
    let reachable = sim.prime_connectivity().component_of(scenario.command_post);
    let mut specs: Vec<NodeSpec> = pool.admitted.iter().map(|a| a.spec.clone()).collect();
    let before = specs.len();
    specs.retain(|spec| reachable.binary_search(&spec.id()).is_ok());
    let unreachable = before - specs.len();
    let problem = CompositionProblem::from_mission(&scenario.mission, &specs, config.grid);
    #[expect(clippy::disallowed_methods, reason = "reporting only; lands in WallClockReport, never in a decision or digest")]
    let solve_start = Instant::now();
    let composition = config.solver.solve_observed(&problem, recorder);
    let solve_ms = solve_start.elapsed().as_secs_f64() * 1_000.0;
    let failure_probs: Vec<f64> = composition
        .selected
        .iter()
        .map(|&i| failure_probability(problem.candidates[i].trust, 0.05, 0.3))
        .collect();
    // Assurance is quantified against what was actually deployed: success
    // means retaining >= 90% of the composition's achieved coverage under
    // failures. (The mission's own target may be infeasible for the
    // population, which would make the probability degenerately zero.)
    let mut assurance_problem = problem.clone();
    assurance_problem.required_fraction = composition.coverage * 0.9;
    let assurance = assess(
        &assurance_problem,
        &composition.selected,
        &failure_probs,
        2_000,
        scenario.seed ^ 0xA55E,
    );
    Prologue {
        recruited: pool.admitted.len(),
        rejected_red: pool.rejected_red.len(),
        unreachable,
        infiltration_rate: pool.infiltration_rate(),
        composition,
        assurance,
        specs,
        problem,
        solve_ms,
    }
}

/// Builds the phase-4 simulator over the scenario, with nothing
/// scheduled yet: on a fresh run the prologue consults it first, and its
/// records (recruitment, solve) precede the `FaultScheduled` ones.
pub(crate) fn build_sim(scenario: &Scenario, config: &RunConfig) -> Simulator {
    let mut builder = Simulator::builder(scenario.catalog.clone())
        .terrain(scenario.terrain.clone())
        .seed(scenario.seed)
        .reference_mode(config.reference_mode)
        .recorder(config.recorder.clone());
    for j in &scenario.jammers {
        builder = builder.jammer(*j);
    }
    builder.build()
}

/// Schedules the scenario's disruptions and fault plan on a fresh run's
/// simulator. Not at checkpoint resume: the restored event queue already
/// holds every one of them, and scheduling them again would both
/// duplicate the queue entries and re-emit their `FaultScheduled` trace
/// records.
fn schedule_faults(scenario: &Scenario, sim: &mut Simulator) {
    for d in &scenario.disruptions {
        match *d {
            Disruption::JammerOn { at, index } => sim.schedule_jammer(at, index, true),
            Disruption::NodeLoss { at, node } => sim.schedule_node_down(at, node),
        }
    }
    scenario.fault_plan.schedule(sim);
}

/// Step-at-a-time mission execution with crash-safe checkpointing.
///
/// [`MissionRunner::new`] runs the pre-simulation pipeline (discovery,
/// recruitment, synthesis, assurance) and stands up the simulator;
/// [`MissionRunner::step_window`] then executes one utility window at a
/// time, which is exactly the granularity checkpoints are taken at:
/// call [`MissionRunner::save`] between steps, persist the payload with
/// `iobt_ckpt::CheckpointStore`, and after a crash rebuild the runner
/// with [`MissionRunner::resume`]. A resumed run continues the same
/// event, RNG and trace sequence as the uninterrupted run — same-seed
/// digests and metrics fingerprints match bit for bit.
///
/// [`run_mission`] is the convenience wrapper that steps a fresh runner
/// to completion.
pub struct MissionRunner {
    pub(crate) scenario: Scenario,
    pub(crate) config: RunConfig,
    /// Phase 1–3 products (carried by a checkpoint, `problem` rebuilt
    /// from them); its `problem` is the pristine one the degradation
    /// ladder relaxes from.
    pub(crate) prologue: Prologue,
    /// The problem repairs solve against: the prologue's, with the
    /// ladder's current relaxations applied.
    pub(crate) problem: CompositionProblem,
    // Phase 4 (execution) state — everything below but `log` is
    // checkpointed.
    pub(crate) sim: Simulator,
    /// Reports delivered in the window running; emptied when it closes,
    /// so it is always empty at a checkpoint.
    pub(crate) log: ReportLog,
    pub(crate) board: TaskBoard,
    pub(crate) selection: Vec<usize>,
    pub(crate) active_reporters: BTreeSet<NodeId>,
    pub(crate) windows: Vec<WindowStat>,
    pub(crate) repairs: usize,
    pub(crate) total_windows: usize,
    pub(crate) next_window: usize,
    pub(crate) failed_ever: BTreeSet<NodeId>,
    pub(crate) detector: FailureDetector,
    pub(crate) ladder: DegradationLadder,
    pub(crate) resilience: ResilienceReport,
    /// Wall-clock spent in repair solves (reporting only; never
    /// checkpointed).
    pub(crate) repair_ms: f64,
}

impl fmt::Debug for MissionRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MissionRunner")
            .field("seed", &self.scenario.seed)
            .field("next_window", &self.next_window)
            .field("total_windows", &self.total_windows)
            .field("repairs", &self.repairs)
            .finish()
    }
}

/// Failure-detector ticks per utility window when `early_repair` is on:
/// the window runs in this many slices, and suspects are collected after
/// each.
const DETECTOR_TICKS: u32 = 4;

impl MissionRunner {
    /// Runs phases 1–3 and stands up the execution simulator, ready to
    /// step window 0.
    pub fn new(scenario: &Scenario, config: &RunConfig) -> Self {
        let mut sim = build_sim(scenario, config);
        let p = prologue(scenario, config, &mut sim);
        schedule_faults(scenario, &mut sim);
        let log = new_report_log();
        let board = new_task_board();
        if config.acked_tasking {
            sim.set_behavior(
                scenario.command_post,
                Box::new(TaskingSink::new(log.clone(), board.clone())),
            );
        } else {
            sim.set_behavior(
                scenario.command_post,
                Box::new(CommandSink::new(log.clone())),
            );
        }
        let selection = p.composition.selected.clone();
        let mut active_reporters: BTreeSet<NodeId> = BTreeSet::new();
        let problem = p.problem.clone();
        attach_reporters(
            &mut sim,
            &problem,
            &selection,
            &mut active_reporters,
            scenario,
            config,
            &board,
        );
        let total_windows =
            (config.duration.as_secs_f64() / config.window.as_secs_f64()).ceil() as usize;
        let mut detector = FailureDetector::new(config.report_period);
        if config.adaptive && config.early_repair {
            for &i in &selection {
                detector.watch(problem.candidates[i].id, sim.now());
            }
        }
        MissionRunner {
            scenario: scenario.clone(),
            config: config.clone(),
            prologue: p,
            problem,
            sim,
            log,
            board,
            selection,
            active_reporters,
            windows: Vec::new(),
            repairs: 0,
            total_windows,
            next_window: 0,
            failed_ever: BTreeSet::new(),
            detector,
            ladder: DegradationLadder::new(),
            resilience: ResilienceReport::default(),
            repair_ms: 0.0,
        }
    }

    /// The index of the next window to execute (also: how many windows
    /// have completed).
    pub fn window_index(&self) -> usize {
        self.next_window
    }

    /// Total number of utility windows in the mission.
    pub fn total_windows(&self) -> usize {
        self.total_windows
    }

    /// Whether every window has executed.
    pub fn is_finished(&self) -> bool {
        self.next_window >= self.total_windows
    }

    /// `(queries, hits)` from this runner's simulator: see
    /// [`Simulator::route_memo_counts`]. Reporting-only, and counted from
    /// construction or resume, not from the mission's start.
    pub fn route_memo_counts(&self) -> (u64, u64) {
        self.sim.route_memo_counts()
    }

    /// From-scratch connectivity-graph builds by this runner's simulator,
    /// a fresh run's prologue look at the topology included: see
    /// [`Simulator::graph_builds`]. Counted from construction or resume.
    pub fn graph_builds(&self) -> u64 {
        self.sim.graph_builds()
    }

    /// Executes one utility window — simulation slices, heartbeat
    /// detection, the degradation ladder, and the repair reflex — and
    /// reports what happened as a [`StepOutcome`]:
    /// [`StepOutcome::WindowClosed`] with the window's index and stats, or
    /// [`StepOutcome::Finished`] when every window had already run.
    pub fn step_window(&mut self) -> StepOutcome {
        if self.is_finished() {
            return StepOutcome::Finished;
        }
        let w = self.next_window;
        let recorder = self.config.recorder.clone();
        let use_detector = self.config.adaptive && self.config.early_repair;
        let use_ladder = self.config.adaptive && self.config.degradation_ladder;
        let start_s = self.sim.now().as_secs_f64();
        let ticks = if use_detector { DETECTOR_TICKS } else { 1 };
        let tick_us = self.config.window.as_micros() / u64::from(ticks);
        // The log holds this window's reports only; the detector has
        // heard the first `heard` of them.
        let mut heard = 0;
        for t in 0..ticks {
            // The last tick absorbs the division remainder so every
            // window spans exactly `config.window`.
            let slice = if t + 1 == ticks {
                SimDuration::from_micros(self.config.window.as_micros() - u64::from(t) * tick_us)
            } else {
                SimDuration::from_micros(tick_us)
            };
            self.sim.run_for(slice);
            if !use_detector || w + 1 >= self.total_windows {
                continue;
            }
            // Feed delivered reports to the detector as heartbeats.
            {
                let log = self.log.borrow();
                for r in &log[heard..] {
                    self.detector.heard(r.from, r.at);
                }
                heard = log.len();
            }
            let now = self.sim.now();
            let new_suspects: Vec<(NodeId, SimDuration)> = self
                .detector
                .suspects(now)
                .into_iter()
                .filter(|(n, _)| !self.failed_ever.contains(n))
                .collect();
            if new_suspects.is_empty() {
                continue;
            }
            for &(node, silent) in &new_suspects {
                recorder.record(TraceEvent::Suspected {
                    node: node.raw(),
                    silent_us: silent.as_micros(),
                });
                self.failed_ever.insert(node);
                self.detector.unwatch(node);
            }
            self.resilience.suspected += new_suspects.len() as u64;
            recorder.record(TraceEvent::EarlyRepair {
                window: w as u64,
                suspects: new_suspects.len() as u64,
            });
            if self.apply_repair().is_some() {
                self.repairs += 1;
                self.resilience.early_repairs += 1;
            }
        }
        let delivered: BTreeSet<NodeId> = self.log.borrow_mut().drain(..).map(|r| r.from).collect();
        let expected = self.selection.len();
        let reporting = self
            .selection
            .iter()
            .filter(|&&i| delivered.contains(&self.problem.candidates[i].id))
            .count();
        let utility = if expected == 0 {
            1.0
        } else {
            reporting as f64 / expected as f64
        };
        let stat = WindowStat {
            start_s,
            expected,
            reporting,
            utility,
        };
        self.windows.push(stat);
        recorder.record(TraceEvent::WindowClosed {
            window: w as u64,
            delivered: reporting as u64,
            utility,
        });
        // Graceful degradation: when utility stays critically low the
        // population cannot meet the requirement — shed it one rung at a
        // time (redundancy → last modality → coverage fraction) so the
        // reflex below repairs toward an achievable target instead of
        // thrashing; restore rungs when utility recovers.
        if use_ladder && w + 1 < self.total_windows {
            let step = self.ladder.observe(utility);
            if step != LadderStep::Hold {
                let level = self.ladder.level();
                self.problem = degraded_problem(
                    &self.prologue.problem,
                    &self.scenario.mission,
                    &self.prologue.specs,
                    self.config.grid,
                    level,
                );
                recorder.record(if step == LadderStep::Shed {
                    self.resilience.sheds += 1;
                    TraceEvent::Shed {
                        level: level as u64,
                        action: DegradationLadder::action(level),
                    }
                } else {
                    self.resilience.restores += 1;
                    TraceEvent::Restore {
                        level: level as u64,
                        action: DegradationLadder::action(level + 1),
                    }
                });
            }
        }
        // Reflex: if too few selected assets are heard from, treat the
        // silent ones as lost and re-cover their pairs from spares.
        if self.config.adaptive
            && utility < self.config.repair_threshold
            && w + 1 < self.total_windows
        {
            recorder.record(TraceEvent::RepairTriggered {
                window: w as u64,
                utility,
                threshold: self.config.repair_threshold,
            });
            for &i in &self.selection {
                let id = self.problem.candidates[i].id;
                if !delivered.contains(&id) {
                    self.failed_ever.insert(id);
                }
            }
            if let Some(repaired) = self.apply_repair() {
                self.repairs += 1;
                recorder.record(TraceEvent::RepairApplied {
                    window: w as u64,
                    added: repaired.added.len() as u64,
                    satisfied: repaired.satisfied,
                });
            }
        }
        self.next_window += 1;
        StepOutcome::WindowClosed { window: w, stats: stat }
    }

    /// Repairs the selection around every node in `failed_ever` and, if
    /// that changes it, applies the repair: the new selection's reporters
    /// are attached and, when the failure detector runs, all of it is
    /// watched again from now. Returns the repair it applied; the callers
    /// keep their own counters and trace.
    fn apply_repair(&mut self) -> Option<RepairResult> {
        let (repaired, repair_ms) = repair_with_timed(
            &self.problem,
            &self.selection,
            &self.failed_ever,
            self.config.solver,
        );
        self.repair_ms += repair_ms;
        if repaired.selected == self.selection {
            return None;
        }
        self.selection.clone_from(&repaired.selected);
        attach_reporters(
            &mut self.sim,
            &self.problem,
            &self.selection,
            &mut self.active_reporters,
            &self.scenario,
            &self.config,
            &self.board,
        );
        if self.config.adaptive && self.config.early_repair {
            let now = self.sim.now();
            for &i in &self.selection {
                self.detector.watch(self.problem.candidates[i].id, now);
            }
        }
        Some(repaired)
    }

    /// Shared handle to the runner's task board. External tasking
    /// front-ends (e.g. the edge bridge's command ingress) queue
    /// assignments here; they enter the mission through the same acked
    /// [`TaskingSink`] dissemination path as runtime-originated tasks,
    /// so an externally injected task is retried, acked, and counted
    /// exactly like a native one.
    pub fn task_board(&self) -> TaskBoard {
        self.board.clone()
    }

    /// Builds the final [`MissionReport`] from the runner's state
    /// (normally called after stepping every window).
    pub fn finish(self) -> MissionReport {
        let mean_utility = if self.windows.is_empty() {
            0.0
        } else {
            self.windows.iter().map(|w| w.utility).sum::<f64>() / self.windows.len() as f64
        };
        let mut final_selection = self.selection.clone();
        final_selection.sort_unstable();
        let node_energy_j: Vec<(NodeId, f64)> = self
            .scenario
            .catalog
            .ids()
            .into_iter()
            .filter_map(|id| self.sim.energy(id).map(|e| (id, e.remaining_j())))
            .collect();
        let mut resilience = self.resilience;
        resilience.final_ladder_level = self.ladder.level() as u64;
        resilience.tasking = self.board.borrow().stats();
        let stats = self.sim.stats();
        let digest = EndStateDigest {
            sent: stats.sent,
            delivered: stats.delivered,
            dropped: stats.dropped,
            dropped_no_route: stats.dropped_no_route,
            dropped_channel: stats.dropped_channel,
            dropped_dead: stats.dropped_dead,
            dropped_asleep: stats.dropped_asleep,
            retransmits: stats.retransmits,
            tampered: stats.tampered,
            energy_spent_j: stats.energy_spent_j,
            node_energy_j,
            mean_utility,
            repairs: self.repairs,
            final_selection,
            resilience,
        };
        self.config.recorder.flush();
        MissionReport {
            recruited: self.prologue.recruited,
            rejected_red: self.prologue.rejected_red,
            unreachable: self.prologue.unreachable,
            infiltration_rate: self.prologue.infiltration_rate,
            composition: self.prologue.composition,
            assurance: self.prologue.assurance,
            windows: self.windows,
            repairs: self.repairs,
            delivery_ratio: stats.delivery_ratio(),
            mean_latency_ms: stats.latency_ms.mean(),
            digest,
            wall_clock: WallClockReport {
                solve_ms: self.prologue.solve_ms,
                repair_ms: self.repair_ms,
            },
        }
    }
}

/// Runs the full pipeline on a scenario: a fresh [`MissionRunner`]
/// stepped to completion.
pub fn run_mission(scenario: &Scenario, config: &RunConfig) -> MissionReport {
    let mut runner = MissionRunner::new(scenario, config);
    while let StepOutcome::WindowClosed { .. } = runner.step_window() {}
    runner.finish()
}

fn attach_reporters(
    sim: &mut Simulator,
    problem: &CompositionProblem,
    selection: &[usize],
    active: &mut BTreeSet<NodeId>,
    scenario: &Scenario,
    config: &RunConfig,
    board: &TaskBoard,
) {
    for &i in selection {
        let id = problem.candidates[i].id;
        if active.insert(id) {
            if config.acked_tasking {
                // Dormant until the command post's task message arrives
                // (and is acked); the board drives bounded retries.
                board.borrow_mut().assign(id);
                sim.set_behavior(
                    id,
                    Box::new(SensorReporter::dormant(
                        scenario.command_post,
                        config.report_period,
                    )),
                );
            } else {
                sim.set_behavior(
                    id,
                    Box::new(SensorReporter::new(
                        scenario.command_post,
                        config.report_period,
                    )),
                );
            }
        }
    }
}

/// Rebuilds the composition problem with the requirement relaxations of
/// ladder `level` applied to the pristine `base`:
///
/// * level ≥ 1 — redundancy drops to 1;
/// * level ≥ 2 — the mission's last required modality is shed (skipped
///   when only one modality is required — a sole modality is the
///   mission, not load);
/// * level ≥ 3 — required coverage fraction × 0.6.
///
/// Candidate order is trust-filtered from the same `specs` in the same
/// order, so selection indices remain valid across rebuilds.
pub(crate) fn degraded_problem(
    base: &CompositionProblem,
    mission: &Mission,
    specs: &[NodeSpec],
    grid: usize,
    level: usize,
) -> CompositionProblem {
    let modalities = mission.required_modalities();
    let mut problem = if level >= 2 && modalities.len() > 1 {
        let mut builder = Mission::builder(mission.id(), mission.kind())
            .area(mission.area())
            .coverage_fraction(mission.coverage_fraction())
            .resilience(mission.resilience())
            .min_trust(mission.min_trust())
            .priority(mission.priority());
        for &m in &modalities[..modalities.len() - 1] {
            builder = builder.require_modality(m);
        }
        CompositionProblem::from_mission(&builder.build(), specs, grid)
    } else {
        base.clone()
    };
    if level >= 1 {
        problem.redundancy = 1;
    }
    if level >= 3 {
        problem.required_fraction = base.required_fraction * 0.6;
    }
    problem
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{persistent_surveillance, urban_evacuation};

    fn quick_config() -> RunConfig {
        RunConfig {
            params: PortableRunConfig {
                duration: SimDuration::from_secs_f64(60.0),
                window: SimDuration::from_secs_f64(10.0),
                ..PortableRunConfig::default()
            },
            ..RunConfig::default()
        }
    }

    #[test]
    fn full_pipeline_produces_a_coherent_report() {
        let scenario = persistent_surveillance(120, 5);
        let report = run_mission(&scenario, &quick_config());
        assert!(report.recruited > 0, "someone must be recruited");
        assert!(report.composition.coverage > 0.0);
        assert_eq!(report.windows.len(), 6);
        assert!(report.mean_utility() > 0.0, "reports must flow");
        assert!((0.0..=1.0).contains(&report.infiltration_rate));
        assert!(report.assurance.expected_coverage > 0.0);
    }

    #[test]
    fn adaptive_runtime_repairs_after_attrition() {
        let scenario = persistent_surveillance(150, 7);
        let adaptive = run_mission(&scenario, &quick_config());
        let mut static_config = quick_config();
        static_config.params.adaptive = false;
        let static_run = run_mission(&scenario, &static_config);
        // The adaptive run may repair; the static one never does.
        assert_eq!(static_run.repairs, 0);
        assert!(
            adaptive.utility_after(50.0) >= static_run.utility_after(50.0) - 0.1,
            "adaptive {} vs static {}",
            adaptive.utility_after(50.0),
            static_run.utility_after(50.0)
        );
    }

    #[test]
    fn jamming_scenario_runs_to_completion() {
        let scenario = urban_evacuation(100, 3);
        let report = run_mission(&scenario, &quick_config());
        assert_eq!(report.windows.len(), 6);
        // The jammer fires at t=60 which is the end of this short run, so
        // utility should be healthy throughout.
        assert!(report.mean_utility() > 0.3, "{}", report.mean_utility());
    }

    #[test]
    fn builder_matches_struct_defaults() {
        let built = RunConfig::builder()
            .duration(SimDuration::from_secs_f64(60.0))
            .window(SimDuration::from_secs_f64(10.0))
            .build()
            .unwrap();
        let literal = quick_config();
        assert_eq!(built.duration, literal.duration);
        assert_eq!(built.window, literal.window);
        assert_eq!(built.adaptive, literal.adaptive);
        assert_eq!(built.repair_threshold, literal.repair_threshold);
        assert_eq!(built.grid, literal.grid);
        assert_eq!(built.solver, literal.solver);
    }

    #[test]
    fn builder_rejects_a_zero_report_period() {
        let refused = RunConfig::builder().report_period(SimDuration::ZERO).build();
        assert_eq!(refused.unwrap_err(), RunConfigError::ZeroReportPeriod);
        let shown = RunConfigError::ZeroReportPeriod.to_string();
        assert!(shown.contains("report period"), "{shown}");
        let tiny = RunConfig::builder().report_period(SimDuration::from_micros(1)).build();
        assert!(tiny.is_ok());
    }

    #[test]
    fn builder_rejects_degenerate_configs() {
        assert!(matches!(
            RunConfig::builder().window(SimDuration::ZERO).build(),
            Err(RunConfigError::ZeroWindow)
        ));
        assert!(matches!(
            RunConfig::builder()
                .duration(SimDuration::from_secs_f64(5.0))
                .window(SimDuration::from_secs_f64(10.0))
                .build(),
            Err(RunConfigError::WindowExceedsDuration { .. })
        ));
        assert!(matches!(
            RunConfig::builder().repair_threshold(1.5).build(),
            Err(RunConfigError::ThresholdOutOfRange {
                field: "repair_threshold",
                ..
            })
        ));
        assert!(matches!(
            RunConfig::builder().repair_threshold(f64::NAN).build(),
            Err(RunConfigError::ThresholdOutOfRange {
                field: "repair_threshold",
                ..
            })
        ));
        // Errors render a human-readable explanation.
        let shown = RunConfig::builder()
            .repair_threshold(2.0)
            .build()
            .unwrap_err()
            .to_string();
        assert!(shown.contains("repair_threshold"), "{shown}");
    }

    #[test]
    fn recorder_traces_the_pipeline() {
        use iobt_obs::Subsystem;

        let scenario = persistent_surveillance(120, 5);
        let (recorder, ring) = iobt_obs::Recorder::memory(100_000);
        let cfg = RunConfig::builder()
            .duration(SimDuration::from_secs_f64(60.0))
            .window(SimDuration::from_secs_f64(10.0))
            .recorder(recorder.clone())
            .build()
            .unwrap();
        let report = run_mission(&scenario, &cfg);
        let records = ring.records();
        assert!(!records.is_empty());
        // One recruitment, one solve, one window-closed per window.
        let kind_count = |k: &str| records.iter().filter(|r| r.event.kind() == k).count();
        assert_eq!(kind_count("recruitment"), 1);
        assert_eq!(kind_count("solve"), 1);
        assert_eq!(kind_count("window_closed"), report.windows.len());
        // Netsim traffic flows through the same recorder with sim-time stamps.
        assert!(records
            .iter()
            .any(|r| r.event.subsystem() == Subsystem::Netsim));
        for pair in records.windows(2) {
            assert!(pair[0].t_us <= pair[1].t_us, "sim-time goes backwards");
        }
        let digest = recorder.metrics_digest();
        assert_eq!(digest.counter("core.windows"), Some(6));
        assert_eq!(
            digest.counter("netsim.msg_delivered"),
            Some(report.digest.delivered)
        );
        // Wall clock is measured but lives outside the digest.
        assert!(report.wall_clock.solve_ms >= 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let scenario = persistent_surveillance(80, 11);
        let cfg = quick_config();
        let a = run_mission(&scenario, &cfg);
        let b = run_mission(&scenario, &cfg);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.repairs, b.repairs);
        assert_eq!(a.recruited, b.recruited);
    }

    /// FNV-1a over the digest's checkpoint encoding: one number that
    /// pins a whole end state.
    fn digest_hash(digest: &EndStateDigest) -> u64 {
        let mut enc = iobt_ckpt::Enc::new();
        crate::checkpoint::encode_end_state_digest(&mut enc, digest);
        iobt_obs::fnv1a(&enc.into_bytes())
    }

    #[test]
    fn reachability_filter_is_pinned_on_an_island_and_a_missing_post() {
        // The expected values were captured from the one-route-per-recruit
        // filter (PR 13) before the component sweep replaced it: the sweep
        // must drop exactly the same recruits, so everything downstream —
        // composition, traffic, energy — lands on the same digest.
        use iobt_types::{Affiliation, Point};

        // Twelve blue assets moved 20 km out: in range of each other,
        // out of range of everyone else (the untouched scenario loses 24).
        let mut island = persistent_surveillance(150, 7);
        let moved: Vec<NodeSpec> = island
            .catalog
            .with_affiliation(Affiliation::Blue)
            .into_iter()
            .filter(|n| n.id() != island.command_post)
            .take(12)
            .cloned()
            .collect();
        for (i, spec) in moved.into_iter().enumerate() {
            let position = Point::new(20_000.0 + 40.0 * i as f64, 20_000.0);
            island.catalog.upsert(spec.with_position(position));
        }
        let report = run_mission(&island, &quick_config());
        assert_eq!((report.recruited, report.unreachable), (143, 38));
        assert_eq!(digest_hash(&report.digest), 0xa0fe_a94b_0314_49c4);

        // No command post in the catalog: nobody can reach it.
        let mut headless = persistent_surveillance(150, 7);
        headless.catalog.remove(headless.command_post);
        let report = run_mission(&headless, &quick_config());
        assert_eq!((report.recruited, report.unreachable), (142, 142));
        assert_eq!(digest_hash(&report.digest), 0x451d_41c1_c88a_d056);
    }

    #[test]
    fn stepped_runner_matches_run_mission() {
        let scenario = persistent_surveillance(80, 11);
        let cfg = quick_config();
        let whole = run_mission(&scenario, &cfg);
        let mut runner = MissionRunner::new(&scenario, &cfg);
        assert_eq!(runner.total_windows(), 6);
        let mut stepped = Vec::new();
        while let StepOutcome::WindowClosed { window, stats } = runner.step_window() {
            assert_eq!(window, stepped.len(), "window indices arrive in order");
            stepped.push(stats);
        }
        assert!(runner.step_window().is_finished(), "stays Finished");
        assert!(runner.is_finished());
        assert_eq!(runner.window_index(), 6);
        let report = runner.finish();
        assert_eq!(stepped, whole.windows);
        assert_eq!(report.digest, whole.digest);
    }

    #[test]
    fn acked_tasking_delivers_assignments_before_reports_flow() {
        let scenario = persistent_surveillance(120, 5);
        let cfg = RunConfig::builder()
            .duration(SimDuration::from_secs_f64(60.0))
            .window(SimDuration::from_secs_f64(10.0))
            .acked_tasking(true)
            .build()
            .unwrap();
        let report = run_mission(&scenario, &cfg);
        let tasking = report.digest.resilience.tasking;
        assert!(tasking.assigned > 0, "someone must be tasked");
        assert!(tasking.acked > 0, "reachable sensors must ack");
        assert!(tasking.acked <= tasking.assigned);
        assert!(
            report.mean_utility() > 0.0,
            "tasked sensors must still report"
        );
    }

    #[test]
    fn early_repair_suspects_silenced_nodes_between_windows() {
        use iobt_faults::FaultPlan;
        use iobt_netsim::SimTime;
        use iobt_types::{Point, Rect};

        let mut scenario = persistent_surveillance(150, 7);
        // A permanent blackout over one quadrant silences every selected
        // sensor inside it mid-window; the detector must notice without
        // waiting for the window to close.
        scenario.fault_plan = FaultPlan::new().blackout(
            SimTime::from_secs_f64(15.0),
            Rect::new(Point::new(0.0, 0.0), Point::new(1_500.0, 1_500.0)),
            None,
        );
        let cfg = RunConfig::builder()
            .duration(SimDuration::from_secs_f64(60.0))
            .window(SimDuration::from_secs_f64(10.0))
            .early_repair(true)
            .build()
            .unwrap();
        let report = run_mission(&scenario, &cfg);
        let res = report.digest.resilience;
        assert!(res.suspected > 0, "blackout victims must be suspected");
        assert!(
            res.early_repairs > 0,
            "suspicion must trigger at least one early repair"
        );
        // Same seed, same config: the whole reaction history replays.
        let again = run_mission(&scenario, &cfg);
        assert_eq!(report.digest, again.digest);
    }

    #[test]
    fn degradation_ladder_sheds_when_coverage_collapses() {
        use iobt_faults::FaultPlan;
        use iobt_netsim::SimTime;

        let mut scenario = persistent_surveillance(120, 5);
        // A permanent blackout over the whole theater: nothing can
        // report, utility pins to zero, and the ladder must shed rather
        // than thrash on repairs it cannot complete.
        scenario.fault_plan = FaultPlan::new().blackout(
            SimTime::from_secs_f64(12.0),
            scenario.mission.area(),
            None,
        );
        let cfg = RunConfig::builder()
            .duration(SimDuration::from_secs_f64(60.0))
            .window(SimDuration::from_secs_f64(10.0))
            .degradation_ladder(true)
            .build()
            .unwrap();
        let report = run_mission(&scenario, &cfg);
        let res = report.digest.resilience;
        assert!(res.sheds >= 1, "ladder must shed under total blackout");
        assert!(res.final_ladder_level >= 1);
        assert_eq!(res.restores, 0, "nothing recovers: no restores");
    }

    #[test]
    fn reaction_features_are_inert_by_default() {
        let scenario = persistent_surveillance(120, 5);
        let report = run_mission(&scenario, &quick_config());
        let res = report.digest.resilience;
        assert_eq!(res, ResilienceReport::default());
        assert_eq!(report.digest.tampered, 0);
    }

    #[test]
    fn builder_covers_resilience_fields() {
        let built = RunConfig::builder()
            .early_repair(true)
            .degradation_ladder(true)
            .acked_tasking(true)
            .build()
            .unwrap();
        assert!(built.early_repair);
        assert!(built.degradation_ladder);
        assert!(built.acked_tasking);
    }
}
