//! The five workloads and what one repetition of each returns.
//!
//! A repetition builds its inputs from the seed (timed as set-up), runs a
//! fixed unit of work (the timed section) and fingerprints the result.
//! The same code runs traced and untraced; a traced repetition installs
//! the decorators of [`crate::timed`] and records spans, nothing else.
//!
//! Every scenario the workloads use is built on a pinned theatre: the
//! node positions and terrain come from a constant, and the seed draws
//! everything stochastic on top of it (emissions, channel loss, churn,
//! assurance trials). Cost on a freshly drawn theatre swings by a factor
//! of two to three between seeds (`large_mission` composes in 1.3 s to
//! 3.8 s at 1,500 nodes), which would drown any 10% bound.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use crate::trace::Tracer;

pub mod bridge_stream;
pub mod fleet_churn;
pub mod large_mission;
pub mod netsim;

/// Per-layer metric values of one traced repetition, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What a workload is given for one repetition.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Shrink the unit of work to well under a second (`--quick`).
    pub quick: bool,
    /// Directory the repetition may create and must remove.
    pub scratch: PathBuf,
    /// Repetition id; spans of the repetition carry it.
    pub rep: u32,
    /// Present in a traced repetition.
    pub tracer: Option<Rc<Tracer>>,
    /// First traced repetition of the process: the place for once-only
    /// side measurements.
    pub first_traced: bool,
}

impl Ctx {
    /// Runs `f` and returns its result with its duration in seconds; in
    /// a traced repetition the call is also recorded as a span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        match &self.tracer {
            Some(tracer) => tracer.time(name, f),
            None => {
                let start = Instant::now();
                let out = f();
                (out, start.elapsed().as_secs_f64())
            }
        }
    }

    /// Builds a workload's inputs `repeats` times and returns the last
    /// build with the shortest build time.
    pub fn setup<T>(
        &self,
        name: &'static str,
        repeats: usize,
        mut build: impl FnMut() -> T,
    ) -> (T, f64) {
        (0..repeats.max(1))
            .map(|_| self.time(name, &mut build))
            .reduce(|(_, best), (out, secs)| (out, best.min(secs)))
            .expect("at least one build ran")
    }
}

/// Times a set-up that takes milliseconds is repeated within one
/// repetition, so that `setup_s` is the best of several readings and not
/// one noisy one.
pub const SMALL_SETUP_REPEATS: usize = 5;

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Input generation before the timed section, seconds.
    pub setup_s: f64,
    /// The timed section, seconds.
    pub wall_s: f64,
    /// Units of the workload's own work done (`work / work_s` is
    /// `work_per_s`).
    pub work: f64,
    /// Seconds of the phase that did the work.
    pub work_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Fingerprint of everything the repetition computed.
    pub fingerprint: u64,
    /// Named phase timings for the human-readable report.
    pub phases: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced repetitions only).
    pub layers: Layers,
}

/// A workload as `BENCHMARK.json` names it.
pub struct Workload {
    /// Name.
    pub name: &'static str,
    /// What one unit of `work` is.
    pub work_unit: &'static str,
    /// One repetition.
    pub run: fn(&Ctx) -> Outcome,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 5] = [
    Workload { name: "large_mission", work_unit: "nodes composed", run: large_mission::run },
    Workload { name: "netsim_dense", work_unit: "events", run: netsim::run_dense },
    Workload { name: "netsim_mobile", work_unit: "events", run: netsim::run_mobile },
    Workload { name: "fleet_churn", work_unit: "missions", run: fleet_churn::run },
    Workload { name: "bridge_stream", work_unit: "frames", run: bridge_stream::run },
];

/// Folds a mission's end state into a fingerprint through its canonical
/// checkpoint encoding.
pub fn fold_digest(fp: &mut u64, digest: &iobt::EndStateDigest) {
    let mut enc = iobt::ckpt::Enc::new();
    iobt::core::encode_end_state_digest(&mut enc, digest);
    crate::stats::fnv1a(fp, &enc.into_bytes());
}

/// Seed of the pinned theatre (see the module docs).
pub const THEATRE_SEED: u64 = 7;
