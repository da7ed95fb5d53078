//! One workload in one process, as the driver runs it: repeat the
//! workload's unit of work until `--seconds` have passed, check the
//! fingerprints, report the best repetition.
//!
//! Best, not median: on a shared two-core box the noise only ever adds
//! time, in bursts of a second or two that hit one or two repetitions of
//! a run. Over ten runs of `netsim_dense` the per-run median spread 7.2%
//! (interquartile over median) and the per-run best 4.4%; on
//! `large_mission` 2.5% against 1.6%. The median, minimum and maximum of
//! the repetitions are printed and kept in the `detail:` line.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use crate::metrics::{result_line, Better, END_TO_END, PER_LAYER};
use crate::stats::{max, median, min};
use crate::trace::Tracer;
use crate::workloads::{Ctx, Outcome, Workload, ALL};
use crate::Args;

/// Seed whose fingerprints are committed in `expected.json`.
pub const REFERENCE_SEED: u64 = 42;

/// Fingerprints at [`REFERENCE_SEED`], by mode (`full`, `quick`) and
/// workload. Embedded so the check needs no path at run time.
const EXPECTED: &str = include_str!("../expected.json");

/// Everything `run` and `compare` want from a child beyond the result
/// line, printed as the `detail:` line.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct Detail {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// `--quick` sizes.
    pub quick: bool,
    /// Fingerprint of the first repetition (hex); a correct run's
    /// repetitions all share it.
    pub fingerprint: String,
    /// Per-repetition samples of each end-to-end metric.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Per-repetition samples of the workload's named phases, and of the
    /// traced repetitions' `wall_s` in a traced run.
    pub phases: BTreeMap<String, Vec<f64>>,
}

/// Where the benchmark may write: `benchmark/target/` of the checkout it
/// was built in (the driver builds it in the checkout it runs it from).
pub fn scratch_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target"))
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?.trim();
        rest.trim_end_matches("kB").trim().parse::<f64>().ok()
    });
    kb.map_or(0.0, |kb| kb / 1024.0)
}

fn expected_fingerprint(quick: bool, workload: &str) -> Option<String> {
    let table: BTreeMap<String, BTreeMap<String, String>> = serde_json::from_str(EXPECTED).ok()?;
    let mode = if quick { "quick" } else { "full" };
    table.get(mode)?.get(workload).cloned()
}

/// The untraced repetitions of a run and, in a traced run, the traced
/// ones interleaved with them.
struct Reps {
    plain: Vec<Outcome>,
    traced: Vec<Outcome>,
}

impl Reps {
    fn all(&self) -> impl Iterator<Item = &Outcome> {
        self.plain.iter().chain(&self.traced)
    }
}

/// Repeats the workload until `seconds` have passed: at least three
/// untraced repetitions, or two pairs in a traced run, which alternates
/// untraced and traced ones so both see the same machine state. `--quick`
/// stops at two, enough to compare fingerprints.
fn repeat(
    workload: &Workload,
    seed: u64,
    quick: bool,
    seconds: f64,
    tracer: Option<&Rc<Tracer>>,
) -> Result<Reps, String> {
    let scratch = scratch_root().join(format!("work/{}-{}", std::process::id(), workload.name));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let min_reps = if quick || tracer.is_some() { 2 } else { 3 };
    let mut reps = Reps { plain: Vec::new(), traced: Vec::new() };
    let started = Instant::now();
    let mut rep = 0u32;
    loop {
        let ctx =
            Ctx { seed, quick, scratch: scratch.clone(), rep, tracer: None, first_traced: false };
        reps.plain.push((workload.run)(&ctx));
        rep += 1;
        if let Some(tracer) = tracer {
            tracer.begin_run(rep);
            let first_traced = reps.traced.is_empty();
            let ctx = Ctx { rep, tracer: Some(Rc::clone(tracer)), first_traced, ..ctx };
            reps.traced.push((workload.run)(&ctx));
            rep += 1;
        }
        if reps.plain.len() >= min_reps && (quick || started.elapsed().as_secs_f64() >= seconds) {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(reps)
}

/// Whether the run computed the right thing: every repetition of the
/// same inputs (traced or not) has the same fingerprint, and at the
/// reference seed it is the committed one.
fn fingerprints_agree(name: &str, seed: u64, quick: bool, reps: &Reps) -> bool {
    let fingerprint = reps.plain[0].fingerprint;
    let mut correct = true;
    if reps.all().any(|o| o.fingerprint != fingerprint) {
        let seen: Vec<u64> = reps.all().map(|o| o.fingerprint).collect();
        eprintln!("{name}: repetitions of the same inputs disagree: {seen:016x?}");
        correct = false;
    }
    if seed == REFERENCE_SEED {
        let expected = expected_fingerprint(quick, name);
        if expected.as_deref() != Some(format!("{fingerprint:016x}").as_str()) {
            eprintln!("{name}: fingerprint {fingerprint:016x} is not the committed {expected:?}");
            correct = false;
        }
    }
    correct
}

/// The per-layer metrics of a traced run: the median over the traced
/// repetitions that reported each (a side measurement taken once is the
/// median of one), 0 for a layer the workload bypasses.
fn layer_values(reps: &Reps, overhead: f64) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(metric, unit, _)| {
            let seen: Vec<f64> =
                reps.traced.iter().filter_map(|o| o.layers.get(metric).copied()).collect();
            let value = if metric == "trace.overhead_frac" { overhead } else { median(&seen) };
            (metric, value, unit)
        })
        .collect()
}

/// Driver mode. `Ok(true)` once a result line has been printed, whatever
/// it says; the driver reads `correct` and `failed` from the line.
pub fn run_workload(args: &Args) -> Result<bool, String> {
    let name = args.value("--workload").ok_or("--workload needs a name")?;
    let workload =
        ALL.iter().find(|w| w.name == name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = args.parsed("--seed", REFERENCE_SEED)?;
    let seconds: f64 = args.parsed("--seconds", 15.0)?;
    let tracer = match args.parsed("--trace", 0u8)? {
        0 => None,
        1 => Some(Tracer::new()),
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let quick = args.has("--quick");

    let reps = repeat(workload, seed, quick, seconds, tracer.as_ref())?;
    let attempted = reps.all().map(|o| o.attempted).sum::<u64>().max(1);
    let mut failed: u64 = reps.all().map(|o| o.failed).sum();
    if !fingerprints_agree(name, seed, quick, &reps) {
        // A wrong result makes every number of the run meaningless.
        failed = attempted;
    }
    let correct = failed == 0;

    let plain = &reps.plain;
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    samples.insert("setup_s".into(), plain.iter().map(|o| o.setup_s).collect());
    samples.insert("wall_s".into(), plain.iter().map(|o| o.wall_s).collect());
    samples.insert("work_per_s".into(), plain.iter().map(|o| o.work / o.work_s).collect());
    samples.insert("peak_rss_mb".into(), vec![peak_rss_mb()]);
    let mut phases: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (phase, value) in plain.iter().flat_map(|o| &o.phases) {
        phases.entry((*phase).to_string()).or_default().push(*value);
    }
    if tracer.is_some() {
        phases.insert("traced_wall_s".into(), reps.traced.iter().map(|o| o.wall_s).collect());
    }

    let fingerprint = format!("{:016x}", plain[0].fingerprint);
    println!(
        "{name} seed={seed} reps={} fingerprint={fingerprint} work unit: {}",
        plain.len(),
        workload.work_unit
    );
    for (metric, values) in samples.iter().chain(&phases) {
        let unit = END_TO_END.iter().find(|m| m.name == metric).map_or("", |m| m.unit);
        println!(
            "  {metric:<20} median {:>14.4} {unit:<4} (min {:.4}, max {:.4}, n={})",
            median(values),
            min(values),
            max(values),
            values.len()
        );
    }
    let detail = Detail { workload: name.to_string(), seed, quick, fingerprint, samples, phases };
    println!("detail: {}", serde_json::to_string(&detail).map_err(|e| e.to_string())?);

    let values = match &tracer {
        None => END_TO_END
            .iter()
            .map(|m| {
                let reps = &detail.samples[m.name];
                let best = if m.better == Better::Lower { min(reps) } else { max(reps) };
                (m.name, best, m.unit)
            })
            .collect(),
        Some(tracer) => {
            let overhead =
                min(&detail.phases["traced_wall_s"]) / min(&detail.samples["wall_s"]) - 1.0;
            let values = layer_values(&reps, overhead);
            for (metric, value, unit) in values.iter().filter(|(_, v, _)| *v != 0.0) {
                println!("  {metric:<34} {value:>16.6} {unit}");
            }
            let path = scratch_root().join(format!("trace/{name}.spans.jsonl"));
            tracer
                .write_jsonl(&path, name)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("  spans: {}", path.display());
            values
        }
    };
    println!("{}", result_line(correct, attempted, failed, &values));
    Ok(true)
}
