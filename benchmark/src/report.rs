//! `run` and `trace`: every workload, each run in its own child process
//! of this binary (so `VmHWM` is per run), printed metric by metric and
//! optionally saved as a result set for `compare`.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::metrics::{ResultLine, END_TO_END};
use crate::runner::{Detail, REFERENCE_SEED};
use crate::stats::median;
use crate::workloads::ALL;
use crate::Args;

/// One metric on one workload, over the runs (child processes) of a set.
#[derive(Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct Stat {
    /// Unit.
    pub unit: String,
    /// Median of `runs`: what `compare` compares.
    pub median: f64,
    /// The value each run reported (its best repetition).
    pub runs: Vec<f64>,
    /// Every repetition of every run, for the record.
    pub reps: Vec<f64>,
}

impl Stat {
    fn of(unit: &str, runs: Vec<f64>, reps: Vec<f64>) -> Self {
        Stat { unit: unit.to_string(), median: median(&runs), runs, reps }
    }
}

/// One workload of a [`ResultSet`].
#[derive(Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct WorkloadResult {
    /// Every child reported correct outputs.
    pub correct: bool,
    /// Operations attempted, over all children.
    pub attempted: u64,
    /// Operations failed, over all children.
    pub failed: u64,
    /// Result fingerprint (hex).
    pub fingerprint: String,
    /// End-to-end metrics.
    pub e2e: BTreeMap<String, Stat>,
    /// Named phases of the workload (`compose_s`, `frames_per_s`, …).
    pub phases: BTreeMap<String, Stat>,
    /// Per-layer metrics of the traced run.
    pub layers: BTreeMap<String, f64>,
}

/// What `run --out` writes and `compare` reads.
#[derive(Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct ResultSet {
    /// Seed of every run.
    pub seed: u64,
    /// `--quick` sizes.
    pub quick: bool,
    /// Results by workload name.
    pub workloads: BTreeMap<String, WorkloadResult>,
}

/// Runs one child in driver mode; echoes its report and returns its
/// `detail:` and result lines.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<(Detail, ResultLine), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| format!("start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload} exited with {}:\n{stdout}", output.status));
    }
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().ok_or_else(|| format!("{workload} printed nothing"))?;
    let detail = lines
        .iter()
        .position(|l| l.starts_with("detail: "))
        .map(|at| lines.remove(at))
        .ok_or_else(|| format!("{workload} printed no detail line"))?;
    for line in lines {
        println!("{line}");
    }
    let detail = serde_json::from_str(&detail["detail: ".len()..])
        .map_err(|e| format!("{workload} detail: {e}"))?;
    let result = serde_json::from_str(result).map_err(|e| format!("{workload} result: {e}"))?;
    Ok((detail, result))
}

/// `run` (`with_e2e`) and `trace`: `Ok(true)` when every workload was
/// correct with nothing failed.
pub fn run_all(args: &Args, with_e2e: bool) -> Result<bool, String> {
    let seed: u64 = args.parsed("--seed", REFERENCE_SEED)?;
    let seconds: f64 = args.parsed("--seconds", 15.0)?;
    let repeat: usize = args.parsed("--repeat", 1)?;
    let quick = args.has("--quick");
    let mut set = ResultSet { seed, quick, ..ResultSet::default() };
    let mut ok = true;

    for workload in &ALL {
        let mut entry = WorkloadResult { correct: true, ..WorkloadResult::default() };
        let mut runs: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut reps: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut phases: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let fold = |entry: &mut WorkloadResult, detail: &Detail, result: &ResultLine| {
            entry.correct &= result.correct
                && (entry.fingerprint.is_empty() || entry.fingerprint == detail.fingerprint);
            entry.attempted += result.attempted;
            entry.failed += result.failed;
            entry.fingerprint.clone_from(&detail.fingerprint);
        };
        if with_e2e {
            for _ in 0..repeat.max(1) {
                let (detail, result) = child(workload.name, seed, seconds, false, quick)?;
                fold(&mut entry, &detail, &result);
                for (metric, value) in &result.metrics {
                    runs.entry(metric.clone()).or_default().push(value.value);
                }
                for (metric, values) in detail.samples {
                    reps.entry(metric).or_default().extend(values);
                }
                for (phase, values) in detail.phases {
                    phases.entry(phase).or_default().extend(values);
                }
            }
        }
        // The traced run repeats untraced repetitions of its own, so its
        // fingerprint check covers traced against untraced.
        let (detail, result) = child(workload.name, seed, seconds, true, quick)?;
        fold(&mut entry, &detail, &result);
        entry.layers = result.metrics.into_iter().map(|(name, v)| (name, v.value)).collect();
        for m in &END_TO_END {
            if let (Some(runs), Some(reps)) = (runs.remove(m.name), reps.remove(m.name)) {
                entry.e2e.insert(m.name.to_string(), Stat::of(m.unit, runs, reps));
            }
        }
        entry.phases =
            phases.into_iter().map(|(name, reps)| (name, Stat::of("", Vec::new(), reps))).collect();
        let verdict = if entry.correct && entry.failed == 0 { "ok" } else { "FAILED" };
        println!(
            "{}: {verdict} (attempted {}, failed {}, failed_frac {})\n",
            workload.name,
            entry.attempted,
            entry.failed,
            entry.failed as f64 / entry.attempted.max(1) as f64
        );
        ok &= entry.correct && entry.failed == 0;
        set.workloads.insert(workload.name.to_string(), entry);
    }

    if let Some(path) = args.value("--out") {
        let text = serde_json::to_string_pretty(&set).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("write {path}: {e}"))?;
        println!("result set written to {path}");
    }
    Ok(ok)
}
