//! `compare <a.json> <b.json>`: two result sets against the benchmark's
//! own bounds, one row per (end-to-end metric, workload).

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::report::{ResultSet, Stat};
use crate::stats::{max, min, spread};
use crate::workloads::ALL;

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the medians cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against base `a` for one metric. Returns the verdict, the
/// ratio `b / a` of the medians and the wider of the two spreads.
pub fn judge(metric: &EndToEnd, a: &Stat, b: &Stat) -> (Verdict, f64, f64) {
    let ratio = b.median / a.median;
    let wider = spread(&a.runs).max(spread(&b.runs));
    let worse_by = match metric.better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let every_b_better = match metric.better {
        Better::Lower => max(&b.runs) < min(&a.runs),
        Better::Higher => min(&b.runs) > max(&a.runs),
    };
    let verdict = if wider > metric.bound && !every_b_better {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, ratio, wider)
}

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the table; `Ok(false)` when any row is `worse` or either set
/// holds a failed workload.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    if (a.seed, a.quick) != (b.seed, b.quick) {
        return Err(format!(
            "the sets ran different inputs: seed {} quick {} against seed {} quick {}",
            a.seed, a.quick, b.seed, b.quick
        ));
    }
    println!("base a = {path_a}, b = {path_b}");
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "b/a", "bound", "spread"
    );
    let mut ok = true;
    for workload in &ALL {
        let (Some(wa), Some(wb)) = (a.workloads.get(workload.name), b.workloads.get(workload.name))
        else {
            return Err(format!("{} is missing from a result set", workload.name));
        };
        for (side, w) in [("a", wa), ("b", wb)] {
            if !w.correct || w.failed > 0 {
                println!(
                    "{:<14} failed in {side}: {} of {} operations",
                    workload.name, w.failed, w.attempted
                );
                ok = false;
            }
        }
        if wa.fingerprint != wb.fingerprint {
            println!(
                "{:<14} fingerprints differ: {} against {}",
                workload.name, wa.fingerprint, wb.fingerprint
            );
            ok = false;
        }
        for metric in &END_TO_END {
            let (Some(sa), Some(sb)) = (wa.e2e.get(metric.name), wb.e2e.get(metric.name)) else {
                return Err(format!("{} has no {} in a result set", workload.name, metric.name));
            };
            let (verdict, ratio, wider) = judge(metric, sa, sb);
            ok &= verdict != Verdict::Worse;
            println!(
                "{:<14} {:<12} {:>14.4} {:>14.4} {:>9.4} {:>7.2} {:>7.4}  {}",
                workload.name,
                metric.name,
                sa.median,
                sb.median,
                ratio,
                metric.bound,
                wider,
                verdict.as_str()
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(runs: &[f64]) -> Stat {
        Stat {
            unit: "s".into(),
            median: crate::stats::median(runs),
            runs: runs.to_vec(),
            reps: Vec::new(),
        }
    }

    const WALL: EndToEnd = END_TO_END[1];
    const RATE: EndToEnd = END_TO_END[2];

    #[test]
    fn steady_metrics_are_judged_by_their_medians() {
        let a = stat(&[1.00, 1.01, 0.99, 1.00]);
        assert_eq!(judge(&WALL, &a, &stat(&[1.20, 1.21, 1.19, 1.20])).0, Verdict::Ok);
        assert_eq!(judge(&WALL, &a, &stat(&[1.35, 1.36, 1.34, 1.35])).0, Verdict::Worse);
        assert_eq!(judge(&WALL, &a, &stat(&[0.50, 0.51, 0.49, 0.50])).0, Verdict::Ok);
        // Higher-is-better turns the sign round.
        assert_eq!(judge(&RATE, &a, &stat(&[0.65, 0.66, 0.64, 0.65])).0, Verdict::Worse);
        assert_eq!(judge(&RATE, &a, &stat(&[1.50, 1.51, 1.49, 1.50])).0, Verdict::Ok);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = stat(&[0.8, 1.0, 1.2, 1.4]);
        assert_eq!(judge(&WALL, &noisy, &stat(&[1.3, 1.3, 1.3, 1.3])).0, Verdict::Unresolved);
        assert_eq!(judge(&WALL, &noisy, &stat(&[0.5, 0.6, 0.7, 0.75])).0, Verdict::Ok);
    }
}
