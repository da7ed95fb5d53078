//! `pairs` — runs two benchmark commands alternately, one process per run,
//! and says per metric whether the second beats the first.
//!
//! ```sh
//! cargo build --release -p iobt-bench --bin pairs
//! target/release/pairs --rounds 10 \
//!     -- parent/benchmark/target/release/iobt-benchmark --workload fleet_churn --seed 42 --seconds 15 --trace 0 \
//!     -- benchmark/target/release/iobt-benchmark --workload fleet_churn --seed 42 --seconds 15 --trace 0
//! ```
//!
//! The first command is the parent, the second the change. Round `r` runs
//! the parent first when `r` is even and the change first when it is odd,
//! so a drift in the machine's load reaches both sides alike. Each run
//! must print what the repository benchmark prints for one workload: a
//! `detail: {…}` line whose `"fingerprint"` names what it computed, and as
//! its last line the result object `{"correct": …, "metrics": {"name":
//! {"value": v, "unit": u}, …}}`. A run that is not `correct`, or whose
//! fingerprint differs from the first run's, stops the comparison (exit
//! 2): two builds that compute different things have no speed to compare.
//!
//! For each metric it prints both sides' medians and interquartile ranges
//! (linear-interpolated quartiles), how many pairs the change won, and the
//! verdict: `win` when the change wins at least nine pairs in ten *and*
//! its median beats the parent's by more than the parent's interquartile
//! range, `loss` in the mirror case, `unresolved` otherwise. A metric
//! whose unit is a rate (`1/…`) is better higher; any other, lower.

use std::process::{Command, ExitCode, Stdio};

/// A parsed JSON value: as much of JSON as a result line needs.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let value = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing text at byte {}", p.i));
        }
        Ok(value)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&byte) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(format!("unknown literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.i += 1;
                }
                let text =
                    std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number '{text}' at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let byte = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match byte {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let escaped = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    let c = match escaped {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            self.i += 4;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)
                        }
                        other => other as char,
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                }
                other => out.push(other),
            }
        }
    }
}

/// What one run reported.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    fingerprint: String,
    /// `(name, unit, value)` in the order the run printed them.
    metrics: Vec<(String, String, f64)>,
}

/// Reads a run's `detail:` fingerprint and its last-line result.
fn read_run(stdout: &str) -> Result<Run, String> {
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail: "))
        .ok_or("no `detail:` line")?;
    let fingerprint = match Json::parse(detail)?.get("fingerprint") {
        Some(Json::Str(fp)) => fp.clone(),
        _ => return Err("the `detail:` line has no fingerprint".to_string()),
    };
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no output")?;
    let result = Json::parse(last)?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("the run was not correct: {last}"));
    }
    let Some(Json::Obj(fields)) = result.get("metrics") else {
        return Err("the result line has no metrics".to_string());
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| match (m.get("value"), m.get("unit")) {
            (Some(Json::Num(v)), Some(Json::Str(u))) => Ok((name.clone(), u.clone(), *v)),
            _ => Err(format!("metric {name} has no value and unit")),
        })
        .collect::<Result<_, String>>()?;
    Ok(Run {
        fingerprint,
        metrics,
    })
}

/// Linear-interpolated quantile `q` of a non-empty sample.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn iqr(values: &[f64]) -> f64 {
    quantile(values, 0.75) - quantile(values, 0.25)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Win,
    Loss,
    Unresolved,
}

/// One metric over the rounds: the pair `parent[r]`, `change[r]` is round
/// `r`'s.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    parent_median: f64,
    parent_iqr: f64,
    change_median: f64,
    change_iqr: f64,
    /// Pairs the change won and lost (a tie is neither).
    wins: usize,
    losses: usize,
    verdict: Verdict,
}

/// The verdict rule: the change wins at least nine pairs in ten, and its
/// median beats the parent's by more than the parent's interquartile
/// range; a loss is the same rule with the sides swapped.
fn judge(parent: &[f64], change: &[f64], higher_is_better: bool) -> Row {
    assert_eq!(parent.len(), change.len(), "one pair per round");
    assert!(!parent.is_empty(), "at least one round");
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let losses = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(p, c))
        .count();
    let (parent_median, change_median) = (quantile(parent, 0.5), quantile(change, 0.5));
    let parent_iqr = iqr(parent);
    let gap = (change_median - parent_median).abs();
    let most = |n: usize| n * 10 >= parent.len() * 9;
    let verdict = if most(wins) && better(change_median, parent_median) && gap > parent_iqr {
        Verdict::Win
    } else if most(losses) && better(parent_median, change_median) && gap > parent_iqr {
        Verdict::Loss
    } else {
        Verdict::Unresolved
    };
    Row {
        parent_median,
        parent_iqr,
        change_median,
        change_iqr: iqr(change),
        wins,
        losses,
        verdict,
    }
}

/// Splits `[--rounds N] -- parent… -- change…`.
fn parse_args(args: &[String]) -> Result<(usize, Vec<String>, Vec<String>), String> {
    let usage = "usage: pairs [--rounds N] -- <parent command…> -- <change command…>";
    let first = args.iter().position(|a| a == "--").ok_or(usage)?;
    let rounds = match &args[..first] {
        [] => 10,
        [flag, n] if flag == "--rounds" => n.parse().map_err(|_| format!("bad --rounds {n}"))?,
        _ => return Err(usage.to_string()),
    };
    let rest = &args[first + 1..];
    let second = rest.iter().position(|a| a == "--").ok_or(usage)?;
    let (parent, change) = (rest[..second].to_vec(), rest[second + 1..].to_vec());
    if rounds == 0 || parent.is_empty() || change.is_empty() {
        return Err(usage.to_string());
    }
    Ok((rounds, parent, change))
}

fn run_once(command: &[String]) -> Result<Run, String> {
    let output = Command::new(&command[0])
        .args(&command[1..])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {}: {e}", command[0]))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", command[0], output.status));
    }
    read_run(&String::from_utf8_lossy(&output.stdout))
}

/// Runs `rounds` pairs through `run(side)` (0 = parent, 1 = change),
/// parent first in even rounds and change first in odd ones, and refuses
/// a run whose fingerprint differs from the first run's.
fn alternate(
    rounds: usize,
    mut run: impl FnMut(usize) -> Result<Run, String>,
) -> Result<[Vec<Run>; 2], String> {
    let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    let mut first: Option<String> = None;
    for r in 0..rounds {
        let order = if r % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let done = run(side).map_err(|why| format!("round {}: {why}", r + 1))?;
            let first = first.get_or_insert_with(|| done.fingerprint.clone());
            if done.fingerprint != *first {
                return Err(format!(
                    "round {}: fingerprint {} differs from {first}: the two commands compute different things",
                    r + 1,
                    done.fingerprint
                ));
            }
            runs[side].push(done);
        }
        eprintln!("round {}/{rounds} done", r + 1);
    }
    Ok(runs)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (rounds, parent_cmd, change_cmd) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    let commands = [&parent_cmd, &change_cmd];
    let runs = match alternate(rounds, |side| run_once(commands[side])) {
        Ok(runs) => runs,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };

    println!(
        "fingerprint {} in all {} runs",
        runs[0][0].fingerprint,
        2 * rounds
    );
    println!(
        "{:<16} {:<6} {:>26} {:>26} {:>8} {:>6}  verdict",
        "metric", "unit", "parent median [IQR]", "change median [IQR]", "ratio", "wins"
    );
    for (name, unit, _) in &runs[0][0].metrics {
        let side = |s: usize| -> Option<Vec<f64>> {
            runs[s]
                .iter()
                .map(|run| run.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.2))
                .collect()
        };
        let (Some(parent), Some(change)) = (side(0), side(1)) else {
            println!("{name:<16} missing from some runs");
            continue;
        };
        let row = judge(&parent, &change, unit.starts_with("1/"));
        println!(
            "{name:<16} {unit:<6} {:>14.6} [{:>9.6}] {:>14.6} [{:>9.6}] {:>8.3} {:>3}/{rounds}  {:?}",
            row.parent_median,
            row.parent_iqr,
            row.change_median,
            row.change_iqr,
            row.change_median / row.parent_median,
            row.wins,
            row.verdict
        );
        let fmt = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.6}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("  parent: {}\n  change: {}", fmt(&parent), fmt(&change));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_wins_in_ten_by_more_than_the_parent_iqr_is_a_win() {
        let parent = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0];
        let mut change = parent.map(|p| p * 0.7);
        change[3] = 1.2; // one lost pair is allowed
        let row = judge(&parent, &change, false);
        assert_eq!((row.wins, row.losses), (9, 1));
        assert_eq!(row.verdict, Verdict::Win);
    }

    #[test]
    fn eight_wins_in_ten_is_unresolved_however_large_the_gap() {
        let parent = [1.0; 10];
        let mut change = [0.5; 10];
        change[0] = 1.5;
        change[1] = 1.5;
        assert_eq!(judge(&parent, &change, false).verdict, Verdict::Unresolved);
    }

    #[test]
    fn a_gap_inside_the_parent_iqr_is_unresolved_even_at_ten_wins() {
        // Parent quartiles 1.0 and 2.0: a median 0.5 lower wins every pair
        // but moves less than the parent's own spread.
        let parent = [0.6, 1.0, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.0, 2.4];
        let change = parent.map(|p| p - 0.5);
        let row = judge(&parent, &change, false);
        assert_eq!(row.wins, 10);
        assert!(row.parent_iqr > 0.5, "{row:?}");
        assert_eq!(row.verdict, Verdict::Unresolved);
    }

    #[test]
    fn a_rate_is_better_higher_and_a_slower_change_is_a_loss() {
        let parent = [100.0, 101.0, 99.0, 100.0];
        let faster = [150.0, 149.0, 151.0, 150.0];
        assert_eq!(judge(&parent, &faster, true).verdict, Verdict::Win);
        assert_eq!(judge(&parent, &faster, false).verdict, Verdict::Loss);
        assert_eq!(judge(&faster, &parent, true).verdict, Verdict::Loss);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let row = judge(&[1.0, 2.0], &[1.0, 2.0], false);
        assert_eq!(
            (row.wins, row.losses, row.verdict),
            (0, 0, Verdict::Unresolved)
        );
    }

    const DETAIL: &str = r#"detail: {"workload":"fleet_churn","seed":42,"fingerprint":"d36cc997d9c4ac37","samples":{"wall_s":[0.5,0.4]}}"#;
    const RESULT: &str = r#"{"correct": true, "attempted": 96, "failed": 0, "metrics": {"wall_s": {"value": 0.384, "unit": "s"}, "work_per_s": {"value": 83.3, "unit": "1/s"}}}"#;

    #[test]
    fn a_run_reads_its_fingerprint_and_last_line_metrics() {
        let run = read_run(&format!("progress\n{DETAIL}\n{RESULT}\n")).expect("a run");
        assert_eq!(run.fingerprint, "d36cc997d9c4ac37");
        assert_eq!(
            run.metrics,
            vec![
                ("wall_s".to_string(), "s".to_string(), 0.384),
                ("work_per_s".to_string(), "1/s".to_string(), 83.3),
            ]
        );
    }

    #[test]
    fn a_run_without_a_fingerprint_or_correct_output_is_refused() {
        assert!(read_run(RESULT).is_err(), "no detail line");
        let wrong = RESULT.replace("\"correct\": true", "\"correct\": false");
        assert!(read_run(&format!("{DETAIL}\n{wrong}")).is_err());
    }

    #[test]
    fn json_reads_escapes_nesting_and_rejects_garbage() {
        let v = Json::parse(r#"{"a": [1, -2.5e1, null], "b": "x\"é\n", "c": {}}"#).expect("json");
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-25.0),
                Json::Null
            ]))
        );
        assert_eq!(v.get("b"), Some(&Json::Str("x\"é\n".to_string())));
        assert_eq!(v.get("c"), Some(&Json::Obj(Vec::new())));
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn rounds_alternate_the_order_and_a_moved_fingerprint_stops_them() {
        let run = |fp: &str, v: f64| Run {
            fingerprint: fp.to_string(),
            metrics: vec![("wall_s".to_string(), "s".to_string(), v)],
        };
        let mut order = Vec::new();
        let runs = alternate(3, |side| {
            order.push(side);
            Ok(run("ab", side as f64))
        })
        .expect("same fingerprints");
        assert_eq!(order, [0, 1, 1, 0, 0, 1]);
        assert_eq!((runs[0].len(), runs[1].len()), (3, 3));
        assert!(runs[1].iter().all(|r| r.metrics[0].2 == 1.0));

        let mut calls = 0;
        let refused = alternate(3, |side| {
            calls += 1;
            Ok(run(if side == 0 { "ab" } else { "cd" }, 0.0))
        });
        assert!(
            matches!(&refused, Err(why) if why.contains("differs")),
            "{refused:?}"
        );
        assert_eq!(calls, 2, "stops at the first run that differs");
    }

    #[test]
    fn arguments_split_at_the_two_separators() {
        let args: Vec<String> = ["--rounds", "4", "--", "a", "-x", "--", "b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            parse_args(&args),
            Ok((
                4,
                vec!["a".to_string(), "-x".to_string()],
                vec!["b".to_string()]
            ))
        );
        assert!(parse_args(&args[2..5]).is_err(), "one command only");
    }
}
