//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```sh
//! # One workload, as the driver runs it (the last line is the result):
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fleet_churn --seed 42 --seconds 10 --trace 0
//! # Every workload, untraced then traced, each in its own child process:
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --seed 42
//! # Two result sets against the benchmark's own bounds:
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare a.json b.json
//! ```

#![forbid(unsafe_code)]

mod compare;
mod metrics;
mod report;
mod runner;
mod stats;
mod timed;
mod trace;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  iobt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  iobt-benchmark run [--seed <n>] [--seconds <s>] [--quick] [--repeat <k>] [--out <file>]
  iobt-benchmark trace [--seed <n>] [--seconds <s>] [--quick]
  iobt-benchmark compare <a.json> <b.json>
workloads: large_mission netsim_dense netsim_mobile fleet_churn bridge_stream";

/// `--flag value` lookup over the raw argument list.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None if self.0.iter().any(|a| a == flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
            Some(text) => text.parse().map_err(|_| format!("{flag}: cannot read {text:?}")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let outcome = match args.0.first().map(String::as_str) {
        Some("run") => report::run_all(&args, true),
        Some("trace") => report::run_all(&args, false),
        Some("compare") => match (args.0.get(1), args.0.get(2)) {
            (Some(a), Some(b)) => compare::compare(a, b),
            _ => Err("compare needs two result files".to_string()),
        },
        Some(_) if args.has("--workload") => runner::run_workload(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
