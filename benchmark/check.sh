#!/usr/bin/env bash
# Smoke check for the benchmark: builds it offline, then runs every
# workload at its `--quick` size (well under 2 s each) and checks the
# seed-42 fingerprints and that nothing failed. Timings are printed but
# not gated, so a CI job can adopt this script as it stands.
#
# Run from the repository root:  benchmark/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --seed 42 --quick

# The benchmark sits inside the tree the linter walks; it must not add a
# finding.
cargo run --offline --quiet -p iobt-lint -- --deny-all --baseline lint-baseline.txt
