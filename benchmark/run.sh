#!/usr/bin/env bash
# One command for the whole benchmark: build release, run, check outputs,
# print every metric by name with its unit.
#
#   benchmark/run.sh [--workload relay|match|durable|churn] [--seed N]
#                    [--seconds S] [--trace [0|1]] [--quick] [--selfcheck]
#
# Without --workload the four workloads run in sequence. The last line of
# output per workload is the JSON object BENCHMARK.json's contract asks for.
# See benchmark/README.md.
set -euo pipefail

# Always run from the checkout root: trace files and the noise table (and,
# where there is no /dev/shm, the durable workload's WALs) go to
# benchmark/out/ relative to it.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The build is the only step that reads outside benchmark/: the path
# dependencies in benchmark/Cargo.toml point at ../crates and ../vendor, so
# in a directory that lacks them it fails here, before anything is printed.
# Cargo's progress goes to stderr; stdout carries results only.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

target="${CARGO_TARGET_DIR:-benchmark/target}"
exec "$target/release/chainbench" "$@"
