#!/usr/bin/env bash
# Builds the benchmark and runs every workload, each in a process of its
# own; results land in benchmark/out/<workload>.json.
#
#   benchmark/run.sh                 untraced suite
#   benchmark/run.sh --traced        untraced, then traced (per-layer ledger + span dumps)
#   benchmark/run.sh --twice         untraced suite twice; fails unless the two passes agree
#   benchmark/run.sh --seed 7 --seconds 5
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --all "$@"
