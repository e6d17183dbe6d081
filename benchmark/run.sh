#!/usr/bin/env bash
# The benchmark's one command. Builds the harness (release, offline) and
# runs it from the repository root, where `benchmark/out/` resolves.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload in this process; the last stdout line is the result
#   benchmark/run.sh [--seed N] [--smoke] [--record] [--repeat-check]
#       every workload, each in its own child process
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --locked --quiet \
    --manifest-path benchmark/Cargo.toml -- "$@"
