#!/usr/bin/env bash
# The agreement check: `run` twice on one build, then `compare` both ways.
# Exits nonzero if either run is worse than the other by more than a bound
# on any workload x end-to-end metric, has a larger share of failed jobs,
# or differs from it at all in an exact counter (same seed, same build:
# they must be bit-identical).
#
#   benchmark/check.sh [seed]        (default seed 27)
set -euo pipefail
cd "$(dirname "$0")"
seed="${1:-27}"
cargo build --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/symple-benchmark"
"$bin" run --seed "$seed" --out results/check-a.json
"$bin" run --seed "$seed" --out results/check-b.json
"$bin" compare results/check-a.json results/check-b.json
"$bin" compare results/check-b.json results/check-a.json
