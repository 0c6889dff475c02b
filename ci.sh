#!/usr/bin/env bash
# Tier-1 gate plus lint checks. Run from the repository root.
#
#   ./ci.sh            # build, test, matrix gate, doc gates, fmt, clippy
#   ./ci.sh --quick    # skip the release build and the release-profile steps
#   ./ci.sh --help     # this text
#
# Two instruments, and this script holds one of them: the deterministic
# cells of symple-bench (modelled seconds, exact edges and bytes — the
# same on every host and in both profiles). ONE guard catches a moved
# number: `--matrix-identity` against the committed BENCH_matrix.json
# replays every {algo x graph x policy x codec x threads x faults} cell
# and fails unless each serializes to exactly the committed bytes; it runs
# under --quick (debug) and in the full run (release). The full run also
# diffs `experiments all` against the block EXPERIMENTS.md prints. A change
# that means to move a number regenerates the file (`--matrix-json`) or
# the block and says so. Wall clock is benchmark/'s job (BENCHMARK.json);
# here it is only built, unit-tested and smoked.
set -euo pipefail
cd "$(dirname "$0")"

usage() {
  sed -n '2,18p' "$0" | sed 's/^# \{0,1\}//'
  exit "${1:-2}"
}

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --help|-h) usage 0 ;;
    *) echo "ci.sh: unknown flag \`$arg\`" >&2; usage 2 ;;
  esac
done

# Per-step timing: `step NAME` closes the previous step with its elapsed
# seconds and opens the next one.
STEP_NAME=""
STEP_START=$SECONDS
step() {
  if [ -n "$STEP_NAME" ]; then
    echo "-- ${STEP_NAME}: $((SECONDS - STEP_START))s"
  fi
  STEP_NAME="$1"
  STEP_START=$SECONDS
  echo "== $1 =="
}

step "build (release)"
if [ "$QUICK" = 0 ]; then
  cargo build --release --offline --workspace
fi

step "tests (workspace)"
cargo test -q --offline --workspace

step "UDF executor differential tests (release profile)"
# The workspace run above is a debug build: overflow checks on, and the
# `debug_assert` certificate-range checks of `UdfDep` compiled in. The
# job benchmark and every experiment run release, where both are off, so
# the typed-VM-vs-interpreter suites run under that profile too. The
# tests that pin what the bind-time optimiser produces ride along in
# both profiles: the eight committed listings and the ops-per-edge
# budgets (typed_bind), and the optimiser's idempotence/range proptest
# (--lib; debug builds also re-check idempotence inside every bind).
# So do the two dense-path suites: the order oracle and the
# communication-shape pins must hold without the debug assertion that
# catches a program lying about `carries_dependency`, and the latch audit
# must still catch an uncertified violator where debug assertions are off.
# engine_integration rides along because the carried slot's type assertion
# is a release-mode check too: a UDF whose float local was stored an int
# must run, not panic, where jobs are measured. Runs under --quick.
cargo test -q --release --offline -p symple-udf --lib \
  --test typed_vm_differential --test typed_bind --test engine_integration
cargo test -q --release --offline --test exec_equivalence \
  --test dense_path --test dense_comm

step "job benchmark builds and smokes (benchmark/)"
# benchmark/ is a workspace of its own that calls public functions of
# the engine crates (Partition::chunked, DepLayout::high_degree,
# LocalGraph::build, run_spmd, the algorithms). Building it, running its
# unit tests and its scale-10 smoke here makes a change to one of those
# signatures fail CI instead of silently breaking the benchmark. Runs
# under --quick. (tests/prepared_reuse.rs, the gate on prepared-graph
# reuse, already ran with the workspace tests above.)
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run --offline --manifest-path benchmark/Cargo.toml -- smoke

step "backend equivalence gate (sim vs thread transport)"
# Bit-identical outputs, work, CommStats, and virtual time across the
# deterministic simulator and the OS-thread backend, for the algorithm
# suite and a proptest over random graphs. Runs under --quick so the
# GitHub workflow enforces it on every push.
cargo test -q --offline --test backend_equivalence

if [ "$QUICK" = 0 ]; then
  step "scenario-matrix identity gate, release profile (vs committed BENCH_matrix.json)"
  # THE consolidated perf gate, as the release build reads it: replays
  # every cell of the committed matrix (all algorithms x graphs x policies
  # x codec/thread/fault variants) and fails unless each serializes to the
  # committed bytes. Output fingerprints, edge counts, and logical bytes
  # are asserted bit-identical across cells inside the sweep itself. The
  # debug-profile twin below audits every skipped segment of the UDF
  # cells; this one trusts their latch certificates, and both must read
  # the same file.
  cargo run --release --offline -p symple-bench --bin experiments -- \
    --matrix-identity BENCH_matrix.json

  step "doc gate (experiments all vs EXPERIMENTS.md \"Full output\")"
  # Every report is modelled or counted, so the stdout of `experiments all`
  # is byte-deterministic and EXPERIMENTS.md's fenced "Full output" block
  # must be exactly it. Running all eighteen reports also runs every
  # assertion they make inline (the fault sweep's bit-identity under a
  # chaos plan, the codec's, the UDF certificates', the matrix's).
  cargo run --release --offline -p symple-bench --bin experiments -- all |
    diff - <(awk '/^## Full output/ {sec = 1} sec && /^```/ {if (blk) exit; blk = 1; next} blk' \
      EXPERIMENTS.md)
fi

step "scenario-matrix smoke (SNAP karate, all knobs)"
# The matrix restricted to the real SNAP-loaded karate graph: every
# workload (BFS, K-core, SSSP, CC, PageRank), both policies, and all
# three knob variants, with the cross-cell bit-identity invariants
# asserted inline. Runs under --quick so every push exercises the SNAP
# loader and the new kernels end to end.
cargo run --offline -p symple-bench --bin experiments -- --matrix-smoke

step "scenario-matrix identity gate (vs committed BENCH_matrix.json)"
# Replays all 58 cells and fails unless each one serializes to exactly
# the committed bytes — knobs, virtual seconds, data bytes, edges,
# fingerprint; no cell may read lower either. Modelled quantities, so
# the debug build (~12 s) reads the same as release. Runs under --quick.
cargo run --offline -p symple-bench --bin experiments -- \
  --matrix-identity BENCH_matrix.json

step "symple-lint (paper UDFs + scenario-matrix UDFs)"
# Lints the five paper kernels plus the SSSP/CC/PageRank matrix kernels
# (pretty-printed to source so spans exercise the full parser path);
# exits nonzero on any error-severity diagnostic.
cargo run --offline --example symple_lint
# The corpus legitimately warns (kcore W004, sampling W005/W008, cc
# W007, ...), so the strict gate must trip on it — an inverted probe
# that the --deny-warnings plumbing actually gates.
if cargo run --offline --example symple_lint -- --deny-warnings >/dev/null 2>&1; then
  echo "ci.sh: symple-lint --deny-warnings failed to gate a warning corpus" >&2
  exit 1
fi
# And --explain must know every code the lint table documents.
for code in E000 E001 E002 E003 E004 E005 E006 E007 \
            W001 W002 W003 W004 W005 W006 W007 W008; do
  cargo run --offline --example symple_lint -- --explain "$code" >/dev/null
done

step "rustdoc (warnings are errors)"
# Every intra-doc link must resolve to one item: a link to something a
# change deleted, or an ambiguous one, fails here. Runs under --quick.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

step "rustfmt"
cargo fmt --check

step "clippy"
cargo clippy --offline --workspace --all-targets -- -D warnings

step "done"
echo "ci.sh: all checks passed"
