#!/usr/bin/env bash
# Tier-1 gate plus lint checks. Run from the repository root.
#
#   ./ci.sh            # raise-site audit, build, test, matrix gate, doc gates, fmt, clippy
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

step "raise-site audit (crates/{net,core}/src, dep_bridge.rs vs DESIGN.md)"
# Every `panic!`, `unwrap()` and `expect(` outside the test modules of
# symple-net and symple-core, and every typed unwind (`resume_unwind(`,
# `panic_any(`: how `NodeCtx::fail` raises a `RunError`), one `path:
# trimmed line` per site (no line numbers, so unrelated edits leave the
# list alone), must equal the
# fenced list under DESIGN.md's "Audited raise sites" heading: a change
# that adds, removes or rewords a site edits that list too. The files
# that decode peer bytes (the wire codec and reader, the dependency
# states, the worker, and UdfDep's dep_bridge.rs) are held to more: an
# `assert!(`, `assert_eq!(` or `assert_ne!(` is a site there too (a
# `debug_assert*` is not). Comment lines (doc examples included) are not
# sites; a file's test module is its last item, so the scan of a file
# stops at its `#[cfg(test)]`. Runs under --quick.
raise_sites() {
  local f sites
  for f in $(printf '%s\n' crates/net/src/*.rs crates/core/src/*.rs crates/udf/src/dep_bridge.rs |
    LC_ALL=C sort); do
    sites='panic!|unwrap[(][)]|expect[(]|resume_unwind[(]|panic_any[(]'
    case "$f" in
      crates/net/src/codec.rs | crates/net/src/wire.rs | crates/core/src/dep.rs | \
        crates/core/src/worker.rs | crates/udf/src/dep_bridge.rs)
        sites="$sites|(^|[^_])assert(_eq|_ne)?![(]" ;;
    esac
    SITES="$sites" awk -v f="$f" '/^#\[cfg\(test\)\]/ {exit} /^[[:space:]]*\/\// {next}
      $0 ~ ENVIRON["SITES"] {sub(/^[[:space:]]+/, ""); print f ": " $0}' "$f"
  done
}
raise_sites | diff - <(awk '/^### Audited raise sites/ {sec = 1} sec && /^```/ {if (blk) exit; blk = 1; next} blk' \
  DESIGN.md)

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
# the typed-VM-vs-interpreter suites run under that profile too, and so
# does source_to_engine (parsed source through the engine against the
# native kernels): jobs are timed in release. The tests that pin what the
# bind-time optimiser produces ride along in both profiles: the eight
# committed listings and the ops-per-edge budgets (typed_bind), which
# pin each paper UDF's loop as a native scan and budget the ops past it,
# and the optimiser's idempotence/range proptest (--lib; debug
# builds also re-check idempotence inside every bind).
# So does the seeded config fuzzer (config_fuzz: a fixed budget of 155
# cases — 32 generated UDFs, 32 paper UDFs, 24 whole kernels, 16
# single-kernel cases and 16 on the dense path (an f64 fold order,
# PageRank native and UDF-driven), each held to its reference, then one
# semantics-free axis flipped, plus 16 that flip the transport between
# the unbounded and the bounded inbox, 4 of them under a pinned chaos
# plan, and 19 that add or remove a random fault plan; the budget is set
# in code, not by any variable). Its graphs come in two classes: up to
# 320 vertices, and one case in eight 8,000-16,000, whose passes span
# several executor chunks and whose update messages span several
# exchange frames (both sizes are constants, so input size is what
# covers them; thread_invariance's two framing tests draw only that
# class and fail unless their runs reach both). The backend and fault
# axes are the two the physical receive path touches, and release is
# where the wall clock is measured. symple-net's
# own tests ride along for the same reason: the bounded-inbox and chaos
# runs (inboxes filled past their 256 envelopes) and the framed-receive
# tests (`recv_frames`' modelled frames against the sender's stagger on
# both inboxes and under chaos, the committed chaos listing
# `framed_chaos.txt`, a stalled framed receive's diagnostic), and
# proptest_faults: random plans' duplicate drops (a copy whose
# (src, tag) is buffered or delivered) and a reused tag's typed failure,
# in the profile where the matrix's chaos cells run. Release is where the `UdfDep` certificate
# range checks are compiled out and the latch audit re-runs only
# uncertified programs' skipped segments. dense_comm's communication-shape
# pins must hold without the debug assertion that catches a program lying
# about `carries_dependency`, and its latch audit must still catch an
# uncertified violator where debug assertions are off.
# engine_integration rides along because the carried slot's type assertion
# is a release-mode check too: a UDF whose float local was stored an int
# must run, not panic, where jobs are measured. symple-algos' unit tests
# ride along for the k-core kernel: its branch-free count is held to the
# per-edge-branch loop it replaced (`kcore::tests`, seeded cases with
# segments longer than 255 edges and slots already at k), and the `u16`
# local and the saturating `CountDep::add` must agree with that oracle
# where overflow checks are off, which is where jobs are timed.
# golden_analysis rides along for the UDF analyses: every certificate,
# carried set and lint finding of its corpus (the paper UDFs, the
# diagnostics sources, 256 generated UDFs) must equal the committed
# listing where the interval arithmetic runs with overflow checks off,
# which the two UDF cells of the matrix only sample.
# symple-core's unit tests ride along for the dependency codec: the
# golden bytes of every state's messages under both codecs and the coded
# round trips of BitDep, CountDep and WeightDep (`dep::tests`) must hold
# with overflow checks and debug assertions off (UdfDep's are in
# symple-udf's --lib above). Runs under --quick.
cargo test -q --release --offline -p symple-udf --lib \
  --test typed_vm_differential --test typed_bind --test engine_integration \
  --test source_to_engine --test golden_analysis
cargo test -q --release --offline -p symple-algos --lib
cargo test -q --release --offline -p symple-core --lib
cargo test -q --release --offline --test config_fuzz --test dense_comm
cargo test -q --release --offline -p symple-net --lib --test proptest_faults

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

step "experiments exports smoke (--chrome-trace, --metrics-json)"
# Both exports of the traced probe: the chrome timeline and the
# `Trace::to_metrics_json` dump. Each must be written, non-empty, and
# the metrics JSON must carry its per-machine and per-cell sections and
# the communication ledger's message, wire-format and retransmit keys.
# Runs under --quick.
export_dir=$(mktemp -d)
trap 'rm -rf "$export_dir"' EXIT
cargo run -q --offline -p symple-bench --bin experiments -- \
  --chrome-trace "$export_dir/t.json" --metrics-json "$export_dir/m.json" 2>/dev/null
for f in t.json m.json; do
  if [ ! -s "$export_dir/$f" ]; then
    echo "ci.sh: experiments did not write a non-empty $f" >&2
    exit 1
  fi
done
for key in '"per_machine"' '"cells"' '"messages"' '"wire_format_bytes"' '"retransmits"'; do
  if ! grep -q "$key" "$export_dir/m.json"; then
    echo "ci.sh: metrics JSON lacks $key" >&2
    exit 1
  fi
done

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
