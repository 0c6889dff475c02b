//! Experiment harness reproducing the SympleGraph evaluation (paper §7).
//!
//! * [`datasets`] — the dataset registry: scaled-down R-MAT stand-ins for
//!   the paper's graphs (Table 1), cached per process.
//! * [`job`] — the job catalogue: each kernel or UDF pull with its
//!   parameters resolved, the one dispatcher into `symple_algos` and
//!   `run_spmd`, the output fingerprint and the reference check. The
//!   registry, the config fuzzer and the prepared-reuse test all run it.
//! * [`registry`] — the registry of measured cells: one engine run per
//!   (workload, dataset, configuration), memoized; a workload resolves to
//!   a [`job::Job`] on its graph.
//! * [`experiments`] — one view per table/figure over those cells, and
//!   [`experiments::REPORTS`], the one table of what exists.
//! * [`matrix`] — the consolidated scenario matrix
//!   ({algo × graph × policy × codec × threads × faults}), another view,
//!   behind `BENCH_matrix.json` and the `--matrix-identity` perf gate.
//! * `src/bin/experiments.rs` — the CLI that regenerates everything
//!   (`cargo run --release -p symple-bench --bin experiments -- all`).
//!
//! Everything here is modelled or counted — virtual time from the cost
//! model (see `symple-net`), exact edges and bytes — so the output is the
//! same on every host; wall-clock measurement lives in `benchmark/`. The
//! claims under reproduction are the *relative* ones: who wins, by what
//! factor, where communication drops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod fmt;
pub mod job;
pub mod matrix;
pub mod registry;

pub use datasets::{dataset, Dataset};
pub use experiments::Report;
pub use matrix::{matrix_identity, matrix_json, matrix_smoke, matrix_study, MatrixCell};
pub use registry::{Cell, Registry, Workload};
