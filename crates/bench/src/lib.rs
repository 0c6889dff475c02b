//! Experiment harness reproducing the SympleGraph evaluation (paper §7).
//!
//! * [`datasets`] — the dataset registry: scaled-down R-MAT stand-ins for
//!   the paper's graphs (Table 1), cached per process.
//! * [`experiments`] — one function per table/figure; each returns a
//!   [`experiments::Report`] with the formatted table and the raw rows.
//! * [`matrix`] — the consolidated scenario matrix
//!   ({algo × graph × policy × codec × threads × faults})
//!   behind `BENCH_matrix.json` and the `--matrix-identity` perf gate.
//! * `src/bin/experiments.rs` — the CLI that regenerates everything
//!   (`cargo run --release -p symple-bench --bin experiments -- all`).
//! * `benches/` — criterion wrappers over the same runners.
//!
//! Absolute numbers come from the virtual-time cost model (see
//! `symple-net`); the claims under reproduction are the *relative* ones:
//! who wins, by what factor, where communication drops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod fmt;
pub mod matrix;

pub use datasets::{dataset, dataset_names, Dataset};
pub use experiments::Report;
pub use matrix::{matrix_identity, matrix_json, matrix_smoke, matrix_study, MatrixCell};
