//! # SympleGraph (reproduction)
//!
//! A from-scratch Rust reproduction of *"SympleGraph: Distributed Graph
//! Processing with Precise Loop-Carried Dependency Guarantee"* (PLDI
//! 2020): a distributed graph-processing framework that analyzes vertex
//! UDFs for loop-carried dependency (`break` inside the neighbour loop)
//! and enforces it *precisely* across machines via dependency
//! propagation under circulant scheduling — eliminating the redundant
//! computation and communication that Gemini-style frameworks pay.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`graph`] — CSR graphs, bitmaps, generators (R-MAT et al.);
//! * [`net`] — the simulated cluster with virtual-time cost models;
//! * [`udf`] — the UDF language, dependency analyzer, instrumentation,
//!   and interpreter (the paper's compiler half);
//! * [`core`] — the distributed engine: circulant scheduling, dependency
//!   propagation, differentiated propagation, double buffering, plus the
//!   Gemini and D-Galois-style baselines;
//! * [`algos`] — the five evaluated algorithms with references and
//!   validators;
//! * [`trace`] — the always-on observability layer: categorized
//!   virtual-time spans and byte counters per machine and per cell, with
//!   a chrome://tracing and a metrics JSON export (see `RunStats::trace`).
//!
//! # Quickstart
//!
//! ```
//! use symplegraph::algos::{bfs, validate_bfs};
//! use symplegraph::core::{EngineConfig, Policy};
//! use symplegraph::graph::{RmatConfig, Vid};
//!
//! // A scale-10 R-MAT graph on a simulated 4-machine cluster.
//! let g = RmatConfig::graph500(10, 8).cleaned(true).generate();
//! let cfg = EngineConfig::new(4, Policy::symple());
//! let (out, stats) = bfs(&g, &cfg, Vid::new(0));
//! validate_bfs(&g, Vid::new(0), &out);
//! println!(
//!     "reached {} vertices, traversed {} edges, modelled {:.3} ms",
//!     out.reached(),
//!     stats.work.edges_traversed(),
//!     stats.virtual_time() * 1e3,
//! );
//! ```

#![forbid(unsafe_code)]

pub use symple_algos as algos;
pub use symple_core as core;
pub use symple_graph as graph;
pub use symple_net as net;
pub use symple_trace as trace;
pub use symple_udf as udf;
