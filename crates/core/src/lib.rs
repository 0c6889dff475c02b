//! The SympleGraph distributed engine.
//!
//! This crate implements the paper's runtime half on top of the
//! [`symple_net`] simulated cluster and the [`symple_graph`] substrate:
//!
//! * Gemini-style **chunked outgoing edge-cut** partitioning
//!   ([`Partition`]) and per-machine master/mirror structures
//!   ([`LocalGraph`]), prepared once per graph and shared by every job
//!   on it ([`PreparedGraph`]);
//! * **circulant scheduling** (paper §5.1): each pull iteration is split
//!   into `p` steps; in step `s` machine `i` processes the sub-graph
//!   `[i, (i+1+s) mod p]`, so the in-edges of every partition are processed
//!   *sequentially* across machines while all machines stay busy on
//!   disjoint sub-graphs;
//! * **dependency propagation** (§3, §4.1): typed per-vertex dependency
//!   state ([`DepState`]: control bits, saturating counters, prefix sums)
//!   circulating from machine `i` to machine `i−1` between steps;
//! * **differentiated dependency propagation** (§5.2): dependency only for
//!   vertices whose in-degree reaches a threshold (default 32);
//! * **double buffering** (§5.3): each step's destination vertices are
//!   split into groups whose dependency messages are sent as soon as the
//!   group finishes;
//! * execution policies reproducing the paper's three systems:
//!   [`Policy::SympleGraph`], [`Policy::Gemini`] (the degenerate case with
//!   no dependency communication), and [`Policy::Galois`] (a simplified
//!   D-Galois/Gluon-style BSP stand-in with reduce + broadcast sync).
//!
//! Algorithms are written SPMD-style against [`Worker`], exactly like
//! Gemini applications: the same closure runs on every machine and calls
//! [`Worker::pull`] / [`Worker::push`] per iteration plus collective helpers
//! for frontier synchronisation and convergence tests. See `symple-algos`
//! for the paper's five algorithms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circulant;
mod config;
mod dep;
mod dist_graph;
mod driver;
mod par;
mod partition;
mod prepared;
mod program;
mod reference;
mod stats;
mod worker;

pub use circulant::{dst_partition, processing_order, src_machine};
pub use config::{ConfigError, DepWidth, EngineConfig, Policy, UdfExec};
pub use dep::{BitDep, CountDep, DepLayout, DepState, WeightDep};
pub use dist_graph::{Bucket, BucketPart, LocalGraph};
pub use driver::{run_spmd, DistResult};
pub use par::EXEC_CHUNK;
pub use partition::Partition;
pub use prepared::PreparedGraph;
pub use program::{PullProgram, PushProgram, SignalOutcome};
pub use reference::{reference_pull, ReferencePull};
pub use stats::{RunStats, TimeStats, WorkMetric, WorkStats};
pub use worker::{Worker, EXCHANGE_FRAME};

// Tracing, codec, and fault-injection vocabulary, re-exported so
// algorithm and application crates can configure
// `EngineConfig::{trace_level,wire_codec,fault_plan,backend}` and read
// `RunStats::{trace,comm}` (the trace carries every categorized total)
// without depending on symple-net directly.
pub use symple_net::{
    Backend, FaultPlan, NetError, ReliableStats, SpanCategory, Trace, TraceLevel, WireCodec,
    WireFormat,
};
