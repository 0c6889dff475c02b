//! The SympleGraph UDF analyzer (paper §4) — the compiler half of the
//! system.
//!
//! The paper instruments C++ UDFs with clang LibTooling; this crate does
//! the same two-pass job over its own small **vertex-UDF language**:
//!
//! 1. **Analysis** ([`analyze`]) locates the neighbour-traversal loop,
//!    decides whether loop-carried dependency exists (a reachable `break`
//!    — §4.2 pass 1), and identifies the *dependency state*: locals whose
//!    values flow across loop iterations (counters, prefix sums).
//! 2. **Instrumentation** ([`instrument`]) performs the source-to-source
//!    transformation of §4.2 pass 2 / Figure 5: a `receive_dep` guard at
//!    function entry (skip the whole body if an earlier machine already
//!    broke; restore carried locals otherwise) and an `emit_dep` before
//!    every `break`.
//!
//! Instrumented UDFs are executable: [`UdfProgram`] implements
//! [`symple_core::PullProgram`], with the carried locals bridged into a
//! real dependency payload ([`UdfDep`]) that the engine circulates
//! between machines. Two executors share bit-identical semantics,
//! selected by `EngineConfig::udf_exec`: the default **typed VM** (one
//! lowering, [`compile`]'s register plan plus a walk at bind time, takes
//! the instrumented AST straight to ops specialised to the types of its
//! locals and of the [`PropertyStore`]'s arrays, which the bind-time
//! optimiser then rewrites; signal calls run over untagged 64-bit
//! registers and allocate nothing) and the **tree interpreter**, which
//! remains the differential reference and the fallback when the program
//! hits a resource limit of the VM (lint `W006`) or does not lower
//! against the store it is bound to. The test suite shows the interpreted
//! bottom-up BFS producing *identical results and identical edge counts*
//! to the hand-written native program — the paper's "manual vs automatic"
//! equivalence (§4.3).
//!
//! UDFs are built with the [`ast`] constructors, the higher-level
//! [`FoldWhile`] functional DSL (the paper's alternative interface, §4.3)
//! or [`parse_udf`]; [`paper_udfs`] ships eight ready-made: the five paper
//! kernels (BFS, MIS, K-core, K-means, sampling) and the scenario matrix's
//! SSSP, connected components and PageRank.
//!
//! On top of the syntactic analysis sits a small static-analysis engine: a
//! per-statement control-flow graph, one worklist fixpoint solver (either
//! direction, with edge refinement, widening and a fuel bound) running
//! liveness, reaching definitions, constant propagation and an interval
//! and monotonicity domain, and a diagnostics layer ([`Diagnostic`]) fed
//! by byte-offset spans from the parser. It powers carried-state
//! minimization, dead-dependency elimination and the dependency
//! certificate inside [`analyze`], the collecting checker [`check_all`],
//! and the clippy-style [`lint()`] pass (`examples/symple_lint.rs` is the
//! CLI), which reads the facts [`analyze`] solves instead of solving them
//! again.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod absint;
mod analysis;
pub mod ast;
mod certificate;
mod cfg;
mod check;
mod compile;
mod dataflow;
mod dep_bridge;
mod diag;
mod error;
mod fold_while;
mod interp;
mod lint;
mod opt;
pub mod paper_udfs;
pub mod parser;
mod pretty;
mod props;
mod transform;
pub mod types;
mod vm;

pub use analysis::{analyze, analyze_naive, effective_policy, DepInfo, DepKind};
pub use ast::{BinOp, Expr, Stmt, UdfFn, UnOp};
pub use certificate::{width_for, CarriedCert, DepCertificate, Monotonicity, ValueRange};
pub use check::{check, check_all, error_code};
pub use compile::{compile, CompileError, CompiledUdf, MAX_CARRIED, MAX_REGS};
pub use dep_bridge::UdfDep;
pub use diag::{explain, render_diagnostics, Diagnostic, Severity, Span, SpanMap, StmtId};
pub use error::UdfError;
pub use fold_while::FoldWhile;
pub use interp::UdfProgram;
pub use lint::{lint, lint_source};
pub use opt::LoopOps;
pub use parser::{parse_udf, parse_udf_with_spans, ParseError};
pub use pretty::pretty;
pub use props::{PropArray, PropertyStore};
pub use transform::{instrument, instrument_naive, InstrumentedUdf};
pub use types::{Ty, Value};

// The executor knob lives in the engine config; re-exported here so UDF
// harnesses can write `UdfProgram::new(..).exec(cfg.udf_exec)` without a
// direct symple-core dependency in scope.
pub use symple_core::UdfExec;

// The random-UDF generator of `tests/typed_vm_differential.rs`, for the
// optimiser's unit tests; it is written against the public API.
#[cfg(test)]
extern crate self as symple_udf;
#[cfg(test)]
#[path = "../tests/support/gen.rs"]
mod test_gen;
