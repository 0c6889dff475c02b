//! `symple-lint`: a clippy-style multi-diagnostic pass over UDFs.
//!
//! Combines the collecting checker ([`crate::check_all`], codes `E001`–
//! `E007`) with warning lints driven by the CFG and dataflow analyses:
//!
//! | code | finding |
//! |------|---------|
//! | `W001` | unused local / initial value never read |
//! | `W002` | `if` condition is constant (always-true/false break guards) |
//! | `W003` | unreachable statement (e.g. a write after `break`) |
//! | `W004` | carried local dropped by carried-state minimization |
//! | `W005` | neighbour-order-sensitive float accumulation into carried state |
//! | `W006` | the program exceeds a typed-VM resource limit, so it runs on the tree interpreter |
//! | `W007` | unbounded carried integer range forces wide dependency encoding |
//! | `W008` | non-monotone break defeats certified early-exit |
//!
//! `E000` is reserved for parse errors from [`lint_source`].
//!
//! Warnings never gate; errors make the CLI (`examples/symple_lint.rs`) and
//! the CI hook exit non-zero.

use std::collections::{BTreeMap, BTreeSet};

use crate::analysis::{analyze_naive, DepInfo, Facts};
use crate::ast::{preorder, Expr, Stmt, UdfFn};
use crate::check::check_all;
use crate::dataflow::stmt_uses;
use crate::diag::{attach_spans, Diagnostic, Span};
use crate::parser::parse_udf_with_spans;
use crate::transform::instrument_with;
use crate::types::Ty;

/// Lints `udf` against `schema`: all checker errors plus the warning
/// passes. Diagnostics are anchored to pre-order statement ids (attach a
/// [`crate::SpanMap`] for source locations); errors come first in traversal
/// order, then warnings ordered by statement.
pub fn lint(udf: &UdfFn, schema: &BTreeMap<String, Ty>) -> Vec<Diagnostic> {
    let mut diags = check_all(udf, schema);
    diags.extend(warning_passes(udf));
    diags
}

/// Parses `src` and lints it, attaching byte-offset spans to every finding.
/// A parse failure yields a single `E000` diagnostic pointing at the
/// offending byte.
pub fn lint_source(src: &str, schema: &BTreeMap<String, Ty>) -> Vec<Diagnostic> {
    match parse_udf_with_spans(src) {
        Err(e) => {
            let start = e.offset.min(src.len());
            let mut d = Diagnostic::error("E000", format!("parse error: {}", e.message));
            d.span = Some(Span::new(start, (start + 1).min(src.len()).max(start)));
            vec![d]
        }
        Ok((udf, spans)) => {
            let mut diags = lint(&udf, schema);
            attach_spans(&mut diags, &spans);
            diags
        }
    }
}

fn warning_passes(udf: &UdfFn) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // The analyses are optional: they fail on nested loops or instrumented
    // input, which check_all/E-codes already surface. The CFG lints still
    // run in that case.
    let facts = Facts::of(udf, analyze_naive(udf));
    let (cfg, reachable) = (&facts.cfg, &facts.reachable);
    let naive = facts.naive.as_ref().ok();
    let minimized = facts.analyze().ok();

    // W002: constant `if` conditions, with a note when a break is involved.
    for id in 0..cfg.num_stmts() {
        let node = cfg.node_of(id);
        if !reachable[node] {
            continue;
        }
        if let Stmt::If {
            then_branch,
            else_branch,
            ..
        } = cfg.stmt(id)
        {
            if let Some(b) = facts.const_branch(node) {
                let (taken, dead) = if b {
                    (then_branch, else_branch)
                } else {
                    (else_branch, then_branch)
                };
                let has_break = |block| preorder(block).any(|(_, s, _)| matches!(s, Stmt::Break));
                let mut msg = format!("`if` condition is always {b}");
                if has_break(dead) {
                    msg.push_str("; the `break` it guards can never fire");
                } else if has_break(taken) {
                    msg.push_str("; the `break` it guards always fires");
                }
                out.push(Diagnostic::warning("W002", msg).with_stmt(id));
            }
        }
    }

    // W003: unreachable statements — report the first of each dead run.
    for id in 0..cfg.num_stmts() {
        let node = cfg.node_of(id);
        if !reachable[node] && (id == 0 || reachable[cfg.node_of(id - 1)]) {
            out.push(
                Diagnostic::warning("W003", "statement is never executed".to_string())
                    .with_stmt(id),
            );
        }
    }

    // W001: locals whose value after declaration is dead.
    for id in 0..cfg.num_stmts() {
        let node = cfg.node_of(id);
        if !reachable[node] {
            continue; // W003 already covers it
        }
        if let Stmt::Let { name, .. } = cfg.stmt(id) {
            if !facts.live[node].contains(name) {
                let read_anywhere =
                    (0..cfg.num_stmts()).any(|s| stmt_uses(cfg.stmt(s)).contains(name));
                let msg = if read_anywhere {
                    format!(
                        "the initial value of `{name}` is never read (overwritten before any use)"
                    )
                } else {
                    format!("local `{name}` is never read")
                };
                out.push(Diagnostic::warning("W001", msg).with_stmt(id));
            }
        }
    }

    // W004: carried state the dataflow analysis proved dead on the wire.
    if let (Some(naive), Some(min)) = (naive, &minimized) {
        for (name, _) in dropped_carried(naive, min) {
            let let_id = facts.let_of(&name);
            let mut d = Diagnostic::warning(
                "W004",
                format!(
                    "local `{name}` is syntactically carried but its value never \
                     crosses a machine boundary; it is dropped from the dependency message"
                ),
            );
            if let Some(id) = let_id {
                d = d.with_stmt(id);
            }
            out.push(d);
        }
    }

    // W005: order-sensitive float accumulation into carried state.
    if let Some(min) = &minimized {
        let float_carried: BTreeSet<&str> = min
            .carried
            .iter()
            .filter(|(_, ty)| *ty == Ty::Float)
            .map(|(n, _)| n.as_str())
            .collect();
        if !float_carried.is_empty() {
            for (id, stmt, in_loop) in preorder(&udf.body) {
                if !in_loop {
                    continue;
                }
                if let Stmt::Assign { name, value } = stmt {
                    if float_carried.contains(name.as_str())
                        && stmt_uses(stmt).contains(name)
                        && value.any(|e| {
                            matches!(e, Expr::Prop { index, .. } if **index == Expr::CurrentNeighbor)
                        })
                    {
                        out.push(
                            Diagnostic::warning(
                                "W005",
                                format!(
                                    "floating-point accumulation into carried local `{name}` \
                                     depends on neighbour visit order; results may differ \
                                     across partitionings unless differentiated propagation \
                                     is disabled"
                                ),
                            )
                            .with_stmt(id),
                        );
                    }
                }
            }
        }
    }

    // W006: the program exceeds a resource limit of the typed VM, so the
    // engine falls back to tree-walking interpretation (correct but slower
    // dispatch).
    if let Some(min) = &minimized {
        if let Err(e) = crate::compile(&instrument_with(udf, min.clone())) {
            out.push(Diagnostic::warning(
                "W006",
                format!("the typed VM falls back to the interpreter: {e}"),
            ));
        }
    }

    // W007: an integer carried local whose value range the abstract
    // interpreter could not bound ships at the full 8 bytes even under
    // `dep_width = Certified`.
    if let Some(min) = &minimized {
        for cc in &min.cert.carried {
            if cc.ty == Ty::Int && cc.width == 8 {
                let let_id = facts.let_of(&cc.name);
                let mut d = Diagnostic::warning(
                    "W007",
                    format!(
                        "carried local `{}` has an unbounded value range ({}); it ships \
                         at the full 8 bytes even under certified dependency narrowing",
                        cc.name, cc.range
                    ),
                );
                if let Some(id) = let_id {
                    d = d.with_stmt(id);
                }
                out.push(d);
            }
        }
    }

    // W008: the break condition is not provably monotone, so the latch
    // certificate fails and the engine audits every skipped segment, in
    // release builds too, instead of trusting the skip bit.
    if let Some(min) = &minimized {
        if min.has_dependency() && !min.cert.latches() {
            out.push(Diagnostic::warning(
                "W008",
                "the break condition is not provably monotone (it could un-trigger on \
                 re-evaluation); certified early-exit falls back to auditing skipped \
                 segments"
                    .to_string(),
            ));
        }
    }

    out.sort_by_key(|d| (d.stmt, d.code));
    out
}

/// Carried entries present in `naive` but dropped by the minimized analysis.
fn dropped_carried(naive: &DepInfo, min: &DepInfo) -> Vec<(String, Ty)> {
    naive
        .carried
        .iter()
        .filter(|c| !min.carried.contains(c))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_udfs;

    fn schema(entries: &[(&str, Ty)]) -> BTreeMap<String, Ty> {
        entries.iter().map(|(n, t)| (n.to_string(), *t)).collect()
    }

    #[test]
    fn clean_udf_produces_no_errors() {
        let diags = lint(&paper_udfs::bfs_udf(), &schema(&[("frontier", Ty::Bool)]));
        assert!(
            diags
                .iter()
                .all(|d| d.severity != crate::diag::Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn kcore_reports_dead_carried_state() {
        let diags = lint(&paper_udfs::kcore_udf(4), &schema(&[("active", Ty::Bool)]));
        assert!(
            diags
                .iter()
                .any(|d| d.code == "W004" && d.message.contains("`done`")),
            "{diags:?}"
        );
    }

    #[test]
    fn sampling_reports_order_sensitive_accumulation() {
        let diags = lint(
            &paper_udfs::sampling_udf(),
            &schema(&[("weight", Ty::Float), ("r", Ty::Float)]),
        );
        assert!(
            diags
                .iter()
                .any(|d| d.code == "W005" && d.message.contains("`acc`")),
            "{diags:?}"
        );
    }

    #[test]
    fn constant_break_guard_and_dead_write_detected() {
        use crate::ast::{Expr, Stmt, UdfFn};
        // 0: let dbg = false
        // 1: let x = 0
        // 2: for {
        // 3:   x = x + 1
        // 4:   if (dbg) { 5: break }      <- always false, guards a break
        // 6:   if (x >= 2) {
        // 7:     break
        // 8:     x = 0                    <- write after break
        //      }
        //    }
        // 9: emit(x)
        let udf = UdfFn::new(
            "bad",
            Ty::Int,
            vec![
                Stmt::let_("dbg", Ty::Bool, Expr::b(false)),
                Stmt::let_("x", Ty::Int, Expr::i(0)),
                Stmt::for_neighbors(vec![
                    Stmt::assign("x", Expr::local("x").add(Expr::i(1))),
                    Stmt::if_(Expr::local("dbg"), vec![Stmt::Break]),
                    Stmt::if_(
                        Expr::local("x").ge(Expr::i(2)),
                        vec![Stmt::Break, Stmt::assign("x", Expr::i(0))],
                    ),
                ]),
                Stmt::Emit(Expr::local("x")),
            ],
        );
        let diags = lint(&udf, &schema(&[]));
        let w002 = diags.iter().find(|d| d.code == "W002").expect("W002");
        assert_eq!(w002.stmt, Some(4));
        assert!(w002.message.contains("always false"));
        assert!(w002.message.contains("never fire"));
        // two dead runs: the pruned break (5) and the write after break (8)
        let w003: Vec<_> = diags
            .iter()
            .filter(|d| d.code == "W003")
            .map(|d| d.stmt)
            .collect();
        assert_eq!(w003, vec![Some(5), Some(8)]);
    }

    #[test]
    fn unused_local_detected() {
        use crate::ast::{Expr, Stmt, UdfFn};
        let udf = UdfFn::new(
            "bad",
            Ty::Int,
            vec![
                Stmt::let_("unused", Ty::Int, Expr::i(7)),
                Stmt::Emit(Expr::i(0)),
            ],
        );
        let diags = lint(&udf, &schema(&[]));
        assert!(
            diags
                .iter()
                .any(|d| d.code == "W001" && d.message.contains("`unused`")),
            "{diags:?}"
        );
    }

    #[test]
    fn register_pressure_triggers_w006() {
        use crate::ast::{Expr, Stmt, UdfFn};
        // 300 locals exceed the u8 register file, so the engine would fall
        // back to the interpreter; lint must surface that.
        let mut body: Vec<Stmt> = (0..300)
            .map(|i| Stmt::let_(&format!("x{i}"), Ty::Int, Expr::i(i)))
            .collect();
        body.push(Stmt::Emit(Expr::local("x299")));
        let udf = UdfFn::new("wide", Ty::Int, body);
        let diags = lint(&udf, &schema(&[]));
        assert!(
            diags
                .iter()
                .any(|d| d.code == "W006" && d.message.contains("falls back")),
            "{diags:?}"
        );
    }

    #[test]
    fn paper_kernels_compile_without_w006() {
        for udf in [
            paper_udfs::bfs_udf(),
            paper_udfs::mis_udf(),
            paper_udfs::kcore_udf(4),
            paper_udfs::kmeans_udf(),
            paper_udfs::sampling_udf(),
        ] {
            let diags = warning_passes(&udf);
            assert!(diags.iter().all(|d| d.code != "W006"), "{diags:?}");
        }
    }

    #[test]
    fn int_stored_into_a_float_local_is_silent_and_binds() {
        use crate::ast::{Expr, Stmt, UdfFn};
        // The language widens an `int` where a `float` local stores it,
        // and so do both executors: nothing to report, nothing to fall
        // back from.
        let udf = UdfFn::new(
            "widened",
            Ty::Float,
            vec![
                Stmt::let_("w", Ty::Float, Expr::i(0)),
                Stmt::for_neighbors(vec![
                    Stmt::assign("w", Expr::prop_u("count")),
                    Stmt::assign("w", Expr::local("w").add(Expr::prop_u("count"))),
                ]),
                Stmt::Emit(Expr::local("w")),
            ],
        );
        let diags = lint(&udf, &schema(&[("count", Ty::Int)]));
        assert!(diags.iter().all(|d| d.code != "W006"), "{diags:?}");
        let mut props = crate::PropertyStore::new();
        props.insert("count", crate::PropArray::Ints(vec![1; 4]));
        let inst = crate::instrument(&udf).unwrap();
        assert!(crate::UdfProgram::new(&inst, &props).uses_bytecode());
    }

    #[test]
    fn cc_unbounded_carried_range_reports_w007() {
        // Connected components carries `best: Int` whose range the
        // interval domain cannot bound (it tracks neighbour labels).
        let diags = lint(&paper_udfs::cc_udf(), &schema(&[("label", Ty::Int)]));
        assert!(
            diags
                .iter()
                .any(|d| d.code == "W007" && d.message.contains("`best`")),
            "{diags:?}"
        );
        // K-core's counter is bounded by k, so it must NOT fire.
        let diags = lint(&paper_udfs::kcore_udf(4), &schema(&[("active", Ty::Bool)]));
        assert!(diags.iter().all(|d| d.code != "W007"), "{diags:?}");
    }

    #[test]
    fn sampling_non_monotone_break_reports_w008() {
        let diags = lint(
            &paper_udfs::sampling_udf(),
            &schema(&[("weight", Ty::Float), ("r", Ty::Float)]),
        );
        assert!(
            diags
                .iter()
                .any(|d| d.code == "W008" && d.message.contains("monotone")),
            "{diags:?}"
        );
        // K-core's break (`cnt >= k` over a non-decreasing counter) is
        // provably stable: no W008.
        let diags = lint(&paper_udfs::kcore_udf(4), &schema(&[("active", Ty::Bool)]));
        assert!(diags.iter().all(|d| d.code != "W008"), "{diags:?}");
    }

    #[test]
    fn lint_source_attaches_spans() {
        let src =
            "def t(Vertex v, Array[Vertex] nbrs) -> int {\n  int unused = 7;\n  emit(v, 0);\n}";
        let diags = lint_source(src, &schema(&[]));
        let w001 = diags.iter().find(|d| d.code == "W001").expect("W001");
        let span = w001.span.expect("span attached");
        assert!(src[span.start..].starts_with("int unused = 7;"));
    }

    #[test]
    fn parse_error_is_a_diagnostic() {
        let diags = lint_source("def t(Vertex v", &schema(&[]));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "E000");
        assert_eq!(diags[0].severity, crate::diag::Severity::Error);
        assert!(diags[0].span.is_some());
    }
}
