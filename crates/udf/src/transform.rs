//! Pass 2 of the analyzer (paper §4.2): the source-to-source
//! instrumentation of Figure 5.
//!
//! For a UDF with loop-carried dependency, insert:
//!
//! * a [`crate::Stmt::ReceiveDepGuard`] at the start of the body —
//!   `d = receive_dep(v); if (d.skip) return;`, which for data
//!   dependency also restores the carried locals from the message;
//! * a [`crate::Stmt::EmitDep`] immediately before every `break` inside
//!   the neighbour loop — `emit_dep(v, d)`.
//!
//! UDFs without dependency come back unchanged (with `DepKind::None`).

use crate::analysis::{analyze, analyze_naive, DepInfo, DepKind};
use crate::ast::{Stmt, UdfFn};
use crate::UdfError;

/// An analyzed-and-instrumented UDF, ready for interpretation on the
/// engine.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrumentedUdf {
    /// The transformed function.
    pub udf: UdfFn,
    /// The analysis result the transformation was driven by.
    pub info: DepInfo,
}

/// Runs both analyzer passes over `udf`.
///
/// # Errors
///
/// Propagates [`crate::analyze`] errors (nested loops, double
/// instrumentation).
///
/// # Example
///
/// ```
/// use symple_udf::{instrument, pretty, paper_udfs};
/// let inst = instrument(&paper_udfs::bfs_udf()).unwrap();
/// let text = pretty(&inst.udf);
/// assert!(text.contains("receive_dep"));
/// assert!(text.contains("emit_dep"));
/// ```
pub fn instrument(udf: &UdfFn) -> Result<InstrumentedUdf, UdfError> {
    Ok(instrument_with(udf, analyze(udf)?))
}

/// Like [`instrument`], but driven by the purely syntactic
/// [`analyze_naive`] — no carried-state minimization, no dead-dependency
/// elimination. Exists so benchmarks and tests can compare the two
/// instrumentations; outputs and work counters are bit-identical, only the
/// dependency payload differs.
///
/// # Errors
///
/// Same contract as [`instrument`].
pub fn instrument_naive(udf: &UdfFn) -> Result<InstrumentedUdf, UdfError> {
    Ok(instrument_with(udf, analyze_naive(udf)?))
}

/// Instruments `udf` as the analysis result `info` directs.
pub(crate) fn instrument_with(udf: &UdfFn, info: DepInfo) -> InstrumentedUdf {
    if info.kind == DepKind::None {
        return InstrumentedUdf {
            udf: udf.clone(),
            info,
        };
    }
    let mut body = Vec::with_capacity(udf.body.len() + 1);
    body.push(Stmt::ReceiveDepGuard);
    body.extend(udf.body.iter().map(instrument_stmt));
    InstrumentedUdf {
        udf: UdfFn {
            name: udf.name.clone(),
            update_ty: udf.update_ty,
            body,
        },
        info,
    }
}

fn instrument_stmt(s: &Stmt) -> Stmt {
    match s {
        Stmt::ForNeighbors { body } => Stmt::ForNeighbors {
            body: instrument_loop_block(body),
        },
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => Stmt::If {
            cond: cond.clone(),
            then_branch: then_branch.iter().map(instrument_stmt).collect(),
            else_branch: else_branch.iter().map(instrument_stmt).collect(),
        },
        other => other.clone(),
    }
}

/// Inside the loop, splice `EmitDep` before each `Break`.
fn instrument_loop_block(block: &[Stmt]) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(block.len());
    for s in block {
        match s {
            Stmt::Break => {
                out.push(Stmt::EmitDep);
                out.push(Stmt::Break);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => out.push(Stmt::If {
                cond: cond.clone(),
                then_branch: instrument_loop_block(then_branch),
                else_branch: instrument_loop_block(else_branch),
            }),
            other => out.push(other.clone()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use crate::paper_udfs;
    use crate::types::Ty;

    fn count_nodes(block: &[Stmt], pred: &dyn Fn(&Stmt) -> bool) -> usize {
        block
            .iter()
            .map(|s| {
                let own = usize::from(pred(s));
                own + match s {
                    Stmt::If {
                        then_branch,
                        else_branch,
                        ..
                    } => count_nodes(then_branch, pred) + count_nodes(else_branch, pred),
                    Stmt::ForNeighbors { body } => count_nodes(body, pred),
                    _ => 0,
                }
            })
            .sum()
    }

    #[test]
    fn bfs_gets_guard_and_one_emit_dep() {
        let inst = instrument(&paper_udfs::bfs_udf()).unwrap();
        assert!(matches!(inst.udf.body[0], Stmt::ReceiveDepGuard));
        assert_eq!(
            count_nodes(&inst.udf.body, &|s| matches!(s, Stmt::EmitDep)),
            1
        );
        // every EmitDep is immediately followed by a Break
        fn emit_dep_precedes_break(block: &[Stmt]) -> bool {
            for w in block.windows(2) {
                if matches!(w[0], Stmt::EmitDep) && !matches!(w[1], Stmt::Break) {
                    return false;
                }
            }
            block.iter().all(|s| match s {
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => emit_dep_precedes_break(then_branch) && emit_dep_precedes_break(else_branch),
                Stmt::ForNeighbors { body } => emit_dep_precedes_break(body),
                _ => true,
            })
        }
        assert!(emit_dep_precedes_break(&inst.udf.body));
    }

    #[test]
    fn all_paper_udfs_instrument() {
        for udf in [
            paper_udfs::bfs_udf(),
            paper_udfs::mis_udf(),
            paper_udfs::kcore_udf(8),
            paper_udfs::kmeans_udf(),
            paper_udfs::sampling_udf(),
        ] {
            let inst = instrument(&udf).unwrap();
            assert!(
                inst.info.has_dependency(),
                "{} lost its dependency",
                udf.name
            );
            assert!(matches!(inst.udf.body[0], Stmt::ReceiveDepGuard));
        }
    }

    #[test]
    fn dependency_free_udf_unchanged() {
        let udf = crate::UdfFn::new(
            "plain",
            Ty::Bool,
            vec![Stmt::for_neighbors(vec![Stmt::Emit(Expr::b(true))])],
        );
        let inst = instrument(&udf).unwrap();
        assert_eq!(inst.udf, udf);
        assert_eq!(inst.info.kind, DepKind::None);
    }

    #[test]
    fn double_instrumentation_rejected() {
        let inst = instrument(&paper_udfs::bfs_udf()).unwrap();
        assert_eq!(instrument(&inst.udf), Err(UdfError::AlreadyInstrumented));
    }
}
