//! Static checker for UDFs: name resolution and type checking against a
//! property schema.
//!
//! The checker *collects* every error it can recover from rather than
//! stopping at the first one: [`check_all`] returns the full list as
//! [`Diagnostic`]s anchored to pre-order statement ids (so spans from
//! [`crate::parser::parse_udf_with_spans`] attach directly), while
//! [`check`] keeps the original fail-fast contract and reports only the
//! first error, in the same traversal order as before.

use crate::ast::{BinOp, Expr, Stmt, UdfFn, UnOp};
use crate::diag::{Diagnostic, StmtId};
use crate::types::Ty;
use crate::UdfError;
use std::collections::BTreeMap;

/// Stable diagnostic code for a checker error.
pub fn error_code(err: &UdfError) -> &'static str {
    match err {
        UdfError::UndefinedLocal(_) => "E001",
        UdfError::UnknownProperty(_) => "E002",
        UdfError::TypeMismatch { .. } => "E003",
        UdfError::OutsideLoop(_) => "E004",
        UdfError::DuplicateLocal(_) => "E005",
        UdfError::NestedLoop => "E006",
        UdfError::AlreadyInstrumented => "E007",
    }
}

struct Checker<'a> {
    schema: &'a BTreeMap<String, Ty>,
    locals: BTreeMap<String, Ty>,
    update_ty: Ty,
    errors: Vec<(StmtId, UdfError)>,
    next_id: StmtId,
}

/// Checks `udf` against the property `schema` (array name → element type).
///
/// # Errors
///
/// Returns the first [`UdfError`] found: unknown names, type mismatches,
/// `break`/`u` outside the loop, duplicate locals.
///
/// # Example
///
/// ```
/// use symple_udf::{check, paper_udfs};
/// use symple_udf::types::Ty;
/// let schema = [("frontier".to_string(), Ty::Bool)].into();
/// check(&paper_udfs::bfs_udf(), &schema).unwrap();
/// ```
pub fn check(udf: &UdfFn, schema: &BTreeMap<String, Ty>) -> Result<(), UdfError> {
    match run_checker(udf, schema).errors.into_iter().next() {
        Some((_, err)) => Err(err),
        None => Ok(()),
    }
}

/// Checks `udf` and returns *every* error as a [`Diagnostic`], each anchored
/// to the offending statement's pre-order id. Attach a
/// [`crate::SpanMap`] (see [`crate::diag::attach_spans`]) to get source
/// locations.
pub fn check_all(udf: &UdfFn, schema: &BTreeMap<String, Ty>) -> Vec<Diagnostic> {
    run_checker(udf, schema)
        .errors
        .into_iter()
        .map(|(id, err)| Diagnostic::error(error_code(&err), err.to_string()).with_stmt(id))
        .collect()
}

/// Runs the collecting checker; errors come back in traversal (pre-)order,
/// so the first element is exactly what the fail-fast checker used to
/// return.
fn run_checker<'a>(udf: &UdfFn, schema: &'a BTreeMap<String, Ty>) -> Checker<'a> {
    let mut c = Checker {
        schema,
        locals: BTreeMap::new(),
        update_ty: udf.update_ty,
        errors: Vec::new(),
        next_id: 0,
    };
    c.check_block(&udf.body, false);
    c
}

impl Checker<'_> {
    fn err(&mut self, id: StmtId, e: UdfError) {
        self.errors.push((id, e));
    }

    fn check_block(&mut self, block: &[Stmt], in_loop: bool) {
        for s in block {
            self.check_stmt(s, in_loop);
        }
    }

    fn check_stmt(&mut self, s: &Stmt, in_loop: bool) {
        let id = self.next_id;
        self.next_id += 1;
        match s {
            Stmt::Let { name, ty, init } => {
                match self.type_of(init, in_loop) {
                    Ok(found) => {
                        if let Err(e) = self.expect(*ty, found, &format!("initialiser of `{name}`"))
                        {
                            self.err(id, e);
                        }
                    }
                    Err(e) => self.err(id, e),
                }
                // Re-declaring a local is an error everywhere. Inside the
                // loop it used to be silently allowed, shadowing the carried
                // state the analyzer extracts — the restore at the top of a
                // segment and the shadowing `let` would disagree about the
                // local's value.
                if self.locals.insert(name.clone(), *ty).is_some() {
                    self.err(id, UdfError::DuplicateLocal(name.clone()));
                }
            }
            Stmt::Assign { name, value } => {
                let declared = match self.locals.get(name) {
                    Some(&d) => Some(d),
                    None => {
                        self.err(id, UdfError::UndefinedLocal(name.clone()));
                        None
                    }
                };
                match self.type_of(value, in_loop) {
                    Ok(found) => {
                        if let Some(declared) = declared {
                            if let Err(e) =
                                self.expect(declared, found, &format!("assignment to `{name}`"))
                            {
                                self.err(id, e);
                            }
                        }
                    }
                    Err(e) => self.err(id, e),
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                match self.type_of(cond, in_loop) {
                    Ok(t) => {
                        if let Err(e) = self.expect(Ty::Bool, t, "if condition") {
                            self.err(id, e);
                        }
                    }
                    Err(e) => self.err(id, e),
                }
                self.check_block(then_branch, in_loop);
                self.check_block(else_branch, in_loop);
            }
            Stmt::ForNeighbors { body } => {
                if in_loop {
                    self.err(id, UdfError::NestedLoop);
                }
                self.check_block(body, true);
            }
            Stmt::Break => {
                if !in_loop {
                    self.err(id, UdfError::OutsideLoop("break".into()));
                }
            }
            Stmt::Emit(e) => match self.type_of(e, in_loop) {
                Ok(t) => {
                    if let Err(err) = self.expect(self.update_ty, t, "emit") {
                        self.err(id, err);
                    }
                }
                Err(err) => self.err(id, err),
            },
            Stmt::Return | Stmt::ReceiveDepGuard => {}
            Stmt::EmitDep => {
                if !in_loop {
                    self.err(id, UdfError::OutsideLoop("emit_dep".into()));
                }
            }
        }
    }

    fn expect(&self, expected: Ty, found: Ty, context: &str) -> Result<(), UdfError> {
        if expected == found || (expected == Ty::Float && found == Ty::Int) {
            Ok(())
        } else {
            Err(UdfError::TypeMismatch {
                context: context.to_string(),
                expected,
                found,
            })
        }
    }

    fn type_of(&self, e: &Expr, in_loop: bool) -> Result<Ty, UdfError> {
        match e {
            Expr::Lit(v) => Ok(v.ty()),
            Expr::Local(name) => self
                .locals
                .get(name)
                .copied()
                .ok_or_else(|| UdfError::UndefinedLocal(name.clone())),
            Expr::Prop { array, index } => {
                let idx_ty = self.type_of(index, in_loop)?;
                self.expect(Ty::Vertex, idx_ty, &format!("index of `{array}`"))?;
                self.schema
                    .get(array)
                    .copied()
                    .ok_or_else(|| UdfError::UnknownProperty(array.clone()))
            }
            Expr::CurrentVertex => Ok(Ty::Vertex),
            Expr::CurrentNeighbor => {
                if in_loop {
                    Ok(Ty::Vertex)
                } else {
                    Err(UdfError::OutsideLoop("u".into()))
                }
            }
            Expr::Unary(op, a) => {
                let t = self.type_of(a, in_loop)?;
                match op {
                    UnOp::Not => {
                        self.expect(Ty::Bool, t, "operand of `!`")?;
                        Ok(Ty::Bool)
                    }
                    UnOp::Neg => match t {
                        Ty::Int | Ty::Float => Ok(t),
                        other => Err(UdfError::TypeMismatch {
                            context: "operand of unary `-`".into(),
                            expected: Ty::Float,
                            found: other,
                        }),
                    },
                }
            }
            Expr::Binary(op, a, b) => {
                let ta = self.type_of(a, in_loop)?;
                let tb = self.type_of(b, in_loop)?;
                match op {
                    BinOp::And | BinOp::Or => {
                        self.expect(Ty::Bool, ta, "logical operand")?;
                        self.expect(Ty::Bool, tb, "logical operand")?;
                        Ok(Ty::Bool)
                    }
                    BinOp::Add | BinOp::Sub | BinOp::Mul => match (ta, tb) {
                        (Ty::Int, Ty::Int) => Ok(Ty::Int),
                        (Ty::Float | Ty::Int, Ty::Float | Ty::Int) => Ok(Ty::Float),
                        _ => Err(UdfError::TypeMismatch {
                            context: "arithmetic operand".into(),
                            expected: Ty::Float,
                            found: if matches!(ta, Ty::Int | Ty::Float) {
                                tb
                            } else {
                                ta
                            },
                        }),
                    },
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                        let comparable = matches!(
                            (ta, tb),
                            (Ty::Int | Ty::Float, Ty::Int | Ty::Float)
                                | (Ty::Vertex, Ty::Vertex)
                                | (Ty::Bool, Ty::Bool)
                        );
                        if comparable {
                            Ok(Ty::Bool)
                        } else {
                            Err(UdfError::TypeMismatch {
                                context: "comparison operand".into(),
                                expected: ta,
                                found: tb,
                            })
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_udfs;

    fn schema(entries: &[(&str, Ty)]) -> BTreeMap<String, Ty> {
        entries.iter().map(|(n, t)| (n.to_string(), *t)).collect()
    }

    #[test]
    fn paper_udfs_typecheck() {
        check(&paper_udfs::bfs_udf(), &schema(&[("frontier", Ty::Bool)])).unwrap();
        check(
            &paper_udfs::mis_udf(),
            &schema(&[("active", Ty::Bool), ("color", Ty::Int)]),
        )
        .unwrap();
        check(&paper_udfs::kcore_udf(3), &schema(&[("active", Ty::Bool)])).unwrap();
        check(
            &paper_udfs::kmeans_udf(),
            &schema(&[("assigned", Ty::Bool), ("cluster", Ty::Int)]),
        )
        .unwrap();
        check(
            &paper_udfs::sampling_udf(),
            &schema(&[("weight", Ty::Float), ("r", Ty::Float)]),
        )
        .unwrap();
    }

    #[test]
    fn unknown_property_rejected() {
        let err = check(&paper_udfs::bfs_udf(), &schema(&[])).unwrap_err();
        assert_eq!(err, UdfError::UnknownProperty("frontier".into()));
    }

    #[test]
    fn break_outside_loop_rejected() {
        let udf = UdfFn::new("bad", Ty::Bool, vec![Stmt::Break]);
        assert_eq!(
            check(&udf, &schema(&[])),
            Err(UdfError::OutsideLoop("break".into()))
        );
    }

    #[test]
    fn neighbor_outside_loop_rejected() {
        let udf = UdfFn::new("bad", Ty::Vertex, vec![Stmt::Emit(Expr::CurrentNeighbor)]);
        assert_eq!(
            check(&udf, &schema(&[])),
            Err(UdfError::OutsideLoop("u".into()))
        );
    }

    #[test]
    fn type_mismatch_in_condition() {
        let udf = UdfFn::new(
            "bad",
            Ty::Bool,
            vec![Stmt::for_neighbors(vec![Stmt::if_(
                Expr::i(1),
                vec![Stmt::Break],
            )])],
        );
        assert!(matches!(
            check(&udf, &schema(&[])),
            Err(UdfError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn undefined_local_rejected() {
        let udf = UdfFn::new("bad", Ty::Int, vec![Stmt::assign("x", Expr::i(1))]);
        assert_eq!(
            check(&udf, &schema(&[])),
            Err(UdfError::UndefinedLocal("x".into()))
        );
    }

    #[test]
    fn duplicate_local_rejected() {
        let udf = UdfFn::new(
            "bad",
            Ty::Int,
            vec![
                Stmt::let_("x", Ty::Int, Expr::i(1)),
                Stmt::let_("x", Ty::Int, Expr::i(2)),
            ],
        );
        assert_eq!(
            check(&udf, &schema(&[])),
            Err(UdfError::DuplicateLocal("x".into()))
        );
    }

    #[test]
    fn in_loop_redeclaration_rejected() {
        // Used to be silently allowed (`is_some() && !in_loop`), shadowing
        // the carried local the analyzer extracts.
        let udf = UdfFn::new(
            "bad",
            Ty::Int,
            vec![
                Stmt::let_("cnt", Ty::Int, Expr::i(0)),
                Stmt::for_neighbors(vec![
                    Stmt::let_("cnt", Ty::Int, Expr::i(7)),
                    Stmt::assign("cnt", Expr::local("cnt").add(Expr::i(1))),
                    Stmt::if_(Expr::local("cnt").ge(Expr::i(3)), vec![Stmt::Break]),
                ]),
                Stmt::Emit(Expr::local("cnt")),
            ],
        );
        assert_eq!(
            check(&udf, &schema(&[])),
            Err(UdfError::DuplicateLocal("cnt".into()))
        );
        // And the collecting checker anchors it to the shadowing statement
        // (pre-order id 2: let, for, inner let).
        let diags = check_all(&udf, &schema(&[]));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "E005");
        assert_eq!(diags[0].stmt, Some(2));
    }

    #[test]
    fn check_all_collects_multiple_errors_in_order() {
        let udf = UdfFn::new(
            "bad",
            Ty::Int,
            vec![
                Stmt::assign("x", Expr::i(1)),       // 0: undefined local
                Stmt::Break,                         // 1: break outside loop
                Stmt::Emit(Expr::prop_v("missing")), // 2: unknown property
            ],
        );
        let diags = check_all(&udf, &schema(&[]));
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["E001", "E004", "E002"]);
        assert_eq!(diags[0].stmt, Some(0));
        assert_eq!(diags[1].stmt, Some(1));
        assert_eq!(diags[2].stmt, Some(2));
        // the fail-fast wrapper reports the first of these
        assert_eq!(
            check(&udf, &schema(&[])),
            Err(UdfError::UndefinedLocal("x".into()))
        );
    }

    #[test]
    fn int_widens_to_float() {
        let udf = UdfFn::new(
            "ok",
            Ty::Float,
            vec![
                Stmt::let_("x", Ty::Float, Expr::i(1)),
                Stmt::Emit(Expr::local("x").add(Expr::i(2))),
            ],
        );
        check(&udf, &schema(&[])).unwrap();
    }
}
