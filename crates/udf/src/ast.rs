//! Abstract syntax of the vertex-UDF language.
//!
//! A UDF is the body of a *dense signal* function (paper Figure 1b): it
//! runs once per destination vertex `v`, may traverse `v`'s (local)
//! in-neighbours with a [`Stmt::ForNeighbors`] loop binding `u`, reads
//! per-vertex property arrays (`frontier[u]`, `color[v]`, …), and emits
//! update values to `v`'s master. `break` inside the neighbour loop is
//! the loop-carried dependency this whole system is about.
//!
//! ASTs are built with the constructor helpers on [`Expr`] and [`Stmt`],
//! or parsed from text by [`crate::parser`].
//!
//! The analyses query the AST through two visitors, as the paper's
//! analyzer queries clang's through one: [`preorder`] walks the
//! statements and is the one definition of [`StmtId`] numbering, and
//! [`Expr::any`] searches an expression's sub-expressions. A statement's
//! own expression, without those of its nested statements, is
//! [`Stmt::expr`].

use crate::diag::StmtId;
use crate::types::{Ty, Value};

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Boolean negation.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Short-circuit conjunction.
    And,
    /// Short-circuit disjunction.
    Or,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// A local variable read.
    Local(String),
    /// A per-vertex property read: `array[index]`.
    Prop {
        /// Property array name.
        array: String,
        /// Index expression (must be vertex-typed).
        index: Box<Expr>,
    },
    /// The destination vertex `v`.
    CurrentVertex,
    /// The neighbour `u` bound by the enclosing neighbour loop.
    CurrentNeighbor,
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Boolean literal.
    pub fn b(x: bool) -> Expr {
        Expr::Lit(Value::Bool(x))
    }

    /// Integer literal.
    pub fn i(x: i64) -> Expr {
        Expr::Lit(Value::Int(x))
    }

    /// Float literal.
    pub fn f(x: f64) -> Expr {
        Expr::Lit(Value::Float(x))
    }

    /// Local variable read.
    pub fn local(name: &str) -> Expr {
        Expr::Local(name.to_string())
    }

    /// Property read `array[index]`.
    pub fn prop(array: &str, index: Expr) -> Expr {
        Expr::Prop {
            array: array.to_string(),
            index: Box::new(index),
        }
    }

    /// Property read at the current neighbour: `array[u]`.
    pub fn prop_u(array: &str) -> Expr {
        Expr::prop(array, Expr::CurrentNeighbor)
    }

    /// Property read at the current vertex: `array[v]`.
    pub fn prop_v(array: &str) -> Expr {
        Expr::prop(array, Expr::CurrentVertex)
    }

    /// Boolean negation.
    #[allow(clippy::should_implement_trait)] // DSL-style builder, not ops::Not
    pub fn not(self) -> Expr {
        Expr::Unary(UnOp::Not, Box::new(self))
    }

    /// Binary operation helper.
    pub fn bin(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(self), Box::new(rhs))
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Lt, rhs)
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ge, rhs)
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)] // DSL-style builder, not ops::Add
    pub fn add(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Add, rhs)
    }

    /// `self && rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        self.bin(BinOp::And, rhs)
    }

    /// Does `pred` hold for this expression or any of its
    /// sub-expressions? Visits in pre-order and stops at the first hit,
    /// so a predicate that always answers `false` visits every node.
    pub fn any(&self, mut pred: impl FnMut(&Expr) -> bool) -> bool {
        fn go(e: &Expr, pred: &mut dyn FnMut(&Expr) -> bool) -> bool {
            pred(e)
                || match e {
                    Expr::Prop { index, .. } => go(index, pred),
                    Expr::Unary(_, a) => go(a, pred),
                    Expr::Binary(_, a, b) => go(a, pred) || go(b, pred),
                    Expr::Lit(_) | Expr::Local(_) | Expr::CurrentVertex | Expr::CurrentNeighbor => {
                        false
                    }
                }
        }
        go(self, &mut pred)
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Local declaration with initialiser.
    Let {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: Ty,
        /// Initial value.
        init: Expr,
    },
    /// Assignment to a local.
    Assign {
        /// Variable name.
        name: String,
        /// New value.
        value: Expr,
    },
    /// Two-way conditional.
    If {
        /// Condition (bool-typed).
        cond: Expr,
        /// Taken when true.
        then_branch: Vec<Stmt>,
        /// Taken when false.
        else_branch: Vec<Stmt>,
    },
    /// The neighbour-traversal loop (binds [`Expr::CurrentNeighbor`]).
    ForNeighbors {
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Break out of the neighbour loop.
    Break,
    /// Emit an update value for the current vertex's master.
    Emit(Expr),
    /// Return from the UDF.
    Return,
    /// *Instrumentation (paper Figure 5):* `d = receive_dep(v); if
    /// (d.skip) return;` plus restoring the carried locals named in the
    /// instrumented function's dependency info. Inserted by
    /// [`crate::instrument`]; hand-written UDFs never contain it.
    ReceiveDepGuard,
    /// *Instrumentation:* `emit_dep(v, d)` — record the break (and the
    /// current carried locals) in the dependency state. Inserted before
    /// each `break` by [`crate::instrument`].
    EmitDep,
}

impl Stmt {
    /// `let name: ty = init;`
    pub fn let_(name: &str, ty: Ty, init: Expr) -> Stmt {
        Stmt::Let {
            name: name.to_string(),
            ty,
            init,
        }
    }

    /// `name = value;`
    pub fn assign(name: &str, value: Expr) -> Stmt {
        Stmt::Assign {
            name: name.to_string(),
            value,
        }
    }

    /// `if (cond) { then_branch }`
    pub fn if_(cond: Expr, then_branch: Vec<Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then_branch,
            else_branch: Vec::new(),
        }
    }

    /// `if (cond) { then_branch } else { else_branch }`
    pub fn if_else(cond: Expr, then_branch: Vec<Stmt>, else_branch: Vec<Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        }
    }

    /// `for u in nbrs(v) { body }`
    pub fn for_neighbors(body: Vec<Stmt>) -> Stmt {
        Stmt::ForNeighbors { body }
    }

    /// The statement's own expression — a `let` initialiser, an assigned
    /// value, an `if` condition or an emitted value — not those of the
    /// statements nested in it.
    pub fn expr(&self) -> Option<&Expr> {
        match self {
            Stmt::Let { init: e, .. }
            | Stmt::Assign { value: e, .. }
            | Stmt::If { cond: e, .. }
            | Stmt::Emit(e) => Some(e),
            Stmt::ForNeighbors { .. }
            | Stmt::Break
            | Stmt::Return
            | Stmt::ReceiveDepGuard
            | Stmt::EmitDep => None,
        }
    }
}

/// Walks `block` in pre-order — a statement before the statements nested
/// in it, `then` before `else` — yielding `(id, stmt, in_loop)`, where
/// `in_loop` says the statement sits inside a neighbour loop of `block`.
///
/// Over a function body this numbering *is* [`StmtId`]: the parser's
/// [`crate::SpanMap`], the control-flow graph's nodes and every
/// diagnostic use it.
pub fn preorder(block: &[Stmt]) -> impl Iterator<Item = (StmtId, &Stmt, bool)> {
    let mut stack = vec![(block.iter(), false)];
    let mut next = 0;
    std::iter::from_fn(move || loop {
        let (iter, in_loop) = stack.last_mut()?;
        let in_loop = *in_loop;
        let Some(s) = iter.next() else {
            stack.pop();
            continue;
        };
        match s {
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                stack.push((else_branch.iter(), in_loop));
                stack.push((then_branch.iter(), in_loop));
            }
            Stmt::ForNeighbors { body } => stack.push((body.iter(), true)),
            _ => {}
        }
        next += 1;
        return Some((next - 1, s, in_loop));
    })
}

/// A dense-signal UDF.
#[derive(Debug, Clone, PartialEq)]
pub struct UdfFn {
    /// Function name (for diagnostics and pretty-printing).
    pub name: String,
    /// Type of emitted update values.
    pub update_ty: Ty,
    /// Function body.
    pub body: Vec<Stmt>,
}

impl UdfFn {
    /// Creates a UDF.
    pub fn new(name: &str, update_ty: Ty, body: Vec<Stmt>) -> Self {
        UdfFn {
            name: name.to_string(),
            update_ty,
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::tests::{loop_in_if, two_loops};
    use crate::cfg::Cfg;
    use crate::parser::{parse_udf, parse_udf_with_spans};
    use crate::test_gen::Gen;
    use crate::{check_all, paper_udfs, pretty};
    use std::collections::BTreeMap;

    /// The eight paper and matrix UDFs, the benchmark registry's `bounded`
    /// kernel (its one break is provably dead), the analysis tests' loop
    /// in an `if` and two sequential loops, and 200 random well-typed
    /// UDFs from `tests/support/gen.rs`.
    fn corpus() -> Vec<UdfFn> {
        let bounded = UdfFn::new(
            "bounded",
            Ty::Int,
            vec![
                Stmt::let_("dbg", Ty::Bool, Expr::b(false)),
                Stmt::let_("done", Ty::Bool, Expr::b(false)),
                Stmt::for_neighbors(vec![
                    Stmt::if_(Expr::prop_u("active"), vec![Stmt::Emit(Expr::i(1))]),
                    Stmt::if_(
                        Expr::local("dbg"),
                        vec![Stmt::assign("done", Expr::b(true)), Stmt::Break],
                    ),
                ]),
                Stmt::if_(Expr::local("done").not(), vec![Stmt::Emit(Expr::i(0))]),
            ],
        );
        let mut udfs = vec![
            paper_udfs::bfs_udf(),
            paper_udfs::mis_udf(),
            paper_udfs::kcore_udf(4),
            paper_udfs::kmeans_udf(),
            paper_udfs::sampling_udf(),
            paper_udfs::sssp_udf(),
            paper_udfs::cc_udf(),
            paper_udfs::pagerank_udf(),
            bounded,
            loop_in_if(),
            two_loops(),
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..200 {
            let choices: Vec<u32> = (0..160)
                .map(|_| {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (x >> 33) as u32
                })
                .collect();
            let ty = [Ty::Bool, Ty::Int, Ty::Float, Ty::Vertex][i % 4];
            udfs.push(Gen::new(&choices, ty).udf());
        }
        udfs
    }

    /// The walk's ids are the ids of the parser's span map, of the CFG's
    /// statements, of `check_all`'s diagnostics and of the abstract
    /// interpreter's loop sites — the last two keep counters of their
    /// own, pinned here.
    #[test]
    fn walk_ids_are_the_one_statement_numbering() {
        for udf in &corpus() {
            let walk: Vec<_> = preorder(&udf.body).collect();
            let cfg = Cfg::build(udf);
            assert_eq!(cfg.num_stmts(), walk.len());
            for &(id, s, _) in &walk {
                assert!(std::ptr::eq(cfg.stmt(id), s), "statement {id} of {udf:?}");
            }

            // Without a schema every statement whose own expression reads
            // a property reports exactly one E002, at its id.
            let diags = check_all(udf, &BTreeMap::new());
            assert!(diags.iter().all(|d| d.code == "E002"), "{diags:?}");
            let reads_prop = |s: &Stmt| {
                s.expr()
                    .is_some_and(|e| e.any(|x| matches!(x, Expr::Prop { .. })))
            };
            let want: Vec<_> = walk
                .iter()
                .filter(|(_, s, _)| reads_prop(s))
                .map(|&(id, ..)| Some(id))
                .collect();
            let got: Vec<_> = diags.iter().map(|d| d.stmt).collect();
            assert_eq!(got, want, "{udf:?}");

            let sites = crate::absint::scan(&udf.body);
            let in_loop = |pred: fn(&Stmt) -> bool| -> Vec<StmtId> {
                walk.iter()
                    .filter(|&&(_, s, in_loop)| in_loop && pred(s))
                    .map(|&(id, ..)| id)
                    .collect()
            };
            let assigns: Vec<_> = sites.assigns.iter().map(|a| a.id).collect();
            assert_eq!(assigns, in_loop(|s| matches!(s, Stmt::Assign { .. })));
            let breaks: Vec<_> = sites.breaks.iter().map(|b| b.id).collect();
            assert_eq!(breaks, in_loop(|s| matches!(s, Stmt::Break)));

            // Statement `id`'s span re-parses to statement `id`. Every
            // program's pretty text parses back; `i64::MIN` comes back as
            // a difference, so the parsed program is the one checked.
            let src = pretty(udf);
            let (parsed, spans) =
                parse_udf_with_spans(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
            let walk: Vec<_> = preorder(&parsed.body).collect();
            assert_eq!(spans.len(), walk.len(), "{src}");
            for (id, s, _) in walk {
                let span = spans.get(id).unwrap();
                let one = format!(
                    "def t(Vertex v, Array[Vertex] nbrs) -> {} {{ {} }}",
                    udf.update_ty,
                    &src[span.start..span.end]
                );
                // `Debug`, because a NaN literal is no NaN's `==`.
                assert_eq!(
                    format!("{:?}", parse_udf(&one).unwrap().body),
                    format!("{:?}", std::slice::from_ref(s)),
                    "{id} of\n{src}"
                );
            }
        }
    }

    #[test]
    fn any_visits_in_pre_order_and_stops_at_the_first_hit() {
        let e = Expr::prop("p", Expr::local("a")).add(Expr::local("b").not());
        let mut seen = Vec::new();
        let hit = e.any(|x| {
            seen.push(x.clone());
            *x == Expr::local("a")
        });
        assert!(hit);
        assert_eq!(
            seen,
            [
                e.clone(),
                Expr::prop("p", Expr::local("a")),
                Expr::local("a")
            ]
        );
        assert!(!e.any(|x| *x == Expr::CurrentNeighbor));
    }

    #[test]
    fn builder_helpers_compose() {
        // if (frontier[u]) { emit(u); break; }
        let s = Stmt::if_(
            Expr::prop_u("frontier"),
            vec![Stmt::Emit(Expr::CurrentNeighbor), Stmt::Break],
        );
        match &s {
            Stmt::If {
                cond, then_branch, ..
            } => {
                assert_eq!(*cond, Expr::prop("frontier", Expr::CurrentNeighbor));
                assert_eq!(then_branch.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn expr_helpers() {
        let e = Expr::local("cnt").ge(Expr::i(3));
        assert_eq!(
            e,
            Expr::Binary(
                BinOp::Ge,
                Box::new(Expr::Local("cnt".into())),
                Box::new(Expr::Lit(Value::Int(3)))
            )
        );
        let n = Expr::b(true).not();
        assert_eq!(n, Expr::Unary(UnOp::Not, Box::new(Expr::b(true))));
    }

    #[test]
    fn udf_construction() {
        let udf = UdfFn::new("noop", Ty::Bool, vec![Stmt::for_neighbors(vec![])]);
        assert_eq!(udf.name, "noop");
        assert_eq!(udf.body.len(), 1);
    }
}
