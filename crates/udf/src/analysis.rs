//! Pass 1 of the analyzer (paper §4.2): locate the neighbour loop, decide
//! whether loop-carried dependency exists, and identify the dependency
//! state.
//!
//! * **Control dependency**: a `break` statement reachable inside the
//!   neighbour loop — "there is at least one break statement related to
//!   the for-loop" (§4.2 1.b.3).
//! * **Data dependency**: locals declared before the loop whose values
//!   flow across iterations — assigned inside the loop and read again
//!   (inside the loop or after it). These become the `DepMessage` data
//!   members (§4.1): K-core's counter, sampling's prefix sum.
//!
//! Two analyzers are exposed. [`analyze_naive`] is the paper's purely
//! syntactic rule. [`analyze`] refines it with the dataflow engine in
//! [`crate::cfg`]/[`crate::dataflow`]:
//!
//! * **Carried-state minimization.** A syntactically carried local is
//!   dropped from the wire when shipping it cannot change any observable
//!   value. `x` stays carried only if it is *live* at its restore point
//!   (the `let` the instrumentation rewrites) **and** either some
//!   assignment to it survives to a break-free exit (reaching definitions
//!   over the break-pruned CFG) or its initialiser is not the zero value
//!   the first segment restores. See DESIGN.md §11 for the soundness
//!   argument under circulant scheduling.
//! * **Dead-dependency elimination.** Constant propagation plus branch
//!   pruning can prove every `break` unreachable, in which case the UDF is
//!   downgraded to [`DepKind::None`] and no dependency is circulated at
//!   all ([`effective_policy`] then drops the SympleGraph machinery).
//!
//! The dataflow facts both halves need, and the lints read too, are solved
//! once per UDF by [`Facts::of`].

use std::collections::{BTreeMap, BTreeSet};

use crate::absint::certify;
use crate::ast::{preorder, Expr, Stmt, UdfFn};
use crate::certificate::DepCertificate;
use crate::cfg::{Cfg, NodeId, EXIT};
use crate::dataflow::{const_eval, solve_finite, Const, ConstProp, Liveness, ReachingDefs};
use crate::diag::StmtId;
use crate::types::{Ty, Value};
use crate::UdfError;
use symple_core::Policy;

/// What kind of loop-carried dependency a UDF has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// No neighbour loop, or no (reachable) break: nothing to enforce.
    None,
    /// Break only — the dependency message is a single skip bit.
    Control,
    /// Break plus carried locals — the message also carries their values.
    Data,
}

/// Analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct DepInfo {
    /// Dependency classification.
    pub kind: DepKind,
    /// Carried locals `(name, type)`, in declaration order.
    pub carried: Vec<(String, Ty)>,
    /// Number of `break` statements inside the neighbour loop
    /// (syntactic count, independent of reachability).
    pub breaks: usize,
    /// Breaks the dataflow analysis could not prove unreachable. When this
    /// is zero the dependency is dead and `kind` is [`DepKind::None`].
    pub reachable_breaks: usize,
    /// Abstract-interpretation certificate: value ranges and
    /// monotonicity/latch facts for the carried locals.
    /// [`analyze`] attaches real inferred facts; [`analyze_naive`] attaches
    /// the inert wide certificate so naive instrumentation keeps the
    /// uncertified wire format.
    pub cert: DepCertificate,
}

impl DepInfo {
    /// Shorthand: does any dependency exist?
    pub fn has_dependency(&self) -> bool {
        self.kind != DepKind::None
    }

    fn none(breaks: usize) -> Self {
        DepInfo {
            kind: DepKind::None,
            carried: Vec::new(),
            breaks,
            reachable_breaks: 0,
            cert: DepCertificate::default(),
        }
    }
}

/// The scheduling policy a dependency analysis actually requires.
///
/// SympleGraph's circulant scheduling and mirror→mirror dependency
/// circulation only pay off when the UDF has a loop-carried dependency; for
/// a [`DepKind::None`] UDF the whole apparatus is dead weight (and dep
/// messages would still be exchanged every round). This helper downgrades a
/// SympleGraph policy to plain Gemini-style edge placement in that case and
/// leaves every other request untouched.
pub fn effective_policy(info: &DepInfo, requested: Policy) -> Policy {
    if info.has_dependency() || !requested.propagates_dependency() {
        requested
    } else {
        Policy::Gemini
    }
}

/// Analyzes a UDF for loop-carried dependency, with dataflow-based
/// carried-state minimization and dead-dependency elimination.
///
/// The carried set is a subset of [`analyze_naive`]'s: instrumenting with
/// either produces bit-identical outputs and work counters, but this one
/// ships fewer bytes per `DepMessage`.
///
/// # Errors
///
/// Returns [`UdfError::NestedLoop`] if neighbour loops nest, and
/// [`UdfError::AlreadyInstrumented`] if instrumentation nodes are present.
///
/// # Example
///
/// ```
/// use symple_udf::{analyze, DepKind};
/// let udf = symple_udf::paper_udfs::bfs_udf();
/// let info = analyze(&udf).unwrap();
/// assert_eq!(info.kind, DepKind::Control);
/// assert_eq!(info.breaks, 1);
/// ```
pub fn analyze(udf: &UdfFn) -> Result<DepInfo, UdfError> {
    // Nothing carried, nothing to minimise: the dataflow facts are
    // solved only for a UDF with a dependency.
    match analyze_naive(udf)? {
        naive if naive.has_dependency() => Facts::of(udf, Ok(naive)).analyze(),
        naive => Ok(naive),
    }
}

/// The dataflow facts of one UDF that [`analyze`] and the lints both
/// read, solved once.
pub(crate) struct Facts<'a> {
    pub(crate) udf: &'a UdfFn,
    pub(crate) cfg: Cfg<'a>,
    /// [`analyze_naive`]'s result; its carried set (empty on an error) is
    /// what the two analyses below assume.
    pub(crate) naive: Result<DepInfo, UdfError>,
    /// Constant propagation before each node, distrusting the initialisers
    /// of the naive carried locals: instrumentation rewrites those `let`s
    /// into wire restores, so their run-time value is whatever the
    /// previous machine shipped.
    consts: Vec<BTreeMap<String, Const>>,
    /// Nodes reachable once constant branches are pruned.
    pub(crate) reachable: Vec<bool>,
    /// Locals live after each node, the naive carried set live at `Exit`
    /// (a break-free exit snapshots them onto the wire).
    pub(crate) live: Vec<BTreeSet<String>>,
}

impl<'a> Facts<'a> {
    /// Solves the facts of `udf`, given its [`analyze_naive`] result.
    pub(crate) fn of(udf: &'a UdfFn, naive: Result<DepInfo, UdfError>) -> Self {
        let cfg = Cfg::build(udf);
        let carried: BTreeSet<String> = naive
            .iter()
            .flat_map(|i| i.carried.iter().map(|(n, _)| n.clone()))
            .collect();
        let consts = solve_finite(
            &cfg,
            &ConstProp {
                untrusted_lets: carried.clone(),
            },
        );
        let live = solve_finite(&cfg, &Liveness { exit_live: carried });
        let mut facts = Facts {
            udf,
            cfg,
            naive,
            consts,
            reachable: Vec::new(),
            live,
        };
        facts.reachable = facts.cfg.reachable(|node| facts.const_branch(node));
        facts
    }

    /// The condition of the `if` at `node`, when constant propagation
    /// proves it constant.
    pub(crate) fn const_branch(&self, node: NodeId) -> Option<bool> {
        match self.cfg.stmt_of(node).map(|id| self.cfg.stmt(id)) {
            Some(Stmt::If { cond, .. }) => match const_eval(cond, &self.consts[node]) {
                Some(Const::Val(Value::Bool(b))) => Some(b),
                _ => None,
            },
            _ => None,
        }
    }

    /// The statement that declares local `name`.
    pub(crate) fn let_of(&self, name: &str) -> Option<StmtId> {
        (0..self.cfg.num_stmts())
            .find(|&id| matches!(self.cfg.stmt(id), Stmt::Let { name: n, .. } if n == name))
    }

    /// [`analyze`]'s result.
    pub(crate) fn analyze(&self) -> Result<DepInfo, UdfError> {
        let naive = self.naive.clone()?;
        if !naive.has_dependency() {
            return Ok(naive);
        }
        let cfg = &self.cfg;

        // Dead-dependency elimination, step 1: a break pruned away by
        // constant branches (or plain unreachability) can never fire, so
        // the *skip* half of the dependency is dead. Whether circulation
        // can stop entirely also depends on the carried state being
        // unobservable — see below.
        let reachable_breaks = cfg.breaks().iter().filter(|&&b| self.reachable[b]).count();

        // Carried-state minimization. Keep x iff
        //   Live(x at its restore point)  ∧  (Mod(x) ∨ ¬InitZero(x))
        // where Mod means an assignment to x reaches a break-free exit (the
        // only exits whose snapshot downstream machines observe) and
        // InitZero means the initialiser provably equals the zero value the
        // first segment's restore produces.
        let rd = solve_finite(&cfg.prune_breaks(), &ReachingDefs);
        let carried = naive
            .carried
            .iter()
            .filter(|(name, ty)| {
                let Some(let_id) = self.let_of(name) else {
                    return true; // defensive: no declaration found, keep it
                };
                let node = cfg.node_of(let_id);
                let modified = rd[EXIT]
                    .iter()
                    .any(|(n, d)| n == name && matches!(cfg.stmt(*d), Stmt::Assign { .. }));
                let init_zero = match cfg.stmt(let_id) {
                    Stmt::Let { init, .. } => init_is_zero(init, &self.consts[node], *ty),
                    _ => false,
                };
                self.live[node].contains(name) && (modified || !init_zero)
            })
            .cloned()
            .collect::<Vec<_>>();

        // Dead-dependency elimination, step 2: circulation may stop
        // entirely only if no break can fire (no machine ever skips) AND
        // the minimized carried set is empty (the restore writes only
        // values that are dead or bit-identical to the zero-init, so
        // downstream segments cannot observe whether circulation
        // happened). A UDF that accumulates into a live local keeps its
        // Data dependency even with all breaks dead: under circulant
        // scheduling later segments observe the prefix value.
        if reachable_breaks == 0 && carried.is_empty() {
            return Ok(DepInfo::none(naive.breaks));
        }

        // Abstract interpretation over the minimized carried set: value
        // ranges for width-narrowed wire encoding and monotonicity/latch
        // facts for certified early-exit.
        let cert = certify(self.udf, &carried);

        Ok(DepInfo {
            kind: if carried.is_empty() {
                DepKind::Control
            } else {
                DepKind::Data
            },
            carried,
            breaks: naive.breaks,
            reachable_breaks,
            cert,
        })
    }
}

/// Does `init` provably evaluate to `Value::zero(ty)` — the value the first
/// circulant segment's restore produces for a carried local?
fn init_is_zero(init: &Expr, env: &BTreeMap<String, Const>, ty: Ty) -> bool {
    match const_eval(init, env) {
        Some(Const::Val(v)) => {
            let zero = Value::zero(ty);
            v.ty() == zero.ty() && v.to_bits() == zero.to_bits()
        }
        _ => false,
    }
}

/// The paper's purely syntactic dependency analysis (§4.2): every pre-loop
/// local assigned inside the loop and read again is carried, and any
/// syntactic `break` makes the dependency real.
///
/// # Errors
///
/// Same contract as [`analyze`].
pub fn analyze_naive(udf: &UdfFn) -> Result<DepInfo, UdfError> {
    let stmts = || preorder(&udf.body).map(|(_, s, in_loop)| (s, in_loop));
    // refuse pre-instrumented input
    if stmts().any(|(s, _)| matches!(s, Stmt::ReceiveDepGuard | Stmt::EmitDep)) {
        return Err(UdfError::AlreadyInstrumented);
    }
    if stmts().any(|(s, in_loop)| in_loop && matches!(s, Stmt::ForNeighbors { .. })) {
        return Err(UdfError::NestedLoop);
    }

    // The first neighbour loop in pre-order, possibly inside an `if`.
    let Some(loop_body) = stmts().find_map(|(s, _)| match s {
        Stmt::ForNeighbors { body } => Some(body),
        _ => None,
    }) else {
        return Ok(DepInfo::none(0));
    };
    let loop_stmts = || preorder(loop_body).map(|(_, s, _)| s);
    let breaks = loop_stmts().filter(|s| matches!(s, Stmt::Break)).count();
    if breaks == 0 {
        return Ok(DepInfo::none(0));
    }

    // Candidates are the top-level `let`s before the first top-level
    // loop; "after the loop" is the top-level statements past it. A loop
    // nested in an `if` has no top-level loop to split at: every
    // top-level `let` is a candidate and nothing counts as after it.
    let (before, after) = match udf
        .body
        .iter()
        .position(|s| matches!(s, Stmt::ForNeighbors { .. }))
    {
        Some(at) => (&udf.body[..at], &udf.body[at + 1..]),
        None => (&udf.body[..], &[][..]),
    };
    let reads = |block: &[Stmt], name: &str| {
        preorder(block).any(|(_, s, _)| {
            s.expr()
                .is_some_and(|e| e.any(|x| matches!(x, Expr::Local(n) if n == name)))
        })
    };
    let carried: Vec<(String, Ty)> = before
        .iter()
        .filter_map(|s| match s {
            Stmt::Let { name, ty, .. } => Some((name.clone(), *ty)),
            _ => None,
        })
        .filter(|(name, _)| {
            loop_stmts().any(|s| matches!(s, Stmt::Assign { name: n, .. } if n == name))
                && (reads(loop_body, name) || reads(after, name))
        })
        .collect();

    Ok(DepInfo {
        kind: if carried.is_empty() {
            DepKind::Control
        } else {
            DepKind::Data
        },
        cert: DepCertificate::wide(&carried),
        carried,
        breaks,
        reachable_breaks: breaks,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::certificate::{CarriedCert, Monotonicity, ValueRange};
    use crate::paper_udfs;

    /// A neighbour loop inside an `if`: `x` is assigned in the loop but
    /// read only after the `if`, where the rule's "after the loop" (the
    /// top-level statements past a top-level loop) does not look.
    pub(crate) fn loop_in_if() -> UdfFn {
        UdfFn::new(
            "loop_in_if",
            Ty::Int,
            vec![
                Stmt::let_("a", Ty::Int, Expr::i(0)),
                Stmt::let_("x", Ty::Int, Expr::i(0)),
                Stmt::if_(
                    Expr::prop_v("flag"),
                    vec![Stmt::for_neighbors(vec![
                        Stmt::assign("a", Expr::local("a").add(Expr::i(1))),
                        Stmt::assign("x", Expr::i(1)),
                        Stmt::if_(Expr::prop_u("flag"), vec![Stmt::Break]),
                    ])],
                ),
                Stmt::Emit(Expr::local("x").add(Expr::local("a"))),
            ],
        )
    }

    /// Two sequential loops: the rule analyses the first one only, so
    /// `s` (assigned in the second) is not carried and the second loop's
    /// two breaks are not counted.
    pub(crate) fn two_loops() -> UdfFn {
        UdfFn::new(
            "two_loops",
            Ty::Int,
            vec![
                Stmt::let_("c", Ty::Int, Expr::i(0)),
                Stmt::let_("s", Ty::Int, Expr::i(0)),
                Stmt::for_neighbors(vec![
                    Stmt::assign("c", Expr::local("c").add(Expr::i(1))),
                    Stmt::if_(Expr::prop_u("flag"), vec![Stmt::Break]),
                ]),
                Stmt::for_neighbors(vec![
                    Stmt::assign("s", Expr::local("s").add(Expr::i(1))),
                    Stmt::if_(Expr::local("c").ge(Expr::i(2)), vec![Stmt::Break]),
                    Stmt::if_(Expr::prop_u("flag"), vec![Stmt::Break]),
                ]),
                Stmt::Emit(Expr::local("s")),
            ],
        )
    }

    /// The `DepInfo` both shapes get: `carried` the one unbounded int
    /// local, one counted break.
    fn pinned(carried: &str, reachable_breaks: usize, minimized: bool) -> DepInfo {
        DepInfo {
            kind: DepKind::Data,
            carried: vec![(carried.to_string(), Ty::Int)],
            breaks: 1,
            reachable_breaks,
            cert: DepCertificate {
                carried: vec![CarriedCert {
                    name: carried.to_string(),
                    ty: Ty::Int,
                    range: ValueRange::Unbounded,
                    width: 8,
                    mono: if minimized {
                        Monotonicity::NonDecreasing
                    } else {
                        Monotonicity::Unknown
                    },
                }],
                skip_latch: minimized,
                stable_breaks: minimized,
            },
        }
    }

    #[test]
    fn a_loop_inside_an_if_has_no_after() {
        let udf = loop_in_if();
        assert_eq!(analyze_naive(&udf), Ok(pinned("a", 1, false)));
        assert_eq!(analyze(&udf), Ok(pinned("a", 1, true)));
    }

    #[test]
    fn only_the_first_of_two_loops_is_analysed() {
        let udf = two_loops();
        assert_eq!(analyze_naive(&udf), Ok(pinned("c", 1, false)));
        // The dataflow half counts reachable breaks over the whole CFG.
        assert_eq!(analyze(&udf), Ok(pinned("c", 3, true)));
    }

    #[test]
    fn bfs_is_control_only() {
        let info = analyze(&paper_udfs::bfs_udf()).unwrap();
        assert_eq!(info.kind, DepKind::Control);
        assert!(info.carried.is_empty());
        assert_eq!(info.breaks, 1);
        assert_eq!(info.reachable_breaks, 1);
    }

    #[test]
    fn mis_is_control_only() {
        let info = analyze(&paper_udfs::mis_udf()).unwrap();
        assert_eq!(info.kind, DepKind::Control);
    }

    #[test]
    fn kmeans_is_control_only() {
        let info = analyze(&paper_udfs::kmeans_udf()).unwrap();
        assert_eq!(info.kind, DepKind::Control);
    }

    #[test]
    fn kcore_carries_its_counter() {
        let info = analyze(&paper_udfs::kcore_udf(4)).unwrap();
        assert_eq!(info.kind, DepKind::Data);
        let names: Vec<&str> = info.carried.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"cnt"), "carried: {names:?}");
        assert!(
            !names.contains(&"start"),
            "start is assigned only outside the loop: {names:?}"
        );
    }

    #[test]
    fn kcore_done_flag_is_minimized_away() {
        // Naively, `done` is carried: assigned in the loop and read in the
        // suffix. But the only assignment is immediately followed by
        // `break`, so its value can never survive to a no-break snapshot —
        // downstream machines always observe `false`, which is also what
        // the first segment restores. The dataflow analyzer drops it.
        let naive = analyze_naive(&paper_udfs::kcore_udf(4)).unwrap();
        let min = analyze(&paper_udfs::kcore_udf(4)).unwrap();
        let naive_names: Vec<&str> = naive.carried.iter().map(|(n, _)| n.as_str()).collect();
        let min_names: Vec<&str> = min.carried.iter().map(|(n, _)| n.as_str()).collect();
        assert!(naive_names.contains(&"done"), "naive: {naive_names:?}");
        assert!(!min_names.contains(&"done"), "minimized: {min_names:?}");
        assert_eq!(min_names, vec!["cnt"]);
    }

    #[test]
    fn sampling_carries_the_prefix_sum() {
        let info = analyze(&paper_udfs::sampling_udf()).unwrap();
        assert_eq!(info.kind, DepKind::Data);
        assert_eq!(info.carried[0].0, "acc");
        assert_eq!(info.carried[0].1, Ty::Float);
    }

    #[test]
    fn minimized_carried_is_subset_of_naive() {
        for udf in [
            paper_udfs::bfs_udf(),
            paper_udfs::mis_udf(),
            paper_udfs::kmeans_udf(),
            paper_udfs::kcore_udf(4),
            paper_udfs::sampling_udf(),
        ] {
            let naive = analyze_naive(&udf).unwrap();
            let min = analyze(&udf).unwrap();
            for c in &min.carried {
                assert!(
                    naive.carried.contains(c),
                    "{}: {c:?} not in naive",
                    udf.name
                );
            }
            assert!(min.carried.len() <= naive.carried.len());
        }
    }

    #[test]
    fn loop_without_break_has_no_dependency() {
        use crate::ast::{Expr, Stmt, UdfFn};
        // sum all neighbour weights, emit once — no break
        let udf = UdfFn::new(
            "sum",
            Ty::Float,
            vec![
                Stmt::let_("s", Ty::Float, Expr::f(0.0)),
                Stmt::for_neighbors(vec![Stmt::assign(
                    "s",
                    Expr::local("s").add(Expr::prop_u("weight")),
                )]),
                Stmt::Emit(Expr::local("s")),
            ],
        );
        let info = analyze(&udf).unwrap();
        assert_eq!(info.kind, DepKind::None);
        assert!(!info.has_dependency());
    }

    #[test]
    fn provably_unreachable_break_kills_the_dependency() {
        use crate::ast::{Expr, Stmt, UdfFn};
        // The break is guarded by a flag that is never set: constant
        // propagation proves `if (dbg)` always false, so the dependency is
        // dead even though a break exists syntactically. The carried flag
        // `done` is only assigned on the dead break path and is zero-init,
        // so the minimized carried set is empty and circulation can stop.
        let udf = UdfFn::new(
            "bounded",
            Ty::Int,
            vec![
                Stmt::let_("dbg", Ty::Bool, Expr::b(false)),
                Stmt::let_("done", Ty::Bool, Expr::b(false)),
                Stmt::for_neighbors(vec![
                    Stmt::Emit(Expr::i(1)),
                    Stmt::if_(
                        Expr::local("dbg"),
                        vec![Stmt::assign("done", Expr::b(true)), Stmt::Break],
                    ),
                ]),
                Stmt::if_(Expr::local("done").not(), vec![Stmt::Emit(Expr::i(0))]),
            ],
        );
        let naive = analyze_naive(&udf).unwrap();
        assert_eq!(naive.kind, DepKind::Data, "syntactically a dependency");
        let info = analyze(&udf).unwrap();
        assert_eq!(info.kind, DepKind::None);
        assert_eq!(info.breaks, 1, "syntactic count preserved");
        assert_eq!(info.reachable_breaks, 0);
        assert!(info.carried.is_empty());
    }

    #[test]
    fn dead_break_with_observable_accumulator_keeps_data_dependency() {
        use crate::ast::{Expr, Stmt, UdfFn};
        // All breaks are dead, but `s` accumulates across the loop and is
        // emitted afterwards: under circulant scheduling later segments
        // observe the restored prefix value, so circulation must continue.
        let udf = UdfFn::new(
            "prefix",
            Ty::Int,
            vec![
                Stmt::let_("dbg", Ty::Bool, Expr::b(false)),
                Stmt::let_("s", Ty::Int, Expr::i(0)),
                Stmt::for_neighbors(vec![
                    Stmt::assign("s", Expr::local("s").add(Expr::i(1))),
                    Stmt::if_(Expr::local("dbg"), vec![Stmt::Break]),
                ]),
                Stmt::Emit(Expr::local("s")),
            ],
        );
        let info = analyze(&udf).unwrap();
        assert_eq!(info.kind, DepKind::Data);
        assert_eq!(info.reachable_breaks, 0);
        assert_eq!(info.carried, vec![("s".to_string(), Ty::Int)]);
    }

    #[test]
    fn effective_policy_downgrades_dead_dependency() {
        let dead = DepInfo::none(1);
        assert_eq!(effective_policy(&dead, Policy::symple()), Policy::Gemini);
        assert_eq!(effective_policy(&dead, Policy::Galois), Policy::Galois);
        let live = DepInfo {
            kind: DepKind::Control,
            carried: Vec::new(),
            breaks: 1,
            reachable_breaks: 1,
            cert: DepCertificate::default(),
        };
        assert_eq!(effective_policy(&live, Policy::symple()), Policy::symple());
    }

    #[test]
    fn no_loop_no_dependency() {
        use crate::ast::{Expr, Stmt, UdfFn};
        let udf = UdfFn::new("t", Ty::Bool, vec![Stmt::Emit(Expr::b(true))]);
        assert_eq!(analyze(&udf).unwrap().kind, DepKind::None);
    }

    #[test]
    fn nested_loops_rejected() {
        use crate::ast::{Stmt, UdfFn};
        let udf = UdfFn::new(
            "bad",
            Ty::Bool,
            vec![Stmt::for_neighbors(vec![Stmt::for_neighbors(vec![])])],
        );
        assert_eq!(analyze(&udf), Err(UdfError::NestedLoop));
    }

    #[test]
    fn instrumented_input_rejected() {
        use crate::ast::{Stmt, UdfFn};
        let udf = UdfFn::new("x", Ty::Bool, vec![Stmt::ReceiveDepGuard]);
        assert_eq!(analyze(&udf), Err(UdfError::AlreadyInstrumented));
    }

    #[test]
    fn non_zero_init_stays_carried_even_if_unmodified_on_no_break_paths() {
        use crate::ast::{Expr, Stmt, UdfFn};
        // `lim` starts at 5 and is only zeroed right before breaking. No
        // assignment reaches a break-free exit, but its init is non-zero —
        // dropping it would make the first segment see 0 instead of 5.
        let udf = UdfFn::new(
            "t",
            Ty::Int,
            vec![
                Stmt::let_("lim", Ty::Int, Expr::i(5)),
                Stmt::for_neighbors(vec![Stmt::if_(
                    Expr::prop_u("p").and(Expr::local("lim").ge(Expr::i(1))),
                    vec![Stmt::assign("lim", Expr::i(0)), Stmt::Break],
                )]),
                Stmt::Emit(Expr::local("lim")),
            ],
        );
        let info = analyze(&udf).unwrap();
        let names: Vec<&str> = info.carried.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["lim"]);
    }
}
