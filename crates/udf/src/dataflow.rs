//! The one fixpoint solver over the UDF [`Cfg`], and the three
//! finite-lattice analyses the compiler runs on it: liveness, reaching
//! definitions and constant propagation. The interval domain of
//! [`crate::absint`] is its fourth client.
//!
//! [`solve`] is a worklist fixpoint in either [`Direction`]. It starts
//! from the boundary node (`Entry` forward, `Exit` backward), and from
//! every other node that has an initial fact ([`Analysis::init`]). A
//! visit pushes the node's transferred fact along each flow edge through
//! [`Analysis::edge`], which may refine it or find the edge infeasible,
//! and joins it into the target's fact; at a loop head visited
//! [`WIDEN_DELAY`] times [`Analysis::widen`] replaces the join. A node no
//! feasible edge reaches keeps no fact (`None`). When a widening went
//! past the join, two narrowing sweeps then recompute every fact from
//! its neighbours, which recovers precision the widening lost.
//!
//! **Termination.** Liveness, reaching definitions and constant
//! propagation climb finite chains (sets of locals or definition sites;
//! a constant's ⊥ → `Val` → `NonConst`) and never widen. An interval
//! domain climbs forever on a counting loop without its widening. Either
//! way every visit spends one unit of a fuel bound, and an exhausted
//! bound makes [`solve`] return `None` instead of hanging.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::ast::{BinOp, Expr, Stmt};
use crate::cfg::{Cfg, NodeId, ENTRY, EXIT};
use crate::diag::StmtId;
use crate::types::Value;

/// Loop-head visits before [`Analysis::widen`] replaces the join.
const WIDEN_DELAY: usize = 8;

/// Which way facts flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from `Entry` towards `Exit` (reaching defs, const-prop,
    /// intervals).
    Forward,
    /// Facts flow from `Exit` towards `Entry` (liveness).
    Backward,
}

/// A dataflow analysis: a lattice of facts, a transfer function, and the
/// edge and widening steps, which default to pass-through and join.
pub trait Analysis {
    /// The lattice element attached to each program point.
    type Fact: Clone + PartialEq;

    /// Flow direction.
    fn direction(&self) -> Direction;

    /// Fact flowing into the boundary node (`Entry` for forward, `Exit`
    /// for backward).
    fn boundary(&self) -> Self::Fact;

    /// Fact every other node starts from. `None`, the default, leaves a
    /// node without a fact until a feasible edge reaches it; an analysis
    /// that starts every node at its bottom lets code no path reaches
    /// feed its successors too.
    fn init(&self) -> Option<Self::Fact> {
        None
    }

    /// Least-upper-bound: fold `from` into `into`.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact);

    /// Transfer across `node`: the fact flowing into it (before it,
    /// forward; after it, backward) to the fact flowing out.
    fn transfer(&self, cfg: &Cfg<'_>, node: NodeId, fact: &Self::Fact) -> Self::Fact;

    /// The fact `out` flowing out of `from` as it arrives at `to`; `None`
    /// when the edge is infeasible.
    fn edge(
        &self,
        _cfg: &Cfg<'_>,
        _from: NodeId,
        _to: NodeId,
        out: &Self::Fact,
    ) -> Option<Self::Fact> {
        Some(out.clone())
    }

    /// A loop head's new fact, given its `old` one and their join.
    fn widen(&self, _old: &Self::Fact, joined: Self::Fact) -> Self::Fact {
        joined
    }
}

/// Runs `analysis` over `cfg` to fixpoint, spending one unit of `fuel`
/// per node visit. Returns the fact flowing into each node in the
/// analysis's direction (before it, forward; after it, backward), `None`
/// at a node no feasible edge reaches; `None` overall when the fuel runs
/// out first.
pub fn solve<A: Analysis>(
    cfg: &Cfg<'_>,
    analysis: &A,
    fuel: &mut usize,
) -> Option<Vec<Option<A::Fact>>> {
    let n = cfg.node_count();
    let backward = analysis.direction() == Direction::Backward;
    let start = if backward { EXIT } else { ENTRY };
    let next = |node| {
        if backward {
            cfg.preds(node)
        } else {
            cfg.succs(node)
        }
    };
    let prev = |node| {
        if backward {
            cfg.succs(node)
        } else {
            cfg.preds(node)
        }
    };
    let loop_head = |node| {
        cfg.stmt_of(node)
            .is_some_and(|id| matches!(cfg.stmt(id), Stmt::ForNeighbors { .. }))
    };

    let mut facts = vec![analysis.init(); n];
    facts[start] = Some(analysis.boundary());
    let mut queued: Vec<bool> = facts.iter().map(Option::is_some).collect();
    let mut work: VecDeque<NodeId> = (0..n).filter(|&node| queued[node]).collect();
    let mut visits = vec![0usize; n];
    let mut widened = false;
    while let Some(node) = work.pop_front() {
        queued[node] = false;
        if *fuel == 0 {
            return None;
        }
        *fuel -= 1;
        let Some(fact) = &facts[node] else {
            continue;
        };
        let out = analysis.transfer(cfg, node, fact);
        for &to in next(node) {
            let Some(arriving) = analysis.edge(cfg, node, to, &out) else {
                continue;
            };
            let updated = match &facts[to] {
                None => Some(arriving),
                Some(old) => {
                    let mut joined = old.clone();
                    analysis.join(&mut joined, &arriving);
                    if loop_head(to) && visits[to] >= WIDEN_DELAY {
                        let wide = analysis.widen(old, joined.clone());
                        widened |= wide != joined;
                        joined = wide;
                    }
                    (joined != *old).then_some(joined)
                }
            };
            if let Some(new) = updated {
                facts[to] = Some(new);
                visits[to] += 1;
                if !queued[to] {
                    queued[to] = true;
                    work.push_back(to);
                }
            }
        }
    }
    // Narrowing: recompute every fact from its neighbours, twice. The
    // solved state is a post-fixpoint and the transfers are monotone, so
    // each sweep can only shrink it while staying sound. Without a
    // widening that went past the join, every fact is already the join
    // of what reaches it, and a sweep would recompute the same facts.
    let sweeps = if widened { 2 } else { 0 };
    for _ in 0..sweeps {
        for node in (0..n).filter(|&node| node != start) {
            let mut fact = analysis.init();
            for &from in prev(node) {
                let Some(before) = &facts[from] else { continue };
                let out = analysis.transfer(cfg, from, before);
                if let Some(arriving) = analysis.edge(cfg, from, node, &out) {
                    fact = Some(match fact {
                        None => arriving,
                        Some(mut cur) => {
                            analysis.join(&mut cur, &arriving);
                            cur
                        }
                    });
                }
            }
            facts[node] = fact;
        }
    }
    Some(facts)
}

/// [`solve`] for an analysis over a finite lattice that starts every node
/// at its bottom, under a fuel bound it cannot reach: each of the
/// ≤ `2·locals·nodes` fact changes re-queues at most the node's
/// neighbours, so `64·n² + 1024` visits leave two orders of magnitude of
/// headroom.
///
/// # Panics
///
/// Panics if the fuel runs out anyway.
pub fn solve_finite<A: Analysis>(cfg: &Cfg<'_>, analysis: &A) -> Vec<A::Fact>
where
    A::Fact: Default,
{
    let mut fuel = 1024 + 64 * cfg.node_count() * cfg.node_count();
    solve(cfg, analysis, &mut fuel)
        .expect("finite-lattice dataflow analysis exhausted its fuel bound")
        .into_iter()
        .map(Option::unwrap_or_default)
        .collect()
}

// ---------------------------------------------------------------------------
// Uses / defs
// ---------------------------------------------------------------------------

/// Local variables read directly by `s` (not by its nested statements —
/// those are separate CFG nodes).
pub fn stmt_uses(s: &Stmt) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    if let Some(e) = s.expr() {
        e.any(|x| {
            if let Expr::Local(name) = x {
                out.insert(name.clone());
            }
            false
        });
    }
    out
}

/// The local variable written by `s`, if any.
pub fn stmt_def(s: &Stmt) -> Option<&str> {
    match s {
        Stmt::Let { name, .. } | Stmt::Assign { name, .. } => Some(name),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------------

/// Backward liveness. `exit_live` is the set of locals considered observed
/// at `Exit` — the carried-state analysis passes the syntactically carried
/// set there, because a no-break exit snapshots those locals onto the wire
/// (an *observation* the CFG cannot see).
pub struct Liveness {
    /// Locals live-out at `Exit`.
    pub exit_live: BTreeSet<String>,
}

impl Analysis for Liveness {
    type Fact = BTreeSet<String>;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self) -> Self::Fact {
        self.exit_live.clone()
    }

    fn init(&self) -> Option<Self::Fact> {
        Some(BTreeSet::new())
    }

    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) {
        into.extend(from.iter().cloned());
    }

    fn transfer(&self, cfg: &Cfg<'_>, node: NodeId, after: &Self::Fact) -> Self::Fact {
        let Some(id) = cfg.stmt_of(node) else {
            return after.clone();
        };
        let s = cfg.stmt(id);
        let mut live = after.clone();
        if let Some(name) = stmt_def(s) {
            live.remove(name);
        }
        live.extend(stmt_uses(s));
        live
    }
}

// ---------------------------------------------------------------------------
// Reaching definitions
// ---------------------------------------------------------------------------

/// A definition site: which local, defined at which statement.
pub type Def = (String, StmtId);

/// Forward reaching definitions: the set of `(local, defining statement)`
/// pairs that may supply the local's value at a point. Run over
/// [`Cfg::prune_breaks`] this answers the carried-state question "can an
/// *assignment* to `x` still be the live definition at a no-break exit?".
pub struct ReachingDefs;

impl Analysis for ReachingDefs {
    type Fact = BTreeSet<Def>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> Self::Fact {
        BTreeSet::new()
    }

    fn init(&self) -> Option<Self::Fact> {
        Some(BTreeSet::new())
    }

    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) {
        into.extend(from.iter().cloned());
    }

    fn transfer(&self, cfg: &Cfg<'_>, node: NodeId, before: &Self::Fact) -> Self::Fact {
        let Some(id) = cfg.stmt_of(node) else {
            return before.clone();
        };
        let s = cfg.stmt(id);
        let Some(name) = stmt_def(s) else {
            return before.clone();
        };
        let mut out: BTreeSet<Def> = before.iter().filter(|(n, _)| n != name).cloned().collect();
        out.insert((name.to_string(), id));
        out
    }
}

// ---------------------------------------------------------------------------
// Constant propagation
// ---------------------------------------------------------------------------

/// A constant-propagation lattice value for one local. The bottom element
/// ("no definition seen yet / unreachable") is represented by *absence* from
/// the fact map.
#[derive(Debug, Clone)]
pub enum Const {
    /// The local may hold more than one value here.
    NonConst,
    /// The local provably holds exactly this value here.
    Val(Value),
}

impl PartialEq for Const {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Const::NonConst, Const::NonConst) => true,
            // Bit-compare so `NaN == NaN` holds and the fixpoint terminates.
            (Const::Val(a), Const::Val(b)) => a.ty() == b.ty() && a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

/// Forward constant propagation over the locals.
///
/// `untrusted_lets` names locals whose `let` initialiser must *not* be
/// trusted: the instrumentation rewrites carried locals' `let`s into wire
/// restores, so their run-time value is whatever the previous machine
/// shipped, not the initialiser. The carried-state analysis passes the
/// syntactically carried set here, which keeps every conclusion (notably
/// "this break is unreachable") valid for both the instrumented and the
/// uninstrumented program.
pub struct ConstProp {
    /// Locals whose `let` produces an unknown (restored) value.
    pub untrusted_lets: BTreeSet<String>,
}

impl Analysis for ConstProp {
    type Fact = BTreeMap<String, Const>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> Self::Fact {
        BTreeMap::new()
    }

    fn init(&self) -> Option<Self::Fact> {
        Some(BTreeMap::new())
    }

    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) {
        for (name, v) in from {
            match into.get(name) {
                None => {
                    into.insert(name.clone(), v.clone());
                }
                Some(w) if w == v => {}
                Some(_) => {
                    into.insert(name.clone(), Const::NonConst);
                }
            }
        }
    }

    fn transfer(&self, cfg: &Cfg<'_>, node: NodeId, before: &Self::Fact) -> Self::Fact {
        let Some(id) = cfg.stmt_of(node) else {
            return before.clone();
        };
        let (name, c) = match cfg.stmt(id) {
            Stmt::Let { name, .. } if self.untrusted_lets.contains(name) => {
                (name, Some(Const::NonConst))
            }
            Stmt::Let { name, init, .. } => (name, const_eval(init, before)),
            Stmt::Assign { name, value } => (name, const_eval(value, before)),
            _ => return before.clone(),
        };
        let mut out = before.clone();
        match c {
            Some(c) => out.insert(name.clone(), c),
            None => out.remove(name),
        };
        out
    }
}

/// Evaluates `e` under the constant environment `env`.
///
/// Returns `None` for bottom (an operand with no definition on any path seen
/// so far), `Some(Const::Val(_))` when the value is provably fixed, and
/// `Some(Const::NonConst)` otherwise. Operators fold through the
/// interpreter's own table, [`Value::unary`] and [`Value::binary`] (a NaN
/// comparison or a mistyped operand stays unfolded), and `&&`/`||` in the
/// interpreter's short-circuit order, so a folded constant can never
/// disagree with a run.
pub fn const_eval(e: &Expr, env: &BTreeMap<String, Const>) -> Option<Const> {
    match e {
        Expr::Lit(v) => Some(Const::Val(*v)),
        Expr::Local(name) => env.get(name).cloned(),
        Expr::Prop { .. } | Expr::CurrentVertex | Expr::CurrentNeighbor => Some(Const::NonConst),
        Expr::Unary(op, a) => Some(match const_eval(a, env)? {
            Const::Val(v) => v.unary(*op).map_or(Const::NonConst, Const::Val),
            Const::NonConst => Const::NonConst,
        }),
        Expr::Binary(op, a, b) => const_eval_bin(*op, a, b, env),
    }
}

fn const_eval_bin(op: BinOp, a: &Expr, b: &Expr, env: &BTreeMap<String, Const>) -> Option<Const> {
    if matches!(op, BinOp::And | BinOp::Or) {
        let la = const_eval(a, env)?;
        // Short-circuit: a constant-false lhs decides `&&` (and true, `||`)
        // without looking right — same evaluation order as the interpreter.
        if let Const::Val(Value::Bool(x)) = la {
            if (op == BinOp::And && !x) || (op == BinOp::Or && x) {
                return Some(Const::Val(Value::Bool(x)));
            }
            return Some(match const_eval(b, env)? {
                Const::Val(Value::Bool(y)) => Const::Val(Value::Bool(y)),
                _ => Const::NonConst,
            });
        }
        // Unknown lhs: `x && false` is still false (operands are pure).
        return Some(match const_eval(b, env)? {
            Const::Val(Value::Bool(y)) if (op == BinOp::And) != y => Const::Val(Value::Bool(y)),
            _ => Const::NonConst,
        });
    }
    let Const::Val(x) = const_eval(a, env)? else {
        return Some(Const::NonConst);
    };
    let Const::Val(y) = const_eval(b, env)? else {
        return Some(Const::NonConst);
    };
    Some(x.binary(op, y).map_or(Const::NonConst, Const::Val))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::UdfFn;
    use crate::types::Ty;

    fn counter_udf() -> UdfFn {
        // 0: let cnt = 0
        // 1: let done = false
        // 2: for nbrs {
        // 3:   cnt = cnt + 1
        // 4:   if (cnt >= 3) {
        // 5:     done = true
        // 6:     break
        //      }
        //    }
        // 7: if (!done) { 8: emit(cnt) }
        UdfFn::new(
            "t",
            Ty::Int,
            vec![
                Stmt::let_("cnt", Ty::Int, Expr::i(0)),
                Stmt::let_("done", Ty::Bool, Expr::b(false)),
                Stmt::for_neighbors(vec![
                    Stmt::assign("cnt", Expr::local("cnt").add(Expr::i(1))),
                    Stmt::if_(
                        Expr::local("cnt").ge(Expr::i(3)),
                        vec![Stmt::assign("done", Expr::b(true)), Stmt::Break],
                    ),
                ]),
                Stmt::if_(
                    Expr::local("done").not(),
                    vec![Stmt::Emit(Expr::local("cnt"))],
                ),
            ],
        )
    }

    #[test]
    fn liveness_sees_loop_carried_reads() {
        let udf = counter_udf();
        let cfg = Cfg::build(&udf);
        let liveness = Liveness {
            exit_live: BTreeSet::new(),
        };
        let live = solve_finite(&cfg, &liveness);
        // After `let cnt = 0`, cnt is read by the loop and the suffix.
        assert!(live[cfg.node_of(0)].contains("cnt"));
        // After `done = true`, done is still read by the suffix `if`.
        assert!(live[cfg.node_of(5)].contains("done"));
        // Before `cnt = cnt + 1`, both carried locals are live.
        let bump = cfg.node_of(3);
        assert!(liveness.transfer(&cfg, bump, &live[bump]).contains("cnt"));
    }

    #[test]
    fn reaching_defs_on_pruned_graph_exclude_break_only_writes() {
        let udf = counter_udf();
        let cfg = Cfg::build(&udf);
        let pruned = cfg.prune_breaks();
        let sol = solve_finite(&pruned, &ReachingDefs);
        let at_exit = &sol[EXIT];
        // `cnt = cnt + 1` (stmt 3) reaches a break-free exit via the
        // loop-exhausted edge.
        assert!(at_exit.contains(&("cnt".to_string(), 3)));
        // `done = true` (stmt 5) is immediately followed by `break` on every
        // path, so it never reaches a break-free exit.
        assert!(!at_exit.contains(&("done".to_string(), 5)));
        // Its initialiser does.
        assert!(at_exit.contains(&("done".to_string(), 1)));
    }

    #[test]
    fn const_prop_folds_straight_line_and_joins() {
        let udf = counter_udf();
        let cfg = Cfg::build(&udf);
        let sol = solve_finite(
            &cfg,
            &ConstProp {
                untrusted_lets: BTreeSet::new(),
            },
        );
        // done is reassigned in the loop, so it is not constant in the
        // suffix...
        let suffix = &sol[cfg.node_of(7)];
        assert_eq!(suffix.get("done"), Some(&Const::NonConst));
        // ...and cnt is bumped every iteration.
        assert_eq!(suffix.get("cnt"), Some(&Const::NonConst));
        // Inside the loop body `done` is still provably false: the only
        // write to it is immediately followed by `break`, so the back edge
        // never carries `true`.
        let body = &sol[cfg.node_of(3)];
        assert_eq!(body.get("done"), Some(&Const::Val(Value::Bool(false))));
        assert_eq!(body.get("cnt"), Some(&Const::NonConst));
    }

    #[test]
    fn const_prop_proves_unset_flag_constant() {
        // let dbg = false; for { s = s + 1; if (dbg) { break } }
        let udf = UdfFn::new(
            "t",
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
        let cfg = Cfg::build(&udf);
        let sol = solve_finite(
            &cfg,
            &ConstProp {
                untrusted_lets: BTreeSet::new(),
            },
        );
        let if_node = cfg.node_of(4);
        let cond = match cfg.stmt(4) {
            Stmt::If { cond, .. } => cond,
            _ => unreachable!(),
        };
        assert_eq!(
            const_eval(cond, &sol[if_node]),
            Some(Const::Val(Value::Bool(false)))
        );
    }

    #[test]
    fn untrusted_lets_are_not_folded() {
        let udf = UdfFn::new(
            "t",
            Ty::Int,
            vec![
                Stmt::let_("dbg", Ty::Bool, Expr::b(false)),
                Stmt::for_neighbors(vec![Stmt::if_(Expr::local("dbg"), vec![Stmt::Break])]),
            ],
        );
        let cfg = Cfg::build(&udf);
        let untrusted: BTreeSet<String> = ["dbg".to_string()].into_iter().collect();
        let sol = solve_finite(
            &cfg,
            &ConstProp {
                untrusted_lets: untrusted,
            },
        );
        assert_eq!(sol[cfg.node_of(2)].get("dbg"), Some(&Const::NonConst));
    }

    #[test]
    fn fuel_bound_turns_divergence_into_a_typed_error() {
        // An adversarial "analysis" with an infinite ascending chain: the
        // fact is a counter the transfer bumps forever. Without the fuel
        // bound the worklist would never stabilise.
        struct Diverge;
        impl Analysis for Diverge {
            type Fact = u64;
            fn direction(&self) -> Direction {
                Direction::Forward
            }
            fn boundary(&self) -> u64 {
                0
            }
            fn join(&self, into: &mut u64, from: &u64) {
                *into = (*into).max(*from);
            }
            fn transfer(&self, _cfg: &Cfg<'_>, _node: NodeId, fact: &u64) -> u64 {
                fact + 1
            }
        }
        let udf = counter_udf();
        let cfg = Cfg::build(&udf);
        let mut fuel = 100;
        assert!(solve(&cfg, &Diverge, &mut fuel).is_none());
        assert_eq!(fuel, 0, "the solver stops when its fuel is spent");
        // The same tiny budget is plenty for a real finite-lattice
        // analysis on the same graph.
        let mut fuel = 100;
        assert!(solve(&cfg, &ReachingDefs, &mut fuel).is_some());
        assert!(fuel > 0);
    }

    #[test]
    fn short_circuit_folding_matches_interpreter() {
        let env = BTreeMap::new();
        // false && <nonconst> == false
        let e = Expr::b(false).and(Expr::prop_u("p"));
        assert_eq!(const_eval(&e, &env), Some(Const::Val(Value::Bool(false))));
        // <nonconst> && false == false (pure operands)
        let e = Expr::prop_u("p").and(Expr::b(false));
        assert_eq!(const_eval(&e, &env), Some(Const::Val(Value::Bool(false))));
        // <nonconst> && true stays unknown
        let e = Expr::prop_u("p").and(Expr::b(true));
        assert_eq!(const_eval(&e, &env), Some(Const::NonConst));
        // 2 + 3 folds with wrapping semantics
        let e = Expr::i(i64::MAX).add(Expr::i(1));
        assert_eq!(const_eval(&e, &env), Some(Const::Val(Value::Int(i64::MIN))));
    }
}
