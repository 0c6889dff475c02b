//! Generic forward/backward dataflow solver over the UDF [`Cfg`], plus the
//! three analyses the compiler uses: liveness, reaching definitions, and
//! constant propagation.
//!
//! The solver is a plain worklist fixpoint: facts form a join semilattice,
//! transfer functions are monotone, and the graphs are tiny (a UDF body is a
//! few dozen statements), so no acceleration is needed. Facts are recomputed
//! from the neighbouring nodes on every visit, which keeps the join logic
//! trivially correct in the presence of re-wired (pruned) graphs.
//!
//! **Termination.** The solver has no widening operator, so it terminates
//! only when the per-point fact lattice has finite ascending chains. That
//! holds for every analysis in this module — [`Liveness`] and
//! [`ReachingDefs`] range over finite sets of locals/definition sites, and
//! [`Const`] has height three per local (⊥ → `Val` → `NonConst`) even
//! though its *value* carrier is infinite. It does **not** hold for an
//! arbitrary [`Analysis`] implementation (an interval domain run through
//! this solver would climb forever on a counting loop —
//! [`crate::absint`] has its own widening for exactly that reason). The
//! solver therefore enforces a fuel bound: [`solve_with_fuel`] returns a
//! typed [`FuelExhausted`] error instead of hanging, and [`solve`] wraps it
//! with a generous bound that the finite-lattice analyses above can never
//! hit.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use crate::ast::{BinOp, Expr, Stmt, UnOp};
use crate::cfg::{Cfg, NodeId, ENTRY, EXIT};
use crate::diag::StmtId;
use crate::types::Value;

/// Which way facts flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from `Entry` towards `Exit` (reaching defs, const-prop).
    Forward,
    /// Facts flow from `Exit` towards `Entry` (liveness).
    Backward,
}

/// A dataflow analysis: a lattice of facts plus a transfer function.
pub trait Analysis {
    /// The lattice element attached to each program point.
    type Fact: Clone + PartialEq;

    /// Flow direction.
    fn direction(&self) -> Direction;

    /// Fact at the boundary node (`Entry` for forward, `Exit` for backward).
    fn boundary(&self) -> Self::Fact;

    /// Bottom element, the optimistic initial fact everywhere else.
    fn init(&self) -> Self::Fact;

    /// Least-upper-bound: fold `from` into `into`.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact);

    /// Transfer across `node`. For forward analyses maps the fact *before*
    /// the node to the fact *after* it; for backward analyses the reverse.
    fn transfer(&self, cfg: &Cfg<'_>, node: NodeId, fact: &Self::Fact) -> Self::Fact;
}

/// Per-node fixpoint facts, in *execution* order regardless of direction:
/// `before[n]` holds just before `n` runs, `after[n]` just after.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Fact at the program point preceding each node.
    pub before: Vec<F>,
    /// Fact at the program point following each node.
    pub after: Vec<F>,
}

/// The worklist did not stabilise within its fuel bound.
///
/// Returned by [`solve_with_fuel`] when an [`Analysis`] whose lattice has
/// infinite (or merely very long) ascending chains keeps producing new
/// facts. The built-in analyses cannot trigger this; a custom domain that
/// needs widening (intervals, octagons, …) can — use [`crate::absint`]'s
/// dedicated solver for those.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuelExhausted {
    /// Node visits performed before giving up.
    pub fuel: usize,
}

impl fmt::Display for FuelExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dataflow worklist did not stabilise within {} node visits \
             (lattice with unbounded ascending chains? use a widening solver)",
            self.fuel
        )
    }
}

impl std::error::Error for FuelExhausted {}

/// Default fuel for [`solve`]: far above what any finite-lattice analysis
/// in this crate can consume. Each of the ≤ `2·locals·nodes` fact
/// changes re-queues at most the node's neighbours, so visits stay
/// polynomial in the (tiny) CFG size; `64·n² + 1024` leaves two orders
/// of magnitude of headroom.
fn default_fuel(node_count: usize) -> usize {
    1024 + 64 * node_count * node_count
}

/// Runs `analysis` over `cfg` to fixpoint.
///
/// # Panics
///
/// Panics if the internal fuel bound is exhausted — impossible for
/// analyses over finite lattices (all of this module's); use
/// [`solve_with_fuel`] directly when experimenting with domains that may
/// climb forever.
pub fn solve<A: Analysis>(cfg: &Cfg<'_>, analysis: &A) -> Solution<A::Fact> {
    solve_with_fuel(cfg, analysis, default_fuel(cfg.node_count()))
        .expect("finite-lattice dataflow analysis exhausted its fuel bound")
}

/// Runs `analysis` over `cfg` to fixpoint, spending at most `fuel` node
/// visits.
///
/// # Errors
///
/// Returns [`FuelExhausted`] when the worklist is still busy after `fuel`
/// visits — the typed alternative to non-termination for lattices without
/// finite ascending chains.
pub fn solve_with_fuel<A: Analysis>(
    cfg: &Cfg<'_>,
    analysis: &A,
    fuel: usize,
) -> Result<Solution<A::Fact>, FuelExhausted> {
    let n = cfg.node_count();
    let mut before = vec![analysis.init(); n];
    let mut after = vec![analysis.init(); n];
    let forward = analysis.direction() == Direction::Forward;
    let mut queue: VecDeque<NodeId> = (0..n).collect();
    let mut queued = vec![true; n];
    let mut spent = 0usize;
    while let Some(node) = queue.pop_front() {
        queued[node] = false;
        if spent >= fuel {
            return Err(FuelExhausted { fuel });
        }
        spent += 1;
        if forward {
            let mut inb = if node == ENTRY {
                analysis.boundary()
            } else {
                analysis.init()
            };
            for &p in cfg.preds(node) {
                analysis.join(&mut inb, &after[p]);
            }
            before[node] = inb;
            let out = analysis.transfer(cfg, node, &before[node]);
            if out != after[node] {
                after[node] = out;
                for &s in cfg.succs(node) {
                    if !queued[s] {
                        queued[s] = true;
                        queue.push_back(s);
                    }
                }
            }
        } else {
            let mut aft = if node == EXIT {
                analysis.boundary()
            } else {
                analysis.init()
            };
            for &s in cfg.succs(node) {
                analysis.join(&mut aft, &before[s]);
            }
            after[node] = aft;
            let newb = analysis.transfer(cfg, node, &after[node]);
            if newb != before[node] {
                before[node] = newb;
                for &p in cfg.preds(node) {
                    if !queued[p] {
                        queued[p] = true;
                        queue.push_back(p);
                    }
                }
            }
        }
    }
    Ok(Solution { before, after })
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

    fn init(&self) -> Self::Fact {
        BTreeSet::new()
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

    fn init(&self) -> Self::Fact {
        BTreeSet::new()
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

    fn init(&self) -> Self::Fact {
        BTreeMap::new()
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
        let mut out = before.clone();
        match cfg.stmt(id) {
            Stmt::Let { name, init, .. } => {
                let c = if self.untrusted_lets.contains(name) {
                    Some(Const::NonConst)
                } else {
                    const_eval(init, before)
                };
                match c {
                    Some(c) => {
                        out.insert(name.clone(), c);
                    }
                    None => {
                        out.remove(name);
                    }
                }
            }
            Stmt::Assign { name, value } => match const_eval(value, before) {
                Some(c) => {
                    out.insert(name.clone(), c);
                }
                None => {
                    out.remove(name);
                }
            },
            _ => {}
        }
        out
    }
}

/// Evaluates `e` under the constant environment `env`.
///
/// Returns `None` for bottom (an operand with no definition on any path seen
/// so far), `Some(Const::Val(_))` when the value is provably fixed, and
/// `Some(Const::NonConst)` otherwise. Folding mirrors the interpreter
/// exactly — wrapping integer arithmetic, int-to-float widening, NaN-refusing
/// comparisons, short-circuit logic — so a folded constant can never disagree
/// with a run.
pub fn const_eval(e: &Expr, env: &BTreeMap<String, Const>) -> Option<Const> {
    match e {
        Expr::Lit(v) => Some(Const::Val(*v)),
        Expr::Local(name) => env.get(name).cloned(),
        Expr::Prop { .. } | Expr::CurrentVertex | Expr::CurrentNeighbor => Some(Const::NonConst),
        Expr::Unary(op, a) => {
            let v = match const_eval(a, env)? {
                Const::NonConst => return Some(Const::NonConst),
                Const::Val(v) => v,
            };
            Some(match (op, v) {
                (UnOp::Not, Value::Bool(b)) => Const::Val(Value::Bool(!b)),
                (UnOp::Neg, Value::Int(i)) => Const::Val(Value::Int(i.wrapping_neg())),
                (UnOp::Neg, Value::Float(f)) => Const::Val(Value::Float(-f)),
                _ => Const::NonConst,
            })
        }
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
    let va = match const_eval(a, env)? {
        Const::NonConst => return Some(Const::NonConst),
        Const::Val(v) => v,
    };
    let vb = match const_eval(b, env)? {
        Const::NonConst => return Some(Const::NonConst),
        Const::Val(v) => v,
    };
    let folded = match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => match (va, vb) {
            (Value::Int(x), Value::Int(y)) => Some(Value::Int(match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                _ => x.wrapping_mul(y),
            })),
            (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
                let (x, y) = (va.as_float(), vb.as_float());
                Some(Value::Float(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    _ => x * y,
                }))
            }
            _ => None,
        },
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
            let ord = match (va, vb) {
                (Value::Vertex(x), Value::Vertex(y)) => Some(x.cmp(&y)),
                (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(&y)),
                (Value::Int(x), Value::Int(y)) => Some(x.cmp(&y)),
                (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
                    va.as_float().partial_cmp(&vb.as_float())
                }
                _ => None,
            };
            ord.map(|o| {
                Value::Bool(match op {
                    BinOp::Lt => o.is_lt(),
                    BinOp::Le => o.is_le(),
                    BinOp::Gt => o.is_gt(),
                    BinOp::Ge => o.is_ge(),
                    BinOp::Eq => o.is_eq(),
                    _ => o.is_ne(),
                })
            })
        }
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    };
    Some(folded.map(Const::Val).unwrap_or(Const::NonConst))
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
        let sol = solve(
            &cfg,
            &Liveness {
                exit_live: BTreeSet::new(),
            },
        );
        // After `let cnt = 0`, cnt is read by the loop and the suffix.
        assert!(sol.after[cfg.node_of(0)].contains("cnt"));
        // After `done = true`, done is still read by the suffix `if`.
        assert!(sol.after[cfg.node_of(5)].contains("done"));
        // Before `cnt = cnt + 1`, both carried locals are live.
        assert!(sol.before[cfg.node_of(3)].contains("cnt"));
    }

    #[test]
    fn reaching_defs_on_pruned_graph_exclude_break_only_writes() {
        let udf = counter_udf();
        let cfg = Cfg::build(&udf);
        let pruned = cfg.prune_breaks();
        let sol = solve(&pruned, &ReachingDefs);
        let at_exit = &sol.before[EXIT];
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
        let sol = solve(
            &cfg,
            &ConstProp {
                untrusted_lets: BTreeSet::new(),
            },
        );
        // done is reassigned in the loop, so it is not constant in the
        // suffix...
        let suffix = &sol.before[cfg.node_of(7)];
        assert_eq!(suffix.get("done"), Some(&Const::NonConst));
        // ...and cnt is bumped every iteration.
        assert_eq!(suffix.get("cnt"), Some(&Const::NonConst));
        // Inside the loop body `done` is still provably false: the only
        // write to it is immediately followed by `break`, so the back edge
        // never carries `true`.
        let body = &sol.before[cfg.node_of(3)];
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
        let sol = solve(
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
            const_eval(cond, &sol.before[if_node]),
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
        let sol = solve(
            &cfg,
            &ConstProp {
                untrusted_lets: untrusted,
            },
        );
        assert_eq!(
            sol.before[cfg.node_of(2)].get("dbg"),
            Some(&Const::NonConst)
        );
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
            fn init(&self) -> u64 {
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
        let err = solve_with_fuel(&cfg, &Diverge, 100).unwrap_err();
        assert_eq!(err, FuelExhausted { fuel: 100 });
        assert!(err.to_string().contains("100 node visits"));
        // The same tiny budget is plenty for a real finite-lattice
        // analysis on the same graph.
        assert!(solve_with_fuel(&cfg, &ReachingDefs, 100).is_ok());
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
