//! Abstract interpretation of UDFs: interval (value-range) and
//! monotonicity/latch domains over the CFG, emitting a
//! [`DepCertificate`].
//!
//! # Interval domain
//!
//! Every integer-like local (`int`, `bool` as 0/1, `vertex` as its raw
//! id) is tracked as an interval `[lo, hi]`; floats are untracked
//! (unbounded). The fixpoint runs on the crate's one solver
//! ([`crate::dataflow::solve`]) over the **break-pruned** CFG
//! ([`Cfg::prune_breaks`]) so that the environment reaching `Exit`
//! describes exactly the break-free executions — the only executions
//! whose carried snapshot downstream machines restore. Branch edges are
//! refined by the condition (`cnt >= k` false narrows `cnt` to
//! `[lo, k-1]`), loop heads widen after a fixed number of visits using
//! *threshold widening* (bounds jump to the nearest program literal, then
//! the type extreme), and two narrowing sweeps recover precision lost to
//! widening. Arithmetic is evaluated in `i128`; any bound escaping `i64`
//! collapses the interval to the full type range, which keeps the
//! analysis sound for the language's wrapping semantics.
//!
//! Carried locals close a second, outer fixpoint: under circulant
//! scheduling the value a machine restores is some earlier machine's
//! break-free exit value (or zero, from the lead machine's reset). The
//! restore interval starts at `[0, 0]` and is re-joined with the inferred
//! break-free exit interval until it stabilises, widening after a few
//! rounds. A carried `let` transfers to `join(restore, eval(init))` —
//! the `init` arm covers scratch-mode executions that never restore.
//!
//! The certified **wire range** of a carried local joins three sources:
//! zero (reset), the environment at every reachable `break` (the
//! `emit_dep` snapshot), and the break-free exit environment (the
//! end-of-segment snapshot). That is every value the dependency state can
//! ever hold, so it bounds what travels on the wire — the width
//! consumers in `dep_bridge` rely on exactly this.
//!
//! # Monotonicity / latch domain
//!
//! Per carried local, the direction of every reachable loop assignment is
//! joined: `x = x + e` with `e >= 0` is non-decreasing, a guarded
//! `x = E` under a governing conjunct `E < x` is non-increasing, and so
//! on. A break condition is *stable* — once it triggers, re-scanning the
//! remaining neighbours would trigger it again — when each governing
//! conjunct either (a) reads a `u`-indexed property (a per-neighbour
//! selector: properties are frozen during a pass, so the selecting
//! neighbour keeps selecting), (b) reads no carried local and no
//! loop-assigned local (pass-invariant), or (c) compares a carried local
//! against a pass-invariant bound in its proven monotone direction
//! (`cnt >= k` with `cnt` non-decreasing). Certified early-exit in the
//! engine requires every reachable break to be stable; lint W008 reports
//! the ones that are not.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{preorder, BinOp, Expr, Stmt, UdfFn, UnOp};
use crate::certificate::{width_for, CarriedCert, DepCertificate, Monotonicity, ValueRange};
use crate::cfg::{Cfg, NodeId, EXIT};
use crate::dataflow::{solve, Analysis, Direction};
use crate::diag::StmtId;
use crate::types::{Ty, Value};

/// Outer restore-fixpoint rounds before the restore interval widens.
const RESTORE_WIDEN_AFTER: usize = 4;
/// Outer restore-fixpoint round cap.
const MAX_RESTORE_ROUNDS: usize = 16;

/// A non-empty inclusive integer interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Itv {
    lo: i64,
    hi: i64,
}

const FULL_INT: Itv = Itv {
    lo: i64::MIN,
    hi: i64::MAX,
};

impl Itv {
    fn point(x: i64) -> Itv {
        Itv { lo: x, hi: x }
    }

    fn join(self, o: Itv) -> Itv {
        Itv {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    fn meet(self, o: Itv) -> Option<Itv> {
        let lo = self.lo.max(o.lo);
        let hi = self.hi.min(o.hi);
        (lo <= hi).then_some(Itv { lo, hi })
    }

    /// Clamps an `i128` bound pair back to an `i64` interval; any
    /// overflow collapses to the full range (sound for wrapping
    /// arithmetic: a wrapped value can land anywhere).
    fn from_wide(lo: i128, hi: i128) -> Itv {
        if lo < i64::MIN as i128 || hi > i64::MAX as i128 {
            FULL_INT
        } else {
            Itv {
                lo: lo as i64,
                hi: hi as i64,
            }
        }
    }

    fn add(self, o: Itv) -> Itv {
        Itv::from_wide(
            self.lo as i128 + o.lo as i128,
            self.hi as i128 + o.hi as i128,
        )
    }

    fn sub(self, o: Itv) -> Itv {
        Itv::from_wide(
            self.lo as i128 - o.hi as i128,
            self.hi as i128 - o.lo as i128,
        )
    }

    fn mul(self, o: Itv) -> Itv {
        let ps = [
            self.lo as i128 * o.lo as i128,
            self.lo as i128 * o.hi as i128,
            self.hi as i128 * o.lo as i128,
            self.hi as i128 * o.hi as i128,
        ];
        Itv::from_wide(*ps.iter().min().unwrap(), *ps.iter().max().unwrap())
    }

    fn neg(self) -> Itv {
        Itv::from_wide(-(self.hi as i128), -(self.lo as i128))
    }
}

/// Full interval of a type's integer image; `None` for floats, which the
/// domain does not track.
fn ty_full(ty: Ty) -> Option<Itv> {
    match ty {
        Ty::Bool => Some(Itv { lo: 0, hi: 1 }),
        Ty::Int => Some(FULL_INT),
        Ty::Vertex => Some(Itv {
            lo: 0,
            hi: u32::MAX as i64,
        }),
        Ty::Float => None,
    }
}

const BOOL_TOP: Itv = Itv { lo: 0, hi: 1 };
const TRUE_ITV: Itv = Itv { lo: 1, hi: 1 };
const FALSE_ITV: Itv = Itv { lo: 0, hi: 0 };

/// Abstract value of an expression: a tracked interval or nothing known
/// (floats and anything built from them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    I(Itv),
    Unknown,
}

/// Abstract environment at a program point: tracked locals only; a local
/// absent from the map is either float-typed or not yet defined on this
/// path (the checker rules out use-before-def, so joins may keep the
/// one-sided value).
type Env = BTreeMap<String, Itv>;

/// The interval analyser for one restore hypothesis, run by
/// [`crate::dataflow::solve`] over the break-pruned CFG.
struct Analyzer {
    /// Declared type per local (from `let`s, overlaid with the carried
    /// slice so the carried types always win).
    tys: BTreeMap<String, Ty>,
    /// Carried locals (restored by the receive guard).
    carried: BTreeMap<String, Ty>,
    /// Current hypothesis for restored carried values.
    restore: BTreeMap<String, Itv>,
    /// Sorted widening thresholds (program literals ±1, 0, extremes).
    thresholds: Vec<i64>,
}

impl Analyzer {
    fn eval(&self, e: &Expr, env: &Env) -> AbsVal {
        match e {
            Expr::Lit(Value::Int(i)) => AbsVal::I(Itv::point(*i)),
            Expr::Lit(Value::Bool(b)) => AbsVal::I(Itv::point(i64::from(*b))),
            Expr::Lit(Value::Vertex(v)) => AbsVal::I(Itv::point(i64::from(v.raw()))),
            Expr::Lit(Value::Float(_)) => AbsVal::Unknown,
            Expr::Local(name) => match env.get(name) {
                Some(i) => AbsVal::I(*i),
                None => AbsVal::Unknown,
            },
            Expr::Prop { .. } => AbsVal::Unknown,
            Expr::CurrentVertex | Expr::CurrentNeighbor => AbsVal::I(Itv {
                lo: 0,
                hi: u32::MAX as i64,
            }),
            Expr::Unary(UnOp::Not, inner) => match self.eval(inner, env) {
                AbsVal::I(i) if i == TRUE_ITV => AbsVal::I(FALSE_ITV),
                AbsVal::I(i) if i == FALSE_ITV => AbsVal::I(TRUE_ITV),
                _ => AbsVal::I(BOOL_TOP),
            },
            Expr::Unary(UnOp::Neg, inner) => match self.eval(inner, env) {
                AbsVal::I(i) => AbsVal::I(i.neg()),
                AbsVal::Unknown => AbsVal::Unknown,
            },
            Expr::Binary(op, l, r) => {
                let a = self.eval(l, env);
                let b = self.eval(r, env);
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul => match (a, b) {
                        (AbsVal::I(x), AbsVal::I(y)) => AbsVal::I(match op {
                            BinOp::Add => x.add(y),
                            BinOp::Sub => x.sub(y),
                            _ => x.mul(y),
                        }),
                        _ => AbsVal::Unknown,
                    },
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                        AbsVal::I(match (a, b) {
                            (AbsVal::I(x), AbsVal::I(y)) => cmp_itv(*op, x, y),
                            _ => BOOL_TOP,
                        })
                    }
                    BinOp::And => AbsVal::I(match (a, b) {
                        (AbsVal::I(x), _) if x == FALSE_ITV => FALSE_ITV,
                        (_, AbsVal::I(y)) if y == FALSE_ITV => FALSE_ITV,
                        (AbsVal::I(x), AbsVal::I(y)) if x == TRUE_ITV && y == TRUE_ITV => TRUE_ITV,
                        _ => BOOL_TOP,
                    }),
                    BinOp::Or => AbsVal::I(match (a, b) {
                        (AbsVal::I(x), _) if x == TRUE_ITV => TRUE_ITV,
                        (_, AbsVal::I(y)) if y == TRUE_ITV => TRUE_ITV,
                        (AbsVal::I(x), AbsVal::I(y)) if x == FALSE_ITV && y == FALSE_ITV => {
                            FALSE_ITV
                        }
                        _ => BOOL_TOP,
                    }),
                }
            }
        }
    }

    /// Refines `env` along the `branch` edge of condition `cond`.
    /// Returns `None` when the edge is infeasible.
    fn refine(&self, env: Env, cond: &Expr, branch: bool) -> Option<Env> {
        match cond {
            Expr::Local(x) => {
                let mut env = env;
                if let Some(cur) = env.get(x).copied() {
                    let want = if branch { TRUE_ITV } else { FALSE_ITV };
                    env.insert(x.clone(), cur.meet(want)?);
                }
                Some(env)
            }
            Expr::Unary(UnOp::Not, inner) => self.refine(env, inner, !branch),
            Expr::Binary(BinOp::And, l, r) if branch => {
                let env = self.refine(env, l, true)?;
                self.refine(env, r, true)
            }
            Expr::Binary(BinOp::Or, l, r) if !branch => {
                let env = self.refine(env, l, false)?;
                self.refine(env, r, false)
            }
            Expr::Binary(op, l, r) if is_cmp(*op) => {
                let op = if branch { *op } else { negate_cmp(*op) };
                let mut env = env;
                if let Expr::Local(x) = l.as_ref() {
                    if let AbsVal::I(ri) = self.eval(r, &env) {
                        env = self.apply_cmp(env, x, op, ri)?;
                    }
                }
                if let Expr::Local(x) = r.as_ref() {
                    if let AbsVal::I(li) = self.eval(l, &env) {
                        env = self.apply_cmp(env, x, swap_cmp(op), li)?;
                    }
                }
                Some(env)
            }
            _ => Some(env),
        }
    }

    /// Narrows tracked local `x` by `x <op> bound`.
    fn apply_cmp(&self, mut env: Env, x: &str, op: BinOp, bound: Itv) -> Option<Env> {
        let Some(cur) = env.get(x).copied() else {
            return Some(env);
        };
        let narrowed = match op {
            // x < b for the runtime b in `bound`: x <= bound.hi - 1.
            BinOp::Lt => upper(cur, bound.hi as i128 - 1)?,
            BinOp::Le => upper(cur, bound.hi as i128)?,
            BinOp::Gt => lower(cur, bound.lo as i128 + 1)?,
            BinOp::Ge => lower(cur, bound.lo as i128)?,
            BinOp::Eq => cur.meet(bound)?,
            BinOp::Ne => {
                if bound.lo == bound.hi {
                    let b = bound.lo;
                    if cur.lo == b && cur.hi == b {
                        return None;
                    } else if cur.lo == b {
                        Itv {
                            lo: b + 1,
                            hi: cur.hi,
                        }
                    } else if cur.hi == b {
                        Itv {
                            lo: cur.lo,
                            hi: b - 1,
                        }
                    } else {
                        cur
                    }
                } else {
                    cur
                }
            }
            _ => cur,
        };
        env.insert(x.to_string(), narrowed);
        Some(env)
    }

    /// Widens `old ∪ new` per variable: an escaping bound jumps to the
    /// nearest threshold (program literal), then the type extreme.
    fn widen_env(&self, old: &Env, new: &Env) -> Env {
        let mut out = new.clone();
        for (k, nv) in new {
            let Some(ov) = old.get(k) else { continue };
            let full = self
                .tys
                .get(k)
                .copied()
                .and_then(ty_full)
                .unwrap_or(FULL_INT);
            let mut w = *nv;
            if nv.lo < ov.lo {
                w.lo = self
                    .thresholds
                    .iter()
                    .rev()
                    .find(|&&t| t <= nv.lo)
                    .copied()
                    .unwrap_or(i64::MIN)
                    .max(full.lo);
            }
            if nv.hi > ov.hi {
                w.hi = self
                    .thresholds
                    .iter()
                    .find(|&&t| t >= nv.hi)
                    .copied()
                    .unwrap_or(i64::MAX)
                    .min(full.hi);
            }
            out.insert(k.clone(), w);
        }
        out
    }
}

impl Analysis for Analyzer {
    type Fact = Env;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> Env {
        Env::new()
    }

    fn join(&self, into: &mut Env, from: &Env) {
        for (k, v) in from {
            into.entry(k.clone())
                .and_modify(|cur| *cur = cur.join(*v))
                .or_insert(*v);
        }
    }

    /// Transfer through the statement at `node` (identity for anything
    /// that does not assign a local).
    fn transfer(&self, cfg: &Cfg<'_>, node: NodeId, env: &Env) -> Env {
        let Some(id) = cfg.stmt_of(node) else {
            return env.clone();
        };
        match cfg.stmt(id) {
            Stmt::Let { name, ty, init } => {
                let mut out = env.clone();
                match ty_full(*ty) {
                    Some(full) => {
                        let mut v = match self.eval(init, env) {
                            AbsVal::I(i) => i.meet(full).unwrap_or(full),
                            AbsVal::Unknown => full,
                        };
                        if self.carried.contains_key(name) {
                            if let Some(r) = self.restore.get(name) {
                                v = v.join(*r);
                            }
                        }
                        out.insert(name.clone(), v);
                    }
                    None => {
                        out.remove(name);
                    }
                }
                out
            }
            Stmt::Assign { name, value } => {
                let mut out = env.clone();
                match self.tys.get(name).copied().and_then(ty_full) {
                    Some(full) => {
                        let v = match self.eval(value, env) {
                            AbsVal::I(i) => i.meet(full).unwrap_or(full),
                            AbsVal::Unknown => full,
                        };
                        out.insert(name.clone(), v);
                    }
                    None => {
                        out.remove(name);
                    }
                }
                out
            }
            _ => env.clone(),
        }
    }

    /// Refines the environment along a branch edge of an `if` by its
    /// condition; `None` = infeasible edge.
    fn edge(&self, cfg: &Cfg<'_>, from: NodeId, to: NodeId, out: &Env) -> Option<Env> {
        if let Some((then_e, else_e)) = cfg.branch_targets(from) {
            if then_e != else_e {
                if let Some(id) = cfg.stmt_of(from) {
                    if let Stmt::If { cond, .. } = cfg.stmt(id) {
                        return self.refine(out.clone(), cond, to == then_e);
                    }
                }
            }
        }
        Some(out.clone())
    }

    fn widen(&self, old: &Env, joined: Env) -> Env {
        self.widen_env(old, &joined)
    }
}

/// Abstract comparison: a decided `[1,1]`/`[0,0]` when the intervals
/// force the outcome, `[0,1]` otherwise.
fn cmp_itv(op: BinOp, a: Itv, b: Itv) -> Itv {
    let decided = |t: bool, f: bool| {
        if t {
            TRUE_ITV
        } else if f {
            FALSE_ITV
        } else {
            BOOL_TOP
        }
    };
    match op {
        BinOp::Lt => decided(a.hi < b.lo, a.lo >= b.hi),
        BinOp::Le => decided(a.hi <= b.lo, a.lo > b.hi),
        BinOp::Gt => decided(a.lo > b.hi, a.hi <= b.lo),
        BinOp::Ge => decided(a.lo >= b.hi, a.hi < b.lo),
        BinOp::Eq => decided(
            a.lo == a.hi && b.lo == b.hi && a.lo == b.lo,
            a.meet(b).is_none(),
        ),
        BinOp::Ne => decided(
            a.meet(b).is_none(),
            a.lo == a.hi && b.lo == b.hi && a.lo == b.lo,
        ),
        _ => BOOL_TOP,
    }
}

fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
    )
}

fn negate_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        other => other,
    }
}

/// `a <op> b` rewritten as `b <op'> a`.
fn swap_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// `x <= cap`, where `cap` may sit outside `i64`.
fn upper(x: Itv, cap: i128) -> Option<Itv> {
    if cap < x.lo as i128 {
        return None;
    }
    Some(Itv {
        lo: x.lo,
        hi: x.hi.min(cap.min(i64::MAX as i128) as i64),
    })
}

/// `x >= floor`, where `floor` may sit outside `i64`.
fn lower(x: Itv, floor: i128) -> Option<Itv> {
    if floor > x.hi as i128 {
        return None;
    }
    Some(Itv {
        lo: x.lo.max(floor.max(i64::MIN as i128) as i64),
        hi: x.hi,
    })
}

/// One assignment site inside the neighbour loop, with its chain of
/// governing `if` conditions (and branch polarity).
pub(crate) struct AssignSite<'a> {
    pub(crate) id: StmtId,
    name: &'a str,
    value: &'a Expr,
    guards: Vec<(&'a Expr, bool)>,
}

/// One `break` site inside the neighbour loop.
pub(crate) struct BreakSite<'a> {
    pub(crate) id: StmtId,
    guards: Vec<(&'a Expr, bool)>,
}

#[derive(Default)]
pub(crate) struct LoopScan<'a> {
    pub(crate) assigns: Vec<AssignSite<'a>>,
    pub(crate) breaks: Vec<BreakSite<'a>>,
    /// Locals assigned (or re-`let`) anywhere inside the loop — not
    /// pass-invariant.
    loop_assigned: BTreeSet<&'a str>,
}

/// Walks the body in [`preorder`]'s order, collecting loop assignment
/// and break sites with their in-loop guard chains; the guard stack is
/// why this walk keeps its own statement counter, which
/// `ast::tests::walk_ids_are_the_one_statement_numbering` pins. Guards
/// *outside* the loop are deliberately dropped: their conditions are
/// evaluated once, before the loop, and cannot un-trigger mid-scan.
pub(crate) fn scan<'a>(body: &'a [Stmt]) -> LoopScan<'a> {
    fn walk<'a>(
        stmts: &'a [Stmt],
        id: &mut StmtId,
        in_loop: bool,
        guards: &mut Vec<(&'a Expr, bool)>,
        out: &mut LoopScan<'a>,
    ) {
        for s in stmts {
            let my_id = *id;
            *id += 1;
            match s {
                Stmt::Assign { name, value } if in_loop => {
                    out.loop_assigned.insert(name);
                    out.assigns.push(AssignSite {
                        id: my_id,
                        name,
                        value,
                        guards: guards.clone(),
                    });
                }
                Stmt::Let { name, .. } if in_loop => {
                    out.loop_assigned.insert(name);
                }
                Stmt::Break if in_loop => {
                    out.breaks.push(BreakSite {
                        id: my_id,
                        guards: guards.clone(),
                    });
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    if in_loop {
                        guards.push((cond, true));
                        walk(then_branch, id, in_loop, guards, out);
                        guards.pop();
                        guards.push((cond, false));
                        walk(else_branch, id, in_loop, guards, out);
                        guards.pop();
                    } else {
                        walk(then_branch, id, in_loop, guards, out);
                        walk(else_branch, id, in_loop, guards, out);
                    }
                }
                Stmt::ForNeighbors { body } => {
                    let mut inner = Vec::new();
                    walk(body, id, true, &mut inner, out);
                }
                _ => {}
            }
        }
    }
    let mut out = LoopScan::default();
    let mut id = 0;
    walk(body, &mut id, false, &mut Vec::new(), &mut out);
    out
}

fn split_and<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::Binary(BinOp::And, l, r) = e {
        split_and(l, out);
        split_and(r, out);
    } else {
        out.push(e);
    }
}

fn join_mono(a: Monotonicity, b: Monotonicity) -> Monotonicity {
    use Monotonicity::*;
    match (a, b) {
        (Constant, m) | (m, Constant) => m,
        (x, y) if x == y => x,
        _ => Unknown,
    }
}

/// Direction of one assignment `x = value` given its governing guards
/// and the abstract environment before it.
fn classify_assign(an: &Analyzer, site: &AssignSite<'_>, env: &Env) -> Monotonicity {
    let x = site.name;
    match site.value {
        // x = x ± e: the sign of e decides the direction.
        Expr::Binary(BinOp::Add, l, r) => {
            let delta = if matches!(l.as_ref(), Expr::Local(n) if n == x) {
                Some(r)
            } else if matches!(r.as_ref(), Expr::Local(n) if n == x) {
                Some(l)
            } else {
                None
            };
            match delta.map(|d| an.eval(d, env)) {
                Some(AbsVal::I(d)) if d.lo >= 0 => Monotonicity::NonDecreasing,
                Some(AbsVal::I(d)) if d.hi <= 0 => Monotonicity::NonIncreasing,
                _ => Monotonicity::Unknown,
            }
        }
        Expr::Binary(BinOp::Sub, l, r) if matches!(l.as_ref(), Expr::Local(n) if n == x) => {
            match an.eval(r, env) {
                AbsVal::I(d) if d.lo >= 0 => Monotonicity::NonIncreasing,
                AbsVal::I(d) if d.hi <= 0 => Monotonicity::NonDecreasing,
                _ => Monotonicity::Unknown,
            }
        }
        Expr::Lit(Value::Bool(true)) => Monotonicity::NonDecreasing,
        Expr::Lit(Value::Bool(false)) => Monotonicity::NonIncreasing,
        Expr::Local(n) if n == x => Monotonicity::Constant,
        // x = E (E free of x): a governing conjunct `E < x` proves the
        // assignment only ever lowers x (the cc min-fold shape); `E > x`
        // the dual.
        value if !value.any(|e| matches!(e, Expr::Local(n) if n == x)) => {
            for (g, positive) in &site.guards {
                if !positive {
                    continue;
                }
                let mut conjuncts = Vec::new();
                split_and(g, &mut conjuncts);
                for c in conjuncts {
                    if let Expr::Binary(op, l, r) = c {
                        let (op, bound, local) = if matches!(r.as_ref(), Expr::Local(n) if n == x) {
                            (*op, l.as_ref(), true)
                        } else if matches!(l.as_ref(), Expr::Local(n) if n == x) {
                            (swap_cmp(*op), r.as_ref(), true)
                        } else {
                            (*op, c, false)
                        };
                        if local && bound == value {
                            // Normalised as `bound <op> x`.
                            match op {
                                BinOp::Lt | BinOp::Le => return Monotonicity::NonIncreasing,
                                BinOp::Gt | BinOp::Ge => return Monotonicity::NonDecreasing,
                                _ => {}
                            }
                        }
                    }
                }
            }
            Monotonicity::Unknown
        }
        _ => Monotonicity::Unknown,
    }
}

/// Whether a break conjunct stays triggered for the rest of the scan
/// (see the module docs for the three cases).
fn conjunct_stable(
    c: &Expr,
    positive: bool,
    mono: &BTreeMap<String, Monotonicity>,
    carried: &BTreeSet<&str>,
    loop_assigned: &BTreeSet<&str>,
) -> bool {
    let reads_any = |e: &Expr, names: &BTreeSet<&str>| {
        e.any(|x| matches!(x, Expr::Local(n) if names.contains(n.as_str())))
    };
    // Per-neighbour selector: properties are frozen during the pass.
    if c.any(|e| matches!(e, Expr::CurrentNeighbor)) {
        return true;
    }
    // Carried-free and loop-invariant: cannot change mid-scan.
    if !reads_any(c, carried) {
        return !reads_any(c, loop_assigned);
    }
    let dir_ok = |x: &str, toward_true: bool| -> bool {
        matches!(
            (mono.get(x), toward_true),
            (Some(Monotonicity::Constant), _)
                | (Some(Monotonicity::NonDecreasing), true)
                | (Some(Monotonicity::NonIncreasing), false)
        )
    };
    match c {
        // Bare carried bool: latched iff only ever pushed toward the
        // polarity we need.
        Expr::Local(x) => dir_ok(x, positive),
        Expr::Unary(UnOp::Not, inner) => {
            conjunct_stable(inner, !positive, mono, carried, loop_assigned)
        }
        Expr::Binary(BinOp::And, l, r) if positive => {
            conjunct_stable(l, true, mono, carried, loop_assigned)
                && conjunct_stable(r, true, mono, carried, loop_assigned)
        }
        Expr::Binary(op, l, r) if is_cmp(*op) => {
            // Normalise to `x <op'> bound` with x a bare carried local
            // and the bound pass-invariant and carried-free.
            let (x, op, bound) = match (l.as_ref(), r.as_ref()) {
                (Expr::Local(x), b) if carried.contains(x.as_str()) => (x, *op, b),
                (b, Expr::Local(x)) if carried.contains(x.as_str()) => (x, swap_cmp(*op), b),
                _ => return false,
            };
            if reads_any(bound, carried) || reads_any(bound, loop_assigned) {
                return false;
            }
            let op = if positive { op } else { negate_cmp(op) };
            match op {
                BinOp::Ge | BinOp::Gt => dir_ok(x, true),
                BinOp::Le | BinOp::Lt => dir_ok(x, false),
                BinOp::Eq | BinOp::Ne => {
                    matches!(mono.get(x.as_str()), Some(Monotonicity::Constant))
                }
                _ => false,
            }
        }
        _ => false,
    }
}

/// Fallback certificate when the fixpoint runs out of fuel: nothing
/// range-proven (type-structural widths only), no latch facts.
fn give_up(carried: &[(String, Ty)]) -> DepCertificate {
    DepCertificate {
        carried: carried
            .iter()
            .map(|(name, ty)| CarriedCert {
                name: name.clone(),
                ty: *ty,
                range: ValueRange::Unbounded,
                width: width_for(*ty, ValueRange::Unbounded),
                mono: Monotonicity::Unknown,
            })
            .collect(),
        skip_latch: true,
        stable_breaks: false,
    }
}

/// Runs the abstract interpretation on an (uninstrumented) UDF and emits
/// the certificate for the given carried-local set, for the minimized
/// instrumentation: its skip check returns early, so the certificate
/// records the structural skip latch (naive instrumentation attaches
/// [`DepCertificate::wide`] instead, keeping the uncertified wire format).
pub(crate) fn certify(udf: &UdfFn, carried: &[(String, Ty)]) -> DepCertificate {
    let cfg = Cfg::build(udf);
    let pruned = cfg.prune_breaks();

    let mut tys: BTreeMap<String, Ty> = preorder(&udf.body)
        .filter_map(|(_, s, _)| match s {
            Stmt::Let { name, ty, .. } => Some((name.clone(), *ty)),
            _ => None,
        })
        .collect();
    for (name, ty) in carried {
        tys.insert(name.clone(), *ty);
    }

    // Widening thresholds: 0 and every integer literal ± 1.
    let mut thresholds: BTreeSet<i64> = BTreeSet::from([0]);
    for e in preorder(&udf.body).filter_map(|(_, s, _)| s.expr()) {
        e.any(|x| {
            if let Expr::Lit(Value::Int(i)) = x {
                thresholds.extend([*i, i.saturating_sub(1), i.saturating_add(1)]);
            }
            false
        });
    }

    let carried_map: BTreeMap<String, Ty> = carried.iter().cloned().collect();
    let mut an = Analyzer {
        tys,
        carried: carried_map.clone(),
        restore: carried_map
            .iter()
            .filter(|(_, ty)| ty_full(**ty).is_some())
            .map(|(name, _)| (name.clone(), Itv::point(0)))
            .collect(),
        thresholds: thresholds.into_iter().collect(),
    };

    // Outer fixpoint on the restore hypothesis: what a machine restores
    // is an earlier machine's break-free exit value (or zero).
    let mut fuel = 1usize << 14;
    fuel += 512 * pruned.node_count();
    let mut solution = None;
    for round in 0..MAX_RESTORE_ROUNDS {
        let Some(before) = solve(&pruned, &an, &mut fuel) else {
            return give_up(carried);
        };
        let exit_env = before[EXIT].clone().unwrap_or_default();
        let mut next = an.restore.clone();
        for (name, r) in &mut next {
            let ty = an.tys.get(name).copied().unwrap_or(Ty::Int);
            let full = ty_full(ty).unwrap_or(FULL_INT);
            let at_exit = exit_env.get(name).copied().unwrap_or(full);
            *r = r.join(at_exit).meet(full).unwrap_or(full);
        }
        if round >= RESTORE_WIDEN_AFTER {
            next = an.widen_env(&an.restore, &next);
        }
        if next == an.restore {
            solution = Some(before);
            break;
        }
        an.restore = next;
    }
    let Some(before) = solution else {
        return give_up(carried);
    };

    // Wire range = reset zero ∪ break-site snapshots ∪ break-free exit.
    let exit_env = before[EXIT].clone().unwrap_or_default();
    let ranges: BTreeMap<String, ValueRange> = carried
        .iter()
        .map(|(name, ty)| {
            let Some(full) = ty_full(*ty) else {
                return (name.clone(), ValueRange::Unbounded);
            };
            let mut wire = Itv::point(0);
            wire = wire.join(exit_env.get(name).copied().unwrap_or(full));
            for &b in cfg.breaks() {
                if let Some(env) = &before[b] {
                    wire = wire.join(env.get(name).copied().unwrap_or(full));
                }
            }
            let wire = wire.meet(full).unwrap_or(full);
            let range = if *ty == Ty::Int && wire == FULL_INT {
                ValueRange::Unbounded
            } else {
                ValueRange::Interval {
                    lo: wire.lo,
                    hi: wire.hi,
                }
            };
            (name.clone(), range)
        })
        .collect();

    // Monotonicity per carried local over its reachable loop assignments.
    let sc = scan(&udf.body);
    let mut mono: BTreeMap<String, Monotonicity> = carried
        .iter()
        .map(|(name, _)| (name.clone(), Monotonicity::Constant))
        .collect();
    for site in &sc.assigns {
        let Some(cur) = mono.get(site.name).copied() else {
            continue;
        };
        let node = cfg.node_of(site.id);
        let Some(env) = &before[node] else {
            continue; // unreachable assignment
        };
        let dir = classify_assign(&an, site, env);
        mono.insert(site.name.to_string(), join_mono(cur, dir));
    }

    // Break stability: every *reachable* break's in-loop guard chain
    // must stay triggered.
    let carried_names: BTreeSet<&str> = carried.iter().map(|(n, _)| n.as_str()).collect();
    let stable_breaks = sc.breaks.iter().all(|b| {
        let node = cfg.node_of(b.id);
        if before[node].is_none() {
            return true; // unreachable break cannot fire
        }
        b.guards.iter().all(|(g, positive)| {
            if *positive {
                let mut conjuncts = Vec::new();
                split_and(g, &mut conjuncts);
                conjuncts
                    .iter()
                    .all(|c| conjunct_stable(c, true, &mono, &carried_names, &sc.loop_assigned))
            } else {
                conjunct_stable(g, false, &mono, &carried_names, &sc.loop_assigned)
            }
        })
    });

    DepCertificate {
        carried: carried
            .iter()
            .map(|(name, ty)| {
                let range = ranges[name];
                CarriedCert {
                    name: name.clone(),
                    ty: *ty,
                    range,
                    width: width_for(*ty, range),
                    mono: mono[name],
                }
            })
            .collect(),
        skip_latch: true,
        stable_breaks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_udfs::*;

    fn int(name: &str) -> Vec<(String, Ty)> {
        vec![(name.to_string(), Ty::Int)]
    }

    #[test]
    fn kcore_counter_certifies_narrow() {
        let cert = certify(&kcore_udf(4), &int("cnt"));
        assert_eq!(cert.carried.len(), 1);
        let c = &cert.carried[0];
        assert_eq!(c.range, ValueRange::Interval { lo: 0, hi: 4 });
        assert_eq!(c.width, 1);
        assert_eq!(c.mono, Monotonicity::NonDecreasing);
        assert!(cert.stable_breaks, "cnt >= k latches: cnt only grows");
        assert!(cert.latches());
    }

    #[test]
    fn kcore_large_k_still_narrow_via_thresholds() {
        // k = 200 needs more loop-head visits than the widening delay;
        // threshold widening (to the literal 200's neighbourhood) plus
        // narrowing keeps the bound tight instead of jumping to i64::MAX.
        let cert = certify(&kcore_udf(200), &int("cnt"));
        let c = &cert.carried[0];
        assert_eq!(c.range, ValueRange::Interval { lo: 0, hi: 200 });
        assert_eq!(c.width, 2, "[0, 200] needs two signed bytes");
        assert!(cert.latches());
        let small = certify(&kcore_udf(100), &int("cnt"));
        assert_eq!(small.carried[0].width, 1, "[0, 100] fits one signed byte");
    }

    #[test]
    fn sampling_float_is_unbounded_and_unstable() {
        let cert = certify(&sampling_udf(), &[("acc".to_string(), Ty::Float)]);
        let c = &cert.carried[0];
        assert_eq!(c.range, ValueRange::Unbounded);
        assert_eq!(c.width, 8);
        assert_eq!(
            c.mono,
            Monotonicity::Unknown,
            "float weights may be negative"
        );
        assert!(!cert.stable_breaks, "acc >= r[v] may un-trigger (W008)");
        assert!(!cert.latches());
    }

    #[test]
    fn sssp_and_pagerank_are_wide_but_vacuously_stable() {
        for (udf, name) in [(sssp_udf(), "best"), (pagerank_udf(), "acc")] {
            let cert = certify(&udf, &int(name));
            assert_eq!(cert.carried[0].range, ValueRange::Unbounded, "{name}");
            assert_eq!(cert.carried[0].width, 8);
            assert!(cert.stable_breaks, "no reachable breaks: vacuous");
        }
    }

    #[test]
    fn cc_min_fold_is_nonincreasing_and_stable() {
        let cert = certify(&cc_udf(), &int("best"));
        let c = &cert.carried[0];
        assert_eq!(c.width, 8, "label[u] is an unbounded int property");
        assert_eq!(
            c.mono,
            Monotonicity::NonIncreasing,
            "best = label[u] under label[u] < best"
        );
        assert!(
            cert.stable_breaks,
            "best < 1 latches: best only decreases; label[u] < best is a selector"
        );
        assert!(cert.latches());
    }

    #[test]
    fn control_only_kernels_are_stable() {
        // bfs/mis/kmeans carry nothing; their break guards read only
        // u-indexed properties (frozen during a pass).
        for udf in [bfs_udf(), mis_udf(), kmeans_udf()] {
            let cert = certify(&udf, &[]);
            assert!(cert.carried.is_empty());
            assert!(cert.stable_breaks, "{}", udf.name);
            assert!(cert.latches(), "{}", udf.name);
        }
    }

    #[test]
    fn branch_refinement_bounds_a_guarded_assign() {
        use crate::ast::{Expr, Stmt};
        // x is only ever rewritten to 7 while x < 3 — so x stays small:
        // wire range [0, 7].
        let udf = UdfFn::new(
            "t",
            Ty::Int,
            vec![
                Stmt::let_("x", Ty::Int, Expr::i(0)),
                Stmt::for_neighbors(vec![Stmt::if_(
                    Expr::local("x").lt(Expr::i(3)),
                    vec![Stmt::assign("x", Expr::i(7))],
                )]),
                Stmt::Emit(Expr::local("x")),
            ],
        );
        let cert = certify(&udf, &int("x"));
        assert_eq!(cert.carried[0].range, ValueRange::Interval { lo: 0, hi: 7 });
        assert_eq!(cert.carried[0].width, 1);
    }

    #[test]
    fn bool_and_vertex_carried_narrow_structurally() {
        use crate::ast::{Expr, Stmt};
        let udf = UdfFn::new(
            "t",
            Ty::Int,
            vec![
                Stmt::let_("seen", Ty::Bool, Expr::b(false)),
                Stmt::for_neighbors(vec![Stmt::if_(
                    Expr::prop_u("p"),
                    vec![Stmt::assign("seen", Expr::b(true)), Stmt::Break],
                )]),
            ],
        );
        let cert = certify(&udf, &[("seen".to_string(), Ty::Bool)]);
        assert_eq!(cert.carried[0].width, 1);
        assert_eq!(cert.carried[0].mono, Monotonicity::NonDecreasing);
        assert!(cert.stable_breaks);
    }
}
