//! [`UdfProgram`] — an instrumented UDF bound to a property store as an
//! engine pull program — plus the tree-walking reference interpreter.
//!
//! [`UdfProgram`] implements [`symple_core::PullProgram`], so an analyzed
//! UDF executes under the exact same circulant/dependency machinery as a
//! hand-written native program. Signal calls dispatch to one of two
//! executors selected by [`UdfExec`]: the typed VM (the default; see
//! [`crate::compile`]) or the tree interpreter in this module, which is
//! the differential reference and the fallback when the program hits a
//! VM resource limit (lint `W006`) or does not lower against the store it
//! is bound to. Both widen an `int` stored into a `float` local or
//! emitted as a `float` update where it is stored.
//! The instrumentation nodes map to the runtime like this:
//!
//! * `ReceiveDepGuard` — on the dependency-carried path: early-return if
//!   the skip bit is set, otherwise stage the carried locals' restored
//!   values so their `let` declarations pick them up (the paper stores
//!   dependency data "in capture variables of lambda expressions"; here
//!   the declaration *is* the capture point).
//! * `EmitDep` — set the skip bit and snapshot the carried locals into
//!   the dependency payload.
//! * On normal segment exit (no break) the carried locals are snapshotted
//!   too, so data dependency (counters, prefix sums) flows to the next
//!   machine even without a break.
//!
//! Run [`crate::check`] before interpreting: the interpreter assumes a
//! well-typed program and panics on type confusion.

use crate::analysis::DepInfo;
use crate::ast::{BinOp, Expr, Stmt, UnOp};
use crate::dep_bridge::UdfDep;
use crate::props::{PropArray, PropertyStore};
use crate::transform::InstrumentedUdf;
use crate::types::{Ty, Value};
use crate::vm::BoundVm;
use std::cell::RefCell;
use std::collections::HashMap;
use symple_core::{DepState, DepWidth, PullProgram, SignalOutcome, UdfExec};
use symple_graph::{Bitmap, Vid};

/// An instrumented UDF bound to a property store, executable as a pull
/// program under either executor (bytecode VM or tree interpreter).
pub struct UdfProgram<'a> {
    inst: &'a InstrumentedUdf,
    props: &'a PropertyStore,
    /// The dense-activity predicate's bitmap and the value it must hold.
    active: Option<(&'a Bitmap, bool)>,
    /// The executor requested through [`UdfProgram::exec`].
    exec: UdfExec,
    /// The typed program signal calls run on; `None` is the interpreter,
    /// by request or as the fallback when lowering fails.
    vm: Option<BoundVm<'a>>,
    dep_width: DepWidth,
}

/// Lowers `inst` against `props`, if the VM was asked for and the program
/// allows it.
fn build_vm<'a>(
    inst: &InstrumentedUdf,
    props: &'a PropertyStore,
    exec: UdfExec,
) -> Option<BoundVm<'a>> {
    if exec != UdfExec::Bytecode {
        return None;
    }
    BoundVm::bind(inst, props)
}

impl<'a> UdfProgram<'a> {
    /// Binds `inst` to `props` under the default executor
    /// ([`UdfExec::Bytecode`], falling back to the interpreter if the
    /// program hits a compiler resource limit, reads a property the store
    /// lacks, or is ill-typed for the store's arrays). All vertices are
    /// considered dense-active unless [`UdfProgram::active_when`] is set.
    pub fn new(inst: &'a InstrumentedUdf, props: &'a PropertyStore) -> Self {
        let exec = UdfExec::default();
        UdfProgram {
            vm: build_vm(inst, props, exec),
            exec,
            inst,
            props,
            active: None,
            dep_width: DepWidth::default(),
        }
    }

    /// Selects the executor (wire `EngineConfig::udf_exec` through here).
    /// `Bytecode` silently falls back to the interpreter when the program
    /// cannot be lowered; outputs are identical either way.
    /// Asking for the executor already in effect keeps the program
    /// [`UdfProgram::new`] built.
    pub fn exec(mut self, exec: UdfExec) -> Self {
        if exec != self.exec {
            self.exec = exec;
            self.vm = build_vm(self.inst, self.props, exec);
        }
        self
    }

    /// Returns `true` if signal calls run on the bytecode VM (false:
    /// interpreter, by request or by fallback).
    pub fn uses_bytecode(&self) -> bool {
        self.vm.is_some()
    }

    /// The program signal calls run on — typed, then optimised — one op
    /// per line followed by the constant pool; `None` under the
    /// interpreter.
    pub fn disassemble(&self) -> Option<String> {
        self.vm.as_ref().map(BoundVm::disassemble)
    }

    /// Per neighbour loop of the typed program, in program order: the
    /// most ops one iteration dispatches. `None` under the interpreter.
    pub fn loop_ops(&self) -> Option<Vec<usize>> {
        self.vm.as_ref().map(BoundVm::loop_ops)
    }

    /// Restricts dense activity to vertices where boolean property
    /// `prop` equals `value` (Gemini's dense frontier predicate).
    ///
    /// # Panics
    ///
    /// Panics if the store has no property `prop` or it is not a boolean
    /// array.
    pub fn active_when(mut self, prop: &str, value: bool) -> Self {
        let bits = match self.props.get(prop) {
            Some(PropArray::Bools(bits)) => bits,
            Some(other) => panic!(
                "active predicate: property `{prop}` is {}, not bool",
                other.ty()
            ),
            None => panic!("active predicate: unknown property `{prop}`"),
        };
        self.active = Some((bits, value));
        self
    }

    /// Selects the dependency wire sizing (wire `EngineConfig::dep_width`
    /// through here). `Certified` (the default) narrows carried values to
    /// the widths the abstract-interpretation certificate proves and
    /// elides latched slots' values; `Wide` keeps the seed's
    /// 8-bytes-per-value reference layout.
    pub fn dep_width(mut self, width: DepWidth) -> Self {
        self.dep_width = width;
        self
    }

    /// Allocates dependency state with the right carried layout for this
    /// UDF (`slots` from [`symple_core::Worker::dep_slots_needed`]),
    /// narrowed by the dependency certificate unless `dep_width(Wide)`
    /// was selected.
    pub fn make_dep(&self, slots: usize) -> UdfDep {
        let tys: Vec<_> = self.inst.info.carried.iter().map(|&(_, t)| t).collect();
        match self.dep_width {
            DepWidth::Wide => UdfDep::new(slots, tys),
            DepWidth::Certified => UdfDep::with_certificate(slots, tys, &self.inst.info.cert),
        }
    }
}

enum Flow {
    Normal,
    Broke,
    Returned,
}

struct Env<'l> {
    locals: &'l mut HashMap<String, Value>,
    v: Vid,
    u: Option<Vid>,
}

struct Ctx<'e> {
    props: &'e PropertyStore,
    info: &'e DepInfo,
    dep: &'e mut UdfDep,
    slot: usize,
    carried: bool,
    emit: &'e mut dyn FnMut(u64),
    update_ty: Ty,
    edges: u64,
    broke: bool,
    /// Values staged by `ReceiveDepGuard` for carried locals' `let`s.
    pending: &'e mut HashMap<String, Value>,
}

thread_local! {
    /// Interpreter scratch — the locals environment and the pending-restore
    /// map — cleared and reused across signal calls so the edge loop
    /// allocates nothing after warm-up.
    static SCRATCH: RefCell<(HashMap<String, Value>, HashMap<String, Value>)> =
        RefCell::new((HashMap::new(), HashMap::new()));
}

impl Ctx<'_> {
    fn exec_block(&mut self, block: &[Stmt], env: &mut Env, srcs: &[Vid]) -> Flow {
        for s in block {
            match self.exec_stmt(s, env, srcs) {
                Flow::Normal => {}
                other => return other,
            }
        }
        Flow::Normal
    }

    fn exec_stmt(&mut self, s: &Stmt, env: &mut Env, srcs: &[Vid]) -> Flow {
        match s {
            Stmt::Let { name, ty, init } => {
                let val = match self.pending.remove(name) {
                    Some(restored) => restored,
                    None => widen(*ty, self.eval(init, env)),
                };
                // Overwrite in place when the `let` re-executes (every
                // edge-loop iteration): no per-edge key clone.
                match env.locals.get_mut(name) {
                    Some(slot) => *slot = val,
                    None => {
                        env.locals.insert(name.clone(), val);
                    }
                }
                Flow::Normal
            }
            Stmt::Assign { name, value } => {
                let val = self.eval(value, env);
                let slot = env
                    .locals
                    .get_mut(name)
                    .unwrap_or_else(|| panic!("undefined local `{name}` (run check first)"));
                *slot = widen(slot.ty(), val);
                Flow::Normal
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval(cond, env).as_bool() {
                    self.exec_block(then_branch, env, srcs)
                } else {
                    self.exec_block(else_branch, env, srcs)
                }
            }
            Stmt::ForNeighbors { body } => {
                for &u in srcs {
                    self.edges += 1;
                    env.u = Some(u);
                    match self.exec_block(body, env, srcs) {
                        Flow::Normal => {}
                        Flow::Broke => {
                            self.broke = true;
                            break;
                        }
                        Flow::Returned => {
                            env.u = None;
                            return Flow::Returned;
                        }
                    }
                }
                env.u = None;
                Flow::Normal
            }
            Stmt::Break => Flow::Broke,
            Stmt::Emit(e) => {
                let val = widen(self.update_ty, self.eval(e, env));
                (self.emit)(val.to_bits());
                Flow::Normal
            }
            Stmt::Return => Flow::Returned,
            Stmt::ReceiveDepGuard => {
                if self.carried {
                    if self.dep.should_skip(self.slot) {
                        return Flow::Returned;
                    }
                    for (i, (name, _ty)) in self.info.carried.iter().enumerate() {
                        self.pending
                            .insert(name.clone(), self.dep.value(self.slot, i));
                    }
                }
                Flow::Normal
            }
            Stmt::EmitDep => {
                self.dep.mark(self.slot);
                self.snapshot_carried(env);
                Flow::Normal
            }
        }
    }

    /// Copies the carried locals' current values into the dependency slot.
    fn snapshot_carried(&mut self, env: &Env) {
        for (i, (name, _ty)) in self.info.carried.iter().enumerate() {
            if let Some(&val) = env.locals.get(name) {
                self.dep.set_value(self.slot, i, val);
            }
        }
    }

    fn eval(&mut self, e: &Expr, env: &Env) -> Value {
        match e {
            Expr::Lit(v) => *v,
            Expr::Local(name) => *env
                .locals
                .get(name)
                .unwrap_or_else(|| panic!("undefined local `{name}` (run check first)")),
            Expr::Prop { array, index } => {
                let idx = self.eval(index, env).as_vertex();
                self.props
                    .read(array, idx)
                    .unwrap_or_else(|e| panic!("property read failed: {e}"))
            }
            Expr::CurrentVertex => Value::Vertex(env.v),
            Expr::CurrentNeighbor => Value::Vertex(
                env.u
                    .expect("`u` outside the neighbour loop (run check first)"),
            ),
            Expr::Unary(op, a) => unary(*op, self.eval(a, env)),
            Expr::Binary(op, a, b) => {
                // short-circuit logical operators
                match op {
                    BinOp::And => {
                        return Value::Bool(
                            self.eval(a, env).as_bool() && self.eval(b, env).as_bool(),
                        )
                    }
                    BinOp::Or => {
                        return Value::Bool(
                            self.eval(a, env).as_bool() || self.eval(b, env).as_bool(),
                        )
                    }
                    _ => {}
                }
                let va = self.eval(a, env);
                let vb = self.eval(b, env);
                binary(*op, va, vb)
            }
        }
    }
}

/// `v` stored into a place of type `ty`: the language's one implicit
/// conversion, an `int` into a `float`, happens here.
fn widen(ty: Ty, v: Value) -> Value {
    match (ty, v) {
        (Ty::Float, Value::Int(i)) => Value::Float(i as f64),
        _ => v,
    }
}

/// Unary evaluation. Integer negation wraps, like `+`/`-`/`*`.
fn unary(op: UnOp, v: Value) -> Value {
    match op {
        UnOp::Not => Value::Bool(!v.as_bool()),
        UnOp::Neg => match v {
            Value::Int(i) => Value::Int(i.wrapping_neg()),
            other => Value::Float(-other.as_float()),
        },
    }
}

/// Non-short-circuit binary evaluation (`&&`/`||` short-circuit in
/// `eval`).
fn binary(op: BinOp, a: Value, b: Value) -> Value {
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => arith(op, a, b),
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops are control flow"),
        _ => Value::Bool(compare(op, a, b)),
    }
}

fn arith(op: BinOp, a: Value, b: Value) -> Value {
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        return Value::Int(match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            _ => unreachable!(),
        });
    }
    let (x, y) = (a.as_float(), b.as_float());
    Value::Float(match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        _ => unreachable!(),
    })
}

fn compare(op: BinOp, a: Value, b: Value) -> bool {
    let ord = match (a, b) {
        (Value::Vertex(x), Value::Vertex(y)) => x.cmp(&y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(&y),
        (Value::Int(x), Value::Int(y)) => x.cmp(&y),
        (x, y) => x
            .as_float()
            .partial_cmp(&y.as_float())
            .expect("NaN in comparison"),
    };
    match op {
        BinOp::Lt => ord.is_lt(),
        BinOp::Le => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::Ge => ord.is_ge(),
        BinOp::Eq => ord.is_eq(),
        BinOp::Ne => ord.is_ne(),
        _ => unreachable!(),
    }
}

impl PullProgram for UdfProgram<'_> {
    type Update = u64;
    type Dep = UdfDep;

    fn dense_active(&self, v: Vid) -> bool {
        match self.active {
            None => true,
            Some((bits, want)) => bits.get_vid(v) == want,
        }
    }

    fn carries_dependency(&self) -> bool {
        // What the analyzer found (paper §4): no reachable break and no
        // carried local means nothing was instrumented, so the engine
        // runs the UDF on the dense schedule under every policy.
        self.inst.info.has_dependency()
    }

    fn guards_skip(&self) -> bool {
        // Instrumented UDFs with dependency open with `ReceiveDepGuard`,
        // which returns before any observable work when the skip bit is
        // set — safe to re-run under the executor's latch audit.
        self.inst.info.has_dependency()
    }

    fn certified_latch(&self) -> bool {
        self.inst.info.cert.latches()
    }

    fn signal(
        &self,
        v: Vid,
        srcs: &[Vid],
        dep: &mut UdfDep,
        slot: usize,
        carried: bool,
        emit: &mut dyn FnMut(u64),
    ) -> SignalOutcome {
        match &self.vm {
            Some(vm) => vm.signal(v, srcs, dep, slot, carried, emit),
            None => self.signal_interp(v, srcs, dep, slot, carried, emit),
        }
    }
}

impl UdfProgram<'_> {
    fn signal_interp(
        &self,
        v: Vid,
        srcs: &[Vid],
        dep: &mut UdfDep,
        slot: usize,
        carried: bool,
        emit: &mut dyn FnMut(u64),
    ) -> SignalOutcome {
        SCRATCH.with(|cell| {
            let (locals, pending) = &mut *cell.borrow_mut();
            locals.clear();
            pending.clear();
            let mut env = Env { locals, v, u: None };
            let mut ctx = Ctx {
                props: self.props,
                info: &self.inst.info,
                dep,
                slot,
                carried,
                emit,
                update_ty: self.inst.udf.update_ty,
                edges: 0,
                broke: false,
                pending,
            };
            let _ = ctx.exec_block(&self.inst.udf.body, &mut env, srcs);
            // Data dependency flows onward even without a break.
            if !ctx.broke && !ctx.info.carried.is_empty() {
                ctx.snapshot_carried(&env);
            }
            SignalOutcome {
                edges: ctx.edges,
                broke: ctx.broke,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{instrument, paper_udfs};

    fn bfs_setup(frontier_bits: &[u32], n: usize) -> (InstrumentedUdf, PropertyStore) {
        let inst = instrument(&paper_udfs::bfs_udf()).unwrap();
        let mut frontier = Bitmap::new(n);
        for &b in frontier_bits {
            frontier.set(b as usize);
        }
        let mut visited = Bitmap::new(n);
        for &b in frontier_bits {
            visited.set(b as usize);
        }
        let mut props = PropertyStore::new();
        props.insert("frontier", PropArray::Bools(frontier));
        props.insert("visited", PropArray::Bools(visited));
        (inst, props)
    }

    #[test]
    fn bfs_signal_breaks_at_first_frontier_neighbor() {
        let (inst, props) = bfs_setup(&[5], 10);
        let prog = UdfProgram::new(&inst, &props).active_when("visited", false);
        let mut dep = prog.make_dep(4);
        let mut got = Vec::new();
        let srcs = [Vid::new(2), Vid::new(5), Vid::new(7)];
        let out = prog.signal(Vid::new(0), &srcs, &mut dep, 1, true, &mut |u| got.push(u));
        assert_eq!(out.edges, 2, "breaks at the second neighbour");
        assert!(out.broke);
        assert_eq!(got, [5], "emitted the frontier parent");
        assert!(dep.should_skip(1), "emit_dep set the skip bit");
    }

    #[test]
    fn bfs_signal_respects_incoming_skip() {
        let (inst, props) = bfs_setup(&[5], 10);
        let prog = UdfProgram::new(&inst, &props).active_when("visited", false);
        let mut dep = prog.make_dep(4);
        dep.mark(1);
        let mut got = Vec::new();
        let srcs = [Vid::new(5)];
        let out = prog.signal(Vid::new(0), &srcs, &mut dep, 1, true, &mut |u| got.push(u));
        assert_eq!(out.edges, 0, "receive_dep guard returns before the loop");
        assert!(got.is_empty());
    }

    #[test]
    fn bfs_dense_active_tracks_visited() {
        let (inst, props) = bfs_setup(&[5], 10);
        let prog = UdfProgram::new(&inst, &props).active_when("visited", false);
        assert!(!prog.dense_active(Vid::new(5)), "visited vertex inactive");
        assert!(prog.dense_active(Vid::new(0)));
    }

    #[test]
    fn kcore_counter_carries_across_segments() {
        let inst = instrument(&paper_udfs::kcore_udf(4)).unwrap();
        let mut active = Bitmap::new(10);
        active.set_all();
        let mut props = PropertyStore::new();
        props.insert("active", PropArray::Bools(active));
        let prog = UdfProgram::new(&inst, &props).active_when("active", true);
        let mut dep = prog.make_dep(2);

        // segment 1: three active neighbours -> cnt 3, no break, emits 3
        let mut got = Vec::new();
        let srcs1 = [Vid::new(1), Vid::new(2), Vid::new(3)];
        let o1 = prog.signal(Vid::new(0), &srcs1, &mut dep, 0, true, &mut |x| got.push(x));
        assert!(!o1.broke);
        assert_eq!(got, [3]);
        assert_eq!(dep.value(0, 0), Value::Int(3), "counter carried onward");

        // segment 2 (next machine): restores cnt=3, breaks on first active
        got.clear();
        let srcs2 = [Vid::new(4), Vid::new(5)];
        let o2 = prog.signal(Vid::new(0), &srcs2, &mut dep, 0, true, &mut |x| got.push(x));
        assert!(o2.broke);
        assert_eq!(o2.edges, 1);
        assert_eq!(got, [1], "delta since restore, not the cumulative count");
        assert!(dep.should_skip(0));
    }

    #[test]
    fn kcore_scratch_mode_counts_locally() {
        let inst = instrument(&paper_udfs::kcore_udf(4)).unwrap();
        let mut active = Bitmap::new(10);
        active.set_all();
        let mut props = PropertyStore::new();
        props.insert("active", PropArray::Bools(active));
        let prog = UdfProgram::new(&inst, &props);
        let mut dep = prog.make_dep(2);
        // same two segments but carried = false: each starts from zero
        let mut got = Vec::new();
        let srcs1 = [Vid::new(1), Vid::new(2), Vid::new(3)];
        dep.reset_range(1..2);
        prog.signal(Vid::new(0), &srcs1, &mut dep, 1, false, &mut |x| {
            got.push(x)
        });
        dep.reset_range(1..2);
        let srcs2 = [Vid::new(4), Vid::new(5)];
        prog.signal(Vid::new(0), &srcs2, &mut dep, 1, false, &mut |x| {
            got.push(x)
        });
        assert_eq!(got, [3, 2], "per-machine partial counts");
    }

    #[test]
    fn sampling_prefix_carries() {
        let inst = instrument(&paper_udfs::sampling_udf()).unwrap();
        let mut props = PropertyStore::new();
        props.insert("weight", PropArray::Floats(vec![1.0; 8]));
        props.insert("r", PropArray::Floats(vec![4.5; 8]));
        let prog = UdfProgram::new(&inst, &props);
        let mut dep = prog.make_dep(1);
        let mut got = Vec::new();
        // segment 1: weights 1+1+1 = 3 < 4.5, no selection
        let srcs1 = [Vid::new(1), Vid::new(2), Vid::new(3)];
        let o1 = prog.signal(Vid::new(0), &srcs1, &mut dep, 0, true, &mut |x| got.push(x));
        assert!(!o1.broke);
        assert!(got.is_empty());
        // segment 2: continues at 3.0; crosses 4.5 at the second neighbour
        let srcs2 = [Vid::new(4), Vid::new(5), Vid::new(6)];
        let o2 = prog.signal(Vid::new(0), &srcs2, &mut dep, 0, true, &mut |x| got.push(x));
        assert!(o2.broke);
        assert_eq!(o2.edges, 2);
        assert_eq!(got, [5], "selected the prefix-crossing neighbour");
    }

    #[test]
    fn interpreter_arithmetic_and_logic() {
        use crate::ast::{Expr, Stmt, UdfFn};
        // emit((1 + 2) * 3) with a short-circuit guard
        let udf = UdfFn::new(
            "math",
            Ty::Int,
            vec![Stmt::if_(
                Expr::b(true).bin(BinOp::Or, Expr::b(false)),
                vec![Stmt::Emit(
                    Expr::i(1).add(Expr::i(2)).bin(BinOp::Mul, Expr::i(3)),
                )],
            )],
        );
        let inst = instrument(&udf).unwrap();
        let props = PropertyStore::new();
        let prog = UdfProgram::new(&inst, &props);
        let mut dep = prog.make_dep(1);
        let mut got = Vec::new();
        prog.signal(Vid::new(0), &[], &mut dep, 0, false, &mut |x| got.push(x));
        assert_eq!(got, [9]);
    }
}
