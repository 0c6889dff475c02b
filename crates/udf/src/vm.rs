//! The typed VM: a compiled UDF bound to a property store and executed
//! without dynamic typing.
//!
//! [`crate::compile`] produces *portable* bytecode: it knows the declared
//! type of every local but not the element types of the property arrays,
//! so its `Unary`/`Binary`/`LoadProp` ops are generic and a VM running
//! them directly would have to tag every register with its type and
//! re-dispatch on the tags per op. [`BoundVm::bind`] removes that work
//! once per program instead of once per edge: it walks the portable ops
//! in order, gives every register its static type (named registers from
//! [`CompiledUdf::named_tys`], property reads from the store's arrays,
//! temporaries by forward propagation), and emits one type-specialised
//! [`TOp`] per op — `AddF` or `AddI`, `GeF` or `GeI`, `LoadPropF` over a
//! `&[f64]` resolved here — with an explicit `I2F` wherever the language
//! widens an integer operand. [`crate::opt`] then rewrites that program —
//! loop-invariant code into a preheader, the loop test to the bottom and
//! fused with the next neighbour's load, compares fused with their
//! branches — and the result *is* the bound program: there is no second
//! executor and nothing selects the unoptimised form. Execution is a flat
//! dispatch loop over 8-byte ops and an untagged `[u64; N]` register file
//! on the stack: each register holds the [`crate::Value::to_bits`] image
//! of its value, and the dependency instrumentation copies raw words to
//! and from [`UdfDep`].
//!
//! **Binding is also the type check.** A store the UDF was never checked
//! against can hold an array of another type than the source assumed.
//! Typing fails — and the caller falls back to the tree interpreter,
//! exactly as for a missing property — whenever the interpreter's dynamic
//! typing would do something static types cannot express: an operand of
//! the wrong type (the interpreter panics there, if the code runs), or an
//! integer stored into a `float` local (the interpreter keeps the integer
//! and its wrapping arithmetic; lint `W006` points at the store). A
//! program that binds therefore has, at every op, exactly the types the
//! interpreter would see, and the two agree bit for bit: emissions, edge
//! counts, break flags, dependency payloads, and the `NaN in comparison`
//! panic.
//!
//! Temporaries are typed by one forward pass that is sound at control-flow
//! joins: each forward jump records the temporaries' types at its target,
//! a join keeps a type only where all its predecessors agree, and the
//! loop head (the only backward target) forgets every temporary. Reading
//! a register of unknown type fails the bind.
//!
//! The interpreter's per-call maps are two 64-bit masks, as before:
//! `pending` (set by `Guard` after staging the restored values into the
//! pinned registers; a carried `let` consumes its bit instead of running
//! its initialiser) and `declared` (set by `Declare`; `EmitDep` and the
//! no-break epilogue snapshot only declared registers).

use crate::ast::{BinOp, UnOp};
use crate::bytecode::{CompiledUdf, Op, Reg, MAX_REGS};
use crate::dep_bridge::UdfDep;
use crate::opt::optimize;
use crate::props::{PropArray, PropertyStore};
use crate::types::Ty;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::Write;
use symple_core::{DepState, SignalOutcome};
use symple_graph::{Bitmap, Vid};

/// Register-file size for programs that fit (every shipped kernel needs
/// fewer than ten registers). The file is zeroed per signal call; zeroing
/// all [`MAX_REGS`] measured ~8 ns per call, a tenth of a BFS signal over
/// a short neighbour list. Larger programs run the same loop over
/// [`MAX_REGS`] registers.
pub(crate) const SMALL_REGS: usize = 16;

/// One type-specialised instruction. Tuple operands are registers,
/// destination first: `AddF(dst, lhs, rhs)`, `I2F(dst, src)`. The `…I`
/// comparisons order `int` registers and, because `bool` and `vertex`
/// words are never negative as `i64`, those two types as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TOp {
    /// `r[dst] = consts[k]`.
    Const {
        dst: Reg,
        k: u16,
    },
    Move(Reg, Reg),
    /// `r[dst] = floats[prop][r[idx]]`; likewise `I`/`B`/`V` over the
    /// store's `i64`, bitmap and `u32` arrays.
    LoadPropF {
        dst: Reg,
        idx: Reg,
        prop: u16,
    },
    LoadPropI {
        dst: Reg,
        idx: Reg,
        prop: u16,
    },
    LoadPropB {
        dst: Reg,
        idx: Reg,
        prop: u16,
    },
    LoadPropV {
        dst: Reg,
        idx: Reg,
        prop: u16,
    },
    /// The current destination vertex.
    LoadV(Reg),
    /// The neighbour bound by the loop head.
    LoadU(Reg),
    NotB(Reg, Reg),
    NegI(Reg, Reg),
    NegF(Reg, Reg),
    /// Integer-to-float widening of an operand (`as f64`).
    I2F(Reg, Reg),
    AddI(Reg, Reg, Reg),
    SubI(Reg, Reg, Reg),
    MulI(Reg, Reg, Reg),
    AddF(Reg, Reg, Reg),
    SubF(Reg, Reg, Reg),
    MulF(Reg, Reg, Reg),
    LtI(Reg, Reg, Reg),
    LeI(Reg, Reg, Reg),
    GtI(Reg, Reg, Reg),
    GeI(Reg, Reg, Reg),
    EqI(Reg, Reg, Reg),
    NeI(Reg, Reg, Reg),
    LtF(Reg, Reg, Reg),
    LeF(Reg, Reg, Reg),
    GtF(Reg, Reg, Reg),
    GeF(Reg, Reg, Reg),
    EqF(Reg, Reg, Reg),
    NeF(Reg, Reg, Reg),
    JumpIfFalse {
        cond: Reg,
        target: u32,
    },
    JumpIfTrue {
        cond: Reg,
        target: u32,
    },
    Jump {
        target: u32,
    },
    Emit(Reg),
    LoopInit,
    LoopHead {
        exit: u32,
    },
    Break {
        exit: u32,
    },
    Guard,
    JumpIfPending {
        idx: u8,
        target: u32,
    },
    Declare {
        idx: u8,
    },
    EmitDep,
    Halt,
    // Everything below is produced by [`crate::opt`] only; the typing
    // pass never emits it.
    /// `LoopInit` of a rotated loop: also jumps to `exit` when there is
    /// no neighbour, so what follows (the loop's preheader) runs iff the
    /// body runs at least once.
    LoopEnter {
        exit: u32,
    },
    /// The bottom test of a rotated loop: binds the next neighbour and
    /// counts the edge exactly as `LoopHead` does, then jumps back to
    /// `body`; falls through when the list is exhausted. A copy sits in
    /// front of the body for the first neighbour.
    LoopNext {
        body: u32,
    },
    /// `LoopNext` fused with the `LoadU(dst)` that opens the body.
    NextU {
        dst: Reg,
        body: u32,
    },
    /// `LoopNext` fused with `LoadU` and the `LoadProp…[u]` after it.
    NextLoadPropF {
        dst: Reg,
        prop: u16,
        body: u32,
    },
    NextLoadPropI {
        dst: Reg,
        prop: u16,
        body: u32,
    },
    NextLoadPropB {
        dst: Reg,
        prop: u16,
        body: u32,
    },
    NextLoadPropV {
        dst: Reg,
        prop: u16,
        body: u32,
    },
    /// Compare-and-branch: `JumpUnlessLtI(a, b, target)` jumps unless
    /// `r[a] < r[b]`. `>`/`>=` swap their operands into these; the `…F`
    /// forms keep the NaN panic.
    JumpUnlessLtI(Reg, Reg, u32),
    JumpUnlessLeI(Reg, Reg, u32),
    JumpUnlessEqI(Reg, Reg, u32),
    JumpUnlessNeI(Reg, Reg, u32),
    JumpUnlessLtF(Reg, Reg, u32),
    JumpUnlessLeF(Reg, Reg, u32),
    JumpUnlessEqF(Reg, Reg, u32),
    JumpUnlessNeF(Reg, Reg, u32),
    /// `LoadPropB` fused with the branch on its result.
    JumpUnlessPropB {
        idx: Reg,
        prop: u16,
        target: u32,
    },
    JumpIfPropB {
        idx: Reg,
        prop: u16,
        target: u32,
    },
}

impl TOp {
    /// The instruction index this op may transfer control to, if any.
    pub(crate) fn target_mut(&mut self) -> Option<&mut u32> {
        use TOp::*;
        match self {
            JumpIfFalse { target, .. }
            | JumpIfTrue { target, .. }
            | Jump { target }
            | JumpIfPending { target, .. }
            | LoopHead { exit: target }
            | Break { exit: target }
            | LoopEnter { exit: target }
            | LoopNext { body: target }
            | NextU { body: target, .. }
            | NextLoadPropF { body: target, .. }
            | NextLoadPropI { body: target, .. }
            | NextLoadPropB { body: target, .. }
            | NextLoadPropV { body: target, .. }
            | JumpUnlessLtI(_, _, target)
            | JumpUnlessLeI(_, _, target)
            | JumpUnlessEqI(_, _, target)
            | JumpUnlessNeI(_, _, target)
            | JumpUnlessLtF(_, _, target)
            | JumpUnlessLeF(_, _, target)
            | JumpUnlessEqF(_, _, target)
            | JumpUnlessNeF(_, _, target)
            | JumpUnlessPropB { target, .. }
            | JumpIfPropB { target, .. } => Some(target),
            _ => None,
        }
    }
}

const _: () = assert!(std::mem::size_of::<TOp>() == 8);

/// A compiled UDF typed against, and bound to, a property store.
pub(crate) struct BoundVm<'a> {
    ops: Vec<TOp>,
    consts: Vec<u64>,
    floats: Vec<&'a [f64]>,
    ints: Vec<&'a [i64]>,
    bools: Vec<&'a Bitmap>,
    verts: Vec<&'a [u32]>,
    /// Registers the program touches, widening scratch included.
    nregs: usize,
    carried: usize,
}

/// Bind-time state of the typing pass (see the module docs).
struct Typer<'c> {
    code: &'c CompiledUdf,
    /// Portable property index → element type and index into the
    /// per-type table.
    props: Vec<(Ty, u16)>,
    /// Current type per temporary, indexed by register (entries of named
    /// registers are unused); `None` is unknown.
    temps: Vec<Option<Ty>>,
    /// Does control reach the current op from the one before it?
    falls_through: bool,
    /// Temporaries' types recorded by forward jumps, per target.
    joins: BTreeMap<usize, Vec<Option<Ty>>>,
    /// Exit of the neighbour loop being typed, if inside one.
    loop_exit: Option<u32>,
    out: Vec<TOp>,
    consts: Vec<u64>,
    nregs: usize,
}

impl Typer<'_> {
    fn named(&self) -> usize {
        self.code.named_tys().len()
    }

    fn get(&self, r: Reg) -> Option<Ty> {
        match self.code.named_tys().get(r as usize) {
            Some(&declared) => declared,
            None => self.temps[r as usize],
        }
    }

    /// Records a write of a `ty` value to `r`. A named register accepts
    /// only its declared type: an `int` stored into a `float` local is
    /// the interpreter's lazy widening, which static types cannot follow.
    fn set(&mut self, r: Reg, ty: Ty) -> Option<()> {
        if (r as usize) < self.named() {
            (self.get(r) == Some(ty)).then_some(())
        } else {
            self.temps[r as usize] = Some(ty);
            Some(())
        }
    }

    fn expect(&self, r: Reg, ty: Ty) -> Option<()> {
        (self.get(r) == Some(ty)).then_some(())
    }

    fn forget_temps(&mut self) {
        self.temps.fill(None);
    }

    /// Control may continue at the later op `target` with the current
    /// temporaries.
    fn flow_to(&mut self, pc: usize, target: u32) -> Option<()> {
        let target = target as usize;
        if target <= pc {
            return None;
        }
        match self.joins.get_mut(&target) {
            Some(seen) => meet(seen, &self.temps),
            None => {
                self.joins.insert(target, self.temps.clone());
            }
        }
        Some(())
    }

    /// Control does not fall through to the next op.
    fn diverge(&mut self) {
        self.falls_through = false;
        self.forget_temps();
    }

    fn constant(&mut self, bits: u64) -> Option<u16> {
        let k = match self.consts.iter().position(|&c| c == bits) {
            Some(k) => k,
            None => {
                self.consts.push(bits);
                self.consts.len() - 1
            }
        };
        u16::try_from(k).ok()
    }

    /// `r` as a float operand: itself, or widened into scratch register
    /// `which` (0 for a left operand, 1 for a right one) above the
    /// program's own registers.
    fn as_float(&mut self, r: Reg, ty: Ty, which: usize) -> Option<Reg> {
        if ty == Ty::Float {
            return Some(r);
        }
        let scratch = self.code.num_regs() + which;
        self.nregs = self.nregs.max(scratch + 1);
        let scratch = Reg::try_from(scratch).ok()?;
        self.out.push(TOp::I2F(scratch, r));
        Some(scratch)
    }

    fn binary(&mut self, op: BinOp, dst: Reg, lhs: Reg, rhs: Reg) -> Option<()> {
        use Ty::{Bool, Float, Int, Vertex};
        let (tl, tr) = (self.get(lhs)?, self.get(rhs)?);
        let arith = matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul);
        let float = match (tl, tr) {
            (Int, Int) => false,
            (Bool, Bool) | (Vertex, Vertex) if !arith => false,
            (Int | Float, Int | Float) => true,
            _ => return None,
        };
        let make: fn(Reg, Reg, Reg) -> TOp = match (op, float) {
            (BinOp::Add, false) => TOp::AddI,
            (BinOp::Sub, false) => TOp::SubI,
            (BinOp::Mul, false) => TOp::MulI,
            (BinOp::Lt, false) => TOp::LtI,
            (BinOp::Le, false) => TOp::LeI,
            (BinOp::Gt, false) => TOp::GtI,
            (BinOp::Ge, false) => TOp::GeI,
            (BinOp::Eq, false) => TOp::EqI,
            (BinOp::Ne, false) => TOp::NeI,
            (BinOp::Add, true) => TOp::AddF,
            (BinOp::Sub, true) => TOp::SubF,
            (BinOp::Mul, true) => TOp::MulF,
            (BinOp::Lt, true) => TOp::LtF,
            (BinOp::Le, true) => TOp::LeF,
            (BinOp::Gt, true) => TOp::GtF,
            (BinOp::Ge, true) => TOp::GeF,
            (BinOp::Eq, true) => TOp::EqF,
            (BinOp::Ne, true) => TOp::NeF,
            // `&&`/`||` lower to branches, never to a `Binary`.
            (BinOp::And | BinOp::Or, _) => return None,
        };
        let (lhs, rhs) = if float {
            (self.as_float(lhs, tl, 0)?, self.as_float(rhs, tr, 1)?)
        } else {
            (lhs, rhs)
        };
        let result = match (arith, float) {
            (false, _) => Bool,
            (true, false) => Int,
            (true, true) => Float,
        };
        self.set(dst, result)?;
        self.out.push(make(dst, lhs, rhs));
        Some(())
    }

    /// Types portable op `pc` and appends its specialised form.
    fn op(&mut self, pc: usize, op: Op) -> Option<()> {
        if let Some(seen) = self.joins.remove(&pc) {
            if self.falls_through {
                meet(&mut self.temps, &seen);
            } else {
                self.temps = seen;
                self.falls_through = true;
            }
        }
        match op {
            Op::Const { dst, val } => {
                self.set(dst, val.ty())?;
                let k = self.constant(val.to_bits())?;
                self.out.push(TOp::Const { dst, k });
            }
            Op::Move { dst, src } => {
                let ty = self.get(src)?;
                self.set(dst, ty)?;
                self.out.push(TOp::Move(dst, src));
            }
            Op::LoadProp { dst, prop, idx } => {
                self.expect(idx, Ty::Vertex)?;
                let (ty, prop) = self.props[prop as usize];
                self.set(dst, ty)?;
                self.out.push(match ty {
                    Ty::Float => TOp::LoadPropF { dst, idx, prop },
                    Ty::Int => TOp::LoadPropI { dst, idx, prop },
                    Ty::Bool => TOp::LoadPropB { dst, idx, prop },
                    Ty::Vertex => TOp::LoadPropV { dst, idx, prop },
                });
            }
            Op::LoadV { dst } => {
                self.set(dst, Ty::Vertex)?;
                self.out.push(TOp::LoadV(dst));
            }
            Op::LoadU { dst } => {
                self.loop_exit?;
                self.set(dst, Ty::Vertex)?;
                self.out.push(TOp::LoadU(dst));
            }
            Op::Unary { op, dst, src } => {
                let ty = self.get(src)?;
                let make: fn(Reg, Reg) -> TOp = match (op, ty) {
                    (UnOp::Not, Ty::Bool) => TOp::NotB,
                    (UnOp::Neg, Ty::Int) => TOp::NegI,
                    (UnOp::Neg, Ty::Float) => TOp::NegF,
                    _ => return None,
                };
                self.set(dst, ty)?;
                self.out.push(make(dst, src));
            }
            Op::Binary { op, dst, lhs, rhs } => self.binary(op, dst, lhs, rhs)?,
            Op::JumpIfFalse { cond, target } => {
                self.expect(cond, Ty::Bool)?;
                self.flow_to(pc, target)?;
                self.out.push(TOp::JumpIfFalse { cond, target });
            }
            Op::JumpIfTrue { cond, target } => {
                self.expect(cond, Ty::Bool)?;
                self.flow_to(pc, target)?;
                self.out.push(TOp::JumpIfTrue { cond, target });
            }
            Op::Jump { target } => {
                // The loop's back edge is the only backward jump; the
                // head forgot every temporary, so it carries nothing.
                if target as usize > pc {
                    self.flow_to(pc, target)?;
                } else if !matches!(self.code.ops()[target as usize], Op::LoopHead { .. }) {
                    return None;
                }
                self.out.push(TOp::Jump { target });
                self.diverge();
            }
            Op::Emit { src } => {
                self.get(src)?;
                self.out.push(TOp::Emit(src));
            }
            Op::LoopInit => self.out.push(TOp::LoopInit),
            Op::LoopHead { exit } => {
                if self.loop_exit.is_some() {
                    return None;
                }
                self.loop_exit = Some(exit);
                self.forget_temps();
                self.falls_through = true;
                self.flow_to(pc, exit)?;
                self.out.push(TOp::LoopHead { exit });
            }
            Op::Break { exit } => {
                if self.loop_exit != Some(exit) {
                    return None;
                }
                self.flow_to(pc, exit)?;
                self.out.push(TOp::Break { exit });
                self.diverge();
            }
            // Marks the loop exit. `u` needs no unbinding here: `LoadU`
            // outside a loop fails the bind.
            Op::ClearU => self.loop_exit = None,
            Op::Guard => self.out.push(TOp::Guard),
            Op::JumpIfPending { idx, target } => {
                self.flow_to(pc, target)?;
                self.out.push(TOp::JumpIfPending { idx, target });
            }
            Op::Declare { idx } => self.out.push(TOp::Declare { idx }),
            Op::EmitDep => self.out.push(TOp::EmitDep),
            Op::Halt => {
                self.out.push(TOp::Halt);
                self.diverge();
            }
        }
        Some(())
    }
}

/// Keeps in `into` only the types both states agree on.
fn meet(into: &mut [Option<Ty>], other: &[Option<Ty>]) {
    for (a, b) in into.iter_mut().zip(other) {
        if *a != *b {
            *a = None;
        }
    }
}

impl<'a> BoundVm<'a> {
    /// Types `code` against `store` and resolves its property table.
    /// Returns `None` if a property is missing or the program is
    /// ill-typed for this store (see the module docs) — the caller falls
    /// back to the interpreter, which resolves names and types lazily and
    /// therefore tolerates both in never-executed code.
    pub(crate) fn bind(code: &CompiledUdf, store: &'a PropertyStore) -> Option<Self> {
        let mut vm = Self::typed(code, store)?;
        (vm.ops, vm.nregs) = optimize(std::mem::take(&mut vm.ops), vm.nregs, vm.carried);
        debug_assert!(
            vm.ops.iter().all(|&(mut op)| {
                let target = op.target_mut().map_or(0, |t| *t as usize);
                target < vm.ops.len()
            }),
            "optimiser left a jump out of range:\n{}",
            vm.disassemble()
        );
        debug_assert_eq!(
            optimize(vm.ops.clone(), vm.nregs, vm.carried),
            (vm.ops.clone(), vm.nregs),
            "optimiser is not idempotent"
        );
        Some(vm)
    }

    /// The typing pass alone: one specialised op per portable op, not yet
    /// optimised. [`BoundVm::bind`] is its only caller outside tests.
    pub(crate) fn typed(code: &CompiledUdf, store: &'a PropertyStore) -> Option<Self> {
        let mut vm = BoundVm {
            ops: Vec::new(),
            consts: Vec::new(),
            floats: Vec::new(),
            ints: Vec::new(),
            bools: Vec::new(),
            verts: Vec::new(),
            nregs: 0,
            carried: code.carried(),
        };
        let mut props = Vec::with_capacity(code.prop_names().len());
        for name in code.prop_names() {
            let array = store.get(name)?;
            let at = match array {
                PropArray::Floats(a) => push_index(&mut vm.floats, a.as_slice()),
                PropArray::Ints(a) => push_index(&mut vm.ints, a.as_slice()),
                PropArray::Bools(b) => push_index(&mut vm.bools, b),
                PropArray::Vertices(a) => push_index(&mut vm.verts, a.as_slice()),
            };
            props.push((array.ty(), u16::try_from(at).ok()?));
        }
        let mut typer = Typer {
            code,
            props,
            temps: vec![None; code.num_regs()],
            falls_through: true,
            joins: BTreeMap::new(),
            loop_exit: None,
            out: Vec::with_capacity(code.len()),
            consts: Vec::new(),
            nregs: code.num_regs(),
        };
        // Specialising inserts (`I2F`) and drops (`ClearU`) ops, so jump
        // targets are typed as portable indices and translated after.
        let mut new_pc = Vec::with_capacity(code.len() + 1);
        for (pc, &op) in code.ops().iter().enumerate() {
            new_pc.push(typer.out.len() as u32);
            typer.op(pc, op)?;
        }
        new_pc.push(typer.out.len() as u32);
        for op in &mut typer.out {
            if let Some(target) = op.target_mut() {
                *target = new_pc[*target as usize];
            }
        }
        if typer.nregs > MAX_REGS {
            return None;
        }
        vm.ops = typer.out;
        vm.consts = typer.consts;
        vm.nregs = typer.nregs;
        Some(vm)
    }

    /// The program signal calls run — typed, then optimised — one op per
    /// line, then the constant pool.
    pub(crate) fn disassemble(&self) -> String {
        let mut s = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            let _ = writeln!(s, "{i:4}: {op:?}");
        }
        for (k, bits) in self.consts.iter().enumerate() {
            let _ = writeln!(s, "  k{k}: {bits:#018x}");
        }
        s
    }

    /// The program, the registers it needs and how many of them are
    /// carried: the arguments of [`optimize`].
    #[cfg(test)]
    pub(crate) fn program(&self) -> (Vec<TOp>, usize, usize) {
        (self.ops.clone(), self.nregs, self.carried)
    }

    /// See [`crate::UdfProgram::loop_ops`].
    pub(crate) fn loop_ops(&self) -> Vec<usize> {
        crate::opt::loop_ops(&self.ops)
    }

    pub(crate) fn signal(
        &self,
        v: Vid,
        srcs: &[Vid],
        dep: &mut UdfDep,
        slot: usize,
        carried: bool,
        emit: &mut dyn FnMut(u64),
    ) -> SignalOutcome {
        if self.nregs <= SMALL_REGS {
            self.run::<SMALL_REGS>(v, srcs, dep, slot, carried, emit)
        } else {
            self.run::<MAX_REGS>(v, srcs, dep, slot, carried, emit)
        }
    }

    /// The dispatch loop over a zeroed `N`-register file; `bind`
    /// guarantees every register index is below `nregs <= N`, so the
    /// `% N` (a mask: `N` is a power of two) never changes an index and
    /// only removes the bounds check.
    fn run<const N: usize>(
        &self,
        v: Vid,
        srcs: &[Vid],
        dep: &mut UdfDep,
        slot: usize,
        carried: bool,
        emit: &mut dyn FnMut(u64),
    ) -> SignalOutcome {
        let mut regs = [0u64; N];
        macro_rules! r {
            ($i:expr) => {
                regs[$i as usize % N]
            };
        }
        macro_rules! int {
            ($d:expr, $a:expr, $b:expr, $wrapping:ident) => {
                r!($d) = (r!($a) as i64).$wrapping(r!($b) as i64) as u64
            };
        }
        macro_rules! float {
            ($d:expr, $a:expr, $b:expr, $op:tt) => {
                r!($d) = (f64::from_bits(r!($a)) $op f64::from_bits(r!($b))).to_bits()
            };
        }
        macro_rules! test_int {
            ($a:expr, $b:expr, $test:ident) => {
                (r!($a) as i64).cmp(&(r!($b) as i64)).$test()
            };
        }
        macro_rules! test_float {
            ($a:expr, $b:expr, $test:ident) => {
                float_cmp(r!($a), r!($b)).$test()
            };
        }
        macro_rules! cmp_int {
            ($d:expr, $a:expr, $b:expr, $test:ident) => {
                r!($d) = u64::from(test_int!($a, $b, $test))
            };
        }
        macro_rules! cmp_float {
            ($d:expr, $a:expr, $b:expr, $test:ident) => {
                r!($d) = u64::from(test_float!($a, $b, $test))
            };
        }
        let ops = self.ops.as_slice();
        let carried_n = self.carried;
        let mut pc = 0usize;
        // Neighbours the current loop has yet to bind (loops don't nest).
        // Each one bound is an edge traversed, so the edge count is what
        // the loops consumed: summed when a loop starts over, and at the
        // end.
        let mut rest = srcs.iter();
        let mut u = 0u64;
        let mut edges = 0u64;
        let mut broke = false;
        let mut pending = 0u64;
        let mut declared = 0u64;
        // A taken conditional jump. Left as a plain assignment it compiles
        // to a conditional move, which makes fetching the next op wait for
        // the whole load chain behind the condition — a bitmap word, a
        // property — on every edge. The opaque no-op cannot be executed
        // speculatively, so the compiler has to emit a branch, which the
        // processor predicts.
        macro_rules! branch {
            ($target:expr) => {{
                pc = $target as usize;
                std::hint::black_box(());
            }};
        }
        // Binds the next neighbour as `LoopHead` does, loads `$load` into
        // `$dst` and continues at `$body`; falls through when there is
        // none.
        macro_rules! next {
            ($body:expr $(, $dst:expr => $load:expr)?) => {
                if let Some(next) = rest.next() {
                    u = u64::from(next.raw());
                    $(r!($dst) = $load;)?
                    pc = $body as usize;
                }
            };
        }
        macro_rules! unless_int {
            ($a:expr, $b:expr, $target:expr, $test:ident) => {
                if !test_int!($a, $b, $test) {
                    branch!($target);
                }
            };
        }
        macro_rules! unless_float {
            ($a:expr, $b:expr, $target:expr, $test:ident) => {
                if !test_float!($a, $b, $test) {
                    branch!($target);
                }
            };
        }
        loop {
            let op = ops[pc];
            pc += 1;
            match op {
                TOp::Const { dst, k } => r!(dst) = self.consts[k as usize],
                TOp::Move(dst, src) => r!(dst) = r!(src),
                TOp::LoadPropF { dst, idx, prop } => {
                    r!(dst) = self.floats[prop as usize][r!(idx) as usize].to_bits();
                }
                TOp::LoadPropI { dst, idx, prop } => {
                    r!(dst) = self.ints[prop as usize][r!(idx) as usize] as u64;
                }
                TOp::LoadPropB { dst, idx, prop } => {
                    r!(dst) = u64::from(self.bools[prop as usize].get(r!(idx) as usize));
                }
                TOp::LoadPropV { dst, idx, prop } => {
                    r!(dst) = u64::from(self.verts[prop as usize][r!(idx) as usize]);
                }
                TOp::LoadV(dst) => r!(dst) = u64::from(v.raw()),
                TOp::LoadU(dst) => r!(dst) = u,
                TOp::NotB(dst, src) => r!(dst) = u64::from(r!(src) == 0),
                TOp::NegI(dst, src) => r!(dst) = (r!(src) as i64).wrapping_neg() as u64,
                TOp::NegF(dst, src) => r!(dst) = (-f64::from_bits(r!(src))).to_bits(),
                TOp::I2F(dst, src) => r!(dst) = (r!(src) as i64 as f64).to_bits(),
                TOp::AddI(d, a, b) => int!(d, a, b, wrapping_add),
                TOp::SubI(d, a, b) => int!(d, a, b, wrapping_sub),
                TOp::MulI(d, a, b) => int!(d, a, b, wrapping_mul),
                TOp::AddF(d, a, b) => float!(d, a, b, +),
                TOp::SubF(d, a, b) => float!(d, a, b, -),
                TOp::MulF(d, a, b) => float!(d, a, b, *),
                TOp::LtI(d, a, b) => cmp_int!(d, a, b, is_lt),
                TOp::LeI(d, a, b) => cmp_int!(d, a, b, is_le),
                TOp::GtI(d, a, b) => cmp_int!(d, a, b, is_gt),
                TOp::GeI(d, a, b) => cmp_int!(d, a, b, is_ge),
                TOp::EqI(d, a, b) => cmp_int!(d, a, b, is_eq),
                TOp::NeI(d, a, b) => cmp_int!(d, a, b, is_ne),
                TOp::LtF(d, a, b) => cmp_float!(d, a, b, is_lt),
                TOp::LeF(d, a, b) => cmp_float!(d, a, b, is_le),
                TOp::GtF(d, a, b) => cmp_float!(d, a, b, is_gt),
                TOp::GeF(d, a, b) => cmp_float!(d, a, b, is_ge),
                TOp::EqF(d, a, b) => cmp_float!(d, a, b, is_eq),
                TOp::NeF(d, a, b) => cmp_float!(d, a, b, is_ne),
                TOp::JumpIfFalse { cond, target } => {
                    if r!(cond) == 0 {
                        branch!(target);
                    }
                }
                TOp::JumpIfTrue { cond, target } => {
                    if r!(cond) != 0 {
                        branch!(target);
                    }
                }
                TOp::Jump { target } => pc = target as usize,
                TOp::Emit(src) => emit(r!(src)),
                TOp::LoopInit => {
                    edges += (srcs.len() - rest.len()) as u64;
                    rest = srcs.iter();
                }
                TOp::LoopHead { exit } => match rest.next() {
                    Some(next) => u = u64::from(next.raw()),
                    None => pc = exit as usize,
                },
                TOp::Break { exit } => {
                    broke = true;
                    pc = exit as usize;
                }
                TOp::Guard => {
                    if carried {
                        if dep.should_skip(slot) {
                            break; // guard return; epilogue is a no-op (nothing declared)
                        }
                        regs[..carried_n].copy_from_slice(dep.words(slot));
                        pending = full_mask(carried_n);
                    }
                }
                TOp::JumpIfPending { idx, target } => {
                    let bit = 1u64 << idx;
                    if pending & bit != 0 {
                        pending &= !bit;
                        branch!(target);
                    }
                }
                TOp::Declare { idx } => declared |= 1u64 << idx,
                TOp::EmitDep => {
                    dep.mark(slot);
                    dep.store_words(slot, declared, &regs[..carried_n]);
                }
                TOp::Halt => break,
                TOp::LoopEnter { exit } => {
                    edges += (srcs.len() - rest.len()) as u64;
                    rest = srcs.iter();
                    if srcs.is_empty() {
                        pc = exit as usize;
                    }
                }
                TOp::LoopNext { body } => next!(body),
                TOp::NextU { dst, body } => next!(body, dst => u),
                TOp::NextLoadPropF { dst, prop, body } => {
                    next!(body, dst => self.floats[prop as usize][u as usize].to_bits());
                }
                TOp::NextLoadPropI { dst, prop, body } => {
                    next!(body, dst => self.ints[prop as usize][u as usize] as u64);
                }
                TOp::NextLoadPropB { dst, prop, body } => {
                    next!(body, dst => u64::from(self.bools[prop as usize].get(u as usize)));
                }
                TOp::NextLoadPropV { dst, prop, body } => {
                    next!(body, dst => u64::from(self.verts[prop as usize][u as usize]));
                }
                TOp::JumpUnlessLtI(a, b, target) => unless_int!(a, b, target, is_lt),
                TOp::JumpUnlessLeI(a, b, target) => unless_int!(a, b, target, is_le),
                TOp::JumpUnlessEqI(a, b, target) => unless_int!(a, b, target, is_eq),
                TOp::JumpUnlessNeI(a, b, target) => unless_int!(a, b, target, is_ne),
                TOp::JumpUnlessLtF(a, b, target) => unless_float!(a, b, target, is_lt),
                TOp::JumpUnlessLeF(a, b, target) => unless_float!(a, b, target, is_le),
                TOp::JumpUnlessEqF(a, b, target) => unless_float!(a, b, target, is_eq),
                TOp::JumpUnlessNeF(a, b, target) => unless_float!(a, b, target, is_ne),
                TOp::JumpUnlessPropB { idx, prop, target } => {
                    if !self.bools[prop as usize].get(r!(idx) as usize) {
                        branch!(target);
                    }
                }
                TOp::JumpIfPropB { idx, prop, target } => {
                    if self.bools[prop as usize].get(r!(idx) as usize) {
                        branch!(target);
                    }
                }
            }
        }
        // Data dependency flows onward even without a break (same
        // epilogue as the interpreter's post-exec snapshot).
        if !broke && carried_n > 0 {
            dep.store_words(slot, declared, &regs[..carried_n]);
        }
        edges += (srcs.len() - rest.len()) as u64;
        SignalOutcome { edges, broke }
    }
}

fn push_index<T>(table: &mut Vec<T>, item: T) -> usize {
    table.push(item);
    table.len() - 1
}

/// Orders two float registers; like the interpreter, a NaN operand is a
/// panic for every comparison operator, `==` and `!=` included.
#[inline(always)]
fn float_cmp(a: u64, b: u64) -> Ordering {
    f64::from_bits(a)
        .partial_cmp(&f64::from_bits(b))
        .expect("NaN in comparison")
}

fn full_mask(n: usize) -> u64 {
    debug_assert!(n <= 64, "compiler rejects >64 carried locals");
    if n == 0 {
        0
    } else {
        u64::MAX >> (64 - n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mask_edges() {
        assert_eq!(full_mask(0), 0);
        assert_eq!(full_mask(1), 1);
        assert_eq!(full_mask(3), 0b111);
        assert_eq!(full_mask(64), u64::MAX);
    }

    #[test]
    fn joins_keep_only_agreed_types() {
        let mut a = [Some(Ty::Bool), Some(Ty::Int), None];
        meet(&mut a, &[Some(Ty::Bool), Some(Ty::Float), Some(Ty::Int)]);
        assert_eq!(a, [Some(Ty::Bool), None, None]);
    }
}
