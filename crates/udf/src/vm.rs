//! The typed VM: a UDF lowered against a property store and executed
//! without dynamic typing.
//!
//! [`crate::compile`]'s lowering emits [`TOp`]s already specialised to the
//! types of the locals and of the store's arrays — `AddF` or `AddI`, `GeF`
//! or `GeI`, `LoadPropF` over a `&[f64]` — with an explicit `I2F` wherever
//! the language widens an integer. [`BoundVm::bind`] hands that program to
//! [`crate::opt`], which rewrites it — loop-invariant code into a
//! preheader, the loop test to the bottom and fused with the next
//! neighbour's load, compares fused with their branches, and, sixth, a
//! neighbour loop whose cycle fits a small grammar into one native `Scan`
//! — and the result *is* the bound program: there is no second executor
//! and nothing selects the unoptimised form. Execution is a flat dispatch
//! loop over 8-byte ops and an untagged `[u64; N]` register file on the
//! stack: each register holds the [`crate::Value::to_bits`] image of its
//! value, and the dependency instrumentation copies raw words to and from
//! [`UdfDep`]. A program that binds agrees with the interpreter bit for
//! bit: emissions, edge counts, break flags, dependency payloads, the NaN
//! panic.
//!
//! A `Scan` op runs a plain Rust loop over the neighbours left (see
//! [`Scan`]); its descriptor sits in a side table, so `TOp` stays 8 bytes.
//! The ops it stands for stay in the program, unreached, where the
//! listing shows them.
//!
//! The interpreter's per-call maps are two 64-bit masks, as before:
//! `pending` (set by `Guard` after staging the restored values into the
//! pinned registers; a carried `let` consumes its bit instead of running
//! its initialiser) and `declared` (set by `Declare`; `EmitDep` and the
//! no-break epilogue snapshot only declared registers).

use crate::compile::{lower, MAX_REGS};
use crate::dep_bridge::UdfDep;
use crate::opt::optimize;
use crate::props::PropertyStore;
use crate::transform::InstrumentedUdf;
use std::cmp::Ordering;
use std::fmt::Write;
use std::slice;
use symple_core::{DepState, SignalOutcome};
use symple_graph::{Bitmap, Vid};

/// A register index in the VM's register file.
pub(crate) type Reg = u8;

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
    /// Integer-to-float widening (`as f64`) of an operand or a stored value.
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
    // Everything below is produced by [`crate::opt`] only; the lowering
    // never emits it.
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
    /// Both copies of a loop test whose cycle [`crate::opt`] recognised:
    /// runs `scans[desc]` natively, then continues at its `found` or
    /// `exit`.
    Scan {
        desc: u16,
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

/// What a [`TOp::Scan`] does to each neighbour left in the list: the loop
/// test it replaces binds `u` (and loads `prop[u]`, or writes `u` to a
/// register); `filter`, on `u`, sends an edge it rejects on to the next
/// neighbour; `add` accumulates into its register the loaded value or a
/// register the loop never writes; `test` compares the sum with another
/// such register. The scan leaves for `found` — the first op past the
/// three — when the test holds or, with no test, when the filter passes;
/// with neither, or when `found` is the loop test itself, it only leaves
/// for `exit` at the end of the list.
///
/// The scan is the ops it names, run edge by edge: the same `u` and
/// registers written (the last edge's, when it leaves), the same
/// neighbours consumed, wrapping `int` adds, and the same panic — an
/// out-of-range read, `NaN in comparison` — at the same edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Scan {
    /// `LoopNext`, `NextU` or `NextLoadProp…`: the loop test.
    pub(crate) next: TOp,
    /// `JumpUnlessPropB` or `JumpIfPropB` on `u`, to the loop test.
    pub(crate) filter: Option<TOp>,
    /// `AddI` or `AddF`: `acc = acc + y` (or, `int` only, `y + acc`).
    pub(crate) add: Option<TOp>,
    /// `JumpUnless{Lt,Le,Eq,Ne}{I,F}` between `acc` and an invariant
    /// register, to the loop test.
    pub(crate) test: Option<TOp>,
    pub(crate) found: u32,
    pub(crate) exit: u32,
}

/// A UDF lowered against, and bound to, a property store
/// ([`crate::compile`] builds it; `bind` optimises it).
#[derive(Default)]
pub(crate) struct BoundVm<'a> {
    pub(crate) ops: Vec<TOp>,
    pub(crate) consts: Vec<u64>,
    pub(crate) floats: Vec<&'a [f64]>,
    pub(crate) ints: Vec<&'a [i64]>,
    pub(crate) bools: Vec<&'a Bitmap>,
    pub(crate) verts: Vec<&'a [u32]>,
    /// The descriptors of the program's `Scan` ops.
    pub(crate) scans: Vec<Scan>,
    /// Registers the program touches, widening scratch included.
    pub(crate) nregs: usize,
    pub(crate) carried: usize,
}

impl<'a> BoundVm<'a> {
    /// Lowers `inst` against `store`, then optimises. Returns `None` if
    /// the program hits a resource limit, a property is missing or the
    /// program is ill-typed for this store — the caller falls back to the
    /// interpreter, which resolves names and types lazily and therefore
    /// tolerates the last two in never-executed code.
    pub(crate) fn bind(inst: &InstrumentedUdf, store: &'a PropertyStore) -> Option<Self> {
        let mut vm = lower(inst, store)?;
        let ops = std::mem::take(&mut vm.ops);
        (vm.ops, vm.scans, vm.nregs) = optimize(ops, &[], vm.nregs, vm.carried);
        debug_assert!(
            vm.ops.iter().all(|&(mut op)| {
                let target = op.target_mut().map_or(0, |t| *t as usize);
                target < vm.ops.len()
            }) && vm.scans.iter().all(|s| (s.exit as usize) < vm.ops.len()),
            "optimiser left a jump out of range:\n{}",
            vm.disassemble()
        );
        debug_assert_eq!(
            optimize(vm.ops.clone(), &vm.scans, vm.nregs, vm.carried),
            (vm.ops.clone(), vm.scans.clone(), vm.nregs),
            "optimiser is not idempotent"
        );
        Some(vm)
    }

    /// The program signal calls run — lowered, then optimised — one op
    /// per line, then the constant pool and the scan descriptors.
    pub(crate) fn disassemble(&self) -> String {
        let mut s = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            let _ = writeln!(s, "{i:4}: {op:?}");
        }
        for (k, bits) in self.consts.iter().enumerate() {
            let _ = writeln!(s, "  k{k}: {bits:#018x}");
        }
        for (d, scan) in self.scans.iter().enumerate() {
            let _ = writeln!(s, "  s{d}: {scan:?}");
        }
        s
    }

    /// See [`crate::UdfProgram::loop_ops`].
    pub(crate) fn loop_ops(&self) -> Vec<crate::LoopOps> {
        crate::opt::loop_ops(&self.ops, &self.scans)
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
                TOp::Scan { desc } => {
                    let scan = &self.scans[desc as usize];
                    pc = self.scan(scan, &mut regs[..], &mut rest, &mut u) as usize;
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

    /// Runs `s` over the neighbours left in `rest` (see [`Scan`]) and
    /// returns the op to continue at.
    fn scan(
        &self,
        s: &Scan,
        regs: &mut [u64],
        rest: &mut slice::Iter<'_, Vid>,
        u: &mut u64,
    ) -> u32 {
        let dst = match s.next {
            TOp::NextU { dst, .. }
            | TOp::NextLoadPropF { dst, .. }
            | TOp::NextLoadPropI { dst, .. }
            | TOp::NextLoadPropB { dst, .. }
            | TOp::NextLoadPropV { dst, .. } => Some(dst),
            _ => None,
        };
        let filter = s.filter.map(|op| match op {
            TOp::JumpUnlessPropB { prop, .. } => (self.bools[prop as usize], true),
            TOp::JumpIfPropB { prop, .. } => (self.bools[prop as usize], false),
            op => unreachable!("not a filter: {op:?}"),
        });
        // `acc` lives in a local. `y`, unless it is the bound word, and the
        // test's other operand are read once: no op of the loop writes
        // them.
        let (add, acc_reg, y_reg) = match s.add {
            Some(TOp::AddI(d, a, b)) => (INT, d, if a == d { b } else { a }),
            Some(TOp::AddF(d, _, b)) => (FLOAT, d, b),
            _ => (NONE, 0, 0),
        };
        // The test as the orderings of `acc` against the other operand
        // under which it falls through to `found` (bit `ordering + 1`).
        // With no test, every edge past the filter leaves — unless the
        // ops there are the loop test itself.
        let (mut test, mut holds, mut other) = (NONE, 0b010 * u8::from(s.found + 1 != s.exit), 0);
        if let Some(op) = s.test {
            let (a, b) = jump_unless_operands(op).expect("a compare-and-branch");
            let (lt, eq, gt) = (0b001, 0b010, 0b100);
            (test, holds) = match op {
                TOp::JumpUnlessLtI(..) => (INT, lt),
                TOp::JumpUnlessLeI(..) => (INT, lt | eq),
                TOp::JumpUnlessEqI(..) => (INT, eq),
                TOp::JumpUnlessNeI(..) => (INT, lt | gt),
                TOp::JumpUnlessLtF(..) => (FLOAT, lt),
                TOp::JumpUnlessLeF(..) => (FLOAT, lt | eq),
                TOp::JumpUnlessEqF(..) => (FLOAT, eq),
                _ => (FLOAT, lt | gt),
            };
            if b == acc_reg {
                holds = (holds & eq) | (holds & lt) << 2 | (holds & gt) >> 2;
            }
            other = regs[if b == acc_reg { a } else { b } as usize];
        }
        let edges = ScanEdges {
            filter,
            y_bound: dst == Some(y_reg),
            y: regs[y_reg as usize],
            other,
            holds,
        };
        let list = rest.as_slice();
        let acc = regs[acc_reg as usize];
        // The word the loop test writes: `u`, or a property of `u`. A
        // filter reads `u`, so it comes with `NextU` only.
        let (left, word, acc) = match s.next {
            TOp::NextLoadPropF { prop, .. } => {
                let a = self.floats[prop as usize];
                edges.shape::<false>(list, acc, add, test, |w| a[w].to_bits())
            }
            TOp::NextLoadPropI { prop, .. } => {
                let a = self.ints[prop as usize];
                edges.shape::<false>(list, acc, add, test, |w| a[w] as u64)
            }
            TOp::NextLoadPropB { prop, .. } => {
                let a = self.bools[prop as usize];
                edges.shape::<false>(list, acc, add, test, |w| u64::from(a.get(w)))
            }
            TOp::NextLoadPropV { prop, .. } => {
                let a = self.verts[prop as usize];
                edges.shape::<false>(list, acc, add, test, |w| u64::from(a[w]))
            }
            _ if filter.is_some() => edges.shape::<true>(list, acc, add, test, |w| w as u64),
            _ => edges.shape::<false>(list, acc, add, test, |w| w as u64),
        };
        let consumed = left.map_or(list.len(), |i| i + 1);
        if consumed > 0 {
            *u = u64::from(list[consumed - 1].raw());
            if let Some(dst) = dst {
                regs[dst as usize] = word;
            }
            if add != NONE {
                regs[acc_reg as usize] = acc;
            }
        }
        *rest = list[consumed..].iter();
        if left.is_some() {
            s.found
        } else {
            s.exit
        }
    }
}

// A scan's add and test: none, on `int`s, on `float`s.
const NONE: u8 = 0;
const INT: u8 = 1;
const FLOAT: u8 = 2;

/// A [`Scan`] decoded for one call: the loop over the edges, compiled once
/// per shape (filter or not, kind of add, kind of test) so that an edge
/// runs only the work its shape has.
#[derive(Clone, Copy)]
struct ScanEdges<'a> {
    filter: Option<(&'a Bitmap, bool)>,
    /// `y` is the bound word, else the register value `y`.
    y_bound: bool,
    y: u64,
    other: u64,
    holds: u8,
}

impl ScanEdges<'_> {
    fn shape<const FILTER: bool>(
        &self,
        list: &[Vid],
        acc: u64,
        add: u8,
        test: u8,
        load: impl Fn(usize) -> u64,
    ) -> (Option<usize>, u64, u64) {
        match (add, test) {
            (INT, NONE) => self.edges::<FILTER, INT, NONE>(list, acc, &load),
            (INT, INT) => self.edges::<FILTER, INT, INT>(list, acc, &load),
            (INT, _) => self.edges::<FILTER, INT, FLOAT>(list, acc, &load),
            (FLOAT, NONE) => self.edges::<FILTER, FLOAT, NONE>(list, acc, &load),
            (FLOAT, INT) => self.edges::<FILTER, FLOAT, INT>(list, acc, &load),
            (FLOAT, _) => self.edges::<FILTER, FLOAT, FLOAT>(list, acc, &load),
            _ => self.edges::<FILTER, NONE, NONE>(list, acc, &load),
        }
    }

    /// Runs the edges of `list` from `acc`: returns the index of the edge
    /// that left for `found`, if any, the last bound word and `acc`.
    #[inline(never)]
    fn edges<const FILTER: bool, const ADD: u8, const TEST: u8>(
        &self,
        list: &[Vid],
        mut acc: u64,
        load: &impl Fn(usize) -> u64,
    ) -> (Option<usize>, u64, u64) {
        let ScanEdges {
            filter,
            y_bound,
            y,
            other,
            holds,
        } = *self;
        let mut word = 0;
        for (i, nb) in list.iter().enumerate() {
            let w = nb.raw() as usize;
            word = load(w);
            if let (true, Some((bits, pass))) = (FILTER, filter) {
                if bits.get(w) != pass {
                    continue;
                }
            }
            let y = if y_bound { word } else { y };
            acc = match ADD {
                NONE => acc,
                INT => (acc as i64).wrapping_add(y as i64) as u64,
                _ => (f64::from_bits(acc) + f64::from_bits(y)).to_bits(),
            };
            let order = match TEST {
                NONE => Ordering::Equal,
                INT => (acc as i64).cmp(&(other as i64)),
                _ => float_cmp(acc, other),
            };
            if holds >> (order as i8 + 1) & 1 != 0 {
                return (Some(i), word, acc);
            }
        }
        (None, word, acc)
    }
}

/// The two registers a compare-and-branch op compares.
pub(crate) fn jump_unless_operands(op: TOp) -> Option<(Reg, Reg)> {
    Some(match op {
        TOp::JumpUnlessLtI(a, b, _)
        | TOp::JumpUnlessLeI(a, b, _)
        | TOp::JumpUnlessEqI(a, b, _)
        | TOp::JumpUnlessNeI(a, b, _)
        | TOp::JumpUnlessLtF(a, b, _)
        | TOp::JumpUnlessLeF(a, b, _)
        | TOp::JumpUnlessEqF(a, b, _)
        | TOp::JumpUnlessNeF(a, b, _) => (a, b),
        _ => return None,
    })
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
}
