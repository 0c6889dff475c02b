//! The typed VM: a UDF lowered against a property store and executed
//! without dynamic typing.
//!
//! [`crate::compile`]'s lowering emits [`TOp`]s already specialised to the
//! types of the locals and of the store's arrays — `AddF` or `AddI`, `GeF`
//! or `GeI`, `LoadPropF` over a `&[f64]` — with an explicit `I2F` wherever
//! the language widens an integer. [`BoundVm::bind`] hands that program to
//! [`crate::opt`], which rewrites it — loop-invariant code into a
//! preheader, the loop test to the bottom and fused with the next
//! neighbour's load, compares fused with their branches — and the result
//! *is* the bound program: there is no second executor and nothing selects
//! the unoptimised form. Execution is a flat dispatch loop over 8-byte ops
//! and an untagged `[u64; N]` register file on the stack: each register
//! holds the [`crate::Value::to_bits`] image of its value, and the
//! dependency instrumentation copies raw words to and from [`UdfDep`]. A
//! program that binds agrees with the interpreter bit for bit: emissions,
//! edge counts, break flags, dependency payloads, the NaN panic.
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

    /// The program signal calls run — lowered, then optimised — one op
    /// per line, then the constant pool.
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
