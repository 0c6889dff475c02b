//! The bind-time optimiser: rewrites the typed program [`crate::compile`]'s
//! lowering produced into the one signal calls run.
//!
//! The lowering emits ops in source order, so the neighbour loop of the
//! sampling UDF is nine dispatched ops per edge, two of them reloading the
//! loop-invariant `r[v]`. This module takes that `Vec<TOp>` — the lowering
//! and its typing rules are untouched — and applies, to a fixed point:
//!
//! 1. **Rotation.** `LoopInit; LoopHead; body; Jump head` becomes
//!    `LoopEnter; LoopNext; body; LoopNext`: the test moves to the bottom
//!    (a copy in front of the body binds the first neighbour), so no
//!    unconditional jump is left in the loop, and `LoopEnter` leaves for
//!    the exit when there is no neighbour at all. Done in place; every
//!    later pass works on loops of this shape only (`Code::find_loops`
//!    re-verifies it each round, and a loop it does not recognise is left
//!    alone).
//! 2. **Loop-invariant code motion.** A pure op whose operands no op of
//!    the loop writes moves into the *preheader* between `LoopEnter` and
//!    the first `LoopNext`, which therefore runs iff the body runs at
//!    least once. Its result is renamed into a fresh register above the
//!    program's own, after checking — with reaching-definition walks over
//!    the op-level CFG, not by assuming that temporaries die at the loop
//!    head — that every use the definition reaches is reached by it
//!    alone. An op that can panic (`LoadProp…`, a float comparison) moves
//!    only if it is *anticipated*: every path through the first iteration
//!    executes it. So a call panics after hoisting iff it panicked
//!    before: never on a zero-trip list, a guard skip, or a read the loop
//!    would not have reached. Equal hoisted ops share one register, and
//!    hoisting stops rather than push a program that fits the
//!    16-register file onto the 256-register one.
//! 3. **Jump threading.** A branch whose target is a `Jump`, a `Move` or
//!    `NotB` of a bool it has just decided, or another branch on that
//!    bool continues at the final destination, provided the registers the
//!    skipped moves would have written are dead there. This is what sends
//!    the not-taken side of `if (a && b)` straight to the bottom test.
//! 4. **Compare-and-branch fusion.** `GeF(t, a, b); JumpIfFalse t` with
//!    `t` dead afterwards is one `JumpUnlessLeF(b, a)`; likewise all
//!    twelve comparisons (the four `>`/`>=` swap operands), `NotB`,
//!    `Move`, and `LoadPropB` feeding a branch. Float forms keep the NaN
//!    panic.
//! 5. **Next-neighbour fusion.** A `LoadU`, or `LoadU; LoadProp…[u]`, at
//!    the top of the body folds into both copies of the loop test.
//!
//! A sixth pass — superinstructions for the per-call prologue and epilogue
//! (`JumpIfPending; Const; Declare`, `LoadU; Emit`, `EmitDep; Break`) — was
//! built and measured as its own step, and is not here: it took five
//! dispatches out of a breaking call and neither the call nor the job got
//! measurably faster (DESIGN.md §13).
//!
//! Liveness is a backward dataflow over the same CFG: carried registers
//! are read by `EmitDep` and `Halt` (the dependency snapshots), everything
//! else only by the ops that name it. Each pass leaves a dense program
//! with every target in range, and the whole function is idempotent —
//! [`optimize`] of its own output changes nothing — which `BoundVm::bind`
//! checks in debug builds.

use crate::compile::MAX_REGS;
use crate::vm::{Reg, TOp, SMALL_REGS};

/// A set of registers.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct RegSet([u64; MAX_REGS / 64]);

impl RegSet {
    /// Registers `0..n`, `n <= 64`: the carried locals.
    fn first(n: usize) -> Self {
        let mut set = RegSet::default();
        set.0[0] = if n == 0 { 0 } else { u64::MAX >> (64 - n) };
        set
    }

    fn insert(&mut self, r: Reg) {
        self.0[r as usize / 64] |= 1 << (r % 64);
    }

    fn remove(&mut self, r: Reg) {
        self.0[r as usize / 64] &= !(1 << (r % 64));
    }

    fn contains(&self, r: Reg) -> bool {
        self.0[r as usize / 64] & (1 << (r % 64)) != 0
    }

    fn union(&mut self, other: &RegSet) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a |= b;
        }
    }

    fn intersects(&self, other: &RegSet) -> bool {
        self.0.iter().zip(other.0).any(|(a, b)| a & b != 0)
    }
}

impl TOp {
    /// The register this op overwrites and the registers it names as
    /// operands. `Guard` writes the carried registers on some calls and
    /// `EmitDep`/`Halt` read them all; those are [`TOp::reads_carried`]
    /// and [`Code::loop_defs`]'s business.
    fn regs_mut(&mut self) -> (Option<&mut Reg>, [Option<&mut Reg>; 2]) {
        use TOp::*;
        match self {
            Const { dst, .. }
            | LoadV(dst)
            | LoadU(dst)
            | NextU { dst, .. }
            | NextLoadPropF { dst, .. }
            | NextLoadPropI { dst, .. }
            | NextLoadPropB { dst, .. }
            | NextLoadPropV { dst, .. } => (Some(dst), [None, None]),
            Move(d, s) | NotB(d, s) | NegI(d, s) | NegF(d, s) | I2F(d, s) => {
                (Some(d), [Some(s), None])
            }
            LoadPropF { dst, idx, .. }
            | LoadPropI { dst, idx, .. }
            | LoadPropB { dst, idx, .. }
            | LoadPropV { dst, idx, .. } => (Some(dst), [Some(idx), None]),
            AddI(d, a, b)
            | SubI(d, a, b)
            | MulI(d, a, b)
            | AddF(d, a, b)
            | SubF(d, a, b)
            | MulF(d, a, b)
            | LtI(d, a, b)
            | LeI(d, a, b)
            | GtI(d, a, b)
            | GeI(d, a, b)
            | EqI(d, a, b)
            | NeI(d, a, b)
            | LtF(d, a, b)
            | LeF(d, a, b)
            | GtF(d, a, b)
            | GeF(d, a, b)
            | EqF(d, a, b)
            | NeF(d, a, b) => (Some(d), [Some(a), Some(b)]),
            JumpIfFalse { cond: r, .. }
            | JumpIfTrue { cond: r, .. }
            | JumpUnlessPropB { idx: r, .. }
            | JumpIfPropB { idx: r, .. }
            | Emit(r) => (None, [Some(r), None]),
            JumpUnlessLtI(a, b, _)
            | JumpUnlessLeI(a, b, _)
            | JumpUnlessEqI(a, b, _)
            | JumpUnlessNeI(a, b, _)
            | JumpUnlessLtF(a, b, _)
            | JumpUnlessLeF(a, b, _)
            | JumpUnlessEqF(a, b, _)
            | JumpUnlessNeF(a, b, _) => (None, [Some(a), Some(b)]),
            Jump { .. }
            | LoopInit
            | LoopHead { .. }
            | LoopEnter { .. }
            | LoopNext { .. }
            | Break { .. }
            | Guard
            | JumpIfPending { .. }
            | Declare { .. }
            | EmitDep
            | Halt => (None, [None, None]),
        }
    }

    fn def(mut self) -> Option<Reg> {
        self.regs_mut().0.map(|r| *r)
    }

    fn reads(mut self, reg: Reg) -> bool {
        self.regs_mut().1.into_iter().flatten().any(|r| *r == reg)
    }

    fn target(mut self) -> Option<usize> {
        self.target_mut().map(|t| *t as usize)
    }

    fn falls_through(self) -> bool {
        !matches!(self, TOp::Jump { .. } | TOp::Break { .. } | TOp::Halt)
    }

    /// Snapshots the carried registers into the dependency slot.
    fn reads_carried(self) -> bool {
        matches!(self, TOp::EmitDep | TOp::Halt)
    }

    /// The bottom test of a rotated loop (and its copy before the body).
    fn is_next(self) -> bool {
        use TOp::*;
        matches!(
            self,
            LoopNext { .. }
                | NextU { .. }
                | NextLoadPropF { .. }
                | NextLoadPropI { .. }
                | NextLoadPropB { .. }
                | NextLoadPropV { .. }
        )
    }

    /// No effect but its register write, so it may move or disappear.
    fn is_pure(self) -> bool {
        self.def().is_some() && !self.is_next() && !matches!(self, TOp::LoadU(_))
    }

    /// Out-of-range property index, or NaN in a float comparison.
    fn may_panic(self) -> bool {
        use TOp::*;
        matches!(
            self,
            LoadPropF { .. }
                | LoadPropI { .. }
                | LoadPropB { .. }
                | LoadPropV { .. }
                | LtF(..)
                | LeF(..)
                | GtF(..)
                | GeF(..)
                | EqF(..)
                | NeF(..)
        )
    }
}

/// A rotated loop: `LoopEnter` at `enter`, the preheader, the first-
/// neighbour test at `body - 1`, the body, the bottom test, the exit.
#[derive(Debug, Clone, Copy)]
struct Loop {
    enter: usize,
    body: usize,
    bottom: usize,
}

/// The program under rewrite. A pass deletes an op by leaving `None`
/// (which control falls through) and calls [`Code::compact`] before it
/// returns, so between passes every slot is `Some`.
struct Code {
    ops: Vec<Option<TOp>>,
    carried: usize,
}

impl Code {
    fn len(&self) -> usize {
        self.ops.len()
    }

    /// Where control may continue after the op at `pc`.
    fn succs(&self, pc: usize) -> impl Iterator<Item = usize> {
        let (next, target) = match self.ops[pc] {
            None => (Some(pc + 1), None),
            Some(op) => (op.falls_through().then_some(pc + 1), op.target()),
        };
        next.into_iter().chain(target)
    }

    fn preds(&self) -> Vec<Vec<u32>> {
        let mut preds = vec![Vec::new(); self.len() + 1];
        for pc in 0..self.len() {
            for s in self.succs(pc) {
                preds[s].push(pc as u32);
            }
        }
        preds
    }

    /// How many ops name each instruction index as their target.
    fn targeted(&self) -> Vec<u32> {
        let mut count = vec![0; self.len() + 1];
        for op in self.ops.iter().flatten() {
            if let Some(t) = op.target() {
                count[t] += 1;
            }
        }
        count
    }

    /// Registers live on entry to each op (and, last, past the end).
    fn liveness(&self) -> Vec<RegSet> {
        let carried = RegSet::first(self.carried);
        let mut live = vec![RegSet::default(); self.len() + 1];
        loop {
            let mut changed = false;
            for pc in (0..self.len()).rev() {
                let mut set = RegSet::default();
                for s in self.succs(pc) {
                    set.union(&live[s]);
                }
                if let Some(mut op) = self.ops[pc] {
                    if op.reads_carried() {
                        set.union(&carried);
                    }
                    let (def, reads) = op.regs_mut();
                    if let Some(d) = def {
                        set.remove(*d);
                    }
                    for r in reads.into_iter().flatten() {
                        set.insert(*r);
                    }
                }
                if set != live[pc] {
                    live[pc] = set;
                    changed = true;
                }
            }
            if !changed {
                return live;
            }
        }
    }

    /// Drops deleted slots and retargets every jump; a jump to a deleted
    /// op lands on the next surviving one.
    fn compact(&mut self) {
        let mut new_pc = Vec::with_capacity(self.len() + 1);
        let mut kept = 0u32;
        for op in &self.ops {
            new_pc.push(kept);
            kept += u32::from(op.is_some());
        }
        new_pc.push(kept);
        self.ops.retain(Option::is_some);
        for op in self.ops.iter_mut().flatten() {
            if let Some(t) = op.target_mut() {
                *t = new_pc[*t as usize];
            }
        }
    }

    /// Inserts `new` in front of the op at `at`, which no jump targets.
    fn insert(&mut self, at: usize, new: &[TOp]) {
        for op in self.ops.iter_mut().flatten() {
            if let Some(t) = op.target_mut() {
                if *t as usize >= at {
                    *t += new.len() as u32;
                }
            }
        }
        self.ops.splice(at..at, new.iter().copied().map(Some));
    }

    /// Pass 1: moves the test of every loop the lowering produced to the
    /// bottom (see the module docs), in place.
    fn rotate(&mut self) -> bool {
        let mut changed = false;
        for head in 1..self.len() {
            let Some(TOp::LoopHead { exit }) = self.ops[head] else {
                continue;
            };
            let exit = exit as usize;
            let back = exit - 1;
            let shaped = self.ops[head - 1] == Some(TOp::LoopInit)
                && back > head
                && self.ops[back]
                    == Some(TOp::Jump {
                        target: head as u32,
                    })
                && (0..self.len()).all(|pc| {
                    let Some(t) = self.ops[pc].and_then(TOp::target) else {
                        return true;
                    };
                    if pc == head || pc == back {
                        true
                    } else if pc > head && pc < back {
                        t > pc && t <= exit
                    } else {
                        t < head || t >= exit
                    }
                });
            if !shaped {
                continue;
            }
            let next = Some(TOp::LoopNext {
                body: head as u32 + 1,
            });
            self.ops[head - 1] = Some(TOp::LoopEnter { exit: exit as u32 });
            self.ops[head] = next;
            self.ops[back] = next;
            changed = true;
        }
        changed
    }

    /// The rotated loops whose shape holds: the preheader and the first
    /// test are reached only by falling through from `LoopEnter`, the
    /// body only through the two tests, and every jump inside the body
    /// goes forward.
    fn find_loops(&self) -> Vec<Loop> {
        let mut loops = Vec::new();
        for enter in 0..self.len() {
            let Some(TOp::LoopEnter { exit }) = self.ops[enter] else {
                continue;
            };
            let exit = exit as usize;
            if exit < enter + 3 {
                continue;
            }
            let bottom = exit - 1;
            let Some(test) = self.ops[bottom].filter(|op| op.is_next()) else {
                continue;
            };
            let body = test.target().expect("a loop test names its body");
            let shaped = body > enter + 1
                && body <= bottom
                && self.ops[body - 1] == Some(test)
                && (0..self.len()).all(|pc| {
                    let Some(t) = self.ops[pc].and_then(TOp::target) else {
                        return true;
                    };
                    if pc == enter || pc == body - 1 || pc == bottom {
                        true
                    } else if pc > enter && pc < body {
                        false // the preheader is straight-line code
                    } else if pc >= body && pc < bottom {
                        t > pc
                    } else {
                        t <= enter || t >= exit
                    }
                });
            if shaped {
                loops.push(Loop {
                    enter,
                    body,
                    bottom,
                });
            }
        }
        loops
    }

    /// Registers some op of the loop — the two tests included — may
    /// write; `None` if the loop contains a `Guard` (no instrumented
    /// program has one there).
    fn loop_defs(&self, lp: Loop) -> Option<RegSet> {
        let mut defs = RegSet::default();
        for op in self.ops[lp.body - 1..=lp.bottom].iter().flatten() {
            if *op == TOp::Guard {
                return None;
            }
            if let Some(d) = op.def() {
                defs.insert(d);
            }
        }
        Some(defs)
    }

    /// Does every path through the first iteration of `lp` — from the top
    /// of the body to the bottom test, a break or a return — execute the
    /// op at `at`?
    fn anticipated(&self, lp: Loop, at: usize) -> bool {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![lp.body];
        while let Some(pc) = stack.pop() {
            if pc == at {
                continue;
            }
            if pc < lp.body || pc >= lp.bottom || self.ops[pc] == Some(TOp::Halt) {
                return false;
            }
            if !std::mem::replace(&mut seen[pc], true) {
                stack.extend(self.succs(pc));
            }
        }
        true
    }

    /// The ops reading `reg`, which is not a carried register (those the
    /// dependency snapshots read too), that the definition at `def`
    /// reaches.
    fn reached_uses(&self, def: usize, reg: Reg) -> Vec<usize> {
        let mut seen = vec![false; self.len() + 1];
        let mut stack: Vec<usize> = self.succs(def).collect();
        let mut uses = Vec::new();
        while let Some(pc) = stack.pop() {
            if pc >= self.len() || std::mem::replace(&mut seen[pc], true) {
                continue;
            }
            if let Some(op) = self.ops[pc] {
                if op.reads(reg) {
                    uses.push(pc);
                }
                if op.def() == Some(reg) {
                    continue; // overwritten: the definition reaches no further
                }
            }
            stack.extend(self.succs(pc));
        }
        uses
    }

    /// Is the definition at `def` the only value of `reg` — no other
    /// write, and not the zero the register file starts with — that can
    /// reach the op at `at`? `reg` is not a carried register.
    fn sole_def(&self, preds: &[Vec<u32>], at: usize, reg: Reg, def: usize) -> bool {
        let mut seen = vec![false; self.len()];
        let mut stack = preds[at].clone();
        if stack.is_empty() {
            return false;
        }
        while let Some(pc) = stack.pop() {
            let pc = pc as usize;
            if pc == def || std::mem::replace(&mut seen[pc], true) {
                continue;
            }
            if self.ops[pc].and_then(TOp::def) == Some(reg) || preds[pc].is_empty() {
                return false;
            }
            stack.extend(&preds[pc]);
        }
        true
    }

    /// Pass 2 for one loop: moves invariant ops into the preheader.
    /// `nregs` grows by one per fresh register, up to `limit`.
    fn hoist(&mut self, lp: Loop, nregs: &mut usize, limit: usize) -> bool {
        let Some(loop_defs) = self.loop_defs(lp) else {
            return false;
        };
        let preds = self.preds();
        // Ops earlier rounds hoisted, so an equal op reuses their result.
        let mut preheader: Vec<TOp> = self.ops[lp.enter + 1..lp.body - 1]
            .iter()
            .flatten()
            .copied()
            .collect();
        let already = preheader.len();
        for pc in lp.body..lp.bottom {
            let Some(mut op) = self.ops[pc].filter(|op| op.is_pure()) else {
                continue;
            };
            let (Some(&mut dst), reads) = op.regs_mut() else {
                continue;
            };
            let invariant = reads.into_iter().flatten().all(|r| !loop_defs.contains(*r));
            if !invariant
                || (dst as usize) < self.carried
                || (op.may_panic() && !self.anticipated(lp, pc))
            {
                continue;
            }
            let uses = self.reached_uses(pc, dst);
            if uses.is_empty() || !uses.iter().all(|&at| self.sole_def(&preds, at, dst, pc)) {
                continue;
            }
            let same_value = |mut other: TOp| {
                let into = other.def().filter(|r| !loop_defs.contains(*r))?;
                *other.regs_mut().0? = dst;
                (other == op).then_some(into)
            };
            let fresh = match preheader.iter().copied().find_map(same_value) {
                Some(shared) => shared,
                None if *nregs < limit => {
                    let fresh = *nregs as Reg;
                    *nregs += 1;
                    let mut hoisted = op;
                    *hoisted.regs_mut().0.expect("a pure op has a destination") = fresh;
                    preheader.push(hoisted);
                    fresh
                }
                None => continue,
            };
            for at in uses {
                let user = self.ops[at].as_mut().expect("a use is an op");
                for r in user.regs_mut().1.into_iter().flatten() {
                    if *r == dst {
                        *r = fresh;
                    }
                }
            }
            self.ops[pc] = None;
        }
        let changed = self.ops[lp.body..lp.bottom].contains(&None);
        self.insert(lp.body - 1, &preheader[already..]);
        self.compact();
        changed
    }

    /// Pass 3: sends every branch to where control ends up anyway (see
    /// the module docs), then drops jumps to the next op and code no
    /// path reaches.
    fn thread_jumps(&mut self) -> bool {
        let live = self.liveness();
        let mut changed = false;
        for pc in 0..self.len() {
            let op = self.ops[pc].expect("dense between passes");
            // Bools this branch has decided on its taken side.
            let mut known: Vec<(Reg, bool)> = match op {
                TOp::JumpIfFalse { cond, .. } => vec![(cond, false)],
                TOp::JumpIfTrue { cond, .. } => vec![(cond, true)],
                _ => Vec::new(),
            };
            // The loop ops' targets are what makes the loop recognisable.
            let structural =
                op.is_next() || matches!(op, TOp::LoopEnter { .. } | TOp::LoopHead { .. });
            let Some(first) = op.target().filter(|_| !structural) else {
                continue;
            };
            let value = |known: &[(Reg, bool)], r: Reg| {
                known.iter().rev().find(|(k, _)| *k == r).map(|&(_, v)| v)
            };
            let mut skipped = RegSet::default();
            let (mut at, mut best) = (first, first);
            for _ in 0..self.len() {
                at = match self.ops[at] {
                    Some(TOp::Jump { target }) => target as usize,
                    Some(op @ (TOp::Move(d, s) | TOp::NotB(d, s))) => match value(&known, s) {
                        Some(v) => {
                            known.push((d, v != matches!(op, TOp::NotB(..))));
                            skipped.insert(d);
                            at + 1
                        }
                        None => break,
                    },
                    Some(
                        op @ (TOp::JumpIfFalse { cond, target } | TOp::JumpIfTrue { cond, target }),
                    ) => match value(&known, cond) {
                        Some(v) if v == matches!(op, TOp::JumpIfTrue { .. }) => target as usize,
                        Some(_) => at + 1,
                        None => break,
                    },
                    _ => break,
                };
                if !skipped.intersects(&live[at]) {
                    best = at;
                }
            }
            if best != first {
                let op = self.ops[pc].as_mut().expect("dense between passes");
                *op.target_mut().expect("a branch has a target") = best as u32;
                changed = true;
            }
        }
        // A jump or bool branch to the very next op decides nothing.
        for pc in 0..self.len() {
            if let Some(TOp::Jump { target } | TOp::JumpIfFalse { target, .. })
            | Some(TOp::JumpIfTrue { target, .. }) = self.ops[pc]
            {
                if target as usize == pc + 1 {
                    self.ops[pc] = None;
                }
            }
        }
        let mut reached = vec![false; self.len() + 1];
        let mut stack = vec![0];
        while let Some(pc) = stack.pop() {
            if pc < self.len() && !std::mem::replace(&mut reached[pc], true) {
                stack.extend(self.succs(pc));
            }
        }
        for (op, reached) in self.ops.iter_mut().zip(reached) {
            if !reached {
                *op = None;
            }
        }
        changed |= self.ops.contains(&None);
        self.compact();
        changed
    }

    /// Pass 4: folds the op computing a bool into the branch that
    /// consumes it, when the bool is dead after the branch.
    fn fuse_branches(&mut self) -> bool {
        let live = self.liveness();
        let targeted = self.targeted();
        for at in 0..self.len() {
            let (mut cond, mut sense, target) = match self.ops[at] {
                Some(TOp::JumpIfFalse { cond, target }) => (cond, false, target),
                Some(TOp::JumpIfTrue { cond, target }) => (cond, true, target),
                _ => continue,
            };
            let dead_after =
                |r: Reg| !live[at + 1].contains(r) && !live[target as usize].contains(r);
            let mut fused = None;
            // Walk back over the ops feeding the branch; each must fall
            // straight into the next, with no other way in.
            let mut prev = at;
            while fused.is_none() && prev > 0 && targeted[prev] == 0 {
                prev -= 1;
                let Some(op) = self.ops[prev] else {
                    continue; // deleted a moment ago
                };
                if op.def() != Some(cond) || !dead_after(cond) {
                    break;
                }
                match op {
                    TOp::Move(_, s) => cond = s,
                    TOp::NotB(_, s) => (cond, sense) = (s, !sense),
                    TOp::LoadPropB { idx, prop, .. } => {
                        fused = Some(if sense {
                            TOp::JumpIfPropB { idx, prop, target }
                        } else {
                            TOp::JumpUnlessPropB { idx, prop, target }
                        });
                    }
                    _ => match jump_unless(op, sense, target) {
                        Some(branch) => fused = Some(branch),
                        None => break,
                    },
                }
                self.ops[prev] = None;
            }
            self.ops[at] = Some(fused.unwrap_or(if sense {
                TOp::JumpIfTrue { cond, target }
            } else {
                TOp::JumpIfFalse { cond, target }
            }));
        }
        let changed = self.ops.contains(&None);
        self.compact();
        changed
    }

    /// Pass 5: folds the `LoadU` (and `LoadProp…[u]`) that opens a loop
    /// body into both copies of the loop test.
    fn fuse_next(&mut self) -> bool {
        let live = self.liveness();
        for lp in self.find_loops() {
            let body = lp.body as u32;
            let (Some(TOp::LoopNext { .. }), Some(TOp::LoadU(u))) =
                (self.ops[lp.bottom], self.ops[lp.body])
            else {
                continue;
            };
            let load = self.ops[lp.body + 1]
                .filter(|_| lp.body + 1 < lp.bottom)
                .and_then(|op| {
                    let body = body + 2;
                    let fused = match op {
                        TOp::LoadPropF { dst, idx, prop } if idx == u => {
                            TOp::NextLoadPropF { dst, prop, body }
                        }
                        TOp::LoadPropI { dst, idx, prop } if idx == u => {
                            TOp::NextLoadPropI { dst, prop, body }
                        }
                        TOp::LoadPropB { dst, idx, prop } if idx == u => {
                            TOp::NextLoadPropB { dst, prop, body }
                        }
                        TOp::LoadPropV { dst, idx, prop } if idx == u => {
                            TOp::NextLoadPropV { dst, prop, body }
                        }
                        _ => return None,
                    };
                    // `u`'s register disappears: nothing may read it later.
                    (fused.def() == Some(u) || !live[lp.body + 2].contains(u)).then_some(fused)
                });
            let test = match load {
                Some(fused) => {
                    self.ops[lp.body + 1] = None;
                    fused
                }
                None => TOp::NextU {
                    dst: u,
                    body: body + 1,
                },
            };
            self.ops[lp.body] = None;
            self.ops[lp.body - 1] = Some(test);
            self.ops[lp.bottom] = Some(test);
        }
        let changed = self.ops.contains(&None);
        self.compact();
        changed
    }
}

/// The compare-and-branch op that jumps to `target` when comparison
/// `cmp` comes out as `sense`; `None` if `cmp` is not a comparison.
fn jump_unless(cmp: TOp, sense: bool, target: u32) -> Option<TOp> {
    use TOp::*;
    // Jumping when the comparison holds is jumping unless its negation
    // does (a NaN operand panics either way, so floats negate exactly).
    let cmp = match (sense, cmp) {
        (false, cmp) => cmp,
        (true, LtI(d, a, b)) => GeI(d, a, b),
        (true, LeI(d, a, b)) => GtI(d, a, b),
        (true, GtI(d, a, b)) => LeI(d, a, b),
        (true, GeI(d, a, b)) => LtI(d, a, b),
        (true, EqI(d, a, b)) => NeI(d, a, b),
        (true, NeI(d, a, b)) => EqI(d, a, b),
        (true, LtF(d, a, b)) => GeF(d, a, b),
        (true, LeF(d, a, b)) => GtF(d, a, b),
        (true, GtF(d, a, b)) => LeF(d, a, b),
        (true, GeF(d, a, b)) => LtF(d, a, b),
        (true, EqF(d, a, b)) => NeF(d, a, b),
        (true, NeF(d, a, b)) => EqF(d, a, b),
        _ => return None,
    };
    Some(match cmp {
        LtI(_, a, b) => JumpUnlessLtI(a, b, target),
        LeI(_, a, b) => JumpUnlessLeI(a, b, target),
        GtI(_, a, b) => JumpUnlessLtI(b, a, target),
        GeI(_, a, b) => JumpUnlessLeI(b, a, target),
        EqI(_, a, b) => JumpUnlessEqI(a, b, target),
        NeI(_, a, b) => JumpUnlessNeI(a, b, target),
        LtF(_, a, b) => JumpUnlessLtF(a, b, target),
        LeF(_, a, b) => JumpUnlessLeF(a, b, target),
        GtF(_, a, b) => JumpUnlessLtF(b, a, target),
        GeF(_, a, b) => JumpUnlessLeF(b, a, target),
        EqF(_, a, b) => JumpUnlessEqF(a, b, target),
        NeF(_, a, b) => JumpUnlessNeF(a, b, target),
        _ => return None,
    })
}

/// Optimises a typed program of `nregs` registers whose first `carried`
/// are the carried locals; returns the program to run and the registers
/// it needs (see the module docs).
pub(crate) fn optimize(ops: Vec<TOp>, nregs: usize, carried: usize) -> (Vec<TOp>, usize) {
    let limit = if nregs <= SMALL_REGS {
        SMALL_REGS
    } else {
        MAX_REGS
    };
    let mut nregs = nregs;
    let mut code = Code {
        ops: ops.into_iter().map(Some).collect(),
        carried,
    };
    // Each pass only removes ops from a path or moves them out of a
    // loop, so this settles; the second round usually finds nothing.
    loop {
        let mut changed = code.rotate();
        // Last loop first: hoisting shifts only what follows a preheader.
        for lp in code.find_loops().into_iter().rev() {
            changed |= code.hoist(lp, &mut nregs, limit);
        }
        changed |= code.thread_jumps();
        changed |= code.fuse_branches();
        changed |= code.fuse_next();
        if !changed {
            break;
        }
    }
    let ops = code.ops.into_iter().flatten().collect();
    (ops, nregs)
}

/// Per rotated loop of `ops`, in program order: the most ops one
/// iteration dispatches, the test that binds the next neighbour included;
/// a path that leaves the loop does not count.
pub(crate) fn loop_ops(ops: &[TOp]) -> Vec<usize> {
    let code = Code {
        ops: ops.iter().copied().map(Some).collect(),
        carried: 0,
    };
    code.find_loops()
        .into_iter()
        .map(|lp| {
            // Jumps inside a body go forward, so one backward sweep
            // suffices.
            let mut longest = vec![None::<usize>; lp.bottom + 1];
            longest[lp.bottom] = Some(1);
            for pc in (lp.body..lp.bottom).rev() {
                longest[pc] = code
                    .succs(pc)
                    .filter(|&s| s > pc && s <= lp.bottom)
                    .filter_map(|s| longest[s])
                    .max()
                    .map(|n| n + 1);
            }
            longest[lp.body].unwrap_or(0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Stmt, UdfFn};
    use crate::compile::lower;
    use crate::test_gen::{store, Gen};
    use crate::types::Ty;
    use crate::{check, instrument, instrument_naive, PropertyStore};
    use proptest::prelude::*;

    /// The lowering's output for `udf`: what [`optimize`] is given.
    fn typed(udf: &UdfFn, props: &PropertyStore, naive: bool) -> (Vec<TOp>, usize, usize) {
        let inst = if naive {
            instrument_naive(udf)
        } else {
            instrument(udf)
        }
        .expect("instrumentation");
        let vm = lower(&inst, props).expect("the program lowers against the store");
        (vm.ops, vm.nregs, vm.carried)
    }

    fn listing(ops: &[TOp]) -> String {
        ops.iter()
            .enumerate()
            .map(|(i, op)| format!("{i:4}: {op:?}\n"))
            .collect()
    }

    /// The ops of the (one) loop body of an optimised program.
    fn loop_body(ops: &[TOp]) -> Vec<TOp> {
        let code = Code {
            ops: ops.iter().copied().map(Some).collect(),
            carried: 0,
        };
        let [lp] = code.find_loops()[..] else {
            panic!("one rotated loop expected:\n{}", listing(ops));
        };
        ops[lp.body..lp.bottom].to_vec()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn optimizer_is_idempotent_and_keeps_every_index_in_range(
            choices in proptest::collection::vec(any::<u32>(), 0..160),
            update_ty in prop_oneof![Just(Ty::Bool), Just(Ty::Int), Just(Ty::Float), Just(Ty::Vertex)],
            naive in any::<bool>(),
        ) {
            let udf = Gen::new(&choices, update_ty).udf();
            let props = store();
            prop_assert!(check(&udf, &props.schema()).is_ok());
            let (ops, nregs, carried) = typed(&udf, &props, naive);
            let (once, nregs_once) = optimize(ops.clone(), nregs, carried);
            prop_assert!(once.len() <= ops.len() + (nregs_once - nregs), "{}", listing(&once));
            prop_assert!(nregs_once <= if nregs <= SMALL_REGS { SMALL_REGS } else { MAX_REGS });
            for &(mut op) in &once {
                if let Some(target) = op.target() {
                    prop_assert!(target < once.len(), "{op:?} in\n{}", listing(&once));
                }
                let (def, reads) = op.regs_mut();
                for r in def.into_iter().chain(reads.into_iter().flatten()) {
                    prop_assert!((*r as usize) < nregs_once, "r{r} of {nregs_once}");
                }
            }
            let (twice, nregs_twice) = optimize(once.clone(), nregs_once, carried);
            prop_assert_eq!(listing(&twice), listing(&once));
            prop_assert_eq!(nregs_twice, nregs_once);
        }
    }

    /// `for u { x0 = x0 + 101; ...; x0 = x0 + 108; }` after `locals` int
    /// locals: one hoistable constant, and one fresh register, per line.
    fn many_constants(locals: usize) -> UdfFn {
        let mut body: Vec<Stmt> = (0..locals)
            .map(|i| Stmt::let_(&format!("x{i}"), Ty::Int, Expr::i(i as i64)))
            .collect();
        let adds = (101..109)
            .map(|k| Stmt::assign("x0", Expr::local("x0").add(Expr::i(k))))
            .collect();
        body.push(Stmt::for_neighbors(adds));
        body.push(Stmt::Emit(Expr::local("x0")));
        UdfFn::new("constants", Ty::Int, body)
    }

    #[test]
    fn hoisting_stops_at_the_small_register_file() {
        let props = PropertyStore::new();
        let consts_in = |ops: &[TOp]| {
            let body = loop_body(ops);
            body.iter()
                .filter(|op| matches!(op, TOp::Const { .. }))
                .count()
        };
        // 13 locals and a temporary: two registers to spare of 16.
        let (ops, nregs, carried) = typed(&many_constants(13), &props, false);
        assert_eq!(nregs, 14);
        let (small, nregs_small) = optimize(ops, nregs, carried);
        assert_eq!(nregs_small, SMALL_REGS, "{}", listing(&small));
        assert_eq!(consts_in(&small), 8 - 2, "{}", listing(&small));
        // Already on the large file, there is room for all eight.
        let (ops, nregs, carried) = typed(&many_constants(20), &props, false);
        assert!(nregs > SMALL_REGS);
        let (large, nregs_large) = optimize(ops, nregs, carried);
        assert_eq!(nregs_large, nregs + 8, "{}", listing(&large));
        assert_eq!(consts_in(&large), 0, "{}", listing(&large));
    }

    #[test]
    fn a_result_that_meets_another_definition_is_not_hoisted() {
        // `b = flag[u] && 1 < num[v]`: the compare is invariant, but lands
        // in the register that also holds `flag[u]` when the `&&` short-
        // circuits, and `b = ...` reads whichever was written. Renaming
        // the compare's result would leave that read with half its value.
        let udf = UdfFn::new(
            "join",
            Ty::Bool,
            vec![
                Stmt::let_("b", Ty::Bool, Expr::b(false)),
                Stmt::for_neighbors(vec![Stmt::assign(
                    "b",
                    Expr::prop_u("flag").and(Expr::i(1).lt(Expr::prop_v("num"))),
                )]),
                Stmt::Emit(Expr::local("b")),
            ],
        );
        let props = store();
        check(&udf, &props.schema()).unwrap();
        let (ops, nregs, carried) = typed(&udf, &props, false);
        let (ops, _) = optimize(ops, nregs, carried);
        let body = loop_body(&ops);
        assert!(
            body.iter().any(|op| matches!(op, TOp::LtI(..))),
            "{}",
            listing(&ops)
        );
        // Its constant operand has one definition and one use: hoisted.
        assert!(
            !body.iter().any(|op| matches!(op, TOp::Const { .. })),
            "{}",
            listing(&ops)
        );
    }
}
