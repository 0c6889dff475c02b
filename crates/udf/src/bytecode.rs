//! Register bytecode for checked UDFs: the instruction set and the
//! AST-to-bytecode lowering.
//!
//! The tree interpreter re-walks the AST — hashing local names, chasing
//! `Box`es, matching on node kinds — once per edge. This module lowers an
//! instrumented UDF (after the PR 5 analyses) into a flat `Vec<Op>` over a
//! small register file so the per-edge cost is an indexed dispatch loop:
//!
//! * **Registers.** Carried locals are pinned at registers
//!   `0..carried` in `DepInfo::carried` order (so the dependency
//!   snapshot/restore is a masked register copy); the remaining locals
//!   follow in order of first appearance, all allocated before any code
//!   is lowered; expression temporaries are stack-allocated above every
//!   named local. A register is therefore *named* (one local, one
//!   declared type — [`CompiledUdf::named_tys`]) or a *temporary* for the
//!   whole program, which is what lets [`crate::vm`] type the registers
//!   when it binds the program to a store. The checker's guarantees
//!   (unique local names, defined before use, ≤ 1 loop level) make this
//!   allocation trivially sound.
//! * **Control flow** is jumps: `if` and the short-circuit `&&`/`||`
//!   compile to conditional branches, the neighbour loop to an
//!   init/head/back-edge triple, `break` to a flagged jump at the loop
//!   exit.
//! * **Instrumentation** maps to three ops mirroring the interpreter
//!   exactly: [`Op::Guard`] (skip-bit early-out + staging carried values
//!   under a pending mask), [`Op::Declare`]/[`Op::JumpIfPending`] (the
//!   `let` of a carried local consumes its staged value once), and
//!   [`Op::EmitDep`] (skip-bit set + declared-masked snapshot).
//! * **Property reads** are pre-resolved: names become indices into a
//!   table the VM binds to the store's typed arrays once per program,
//!   not per read.
//!
//! This instruction set is *portable*: it does not know the element types
//! of the property arrays, so `Unary`/`Binary`/`LoadProp` are generic.
//! It is not executed as is — [`crate::vm`] types it against a
//! [`crate::PropertyStore`] and runs the type-specialised result.
//!
//! Lowering is total for every program the checker accepts except two
//! resource limits — more than [`MAX_REGS`] live registers or more than
//! [`MAX_CARRIED`] carried locals — surfaced as [`CompileError`] (and as
//! lint W006, so silent de-optimisation is visible).

use crate::analysis::DepInfo;
use crate::ast::{BinOp, Expr, Stmt, UnOp};
use crate::opt::longest_loop_path;
use crate::transform::InstrumentedUdf;
use crate::types::{Ty, Value};
use std::collections::HashMap;
use std::fmt;

/// A register index in the VM's register file.
pub type Reg = u8;

/// Register-file capacity: named locals plus the expression-temporary
/// high-water mark must fit in a `u8`-indexed file.
pub const MAX_REGS: usize = 256;

/// Carried locals are tracked by 64-bit pending/declared masks.
pub const MAX_CARRIED: usize = 64;

/// One bytecode instruction. `Copy`, fixed-size, no heap indirection —
/// the dispatch loop streams a flat `Vec<Op>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `regs[dst] = val`.
    Const {
        /// Destination register.
        dst: Reg,
        /// Literal value.
        val: Value,
    },
    /// `regs[dst] = regs[src]`.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `regs[dst] = props[prop][regs[idx]]` — `prop` pre-resolved to a
    /// property-table index at bind time.
    LoadProp {
        /// Destination register.
        dst: Reg,
        /// Index into the compiled property table.
        prop: u16,
        /// Register holding the vertex index.
        idx: Reg,
    },
    /// `regs[dst] = Vertex(v)` (the current destination vertex).
    LoadV {
        /// Destination register.
        dst: Reg,
    },
    /// `regs[dst] = Vertex(u)` (the neighbour bound by the loop).
    LoadU {
        /// Destination register.
        dst: Reg,
    },
    /// `regs[dst] = op regs[src]`.
    Unary {
        /// Operator.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Operand register.
        src: Reg,
    },
    /// `regs[dst] = regs[lhs] op regs[rhs]` (never `&&`/`||` — those
    /// compile to branches).
    Binary {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
    },
    /// `if !regs[cond] { pc = target }`.
    JumpIfFalse {
        /// Condition register (bool-typed).
        cond: Reg,
        /// Branch target (instruction index).
        target: u32,
    },
    /// `if regs[cond] { pc = target }`.
    JumpIfTrue {
        /// Condition register (bool-typed).
        cond: Reg,
        /// Branch target (instruction index).
        target: u32,
    },
    /// `pc = target`.
    Jump {
        /// Branch target (instruction index).
        target: u32,
    },
    /// `emit(regs[src].to_bits())`.
    Emit {
        /// Register holding the update value.
        src: Reg,
    },
    /// Reset the neighbour-loop cursor (loops cannot nest, so one cursor
    /// suffices).
    LoopInit,
    /// Loop head: bind the next neighbour into `u`, count the edge, and
    /// advance; jump to `exit` when the neighbour list is exhausted.
    LoopHead {
        /// Instruction index of the op after the loop (its `ClearU`).
        exit: u32,
    },
    /// `break`: set the broke flag and leave the loop.
    Break {
        /// Instruction index of the op after the loop (its `ClearU`).
        exit: u32,
    },
    /// Unbind `u` on loop exit (normal or broken).
    ClearU,
    /// `ReceiveDepGuard`: on the carried path, halt if the skip bit is
    /// set; otherwise stage every carried value into its pinned register
    /// under the pending mask.
    Guard,
    /// Skip a carried local's initialiser when its staged value is
    /// pending (consuming the pending bit) — the `let` *is* the restore
    /// point, as in the interpreter.
    JumpIfPending {
        /// Carried-local index (mask bit).
        idx: u8,
        /// Branch target: the `Declare` after the initialiser.
        target: u32,
    },
    /// Mark a carried local as declared (it participates in snapshots).
    Declare {
        /// Carried-local index (mask bit).
        idx: u8,
    },
    /// `EmitDep`: set the skip bit and snapshot declared carried locals.
    EmitDep,
    /// Return from the UDF (the epilogue snapshot still runs, exactly as
    /// the interpreter's post-`exec_block` snapshot does).
    Halt,
}

/// Why a checked UDF could not be lowered to bytecode. The engine falls
/// back to the interpreter (outputs identical, dispatch slower); lint
/// W006 reports the fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The program needs more than [`MAX_REGS`] registers.
    TooManyRegisters {
        /// Registers the program would need.
        needed: usize,
    },
    /// The program carries more than [`MAX_CARRIED`] locals across
    /// machine boundaries.
    TooManyCarried {
        /// Carried locals in the dependency info.
        carried: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TooManyRegisters { needed } => write!(
                f,
                "program needs {needed} registers but the VM register file holds {MAX_REGS}"
            ),
            CompileError::TooManyCarried { carried } => write!(
                f,
                "program carries {carried} locals but the dependency masks hold {MAX_CARRIED}"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// An instrumented UDF lowered to register bytecode, ready for the VM to
/// bind to a property store and execute.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledUdf {
    pub(crate) ops: Vec<Op>,
    pub(crate) num_regs: usize,
    pub(crate) prop_names: Vec<String>,
    pub(crate) carried: usize,
    pub(crate) named_tys: Vec<Option<Ty>>,
}

impl CompiledUdf {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// A compiled program always has at least its final `Halt`.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Size of the register file (named locals + temporary high-water).
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }

    /// Property arrays the program reads, in first-use order (the VM
    /// binds these to a store once per program).
    pub fn prop_names(&self) -> &[String] {
        &self.prop_names
    }

    /// The instruction stream (exposed for disassembly and tests).
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of carried locals (pinned at registers `0..carried`).
    pub fn carried(&self) -> usize {
        self.carried
    }

    /// Declared types of the named registers `0..named_tys().len()`
    /// (carried locals first); every register above them is an expression
    /// temporary. `None` marks a local the program never declares, or
    /// declares twice at different types — the checker rejects both, and
    /// the VM refuses to bind such a program.
    pub fn named_tys(&self) -> &[Option<Ty>] {
        &self.named_tys
    }

    /// Per neighbour loop, in program order: the most ops one iteration
    /// dispatches, loop head and back edge included. The typed program
    /// starts out one op per portable op, so this is the "before" that
    /// [`crate::UdfProgram::loop_ops`] is read against.
    pub fn loop_ops(&self) -> Vec<usize> {
        let succs = |pc: usize| match self.ops[pc] {
            Op::Jump { target } | Op::Break { exit: target } => [Some(target as usize), None],
            Op::JumpIfFalse { target, .. }
            | Op::JumpIfTrue { target, .. }
            | Op::JumpIfPending { target, .. }
            | Op::LoopHead { exit: target } => [Some(pc + 1), Some(target as usize)],
            Op::Halt => [None, None],
            _ => [Some(pc + 1), None],
        };
        (0..self.ops.len())
            .filter_map(|head| match self.ops[head] {
                // The back edge is the op in front of the exit.
                Op::LoopHead { exit } => Some(longest_loop_path(head, exit as usize - 1, succs)),
                _ => None,
            })
            .collect()
    }

    /// Human-readable instruction listing (for diagnostics and docs).
    pub fn disassemble(&self) -> String {
        use fmt::Write;
        let mut s = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            let _ = writeln!(s, "{i:4}: {op:?}");
        }
        s
    }
}

/// Lowers an instrumented UDF to bytecode. See the module docs for the
/// mapping; [`crate::compile`] is the public entry point.
pub(crate) fn lower(inst: &InstrumentedUdf) -> Result<CompiledUdf, CompileError> {
    let carried = inst.info.carried.len();
    if carried > MAX_CARRIED {
        return Err(CompileError::TooManyCarried { carried });
    }
    let mut lw = Lowering::new(&inst.info, &inst.udf.body)?;
    lw.block(&inst.udf.body)?;
    lw.ops.push(Op::Halt);
    Ok(CompiledUdf {
        ops: lw.ops,
        num_regs: lw.max_regs,
        prop_names: lw.prop_names,
        carried,
        named_tys: lw.named_tys,
    })
}

struct Lowering {
    ops: Vec<Op>,
    /// name → (register, carried index if any); complete before any code
    /// is lowered.
    locals: HashMap<String, (Reg, Option<u8>)>,
    /// Declared type per named register (see [`CompiledUdf::named_tys`]).
    named_tys: Vec<Option<Ty>>,
    /// Next free register; temporaries stack on top of the named locals.
    top: usize,
    max_regs: usize,
    prop_names: Vec<String>,
    prop_index: HashMap<String, u16>,
}

impl Lowering {
    /// Allocates every named register: carried locals at `0..carried` in
    /// `DepInfo` order, then the other locals as the program first
    /// mentions them.
    fn new(info: &DepInfo, body: &[Stmt]) -> Result<Self, CompileError> {
        let mut lw = Lowering {
            ops: Vec::new(),
            locals: HashMap::new(),
            named_tys: Vec::new(),
            top: 0,
            max_regs: 0,
            prop_names: Vec::new(),
            prop_index: HashMap::new(),
        };
        for (i, (name, ty)) in info.carried.iter().enumerate() {
            lw.locals.insert(name.clone(), (i as Reg, Some(i as u8)));
            lw.named_tys.push(Some(*ty));
        }
        lw.name_block(body);
        lw.top = lw.named_tys.len();
        lw.max_regs = lw.top;
        if lw.top > MAX_REGS {
            return Err(CompileError::TooManyRegisters { needed: lw.top });
        }
        Ok(lw)
    }

    /// Gives `name` a named register on first sight. `declared` is the
    /// type of the `let` being visited (`None` for a mere use); a local
    /// never declared, or declared at two types, ends up untyped.
    fn name_local(&mut self, name: &str, declared: Option<Ty>) {
        match self.locals.get(name) {
            None => {
                // Past the `u8` range the register is never used: `new`
                // reports the overflow before any code is lowered.
                let r = self.named_tys.len();
                self.locals.insert(name.to_string(), (r as Reg, None));
                self.named_tys.push(declared);
            }
            Some(&(r, carried)) => {
                let slot = &mut self.named_tys[r as usize];
                // Carried locals are typed by the analysis, which read
                // the same `let`.
                if declared.is_some() && carried.is_none() && *slot != declared {
                    *slot = None;
                }
            }
        }
    }

    fn name_block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            match s {
                Stmt::Let { name, ty, init } => {
                    self.name_expr(init);
                    self.name_local(name, Some(*ty));
                }
                Stmt::Assign { name, value } => {
                    self.name_expr(value);
                    self.name_local(name, None);
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    self.name_expr(cond);
                    self.name_block(then_branch);
                    self.name_block(else_branch);
                }
                Stmt::ForNeighbors { body } => self.name_block(body),
                Stmt::Emit(e) => self.name_expr(e),
                Stmt::Break | Stmt::Return | Stmt::ReceiveDepGuard | Stmt::EmitDep => {}
            }
        }
    }

    fn name_expr(&mut self, e: &Expr) {
        match e {
            Expr::Local(name) => self.name_local(name, None),
            Expr::Prop { index, .. } => self.name_expr(index),
            Expr::Unary(_, a) => self.name_expr(a),
            Expr::Binary(_, a, b) => {
                self.name_expr(a);
                self.name_expr(b);
            }
            Expr::Lit(_) | Expr::CurrentVertex | Expr::CurrentNeighbor => {}
        }
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch(&mut self, at: u32, target: u32) {
        match &mut self.ops[at as usize] {
            Op::JumpIfFalse { target: t, .. }
            | Op::JumpIfTrue { target: t, .. }
            | Op::Jump { target: t }
            | Op::JumpIfPending { target: t, .. }
            | Op::LoopHead { exit: t }
            | Op::Break { exit: t } => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn alloc_temp(&mut self) -> Result<Reg, CompileError> {
        let r = self.top;
        if r >= MAX_REGS {
            return Err(CompileError::TooManyRegisters { needed: r + 1 });
        }
        self.top += 1;
        self.max_regs = self.max_regs.max(self.top);
        Ok(r as Reg)
    }

    /// Register (and carried index, if any) of local `name`.
    fn local_reg(&self, name: &str) -> (Reg, Option<u8>) {
        self.locals[name]
    }

    fn prop_id(&mut self, name: &str) -> u16 {
        if let Some(&i) = self.prop_index.get(name) {
            return i;
        }
        let i = self.prop_names.len() as u16;
        self.prop_names.push(name.to_string());
        self.prop_index.insert(name.to_string(), i);
        i
    }

    /// Lowers `e`, placing the result in `dst`. Every op writes `dst`
    /// only after reading its operands, so `dst` may alias a register the
    /// expression reads; the short-circuit forms write `dst` early and
    /// therefore always evaluate into a fresh temporary first.
    fn expr(&mut self, e: &Expr, dst: Reg) -> Result<(), CompileError> {
        match e {
            Expr::Lit(v) => self.ops.push(Op::Const { dst, val: *v }),
            Expr::Local(name) => {
                let (src, _) = self.local_reg(name);
                if src != dst {
                    self.ops.push(Op::Move { dst, src });
                }
            }
            Expr::Prop { array, index } => {
                let save = self.top;
                let idx = self.operand(index)?;
                let prop = self.prop_id(array);
                self.ops.push(Op::LoadProp { dst, prop, idx });
                self.top = save;
            }
            Expr::CurrentVertex => self.ops.push(Op::LoadV { dst }),
            Expr::CurrentNeighbor => self.ops.push(Op::LoadU { dst }),
            Expr::Unary(op, a) => {
                let save = self.top;
                let src = self.operand(a)?;
                self.ops.push(Op::Unary { op: *op, dst, src });
                self.top = save;
            }
            Expr::Binary(op @ (BinOp::And | BinOp::Or), a, b) => {
                // Short-circuit: evaluate into a fresh temp (written
                // before `b` runs, so it must not alias anything `b`
                // reads), then move into place.
                let save = self.top;
                let t = self.alloc_temp()?;
                self.expr(a, t)?;
                let jump = self.here();
                self.ops.push(match op {
                    BinOp::And => Op::JumpIfFalse { cond: t, target: 0 },
                    _ => Op::JumpIfTrue { cond: t, target: 0 },
                });
                self.expr(b, t)?;
                let end = self.here();
                self.patch(jump, end);
                if t != dst {
                    self.ops.push(Op::Move { dst, src: t });
                }
                self.top = save;
            }
            Expr::Binary(op, a, b) => {
                let save = self.top;
                let lhs = self.operand(a)?;
                let rhs = self.operand(b)?;
                self.ops.push(Op::Binary {
                    op: *op,
                    dst,
                    lhs,
                    rhs,
                });
                self.top = save;
            }
        }
        Ok(())
    }

    /// Lowers `e` as an operand: locals are read in place (no move),
    /// everything else evaluates into a temporary.
    fn operand(&mut self, e: &Expr) -> Result<Reg, CompileError> {
        if let Expr::Local(name) = e {
            return Ok(self.local_reg(name).0);
        }
        let t = self.alloc_temp()?;
        self.expr(e, t)?;
        Ok(t)
    }

    fn block(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Let { name, init, .. } => {
                let (reg, carried) = self.local_reg(name);
                match carried {
                    Some(idx) => {
                        // The pending (restored) value is already in the
                        // pinned register; consume the bit and skip the
                        // initialiser, exactly like `pending.remove` in
                        // the interpreter.
                        let jump = self.here();
                        self.ops.push(Op::JumpIfPending { idx, target: 0 });
                        self.expr(init, reg)?;
                        let end = self.here();
                        self.patch(jump, end);
                        self.ops.push(Op::Declare { idx });
                    }
                    None => self.expr(init, reg)?,
                }
            }
            Stmt::Assign { name, value } => {
                let (reg, _) = self.local_reg(name);
                self.expr(value, reg)?;
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let save = self.top;
                let c = self.operand(cond)?;
                let to_else = self.here();
                self.ops.push(Op::JumpIfFalse { cond: c, target: 0 });
                self.top = save;
                self.block(then_branch)?;
                if else_branch.is_empty() {
                    let end = self.here();
                    self.patch(to_else, end);
                } else {
                    let skip_else = self.here();
                    self.ops.push(Op::Jump { target: 0 });
                    let else_at = self.here();
                    self.patch(to_else, else_at);
                    self.block(else_branch)?;
                    let end = self.here();
                    self.patch(skip_else, end);
                }
            }
            Stmt::ForNeighbors { body } => {
                self.ops.push(Op::LoopInit);
                let head = self.here();
                self.ops.push(Op::LoopHead { exit: 0 });
                self.block(body)?;
                self.ops.push(Op::Jump { target: head });
                let exit = self.here();
                self.ops.push(Op::ClearU);
                // Break targets inside the body were lowered with their
                // exits unpatched (0 is never a valid loop exit: ops 0..
                // precede the loop); fix them up now.
                self.patch(head, exit);
                for at in head as usize + 1..exit as usize {
                    if let Op::Break { exit: 0 } = self.ops[at] {
                        self.patch(at as u32, exit);
                    }
                }
            }
            Stmt::Break => self.ops.push(Op::Break { exit: 0 }),
            Stmt::Emit(e) => {
                let save = self.top;
                let src = self.operand(e)?;
                self.ops.push(Op::Emit { src });
                self.top = save;
            }
            Stmt::Return => self.ops.push(Op::Halt),
            Stmt::ReceiveDepGuard => self.ops.push(Op::Guard),
            Stmt::EmitDep => self.ops.push(Op::EmitDep),
        }
        debug_assert_eq!(
            self.top,
            self.named_tys.len(),
            "statement leaked temporaries"
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::UdfFn;
    use crate::instrument;
    use crate::paper_udfs;
    use crate::types::Ty;

    fn compile_ok(udf: &UdfFn) -> CompiledUdf {
        lower(&instrument(udf).unwrap()).unwrap()
    }

    #[test]
    fn paper_kernels_lower() {
        for udf in [
            paper_udfs::bfs_udf(),
            paper_udfs::mis_udf(),
            paper_udfs::kcore_udf(4),
            paper_udfs::kmeans_udf(),
            paper_udfs::sampling_udf(),
        ] {
            let code = compile_ok(&udf);
            assert!(!code.is_empty());
            assert!(matches!(code.ops().last(), Some(Op::Halt)));
            assert!(code.num_regs() <= MAX_REGS);
            // Jump targets stay inside the instruction stream.
            for op in code.ops() {
                if let Op::Jump { target }
                | Op::JumpIfFalse { target, .. }
                | Op::JumpIfTrue { target, .. }
                | Op::JumpIfPending { target, .. }
                | Op::LoopHead { exit: target }
                | Op::Break { exit: target } = op
                {
                    assert!((*target as usize) < code.len(), "target out of range");
                }
            }
        }
    }

    #[test]
    fn carried_locals_get_pinned_registers() {
        let inst = instrument(&paper_udfs::kcore_udf(3)).unwrap();
        let code = lower(&inst).unwrap();
        assert_eq!(code.carried, inst.info.carried.len());
        assert!(code
            .ops()
            .iter()
            .any(|op| matches!(op, Op::Declare { idx: 0 })));
        assert!(code.ops().iter().any(|op| matches!(op, Op::Guard)));
        assert!(code.ops().iter().any(|op| matches!(op, Op::EmitDep)));
    }

    #[test]
    fn property_table_dedupes_names() {
        let code = compile_ok(&paper_udfs::bfs_udf());
        let mut names = code.prop_names().to_vec();
        names.dedup();
        assert_eq!(names.len(), code.prop_names().len());
    }

    #[test]
    fn register_pressure_overflows_report() {
        // 300 distinct locals blow the u8 register file.
        let mut body: Vec<Stmt> = (0..300)
            .map(|i| Stmt::let_(&format!("x{i}"), Ty::Int, Expr::i(i)))
            .collect();
        body.push(Stmt::Emit(Expr::local("x0")));
        let udf = UdfFn::new("wide", Ty::Int, body);
        let err = lower(&instrument(&udf).unwrap()).unwrap_err();
        assert!(matches!(err, CompileError::TooManyRegisters { .. }));
        assert!(err.to_string().contains("register file"));
    }
}
