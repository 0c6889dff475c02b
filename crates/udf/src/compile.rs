//! The one lowering of a checked UDF: the instrumented AST straight to
//! the typed ops [`crate::vm`] runs, once per program instead of a tree
//! walk per edge. It has two halves.
//!
//! * **The register plan** ([`compile`], no store needed). Carried locals
//!   are pinned at registers `0..carried` in `DepInfo::carried` order (so
//!   the dependency snapshot/restore is a masked register copy); the other
//!   locals follow in order of first appearance, each with the one type
//!   its `let` declares; expression temporaries stack above them. The
//!   checker's guarantees (unique local names, defined before use, ≤ 1
//!   loop level) make this sound. Its only errors are the [`MAX_REGS`] and
//!   [`MAX_CARRIED`] limits ([`CompileError`], lint W006).
//! * **Lowering at bind time** (`lower`, against a [`PropertyStore`]). One
//!   walk emits the ops. Every expression returns its register *and its
//!   type* — literals and locals state theirs, a property read takes the
//!   element type of the store's array — so each op is emitted specialised
//!   (`AddF` or `AddI`, `LoadPropF` over a `&[f64]`), with an `I2F` into
//!   one of two scratch registers above the program's own where an `int`
//!   operand meets a `float` one. The instrumentation is `Guard`,
//!   `JumpIfPending`/`Declare` around a carried `let`, and `EmitDep`,
//!   mirroring the interpreter exactly.
//!
//! **Widening happens where a value is stored.** Besides operands, the
//! checker accepts an `int` where a `float` is expected at a `let` or an
//! assignment of a `float` local and at an `emit` of a `float` update.
//! The lowering emits an `I2F` there, and the interpreter converts its
//! `Value::Int` the same way, so a `float` place only holds floats.
//!
//! **Lowering is also the type check.** Where the program does not type
//! against the store — an array of another type than the source assumed,
//! or anything `check` would have rejected — the walk fails and the
//! caller falls back to the tree interpreter, as for a missing property.

use crate::ast::{BinOp, Expr, Stmt, UnOp};
use crate::props::{PropArray, PropertyStore};
use crate::transform::InstrumentedUdf;
use crate::types::Ty;
use crate::vm::{BoundVm, Reg, TOp};
use std::collections::HashMap;
use std::fmt;

/// Register-file capacity: named locals plus the expression-temporary
/// high-water mark must fit in a `u8`-indexed file.
pub const MAX_REGS: usize = 256;

/// Carried locals are tracked by 64-bit pending/declared masks.
pub const MAX_CARRIED: usize = 64;

/// Why a checked UDF cannot run on the typed VM. The engine runs it on
/// the tree interpreter instead, whose dispatch is slower; lint W006
/// reports the fallback.
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

/// The register plan of an instrumented UDF: the store-independent half
/// of the lowering (see the module docs).
#[derive(Debug, Clone)]
pub struct CompiledUdf {
    /// Register and declared type per local; the type is `None` for a
    /// local the program never declares, or declares at two types — the
    /// checker rejects both, and such a program does not lower.
    locals: HashMap<String, (Reg, Option<Ty>)>,
    num_regs: usize,
    carried: usize,
}

/// Plans the registers of an instrumented UDF that [`crate::check`]
/// passed (see the module docs).
///
/// # Errors
///
/// [`CompileError::TooManyRegisters`] when named locals plus expression
/// temporaries exceed the `u8` register file;
/// [`CompileError::TooManyCarried`] when more than 64 locals are carried
/// across machine boundaries.
///
/// # Example
///
/// ```
/// use symple_udf::{compile, instrument, paper_udfs};
/// let inst = instrument(&paper_udfs::bfs_udf()).unwrap();
/// let code = compile(&inst).unwrap();
/// assert_eq!(code.num_regs(), 2);
/// ```
pub fn compile(inst: &InstrumentedUdf) -> Result<CompiledUdf, CompileError> {
    let carried = inst.info.carried.len();
    if carried > MAX_CARRIED {
        return Err(CompileError::TooManyCarried { carried });
    }
    let pinned = inst.info.carried.iter().enumerate();
    let mut code = CompiledUdf {
        locals: pinned
            .map(|(i, (name, ty))| (name.clone(), (i as Reg, Some(*ty))))
            .collect(),
        num_regs: 0,
        carried,
    };
    let temps = code.plan_block(&inst.udf.body);
    code.num_regs = code.locals.len() + temps;
    if code.num_regs > MAX_REGS {
        return Err(CompileError::TooManyRegisters {
            needed: code.num_regs,
        });
    }
    Ok(code)
}

impl CompiledUdf {
    /// Size of the register file (named locals + temporary high-water).
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }

    /// Gives `name` a named register on first sight (past the `u8` range
    /// it is never used: `compile` reports the overflow). `declared` is
    /// the type of the `let` being visited (`None` for a mere use).
    fn name(&mut self, name: &str, declared: Option<Ty>) {
        let (next, carried) = (self.locals.len() as Reg, self.carried);
        let (reg, ty) = self.locals.entry(name.into()).or_insert((next, declared));
        // Carried locals are typed by the analysis, which read the same
        // `let`.
        if declared.is_some() && (*reg as usize) >= carried && *ty != declared {
            *ty = None;
        }
    }

    /// Names the locals of `stmts` in program order, and returns the most
    /// temporaries one of them needs.
    fn plan_block(&mut self, stmts: &[Stmt]) -> usize {
        let mut temps = 0;
        for s in stmts {
            let needed = match s {
                Stmt::Let { name, ty, init } => {
                    let needed = self.plan_expr(init, false);
                    self.name(name, Some(*ty));
                    needed
                }
                Stmt::Assign { name, value } => {
                    let needed = self.plan_expr(value, false);
                    self.name(name, None);
                    needed
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let needed = self.plan_expr(cond, true);
                    let then_needed = self.plan_block(then_branch);
                    needed.max(then_needed).max(self.plan_block(else_branch))
                }
                Stmt::ForNeighbors { body } => self.plan_block(body),
                Stmt::Emit(e) => self.plan_expr(e, true),
                Stmt::Break | Stmt::Return | Stmt::ReceiveDepGuard | Stmt::EmitDep => 0,
            };
            temps = temps.max(needed);
        }
        temps
    }

    /// The temporaries `Lowering::expr` allocates for `e` — or
    /// `Lowering::operand`, which evaluates anything but a local into one
    /// more.
    fn plan_expr(&mut self, e: &Expr, operand: bool) -> usize {
        let not_local = |e: &Expr| usize::from(!matches!(e, Expr::Local(_)));
        let own = if operand { not_local(e) } else { 0 };
        own + match e {
            Expr::Local(name) => {
                self.name(name, None);
                0
            }
            Expr::Prop { index: a, .. } | Expr::Unary(_, a) => self.plan_expr(a, true),
            Expr::Binary(BinOp::And | BinOp::Or, a, b) => {
                let needed = self.plan_expr(a, false);
                1 + needed.max(self.plan_expr(b, false))
            }
            // The left operand's register stays taken while the right one
            // is evaluated.
            Expr::Binary(_, a, b) => {
                let lhs = self.plan_expr(a, true);
                lhs.max(not_local(a) + self.plan_expr(b, true))
            }
            Expr::Lit(_) | Expr::CurrentVertex | Expr::CurrentNeighbor => 0,
        }
    }
}

/// Plans `inst` and lowers it to typed ops against `store` (see the
/// module docs). `None` if the plan hits a resource limit, a property is
/// missing, or the program does not type against the store's arrays.
pub(crate) fn lower<'a>(inst: &InstrumentedUdf, store: &'a PropertyStore) -> Option<BoundVm<'a>> {
    let code = compile(inst).ok()?;
    let mut lw = Lowering {
        top: code.locals.len(),
        vm: BoundVm {
            nregs: code.num_regs,
            carried: code.carried,
            ..BoundVm::default()
        },
        code,
        store,
        props: Vec::new(),
        in_loop: false,
        update_ty: inst.udf.update_ty,
    };
    lw.block(&inst.udf.body)?;
    lw.push(TOp::Halt);
    Some(lw.vm)
}

fn push_index<T>(table: &mut Vec<T>, item: T) -> usize {
    table.push(item);
    table.len() - 1
}

/// Can a `found` value be stored where `declared` is expected — as is
/// (`Some(false)`), or widened from `int` to `float` (`Some(true)`)?
fn widens(declared: Ty, found: Ty) -> Option<bool> {
    match (declared, found) {
        _ if declared == found => Some(false),
        (Ty::Float, Ty::Int) => Some(true),
        _ => None,
    }
}

/// Bind-time state of the walk.
struct Lowering<'a> {
    code: CompiledUdf,
    store: &'a PropertyStore,
    /// Per property read so far, in first-use order: its name, element
    /// type, and index into the VM's table of that type.
    props: Vec<(String, Ty, u16)>,
    vm: BoundVm<'a>,
    /// Next free register; temporaries stack on top of the named locals.
    top: usize,
    in_loop: bool,
    update_ty: Ty,
}

impl Lowering<'_> {
    fn push(&mut self, op: TOp) {
        self.vm.ops.push(op);
    }

    fn here(&self) -> u32 {
        self.vm.ops.len() as u32
    }

    /// Points the jump at `at` to the next op to be emitted.
    fn land(&mut self, at: u32) {
        let here = self.here();
        *self.vm.ops[at as usize].target_mut().expect("a jump") = here;
    }

    fn alloc_temp(&mut self) -> Reg {
        let r = self.top;
        self.top += 1;
        debug_assert!(self.top <= self.code.num_regs, "the plan undercounts");
        r as Reg
    }

    fn constant(&mut self, bits: u64) -> Option<u16> {
        let consts = &mut self.vm.consts;
        let k = consts.iter().position(|&c| c == bits).unwrap_or_else(|| {
            consts.push(bits);
            consts.len() - 1
        });
        u16::try_from(k).ok()
    }

    /// Element type and table index of property `name`, bound to the
    /// store's array on first use.
    fn prop(&mut self, name: &str) -> Option<(Ty, u16)> {
        if let Some(&(_, ty, at)) = self.props.iter().find(|(n, ..)| n == name) {
            return Some((ty, at));
        }
        let (array, vm) = (self.store.get(name)?, &mut self.vm);
        let at = match array {
            PropArray::Floats(a) => push_index(&mut vm.floats, a.as_slice()),
            PropArray::Ints(a) => push_index(&mut vm.ints, a.as_slice()),
            PropArray::Bools(b) => push_index(&mut vm.bools, b),
            PropArray::Vertices(a) => push_index(&mut vm.verts, a.as_slice()),
        };
        let at = u16::try_from(at).ok()?;
        self.props.push((name.to_string(), array.ty(), at));
        Some((array.ty(), at))
    }

    /// Register and declared type of local `name`.
    fn local(&self, name: &str) -> Option<(Reg, Ty)> {
        let &(reg, ty) = self.code.locals.get(name)?;
        Some((reg, ty?))
    }

    /// `r` as a float operand: itself, or widened into scratch register
    /// `which` (0 for a left operand, 1 for a right one) above the
    /// program's own registers.
    fn as_float(&mut self, r: Reg, ty: Ty, which: usize) -> Option<Reg> {
        if ty == Ty::Float {
            return Some(r);
        }
        let scratch = self.code.num_regs + which;
        self.vm.nregs = self.vm.nregs.max(scratch + 1);
        let scratch = Reg::try_from(scratch).ok()?;
        self.push(TOp::I2F(scratch, r));
        Some(scratch)
    }

    /// Lowers `e`, placing the result in `dst`, and returns its type.
    /// Every op writes `dst` only after reading its operands, so `dst` may
    /// alias a register the expression reads; the short-circuit forms
    /// write `dst` early and therefore always evaluate into a fresh
    /// temporary first.
    fn expr(&mut self, e: &Expr, dst: Reg) -> Option<Ty> {
        let save = self.top;
        let ty = match e {
            Expr::Lit(v) => {
                let k = self.constant(v.to_bits())?;
                self.push(TOp::Const { dst, k });
                v.ty()
            }
            Expr::Local(name) => {
                let (src, ty) = self.local(name)?;
                if src != dst {
                    self.push(TOp::Move(dst, src));
                }
                ty
            }
            Expr::Prop { array, index } => {
                let (idx, Ty::Vertex) = self.operand(index)? else {
                    return None;
                };
                let (ty, prop) = self.prop(array)?;
                self.push(match ty {
                    Ty::Float => TOp::LoadPropF { dst, idx, prop },
                    Ty::Int => TOp::LoadPropI { dst, idx, prop },
                    Ty::Bool => TOp::LoadPropB { dst, idx, prop },
                    Ty::Vertex => TOp::LoadPropV { dst, idx, prop },
                });
                ty
            }
            Expr::CurrentVertex => {
                self.push(TOp::LoadV(dst));
                Ty::Vertex
            }
            Expr::CurrentNeighbor => {
                self.in_loop.then_some(())?;
                self.push(TOp::LoadU(dst));
                Ty::Vertex
            }
            Expr::Unary(op, a) => {
                let (src, ty) = self.operand(a)?;
                let make: fn(Reg, Reg) -> TOp = match (op, ty) {
                    (UnOp::Not, Ty::Bool) => TOp::NotB,
                    (UnOp::Neg, Ty::Int) => TOp::NegI,
                    (UnOp::Neg, Ty::Float) => TOp::NegF,
                    _ => return None,
                };
                self.push(make(dst, src));
                ty
            }
            Expr::Binary(op @ (BinOp::And | BinOp::Or), a, b) => {
                let t = self.alloc_temp();
                let lhs = self.expr(a, t)?;
                let jump = self.here();
                self.push(match op {
                    BinOp::And => TOp::JumpIfFalse { cond: t, target: 0 },
                    _ => TOp::JumpIfTrue { cond: t, target: 0 },
                });
                let rhs = self.expr(b, t)?;
                if (lhs, rhs) != (Ty::Bool, Ty::Bool) {
                    return None;
                }
                self.land(jump);
                if t != dst {
                    self.push(TOp::Move(dst, t));
                }
                Ty::Bool
            }
            Expr::Binary(op, a, b) => {
                let lhs = self.operand(a)?;
                let rhs = self.operand(b)?;
                self.binary(*op, dst, lhs, rhs)?
            }
        };
        self.top = save;
        Some(ty)
    }

    /// Lowers `e` as an operand: locals are read in place (no move),
    /// everything else evaluates into a temporary.
    fn operand(&mut self, e: &Expr) -> Option<(Reg, Ty)> {
        if let Expr::Local(name) = e {
            return self.local(name);
        }
        let t = self.alloc_temp();
        Some((t, self.expr(e, t)?))
    }

    fn binary(
        &mut self,
        op: BinOp,
        dst: Reg,
        (lhs, tl): (Reg, Ty),
        (rhs, tr): (Reg, Ty),
    ) -> Option<Ty> {
        use Ty::{Bool, Float, Int, Vertex};
        let arith = matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul);
        let float = match (tl, tr) {
            (Int, Int) => false,
            (Bool, Bool) | (Vertex, Vertex) if !arith => false,
            (Int | Float, Int | Float) => true,
            _ => return None,
        };
        type Make = fn(Reg, Reg, Reg) -> TOp;
        let (int, flt): (Make, Make) = match op {
            BinOp::Add => (TOp::AddI, TOp::AddF),
            BinOp::Sub => (TOp::SubI, TOp::SubF),
            BinOp::Mul => (TOp::MulI, TOp::MulF),
            BinOp::Lt => (TOp::LtI, TOp::LtF),
            BinOp::Le => (TOp::LeI, TOp::LeF),
            BinOp::Gt => (TOp::GtI, TOp::GtF),
            BinOp::Ge => (TOp::GeI, TOp::GeF),
            BinOp::Eq => (TOp::EqI, TOp::EqF),
            BinOp::Ne => (TOp::NeI, TOp::NeF),
            // `&&`/`||` lower to branches (see `expr`).
            BinOp::And | BinOp::Or => return None,
        };
        if float {
            let (lhs, rhs) = (self.as_float(lhs, tl, 0)?, self.as_float(rhs, tr, 1)?);
            self.push(flt(dst, lhs, rhs));
        } else {
            self.push(int(dst, lhs, rhs));
        }
        Some(match (arith, float) {
            (false, _) => Bool,
            (true, false) => Int,
            (true, true) => Float,
        })
    }

    /// Lowers `e` into the register of local `name`, widening an `int`
    /// there if the local is a `float`.
    fn store(&mut self, name: &str, e: &Expr) -> Option<()> {
        let (reg, declared) = self.local(name)?;
        if widens(declared, self.expr(e, reg)?)? {
            self.push(TOp::I2F(reg, reg));
        }
        Some(())
    }

    fn block(&mut self, stmts: &[Stmt]) -> Option<()> {
        for s in stmts {
            self.stmt(s)?;
            debug_assert_eq!(self.top, self.code.locals.len(), "leaked temporaries");
        }
        Some(())
    }

    fn stmt(&mut self, s: &Stmt) -> Option<()> {
        match s {
            Stmt::Let { name, init, .. } => {
                // A carried local's register is its mask bit.
                let idx = self.code.locals[name].0;
                if (idx as usize) < self.code.carried {
                    // The pending (restored) value is already in the
                    // pinned register; consume the bit and skip the
                    // initialiser, exactly like `pending.remove` in the
                    // interpreter.
                    let jump = self.here();
                    self.push(TOp::JumpIfPending { idx, target: 0 });
                    self.store(name, init)?;
                    self.land(jump);
                    self.push(TOp::Declare { idx });
                } else {
                    self.store(name, init)?;
                }
            }
            Stmt::Assign { name, value } => self.store(name, value)?,
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let (c, Ty::Bool) = self.operand(cond)? else {
                    return None;
                };
                self.top = self.code.locals.len();
                let mut to_end = self.here();
                self.push(TOp::JumpIfFalse { cond: c, target: 0 });
                self.block(then_branch)?;
                if !else_branch.is_empty() {
                    let to_else = std::mem::replace(&mut to_end, self.here());
                    self.push(TOp::Jump { target: 0 });
                    self.land(to_else);
                    self.block(else_branch)?;
                }
                self.land(to_end);
            }
            Stmt::ForNeighbors { body } => {
                if std::mem::replace(&mut self.in_loop, true) {
                    return None;
                }
                self.push(TOp::LoopInit);
                let head = self.here();
                self.push(TOp::LoopHead { exit: 0 });
                self.block(body)?;
                self.push(TOp::Jump { target: head });
                self.in_loop = false;
                // Breaks in the body were lowered with their exits
                // unpatched (0 is never a loop exit: ops 0.. precede the
                // loop); fix them up now.
                self.land(head);
                for at in head + 1..self.here() {
                    if self.vm.ops[at as usize] == (TOp::Break { exit: 0 }) {
                        self.land(at);
                    }
                }
            }
            Stmt::Break => {
                self.in_loop.then_some(())?;
                self.push(TOp::Break { exit: 0 });
            }
            Stmt::Emit(e) => {
                let (src, ty) = self.operand(e)?;
                let src = match widens(self.update_ty, ty)? {
                    true => self.as_float(src, ty, 0)?,
                    false => src,
                };
                self.push(TOp::Emit(src));
                self.top = self.code.locals.len();
            }
            Stmt::Return => self.push(TOp::Halt),
            Stmt::ReceiveDepGuard => self.push(TOp::Guard),
            Stmt::EmitDep => self.push(TOp::EmitDep),
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::UdfFn;
    use crate::instrument;

    #[test]
    fn register_pressure_overflows_report() {
        // 300 distinct locals blow the u8 register file.
        let mut body: Vec<Stmt> = (0..300)
            .map(|i| Stmt::let_(&format!("x{i}"), Ty::Int, Expr::i(i)))
            .collect();
        body.push(Stmt::Emit(Expr::local("x0")));
        let udf = UdfFn::new("wide", Ty::Int, body);
        let err = compile(&instrument(&udf).unwrap()).unwrap_err();
        assert!(matches!(err, CompileError::TooManyRegisters { .. }));
        assert!(err.to_string().contains("register file"));
    }
}
