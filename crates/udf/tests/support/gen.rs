//! The type-directed random generator of well-typed UDFs, and the store
//! they run against — shared by `typed_vm_differential.rs` (typed VM vs
//! interpreter), the optimiser's own property tests in `src/opt.rs` and
//! the root config fuzzer, which include this file by path.

use symple_graph::Bitmap;
use symple_udf::ast::{BinOp, Expr, Stmt, UdfFn, UnOp};
use symple_udf::types::Ty;
use symple_udf::{PropArray, PropertyStore};

/// Vertices every property array of [`store`] covers.
pub const N: usize = 24;

pub fn store() -> PropertyStore {
    store_for(N)
}

/// The arrays of [`store`] over `n` vertices (the engine only spreads a
/// graph over several machines past 64 vertices).
pub fn store_for(n: usize) -> PropertyStore {
    let mut flag = Bitmap::new(n);
    let mut live = Bitmap::new(n);
    for i in 0..n {
        if i % 3 == 1 {
            flag.set(i);
        }
        if i % 5 != 0 {
            live.set(i);
        }
    }
    let mut props = PropertyStore::new();
    props.insert("flag", PropArray::Bools(flag));
    props.insert("live", PropArray::Bools(live));
    props.insert(
        "num",
        PropArray::Ints((0..n as i64).map(|i| i * 13 % 17 - 5).collect()),
    );
    props.insert(
        "big",
        PropArray::Ints(
            (0..n as i64)
                .map(|i| [i64::MAX, i64::MIN, -1, 7][i as usize % 4].wrapping_sub(i))
                .collect(),
        ),
    );
    props.insert(
        "wt",
        PropArray::Floats((0..n).map(|i| (i % 9) as f64 * 0.25 - 0.5).collect()),
    );
    props.insert(
        "parent",
        PropArray::Vertices((0..n as u32).map(|i| i * 7 % n as u32).collect()),
    );
    props
}

const NUMERIC: [BinOp; 3] = [BinOp::Add, BinOp::Sub, BinOp::Mul];
const COMPARE: [BinOp; 6] = [
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Eq,
    BinOp::Ne,
];

/// Builds one UDF from a choice sequence; an exhausted sequence answers 0,
/// which always selects a leaf, so generation terminates.
pub struct Gen<'c> {
    choices: &'c [u32],
    at: usize,
    locals: Vec<(String, Ty)>,
    in_loop: bool,
    update_ty: Ty,
}

impl<'c> Gen<'c> {
    pub fn new(choices: &'c [u32], update_ty: Ty) -> Self {
        Gen {
            choices,
            at: 0,
            locals: Vec::new(),
            in_loop: false,
            update_ty,
        }
    }

    fn pick(&mut self, n: usize) -> usize {
        let c = self.choices.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        c as usize % n
    }

    fn one_of<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.pick(items.len())]
    }

    fn local_of(&mut self, ty: Ty) -> Option<Expr> {
        let names: Vec<String> = self
            .locals
            .iter()
            .filter(|(_, t)| *t == ty)
            .map(|(n, _)| n.clone())
            .collect();
        if names.is_empty() {
            return None;
        }
        Some(Expr::local(&names[self.pick(names.len())]))
    }

    fn vertex(&mut self, depth: u32) -> Expr {
        match self.pick(if depth == 0 { 3 } else { 4 }) {
            0 => Expr::CurrentVertex,
            1 if self.in_loop => Expr::CurrentNeighbor,
            2 => self.local_of(Ty::Vertex).unwrap_or(Expr::CurrentVertex),
            3 => Expr::prop("parent", self.vertex(depth - 1)),
            _ => Expr::CurrentVertex,
        }
    }

    fn int(&mut self, depth: u32) -> Expr {
        match self.pick(if depth == 0 { 3 } else { 6 }) {
            0 => Expr::i(self.one_of(&[0, 1, -1, 3, 1 << 40, i64::MAX, i64::MIN])),
            1 => self.local_of(Ty::Int).unwrap_or(Expr::i(2)),
            2 => {
                let array = self.one_of(&["num", "big"]);
                Expr::prop(array, self.vertex(0))
            }
            3 => Expr::Unary(UnOp::Neg, Box::new(self.int(depth - 1))),
            _ => {
                let op = self.one_of(&NUMERIC);
                self.int(depth - 1).bin(op, self.int(depth - 1))
            }
        }
    }

    /// A float expression; arithmetic takes an `int` on one side about
    /// half the time, which the language widens.
    fn float(&mut self, depth: u32) -> Expr {
        match self.pick(if depth == 0 { 3 } else { 6 }) {
            0 => Expr::f(self.one_of(&[0.0, 0.25, -1.5, 3.0, 1e300, f64::INFINITY, f64::NAN])),
            1 => self.local_of(Ty::Float).unwrap_or(Expr::f(0.5)),
            2 => Expr::prop("wt", self.vertex(0)),
            3 => Expr::Unary(UnOp::Neg, Box::new(self.float(depth - 1))),
            _ => {
                let op = self.one_of(&NUMERIC);
                let (a, b) = match self.pick(4) {
                    0 => (self.int(depth - 1), self.float(depth - 1)),
                    1 => (self.float(depth - 1), self.int(depth - 1)),
                    _ => (self.float(depth - 1), self.float(depth - 1)),
                };
                a.bin(op, b)
            }
        }
    }

    fn numeric(&mut self, depth: u32) -> Expr {
        if self.pick(2) == 0 {
            self.int(depth)
        } else {
            self.float(depth)
        }
    }

    fn bool(&mut self, depth: u32) -> Expr {
        match self.pick(if depth == 0 { 3 } else { 8 }) {
            0 => Expr::b(self.pick(2) == 1),
            1 => self.local_of(Ty::Bool).unwrap_or(Expr::b(true)),
            2 => {
                let array = self.one_of(&["flag", "live"]);
                Expr::prop(array, self.vertex(0))
            }
            3 => self.bool(depth - 1).not(),
            4 => {
                let op = self.one_of(&[BinOp::And, BinOp::Or]);
                self.bool(depth - 1).bin(op, self.bool(depth - 1))
            }
            5 => {
                let op = self.one_of(&COMPARE);
                self.vertex(1).bin(op, self.vertex(1))
            }
            6 => {
                let op = self.one_of(&COMPARE);
                self.bool(depth - 1).bin(op, self.bool(depth - 1))
            }
            // int/int, float/float and the two mixed (widened) pairs
            _ => {
                let op = self.one_of(&COMPARE);
                self.numeric(depth - 1).bin(op, self.numeric(depth - 1))
            }
        }
    }

    /// A loop-invariant expression of type `ty`: constants, `prop[v]`
    /// reads and operators over them, never `u` or a local. Floats reach
    /// `NaN` and `inf - inf`, so an invariant comparison — a scan's
    /// threshold among them — can meet a NaN.
    fn invariant(&mut self, ty: Ty, depth: u32) -> Expr {
        let leaf = depth == 0;
        match ty {
            Ty::Vertex => match self.pick(if leaf { 2 } else { 3 }) {
                0 => Expr::CurrentVertex,
                1 => Expr::prop_v("parent"),
                _ => Expr::prop("parent", self.invariant(Ty::Vertex, depth - 1)),
            },
            Ty::Int => match self.pick(if leaf { 2 } else { 4 }) {
                0 => Expr::i(self.one_of(&[0, 1, -1, 3, 1 << 40, i64::MAX])),
                1 => Expr::prop_v(self.one_of(&["num", "big"])),
                2 => Expr::Unary(UnOp::Neg, Box::new(self.invariant(Ty::Int, depth - 1))),
                _ => {
                    let op = self.one_of(&NUMERIC);
                    self.invariant(Ty::Int, depth - 1)
                        .bin(op, self.invariant(Ty::Int, depth - 1))
                }
            },
            Ty::Float => match self.pick(if leaf { 2 } else { 4 }) {
                0 => Expr::f(self.one_of(&[0.0, 0.25, -1.5, 1e300, f64::INFINITY, f64::NAN])),
                1 => Expr::prop_v("wt"),
                2 => {
                    let op = self.one_of(&NUMERIC);
                    self.invariant(Ty::Int, depth - 1)
                        .bin(op, self.invariant(Ty::Float, depth - 1))
                }
                _ => {
                    let op = self.one_of(&NUMERIC);
                    self.invariant(Ty::Float, depth - 1)
                        .bin(op, self.invariant(Ty::Float, depth - 1))
                }
            },
            Ty::Bool => match self.pick(if leaf { 2 } else { 5 }) {
                0 => Expr::b(self.pick(2) == 1),
                1 => Expr::prop_v(self.one_of(&["flag", "live"])),
                2 => self.invariant(Ty::Bool, depth - 1).not(),
                3 => {
                    let op = self.one_of(&[BinOp::And, BinOp::Or]);
                    self.invariant(Ty::Bool, depth - 1)
                        .bin(op, self.invariant(Ty::Bool, depth - 1))
                }
                _ => {
                    let op = self.one_of(&COMPARE);
                    let (lhs, rhs) = (
                        self.one_of(&[Ty::Int, Ty::Float]),
                        self.one_of(&[Ty::Int, Ty::Float]),
                    );
                    self.invariant(lhs, depth - 1)
                        .bin(op, self.invariant(rhs, depth - 1))
                }
            },
        }
    }

    /// Loop-invariant work left inside the loop, in the positions the
    /// optimiser has to tell apart: unconditional, under `if prop[u]`
    /// (where a `prop[v]` read must stay put), after an `emit`, and —
    /// whenever the local is numeric — folded into a local the loop
    /// carries from one iteration to the next.
    fn invariant_stmts(&mut self) -> Vec<Stmt> {
        let i = self.pick(self.locals.len());
        let (name, ty) = self.locals[i].clone();
        let value = self.invariant(ty, 2);
        let value = match ty {
            Ty::Int | Ty::Float => {
                let op = self.one_of(&NUMERIC);
                Expr::local(&name).bin(op, value)
            }
            Ty::Bool | Ty::Vertex => value,
        };
        let assign = Stmt::assign(&name, value);
        match self.pick(4) {
            0 => vec![assign],
            1 => {
                let array = self.one_of(&["flag", "live"]);
                vec![Stmt::if_(Expr::prop_u(array), vec![assign])]
            }
            2 => vec![self.emit(), assign],
            _ => {
                let cond = self.invariant(Ty::Bool, 2);
                vec![Stmt::if_(cond, vec![assign])]
            }
        }
    }

    fn expr(&mut self, ty: Ty, depth: u32) -> Expr {
        match ty {
            Ty::Bool => self.bool(depth),
            Ty::Int => self.int(depth),
            Ty::Float => self.float(depth),
            Ty::Vertex => self.vertex(depth),
        }
    }

    /// An update: of the declared type, or — the checker's one widening
    /// at an `emit` — an `int` for a `float` update.
    fn emit(&mut self) -> Stmt {
        if self.update_ty == Ty::Float && self.pick(4) == 0 {
            return Stmt::Emit(self.int(2));
        }
        Stmt::Emit(self.expr(self.update_ty, 2))
    }

    /// A value to store into a local of type `ty`: of that type, or — the
    /// checker's one widening at a store — an `int` for a `float` local.
    fn stored(&mut self, ty: Ty, depth: u32) -> Expr {
        if ty == Ty::Float && self.pick(4) == 0 {
            return self.int(depth);
        }
        self.expr(ty, depth)
    }

    fn assign(&mut self) -> Stmt {
        let i = self.pick(self.locals.len());
        let (name, ty) = self.locals[i].clone();
        Stmt::assign(&name, self.stored(ty, 3))
    }

    /// Loop-body statements; `break` closes a block, at any nesting depth.
    fn block(&mut self, depth: u32) -> Vec<Stmt> {
        let mut out = Vec::new();
        for _ in 0..1 + self.pick(3) {
            match self.pick(if depth == 0 { 3 } else { 5 }) {
                0 => out.push(self.assign()),
                1 => out.push(self.emit()),
                2 => out.extend(self.invariant_stmts()),
                _ => {
                    let cond = self.bool(2);
                    let then_branch = self.block(depth - 1);
                    let else_branch = if self.pick(3) == 0 {
                        self.block(depth - 1)
                    } else {
                        Vec::new()
                    };
                    out.push(Stmt::If {
                        cond,
                        then_branch,
                        else_branch,
                    });
                }
            }
        }
        if self.pick(3) == 0 {
            out.push(Stmt::Break);
        }
        out
    }

    /// A loop body whose cycle fits a shape of the VM's native scan — a
    /// filter on `u`; `acc = acc + prop[u]`; a filter, an invariant added
    /// to `acc` and a test of `acc` against an invariant; `acc + prop[u]`
    /// and that test — with the rest of the body behind the filter or the
    /// test, or one that just misses: the threshold written in the loop,
    /// the accumulator read by the filter (`flag[u] && acc < t`, or the
    /// test ahead of the sum), a second accumulation, a filter with an
    /// `else`.
    fn scan_loop(&mut self) -> Vec<Stmt> {
        let numeric: Vec<(String, Ty)> = self
            .locals
            .iter()
            .filter(|(_, ty)| matches!(ty, Ty::Int | Ty::Float))
            .cloned()
            .collect();
        if numeric.is_empty() {
            return self.block(3);
        }
        let (acc, ty) = numeric[self.pick(numeric.len())].clone();
        let flag = Expr::prop_u(self.one_of(&["flag", "live"]));
        let load = match ty {
            Ty::Int => Expr::prop_u(self.one_of(&["num", "big"])),
            _ => Expr::prop_u("wt"),
        };
        let step = self.invariant(ty, 0);
        // A local of `acc`'s type other than `acc` may stand for the
        // threshold; the body behind the test may write it.
        let local = numeric
            .iter()
            .find(|(name, t)| *t == ty && *name != acc)
            .map(|(name, _)| name.clone());
        let threshold = match (local.clone(), self.pick(2)) {
            (Some(name), 0) => Expr::local(&name),
            _ => self.invariant(ty, 1),
        };
        let op = self.one_of(&COMPARE);
        let test = Expr::local(&acc).bin(op, threshold);
        let sum = |y: Expr| Stmt::assign(&acc, Expr::local(&acc).add(y));
        let rest = self.block(2);
        match self.pick(9) {
            0 => vec![Stmt::if_(flag, rest)],
            1 if self.pick(2) == 0 => vec![sum(load)],
            1 => [vec![sum(load)], rest].concat(),
            2 => vec![Stmt::if_(flag, vec![sum(step), Stmt::if_(test, rest)])],
            3 => vec![sum(load), Stmt::if_(test, rest)],
            4 => {
                let bump = match local {
                    Some(name) => {
                        let step = self.invariant(ty, 0);
                        Stmt::assign(&name, Expr::local(&name).add(step))
                    }
                    None => self.assign(),
                };
                let rest = [vec![bump], rest].concat();
                match self.pick(2) {
                    0 => vec![sum(load), Stmt::if_(test, rest)],
                    _ => vec![Stmt::if_(flag, vec![sum(step), Stmt::if_(test, rest)])],
                }
            }
            5 => vec![Stmt::if_(flag.and(test), [vec![sum(step)], rest].concat())],
            6 => vec![Stmt::if_(test, [vec![sum(load)], rest].concat())],
            7 => {
                let (other, _) = numeric[self.pick(numeric.len())].clone();
                let second =
                    Stmt::assign(&other, Expr::local(&other).add(self.invariant(Ty::Int, 0)));
                match self.pick(2) {
                    0 => vec![sum(load), second],
                    _ => vec![sum(load), second, Stmt::if_(test, rest)],
                }
            }
            _ => {
                let else_branch = self.block(1);
                vec![Stmt::If {
                    cond: flag,
                    then_branch: rest,
                    else_branch,
                }]
            }
        }
    }

    pub fn udf(mut self) -> UdfFn {
        let mut body = Vec::new();
        for (name, ty) in [
            ("i0", Ty::Int),
            ("f0", Ty::Float),
            ("b0", Ty::Bool),
            ("v0", Ty::Vertex),
            ("i1", Ty::Int),
            ("f1", Ty::Float),
        ] {
            if self.pick(4) == 0 {
                continue; // not every program has every type
            }
            let init = self.stored(ty, 1);
            body.push(Stmt::let_(name, ty, init));
            self.locals.push((name.to_string(), ty));
        }
        if self.locals.is_empty() {
            body.push(Stmt::let_("i0", Ty::Int, Expr::i(0)));
            self.locals.push(("i0".to_string(), Ty::Int));
        }
        self.in_loop = true;
        let loop_body = match self.pick(3) {
            0 => self.scan_loop(),
            _ => self.block(3),
        };
        self.in_loop = false;
        body.push(Stmt::for_neighbors(loop_body));
        if self.pick(2) == 0 {
            body.push(self.emit());
        }
        UdfFn::new("gen", self.update_ty, body)
    }
}
