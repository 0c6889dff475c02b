//! Typed VM vs tree interpreter on randomly generated, well-typed UDFs.
//!
//! The generator is type-directed: it builds an expression *of a wanted
//! type* from a proptest-shrunk choice sequence, over all four types of
//! the language — int→float widening of arithmetic and comparison
//! operands, `i64` literals at the wrap-around extremes, short-circuit
//! `&&`/`||`, float and int locals carried across segments, vertex-typed
//! properties, locals and emits, and `break`s nested at varying depth.
//! It never stores an `int` into a `float` local (the one well-typed
//! construct the typed VM hands back to the interpreter), so every
//! generated program must bind: a silent fallback would make the
//! comparison vacuous, and the test asserts there is none.
//!
//! Each program runs vertex by vertex, each neighbour list cut into
//! segments that share one dependency slot — the way consecutive machines
//! of a circulant pass see it — once per executor. After every segment
//! the two runs must agree on the emitted words bit for bit, the
//! `SignalOutcome`, the slot's skip bit, and the `encode_range` bytes of
//! the whole dependency state; if one run panics (`NaN in comparison`
//! from an `inf - inf` the generator can produce, or a debug-build range
//! check) the other must panic with the same message at the same point.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use symple_core::{DepState, DepWidth, PullProgram, UdfExec};
use symple_graph::{Bitmap, Vid};
use symple_udf::ast::{BinOp, Expr, Stmt, UdfFn, UnOp};
use symple_udf::types::Ty;
use symple_udf::{check, instrument, instrument_naive, PropArray, PropertyStore, UdfProgram};

/// Vertices every property array covers.
const N: usize = 24;

fn store() -> PropertyStore {
    let mut flag = Bitmap::new(N);
    let mut live = Bitmap::new(N);
    for i in 0..N {
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
        PropArray::Ints((0..N as i64).map(|i| i * 13 % 17 - 5).collect()),
    );
    props.insert(
        "big",
        PropArray::Ints(
            (0..N as i64)
                .map(|i| [i64::MAX, i64::MIN, -1, 7][i as usize % 4].wrapping_sub(i))
                .collect(),
        ),
    );
    props.insert(
        "wt",
        PropArray::Floats((0..N).map(|i| (i % 9) as f64 * 0.25 - 0.5).collect()),
    );
    props.insert(
        "parent",
        PropArray::Vertices((0..N as u32).map(|i| i * 7 % N as u32).collect()),
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
struct Gen<'c> {
    choices: &'c [u32],
    at: usize,
    locals: Vec<(String, Ty)>,
    in_loop: bool,
    update_ty: Ty,
}

impl Gen<'_> {
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
            0 => Expr::f(self.one_of(&[0.0, 0.25, -1.5, 3.0, 1e300, f64::INFINITY])),
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

    fn assign(&mut self) -> Stmt {
        let i = self.pick(self.locals.len());
        let (name, ty) = self.locals[i].clone();
        Stmt::assign(&name, self.expr(ty, 3))
    }

    /// Loop-body statements; `break` closes a block, at any nesting depth.
    fn block(&mut self, depth: u32) -> Vec<Stmt> {
        let mut out = Vec::new();
        for _ in 0..1 + self.pick(3) {
            match self.pick(if depth == 0 { 2 } else { 4 }) {
                0 => out.push(self.assign()),
                1 => out.push(self.emit()),
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

    fn udf(mut self) -> UdfFn {
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
            let init = self.expr(ty, 1);
            body.push(Stmt::let_(name, ty, init));
            self.locals.push((name.to_string(), ty));
        }
        if self.locals.is_empty() {
            body.push(Stmt::let_("i0", Ty::Int, Expr::i(0)));
            self.locals.push(("i0".to_string(), Ty::Int));
        }
        self.in_loop = true;
        let loop_body = self.block(3);
        self.in_loop = false;
        body.push(Stmt::for_neighbors(loop_body));
        if self.pick(2) == 0 {
            body.push(self.emit());
        }
        UdfFn::new("gen", self.update_ty, body)
    }
}

/// What one segment did, as far as the engine can observe.
#[derive(Debug, PartialEq)]
struct Segment {
    emitted: Vec<u64>,
    edges: u64,
    broke: bool,
    skip: bool,
    wire: Vec<u8>,
}

/// Runs every vertex's segments under `exec`; returns the segments
/// completed and, if a signal call panicked, its message.
fn drive(
    prog: &UdfProgram<'_>,
    lists: &[Vec<Vec<u32>>],
    carried: bool,
) -> (Vec<Segment>, Option<String>) {
    let mut done = Vec::new();
    let slots = 3;
    let mut dep = prog.make_dep(slots);
    let result = catch_unwind(AssertUnwindSafe(|| {
        for (v, segments) in lists.iter().enumerate() {
            let slot = v % slots;
            dep.reset_range(slot..slot + 1);
            for segment in segments {
                let srcs: Vec<Vid> = segment.iter().map(|&u| Vid::new(u)).collect();
                if !carried {
                    dep.reset_range(slot..slot + 1);
                }
                let mut emitted = Vec::new();
                let out = prog.signal(
                    Vid::new(v as u32),
                    &srcs,
                    &mut dep,
                    slot,
                    carried,
                    &mut |x| emitted.push(x),
                );
                let mut wire = Vec::new();
                dep.encode_range(0..slots, &mut wire);
                done.push(Segment {
                    emitted,
                    edges: out.edges,
                    broke: out.broke,
                    skip: dep.should_skip(slot),
                    wire,
                });
            }
        }
    }));
    let panic = result.err().map(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    });
    (done, panic)
}

fn arb_lists() -> impl Strategy<Value = Vec<Vec<Vec<u32>>>> {
    let segment = proptest::collection::vec(0..N as u32, 0..6);
    let segments = proptest::collection::vec(segment, 1..4);
    proptest::collection::vec(segments, 1..N)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn typed_vm_matches_the_interpreter(
        choices in proptest::collection::vec(any::<u32>(), 0..160),
        update_ty in prop_oneof![Just(Ty::Bool), Just(Ty::Int), Just(Ty::Float), Just(Ty::Vertex)],
        naive in any::<bool>(),
        lists in arb_lists(),
    ) {
        let udf = Gen { choices: &choices, at: 0, locals: Vec::new(), in_loop: false, update_ty }
            .udf();
        let props = store();
        prop_assert!(check(&udf, &props.schema()).is_ok(), "generated UDF must pass the checker");
        let inst = if naive { instrument_naive(&udf) } else { instrument(&udf) }
            .expect("instrumentation");
        for width in [DepWidth::Wide, DepWidth::Certified] {
            let vm = UdfProgram::new(&inst, &props).dep_width(width);
            prop_assert!(vm.uses_bytecode(), "a generated program fell back to the interpreter");
            let interp = UdfProgram::new(&inst, &props).exec(UdfExec::Interp).dep_width(width);
            prop_assert!(!interp.uses_bytecode());
            for carried in [true, false] {
                let (got, got_panic) = drive(&vm, &lists, carried);
                let (want, want_panic) = drive(&interp, &lists, carried);
                prop_assert_eq!(&got, &want, "segments diverged ({:?}, carried {})", width, carried);
                prop_assert_eq!(got_panic, want_panic, "panics diverged");
            }
        }
    }
}

#[test]
fn nan_comparison_panics_identically() {
    // acc = (acc + inf) - inf is NaN on the first edge whatever value the
    // dependency slot restored, then `acc >= wt[v]` compares it.
    let udf = UdfFn::new(
        "nan",
        Ty::Vertex,
        vec![
            Stmt::let_("acc", Ty::Float, Expr::f(0.0)),
            Stmt::for_neighbors(vec![
                Stmt::assign(
                    "acc",
                    Expr::local("acc")
                        .add(Expr::f(f64::INFINITY))
                        .bin(BinOp::Sub, Expr::f(f64::INFINITY)),
                ),
                Stmt::if_(
                    Expr::local("acc").ge(Expr::prop_v("wt")),
                    vec![Stmt::Emit(Expr::CurrentNeighbor), Stmt::Break],
                ),
            ]),
        ],
    );
    let props = store();
    check(&udf, &props.schema()).unwrap();
    let inst = instrument(&udf).unwrap();
    let lists = vec![vec![vec![1, 2]]];
    for exec in [UdfExec::Bytecode, UdfExec::Interp] {
        let prog = UdfProgram::new(&inst, &props).exec(exec);
        assert_eq!(prog.uses_bytecode(), exec == UdfExec::Bytecode);
        let (done, panic) = drive(&prog, &lists, true);
        assert!(done.is_empty(), "{done:?} {panic:?}");
        assert_eq!(panic.as_deref(), Some("NaN in comparison"), "{exec:?}");
    }
}

#[test]
fn generator_reaches_every_type_and_construct() {
    // The differential test is only as good as its generator: over a
    // fixed batch of choice sequences it must produce carried floats and
    // ints, widened comparisons, vertex emits and nested breaks.
    let props = store();
    let (mut float_carried, mut int_carried, mut vertex_update, mut breaks) = (0, 0, 0, 0);
    let mut x = 0x9E37_79B9u32;
    for case in 0..400u32 {
        let choices: Vec<u32> = (0..160)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                x >> 8
            })
            .collect();
        let update_ty = [Ty::Bool, Ty::Int, Ty::Float, Ty::Vertex][case as usize % 4];
        let udf = Gen {
            choices: &choices,
            at: 0,
            locals: Vec::new(),
            in_loop: false,
            update_ty,
        }
        .udf();
        check(&udf, &props.schema()).expect("generated UDF must pass the checker");
        let inst = instrument(&udf).unwrap();
        assert!(UdfProgram::new(&inst, &props).uses_bytecode());
        float_carried += usize::from(inst.info.carried.iter().any(|(_, t)| *t == Ty::Float));
        int_carried += usize::from(inst.info.carried.iter().any(|(_, t)| *t == Ty::Int));
        vertex_update += usize::from(update_ty == Ty::Vertex);
        breaks += usize::from(inst.info.has_dependency());
    }
    assert!(float_carried > 20, "float carried locals: {float_carried}");
    assert!(int_carried > 20, "int carried locals: {int_carried}");
    assert!(
        vertex_update > 20 && breaks > 100,
        "{vertex_update} {breaks}"
    );
}
