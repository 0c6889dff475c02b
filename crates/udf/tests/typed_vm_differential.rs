//! Typed VM vs tree interpreter on randomly generated, well-typed UDFs.
//!
//! The generator is type-directed: it builds an expression *of a wanted
//! type* from a proptest-shrunk choice sequence, over all four types of
//! the language — int→float widening of arithmetic and comparison
//! operands, `i64` literals at the wrap-around extremes, short-circuit
//! `&&`/`||`, float and int locals carried across segments, vertex-typed
//! properties, locals and emits, and `break`s nested at varying depth.
//! It also leaves loop-invariant work inside the loop — `prop[v]` reads
//! and constant subexpressions, unconditional, under `if prop[u]`, after
//! an `emit`, folded into a carried local — because what runs is the
//! *optimised* typed program ([`UdfProgram::disassemble`]), and hoisting,
//! fusing and threading must each be seen to fire and to be refused.
//! It stores an `int` into a `float` local now and then, at a `let`, an
//! assignment or an `emit` — the language widens there, in both
//! executors. Every generated program must bind: a silent fallback would
//! make the comparison vacuous, and the test asserts there is none.
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
use symple_graph::Vid;
use symple_udf::ast::{BinOp, Expr, Stmt, UdfFn};
use symple_udf::types::Ty;
use symple_udf::{check, instrument, instrument_naive, PropArray, PropertyStore, UdfProgram};

#[path = "support/gen.rs"]
mod gen;
#[path = "support/listing.rs"]
mod listing;
use gen::{store, Gen, N};
use listing::field;

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
        let udf = Gen::new(&choices, update_ty).udf();
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
    let mut census = Census::default();
    let mut x = 0x9E37_79B9u32;
    for case in 0..400u32 {
        let choices: Vec<u32> = (0..160)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                x >> 8
            })
            .collect();
        let update_ty = [Ty::Bool, Ty::Int, Ty::Float, Ty::Vertex][case as usize % 4];
        let udf = Gen::new(&choices, update_ty).udf();
        check(&udf, &props.schema()).expect("generated UDF must pass the checker");
        let inst = instrument(&udf).unwrap();
        let listing = UdfProgram::new(&inst, &props)
            .disassemble()
            .expect("a generated program fell back to the interpreter");
        census.count(&listing);
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
    // ... and the programs that ran must show every transformation of the
    // optimiser both applied and refused, or the comparison says nothing
    // about one side of it.
    for (what, seen) in census.report() {
        assert!(seen > 0, "no generated program shows: {what} ({census:?})");
    }
}

/// What the listings of a batch of bound programs show of the optimiser.
#[derive(Debug, Default)]
struct Census {
    hoisted: usize,
    invariant_left_in_loop: usize,
    conditional_prop_v_left_in_loop: usize,
    next_fused: usize,
    next_plain: usize,
    compare_fused: usize,
    compare_unfused: usize,
    threaded_to_the_loop_test: usize,
    widened_store: usize,
}

impl Census {
    fn count(&mut self, listing: &str) {
        let ops = listing::ops(listing);
        let is = |at: usize, names: &[&str]| names.iter().any(|n| ops[at].starts_with(n));
        const COMPARE: [&str; 12] = [
            "LtI(", "LeI(", "GtI(", "GeI(", "EqI(", "NeI(", "LtF(", "LeF(", "GtF(", "GeF(", "EqF(",
            "NeF(",
        ];
        for at in 0..ops.len() {
            self.compare_fused += usize::from(is(at, &["JumpUnless", "JumpIfPropB"]));
            // A store widens in place, an operand into a scratch register.
            let i2f = ops[at].strip_prefix("I2F(");
            self.widened_store += usize::from(i2f.is_some_and(|r| field(r, "") == field(r, ", ")));
            if at > 0 && is(at, &["JumpIfFalse", "JumpIfTrue"]) && is(at - 1, &COMPARE) {
                let cond = field(ops[at], "cond: ");
                self.compare_unfused += usize::from(field(ops[at - 1], "(") == cond);
            }
            let Some(exit) = field(ops[at], "LoopEnter { exit: ") else {
                continue;
            };
            let bottom = exit - 1;
            let Some(body) = field(ops[bottom], "body: ") else {
                continue; // a loop that always breaks lost its bottom test
            };
            self.next_fused += usize::from(is(bottom, &["NextU", "NextLoadProp"]));
            self.next_plain += usize::from(is(bottom, &["LoopNext"]));
            let preheader = at + 1..body - 1;
            self.hoisted += usize::from(!preheader.is_empty());
            for pc in body..bottom {
                self.invariant_left_in_loop += usize::from(is(pc, &["Const", "LoadV"]));
                self.threaded_to_the_loop_test += usize::from(
                    is(pc, &["Jump"])
                        && field(ops[pc], "target: ").or(field(ops[pc], ", ")) == Some(bottom),
                );
                if let (true, Some(idx)) = (is(pc, &["LoadProp"]), field(ops[pc], "idx: ")) {
                    let v = format!("LoadV({idx})");
                    self.conditional_prop_v_left_in_loop +=
                        usize::from(preheader.clone().any(|pre| ops[pre] == v));
                }
            }
        }
    }

    fn report(&self) -> [(&'static str, usize); 9] {
        [
            ("an op hoisted into a preheader", self.hoisted),
            (
                "a constant or `v` left in the loop",
                self.invariant_left_in_loop,
            ),
            (
                "a conditional `prop[v]` read left in the loop",
                self.conditional_prop_v_left_in_loop,
            ),
            ("a fused next-neighbour load", self.next_fused),
            ("a plain loop test", self.next_plain),
            ("a fused compare-and-branch", self.compare_fused),
            (
                "a comparison kept apart from its branch",
                self.compare_unfused,
            ),
            (
                "a branch threaded to the loop test",
                self.threaded_to_the_loop_test,
            ),
            (
                "an `int` widened where a `float` local stores it",
                self.widened_store,
            ),
        ]
    }
}

/// Both executors over `lists` on one slot history; they must agree on
/// every completed segment and on the panic that ended the run, if any.
/// Returns the number of completed segments and that panic.
fn agree(udf: &UdfFn, props: &PropertyStore, lists: &[Vec<Vec<u32>>]) -> (usize, Option<String>) {
    let inst = instrument(udf).unwrap();
    let vm = UdfProgram::new(&inst, props);
    assert!(vm.uses_bytecode());
    let interp = UdfProgram::new(&inst, props).exec(UdfExec::Interp);
    let mut outcome = None;
    for carried in [true, false] {
        let (got, got_panic) = drive(&vm, lists, carried);
        let (want, want_panic) = drive(&interp, lists, carried);
        assert_eq!(got, want, "carried {carried}");
        assert_eq!(got_panic, want_panic, "carried {carried}");
        outcome = Some((got.len(), got_panic));
    }
    outcome.unwrap()
}

/// `short` covers vertices 0..4 only; everything else is [`store`].
fn store_with_short_array() -> PropertyStore {
    let mut props = store();
    props.insert("short", PropArray::Floats(vec![0.5; 4]));
    props
}

/// `for u { acc = acc + short[v]; if flag[u] { emit(u); break; } }`:
/// the read of `short[v]` is hoisted, and out of range for `v >= 4`.
fn hoisted_short_read() -> UdfFn {
    UdfFn::new(
        "short",
        Ty::Vertex,
        vec![
            Stmt::let_("acc", Ty::Float, Expr::f(0.0)),
            Stmt::for_neighbors(vec![
                Stmt::assign("acc", Expr::local("acc").add(Expr::prop_v("short"))),
                Stmt::if_(
                    Expr::prop_u("flag"),
                    vec![Stmt::Emit(Expr::CurrentNeighbor), Stmt::Break],
                ),
            ]),
        ],
    )
}

#[test]
fn a_hoisted_read_does_not_run_on_a_zero_trip_list() {
    let props = store_with_short_array();
    let udf = hoisted_short_read();
    let listing = UdfProgram::new(&instrument(&udf).unwrap(), &props)
        .disassemble()
        .unwrap();
    let (enter, load) = (
        listing.find("LoopEnter").unwrap(),
        listing.find("LoadPropF").unwrap(),
    );
    assert!(
        enter < load && load < listing.find("LoopNext").unwrap(),
        "short[v] is not in the preheader:\n{listing}"
    );
    // Vertex 9 is past the end of `short`. Its first two segments are
    // empty: no read, no panic, in either executor. The third reads.
    let lists: Vec<Vec<Vec<u32>>> = (0..10)
        .map(|v| match v {
            9 => vec![vec![], vec![], vec![2, 3]],
            _ => vec![vec![]],
        })
        .collect();
    let (done, panic) = agree(&udf, &props, &lists);
    assert_eq!(done, 9 + 2, "{panic:?}");
    assert!(panic.unwrap().contains("index out of bounds"));
    // In range, the same lists run to the end.
    assert_eq!(agree(&udf, &props, &lists[..4]), (4, None));
}

#[test]
fn a_hoisted_read_does_not_run_when_the_guard_skips() {
    let props = store_with_short_array();
    let inst = instrument(&hoisted_short_read()).unwrap();
    for exec in [UdfExec::Bytecode, UdfExec::Interp] {
        let prog = UdfProgram::new(&inst, &props).exec(exec);
        let mut dep = prog.make_dep(1);
        dep.mark(0); // an earlier machine broke
        let srcs = [Vid::new(1), Vid::new(2)];
        let mut emitted = Vec::new();
        let out = prog.signal(Vid::new(9), &srcs, &mut dep, 0, true, &mut |x| {
            emitted.push(x)
        });
        assert_eq!(
            (out.edges, out.broke, emitted.len()),
            (0, false, 0),
            "{exec:?}"
        );
    }
}

#[test]
fn a_conditional_read_panics_only_where_the_loop_reaches_it() {
    // `for u { if flag[u] { acc = acc + short[v]; } }`: not hoisted, so a
    // vertex past the end of `short` is harmless until a neighbour has its
    // flag set (vertices 1, 4, 7, ... do).
    let udf = UdfFn::new(
        "conditional",
        Ty::Float,
        vec![
            Stmt::let_("acc", Ty::Float, Expr::f(0.0)),
            Stmt::for_neighbors(vec![Stmt::if_(
                Expr::prop_u("flag"),
                vec![Stmt::assign(
                    "acc",
                    Expr::local("acc").add(Expr::prop_v("short")),
                )],
            )]),
            Stmt::Emit(Expr::local("acc")),
        ],
    );
    let props = store_with_short_array();
    let lists = |last: Vec<u32>| -> Vec<Vec<Vec<u32>>> {
        (0..10)
            .map(|v| {
                if v == 9 {
                    vec![vec![0, 2], last.clone()]
                } else {
                    vec![vec![0]]
                }
            })
            .collect()
    };
    assert_eq!(agree(&udf, &props, &lists(vec![3, 5])), (9 + 2, None));
    let (done, panic) = agree(&udf, &props, &lists(vec![3, 4]));
    assert_eq!(done, 9 + 1);
    assert!(panic.unwrap().contains("index out of bounds"));
}

#[test]
fn an_invariant_nan_comparison_panics_in_the_call_that_evaluates_it() {
    // `inf - inf < wt[v]` does not depend on the neighbour: the compare
    // moves to the preheader when every iteration evaluates it, and stays
    // where it is under `if flag[u]`.
    let nan = || Expr::f(f64::INFINITY).bin(BinOp::Sub, Expr::f(f64::INFINITY));
    let test = |conditional: bool| {
        let compare = Stmt::if_(
            nan().lt(Expr::prop_v("wt")),
            vec![Stmt::assign("n", Expr::local("n").add(Expr::i(1)))],
        );
        let body = if conditional {
            vec![Stmt::if_(Expr::prop_u("flag"), vec![compare])]
        } else {
            vec![compare]
        };
        UdfFn::new(
            "nan",
            Ty::Int,
            vec![
                Stmt::let_("n", Ty::Int, Expr::i(0)),
                Stmt::for_neighbors(body),
                Stmt::Emit(Expr::local("n")),
            ],
        )
    };
    let props = store();
    // No edge, no comparison; the first edge of vertex 1 meets it.
    let lists = vec![vec![vec![], vec![]], vec![vec![], vec![0, 2], vec![1]]];
    let (done, panic) = agree(&test(false), &props, &lists);
    assert_eq!((done, panic.as_deref()), (3, Some("NaN in comparison")));
    // Under `if flag[u]` it waits for neighbour 1, the first with the flag.
    let (done, panic) = agree(&test(true), &props, &lists);
    assert_eq!((done, panic.as_deref()), (4, Some("NaN in comparison")));
}

#[test]
fn a_second_loop_and_a_loop_under_an_if_agree() {
    // The generator writes one loop per program; the language allows
    // more. Each is rotated and gets a preheader of its own (`num[v]` is
    // hoisted twice), the second starts over on the neighbour list, and
    // the edge count is what both consumed.
    let udf = UdfFn::new(
        "twice",
        Ty::Int,
        vec![
            Stmt::let_("n", Ty::Int, Expr::i(0)),
            Stmt::for_neighbors(vec![
                Stmt::assign("n", Expr::local("n").add(Expr::prop_v("num"))),
                Stmt::if_(Expr::prop_u("flag"), vec![Stmt::Break]),
            ]),
            Stmt::if_(
                Expr::local("n").lt(Expr::i(9)),
                vec![Stmt::for_neighbors(vec![Stmt::if_(
                    Expr::prop_u("live"),
                    vec![Stmt::assign(
                        "n",
                        Expr::local("n")
                            .add(Expr::prop_u("num").bin(BinOp::Mul, Expr::prop_v("num"))),
                    )],
                )])],
            ),
            Stmt::Emit(Expr::local("n")),
        ],
    );
    let props = store();
    check(&udf, &props.schema()).unwrap();
    let listing = UdfProgram::new(&instrument(&udf).unwrap(), &props)
        .disassemble()
        .unwrap();
    assert_eq!(listing.matches("LoopEnter").count(), 2, "{listing}");
    assert_eq!(listing.matches("LoadV").count(), 2, "{listing}");
    let lists: Vec<Vec<Vec<u32>>> = (0..N as u32)
        .map(|v| vec![vec![], vec![v, 2, 3], vec![(v + 1) % N as u32, 0, 5, 6]])
        .collect();
    assert_eq!(agree(&udf, &props, &lists), (3 * N, None));
}
