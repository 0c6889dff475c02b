//! Lowering a UDF against a property store: the typed program it
//! produces, and the stores and programs it must hand back to the
//! interpreter instead of mis-executing.

use symple_core::{PullProgram, UdfExec};
use symple_graph::{Bitmap, Vid};
use symple_udf::ast::{BinOp, Expr, Stmt, UdfFn};
use symple_udf::types::Ty;
use symple_udf::{instrument, paper_udfs, InstrumentedUdf, PropArray, PropertyStore, UdfProgram};

#[path = "support/listing.rs"]
mod listing;
use listing::field;

fn sampling_store(weight: PropArray) -> PropertyStore {
    let mut props = PropertyStore::new();
    props.insert("weight", weight);
    props.insert("r", PropArray::Floats(vec![4.5; 8]));
    props
}

/// Emissions and outcome of one scratch-mode signal over `srcs`.
fn signal(prog: &UdfProgram<'_>, srcs: &[u32]) -> (Vec<u64>, u64, bool) {
    let srcs: Vec<Vid> = srcs.iter().map(|&u| Vid::new(u)).collect();
    let mut dep = prog.make_dep(1);
    let mut got = Vec::new();
    let out = prog.signal(Vid::new(0), &srcs, &mut dep, 0, false, &mut |x| got.push(x));
    (got, out.edges, out.broke)
}

fn both(inst: &InstrumentedUdf, props: &PropertyStore, srcs: &[u32]) -> (Vec<u64>, u64, bool) {
    let interp = signal(&UdfProgram::new(inst, props).exec(UdfExec::Interp), srcs);
    assert_eq!(signal(&UdfProgram::new(inst, props), srcs), interp);
    interp
}

/// A store holding every array the eight paper UDFs read, at the types
/// their sources assume.
fn paper_store() -> PropertyStore {
    let mut props = sampling_store(PropArray::Floats(vec![1.0; 8]));
    for name in ["frontier", "active", "assigned", "reached", "changed"] {
        props.insert(name, PropArray::Bools(Bitmap::new(8)));
    }
    for name in ["color", "cluster", "dist", "w", "label", "contrib"] {
        props.insert(name, PropArray::Ints(vec![1; 8]));
    }
    props
}

fn paper_udfs() -> [(&'static str, UdfFn); 8] {
    [
        ("bfs", paper_udfs::bfs_udf()),
        ("mis", paper_udfs::mis_udf()),
        ("kcore", paper_udfs::kcore_udf(4)),
        ("kmeans", paper_udfs::kmeans_udf()),
        ("sampling", paper_udfs::sampling_udf()),
        ("sssp", paper_udfs::sssp_udf()),
        ("cc", paper_udfs::cc_udf()),
        ("pagerank", paper_udfs::pagerank_udf()),
    ]
}

/// The program each paper UDF runs as, op for op: `tests/listings/` holds
/// what `UdfProgram::disassemble` prints. A change to the optimiser or the
/// lowering shows up here as a diff to review: run the test with
/// `BLESS_LISTINGS=1` to rewrite the files, then read `git diff`.
#[test]
fn paper_udf_listings() {
    let props = paper_store();
    for (name, udf) in paper_udfs() {
        let inst = instrument(&udf).unwrap();
        let listing = UdfProgram::new(&inst, &props).disassemble().unwrap();
        let path = format!("{}/tests/listings/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        if std::env::var_os("BLESS_LISTINGS").is_some() {
            std::fs::write(&path, &listing).unwrap();
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_default();
        assert_eq!(listing, golden, "{name}: typed program differs from {path}");
    }
    let inst = instrument(&paper_udfs::sampling_udf()).unwrap();
    assert!(UdfProgram::new(&inst, &props)
        .exec(UdfExec::Interp)
        .disassemble()
        .is_none());
}

/// The ops of a listing's (one) loop that dispatch: those between the
/// first loop test — or, under a scan, the ops it leaves for — and the
/// bottom test from which control can come back to the bottom test. The
/// ops of a `break` path lie there too but run once per call.
fn natural_loop(listing: &str) -> Vec<&str> {
    let ops = listing::ops(listing);
    let enter = ops
        .iter()
        .position(|op| op.starts_with("LoopEnter"))
        .unwrap();
    let bottom = field(ops[enter], "exit: ").unwrap() - 1;
    let start = match listing::scan(listing, ops[bottom]) {
        Some(scan) => field(scan, "found: ").unwrap(),
        None => field(ops[bottom], "body: ").unwrap(),
    };
    // Jumps in a body go forward, so one backward sweep settles it.
    let mut returns = vec![false; ops.len()];
    returns[bottom] = true;
    for pc in (start..bottom).rev() {
        let op = ops[pc];
        let leaves = ["Jump {", "Break", "Halt"]
            .iter()
            .any(|l| op.starts_with(l));
        // `JumpUnlessLtI(a, b, target)` is the one tuple-shaped branch.
        let target = field(op, "target: ").or(field(op, "exit: ")).or_else(|| {
            let last = op.strip_prefix("JumpUnless")?.rsplit(", ").next()?;
            last.trim_end_matches(')').parse().ok()
        });
        returns[pc] =
            (!leaves && returns[pc + 1]) || target.is_some_and(|t| t <= bottom && returns[t]);
    }
    (start..bottom)
        .filter(|&pc| returns[pc])
        .map(|pc| ops[pc])
        .collect()
}

/// Ops dispatched per edge are the VM's unit of cost, so the loops of the
/// paper UDFs are held to a budget. Each loop test is a native scan: for
/// BFS, k-means, PageRank, sampling and K-core it covers the whole cycle,
/// so an edge that stays in the loop dispatches nothing; for MIS, CC and
/// SSSP it covers the filter, and an edge the filter passes dispatches
/// the rest of the body, the scan it comes back to included (5, 7, 12).
/// Before the scans those loops dispatched 2, 2, 2, 3, 4, 6, 8 and 13 ops
/// per edge, and the lowering alone leaves 5, 5, 5, 9, 10, 12, 15 and 18.
/// Beyond the count, nothing loop-invariant and no unconditional jump may
/// be left where an edge dispatches.
#[test]
fn loop_budget() {
    let props = paper_store();
    for (name, udf) in paper_udfs() {
        let inst = instrument(&udf).unwrap();
        let prog = UdfProgram::new(&inst, &props);
        let listing = prog.disassemble().unwrap();
        let [cost] = prog.loop_ops().unwrap()[..] else {
            panic!("{name}: one loop\n{listing}");
        };
        assert!(cost.scan, "{name}: the loop is not a scan\n{listing}");
        let (budget, scanned) = match name {
            "bfs" | "kmeans" => (0, "filter"),
            "pagerank" => (0, "add"),
            "sampling" => (0, "test"),
            "kcore" => (0, "filter + test"),
            "mis" => (5, "filter"),
            "cc" => (7, "filter"),
            "sssp" => (12, "filter"),
            other => panic!("no budget for {other}"),
        };
        assert!(
            cost.per_edge <= budget,
            "{name}: {} ops per edge past the scan, budget {budget}",
            cost.per_edge
        );
        let scan = listing::scan(&listing, "Scan { desc: 0 }").unwrap();
        for part in scanned.split(" + ") {
            let none = format!("{part}: None");
            assert!(!scan.contains(&none), "{name}: scans no {part}: {scan}");
        }
        for op in natural_loop(&listing) {
            assert!(
                !["Const", "LoadV", "Jump {", "LoopHead"]
                    .iter()
                    .any(|left| op.starts_with(left)),
                "{name}: `{op}` inside the loop\n{listing}"
            );
        }
    }
}

#[test]
fn int_array_as_an_arithmetic_operand_is_widened_in_place() {
    // `acc + weight[u]` with `weight` bound to integers: the language
    // widens the operand, so the typed program does too — an `I2F` into a
    // scratch register above the program's own, then the float add.
    let inst = instrument(&paper_udfs::sampling_udf()).unwrap();
    let props = sampling_store(PropArray::Ints(vec![1, 2, 3, 4, 5, 6, 7, 8]));
    let prog = UdfProgram::new(&inst, &props);
    assert!(prog.uses_bytecode());
    let listing = prog.disassemble().unwrap();
    assert!(
        listing.contains("NextLoadPropI { dst: 1, prop: 0, body: 8 }"),
        "{listing}"
    );
    assert!(
        listing.contains("I2F(5, 1)") && listing.contains("AddF(0, 0, 5)"),
        "{listing}"
    );
    // The widening between the load and the add is no op a scan runs:
    // this loop keeps its dispatched test.
    assert!(!listing.contains("Scan"), "{listing}");
    // 2 + 3 = 5 >= 4.5 at the second neighbour.
    assert_eq!(both(&inst, &props, &[1, 2, 3]), (vec![2], 2, true));
}

#[test]
fn int_array_stored_into_a_float_local_is_widened_at_the_store() {
    // The source says `float w = weight[u]`; the store holds integers.
    // Both executors widen where the value is stored, so `w` holds a float
    // and the float update carries its bits.
    let udf = UdfFn::new(
        "widened",
        Ty::Float,
        vec![Stmt::for_neighbors(vec![
            Stmt::let_("w", Ty::Float, Expr::prop_u("weight")),
            Stmt::Emit(Expr::local("w")),
        ])],
    );
    let inst = instrument(&udf).unwrap();
    let ints = sampling_store(PropArray::Ints(vec![10, 11, 12, 13, 14, 15, 16, 17]));
    let listing = UdfProgram::new(&inst, &ints).disassemble().unwrap();
    assert!(listing.contains("I2F(0, 0)"), "{listing}");
    assert_eq!(
        both(&inst, &ints, &[3, 5]),
        (vec![13f64.to_bits(), 15f64.to_bits()], 2, false)
    );
    // Against the array type it was written for, nothing is widened.
    let floats = sampling_store(PropArray::Floats(vec![0.5; 8]));
    assert!(UdfProgram::new(&inst, &floats).uses_bytecode());
    assert_eq!(both(&inst, &floats, &[3, 5]).0, [0.5f64.to_bits(); 2]);
}

#[test]
fn bool_array_read_as_a_number_falls_back() {
    let inst = instrument(&paper_udfs::sampling_udf()).unwrap();
    let props = sampling_store(PropArray::Bools(Bitmap::new(8)));
    let prog = UdfProgram::new(&inst, &props);
    assert!(!prog.uses_bytecode());
    // No neighbours, no read: the interpreter types lazily.
    assert_eq!(signal(&prog, &[]), (vec![], 0, false));
}

#[test]
#[should_panic(expected = "expected float, got Bool")]
fn bool_array_read_as_a_number_panics_as_before() {
    let inst = instrument(&paper_udfs::sampling_udf()).unwrap();
    let props = sampling_store(PropArray::Bools(Bitmap::new(8)));
    signal(&UdfProgram::new(&inst, &props), &[1]);
}

#[test]
fn missing_property_falls_back() {
    let inst = instrument(&paper_udfs::sampling_udf()).unwrap();
    let mut props = PropertyStore::new();
    props.insert("weight", PropArray::Floats(vec![1.0; 8]));
    let prog = UdfProgram::new(&inst, &props);
    assert!(!prog.uses_bytecode());
    // `exec(Bytecode)` is the executor already in effect: still the
    // fallback, and no second attempt changes that.
    assert!(!prog.exec(UdfExec::Bytecode).uses_bytecode());
}

#[test]
fn executor_can_be_switched_back() {
    let inst = instrument(&paper_udfs::bfs_udf()).unwrap();
    let mut props = PropertyStore::new();
    props.insert("frontier", PropArray::Bools(Bitmap::new(4)));
    let prog = UdfProgram::new(&inst, &props).exec(UdfExec::Interp);
    assert!(!prog.uses_bytecode());
    assert!(prog.exec(UdfExec::Bytecode).uses_bytecode());
}

/// Programs the checker rejects must not bind either: the typed VM has no
/// dynamic check left to catch them.
#[test]
fn unchecked_programs_do_not_bind() {
    let props = sampling_store(PropArray::Floats(vec![1.0; 8]));
    let bad: Vec<(&str, Vec<Stmt>)> = vec![
        // One branch of the short-circuit leaves a bool in the result
        // register, the other an int.
        (
            "join",
            vec![
                Stmt::let_("x", Ty::Int, Expr::b(false).and(Expr::i(5))),
                Stmt::Emit(Expr::local("x")),
            ],
        ),
        (
            "int condition",
            vec![Stmt::if_(Expr::i(1), vec![Stmt::Emit(Expr::i(1))])],
        ),
        (
            "u outside the loop",
            vec![Stmt::Emit(Expr::prop_u("weight"))],
        ),
        ("break outside the loop", vec![Stmt::Break]),
        ("undeclared local", vec![Stmt::assign("y", Expr::i(1))]),
        (
            "local declared at two types",
            vec![
                Stmt::let_("z", Ty::Int, Expr::i(1)),
                Stmt::let_("z", Ty::Bool, Expr::b(true)),
            ],
        ),
        (
            "float index",
            vec![Stmt::Emit(Expr::prop("weight", Expr::f(1.0)))],
        ),
        (
            "vertex arithmetic",
            vec![Stmt::Emit(Expr::CurrentVertex.add(Expr::i(1)))],
        ),
        (
            "bool compared with int",
            vec![Stmt::if_(Expr::b(true).lt(Expr::i(1)), vec![])],
        ),
        (
            "negated bool",
            vec![Stmt::Emit(Expr::Unary(
                symple_udf::UnOp::Neg,
                Box::new(Expr::b(true)),
            ))],
        ),
    ];
    for (what, body) in bad {
        let udf = UdfFn::new("bad", Ty::Int, body);
        assert!(
            symple_udf::check(&udf, &props.schema()).is_err(),
            "{what}: the checker accepts this"
        );
        let inst = instrument(&udf).unwrap();
        assert!(!UdfProgram::new(&inst, &props).uses_bytecode(), "{what}");
    }
}

#[test]
fn programs_past_the_small_register_file_run_on_the_large_one() {
    // 40 locals: more registers than the 16-entry file most programs use.
    let mut body: Vec<Stmt> = (0..40)
        .map(|i| Stmt::let_(&format!("x{i}"), Ty::Int, Expr::i(i)))
        .collect();
    let sum = (1..40).fold(Expr::local("x0"), |acc, i| {
        acc.add(Expr::local(&format!("x{i}")))
    });
    body.push(Stmt::for_neighbors(vec![Stmt::assign(
        "x39",
        Expr::local("x39").bin(BinOp::Mul, Expr::i(2)),
    )]));
    body.push(Stmt::Emit(sum));
    let inst = instrument(&UdfFn::new("wide", Ty::Int, body)).unwrap();
    let props = PropertyStore::new();
    assert!(UdfProgram::new(&inst, &props).uses_bytecode());
    let expect = (0..39).sum::<i64>() + 39 * 8;
    assert_eq!(
        both(&inst, &props, &[1, 2, 3]),
        (vec![expect as u64], 3, false)
    );
}

#[test]
#[should_panic(expected = "active predicate: unknown property `visited`")]
fn active_predicate_on_a_missing_property_is_reported_once_up_front() {
    let inst = instrument(&paper_udfs::bfs_udf()).unwrap();
    let props = PropertyStore::new();
    let _ = UdfProgram::new(&inst, &props).active_when("visited", false);
}

#[test]
#[should_panic(expected = "active predicate: property `weight` is float, not bool")]
fn active_predicate_on_a_non_bool_property_is_reported_once_up_front() {
    let inst = instrument(&paper_udfs::sampling_udf()).unwrap();
    let props = sampling_store(PropArray::Floats(vec![1.0; 8]));
    let _ = UdfProgram::new(&inst, &props).active_when("weight", true);
}
