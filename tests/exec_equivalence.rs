//! Executor and dep-width equivalence: the UDF bytecode VM and the
//! certificate-narrowed dependency wire are *performance* features and
//! must be invisible to every observable the engine models.
//!
//! * **Executor axis** (`UdfExec::Interp` vs `UdfExec::Bytecode`): the
//!   register VM must be bit-identical to the tree interpreter in
//!   outputs, work counters, communication counters, *and* virtual time
//!   (including the per-category trace breakdown) at every thread count —
//!   the executor only changes host-CPU dispatch, which virtual time by
//!   design does not observe.
//! * **Dep-width axis** (`DepWidth::Wide` vs `DepWidth::Certified`):
//!   the abstract-interpretation certificate narrows carried-value wire
//!   slots and elides latched payloads, which changes *dependency bytes
//!   only*. Outputs, work counters, message counts, and the update/sync
//!   byte streams must stay bit-identical; dependency bytes may only
//!   shrink (strictly, for the kernels whose certificates actually
//!   narrow — K-core and sampling). Virtual time is free where dep
//!   bytes differ and bit-identical where they do not.
//!
//! Covered: the five paper kernels, the three scenario-matrix kernels
//! (SSSP, CC, PageRank), and the dead-break `bounded` kernel, under the
//! SympleGraph and Gemini policies, threads {1, 4, 8}, and a proptest
//! sweep over randomly generated (checked) UDFs on random graphs. The
//! random sweep doubles as the certificate *soundness* harness: in a
//! debug build every carried value written to or read from the narrowed
//! wire is checked against its certified interval and every skipped
//! segment is re-run under the no-emission latch audit; `ci.sh` runs the
//! suite under `--release` too, where only programs without a latch
//! certificate are audited.

use proptest::prelude::*;
use symplegraph::core::{
    run_spmd, DepWidth, EngineConfig, Policy, RunStats, SpanCategory, UdfExec,
};
use symplegraph::graph::{Bitmap, Graph, GraphBuilder, RmatConfig, Vid};
use symplegraph::net::CommKind;
use symplegraph::udf::{
    ast::{Expr, Stmt},
    effective_policy, instrument, paper_udfs,
    types::Ty,
    InstrumentedUdf, PropArray, PropertyStore, UdfFn, UdfProgram,
};

/// The property environment all study kernels bind against (same shapes
/// as the bench suite's carried-state study).
fn study_props(n: usize) -> PropertyStore {
    let mut props = PropertyStore::new();
    let mut frontier = Bitmap::new(n);
    let mut active = Bitmap::new(n);
    let mut assigned = Bitmap::new(n);
    for i in 0..n {
        if i % 5 == 0 {
            frontier.set(i);
        }
        if i % 3 != 0 {
            active.set(i);
        }
        if i % 4 == 0 {
            assigned.set(i);
        }
    }
    props.insert("frontier", PropArray::Bools(frontier));
    props.insert("active", PropArray::Bools(active));
    props.insert("assigned", PropArray::Bools(assigned));
    props.insert(
        "color",
        PropArray::Ints((0..n).map(|i| (i * 7 % 31) as i64).collect()),
    );
    props.insert(
        "cluster",
        PropArray::Ints((0..n).map(|i| (i % 6) as i64).collect()),
    );
    props.insert(
        "weight",
        PropArray::Floats((0..n).map(|i| (i % 9) as f64 * 0.25).collect()),
    );
    props.insert(
        "r",
        PropArray::Floats((0..n).map(|i| (i % 13) as f64).collect()),
    );
    // Scenario-matrix kernel properties (SSSP / CC / PageRank shapes).
    let mut reached = Bitmap::new(n);
    let mut changed = Bitmap::new(n);
    for i in 0..n {
        if i % 2 == 0 {
            reached.set(i);
        }
        if i % 3 != 1 {
            changed.set(i);
        }
    }
    props.insert("reached", PropArray::Bools(reached));
    props.insert("changed", PropArray::Bools(changed));
    props.insert(
        "dist",
        PropArray::Ints((0..n).map(|i| (i * 11 % 23) as i64).collect()),
    );
    props.insert(
        "w",
        PropArray::Ints((0..n).map(|i| 1 + (i % 8) as i64).collect()),
    );
    props.insert(
        "label",
        PropArray::Ints((0..n).map(|i| (i * 5 % 19) as i64).collect()),
    );
    props.insert(
        "contrib",
        PropArray::Ints((0..n).map(|i| (i % 11) as i64).collect()),
    );
    props
}

/// The bench suite's sixth kernel: a sampling-style loop whose only
/// `break` is behind a provably-false guard, so minimization drops the
/// dependency entirely.
fn bounded_udf() -> UdfFn {
    UdfFn::new(
        "bounded",
        Ty::Int,
        vec![
            Stmt::let_("dbg", Ty::Bool, Expr::b(false)),
            Stmt::let_("done", Ty::Bool, Expr::b(false)),
            Stmt::for_neighbors(vec![
                Stmt::if_(Expr::prop_u("active"), vec![Stmt::Emit(Expr::i(1))]),
                Stmt::if_(
                    Expr::local("dbg"),
                    vec![Stmt::assign("done", Expr::b(true)), Stmt::Break],
                ),
            ]),
            Stmt::if_(Expr::local("done").not(), vec![Stmt::Emit(Expr::i(0))]),
        ],
    )
}

fn kernels() -> Vec<(&'static str, UdfFn)> {
    vec![
        ("bfs", paper_udfs::bfs_udf()),
        ("mis", paper_udfs::mis_udf()),
        ("kcore", paper_udfs::kcore_udf(4)),
        ("kmeans", paper_udfs::kmeans_udf()),
        ("sampling", paper_udfs::sampling_udf()),
        ("sssp", paper_udfs::sssp_udf()),
        ("cc", paper_udfs::cc_udf()),
        ("pagerank", paper_udfs::pagerank_udf()),
        ("bounded", bounded_udf()),
    ]
}

/// Runs one instrumented kernel under `cfg`, accumulating per-vertex
/// (update count, wrapping bit-sum) as the output.
fn run_kernel(
    graph: &Graph,
    props: &PropertyStore,
    inst: &InstrumentedUdf,
    cfg: &EngineConfig,
) -> (Vec<Vec<(u64, u64)>>, RunStats) {
    let n = graph.num_vertices();
    let res = run_spmd(graph, cfg, |w| {
        let prog = UdfProgram::new(inst, props)
            .exec(cfg.udf_exec)
            .dep_width(cfg.dep_width);
        let mut dep = prog.make_dep(w.dep_slots_needed());
        let mut acc: Vec<(u64, u64)> = vec![(0, 0); n];
        let mut apply = |v: Vid, bits: u64| -> bool {
            let e = &mut acc[v.index()];
            e.0 += 1;
            e.1 = e.1.wrapping_add(bits);
            false
        };
        w.pull(&prog, &mut dep, &mut apply);
        acc
    });
    (res.outputs, res.stats)
}

#[test]
fn executors_agree_across_kernels() {
    let graph = RmatConfig::graph500(8, 8).cleaned(true).generate();
    let props = study_props(graph.num_vertices());
    for (name, udf) in kernels() {
        let inst = instrument(&udf).expect("instrumentation");
        // Every study kernel must actually take the bytecode path — a
        // silent fallback would make this whole test vacuous.
        assert!(
            UdfProgram::new(&inst, &props).uses_bytecode(),
            "{name}: fell back to the interpreter"
        );
        for policy in [
            effective_policy(&inst.info, Policy::symple()),
            Policy::Gemini,
        ] {
            for threads in [1usize, 4, 8] {
                let mk =
                    |exec: UdfExec| EngineConfig::new(4, policy).threads(threads).udf_exec(exec);
                let (out_b, st_b) = run_kernel(&graph, &props, &inst, &mk(UdfExec::Bytecode));
                let (out_i, st_i) = run_kernel(&graph, &props, &inst, &mk(UdfExec::Interp));
                // Identical in everything, always: outputs, work, comm, the
                // virtual makespan and its per-category breakdown.
                let label = format!("{name}/{policy:?}/t{threads} interp-vs-bytecode");
                assert_eq!(out_i, out_b, "{label}: outputs diverged");
                assert_eq!(st_i.work, st_b.work, "{label}: work counters diverged");
                assert_eq!(st_i.comm, st_b.comm, "{label}: comm counters diverged");
                assert_eq!(
                    st_i.time.virtual_secs, st_b.time.virtual_secs,
                    "{label}: virtual makespan diverged"
                );
                for cat in SpanCategory::ALL {
                    assert_eq!(
                        st_i.time.category(cat),
                        st_b.time.category(cat),
                        "{label}: virtual breakdown diverged in {cat:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn dep_width_narrowing_is_invisible_except_for_dep_bytes() {
    let graph = RmatConfig::graph500(8, 8).cleaned(true).generate();
    let props = study_props(graph.num_vertices());
    for (name, udf) in kernels() {
        let inst = instrument(&udf).expect("instrumentation");
        let symple = effective_policy(&inst.info, Policy::symple());
        for policy in [symple, Policy::Gemini] {
            for threads in [1usize, 4] {
                let mk = |width: DepWidth| {
                    EngineConfig::new(4, policy)
                        .threads(threads)
                        .dep_width(width)
                };
                let wide = run_kernel(&graph, &props, &inst, &mk(DepWidth::Wide));
                let cert = run_kernel(&graph, &props, &inst, &mk(DepWidth::Certified));
                let label = format!("{name}/{policy:?}/t{threads} wide-vs-certified");
                assert_eq!(wide.0, cert.0, "{label}: outputs diverged");
                assert_eq!(wide.1.work, cert.1.work, "{label}: work counters diverged");
                // The certificate only touches the dependency payload:
                // update and sync streams, and every message count, stay
                // bit-identical; dependency bytes may only shrink.
                for kind in [CommKind::Update, CommKind::Sync] {
                    assert_eq!(
                        wide.1.comm.bytes(kind),
                        cert.1.comm.bytes(kind),
                        "{label}: {kind:?} bytes diverged"
                    );
                }
                for kind in [CommKind::Update, CommKind::Dependency, CommKind::Sync] {
                    assert_eq!(
                        wide.1.comm.messages(kind),
                        cert.1.comm.messages(kind),
                        "{label}: {kind:?} message count diverged"
                    );
                }
                let dep_wide = wide.1.comm.bytes(CommKind::Dependency);
                let dep_cert = cert.1.comm.bytes(CommKind::Dependency);
                assert!(
                    dep_cert <= dep_wide,
                    "{label}: certified dep bytes {dep_cert} above wide {dep_wide}"
                );
                // K-core's counter narrows to one byte and sampling's
                // latch elides its float payload: under the dependency-
                // circulating policy the reduction must be strict.
                if matches!(name, "kcore" | "sampling") && policy != Policy::Gemini {
                    assert!(
                        dep_cert < dep_wide,
                        "{label}: expected a strict dep-byte reduction \
                         ({dep_cert} vs {dep_wide})"
                    );
                }
                // Where no byte moved, the narrowed encoding is literally
                // the wide one and even virtual time is bit-identical.
                if dep_cert == dep_wide {
                    assert_eq!(
                        wide.1.time.virtual_secs, cert.1.time.virtual_secs,
                        "{label}: equal bytes but virtual time diverged"
                    );
                }
            }
        }
    }
}

/// Knob-driven, well-typed-by-construction random UDF: an int
/// accumulator (and, for two of the step knobs, a float one fed by a
/// float or a widened int property) over a neighbour loop with an
/// optional bounded break, conditions over bool, int, float and vertex
/// properties, and an epilogue emit.
fn knob_udf(cond_prop: u8, arith: u8, emit_kind: u8, break_at: u8, use_break: bool) -> UdfFn {
    use symplegraph::udf::BinOp;
    let cond = match cond_prop % 5 {
        0 => Expr::prop_u("active"),
        1 => Expr::prop_u("flag").and(Expr::prop_u("active")),
        2 => Expr::prop_u("num").lt(Expr::prop_v("num")),
        3 => Expr::prop_u("wt").lt(Expr::prop_v("wt")),
        _ => Expr::prop_u("parent").bin(BinOp::Ne, Expr::CurrentVertex),
    };
    let step = match arith % 5 {
        0 | 3 | 4 => Expr::local("acc").add(Expr::i(1)),
        1 => Expr::local("acc").add(Expr::prop_u("num")),
        _ => Expr::local("acc").add(Expr::prop_u("num").bin(BinOp::Mul, Expr::i(3))),
    };
    // The float accumulator: `facc + wt[u]`, or `facc + num[u]` with the
    // int operand widened.
    let fstep = match arith % 5 {
        3 => Some(Expr::local("facc").add(Expr::prop_u("wt"))),
        4 => Some(Expr::local("facc").add(Expr::prop_u("num"))),
        _ => None,
    };
    // All variants are Int-typed, matching the declared update type.
    let emit = match emit_kind % 3 {
        0 => Expr::prop_u("num").add(Expr::i(1)),
        1 => Expr::local("acc"),
        _ => Expr::prop_u("num"),
    };
    let bound = Expr::i(i64::from(break_at % 7) + 1);
    let mut then_branch = vec![Stmt::assign("acc", step)];
    if let Some(fstep) = &fstep {
        then_branch.push(Stmt::assign("facc", fstep.clone()));
    }
    then_branch.push(Stmt::Emit(emit));
    if use_break {
        // Break on the float prefix sum (against an int bound, widened)
        // where there is one, on the int accumulator otherwise.
        let acc = if fstep.is_some() { "facc" } else { "acc" };
        then_branch.push(Stmt::if_(Expr::local(acc).ge(bound), vec![Stmt::Break]));
    }
    let mut body = vec![Stmt::let_("acc", Ty::Int, Expr::i(0))];
    if fstep.is_some() {
        body.push(Stmt::let_("facc", Ty::Float, Expr::f(0.0)));
    }
    body.push(Stmt::for_neighbors(vec![Stmt::if_(cond, then_branch)]));
    body.push(Stmt::Emit(Expr::local("acc")));
    UdfFn::new("rand", Ty::Int, body)
}

fn rand_props(n: usize) -> PropertyStore {
    let mut props = PropertyStore::new();
    let mut active = Bitmap::new(n);
    let mut flag = Bitmap::new(n);
    for i in 0..n {
        if i % 2 == 0 {
            active.set(i);
        }
        if i % 7 < 3 {
            flag.set(i);
        }
    }
    props.insert("active", PropArray::Bools(active));
    props.insert("flag", PropArray::Bools(flag));
    props.insert(
        "num",
        PropArray::Ints((0..n).map(|i| (i * 13 % 17) as i64).collect()),
    );
    props.insert(
        "wt",
        PropArray::Floats((0..n).map(|i| (i * 5 % 11) as f64 * 0.375).collect()),
    );
    props.insert(
        "parent",
        PropArray::Vertices((0..n).map(|i| (i * 3 % n) as u32).collect()),
    );
    props
}

fn arb_graph(max_n: usize, max_edges: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..max_edges).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (s, d) in edges {
                b.add_edge(Vid::new(s), Vid::new(d));
            }
            b.symmetrize(true).dedup(true).drop_self_loops(true).build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_checked_udfs_agree_across_executors(
        g in arb_graph(80, 250),
        (cond_prop, arith, emit_kind, break_at, use_break)
            in (0u8..5, 0u8..5, 0u8..3, 0u8..7, any::<bool>()),
        (machines, threads) in (1usize..5, 1usize..5),
    ) {
        let udf = knob_udf(cond_prop, arith, emit_kind, break_at, use_break);
        let props = rand_props(g.num_vertices());
        prop_assert!(
            symplegraph::udf::check(&udf, &props.schema()).is_ok(),
            "generated UDF must pass the checker"
        );
        let inst = instrument(&udf).expect("instrumentation");
        prop_assert!(
            UdfProgram::new(&inst, &props).uses_bytecode(),
            "generated UDF fell back to the interpreter"
        );
        let policy = effective_policy(&inst.info, Policy::symple_basic());
        let mk = |exec: UdfExec| {
            EngineConfig::new(machines, policy).threads(threads).udf_exec(exec)
        };
        let bytecode = run_kernel(&g, &props, &inst, &mk(UdfExec::Bytecode));
        let interp = run_kernel(&g, &props, &inst, &mk(UdfExec::Interp));
        prop_assert_eq!(&interp.0, &bytecode.0, "outputs diverged");
        prop_assert_eq!(interp.1.work, bytecode.1.work, "work diverged");
        prop_assert_eq!(interp.1.comm, bytecode.1.comm, "comm diverged");
        prop_assert_eq!(
            interp.1.time.virtual_secs,
            bytecode.1.time.virtual_secs,
            "virtual time diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Certificate soundness over random UDFs: (a) interval soundness —
    /// with debug assertions on, the narrowed wire codec checks every
    /// carried value it writes or reads against the certified range and
    /// panics on an escape; (b) latch soundness — the executor's audit
    /// (every guarded program in a debug build, programs without a latch
    /// certificate in release) re-runs each skipped segment and panics if
    /// it emits or scans an edge, i.e. if the skip latch un-triggered;
    /// (c) the narrowed run stays observation-equivalent to the wide one.
    #[test]
    fn random_udfs_respect_their_certificates(
        g in arb_graph(80, 250),
        (cond_prop, arith, emit_kind, break_at, use_break)
            in (0u8..5, 0u8..5, 0u8..3, 0u8..7, any::<bool>()),
        (machines, threads) in (1usize..5, 1usize..5),
    ) {
        let udf = knob_udf(cond_prop, arith, emit_kind, break_at, use_break);
        let props = rand_props(g.num_vertices());
        let inst = instrument(&udf).expect("instrumentation");
        let policy = effective_policy(&inst.info, Policy::symple_basic());
        let mk = |width: DepWidth| {
            EngineConfig::new(machines, policy)
                .threads(threads)
                .dep_width(width)
        };
        let wide = run_kernel(&g, &props, &inst, &mk(DepWidth::Wide));
        let narrow = run_kernel(&g, &props, &inst, &mk(DepWidth::Certified));
        prop_assert_eq!(&wide.0, &narrow.0, "narrowed outputs diverged");
        prop_assert_eq!(wide.1.work, narrow.1.work, "narrowed work diverged");
        prop_assert!(
            narrow.1.comm.bytes(CommKind::Dependency)
                <= wide.1.comm.bytes(CommKind::Dependency),
            "narrowing grew the dependency stream"
        );
    }
}
