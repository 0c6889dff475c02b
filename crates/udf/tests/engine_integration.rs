//! End-to-end equivalence: analyzed + instrumented UDFs, executed by the
//! interpreter on the distributed engine, must match the hand-written
//! native programs *exactly* — same outputs, same number of traversed
//! edges, same skip behaviour. This is the paper's §4.3 claim that the
//! automatic instrumentation loses nothing against manual optimisation
//! (modulo constant-factor interpretation overhead, which is not
//! measured here).

use symple_algos::bfs::{BfsPull, NONE};
use symple_core::{run_spmd, BitDep, EngineConfig, Policy, PullProgram, RunStats, UdfExec, Worker};
use symple_graph::{Bitmap, Graph, RmatConfig, Vid};
use symple_udf::{
    ast::{Expr, Stmt, UdfFn},
    instrument, paper_udfs,
    types::Ty,
    types::Value,
    InstrumentedUdf, PropArray, PropertyStore, UdfProgram,
};

/// Pull-only BFS loop, generic over how one level is executed.
fn bfs_pull_only<F>(
    graph: &Graph,
    cfg: &EngineConfig,
    root: Vid,
    level_fn: F,
) -> (Vec<u32>, RunStats)
where
    F: FnMut(&mut Worker, &Bitmap, &Bitmap, &mut dyn FnMut(Vid, Vid) -> bool) + Sync + Send + Copy,
{
    let res = run_spmd(graph, cfg, |w| {
        let n = graph.num_vertices();
        let mut visited = Bitmap::new(n);
        let mut frontier = Bitmap::new(n);
        let mut depth = vec![NONE; n];
        if w.is_master(root) {
            visited.set_vid(root);
            frontier.set_vid(root);
            depth[root.index()] = 0;
        }
        w.sync_bitmap(&mut visited);
        w.sync_bitmap(&mut frontier);
        let mut level = 0u32;
        loop {
            level += 1;
            let mut new_frontier: Vec<Vid> = Vec::new();
            {
                let mut apply = |v: Vid, _parent: Vid| -> bool {
                    if depth[v.index()] == NONE {
                        depth[v.index()] = level;
                        new_frontier.push(v);
                        true
                    } else {
                        false
                    }
                };
                let mut f = level_fn;
                f(w, &frontier, &visited, &mut apply);
            }
            for &v in &new_frontier {
                visited.set_vid(v);
            }
            frontier.clear_all();
            for &v in &new_frontier {
                frontier.set_vid(v);
            }
            w.sync_bitmap(&mut visited);
            w.sync_bitmap(&mut frontier);
            if w.allreduce(new_frontier.len() as u64, |a, b| a + b) == 0 {
                break;
            }
        }
        w.sync_values(&mut depth);
        depth
    });
    let depth = res.outputs.into_iter().next().unwrap();
    (depth, res.stats)
}

fn native_level(
    w: &mut Worker,
    frontier: &Bitmap,
    visited: &Bitmap,
    apply: &mut dyn FnMut(Vid, Vid) -> bool,
) {
    let prog = BfsPull { frontier, visited };
    let mut dep = BitDep::new(w.dep_slots_needed());
    w.pull(&prog, &mut dep, apply);
}

fn interp_level(
    w: &mut Worker,
    frontier: &Bitmap,
    visited: &Bitmap,
    apply: &mut dyn FnMut(Vid, Vid) -> bool,
) {
    let inst = instrument(&paper_udfs::bfs_udf()).unwrap();
    let mut props = PropertyStore::new();
    props.insert("frontier", PropArray::Bools(frontier.clone()));
    props.insert("visited", PropArray::Bools(visited.clone()));
    let prog = UdfProgram::new(&inst, &props).active_when("visited", false);
    let mut dep = prog.make_dep(w.dep_slots_needed());
    let mut apply64 =
        |v: Vid, bits: u64| -> bool { apply(v, Value::from_bits(Ty::Vertex, bits).as_vertex()) };
    w.pull(&prog, &mut dep, &mut apply64);
}

#[test]
fn interpreted_bfs_matches_native_exactly() {
    let graph = RmatConfig::graph500(8, 8).cleaned(true).generate();
    let root = Vid::new(3);
    for policy in [Policy::symple(), Policy::symple_basic(), Policy::Gemini] {
        let cfg = EngineConfig::new(4, policy);
        let (d_native, s_native) = bfs_pull_only(&graph, &cfg, root, native_level);
        let (d_interp, s_interp) = bfs_pull_only(&graph, &cfg, root, interp_level);
        assert_eq!(d_native, d_interp, "depths differ under {policy:?}");
        assert_eq!(
            s_native.work.edges_traversed(),
            s_interp.work.edges_traversed(),
            "edge traversals differ under {policy:?}"
        );
        assert_eq!(
            s_native.work.skipped_by_dep(),
            s_interp.work.skipped_by_dep(),
            "dependency skips differ under {policy:?}"
        );
    }
}

#[test]
fn interpreted_bfs_skips_under_symple_only() {
    let graph = RmatConfig::graph500(8, 16).cleaned(true).generate();
    let cfg_symple = EngineConfig::new(4, Policy::symple());
    let cfg_gemini = EngineConfig::new(4, Policy::Gemini);
    let (_, s_symple) = bfs_pull_only(&graph, &cfg_symple, Vid::new(0), interp_level);
    let (_, s_gemini) = bfs_pull_only(&graph, &cfg_gemini, Vid::new(0), interp_level);
    assert!(s_symple.work.skipped_by_dep() > 0);
    assert_eq!(s_gemini.work.skipped_by_dep(), 0);
    assert!(s_symple.work.edges_traversed() < s_gemini.work.edges_traversed());
}

#[test]
fn interpreted_kcore_matches_native() {
    let graph = RmatConfig::graph500(8, 8).cleaned(true).generate();
    let k = 4u32;
    let cfg = EngineConfig::new(3, Policy::symple());
    let (native_out, native_stats) = symple_algos::kcore(&graph, &cfg, k);

    // interpreted kcore driver
    let res = run_spmd(&graph, &cfg, |w| {
        let inst = instrument(&paper_udfs::kcore_udf(i64::from(k))).unwrap();
        let n = graph.num_vertices();
        let mut active = Bitmap::new(n);
        active.set_all();
        let mut counts = vec![0u32; n];
        loop {
            counts.iter_mut().for_each(|c| *c = 0);
            {
                let mut props = PropertyStore::new();
                props.insert("active", PropArray::Bools(active.clone()));
                let prog = UdfProgram::new(&inst, &props).active_when("active", true);
                let mut dep = prog.make_dep(w.dep_slots_needed());
                let mut apply = |v: Vid, bits: u64| -> bool {
                    counts[v.index()] += Value::from_bits(Ty::Int, bits).as_int() as u32;
                    false
                };
                w.pull(&prog, &mut dep, &mut apply);
            }
            let mut removed = 0u64;
            for v in w.masters() {
                if active.get_vid(v) && counts[v.index()] < k {
                    active.clear(v.index());
                    removed += 1;
                }
            }
            w.sync_bitmap(&mut active);
            if w.allreduce(removed, |a, b| a + b) == 0 {
                break;
            }
        }
        active
    });
    let interp_core = &res.outputs[0];
    assert_eq!(
        *interp_core, native_out.in_core,
        "interpreted k-core differs from native"
    );
    assert_eq!(
        res.stats.work.edges_traversed(),
        native_stats.work.edges_traversed(),
        "edge traversals differ"
    );
}

/// The sampling UDF with an `int` initialiser for its `float` prefix sum,
/// which grows only past a neighbour of positive weight, and its store.
fn widened_sampling() -> (InstrumentedUdf, PropertyStore) {
    let acc = || Expr::local("acc");
    let udf = UdfFn::new(
        "sample",
        Ty::Vertex,
        vec![
            Stmt::let_("acc", Ty::Float, Expr::i(0)),
            Stmt::for_neighbors(vec![
                Stmt::if_(
                    Expr::f(0.0).lt(Expr::prop_u("weight")),
                    vec![Stmt::assign("acc", acc().add(Expr::prop_u("weight")))],
                ),
                Stmt::if_(
                    acc().ge(Expr::prop_v("r")),
                    vec![Stmt::Emit(Expr::CurrentNeighbor), Stmt::Break],
                ),
            ]),
        ],
    );
    let floats = |f: fn(usize) -> f64| PropArray::Floats((0..1024).map(f).collect());
    let mut props = PropertyStore::new();
    props.insert("weight", floats(|i| (i % 3) as f64 * 0.5));
    props.insert("r", floats(|i| (i % 5) as f64 + 0.5));
    (instrument(&udf).unwrap(), props)
}

/// An `int` stored into a `float` local is a float from the store on, in
/// both executors, so the carried `float` slot takes it: the engine runs
/// (it used to panic with "carried value type changed"), the typed VM
/// binds, and the two agree.
#[test]
fn an_int_stored_into_a_float_local_runs_on_both_executors() {
    let graph = RmatConfig::graph500(10, 8).cleaned(true).generate();
    let (inst, props) = widened_sampling();
    for policy in [Policy::symple(), Policy::Gemini] {
        let run = |exec: UdfExec| {
            let typed = UdfProgram::new(&inst, &props).exec(exec).uses_bytecode();
            assert_eq!(typed, exec == UdfExec::Bytecode, "{policy:?}");
            let res = run_spmd(&graph, &EngineConfig::new(2, policy), |w| {
                let prog = UdfProgram::new(&inst, &props).exec(exec);
                let mut dep = prog.make_dep(w.dep_slots_needed());
                let mut picked = vec![u32::MAX; graph.num_vertices()];
                let mut apply = |v: Vid, bits: u64| -> bool {
                    picked[v.index()] = bits as u32;
                    false
                };
                w.pull(&prog, &mut dep, &mut apply);
                picked
            });
            (res.outputs, res.stats.work.edges_traversed())
        };
        let vm = run(UdfExec::Bytecode);
        assert_eq!(vm, run(UdfExec::Interp), "{policy:?}");
        assert!(vm.0.iter().flatten().any(|&u| u != u32::MAX));
    }
}

#[test]
fn a_widened_store_reaches_the_carried_slot_and_the_update_as_a_float() {
    let (inst, props) = widened_sampling();
    let emit = UdfFn::new("emit", Ty::Float, vec![Stmt::Emit(Expr::i(3))]);
    let emits_int = instrument(&emit).unwrap();
    for exec in [UdfExec::Bytecode, UdfExec::Interp] {
        // A scratch-mode call on an empty list: only the initialiser ran,
        // and the epilogue snapshots its value.
        let prog = UdfProgram::new(&inst, &props).exec(exec);
        let mut dep = prog.make_dep(1);
        prog.signal(Vid::new(0), &[], &mut dep, 0, false, &mut |_| {});
        assert_eq!(dep.value(0, 0), Value::Float(0.0), "{exec:?}");
        // An `int` emitted as a `float` update ships the `f64` bits.
        let prog = UdfProgram::new(&emits_int, &props).exec(exec);
        assert_eq!(prog.uses_bytecode(), exec == UdfExec::Bytecode);
        let mut got = Vec::new();
        prog.signal(Vid::new(0), &[], &mut dep, 0, false, &mut |x| got.push(x));
        assert_eq!(got, [3f64.to_bits()], "{exec:?}");
    }
}
