//! Thread-count invariance: the chunked intra-machine executor must be a
//! pure performance knob. For any `threads`, a run produces bit-identical
//! outputs, work counters, and per-category communication totals; only
//! host wall time and the modelled critical-path compute charge change.
//! These tests are the contract that makes `threads > 1` safe to enable
//! on every experiment without re-validating results.

use proptest::prelude::*;
use symplegraph::algos::{bfs, kcore, sampling};
use symplegraph::core::{EngineConfig, FaultPlan, Policy, RunStats, SpanCategory, WireCodec};
use symplegraph::graph::{Graph, GraphBuilder, RmatConfig, Vid};

/// The policies whose pull paths differ (baseline walk, plain circulant,
/// differentiated + double-buffered circulant, Gluon-style sync).
fn policies() -> [Policy; 4] {
    [
        Policy::Gemini,
        Policy::Galois,
        Policy::symple(),
        Policy::symple_basic(),
    ]
}

/// A config with a deliberately tiny chunk so that even small test graphs
/// split into many chunks per bucket part.
fn cfg(machines: usize, policy: Policy, threads: usize) -> EngineConfig {
    EngineConfig::new(machines, policy)
        .degree_threshold(4)
        .chunk_size(16)
        .threads(threads)
}

/// Outputs, work and comm of `job` at 2 and 8 threads equal the
/// single-thread run's, under every policy.
fn assert_thread_invariant<O: PartialEq + std::fmt::Debug>(
    machines: usize,
    job: impl Fn(&EngineConfig) -> (O, RunStats),
) {
    for policy in policies() {
        let (base_out, base_st) = job(&cfg(machines, policy, 1));
        for threads in [2, 8] {
            let (out, st) = job(&cfg(machines, policy, threads));
            assert_eq!(out, base_out, "{policy:?} threads={threads}: output");
            assert_eq!(st.work, base_st.work, "{policy:?} threads={threads}: work");
            assert_eq!(st.comm, base_st.comm, "{policy:?} threads={threads}: comm");
        }
    }
}

#[test]
fn bfs_identical_for_any_thread_count() {
    let g = RmatConfig::graph500(9, 8).cleaned(true).generate();
    assert_thread_invariant(4, |c| bfs(&g, c, Vid::new(7)));
}

#[test]
fn kcore_identical_for_any_thread_count() {
    let g = RmatConfig::graph500(9, 8).cleaned(true).generate();
    assert_thread_invariant(3, |c| kcore(&g, c, 3));
}

#[test]
fn sampling_identical_for_any_thread_count() {
    // Sampling exercises the data-carried (prefix sum) dependency path,
    // the one most sensitive to slot-range sharding mistakes.
    let g = RmatConfig::graph500(9, 8).cleaned(true).generate();
    assert_thread_invariant(4, |c| sampling(&g, c, 5));
}

#[test]
fn comm_byte_categories_identical_across_threads() {
    use symplegraph::core::ByteCategory;
    let g = RmatConfig::graph500(9, 8).cleaned(true).generate();
    let (_, st1) = bfs(&g, &cfg(4, Policy::symple(), 1), Vid::new(3));
    let (_, st8) = bfs(&g, &cfg(4, Policy::symple(), 8), Vid::new(3));
    let (m1, m8) = (&st1.trace, &st8.trace);
    for cat in ByteCategory::ALL {
        assert_eq!(m1.bytes(cat), m8.bytes(cat), "{cat:?} bytes");
        assert_eq!(m1.messages(cat), m8.messages(cat), "{cat:?} messages");
    }
}

#[test]
fn wire_codec_is_invisible_to_outputs_and_work() {
    // The adaptive codec must be a pure byte-layout knob: same outputs and
    // work counters as the flat seed encoding, at any thread count.
    let g = RmatConfig::graph500(9, 8).cleaned(true).generate();
    for policy in policies() {
        let (flat_out, flat_st) = kcore(&g, &cfg(3, policy, 1), 3);
        for threads in [1, 8] {
            let c = cfg(3, policy, threads).wire_codec(WireCodec::Adaptive);
            let (out, st) = kcore(&g, &c, 3);
            assert_eq!(out, flat_out, "{policy:?} threads={threads}: output");
            assert_eq!(st.work, flat_st.work, "{policy:?} threads={threads}: work");
        }
        let (bfs_flat, _) = bfs(&g, &cfg(4, policy, 1), Vid::new(7));
        let c = cfg(4, policy, 8).wire_codec(WireCodec::Adaptive);
        let (bfs_adaptive, _) = bfs(&g, &c, Vid::new(7));
        assert_eq!(
            bfs_adaptive, bfs_flat,
            "{policy:?}: bfs output across codecs"
        );
    }
}

#[test]
fn adaptive_comm_is_thread_invariant_and_never_larger() {
    use symplegraph::core::ByteCategory;
    let g = RmatConfig::graph500(9, 8).cleaned(true).generate();
    for policy in policies() {
        let adaptive = |threads| cfg(4, policy, threads).wire_codec(WireCodec::Adaptive);
        let (_, a1) = bfs(&g, &adaptive(1), Vid::new(3));
        let (_, a8) = bfs(&g, &adaptive(8), Vid::new(3));
        // Covers the format histogram too: CommStats equality includes it.
        assert_eq!(a1.comm, a8.comm, "{policy:?}: adaptive comm across threads");

        let (_, f1) = bfs(&g, &cfg(4, policy, 1), Vid::new(3));
        let (mf, ma) = (&f1.trace, &a1.trace);
        for cat in [ByteCategory::Update, ByteCategory::Dependency] {
            assert!(
                ma.bytes(cat) <= mf.bytes(cat),
                "{policy:?} {cat:?}: adaptive {} > flat {}",
                ma.bytes(cat),
                mf.bytes(cat)
            );
        }
        // Collective sync traffic does not go through the codec.
        assert_eq!(
            ma.bytes(ByteCategory::Collective),
            mf.bytes(ByteCategory::Collective),
            "{policy:?}: collective bytes must not depend on the codec"
        );
    }
}

/// An `exchange_chunk` above every payload of these tests: one frame per
/// message, physically the monolithic message of a bulk exchange.
const ONE_FRAME: usize = 1 << 30;

#[test]
fn exchange_framing_invisible_at_any_thread_count() {
    // One frame per message vs 64-byte frames, small enough that the test
    // graph's messages really split: bit-identical outputs, work, and comm
    // (including the wire-format histogram) at every thread count —
    // framing only moves waits and host wall time. At one thread the
    // framed timeline is never the longer one, and it never stalls longer
    // for update frames: apply work fills the gaps between arrivals.
    let g = RmatConfig::graph500(9, 8).cleaned(true).generate();
    for policy in policies() {
        for threads in [1, 4] {
            let mk = |chunk: usize| cfg(4, policy, threads).exchange_chunk(chunk);
            let (whole_out, whole_st) = bfs(&g, &mk(ONE_FRAME), Vid::new(7));
            let (framed_out, framed_st) = bfs(&g, &mk(64), Vid::new(7));
            assert_eq!(framed_out, whole_out, "{policy:?} t{threads}: output");
            assert_eq!(framed_st.work, whole_st.work, "{policy:?} t{threads}: work");
            assert_eq!(framed_st.comm, whole_st.comm, "{policy:?} t{threads}: comm");

            let (whole_out, whole) = kcore(&g, &mk(ONE_FRAME), 3);
            let (framed_out, framed) = kcore(&g, &mk(64), 3);
            assert_eq!(framed_out, whole_out, "{policy:?} t{threads}: kcore output");
            assert_eq!(framed.work, whole.work, "{policy:?} t{threads}: kcore work");
            assert_eq!(framed.comm, whole.comm, "{policy:?} t{threads}: kcore comm");
            if threads == 1 {
                let stall = |st: &RunStats| st.time.category(SpanCategory::Exchange);
                for (what, framed, whole) in [
                    ("makespan", framed.virtual_time(), whole.virtual_time()),
                    ("exchange stall", stall(&framed), stall(&whole)),
                ] {
                    assert!(
                        framed <= whole * (1.0 + 1e-9),
                        "{policy:?}: framed {what} {framed} above one-frame {whole}"
                    );
                }
            }
        }
    }
}

#[test]
fn exchange_framings_absorb_chaos_plans_identically() {
    // Replay of a seeded chaos plan through the reliable layer, per
    // framing: outputs and work stay bit-identical to the fault-free run,
    // logical traffic matches across framings, and a faulted run is
    // reproducible. (The reliable overlay counters may differ between
    // framings — frames draw their own per-stream fates.)
    let g = RmatConfig::graph500(9, 8).cleaned(true).generate();
    for policy in [Policy::Gemini, Policy::symple()] {
        let mk = |chunk: usize, plan: Option<FaultPlan>| {
            cfg(4, policy, 2).exchange_chunk(chunk).fault_plan(plan)
        };
        let chaos = Some(FaultPlan::chaos(42));
        let (whole_out, whole) = bfs(&g, &mk(ONE_FRAME, chaos), Vid::new(7));
        let (framed_out, framed) = bfs(&g, &mk(64, chaos), Vid::new(7));
        let (clean_out, clean) = bfs(&g, &mk(64, None), Vid::new(7));
        assert_eq!(framed_out, clean_out, "{policy:?}: chaos changed outputs");
        assert_eq!(framed_out, whole_out, "{policy:?}: framings diverged");
        assert_eq!(framed.work, clean.work, "{policy:?}: chaos changed work");
        assert_eq!(framed.work, whole.work, "{policy:?}: work across framings");
        let logical = |st: &RunStats| (st.comm.total_bytes(), st.comm.total_messages());
        assert_eq!(
            logical(&framed),
            logical(&whole),
            "{policy:?}: logical bytes and messages across framings under chaos"
        );
        assert!(
            framed.comm.reliable().retransmits > 0,
            "{policy:?}: the chaos plan injected nothing"
        );
        // Reproducibility of the faulted framed run, overlay included.
        let (again_out, again) = bfs(&g, &mk(64, chaos), Vid::new(7));
        assert_eq!(again_out, framed_out, "{policy:?}: faulted replay output");
        assert_eq!(again.comm, framed.comm, "{policy:?}: faulted replay comm");
        assert_eq!(
            again.virtual_time(),
            framed.virtual_time(),
            "{policy:?}: faulted replay virtual time"
        );
    }
}

/// A star: vertex 0 joined to all others. As a pull destination the hub is
/// one entry with `n-1` in-edges while every leaf entry has one — maximal
/// intra-node imbalance, so the critical path is far below the serial sum.
fn star(n: u32) -> Graph {
    let mut b = GraphBuilder::new(n as usize);
    for v in 1..n {
        b.add_edge(Vid::new(0), Vid::new(v));
    }
    b.symmetrize(true).build()
}

#[test]
fn compute_charge_is_critical_path_not_sum() {
    let g = star(600);
    // One machine, Gemini: virtual time is pure compute (no comm waits),
    // so the makespan change isolates the critical-path charging.
    let (out1, st1) = bfs(&g, &cfg(1, Policy::Gemini, 1), Vid::new(0));
    let (out4, st4) = bfs(&g, &cfg(1, Policy::Gemini, 4), Vid::new(0));
    assert_eq!(out1, out4);
    assert_eq!(st1.work, st4.work);

    let (m1, m4) = (&st1.trace, &st4.trace);
    // Compute-like charge = signal-side Compute plus the Apply pass
    // (both feed `compute_cpu`).
    let charge =
        |m: &symplegraph::core::Trace| m.time(SpanCategory::Compute) + m.time(SpanCategory::Apply);
    let (compute1, compute4) = (charge(m1), charge(m4));
    assert!(
        compute4 < compute1,
        "critical path ({compute4:.3e}s) must be strictly below the \
         single-thread sum ({compute1:.3e}s) on an imbalanced graph"
    );
    assert!(
        st4.virtual_time() < st1.virtual_time(),
        "pure-compute makespan must shrink with it"
    );

    // Busy core-seconds are conserved: lanes redistribute the same work.
    let (cpu1, cpu4) = (m1.compute_cpu(), m4.compute_cpu());
    assert!(
        (cpu1 - cpu4).abs() <= 1e-9 * cpu1.max(1.0),
        "lane-summed cpu {cpu4:.6e} != sequential compute {cpu1:.6e}"
    );
    // And the charge stays sound: max lane <= charge bounds.
    assert!(
        compute4 >= cpu4 / 4.0 - 1e-12,
        "charge below perfect speedup"
    );
    assert_eq!(m1.nodes[0].max_lanes(), 1);
    assert!(
        m4.nodes[0].max_lanes() >= 2,
        "trace must show executor fan-out"
    );
}

/// An arbitrary symmetric graph from an edge list over `n` vertices.
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
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn threaded_runs_match_sequential_on_random_graphs(
        g in arb_graph(100, 300),
        machines in 1usize..5,
        threads in 2usize..9,
        policy_idx in 0usize..4,
        root_raw in 0u32..100,
    ) {
        let policy = policies()[policy_idx];
        let root = Vid::new(root_raw % g.num_vertices() as u32);
        let (base_out, base_st) = bfs(&g, &cfg(machines, policy, 1), root);
        let (out, st) = bfs(&g, &cfg(machines, policy, threads), root);
        prop_assert_eq!(out, base_out);
        prop_assert_eq!(st.work, base_st.work);
        prop_assert_eq!(st.comm, base_st.comm);
    }
}
