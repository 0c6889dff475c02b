//! Fault-plan invariance: the reliable-delivery layer must absorb every
//! injected drop, duplicate, delay, and reordering *below* the engine.
//! For any seeded fault plan (with a sufficient retry budget) an algorithm
//! run produces bit-identical outputs, work counters, logical traffic
//! accounting, and trace span structure; only the reliable overlay
//! (retransmit / dup-drop / timeout counters, retry time, wait times and
//! the virtual makespan) may differ. These tests are the contract that
//! makes `fault_plan` a pure robustness knob, safe to enable on every
//! experiment without re-validating results.

use proptest::prelude::*;
use symplegraph::algos::{bfs, kcore, mis};
use symplegraph::core::{ByteCategory, EngineConfig, FaultPlan, Policy, RunStats, SpanCategory};
use symplegraph::graph::{Graph, GraphBuilder, RmatConfig, Vid};

/// The policies with distinct communication patterns: plain pull, and the
/// differentiated + double-buffered circulant with dependency messages.
fn policies() -> [Policy; 2] {
    [Policy::Gemini, Policy::symple()]
}

fn cfg(machines: usize, policy: Policy, threads: usize) -> EngineConfig {
    EngineConfig::new(machines, policy)
        .degree_threshold(4)
        .chunk_size(16)
        .threads(threads)
}

/// Asserts that everything except the reliable overlay is identical
/// between a fault-free run and a faulted one: per-machine logical bytes,
/// messages, wire formats, and the (iteration, step, group) cell structure
/// bit-exact; compute / serialize time and lane cpu to a tight relative
/// tolerance (durations are stored as `end - start` of virtual-clock
/// readings, and the faulted clock sits at shifted absolute values, so
/// equal logical durations can differ in the last ulp).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-12)
}

fn assert_trace_structure_eq(clean: &RunStats, faulted: &RunStats, label: &str) {
    let (mc, mf) = (&clean.trace, &faulted.trace);
    assert_eq!(mc.nodes.len(), mf.nodes.len(), "{label}: machine count");
    for (c, f) in mc.nodes.iter().zip(&mf.nodes) {
        let rank = c.machine;
        for cat in ByteCategory::ALL {
            assert_eq!(c.bytes(cat), f.bytes(cat), "{label} m{rank}: logical bytes");
            assert_eq!(
                c.messages(cat),
                f.messages(cat),
                "{label} m{rank}: logical messages"
            );
        }
        for fmt in 0..3 {
            assert_eq!(
                c.wire_format_bytes(fmt),
                f.wire_format_bytes(fmt),
                "{label} m{rank}: wire formats"
            );
        }
        assert_eq!(
            c.max_lanes(),
            f.max_lanes(),
            "{label} m{rank}: executor lanes"
        );
        assert!(
            close(c.compute_cpu(), f.compute_cpu()),
            "{label} m{rank}: lane cpu {} vs {}",
            c.compute_cpu(),
            f.compute_cpu()
        );
        // Deterministic time categories must agree; waits and the retry
        // overlay are the only time allowed to move materially.
        for cat in [SpanCategory::Compute, SpanCategory::Serialize] {
            assert!(
                close(c.time(cat), f.time(cat)),
                "{label} m{rank}: {cat:?} time {} vs {}",
                c.time(cat),
                f.time(cat)
            );
        }
    }
    let (mc, mf) = (mc.merged_cells(), mf.merged_cells());
    let ck: Vec<_> = mc.keys().collect();
    let fk: Vec<_> = mf.keys().collect();
    assert_eq!(ck, fk, "{label}: cell (iteration, step, group) structure");
    for (key, c) in &mc {
        let f = &mf[key];
        assert_eq!(c.bytes, f.bytes, "{label} cell {key:?}: bytes");
        assert_eq!(c.messages, f.messages, "{label} cell {key:?}: messages");
    }
}

/// The faulted run must actually have been injured, or the test proves
/// nothing.
fn assert_faults_fired(faulted: &RunStats, label: &str) {
    let rel = faulted.comm.reliable();
    assert!(rel.retransmits > 0, "{label}: plan injected no drops");
    assert!(rel.dup_drops > 0, "{label}: plan injected no duplicates");
    assert_eq!(
        rel.timeouts, rel.retransmits,
        "{label}: timeout/resend pairing"
    );
}

#[test]
fn bfs_is_fault_invariant_across_threads() {
    let g = RmatConfig::graph500(9, 8).cleaned(true).generate();
    for policy in policies() {
        for threads in [1, 4] {
            let base = cfg(4, policy, threads);
            let (clean_out, clean_st) = bfs(&g, &base, Vid::new(7));
            let (out, st) = bfs(&g, &base.fault_plan(FaultPlan::chaos(42)), Vid::new(7));
            assert_eq!(out, clean_out, "{policy:?} threads={threads}: output");
            assert_eq!(st.work, clean_st.work, "{policy:?} threads={threads}: work");
            assert_trace_structure_eq(&clean_st, &st, "bfs");
            assert_faults_fired(&st, "bfs");
            assert!(!clean_st.comm.reliable().any(), "clean run must stay clean");
        }
    }
}

#[test]
fn kcore_is_fault_invariant_across_threads() {
    let g = RmatConfig::graph500(9, 8).cleaned(true).generate();
    for policy in policies() {
        for threads in [1, 4] {
            let base = cfg(3, policy, threads);
            let (clean_out, clean_st) = kcore(&g, &base, 3);
            let (out, st) = kcore(&g, &base.fault_plan(FaultPlan::chaos(7)), 3);
            assert_eq!(out, clean_out, "{policy:?} threads={threads}: output");
            assert_eq!(st.work, clean_st.work, "{policy:?} threads={threads}: work");
            assert_trace_structure_eq(&clean_st, &st, "kcore");
            assert_faults_fired(&st, "kcore");
        }
    }
}

#[test]
fn mis_is_fault_invariant_across_threads() {
    // MIS exercises the control-bit dependency path with early exit, the
    // one most sensitive to a message arriving twice or out of order.
    let g = RmatConfig::graph500(9, 8).cleaned(true).generate();
    for policy in policies() {
        for threads in [1, 4] {
            let base = cfg(4, policy, threads);
            let (clean_out, clean_st) = mis(&g, &base, 5);
            let (out, st) = mis(&g, &base.fault_plan(FaultPlan::chaos(13)), 5);
            assert_eq!(out, clean_out, "{policy:?} threads={threads}: output");
            assert_eq!(st.work, clean_st.work, "{policy:?} threads={threads}: work");
            assert_trace_structure_eq(&clean_st, &st, "mis");
            assert_faults_fired(&st, "mis");
        }
    }
}

#[test]
fn fault_counters_reach_the_metrics_report() {
    let g = RmatConfig::graph500(9, 8).cleaned(true).generate();
    let c = cfg(4, Policy::symple(), 1).fault_plan(FaultPlan::chaos(42));
    let (_, st) = bfs(&g, &c, Vid::new(7));
    let m = &st.trace;
    let rel = st.comm.reliable();
    assert_eq!(m.retransmits(), rel.retransmits, "trace/stats reconcile");
    assert_eq!(m.dup_drops(), rel.dup_drops, "trace/stats reconcile");
    assert!(m.time(SpanCategory::Retry) > 0.0, "retry time is charged");
    let json = m.to_metrics_json(st.virtual_time());
    assert!(
        json.contains(&format!("\"retransmits\":{}", rel.retransmits)),
        "report JSON must surface the retransmit total"
    );
    assert!(
        m.nodes.iter().any(|pm| !pm.retransmit_peers.is_empty()),
        "per-peer retransmit cells must be populated"
    );
}

#[test]
fn faulted_runs_are_reproducible_end_to_end() {
    let g = RmatConfig::graph500(9, 8).cleaned(true).generate();
    let c = cfg(3, Policy::symple(), 4).fault_plan(FaultPlan::chaos(99));
    let (out_a, st_a) = kcore(&g, &c, 3);
    let (out_b, st_b) = kcore(&g, &c, 3);
    assert_eq!(out_a, out_b);
    assert_eq!(st_a.work, st_b.work);
    assert_eq!(st_a.comm, st_b.comm, "including the reliable overlay");
    assert_eq!(st_a.virtual_time(), st_b.virtual_time());
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

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0.0..0.4f64,
        0.0..0.8f64,
        0.0..0.8f64,
        0.0..0.8f64,
    )
        .prop_map(|(seed, drop, dup, delay, reorder)| {
            FaultPlan::new(seed)
                .drop_rate(drop)
                .dup_rate(dup)
                .delay_rate(delay)
                .max_delay_steps(3)
                .reorder_rate(reorder)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn bfs_on_random_graphs_absorbs_random_plans(
        g in arb_graph(80, 200),
        plan in arb_plan(),
        machines in 1usize..4,
        policy_idx in 0usize..2,
        root_raw in 0u32..80,
    ) {
        let policy = policies()[policy_idx];
        let root = Vid::new(root_raw % g.num_vertices() as u32);
        let base = cfg(machines, policy, 1);
        let (clean_out, clean_st) = bfs(&g, &base, root);
        let (out, st) = bfs(&g, &base.fault_plan(plan), root);
        prop_assert_eq!(out, clean_out);
        prop_assert_eq!(st.work, clean_st.work);
        prop_assert_eq!(
            st.comm.total_bytes(),
            clean_st.comm.total_bytes()
        );
        prop_assert_eq!(
            st.comm.total_messages(),
            clean_st.comm.total_messages()
        );
        prop_assert!(st.virtual_time() >= clean_st.virtual_time());
    }
}
