//! Timing laws of the virtual clock. With latency removed, modelled time
//! is pure compute + transfer, and dependency enforcement strictly
//! reduces both — so SympleGraph's makespan cannot meaningfully exceed
//! Gemini's. And the compute charge of a multi-threaded machine is its
//! critical path, not the sum of its lanes.

use symplegraph::algos::bfs;
use symplegraph::core::{EngineConfig, Policy, SpanCategory, Trace};
use symplegraph::graph::{GraphBuilder, RmatConfig, Vid};

#[test]
fn zero_latency_symple_time_never_exceeds_gemini() {
    use symplegraph::algos::{kcore, mis};
    use symplegraph::net::CostModel;
    // With zero fixed costs, modelled time is pure compute + transfer;
    // dependency enforcement strictly reduces both, so SympleGraph's
    // makespan cannot exceed Gemini's... except for per-step load
    // imbalance, which the circulant schedule introduces. Use the full
    // optimisation set (double buffering smooths imbalance) and verify
    // the paper's headline direction on a skewed graph.
    let g = RmatConfig::graph500(10, 16).cleaned(true).generate();
    let mut zero_net = CostModel::zero();
    zero_net.per_edge_sec = 1e-9;
    zero_net.per_vertex_sec = 1e-10;
    zero_net.per_byte_sec = 1e-10;
    let gem_cfg = EngineConfig::new(8, Policy::Gemini).cost(zero_net);
    let sym_cfg = EngineConfig::new(8, Policy::symple()).cost(zero_net);

    let (_, g1) = bfs(&g, &gem_cfg, Vid::new(0));
    let (_, s1) = bfs(&g, &sym_cfg, Vid::new(0));
    assert!(s1.virtual_time() <= g1.virtual_time() * 1.05, "bfs");

    let (_, g2) = kcore(&g, &gem_cfg, 8);
    let (_, s2) = kcore(&g, &sym_cfg, 8);
    assert!(s2.virtual_time() <= g2.virtual_time() * 1.05, "kcore");

    let (_, g3) = mis(&g, &gem_cfg, 1);
    let (_, s3) = mis(&g, &sym_cfg, 1);
    assert!(s3.virtual_time() <= g3.virtual_time() * 1.05, "mis");
}

#[test]
fn compute_charge_is_critical_path_not_sum() {
    // A star: as a pull destination the hub is one entry with 4,999
    // in-edges while every leaf entry has one — maximal intra-node
    // imbalance, so the critical path is far below the serial sum. The
    // leaves fill several executor chunks (`EXEC_CHUNK`).
    let n = 5000;
    assert!(n > 4 * symplegraph::core::EXEC_CHUNK);
    let mut b = GraphBuilder::new(n);
    for v in 1..n as u32 {
        b.add_edge(Vid::new(0), Vid::new(v));
    }
    let g = b.symmetrize(true).build();
    let cfg = |threads| EngineConfig::new(1, Policy::Gemini).threads(threads);
    // One machine, Gemini: virtual time is pure compute (no comm waits),
    // so the makespan change isolates the critical-path charging.
    let (out1, st1) = bfs(&g, &cfg(1), Vid::new(0));
    let (out4, st4) = bfs(&g, &cfg(4), Vid::new(0));
    assert_eq!(out1, out4);
    assert_eq!(st1.work, st4.work);

    let (m1, m4) = (&st1.trace, &st4.trace);
    // Compute-like charge = signal-side Compute plus the Apply pass
    // (both feed `compute_cpu`).
    let charge = |m: &Trace| m.time(SpanCategory::Compute) + m.time(SpanCategory::Apply);
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
