//! Backend equivalence: the OS-thread transport must be observationally
//! identical to the deterministic simulator for everything *logical* —
//! outputs, typed work counters, byte/message accounting, and virtual
//! time. Only wall-clock measurements may differ, because those report
//! what the host actually did.
//!
//! The virtual clock is a pure function of the deterministic message
//! protocol (blocking, tagged, point-to-point), so it does not matter
//! whether envelopes cross an unbounded simulator channel or a bounded
//! channel with real backpressure: the same messages flow in the same
//! per-stream order, and every clock advance replays identically.

use proptest::prelude::*;
use symplegraph::algos::{bfs, cc, kcore, mis, pagerank, sssp};
use symplegraph::core::{Backend, EngineConfig, FaultPlan, Policy, RunStats};
use symplegraph::graph::{Graph, GraphBuilder, RmatConfig, Vid};

fn suite_graph() -> Graph {
    RmatConfig::graph500(9, 8).cleaned(true).generate()
}

fn cfg(policy: Policy, threads: usize, backend: Backend) -> EngineConfig {
    EngineConfig::new(4, policy)
        .threads(threads)
        .backend(backend)
}

/// Asserts that the logical face of two runs is bit-identical; wall
/// clocks are intentionally exempt.
fn assert_logical_eq(sim: &RunStats, thread: &RunStats, what: &str) {
    assert_eq!(sim.work, thread.work, "{what}: work counters diverged");
    assert_eq!(sim.comm, thread.comm, "{what}: CommStats diverged");
    assert_eq!(
        sim.virtual_time(),
        thread.virtual_time(),
        "{what}: virtual time diverged"
    );
    assert_eq!(
        sim.trace.to_chrome_json(),
        thread.trace.to_chrome_json(),
        "{what}: trace structure diverged"
    );
}

#[test]
fn suite_is_bit_identical_across_backends() {
    let g = suite_graph();
    for policy in [Policy::symple(), Policy::Gemini] {
        for threads in [1usize, 4] {
            let label = format!("{policy:?}/threads={threads}");
            let run = |backend| cfg(policy, threads, backend);

            let (out_s, st_s) = bfs(&g, &run(Backend::Sim), Vid::new(7));
            let (out_t, st_t) = bfs(&g, &run(Backend::Thread), Vid::new(7));
            assert_eq!(out_s, out_t, "bfs {label}: outputs diverged");
            assert_logical_eq(&st_s, &st_t, &format!("bfs {label}"));

            let (out_s, st_s) = kcore(&g, &run(Backend::Sim), 3);
            let (out_t, st_t) = kcore(&g, &run(Backend::Thread), 3);
            assert_eq!(out_s, out_t, "kcore {label}: outputs diverged");
            assert_logical_eq(&st_s, &st_t, &format!("kcore {label}"));

            let (out_s, st_s) = mis(&g, &run(Backend::Sim), 3);
            let (out_t, st_t) = mis(&g, &run(Backend::Thread), 3);
            assert_eq!(out_s, out_t, "mis {label}: outputs diverged");
            assert_logical_eq(&st_s, &st_t, &format!("mis {label}"));

            let (out_s, st_s) = sssp(&g, &run(Backend::Sim), Vid::new(7), 0x5557);
            let (out_t, st_t) = sssp(&g, &run(Backend::Thread), Vid::new(7), 0x5557);
            assert_eq!(out_s, out_t, "sssp {label}: outputs diverged");
            assert_logical_eq(&st_s, &st_t, &format!("sssp {label}"));

            let (out_s, st_s) = cc(&g, &run(Backend::Sim));
            let (out_t, st_t) = cc(&g, &run(Backend::Thread));
            assert_eq!(out_s, out_t, "cc {label}: outputs diverged");
            assert_logical_eq(&st_s, &st_t, &format!("cc {label}"));

            let (out_s, st_s) = pagerank(&g, &run(Backend::Sim), 1_000, 10);
            let (out_t, st_t) = pagerank(&g, &run(Backend::Thread), 1_000, 10);
            assert_eq!(out_s, out_t, "pagerank {label}: outputs diverged");
            assert_logical_eq(&st_s, &st_t, &format!("pagerank {label}"));
        }
    }
}

#[test]
fn fault_plans_replay_identically_on_both_backends() {
    // The reliable-delivery layer's fates are a pure function of the
    // plan, so even retransmit/ack accounting must match across
    // backends.
    let g = suite_graph();
    let job = |backend| {
        let cfg = EngineConfig::new(3, Policy::symple())
            .backend(backend)
            .fault_plan(FaultPlan::chaos(17));
        bfs(&g, &cfg, Vid::new(7))
    };
    let (out_s, st_s) = job(Backend::Sim);
    let (out_t, st_t) = job(Backend::Thread);
    assert_eq!(out_s, out_t);
    assert_logical_eq(&st_s, &st_t, "faulted bfs");
    assert!(
        st_s.comm.reliable().retransmits > 0,
        "chaos must actually injure traffic"
    );
    assert_eq!(st_s.comm.reliable(), st_t.comm.reliable());
}

#[test]
fn thread_backend_measures_per_node_wall_time() {
    let g = suite_graph();
    let (_, st) = bfs(
        &g,
        &EngineConfig::new(4, Policy::symple()).backend(Backend::Thread),
        Vid::new(7),
    );
    assert!(st.max_node_wall() > std::time::Duration::ZERO);
    assert!(st.max_node_wall() <= st.wall());
    assert_eq!(st.trace.nodes.len(), 4);
    assert!(st.trace.nodes.iter().all(|m| m.wall_secs > 0.0));
    let json = st.trace.to_metrics_json(st.virtual_time());
    assert!(json.contains("\"max_wall_secs\":") && !json.contains("\"max_wall_secs\":0,"));
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
    fn backends_agree_on_random_graphs(
        g in arb_graph(80, 250),
        machines in 1usize..5,
        root_raw in 0u32..80,
    ) {
        let root = Vid::new(root_raw % g.num_vertices() as u32);
        let build = |backend| {
            EngineConfig::new(machines, Policy::symple())
                .degree_threshold(4)
                .backend(backend)
        };
        let (out_s, st_s) = bfs(&g, &build(Backend::Sim), root);
        let (out_t, st_t) = bfs(&g, &build(Backend::Thread), root);
        prop_assert_eq!(out_s, out_t);
        prop_assert_eq!(st_s.work, st_t.work);
        prop_assert_eq!(st_s.comm, st_t.comm);
        prop_assert_eq!(st_s.virtual_time(), st_t.virtual_time());
    }
}
