//! Reuse of the prepared graph must be invisible to everything logical.
//!
//! `run_spmd` takes the partition, dependency layout and per-machine
//! buckets from the graph's memoized `PreparedGraph` instead of building
//! them per job. A job that *finds* them must be indistinguishable — in
//! outputs, `WorkStats`, `CommStats`, virtual time and trace — from the
//! same job on a freshly generated (cold) equal graph that has to build
//! them, under every way the memo could go stale: a different layout on
//! the same graph, eviction, a new graph at a reused address, concurrent
//! first use, and the graphs derived by `clone()` and `transpose()`.
//! Every run is first held to its job's reference (`Job::check`).

use std::sync::{Arc, Barrier};
use symple_bench::job::{paper_props, Job, Output, UdfJob};
use symplegraph::algos::Direction;
use symplegraph::core::{Backend, EngineConfig, Policy, PreparedGraph, RunStats};
use symplegraph::graph::{Graph, GraphBuilder, RmatConfig, Vid};
use symplegraph::udf::paper_udfs;

fn generate(scale: u32, seed: u64) -> Graph {
    RmatConfig::graph500(scale, 8)
        .seed(seed)
        .cleaned(true)
        .generate()
}

const BFS: Job = Job::Bfs(Vid::new(7), Direction::Adaptive);

/// BFS, K-core, PageRank, and one pull of the checked sampling UDF (float
/// prefix sum carried across machines — the one job whose output depends
/// on the layout), over `n` vertices.
fn jobs(n: usize) -> [(&'static str, Job); 4] {
    let props = paper_props(n);
    let sampling = UdfJob::new("sampling", paper_udfs::sampling_udf(), false, props);
    [
        ("bfs", BFS),
        ("kcore", Job::Kcore(6)),
        ("pagerank", Job::Pagerank(1_000, 5)),
        ("sampling-udf", Job::Udf(Box::new(sampling))),
    ]
}

/// Runs `job` and holds it to its reference.
fn run(job: &Job, g: &Graph, cfg: &EngineConfig) -> (Output, RunStats) {
    let run = job.run(g, cfg);
    job.check(g, cfg, &run);
    run
}

/// Everything but the wall clocks must match bit for bit.
fn assert_same(what: &str, warm: &(Output, RunStats), cold: &(Output, RunStats)) {
    assert_eq!(warm.0, cold.0, "{what}: outputs diverged");
    assert_eq!(warm.1.work, cold.1.work, "{what}: work counters diverged");
    assert_eq!(warm.1.comm, cold.1.comm, "{what}: CommStats diverged");
    assert_eq!(
        warm.1.virtual_time(),
        cold.1.virtual_time(),
        "{what}: virtual time diverged"
    );
    assert_eq!(
        warm.1.trace.to_chrome_json(),
        cold.1.trace.to_chrome_json(),
        "{what}: trace diverged"
    );
}

#[test]
fn consecutive_jobs_match_cold_graphs() {
    for backend in [Backend::Sim, Backend::Thread] {
        let cfg = EngineConfig::new(3, Policy::symple()).backend(backend);
        let warm = generate(9, 1);
        let held = PreparedGraph::of(&warm, &cfg);
        for round in 0..2 {
            for (name, job) in jobs(warm.num_vertices()) {
                let cold = generate(9, 1);
                assert_same(
                    &format!("{name}/{backend}/round {round}"),
                    &run(&job, &warm, &cfg),
                    &run(&job, &cold, &cfg),
                );
            }
        }
        // eight jobs, one layout, never rebuilt
        assert_eq!(PreparedGraph::layouts_held(&warm), 1);
        assert!(Arc::ptr_eq(&held, &PreparedGraph::of(&warm, &cfg)));
    }
}

/// More layouts than a graph keeps: machine counts, all three layout
/// families, two thresholds, two alphas.
fn layouts() -> Vec<(String, EngineConfig)> {
    let with_alpha = |mut cfg: EngineConfig, alpha: f64| {
        cfg.partition_alpha = alpha;
        cfg
    };
    let mut all = Vec::new();
    for machines in [1, 2, 3] {
        for policy in [Policy::symple(), Policy::Gemini, Policy::symple_basic()] {
            all.push((
                format!("{machines}/{policy:?}"),
                EngineConfig::new(machines, policy),
            ));
        }
    }
    let symple = EngineConfig::new(3, Policy::symple());
    all.push(("3/threshold 4".into(), symple.clone().degree_threshold(4)));
    all.push(("3/alpha 1".into(), with_alpha(symple.clone(), 1.0)));
    all.push((
        "3/threshold 4/alpha 1".into(),
        with_alpha(symple.degree_threshold(4), 1.0),
    ));
    all
}

#[test]
fn interleaved_layouts_are_never_stale() {
    let layouts = layouts();
    let n = layouts.len();
    assert!(n > 4, "eviction must be exercised");
    let warm = generate(9, 2);
    let jobs = jobs(warm.num_vertices());
    // i, a far one, i again: hits, misses and evictions all occur.
    let order = (0..n).flat_map(|i| [i, (i + 5) % n, i]);
    for (visit, at) in order.enumerate() {
        let (label, cfg) = &layouts[at];
        let (name, job) = &jobs[visit % jobs.len()];
        let cold = generate(9, 2);
        assert_same(
            &format!("{name} on layout {label} (visit {visit})"),
            &run(job, &warm, cfg),
            &run(job, &cold, cfg),
        );
        assert!(PreparedGraph::layouts_held(&warm) <= 4);
        assert_eq!(PreparedGraph::layouts_held(&cold), 1);
    }
    assert_eq!(PreparedGraph::layouts_held(&warm), 4);
}

#[test]
fn a_new_graph_at_a_reused_address_starts_empty() {
    let cfg = EngineConfig::new(2, Policy::symple());
    for i in 0..12u64 {
        // Boxed, so that equal-sized graphs are likely to land where the
        // previous one was just freed.
        let g = Box::new(generate(8 + (i % 2) as u32, 100 + i));
        assert_eq!(PreparedGraph::layouts_held(&g), 0);
        let cold = generate(8 + (i % 2) as u32, 100 + i);
        assert_same(
            &format!("graph {i}"),
            &run(&BFS, &g, &cfg),
            &run(&BFS, &cold, &cfg),
        );
        assert_eq!(PreparedGraph::layouts_held(&g), 1);
    }
}

#[test]
fn concurrent_first_jobs_share_one_layout() {
    let cfg = EngineConfig::new(2, Policy::symple());
    let cold = generate(9, 3);
    let kcore = Job::Kcore(6);
    let expected = [run(&BFS, &cold, &cfg), run(&kcore, &cold, &cfg)];
    let warm = generate(9, 3);
    let start = Barrier::new(2);
    let first = |job: &Job| {
        // Both threads reach the empty slot together.
        start.wait();
        let held = PreparedGraph::of(&warm, &cfg);
        (held, run(job, &warm, &cfg))
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| first(&BFS));
        let b = s.spawn(|| first(&kcore));
        (
            a.join().expect("bfs thread"),
            b.join().expect("kcore thread"),
        )
    });
    assert_same("concurrent bfs", &a.1, &expected[0]);
    assert_same("concurrent kcore", &b.1, &expected[1]);
    assert!(Arc::ptr_eq(&a.0, &b.0));
    assert!(Arc::ptr_eq(&a.0, &PreparedGraph::of(&warm, &cfg)));
    for rank in 0..2 {
        assert!(Arc::ptr_eq(
            &a.0.local(&warm, rank),
            &b.0.local(&warm, rank)
        ));
    }
    assert_eq!(PreparedGraph::layouts_held(&warm), 1);
}

#[test]
fn clone_and_transpose_start_empty() {
    let cfg = EngineConfig::new(3, Policy::symple());
    // Every vertex points at its half and at one of 16 hubs: in-degree is
    // concentrated, out-degree is flat, so the transpose (partitioned by
    // in-degree) must cut elsewhere.
    let directed = || {
        let mut b = GraphBuilder::new(1024);
        for i in 1..1024u32 {
            b.add_edge(Vid::new(i), Vid::new(i / 2));
            b.add_edge(Vid::new(i), Vid::new(i % 16));
        }
        b.dedup(true).drop_self_loops(true).build()
    };
    let warm = directed();
    let on_warm = run(&BFS, &warm, &cfg);
    let held = PreparedGraph::of(&warm, &cfg);

    let clone = warm.clone();
    assert_eq!(PreparedGraph::layouts_held(&clone), 0);
    assert_same("clone", &run(&BFS, &clone, &cfg), &on_warm);
    assert_eq!(PreparedGraph::layouts_held(&clone), 1);
    assert!(!Arc::ptr_eq(&held, &PreparedGraph::of(&clone, &cfg)));

    let transposed = warm.transpose();
    assert_eq!(PreparedGraph::layouts_held(&transposed), 0);
    let cold_transposed = directed().transpose();
    assert_same(
        "transpose",
        &run(&BFS, &transposed, &cfg),
        &run(&BFS, &cold_transposed, &cfg),
    );
    assert_ne!(
        PreparedGraph::of(&transposed, &cfg).partition(),
        held.partition(),
        "the test graph must distinguish the two partitions"
    );
    // and the original still holds its own
    assert!(Arc::ptr_eq(&held, &PreparedGraph::of(&warm, &cfg)));
}
