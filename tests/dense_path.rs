//! The dense path: what a dependency-free pull program computes must not
//! depend on the schedule it is given. A program that answers
//! `carries_dependency() == false` takes one pass per bucket and no
//! dependency messages under every policy, and its updates still reach
//! each master in the circulant processing order of that master's
//! partition (remote sources in processing order, the local share last).
//! The first test pins that order with an update whose fold is *not*
//! associative — an `f64` partial sum — against a sequential oracle, over
//! every knob that sits between `signal` and `apply`; the second holds the
//! native PageRank kernel and the checked `pagerank_udf` to the
//! single-thread reference, bit for bit.

use symplegraph::algos::{pagerank, pagerank_reference, PagerankOutput};
use symplegraph::core::{
    processing_order, run_spmd, Backend, BitDep, EngineConfig, FaultPlan, Partition, Policy,
    PullProgram, SignalOutcome, WireCodec,
};
use symplegraph::graph::{path, star, Graph, GraphBuilder, RmatConfig, Vid};
use symplegraph::udf::{instrument, paper_udfs, PropArray, PropertyStore, UdfProgram};

/// Sums the weights of a destination's local in-neighbours, in neighbour
/// order, and emits the partial sum: no break, nothing carried.
struct FloatSum<'a> {
    weight: &'a [f64],
}

impl PullProgram for FloatSum<'_> {
    type Update = f64;
    type Dep = BitDep;

    fn dense_active(&self, _v: Vid) -> bool {
        true
    }

    fn carries_dependency(&self) -> bool {
        false
    }

    fn signal(
        &self,
        _v: Vid,
        srcs: &[Vid],
        _dep: &mut BitDep,
        _slot: usize,
        _carried: bool,
        emit: &mut dyn FnMut(f64),
    ) -> SignalOutcome {
        let mut acc = 0.0;
        for &u in srcs {
            acc += self.weight[u.index()];
        }
        emit(acc);
        SignalOutcome::scanned(srcs.len() as u64)
    }
}

/// Pull passes per job: the second one runs on the buffers the first one
/// pooled.
const PASSES: usize = 2;

/// Weights spread over forty binary orders of magnitude, so that the
/// order in which partial sums are added shows in the low bits.
fn weights(n: usize) -> Vec<f64> {
    (0..n as u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
            (1.0 + (h % 1000) as f64 / 7.0) * 2f64.powi((h >> 20) as i32 % 40 - 20)
        })
        .collect()
}

/// Every vertex's sum as the engine delivers it, as bits.
fn float_job(g: &Graph, cfg: &EngineConfig, weight: &[f64]) -> Vec<u64> {
    let n = g.num_vertices();
    let mut res = run_spmd(g, cfg, |w| {
        let mut acc = vec![0.0f64; n];
        let mut dep = BitDep::new(w.dep_slots_needed());
        let prog = FloatSum { weight };
        for _ in 0..PASSES {
            w.pull(&prog, &mut dep, &mut |v: Vid, partial: f64| {
                acc[v.index()] += partial;
                false
            });
        }
        w.sync_values(&mut acc);
        acc.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
    });
    res.outputs.swap_remove(0)
}

/// The sequential oracle: each vertex folds one partial sum per machine
/// that holds some of its in-neighbours, visiting the machines in `order`
/// of the vertex's own partition.
fn fold_in_order(
    g: &Graph,
    part: &Partition,
    weight: &[f64],
    order: impl Fn(usize) -> Vec<usize>,
) -> Vec<u64> {
    let mut acc = vec![0.0f64; g.num_vertices()];
    for _ in 0..PASSES {
        for v in g.vertices() {
            for m in order(part.owner(v)) {
                let (lo, hi) = part.range(m);
                let srcs = g.in_neighbors_in_range(v, lo, hi);
                if !srcs.is_empty() {
                    acc[v.index()] += srcs.iter().map(|u| weight[u.index()]).sum::<f64>();
                }
            }
        }
    }
    acc.iter().map(|x| x.to_bits()).collect()
}

/// Small chunks and frames, so that a 256-vertex graph still splits into
/// several of each.
fn small_grain(machines: usize, policy: Policy) -> EngineConfig {
    EngineConfig::new(machines, policy)
        .degree_threshold(4)
        .chunk_size(16)
        .exchange_chunk(64)
}

#[test]
fn float_partials_fold_in_circulant_order_under_every_knob() {
    let g = RmatConfig::graph500(8, 8).cleaned(true).generate();
    let weight = weights(g.num_vertices());
    for machines in [1usize, 2, 3, 5] {
        let base = small_grain(machines, Policy::symple());
        let part = Partition::chunked(&g, machines, base.partition_alpha);
        let oracle = fold_in_order(&g, &part, &weight, |j| processing_order(j, machines));
        if machines > 1 {
            // The test would be vacuous if the order did not matter.
            let by_rank = fold_in_order(&g, &part, &weight, |_| (0..machines).collect());
            assert_ne!(oracle, by_rank, "{machines} machines: order-insensitive");
        }
        // The dense path under SympleGraph, across the whole product;
        // `frame` is 64-byte frames or one frame per message.
        for threads in [1usize, 2] {
            for frame in [64usize, 1 << 30] {
                for codec in [WireCodec::Flat, WireCodec::Adaptive] {
                    for backend in [Backend::Sim, Backend::Thread] {
                        for faults in [None, Some(FaultPlan::chaos(7))] {
                            let cfg = base
                                .clone()
                                .threads(threads)
                                .exchange_chunk(frame)
                                .wire_codec(codec)
                                .backend(backend)
                                .fault_plan(faults);
                            assert_eq!(
                                float_job(&g, &cfg, &weight),
                                oracle,
                                "{machines} machines, {threads} threads, {frame}-byte frames, \
                                 {codec:?}, {backend:?}, faults {}",
                                faults.is_some()
                            );
                        }
                    }
                }
            }
        }
        // The same order under the policies that always took the dense
        // pass, and under SympleGraph without its two optimisations.
        for policy in [Policy::Gemini, Policy::Galois, Policy::symple_basic()] {
            let got = float_job(&g, &small_grain(machines, policy).threads(2), &weight);
            assert_eq!(got, oracle, "{machines} machines, {policy:?}");
        }
    }
}

/// PageRank with the checked `pagerank_udf` as the pull program: the
/// iteration of `symple_algos::pagerank`, its signal replaced by the UDF
/// bound to a per-iteration `contrib` property.
fn pagerank_by_udf(g: &Graph, cfg: &EngineConfig, tol: u64, max_iters: u32) -> PagerankOutput {
    use symplegraph::algos::pagerank::{ALPHA, BASE, SCALE};
    let inst = instrument(&paper_udfs::pagerank_udf()).expect("instrumentation");
    assert!(
        !inst.info.has_dependency(),
        "pagerank_udf has no break: the analyzer must find no dependency"
    );
    let n = g.num_vertices();
    let mut res = run_spmd(g, cfg, |w| {
        let mut rank = vec![SCALE; n];
        let mut sums = vec![0u64; n];
        let mut iterations = 0u32;
        let mut converged = false;
        while iterations < max_iters && !converged {
            iterations += 1;
            // Every machine derives the same dangling mass from the rank
            // array, which this plain formulation syncs every iteration.
            let dangling: u64 = g
                .vertices()
                .filter(|&v| g.out_degree(v) == 0)
                .map(|v| rank[v.index()])
                .sum();
            let contrib = g
                .vertices()
                .map(|v| {
                    let deg = g.out_degree(v) as u64;
                    rank[v.index()].checked_div(deg).unwrap_or(0) as i64
                })
                .collect();
            let mut props = PropertyStore::new();
            props.insert("contrib", PropArray::Ints(contrib));
            let prog = UdfProgram::new(&inst, &props)
                .exec(cfg.udf_exec)
                .dep_width(cfg.dep_width);
            assert!(!prog.carries_dependency());
            let mut dep = prog.make_dep(w.dep_slots_needed());
            sums.fill(0);
            w.pull(&prog, &mut dep, &mut |v: Vid, partial: u64| {
                sums[v.index()] += partial;
                false
            });
            let mut residual = 0u64;
            for v in w.masters() {
                let new = BASE + ALPHA * (sums[v.index()] + dangling / n as u64) / SCALE;
                residual = residual.max(new.abs_diff(rank[v.index()]));
                rank[v.index()] = new;
            }
            w.sync_values(&mut rank);
            converged = w.allreduce(residual, |a, b| a.max(b)) <= tol;
        }
        PagerankOutput {
            rank,
            iterations,
            converged,
        }
    });
    res.outputs.swap_remove(0)
}

#[test]
fn pagerank_native_and_udf_match_the_reference() {
    // 0 -> 1 -> 2 -> 3 with a side edge: vertex 3 dangles, vertex 0 has
    // no in-edge, so the dangling mass is all that reaches it.
    let mut dangling = GraphBuilder::new(5);
    for (a, b) in [(0, 1), (1, 2), (2, 3), (4, 1), (1, 4)] {
        dangling.add_edge(Vid::new(a), Vid::new(b));
    }
    let graphs = [
        ("path", path(50), 60),
        ("star", star(50), 130),
        ("dangling", dangling.build(), 60),
        (
            "rmat9",
            RmatConfig::graph500(9, 8).cleaned(true).generate(),
            25,
        ),
    ];
    for (name, g, max_iters) in &graphs {
        for tol in [0u64, 100, 10_000] {
            let (reference, _) = pagerank_reference(g, tol, *max_iters);
            for machines in [1usize, 2, 3, 5] {
                for policy in [Policy::symple(), Policy::Gemini] {
                    let cfg = EngineConfig::new(machines, policy)
                        .threads(2)
                        .chunk_size(64);
                    let label = format!("{name}, tol {tol}, {machines} machines, {policy:?}");
                    let (native, _) = pagerank(g, &cfg, tol, *max_iters);
                    assert_eq!(native, reference, "native: {label}");
                    let by_udf = pagerank_by_udf(g, &cfg, tol, *max_iters);
                    assert_eq!(by_udf, reference, "pagerank_udf: {label}");
                }
            }
        }
    }
}
