//! Property-based tests of the engine's structural invariants on
//! arbitrary graphs and machine counts: partition coverage, bucket
//! completeness, circulant permutation laws, dependency-slot agreement,
//! the memoized prepared graph against direct construction, and a
//! model-checked pull over a toy program.

use proptest::prelude::*;
use std::sync::Arc;
use symple_core::{
    dst_partition, processing_order, run_spmd, src_machine, Backend, BitDep, BucketPart, DepLayout,
    EngineConfig, FaultPlan, LocalGraph, Partition, Policy, PreparedGraph, PullProgram,
    SignalOutcome, TraceLevel, WireCodec,
};
use symple_graph::{Graph, GraphBuilder, Vid};

/// A bucket part's entries, owned, for comparison.
fn entries(part: &BucketPart) -> Vec<(Vid, usize, Vec<Vid>)> {
    part.iter()
        .map(|(v, slot, srcs)| (v, slot, srcs.to_vec()))
        .collect()
}

fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (s, d) in edges {
                b.add_edge(Vid::new(s), Vid::new(d));
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn partition_covers_exactly(g in arb_graph(300, 600), p in 1usize..8) {
        let part = Partition::chunked(&g, p, 8.0);
        prop_assert_eq!(part.num_parts(), p);
        let mut owner_count = vec![0usize; g.num_vertices()];
        for i in 0..p {
            for v in part.vertices(i) {
                owner_count[v.index()] += 1;
                prop_assert_eq!(part.owner(v), i);
            }
        }
        prop_assert!(owner_count.iter().all(|&c| c == 1));
    }

    #[test]
    fn buckets_partition_every_edge(g in arb_graph(200, 500), p in 1usize..6) {
        let part = Partition::chunked(&g, p, 8.0);
        let layout = DepLayout::full(&part);
        let mut seen = 0usize;
        for rank in 0..p {
            let local = LocalGraph::build(&g, &part, &layout, rank);
            seen += local.num_edges();
            for j in 0..p {
                let b = local.bucket(j);
                for (v, slot, srcs) in b.hi.iter() {
                    prop_assert_eq!(part.owner(v), j);
                    prop_assert_eq!(layout.slot_of(j, v), Some(slot));
                    prop_assert!(!srcs.is_empty());
                }
            }
        }
        prop_assert_eq!(seen, g.num_edges());
    }

    #[test]
    fn circulant_laws(p in 1usize..12) {
        for s in 0..p {
            // bijection per step
            let mut seen = vec![false; p];
            for i in 0..p {
                let j = dst_partition(i, s, p);
                prop_assert!(!seen[j]);
                seen[j] = true;
                prop_assert_eq!(src_machine(j, s, p), i);
            }
        }
        for j in 0..p {
            let order = processing_order(j, p);
            // each machine appears exactly once; master last
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..p).collect::<Vec<_>>());
            prop_assert_eq!(*order.last().unwrap(), j);
        }
    }

    #[test]
    fn high_degree_layout_agrees_across_ranks(
        g in arb_graph(200, 500),
        p in 1usize..6,
        threshold in 1usize..8,
    ) {
        let part = Partition::chunked(&g, p, 8.0);
        let layout = DepLayout::high_degree(&g, &part, threshold);
        for j in 0..p {
            let mut slots_seen = std::collections::BTreeSet::new();
            for v in part.vertices(j) {
                match layout.slot_of(j, v) {
                    Some(s) => {
                        prop_assert!(g.in_degree(v) >= threshold);
                        prop_assert!(s < layout.slots(j));
                        prop_assert!(slots_seen.insert(s), "duplicate slot");
                    }
                    None => prop_assert!(g.in_degree(v) < threshold),
                }
            }
            prop_assert_eq!(slots_seen.len(), layout.slots(j));
        }
    }

    /// What a graph memoizes is what direct construction gives, which in
    /// turn is the per-vertex definition of a bucket; and only the layout
    /// fields of a configuration tell prepared graphs apart.
    #[test]
    fn prepared_graph_equals_direct_construction(
        g in arb_graph(200, 500),
        p in 1usize..6,
        alpha in 0usize..3,
        threshold in 1usize..8,
        policy_idx in 0usize..3,
    ) {
        let policy = [Policy::Gemini, Policy::symple(), Policy::symple_basic()][policy_idx];
        let mut cfg = EngineConfig::new(p, policy).degree_threshold(threshold);
        cfg.partition_alpha = [0.0, 1.5, 8.0][alpha];
        let prepared = PreparedGraph::of(&g, &cfg);

        let part = Partition::chunked(&g, p, cfg.partition_alpha);
        let layout = if cfg.differentiated() {
            DepLayout::high_degree(&g, &part, threshold)
        } else {
            DepLayout::full(&part)
        };
        prop_assert_eq!(prepared.partition(), &part);
        prop_assert_eq!(prepared.dep_layout().is_differentiated(), cfg.differentiated());
        for rank in 0..p {
            let memoized = prepared.local(&g, rank);
            let direct = LocalGraph::build(&g, &part, &layout, rank);
            let (my_lo, my_hi) = part.range(rank);
            for j in 0..p {
                prop_assert_eq!(prepared.dep_layout().slots(j), layout.slots(j));
                let (mut hi, mut lo) = (Vec::new(), Vec::new());
                for v in part.vertices(j) {
                    let slot = layout.slot_of(j, v);
                    prop_assert_eq!(prepared.dep_layout().slot_of(j, v), slot);
                    let srcs = g.in_neighbors_in_range(v, my_lo, my_hi).to_vec();
                    if !srcs.is_empty() {
                        match slot {
                            Some(slot) => hi.push((v, slot, srcs)),
                            None => lo.push((v, u32::MAX as usize, srcs)),
                        }
                    }
                }
                for local in [&*memoized, &direct] {
                    prop_assert_eq!(&entries(&local.bucket(j).hi), &hi);
                    prop_assert_eq!(&entries(&local.bucket(j).lo), &lo);
                }
            }
        }

        // equal layout fields, every other field different: one prepared graph
        let elsewhere = cfg
            .clone()
            .threads(3)
            .wire_codec(WireCodec::Adaptive)
            .trace_level(TraceLevel::Full)
            .backend(Backend::Thread)
            .fault_plan(FaultPlan::chaos(5));
        prop_assert!(Arc::ptr_eq(&prepared, &PreparedGraph::of(&g, &elsewhere)));
        // a full layout does not read the threshold; a differentiated one does
        let other_threshold = cfg.clone().degree_threshold(threshold + 1);
        prop_assert_eq!(
            Arc::ptr_eq(&prepared, &PreparedGraph::of(&g, &other_threshold)),
            !cfg.differentiated()
        );
        prop_assert!(!Arc::ptr_eq(
            &prepared,
            &PreparedGraph::of(&g, &EngineConfig::new(p + 1, policy))
        ));
    }

    /// A toy pull program ("emit the first even in-neighbour") must
    /// deliver exactly one update per qualifying vertex to its master,
    /// regardless of policy and machine count.
    #[test]
    fn pull_delivers_each_update_to_its_master(
        g in arb_graph(150, 400),
        p in 1usize..6,
        policy_idx in 0usize..3,
    ) {
        struct FirstEven;
        impl PullProgram for FirstEven {
            type Update = Vid;
            type Dep = BitDep;
            fn dense_active(&self, _v: Vid) -> bool {
                true
            }
            fn signal(
                &self,
                _v: Vid,
                srcs: &[Vid],
                dep: &mut BitDep,
                slot: usize,
                _carried: bool,
                emit: &mut dyn FnMut(Vid),
            ) -> SignalOutcome {
                for (i, &s) in srcs.iter().enumerate() {
                    if s.raw() % 2 == 0 {
                        emit(s);
                        dep.mark(slot);
                        return SignalOutcome::broke_after(i as u64 + 1);
                    }
                }
                SignalOutcome::scanned(srcs.len() as u64)
            }
        }
        let policy = [Policy::Gemini, Policy::symple(), Policy::symple_basic()][policy_idx];
        let cfg = EngineConfig::new(p, policy).degree_threshold(3);
        let res = run_spmd(&g, &cfg, |w| {
            let mut firsts: Vec<(Vid, Vid)> = Vec::new();
            let mut dep = BitDep::new(w.dep_slots_needed());
            let mut seen = std::collections::BTreeSet::new();
            let mut apply = |v: Vid, u: Vid| -> bool {
                if seen.insert(v) {
                    firsts.push((v, u));
                    true
                } else {
                    false
                }
            };
            w.pull(&FirstEven, &mut dep, &mut apply);
            firsts
        });
        // gather and verify: every vertex with an even in-neighbour got
        // exactly one update naming an even in-neighbour, at its master
        let part = Partition::chunked(&g, p, cfg.partition_alpha);
        let mut got = vec![None; g.num_vertices()];
        for (rank, firsts) in res.outputs.iter().enumerate() {
            for &(v, u) in firsts {
                prop_assert_eq!(part.owner(v), rank, "applied off-master");
                prop_assert!(got[v.index()].is_none(), "duplicate first for {}", v);
                got[v.index()] = Some(u);
            }
        }
        for v in g.vertices() {
            let has_even = g.in_neighbors(v).iter().any(|u| u.raw() % 2 == 0);
            match got[v.index()] {
                Some(u) => {
                    prop_assert!(has_even);
                    prop_assert!(u.raw() % 2 == 0);
                    prop_assert!(g.in_neighbors(v).contains(&u));
                }
                None => prop_assert!(!has_even, "{} missed its even neighbour", v),
            }
        }
    }
}
