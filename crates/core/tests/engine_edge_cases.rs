//! Engine edge cases: degenerate graphs, extreme machine counts, and
//! configuration corners that unit tests don't reach.

use std::panic::{catch_unwind, AssertUnwindSafe};
use symple_core::{
    run_spmd, Backend, BitDep, EngineConfig, FaultPlan, Policy, PullProgram, SignalOutcome,
};
use symple_graph::{star, Graph, GraphBuilder, Vid};

/// Emit every active in-neighbour until the first one ≥ 10, then break.
struct ToyProgram;

impl PullProgram for ToyProgram {
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
        for (i, &u) in srcs.iter().enumerate() {
            emit(u);
            if u.raw() >= 10 {
                dep.mark(slot);
                return SignalOutcome::broke_after(i as u64 + 1);
            }
        }
        SignalOutcome::scanned(srcs.len() as u64)
    }
}

fn run_toy(graph: &Graph, machines: usize, policy: Policy) -> u64 {
    run_toy_with(graph, &EngineConfig::new(machines, policy))
}

fn run_toy_with(graph: &Graph, cfg: &EngineConfig) -> u64 {
    let res = run_spmd(graph, cfg, |w| {
        let mut dep = BitDep::new(w.dep_slots_needed());
        let mut received = 0u64;
        let mut apply = |_v: Vid, _u: Vid| -> bool {
            received += 1;
            true
        };
        w.pull(&ToyProgram, &mut dep, &mut apply);
        received
    });
    res.outputs.iter().sum()
}

#[test]
fn empty_graph_all_policies() {
    let g = GraphBuilder::new(0).build();
    for policy in [Policy::Gemini, Policy::symple(), Policy::Galois] {
        for machines in [1usize, 2, 4] {
            assert_eq!(run_toy(&g, machines, policy), 0);
        }
    }
}

#[test]
fn edgeless_graph() {
    let g = GraphBuilder::new(100).build();
    assert_eq!(run_toy(&g, 3, Policy::symple()), 0);
}

#[test]
fn single_vertex_self_loop() {
    let mut b = GraphBuilder::new(1);
    b.add_edge(Vid::new(0), Vid::new(0));
    let g = b.build();
    for policy in [Policy::Gemini, Policy::symple()] {
        assert_eq!(run_toy(&g, 1, policy), 1);
        assert_eq!(run_toy(&g, 2, policy), 1);
    }
}

#[test]
fn more_machines_than_occupied_partitions() {
    // 70 vertices, 16 machines: word-aligned chunking leaves most
    // partitions empty; the protocol must still terminate and deliver.
    let g = star(70);
    let gem = run_toy(&g, 16, Policy::Gemini);
    let sym = run_toy(&g, 16, Policy::symple());
    assert!(gem > 0 && sym > 0);
    // ToyProgram breaks, so dependency propagation may only reduce
    // deliveries — never change the protocol's ability to terminate.
    assert!(
        sym <= gem,
        "dependency must not add deliveries ({sym} vs {gem})"
    );
}

#[test]
fn many_machines_many_groups() {
    let g = star(200);
    let mut cfg = EngineConfig::new(8, Policy::symple());
    cfg.buffer_groups = 32; // more groups than some partitions have slots
    let res = run_spmd(&g, &cfg, |w| {
        let mut dep = BitDep::new(w.dep_slots_needed());
        let mut n = 0u64;
        w.pull(&ToyProgram, &mut dep, &mut |_, _| {
            n += 1;
            true
        });
        n
    });
    assert!(res.outputs.iter().sum::<u64>() > 0);
}

#[test]
fn threshold_zero_and_huge() {
    let g = star(150);
    for threshold in [0usize, usize::MAX / 2] {
        let cfg = EngineConfig::new(3, Policy::symple()).degree_threshold(threshold);
        let res = run_spmd(&g, &cfg, |w| {
            let mut dep = BitDep::new(w.dep_slots_needed());
            let mut n = 0u64;
            w.pull(&ToyProgram, &mut dep, &mut |_, _| {
                n += 1;
                true
            });
            n
        });
        assert!(res.outputs.iter().sum::<u64>() > 0, "threshold {threshold}");
    }
}

#[test]
fn dependency_skip_reduces_deliveries_on_hub() {
    // The star hub has 149 in-neighbours spread over machines; ToyProgram
    // breaks at the first id >= 10, so with dependency the later machines
    // deliver nothing for the hub.
    let g = star(150);
    let gem = run_toy(&g, 6, Policy::Gemini);
    let sym = run_toy(&g, 6, Policy::symple());
    assert!(
        sym < gem,
        "dependency must reduce deliveries ({sym} vs {gem})"
    );
}

#[test]
fn worker_accessors_are_consistent() {
    let g = star(100);
    let cfg = EngineConfig::new(4, Policy::symple());
    let res = run_spmd(&g, &cfg, |w| {
        assert_eq!(w.world(), 4);
        assert!(w.rank() < 4);
        assert_eq!(w.policy(), Policy::symple());
        let (lo, hi) = w.my_range();
        assert!(lo <= hi);
        assert_eq!(w.masters().count(), (hi.raw() - lo.raw()) as usize);
        for v in w.masters() {
            assert!(w.is_master(v));
            assert_eq!(w.partition().owner(v), w.rank());
        }
        assert!(w.dep_slots_needed() >= 1);
        w.rank()
    });
    assert_eq!(res.outputs, vec![0, 1, 2, 3]);
}

#[test]
fn virtual_time_increases_with_machines_for_fixed_latency_share() {
    // More machines => more steps and messages; with unscaled cluster-A
    // latency on a small graph the modelled time must not be NaN/zero and
    // the run must stay deterministic.
    let g = star(300);
    let mut last = None;
    for machines in [1usize, 2, 4, 8] {
        let cfg = EngineConfig::new(machines, Policy::symple());
        let res = run_spmd(&g, &cfg, |w| {
            let mut dep = BitDep::new(w.dep_slots_needed());
            w.pull(&ToyProgram, &mut dep, &mut |_, _| true)
        });
        assert!(res.stats.virtual_time().is_finite());
        if machines > 1 {
            assert!(res.stats.virtual_time() > 0.0);
        }
        last = Some(res.stats.virtual_time());
    }
    assert!(last.unwrap() > 0.0);
}

#[test]
fn an_exhausted_retry_budget_is_the_root_cause() {
    // Every copy of every message is dropped: the first send on either
    // machine exhausts its budget. `run_spmd` must re-raise that, not the
    // peer's abort on the poison envelope and not a receive timeout.
    let g = star(64);
    for backend in [Backend::Sim, Backend::Thread] {
        for seed in [0, 7] {
            let cfg = EngineConfig::new(2, Policy::symple())
                .backend(backend)
                .fault_plan(FaultPlan::new(seed).drop_rate(1.0));
            let err = catch_unwind(AssertUnwindSafe(|| run_toy_with(&g, &cfg))).unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("all 20 attempts dropped"), "{backend}: {msg}");
            let at = "node 0 failed at iteration 1, step 0, Tag { kind: Update, a: 2, b: 0 }: ";
            assert!(msg.starts_with(at), "{backend}: {msg}");
            assert!(!msg.contains("aborting:"), "{backend}: {msg}");
            assert!(!msg.contains("timed out"), "{backend}: {msg}");
        }
    }
}
