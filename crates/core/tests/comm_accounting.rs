//! Exact communication-accounting invariants. Table 6 is only as
//! credible as these: dependency traffic must equal the closed-form
//! prediction of the wire format and schedule, and update traffic must
//! equal emissions times the pair encoding size.

use symple_core::{run_spmd, BitDep, EngineConfig, Partition, Policy, PullProgram, SignalOutcome};
use symple_graph::{RmatConfig, Vid};
use symple_net::CommKind;

/// Scans everything, never breaks, emits nothing: isolates the fixed
/// dependency-message traffic of the schedule.
struct ScanAll;
impl PullProgram for ScanAll {
    type Update = ();
    type Dep = BitDep;
    fn dense_active(&self, _v: Vid) -> bool {
        true
    }
    fn signal(
        &self,
        _v: Vid,
        srcs: &[Vid],
        _dep: &mut BitDep,
        _slot: usize,
        _carried: bool,
        _emit: &mut dyn FnMut(()),
    ) -> SignalOutcome {
        SignalOutcome::scanned(srcs.len() as u64)
    }
}

/// Emits one unit update per destination vertex segment.
struct EmitOnePerSegment;
impl PullProgram for EmitOnePerSegment {
    type Update = u32;
    type Dep = BitDep;
    fn dense_active(&self, _v: Vid) -> bool {
        true
    }
    fn signal(
        &self,
        _v: Vid,
        srcs: &[Vid],
        _dep: &mut BitDep,
        _slot: usize,
        _carried: bool,
        emit: &mut dyn FnMut(u32),
    ) -> SignalOutcome {
        emit(7);
        SignalOutcome::scanned(srcs.len() as u64)
    }
}

#[test]
fn dependency_bytes_match_closed_form() {
    let g = RmatConfig::graph500(9, 8).generate();
    let p = 5;
    // full layout, single group: every non-final step of every machine
    // sends one bitmap covering the whole destination partition.
    let cfg = EngineConfig::new(p, Policy::symple_basic());
    let res = run_spmd(&g, &cfg, |w| {
        let mut dep = BitDep::new(w.dep_slots_needed());
        w.pull(&ScanAll, &mut dep, &mut |_, ()| false);
    });
    let part = Partition::chunked(&g, p, cfg.partition_alpha);
    let expected: u64 = (0..p)
        .map(|j| {
            let slots = part.len(j);
            if slots == 0 {
                0
            } else {
                // partition j's dependency hops between p-1 machine pairs
                (p as u64 - 1) * BitDep::wire_bytes(slots) as u64
            }
        })
        .sum();
    assert_eq!(res.stats.comm.bytes(CommKind::Dependency), expected);
    assert_eq!(
        res.stats.comm.messages(CommKind::Dependency),
        (p as u64 - 1) * p as u64,
        "one dependency message per (machine, non-final step)"
    );
}

#[test]
fn dependency_bytes_split_but_sum_equal_under_double_buffering() {
    let g = RmatConfig::graph500(9, 8).generate();
    let p = 4;
    let single = {
        let cfg = EngineConfig::new(p, Policy::symple_basic());
        run_spmd(&g, &cfg, |w| {
            let mut dep = BitDep::new(w.dep_slots_needed());
            w.pull(&ScanAll, &mut dep, &mut |_, ()| false);
        })
    };
    let grouped = {
        let cfg = EngineConfig::new(
            p,
            Policy::SympleGraph {
                differentiated: false,
                double_buffering: true,
            },
        )
        .buffer_groups(4);
        run_spmd(&g, &cfg, |w| {
            let mut dep = BitDep::new(w.dep_slots_needed());
            w.pull(&ScanAll, &mut dep, &mut |_, ()| false);
        })
    };
    // more, smaller messages; payload may differ only by per-group
    // bit-packing padding (≤ 1 byte per group message)
    assert!(
        grouped.stats.comm.messages(CommKind::Dependency)
            > single.stats.comm.messages(CommKind::Dependency)
    );
    let a = single.stats.comm.bytes(CommKind::Dependency);
    let b = grouped.stats.comm.bytes(CommKind::Dependency);
    assert!(b >= a && b <= a + grouped.stats.comm.messages(CommKind::Dependency));
}

#[test]
fn update_bytes_equal_emissions_times_pair_size() {
    let g = RmatConfig::graph500(9, 8).generate();
    for p in [2usize, 4] {
        let cfg = EngineConfig::new(p, Policy::Gemini);
        let res = run_spmd(&g, &cfg, |w| {
            let mut dep = BitDep::new(w.dep_slots_needed());
            let mut local_applied = 0u64;
            w.pull(&EmitOnePerSegment, &mut dep, &mut |_, x| {
                assert_eq!(x, 7);
                local_applied += 1;
                false
            });
            local_applied
        });
        // every emission is applied exactly once...
        let applied: u64 = res.outputs.iter().sum();
        assert_eq!(applied, res.stats.work.updates_emitted());
        // ...and the bytes on the wire are (vid + u32) per *remote*
        // emission; local-bucket emissions never hit the network, so
        // wire bytes are at most emissions × 8 and divisible by 8.
        let bytes = res.stats.comm.bytes(CommKind::Update);
        assert_eq!(bytes % 8, 0);
        assert!(bytes <= applied * 8);
        assert!(bytes > 0);
    }
}
