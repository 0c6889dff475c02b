//! Cross-layer invariants of the tracing/metrics subsystem.
//!
//! These pin the guarantees the observability layer makes to its
//! consumers: every machine's cells sum *exactly* to its communication
//! ledger and the ledgers to the run's `CommStats`, policies without
//! dependency propagation
//! produce exactly zero dependency traffic, traces are fully
//! deterministic across repeated seeded runs, and what only a run can
//! measure — per-machine wall time, the reliable layer's counters —
//! reaches the metrics report.

use symplegraph::algos::{bfs, kcore, mis};
use symplegraph::core::{Backend, EngineConfig, FaultPlan, Policy, RunStats, TraceLevel};
use symplegraph::graph::{Graph, RmatConfig, Vid};
use symplegraph::net::{CommKind, CommStats, CostModel, SpanCategory};

fn graph() -> Graph {
    RmatConfig::graph500(9, 8).seed(11).cleaned(true).generate()
}

fn cfg(machines: usize, policy: Policy) -> EngineConfig {
    EngineConfig::new(machines, policy)
        .cost(CostModel::cluster_a().scale_fixed_costs(1e-3))
        .trace_level(TraceLevel::Full)
}

/// Each machine's cells sum to its ledger total, and the totals to the
/// run's `CommStats`.
fn assert_cells_sum_to_comm(stats: &RunStats) {
    for node in &stats.trace.nodes {
        let cells = node
            .cells
            .values()
            .fold(CommStats::default(), |a, c| a + c.comm);
        assert_eq!(
            cells,
            node.comm(),
            "machine {}: cells vs total",
            node.machine
        );
    }
    assert_eq!(stats.trace.comm(), stats.comm);
}

#[test]
fn no_dependency_bytes_without_dependency_propagation() {
    let g = graph();
    for policy in [Policy::Gemini, Policy::Galois] {
        for (_, stats) in [
            bfs(&g, &cfg(4, policy), Vid::new(1)),
            (
                bfs(&g, &cfg(3, policy), Vid::new(2)).0,
                kcore(&g, &cfg(3, policy), 4).1,
            ),
        ] {
            assert_eq!(
                stats.comm.bytes(CommKind::Dependency),
                0,
                "{policy:?} must send no dependency traffic"
            );
            assert_eq!(stats.comm.messages(CommKind::Dependency), 0);
            assert_cells_sum_to_comm(&stats);
        }
    }
}

#[test]
fn symplegraph_sends_dependency_and_reconciles() {
    let g = graph();
    let (_, stats) = bfs(&g, &cfg(4, Policy::symple()), Vid::new(1));
    assert!(
        stats.comm.bytes(CommKind::Dependency) > 0,
        "SympleGraph policy must circulate dependency state"
    );
    assert_cells_sum_to_comm(&stats);
    let (_, stats) = mis(&g, &cfg(4, Policy::symple()), 1);
    assert_cells_sum_to_comm(&stats);
}

#[test]
fn categorized_time_accounts_for_every_machine_timeline() {
    // Each machine's categorized span time ends at the run's makespan:
    // the virtual clock only advances inside an attributed span, and the
    // final barrier-style equalization is itself attributed.
    let g = graph();
    let (_, stats) = kcore(&g, &cfg(4, Policy::symple()), 4);
    for node in &stats.trace.nodes {
        let total: f64 = SpanCategory::ALL.iter().map(|&c| node.time(c)).sum();
        assert!(
            total <= stats.virtual_time() + 1e-9,
            "machine {} accounted {total} > makespan {}",
            node.machine,
            stats.virtual_time()
        );
        assert!(total > 0.0, "machine {} recorded no time", node.machine);
    }
    assert!(stats.time.accounted() > 0.0);
}

#[test]
fn traces_are_identical_across_repeated_runs() {
    let run = || {
        let g = graph();
        let (_, stats) = bfs(&g, &cfg(4, Policy::symple()), Vid::new(1));
        stats
    };
    let a = run();
    let b = run();
    assert_eq!(a.virtual_time(), b.virtual_time(), "virtual time is exact");
    assert_eq!(a.trace.nodes.len(), b.trace.nodes.len());
    for (na, nb) in a.trace.nodes.iter().zip(&b.trace.nodes) {
        assert_eq!(na.machine, nb.machine);
        assert_eq!(na.spans.len(), nb.spans.len(), "span streams must match");
        for (sa, sb) in na.spans.iter().zip(&nb.spans) {
            assert_eq!(sa.category, sb.category);
            assert_eq!(sa.start, sb.start, "span starts are bit-identical");
            assert_eq!(sa.end, sb.end);
            assert_eq!(sa.scope, sb.scope);
        }
        assert_eq!(na.cells, nb.cells, "cell accounting must match");
    }
    assert_eq!(a.trace.to_chrome_json(), b.trace.to_chrome_json());
    // The measured wall clocks (`wall_secs` / `comm_wall_secs` and the
    // derived `max_wall_secs`) are host measurements — the one documented
    // non-deterministic part of the report (DESIGN.md §12). Everything
    // else in the metrics JSON must replay bit-for-bit.
    let logical_json = |stats: &RunStats| {
        let mut trace = stats.trace.clone();
        for machine in &mut trace.nodes {
            machine.wall_secs = 0.0;
            machine.comm_wall_secs = 0.0;
        }
        trace.to_metrics_json(stats.virtual_time())
    };
    assert_eq!(logical_json(&a), logical_json(&b));
}

#[test]
fn chrome_export_has_one_track_per_machine_with_expected_spans() {
    let g = graph();
    let (_, stats) = bfs(&g, &cfg(4, Policy::symple()), Vid::new(1));
    let json = stats.trace.to_chrome_json();
    for machine in 0..4 {
        assert!(
            json.contains(&format!("\"tid\":{machine}")),
            "missing track for machine {machine}"
        );
    }
    // "exchange" is the update-arrival stall.
    for name in ["compute", "dep-wait", "exchange"] {
        assert!(
            json.contains(&format!("\"name\":\"{name}\"")),
            "no {name} spans"
        );
    }
    // Scope labels ride along as event args.
    assert!(json.contains("\"iteration\""));
}

#[test]
fn trace_level_metrics_skips_spans_but_keeps_cells() {
    let g = graph();
    let mut config = cfg(3, Policy::symple());
    config.trace_level = TraceLevel::Metrics;
    let (_, stats) = bfs(&g, &config, Vid::new(1));
    assert!(stats.trace.nodes.iter().all(|n| n.spans.is_empty()));
    assert_cells_sum_to_comm(&stats);
    assert!(stats.time.accounted() > 0.0);
}

#[test]
fn thread_backend_measures_per_node_wall_time() {
    let g = graph();
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

#[test]
fn fault_counters_reach_the_metrics_report() {
    let g = graph();
    let c = EngineConfig::new(4, Policy::symple()).fault_plan(FaultPlan::chaos(42));
    let (_, st) = bfs(&g, &c, Vid::new(7));
    let m = &st.trace;
    let rel = st.comm.reliable();
    assert!(rel.retransmits > 0 && rel.dup_drops > 0, "chaos(42) fired");
    assert_cells_sum_to_comm(&st);
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
