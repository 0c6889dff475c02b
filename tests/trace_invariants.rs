//! Cross-layer invariants of the tracing/metrics subsystem.
//!
//! These pin the guarantees the observability layer makes to its
//! consumers: categorized byte totals reconcile *exactly* with the
//! engine's raw `CommStats`, policies without dependency propagation
//! produce exactly zero dependency traffic, and traces are fully
//! deterministic across repeated seeded runs.

use symplegraph::algos::{bfs, kcore, mis};
use symplegraph::core::{EngineConfig, Policy, RunStats, TraceLevel};
use symplegraph::graph::{Graph, RmatConfig, Vid};
use symplegraph::net::{ByteCategory, CommKind, CostModel, SpanCategory, COMM_KINDS};

fn graph() -> Graph {
    RmatConfig::graph500(9, 8).seed(11).cleaned(true).generate()
}

fn cfg(machines: usize, policy: Policy) -> EngineConfig {
    EngineConfig::new(machines, policy)
        .cost(CostModel::cluster_a().scale_fixed_costs(1e-3))
        .trace_level(TraceLevel::Full)
}

fn assert_reconciled(stats: &RunStats) {
    for k in COMM_KINDS {
        assert_eq!(
            stats.trace.bytes(k.byte_category()),
            stats.comm.bytes(k),
            "categorized {k} bytes must equal CommStats"
        );
        assert_eq!(
            stats.trace.messages(k.byte_category()),
            stats.comm.messages(k),
            "categorized {k} messages must equal CommStats"
        );
    }
    let total: u64 = ByteCategory::ALL
        .iter()
        .map(|&c| stats.trace.bytes(c))
        .sum();
    assert_eq!(total, stats.comm.total_bytes());
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
            assert_eq!(stats.trace.bytes(ByteCategory::Dependency), 0);
            assert_eq!(stats.trace.messages(ByteCategory::Dependency), 0);
            assert_reconciled(&stats);
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
    assert_reconciled(&stats);
    let (_, stats) = mis(&g, &cfg(4, Policy::symple()), 1);
    assert_reconciled(&stats);
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
    assert_reconciled(&stats);
    assert!(stats.time.accounted() > 0.0);
}
