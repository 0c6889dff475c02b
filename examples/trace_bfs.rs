//! Trace a 4-machine BFS and export the virtual-time timeline.
//!
//! Runs direction-optimizing BFS under the full SympleGraph policy with
//! `TraceLevel::Full`, then writes `trace_bfs.chrome.json` — load it in
//! `chrome://tracing` (or <https://ui.perfetto.dev>) to see one track per
//! simulated machine with compute, serialize, send-wait, dep-wait,
//! barrier, and collective spans laid out on the virtual-time axis. Also
//! prints the run's summary line (virtual time, wall, edges, traffic).
//!
//! ```text
//! cargo run --release --example trace_bfs
//! ```

use symplegraph::algos::{bfs, validate_bfs};
use symplegraph::core::{EngineConfig, Policy, TraceLevel};
use symplegraph::graph::{GraphStats, RmatConfig, Vid};
use symplegraph::net::CostModel;
use symplegraph::trace::SpanCategory;

fn main() {
    let graph = RmatConfig::graph500(12, 16)
        .seed(7)
        .cleaned(true)
        .generate();
    println!("graph: {}", GraphStats::of(&graph));

    let cfg = EngineConfig::new(4, Policy::symple())
        .cost(CostModel::cluster_a().scale_fixed_costs(1e-3))
        .trace_level(TraceLevel::Full);
    let root = Vid::new(1);
    let (out, stats) = bfs(&graph, &cfg, root);
    validate_bfs(&graph, root, &out);
    println!(
        "BFS reached {} vertices in {:.3} ms of virtual time\n",
        out.reached(),
        stats.virtual_time() * 1e3
    );

    // Per-machine span counts show each machine got its own track; the
    // wall columns are measured host time (worker lifetime and time
    // blocked in the transport), not virtual time.
    for node in &stats.trace.nodes {
        let dep_wait: f64 = node.time(SpanCategory::DepWait);
        let compute: f64 = node.time(SpanCategory::Compute);
        println!(
            "machine {}: {:>5} spans | compute {:>9.6}s | dep-wait {:>9.6}s | \
             wall {:>9.6}s (comm {:>9.6}s)",
            node.machine,
            node.spans.len(),
            compute,
            dep_wait,
            node.wall_secs,
            node.comm_wall_secs,
        );
    }

    println!("\n{stats}");

    // The first job on a graph partitions it and builds every machine's
    // buckets (the graph's `PreparedGraph`); a second job with the same
    // layout finds them, so its set-up is only the fetch.
    let (_, again) = bfs(&graph, &cfg, root);
    println!(
        "set-up wall: first job {:.3} ms (build), second job {:.3} ms (reuse)\n",
        stats.setup_wall().as_secs_f64() * 1e3,
        again.setup_wall().as_secs_f64() * 1e3,
    );

    let path = "trace_bfs.chrome.json";
    stats
        .trace
        .write_chrome_json(path)
        .expect("writing chrome trace");
    println!("timeline written to {path} — open it in chrome://tracing");
}
