//! One runner per table/figure of the paper's evaluation (§7).
//!
//! Every runner reports **modelled time** (virtual seconds on the emulated
//! cluster — see `symple-net`) plus the exactly-counted quantities the
//! paper reports (edges traversed, communication bytes). The `Paper:`
//! line under each report restates the result the original reports, so
//! shape can be compared at a glance; `EXPERIMENTS.md` tracks both.

use crate::datasets::dataset;
use crate::fmt::{geomean, secs, speedup, table};
use symple_algos::{bfs, cc, kcore, kmeans, mis, pagerank, sampling, sssp};
use symple_core::{
    Backend, EngineConfig, FaultPlan, Policy, ReliableStats, RunStats, TraceLevel, WireCodec,
};
use symple_graph::{Graph, GraphStats, Vid};
use symple_net::{CommKind, CostModel, WireFormat, COMM_KINDS};

/// A rendered experiment.
#[derive(Debug, Clone)]
pub struct Report {
    /// Identifier (`table4`, `fig10`, …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Rendered text (table plus notes).
    pub text: String,
}

impl Report {
    pub(crate) fn new(id: &'static str, title: &'static str, text: String) -> Self {
        Report { id, title, text }
    }
}

/// The five algorithms of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Direction-optimizing BFS (averaged over roots).
    Bfs,
    /// K-core at the given k.
    Kcore(u32),
    /// Maximal independent set.
    Mis,
    /// Graph K-means (scaled-down outer iterations).
    Kmeans,
    /// Weighted neighbour sampling (averaged over seeds).
    Sampling,
    /// Pull-only BFS (averaged over roots): every iteration walks the
    /// dense bottom-up direction — the dense-frontier datapoint of the
    /// wire-codec byte study.
    BfsPull,
    /// Delta-stepping SSSP over hash-derived edge weights (scenario
    /// matrix).
    Sssp,
    /// Connected components by min-label propagation (scenario matrix).
    Cc,
    /// Fixed-point PageRank with convergence detection (scenario matrix).
    Pagerank,
}

/// Algorithm list for the main grids (paper order).
pub const GRID_ALGOS: [(&str, Algo); 5] = [
    ("BFS", Algo::Bfs),
    ("K-core", Algo::Kcore(4)),
    ("MIS", Algo::Mis),
    ("K-means", Algo::Kmeans),
    ("Sampling", Algo::Sampling),
];

/// The five main-grid graphs (paper Table 4).
pub const GRID_GRAPHS: [&str; 5] = ["tw", "fr", "s27", "s28", "s29"];

const BFS_ROOTS: u64 = 4;
const SAMPLING_SEEDS: u64 = 3;
const KMEANS_ITERS: u32 = 3;
/// Edge-weight seed for the SSSP workload (see
/// `symple_algos::common::edge_weight`).
pub const SSSP_SEED: u64 = 0x5557;
/// PageRank convergence tolerance in fixed-point millionths (1e-3).
pub const PAGERANK_TOL: u64 = 1_000;
/// PageRank iteration cap — keeps the big R-MAT stand-ins tractable
/// while still exercising convergence detection every round.
pub const PAGERANK_ITERS: u32 = 20;

/// Picks deterministic non-isolated BFS roots.
pub(crate) fn bfs_roots(graph: &Graph, count: u64) -> Vec<Vid> {
    let n = graph.num_vertices() as u64;
    let mut roots = Vec::new();
    let mut probe = 0u64;
    while (roots.len() as u64) < count {
        let v = Vid::new((symple_algos::common::hash3(17, probe, 0) % n) as u32);
        probe += 1;
        if graph.out_degree(v) > 0 && !roots.contains(&v) {
            roots.push(v);
        }
    }
    roots
}

/// One measured configuration.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Mean modelled seconds.
    pub time: f64,
    /// Total edges traversed (summed over repetitions).
    pub edges: u64,
    /// Update bytes.
    pub upd_bytes: u64,
    /// Dependency bytes.
    pub dep_bytes: u64,
    /// Collective/sync bytes.
    pub coll_bytes: u64,
    /// Wire bytes per chosen codec format (indexed by
    /// [`WireFormat::index`]); all attributed to flat under the default
    /// codec.
    pub fmt_bytes: [u64; 3],
    /// Whether the trace's categorized byte totals reconciled exactly with
    /// the raw `CommStats` counters on every accumulated run.
    pub reconciled: bool,
}

impl Default for Measured {
    fn default() -> Self {
        Measured {
            time: 0.0,
            edges: 0,
            upd_bytes: 0,
            dep_bytes: 0,
            coll_bytes: 0,
            fmt_bytes: [0; 3],
            reconciled: true,
        }
    }
}

fn accumulate(acc: &mut Measured, stats: &RunStats, reps: u64) {
    acc.time += stats.virtual_time() / reps as f64;
    acc.edges += stats.work.edges_traversed() / reps;
    acc.upd_bytes += stats.comm.bytes(CommKind::Update) / reps;
    acc.dep_bytes += stats.comm.bytes(CommKind::Dependency) / reps;
    acc.coll_bytes += stats.comm.bytes(CommKind::Sync) / reps;
    for f in WireFormat::ALL {
        acc.fmt_bytes[f.index()] += stats.comm.format_bytes(f) / reps;
    }
    // Cross-check the observability layer against the engine's own
    // accounting: per-category bytes from the trace must equal the raw
    // CommStats counters exactly (Table 6 depends on this invariant).
    let report = stats.metrics();
    acc.reconciled &= COMM_KINDS
        .iter()
        .all(|&k| report.bytes(k.byte_category()) == stats.comm.bytes(k));
}

/// Runs `algo` on `graph` under `cfg` and returns the aggregate.
pub fn measure(algo: Algo, graph: &Graph, cfg: &EngineConfig) -> Measured {
    let mut acc = Measured::default();
    match algo {
        Algo::Bfs => {
            let roots = bfs_roots(graph, BFS_ROOTS);
            for root in roots {
                let (_, stats) = bfs(graph, cfg, root);
                accumulate(&mut acc, &stats, BFS_ROOTS);
            }
        }
        Algo::Kcore(k) => {
            let (_, stats) = kcore(graph, cfg, k);
            accumulate(&mut acc, &stats, 1);
        }
        Algo::Mis => {
            let (_, stats) = mis(graph, cfg, 1);
            accumulate(&mut acc, &stats, 1);
        }
        Algo::Kmeans => {
            let (_, stats) = kmeans(graph, cfg, 1, KMEANS_ITERS);
            accumulate(&mut acc, &stats, 1);
        }
        Algo::Sampling => {
            for seed in 0..SAMPLING_SEEDS {
                let (_, stats) = sampling(graph, cfg, seed);
                accumulate(&mut acc, &stats, SAMPLING_SEEDS);
            }
        }
        Algo::BfsPull => {
            use symple_algos::{bfs_with_direction, Direction};
            let roots = bfs_roots(graph, BFS_ROOTS);
            for root in roots {
                let (_, stats) = bfs_with_direction(graph, cfg, root, Direction::PullOnly);
                accumulate(&mut acc, &stats, BFS_ROOTS);
            }
        }
        Algo::Sssp => {
            let root = bfs_roots(graph, 1)[0];
            let (_, stats) = sssp(graph, cfg, root, SSSP_SEED);
            accumulate(&mut acc, &stats, 1);
        }
        Algo::Cc => {
            let (_, stats) = cc(graph, cfg);
            accumulate(&mut acc, &stats, 1);
        }
        Algo::Pagerank => {
            let (_, stats) = pagerank(graph, cfg, PAGERANK_TOL, PAGERANK_ITERS);
            accumulate(&mut acc, &stats, 1);
        }
    }
    acc
}

/// The cluster model for a dataset: the base testbed with fixed costs
/// scaled to the stand-in's size (see `CostModel::scale_fixed_costs`).
pub(crate) fn model_for(name: &str, base: CostModel) -> CostModel {
    base.scale_fixed_costs(crate::datasets::spec(name).latency_scale())
}

pub(crate) fn cfg(machines: usize, policy: Policy, cost: CostModel) -> EngineConfig {
    EngineConfig::new(machines, policy).cost(cost)
}

/// Table 1: dataset sizes and high-degree fractions.
pub fn table1() -> Report {
    let mut rows = Vec::new();
    for spec in crate::datasets::DATASETS {
        let g = dataset(spec.name);
        let stats = GraphStats::of(g);
        rows.push(vec![
            spec.name.to_string(),
            spec.stands_for.to_string(),
            stats.num_vertices.to_string(),
            stats.num_edges.to_string(),
            format!("{:.2}", stats.high_degree_fraction()),
        ]);
    }
    let text = format!(
        "{}\nPaper: |V'|/|V| between 0.04 and 0.31 (threshold 32).\n",
        table(&["graph", "stands for", "|V|", "|E|", "|V'|/|V|"], &rows)
    );
    Report::new("table1", "Datasets (Table 1)", text)
}

/// Table 2: K-core runtime vs k (tw, fr; 8 machines).
pub fn table2() -> Report {
    let mut rows = Vec::new();
    for name in ["tw", "fr"] {
        let g = dataset(name);
        for k in [4u32, 8, 16, 32, 64] {
            let cost = model_for(name, CostModel::cluster_a());
            let gem = measure(Algo::Kcore(k), g, &cfg(8, Policy::Gemini, cost));
            let sym = measure(Algo::Kcore(k), g, &cfg(8, Policy::symple(), cost));
            rows.push(vec![
                name.to_string(),
                k.to_string(),
                secs(gem.time),
                secs(sym.time),
                speedup(gem.time / sym.time),
            ]);
        }
    }
    let text = format!(
        "{}\nPaper: consistent 1.42x–1.62x speedup over Gemini regardless of K.\n",
        table(&["graph", "K", "Gemini", "SympleG.", "speedup"], &rows)
    );
    Report::new("table2", "K-core runtime vs K (Table 2)", text)
}

/// Table 3: the large graphs on the 10-node Cluster-C model.
pub fn table3() -> Report {
    let mut rows = Vec::new();
    for name in ["gsh", "cl"] {
        let g = dataset(name);
        for (algo_name, algo) in GRID_ALGOS {
            let cost = model_for(name, CostModel::cluster_c());
            let gem = measure(algo, g, &cfg(10, Policy::Gemini, cost));
            let sym = measure(algo, g, &cfg(10, Policy::symple(), cost));
            rows.push(vec![
                name.to_string(),
                algo_name.to_string(),
                secs(gem.time),
                secs(sym.time),
                speedup(gem.time / sym.time),
            ]);
        }
    }
    let text = format!(
        "{}\nPaper: 1.00x–1.80x on gsh, 1.00x–1.76x on cl (BFS ~1.0 where\nbottom-up is rarely chosen).\n",
        table(&["graph", "app", "Gemini", "SympleG.", "speedup"], &rows)
    );
    Report::new("table3", "Large graphs, Cluster-C (Table 3)", text)
}

/// Table 4: the main 5 algorithms × 5 graphs × 3 systems grid, 16
/// machines, plus the Matula–Beck parenthetical for K-core.
pub fn table4() -> Report {
    let mut rows = Vec::new();
    let mut speedups_gem = Vec::new();
    let mut speedups_gal = Vec::new();
    for (algo_name, algo) in GRID_ALGOS {
        for name in GRID_GRAPHS {
            let g = dataset(name);
            let cost = model_for(name, CostModel::cluster_a());
            let gem = measure(algo, g, &cfg(16, Policy::Gemini, cost));
            let gal = measure(algo, g, &cfg(16, Policy::Galois, cost));
            let sym = measure(algo, g, &cfg(16, Policy::symple(), cost));
            let gem_cell = if let Algo::Kcore(k) = algo {
                // parenthetical: single-thread Matula–Beck (linear time)
                let (core, mb_edges) = symple_algos::coreness(g);
                let _ = symple_algos::matula_beck::kcore_from_coreness(&core, k);
                let mb_time = mb_edges as f64 * cost.per_edge_sec * 16.0;
                format!("{}({})", secs(gem.time), secs(mb_time))
            } else {
                secs(gem.time)
            };
            speedups_gem.push(gem.time / sym.time);
            speedups_gal.push(gal.time / sym.time);
            rows.push(vec![
                algo_name.to_string(),
                name.to_string(),
                gem_cell,
                secs(gal.time),
                secs(sym.time),
                speedup(gem.time / sym.time),
                speedup(gal.time / sym.time),
            ]);
        }
    }
    let text = format!(
        "{}\nGeomean speedup vs Gemini {:.2}x (paper: 1.42x avg, up to 2.30x);\nvs D-Galois {:.2}x (paper: 3.30x avg, up to 7.76x).\n",
        table(
            &["app", "graph", "Gemini", "D-Galois", "SympleG.", "vs Gem", "vs Gal"],
            &rows
        ),
        geomean(&speedups_gem),
        geomean(&speedups_gal),
    );
    Report::new("table4", "Execution time, 16 machines (Table 4)", text)
}

/// Table 5: traversed edges normalised to |E|.
pub fn table5() -> Report {
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for (algo_name, algo) in GRID_ALGOS {
        for name in GRID_GRAPHS {
            let g = dataset(name);
            let cost = model_for(name, CostModel::cluster_a());
            let e = g.num_edges() as f64;
            let gem = measure(algo, g, &cfg(16, Policy::Gemini, cost));
            let sym = measure(algo, g, &cfg(16, Policy::symple(), cost));
            let ratio = sym.edges as f64 / gem.edges as f64;
            ratios.push(ratio);
            rows.push(vec![
                algo_name.to_string(),
                name.to_string(),
                format!("{:.4}", gem.edges as f64 / e),
                format!("{:.4}", sym.edges as f64 / e),
                format!("{:.4}", ratio),
            ]);
        }
    }
    let text = format!(
        "{}\nMean SympleG./Gemini ratio {:.3} (paper: 66.91% average reduction,\ni.e. ratio ~0.33; sampling lowest, BFS/MIS ~0.28-0.51).\n",
        table(
            &["app", "graph", "Gemini/|E|", "SympleG./|E|", "SympG./Gemini"],
            &rows
        ),
        ratios.iter().sum::<f64>() / ratios.len() as f64,
    );
    Report::new("table5", "Edges traversed (Table 5)", text)
}

/// Table 6: communication breakdown normalised to Gemini's data bytes.
///
/// Every measured cell also cross-checks the trace's per-category byte
/// totals against the engine's raw `CommStats` — the table refuses to
/// render from irreconcilable numbers.
pub fn table6() -> Report {
    let mut rows = Vec::new();
    for (algo_name, algo) in GRID_ALGOS {
        for name in GRID_GRAPHS {
            let g = dataset(name);
            let cost = model_for(name, CostModel::cluster_a());
            let gem = measure(algo, g, &cfg(16, Policy::Gemini, cost));
            let sym = measure(algo, g, &cfg(16, Policy::symple(), cost));
            assert!(
                gem.reconciled && sym.reconciled,
                "table6 {algo_name}/{name}: trace-categorized bytes diverged from CommStats"
            );
            let base = (gem.upd_bytes + gem.dep_bytes) as f64;
            rows.push(vec![
                algo_name.to_string(),
                name.to_string(),
                format!("{:.4}", sym.upd_bytes as f64 / base),
                format!("{:.4}", sym.dep_bytes as f64 / base),
                format!("{:.4}", (sym.upd_bytes + sym.dep_bytes) as f64 / base),
            ]);
        }
    }
    let text = format!(
        "{}\nPaper: total below 1.0 everywhere except sampling (dependency\nmessages carry f32 prefix sums); average reduction 40.95%.\nPer-category bytes verified against trace categorization (exact).\n",
        table(
            &["app", "graph", "SymG.upt", "SymG.dep", "SymG.total"],
            &rows
        )
    );
    Report::new("table6", "Communication breakdown (Table 6)", text)
}

/// Workloads of the wire-codec byte study (id `comm`):
/// the five paper algorithms plus a pull-only BFS whose frontier is dense
/// every iteration — the codec's best case alongside K-core.
pub const COMM_ALGOS: [(&str, Algo); 6] = [
    ("BFS", Algo::Bfs),
    ("BFS-dense", Algo::BfsPull),
    ("K-core", Algo::Kcore(4)),
    ("MIS", Algo::Mis),
    ("K-means", Algo::Kmeans),
    ("Sampling", Algo::Sampling),
];

/// One (workload, policy) cell of the byte study, measured under both
/// wire codecs.
#[derive(Debug, Clone)]
pub struct CommPoint {
    /// Workload label.
    pub algo: &'static str,
    /// System label (`Gemini` or `SympleGraph`).
    pub policy: &'static str,
    /// Measured under the seed-identical flat encoding.
    pub flat: Measured,
    /// Measured under `WireCodec::Adaptive`.
    pub adaptive: Measured,
}

impl CommPoint {
    /// Adaptive/flat byte ratio over the data the codec touches (update +
    /// dependency). Collective sync traffic is never encoded and is
    /// reported separately — the same normalisation Table 6 uses.
    pub fn data_ratio(&self) -> f64 {
        let flat = self.flat.upd_bytes + self.flat.dep_bytes;
        let adaptive = self.adaptive.upd_bytes + self.adaptive.dep_bytes;
        adaptive as f64 / flat.max(1) as f64
    }
}

/// Measures every study workload under Gemini and SympleGraph with both
/// codecs on dataset `name` at `machines`. Asserts along the way that the
/// codec is invisible to the computation (same traversed-edge counts) and
/// that trace byte categorization reconciles exactly.
pub fn comm_study(name: &str, machines: usize) -> Vec<CommPoint> {
    let g = dataset(name);
    let cost = model_for(name, CostModel::cluster_a());
    let mut points = Vec::new();
    for (algo_name, algo) in COMM_ALGOS {
        for (pname, policy) in [
            ("Gemini", Policy::Gemini),
            ("SympleGraph", Policy::symple()),
        ] {
            let flat = measure(algo, g, &cfg(machines, policy, cost));
            let adaptive = measure(
                algo,
                g,
                &cfg(machines, policy, cost).wire_codec(WireCodec::Adaptive),
            );
            assert!(
                flat.reconciled && adaptive.reconciled,
                "comm {algo_name}/{pname}: trace-categorized bytes diverged from CommStats"
            );
            assert_eq!(
                flat.edges, adaptive.edges,
                "comm {algo_name}/{pname}: the wire codec changed the computation"
            );
            points.push(CommPoint {
                algo: algo_name,
                policy: pname,
                flat,
                adaptive,
            });
        }
    }
    points
}

/// The byte study as a report table (id `comm`), on the small s27
/// stand-in at 8 machines.
pub fn comm_report() -> Report {
    let (name, machines) = ("s27", 8);
    let points = comm_study(name, machines);
    let rows = points
        .iter()
        .map(|p| {
            vec![
                p.algo.to_string(),
                p.policy.to_string(),
                ((p.flat.upd_bytes + p.flat.dep_bytes) / 1024).to_string(),
                ((p.adaptive.upd_bytes + p.adaptive.dep_bytes) / 1024).to_string(),
                format!("{:.3}", p.data_ratio()),
            ]
        })
        .collect::<Vec<_>>();
    let text = format!(
        "{}\nExact update+dependency bytes on {name}, {machines} machines, flat vs\nadaptive wire codec (outputs are bit-identical by construction; the\ncodec picks per payload among flat/dense-bitmap/sparse-varint by exact\nsize). Dense-frontier workloads (BFS-dense, K-core) show the largest\nwins.\n",
        table(
            &["app", "system", "flat kB", "adaptive kB", "ratio"],
            &rows
        )
    );
    Report::new("comm", "Wire-codec byte budget (extension)", text)
}

/// One workload of the transport study: the same run on the deterministic
/// simulator and on the OS-thread backend. A point only exists if the two
/// backends were bit-identical in everything logical (asserted inside
/// [`transport_study`]); the wall columns are the *measured* signal the
/// thread backend adds next to the modelled virtual clock.
#[derive(Debug, Clone, Copy)]
pub struct TransportPoint {
    /// Workload label.
    pub algo: &'static str,
    /// Modelled virtual seconds — identical on both backends by
    /// construction (asserted).
    pub modelled_secs: f64,
    /// Measured critical-path wall seconds (slowest machine) on the
    /// simulator backend.
    pub sim_wall_secs: f64,
    /// Measured critical-path wall seconds on the thread backend.
    pub thread_wall_secs: f64,
    /// Measured wall seconds the slowest thread-backend machine spent
    /// blocked in transport operations (real communication wait).
    pub thread_comm_wall_secs: f64,
}

/// Workloads of the transport study (the acceptance criteria ask for at
/// least three algorithms with both modelled and measured wall time).
pub const TRANSPORT_ALGOS: [(&str, Algo); 3] = [
    ("BFS", Algo::Bfs),
    ("K-core", Algo::Kcore(4)),
    ("MIS", Algo::Mis),
];

/// Runs `algo` once (single root/seed) and returns the raw stats — the
/// transport study wants per-run wall measurements, not the averaged
/// [`Measured`] aggregate.
fn run_algo_once(algo: Algo, graph: &Graph, cfg: &EngineConfig) -> RunStats {
    match algo {
        Algo::Bfs => bfs(graph, cfg, bfs_roots(graph, 1)[0]).1,
        Algo::Kcore(k) => kcore(graph, cfg, k).1,
        Algo::Mis => mis(graph, cfg, 1).1,
        Algo::Kmeans => kmeans(graph, cfg, 1, KMEANS_ITERS).1,
        Algo::Sampling => sampling(graph, cfg, 0).1,
        Algo::BfsPull => {
            use symple_algos::{bfs_with_direction, Direction};
            bfs_with_direction(graph, cfg, bfs_roots(graph, 1)[0], Direction::PullOnly).1
        }
        Algo::Sssp => sssp(graph, cfg, bfs_roots(graph, 1)[0], SSSP_SEED).1,
        Algo::Cc => cc(graph, cfg).1,
        Algo::Pagerank => pagerank(graph, cfg, PAGERANK_TOL, PAGERANK_ITERS).1,
    }
}

/// Measures every transport-study workload on both backends on dataset
/// `name` at `machines`, asserting along the way that the backend is
/// invisible to the computation: identical work counters, identical
/// logical byte/message accounting, identical virtual time.
pub fn transport_study(name: &str, machines: usize) -> Vec<TransportPoint> {
    let g = dataset(name);
    let cost = model_for(name, CostModel::cluster_a());
    let mut points = Vec::new();
    for (algo_name, algo) in TRANSPORT_ALGOS {
        let sim = run_algo_once(algo, g, &cfg(machines, Policy::symple(), cost));
        let thread = run_algo_once(
            algo,
            g,
            &cfg(machines, Policy::symple(), cost).backend(Backend::Thread),
        );
        assert_eq!(
            sim.work, thread.work,
            "transport {algo_name}: work counters diverged across backends"
        );
        assert_eq!(
            sim.comm, thread.comm,
            "transport {algo_name}: CommStats diverged across backends"
        );
        assert_eq!(
            sim.virtual_time(),
            thread.virtual_time(),
            "transport {algo_name}: virtual time diverged across backends"
        );
        let thread_comm_wall = thread
            .metrics()
            .per_machine
            .iter()
            .map(|m| m.comm_wall_secs)
            .fold(0.0, f64::max);
        points.push(TransportPoint {
            algo: algo_name,
            modelled_secs: sim.virtual_time(),
            sim_wall_secs: sim.max_node_wall().as_secs_f64(),
            thread_wall_secs: thread.max_node_wall().as_secs_f64(),
            thread_comm_wall_secs: thread_comm_wall,
        });
    }
    points
}

/// Renders the transport study as a machine-readable JSON document
/// (`BENCH_transport.json`).
pub fn transport_json(name: &str, machines: usize, points: &[TransportPoint]) -> String {
    let mut w = symple_trace::json::JsonWriter::new();
    w.begin_object();
    w.key("bench").string("transport_backends");
    w.key("graph").string(name);
    w.key("machines").u64(machines as u64);
    w.key("note").string(
        "modelled = virtual seconds on the emulated cluster (bit-identical \
         across backends, asserted); wall = measured critical-path seconds \
         on this host (sim backend: unbounded channels; thread backend: \
         bounded channels with real backpressure)",
    );
    w.key("points").begin_array();
    for p in points {
        w.begin_object();
        w.key("algo").string(p.algo);
        w.key("policy").string("SympleGraph");
        w.key("modelled_virtual_secs").f64(p.modelled_secs);
        w.key("sim_max_node_wall_secs").f64(p.sim_wall_secs);
        w.key("thread_max_node_wall_secs").f64(p.thread_wall_secs);
        w.key("thread_comm_wall_secs").f64(p.thread_comm_wall_secs);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// The transport study as a report table (id `transport`). Uses the small
/// s27 stand-in at 4 machines so the smoke invocation in `ci.sh` stays
/// cheap; `--transport-json` re-runs it and writes `BENCH_transport.json`.
pub fn transport_report() -> Report {
    let (name, machines) = ("s27", 4);
    let points = transport_study(name, machines);
    let rows = points
        .iter()
        .map(|p| {
            vec![
                p.algo.to_string(),
                secs(p.modelled_secs),
                secs(p.sim_wall_secs),
                secs(p.thread_wall_secs),
                secs(p.thread_comm_wall_secs),
            ]
        })
        .collect::<Vec<_>>();
    let text = format!(
        "{}\nSame computation on {name}, {machines} machines, simulator vs\nOS-thread transport. Modelled virtual time is asserted bit-identical\nacross backends; the wall columns are measured on this host and are the\nsignal the thread backend adds (absolute values depend on the machine\nrunning this — see BENCH_transport.json for the raw grid).\n",
        table(
            &[
                "app",
                "modelled",
                "sim wall",
                "thread wall",
                "thread comm wall"
            ],
            &rows
        )
    );
    Report::new(
        "transport",
        "Transport backends: modelled vs measured",
        text,
    )
}

/// One (workload, policy) cell of the fault-injection study: the same run
/// fault-free and under a seeded chaos plan, with the reliable-delivery
/// overlay it took to absorb the injected faults. Output and work-counter
/// equality is asserted inside [`fault_study`] — a point only exists if
/// the faulted run was bit-identical above the net layer.
#[derive(Debug, Clone, Copy)]
pub struct FaultPoint {
    /// Workload label.
    pub algo: &'static str,
    /// System label (`Gemini` or `SympleGraph`).
    pub policy: &'static str,
    /// Modelled seconds of the fault-free run.
    pub clean_time: f64,
    /// Modelled seconds under the fault plan (retries and delays included).
    pub faulted_time: f64,
    /// The reliable layer's counters for the faulted run.
    pub reliable: ReliableStats,
}

/// Workloads of the fault study: the three dependency-sensitive
/// algorithms, whose correctness hinges on loop-carried messages arriving
/// exactly once and in order.
pub const FAULT_ALGOS: [(&str, Algo); 3] = [
    ("BFS", Algo::Bfs),
    ("K-core", Algo::Kcore(4)),
    ("MIS", Algo::Mis),
];

/// Runs each fault-study workload under Gemini and SympleGraph on dataset
/// `name`, fault-free and under `FaultPlan::chaos(seed)`, asserting along
/// the way that outputs, work counters, and logical traffic are
/// bit-identical — the acceptance bar that makes the fault plan a pure
/// robustness knob.
pub fn fault_study(name: &str, machines: usize, seed: u64) -> Vec<FaultPoint> {
    let g = dataset(name);
    let cost = model_for(name, CostModel::cluster_a());
    let plan = FaultPlan::chaos(seed);
    let mut points = Vec::new();
    for (algo_name, algo) in FAULT_ALGOS {
        for (pname, policy) in [
            ("Gemini", Policy::Gemini),
            ("SympleGraph", Policy::symple()),
        ] {
            let clean_cfg = cfg(machines, policy, cost);
            let fault_cfg = cfg(machines, policy, cost).fault_plan(plan);
            let (clean, faulted) = match algo {
                Algo::Bfs => {
                    let root = bfs_roots(g, 1)[0];
                    let (co, cs) = bfs(g, &clean_cfg, root);
                    let (fo, fs) = bfs(g, &fault_cfg, root);
                    assert_eq!(co, fo, "faults {algo_name}/{pname}: output changed");
                    (cs, fs)
                }
                Algo::Kcore(k) => {
                    let (co, cs) = kcore(g, &clean_cfg, k);
                    let (fo, fs) = kcore(g, &fault_cfg, k);
                    assert_eq!(co, fo, "faults {algo_name}/{pname}: output changed");
                    (cs, fs)
                }
                Algo::Mis => {
                    let (co, cs) = mis(g, &clean_cfg, 1);
                    let (fo, fs) = mis(g, &fault_cfg, 1);
                    assert_eq!(co, fo, "faults {algo_name}/{pname}: output changed");
                    (cs, fs)
                }
                _ => unreachable!("not a fault-study workload"),
            };
            assert_eq!(
                clean.work, faulted.work,
                "faults {algo_name}/{pname}: work counters changed"
            );
            assert_eq!(
                clean.comm.total_bytes(),
                faulted.comm.total_bytes(),
                "faults {algo_name}/{pname}: logical bytes changed"
            );
            assert_eq!(
                clean.comm.total_messages(),
                faulted.comm.total_messages(),
                "faults {algo_name}/{pname}: logical messages changed"
            );
            assert!(
                !clean.comm.reliable().any(),
                "faults {algo_name}/{pname}: fault-free run has a reliable overlay"
            );
            let rel = faulted.comm.reliable();
            assert!(
                machines < 2 || rel.retransmits > 0,
                "faults {algo_name}/{pname}: the chaos plan injected nothing"
            );
            points.push(FaultPoint {
                algo: algo_name,
                policy: pname,
                clean_time: clean.virtual_time(),
                faulted_time: faulted.virtual_time(),
                reliable: rel,
            });
        }
    }
    points
}

/// Renders a fault study as a machine-readable JSON document.
pub fn fault_json(name: &str, machines: usize, seed: u64, points: &[FaultPoint]) -> String {
    let mut w = symple_trace::json::JsonWriter::new();
    w.begin_object();
    w.key("bench").string("fault_injection");
    w.key("graph").string(name);
    w.key("machines").u64(machines as u64);
    w.key("seed").u64(seed);
    w.key("note").string(
        "outputs, work counters, and logical traffic asserted bit-identical \
         to fault-free; only the reliable overlay and virtual time differ",
    );
    w.key("points").begin_array();
    for p in points {
        w.begin_object();
        w.key("algo").string(p.algo);
        w.key("policy").string(p.policy);
        w.key("clean_virtual_secs").f64(p.clean_time);
        w.key("faulted_virtual_secs").f64(p.faulted_time);
        w.key("timeouts").u64(p.reliable.timeouts);
        w.key("retransmits").u64(p.reliable.retransmits);
        w.key("retransmit_bytes").u64(p.reliable.retransmit_bytes);
        w.key("dup_drops").u64(p.reliable.dup_drops);
        w.key("acks").u64(p.reliable.acks);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// The fault study as a report table (id `faults`). Uses the small s27
/// stand-in at 4 machines so the smoke invocation in `ci.sh` stays cheap.
pub fn fault_report() -> Report {
    let (name, machines, seed) = ("s27", 4, 42);
    let points = fault_study(name, machines, seed);
    let rows = points
        .iter()
        .map(|p| {
            vec![
                p.algo.to_string(),
                p.policy.to_string(),
                p.reliable.retransmits.to_string(),
                p.reliable.dup_drops.to_string(),
                p.reliable.acks.to_string(),
                format!(
                    "{:.3}",
                    p.faulted_time / p.clean_time.max(f64::MIN_POSITIVE)
                ),
            ]
        })
        .collect::<Vec<_>>();
    let text = format!(
        "{}\nSeeded chaos plan (drop/dup/delay/reorder) on {name}, {machines} machines,\nseed {seed}. Outputs, work counters, and logical traffic are asserted\nbit-identical to the fault-free run before a row is printed; the\ncolumns show what the ack/retry layer absorbed and the virtual-time\nslowdown it cost.\n",
        table(
            &["app", "system", "retrans", "dups", "acks", "slowdown"],
            &rows
        )
    );
    Report::new("faults", "Fault-injection absorption (extension)", text)
}

/// Runs one fully-traced workload (BFS on s27, 4 machines, SympleGraph
/// policy, `TraceLevel::Full`) and returns its stats — the data source
/// behind the CLI's `--chrome-trace` and `--metrics-json` flags.
pub fn traced_probe() -> RunStats {
    let name = "s27";
    let g = dataset(name);
    let cost = model_for(name, CostModel::cluster_a());
    let config = cfg(4, Policy::symple(), cost).trace_level(TraceLevel::Full);
    let root = bfs_roots(g, 1)[0];
    let (_, stats) = bfs(g, &config, root);
    stats
}

/// Table 7: best-performing machine count, MIS, Cluster-B model.
pub fn table7() -> Report {
    let sweep = [2usize, 4, 8, 16];
    let mut rows = Vec::new();
    for name in GRID_GRAPHS {
        let g = dataset(name);
        let cost = model_for(name, CostModel::cluster_b());
        let best = |policy: Policy| -> (f64, usize) {
            sweep
                .iter()
                .map(|&m| (measure(Algo::Mis, g, &cfg(m, policy, cost)).time, m))
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .unwrap()
        };
        let (gal_t, gal_m) = best(Policy::Galois);
        let (sym_t, sym_m) = best(Policy::symple());
        rows.push(vec![
            name.to_string(),
            format!("{}({})", secs(gal_t), gal_m),
            format!("{}({})", secs(sym_t), sym_m),
        ]);
    }
    let text = format!(
        "{}\nPaper: D-Galois needs 128 Stampede2 nodes to approach SympleGraph\non 2-4; here the sweep is capped at 16 simulated machines.\n",
        table(&["graph", "D-Galois (nodes)", "SympleGraph (nodes)"], &rows)
    );
    Report::new("table7", "Best machine count, MIS (Table 7)", text)
}

/// Figure 10: scalability of MIS on s27 across 1–16 machines.
pub fn fig10() -> Report {
    let cost = model_for("s27", CostModel::cluster_a());
    let g = dataset("s27");
    let sweep = [1usize, 2, 4, 8, 16];
    let base = measure(Algo::Mis, g, &cfg(16, Policy::symple(), cost)).time;
    let mut rows = Vec::new();
    for &m in &sweep {
        let gem = measure(Algo::Mis, g, &cfg(m, Policy::Gemini, cost)).time;
        let sym = measure(Algo::Mis, g, &cfg(m, Policy::symple(), cost)).time;
        let gal = measure(Algo::Mis, g, &cfg(m, Policy::Galois, cost)).time;
        rows.push(vec![
            m.to_string(),
            format!("{:.3}", gem / base),
            format!("{:.3}", sym / base),
            format!("{:.3}", gal / base),
        ]);
    }
    let text = format!(
        "{}\nNormalised to SympleGraph at 16 machines. Paper (Fig. 10):\nSympleGraph consistently below Gemini, D-Galois above both at <=16\nnodes; both Gemini and SympleGraph bottom out around 8 machines.\n",
        table(&["machines", "Gemini", "SympleG.", "D-Galois"], &rows)
    );
    Report::new("fig10", "Scalability, MIS/s27 (Figure 10)", text)
}

/// Figure 11: piecewise contribution of the two communication
/// optimisations over basic circulant scheduling.
pub fn fig11() -> Report {
    let variants: [(&str, Policy); 4] = [
        ("circulant only", Policy::symple_basic()),
        (
            "+DB",
            Policy::SympleGraph {
                differentiated: false,
                double_buffering: true,
            },
        ),
        (
            "+DP",
            Policy::SympleGraph {
                differentiated: true,
                double_buffering: false,
            },
        ),
        ("+DB+DP", Policy::symple()),
    ];
    let mut rows = Vec::new();
    for name in GRID_GRAPHS {
        let g = dataset(name);
        let cost = model_for(name, CostModel::cluster_a());
        let mut cells = vec![name.to_string()];
        let mut base_times = Vec::new();
        for (_, algo) in GRID_ALGOS {
            base_times.push(measure(algo, g, &cfg(16, variants[0].1, cost)).time);
        }
        for (_, policy) in &variants {
            let mut normalized = Vec::new();
            for (i, (_, algo)) in GRID_ALGOS.iter().enumerate() {
                let t = measure(*algo, g, &cfg(16, *policy, cost)).time;
                normalized.push(t / base_times[i]);
            }
            cells.push(format!("{:.3}", geomean(&normalized)));
        }
        rows.push(cells);
    }
    let text = format!(
        "{}\nGeomean over the five algorithms, normalised to circulant-only.\nPaper (Fig. 11): DB alone helps everywhere; DP alone has little\neffect; DB+DP is best.\n",
        table(
            &["graph", "circulant", "+DB", "+DP", "+DB+DP"],
            &rows
        )
    );
    Report::new("fig11", "Optimisation ablation (Figure 11)", text)
}

/// §7.4 COST metric: machines needed to beat the best single-thread
/// implementation.
pub fn cost_metric() -> Report {
    // COST is measured in *cores*: model each simulated machine as a
    // single core (the node rate divided by its 16 cores) and sweep the
    // machine count, so "machines" below reads directly as cores.
    let per_core = |name: &str| {
        let mut m = model_for(name, CostModel::cluster_a());
        m.per_edge_sec *= 16.0;
        m.per_vertex_sec *= 16.0;
        m
    };
    let single_edge_sec = CostModel::cluster_a().per_edge_sec * 16.0;
    let mut rows = Vec::new();

    let mut sweep = |label: &str, name: &str, algo: Algo, st_edges: f64| {
        let g = dataset(name);
        let cost = per_core(name);
        let st_time = st_edges * single_edge_sec;
        let mut found = None;
        for m in 1usize..=16 {
            let t = measure(algo, g, &cfg(m, Policy::symple(), cost)).time;
            if t < st_time {
                found = Some((m, t));
                break;
            }
        }
        let (m, t) = found.map_or((0, f64::NAN), |x| x);
        rows.push(vec![
            label.to_string(),
            secs(st_time),
            if m == 0 { ">16".into() } else { m.to_string() },
            secs(t),
        ]);
    };

    // MIS on s27: the Galois single-thread baseline is the greedy scan
    // (≈ every edge visited once, plus the priority sort ≈ another |E|).
    {
        let g = dataset("s27");
        let _ = symple_algos::mis_greedy_reference(g, 1);
        sweep("MIS/s27", "s27", Algo::Mis, 2.0 * g.num_edges() as f64);
    }
    // BFS on tw: GAPBS-like single thread charged at the plain
    // reference's exact edge count.
    {
        let g = dataset("tw");
        let root = bfs_roots(g, 1)[0];
        let (_, st_edges) = symple_algos::bfs_reference(g, root);
        sweep("BFS/tw", "tw", Algo::Bfs, st_edges as f64);
    }
    let text = format!(
        "{}\nPaper: COST of SympleGraph is 3-4 cores (vs 64 for D-Galois).\nEach simulated machine here is modelled at single-core speed, so the\n\"cores to beat\" column is directly the COST metric.\n",
        table(
            &["workload", "single-thread", "cores to beat", "time"],
            &rows
        )
    );
    Report::new("cost", "COST metric (§7.4)", text)
}

/// Extension: degree-threshold sweep for differentiated propagation.
/// The paper reports searching powers of two and settling on 32 (§6);
/// this regenerates that search.
pub fn ablation_threshold() -> Report {
    let name = "s27";
    let g = dataset(name);
    let cost = model_for(name, CostModel::cluster_a());
    let mut rows = Vec::new();
    for threshold in [1usize, 4, 8, 16, 32, 64, 128, 1 << 20] {
        let mut config = cfg(16, Policy::symple(), cost);
        config.degree_threshold = threshold;
        let mut times = Vec::new();
        let mut dep = 0u64;
        let mut upd = 0u64;
        for (_, algo) in GRID_ALGOS {
            let m = measure(algo, g, &config);
            times.push(m.time);
            dep += m.dep_bytes;
            upd += m.upd_bytes;
        }
        let label = if threshold >= 1 << 20 {
            "inf (no dep)".to_string()
        } else {
            threshold.to_string()
        };
        rows.push(vec![
            label,
            secs(times.iter().sum::<f64>()),
            (upd / 1024).to_string(),
            (dep / 1024).to_string(),
        ]);
    }
    let text = format!(
        "{}\nSum of modelled times over the five algorithms on s27, 16\nmachines, varying the differentiated-propagation threshold.\nthreshold 1 ~= full dependency; 'inf' degenerates to Gemini+circulant.\nPaper (§6): searched powers of two, chose 32.\n",
        table(&["threshold", "time(sum)", "upd kB", "dep kB"], &rows)
    );
    Report::new(
        "ablation_threshold",
        "Degree-threshold sweep (§6 extension)",
        text,
    )
}

/// Extension: double-buffering group-count sweep. §6 generalises double
/// buffering to more than two buffers; this measures the knee.
pub fn ablation_groups() -> Report {
    let name = "s27";
    let g = dataset(name);
    let cost = model_for(name, CostModel::cluster_a());
    let mut rows = Vec::new();
    for groups in [1usize, 2, 4, 8, 16] {
        let mut config = cfg(
            16,
            Policy::SympleGraph {
                differentiated: true,
                double_buffering: groups > 1,
            },
            cost,
        );
        config.buffer_groups = groups.max(1);
        let mut total = 0.0;
        for (_, algo) in GRID_ALGOS {
            total += measure(algo, g, &config).time;
        }
        rows.push(vec![groups.to_string(), secs(total)]);
    }
    let text = format!(
        "{}\nSum of modelled times over the five algorithms on s27, 16\nmachines, varying the number of double-buffering groups (1 = off).\n",
        table(&["groups", "time(sum)"], &rows)
    );
    Report::new(
        "ablation_groups",
        "Double-buffering group sweep (§6 extension)",
        text,
    )
}

/// Extension: BFS direction study — push-only, pull-only, adaptive —
/// under Gemini and SympleGraph (supports §7.1's methodology note that
/// SympleGraph only accelerates the bottom-up direction).
pub fn direction_study() -> Report {
    use symple_algos::{bfs_with_direction, Direction};
    let mut rows = Vec::new();
    for name in ["tw", "s29"] {
        let g = dataset(name);
        let cost = model_for(name, CostModel::cluster_a());
        let root = bfs_roots(g, 1)[0];
        for (dname, dir) in [
            ("push-only", Direction::PushOnly),
            ("pull-only", Direction::PullOnly),
            ("adaptive", Direction::Adaptive),
        ] {
            let (_, gem) = bfs_with_direction(g, &cfg(16, Policy::Gemini, cost), root, dir);
            let (_, sym) = bfs_with_direction(g, &cfg(16, Policy::symple(), cost), root, dir);
            rows.push(vec![
                name.to_string(),
                dname.to_string(),
                secs(gem.virtual_time()),
                secs(sym.virtual_time()),
                speedup(gem.virtual_time() / sym.virtual_time()),
                format!(
                    "{:.3}",
                    sym.work.edges_traversed() as f64 / gem.work.edges_traversed().max(1) as f64
                ),
            ]);
        }
    }
    let text = format!(
        "{}\nSympleGraph only helps the bottom-up (pull) direction — push\nmode has no loop-carried dependency — so adaptive sits between the\ntwo, exactly the paper's rationale for evaluating adaptive BFS.\n",
        table(
            &["graph", "direction", "Gemini", "SympleG.", "speedup", "edge ratio"],
            &rows
        )
    );
    Report::new("direction", "BFS direction study (extension)", text)
}

/// Extension: replication factor of the outgoing edge-cut partition —
/// the quantity the paper's §1/§2 frames update communication around
/// ("the communication problem … is closely related to graph partition
/// and replication"). One mirror = one potential update sender per
/// vertex; dependency propagation is what lets most of them stay silent.
pub fn replication() -> Report {
    use symple_core::PreparedGraph;
    let mut rows = Vec::new();
    for name in ["tw", "s29"] {
        let g = dataset(name);
        for machines in [2usize, 4, 8, 16] {
            // Mirrors do not depend on the dependency layout, so take the
            // one the suite's SympleGraph jobs at this size already built.
            let prepared = PreparedGraph::of(g, &EngineConfig::new(machines, Policy::symple()));
            let mirrors: usize = (0..machines)
                .map(|r| prepared.local(g, r).num_mirrors())
                .sum();
            let factor = (mirrors + g.num_vertices()) as f64 / g.num_vertices() as f64;
            rows.push(vec![
                name.to_string(),
                machines.to_string(),
                mirrors.to_string(),
                format!("{factor:.2}"),
            ]);
        }
    }
    let text = format!(
        "{}\nReplication factor = (masters + mirrors) / |V|. Every mirror is\na potential mirror->master update per iteration; the replication\ngrowth with machine count is exactly why Table 4's dependency savings\ngrow with scale (see tests/baseline_shapes.rs).\n",
        table(&["graph", "machines", "mirrors", "replication"], &rows)
    );
    Report::new(
        "replication",
        "Partition replication factor (extension)",
        text,
    )
}

/// One kernel of the per-edge dispatch microbench: the same instrumented
/// UDF driven straight through `PullProgram::signal` over synthetic
/// neighbour lists, once per executor. Emission checksums and edge
/// counts are asserted bit-identical; only wall time may differ.
#[derive(Debug, Clone, Copy)]
pub struct DispatchPoint {
    /// Kernel label.
    pub kernel: &'static str,
    /// Edges dispatched per executor run.
    pub edges: u64,
    /// Best-of-reps wall seconds, AST interpreter.
    pub interp_wall_secs: f64,
    /// Best-of-reps wall seconds, typed bytecode VM.
    pub bytecode_wall_secs: f64,
    /// Ops one edge dispatches at most, before and after the bind-time
    /// optimiser (see [`loop_ops`]).
    pub ops_per_edge: (usize, usize),
}

/// The dispatch-study kernels with the most ops per edge the optimised
/// typed program may take: the longest path through one iteration of the
/// neighbour loop, the op binding the next neighbour included. Exact and
/// host-independent, so `--exec-smoke` can hold every push to it.
fn dispatch_kernels() -> [(&'static str, symple_udf::UdfFn, usize); 4] {
    use symple_udf::paper_udfs;
    [
        ("bfs", paper_udfs::bfs_udf(), 2),
        ("kcore", paper_udfs::kcore_udf(8), 4),
        ("kmeans", paper_udfs::kmeans_udf(), 2),
        ("sampling", paper_udfs::sampling_udf(), 3),
    ]
}

/// Ops per edge of `inst`'s one neighbour loop: as the typing pass leaves
/// it (one op per portable op) and as the program bound to `props` runs.
fn loop_ops(
    inst: &symple_udf::InstrumentedUdf,
    props: &symple_udf::PropertyStore,
) -> (usize, usize) {
    let before = symple_udf::compile(inst)
        .expect("compile kernel")
        .loop_ops();
    let after = symple_udf::UdfProgram::new(inst, props)
        .loop_ops()
        .expect("kernel runs on the bytecode VM");
    assert_eq!((before.len(), after.len()), (1, 1), "one neighbour loop");
    (before[0], after[0])
}

impl DispatchPoint {
    /// Interpreter wall over bytecode wall (above 1 is a bytecode win).
    pub fn speedup(&self) -> f64 {
        self.interp_wall_secs / self.bytecode_wall_secs
    }
}

/// Times `rounds` sweeps of `signal` calls (one per vertex, `deg`
/// pseudo-random neighbours each) under both executors.
fn dispatch_bench(
    kernel: &'static str,
    udf: &symple_udf::UdfFn,
    props: &symple_udf::PropertyStore,
    n: usize,
    rounds: usize,
    reps: usize,
) -> DispatchPoint {
    use symple_core::{PullProgram, UdfExec};
    use symple_udf::{instrument, UdfProgram};

    let inst = instrument(udf).expect("instrument kernel");
    let deg = 16usize;
    let mut srcs = Vec::with_capacity(n * deg);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..n * deg {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        srcs.push(Vid::new(((x >> 33) % n as u64) as u32));
    }

    let run = |exec: UdfExec| -> (u64, u64, f64) {
        let prog = UdfProgram::new(&inst, props).exec(exec);
        assert_eq!(
            prog.uses_bytecode(),
            exec == UdfExec::Bytecode,
            "{kernel}: requested executor not in effect"
        );
        let mut wall = f64::INFINITY;
        let (mut sum, mut edges) = (0u64, 0u64);
        for _ in 0..reps.max(1) {
            let mut dep = prog.make_dep(1);
            let (mut s, mut e) = (0u64, 0u64);
            let start = std::time::Instant::now();
            for _ in 0..rounds {
                for v in 0..n {
                    let list = &srcs[v * deg..(v + 1) * deg];
                    let mut emit = |bits: u64| s = s.wrapping_add(bits | 1);
                    let out = prog.signal(Vid::new(v as u32), list, &mut dep, 0, false, &mut emit);
                    e += out.edges;
                }
            }
            wall = wall.min(start.elapsed().as_secs_f64());
            sum = s;
            edges = e;
        }
        (sum, edges, wall)
    };

    let (sum_i, edges_i, interp_wall_secs) = run(UdfExec::Interp);
    let (sum_b, edges_b, bytecode_wall_secs) = run(UdfExec::Bytecode);
    assert_eq!(sum_i, sum_b, "{kernel}: executor changed the emissions");
    assert_eq!(
        edges_i, edges_b,
        "{kernel}: executor changed the edge count"
    );
    DispatchPoint {
        kernel,
        edges: edges_b,
        interp_wall_secs,
        bytecode_wall_secs,
        ops_per_edge: loop_ops(&inst, props),
    }
}

/// Runs the executor study behind `BENCH_exec.json`: the per-edge
/// dispatch microbench on four paper kernels (8M+ edges each, best of
/// five runs), one point per kernel.
pub fn exec_study() -> Vec<DispatchPoint> {
    let n = 2048usize;
    let rounds = 256usize;
    let props = study_props(n, 64);
    dispatch_kernels()
        .iter()
        .map(|(name, udf, _)| dispatch_bench(name, udf, &props, n, rounds, 5))
        .collect()
}

/// Renders the executor study as a machine-readable JSON document
/// (`BENCH_exec.json`).
pub fn exec_json(study: &[DispatchPoint]) -> String {
    let mut w = symple_trace::json::JsonWriter::new();
    w.begin_object();
    w.key("bench").string("executor");
    w.key("note").string(
        "udf_dispatch: PullProgram::signal over synthetic neighbour lists, \
         AST interpreter vs typed bytecode VM, checksums asserted \
         bit-identical, wall = best of 5; ops_per_edge = longest path \
         through one loop iteration, before (typing pass, one op per \
         portable op) and after the bind-time optimiser",
    );
    w.key("udf_dispatch").begin_array();
    for p in study {
        w.begin_object();
        w.key("kernel").string(p.kernel);
        w.key("edges").u64(p.edges);
        w.key("interp_wall_secs").f64(p.interp_wall_secs);
        w.key("bytecode_wall_secs").f64(p.bytecode_wall_secs);
        w.key("speedup").f64(p.speedup());
        w.key("ops_per_edge").begin_object();
        w.key("before").u64(p.ops_per_edge.0 as u64);
        w.key("after").u64(p.ops_per_edge.1 as u64);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Renders the executor study as a report table.
pub fn exec_report(study: &[DispatchPoint]) -> Report {
    let rows: Vec<Vec<String>> = study
        .iter()
        .map(|p| {
            vec![
                format!("dispatch/{}", p.kernel),
                p.edges.to_string(),
                secs(p.interp_wall_secs),
                secs(p.bytecode_wall_secs),
                speedup(p.speedup()),
                format!("{} -> {}", p.ops_per_edge.0, p.ops_per_edge.1),
            ]
        })
        .collect();
    let text = format!(
        "{}\nPer-edge UDF cost, interpreter (baseline) vs bytecode VM.\n",
        table(
            &["bench", "units", "baseline", "compiled", "speedup", "ops/edge"],
            &rows
        )
    );
    Report::new("exec", "Executor study (extension)", text)
}

/// The `--exec-smoke` gate: one kernel (k-core 4) through the full
/// engine — 4 machines, SympleGraph policy, 2 executor threads — under
/// both executors. Outputs, work and communication counters, and
/// modelled time must match bit for bit. Next to it, the ops every
/// dispatch-study kernel takes per edge, held to [`dispatch_kernels`]'s
/// budgets: what a regression in the optimiser changes first, and exact
/// where a timing is not.
pub fn exec_smoke() -> String {
    use symple_core::UdfExec;
    use symple_graph::RmatConfig;
    use symple_udf::{effective_policy, instrument, paper_udfs, UdfProgram};

    let graph = RmatConfig::graph500(8, 8).cleaned(true).generate();
    let n = graph.num_vertices();
    let props = study_props(n, 5);
    let inst = instrument(&paper_udfs::kcore_udf(4)).expect("instrument kcore");
    let policy = effective_policy(&inst.info, Policy::symple());
    let run = |exec: UdfExec| {
        let cfg = EngineConfig::new(4, policy).threads(2).udf_exec(exec);
        let res = symple_core::run_spmd(&graph, &cfg, |w| {
            let prog = UdfProgram::new(&inst, &props).exec(cfg.udf_exec);
            assert_eq!(
                prog.uses_bytecode(),
                exec == UdfExec::Bytecode,
                "exec smoke: requested executor not in effect"
            );
            let mut dep = prog.make_dep(w.dep_slots_needed());
            let mut acc: Vec<(u64, u64)> = vec![(0, 0); n];
            let mut apply = |v: Vid, bits: u64| -> bool {
                let e = &mut acc[v.index()];
                e.0 += 1;
                e.1 = e.1.wrapping_add(bits);
                false
            };
            w.pull(&prog, &mut dep, &mut apply);
            acc
        });
        (res.outputs, res.stats)
    };
    let (out_i, st_i) = run(UdfExec::Interp);
    let (out_b, st_b) = run(UdfExec::Bytecode);
    assert_eq!(out_i, out_b, "exec smoke: outputs differ across executors");
    assert_eq!(st_i.work, st_b.work, "exec smoke: work differs");
    assert_eq!(st_i.comm, st_b.comm, "exec smoke: comm differs");
    assert_eq!(
        st_i.virtual_time().to_bits(),
        st_b.virtual_time().to_bits(),
        "exec smoke: modelled time differs"
    );
    let mut report = format!(
        "exec smoke: kcore on graph500(8,8), 4 machines, {policy:?}: outputs, \
         work, comm, and virtual time ({:.3e}s) bit-identical across \
         Interp/Bytecode\nexec smoke: ops per edge, typed -> optimised (budget):",
        st_b.virtual_time()
    );
    for (kernel, udf, budget) in dispatch_kernels() {
        let inst = instrument(&udf).expect("instrument kernel");
        let (before, after) = loop_ops(&inst, &props);
        assert!(
            after <= budget,
            "exec smoke: {kernel} dispatches {after} ops per edge, budget {budget}"
        );
        report.push_str(&format!(" {kernel} {before} -> {after} ({budget})"));
    }
    report
}

/// One kernel of the carried-state minimization study: the same UDF
/// instrumented by the naive syntactic analysis and by the
/// dataflow-minimized analysis, run back to back on the engine. Outputs
/// and work counters are asserted bit-identical inside [`udf_study`];
/// only the dependency payload may shrink.
#[derive(Debug, Clone)]
pub struct UdfPoint {
    /// Kernel label.
    pub kernel: &'static str,
    /// Dependency kind under the naive analysis (`data`/`control`).
    pub naive_kind: &'static str,
    /// Dependency kind after minimization (`data`/`control`/`none`).
    pub min_kind: &'static str,
    /// Carried locals under the naive analysis.
    pub naive_arity: usize,
    /// Carried locals after minimization.
    pub min_arity: usize,
    /// `UdfDep` wire bytes for one 64-vertex block, naive.
    pub naive_block_bytes: usize,
    /// `UdfDep` wire bytes for one 64-vertex block, minimized.
    pub min_block_bytes: usize,
    /// Measured dependency bytes on the engine, naive instrumentation.
    pub naive_dep_bytes: u64,
    /// Measured dependency bytes, minimized instrumentation.
    pub min_dep_bytes: u64,
    /// Measured dependency messages, naive instrumentation.
    pub naive_dep_msgs: u64,
    /// Measured dependency messages, minimized instrumentation.
    pub min_dep_msgs: u64,
    /// Measured dependency bytes, minimized instrumentation under the
    /// certificate-narrowed wire encoding (`DepWidth::Certified`).
    pub cert_dep_bytes: u64,
    /// Measured dependency messages under the narrowed encoding (must
    /// equal `min_dep_msgs`: narrowing never changes the message flow).
    pub cert_dep_msgs: u64,
    /// Whether the certificate proves the full latch (`skip_latch` and
    /// `stable_breaks`), i.e. certified early-exit needs no audit.
    pub latch_certified: bool,
    /// Segments skipped by the dependency latch (the certified
    /// early-exit fast path's hit count; identical across encodings).
    pub skipped_segments: u64,
}

fn dep_kind_label(kind: symple_udf::DepKind) -> &'static str {
    match kind {
        symple_udf::DepKind::None => "none",
        symple_udf::DepKind::Control => "control",
        symple_udf::DepKind::Data => "data",
    }
}

/// The shared property store of the UDF studies: every array the six
/// study kernels read, at deterministic shapes. `frontier_stride`
/// controls break density for the BFS kernel — the carried-state study
/// uses 5 (frequent breaks), the dispatch microbench 64 (most signal
/// calls scan their whole neighbour list).
pub(crate) fn study_props(n: usize, frontier_stride: usize) -> symple_udf::PropertyStore {
    use symple_graph::Bitmap;
    use symple_udf::{PropArray, PropertyStore};
    let mut props = PropertyStore::new();
    let mut frontier = Bitmap::new(n);
    let mut active = Bitmap::new(n);
    let mut assigned = Bitmap::new(n);
    for i in 0..n {
        if i % frontier_stride == 0 {
            frontier.set(i);
        }
        if i % 3 != 0 {
            active.set(i);
        }
        if i % 4 == 0 {
            assigned.set(i);
        }
    }
    props.insert("frontier", PropArray::Bools(frontier));
    props.insert("active", PropArray::Bools(active));
    props.insert("assigned", PropArray::Bools(assigned));
    props.insert(
        "color",
        PropArray::Ints((0..n).map(|i| (i * 7 % 31) as i64).collect()),
    );
    props.insert(
        "cluster",
        PropArray::Ints((0..n).map(|i| (i % 6) as i64).collect()),
    );
    props.insert(
        "weight",
        PropArray::Floats((0..n).map(|i| (i % 9) as f64 * 0.25).collect()),
    );
    props.insert(
        "r",
        PropArray::Floats((0..n).map(|i| (i % 13) as f64).collect()),
    );
    props
}

/// Runs the six study kernels (the five paper UDFs plus a `bounded`
/// kernel whose only break is provably unreachable) instrumented naive vs
/// minimized on a small RMAT graph, asserting bit-identical outputs and
/// work counters, and returns the payload comparison per kernel.
///
/// Policy is `Policy::symple_basic()` (no differentiated propagation) so
/// every kernel circulates its full dependency traffic; each
/// instrumentation still runs under [`symple_udf::effective_policy`], which
/// is what downgrades the dead-dependency `bounded` kernel to zero
/// dependency messages.
pub fn udf_study(scale: u32) -> Vec<UdfPoint> {
    use symple_graph::RmatConfig;
    use symple_udf::types::Ty;
    use symple_udf::{
        ast::{Expr, Stmt},
        effective_policy, instrument, instrument_naive, paper_udfs, UdfDep, UdfFn, UdfProgram,
    };

    let graph = RmatConfig::graph500(scale, 8).cleaned(true).generate();
    let n = graph.num_vertices();
    let props = study_props(n, 5);

    // A k-sampling-style kernel whose only break is dead: the guard flag
    // is provably false, so the minimized analysis removes the dependency
    // entirely and `effective_policy` downgrades to Gemini.
    let bounded = UdfFn::new(
        "bounded",
        Ty::Int,
        vec![
            Stmt::let_("dbg", Ty::Bool, Expr::b(false)),
            Stmt::let_("done", Ty::Bool, Expr::b(false)),
            Stmt::for_neighbors(vec![
                Stmt::if_(Expr::prop_u("active"), vec![Stmt::Emit(Expr::i(1))]),
                Stmt::if_(
                    Expr::local("dbg"),
                    vec![Stmt::assign("done", Expr::b(true)), Stmt::Break],
                ),
            ]),
            Stmt::if_(Expr::local("done").not(), vec![Stmt::Emit(Expr::i(0))]),
        ],
    );

    let kernels: Vec<(&'static str, UdfFn)> = vec![
        ("bfs", paper_udfs::bfs_udf()),
        ("mis", paper_udfs::mis_udf()),
        ("kcore", paper_udfs::kcore_udf(4)),
        ("kmeans", paper_udfs::kmeans_udf()),
        ("sampling", paper_udfs::sampling_udf()),
        ("bounded", bounded),
    ];

    let mut points = Vec::new();
    for (kernel, udf) in &kernels {
        let min = instrument(udf).expect("minimized instrumentation");
        let naive = instrument_naive(udf).expect("naive instrumentation");
        let run = |inst: &symple_udf::InstrumentedUdf, width: symple_core::DepWidth| {
            let policy = effective_policy(&inst.info, Policy::symple_basic());
            let engine = EngineConfig::new(4, policy).threads(2).dep_width(width);
            let res = symple_core::run_spmd(&graph, &engine, |w| {
                let prog = UdfProgram::new(inst, &props).dep_width(width);
                let mut dep = prog.make_dep(w.dep_slots_needed());
                let mut acc: Vec<(u64, u64)> = vec![(0, 0); n];
                let mut apply = |v: Vid, bits: u64| -> bool {
                    let e = &mut acc[v.index()];
                    e.0 += 1;
                    e.1 = e.1.wrapping_add(bits);
                    false
                };
                w.pull(&prog, &mut dep, &mut apply);
                acc
            });
            (res.outputs, res.stats)
        };
        // Naive and minimized both measured at the wide (PR 5) encoding
        // so the minimization ratio stays comparable across revisions;
        // the certificate-narrowed run rides on top of minimized.
        let (out_min, stats_min) = run(&min, symple_core::DepWidth::Wide);
        let (out_naive, stats_naive) = run(&naive, symple_core::DepWidth::Wide);
        let (out_cert, stats_cert) = run(&min, symple_core::DepWidth::Certified);
        assert_eq!(
            out_min, out_naive,
            "udf {kernel}: minimization changed the outputs"
        );
        assert_eq!(
            out_cert, out_min,
            "udf {kernel}: certified narrowing changed the outputs"
        );
        assert_eq!(
            stats_min.work.edges_traversed(),
            stats_naive.work.edges_traversed(),
            "udf {kernel}: minimization changed the work"
        );
        assert_eq!(
            stats_cert.work, stats_min.work,
            "udf {kernel}: certified narrowing changed the work counters"
        );
        assert_eq!(
            stats_min.work.skipped_by_dep(),
            stats_naive.work.skipped_by_dep(),
            "udf {kernel}: minimization changed the skip behaviour"
        );
        let min_dep_bytes = stats_min.comm.bytes(CommKind::Dependency);
        let naive_dep_bytes = stats_naive.comm.bytes(CommKind::Dependency);
        let cert_dep_bytes = stats_cert.comm.bytes(CommKind::Dependency);
        assert!(
            min_dep_bytes <= naive_dep_bytes,
            "udf {kernel}: minimization grew dependency traffic"
        );
        assert!(
            cert_dep_bytes <= min_dep_bytes,
            "udf {kernel}: certified narrowing grew dependency traffic"
        );
        // The two kernels whose certificates bite: K-core's counter is
        // certified to [0, k] (one byte instead of eight) and sampling's
        // structural latch elides its float payload. Both must shrink
        // strictly on top of PR 5's minimized encoding.
        if matches!(*kernel, "kcore" | "sampling") {
            assert!(
                cert_dep_bytes < min_dep_bytes,
                "udf {kernel}: certificate produced no byte win \
                 ({cert_dep_bytes} vs {min_dep_bytes})"
            );
        }
        points.push(UdfPoint {
            kernel,
            naive_kind: dep_kind_label(naive.info.kind),
            min_kind: dep_kind_label(min.info.kind),
            naive_arity: naive.info.carried.len(),
            min_arity: min.info.carried.len(),
            naive_block_bytes: UdfDep::wire_bytes_for(64, naive.info.carried.len()),
            min_block_bytes: UdfDep::wire_bytes_for(64, min.info.carried.len()),
            naive_dep_bytes,
            min_dep_bytes,
            naive_dep_msgs: stats_naive.comm.messages(CommKind::Dependency),
            min_dep_msgs: stats_min.comm.messages(CommKind::Dependency),
            cert_dep_bytes,
            cert_dep_msgs: stats_cert.comm.messages(CommKind::Dependency),
            latch_certified: min.info.cert.latches(),
            skipped_segments: stats_min.work.skipped_by_dep(),
        });
    }
    points
}

/// Renders the carried-state study as a machine-readable JSON document
/// (`BENCH_udf.json`).
pub fn udf_json(scale: u32, points: &[UdfPoint]) -> String {
    let mut w = symple_trace::json::JsonWriter::new();
    w.begin_object();
    w.key("bench").string("udf_carried_state");
    w.key("graph").string("rmat");
    w.key("scale").u64(u64::from(scale));
    w.key("note").string(
        "naive = syntactic dependency analysis; min = CFG/dataflow \
         minimization; certified = min re-encoded under the abstract-\
         interpretation DepCertificate (value-range width narrowing + \
         structural-latch payload elision). Outputs and work counters are \
         asserted bit-identical across all three; block_bytes = UdfDep wire \
         bytes for one 64-vertex block at the wide encoding; dep_bytes/\
         dep_msgs are measured engine dependency traffic under the effective \
         policy for each instrumentation; skipped_segments is the certified \
         early-exit fast path's hit count",
    );
    w.key("kernels").begin_array();
    for p in points {
        w.begin_object();
        w.key("kernel").string(p.kernel);
        w.key("naive").begin_object();
        w.key("kind").string(p.naive_kind);
        w.key("carried_arity").u64(p.naive_arity as u64);
        w.key("block_bytes").u64(p.naive_block_bytes as u64);
        w.key("dep_bytes").u64(p.naive_dep_bytes);
        w.key("dep_msgs").u64(p.naive_dep_msgs);
        w.end_object();
        w.key("min").begin_object();
        w.key("kind").string(p.min_kind);
        w.key("carried_arity").u64(p.min_arity as u64);
        w.key("block_bytes").u64(p.min_block_bytes as u64);
        w.key("dep_bytes").u64(p.min_dep_bytes);
        w.key("dep_msgs").u64(p.min_dep_msgs);
        w.end_object();
        w.key("certified").begin_object();
        w.key("dep_bytes").u64(p.cert_dep_bytes);
        w.key("dep_msgs").u64(p.cert_dep_msgs);
        w.key("latch_certified").bool(p.latch_certified);
        w.end_object();
        w.key("byte_ratio")
            .f64(p.min_dep_bytes as f64 / p.naive_dep_bytes.max(1) as f64);
        w.key("certified_ratio")
            .f64(p.cert_dep_bytes as f64 / p.min_dep_bytes.max(1) as f64);
        w.key("skipped_segments").u64(p.skipped_segments);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// The carried-state study as a report table (id `udf`).
pub fn udf_report() -> Report {
    let scale = 8;
    let points = udf_study(scale);
    assert!(
        points.iter().all(|p| p.min_dep_bytes <= p.naive_dep_bytes),
        "minimized dependency traffic must never exceed naive"
    );
    assert!(
        points.iter().any(|p| p.min_dep_bytes < p.naive_dep_bytes),
        "at least one kernel must strictly shrink"
    );
    assert!(
        points.iter().all(|p| p.cert_dep_bytes <= p.min_dep_bytes),
        "certified dependency traffic must never exceed minimized"
    );
    assert!(
        points.iter().all(|p| p.cert_dep_msgs == p.min_dep_msgs),
        "certified narrowing must not change the message flow"
    );
    let rows = points
        .iter()
        .map(|p| {
            vec![
                p.kernel.to_string(),
                format!("{}/{}", p.naive_kind, p.min_kind),
                format!("{}→{}", p.naive_arity, p.min_arity),
                format!("{}→{}", p.naive_block_bytes, p.min_block_bytes),
                p.naive_dep_bytes.to_string(),
                p.min_dep_bytes.to_string(),
                p.cert_dep_bytes.to_string(),
                format!(
                    "{:.3}",
                    p.min_dep_bytes as f64 / p.naive_dep_bytes.max(1) as f64
                ),
                format!(
                    "{:.3}",
                    p.cert_dep_bytes as f64 / p.min_dep_bytes.max(1) as f64
                ),
                if p.latch_certified { "yes" } else { "audit" }.to_string(),
                p.skipped_segments.to_string(),
            ]
        })
        .collect::<Vec<_>>();
    let text = format!(
        "{}\nCarried-state minimization (static analysis over the UDF CFG) vs the\nnaive syntactic analysis, RMAT scale {scale}, 4 machines, symple_basic\npolicy, plus the abstract-interpretation certificate re-encoding the\nminimized payload (value-range width narrowing and structural-latch\nelision; `cert B`/`c-ratio`). Outputs and work counters are asserted\nbit-identical per kernel; only the dependency payload shrinks. `latch` =\nwhether certified early-exit trusts the skip bit outright (`audit` =\nnon-monotone break, skipped segments re-checked under `Evaluate`);\n`skipped` is the early-exit fast path's hit count. `bounded` has a\nprovably-unreachable break: the dependency is eliminated outright and\nzero dependency messages are sent. See BENCH_udf.json for the raw grid.\n",
        table(
            &[
                "kernel",
                "kind n/m",
                "arity",
                "block B",
                "naive dep B",
                "min dep B",
                "cert B",
                "ratio",
                "c-ratio",
                "latch",
                "skipped"
            ],
            &rows
        )
    );
    Report::new("udf", "Carried-state minimization (static analysis)", text)
}

/// Runs every experiment in paper order.
pub fn all() -> Vec<Report> {
    vec![
        table1(),
        table2(),
        table3(),
        table4(),
        table5(),
        table6(),
        table7(),
        fig10(),
        fig11(),
        cost_metric(),
        ablation_threshold(),
        ablation_groups(),
        direction_study(),
        replication(),
        comm_report(),
        transport_report(),
        fault_report(),
        udf_report(),
        crate::matrix::matrix_report(),
    ]
}

/// Looks up an experiment runner by id.
pub fn by_id(id: &str) -> Option<fn() -> Report> {
    Some(match id {
        "table1" => table1,
        "table2" => table2,
        "table3" => table3,
        "table4" => table4,
        "table5" => table5,
        "table6" => table6,
        "table7" => table7,
        "fig10" => fig10,
        "fig11" => fig11,
        "cost" => cost_metric,
        "ablation_threshold" => ablation_threshold,
        "ablation_groups" => ablation_groups,
        "direction" => direction_study,
        "replication" => replication,
        "comm" => comm_report,
        "transport" => transport_report,
        "faults" => fault_report,
        "udf" => udf_report,
        "matrix" => crate::matrix::matrix_report,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_resolve() {
        for id in [
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "table7",
            "fig10",
            "fig11",
            "cost",
            "ablation_threshold",
            "ablation_groups",
            "direction",
            "replication",
            "comm",
            "transport",
            "faults",
            "udf",
            "matrix",
        ] {
            assert!(by_id(id).is_some(), "missing {id}");
        }
        assert!(by_id("nope").is_none());
    }

    #[test]
    fn bfs_roots_are_valid_and_distinct() {
        let g = dataset("s27");
        let roots = bfs_roots(g, 4);
        assert_eq!(roots.len(), 4);
        for &r in &roots {
            assert!(g.out_degree(r) > 0);
        }
        let mut sorted = roots.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn measure_runs_every_algo_small() {
        // smallest dataset to keep this test quick
        let g = dataset("s27");
        let c = cfg(2, Policy::symple(), CostModel::zero());
        let matrix_extras = [Algo::Sssp, Algo::Cc, Algo::Pagerank];
        for (_, algo) in GRID_ALGOS
            .iter()
            .copied()
            .chain(matrix_extras.map(|a| ("", a)))
        {
            let m = measure(algo, g, &c);
            assert!(m.edges > 0, "{algo:?} traversed nothing");
            assert!(m.reconciled, "{algo:?} trace bytes diverged from CommStats");
        }
    }

    #[test]
    fn adaptive_codec_meets_the_dense_frontier_byte_budget() {
        // The acceptance bar of the adaptive wire encoding: dense-frontier
        // workloads must ship at most 60% of the flat data bytes.
        let points = comm_study("s27", 4);
        for p in &points {
            assert!(
                p.data_ratio() <= 1.01,
                "{}/{}: adaptive should never cost more than the +1-tag worst case",
                p.algo,
                p.policy
            );
            if matches!(p.algo, "BFS-dense" | "K-core") {
                assert!(
                    p.data_ratio() <= 0.60,
                    "{}/{}: adaptive/flat = {:.3}",
                    p.algo,
                    p.policy,
                    p.data_ratio()
                );
            }
        }
    }

    #[test]
    fn transport_study_measures_wall_and_stays_logical() {
        // The study itself asserts backend bit-identity; here we pin the
        // shape of what it reports.
        let points = transport_study("s27", 2);
        assert_eq!(points.len(), TRANSPORT_ALGOS.len());
        for p in &points {
            assert!(p.modelled_secs > 0.0, "{}", p.algo);
            assert!(p.sim_wall_secs > 0.0, "{}", p.algo);
            assert!(p.thread_wall_secs > 0.0, "{}", p.algo);
            assert!(p.thread_comm_wall_secs >= 0.0, "{}", p.algo);
        }
        let json = transport_json("s27", 2, &points);
        assert!(json.contains("\"bench\":\"transport_backends\""));
        assert!(json.contains("\"modelled_virtual_secs\""));
        assert!(json.contains("\"thread_max_node_wall_secs\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
    }

    #[test]
    fn fault_study_absorbs_chaos_and_counts_it() {
        // The study itself asserts output/work/traffic bit-identity; here
        // we additionally pin the shape of what it reports.
        let points = fault_study("s27", 2, 7);
        assert_eq!(points.len(), FAULT_ALGOS.len() * 2);
        for p in &points {
            assert!(p.reliable.retransmits > 0, "{}/{}", p.algo, p.policy);
            assert!(p.reliable.acks > 0, "{}/{}", p.algo, p.policy);
            assert!(
                p.faulted_time >= p.clean_time,
                "{}/{}: retries cannot make the run faster",
                p.algo,
                p.policy
            );
        }
        let json = fault_json("s27", 2, 7, &points);
        assert!(json.contains("\"bench\":\"fault_injection\""));
        assert!(json.contains("\"retransmits\""));
        assert!(json.contains("\"seed\":7"));
    }

    #[test]
    fn traced_probe_produces_spans_and_reconciled_metrics() {
        let stats = traced_probe();
        let report = stats.metrics();
        assert_eq!(report.machines, 4);
        assert!(report.total_bytes() > 0);
        for k in COMM_KINDS {
            assert_eq!(report.bytes(k.byte_category()), stats.comm.bytes(k));
        }
        // Full tracing keeps individual spans for the chrome export.
        assert!(stats.trace.nodes.iter().all(|n| !n.spans.is_empty()));
        let chrome = stats.trace.to_chrome_json();
        assert!(chrome.contains("\"traceEvents\""));
    }
}
