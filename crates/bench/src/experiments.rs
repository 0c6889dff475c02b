//! One view per table/figure of the paper's evaluation (§7), all reading
//! the cells of one [`Registry`].
//!
//! Every view reports **modelled time** (virtual seconds on the emulated
//! cluster — see `symple-net`) plus the exactly-counted quantities the
//! paper reports (edges traversed, communication bytes). The `Paper:`
//! line under each report restates the result the original reports, so
//! shape can be compared at a glance; `EXPERIMENTS.md` tracks both.
//! [`REPORTS`] is the one list of what exists: the CLI's `all`, its id
//! lookup and its usage text read it.

use crate::datasets::{dataset, spec};
use crate::fmt::{geomean, secs, speedup, table};
use crate::registry::{
    self, Cell, Measured, Registry, Workload, BFS, BFS_PULL_ROOTS, BFS_ROOTS, GRID_ALGOS,
    GRID_GRAPHS, SAMPLING_SEEDS,
};
use symple_algos::Direction;
use symple_core::{DepWidth, EngineConfig, FaultPlan, Policy, RunStats, TraceLevel, WireCodec};
use symple_graph::GraphStats;
use symple_net::{CommKind, CostModel};

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

/// One entry of the report table: an id, a title, and the view that
/// renders the report's text from the registry's cells.
pub struct ReportSpec {
    /// Identifier (`table4`, `fig10`, …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    render: fn(&Registry) -> String,
}

impl ReportSpec {
    const fn new(id: &'static str, title: &'static str, render: fn(&Registry) -> String) -> Self {
        ReportSpec { id, title, render }
    }

    /// Renders the report over `reg`, measuring the cells it has not seen.
    pub fn run(&self, reg: &Registry) -> Report {
        Report {
            id: self.id,
            title: self.title,
            text: (self.render)(reg),
        }
    }
}

/// Every report, in paper order.
pub const REPORTS: [ReportSpec; 18] = [
    ReportSpec::new("table1", "Datasets (Table 1)", table1),
    ReportSpec::new("table2", "K-core runtime vs K (Table 2)", table2),
    ReportSpec::new("table3", "Large graphs, Cluster-C (Table 3)", table3),
    ReportSpec::new("table4", "Execution time, 16 machines (Table 4)", table4),
    ReportSpec::new("table5", "Edges traversed (Table 5)", table5),
    ReportSpec::new("table6", "Communication breakdown (Table 6)", table6),
    ReportSpec::new("table7", "Best machine count, MIS (Table 7)", table7),
    ReportSpec::new("fig10", "Scalability, MIS/s27 (Figure 10)", fig10),
    ReportSpec::new("fig11", "Optimisation ablation (Figure 11)", fig11),
    ReportSpec::new("cost", "COST metric (§7.4)", cost_metric),
    ReportSpec::new(
        "ablation_threshold",
        "Degree-threshold sweep (§6 extension)",
        ablation_threshold,
    ),
    ReportSpec::new(
        "ablation_groups",
        "Double-buffering group sweep (§6 extension)",
        ablation_groups,
    ),
    ReportSpec::new(
        "direction",
        "BFS direction study (extension)",
        direction_study,
    ),
    ReportSpec::new(
        "replication",
        "Partition replication factor (extension)",
        replication,
    ),
    ReportSpec::new("comm", "Wire-codec byte budget (extension)", comm_report),
    ReportSpec::new(
        "faults",
        "Fault-injection absorption (extension)",
        fault_report,
    ),
    ReportSpec::new(
        "udf",
        "Carried-state minimization (static analysis)",
        udf_report,
    ),
    ReportSpec::new(
        "matrix",
        "Scenario matrix (extension)",
        crate::matrix::matrix_report,
    ),
];

/// Looks up a report by id.
pub fn by_id(id: &str) -> Option<&'static ReportSpec> {
    REPORTS.iter().find(|spec| spec.id == id)
}

/// The report ids as the usage text lists them: comma-separated, wrapped
/// and indented to sit under an `ids:` label.
pub fn usage_ids() -> String {
    let mut out = String::new();
    let mut width = 0;
    for (i, spec) in REPORTS.iter().enumerate() {
        if i > 0 {
            out.push(',');
            if width + spec.id.len() > 56 {
                out.push_str("\n      ");
                width = 0;
            }
        }
        out.push(' ');
        out.push_str(spec.id);
        width += spec.id.len() + 2;
    }
    out
}

/// The cluster model for a dataset: the base testbed with fixed costs
/// scaled to the stand-in's size (see `CostModel::scale_fixed_costs`).
pub(crate) fn model_for(name: &str, base: CostModel) -> CostModel {
    base.scale_fixed_costs(spec(name).latency_scale())
}

pub(crate) fn cfg(machines: usize, policy: Policy, cost: CostModel) -> EngineConfig {
    EngineConfig::new(machines, policy).cost(cost)
}

/// The two systems most reports compare, under their row labels.
fn gemini_and_symple() -> [(&'static str, Policy); 2] {
    [
        ("Gemini", Policy::Gemini),
        ("SympleGraph", Policy::symple()),
    ]
}

/// `runs` on `name` at `machines` under Gemini and under SympleGraph.
fn gemini_vs_symple(
    reg: &Registry,
    runs: &[Workload],
    name: &str,
    machines: usize,
    cost: CostModel,
) -> (Measured, Measured) {
    let [gem, sym] = gemini_and_symple()
        .map(|(_, policy)| reg.measure(runs, name, &cfg(machines, policy, cost)));
    (gem, sym)
}

/// Table 1: dataset sizes and high-degree fractions.
fn table1(_: &Registry) -> String {
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
    format!(
        "{}\nPaper: |V'|/|V| between 0.04 and 0.31 (threshold 32).\n",
        table(&["graph", "stands for", "|V|", "|E|", "|V'|/|V|"], &rows)
    )
}

/// Table 2: K-core runtime vs k (tw, fr; 8 machines).
fn table2(reg: &Registry) -> String {
    let mut rows = Vec::new();
    for name in ["tw", "fr"] {
        let cost = model_for(name, CostModel::cluster_a());
        for k in [4u32, 8, 16, 32, 64] {
            let (gem, sym) = gemini_vs_symple(reg, &[Workload::Kcore(k)], name, 8, cost);
            rows.push(vec![
                name.to_string(),
                k.to_string(),
                secs(gem.time),
                secs(sym.time),
                speedup(gem.time / sym.time),
            ]);
        }
    }
    format!(
        "{}\nPaper: consistent 1.42x–1.62x speedup over Gemini regardless of K.\n",
        table(&["graph", "K", "Gemini", "SympleG.", "speedup"], &rows)
    )
}

/// Table 3: the large graphs on the 10-node Cluster-C model.
fn table3(reg: &Registry) -> String {
    let mut rows = Vec::new();
    for name in ["gsh", "cl"] {
        let cost = model_for(name, CostModel::cluster_c());
        for (algo_name, runs) in GRID_ALGOS {
            let (gem, sym) = gemini_vs_symple(reg, runs, name, 10, cost);
            rows.push(vec![
                name.to_string(),
                algo_name.to_string(),
                secs(gem.time),
                secs(sym.time),
                speedup(gem.time / sym.time),
            ]);
        }
    }
    format!(
        "{}\nPaper: 1.00x–1.80x on gsh, 1.00x–1.76x on cl (BFS ~1.0 where\nbottom-up is rarely chosen).\n",
        table(&["graph", "app", "Gemini", "SympleG.", "speedup"], &rows)
    )
}

/// Table 4: the main 5 algorithms × 5 graphs × 3 systems grid, 16
/// machines, plus the Matula–Beck parenthetical for K-core.
fn table4(reg: &Registry) -> String {
    let mut rows = Vec::new();
    let mut speedups_gem = Vec::new();
    let mut speedups_gal = Vec::new();
    for (algo_name, runs) in GRID_ALGOS {
        for name in GRID_GRAPHS {
            let cost = model_for(name, CostModel::cluster_a());
            let (gem, sym) = gemini_vs_symple(reg, runs, name, 16, cost);
            let gal = reg.measure(runs, name, &cfg(16, Policy::Galois, cost));
            let gem_cell = if let [Workload::Kcore(_)] = runs {
                // parenthetical: single-thread Matula–Beck (linear time)
                let (_, mb_edges) = symple_algos::coreness(dataset(name));
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
    format!(
        "{}\nGeomean speedup vs Gemini {:.2}x (paper: 1.42x avg, up to 2.30x);\nvs D-Galois {:.2}x (paper: 3.30x avg, up to 7.76x).\n",
        table(
            &["app", "graph", "Gemini", "D-Galois", "SympleG.", "vs Gem", "vs Gal"],
            &rows
        ),
        geomean(&speedups_gem),
        geomean(&speedups_gal),
    )
}

/// Table 5: traversed edges normalised to |E|.
fn table5(reg: &Registry) -> String {
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for (algo_name, runs) in GRID_ALGOS {
        for name in GRID_GRAPHS {
            let cost = model_for(name, CostModel::cluster_a());
            let e = dataset(name).num_edges() as f64;
            let (gem, sym) = gemini_vs_symple(reg, runs, name, 16, cost);
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
    format!(
        "{}\nMean SympleG./Gemini ratio {:.3} (paper: 66.91% average reduction,\ni.e. ratio ~0.33; sampling lowest, BFS/MIS ~0.28-0.51).\n",
        table(
            &["app", "graph", "Gemini/|E|", "SympleG./|E|", "SympG./Gemini"],
            &rows
        ),
        ratios.iter().sum::<f64>() / ratios.len() as f64,
    )
}

/// Table 6: communication breakdown normalised to Gemini's data bytes,
/// read off each run's trace ledger (`CommStats`).
fn table6(reg: &Registry) -> String {
    let mut rows = Vec::new();
    for (algo_name, runs) in GRID_ALGOS {
        for name in GRID_GRAPHS {
            let cost = model_for(name, CostModel::cluster_a());
            let (gem, sym) = gemini_vs_symple(reg, runs, name, 16, cost);
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
    format!(
        "{}\nPaper: total below 1.0 everywhere except sampling (dependency\nmessages carry f32 prefix sums); average reduction 40.95%.\nPer-category bytes are the trace ledger's own counts (exact).\n",
        table(
            &["app", "graph", "SymG.upt", "SymG.dep", "SymG.total"],
            &rows
        )
    )
}

/// Workloads of the wire-codec byte study (id `comm`): the five paper
/// algorithms plus a pull-only BFS whose frontier is dense every
/// iteration — the codec's best case alongside K-core.
const COMM_ALGOS: [(&str, &[Workload]); 6] = [
    ("BFS", &BFS_ROOTS),
    ("BFS-dense", &BFS_PULL_ROOTS),
    ("K-core", &[Workload::Kcore(4)]),
    ("MIS", &[Workload::Mis]),
    ("K-means", &[Workload::Kmeans]),
    ("Sampling", &SAMPLING_SEEDS),
];

/// One (workload, policy) row of the byte study, under both wire codecs.
struct CommPoint {
    algo: &'static str,
    policy: &'static str,
    /// Under the seed-identical flat encoding.
    flat: Measured,
    /// Under `WireCodec::Adaptive`.
    adaptive: Measured,
}

impl CommPoint {
    /// Adaptive/flat byte ratio over the data the codec touches (update +
    /// dependency). Collective sync traffic is never encoded — the same
    /// normalisation Table 6 uses.
    fn data_ratio(&self) -> f64 {
        let flat = self.flat.upd_bytes + self.flat.dep_bytes;
        let adaptive = self.adaptive.upd_bytes + self.adaptive.dep_bytes;
        adaptive as f64 / flat.max(1) as f64
    }
}

/// Every byte-study workload under Gemini and SympleGraph with both
/// codecs on dataset `name` at `machines`. Asserts along the way that the
/// codec is invisible to the computation (same traversed-edge counts).
fn comm_study(reg: &Registry, name: &str, machines: usize) -> Vec<CommPoint> {
    let cost = model_for(name, CostModel::cluster_a());
    let mut points = Vec::new();
    for (algo_name, runs) in COMM_ALGOS {
        for (pname, policy) in gemini_and_symple() {
            let flat = reg.measure(runs, name, &cfg(machines, policy, cost));
            let adaptive = reg.measure(
                runs,
                name,
                &cfg(machines, policy, cost).wire_codec(WireCodec::Adaptive),
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
fn comm_report(reg: &Registry) -> String {
    let (name, machines) = ("s27", 8);
    let rows = comm_study(reg, name, machines)
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
    format!(
        "{}\nExact update+dependency bytes on {name}, {machines} machines, flat vs\nadaptive wire codec (outputs are bit-identical by construction; the\ncodec picks per payload among flat/dense-bitmap/sparse-varint by exact\nsize). Dense-frontier workloads (BFS-dense, K-core) show the largest\nwins.\n",
        table(
            &["app", "system", "flat kB", "adaptive kB", "ratio"],
            &rows
        )
    )
}

/// One (workload, policy) row of the fault-injection study: the same cell
/// fault-free and under a seeded chaos plan. A point only exists if the
/// faulted run was bit-identical above the net layer (asserted inside
/// [`fault_study`]).
struct FaultPoint {
    algo: &'static str,
    policy: &'static str,
    clean: Cell,
    faulted: Cell,
}

/// Workloads of the fault study: the three dependency-sensitive
/// algorithms, whose correctness hinges on loop-carried messages arriving
/// exactly once and in order.
const FAULT_ALGOS: [(&str, Workload); 3] = [
    ("BFS", BFS),
    ("K-core", Workload::Kcore(4)),
    ("MIS", Workload::Mis),
];

/// Each fault-study workload under Gemini and SympleGraph on dataset
/// `name`, fault-free and under `FaultPlan::chaos(seed)`, asserting along
/// the way that outputs, work counters, and logical traffic are
/// bit-identical — the acceptance bar that makes the fault plan a pure
/// robustness knob.
fn fault_study(reg: &Registry, name: &str, machines: usize, seed: u64) -> Vec<FaultPoint> {
    let cost = model_for(name, CostModel::cluster_a());
    let plan = FaultPlan::chaos(seed);
    let mut points = Vec::new();
    for (algo_name, workload) in FAULT_ALGOS {
        for (pname, policy) in gemini_and_symple() {
            let clean = reg.cell(workload, name, &cfg(machines, policy, cost));
            let faulted = reg.cell(
                workload,
                name,
                &cfg(machines, policy, cost).fault_plan(plan),
            );
            assert_eq!(
                clean.fingerprint, faulted.fingerprint,
                "faults {algo_name}/{pname}: output changed"
            );
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
            assert!(
                machines < 2 || faulted.comm.reliable().retransmits > 0,
                "faults {algo_name}/{pname}: the chaos plan injected nothing"
            );
            points.push(FaultPoint {
                algo: algo_name,
                policy: pname,
                clean,
                faulted,
            });
        }
    }
    points
}

/// The fault study as a report table (id `faults`), on the small s27
/// stand-in at 4 machines: its fault-free cells are the matrix's.
fn fault_report(reg: &Registry) -> String {
    let (name, machines, seed) = ("s27", 4, 42);
    let rows = fault_study(reg, name, machines, seed)
        .iter()
        .map(|p| {
            let reliable = p.faulted.comm.reliable();
            vec![
                p.algo.to_string(),
                p.policy.to_string(),
                reliable.retransmits.to_string(),
                reliable.dup_drops.to_string(),
                reliable.acks.to_string(),
                format!(
                    "{:.3}",
                    p.faulted.time / p.clean.time.max(f64::MIN_POSITIVE)
                ),
            ]
        })
        .collect::<Vec<_>>();
    format!(
        "{}\nSeeded chaos plan (drop/dup/delay/reorder) on {name}, {machines} machines,\nseed {seed}. Outputs, work counters, and logical traffic are asserted\nbit-identical to the fault-free run before a row is printed; the\ncolumns show what the ack/retry layer absorbed and the virtual-time\nslowdown it cost.\n",
        table(
            &["app", "system", "retrans", "dups", "acks", "slowdown"],
            &rows
        )
    )
}

/// Runs one fully-traced workload (BFS on s27, 4 machines, SympleGraph
/// policy, `TraceLevel::Full`) and returns its stats — the data source
/// behind the CLI's `--chrome-trace` and `--metrics-json` flags. The one
/// run that bypasses the registry: it is wanted for its trace, which a
/// cell does not keep.
pub fn traced_probe() -> RunStats {
    let name = "s27";
    let cost = model_for(name, CostModel::cluster_a());
    let config = cfg(4, Policy::symple(), cost).trace_level(TraceLevel::Full);
    registry::run(BFS, dataset(name), &config).1
}

/// Table 7: best-performing machine count, MIS, Cluster-B model.
fn table7(reg: &Registry) -> String {
    let sweep = [2usize, 4, 8, 16];
    let mut rows = Vec::new();
    for name in GRID_GRAPHS {
        let cost = model_for(name, CostModel::cluster_b());
        let best = |policy: Policy| -> (f64, usize) {
            sweep
                .iter()
                .map(|&m| (reg.cell(Workload::Mis, name, &cfg(m, policy, cost)).time, m))
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
    format!(
        "{}\nPaper: D-Galois needs 128 Stampede2 nodes to approach SympleGraph\non 2-4; here the sweep is capped at 16 simulated machines.\n",
        table(&["graph", "D-Galois (nodes)", "SympleGraph (nodes)"], &rows)
    )
}

/// Figure 10: scalability of MIS on s27 across 1–16 machines.
fn fig10(reg: &Registry) -> String {
    let cost = model_for("s27", CostModel::cluster_a());
    let mis = |m: usize, policy: Policy| reg.cell(Workload::Mis, "s27", &cfg(m, policy, cost)).time;
    let base = mis(16, Policy::symple());
    let mut rows = Vec::new();
    for m in [1usize, 2, 4, 8, 16] {
        rows.push(vec![
            m.to_string(),
            format!("{:.3}", mis(m, Policy::Gemini) / base),
            format!("{:.3}", mis(m, Policy::symple()) / base),
            format!("{:.3}", mis(m, Policy::Galois) / base),
        ]);
    }
    format!(
        "{}\nNormalised to SympleGraph at 16 machines. Paper (Fig. 10):\nSympleGraph consistently below Gemini, D-Galois above both at <=16\nnodes; both Gemini and SympleGraph bottom out around 8 machines.\n",
        table(&["machines", "Gemini", "SympleG.", "D-Galois"], &rows)
    )
}

/// Figure 11: piecewise contribution of the two communication
/// optimisations over basic circulant scheduling.
fn fig11(reg: &Registry) -> String {
    let variants: [Policy; 4] = [
        // circulant only
        Policy::symple_basic(),
        // +DB
        Policy::SympleGraph {
            differentiated: false,
            double_buffering: true,
        },
        // +DP
        Policy::SympleGraph {
            differentiated: true,
            double_buffering: false,
        },
        // +DB+DP
        Policy::symple(),
    ];
    let mut rows = Vec::new();
    for name in GRID_GRAPHS {
        let cost = model_for(name, CostModel::cluster_a());
        let times = |policy: Policy| {
            GRID_ALGOS.map(|(_, runs)| reg.measure(runs, name, &cfg(16, policy, cost)).time)
        };
        let base_times = times(variants[0]);
        let mut cells = vec![name.to_string()];
        for policy in variants {
            let normalized: Vec<f64> = times(policy)
                .iter()
                .zip(&base_times)
                .map(|(t, base)| t / base)
                .collect();
            cells.push(format!("{:.3}", geomean(&normalized)));
        }
        rows.push(cells);
    }
    format!(
        "{}\nGeomean over the five algorithms, normalised to circulant-only.\nPaper (Fig. 11): DB alone helps everywhere; DP alone has little\neffect; DB+DP is best.\n",
        table(
            &["graph", "circulant", "+DB", "+DP", "+DB+DP"],
            &rows
        )
    )
}

/// §7.4 COST metric: machines needed to beat the best single-thread
/// implementation.
fn cost_metric(reg: &Registry) -> String {
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
    let row = |label: &str, name: &str, runs: &[Workload], st_edges: f64| {
        let cost = per_core(name);
        let st_time = st_edges * single_edge_sec;
        let found = (1usize..=16)
            .map(|m| {
                (
                    m,
                    reg.measure(runs, name, &cfg(m, Policy::symple(), cost))
                        .time,
                )
            })
            .find(|&(_, t)| t < st_time);
        let (m, t) = found.unwrap_or((0, f64::NAN));
        vec![
            label.to_string(),
            secs(st_time),
            if m == 0 { ">16".into() } else { m.to_string() },
            secs(t),
        ]
    };
    // MIS on s27: the Galois single-thread baseline is the greedy scan
    // (≈ every edge visited once, plus the priority sort ≈ another |E|).
    let mis_edges = 2.0 * dataset("s27").num_edges() as f64;
    // BFS on tw: GAPBS-like single thread charged at the plain
    // reference's exact edge count.
    let tw = dataset("tw");
    let (_, bfs_edges) = symple_algos::bfs_reference(tw, registry::bfs_roots(tw, 1)[0]);
    let rows = [
        row("MIS/s27", "s27", &[Workload::Mis], mis_edges),
        row("BFS/tw", "tw", &BFS_ROOTS, bfs_edges as f64),
    ];
    format!(
        "{}\nPaper: COST of SympleGraph is 3-4 cores (vs 64 for D-Galois).\nEach simulated machine here is modelled at single-core speed, so the\n\"cores to beat\" column is directly the COST metric.\n",
        table(
            &["workload", "single-thread", "cores to beat", "time"],
            &rows
        )
    )
}

/// Extension: degree-threshold sweep for differentiated propagation.
/// The paper reports searching powers of two and settling on 32 (§6);
/// this regenerates that search.
fn ablation_threshold(reg: &Registry) -> String {
    let name = "s27";
    let cost = model_for(name, CostModel::cluster_a());
    let mut rows = Vec::new();
    for threshold in [1usize, 4, 8, 16, 32, 64, 128, 1 << 20] {
        let config = cfg(16, Policy::symple(), cost).degree_threshold(threshold);
        let mut times = Vec::new();
        let mut dep = 0u64;
        let mut upd = 0u64;
        for (_, runs) in GRID_ALGOS {
            let m = reg.measure(runs, name, &config);
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
    format!(
        "{}\nSum of modelled times over the five algorithms on s27, 16\nmachines, varying the differentiated-propagation threshold.\nthreshold 1 ~= full dependency; 'inf' degenerates to Gemini+circulant.\nPaper (§6): searched powers of two, chose 32.\n",
        table(&["threshold", "time(sum)", "upd kB", "dep kB"], &rows)
    )
}

/// Extension: double-buffering group-count sweep. §6 generalises double
/// buffering to more than two buffers; this measures the knee.
fn ablation_groups(reg: &Registry) -> String {
    let name = "s27";
    let cost = model_for(name, CostModel::cluster_a());
    let mut rows = Vec::new();
    for groups in [1usize, 2, 4, 8, 16] {
        let policy = Policy::SympleGraph {
            differentiated: true,
            double_buffering: groups > 1,
        };
        let config = cfg(16, policy, cost).buffer_groups(groups);
        let mut total = 0.0;
        for (_, runs) in GRID_ALGOS {
            total += reg.measure(runs, name, &config).time;
        }
        rows.push(vec![groups.to_string(), secs(total)]);
    }
    format!(
        "{}\nSum of modelled times over the five algorithms on s27, 16\nmachines, varying the number of double-buffering groups (1 = off).\n",
        table(&["groups", "time(sum)"], &rows)
    )
}

/// Extension: BFS direction study — push-only, pull-only, adaptive —
/// under Gemini and SympleGraph (supports §7.1's methodology note that
/// SympleGraph only accelerates the bottom-up direction).
fn direction_study(reg: &Registry) -> String {
    let mut rows = Vec::new();
    for name in ["tw", "s29"] {
        let cost = model_for(name, CostModel::cluster_a());
        for (dname, direction) in [
            ("push-only", Direction::PushOnly),
            ("pull-only", Direction::PullOnly),
            ("adaptive", Direction::Adaptive),
        ] {
            let workload = Workload::Bfs { root: 0, direction };
            let [gem, sym] = gemini_and_symple()
                .map(|(_, policy)| reg.cell(workload, name, &cfg(16, policy, cost)));
            rows.push(vec![
                name.to_string(),
                dname.to_string(),
                secs(gem.time),
                secs(sym.time),
                speedup(gem.time / sym.time),
                format!("{:.3}", sym.edges() as f64 / gem.edges().max(1) as f64),
            ]);
        }
    }
    format!(
        "{}\nSympleGraph only helps the bottom-up (pull) direction — push\nmode has no loop-carried dependency — so adaptive sits between the\ntwo, exactly the paper's rationale for evaluating adaptive BFS.\n",
        table(
            &["graph", "direction", "Gemini", "SympleG.", "speedup", "edge ratio"],
            &rows
        )
    )
}

/// Extension: replication factor of the outgoing edge-cut partition —
/// the quantity the paper's §1/§2 frames update communication around
/// ("the communication problem … is closely related to graph partition
/// and replication"). One mirror = one potential update sender per
/// vertex; dependency propagation is what lets most of them stay silent.
fn replication(_: &Registry) -> String {
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
    format!(
        "{}\nReplication factor = (masters + mirrors) / |V|. Every mirror is\na potential mirror->master update per iteration; the replication\ngrowth with machine count is exactly why Table 4's dependency savings\ngrow with scale (see tests/baseline_shapes.rs).\n",
        table(&["graph", "machines", "mirrors", "replication"], &rows)
    )
}

/// One kernel of the carried-state minimization study: the same UDF
/// instrumented by the naive syntactic analysis and by the
/// dataflow-minimized analysis, plus the minimized one under the
/// certificate-narrowed wire encoding. Outputs and work counters are
/// asserted bit-identical inside [`udf_study`]; only the dependency
/// payload may shrink.
struct UdfPoint {
    kernel: &'static str,
    /// Dependency analysis of the naive / minimized instrumentation.
    naive_info: symple_udf::DepInfo,
    min_info: symple_udf::DepInfo,
    /// Naive and minimized at the wide encoding, so the minimization ratio
    /// stays comparable across revisions; the narrowed run rides on top of
    /// minimized.
    naive: Cell,
    min: Cell,
    cert: Cell,
}

fn dep_kind_label(kind: symple_udf::DepKind) -> &'static str {
    match kind {
        symple_udf::DepKind::None => "none",
        symple_udf::DepKind::Control => "control",
        symple_udf::DepKind::Data => "data",
    }
}

/// The dataset of the `udf` report (R-MAT scale 8), 4 machines × 2
/// threads.
const UDF_GRAPH: &str = "rmat8";

/// Runs the six study kernels (the five paper UDFs plus a `bounded`
/// kernel whose only break is provably unreachable) instrumented naive vs
/// minimized, asserting bit-identical outputs and work counters, and
/// returns the payload comparison per kernel.
///
/// Policy is `Policy::symple_basic()` (no differentiated propagation) so
/// every kernel circulates its full dependency traffic; each
/// instrumentation still runs under [`symple_udf::effective_policy`], which
/// is what downgrades the dead-dependency `bounded` kernel to zero
/// dependency messages.
fn udf_study(reg: &Registry) -> Vec<UdfPoint> {
    let mut points = Vec::new();
    for kernel in ["bfs", "mis", "kcore", "kmeans", "sampling", "bounded"] {
        let cell = |naive: bool, width: DepWidth| {
            let engine = EngineConfig::new(4, Policy::symple_basic())
                .threads(2)
                .dep_width(width);
            reg.cell(Workload::Udf { kernel, naive }, UDF_GRAPH, &engine)
        };
        let p = UdfPoint {
            kernel,
            naive_info: registry::udf_instrumented(kernel, true).info,
            min_info: registry::udf_instrumented(kernel, false).info,
            naive: cell(true, DepWidth::Wide),
            min: cell(false, DepWidth::Wide),
            cert: cell(false, DepWidth::Certified),
        };
        assert_eq!(
            p.min.fingerprint, p.naive.fingerprint,
            "udf {kernel}: minimization changed the outputs"
        );
        assert_eq!(
            p.cert.fingerprint, p.min.fingerprint,
            "udf {kernel}: certified narrowing changed the outputs"
        );
        assert_eq!(
            p.min.edges(),
            p.naive.edges(),
            "udf {kernel}: minimization changed the work"
        );
        assert_eq!(
            p.cert.work, p.min.work,
            "udf {kernel}: certified narrowing changed the work counters"
        );
        assert_eq!(
            p.min.work.skipped_by_dep(),
            p.naive.work.skipped_by_dep(),
            "udf {kernel}: minimization changed the skip behaviour"
        );
        let [naive_bytes, min_bytes, cert_bytes] = [&p.naive, &p.min, &p.cert].map(Cell::dep_bytes);
        assert!(
            min_bytes <= naive_bytes,
            "udf {kernel}: minimization grew dependency traffic"
        );
        assert!(
            cert_bytes <= min_bytes,
            "udf {kernel}: certified narrowing grew dependency traffic"
        );
        assert_eq!(
            p.cert.comm.messages(CommKind::Dependency),
            p.min.comm.messages(CommKind::Dependency),
            "udf {kernel}: certified narrowing changed the message flow"
        );
        // The two kernels whose certificates bite: K-core's counter is
        // certified to [0, k] (one byte instead of eight) and sampling's
        // structural latch elides its float payload. Both must shrink
        // strictly on top of the minimized encoding.
        if matches!(kernel, "kcore" | "sampling") {
            assert!(
                cert_bytes < min_bytes,
                "udf {kernel}: certificate produced no byte win \
                 ({cert_bytes} vs {min_bytes})"
            );
        }
        points.push(p);
    }
    assert!(
        points
            .iter()
            .any(|p| p.min.dep_bytes() < p.naive.dep_bytes()),
        "at least one kernel must strictly shrink"
    );
    points
}

/// The carried-state study as a report table (id `udf`).
fn udf_report(reg: &Registry) -> String {
    use symple_udf::UdfDep;
    let rows = udf_study(reg)
        .iter()
        .map(|p| {
            let (naive_arity, min_arity) = (p.naive_info.carried.len(), p.min_info.carried.len());
            let [naive_bytes, min_bytes, cert_bytes] =
                [&p.naive, &p.min, &p.cert].map(Cell::dep_bytes);
            vec![
                p.kernel.to_string(),
                format!(
                    "{}/{}",
                    dep_kind_label(p.naive_info.kind),
                    dep_kind_label(p.min_info.kind)
                ),
                format!("{naive_arity}→{min_arity}"),
                format!(
                    "{}→{}",
                    UdfDep::wire_bytes_for(64, naive_arity),
                    UdfDep::wire_bytes_for(64, min_arity)
                ),
                naive_bytes.to_string(),
                min_bytes.to_string(),
                cert_bytes.to_string(),
                format!("{:.3}", min_bytes as f64 / naive_bytes.max(1) as f64),
                format!("{:.3}", cert_bytes as f64 / min_bytes.max(1) as f64),
                if p.min_info.cert.latches() {
                    "yes"
                } else {
                    "audit"
                }
                .to_string(),
                p.min.work.skipped_by_dep().to_string(),
            ]
        })
        .collect::<Vec<_>>();
    format!(
        "{}\nCarried-state minimization (static analysis over the UDF CFG) vs the\nnaive syntactic analysis, RMAT scale {scale}, 4 machines, symple_basic\npolicy, plus the abstract-interpretation certificate re-encoding the\nminimized payload (value-range width narrowing and structural-latch\nelision; `cert B`/`c-ratio`). Outputs and work counters are asserted\nbit-identical per kernel; only the dependency payload shrinks. `latch` =\nwhether certified early-exit trusts the skip bit outright (`audit` =\nnon-monotone break: skipped segments are re-checked, as every program's\nare in a debug build); `skipped` is the early-exit fast path's hit\ncount. `bounded` has a provably-unreachable break: the dependency is\neliminated outright and zero dependency messages are sent.\n",
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
        ),
        scale = spec(UDF_GRAPH).scale,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use symple_net::CommStats;

    #[test]
    fn report_ids_are_unique_and_in_paper_order() {
        let ids: Vec<&str> = REPORTS.iter().map(|spec| spec.id).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate report id");
        // Paper order: the tables, the figures, §7.4, then the extensions.
        assert_eq!(
            ids[..7],
            ["table1", "table2", "table3", "table4", "table5", "table6", "table7"]
        );
        assert_eq!(ids[7..10], ["fig10", "fig11", "cost"]);
        assert_eq!(ids.last(), Some(&"matrix"));
    }

    #[test]
    fn lookup_and_usage_cover_exactly_the_table() {
        for spec in &REPORTS {
            let found = by_id(spec.id).expect("every table id resolves");
            assert_eq!(found.title, spec.title);
        }
        assert!(by_id("nope").is_none());
        assert!(
            by_id("all").is_none(),
            "`all` is the CLI's word, not a report"
        );
        let listed: Vec<String> = usage_ids()
            .split(',')
            .map(|id| id.trim().to_string())
            .collect();
        let ids: Vec<&str> = REPORTS.iter().map(|spec| spec.id).collect();
        assert_eq!(listed, ids);
        assert!(usage_ids().lines().all(|line| line.len() <= 72));
    }

    #[test]
    fn a_report_is_its_table_row_rendered() {
        // `all` is this, mapped over `REPORTS` in order; that its stdout
        // comes out in table order is what ci.sh's doc gate diffs.
        let spec = ReportSpec::new("stub", "A stub", |reg| {
            format!("{} runs", reg.engine_runs())
        });
        let report = spec.run(&Registry::new());
        assert_eq!(
            (report.id, report.title, report.text.as_str()),
            ("stub", "A stub", "0 runs")
        );
    }

    #[test]
    fn adaptive_codec_meets_the_dense_frontier_byte_budget() {
        // The acceptance bar of the adaptive wire encoding: dense-frontier
        // workloads must ship at most 60% of the flat data bytes.
        let points = comm_study(&Registry::new(), "s27", 4);
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
    fn fault_study_absorbs_chaos_and_counts_it() {
        // The study itself asserts output/work/traffic bit-identity; here
        // we additionally pin the shape of what it reports.
        let points = fault_study(&Registry::new(), "s27", 2, 7);
        assert_eq!(points.len(), FAULT_ALGOS.len() * 2);
        for p in &points {
            let reliable = p.faulted.comm.reliable();
            assert!(reliable.retransmits > 0, "{}/{}", p.algo, p.policy);
            assert!(reliable.acks > 0, "{}/{}", p.algo, p.policy);
            assert!(
                p.faulted.time >= p.clean.time,
                "{}/{}: retries cannot make the run faster",
                p.algo,
                p.policy
            );
        }
    }

    #[test]
    fn traced_probe_produces_spans_and_reconciled_metrics() {
        let stats = traced_probe();
        assert_eq!(stats.trace.nodes.len(), 4);
        assert!(stats.comm.total_bytes() > 0);
        let cells = stats.trace.merged_cells();
        let sum = cells.values().fold(CommStats::default(), |a, c| a + c.comm);
        assert_eq!(sum, stats.comm, "the cells sum to the ledger");
        // Full tracing keeps individual spans for the chrome export.
        assert!(stats.trace.nodes.iter().all(|n| !n.spans.is_empty()));
        let chrome = stats.trace.to_chrome_json();
        assert!(chrome.contains("\"traceEvents\""));
    }
}
