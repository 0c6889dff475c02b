//! The registry of measured cells: the one place `symple-bench` runs the
//! engine.
//!
//! A [`Cell`] is one engine run — a [`Workload`] on a named dataset under
//! one `EngineConfig` — reduced to what the reports read: the output
//! fingerprint, the modelled seconds, and the exact work and communication
//! counters. Every quantity is modelled or counted, so a cell is the same
//! on every host and in every profile, and a [`Registry`] measures each
//! one once: the tables, the figures and the scenario matrix are views
//! over the same cells (Table 5 and 6 read Table 4's runs; the matrix's
//! single-root BFS is the first of the tables' four roots).
//!
//! A `Workload` is the small, graph-independent memo key;
//! `Workload::job` resolves it on a graph to a [`Job`] of the catalogue
//! (roots, constants, a named UDF kernel over `paper_props`), which runs
//! it.

use crate::datasets::dataset;
use crate::job::{instrument, paper_props, Job, Output, UdfJob};
use std::cell::RefCell;
use std::collections::HashMap;
use symple_algos::Direction;
use symple_core::{EngineConfig, RunStats, WorkStats};
use symple_graph::{Graph, Vid};
use symple_net::{CommKind, CommStats};
use symple_udf::{InstrumentedUdf, UdfFn};

/// One engine run's worth of algorithm: everything but the graph and the
/// engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// BFS from the `root`-th deterministic root (see `bfs_roots`).
    Bfs {
        /// Index into the root list.
        root: usize,
        /// Traversal direction policy (the evaluation's is adaptive).
        direction: Direction,
    },
    /// K-core at the given k.
    Kcore(u32),
    /// Maximal independent set.
    Mis,
    /// Graph K-means (scaled-down outer iterations).
    Kmeans,
    /// Weighted neighbour sampling under one RNG seed.
    Sampling {
        /// The RNG seed.
        seed: u64,
    },
    /// Delta-stepping SSSP from the first root over hash-derived edge
    /// weights (scenario matrix).
    Sssp,
    /// Connected components by min-label propagation (scenario matrix).
    Cc,
    /// Fixed-point PageRank with convergence detection (scenario matrix).
    Pagerank,
    /// An instrumented UDF (see `udf_kernel`) pulled once over the
    /// whole graph, per-vertex update counters as the output.
    Udf {
        /// Kernel name.
        kernel: &'static str,
        /// Instrument with the naive syntactic analysis instead of the
        /// dataflow-minimized one.
        naive: bool,
    },
}

const fn bfs_root(root: usize, direction: Direction) -> Workload {
    Workload::Bfs { root, direction }
}

/// Adaptive BFS from the first root: the single run the matrix, the
/// fault sweep and the traced probe use.
pub(crate) const BFS: Workload = bfs_root(0, Direction::Adaptive);

/// The evaluation's BFS: adaptive, averaged over four roots.
pub(crate) const BFS_ROOTS: [Workload; 4] = [
    BFS,
    bfs_root(1, Direction::Adaptive),
    bfs_root(2, Direction::Adaptive),
    bfs_root(3, Direction::Adaptive),
];

/// Pull-only BFS over the same four roots: every iteration walks the
/// dense bottom-up direction — the dense-frontier datapoint of the
/// wire-codec byte study.
pub(crate) const BFS_PULL_ROOTS: [Workload; 4] = [
    bfs_root(0, Direction::PullOnly),
    bfs_root(1, Direction::PullOnly),
    bfs_root(2, Direction::PullOnly),
    bfs_root(3, Direction::PullOnly),
];

/// The evaluation's sampling: averaged over three seeds.
pub(crate) const SAMPLING_SEEDS: [Workload; 3] = [
    Workload::Sampling { seed: 0 },
    Workload::Sampling { seed: 1 },
    Workload::Sampling { seed: 2 },
];

/// Algorithm list for the main grids (paper order), each as the runs its
/// figures average over.
pub(crate) const GRID_ALGOS: [(&str, &[Workload]); 5] = [
    ("BFS", &BFS_ROOTS),
    ("K-core", &[Workload::Kcore(4)]),
    ("MIS", &[Workload::Mis]),
    ("K-means", &[Workload::Kmeans]),
    ("Sampling", &SAMPLING_SEEDS),
];

/// The five main-grid graphs (paper Table 4).
pub(crate) const GRID_GRAPHS: [&str; 5] = ["tw", "fr", "s27", "s28", "s29"];

const KMEANS_ITERS: u32 = 3;
/// Edge-weight seed for the SSSP workload (see
/// `symple_algos::common::edge_weight`).
const SSSP_SEED: u64 = 0x5557;
/// PageRank convergence tolerance in fixed-point millionths (1e-3).
const PAGERANK_TOL: u64 = 1_000;
/// PageRank iteration cap — keeps the big R-MAT stand-ins tractable
/// while still exercising convergence detection every round.
const PAGERANK_ITERS: u32 = 20;

/// Picks deterministic non-isolated BFS roots; a longer list extends a
/// shorter one.
pub(crate) fn bfs_roots(graph: &Graph, count: usize) -> Vec<Vid> {
    let n = graph.num_vertices() as u64;
    let mut roots = Vec::new();
    let mut probe = 0u64;
    while roots.len() < count {
        let v = Vid::new((symple_algos::common::hash3(17, probe, 0) % n) as u32);
        probe += 1;
        if graph.out_degree(v) > 0 && !roots.contains(&v) {
            roots.push(v);
        }
    }
    roots
}

/// One measured engine run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// FNV-1a-64 fingerprint of the algorithm output.
    pub fingerprint: u64,
    /// Modelled seconds on the emulated cluster.
    pub time: f64,
    /// Exact work counters.
    pub work: WorkStats,
    /// Exact logical traffic, plus the reliable overlay under a fault
    /// plan.
    pub comm: CommStats,
}

impl Cell {
    fn new(fingerprint: u64, stats: &RunStats) -> Self {
        Cell {
            fingerprint,
            time: stats.virtual_time(),
            work: stats.work,
            comm: stats.comm,
        }
    }

    /// Edges traversed.
    pub fn edges(&self) -> u64 {
        self.work.edges_traversed()
    }

    /// Dependency bytes sent.
    pub fn dep_bytes(&self) -> u64 {
        self.comm.bytes(CommKind::Dependency)
    }
}

/// A workload's figures as the paper's tables report them: the mean over
/// its runs (roots, seeds).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Measured {
    /// Mean modelled seconds.
    pub time: f64,
    /// Mean edges traversed.
    pub edges: u64,
    /// Mean update bytes.
    pub upd_bytes: u64,
    /// Mean dependency bytes.
    pub dep_bytes: u64,
}

/// The memo of measured cells, one per process in the CLI. Reports take
/// it by shared reference; it is single-threaded by construction.
#[derive(Default)]
pub struct Registry {
    cells: RefCell<HashMap<String, Cell>>,
    runs: std::cell::Cell<usize>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The cell of `workload` on dataset `graph` under `cfg`, measured on
    /// first use. The key is everything that can change the result: the
    /// workload, the dataset name and every field of the configuration.
    pub fn cell(&self, workload: Workload, graph: &str, cfg: &EngineConfig) -> Cell {
        let key = format!("{workload:?}/{graph}/{cfg:?}");
        if let Some(cell) = self.cells.borrow().get(&key) {
            return *cell;
        }
        self.runs.set(self.runs.get() + 1);
        let (out, stats) = run(workload, dataset(graph), cfg);
        let cell = Cell::new(out.fingerprint(), &stats);
        self.cells.borrow_mut().insert(key, cell);
        cell
    }

    /// How many times this registry has run the engine — once per
    /// distinct cell asked for.
    pub fn engine_runs(&self) -> usize {
        self.runs.get()
    }

    /// The mean of `runs` on `graph` under `cfg`. Integer counters divide
    /// per run, as the tables always have.
    pub(crate) fn measure(&self, runs: &[Workload], graph: &str, cfg: &EngineConfig) -> Measured {
        let reps = runs.len() as u64;
        let mut acc = Measured {
            time: 0.0,
            edges: 0,
            upd_bytes: 0,
            dep_bytes: 0,
        };
        for &workload in runs {
            let cell = self.cell(workload, graph, cfg);
            acc.time += cell.time / reps as f64;
            acc.edges += cell.edges() / reps;
            acc.upd_bytes += cell.comm.bytes(CommKind::Update) / reps;
            acc.dep_bytes += cell.dep_bytes() / reps;
        }
        acc
    }
}

impl Workload {
    /// The job this workload is on `g`: its roots picked, its constants
    /// filled in.
    pub(crate) fn job(self, g: &Graph) -> Job {
        match self {
            Workload::Bfs { root, direction } => Job::Bfs(bfs_roots(g, root + 1)[root], direction),
            Workload::Kcore(k) => Job::Kcore(k),
            Workload::Mis => Job::Mis(1),
            Workload::Kmeans => Job::Kmeans(1, KMEANS_ITERS),
            Workload::Sampling { seed } => Job::Sampling(seed),
            Workload::Sssp => Job::Sssp(bfs_roots(g, 1)[0], SSSP_SEED),
            Workload::Cc => Job::Cc,
            Workload::Pagerank => Job::Pagerank(PAGERANK_TOL, PAGERANK_ITERS),
            Workload::Udf { kernel, naive } => {
                let props = paper_props(g.num_vertices());
                let udf = UdfJob::new(kernel, udf_kernel(kernel), naive, props);
                Job::Udf(Box::new(udf))
            }
        }
    }
}

/// `workload`'s job on `g` and the configuration it runs under: `cfg`,
/// except that a UDF pull runs under the policy its analysis actually
/// requires ([`symple_udf::effective_policy`] of `cfg.policy`).
fn resolve(workload: Workload, g: &Graph, cfg: &EngineConfig) -> (Job, EngineConfig) {
    let (job, mut cfg) = (workload.job(g), cfg.clone());
    if let Job::Udf(udf) = &job {
        cfg.policy = symple_udf::effective_policy(&udf.inst.info, cfg.policy);
    }
    (job, cfg)
}

/// Runs `workload` on `g` under `cfg` once: the output and the raw stats.
pub(crate) fn run(workload: Workload, g: &Graph, cfg: &EngineConfig) -> (Output, RunStats) {
    let (job, cfg) = resolve(workload, g, cfg);
    job.run(g, &cfg)
}

/// The UDF kernels by name: the five paper UDFs plus `bounded`, a
/// k-sampling-style kernel whose only break is dead — the guard flag is
/// provably false, so the minimized analysis removes the dependency
/// entirely and `effective_policy` downgrades to Gemini.
///
/// # Panics
///
/// Panics on an unknown name.
fn udf_kernel(name: &str) -> UdfFn {
    use symple_udf::ast::{Expr, Stmt};
    use symple_udf::{paper_udfs, Ty};
    match name {
        "bfs" => paper_udfs::bfs_udf(),
        "mis" => paper_udfs::mis_udf(),
        "kcore" => paper_udfs::kcore_udf(4),
        "kmeans" => paper_udfs::kmeans_udf(),
        "sampling" => paper_udfs::sampling_udf(),
        "bounded" => UdfFn::new(
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
        ),
        other => panic!("unknown UDF kernel `{other}`"),
    }
}

/// `udf_kernel` instrumented by the naive or the minimized analysis.
pub(crate) fn udf_instrumented(kernel: &str, naive: bool) -> InstrumentedUdf {
    instrument(&udf_kernel(kernel), naive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use symple_core::Policy;
    use symple_net::{CostModel, COMM_KINDS};

    fn small(policy: Policy) -> EngineConfig {
        EngineConfig::new(2, policy).cost(CostModel::zero())
    }

    #[test]
    fn bfs_roots_are_valid_distinct_and_prefix_stable() {
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
        assert_eq!(bfs_roots(g, 1)[..], roots[..1]);
    }

    #[test]
    fn every_workload_runs_and_reconciles() {
        let reg = Registry::new();
        let c = small(Policy::symple());
        let all = [
            BFS,
            BFS_PULL_ROOTS[0],
            Workload::Kcore(4),
            Workload::Mis,
            Workload::Kmeans,
            SAMPLING_SEEDS[0],
            Workload::Sssp,
            Workload::Cc,
            Workload::Pagerank,
            Workload::Udf {
                kernel: "kcore",
                naive: false,
            },
            Workload::Udf {
                kernel: "bounded",
                naive: false,
            },
        ];
        let g = dataset("karate");
        for w in all {
            let cell = reg.cell(w, "karate", &c);
            assert!(cell.edges() > 0, "{w:?} traversed nothing");
            // The run is its job's: held to the job's reference, and the
            // cells of its trace sum to the ledger the cell keeps.
            let (job, cfg) = resolve(w, g, &c);
            let run = job.run(g, &cfg);
            job.check(g, &cfg, &run);
            assert_eq!(run.0.fingerprint(), cell.fingerprint, "{w:?}");
            let cells = run.1.trace.merged_cells();
            let sum = cells.values().fold(CommStats::default(), |a, x| a + x.comm);
            assert_eq!(sum, cell.comm, "{w:?}");
        }
        assert_eq!(reg.engine_runs(), all.len());
    }

    /// Every number a report can read off a cell, as bits.
    fn bits(c: &Cell) -> Vec<u64> {
        let mut out = vec![
            c.fingerprint,
            c.time.to_bits(),
            c.edges(),
            c.comm.total_messages(),
        ];
        out.extend(COMM_KINDS.iter().map(|&k| c.comm.bytes(k)));
        out.extend(c.comm.format_bytes());
        out
    }

    #[test]
    fn a_memoized_cell_is_a_fresh_measurement_and_costs_no_second_run() {
        let reg = Registry::new();
        let c = EngineConfig::new(4, Policy::symple());
        let w = Workload::Kcore(4);
        let first = reg.cell(w, "s27", &c);
        assert_eq!(reg.engine_runs(), 1);
        let again = reg.cell(w, "s27", &c);
        assert_eq!(reg.engine_runs(), 1, "the second read ran the engine");
        let (out, stats) = run(w, dataset("s27"), &c);
        let fresh = Cell::new(out.fingerprint(), &stats);
        assert_eq!(bits(&first), bits(&again));
        assert_eq!(bits(&first), bits(&fresh));
        assert_eq!(first, fresh);
        // Any field of the configuration is part of the key.
        reg.cell(w, "s27", &c.clone().threads(2));
        reg.cell(w, "karate", &c);
        assert_eq!(reg.engine_runs(), 3);
    }

    #[test]
    fn the_four_root_average_starts_at_the_single_root_cell() {
        // The matrix's BFS/SSSP cells and the tables' BFS average go
        // through the same dispatcher: the first of the four roots *is*
        // the single-root cell, and SSSP starts from that root too.
        let reg = Registry::new();
        let c = small(Policy::symple());
        let single = reg.cell(BFS, "s27", &c);
        let mean = reg.measure(&BFS_ROOTS, "s27", &c);
        assert_eq!(reg.engine_runs(), 4, "the single-root cell was re-run");
        let cells = BFS_ROOTS.map(|w| reg.cell(w, "s27", &c));
        assert_eq!(cells[0], single);
        assert_eq!(mean.edges, cells.iter().map(|x| x.edges() / 4).sum::<u64>());
        let fps: Vec<u64> = cells.iter().map(|x| x.fingerprint).collect();
        assert!(fps[1..].iter().all(|&f| f != fps[0]), "roots must differ");
        let one = reg.measure(&[BFS], "s27", &c);
        assert_eq!(one.time.to_bits(), single.time.to_bits());
        assert_eq!(one.edges, single.edges());

        let g = dataset("s27");
        let (_, from_root) = Job::Sssp(bfs_roots(g, 4)[0], SSSP_SEED).run(g, &c);
        let cell = reg.cell(Workload::Sssp, "s27", &c);
        assert_eq!(cell.edges(), from_root.work.edges_traversed());
    }
}
