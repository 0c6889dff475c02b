//! The job catalogue: what a job is, how it runs and what holds it to
//! its reference, for every harness (the registry's cells, the config
//! fuzzer's cases, the prepared-graph reuse test).
//!
//! A [`Job`] is a `symple_algos` kernel or a [`UdfJob`] with every
//! parameter resolved. [`Job::run`] is the one dispatcher into
//! `symple_algos` and `run_spmd`, and binds a UDF to
//! `EngineConfig::{udf_exec, dep_width}` in one place; [`Job::check`]
//! holds its [`Output`] to [`Output::validate`] or [`UdfJob::reference`].

use symple_algos::pagerank::{ALPHA, BASE, SCALE};
use symple_algos::{
    self as algos, BfsOutput, CcOutput, Direction, KcoreOutput, KmeansOutput, MisOutput,
    PagerankOutput, SamplingOutput, SsspOutput,
};
use symple_core::{
    reference_pull, run_spmd, DepWidth, EngineConfig, Policy, RunStats, UdfExec, WorkMetric,
    WorkStats,
};
use symple_graph::{fnv1a64, Bitmap, Graph, Vid};
use symple_udf::{paper_udfs, InstrumentedUdf, PropArray, PropertyStore, UdfFn, UdfProgram};

/// One engine job: an algorithm with its parameters resolved.
#[derive(Debug)]
pub enum Job {
    /// BFS: root, direction policy (the evaluation's is adaptive).
    Bfs(Vid, Direction),
    /// K-core at the given k.
    Kcore(u32),
    /// Maximal independent set under a priority seed.
    Mis(u64),
    /// Graph K-means: seed, outer iterations.
    Kmeans(u64, u32),
    /// Weighted neighbour sampling under one RNG seed.
    Sampling(u64),
    /// Delta-stepping SSSP: root, edge-weight seed (see
    /// `symple_algos::common::edge_weight`).
    Sssp(Vid, u64),
    /// Connected components by min-label propagation.
    Cc,
    /// Fixed-point PageRank: tolerance in millionths, iteration cap.
    Pagerank(u64, u32),
    /// PageRank with the checked `pagerank_udf` as its pull program:
    /// tolerance, iteration cap.
    RankUdf(u64, u32),
    /// An instrumented UDF pulled over the whole graph.
    Udf(Box<UdfJob>),
}

/// A checked, instrumented UDF bound to its property store.
#[derive(Debug)]
pub struct UdfJob {
    /// Kernel name.
    pub name: &'static str,
    /// The source program.
    pub udf: UdfFn,
    /// Its instrumentation.
    pub inst: InstrumentedUdf,
    /// The arrays it reads.
    pub props: PropertyStore,
    /// Dense activity restricted to a boolean property's value.
    pub active: Option<(&'static str, bool)>,
    /// Pulls per run, each on the dependency state the last left behind.
    pub pulls: usize,
}

/// What a job computed.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// BFS depths and parents.
    Bfs(BfsOutput),
    /// K-core membership.
    Kcore(KcoreOutput),
    /// MIS membership.
    Mis(MisOutput),
    /// K-means assignment.
    Kmeans(KmeansOutput),
    /// Sampled neighbours.
    Sampling(SamplingOutput),
    /// SSSP distances.
    Sssp(SsspOutput),
    /// Component labels.
    Cc(CcOutput),
    /// PageRank, native or UDF-driven.
    Pagerank(PagerankOutput),
    /// A pull job's updates: per machine, per vertex, in the order that
    /// machine applied them.
    Pulled(Vec<Vec<Vec<u64>>>),
}

/// A pull job under Definition 2.3: each vertex's updates in apply order
/// and the work counters of every pull.
#[derive(Debug)]
pub struct Reference {
    /// Per vertex, in apply order.
    updates: Vec<Vec<u64>>,
    /// Summed over the pulls.
    pub work: WorkStats,
}

impl Job {
    /// Runs the job on `g` under `cfg` once: its output and the raw stats.
    pub fn run(&self, g: &Graph, cfg: &EngineConfig) -> (Output, RunStats) {
        fn wrap<O>(into: fn(O) -> Output, (out, stats): (O, RunStats)) -> (Output, RunStats) {
            (into(out), stats)
        }
        match *self {
            Job::Bfs(root, dir) => wrap(Output::Bfs, algos::bfs_with_direction(g, cfg, root, dir)),
            Job::Kcore(k) => wrap(Output::Kcore, algos::kcore(g, cfg, k)),
            Job::Mis(seed) => wrap(Output::Mis, algos::mis(g, cfg, seed)),
            Job::Kmeans(seed, iters) => wrap(Output::Kmeans, algos::kmeans(g, cfg, seed, iters)),
            Job::Sampling(seed) => wrap(Output::Sampling, algos::sampling(g, cfg, seed)),
            Job::Sssp(root, seed) => wrap(Output::Sssp, algos::sssp(g, cfg, root, seed)),
            Job::Cc => wrap(Output::Cc, algos::cc(g, cfg)),
            Job::Pagerank(tol, iters) => {
                wrap(Output::Pagerank, algos::pagerank(g, cfg, tol, iters))
            }
            Job::RankUdf(tol, iters) => pagerank_by_udf(g, cfg, tol, iters),
            Job::Udf(ref udf) => udf.run(g, cfg),
        }
    }

    /// Holds `run`, a run of this job on `g` under `cfg`, to its
    /// reference: a kernel's output to [`Output::validate`], a pull job's
    /// updates and work counters to [`UdfJob::reference`].
    pub fn check(&self, g: &Graph, cfg: &EngineConfig, run: &(Output, RunStats)) {
        match self {
            Job::Udf(udf) => udf.reference(g, cfg).assert_matches(run),
            kernel => run.0.validate(g, kernel),
        }
    }
}

/// Binds `inst` to `props` under the executor and dependency width `cfg`
/// selects; panics if the typed VM was asked for and did not bind.
fn bind<'a>(
    inst: &'a InstrumentedUdf,
    props: &'a PropertyStore,
    active: Option<(&str, bool)>,
    cfg: &EngineConfig,
) -> UdfProgram<'a> {
    let mut prog = UdfProgram::new(inst, props).exec(cfg.udf_exec);
    if let Some((prop, value)) = active {
        prog = prog.active_when(prop, value);
    }
    let vm = cfg.udf_exec == UdfExec::Bytecode;
    assert_eq!(prog.uses_bytecode(), vm, "the typed VM did not bind");
    prog.dep_width(cfg.dep_width)
}

/// `udf` instrumented by the naive or the minimized analysis, which must
/// succeed.
pub fn instrument(udf: &UdfFn, naive: bool) -> InstrumentedUdf {
    let instrument = [symple_udf::instrument, symple_udf::instrument_naive][usize::from(naive)];
    instrument(udf).expect("instrumentation")
}

impl UdfJob {
    /// `udf` over `props`, [`instrument`]ed naive or minimized; one pull,
    /// every vertex active.
    pub fn new(name: &'static str, udf: UdfFn, naive: bool, props: PropertyStore) -> Self {
        UdfJob {
            name,
            inst: instrument(&udf, naive),
            udf,
            props,
            active: None,
            pulls: 1,
        }
    }

    fn run(&self, g: &Graph, cfg: &EngineConfig) -> (Output, RunStats) {
        let prog = bind(&self.inst, &self.props, self.active, cfg);
        let res = run_spmd(g, cfg, |w| {
            let mut dep = prog.make_dep(w.dep_slots_needed());
            let mut got = vec![Vec::new(); g.num_vertices()];
            for _ in 0..self.pulls {
                w.pull(&prog, &mut dep, &mut |v, x| {
                    got[v.index()].push(x);
                    false
                });
            }
            got
        });
        (Output::Pulled(res.outputs), res.stats)
    }

    /// The job's pulls under Definition 2.3 (`reference_pull`), on the
    /// tree interpreter.
    pub fn reference(&self, g: &Graph, cfg: &EngineConfig) -> Reference {
        let interp = cfg
            .clone()
            .udf_exec(UdfExec::Interp)
            .dep_width(DepWidth::Wide);
        let prog = bind(&self.inst, &self.props, self.active, &interp);
        let proto = prog.make_dep(1);
        let mut updates = vec![Vec::new(); g.num_vertices()];
        let mut work = WorkStats::default();
        for _ in 0..self.pulls {
            let pull = reference_pull(g, cfg, &prog, &proto);
            for (v, x) in pull.updates {
                updates[v.index()].push(x);
            }
            for metric in WorkMetric::ALL {
                work.add(metric, pull.work.get(metric));
            }
        }
        Reference { updates, work }
    }
}

impl Reference {
    /// Holds an engine run of the pull job to the reference: update for
    /// update at every vertex, and every work counter.
    pub fn assert_matches(&self, (out, stats): &(Output, RunStats)) {
        let Output::Pulled(machines) = out else {
            panic!("a kernel's output has no pull reference");
        };
        // Updates reach masters only: each list comes from one machine.
        let mut got = vec![Vec::new(); self.updates.len()];
        for machine in machines {
            for (all, mine) in got.iter_mut().zip(machine) {
                all.extend_from_slice(mine);
            }
        }
        if let Some(v) = (0..got.len()).find(|&v| got[v] != self.updates[v]) {
            let (got, want) = (&got[v], &self.updates[v]);
            panic!("vertex {v}: the engine applied {got:?}, Definition 2.3 {want:?}");
        }
        assert_eq!(stats.work, self.work, "work counters vs the reference");
    }
}

fn fp_u32s(values: impl IntoIterator<Item = u32>) -> u64 {
    let bytes: Vec<u8> = values.into_iter().flat_map(u32::to_le_bytes).collect();
    fnv1a64(&bytes)
}

fn fp_u64s(values: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = values.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a64(&bytes)
}

fn fp_members(set: &Bitmap) -> u64 {
    fp_u32s((0..set.len()).map(|i| u32::from(set.get(i))))
}

impl Output {
    /// FNV-1a-64 of what the output means, as a registry cell keeps it.
    pub fn fingerprint(&self) -> u64 {
        match self {
            // Depths only: the parent of a multi-parent vertex depends on
            // the scan order the policy chooses.
            Output::Bfs(o) => fp_u32s(o.depth.iter().copied()),
            Output::Kcore(o) => fp_members(&o.in_core),
            Output::Mis(o) => fp_members(&o.in_mis),
            Output::Kmeans(o) => fp_u32s(o.cluster.iter().copied()),
            Output::Sampling(o) => fp_u32s(o.selected.iter().copied()),
            Output::Sssp(o) => fp_u64s(o.dist.iter().copied()),
            Output::Cc(o) => fp_u32s(o.label.iter().copied()),
            Output::Pagerank(o) => {
                let mut bytes: Vec<u8> = o.rank.iter().flat_map(|r| r.to_le_bytes()).collect();
                bytes.extend_from_slice(&o.iterations.to_le_bytes());
                bytes.push(u8::from(o.converged));
                fnv1a64(&bytes)
            }
            // Each machine's (count, wrapping sum) per vertex.
            Output::Pulled(machines) => fp_u64s(machines.iter().flatten().flat_map(|updates| {
                let sum = updates.iter().fold(0u64, |a, &x| a.wrapping_add(x));
                [updates.len() as u64, sum]
            })),
        }
    }

    /// Holds a kernel's output on `g` to its sequential reference
    /// (`symple_algos::validate_*`). K-means has none; one Gemini machine
    /// stands in for it.
    pub fn validate(&self, g: &Graph, job: &Job) {
        match (self, job) {
            (Output::Bfs(o), &Job::Bfs(root, _)) => algos::validate_bfs(g, root, o),
            (Output::Kcore(o), &Job::Kcore(k)) => algos::validate_kcore(g, k, o),
            (Output::Mis(o), &Job::Mis(seed)) => algos::validate_mis(g, o, seed),
            (Output::Kmeans(o), &Job::Kmeans(seed, iters)) => {
                algos::validate_kmeans(g, o);
                // Which assigned neighbour a vertex joins follows the
                // processing order; centers and distance do not.
                let one = algos::kmeans(g, &EngineConfig::new(1, Policy::Gemini), seed, iters).0;
                let (got, want) = (
                    (&o.centers, o.total_distance),
                    (&one.centers, one.total_distance),
                );
                assert_eq!(got, want, "k-means vs one Gemini machine");
            }
            (Output::Sampling(o), Job::Sampling(_)) => algos::validate_sampling(g, o),
            (Output::Sssp(o), &Job::Sssp(root, seed)) => algos::validate_sssp(g, root, seed, o),
            (Output::Cc(o), Job::Cc) => algos::validate_cc(g, o),
            (Output::Pagerank(o), &(Job::Pagerank(tol, iters) | Job::RankUdf(tol, iters))) => {
                algos::validate_pagerank(g, tol, iters, o)
            }
            _ => panic!("not this kernel's output, or a pull job's (see `UdfJob::reference`)"),
        }
    }
}

/// PageRank with the checked `pagerank_udf` as its pull program: the
/// iteration of `symple_algos::pagerank`, its signal replaced by the UDF
/// over a per-iteration `contrib` property. The rank array is synced every
/// iteration, so each machine derives the dangling mass itself.
fn pagerank_by_udf(g: &Graph, cfg: &EngineConfig, tol: u64, iters: u32) -> (Output, RunStats) {
    let inst = symple_udf::instrument(&paper_udfs::pagerank_udf()).expect("instrumentation");
    let n = g.num_vertices();
    let mut res = run_spmd(g, cfg, |w| {
        let mut rank = vec![SCALE; n];
        let (mut iterations, mut converged) = (0, false);
        while iterations < iters && !converged {
            iterations += 1;
            let dangling: u64 = (g.vertices().filter(|&v| g.out_degree(v) == 0))
                .map(|v| rank[v.index()])
                .sum();
            let share = |v: Vid| rank[v.index()].checked_div(g.out_degree(v) as u64);
            let contrib = g.vertices().map(|v| share(v).unwrap_or(0) as i64).collect();
            let mut props = PropertyStore::new();
            props.insert("contrib", PropArray::Ints(contrib));
            let prog = bind(&inst, &props, None, cfg);
            let mut dep = prog.make_dep(w.dep_slots_needed());
            let mut sums = vec![0u64; n];
            w.pull(&prog, &mut dep, &mut |v, partial| {
                sums[v.index()] += partial;
                false
            });
            let mut residual = 0;
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
    (Output::Pagerank(res.outputs.swap_remove(0)), res.stats)
}

/// The properties the paper UDFs read, over `n` vertices, at
/// deterministic shapes (every fifth vertex in the frontier, so the BFS
/// UDF breaks often).
pub fn paper_props(n: usize) -> PropertyStore {
    let mut props = PropertyStore::new();
    let bools = |keep: fn(usize) -> bool| {
        let mut bits = Bitmap::new(n);
        for i in (0..n).filter(|&i| keep(i)) {
            bits.set(i);
        }
        PropArray::Bools(bits)
    };
    let ints = |f: fn(usize) -> i64| PropArray::Ints((0..n).map(f).collect());
    let floats = |f: fn(usize) -> f64| PropArray::Floats((0..n).map(f).collect());
    props.insert("frontier", bools(|i| i % 5 == 0));
    props.insert("active", bools(|i| i % 3 != 0));
    props.insert("assigned", bools(|i| i % 4 == 0));
    props.insert("reached", bools(|i| i % 2 == 0));
    props.insert("changed", bools(|i| i % 3 != 1));
    props.insert("color", ints(|i| (i * 7 % 31) as i64));
    props.insert("cluster", ints(|i| (i % 6) as i64));
    props.insert("dist", ints(|i| (i * 11 % 23) as i64));
    props.insert("w", ints(|i| 1 + (i % 8) as i64));
    props.insert("label", ints(|i| (i * 5 % 19) as i64));
    props.insert("contrib", ints(|i| (i % 11) as i64));
    props.insert("weight", floats(|i| (i % 9) as f64 * 0.25));
    props.insert("r", floats(|i| (i % 13) as f64));
    // Forty binary orders of magnitude: a sum's low bits show its order.
    props.insert(
        "mass",
        floats(|i| (1 + i % 7) as f64 * 2f64.powi((i * 13 % 40) as i32 - 20)),
    );
    props
}
