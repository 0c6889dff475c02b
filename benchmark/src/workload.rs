//! The five workloads: what a job is on each, its inputs, and its oracle.
//!
//! A *job* is one call into a distributed entry point of the system
//! (`symple_algos::{bfs, kcore, pagerank}`, or `symple_core::run_spmd`
//! with a `UdfProgram`), from call to return: cluster spawn, per-machine
//! `Worker::new`, every iteration, and teardown.

use crate::spans::Recorder;
use std::collections::HashSet;
use symple_algos::common::{hash3, sampling_threshold, total_in_weights, vertex_weight};
use symple_algos::{
    bfs, bfs_reference, kcore, kcore_reference, pagerank, pagerank_reference, sampling_reference,
    BfsOutput, KcoreOutput, PagerankOutput,
};
use symple_core::{
    run_spmd, Backend, DepWidth, EngineConfig, Policy, RunStats, TraceLevel, UdfExec,
};
use symple_graph::{Graph, RmatConfig, Vid};
use symple_udf::{
    check, compile, instrument, paper_udfs, parse_udf, pretty, InstrumentedUdf, PropArray,
    PropertyStore, UdfProgram,
};

/// Distinct BFS roots a round cycles through; round `r` takes roots
/// `48r..48r+47` of the seeded stream, so five rounds cover 240 roots: the
/// mean traversed edges over fewer roots differs too much between seeds.
pub const ROOTS_PER_ROUND: usize = 48;

/// The hash stream BFS roots are drawn from.
const ROOT_STREAM: u64 = 0xB0075;

/// What the job computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Direction-optimizing BFS from one root of the round's stream.
    Bfs,
    /// `kcore(k)`.
    Kcore { k: u32 },
    /// `pagerank(tol = 0, max_iters = iters)`: exactly `iters` iterations.
    Pagerank { iters: u32 },
    /// The checked `paper_udfs::sampling_udf()` on the bytecode VM, for
    /// `passes` pull passes (one fresh threshold draw each) inside one
    /// `run_spmd`.
    SamplingUdf { passes: u32 },
}

/// One benchmark workload. Every graph is R-MAT with Graph500 parameters,
/// symmetrized and cleaned; every job runs on exactly two engine threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    /// One line for BENCHMARK.json and the README: why it is here.
    pub why: &'static str,
    pub scale: u32,
    pub edge_factor: u32,
    pub machines: usize,
    pub threads: usize,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "bfs-roots",
        why: "short jobs that touch ~4% of the edges: per-job set-up, small collectives and the push/pull switch dominate; control dependency",
        scale: 18,
        edge_factor: 16,
        machines: 2,
        threads: 1,
        kind: Kind::Bfs,
    },
    Workload {
        name: "kcore-peel",
        why: "the paper's flagship: circulant steps, counter-carried dependency messages and dependency wait do the work",
        scale: 17,
        edge_factor: 32,
        machines: 2,
        threads: 1,
        kind: Kind::Kcore { k: 88 },
    },
    Workload {
        name: "pagerank-dense",
        why: "every edge every iteration, no break: signal, encode, exchange, decode and blocked apply dominate; the dependency layer is idle",
        scale: 17,
        edge_factor: 16,
        machines: 2,
        threads: 1,
        kind: Kind::Pagerank { iters: 10 },
    },
    Workload {
        name: "sampling-udf",
        why: "the only workload where symple-udf (VM dispatch, float prefix-sum carried state) does the work; the other four bypass it",
        scale: 17,
        edge_factor: 32,
        machines: 2,
        threads: 1,
        kind: Kind::SamplingUdf { passes: 1 },
    },
    Workload {
        name: "pagerank-threads",
        why: "the pagerank-dense job on 1 machine x 2 threads: all parallelism through scoped spawns, zero wire bytes; bypasses symple-net",
        scale: 17,
        edge_factor: 16,
        machines: 1,
        threads: 2,
        kind: Kind::Pagerank { iters: 10 },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (have: {})", names.join(", "))
    })
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Refuses a shape that oversubscribes the host: with more engine threads
/// than cores a wall-clock time measures the scheduler, not the engine.
pub fn check_cores(machines: usize, threads: usize, nproc: usize) -> Result<(), String> {
    if machines * threads > nproc {
        return Err(format!(
            "refusing to time {machines} machines x {threads} threads on {nproc} cores"
        ));
    }
    Ok(())
}

/// The configuration every workload's jobs run under: thread backend,
/// tracing off, default knobs otherwise.
pub fn engine_config(machines: usize, threads: usize) -> EngineConfig {
    EngineConfig::new(machines, Policy::symple())
        .threads(threads)
        .backend(Backend::Thread)
        .trace_level(TraceLevel::Off)
}

/// What a job returned.
pub enum Output {
    Bfs(BfsOutput),
    Kcore(KcoreOutput),
    Pagerank(PagerankOutput),
    /// Per machine, per vertex: update count and wrapping sum of the
    /// update bits.
    Udf(Vec<Vec<u64>>),
}

/// FNV-1a over 64-bit words.
fn fingerprint_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl Output {
    /// The part of the output every correct engine configuration must
    /// reproduce bit for bit (BFS parents legitimately differ; depths do
    /// not), folded to one word.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Output::Bfs(o) => fingerprint_words(o.depth.iter().map(|&d| u64::from(d))),
            Output::Kcore(o) => fingerprint_words(o.in_core.words().iter().copied()),
            Output::Pagerank(o) => fingerprint_words(
                o.rank
                    .iter()
                    .copied()
                    .chain([u64::from(o.iterations), u64::from(o.converged)]),
            ),
            Output::Udf(machines) => fingerprint_words(machines.iter().flatten().copied()),
        }
    }
}

/// The checked, instrumented sampling UDF and one property store per pass.
struct UdfInputs {
    inst: InstrumentedUdf,
    props: Vec<PropertyStore>,
}

/// Takes the sampling UDF through the whole front end: pretty-print,
/// parse, check, instrument, compile.
pub fn compile_sampling_udf() -> Result<InstrumentedUdf, String> {
    let source = pretty(&paper_udfs::sampling_udf());
    let udf = parse_udf(&source).map_err(|e| format!("parsing the sampling UDF: {e:?}"))?;
    let schema = [
        ("weight".to_string(), symple_udf::Ty::Float),
        ("r".to_string(), symple_udf::Ty::Float),
    ]
    .into();
    check(&udf, &schema).map_err(|e| format!("checking the sampling UDF: {e}"))?;
    let inst = instrument(&udf).map_err(|e| format!("instrumenting the sampling UDF: {e}"))?;
    compile(&inst).map_err(|e| format!("compiling the sampling UDF: {e:?}"))?;
    Ok(inst)
}

/// Sampling properties: seeded vertex weights, and per pass a threshold
/// drawn uniformly below each vertex's total in-weight.
pub fn sampling_props(graph: &Graph, seed: u64, passes: u32) -> Vec<PropertyStore> {
    let weights: Vec<f64> = graph
        .vertices()
        .map(|v| f64::from(vertex_weight(seed, v)))
        .collect();
    let totals = total_in_weights(graph, seed);
    (0..u64::from(passes))
        .map(|pass| {
            let r = graph
                .vertices()
                .map(|v| f64::from(sampling_threshold(seed + pass, v, totals[v.index()])))
                .collect();
            let mut props = PropertyStore::new();
            props.insert("weight", PropArray::Floats(weights.clone()));
            props.insert("r", PropArray::Floats(r));
            props
        })
        .collect()
}

/// The first `count` distinct non-isolated vertices of the seeded stream
/// after skipping `skip` of them.
fn root_stream(graph: &Graph, seed: u64, skip: usize, count: usize) -> Result<Vec<Vid>, String> {
    let n = graph.num_vertices() as u64;
    let mut seen = HashSet::new();
    let mut roots = Vec::new();
    for i in 0..64 * n {
        let v = Vid::new((hash3(seed, ROOT_STREAM, i) % n) as u32);
        if graph.out_degree(v) > 0 && seen.insert(v.raw()) {
            roots.push(v);
            if roots.len() == skip + count {
                return Ok(roots.split_off(skip));
            }
        }
    }
    Err(format!(
        "graph has fewer than {} non-isolated vertices to draw BFS roots from",
        skip + count
    ))
}

/// A workload's generated inputs for one round. The program under test
/// receives only these; the seed stays in the harness.
pub struct Prepared {
    pub workload: &'static Workload,
    pub graph: Graph,
    pub seed: u64,
    /// BFS only: the round's roots, one per job of a cycle.
    roots: Vec<Vid>,
    udf: Option<UdfInputs>,
    /// Milliseconds `RmatConfig::generate` took.
    pub generate_ms: f64,
}

impl Prepared {
    /// Generates the round's inputs from `seed`: the R-MAT graph at
    /// `scale`, the round's BFS roots, the compiled UDF and its
    /// properties.
    pub fn new(
        workload: &'static Workload,
        scale: u32,
        seed: u64,
        round: usize,
        rec: &mut Recorder,
    ) -> Result<Self, String> {
        let rmat = RmatConfig::graph500(scale, workload.edge_factor)
            .seed(seed)
            .cleaned(true);
        let (graph, generate_ms) = rec.time("graph.generate", || rmat.generate());
        let roots = match workload.kind {
            Kind::Bfs => root_stream(&graph, seed, round * ROOTS_PER_ROUND, ROOTS_PER_ROUND)?,
            _ => Vec::new(),
        };
        let udf = match workload.kind {
            Kind::SamplingUdf { passes } => {
                let (inst, _) = rec.time("udf.compile", compile_sampling_udf);
                Some(UdfInputs {
                    inst: inst?,
                    props: sampling_props(&graph, seed, passes),
                })
            }
            _ => None,
        };
        Ok(Prepared {
            workload,
            graph,
            seed,
            roots,
            udf,
            generate_ms,
        })
    }

    /// Distinct jobs in a cycle: job `j` of a round is job `j % cycle()`.
    pub fn cycle(&self) -> usize {
        self.roots.len().max(1)
    }

    /// Whether a correct output differs between policies and machine
    /// counts: the sampling UDF's float prefix sum restarts wherever the
    /// dependency is not carried, the native kernels are order-invariant.
    pub fn output_depends_on_config(&self) -> bool {
        self.udf.is_some()
    }

    /// The workload's own engine configuration.
    pub fn config(&self) -> EngineConfig {
        engine_config(self.workload.machines, self.workload.threads)
    }

    /// Runs job `idx` of the cycle under `cfg`. This call is the timed
    /// section.
    pub fn run_job(&self, idx: usize, cfg: &EngineConfig) -> (Output, RunStats) {
        match self.workload.kind {
            Kind::Bfs => {
                let (out, stats) = bfs(&self.graph, cfg, self.roots[idx]);
                (Output::Bfs(out), stats)
            }
            Kind::Kcore { k } => {
                let (out, stats) = kcore(&self.graph, cfg, k);
                (Output::Kcore(out), stats)
            }
            Kind::Pagerank { iters } => {
                let (out, stats) = pagerank(&self.graph, cfg, 0, iters);
                (Output::Pagerank(out), stats)
            }
            Kind::SamplingUdf { .. } => self.run_udf_job(cfg),
        }
    }

    fn run_udf_job(&self, cfg: &EngineConfig) -> (Output, RunStats) {
        let udf = self.udf.as_ref().expect("UDF workload has UDF inputs");
        let n = self.graph.num_vertices();
        let res = run_spmd(&self.graph, cfg, |w| {
            let mut acc = vec![0u64; 2 * n];
            for props in &udf.props {
                let prog = UdfProgram::new(&udf.inst, props)
                    .exec(cfg.udf_exec)
                    .dep_width(cfg.dep_width);
                let mut dep = prog.make_dep(w.dep_slots_needed());
                w.pull(&prog, &mut dep, &mut |v: Vid, bits: u64| {
                    acc[2 * v.index()] += 1;
                    acc[2 * v.index() + 1] = acc[2 * v.index() + 1].wrapping_add(bits);
                    false
                });
            }
            acc
        });
        (Output::Udf(res.outputs), res.stats)
    }

    /// Whether a bytecode request would silently run on the interpreter.
    pub fn bytecode_fallbacks(&self) -> u64 {
        self.udf.as_ref().map_or(0, |udf| {
            udf.props
                .iter()
                .filter(|props| !UdfProgram::new(&udf.inst, props).uses_bytecode())
                .count() as u64
        })
    }

    /// The single-thread reference output for job `idx`, where the repo
    /// has a bit-exact one.
    fn reference_output(&self, idx: usize) -> Option<Output> {
        match self.workload.kind {
            Kind::Bfs => Some(Output::Bfs(bfs_reference(&self.graph, self.roots[idx]).0)),
            Kind::Kcore { k } => Some(Output::Kcore(KcoreOutput {
                in_core: kcore_reference(&self.graph, k).0,
                rounds: 0,
            })),
            Kind::Pagerank { iters } => Some(Output::Pagerank(
                pagerank_reference(&self.graph, 0, iters).0,
            )),
            Kind::SamplingUdf { .. } => None,
        }
    }

    /// The fingerprint job `idx` must produce: the single-thread oracle's,
    /// or for the UDF job the same job on the tree interpreter with wide
    /// dependency slots, the differential reference the repo proves
    /// bit-identical.
    pub fn oracle(&self, idx: usize, cfg: &EngineConfig) -> u64 {
        match self.reference_output(idx) {
            Some(out) => out.fingerprint(),
            None => {
                let differential = cfg
                    .clone()
                    .udf_exec(UdfExec::Interp)
                    .dep_width(DepWidth::Wide);
                self.run_job(idx, &differential).0.fingerprint()
            }
        }
    }

    /// One single-thread run of the job's problem, for the COST view. The
    /// UDF job has no bit-exact single-thread form, so it runs the native
    /// weighted-sampling reference once per pass.
    pub fn run_reference(&self, idx: usize) {
        if let Kind::SamplingUdf { passes } = self.workload.kind {
            for pass in 0..u64::from(passes) {
                std::hint::black_box(sampling_reference(&self.graph, self.seed + pass));
            }
            return;
        }
        let out = self
            .reference_output(idx)
            .expect("every native job has a single-thread oracle");
        std::hint::black_box(out.fingerprint());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversubscribed_shapes_are_refused() {
        assert!(check_cores(2, 1, 2).is_ok());
        assert!(check_cores(1, 2, 2).is_ok());
        let err = check_cores(2, 2, 2).unwrap_err();
        assert!(err.contains("2 machines x 2 threads on 2 cores"), "{err}");
        assert!(check_cores(1, 2, 1).is_err());
    }

    #[test]
    fn every_workload_uses_exactly_two_engine_threads() {
        for w in &WORKLOADS {
            assert_eq!(w.machines * w.threads, 2, "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(find("kcore-peel").is_ok());
        assert!(find("nope").unwrap_err().contains("bfs-roots"));
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_rounds_take_distinct_roots() {
        let w = find("bfs-roots").unwrap();
        let mut rec = Recorder::new(false);
        let a = Prepared::new(w, 10, 5, 0, &mut rec).unwrap();
        let b = Prepared::new(w, 10, 5, 0, &mut rec).unwrap();
        let next = Prepared::new(w, 10, 5, 1, &mut rec).unwrap();
        let other = Prepared::new(w, 10, 6, 0, &mut rec).unwrap();
        assert_eq!(a.roots, b.roots);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        assert_eq!(a.cycle(), ROOTS_PER_ROUND);
        assert!(a.roots.iter().all(|r| !next.roots.contains(r)));
        assert_ne!(a.roots, other.roots);
        assert!(a.roots.iter().all(|&r| a.graph.out_degree(r) > 0));
    }

    #[test]
    fn the_sampling_udf_survives_the_whole_front_end() {
        let inst = compile_sampling_udf().unwrap();
        assert!(!inst.info.carried.is_empty());
    }

    #[test]
    fn jobs_match_their_oracles_on_a_small_graph() {
        let mut rec = Recorder::new(false);
        for w in &WORKLOADS {
            let prep = Prepared::new(w, 9, 3, 0, &mut rec).unwrap();
            let cfg = prep.config();
            let (out, stats) = prep.run_job(0, &cfg);
            assert_eq!(out.fingerprint(), prep.oracle(0, &cfg), "{}", w.name);
            assert!(stats.work.edges_traversed() > 0, "{}", w.name);
            assert_eq!(prep.bytecode_fallbacks(), 0, "{}", w.name);
            prep.run_reference(0);
        }
    }
}
