//! The seeded config fuzzer: Definition 2.3 against the engine under
//! random configurations (DESIGN.md §19).
//!
//! A case draws a graph, a job of the catalogue (`symple_bench::job`)
//! and a full `EngineConfig` (fault plan included). A **pull job** — a
//! random well-typed UDF from `gen.rs` or one of the eight paper UDFs —
//! runs two pulls over one dependency state; each vertex's updates, in
//! the order its master applied them, and all five work counters must
//! equal those of the job's `UdfJob::reference`. A UDF that panics in the
//! reference must panic in the engine, with the reference's message
//! inside the node's panic. A **kernel job** — a whole hand-written
//! algorithm, or PageRank driven by the checked `pagerank_udf` — must
//! pass `Output::validate`; a paper kernel under SympleGraph also runs
//! under Gemini, which must pass it too and traverse no fewer edges.
//! The case then flips one semantics-free [`Axis`] and asserts that
//! axis's invariance class (`Case::check_flip`). This file holds only how
//! cases are drawn and the classes. A failing case prints its edge list,
//! its pretty-printed UDF and both configurations.

#![allow(dead_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use symple_algos::Direction;
use symple_bench::job::{paper_props, Job, Output, UdfJob};
use symple_core::{
    Backend, DepWidth, EngineConfig, FaultPlan, Policy, RunStats, SpanCategory, TraceLevel,
    UdfExec, WireCodec, EXCHANGE_FRAME,
};
use symple_graph::{Graph, GraphBuilder, Rng64, Vid};
use symple_net::{CommKind, CommStats, CostModel, COMM_KINDS};
use symple_trace::NodeTrace;
use symple_udf::{check, paper_udfs, pretty, BinOp, Expr, PropertyStore, Stmt, Ty, UdfFn};
use JobKind::*;
use SpanCategory::{Compute, Serialize};

#[path = "../../crates/udf/tests/support/gen.rs"]
mod gen;

/// Pulls per pull job: the second runs on what the first left behind.
const PULLS: usize = 2;
const THREADS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
const LEVELS: [TraceLevel; 3] = [TraceLevel::Off, TraceLevel::Metrics, TraceLevel::Full];

/// A seeded stream of choices.
struct Draw(Rng64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0.gen_index(n)
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// One of `items` other than `current`.
    fn other<T: Copy + PartialEq>(&mut self, items: &[T], current: T) -> T {
        loop {
            let got = self.pick(items);
            if got != current {
                return got;
            }
        }
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn unit(&mut self) -> f64 {
        self.0.gen_f64()
    }
}

/// The one graph generator: up to 320 vertices and `4n` random edges,
/// now and then a hub half the vertices point at. A graph spans several
/// partitions only past 64 vertices (boundaries are word-aligned). One
/// graph in eight, and every graph of a large focus, has 8,000–16,000
/// vertices instead: on two or three machines, enough for an executor
/// pass of several chunks (`EXEC_CHUNK`) and an update message of several
/// frames (`EXCHANGE_FRAME`).
fn arb_graph(d: &mut Draw, large: bool, symmetric: bool) -> Graph {
    let n = match large || d.one_in(8) {
        true => 8000 + d.below(8001),
        false => 2 + d.below(319),
    };
    let mut b = GraphBuilder::new(n);
    for _ in 0..d.below(4 * n + 1) {
        b.add_edge(Vid::new(d.below(n) as u32), Vid::new(d.below(n) as u32));
    }
    if d.one_in(4) {
        let hub = Vid::new(d.below(n) as u32);
        for u in (0..n as u32).filter(|_| d.one_in(2)) {
            b.add_edge(Vid::new(u), hub);
        }
    }
    b.symmetrize(symmetric).dedup(true).drop_self_loops(true);
    b.build()
}

fn arb_plan(d: &mut Draw) -> FaultPlan {
    FaultPlan::new(d.u64())
        .drop_rate(0.2 + 0.15 * d.unit())
        .dup_rate(0.4 * d.unit())
        .delay_rate(0.4 * d.unit())
        .max_delay_steps(1 + d.below(4) as u32)
        .reorder_rate(0.4 * d.unit())
}

/// A full configuration. The destructuring lists every field, so a new
/// `EngineConfig` field does not compile until it is drawn here and, if
/// it is semantics-free, given an [`Axis`].
fn arb_config(d: &mut Draw) -> EngineConfig {
    let mut cfg = EngineConfig::new(1, Policy::Gemini);
    let EngineConfig {
        machines,
        policy,
        degree_threshold,
        partition_alpha,
        buffer_groups,
        cost,
        threads,
        trace_level,
        wire_codec,
        fault_plan,
        backend,
        udf_exec,
        dep_width,
    } = &mut cfg;
    // What `reference_pull` reads: the semantics of a run. The policy is
    // Gemini, Galois or one of the four SympleGraph variants.
    // Past five machines a 320-vertex graph leaves some partitions empty.
    *machines = 1 + d.below(8);
    *policy = match d.below(6) {
        0 => Policy::Gemini,
        1 => Policy::Galois,
        k => Policy::SympleGraph {
            differentiated: k % 2 == 1,
            double_buffering: k >= 4,
        },
    };
    *degree_threshold = d.pick(&[1, 2, 4, 8, 32]);
    *partition_alpha = d.pick(&[0.0, 1.0, 8.0]);
    // Semantics-free, one axis each.
    *buffer_groups = 1 + d.below(4); // Axis::BufferGroups
    *cost = CostModel::cluster_a().scale_fixed_costs(d.pick(&[1e-3, 1.0])); // Axis::Cost
    *threads = d.pick(&THREADS); // Axis::Threads
    *trace_level = d.pick(&LEVELS); // Axis::TraceLevel
    *wire_codec = d.pick(&[WireCodec::Flat, WireCodec::Adaptive]); // Axis::WireCodec
    *fault_plan = d.one_in(4).then(|| arb_plan(d)); // Axis::Faults
    *backend = d.pick(&[Backend::Sim, Backend::Thread]); // Axis::Backend
    *udf_exec = d.pick(&[UdfExec::Bytecode, UdfExec::Interp]); // Axis::UdfExec
    *dep_width = d.pick(&[DepWidth::Wide, DepWidth::Certified]); // Axis::DepWidth
    cfg
}

/// A semantics-free field of `EngineConfig` (double buffering: of its
/// policy). Its invariance class is its arm of `Case::check_flip`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Axis {
    Backend,
    UdfExec,
    TraceLevel,
    Threads,
    WireCodec,
    DepWidth,
    BufferGroups,
    DoubleBuffering,
    Faults,
    Cost,
}

impl Axis {
    pub const ALL: [Axis; 10] = [
        Axis::Backend,
        Axis::UdfExec,
        Axis::TraceLevel,
        Axis::Threads,
        Axis::WireCodec,
        Axis::DepWidth,
        Axis::BufferGroups,
        Axis::DoubleBuffering,
        Axis::Faults,
        Axis::Cost,
    ];

    /// Does flipping this axis reach any code under `cfg` and `job`?
    fn reaches(self, cfg: &EngineConfig, job: &Job) -> bool {
        match self {
            Axis::UdfExec | Axis::DepWidth => matches!(job, Job::Udf(_) | Job::RankUdf(..)),
            Axis::DoubleBuffering => cfg.policy.propagates_dependency(),
            Axis::BufferGroups => cfg.effective_groups() > 1,
            _ => true,
        }
    }

    /// `cfg` with this axis moved to another value.
    fn flip(self, cfg: &EngineConfig, d: &mut Draw) -> EngineConfig {
        let mut c = cfg.clone();
        match self {
            Axis::Backend => c.backend = d.other(&[Backend::Sim, Backend::Thread], c.backend),
            Axis::UdfExec => {
                c.udf_exec = d.other(&[UdfExec::Bytecode, UdfExec::Interp], c.udf_exec)
            }
            Axis::TraceLevel => c.trace_level = d.other(&LEVELS, c.trace_level),
            Axis::Threads => c.threads = d.other(&THREADS, c.threads),
            Axis::WireCodec => {
                c.wire_codec = d.other(&[WireCodec::Flat, WireCodec::Adaptive], c.wire_codec)
            }
            Axis::DepWidth => {
                c.dep_width = d.other(&[DepWidth::Wide, DepWidth::Certified], c.dep_width)
            }
            Axis::BufferGroups => c.buffer_groups = d.other(&[1, 2, 3, 4], c.buffer_groups),
            Axis::DoubleBuffering => {
                if let Policy::SympleGraph {
                    double_buffering, ..
                } = &mut c.policy
                {
                    *double_buffering = !*double_buffering;
                }
            }
            Axis::Faults => c.fault_plan = c.fault_plan.xor(Some(arb_plan(d))),
            Axis::Cost => c.cost = c.cost.scale_fixed_costs(d.pick(&[0.01, 0.1, 10.0])),
        }
        c
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JobKind {
    /// A random well-typed UDF from `gen.rs` (one in eight: one that
    /// always meets `inf - inf`).
    Generated,
    /// One of the eight paper UDFs.
    PaperUdf,
    /// K-core's or sampling's paper UDF: a certified dependency narrower
    /// than the wide one.
    NarrowUdf,
    /// A UDF without dependency that emits each segment's `f64` sum, whose
    /// low bits show the order its partials were added in.
    DenseUdf,
    Bfs,
    Kcore,
    Mis,
    Sampling,
    Kmeans,
    Sssp,
    Cc,
    Pagerank,
    /// PageRank with `pagerank_udf` as its pull program.
    RankUdf,
}

/// The paper's five evaluated kernels.
pub const PAPER_KERNELS: &[JobKind] = &[Bfs, Kcore, Mis, Sampling, Kmeans];
pub const KERNELS: &[JobKind] = &[
    Bfs, Kcore, Mis, Sampling, Kmeans, Sssp, Cc, Pagerank, RankUdf,
];
pub const ALL_JOBS: &[JobKind] = &[
    Generated, PaperUdf, Bfs, Kcore, Mis, Sampling, Kmeans, Sssp, Cc, Pagerank, RankUdf,
];

/// Which part of the case space a test draws from: the jobs, the axes a
/// case may flip (those that reach its code), fields every drawn
/// configuration pins, and whether every graph is a large one.
pub struct Focus {
    jobs: &'static [JobKind],
    axes: &'static [Axis],
    pin: fn(&mut EngineConfig),
    large: bool,
}

impl Focus {
    pub const fn new(jobs: &'static [JobKind], axes: &'static [Axis]) -> Self {
        Focus {
            jobs,
            axes,
            pin: |_| {},
            large: false,
        }
    }

    pub const fn pin(self, pin: fn(&mut EngineConfig)) -> Self {
        Focus { pin, ..self }
    }

    /// Draws every graph from the large class, on two or three machines
    /// with trace cells, and fails unless some run split a pass over two
    /// or more executor lanes and some run shipped an update message
    /// longer than an exchange frame.
    pub const fn large(self) -> Self {
        Focus {
            large: true,
            ..self
        }
    }
}

/// What the runs of a budget reached that only large graphs reach: a
/// pass on two or more executor lanes, and an update message longer
/// than one [`EXCHANGE_FRAME`] (the mean update message of a trace cell:
/// one iteration's step or group on one machine).
#[derive(Default)]
struct Reach {
    lanes: bool,
    frames: bool,
}

impl Reach {
    fn see(&mut self, r: &RunStats) {
        self.lanes |= r.trace.nodes.iter().any(|n| n.max_lanes() >= 2);
        let cells = r.trace.nodes.iter().flat_map(|n| n.cells.values());
        let mean = |c: &CommStats| c.bytes(CommKind::Update) / c.messages(CommKind::Update).max(1);
        self.frames |= cells
            .map(|c| mean(&c.comm))
            .any(|m| m > EXCHANGE_FRAME as u64);
    }
}

/// Declares one `#[test]` per `name: focus, cases;` line, each drawing a
/// fixed budget of cases from a seed fixed by its name.
macro_rules! fuzz_tests {
    ($($name:ident: $focus:expr, $cases:expr;)*) => {$(
        #[test]
        fn $name() {
            fuzz::run(&$focus, fuzz::seed(stringify!($name)), $cases);
        }
    )*};
}

/// The seed a named test draws from (FNV-1a of the name).
pub fn seed(name: &str) -> u64 {
    (name.bytes()).fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
    })
}

/// Runs `cases` cases of `focus`, drawn from `seed`; a failing case is
/// printed before its panic is resumed. Returns how many cases held
/// dependency bytes strictly below wide ones.
pub fn run(focus: &Focus, seed: u64, cases: u64) -> u64 {
    let mut narrowed = 0;
    let mut reach = Reach::default();
    for index in 0..cases {
        let case = Case::draw(focus, seed, index);
        let check = AssertUnwindSafe(|| case.check(&mut reach));
        let strict = catch_unwind(check).unwrap_or_else(|panic| {
            let g = &case.graph;
            let edges: Vec<_> = g.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
            let (kind, n) = (case.kind, g.num_vertices());
            eprintln!("config fuzz case {index} of seed {seed:#x}: {kind:?}");
            eprintln!("graph: {n} vertices, edges {edges:?}");
            if let Job::Udf(u) = &case.job {
                let (name, active, udf) = (u.name, u.active, pretty(&u.udf));
                eprintln!("UDF `{name}`, active {active:?}:\n{udf}");
            }
            eprintln!("config: {:?}\nflip: {:?}", case.cfg, case.flip);
            resume_unwind(panic)
        });
        narrowed += u64::from(strict);
    }
    if focus.large {
        assert!(reach.lanes, "no large case ran a pass on two or more lanes");
        assert!(
            reach.frames,
            "no large case shipped a multi-frame update message"
        );
    }
    narrowed
}

/// A pull job: `udf`, checked against `props`, two pulls.
fn udf_job(name: &'static str, udf: UdfFn, props: PropertyStore, d: &mut Draw) -> Job {
    check(&udf, &props.schema()).expect("a drawn UDF must pass the checker");
    let naive = d.one_in(4);
    let bools: Vec<&'static str> = ["flag", "live", "frontier", "active", "assigned"]
        .into_iter()
        .filter(|p| props.get(p).is_some())
        .collect();
    let active = d.one_in(2).then(|| (d.pick(&bools), d.one_in(2)));
    let mut job = UdfJob::new(name, udf, naive, props);
    (job.active, job.pulls) = (active, PULLS);
    Job::Udf(Box::new(job))
}

fn draw_job(kind: JobKind, d: &mut Draw, n: usize) -> Job {
    let root = Vid::new(d.below(n) as u32);
    match kind {
        // Generated programs meet `inf - inf` rarely; this one always
        // does, so every budget exercises the panic check.
        Generated if d.one_in(8) => udf_job("nan", nan_udf(), gen::store_for(n), d),
        Generated => {
            let choices: Vec<u32> = (0..d.below(160)).map(|_| d.u64() as u32).collect();
            let update_ty = d.pick(&[Ty::Bool, Ty::Int, Ty::Float, Ty::Vertex]);
            let udf = gen::Gen::new(&choices, update_ty).udf();
            udf_job("gen", udf, gen::store_for(n), d)
        }
        PaperUdf => paper_udf(d.below(8), d, n),
        NarrowUdf => paper_udf(d.pick(&[2, 4]), d, n),
        DenseUdf => udf_job("fsum", float_sum_udf(), paper_props(n), d),
        Bfs => Job::Bfs(root, Direction::Adaptive),
        Kcore => Job::Kcore(1 + d.below(6) as u32),
        Mis => Job::Mis(d.u64()),
        Sampling => Job::Sampling(d.u64()),
        Kmeans => Job::Kmeans(d.u64(), 1 + d.below(3) as u32),
        Sssp => Job::Sssp(root, d.u64()),
        Cc => Job::Cc,
        Pagerank => Job::Pagerank(d.pick(&[0, 100, 10_000]), 1 + d.below(20) as u32),
        RankUdf => Job::RankUdf(d.pick(&[0, 100, 10_000]), 1 + d.below(20) as u32),
    }
}

/// Paper UDF `which` of eight (the last, PageRank's, has no dependency).
fn paper_udf(which: usize, d: &mut Draw, n: usize) -> Job {
    let (name, udf) = match which {
        0 => ("bfs", paper_udfs::bfs_udf()),
        1 => ("mis", paper_udfs::mis_udf()),
        2 => ("kcore", paper_udfs::kcore_udf(1 + d.below(6) as i64)),
        3 => ("kmeans", paper_udfs::kmeans_udf()),
        4 => ("sampling", paper_udfs::sampling_udf()),
        5 => ("sssp", paper_udfs::sssp_udf()),
        6 => ("cc", paper_udfs::cc_udf()),
        _ => ("pagerank", paper_udfs::pagerank_udf()),
    };
    udf_job(name, udf, paper_props(n), d)
}

/// `acc += mass[u]` over the segment, then one emit: no break, nothing
/// carried.
fn float_sum_udf() -> UdfFn {
    let sum = Expr::local("acc").add(Expr::prop_u("mass"));
    let acc = Stmt::let_("acc", Ty::Float, Expr::f(0.0));
    let body = vec![Stmt::for_neighbors(vec![Stmt::assign("acc", sum)])];
    let emit = Stmt::Emit(Expr::local("acc"));
    UdfFn::new("fsum", Ty::Float, [vec![acc], body, vec![emit]].concat())
}

/// `acc = (acc + inf) - inf` is NaN from a vertex's first edge on, and
/// the comparison after it panics in either executor.
fn nan_udf() -> UdfFn {
    let inf = || Expr::f(f64::INFINITY);
    let nan = Expr::local("acc").add(inf()).bin(BinOp::Sub, inf());
    let test = Expr::local("acc").ge(Expr::prop_v("wt"));
    let body = vec![
        Stmt::assign("acc", nan),
        Stmt::if_(test, vec![Stmt::Emit(Expr::CurrentNeighbor), Stmt::Break]),
    ];
    let acc = Stmt::let_("acc", Ty::Float, Expr::f(0.0));
    UdfFn::new("nan", Ty::Vertex, vec![acc, Stmt::for_neighbors(body)])
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
    payload
        .downcast_ref::<String>()
        .cloned()
        .or(text)
        .unwrap_or_default()
}

/// One drawn case.
struct Case {
    kind: JobKind,
    graph: Graph,
    job: Job,
    cfg: EngineConfig,
    flip: Option<(Axis, EngineConfig)>,
}

impl Case {
    fn draw(focus: &Focus, seed: u64, index: u64) -> Self {
        let stream = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut d = Draw(Rng64::seed_from_u64(stream));
        let kind = d.pick(focus.jobs);
        // The kernels but PageRank assume symmetric graphs; a pull job
        // takes either.
        let directed = [Pagerank, RankUdf].contains(&kind);
        let symmetric = (KERNELS.contains(&kind) && !directed) || d.one_in(2);
        let graph = arb_graph(&mut d, focus.large, symmetric);
        let job = draw_job(kind, &mut d, graph.num_vertices());
        let mut cfg = arb_config(&mut d);
        if focus.large {
            // Two or three machines, so a partition outgrows one chunk, and
            // trace cells, which show lanes and message sizes.
            cfg.machines = 2 + cfg.machines % 2;
            if cfg.trace_level == TraceLevel::Off {
                cfg.trace_level = TraceLevel::Metrics;
            }
        }
        (focus.pin)(&mut cfg);
        let axes: Vec<Axis> = (focus.axes.iter().copied())
            .filter(|a| a.reaches(&cfg, &job))
            .collect();
        let flip = (!axes.is_empty()).then(|| {
            let axis = d.pick(&axes);
            (axis, axis.flip(&cfg, &mut d))
        });
        Case {
            kind,
            graph,
            job,
            cfg,
            flip,
        }
    }

    /// Holds the case to its reference and its flip to the axis's class,
    /// noting what its runs reached; returns whether dependency bytes
    /// narrowed strictly.
    fn check(&self, reach: &mut Reach) -> bool {
        let g = &self.graph;
        let (base, skipped) = match &self.job {
            Job::Udf(u) => {
                let reference = catch_unwind(AssertUnwindSafe(|| u.reference(g, &self.cfg)));
                let reference = match reference {
                    Ok(reference) => reference,
                    Err(panic) => {
                        self.check_panics_like(&panic_message(panic));
                        return false;
                    }
                };
                let base = self.job.run(g, &self.cfg);
                reference.assert_matches(&base);
                (base, reference.work.skipped_by_dep())
            }
            kernel => {
                let base = kernel.run(g, &self.cfg);
                kernel.check(g, &self.cfg, &base);
                if PAPER_KERNELS.contains(&self.kind) && self.cfg.policy.propagates_dependency() {
                    let mut gemini = self.cfg.clone();
                    gemini.policy = Policy::Gemini;
                    let run = kernel.run(g, &gemini);
                    kernel.check(g, &gemini, &run);
                    let symple = base.1.work.edges_traversed();
                    let gemini = run.1.work.edges_traversed();
                    assert!(
                        symple <= gemini,
                        "SympleGraph {symple} edges, Gemini {gemini}"
                    );
                }
                (base, 0)
            }
        };
        reach.see(&base.1);
        self.check_flip(&base, skipped, reach)
    }

    /// The reference panicked with `msg`: the engine must panic too, and at
    /// one thread per machine (an executor thread's panic is re-raised
    /// without its message) with `msg` inside the node's panic.
    fn check_panics_like(&self, msg: &str) {
        let single = EngineConfig {
            threads: 1,
            ..self.cfg.clone()
        };
        for cfg in [&self.cfg, &single] {
            let got = catch_unwind(AssertUnwindSafe(|| self.job.run(&self.graph, cfg)));
            let got = got
                .err()
                .map(panic_message)
                .unwrap_or_else(|| panic!("the reference panicked ({msg}), the engine did not"));
            assert!(
                cfg.threads > 1 || got.contains(msg),
                "engine: {got:?}, reference: {msg:?}"
            );
        }
    }

    /// The invariance class of each axis: what a run under the flipped
    /// configuration shares with `a`, the run under the case's own.
    /// `skipped` is the reference's skipped-segment count. Returns whether
    /// the flip held dependency bytes strictly below wide ones.
    fn check_flip(&self, (out, a): &(Output, RunStats), skipped: u64, reach: &mut Reach) -> bool {
        let Some((axis, flipped)) = &self.flip else {
            return false;
        };
        let (flipped_out, b) = self.job.run(&self.graph, flipped);
        reach.see(&b);
        let axis = *axis;
        assert_eq!(out, &flipped_out, "{axis:?}: outputs");
        assert_eq!(a.work, b.work, "{axis:?}: work counters");
        let (ca, cb) = (&a.comm, &b.comm);
        let messages = |c: &CommStats| COMM_KINDS.map(|kind| c.messages(kind));
        let mut narrowed = false;
        match axis {
            // Exact: CommStats, virtual time and its breakdown (when both
            // runs record one); across backends the chrome trace too.
            Axis::Backend | Axis::UdfExec | Axis::TraceLevel => {
                assert_eq!(ca, cb, "{axis:?}: CommStats");
                let time = (a.virtual_time(), b.virtual_time());
                assert_eq!(time.0, time.1, "{axis:?}: virtual time");
                if ![self.cfg.trace_level, flipped.trace_level].contains(&TraceLevel::Off) {
                    for cat in SpanCategory::ALL {
                        let (ta, tb) = (a.time.category(cat), b.time.category(cat));
                        assert_eq!(ta, tb, "{axis:?}: {cat:?} time");
                    }
                }
                if axis == Axis::Backend {
                    let chrome = (a.trace.to_chrome_json(), b.trace.to_chrome_json());
                    assert_eq!(chrome.0, chrome.1, "backend: chrome trace");
                }
            }
            Axis::Threads | Axis::Cost => assert_eq!(ca, cb, "{axis:?}: CommStats"),
            // Message counts; collectives do not go through the codec.
            Axis::WireCodec => {
                assert_eq!(messages(ca), messages(cb), "codec: message counts");
                let sync = |c: &CommStats| c.bytes(CommKind::Sync);
                assert_eq!(sync(ca), sync(cb), "codec: sync bytes");
                // Adaptive takes the smallest format per message, flat among
                // them, and pays at most a one-byte format tag for it.
                let (flat, adaptive) = match self.cfg.wire_codec {
                    WireCodec::Flat => (ca, cb),
                    WireCodec::Adaptive => (cb, ca),
                };
                for kind in [CommKind::Update, CommKind::Dependency] {
                    let (got, cap) = (adaptive.bytes(kind), flat.bytes(kind) + flat.messages(kind));
                    assert!(
                        got <= cap,
                        "codec: adaptive {kind:?} bytes {got} above {cap}"
                    );
                }
            }
            Axis::DepWidth => {
                assert_eq!(messages(ca), messages(cb), "dep width: message counts");
                for kind in [CommKind::Update, CommKind::Sync] {
                    assert_eq!(ca.bytes(kind), cb.bytes(kind), "dep width: {kind:?} bytes");
                }
                let dep = |c: &CommStats| c.bytes(CommKind::Dependency);
                let (wide, cert) = match self.cfg.dep_width {
                    DepWidth::Wide => (dep(ca), dep(cb)),
                    DepWidth::Certified => (dep(cb), dep(ca)),
                };
                assert!(
                    cert <= wide,
                    "certified dependency bytes {cert} above wide {wide}"
                );
                // Under the flat codec, K-core's counter narrows to a byte
                // whenever it travels, and sampling's latch elides a float
                // payload whenever a slot that broke travels on, which a
                // skip downstream shows. (The adaptive codec may ship a
                // range of default slots as a bitmap alone, at any width.)
                let flat = self.cfg.wire_codec == WireCodec::Flat;
                let strict = flat
                    && match &self.job {
                        Job::Udf(u) if u.name == "kcore" => wide > 0,
                        Job::Udf(u) if u.name == "sampling" => skipped > 0,
                        _ => false,
                    };
                assert!(!strict || cert < wide, "dep width: {cert} not below {wide}");
                narrowed = strict;
            }
            Axis::BufferGroups | Axis::DoubleBuffering => {}
            // Logical traffic and the cell structure are the clean run's;
            // the faults fire; a replay reproduces the faulted run.
            Axis::Faults => {
                let ((clean, faulted), plan) = match self.cfg.fault_plan {
                    Some(_) => ((&b, a), &self.cfg),
                    None => ((a, &b), flipped),
                };
                let rel = faulted.comm.reliable();
                assert_eq!(
                    logical(&clean.comm),
                    logical(&faulted.comm),
                    "faults: logical"
                );
                assert_cells_eq(clean, faulted);
                assert!(
                    !clean.comm.reliable().any(),
                    "faults: the clean run saw faults"
                );
                assert_eq!(
                    rel.timeouts, rel.retransmits,
                    "faults: a timeout per resend"
                );
                let later = faulted.virtual_time() >= clean.virtual_time();
                assert!(later, "faults: the faulted run finished first");
                let quiet = faulted.comm.total_messages() < 40;
                assert!(quiet || rel.retransmits > 0, "faults: none fired");
                let (replay_out, replay) = self.job.run(&self.graph, plan);
                assert_eq!(&replay_out, out, "faults: replayed output");
                assert_eq!(replay.comm, faulted.comm, "faults: replayed CommStats");
                let time = (replay.virtual_time(), faulted.virtual_time());
                assert_eq!(time.0, time.1, "faults: replayed virtual time");
            }
        }
        narrowed
    }
}

/// `CommStats` without the reliable overlay: bytes and messages per kind
/// and the wire-format histogram.
fn logical(c: &CommStats) -> Vec<u64> {
    let per_kind = COMM_KINDS.iter().flat_map(|&k| [c.bytes(k), c.messages(k)]);
    per_kind.chain(c.format_bytes()).collect()
}

/// Identical (machine, iteration, step, group) cells carrying identical
/// bytes and messages, the same executor lanes, and compute and
/// serialize time equal to the last ulps (durations are differences of
/// shifted clock readings).
fn assert_cells_eq(a: &RunStats, b: &RunStats) {
    assert_eq!(a.trace.nodes.len(), b.trace.nodes.len(), "faults: machines");
    let cpu = |n: &NodeTrace| [n.time(Compute), n.time(Serialize), n.compute_cpu()];
    for (na, nb) in a.trace.nodes.iter().zip(&b.trace.nodes) {
        let m = na.machine;
        assert_eq!(na.max_lanes(), nb.max_lanes(), "faults: m{m} lanes");
        for (x, y) in cpu(na).into_iter().zip(cpu(nb)) {
            let close = (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1e-12);
            assert!(close, "faults: m{m} time {x} vs {y}");
        }
        assert!(na.cells.keys().eq(nb.cells.keys()), "faults: m{m} cells");
        for ((key, ca), cb) in na.cells.iter().zip(nb.cells.values()) {
            assert_eq!(
                logical(&ca.comm),
                logical(&cb.comm),
                "faults: m{m} cell {key:?}"
            );
        }
    }
}
