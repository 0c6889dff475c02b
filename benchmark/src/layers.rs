//! The traced run: every per-layer metric of one workload.
//!
//! A layer is a crate. Each is measured from outside, by timing its
//! public calls and reading the public `RunStats` of jobs; the harness
//! records a span around every call it makes into a layer. One process,
//! one round, in which the workload's own untraced job (the base of every
//! ratio here), the same job under `TraceLevel::Full` and one variant each
//! for the Gemini policy, the adaptive codec, 1 x 1, the other two-thread
//! shape and the tree interpreter take turns, job by job; then the probes.

use crate::measure::{warm_up, Batch, Metric, Oracle};
use crate::spans::Recorder;
use crate::stats::{median, ratio};
use crate::workload::{
    check_cores, compile_sampling_udf, engine_config, nproc, sampling_props, Kind, Prepared,
    Workload,
};
use std::hint::black_box;
use std::time::Instant;
use symple_core::{
    run_spmd, Backend, DepLayout, DepWidth, EngineConfig, LocalGraph, Partition, Policy,
    PullProgram, SpanCategory, TraceLevel, UdfExec, WireCodec,
};
use symple_graph::{read_binary, write_binary, Graph};
use symple_net::{
    decode_dep_range, decode_updates, encode_dep_range, encode_updates, Cluster, CommKind, Tag,
    TagKind,
};
use symple_udf::UdfProgram;

/// Timed jobs per variant in the full traced run.
pub const JOBS_PER_VARIANT: usize = 20;

/// Sizing of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct TracedParams {
    pub scale: u32,
    pub seed: u64,
    /// Timed jobs per variant.
    pub jobs: usize,
    /// Single-thread oracle runs.
    pub reference_runs: usize,
    /// Repetitions of each transport and codec probe.
    pub probe_reps: usize,
}

impl TracedParams {
    pub fn full(scale: u32, seed: u64) -> Self {
        TracedParams {
            scale,
            seed,
            jobs: JOBS_PER_VARIANT,
            reference_runs: 10,
            probe_reps: 8,
        }
    }
}

/// What the traced run measured.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

/// Frame size of the stream probe: the engine's default `exchange_chunk`.
const STREAM_FRAME: usize = 16 * 1024;
/// Payload of the stream probe.
const STREAM_BYTES: usize = 8 << 20;
/// Records (or slots) in each codec probe.
const CODEC_RECORDS: usize = 1 << 18;
/// Payload bytes per update record in the codec probes (a `u64` rank).
const CODEC_PSIZE: usize = 8;

/// One configuration of the job in the interleaved round.
struct Variant {
    /// Name of the span wrapped around each of its jobs.
    name: &'static str,
    cfg: EngineConfig,
    jobs: usize,
    batch: Batch,
}

impl Variant {
    fn new(name: &'static str, cfg: EngineConfig, jobs: usize) -> Self {
        Variant {
            name,
            cfg,
            jobs,
            batch: Batch::default(),
        }
    }
}

/// Runs the variants' jobs round-robin: job `j` of every variant, then one
/// empty job (a `run_spmd` whose closure is one allreduce, under the first
/// variant's configuration), before job `j + 1` of any. Job times fall by
/// up to half over a process's first hundred jobs (the allocator settles),
/// so batches run one after another would compare a young process with an
/// old one. Returns the empty jobs' milliseconds.
fn run_interleaved(prep: &Prepared, variants: &mut [Variant], rec: &mut Recorder) -> Vec<f64> {
    // The native kernels are order-invariant, so one oracle serves every
    // configuration; the UDF job needs one per configuration.
    let per_config = prep.output_depends_on_config();
    let mut oracles: Vec<Oracle> = (0..if per_config { variants.len() } else { 1 })
        .map(|_| Oracle::new(prep))
        .collect();
    let oracle_of = |i: usize| if per_config { i } else { 0 };
    for (i, v) in variants.iter().enumerate() {
        oracles[oracle_of(i)].prepare(prep, &v.cfg, rec);
    }
    for v in variants.iter() {
        warm_up(prep, &v.cfg, 2.min(v.jobs));
    }
    let mut job_id = 0;
    let mut empty_ms = Vec::new();
    let turns = rec.enter("round.jobs", None);
    for j in 0..variants.iter().map(|v| v.jobs).max().unwrap_or(0) {
        for (i, v) in variants.iter_mut().enumerate().filter(|(_, v)| j < v.jobs) {
            let span = rec.enter(v.name, None);
            v.batch
                .run_next(prep, &v.cfg, &oracles[oracle_of(i)], rec, job_id);
            rec.exit(span);
            job_id += 1;
        }
        let (_, ms) = rec.time("core.empty_job", || {
            black_box(run_spmd(&prep.graph, &variants[0].cfg, |w| {
                w.allreduce(1u64, |a, b| a + b)
            }));
        });
        empty_ms.push(ms);
    }
    rec.exit(turns);
    empty_ms
}

/// Transport probes on a bare two-node thread-backend cluster:
/// `(pingpong_us, barrier_us, allgather_us, stream_mb_s)`.
fn transport_probes(allgather_bytes: usize, reps: usize) -> Result<[f64; 4], String> {
    let cluster = Cluster::builder(2)
        .backend(Backend::Thread)
        .trace_level(TraceLevel::Off)
        .build()
        .map_err(|e| format!("building the probe cluster: {e}"))?;
    let small = reps * 50;
    let res = cluster.run(|ctx| {
        let rank = ctx.rank();
        let peer = 1 - rank;
        let per_us = |start: Instant, n: usize| start.elapsed().as_secs_f64() * 1e6 / n as f64;

        ctx.barrier();
        let start = Instant::now();
        for i in 0..small as u64 {
            let (ping, pong) = (Tag::new(TagKind::User, i, 0), Tag::new(TagKind::User, i, 1));
            if rank == 0 {
                ctx.send(peer, ping, CommKind::Sync, vec![0; 8]);
                black_box(ctx.recv(peer, pong));
            } else {
                black_box(ctx.recv(peer, ping));
                ctx.send(peer, pong, CommKind::Sync, vec![0; 8]);
            }
        }
        let pingpong_us = per_us(start, small);

        let start = Instant::now();
        for _ in 0..small {
            ctx.barrier();
        }
        let barrier_us = per_us(start, small);

        let start = Instant::now();
        for _ in 0..reps {
            black_box(ctx.allgather_bytes(vec![0xA5; allgather_bytes], CommKind::Sync));
        }
        let allgather_us = per_us(start, reps);

        let payload = vec![7u8; STREAM_BYTES];
        let mut assembled = Vec::with_capacity(STREAM_BYTES);
        ctx.barrier();
        let start = Instant::now();
        for i in 0..reps as u64 {
            let (data, ack) = (Tag::new(TagKind::User, i, 2), Tag::new(TagKind::User, i, 3));
            if rank == 0 {
                ctx.send_framed(peer, data, CommKind::Update, &payload, STREAM_FRAME);
                black_box(ctx.recv(peer, ack));
            } else {
                assembled.clear();
                ctx.recv_framed_into(peer, data, STREAM_FRAME, &mut assembled);
                assert_eq!(assembled.len(), STREAM_BYTES, "stream probe lost bytes");
                ctx.send(peer, ack, CommKind::Sync, vec![1]);
            }
        }
        let stream_mb_s = (reps * STREAM_BYTES) as f64 / 1e6 / start.elapsed().as_secs_f64();
        [pingpong_us, barrier_us, allgather_us, stream_mb_s]
    });
    Ok(res.outputs[0])
}

/// `(encode, decode)` throughput in MB/s of flat bytes for an update
/// stream whose keys are `stride` apart.
fn update_codec_probe(stride: u32, reps: usize) -> (f64, f64) {
    let mut flat = Vec::with_capacity(CODEC_RECORDS * (4 + CODEC_PSIZE));
    for i in 0..CODEC_RECORDS as u32 {
        flat.extend_from_slice(&(i * stride).to_le_bytes());
        flat.extend_from_slice(&(u64::from(i) * 0x9e37_79b9).to_le_bytes());
    }
    let mb = (reps * flat.len()) as f64 / 1e6;
    let mut wire = Vec::new();
    let start = Instant::now();
    for _ in 0..reps {
        wire.clear();
        black_box(encode_updates(black_box(&flat), CODEC_PSIZE, &mut wire));
    }
    let encode = mb / start.elapsed().as_secs_f64();
    let mut back = Vec::with_capacity(flat.len());
    let start = Instant::now();
    for _ in 0..reps {
        back.clear();
        decode_updates(black_box(&wire), CODEC_PSIZE, &mut back);
    }
    let decode = mb / start.elapsed().as_secs_f64();
    assert_eq!(back, flat, "update codec probe did not round-trip");
    (encode, decode)
}

/// `(encode, decode)` throughput in MB/s of flat bytes for a dependency
/// range with one-byte slots, every third slot set.
fn dep_codec_probe(reps: usize) -> (f64, f64) {
    let n = CODEC_RECORDS;
    let slots: Vec<u32> = (0..n as u32).step_by(3).collect();
    let flat: Vec<u8> = (0..n).map(|i| u8::from(i % 3 == 0)).collect();
    let mb = (reps * n) as f64 / 1e6;
    let mut wire = Vec::new();
    let start = Instant::now();
    for _ in 0..reps {
        wire.clear();
        black_box(encode_dep_range(
            n,
            1,
            black_box(&slots),
            n,
            &mut |out| out.extend_from_slice(&flat),
            &mut |_, out| out.push(1),
            &mut wire,
        ));
    }
    let encode = mb / start.elapsed().as_secs_f64();
    // The packed formats arrive slot by slot, the flat one as one body.
    let mut state = vec![0u8; n];
    let mut flat_body = Vec::new();
    let start = Instant::now();
    for _ in 0..reps {
        decode_dep_range(
            n,
            1,
            black_box(&wire),
            &mut |body| flat_body = body.to_vec(),
            &mut || (),
            &mut |slot, payload| state[slot as usize] = payload[0],
        );
    }
    let decode = mb / start.elapsed().as_secs_f64();
    let decoded = if flat_body.is_empty() {
        state
    } else {
        flat_body
    };
    assert_eq!(decoded, flat, "dependency codec probe did not round-trip");
    (encode, decode)
}

/// UDF front-end and dispatch probes:
/// `(compile_us, vm_ns_per_edge, interp_ns_per_edge)`. Dispatch is
/// `PullProgram::signal` of the sampling UDF over the graph's in-neighbour
/// lists, on one thread, without the engine.
fn udf_probes(graph: &Graph, seed: u64, rec: &mut Recorder) -> Result<[f64; 3], String> {
    let (inst, compile_ms) = rec.time("udf.compile", compile_sampling_udf);
    let inst = inst?;
    let props = sampling_props(graph, seed, 1).remove(0);
    let mut per_edge = [0.0; 2];
    let mut sums = [0u64; 2];
    for (i, exec) in [UdfExec::Bytecode, UdfExec::Interp].into_iter().enumerate() {
        let prog = UdfProgram::new(&inst, &props).exec(exec);
        let mut dep = prog.make_dep(1);
        let mut edges = 0u64;
        let mut emit = |bits: u64| sums[i] = sums[i].wrapping_add(bits | 1);
        let start = Instant::now();
        for v in graph.vertices() {
            edges += prog
                .signal(v, graph.in_neighbors(v), &mut dep, 0, false, &mut emit)
                .edges;
        }
        per_edge[i] = ratio(start.elapsed().as_secs_f64() * 1e9, edges as f64);
    }
    if sums[0] != sums[1] {
        return Err("the bytecode VM and the interpreter emitted different updates".to_string());
    }
    Ok([compile_ms * 1e3, per_edge[0], per_edge[1]])
}

/// Runs the traced round of `workload` and returns every per-layer
/// metric, in the order of [`crate::report::PER_LAYER`].
pub fn run_traced(
    workload: &'static Workload,
    p: TracedParams,
    rec: &mut Recorder,
) -> Result<Traced, String> {
    check_cores(workload.machines, workload.threads, nproc())?;
    let round = rec.enter("round", None);
    let prep = Prepared::new(workload, p.scale, p.seed, 0, rec)?;
    let graph = &prep.graph;
    let base = prep.config();
    let edges = graph.num_edges() as f64;
    let is_udf = matches!(workload.kind, Kind::SamplingUdf { .. });
    let mut m: Vec<Metric> = Vec::new();
    let mut push =
        |name: &str, value: f64, unit: &'static str| m.push(Metric::new(name, value, unit));

    // --- graph -------------------------------------------------------
    let mut image = Vec::new();
    write_binary(graph, &mut image).map_err(|e| format!("writing the graph image: {e}"))?;
    let (loaded, load_ms) = rec.time("graph.load", || read_binary(&image[..]));
    let loaded = loaded.map_err(|e| format!("reading the graph image back: {e}"))?;
    if loaded.num_edges() != graph.num_edges() {
        return Err("the graph image did not round-trip".to_string());
    }
    drop((image, loaded));
    push("graph.generate_ms", prep.generate_ms, "ms");
    push("graph.load_ms", load_ms, "ms");
    push("graph.vertices", graph.num_vertices() as f64, "count");
    push("graph.edges", edges, "count");

    // --- core set-up, piece by piece ---------------------------------
    let (part, partition_ms) = rec.time("core.partition", || {
        Partition::chunked(graph, base.machines, base.partition_alpha)
    });
    let (layout, dep_layout_ms) = rec.time("core.dep_layout", || {
        DepLayout::high_degree(graph, &part, base.degree_threshold)
    });
    let local_graph_ms = (0..base.machines)
        .map(|rank| {
            rec.time("core.local_graph", || {
                black_box(LocalGraph::build(graph, &part, &layout, rank));
            })
            .1
        })
        .fold(0.0, f64::max);

    // --- the job, its traced twin, and its variants ------------------
    let mut gemini_cfg = base.clone();
    gemini_cfg.policy = Policy::Gemini;
    // Both two-thread shapes on every workload: one is its own.
    let other_shape = if base.machines == 2 {
        Variant::new("batch.1x2", engine_config(1, 2), p.jobs)
    } else {
        Variant::new("batch.2x1", engine_config(2, 1), p.jobs)
    };
    let mut variants = vec![
        Variant::new("batch.untraced", base.clone(), p.jobs),
        Variant::new(
            "batch.traced",
            base.clone().trace_level(TraceLevel::Full),
            p.jobs,
        ),
        Variant::new("batch.gemini", gemini_cfg, p.jobs),
        Variant::new(
            "batch.adaptive",
            base.clone().wire_codec(WireCodec::Adaptive),
            p.jobs,
        ),
        Variant::new("batch.1x1", engine_config(1, 1), p.jobs),
        other_shape,
    ];
    if is_udf {
        variants.push(Variant::new(
            "batch.interp",
            base.clone().udf_exec(UdfExec::Interp),
            p.jobs,
        ));
        // Dependency bytes are exact: one job tells them.
        variants.push(Variant::new(
            "batch.wide",
            base.clone().dep_width(DepWidth::Wide),
            1,
        ));
    }
    let empty_ms = run_interleaved(&prep, &mut variants, rec);
    let batch = |name: &str| variants.iter().find(|v| v.name == name).map(|v| &v.batch);
    let named = |name: &str| batch(name).expect("variant was run");
    let (untraced, traced, gemini, adaptive, serial) = (
        named("batch.untraced"),
        named("batch.traced"),
        named("batch.gemini"),
        named("batch.adaptive"),
        named("batch.1x1"),
    );
    let two_machines = batch("batch.2x1").unwrap_or(untraced).p50_ms();
    let two_threads = batch("batch.1x2").unwrap_or(untraced).p50_ms();
    let interp_p50 = batch("batch.interp").map_or(0.0, Batch::p50_ms);
    let wide_dep_bytes = batch("batch.wide").map_or(0.0, |b| b.mean(|c| c.dep_bytes as f64));
    let attempted = variants.iter().map(|v| v.batch.samples.len() as u64).sum();
    let failed = variants.iter().map(|v| v.batch.failed()).sum();

    let p50 = untraced.p50_ms();
    let job_s: f64 = untraced.walls_ms().iter().sum::<f64>() / 1e3;
    let traversed = untraced.mean(|c| c.traversed as f64);
    let virtual_ms = untraced.mean(|c| c.virtual_s) * 1e3;
    let empty_p50 = median(&empty_ms);

    push("core.partition_ms", partition_ms, "ms");
    push("core.dep_layout_ms", dep_layout_ms, "ms");
    push("core.local_graph_ms", local_graph_ms, "ms");
    push("core.empty_job_ms", empty_p50, "ms");
    push("core.setup_share", ratio(empty_p50, p50), "share");
    push(
        "core.vertices_examined",
        untraced.mean(|c| c.vertices_examined as f64),
        "count",
    );
    push(
        "core.skipped_by_dep",
        untraced.mean(|c| c.skipped_by_dep as f64),
        "count",
    );
    push(
        "core.updates_emitted",
        untraced.mean(|c| c.updates_emitted as f64),
        "count",
    );
    push(
        "core.updates_applied",
        untraced.mean(|c| c.updates_applied as f64),
        "count",
    );
    push(
        "core.pull_iterations",
        untraced.mean(|c| c.pull_iterations as f64),
        "count",
    );
    push(
        "core.push_iterations",
        untraced.mean(|c| c.push_iterations as f64),
        "count",
    );
    push(
        "core.traversed_vs_gemini",
        ratio(traversed, gemini.mean(|c| c.traversed as f64)),
        "ratio",
    );
    push(
        "core.traversed_medges_per_s",
        ratio(traversed * untraced.samples.len() as f64 / 1e6, job_s),
        "Medges/s",
    );
    push("core.wall_vs_gemini", ratio(p50, gemini.p50_ms()), "ratio");
    push(
        "core.machine_speedup",
        ratio(serial.p50_ms(), two_machines),
        "ratio",
    );
    push(
        "core.thread_speedup",
        ratio(serial.p50_ms(), two_threads),
        "ratio",
    );

    // --- net: traffic of the job, then the bare transport and codecs -
    let wire_bytes = untraced.mean(|c| c.wire_bytes() as f64);
    push("net.wire_bytes_per_job", wire_bytes, "bytes");
    push(
        "net.update_bytes",
        untraced.mean(|c| c.update_bytes as f64),
        "bytes",
    );
    push(
        "net.dep_bytes",
        untraced.mean(|c| c.dep_bytes as f64),
        "bytes",
    );
    push(
        "net.sync_bytes",
        untraced.mean(|c| c.sync_bytes as f64),
        "bytes",
    );
    push(
        "net.messages",
        untraced.mean(|c| c.messages as f64),
        "count",
    );
    push(
        "net.retransmits",
        untraced.mean(|c| c.retransmits as f64),
        "count",
    );
    push(
        "net.adaptive_vs_flat_bytes",
        ratio(adaptive.mean(|c| c.wire_bytes() as f64), wire_bytes),
        "ratio",
    );
    push(
        "net.adaptive_vs_flat_wall",
        ratio(adaptive.p50_ms(), p50),
        "ratio",
    );
    push(
        "net.comm_wall_share",
        untraced.mean(|c| c.comm_wall_share),
        "share",
    );
    let [pingpong_us, barrier_us, allgather_us, stream_mb_s] =
        transport_probes(graph.num_vertices().div_ceil(8), p.probe_reps)?;
    push("net.pingpong_us", pingpong_us, "us");
    push("net.barrier_us", barrier_us, "us");
    push("net.allgather_us", allgather_us, "us");
    push("net.stream_mb_s", stream_mb_s, "MB/s");
    let (enc, dec) = update_codec_probe(1, p.probe_reps);
    push("net.encode_updates_dense_mb_s", enc, "MB/s");
    push("net.decode_updates_dense_mb_s", dec, "MB/s");
    let (enc, dec) = update_codec_probe(97, p.probe_reps);
    push("net.encode_updates_sparse_mb_s", enc, "MB/s");
    push("net.decode_updates_sparse_mb_s", dec, "MB/s");
    let (enc, dec) = dep_codec_probe(p.probe_reps);
    push("net.encode_dep_mb_s", enc, "MB/s");
    push("net.decode_dep_mb_s", dec, "MB/s");

    // --- udf ----------------------------------------------------------
    let [compile_us, vm_ns, interp_ns] = udf_probes(graph, p.seed, rec)?;
    push("udf.compile_us", compile_us, "us");
    push("udf.vm_ns_per_edge", vm_ns, "ns");
    push("udf.interp_ns_per_edge", interp_ns, "ns");
    // Two engine threads share the edges, so half of them block the job.
    let dispatch_share = if is_udf {
        ratio(vm_ns * traversed / 2.0 / 1e6, p50)
    } else {
        0.0
    };
    push("udf.dispatch_share", dispatch_share, "share");
    push(
        "udf.interp_vs_bytecode_wall",
        ratio(interp_p50, p50),
        "ratio",
    );
    push(
        "udf.bytecode_fallbacks",
        prep.bytecode_fallbacks() as f64,
        "count",
    );
    push(
        "udf.certified_vs_wide_dep_bytes",
        ratio(untraced.mean(|c| c.dep_bytes as f64), wide_dep_bytes),
        "ratio",
    );

    // --- algos: the single-thread reference (COST) --------------------
    let reference_ms: Vec<f64> = (0..p.reference_runs)
        .map(|i| {
            rec.time("algos.reference", || prep.run_reference(i % prep.cycle()))
                .1
        })
        .collect();
    let reference_p50 = median(&reference_ms);
    push("algos.reference_ms_p50", reference_p50, "ms");
    push(
        "algos.speedup_over_reference",
        ratio(reference_p50, p50),
        "ratio",
    );
    push(
        "algos.iterations_per_job",
        untraced.mean(|c| (c.pull_iterations + c.push_iterations) as f64),
        "count",
    );
    push("algos.validate_ms", median(&untraced.validate_ms), "ms");

    // --- trace: what tracing costs and what the model says ------------
    push("trace.overhead_ratio", ratio(traced.p50_ms(), p50), "ratio");
    let stats = traced
        .last_stats
        .as_ref()
        .ok_or("no traced job returned, so there is no trace to read")?;
    let spans: usize = stats.trace.nodes.iter().map(|n| n.spans.len()).sum();
    push("trace.spans_per_job", spans as f64, "count");
    let accounted = stats.time.accounted();
    for (name, cat) in [
        ("compute", SpanCategory::Compute),
        ("serialize", SpanCategory::Serialize),
        ("send", SpanCategory::Send),
        ("dep_wait", SpanCategory::DepWait),
        ("barrier", SpanCategory::Barrier),
        ("collective", SpanCategory::Collective),
        ("apply", SpanCategory::Apply),
        ("exchange", SpanCategory::Exchange),
    ] {
        push(
            &format!("trace.virtual_share.{name}"),
            ratio(stats.time.category(cat), accounted),
            "share",
        );
    }
    push("trace.model_vs_wall", ratio(virtual_ms, p50), "ratio");
    let (json, export_ms) = rec.time("trace.export", || stats.trace.to_chrome_json());
    black_box(json);
    push("trace.export_ms", export_ms, "ms");

    rec.exit(round);
    Ok(Traced {
        metrics: m,
        attempted,
        failed,
    })
}
