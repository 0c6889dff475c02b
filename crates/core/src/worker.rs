//! The per-machine engine handle (SPMD, like a Gemini process).
//!
//! Algorithms run the same closure on every machine; the [`Worker`] gives
//! them pull/push edge processing, frontier synchronisation, and
//! convergence collectives. One [`Worker::pull`] call executes one dense
//! iteration in three phases — *scatter* (walk this machine's bucket for
//! each circulant step's destination partition), *exchange* (ship the
//! step's updates to that partition's master) and *gather* (apply every
//! source's updates at the masters, in circulant order). The scatter is
//! chosen by the configured [`crate::Policy`] and the program together:
//!
//! * **SympleGraph**, for a program that
//!   [carries a dependency](crate::PullProgram::carries_dependency) —
//!   dependency receive → process → send per step (or per
//!   double-buffering group), low-degree fallback under differentiated
//!   propagation;
//! * **SympleGraph** for a dependency-free program, and **Gemini** — the
//!   dense scatter: same bucket walk, no dependency messages; breaks, if
//!   any, apply only within the machine-local segment;
//! * **Galois** — Gemini compute plus a Gluon-style broadcast phase
//!   (masters push applied updates back to all peers) and a BSP barrier.
//!
//! # Collectives
//!
//! Two families, both collective (every machine must participate):
//!
//! * **Reductions** — [`Worker::allreduce`] combines one value per machine
//!   with a caller-supplied operator; every machine gets the result.
//! * **Owner-wins sync** — [`Worker::sync_bitmap`],
//!   [`Worker::sync_values`], and [`Worker::sync_changed`] reconcile a
//!   replicated per-vertex array by letting each vertex's *owner* (master)
//!   overwrite everyone else's copy. They differ only in payload shape:
//!   packed bit-words, a dense slice, or sparse `(vid, value)` deltas.
//!
//! A peer payload that does not decode — short, long, corrupt, or naming a
//! vertex outside its sender's or receiver's master range — fails the run
//! at one site ([`NodeCtx::decoded`], [`symple_net::Cause::Corrupt`]),
//! naming the sender and the message's tag.

use crate::circulant::{dst_partition, processing_order};
use crate::par::{self, PassOutput};
use crate::{
    DepState, EngineConfig, LocalGraph, Partition, Policy, PreparedGraph, PullProgram, PushProgram,
    WorkMetric, WorkStats,
};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};
use symple_graph::{Bitmap, Graph, Vid};
use symple_net::{
    CodecError, CodecStats, CommKind, NodeCtx, Reader, SpanCategory, Tag, TagKind, Wire, WireFormat,
};

/// One update source of a gather phase, listed in consumption order: the
/// machine that produced it (this machine included) and the step at which
/// it did, which names the stream's tag ([`Worker::update_tag`]) and the
/// trace scope its apply time is attributed to.
#[derive(Clone, Copy)]
struct Source {
    rank: usize,
    step: usize,
}

/// Bytes per modelled frame of the exchange: an update or dependency
/// message is one envelope whose departure is staggered frame by frame at
/// this size, and the receiver replays each frame's arrival as it
/// consumes the message. A payload smaller than this is a single frame.
/// Outputs, `WorkStats` and `CommStats` do not depend on it; only the
/// stall schedule does.
pub const EXCHANGE_FRAME: usize = 16 * 1024;

/// Splits `records` apply records into [`crate::EXEC_CHUNK`]-record cost lanes,
/// so a sharded charge of a frame's share gets the same lane treatment as
/// a whole source of equal size.
fn chunked_costs(records: u64) -> Vec<(u64, u64)> {
    let chunks = par::chunk_ranges(0..records as usize).into_iter();
    chunks.map(|r| (0, r.len() as u64)).collect()
}

/// Hands each `(vid, value)` record of a peer's stream to `sink`: whole
/// records only, every vertex in `masters` (the range the sender meant).
fn read_records<T: Wire>(
    flat: &[u8],
    (lo, hi): (Vid, Vid),
    mut sink: impl FnMut(Vid, T),
) -> Result<(), CodecError> {
    let (lo, hi) = (u64::from(lo.raw()), u64::from(hi.raw()));
    for record in Reader::new(flat).records(4 + T::SIZE)? {
        let mut r = Reader::new(record);
        let v = CodecError::in_range(u32::read(&mut r)?.into(), lo, hi)?;
        sink(Vid::new(v as u32), T::read(&mut r)?);
    }
    Ok(())
}

/// Per-machine engine handle. Created by [`crate::run_spmd`] on each
/// simulated machine.
pub struct Worker<'a> {
    ctx: &'a mut NodeCtx,
    graph: &'a Graph,
    cfg: &'a EngineConfig,
    /// The partition and dependency layout, shared with the job's other
    /// machines and with every other job on this graph and layout.
    prepared: Arc<PreparedGraph>,
    /// This rank's buckets out of `prepared`.
    local: Arc<LocalGraph>,
    /// Wall time the constructor took (fetching or building the above).
    setup_wall: Duration,
    stats: WorkStats,
    iter_seq: u64,
    /// Spent byte buffers (encode scratch, and the buffers received
    /// streams are assembled into), handed out again instead of
    /// allocating. Capacity only; never observable on the wire.
    buf_pool: Vec<Vec<u8>>,
}

/// The slot range of double-buffering group `g` out of `groups` over a
/// partition with `n` dependency slots.
fn group_range(g: usize, groups: usize, n: usize) -> Range<usize> {
    (g * n / groups)..((g + 1) * n / groups)
}

impl<'a> Worker<'a> {
    /// The handle of machine `ctx.rank()` over `prepared`, the
    /// [`PreparedGraph`] `run_spmd` fetched with `PreparedGraph::of(graph,
    /// cfg)` once for all machines of a job (after validating `cfg`).
    /// Builds nothing the graph already holds: this rank's buckets are
    /// built by the first job on the graph with this layout and found by
    /// every later one. `started` is when this machine's set-up began.
    pub(crate) fn with_prepared(
        ctx: &'a mut NodeCtx,
        graph: &'a Graph,
        cfg: &'a EngineConfig,
        prepared: Arc<PreparedGraph>,
        started: Instant,
    ) -> Self {
        assert_eq!(
            cfg.machines,
            ctx.world(),
            "config machine count must match cluster size"
        );
        let local = prepared.local(graph, ctx.rank());
        Worker {
            ctx,
            graph,
            cfg,
            prepared,
            local,
            setup_wall: started.elapsed(),
            stats: WorkStats::default(),
            iter_seq: 0,
            buf_pool: Vec::new(),
        }
    }

    /// A cleared byte buffer, pooled capacity if there is any.
    fn take_buf(&mut self) -> Vec<u8> {
        self.buf_pool.pop().unwrap_or_default()
    }

    /// Returns a spent buffer to the pool. The pool holds what one
    /// iteration has in flight (a few buffers per peer); beyond that a
    /// buffer is simply dropped.
    fn recycle_buf(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() > 0 && self.buf_pool.len() < 4 * self.cfg.machines {
            buf.clear();
            self.buf_pool.push(buf);
        }
    }

    /// Notes a payload encoded as `fmt` in the wire-format histogram, so
    /// the flat/adaptive byte split is visible in [`CommStats`] and the
    /// trace under either codec. Empty payloads never hit the wire and are
    /// not counted.
    ///
    /// [`CommStats`]: symple_net::CommStats
    fn note_format(&mut self, fmt: WireFormat, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let mut formats = CodecStats::default();
        formats.bytes[fmt.index()] += bytes as u64;
        self.ctx.record_wire_formats(&formats);
    }

    /// This machine's rank.
    pub fn rank(&self) -> usize {
        self.ctx.rank()
    }

    /// The execution policy in effect.
    pub fn policy(&self) -> Policy {
        self.cfg.policy
    }

    /// Number of machines.
    pub fn world(&self) -> usize {
        self.ctx.world()
    }

    /// The shared graph.
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// The global partition.
    pub fn partition(&self) -> &Partition {
        self.prepared.partition()
    }

    /// This machine's master range `[lo, hi)`.
    pub fn my_range(&self) -> (Vid, Vid) {
        self.partition().range(self.ctx.rank())
    }

    /// Iterates this machine's master vertices.
    pub fn masters(&self) -> impl Iterator<Item = Vid> {
        let (lo, hi) = self.my_range();
        Vid::range(lo.raw(), hi.raw())
    }

    /// Is `v` mastered here?
    pub fn is_master(&self, v: Vid) -> bool {
        let (lo, hi) = self.my_range();
        lo <= v && v < hi
    }

    /// Slots the caller must allocate in dependency state passed to
    /// [`Worker::pull`]: the per-partition maximum, plus one slot that
    /// nothing reads. Local-only breaks run on a one-slot state that
    /// `scratch_pass` detaches per chunk, not on a slot of `dep`; the
    /// extra slot stays so the value is at least 1 even for a layout
    /// without dependency slots, and callers' sizing does not change.
    pub fn dep_slots_needed(&self) -> usize {
        self.prepared.dep_layout().max_slots() + 1
    }

    /// Wall time this machine spent constructing its handle.
    pub(crate) fn setup_wall(&self) -> Duration {
        self.setup_wall
    }

    /// This machine's accumulated counters.
    pub fn stats(&self) -> WorkStats {
        self.stats
    }

    /// Encodes `dep` over `range` under the configured
    /// [`crate::WireCodec`] and ships it to `dst`.
    fn send_dep<D: DepState>(&mut self, dst: usize, tag: Tag, dep: &D, range: Range<usize>) {
        let mut payload = self.take_buf();
        let fmt = dep.encode_message(range, self.cfg.wire_codec, &mut payload);
        self.note_format(fmt, payload.len());
        self.ship(dst, tag, CommKind::Dependency, payload);
    }

    /// Ships an encoded payload to `dst` in [`EXCHANGE_FRAME`]-byte
    /// frames. The message copies out of the buffer, so it is recycled
    /// locally.
    fn ship(&mut self, dst: usize, tag: Tag, kind: CommKind, payload: Vec<u8>) {
        self.ctx
            .send_framed(dst, tag, kind, &payload, EXCHANGE_FRAME);
        self.recycle_buf(payload);
    }

    /// Receives the dependency message from `src` into `dep` over `range`.
    /// The message is modelled as frames, each arrival wait charged as
    /// `DepWait`, so the clock ends at the last byte's modelled arrival;
    /// update messages that land meanwhile are buffered by the transport.
    /// Both sides dispatch on the same config, so the decoder always
    /// matches what the peer encoded. The received buffer joins the pool.
    fn recv_dep<D: DepState>(&mut self, src: usize, tag: Tag, dep: &mut D, range: Range<usize>) {
        let mut buf = Vec::new();
        self.ctx
            .recv_framed_into(src, tag, EXCHANGE_FRAME, &mut buf);
        let res = dep.decode_message(range, self.cfg.wire_codec, &buf);
        self.ctx.decoded(src, tag, res);
        self.recycle_buf(buf);
    }

    /// The tag under which the updates produced at step `step` of
    /// iteration `iter` travel.
    fn update_tag(&self, iter: u64, step: usize) -> Tag {
        let p = self.ctx.world() as u64;
        Tag::new(TagKind::Update, iter * p + step as u64, 0)
    }

    /// Ships one step's updates to `dst`: the chunks' pairs are written
    /// once, as flat `(vid, payload)` records, into a pooled buffer, which
    /// is what travels — or, under the adaptive codec, what
    /// `encode_updates` re-encodes (the flat stream is then recycled).
    fn send_updates<U: Wire>(&mut self, dst: usize, tag: Tag, chunks: &[Vec<(Vid, U)>]) {
        let mut flat = self.take_buf();
        let records: usize = chunks.iter().map(Vec::len).sum();
        flat.reserve(records * (4 + U::SIZE));
        for (v, upd) in chunks.iter().flatten() {
            v.write(&mut flat);
            upd.write(&mut flat);
        }
        if self.cfg.adaptive_wire() {
            let mut wire = self.take_buf();
            let formats = symple_net::encode_updates(&flat, U::SIZE, &mut wire);
            self.ctx.record_wire_formats(&formats);
            self.ship(dst, tag, CommKind::Update, wire);
            self.recycle_buf(flat);
        } else {
            self.note_format(WireFormat::Flat, flat.len());
            self.ship(dst, tag, CommKind::Update, flat);
        }
    }

    /// Replays a consumed stream's modelled schedule in canonical order:
    /// for each frame, a stall to its arrival — charged as
    /// [`SpanCategory::Exchange`], the wait the pipeline exists to shrink —
    /// followed by the apply cost of the records that frame completed.
    /// Records are attributed to frames byte-proportionally (integer floor
    /// over cumulative bytes, so the shares sum exactly to the total and
    /// the attribution is identical on every machine and backend).
    fn charge_stream(&mut self, frames: &[(usize, f64)], records: u64) {
        let total: usize = frames.iter().map(|&(len, _)| len).sum();
        let mut cum_bytes = 0usize;
        let mut cum_records = 0u64;
        for &(len, arrival) in frames {
            self.ctx.wait_until(arrival, SpanCategory::Exchange);
            if total == 0 {
                continue;
            }
            cum_bytes += len;
            let upto = records * cum_bytes as u64 / total as u64;
            let recs = upto - cum_records;
            cum_records = upto;
            if recs > 0 {
                let costs = chunked_costs(recs);
                self.ctx.apply_sharded(&costs, self.cfg.threads);
            }
        }
    }

    /// The gather phase of [`Worker::pull`] and [`Worker::push`]: consumes
    /// the iteration's update sources in the order given — the circulant
    /// processing order of this partition for pull (…, rank−2, rank−1
    /// first; local last), so the master folds partial results in exactly
    /// the sequential neighbour order the dependency semantics define —
    /// and applies every update at its master via `apply`, as it is
    /// consumed; returns the activations. `local` is this machine's own
    /// share, still typed; a remote stream is received whole at its turn
    /// (`NodeCtx::recv_frames`, which blocks only if the message has not
    /// physically arrived) and decoded record by record. `apply` runs
    /// sequentially (it is a `FnMut` over caller state). Under the Galois
    /// policy the applied pairs are then broadcast back.
    ///
    /// Charges: the local share as [`crate::EXEC_CHUNK`]-record lanes at its turn,
    /// a remote stream frame by frame ([`Worker::charge_stream`]), so every
    /// modelled cost follows the canonical order, not arrival order.
    fn gather<U: Wire + Copy>(
        &mut self,
        iter: u64,
        sources: &[Source],
        local: &[Vec<(Vid, U)>],
        apply: &mut dyn FnMut(Vid, U) -> bool,
    ) -> u64 {
        let rank = self.ctx.rank();
        let adaptive = self.cfg.adaptive_wire();
        let galois = matches!(self.cfg.policy, Policy::Galois);
        let (lo, hi) = self.my_range();
        let mut activated = 0u64;
        let mut applied = 0u64;
        // Gluon broadcasts every reduced value back to the mirrors, whether
        // or not it activated the vertex: the consumed records, in
        // consumption order.
        let mut feedback: Vec<u8> = Vec::new();
        let mut sink = |v: Vid, upd: U| {
            debug_assert!(lo <= v && v < hi, "update routed to wrong master");
            if apply(v, upd) {
                activated += 1;
            }
        };
        for src in sources {
            self.ctx.set_trace_scope(iter as u32, src.step as u32, 0);
            if src.rank == rank {
                let records: u64 = local.iter().map(|c| c.len() as u64).sum();
                for &(v, upd) in local.iter().flatten() {
                    if galois {
                        v.write(&mut feedback);
                        upd.write(&mut feedback);
                    }
                    sink(v, upd);
                }
                let costs = chunked_costs(records);
                self.ctx.apply_sharded(&costs, self.cfg.threads);
                applied += records;
                continue;
            }
            let tag = self.update_tag(iter, src.step);
            let (wire, frames) = self.ctx.recv_frames(src.rank, tag);
            let mut decoded = Vec::new();
            let flat: &[u8] = if adaptive {
                decoded = self.take_buf();
                let res = symple_net::decode_updates(&wire, U::SIZE, &mut decoded);
                self.ctx.decoded(src.rank, tag, res);
                &decoded
            } else {
                &wire
            };
            let records = (flat.len() / (4 + U::SIZE)) as u64;
            self.charge_stream(&frames, records);
            self.ctx
                .decoded(src.rank, tag, read_records(flat, (lo, hi), &mut sink));
            if galois {
                feedback.extend_from_slice(flat);
            }
            applied += records;
            self.recycle_buf(wire);
            self.recycle_buf(decoded);
        }
        self.stats.add(WorkMetric::UpdatesApplied, applied);
        if galois {
            // Gluon-style second phase: masters broadcast applied values
            // back to every machine's mirrors, then a BSP barrier.
            self.galois_broadcast(U::SIZE, feedback);
        }
        activated
    }

    /// Current virtual time on this machine.
    pub fn virtual_clock(&self) -> f64 {
        self.ctx.virtual_clock()
    }

    /// Reduces one value per machine with `op`; every machine gets the
    /// result. `op` must be associative and commutative (values are folded
    /// in rank order, so merely-associative operators are also fine).
    /// Collective.
    ///
    /// ```no_run
    /// # fn demo(w: &mut symple_core::Worker) {
    /// let total = w.allreduce(w.masters().count() as u64, |a, b| a + b);
    /// let any_active = w.allreduce(total > 0, |a, b| a | b);
    /// let coldest = w.allreduce(w.virtual_clock(), f64::min);
    /// # }
    /// ```
    pub fn allreduce<T, F>(&mut self, v: T, op: F) -> T
    where
        T: Wire + Copy,
        F: Fn(T, T) -> T,
    {
        (self.ctx.allgather_value(v))
            .reduce(op)
            .expect("allgather returns one value per machine")
    }

    /// Synchronises a full-length bitmap: every machine's master slice
    /// *overwrites* the others' copies (cleared bits propagate). Part of
    /// the owner-wins sync family (see the module docs). Collective.
    ///
    /// # Panics
    ///
    /// Panics if `bm.len()` differs from the graph's vertex count.
    pub fn sync_bitmap(&mut self, bm: &mut Bitmap) {
        assert_eq!(
            bm.len(),
            self.graph.num_vertices(),
            "bitmap length mismatch"
        );
        let rank = self.ctx.rank();
        let (lo, hi) = self.partition().range(rank);
        let payload = if lo == hi {
            Vec::new() // empty partitions may sit at unaligned boundaries
        } else {
            symple_net::encode_slice(&bm.extract_range_words(lo.index(), hi.index()))
        };
        let all = self.ctx.allgather_bytes(payload, CommKind::Sync);
        for (m, bytes) in all.iter().enumerate() {
            if m == rank {
                continue;
            }
            let (mlo, mhi) = self.partition().range(m);
            if mlo == mhi {
                continue;
            }
            // Decoded through a fixed block of words straight into the
            // bitmap: no per-peer `Vec`, one length check per block.
            const SYNC_WORDS: usize = 64;
            let mut words = [0u64; SYNC_WORDS];
            let mut r = Reader::new(bytes);
            for start in (mlo.index()..mhi.index()).step_by(SYNC_WORDS * 64) {
                let end = (start + SYNC_WORDS * 64).min(mhi.index());
                let n = (end - start).div_ceil(64);
                self.ctx
                    .decoded(m, self.ctx.collective_tag(), r.fill(&mut words[..n]));
                bm.assign_range_words(start, end, &words[..n]);
            }
            self.ctx.decoded(m, self.ctx.collective_tag(), r.finish());
        }
    }

    /// Synchronises a full-length per-vertex value array: every machine's
    /// master slice overwrites the others' copies. Part of the owner-wins
    /// sync family (see the module docs). Collective.
    ///
    /// # Panics
    ///
    /// Panics if `arr.len()` differs from the graph's vertex count.
    pub fn sync_values<T: Wire + Copy>(&mut self, arr: &mut [T]) {
        assert_eq!(
            arr.len(),
            self.graph.num_vertices(),
            "array length mismatch"
        );
        let rank = self.ctx.rank();
        let (lo, hi) = self.partition().range(rank);
        let payload = symple_net::encode_slice(&arr[lo.index()..hi.index()]);
        let all = self.ctx.allgather_bytes(payload, CommKind::Sync);
        for (m, bytes) in all.iter().enumerate() {
            if m == rank {
                continue;
            }
            let (mlo, mhi) = self.partition().range(m);
            let mut r = Reader::new(bytes);
            let res = r.fill(&mut arr[mlo.index()..mhi.index()]);
            self.ctx
                .decoded(m, self.ctx.collective_tag(), res.and_then(|()| r.finish()));
        }
    }

    /// Sparse delta-sync of a per-vertex array: each machine broadcasts
    /// `(vid, value)` pairs for its `changed` master vertices; receivers
    /// patch their copies. Part of the owner-wins sync family (see the
    /// module docs). Collective. This is how iteration state whose active
    /// set is small (e.g. newly clustered vertices) is kept in sync
    /// without shipping whole arrays.
    ///
    /// # Panics
    ///
    /// Panics (in debug) if `changed` contains non-local vertices.
    pub fn sync_changed<T: Wire + Copy>(&mut self, arr: &mut [T], changed: &[Vid]) {
        let rank = self.ctx.rank();
        let mut payload = Vec::with_capacity(changed.len() * (4 + T::SIZE));
        for &v in changed {
            debug_assert!(self.is_master(v), "sync_changed takes local masters");
            v.write(&mut payload);
            arr[v.index()].write(&mut payload);
        }
        let all = self.ctx.allgather_bytes(payload, CommKind::Sync);
        for (m, bytes) in all.iter().enumerate() {
            if m == rank {
                continue;
            }
            let sender = self.partition().range(m);
            let res = read_records(bytes, sender, |v, x| arr[v.index()] = x);
            self.ctx.decoded(m, self.ctx.collective_tag(), res);
        }
    }

    /// Runs one dense (pull) iteration of `prog` under the configured
    /// policy and applies the produced updates at their masters via
    /// `apply(v, update) -> activated`.
    ///
    /// The iteration is `p` steps of *scatter* (walk the bucket of the
    /// step's destination partition, collecting typed updates) and
    /// *exchange* (ship them to that partition's master), then one
    /// *gather* (consume every source's updates in circulant order).
    /// Which scatter a step runs is decided once, by the policy and the
    /// program together: only a program that
    /// [carries a dependency](PullProgram::carries_dependency) under a
    /// dependency-propagating policy pays for the circulant dependency
    /// schedule; everything else takes the dense pass. After each step
    /// the transport inbox is drained (`NodeCtx::poll_drain`), so messages
    /// that landed while the step computed wait in the receive buffer
    /// for the gather; that is physical only and charges nothing.
    ///
    /// `dep` must have at least [`Worker::dep_slots_needed`] slots; the
    /// engine resets ranges as the circulant schedule requires, so the
    /// same state can be reused across iterations.
    ///
    /// Returns the number of local master activations (`apply` returning
    /// `true`). Collective: every machine must call `pull` with the same
    /// program type each iteration.
    ///
    /// # Panics
    ///
    /// Panics if `dep` is too small (slot indexing); a failed exchange
    /// fails the run ([`NodeCtx::fail`]).
    pub fn pull<P: PullProgram>(
        &mut self,
        prog: &P,
        dep: &mut P::Dep,
        apply: &mut dyn FnMut(Vid, P::Update) -> bool,
    ) -> u64 {
        let p = self.ctx.world();
        let rank = self.ctx.rank();
        self.iter_seq += 1;
        let iter = self.iter_seq;
        self.stats.add(WorkMetric::PullIterations, 1);
        let carried = self.cfg.policy.propagates_dependency() && prog.carries_dependency();
        // Machine `m` produces (and sends) this partition's updates at
        // step `rank − 1 − m`; the local share comes last.
        let sources: Vec<Source> = processing_order(rank, p)
            .into_iter()
            .map(|m| Source {
                rank: m,
                step: (rank + p - 1 - m) % p,
            })
            .collect();
        let mut local = Vec::new();
        for s in 0..p {
            self.ctx.set_trace_scope(iter as u32, s as u32, 0);
            let j = dst_partition(rank, s, p);
            let mut step = PassOutput::default();
            if carried {
                self.scatter_circulant(prog, dep, iter, s, &mut step);
            } else {
                self.scatter_dense(prog, dep, j, &mut step);
            }
            self.stats.add(WorkMetric::EdgesTraversed, step.edges);
            self.stats.add(WorkMetric::VerticesExamined, step.verts);
            self.stats.add(WorkMetric::SkippedByDep, step.skipped);
            self.stats.add(WorkMetric::UpdatesEmitted, step.emitted);

            self.ctx.set_trace_scope(iter as u32, s as u32, 0);
            if j == rank {
                local = step.chunks;
            } else {
                self.send_updates(j, self.update_tag(iter, s), &step.chunks);
            }
            self.ctx.poll_drain();
        }
        self.gather(iter, &sources, &local, apply)
    }

    /// Scatter of a step with no dependency to propagate — the Gemini and
    /// Galois policies, and a dependency-free program under any policy:
    /// one pass over the bucket's parts, every destination on a detached
    /// scratch slot (breaks, if the program has any, act locally only), no
    /// dependency message sent or awaited.
    fn scatter_dense<P: PullProgram>(
        &mut self,
        prog: &P,
        dep: &P::Dep,
        j: usize,
        step: &mut PassOutput<P::Update>,
    ) {
        let threads = self.cfg.threads;
        let bucket = self.local.bucket(j);
        par::scratch_pass(prog, &bucket.hi, dep, threads, step);
        par::scratch_pass(prog, &bucket.lo, dep, threads, step);
        self.ctx.compute_sharded(&step.chunk_costs, threads);
    }

    /// Scatter of circulant step `s` with dependency propagation: per
    /// double-buffering group (one group without double buffering),
    /// receive the group's dependency slots from the right neighbour (or
    /// reset them at the first step), walk the group's high-degree
    /// entries, and send the slots on to the left neighbour (except at the
    /// last step). The low-degree entries need no dependency: with double
    /// buffering they go first, so they overlap the wait; without, they
    /// ride in the single group's pass.
    fn scatter_circulant<P: PullProgram>(
        &mut self,
        prog: &P,
        dep: &mut P::Dep,
        iter: u64,
        s: usize,
        step: &mut PassOutput<P::Update>,
    ) {
        let p = self.ctx.world();
        let rank = self.ctx.rank();
        let (right, left) = ((rank + 1) % p, (rank + p - 1) % p);
        let (first, last) = (s == 0, s + 1 == p);
        let j = dst_partition(rank, s, p);
        let n_slots = self.prepared.dep_layout().slots(j);
        let groups = self.cfg.effective_groups();
        let threads = self.cfg.threads;
        let local = Arc::clone(&self.local);
        let bucket = local.bucket(j);
        let dep_tag =
            |s: usize, g: usize| Tag::new(TagKind::Dep, iter * p as u64 + s as u64, g as u32);
        if groups > 1 {
            par::scratch_pass(prog, &bucket.lo, dep, threads, step);
            self.ctx.compute_sharded(&step.chunk_costs, threads);
        }
        for g in 0..groups {
            self.ctx.set_trace_scope(iter as u32, s as u32, g as u32);
            let slots = group_range(g, groups, n_slots);
            if !slots.is_empty() {
                if first {
                    dep.reset_range(slots.clone());
                } else {
                    self.recv_dep(right, dep_tag(s - 1, g), dep, slots.clone());
                }
            }
            let charged = step.chunk_costs.len();
            let e0 = bucket.hi.first_entry_with_slot(slots.start);
            let e1 = bucket.hi.first_entry_with_slot(slots.end);
            par::hi_pass(prog, &bucket.hi, e0..e1, dep, threads, step);
            if groups == 1 {
                par::scratch_pass(prog, &bucket.lo, dep, threads, step);
            }
            self.ctx
                .compute_sharded(&step.chunk_costs[charged..], threads);
            if !last && !slots.is_empty() {
                self.send_dep(left, dep_tag(s, g), dep, slots);
            }
        }
    }

    /// The Gluon-style broadcast half of the Galois policy: masters ship
    /// every applied `(vid, value)` back to all mirrors, then a BSP
    /// barrier.
    ///
    /// Receivers discard the broadcast payload (the `let _` below): this
    /// simplified Gluon stand-in re-derives mirror values from master
    /// state, so nothing ever reads the bytes. Under the adaptive codec an
    /// actual encode would therefore be pure CPU burn — instead the stream
    /// is *measured* (same wire length, same format histogram, no encode
    /// pass) and a placeholder of that length ships, leaving every
    /// observable byte and message count unchanged.
    fn galois_broadcast(&mut self, psize: usize, feedback: Vec<u8>) {
        let payload = if self.cfg.adaptive_wire() {
            let (bytes, formats) = symple_net::measure_updates(&feedback, psize);
            self.ctx.record_wire_formats(&formats);
            vec![0u8; bytes as usize]
        } else {
            self.note_format(WireFormat::Flat, feedback.len());
            feedback
        };
        let _ = self.ctx.allgather_bytes(payload, CommKind::Update);
        self.ctx.barrier();
    }

    /// Runs one sparse (push) iteration: walks the out-edges of the given
    /// *local master* frontier vertices, ships each peer's updates, then
    /// gathers every source's in rank order and applies them via `apply`.
    /// Returns local activations. Collective.
    ///
    /// # Panics
    ///
    /// Panics (in debug) if `frontier` contains non-local vertices.
    pub fn push<P: PushProgram>(
        &mut self,
        prog: &P,
        frontier: &[Vid],
        apply: &mut dyn FnMut(Vid, P::Update) -> bool,
    ) -> u64 {
        let p = self.ctx.world();
        let rank = self.ctx.rank();
        self.iter_seq += 1;
        let iter = self.iter_seq;
        self.stats.add(WorkMetric::PushIterations, 1);
        self.ctx.set_trace_scope(iter as u32, 0, 0);

        debug_assert!(
            frontier.iter().all(|&u| self.is_master(u)),
            "push frontier must be local masters"
        );
        let threads = self.cfg.threads;
        let pass = par::push_pass(prog, self.graph, self.partition(), frontier, threads);
        self.stats.add(WorkMetric::EdgesTraversed, pass.edges);
        self.stats
            .add(WorkMetric::VerticesExamined, frontier.len() as u64);
        self.stats.add(WorkMetric::UpdatesEmitted, pass.emitted);
        self.ctx.compute_sharded(&pass.chunk_costs, threads);

        // Push has one step: its sources are consumed in rank order, all
        // under that step's tag.
        let sources: Vec<Source> = (0..p).map(|rank| Source { rank, step: 0 }).collect();
        for (m, outbox) in pass.outboxes.iter().enumerate() {
            if m != rank {
                self.send_updates(m, self.update_tag(iter, 0), outbox);
            }
        }
        self.gather(iter, &sources, &pass.outboxes[rank], apply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A peer's record stream must be whole records for vertices in the
    /// addressed master range: a cut tail or a vertex outside it is an
    /// error, where a bare `chunks_exact` walk dropped the tail silently
    /// and indexed by whatever vertex arrived.
    #[test]
    fn peer_records_are_checked_against_the_master_range() {
        let masters = (Vid::new(10), Vid::new(20));
        let stream = symple_net::encode_slice(&[(Vid::new(10), 7u16), (Vid::new(19), 8)]);
        let mut got = Vec::new();
        assert_eq!(
            read_records(&stream, masters, |v, x: u16| got.push((v.raw(), x))),
            Ok(())
        );
        assert_eq!(got, [(10, 7), (19, 8)]);
        let cut = read_records(&stream[..11], masters, |_, _: u16| ());
        assert_eq!(cut, Err(CodecError::Trailing(5)));
        for stray in [9, 20, u32::MAX] {
            let stream = symple_net::encode_slice(&[(Vid::new(stray), 1u16)]);
            let err = CodecError::OutOfRange {
                value: stray.into(),
                lo: 10,
                hi: 20,
            };
            assert_eq!(read_records(&stream, masters, |_, _: u16| ()), Err(err));
        }
        let empty = (Vid::new(5), Vid::new(5));
        assert!(
            read_records(&stream, empty, |_, _: u16| ()).is_err(),
            "an empty range takes no record"
        );
    }

    #[test]
    fn group_ranges_partition_the_domain() {
        for n in [0usize, 1, 7, 64, 100] {
            for groups in 1..=5 {
                let mut covered = 0;
                for g in 0..groups {
                    let r = group_range(g, groups, n);
                    assert_eq!(r.start, covered, "ranges must be contiguous");
                    covered = r.end;
                }
                assert_eq!(covered, n, "ranges must cover the domain");
            }
        }
    }
}
