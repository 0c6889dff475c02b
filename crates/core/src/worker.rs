//! The per-machine engine handle (SPMD, like a Gemini process).
//!
//! Algorithms run the same closure on every machine; the [`Worker`] gives
//! them pull/push edge processing, frontier synchronisation, and
//! convergence collectives. One [`Worker::pull`] call executes one dense
//! iteration under the configured [`crate::Policy`]:
//!
//! * **SympleGraph** — circulant steps with dependency receive → process →
//!   send per step (or per double-buffering group), low-degree fallback
//!   under differentiated propagation;
//! * **Gemini** — same bucket walk, no dependency messages; breaks apply
//!   only within the machine-local segment;
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

use crate::circulant::{dst_partition, processing_order};
use crate::par::{self, ParCfg, PassOutput};
use crate::{
    ApplyLayout, CacheBlocks, DepState, EarlyExit, EngineConfig, LocalGraph, Partition, Policy,
    PreparedGraph, PullProgram, PushProgram, WorkMetric, WorkStats,
};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};
use symple_graph::{Bitmap, Graph, Vid};
use symple_net::{CodecStats, CommKind, NodeCtx, SpanCategory, Tag, TagKind, Wire, WireFormat};

/// Per-cache-block update bins of the blocked apply layout, paired with
/// the block geometry that routes a vertex to its bin.
type ApplyBins<U> = (CacheBlocks, Vec<Vec<(Vid, U)>>);

/// One in-flight update stream of the pipelined exchange: frames are
/// absorbed (and, once the stream completes, decoded) whenever this
/// machine would otherwise be blocked, then the stream is *consumed* —
/// charged on the virtual clock and folded into master state — in the
/// canonical circulant order. Gathering and decoding are physical overlap
/// only; every modelled cost is replayed at consumption, which is what
/// keeps pipelined runs deterministic and bit-identical in outputs to the
/// bulk exchange.
struct PipeStream<U> {
    src: usize,
    tag: Tag,
    /// Per-frame `(bytes, modelled arrival)` in frame order — the charge
    /// schedule [`Worker::charge_stream`] replays at consumption.
    frames: Vec<(usize, f64)>,
    /// Wire bytes assembled so far.
    wire: Vec<u8>,
    next_frame: u32,
    complete: bool,
    decoded: Option<par::DecodedUpdates<U>>,
}

/// Splits `records` apply records into `chunk`-record cost lanes, so a
/// sharded charge of a frame's share gets the same lane treatment a bulk
/// decode of equal size would.
fn chunked_costs(records: u64, chunk: usize) -> Vec<(u64, u64)> {
    let chunk = chunk.max(1) as u64;
    let mut costs = Vec::with_capacity((records / chunk + 1) as usize);
    let mut left = records;
    while left > 0 {
        let take = left.min(chunk);
        costs.push((0, take));
        left -= take;
    }
    costs
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
    /// One scratch encode buffer per peer rank. `send` moves its payload
    /// into the channel, so the pool is replenished with decoded receive
    /// buffers — allocations circulate between machines instead of being
    /// made fresh every step. Capacity only; never observable on the wire.
    enc_pool: Vec<Vec<u8>>,
    /// One frame-assembly buffer per peer rank, reused across iterations
    /// by the pipelined exchange so steady-state gathering allocates
    /// nothing. Capacity only; never observable on the wire.
    dec_pool: Vec<Vec<u8>>,
}

/// The slot range of double-buffering group `g` out of `groups` over a
/// partition with `n` dependency slots.
fn group_range(g: usize, groups: usize, n: usize) -> Range<usize> {
    (g * n / groups)..((g + 1) * n / groups)
}

impl<'a> Worker<'a> {
    /// The handle of machine `ctx.rank()` over `graph`'s
    /// [`PreparedGraph`] for `cfg`. Builds nothing the graph already
    /// holds: the partition, dependency layout and this rank's buckets
    /// are built by the first job on the graph with this layout and found
    /// by every later one.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or its machine count differs
    /// from the cluster's.
    pub fn new(ctx: &'a mut NodeCtx, graph: &'a Graph, cfg: &'a EngineConfig) -> Self {
        let started = Instant::now();
        if let Err(e) = cfg.validate() {
            panic!("invalid engine config: {e}");
        }
        let prepared = PreparedGraph::of(graph, cfg);
        Worker::with_prepared(ctx, graph, cfg, prepared, started)
    }

    /// [`Worker::new`] over a `prepared` the caller already fetched with
    /// `PreparedGraph::of(graph, cfg)` — once for all machines of a job.
    /// `started` is when this machine's set-up began.
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
            enc_pool: vec![Vec::new(); cfg.machines],
            dec_pool: vec![Vec::new(); cfg.machines],
        }
    }

    /// Takes the pooled scratch buffer for peer `rank`, cleared.
    fn take_buf(&mut self, rank: usize) -> Vec<u8> {
        let mut buf = std::mem::take(&mut self.enc_pool[rank]);
        buf.clear();
        buf
    }

    /// Returns a spent buffer (typically a decoded receive buffer) to the
    /// pool slot for peer `rank`, keeping the larger capacity.
    fn recycle_buf(&mut self, rank: usize, buf: Vec<u8>) {
        if buf.capacity() > self.enc_pool[rank].capacity() {
            self.enc_pool[rank] = buf;
        }
    }

    /// Takes the pooled frame-assembly buffer for peer `rank`, cleared.
    fn take_dec_buf(&mut self, rank: usize) -> Vec<u8> {
        let mut buf = std::mem::take(&mut self.dec_pool[rank]);
        buf.clear();
        buf
    }

    /// Returns a frame-assembly buffer to the pool slot for peer `rank`,
    /// keeping the larger capacity.
    fn recycle_dec_buf(&mut self, rank: usize, buf: Vec<u8>) {
        if buf.capacity() > self.dec_pool[rank].capacity() {
            self.dec_pool[rank] = buf;
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
        formats.blocks[fmt.index()] += 1;
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
    /// [`Worker::pull`] (the per-partition maximum plus one scratch slot
    /// used for local-only breaks).
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

    /// This machine's communication counters so far, including the
    /// reliable-delivery tallies (`symple_net::ReliableStats`) when a
    /// fault plan is active. The engine never sees injected faults —
    /// outputs and [`WorkStats`] match the fault-free run bit for bit —
    /// so these counters are the only place a worker can observe that
    /// retransmission happened beneath it.
    pub fn comm_stats(&self) -> symple_net::CommStats {
        self.ctx.comm_stats()
    }

    /// Encodes `dep` over `range` — adaptive codec or seed-flat layout per
    /// the configured [`crate::WireCodec`] — and ships it to `dst`.
    fn send_dep<D: DepState>(&mut self, dst: usize, tag: Tag, dep: &D, range: Range<usize>) {
        let mut payload = self.take_buf(dst);
        let fmt = if self.cfg.adaptive_wire() {
            dep.encode_range_coded(range, &mut payload)
        } else {
            dep.encode_range(range, &mut payload);
            WireFormat::Flat
        };
        self.note_format(fmt, payload.len());
        self.ship(dst, tag, CommKind::Dependency, payload);
    }

    /// Ships an encoded payload to `dst`: whole under the bulk exchange
    /// (the buffer moves into the channel), in `exchange_chunk`-byte
    /// frames under the pipelined exchange — frames copy out of the
    /// buffer, so it is recycled locally instead.
    fn ship(&mut self, dst: usize, tag: Tag, kind: CommKind, payload: Vec<u8>) {
        if self.cfg.pipelined() {
            self.ctx
                .send_framed(dst, tag, kind, &payload, self.cfg.exchange_chunk);
            self.recycle_buf(dst, payload);
        } else {
            self.ctx.send(dst, tag, kind, payload);
        }
    }

    /// Receives the dependency message from `src` and decodes it into
    /// `dep` over `range`. Both sides dispatch on the same config, so the
    /// decoder always matches what the peer encoded.
    fn recv_dep<D: DepState>(&mut self, src: usize, tag: Tag, dep: &mut D, range: Range<usize>) {
        let buf = self.ctx.recv(src, tag);
        if self.cfg.adaptive_wire() {
            dep.decode_range_coded(range, &buf);
        } else {
            dep.decode_range(range, &buf);
        }
        self.recycle_buf(src, buf);
    }

    /// Ships a flat `(vid, payload)` update stream to `dst`, re-encoding
    /// it through the adaptive codec when configured (the flat stream is
    /// then recycled as future scratch).
    fn send_updates(&mut self, dst: usize, tag: Tag, psize: usize, flat: Vec<u8>) {
        if self.cfg.adaptive_wire() {
            let mut wire = self.take_buf(dst);
            let formats = symple_net::encode_updates(&flat, psize, &mut wire);
            self.ctx.record_wire_formats(&formats);
            self.ship(dst, tag, CommKind::Update, wire);
            self.recycle_buf(dst, flat);
        } else {
            self.note_format(WireFormat::Flat, flat.len());
            self.ship(dst, tag, CommKind::Update, flat);
        }
    }

    /// Receives an update message from `src` and returns the flat record
    /// stream it carries, undoing the adaptive framing when configured.
    fn recv_updates(&mut self, src: usize, tag: Tag, psize: usize) -> Vec<u8> {
        let buf = self.ctx.recv(src, tag);
        if !self.cfg.adaptive_wire() {
            return buf;
        }
        let mut flat = self.take_buf(src);
        symple_net::decode_updates(&buf, psize, &mut flat);
        self.recycle_buf(src, buf);
        flat
    }

    // === Pipelined exchange: gather / decode / charge ===
    //
    // Division of labour: `sweep_streams` and `decode_stream` do *physical*
    // work at whatever wall-clock moment is convenient (while this machine
    // would otherwise block), and never touch the virtual clock;
    // `charge_stream` replays each consumed stream's modelled waits and
    // apply costs in the canonical circulant order. Physical progress is
    // therefore free to race with host scheduling while the model stays
    // bit-deterministic.

    /// Fresh gather state for the given `(source rank, stream tag)` pairs,
    /// listed in canonical consumption order.
    fn pipe_streams<U>(&mut self, sources: &[(usize, Tag)]) -> Vec<PipeStream<U>> {
        sources
            .iter()
            .map(|&(src, tag)| PipeStream {
                src,
                tag,
                frames: Vec::new(),
                wire: self.take_dec_buf(src),
                next_frame: 0,
                complete: false,
                decoded: None,
            })
            .collect()
    }

    /// Drains the transport inbox and absorbs every already-arrived frame
    /// into its stream. Never blocks, never advances the virtual clock.
    fn sweep_streams<U>(&mut self, streams: &mut [PipeStream<U>]) {
        self.ctx.poll_drain();
        let chunk = self.cfg.exchange_chunk;
        for st in streams.iter_mut().filter(|st| !st.complete) {
            while let Some((frag, arrival)) = self
                .ctx
                .try_take_frame(st.src, st.tag.with_frame(st.next_frame))
            {
                st.frames.push((frag.len(), arrival));
                st.wire.extend_from_slice(&frag);
                st.next_frame += 1;
                if frag.len() < chunk {
                    st.complete = true;
                    break;
                }
            }
        }
    }

    /// Decodes a completed stream's wire bytes into `(vid, update)` pairs.
    /// Physical only — the decode CPU runs now (ideally inside somebody
    /// else's network latency), the modelled cost is charged at
    /// consumption by [`Worker::charge_stream`].
    fn decode_stream<U: Wire + Copy + Send>(&mut self, st: &mut PipeStream<U>, psize: usize) {
        debug_assert!(st.complete && st.decoded.is_none());
        let wire = std::mem::take(&mut st.wire);
        let pc = self.par_cfg();
        let decoded = if self.cfg.adaptive_wire() {
            let mut flat = self.take_buf(st.src);
            symple_net::decode_updates(&wire, psize, &mut flat);
            let d = par::decode_pass::<U>(&flat, pc);
            self.recycle_buf(st.src, flat);
            d
        } else {
            par::decode_pass::<U>(&wire, pc)
        };
        self.recycle_dec_buf(st.src, wire);
        st.decoded = Some(decoded);
    }

    /// Decodes the first stream that has fully arrived but not yet been
    /// decoded, if any. The unit of useful work a blocked wait loop can do.
    fn decode_one_ready<U: Wire + Copy + Send>(
        &mut self,
        streams: &mut [PipeStream<U>],
        psize: usize,
    ) -> bool {
        for st in streams.iter_mut() {
            if st.complete && st.decoded.is_none() {
                self.decode_stream(st, psize);
                return true;
            }
        }
        false
    }

    /// Blocks until `streams[target]` has fully arrived, decoding other
    /// completed streams while waiting.
    ///
    /// # Panics
    ///
    /// On protocol timeout, with the stalled stream's coordinates.
    fn complete_stream<U: Wire + Copy + Send>(
        &mut self,
        streams: &mut [PipeStream<U>],
        target: usize,
        psize: usize,
    ) {
        let deadline = Instant::now() + self.ctx.recv_deadline();
        loop {
            self.sweep_streams(streams);
            if streams[target].complete {
                return;
            }
            if self.decode_one_ready(streams, psize) {
                continue;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if !self.ctx.drain_one(remaining) {
                let st = &streams[target];
                self.ctx
                    .stream_timeout_panic(st.src, st.tag.with_frame(st.next_frame));
            }
        }
    }

    /// Receives a framed dependency message, doing update-stream gather
    /// and decode work whenever the next dependency frame has not landed
    /// yet. Arrival waits are charged per frame as `DepWait`, exactly like
    /// the bulk receive's single wait (the final clock is identical: both
    /// end at the last byte's modelled arrival).
    fn recv_dep_framed<D: DepState, U: Wire + Copy + Send>(
        &mut self,
        src: usize,
        tag: Tag,
        dep: &mut D,
        range: Range<usize>,
        streams: &mut [PipeStream<U>],
        psize: usize,
    ) {
        let chunk = self.cfg.exchange_chunk;
        let mut buf = self.take_buf(src);
        let mut frame = 0u32;
        loop {
            let ftag = tag.with_frame(frame);
            let deadline = Instant::now() + self.ctx.recv_deadline();
            let (frag, arrival) = loop {
                self.sweep_streams(streams);
                if let Some(got) = self.ctx.try_take_frame(src, ftag) {
                    break got;
                }
                if self.decode_one_ready(streams, psize) {
                    continue;
                }
                let remaining = deadline.saturating_duration_since(Instant::now());
                if !self.ctx.drain_one(remaining) {
                    self.ctx.stream_timeout_panic(src, ftag);
                }
            };
            self.ctx.wait_until(arrival, SpanCategory::DepWait);
            buf.extend_from_slice(&frag);
            if frag.len() < chunk {
                break;
            }
            frame += 1;
        }
        if self.cfg.adaptive_wire() {
            dep.decode_range_coded(range, &buf);
        } else {
            dep.decode_range(range, &buf);
        }
        self.recycle_buf(src, buf);
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
                let costs = chunked_costs(recs, self.cfg.chunk_size);
                self.ctx.apply_sharded(&costs, self.cfg.threads);
            }
        }
    }

    /// Executor parameters for the chunked intra-machine passes.
    fn par_cfg(&self) -> ParCfg {
        ParCfg {
            threads: self.cfg.threads,
            chunk: self.cfg.chunk_size,
            evaluate_skipped: self.cfg.early_exit == EarlyExit::Evaluate,
        }
    }

    /// Cache-block bins for the blocked apply layout (`None` under
    /// `Stream`): one bin per `apply_block`-vertex block of this machine's
    /// master range, filled as update buffers are decoded and drained by
    /// [`Worker::apply_blocked`].
    fn blocked_bins<U: Copy>(&self) -> Option<ApplyBins<U>> {
        if self.cfg.apply_layout != ApplyLayout::Blocked {
            return None;
        }
        let (lo, hi) = self.my_range();
        let blocks = CacheBlocks::new(lo, hi, self.cfg.apply_block);
        let bins = vec![Vec::new(); blocks.num_blocks()];
        Some((blocks, bins))
    }

    /// The blocked sweep: folds each bin into its cache-resident block of
    /// master state, one block at a time, so the pass touches each block's
    /// state exactly once. Charges the per-bin lane costs under
    /// `SpanCategory::Apply` — the same total as the stream layout's
    /// per-buffer charges, scheduled over one balanced sweep. Returns the
    /// number of activations.
    fn apply_blocked<U: Copy>(
        &mut self,
        bins: Vec<Vec<(Vid, U)>>,
        apply: &mut dyn FnMut(Vid, U) -> bool,
    ) -> u64 {
        let costs: Vec<(u64, u64)> = bins.iter().map(|b| (0, b.len() as u64)).collect();
        let activated = self.fold_bins(bins, apply);
        self.ctx.apply_sharded(&costs, self.cfg.threads);
        activated
    }

    /// The fold half of the blocked sweep, with no model charge: the
    /// pipelined exchange charges apply time frame by frame as streams are
    /// consumed, so its end-of-phase sweep must only move the data.
    fn fold_bins<U: Copy>(
        &mut self,
        bins: Vec<Vec<(Vid, U)>>,
        apply: &mut dyn FnMut(Vid, U) -> bool,
    ) -> u64 {
        let mut activated = 0u64;
        for bin in bins {
            for (v, upd) in bin {
                debug_assert!(self.is_master(v), "update routed to wrong master");
                if apply(v, upd) {
                    activated += 1;
                }
            }
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
        let all = self
            .ctx
            .allgather_bytes(symple_net::encode_slice(&[v]), CommKind::Sync);
        all.iter()
            .map(|bytes| T::read(bytes))
            .reduce(op)
            .expect("allgather returns one value per machine")
    }

    /// Sums `v` across machines. Collective.
    #[deprecated(since = "0.2.0", note = "use allreduce(v, |a, b| a + b)")]
    pub fn allreduce_sum(&mut self, v: u64) -> u64 {
        self.allreduce(v, |a, b| a + b)
    }

    /// ORs `v` across machines. Collective.
    #[deprecated(since = "0.2.0", note = "use allreduce(v, |a, b| a | b)")]
    pub fn allreduce_or(&mut self, v: bool) -> bool {
        self.allreduce(v, |a, b| a | b)
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
            let w: Vec<u64> = symple_net::decode_vec(bytes);
            bm.assign_range_words(mlo.index(), mhi.index(), &w);
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
            let vals: Vec<T> = symple_net::decode_vec(bytes);
            arr[mlo.index()..mhi.index()].copy_from_slice(&vals);
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
        let pair = 4 + T::SIZE;
        for (m, bytes) in all.iter().enumerate() {
            if m == rank {
                continue;
            }
            for c in bytes.chunks_exact(pair) {
                let v = Vid::read(c);
                arr[v.index()] = T::read(&c[4..]);
            }
        }
    }

    /// Runs one dense (pull) iteration of `prog` under the configured
    /// policy and applies the produced updates at their masters via
    /// `apply(v, update) -> activated`.
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
    /// Panics if `dep` is too small (slot indexing) or on protocol
    /// timeout.
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
        let symple = self.cfg.policy.propagates_dependency();
        let galois = matches!(self.cfg.policy, Policy::Galois);
        let groups = self.cfg.effective_groups();
        let right = (rank + 1) % p;
        let left = (rank + p - 1) % p;
        let pc = self.par_cfg();
        let mut local_updates: Vec<u8> = Vec::new();

        // Pipelined exchange: set up gather state for the update streams
        // this machine will consume, in canonical circulant order, so
        // frames can be absorbed (and completed streams decoded) while the
        // scatter phase is still running or blocked on dependencies.
        let pipelined = self.cfg.pipelined();
        let specs: Vec<(usize, Tag)> = processing_order(rank, p)
            .into_iter()
            .filter(|&m| m != rank)
            .map(|m| {
                let s = (rank + p - 1 - m) % p;
                (m, Tag::new(TagKind::Update, iter * p as u64 + s as u64, 0))
            })
            .collect();
        let mut streams: Vec<PipeStream<P::Update>> = if pipelined {
            self.pipe_streams(&specs)
        } else {
            Vec::new()
        };

        for s in 0..p {
            self.ctx.set_trace_scope(iter as u32, s as u32, 0);
            let j = dst_partition(rank, s, p);
            let first = s == 0;
            let last = s + 1 == p;
            let n_slots = self.prepared.dep_layout().slots(j);
            let mut step = PassOutput::default();

            if !symple {
                // Gemini/Galois: every destination uses a detached scratch
                // slot; breaks act locally only.
                let bucket = self.local.bucket(j);
                step = par::scratch_pass(prog, &bucket.hi, dep, pc);
                step.absorb(par::scratch_pass(prog, &bucket.lo, dep, pc));
                self.ctx.compute_sharded(&step.chunk_costs, pc.threads);
            } else if groups == 1 {
                // Plain circulant (with or without differentiated
                // propagation, but no double buffering): wait for the whole
                // dependency message up front.
                if n_slots > 0 {
                    if first {
                        dep.reset_range(0..n_slots);
                    } else {
                        let tag = Tag::new(TagKind::Dep, iter * p as u64 + (s as u64 - 1), 0);
                        if pipelined {
                            self.recv_dep_framed(
                                right,
                                tag,
                                dep,
                                0..n_slots,
                                &mut streams,
                                P::Update::SIZE,
                            );
                        } else {
                            self.recv_dep(right, tag, dep, 0..n_slots);
                        }
                    }
                }
                let bucket = self.local.bucket(j);
                step = par::hi_pass(prog, &bucket.hi, 0..bucket.hi.len(), dep, pc);
                step.absorb(par::scratch_pass(prog, &bucket.lo, dep, pc));
                self.ctx.compute_sharded(&step.chunk_costs, pc.threads);
                if !last && n_slots > 0 {
                    let tag = Tag::new(TagKind::Dep, iter * p as u64 + s as u64, 0);
                    self.send_dep(left, tag, dep, 0..n_slots);
                }
            } else {
                // Double buffering: low-degree work first (it needs no
                // dependency, so it overlaps the wait), then per-group
                // receive → process → send.
                {
                    let bucket = self.local.bucket(j);
                    let lo = par::scratch_pass(prog, &bucket.lo, dep, pc);
                    self.ctx.compute_sharded(&lo.chunk_costs, pc.threads);
                    step.absorb(lo);
                }
                for g in 0..groups {
                    self.ctx.set_trace_scope(iter as u32, s as u32, g as u32);
                    let slot_range = group_range(g, groups, n_slots);
                    if !slot_range.is_empty() {
                        if first {
                            dep.reset_range(slot_range.clone());
                        } else {
                            let tag =
                                Tag::new(TagKind::Dep, iter * p as u64 + (s as u64 - 1), g as u32);
                            if pipelined {
                                self.recv_dep_framed(
                                    right,
                                    tag,
                                    dep,
                                    slot_range.clone(),
                                    &mut streams,
                                    P::Update::SIZE,
                                );
                            } else {
                                self.recv_dep(right, tag, dep, slot_range.clone());
                            }
                        }
                    }
                    let gp = {
                        let bucket = self.local.bucket(j);
                        let e0 = bucket.hi.first_entry_with_slot(slot_range.start);
                        let e1 = bucket.hi.first_entry_with_slot(slot_range.end);
                        par::hi_pass(prog, &bucket.hi, e0..e1, dep, pc)
                    };
                    self.ctx.compute_sharded(&gp.chunk_costs, pc.threads);
                    step.absorb(gp);
                    if !last && !slot_range.is_empty() {
                        let tag = Tag::new(TagKind::Dep, iter * p as u64 + s as u64, g as u32);
                        self.send_dep(left, tag, dep, slot_range);
                    }
                }
            }

            self.stats.add(WorkMetric::EdgesTraversed, step.edges);
            self.stats.add(WorkMetric::VerticesExamined, step.verts);
            self.stats.add(WorkMetric::SkippedByDep, step.skipped);
            self.stats.add(WorkMetric::UpdatesEmitted, step.emitted);

            self.ctx.set_trace_scope(iter as u32, s as u32, 0);
            if j == rank {
                local_updates = step.bytes;
            } else {
                let tag = Tag::new(TagKind::Update, iter * p as u64 + s as u64, 0);
                self.send_updates(j, tag, P::Update::SIZE, step.bytes);
            }
            if pipelined {
                // Opportunistically absorb frames that landed while this
                // step's compute ran — pure physical overlap.
                self.sweep_streams(&mut streams);
            }
        }

        // Apply phase: consume update buffers in the circulant processing
        // order of this partition (…, rank−2, rank−1 first; local last), so
        // the master folds partial results in exactly the sequential
        // neighbour order the dependency semantics define. Decoding is
        // chunked; `apply` itself runs sequentially (it is a `FnMut` over
        // caller state) — in stream order under the `Stream` layout, in
        // cache-block order under `Blocked` (same per-vertex order either
        // way; see [`crate::ApplyLayout`]).
        let mut activated = 0u64;
        let mut applied = 0u64;
        let mut feedback: Vec<u8> = Vec::new();
        let mut sweep = self.blocked_bins::<P::Update>();
        let mut si = 0usize;
        for m in processing_order(rank, p) {
            // Attribute apply-phase time to the step at which machine `m`
            // produced (and sent) the buffer being consumed.
            let s = (rank + p - 1 - m) % p;
            self.ctx.set_trace_scope(iter as u32, s as u32, 0);
            if m == rank || !pipelined {
                let buf = if m == rank {
                    std::mem::take(&mut local_updates)
                } else {
                    let tag = Tag::new(TagKind::Update, iter * p as u64 + s as u64, 0);
                    self.recv_updates(m, tag, P::Update::SIZE)
                };
                let (pairs, costs) = par::decode_pass::<P::Update>(&buf, pc);
                applied += pairs.len() as u64;
                if galois {
                    // Gluon broadcasts every reduced value back to the
                    // mirrors, whether or not it activated the vertex. The
                    // feedback stream is written at decode time, so its
                    // bytes are identical under both apply layouts.
                    for &(v, upd) in &pairs {
                        v.write(&mut feedback);
                        upd.write(&mut feedback);
                    }
                }
                let charge = if let Some((blocks, bins)) = &mut sweep {
                    // The blocked sweep charges binned records itself —
                    // except under the pipelined exchange, whose sweep is
                    // a pure fold (remote records are charged per frame),
                    // so the local buffer must be charged here.
                    par::bin_updates(&pairs, blocks, bins);
                    m == rank && pipelined
                } else {
                    for (v, upd) in pairs {
                        debug_assert!(self.is_master(v), "update routed to wrong master");
                        if apply(v, upd) {
                            activated += 1;
                        }
                    }
                    true
                };
                if charge {
                    self.ctx.apply_sharded(&costs, pc.threads);
                }
                self.recycle_buf(m, buf);
            } else {
                // Pipelined: the stream may already be gathered and even
                // decoded; block only for what has not physically arrived,
                // then replay its modelled schedule in canonical order.
                self.complete_stream(&mut streams, si, P::Update::SIZE);
                if streams[si].decoded.is_none() {
                    self.decode_stream(&mut streams[si], P::Update::SIZE);
                }
                let st = &mut streams[si];
                debug_assert_eq!(st.src, m, "streams follow processing order");
                let (pairs, _) = st.decoded.take().expect("decoded above");
                let frames = std::mem::take(&mut st.frames);
                si += 1;
                applied += pairs.len() as u64;
                if galois {
                    for &(v, upd) in &pairs {
                        v.write(&mut feedback);
                        upd.write(&mut feedback);
                    }
                }
                self.charge_stream(&frames, pairs.len() as u64);
                if let Some((blocks, bins)) = &mut sweep {
                    par::bin_updates(&pairs, blocks, bins);
                } else {
                    for (v, upd) in pairs {
                        debug_assert!(self.is_master(v), "update routed to wrong master");
                        if apply(v, upd) {
                            activated += 1;
                        }
                    }
                }
            }
        }
        if let Some((_, bins)) = sweep {
            self.ctx.set_trace_scope(iter as u32, 0, 0);
            activated += if pipelined {
                self.fold_bins(bins, apply)
            } else {
                self.apply_blocked(bins, apply)
            };
        }
        self.stats.add(WorkMetric::UpdatesApplied, applied);

        if galois {
            // Gluon-style second phase: masters broadcast applied values
            // back to every machine's mirrors, then a BSP barrier.
            self.galois_broadcast(P::Update::SIZE, feedback);
        }
        activated
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
    /// *local master* frontier vertices, routes updates to destination
    /// masters, applies them via `apply`. Returns local activations.
    /// Collective.
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
        let galois = matches!(self.cfg.policy, Policy::Galois);

        debug_assert!(
            frontier.iter().all(|&u| self.is_master(u)),
            "push frontier must be local masters"
        );
        let pc = self.par_cfg();
        let pass = par::push_pass(prog, self.graph, self.partition(), frontier, pc);
        self.stats.add(WorkMetric::EdgesTraversed, pass.edges);
        self.stats
            .add(WorkMetric::VerticesExamined, frontier.len() as u64);
        self.stats.add(WorkMetric::UpdatesEmitted, pass.emitted);
        self.ctx.compute_sharded(&pass.chunk_costs, pc.threads);

        let mut outboxes = pass.outboxes;
        let tag = Tag::new(TagKind::Update, iter * p as u64, 0);
        // Pipelined exchange: gather state up front, swept between sends,
        // so early senders' frames are absorbed while later outboxes are
        // still being shipped. Push consumes sources in rank order.
        let pipelined = self.cfg.pipelined();
        let specs: Vec<(usize, Tag)> = (0..p).filter(|&m| m != rank).map(|m| (m, tag)).collect();
        let mut streams: Vec<PipeStream<P::Update>> = if pipelined {
            self.pipe_streams(&specs)
        } else {
            Vec::new()
        };
        for (m, outbox) in outboxes.iter_mut().enumerate() {
            if m != rank {
                let payload = std::mem::take(outbox);
                self.send_updates(m, tag, P::Update::SIZE, payload);
                if pipelined {
                    self.sweep_streams(&mut streams);
                }
            }
        }

        let mut activated = 0u64;
        let mut applied = 0u64;
        let mut feedback: Vec<u8> = Vec::new();
        let mut sweep = self.blocked_bins::<P::Update>();
        let mut si = 0usize;
        for m in 0..p {
            if m == rank || !pipelined {
                let buf = if m == rank {
                    std::mem::take(&mut outboxes[rank])
                } else {
                    self.recv_updates(m, tag, P::Update::SIZE)
                };
                let (pairs, costs) = par::decode_pass::<P::Update>(&buf, pc);
                applied += pairs.len() as u64;
                if galois {
                    // Gluon broadcasts every reduced value back to the
                    // mirrors, whether or not it activated the vertex.
                    // Written at decode time, so the feedback bytes are
                    // identical under both apply layouts.
                    for &(v, upd) in &pairs {
                        v.write(&mut feedback);
                        upd.write(&mut feedback);
                    }
                }
                let charge = if let Some((blocks, bins)) = &mut sweep {
                    // As in pull: the pipelined sweep is a pure fold, so
                    // the local buffer's records are charged here.
                    par::bin_updates(&pairs, blocks, bins);
                    m == rank && pipelined
                } else {
                    for (v, upd) in pairs {
                        debug_assert!(self.is_master(v), "update routed to wrong master");
                        if apply(v, upd) {
                            activated += 1;
                        }
                    }
                    true
                };
                if charge {
                    self.ctx.apply_sharded(&costs, pc.threads);
                }
                self.recycle_buf(m, buf);
            } else {
                self.complete_stream(&mut streams, si, P::Update::SIZE);
                if streams[si].decoded.is_none() {
                    self.decode_stream(&mut streams[si], P::Update::SIZE);
                }
                let st = &mut streams[si];
                debug_assert_eq!(st.src, m, "streams follow rank order");
                let (pairs, _) = st.decoded.take().expect("decoded above");
                let frames = std::mem::take(&mut st.frames);
                si += 1;
                applied += pairs.len() as u64;
                if galois {
                    for &(v, upd) in &pairs {
                        v.write(&mut feedback);
                        upd.write(&mut feedback);
                    }
                }
                self.charge_stream(&frames, pairs.len() as u64);
                if let Some((blocks, bins)) = &mut sweep {
                    par::bin_updates(&pairs, blocks, bins);
                } else {
                    for (v, upd) in pairs {
                        debug_assert!(self.is_master(v), "update routed to wrong master");
                        if apply(v, upd) {
                            activated += 1;
                        }
                    }
                }
            }
        }
        if let Some((_, bins)) = sweep {
            activated += if pipelined {
                self.fold_bins(bins, apply)
            } else {
                self.apply_blocked(bins, apply)
            };
        }
        self.stats.add(WorkMetric::UpdatesApplied, applied);
        if galois {
            self.galois_broadcast(P::Update::SIZE, feedback);
        }
        activated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
