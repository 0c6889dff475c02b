//! The cluster: nodes, tagged point-to-point messages, and collectives,
//! all with virtual-time accounting, over one transport port per node.
//!
//! Protocol contract (SPMD, like MPI): every node runs the same closure;
//! collectives must be called by all nodes in the same order; point-to-point
//! receives name their source and tag. Receives are blocking with a
//! generous timeout so protocol bugs surface as diagnostics instead of
//! hangs.
//!
//! The message protocol is written against the crate-private transport
//! port, whose two backends differ only in their inbox discipline:
//! everything in this module — tag matching, clock accounting,
//! collectives, reliable delivery, tracing — is shared, which is why
//! outputs, `CommStats`, virtual time, and traces are bit-identical
//! between [`Backend::Sim`] and [`Backend::Thread`]. Construct clusters
//! through [`ClusterBuilder`].
//!
//! A tag names one message: a second send to the same destination under
//! a tag fails the run with [`Cause::TagReused`].
//!
//! With a [`FaultPlan`] installed ([`Cluster::fault_plan`]), every message
//! additionally runs through a reliable-delivery layer: copies can be
//! dropped (retransmitted after an RTO, charged as
//! [`SpanCategory::Retry`]), delayed, duplicated (discarded by the
//! receiver, which already holds or has delivered its `(src, tag)`), or
//! physically reordered (held back by the sender and flushed behind
//! younger traffic). The engine above sees exactly-once delivery either
//! way — outputs, work counters, and trace structure stay bit-identical
//! to the fault-free run; only [`crate::ReliableStats`] and the virtual
//! clock absorb the damage.

use crate::transport::{connect, Backend, Envelope, Port};
use crate::{
    encode_slice, Cause, CommKind, CostModel, FaultPlan, NetError, RunError, Wire, RETRY_ATTEMPTS,
};
use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use symple_trace::{NodeTrace, SpanCategory, Trace, TraceLevel, TraceRecorder};

/// Message tag kinds. The engine uses [`TagKind::Dep`] for dependency
/// messages, [`TagKind::Update`] for signal/slot updates; collectives use
/// an internal kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TagKind {
    /// Dependency propagation between circulant steps.
    Dep,
    /// Mirror → master updates.
    Update,
    /// Internal: collectives (barrier, allreduce, allgather).
    Collective,
    /// Free-form user messages (tests, tools).
    User,
}

/// A message tag: kind plus two application-defined discriminators
/// (typically step and buffer-group). A tag names one message per
/// `(src, dst)` per run: a second send under it fails with
/// [`Cause::TagReused`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag {
    /// The kind of message.
    pub kind: TagKind,
    /// First discriminator (e.g. global step counter).
    pub a: u64,
    /// Second discriminator (e.g. double-buffering group).
    pub b: u32,
}

impl Tag {
    /// Convenience constructor.
    pub fn new(kind: TagKind, a: u64, b: u32) -> Self {
        Tag { kind, a, b }
    }
}

/// Per-node state of the reliable-delivery protocol (present only when a
/// fault plan is installed). A tag names one message, so the whole
/// protocol — fates, retransmits, duplicate drops — is a pure function of
/// the plan and the tags, independent of host scheduling or thread count.
struct ReliableLink {
    plan: FaultPlan,
    /// Every (src, tag) this node has accepted: a later copy is a duplicate.
    delivered: HashSet<(usize, Tag)>,
}

/// Per-node handle passed to the node closure: message passing, collectives,
/// virtual clock, and communication statistics.
pub struct NodeCtx {
    rank: usize,
    world: usize,
    clock: f64,
    cost: CostModel,
    /// The transport endpoint carrying this node's traffic; everything
    /// above it (tag matching, clocks, reliability) is backend-agnostic.
    port: Port,
    /// Messages that arrived before their receive, by (source, tag): a tag
    /// names one message, so one envelope per key (a duplicate copy is
    /// dropped, never queued).
    pending: HashMap<(usize, Tag), Envelope>,
    /// Every (destination, tag) this node has sent under: one set insert
    /// per message rejects a reused tag.
    sent: HashSet<(usize, Tag)>,
    coll_epoch: u64,
    /// Spans, cells and the communication ledger: every event below is
    /// counted here, once.
    trace: TraceRecorder,
    in_barrier: bool,
    /// Reliable-delivery protocol state; `None` without a fault plan.
    reliable: Option<ReliableLink>,
    /// Envelopes the fault plan marked for physical reordering, held back
    /// per destination until younger traffic has overtaken them. Flushed
    /// behind the next undeferred send to the same peer, at every receive
    /// (so a fully-deferred exchange cannot deadlock), and when the node
    /// closure returns. BTreeMap so the flush order is deterministic.
    deferred: BTreeMap<usize, VecDeque<Envelope>>,
}

impl NodeCtx {
    /// This node's rank in `0..world()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of nodes in the cluster.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Current virtual time in seconds.
    pub fn virtual_clock(&self) -> f64 {
        self.clock
    }

    /// Counts an encode's chosen-format bytes in this node's
    /// [`crate::CommStats`] (and, at metrics trace levels, its current
    /// trace cell).
    pub fn record_wire_formats(&mut self, formats: &crate::CodecStats) {
        self.trace.record_wire_formats(&formats.bytes);
    }

    /// Advances the virtual clock by the *critical path* of a chunked
    /// compute pass: per-chunk `(edges, vertices)` costs are scheduled
    /// onto `threads` lanes with [`CostModel::schedule_lanes`] and the
    /// busiest lane's time is charged — the modelled makespan of the
    /// intra-machine executor, not the total work.
    ///
    /// With `threads <= 1` (or a single chunk) this is one
    /// [`CostModel::compute_time`] charge on the summed chunks; otherwise
    /// each lane's integer totals go through one `compute_time` call so
    /// the charge is deterministic regardless of how the real thread pool
    /// interleaved. Per-lane busy times are traced as parallel compute
    /// spans (see `TraceRecorder::record_lanes`).
    pub fn compute_sharded(&mut self, chunks: &[(u64, u64)], threads: usize) {
        self.sharded(SpanCategory::Compute, chunks, threads);
    }

    /// [`NodeCtx::compute_sharded`], but charged to
    /// [`SpanCategory::Apply`]: the gather phase applying consumed
    /// updates at their masters. Identical critical-path math — only the
    /// trace attribution differs, so the apply phase is separable from
    /// signal-side edge work in reports.
    pub fn apply_sharded(&mut self, chunks: &[(u64, u64)], threads: usize) {
        self.sharded(SpanCategory::Apply, chunks, threads);
    }

    fn sharded(&mut self, category: SpanCategory, chunks: &[(u64, u64)], threads: usize) {
        if threads <= 1 || chunks.len() <= 1 {
            let (edges, verts) = chunks
                .iter()
                .fold((0u64, 0u64), |a, &(e, v)| (a.0 + e, a.1 + v));
            let start = self.clock;
            self.clock += self.cost.compute_time(edges, verts);
            self.trace.record_span(category, start, self.clock);
            return;
        }
        let lane_secs: Vec<f64> = self
            .cost
            .schedule_lanes(chunks, threads)
            .iter()
            .map(|&(e, v)| self.cost.compute_time(e, v))
            .collect();
        let start = self.clock;
        self.clock += self.trace.record_lanes(category, start, &lane_secs);
    }

    /// Advances the virtual clock by `seconds` of arbitrary modelled work.
    pub fn advance(&mut self, seconds: f64) {
        let start = self.clock;
        self.clock += seconds;
        self.trace
            .record_span(SpanCategory::Compute, start, self.clock);
    }

    /// Sets the (iteration, circulant step, buffer group) scope that
    /// subsequent clock advances and byte movements are attributed to.
    pub fn set_trace_scope(&mut self, iteration: u32, step: u32, group: u32) {
        self.trace.set_scope(iteration, step, group);
    }

    /// The span category charged for time spent waiting on a message of
    /// `kind`: dependency messages are the loop-carried chain
    /// ([`SpanCategory::DepWait`]), collectives split into barrier wait vs
    /// other collectives, and everything else is update traffic.
    fn wait_category(&self, kind: TagKind) -> SpanCategory {
        match kind {
            TagKind::Dep => SpanCategory::DepWait,
            TagKind::Collective if self.in_barrier => SpanCategory::Barrier,
            TagKind::Collective => SpanCategory::Collective,
            TagKind::Update | TagKind::User => SpanCategory::Send,
        }
    }

    /// Fails this node's run: unwinds with the [`RunError`] of `cause` on
    /// `tag` at the current trace scope. The one place a run failure is
    /// built; [`Cluster::run`] picks the root cause among them by type.
    #[cold]
    pub fn fail(&self, tag: Tag, cause: Cause) -> ! {
        let (iteration, step) = (self.trace.scope().iteration, self.trace.scope().step);
        let err = RunError {
            rank: self.rank,
            iteration,
            step,
            tag,
            cause,
        };
        std::panic::resume_unwind(Box::new(err))
    }

    /// Puts one envelope on the wire, failing the run on a blocked send.
    fn put(&mut self, dst: usize, env: Envelope) {
        if let Err(env) = self.port.send(dst, env) {
            self.fail(env.tag, Cause::Blocked { dst });
        }
    }

    /// Sends `payload` to `dst` with the given tag, accounted under `kind`.
    ///
    /// # Panics
    ///
    /// Panics on self-send (a protocol error: local work needs no message)
    /// or if `dst` is out of range. Fails the run ([`NodeCtx::fail`]) on a
    /// tag already sent to `dst` ([`Cause::TagReused`]), if all
    /// [`RETRY_ATTEMPTS`] copies are dropped ([`Cause::Unreachable`]) or if
    /// a bounded send blocks past the receive timeout ([`Cause::Blocked`]).
    pub fn send(&mut self, dst: usize, tag: Tag, kind: CommKind, payload: Vec<u8>) {
        self.send_shared(dst, tag, kind, Arc::new(payload));
    }

    /// [`NodeCtx::send`] on an already-shared buffer: collectives
    /// broadcast one allocation to every peer instead of cloning per
    /// destination. Accounting is identical to `send`.
    fn send_shared(&mut self, dst: usize, tag: Tag, kind: CommKind, payload: Arc<Vec<u8>>) {
        self.account(dst, tag, kind, payload.len() as u64);
        self.dispatch(dst, tag, payload, usize::MAX);
    }

    /// The logical half of a send, done once per message however many
    /// frames it is modelled as: the reused-tag check, the serialize
    /// charge and the ledger record of a `bytes`-long payload of `kind`
    /// for `dst`.
    ///
    /// Empty payloads are protocol placeholders (the receiver still
    /// blocks on the tag): they ship zero bytes and are charged zero
    /// header cost, and they do not count as traffic. Either way the
    /// logical message is accounted exactly once, here — the reliable
    /// layer below only ever adds to the separate retry counters, so
    /// byte/message accounting matches the fault-free run bit for bit.
    fn account(&mut self, dst: usize, tag: Tag, kind: CommKind, bytes: u64) {
        assert!(dst < self.world, "destination rank {dst} out of range");
        assert_ne!(dst, self.rank, "self-send is a protocol error");
        if !self.sent.insert((dst, tag)) {
            self.fail(tag, Cause::TagReused { dst });
        }
        if bytes > 0 {
            let start = self.clock;
            self.clock += self.cost.send_overhead(bytes);
            self.trace
                .record_span(SpanCategory::Serialize, start, self.clock);
            self.trace.record_message(kind, bytes);
        }
    }

    /// Puts one already-accounted payload on the wire as one envelope
    /// carrying its modelled frame schedule: the payload is `chunk`-byte
    /// frames, a short one last (an evenly divisible payload, the empty
    /// one included, ends with an empty frame; a payload shorter than
    /// `chunk` is one frame). Frame `k` departs the wire time of the bytes
    /// before it after the sender's clock, so the last frame arrives
    /// exactly when the whole message would have.
    ///
    /// Under a fault plan each frame gets its own schedule: its retry
    /// charge, timeout, retransmit and duplicate counts and its injected
    /// delay, scaled to its own bytes. Its fate is the message's, since
    /// `FaultPlan::roll` hashes the message's `(src, dst, tag)` and never
    /// the frame, so the envelope is reordered or duplicated as a whole.
    /// Fails the run if every copy is dropped.
    fn dispatch(&mut self, dst: usize, tag: Tag, payload: Arc<Vec<u8>>, chunk: usize) {
        let plan = self.reliable.as_ref().map(|link| link.plan);
        let total = payload.len();
        let per_byte = self.cost.per_byte_sec;
        let mut frames = Vec::with_capacity(total / chunk + 1);
        let (mut reorder, mut duplicate) = (false, false);
        for k in 0..=total / chunk {
            let pos = k * chunk;
            let len = chunk.min(total - pos);
            let offset = pos as f64 * per_byte;
            let Some(plan) = plan else {
                frames.push((len, self.clock + offset));
                continue;
            };
            let bytes = len as u64;
            let quantum = self.cost.retry_timeout(bytes);
            let schedule = plan.schedule(quantum, self.rank, dst, tag);
            // Copies resent after an ack timeout: the sender pays one header
            // overhead per resend (charged to the Retry category) and the
            // resent traffic is tallied in the reliable counters — never in
            // the per-kind byte/message arrays.
            let (timeouts, retransmits) = match &schedule {
                Some(d) => (d.retransmits, d.retransmits),
                None => (RETRY_ATTEMPTS, RETRY_ATTEMPTS - 1),
            };
            if retransmits > 0 {
                let start = self.clock;
                self.clock += f64::from(retransmits) * self.cost.send_overhead(bytes);
                self.trace
                    .record_span(SpanCategory::Retry, start, self.clock);
                self.trace
                    .record_retransmits(dst, u64::from(retransmits), bytes);
            }
            self.trace.record_timeouts(u64::from(timeouts));
            let Some(delivery) = schedule else {
                self.fail(tag, Cause::Unreachable { dst });
            };
            // The surviving copy departs after the expired timers and any
            // injected transit delay; only the resend overhead above touched
            // the sender's clock (the protocol does not block on acks).
            frames.push((len, self.clock + offset + delivery.extra_delay));
            if delivery.duplicate_delay.is_some() {
                // Counted here, at injection, not where the receiver discards
                // the copy: whether a stale duplicate is ever drained from the
                // receiver's channel depends on host timing (one trailing the
                // last message a node consumes never is), while the injection
                // itself is a pure function of the plan — so this is the spot
                // that keeps the counter deterministic and thread-invariant.
                self.trace.record_dup_drop();
                duplicate = true;
            }
            reorder = delivery.reorder;
        }
        let env = Envelope {
            src: self.rank,
            tag,
            frames,
            payload,
            poison: false,
        };
        // The receiver discards a duplicate by its (src, tag) before
        // reading its schedule, and it never overtakes its original.
        let duplicate = duplicate.then(|| Envelope {
            frames: env.frames.clone(),
            payload: Arc::clone(&env.payload),
            ..env
        });
        if reorder {
            // Held back: this copy goes on the wire only after younger
            // traffic to the same peer has physically overtaken it.
            let held = self.deferred.entry(dst).or_default();
            held.push_back(env);
            held.extend(duplicate);
        } else {
            self.put(dst, env);
            if let Some(dup) = duplicate {
                self.put(dst, dup);
            }
            self.flush_deferred(dst);
        }
    }

    /// Puts every envelope held back for `dst` on the wire (in their
    /// original order, but physically behind whatever was sent meanwhile).
    fn flush_deferred(&mut self, dst: usize) {
        if let Some(held) = self.deferred.remove(&dst) {
            for env in held {
                self.put(dst, env);
            }
        }
    }

    /// Flushes every held-back envelope to every peer. Called before
    /// blocking on a receive — a node must not sit on traffic its peers
    /// may need to make progress — and when the node closure returns.
    fn flush_all_deferred(&mut self) {
        while let Some((&dst, _)) = self.deferred.iter().next() {
            self.flush_deferred(dst);
        }
    }

    /// Receives the message with exactly `tag` from `src`, blocking until it
    /// arrives. Advances the virtual clock to the modelled arrival time,
    /// charging the wait to the tag's usual category. Returns the payload.
    ///
    /// Under a fault plan this is where the reliable layer re-establishes
    /// exactly-once delivery: a copy whose (src, tag) is already buffered
    /// or delivered (a duplicate or a late retransmitted copy) is
    /// discarded, and the accepted message is acknowledged (acks are
    /// zero-byte and free).
    ///
    /// # Panics
    ///
    /// Fails the run ([`NodeCtx::fail`]) with [`Cause::Timeout`] if
    /// nothing matching arrives within the timeout (protocol deadlock),
    /// and with [`Cause::PeerFailed`] if a peer's run fails meanwhile.
    pub fn recv(&mut self, src: usize, tag: Tag) -> Vec<u8> {
        let mut payload = Vec::new();
        self.recv_framed_into(src, tag, usize::MAX, &mut payload);
        payload
    }

    /// Buffers an envelope that is not the one being waited on, discarding
    /// it right away if its (src, tag) is already buffered or delivered (a
    /// duplicate or a late retransmitted copy). The discard is silent —
    /// injected duplicates are already tallied at the sender, where the
    /// count is deterministic.
    fn stash(&mut self, env: Envelope) {
        if !self.delivered(env.src, env.tag) {
            self.pending.entry((env.src, env.tag)).or_insert(env);
        }
    }

    /// Has this node already accepted the (src, tag) message? Always false
    /// without a fault plan, where no copy is ever sent twice.
    fn delivered(&self, src: usize, tag: Tag) -> bool {
        let link = self.reliable.as_ref();
        link.is_some_and(|l| l.delivered.contains(&(src, tag)))
    }

    /// The tag of this node's latest collective.
    pub fn collective_tag(&self) -> Tag {
        Tag::new(TagKind::Collective, self.coll_epoch, 0)
    }

    /// Exchanges `payload` with every other node (all-to-all of the same
    /// buffer) and returns the payloads indexed by rank (own rank maps to
    /// the input). All nodes must call this collectively.
    pub fn allgather_bytes(&mut self, payload: Vec<u8>, kind: CommKind) -> Vec<Vec<u8>> {
        self.coll_epoch += 1;
        let tag = self.collective_tag();
        // One shared buffer for the whole broadcast: peers consume (or
        // clone on arrival if needed) the same allocation, and the local
        // slot clones at most once — if every peer has already taken its
        // copy, even that clone is skipped.
        let shared = Arc::new(payload);
        for dst in 0..self.world {
            if dst != self.rank {
                self.send_shared(dst, tag, kind, Arc::clone(&shared));
            }
        }
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(self.world);
        for src in 0..self.world {
            if src == self.rank {
                // Reserve the slot; filled from `shared` after the
                // receives so peers get a chance to drop their references.
                out.push(Vec::new());
            } else {
                let buf = self.recv(src, tag);
                out.push(buf);
            }
        }
        out[self.rank] = Arc::try_unwrap(shared).unwrap_or_else(|s| (*s).clone());
        out
    }

    /// Synchronises all nodes; afterwards every node's virtual clock equals
    /// the maximum clock at entry (plus the modelled exchange cost).
    pub fn barrier(&mut self) {
        self.in_barrier = true;
        let max = self
            .allgather_value(self.clock)
            .fold(f64::NEG_INFINITY, f64::max);
        self.in_barrier = false;
        if max > self.clock {
            let start = self.clock;
            self.clock = max;
            self.trace
                .record_span(SpanCategory::Barrier, start, self.clock);
        }
    }

    /// Sums `value` across all nodes. Collective.
    pub fn allreduce_u64_sum(&mut self, value: u64) -> u64 {
        self.allgather_value(value).sum()
    }

    /// The decoded value of `src`'s message `tag`; a message that does
    /// not decode fails the run with [`Cause::Corrupt`].
    pub fn decoded<T>(&self, src: usize, tag: Tag, res: Result<T, crate::CodecError>) -> T {
        match res {
            Ok(v) => v,
            Err(err) => self.fail(tag, Cause::Corrupt { src, err }),
        }
    }

    /// Allgathers one wire value per node, in rank order. Collective.
    /// Fails the run with [`Cause::Corrupt`] on a value that does not
    /// decode.
    pub fn allgather_value<T: Wire>(&mut self, value: T) -> impl Iterator<Item = T> + '_ {
        let all = self.allgather_bytes(encode_slice(&[value]), CommKind::Sync);
        let tag = self.collective_tag();
        (all.into_iter().enumerate())
            .map(move |(src, bytes)| self.decoded(src, tag, T::decode(&bytes)))
    }

    // === Framed exchange ===
    //
    // One logical message, one physical envelope, many modelled frames:
    // `send_framed` gives an already-encoded payload a `chunk`-byte frame
    // schedule with staggered departure times, and `recv_frames` returns
    // the payload with each frame's modelled arrival, leaving the arrival
    // waits to whoever consumes it. Logical accounting (CommStats, byte
    // trace cells) is done once per message, exactly as for an unframed
    // send, so framing is invisible in outputs and traffic; only where the
    // virtual clock spends its waits differs.

    /// Sends `payload` to `dst` as `chunk`-byte frames (see
    /// `NodeCtx::dispatch` for the schedule). Accounting is identical to
    /// [`NodeCtx::send`]: one serialize charge, one ledger record for the
    /// whole message; the payload is copied once, into the envelope.
    ///
    /// # Panics
    ///
    /// As [`NodeCtx::send`]; additionally if `chunk == 0`.
    pub fn send_framed(
        &mut self,
        dst: usize,
        tag: Tag,
        kind: CommKind,
        payload: &[u8],
        chunk: usize,
    ) {
        assert!(chunk > 0, "exchange chunk must be at least 1 byte");
        self.account(dst, tag, kind, payload.len() as u64);
        self.dispatch(dst, tag, Arc::new(payload.to_vec()), chunk);
    }

    /// Moves every envelope already sitting in the transport inbox into
    /// the pending buffer, without blocking and without touching the
    /// virtual clock: envelopes keep their frame schedules, so draining
    /// early is logically invisible. The engine calls it once per pull
    /// step; it exists for wall time alone (DESIGN.md §14).
    pub fn poll_drain(&mut self) {
        while let Some(env) = self.port.try_recv() {
            let env = self.unpoisoned(env);
            self.stash(env);
        }
    }

    /// Passes `env` through unless it is a peer's poison, the envelope a
    /// node whose run failed sends every peer: then this node fails with
    /// [`Cause::PeerFailed`] at once instead of waiting out its receive
    /// timeout.
    fn unpoisoned(&self, env: Envelope) -> Envelope {
        if env.poison {
            self.fail(env.tag, Cause::PeerFailed { peer: env.src });
        }
        env
    }

    /// Accepts an envelope: under a fault plan marks its (src, tag)
    /// delivered and counts one (zero-byte, free) acknowledgement per
    /// frame. Returns the payload and each frame's `(bytes, modelled
    /// arrival)`.
    fn open(&mut self, env: Envelope) -> (Vec<u8>, Vec<(usize, f64)>) {
        if let Some(link) = &mut self.reliable {
            link.delivered.insert((env.src, env.tag));
            for _ in &env.frames {
                self.trace.record_ack();
            }
        }
        let arrival =
            |(len, depart): (usize, f64)| (len, depart + self.cost.arrival_delay(len as u64));
        let frames = env.frames.into_iter().map(arrival).collect();
        // Usually the last reference by now — take the buffer without
        // copying; fall back to one clone while the broadcast source (or a
        // slower sibling) still holds it.
        let payload = Arc::try_unwrap(env.payload).unwrap_or_else(|shared| (*shared).clone());
        (payload, frames)
    }

    /// Advances the virtual clock to `arrival` if it is ahead, charging
    /// the stall to `category`. The explicit-category counterpart of the
    /// implicit wait inside the blocking receive.
    pub fn wait_until(&mut self, arrival: f64, category: SpanCategory) {
        if arrival > self.clock {
            let start = self.clock;
            self.clock = arrival;
            self.trace.record_span(category, start, self.clock);
        }
    }

    /// Blocking receive of a message the peer sent with
    /// [`NodeCtx::send_framed`] in `chunk`-byte frames ([`NodeCtx::recv`]
    /// is the one-frame case), appended to `out` — which takes the
    /// message's own buffer when it is empty. Charges each frame's arrival
    /// wait to the tag's usual wait category; in a fault-free run the
    /// final clock equals an unframed receive of the same payload.
    ///
    /// # Panics
    ///
    /// As [`NodeCtx::recv_frames`].
    pub fn recv_framed_into(&mut self, src: usize, tag: Tag, chunk: usize, out: &mut Vec<u8>) {
        let (payload, frames) = self.recv_frames(src, tag);
        debug_assert!(
            frames.split_last().is_some_and(
                |(last, full)| last.0 < chunk && full.iter().all(|&(len, _)| len == chunk)
            ),
            "{tag:?} was not sent in {chunk}-byte frames"
        );
        let category = self.wait_category(tag.kind);
        for (_, arrival) in frames {
            self.wait_until(arrival, category);
        }
        if out.is_empty() {
            *out = payload;
        } else {
            out.extend_from_slice(&payload);
        }
    }

    /// Blocks for the (src, tag) message without advancing the clock and
    /// returns its payload and each frame's `(bytes, modelled arrival)` in
    /// frame order: the one blocking receive, under [`NodeCtx::recv`] and
    /// [`NodeCtx::recv_framed_into`] alike (under a fault plan it is
    /// acknowledged once per frame). Charges nothing: the caller replays
    /// the arrivals ([`NodeCtx::wait_until`]) when it consumes the message,
    /// in whatever order its model prescribes.
    ///
    /// # Panics
    ///
    /// Fails the run ([`NodeCtx::fail`]) with [`Cause::Timeout`] if
    /// nothing matching arrives within the timeout (protocol deadlock),
    /// and with [`Cause::PeerFailed`] if a peer's run fails meanwhile.
    pub fn recv_frames(&mut self, src: usize, tag: Tag) -> (Vec<u8>, Vec<(usize, f64)>) {
        // Release anything we are holding back before blocking: a peer may
        // be waiting on a deferred envelope of ours.
        self.flush_all_deferred();
        if let Some(env) = self.pending.remove(&(src, tag)) {
            return self.open(env);
        }
        // A message already accepted is never matched again: every later
        // copy of it is a duplicate.
        let fresh = !self.delivered(src, tag);
        let deadline = Instant::now() + self.port.timeout();
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.port.recv(remaining).map(|env| self.unpoisoned(env)) {
                // The awaited envelope is taken as it lands; everything
                // else (other tags, stale copies) is buffered or dropped
                // by `stash`.
                Some(env) if fresh && (env.src, env.tag) == (src, tag) => return self.open(env),
                Some(env) => self.stash(env),
                None => {
                    // A stall on `src`, listing what this node has buffered.
                    let mut pending: Vec<_> = self.pending.keys().copied().collect();
                    pending.sort_unstable();
                    self.fail(tag, Cause::Timeout { peer: src, pending })
                }
            }
        }
    }
}

/// Result of a cluster run.
#[derive(Debug)]
pub struct ClusterResult<T> {
    /// Per-node return values, indexed by rank.
    pub outputs: Vec<T>,
    /// Final virtual time: the maximum node clock (modelled makespan).
    pub virtual_time: f64,
    /// Host wall-clock duration of the whole run (includes spawn/join
    /// overhead; see [`ClusterResult::node_wall`] for per-node figures).
    pub wall: Duration,
    /// Measured wall-clock duration of each node's closure, indexed by
    /// rank — the per-node counterpart of `wall`, and the number to
    /// compare against per-node virtual clocks.
    pub node_wall: Vec<Duration>,
    /// Categorized virtual-time and traffic attribution, one track per
    /// machine (no cells at [`TraceLevel::Off`]); [`Trace::comm`] is the
    /// run's communication at every level.
    pub traces: Trace,
}

impl<T> ClusterResult<T> {
    /// The critical-path wall time: the slowest node's measured
    /// wall-clock duration. This — not [`ClusterResult::wall`], which
    /// also counts spawn/join overhead — is the measured analogue of
    /// [`ClusterResult::virtual_time`] (itself the max node clock).
    pub fn max_node_wall(&self) -> Duration {
        self.node_wall.iter().copied().max().unwrap_or_default()
    }
}

/// Validated construction of a [`Cluster`]: the one way the engine
/// driver, tests, benches and examples configure a cluster. A built
/// [`Cluster`] holds the builder that passed validation.
///
/// # Example
///
/// ```
/// use symple_net::{Backend, Cluster, CostModel, TraceLevel};
/// use std::time::Duration;
///
/// let cluster = Cluster::builder(4)
///     .cost(CostModel::cluster_a())
///     .backend(Backend::Thread)
///     .trace_level(TraceLevel::Metrics)
///     .recv_timeout(Duration::from_secs(30))
///     .build()
///     .unwrap();
/// let r = cluster.run(|ctx| ctx.allreduce_u64_sum(1));
/// assert_eq!(r.outputs, vec![4; 4]);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    nodes: usize,
    cost: CostModel,
    backend: Backend,
    recv_timeout: Duration,
    trace_level: TraceLevel,
    fault_plan: Option<FaultPlan>,
}

impl ClusterBuilder {
    /// Starts a builder for `nodes` nodes with the defaults: Cluster-A
    /// cost model, [`Backend::Sim`], 120 s deadlock timeout,
    /// [`TraceLevel::Metrics`], no fault plan.
    pub fn new(nodes: usize) -> Self {
        ClusterBuilder {
            nodes,
            cost: CostModel::cluster_a(),
            backend: Backend::Sim,
            recv_timeout: Duration::from_secs(120),
            trace_level: TraceLevel::default(),
            fault_plan: None,
        }
    }

    /// Sets the virtual-time cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Selects the inbox discipline (default [`Backend::Sim`]). Under
    /// [`Backend::Thread`] every inbox holds [`crate::CHANNEL_CAPACITY`]
    /// envelopes.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the deadlock-detection receive timeout, which also bounds
    /// a send blocked on a full inbox.
    pub fn recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// Sets how much each node records (default [`TraceLevel::Metrics`]).
    pub fn trace_level(mut self, level: TraceLevel) -> Self {
        self.trace_level = level;
        self
    }

    /// Installs a deterministic fault plan (default: none). Every message
    /// then runs through the reliable-delivery layer; node outputs stay
    /// identical to the fault-free run while [`crate::ReliableStats`]
    /// records the absorbed faults.
    pub fn fault_plan(mut self, plan: impl Into<Option<FaultPlan>>) -> Self {
        self.fault_plan = plan.into();
        self
    }

    /// Validates the configuration and builds the cluster.
    ///
    /// # Errors
    ///
    /// [`NetError::EmptyCluster`] for zero nodes,
    /// [`NetError::InvalidFaultPlan`] for a fault plan whose rates are not
    /// probabilities.
    pub fn build(self) -> Result<Cluster, NetError> {
        if self.nodes == 0 {
            return Err(NetError::EmptyCluster);
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate().map_err(NetError::InvalidFaultPlan)?;
        }
        Ok(Cluster(self))
    }
}

/// A cluster: `p` nodes with a shared cost model, each with one transport
/// port. Build with [`Cluster::builder`].
///
/// # Example
///
/// ```
/// use symple_net::{Cluster, CostModel, CommKind, Tag, TagKind};
/// let r = Cluster::builder(2).cost(CostModel::cluster_a()).build().unwrap().run(|ctx| {
///     let tag = Tag::new(TagKind::User, 0, 0);
///     if ctx.rank() == 0 {
///         ctx.send(1, tag, CommKind::Update, vec![1, 2, 3]);
///         0
///     } else {
///         ctx.recv(0, tag).len()
///     }
/// });
/// assert_eq!(r.outputs, vec![0, 3]);
/// assert_eq!(r.traces.comm().bytes(CommKind::Update), 3);
/// assert!(r.virtual_time > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Cluster(ClusterBuilder);

impl Cluster {
    /// Starts a validated [`ClusterBuilder`] for `nodes` nodes.
    pub fn builder(nodes: usize) -> ClusterBuilder {
        ClusterBuilder::new(nodes)
    }

    /// Runs `f` on every node (as a thread) and collects the results.
    ///
    /// # Panics
    ///
    /// Re-raises a failed run once, naming its root cause: the first node
    /// in rank order whose failure is its own — a [`RunError`] other than
    /// [`Cause::PeerFailed`], or a panic of `f` (`node R panicked: …`).
    pub fn run<T, F>(&self, f: F) -> ClusterResult<T>
    where
        T: Send,
        F: Fn(&mut NodeCtx) -> T + Sync,
    {
        let cfg = &self.0;
        let p = cfg.nodes;
        let ports = connect(p, cfg.backend, cfg.recv_timeout);
        let start = Instant::now();
        type Done<T> = Result<(T, f64, NodeTrace, Duration), Box<dyn Any + Send>>;
        let done: Vec<Done<T>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (ports.into_iter().enumerate())
                .map(|(rank, port)| {
                    let f = &f;
                    let reliable = cfg.fault_plan.map(|plan| ReliableLink {
                        plan,
                        delivered: HashSet::new(),
                    });
                    scope.spawn(move || {
                        let node_start = Instant::now();
                        let mut ctx = NodeCtx {
                            rank,
                            world: p,
                            clock: 0.0,
                            cost: cfg.cost,
                            port,
                            pending: HashMap::new(),
                            sent: HashSet::new(),
                            coll_epoch: 0,
                            trace: TraceRecorder::new(rank, cfg.trace_level),
                            in_barrier: false,
                            reliable,
                            deferred: BTreeMap::new(),
                        };
                        let run = std::panic::AssertUnwindSafe(|| {
                            let out = f(&mut ctx);
                            // Anything still held back for reordering must
                            // hit the wire before peers stop receiving.
                            ctx.flush_all_deferred();
                            out
                        });
                        match std::panic::catch_unwind(run) {
                            Ok(out) => {
                                let wall = node_start.elapsed();
                                let mut trace = ctx.trace.finish();
                                trace.wall_secs = wall.as_secs_f64();
                                trace.comm_wall_secs = ctx.port.comm_wall().as_secs_f64();
                                Ok((out, ctx.clock, trace, wall))
                            }
                            Err(failure) => {
                                // Poison every peer: none waits out its timeout.
                                for dst in (0..p).filter(|&dst| dst != rank) {
                                    let poison = Envelope {
                                        src: rank,
                                        tag: Tag::new(TagKind::Collective, u64::MAX, 0),
                                        frames: Vec::new(),
                                        payload: Arc::new(Vec::new()),
                                        poison: true,
                                    };
                                    ctx.port.poison(dst, poison);
                                }
                                Err(failure)
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().and_then(|d| d))
                .collect()
        });
        let wall = start.elapsed();
        let peer_failed = |e: &(dyn Any + Send)| {
            let cause = e.downcast_ref::<RunError>().map(|e| &e.cause);
            matches!(cause, Some(Cause::PeerFailed { .. }))
        };
        let failures =
            (done.iter().enumerate()).filter_map(|(r, d)| Some((r, &**d.as_ref().err()?)));
        if let Some((rank, failure)) = failures.min_by_key(|&(r, e)| (peer_failed(e), r)) {
            let why = match failure.downcast_ref::<RunError>() {
                Some(e) => e.to_string(),
                None => {
                    // A panic of `f`: its payload is a `String` or a `&str`.
                    let text = failure.downcast_ref::<String>().map(String::as_str);
                    let text = text.or_else(|| failure.downcast_ref::<&str>().copied());
                    format!("node {rank} panicked: {}", text.unwrap_or("<non-string>"))
                }
            };
            panic!("{why}");
        }
        let (outputs, clocks, node_traces, node_wall): (_, Vec<f64>, _, _) =
            done.into_iter().flatten().collect();
        ClusterResult {
            outputs,
            virtual_time: clocks.into_iter().fold(0.0, f64::max),
            wall,
            node_wall,
            traces: Trace::new(node_traces),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CHANNEL_CAPACITY;

    fn user_tag(a: u64) -> Tag {
        Tag::new(TagKind::User, a, 0)
    }

    /// Builder shorthand used throughout the tests.
    fn cluster(nodes: usize, cost: CostModel) -> ClusterBuilder {
        Cluster::builder(nodes).cost(cost)
    }

    #[test]
    fn single_node_runs() {
        let r = cluster(1, CostModel::zero())
            .build()
            .unwrap()
            .run(|ctx| ctx.rank());
        assert_eq!(r.outputs, vec![0]);
        assert_eq!(r.traces.comm().total_bytes(), 0);
    }

    #[test]
    fn point_to_point_delivery() {
        let r = cluster(3, CostModel::zero()).build().unwrap().run(|ctx| {
            // ring: rank sends its rank to rank+1
            let next = (ctx.rank() + 1) % 3;
            let prev = (ctx.rank() + 2) % 3;
            ctx.send(next, user_tag(0), CommKind::Update, vec![ctx.rank() as u8]);
            ctx.recv(prev, user_tag(0))[0]
        });
        assert_eq!(r.outputs, vec![2, 0, 1]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let r = cluster(2, CostModel::zero()).build().unwrap().run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, user_tag(1), CommKind::Update, vec![1]);
                ctx.send(1, user_tag(2), CommKind::Update, vec![2]);
                0
            } else {
                // receive in reverse order
                let b = ctx.recv(0, user_tag(2))[0];
                let a = ctx.recv(0, user_tag(1))[0];
                (10 * a + b) as usize
            }
        });
        assert_eq!(r.outputs[1], 12);
    }

    #[test]
    fn compute_sharded_matches_sequential_on_one_thread() {
        let cost = CostModel {
            per_edge_sec: 2.0,
            per_vertex_sec: 1.0,
            ..CostModel::zero()
        };
        let r = cluster(1, cost).build().unwrap().run(|ctx| {
            ctx.compute_sharded(&[(1, 2), (2, 2)], 1);
            ctx.virtual_clock()
        });
        // Same charge as one (3, 4) chunk.
        assert!((r.outputs[0] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn compute_sharded_charges_critical_path_on_many_threads() {
        let cost = CostModel {
            per_edge_sec: 1.0,
            per_vertex_sec: 0.0,
            ..CostModel::zero()
        };
        let chunks = [(10, 0), (1, 0), (1, 0), (1, 0)];
        let r = cluster(1, cost)
            .trace_level(TraceLevel::Full)
            .build()
            .unwrap()
            .run(|ctx| {
                ctx.compute_sharded(&chunks, 2);
                ctx.virtual_clock()
            });
        // Greedy 2-lane schedule: lane 0 = [10], lane 1 = [1, 1, 1].
        assert_eq!(r.outputs[0], cost.critical_path(&chunks, 2));
        assert_eq!(r.outputs[0], 10.0, "max lane, not the 13.0 sum");
        let node = &r.traces.nodes[0];
        assert_eq!(
            node.time(SpanCategory::Compute),
            10.0,
            "cell charges the makespan"
        );
        assert_eq!(node.compute_cpu(), 13.0, "cpu keeps the full work");
        assert_eq!(node.max_lanes(), 2);
        // Both lanes show up as overlapping spans starting together.
        assert_eq!(node.spans.len(), 2);
        assert!(node.spans.iter().all(|s| s.start == 0.0));
    }

    #[test]
    fn allreduce_and_allgather() {
        let r = cluster(4, CostModel::zero()).build().unwrap().run(|ctx| {
            let sum = ctx.allreduce_u64_sum(ctx.rank() as u64 + 1);
            let gathered = ctx.allgather_bytes(vec![ctx.rank() as u8], CommKind::Sync);
            let ranks: Vec<u8> = gathered.iter().map(|b| b[0]).collect();
            (sum, ranks)
        });
        for (sum, ranks) in r.outputs {
            assert_eq!(sum, 10);
            assert_eq!(ranks, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn virtual_time_accounts_for_transfer() {
        let cost = CostModel {
            per_edge_sec: 0.0,
            per_vertex_sec: 0.0,
            msg_latency_sec: 1.0,
            per_byte_sec: 0.5,
            msg_overhead_sec: 0.25,
        };
        let r = cluster(2, cost).build().unwrap().run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, user_tag(0), CommKind::Update, vec![0; 4]);
            } else {
                ctx.recv(0, user_tag(0));
            }
            ctx.virtual_clock()
        });
        // sender: overhead 0.25. receiver: 0.25 + latency 1.0 + 4*0.5 = 3.25
        assert!((r.outputs[0] - 0.25).abs() < 1e-12);
        assert!((r.outputs[1] - 3.25).abs() < 1e-12);
        assert!((r.virtual_time - 3.25).abs() < 1e-12);
    }

    #[test]
    fn barrier_equalizes_clocks() {
        let r = cluster(3, CostModel::zero()).build().unwrap().run(|ctx| {
            if ctx.rank() == 1 {
                ctx.advance(5.0);
            }
            ctx.barrier();
            ctx.virtual_clock()
        });
        for c in r.outputs {
            assert!((c - 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn stats_are_aggregated() {
        let r = cluster(2, CostModel::zero()).build().unwrap().run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, user_tag(0), CommKind::Dependency, vec![0; 10]);
                ctx.send(1, user_tag(1), CommKind::Update, vec![0; 6]);
            } else {
                ctx.recv(0, user_tag(0));
                ctx.recv(0, user_tag(1));
            }
        });
        assert_eq!(r.traces.comm().bytes(CommKind::Dependency), 10);
        assert_eq!(r.traces.comm().bytes(CommKind::Update), 6);
        assert_eq!(r.traces.nodes[0].comm().total_messages(), 2);
        assert_eq!(r.traces.nodes[1].comm().total_messages(), 0);
    }

    #[test]
    #[should_panic(expected = "node 1 panicked")]
    fn node_panic_is_reported_with_rank() {
        cluster(2, CostModel::zero())
            .recv_timeout(Duration::from_millis(200))
            .build()
            .unwrap()
            .run(|ctx| {
                if ctx.rank() == 1 {
                    panic!("boom");
                }
            });
    }

    /// Runs `wait` on rank 0 while rank 1 panics with "boom", under a
    /// receive timeout far longer than the run may take. Returns the
    /// message `Cluster::run` re-raised and how long the run took.
    fn panic_while_rank_0_waits(backend: Backend, wait: fn(&mut NodeCtx)) -> (String, Duration) {
        let cluster = cluster(2, CostModel::zero())
            .backend(backend)
            .recv_timeout(Duration::from_secs(60))
            .build()
            .unwrap();
        let started = Instant::now();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster.run(|ctx| {
                if ctx.rank() == 1 {
                    panic!("boom");
                }
                wait(ctx);
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        (msg, started.elapsed())
    }

    #[test]
    fn a_peer_panic_aborts_a_blocked_recv() {
        for backend in [Backend::Sim, Backend::Thread] {
            let (msg, took) = panic_while_rank_0_waits(backend, |ctx| {
                ctx.recv(1, user_tag(0));
            });
            assert_eq!(msg, "node 1 panicked: boom", "{backend}");
            assert!(took < Duration::from_secs(10), "{backend}: took {took:?}");
        }
    }

    #[test]
    fn the_root_cause_is_picked_by_type_not_by_text() {
        let cluster = cluster(2, CostModel::zero())
            .recv_timeout(Duration::from_secs(60))
            .build()
            .unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster.run(|ctx| {
                if ctx.rank() == 1 {
                    panic!("aborting: on purpose");
                }
                ctx.recv(1, user_tag(0));
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "node 1 panicked: aborting: on purpose");
    }

    #[test]
    fn a_peer_panic_aborts_a_poll_drain_spin() {
        for backend in [Backend::Sim, Backend::Thread] {
            let (msg, took) = panic_while_rank_0_waits(backend, |ctx| {
                // Only the poison ends this spin early; the deadline keeps
                // a node that ignores it from hanging the test.
                let give_up = Instant::now() + Duration::from_secs(60);
                while Instant::now() < give_up {
                    ctx.poll_drain();
                    std::thread::yield_now();
                }
            });
            assert_eq!(msg, "node 1 panicked: boom", "{backend}");
            assert!(took < Duration::from_secs(10), "{backend}: took {took:?}");
        }
    }

    #[test]
    #[should_panic(expected = "timed out")]
    fn deadlock_is_diagnosed() {
        cluster(2, CostModel::zero())
            .recv_timeout(Duration::from_millis(100))
            .build()
            .unwrap()
            .run(|ctx| {
                if ctx.rank() == 0 {
                    // nothing ever sent
                    ctx.recv(1, user_tag(9));
                }
            });
    }

    #[test]
    fn a_stall_lists_its_buffered_messages_sorted() {
        // Rank 1 sends tags 3, 1 and 2; rank 0 takes tag 1, then stalls on
        // tag 9 with the other two buffered. Under `dup_rate(1.0)` every
        // message arrives twice, and the delivered tag 1's second copy must
        // not be left among them.
        for plan in [None, Some(FaultPlan::new(1).dup_rate(1.0))] {
            for backend in [Backend::Sim, Backend::Thread] {
                let r = cluster(2, CostModel::zero())
                    .backend(backend)
                    .fault_plan(plan)
                    .recv_timeout(Duration::from_millis(200))
                    .build()
                    .unwrap()
                    .run(|ctx| {
                        if ctx.rank() == 1 {
                            for a in [3, 1, 2] {
                                ctx.send(0, user_tag(a), CommKind::Update, vec![a as u8]);
                            }
                            return None;
                        }
                        ctx.recv(1, user_tag(1));
                        let stall = || ctx.recv(1, user_tag(9));
                        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(stall));
                        err.unwrap_err()
                            .downcast::<RunError>()
                            .ok()
                            .map(|e| e.cause)
                    });
                let pending = vec![(1, user_tag(2)), (1, user_tag(3))];
                let stalled = Cause::Timeout { peer: 1, pending };
                assert_eq!(r.outputs[0], Some(stalled), "{plan:?} on {backend}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-send")]
    fn self_send_rejected() {
        cluster(1, CostModel::zero()).build().unwrap().run(|ctx| {
            let rank = ctx.rank();
            ctx.send(rank, user_tag(0), CommKind::Update, vec![]);
        });
    }

    #[test]
    fn zero_nodes_rejected() {
        let err = cluster(0, CostModel::zero()).build().unwrap_err();
        assert_eq!(err, NetError::EmptyCluster);
    }

    #[test]
    fn wall_time_recorded() {
        let r = cluster(1, CostModel::zero()).build().unwrap().run(|_| ());
        assert!(r.wall.as_nanos() > 0);
    }

    #[test]
    fn trace_attributes_send_and_wait_categories() {
        let cost = CostModel {
            per_edge_sec: 2.0,
            per_vertex_sec: 0.0,
            msg_latency_sec: 1.0,
            per_byte_sec: 0.5,
            msg_overhead_sec: 0.25,
        };
        let r = cluster(2, cost)
            .trace_level(TraceLevel::Full)
            .build()
            .unwrap()
            .run(|ctx| {
                ctx.set_trace_scope(0, ctx.rank() as u32, 0);
                if ctx.rank() == 0 {
                    ctx.compute_sharded(&[(3, 0)], 1);
                    ctx.send(
                        1,
                        Tag::new(TagKind::Dep, 7, 0),
                        CommKind::Dependency,
                        vec![0; 4],
                    );
                } else {
                    ctx.recv(0, Tag::new(TagKind::Dep, 7, 0));
                }
            });
        let sender = &r.traces.nodes[0];
        let receiver = &r.traces.nodes[1];
        assert!((sender.time(SpanCategory::Compute) - 6.0).abs() < 1e-12);
        assert!((sender.time(SpanCategory::Serialize) - 0.25).abs() < 1e-12);
        assert_eq!(sender.comm().bytes(CommKind::Dependency), 4);
        assert_eq!(sender.comm().messages(CommKind::Dependency), 1);
        // Receiver sat idle from 0 until arrival at 6.25 + 1.0 + 4*0.5.
        assert!((receiver.time(SpanCategory::DepWait) - 9.25).abs() < 1e-12);
        // Spans carry the scope the node set.
        assert!(sender
            .spans
            .iter()
            .all(|s| s.scope.step == 0 && s.scope.iteration == 0));
        assert!(receiver.spans.iter().all(|s| s.scope.step == 1));
        // The message is filed under the scope the sender set.
        let cell = &sender.cells[&symple_trace::Scope::default()];
        assert_eq!(cell.comm, sender.comm());
    }

    #[test]
    fn trace_splits_barrier_from_other_collectives() {
        let r = cluster(2, CostModel::cluster_a())
            .trace_level(TraceLevel::Metrics)
            .build()
            .unwrap()
            .run(|ctx| {
                if ctx.rank() == 1 {
                    ctx.advance(1.0);
                }
                ctx.barrier();
                ctx.allreduce_u64_sum(1);
            });
        let lagging = &r.traces.nodes[0];
        assert!(
            lagging.time(SpanCategory::Barrier) > 0.9,
            "rank 0 should wait out rank 1's head start in the barrier"
        );
        // Collective traffic is tagged as such.
        let comm = r.traces.comm();
        assert!(comm.bytes(CommKind::Sync) > 0);
        assert_eq!(comm.bytes(CommKind::Sync), comm.total_bytes());
    }

    fn ring_exchange(cluster: Cluster, rounds: u64) -> ClusterResult<Vec<u8>> {
        cluster.run(|ctx| {
            let next = (ctx.rank() + 1) % ctx.world();
            let prev = (ctx.rank() + ctx.world() - 1) % ctx.world();
            let mut seen = Vec::new();
            for round in 0..rounds {
                ctx.send(
                    next,
                    user_tag(round),
                    CommKind::Update,
                    vec![ctx.rank() as u8, round as u8],
                );
                seen.extend(ctx.recv(prev, user_tag(round)));
            }
            seen
        })
    }

    #[test]
    fn zero_rate_plan_only_adds_acks() {
        let clean = ring_exchange(cluster(3, CostModel::cluster_a()).build().unwrap(), 4);
        let faulted = ring_exchange(
            cluster(3, CostModel::cluster_a())
                .fault_plan(FaultPlan::new(1))
                .build()
                .unwrap(),
            4,
        );
        assert_eq!(clean.outputs, faulted.outputs);
        assert_eq!(clean.virtual_time, faulted.virtual_time);
        let r = faulted.traces.comm().reliable();
        assert_eq!(r.acks, 12, "every delivered message is acknowledged");
        assert_eq!(r.timeouts, 0);
        assert_eq!(r.retransmits, 0);
        assert_eq!(r.dup_drops, 0);
        assert_eq!(
            clean.traces.comm().reliable().acks,
            0,
            "no plan, no protocol"
        );
    }

    #[test]
    fn chaos_is_absorbed_below_the_engine() {
        let clean = ring_exchange(cluster(4, CostModel::cluster_a()).build().unwrap(), 16);
        let faulted = ring_exchange(
            cluster(4, CostModel::cluster_a())
                .fault_plan(FaultPlan::chaos(7))
                .build()
                .unwrap(),
            16,
        );
        assert_eq!(clean.outputs, faulted.outputs, "payloads survive chaos");
        let r = faulted.traces.comm().reliable();
        assert!(
            r.retransmits > 0,
            "chaos(7) must drop something in 64 sends"
        );
        assert!(r.dup_drops > 0, "chaos(7) must duplicate something");
        assert_eq!(r.timeouts, r.retransmits, "each timeout caused one resend");
        // Logical traffic accounting is untouched by the faults.
        assert_eq!(
            clean.traces.comm().bytes(CommKind::Update),
            faulted.traces.comm().bytes(CommKind::Update)
        );
        assert_eq!(
            clean.traces.comm().messages(CommKind::Update),
            faulted.traces.comm().messages(CommKind::Update)
        );
        assert!(
            faulted.virtual_time > clean.virtual_time,
            "retransmission timers cost virtual time"
        );
        // Determinism: the same plan injures the same copies.
        let again = ring_exchange(
            cluster(4, CostModel::cluster_a())
                .fault_plan(FaultPlan::chaos(7))
                .build()
                .unwrap(),
            16,
        );
        assert_eq!(again.traces.comm(), faulted.traces.comm());
        assert_eq!(again.virtual_time, faulted.virtual_time);
    }

    #[test]
    fn collectives_survive_chaos() {
        let r = cluster(4, CostModel::cluster_a())
            .fault_plan(FaultPlan::chaos(11))
            .build()
            .unwrap()
            .run(|ctx| {
                ctx.barrier();
                let sum = ctx.allreduce_u64_sum(ctx.rank() as u64 + 1);
                let gathered = ctx.allgather_bytes(vec![ctx.rank() as u8], CommKind::Sync);
                (sum, gathered.iter().map(|b| b[0]).collect::<Vec<_>>())
            });
        for (sum, ranks) in r.outputs {
            assert_eq!(sum, 10);
            assert_eq!(ranks, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn exhaustion_is_a_typed_error_not_a_hang() {
        let plan = FaultPlan::new(0).drop_rate(1.0);
        let r = cluster(2, CostModel::zero())
            .fault_plan(plan)
            .build()
            .unwrap()
            .run(|ctx| {
                if ctx.rank() != 0 {
                    return None;
                }
                let send = || ctx.send(1, user_tag(0), CommKind::Update, vec![1]);
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(send)).unwrap_err();
                err.downcast::<RunError>().ok().map(|e| e.cause)
            });
        assert_eq!(r.outputs[0], Some(Cause::Unreachable { dst: 1 }));
        // The attempted traffic is still visible in the counters.
        let rel = r.traces.comm().reliable();
        assert_eq!(rel.timeouts, u64::from(RETRY_ATTEMPTS));
        assert_eq!(rel.retransmits, u64::from(RETRY_ATTEMPTS - 1));
    }

    #[test]
    #[should_panic(expected = "all 20 attempts dropped")]
    fn send_panics_on_exhaustion() {
        let plan = FaultPlan::new(0).drop_rate(1.0);
        cluster(2, CostModel::zero())
            .fault_plan(plan)
            .recv_timeout(Duration::from_millis(200))
            .build()
            .unwrap()
            .run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.send(1, user_tag(0), CommKind::Update, vec![1]);
                }
            });
    }

    #[test]
    fn invalid_plan_is_a_typed_builder_error() {
        let err = cluster(1, CostModel::zero())
            .fault_plan(FaultPlan::new(0).drop_rate(2.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, NetError::InvalidFaultPlan(_)));
        assert!(err.to_string().contains("invalid fault plan"));
        let err = Cluster::builder(0).build().unwrap_err();
        assert_eq!(err, NetError::EmptyCluster);
    }

    #[test]
    fn retry_accounting_reaches_the_trace() {
        let plan = FaultPlan::new(9).drop_rate(0.5).dup_rate(0.5);
        let r = ring_exchange(
            cluster(2, CostModel::cluster_a())
                .fault_plan(plan)
                .trace_level(TraceLevel::Full)
                .build()
                .unwrap(),
            24,
        );
        let rel = r.traces.comm().reliable();
        assert!(rel.retransmits > 0 && rel.dup_drops > 0);
        let cells = r.traces.merged_cells();
        let in_cells = |count: fn(crate::ReliableStats) -> u64| -> u64 {
            cells.values().map(|c| count(c.comm.reliable())).sum()
        };
        assert_eq!(in_cells(|r| r.retransmits), rel.retransmits);
        assert_eq!(in_cells(|r| r.dup_drops), rel.dup_drops);
        let retry_time: f64 = r
            .traces
            .nodes
            .iter()
            .map(|n| n.time(SpanCategory::Retry))
            .sum();
        assert!(retry_time > 0.0, "resend overhead is charged as Retry");
    }

    #[test]
    fn trace_level_off_records_nothing() {
        let r = cluster(2, CostModel::cluster_a())
            .trace_level(TraceLevel::Off)
            .build()
            .unwrap()
            .run(|ctx| {
                ctx.compute_sharded(&[(100, 10)], 1);
                ctx.barrier();
            });
        assert!(r.traces.nodes.iter().all(|n| n.cells.is_empty()));
        // The communication ledger still counts.
        assert!(r.traces.comm().total_bytes() > 0);
    }

    #[test]
    fn thread_backend_matches_sim_bit_for_bit() {
        let run = |backend: Backend| {
            cluster(4, CostModel::cluster_a())
                .backend(backend)
                .trace_level(TraceLevel::Metrics)
                .build()
                .unwrap()
                .run(|ctx| {
                    ctx.compute_sharded(&[(1000, 100)], 1);
                    let next = (ctx.rank() + 1) % ctx.world();
                    let prev = (ctx.rank() + ctx.world() - 1) % ctx.world();
                    ctx.send(
                        next,
                        user_tag(0),
                        CommKind::Update,
                        vec![ctx.rank() as u8; 64],
                    );
                    let got = ctx.recv(prev, user_tag(0));
                    let sum = ctx.allreduce_u64_sum(got[0] as u64);
                    ctx.barrier();
                    (
                        got,
                        sum,
                        ctx.allgather_bytes(vec![ctx.rank() as u8], CommKind::Sync),
                    )
                })
        };
        let sim = run(Backend::Sim);
        let thread = run(Backend::Thread);
        // Everything logical is bit-identical; only wall-clock measurements
        // may differ between backends.
        assert_eq!(sim.outputs, thread.outputs);
        assert_eq!(sim.traces.comm(), thread.traces.comm());
        assert_eq!(sim.virtual_time, thread.virtual_time);
        assert_eq!(sim.traces.to_chrome_json(), thread.traces.to_chrome_json());
    }

    #[test]
    fn node_wall_is_recorded_per_node() {
        for backend in [Backend::Sim, Backend::Thread] {
            let r = cluster(3, CostModel::cluster_a())
                .backend(backend)
                .trace_level(TraceLevel::Metrics)
                .build()
                .unwrap()
                .run(|ctx| {
                    ctx.barrier();
                    ctx.allreduce_u64_sum(1)
                });
            assert_eq!(r.node_wall.len(), 3);
            assert!(r.node_wall.iter().all(|w| *w > Duration::ZERO));
            assert!(r.max_node_wall() >= *r.node_wall.iter().max().unwrap());
            // The measured wall times also land in the per-node traces.
            for (trace, wall) in r.traces.nodes.iter().zip(&r.node_wall) {
                assert_eq!(trace.wall_secs, wall.as_secs_f64());
                assert!(trace.comm_wall_secs >= 0.0);
            }
        }
    }

    #[test]
    fn chaos_plan_is_absorbed_on_the_thread_backend() {
        let clean = ring_exchange(cluster(3, CostModel::cluster_a()).build().unwrap(), 8);
        let faulted = ring_exchange(
            cluster(3, CostModel::cluster_a())
                .backend(Backend::Thread)
                .fault_plan(FaultPlan::chaos(5))
                .build()
                .unwrap(),
            8,
        );
        assert_eq!(clean.outputs, faulted.outputs);
        assert!(faulted.traces.comm().reliable().acks > 0);
    }

    /// Cost of the framed-receive tests: every term a power of two, so the
    /// expected arrivals below are exact.
    const FRAMED_COST: CostModel = CostModel {
        per_edge_sec: 0.0,
        per_vertex_sec: 0.0,
        msg_latency_sec: 1.0,
        per_byte_sec: 0.5,
        msg_overhead_sec: 0.25,
    };
    const FRAMED_CHUNK: usize = 4;

    /// What rank 0 received: per stream, in receive order, the assembled
    /// payload and `recv_frames`' per-frame `(len, arrival)`.
    type Received = Vec<(Vec<u8>, Vec<(usize, f64)>)>;

    /// Ranks `1..` each ship one framed stream per entry of `lens[rank - 1]`
    /// to rank 0, in rank order (rank `r` starts only once rank `r - 1` has
    /// handed it a token), and rank 0 receives every stream in the reverse
    /// of that order. Returns what rank 0 received, every rank's clocks
    /// (`(start, end)`: rank 0's both after its receives, a sender's when
    /// it began sending and when it returned), and the run's reliable
    /// counters.
    fn framed_streams(
        builder: ClusterBuilder,
        lens: &[&[usize]],
    ) -> (Received, Vec<(f64, f64)>, crate::ReliableStats) {
        let world = lens.len() + 1;
        let tag = |src: usize, i: usize| Tag::new(TagKind::Update, 10 * src as u64 + i as u64, 0);
        let token = user_tag(99);
        let r = builder.build().unwrap().run(|ctx| {
            let rank = ctx.rank();
            if rank == 0 {
                let mut got = Vec::new();
                for src in (1..world).rev() {
                    for i in (0..lens[src - 1].len()).rev() {
                        got.push(ctx.recv_frames(src, tag(src, i)));
                    }
                }
                let clock = ctx.virtual_clock();
                return (got, clock, clock);
            }
            if rank > 1 {
                ctx.recv(rank - 1, token);
            }
            ctx.advance(rank as f64);
            let start = ctx.virtual_clock();
            for (i, &len) in lens[rank - 1].iter().enumerate() {
                let payload = framed_payload(rank, len);
                ctx.send_framed(0, tag(rank, i), CommKind::Update, &payload, FRAMED_CHUNK);
            }
            if rank + 1 < world {
                ctx.send(rank + 1, token, CommKind::Sync, vec![1]);
            }
            (Vec::new(), start, ctx.virtual_clock())
        });
        let clocks = r.outputs.iter().map(|o| (o.1, o.2)).collect();
        let got = r.outputs.into_iter().next().unwrap().0;
        (got, clocks, r.traces.comm().reliable())
    }

    /// The `len` bytes rank `src` ships in one stream.
    fn framed_payload(src: usize, len: usize) -> Vec<u8> {
        (0..len).map(|b| (10 * src + b) as u8).collect()
    }

    /// The fault-free frames of a `len`-byte stream sent at clock `start`:
    /// frame `k` departs `k · chunk` bytes of wire time after the send and
    /// arrives one latency plus its own wire time later (an empty frame
    /// arrives as it departs).
    fn staggered_frames(start: f64, len: usize) -> Vec<(usize, f64)> {
        let c = FRAMED_COST;
        let clock = start + if len > 0 { c.msg_overhead_sec } else { 0.0 };
        let mut frames = Vec::new();
        for k in 0.. {
            let pos = k * FRAMED_CHUNK;
            let flen = FRAMED_CHUNK.min(len - pos);
            let depart = clock + pos as f64 * c.per_byte_sec;
            frames.push((flen, depart + c.arrival_delay(flen as u64)));
            if flen < FRAMED_CHUNK {
                return frames;
            }
        }
        unreachable!()
    }

    /// Runs `lens` on the simulator, on the bounded thread inbox, and
    /// under chaos plans on both; checks the fault-free receipts against
    /// the stagger and the injured ones against the fault-free ones.
    /// Returns the fault-free receipts.
    fn check_framed_streams(lens: &[&[usize]]) -> Received {
        let base = || cluster(lens.len() + 1, FRAMED_COST).recv_timeout(Duration::from_secs(10));
        let bounded = || base().backend(Backend::Thread);
        let (sim, clocks, _) = framed_streams(base(), lens);
        assert_eq!(clocks[0].0, 0.0, "recv_frames charges nothing");
        let mut expected = Vec::new();
        for src in (1..=lens.len()).rev() {
            let mut start = clocks[src].0;
            // A sender's streams go out back to back; rank 0 takes them in
            // reverse.
            let mut sent = Vec::new();
            for &len in lens[src - 1] {
                sent.push((framed_payload(src, len), staggered_frames(start, len)));
                start += if len > 0 {
                    FRAMED_COST.msg_overhead_sec
                } else {
                    0.0
                };
            }
            expected.extend(sent.into_iter().rev());
        }
        assert_eq!(sim, expected);
        assert_eq!(framed_streams(bounded(), lens).0, sim, "thread inbox");
        for seed in [3, 17] {
            let plan = FaultPlan::chaos(seed);
            let (faulted, _, rel) = framed_streams(base().fault_plan(plan), lens);
            let (threaded, _, rel_threaded) = framed_streams(bounded().fault_plan(plan), lens);
            assert_eq!(faulted, threaded, "chaos({seed}) replays on both inboxes");
            assert_eq!(rel, rel_threaded);
            let frames: usize = faulted.iter().map(|(_, f)| f.len()).sum();
            assert_eq!(
                rel.acks as usize,
                frames + lens.len() - 1,
                "one ack per frame"
            );
            assert!(rel.retransmits > 0, "chaos({seed}) drops something");
            for ((out, frames), (clean_out, clean_frames)) in faulted.iter().zip(&sim) {
                assert_eq!(out, clean_out, "chaos({seed}) payload");
                assert_eq!(frames.len(), clean_frames.len());
                for (&(len, at), &(clean_len, clean_at)) in frames.iter().zip(clean_frames) {
                    assert_eq!(len, clean_len, "chaos({seed}) frame sizes");
                    assert!(at >= clean_at, "an injured frame never lands early");
                }
            }
        }
        sim
    }

    /// The frame sizes of each received stream.
    fn frame_lens(got: &Received) -> Vec<Vec<usize>> {
        let lens = |frames: &[(usize, f64)]| frames.iter().map(|&(len, _)| len).collect();
        got.iter().map(|(_, frames)| lens(frames)).collect()
    }

    #[test]
    fn framed_streams_are_received_in_the_reverse_of_their_send_order() {
        let got = check_framed_streams(&[&[9, 11], &[22]]);
        assert_eq!(
            frame_lens(&got),
            [vec![4, 4, 4, 4, 4, 2], vec![4, 4, 3], vec![4, 4, 1]]
        );
    }

    #[test]
    fn an_exact_multiple_of_the_chunk_ends_with_an_empty_frame() {
        let got = check_framed_streams(&[&[3 * FRAMED_CHUNK], &[FRAMED_CHUNK]]);
        assert_eq!(frame_lens(&got), [vec![4, 0], vec![4, 4, 4, 0]]);
        let frames = &got[1].1;
        assert!(
            frames[3].1 <= frames[2].1,
            "the terminator lands no later than the last data frame"
        );
    }

    #[test]
    fn an_empty_payload_is_one_empty_frame() {
        let got = check_framed_streams(&[&[0, 5], &[0]]);
        assert_eq!(frame_lens(&got), [vec![0], vec![4, 1], vec![0]]);
        assert!(got[0].0.is_empty() && got[2].0.is_empty());
    }

    /// Every frame the chaos plans deliver, pinned:
    /// `tests/listings/framed_chaos.txt` holds, for `chaos(3)` and
    /// `chaos(17)` on both inboxes and for each shape the tests above
    /// send, every received frame's `(bytes, arrival bits)`, every rank's
    /// clock bits and the run's reliable counters. A change to the
    /// reliable layer or the frame schedule shows up here as a diff to
    /// review: `BLESS_LISTINGS=1` rewrites the file.
    #[test]
    fn framed_chaos_listing() {
        use std::fmt::Write;
        let long = FRAMED_CHUNK * (CHANNEL_CAPACITY + 8) + 3;
        let shapes: [&[&[usize]]; 4] = [
            &[&[9, 11], &[22]],
            &[&[3 * FRAMED_CHUNK], &[FRAMED_CHUNK]],
            &[&[0, 5], &[0]],
            &[&[long], &[FRAMED_CHUNK * CHANNEL_CAPACITY]],
        ];
        let mut listing = String::new();
        for seed in [3, 17] {
            for backend in [Backend::Sim, Backend::Thread] {
                for lens in shapes {
                    let builder = cluster(lens.len() + 1, FRAMED_COST)
                        .recv_timeout(Duration::from_secs(10))
                        .backend(backend)
                        .fault_plan(FaultPlan::chaos(seed));
                    let (got, clocks, rel) = framed_streams(builder, lens);
                    writeln!(listing, "chaos({seed}) {backend} {lens:?}").unwrap();
                    for (payload, frames) in &got {
                        writeln!(listing, "  stream of {} bytes:", payload.len()).unwrap();
                        for line in frames.chunks(8) {
                            let line: Vec<String> = line
                                .iter()
                                .map(|&(len, at)| format!("{len}@{:016x}", at.to_bits()))
                                .collect();
                            writeln!(listing, "    {}", line.join(" ")).unwrap();
                        }
                    }
                    let clocks: Vec<String> = (clocks.iter())
                        .map(|(a, b)| format!("{:016x}..{:016x}", a.to_bits(), b.to_bits()))
                        .collect();
                    writeln!(listing, "  clocks {}", clocks.join(" ")).unwrap();
                    writeln!(listing, "  {rel:?}").unwrap();
                }
            }
        }
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/listings/framed_chaos.txt"
        );
        if std::env::var_os("BLESS_LISTINGS").is_some() {
            std::fs::write(path, &listing).unwrap();
        }
        let golden = std::fs::read_to_string(path).unwrap_or_default();
        assert!(
            listing == golden,
            "framed chaos schedule differs from {path}"
        );
    }

    #[test]
    fn streams_longer_than_an_inbox_cross_the_thread_backend() {
        // Each sender ships more frames than a bounded inbox holds
        // envelopes; a message is one envelope however many frames model it.
        let long = FRAMED_CHUNK * (CHANNEL_CAPACITY + 8) + 3;
        let got = check_framed_streams(&[&[long], &[FRAMED_CHUNK * CHANNEL_CAPACITY]]);
        let counts: Vec<usize> = frame_lens(&got).iter().map(Vec::len).collect();
        assert_eq!(counts, [CHANNEL_CAPACITY + 1, CHANNEL_CAPACITY + 9]);
    }

    #[test]
    #[should_panic(expected = "Tag { kind: User, a: 5, b: 0 }: timed out on node 1")]
    fn a_stalled_framed_receive_names_its_tag() {
        cluster(2, CostModel::zero())
            .recv_timeout(Duration::from_millis(100))
            .build()
            .unwrap()
            .run(|ctx| {
                if ctx.rank() == 1 {
                    // A framed message, but under another tag.
                    ctx.send_framed(0, user_tag(6), CommKind::Update, &[0; 8], 4);
                } else {
                    ctx.recv_framed_into(1, user_tag(5), 4, &mut Vec::new());
                }
            });
    }

    #[test]
    fn thread_backend_survives_full_inboxes() {
        // Every rank sends each peer more envelopes than an inbox holds
        // before it receives any, so every inbox fills: without the
        // drain-while-blocked progress rule in `Port::send` this deadlocks.
        let burst = CHANNEL_CAPACITY as u64 + 44;
        let r = cluster(3, CostModel::zero())
            .backend(Backend::Thread)
            .build()
            .unwrap()
            .run(|ctx| {
                let rank = ctx.rank();
                let peers: Vec<usize> = (0..ctx.world()).filter(|&p| p != rank).collect();
                for round in 0..burst {
                    for &peer in &peers {
                        ctx.send(peer, user_tag(round), CommKind::Update, vec![0u8; 128]);
                    }
                }
                let mut seen = 0;
                for round in 0..burst {
                    for &peer in &peers {
                        seen += ctx.recv(peer, user_tag(round)).len();
                    }
                }
                seen
            });
        assert!(r.outputs.iter().all(|&n| n == 2 * burst as usize * 128));
    }

    #[test]
    fn a_send_blocked_on_a_full_inbox_says_so() {
        // Rank 1 receives nothing until rank 0 is done: rank 0's send past
        // the full inbox fails once the receive timeout has passed,
        // naming the full inbox.
        use std::sync::atomic::{AtomicBool, Ordering};
        let done = AtomicBool::new(false);
        let r = cluster(2, CostModel::zero())
            .backend(Backend::Thread)
            .recv_timeout(Duration::from_millis(100))
            .build()
            .unwrap()
            .run(|ctx| {
                if ctx.rank() == 1 {
                    while !done.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    return None;
                }
                let fill = || {
                    for i in 0..=CHANNEL_CAPACITY as u64 {
                        ctx.send(1, user_tag(i), CommKind::Update, vec![1]);
                    }
                };
                let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(fill));
                done.store(true, Ordering::Release);
                let err = failed.unwrap_err().downcast::<RunError>();
                err.ok().map(|e| e.to_string())
            });
        let msg = r.outputs[0].clone().unwrap();
        assert!(msg.starts_with("node 0 failed at iteration 0"), "{msg}");
        assert!(
            msg.ends_with(": send to node 1 blocked on a full inbox"),
            "{msg}"
        );
    }
}
