//! Per-machine recording of spans and categorized counters.

use std::collections::BTreeMap;

use crate::{CommKind, CommStats, SpanCategory, TraceLevel};

/// The engine context a recorded event is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Scope {
    /// Algorithm iteration (super-step).
    pub iteration: u32,
    /// Circulant step within the iteration.
    pub step: u32,
    /// Double-buffering group within the step.
    pub group: u32,
}

/// Accounting key: one cell per (iteration, step, group).
pub type CellKey = Scope;

/// Categorized totals for one (iteration, step, group) cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CellStats {
    /// Virtual seconds per [`SpanCategory`] (indexed by
    /// [`SpanCategory::index`]). For compute this is the *charged*
    /// (critical-path) time: with a multi-threaded executor it is the
    /// longest per-thread lane, not the sum.
    pub time: [f64; 9],
    /// The cell's share of its machine's communication ledger: the same
    /// events [`NodeTrace::comm`] totals, filed under this cell's scope.
    pub comm: CommStats,
    /// Total busy compute seconds summed over executor threads
    /// (core-seconds). Equals the charged compute time when everything ran
    /// on one lane; the ratio `compute_cpu / (lanes × charged)` is the
    /// cell's parallel efficiency, its complement the intra-node
    /// imbalance.
    pub compute_cpu: f64,
    /// Largest number of executor lanes that contributed compute time to
    /// this cell (1 for purely sequential execution, 0 if no compute).
    pub lanes: u32,
}

impl CellStats {
    /// Virtual seconds attributed to `cat` in this cell.
    pub fn time(&self, cat: SpanCategory) -> f64 {
        self.time[cat.index()]
    }

    pub(crate) fn absorb(&mut self, other: &CellStats) {
        for i in 0..9 {
            self.time[i] += other.time[i];
        }
        self.comm += other.comm;
        self.compute_cpu += other.compute_cpu;
        self.lanes = self.lanes.max(other.lanes);
    }
}

/// One categorized interval of virtual time on one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What the time was spent on.
    pub category: SpanCategory,
    /// Virtual start time (seconds).
    pub start: f64,
    /// Virtual end time (seconds); `end >= start`.
    pub end: f64,
    /// Engine context at record time.
    pub scope: Scope,
    /// Executor lane the span ran on (0 for the worker's main thread;
    /// compute spans from the chunked executor use their lane index).
    pub thread: u32,
}

impl Span {
    /// Span length in virtual seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans and counters for one machine while the engine runs.
///
/// The engine sets the attribution [`Scope`] as it enters each
/// (iteration, step, group) and then reports clock advances and byte
/// movements; the recorder files them under the current scope.
///
/// It is also the one place a communication event is counted: each
/// `record_*` call for one adds it to the machine's [`CommStats`] total
/// (kept at every level, [`TraceLevel::Off`] included) and, at
/// [`TraceLevel::Metrics`] and above, to the current cell, so the cells
/// sum to the total by construction.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    machine: usize,
    level: TraceLevel,
    scope: Scope,
    spans: Vec<Span>,
    cells: BTreeMap<CellKey, CellStats>,
    retransmit_peers: BTreeMap<usize, u64>,
    comm: CommStats,
}

impl TraceRecorder {
    /// A recorder for `machine` at the given level.
    pub fn new(machine: usize, level: TraceLevel) -> Self {
        TraceRecorder {
            machine,
            level,
            scope: Scope::default(),
            spans: Vec::new(),
            cells: BTreeMap::new(),
            retransmit_peers: BTreeMap::new(),
            comm: CommStats::default(),
        }
    }

    /// Sets the attribution scope for subsequent events.
    pub fn set_scope(&mut self, iteration: u32, step: u32, group: u32) {
        self.scope = Scope {
            iteration,
            step,
            group,
        };
    }

    /// The current attribution scope (kept at every level).
    pub fn scope(&self) -> Scope {
        self.scope
    }

    /// Attributes the virtual interval `[start, end]` to `category` under
    /// the current scope. Zero-length intervals are counted (they
    /// contribute nothing) but produce no span.
    pub fn record_span(&mut self, category: SpanCategory, start: f64, end: f64) {
        debug_assert!(end >= start, "span ends before it starts");
        if !self.level.metrics() {
            return;
        }
        let cell = self.cells.entry(self.scope).or_default();
        cell.time[category.index()] += end - start;
        if category.is_compute_like() {
            cell.compute_cpu += end - start;
            cell.lanes = cell.lanes.max(1);
        }
        if self.level.spans() && end > start {
            self.spans.push(Span {
                category,
                start,
                end,
                scope: self.scope,
                thread: 0,
            });
        }
    }

    /// Attributes one chunked-executor phase of `category` starting at
    /// `start` with the given per-lane busy seconds. The *charged*
    /// (critical-path) time — the longest lane — is added to the cell's
    /// time for `category` and returned; for compute-like categories the
    /// lane sum goes to [`CellStats::compute_cpu`]. At
    /// [`TraceLevel::Full`] each busy lane becomes its own span tagged
    /// with its lane index, so timelines expose intra-node imbalance.
    ///
    /// The charged time is computed and returned even when tracing is off,
    /// so the virtual clock does not depend on the trace level.
    pub fn record_lanes(&mut self, category: SpanCategory, start: f64, lane_secs: &[f64]) -> f64 {
        let charged = lane_secs.iter().fold(0.0_f64, |a, &b| a.max(b));
        if !self.level.metrics() {
            return charged;
        }
        let cell = self.cells.entry(self.scope).or_default();
        cell.time[category.index()] += charged;
        if category.is_compute_like() {
            cell.compute_cpu += lane_secs.iter().sum::<f64>();
            cell.lanes = cell.lanes.max(lane_secs.len() as u32);
        }
        if self.level.spans() {
            for (lane, &secs) in lane_secs.iter().enumerate() {
                if secs > 0.0 {
                    self.spans.push(Span {
                        category,
                        start,
                        end: start + secs,
                        scope: self.scope,
                        thread: lane as u32,
                    });
                }
            }
        }
        charged
    }

    /// Counts one communication event in the machine's total and, at
    /// metrics levels, in the current cell.
    fn count(&mut self, event: impl Fn(&mut CommStats)) {
        event(&mut self.comm);
        if self.level.metrics() {
            event(&mut self.cells.entry(self.scope).or_default().comm);
        }
    }

    /// Counts one sent message of `kind` carrying `bytes` payload bytes.
    pub fn record_message(&mut self, kind: CommKind, bytes: u64) {
        self.count(|c| {
            c.bytes[kind.index()] += bytes;
            c.messages[kind.index()] += 1;
        });
    }

    /// Counts encoded bytes per chosen wire format (flat / dense /
    /// sparse, in tag order).
    pub fn record_wire_formats(&mut self, format_bytes: &[u64; 3]) {
        self.count(|c| {
            for (acc, &b) in c.formats.iter_mut().zip(format_bytes) {
                *acc += b;
            }
        });
    }

    /// Counts `copies` retransmitted copies of `bytes` payload bytes each
    /// towards `peer`: the sender-side record of the reliable-delivery
    /// layer resending after an ack timeout. Kept apart from
    /// [`TraceRecorder::record_message`]'s counters, so those stay
    /// bit-identical to the fault-free run. At metrics levels the copies
    /// are also tallied per peer.
    pub fn record_retransmits(&mut self, peer: usize, copies: u64, bytes: u64) {
        if copies == 0 {
            return;
        }
        self.count(|c| {
            c.reliable.retransmits += copies;
            c.reliable.retransmit_bytes += copies * bytes;
        });
        if self.level.metrics() {
            *self.retransmit_peers.entry(peer).or_default() += copies;
        }
    }

    /// Counts `timeouts` expired retransmission timers.
    pub fn record_timeouts(&mut self, timeouts: u64) {
        if timeouts > 0 {
            self.count(|c| c.reliable.timeouts += timeouts);
        }
    }

    /// Counts one duplicate copy the fault plan injected into a send. The
    /// sender counts it at injection, a pure function of the plan;
    /// whether the receiver ever drains the copy to discard it depends on
    /// host timing.
    pub fn record_dup_drop(&mut self) {
        self.count(|c| c.reliable.dup_drops += 1);
    }

    /// Counts one message the receiver accepted and acknowledged.
    pub fn record_ack(&mut self) {
        self.count(|c| c.reliable.acks += 1);
    }

    /// Finalises recording into an immutable per-machine trace. Measured
    /// wall-clock fields start at zero; the cluster runtime fills them in
    /// after the node closure returns (they are host measurements, not
    /// recorded events).
    pub fn finish(self) -> NodeTrace {
        NodeTrace {
            machine: self.machine,
            spans: self.spans,
            cells: self.cells,
            retransmit_peers: self.retransmit_peers,
            wall_secs: 0.0,
            comm_wall_secs: 0.0,
            comm: self.comm,
        }
    }
}

/// Everything recorded on one machine.
#[derive(Debug, Clone, Default)]
pub struct NodeTrace {
    /// Machine rank (chrome track id).
    pub machine: usize,
    /// Materialised spans (empty below [`TraceLevel::Full`]).
    pub spans: Vec<Span>,
    /// Categorized counters per (iteration, step, group) cell.
    pub cells: BTreeMap<CellKey, CellStats>,
    /// Retransmitted copies this machine sent, per destination peer
    /// (empty for fault-free runs).
    pub retransmit_peers: BTreeMap<usize, u64>,
    /// Measured wall-clock seconds this machine's worker ran for (host
    /// time, not virtual time). Depends on the host scheduler, so it is
    /// reported by [`Trace::to_metrics_json`] but deliberately kept out of
    /// the deterministic chrome export.
    pub wall_secs: f64,
    /// Measured wall-clock seconds this machine spent blocked in
    /// transport operations — the real counterpart of the modelled
    /// wait-category virtual time.
    pub comm_wall_secs: f64,
    comm: CommStats,
}

impl NodeTrace {
    /// Total virtual seconds attributed to `cat` across all cells.
    pub fn time(&self, cat: SpanCategory) -> f64 {
        self.cells.values().map(|c| c.time(cat)).sum()
    }

    /// Everything this machine sent, at every trace level: the total its
    /// cells (at [`TraceLevel::Metrics`] and above) sum to.
    pub fn comm(&self) -> CommStats {
        self.comm
    }

    /// Total busy compute core-seconds across executor lanes. Equals
    /// `time(Compute)` for sequential execution; larger when multiple
    /// lanes overlapped.
    pub fn compute_cpu(&self) -> f64 {
        self.cells.values().map(|c| c.compute_cpu).sum()
    }

    /// The widest executor fan-out observed in any cell on this machine.
    pub fn max_lanes(&self) -> u32 {
        self.cells.values().map(|c| c.lanes).max().unwrap_or(0)
    }
}

/// The combined trace of a run: one [`NodeTrace`] per machine.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Per-machine traces, indexed by rank.
    pub nodes: Vec<NodeTrace>,
}

impl Trace {
    /// Combines per-machine traces (sorted by rank).
    pub fn new(mut nodes: Vec<NodeTrace>) -> Self {
        nodes.sort_by_key(|n| n.machine);
        Trace { nodes }
    }

    /// The run's communication: every machine's [`NodeTrace::comm`]
    /// summed.
    pub fn comm(&self) -> CommStats {
        self.nodes
            .iter()
            .map(NodeTrace::comm)
            .fold(CommStats::default(), |a, b| a + b)
    }

    /// Total virtual seconds attributed to `cat`, summed over machines.
    pub fn time(&self, cat: SpanCategory) -> f64 {
        self.nodes.iter().map(|n| n.time(cat)).sum()
    }

    /// Total busy compute core-seconds summed over machines and lanes.
    pub fn compute_cpu(&self) -> f64 {
        self.nodes.iter().map(|n| n.compute_cpu()).sum()
    }

    /// Cell totals merged across machines (keyed by iteration/step/group).
    pub fn merged_cells(&self) -> BTreeMap<CellKey, CellStats> {
        let mut merged: BTreeMap<CellKey, CellStats> = BTreeMap::new();
        for node in &self.nodes {
            for (key, cell) in &node.cells {
                merged.entry(*key).or_default().absorb(cell);
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_attribution_routes_to_cells() {
        let mut rec = TraceRecorder::new(2, TraceLevel::Metrics);
        rec.set_scope(0, 0, 0);
        rec.record_span(SpanCategory::Compute, 0.0, 1.0);
        rec.record_message(CommKind::Update, 60);
        rec.record_message(CommKind::Update, 40);
        rec.set_scope(0, 1, 0);
        rec.record_span(SpanCategory::DepWait, 1.0, 1.5);
        rec.record_message(CommKind::Dependency, 8);
        let node = rec.finish();
        assert_eq!(node.machine, 2);
        assert_eq!(node.cells.len(), 2);
        assert_eq!(node.time(SpanCategory::Compute), 1.0);
        assert_eq!(node.time(SpanCategory::DepWait), 0.5);
        assert_eq!(node.comm().bytes(CommKind::Update), 100);
        assert_eq!(node.comm().messages(CommKind::Update), 2);
        let second = node.cells.values().nth(1).unwrap();
        assert_eq!(second.comm.messages(CommKind::Dependency), 1);
        assert_eq!(second.comm.total_bytes(), 8);
        // Metrics level materialises no spans.
        assert!(node.spans.is_empty());
    }

    #[test]
    fn full_level_materialises_spans() {
        let mut rec = TraceRecorder::new(0, TraceLevel::Full);
        rec.set_scope(3, 1, 0);
        rec.record_span(SpanCategory::Barrier, 2.0, 2.25);
        rec.record_span(SpanCategory::Compute, 2.25, 2.25); // zero-length
        let node = rec.finish();
        assert_eq!(node.spans.len(), 1);
        let span = node.spans[0];
        assert_eq!(span.category, SpanCategory::Barrier);
        assert_eq!(span.scope.iteration, 3);
        assert!((span.duration() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn off_level_records_nothing() {
        let mut rec = TraceRecorder::new(0, TraceLevel::Off);
        rec.record_span(SpanCategory::Compute, 0.0, 1.0);
        rec.record_message(CommKind::Update, 10);
        let node = rec.finish();
        assert!(node.cells.is_empty() && node.spans.is_empty());
        // Nothing but the communication total, which every level keeps.
        assert_eq!(node.comm().bytes(CommKind::Update), 10);
    }

    #[test]
    fn compute_lanes_charge_critical_path_and_track_cpu() {
        let mut rec = TraceRecorder::new(0, TraceLevel::Full);
        rec.set_scope(1, 0, 0);
        let charged = rec.record_lanes(SpanCategory::Compute, 2.0, &[0.5, 2.0, 0.0, 1.0]);
        assert_eq!(charged, 2.0, "charged time is the longest lane");
        let node = rec.finish();
        let cell = node.cells.values().next().unwrap();
        assert_eq!(cell.time(SpanCategory::Compute), 2.0);
        assert!(
            (cell.compute_cpu - 3.5).abs() < 1e-12,
            "cpu is the lane sum"
        );
        assert_eq!(cell.lanes, 4);
        // Idle lanes produce no spans; busy lanes carry their index.
        assert_eq!(node.spans.len(), 3);
        assert_eq!(
            node.spans.iter().map(|s| s.thread).collect::<Vec<_>>(),
            vec![0, 1, 3]
        );
        assert!(node.spans.iter().all(|s| s.start == 2.0));
        assert_eq!(node.max_lanes(), 4);
    }

    #[test]
    fn compute_lanes_return_charge_even_when_off() {
        let mut rec = TraceRecorder::new(0, TraceLevel::Off);
        assert_eq!(
            rec.record_lanes(SpanCategory::Compute, 0.0, &[1.0, 3.0]),
            3.0
        );
        assert!(rec.finish().cells.is_empty());
    }

    #[test]
    fn sequential_compute_span_counts_as_one_lane_of_cpu() {
        let mut rec = TraceRecorder::new(0, TraceLevel::Metrics);
        rec.record_span(SpanCategory::Compute, 0.0, 1.5);
        rec.record_span(SpanCategory::Barrier, 1.5, 2.0);
        let node = rec.finish();
        assert_eq!(node.compute_cpu(), 1.5);
        assert_eq!(node.max_lanes(), 1);
    }

    #[test]
    fn wire_format_bytes_accumulate_per_cell() {
        let mut rec = TraceRecorder::new(0, TraceLevel::Metrics);
        rec.set_scope(0, 0, 0);
        rec.record_wire_formats(&[10, 0, 3]);
        rec.set_scope(0, 1, 0);
        rec.record_wire_formats(&[0, 20, 0]);
        let node = rec.finish();
        assert_eq!(node.comm().format_bytes(), [10, 20, 3]);
        let cells: Vec<_> = node.cells.values().map(|c| c.comm.format_bytes()).collect();
        assert_eq!(cells, [[10, 0, 3], [0, 20, 0]]);
    }

    #[test]
    fn retransmit_overlay_accumulates_without_touching_byte_cells() {
        let mut rec = TraceRecorder::new(0, TraceLevel::Metrics);
        rec.set_scope(0, 0, 0);
        rec.record_message(CommKind::Update, 100);
        rec.record_retransmits(2, 3, 40);
        rec.record_retransmits(1, 1, 40);
        rec.record_dup_drop();
        rec.set_scope(0, 1, 0);
        rec.record_retransmits(2, 1, 8);
        let node = rec.finish();
        assert_eq!(node.comm().reliable().retransmits, 5);
        assert_eq!(node.comm().reliable().dup_drops, 1);
        assert_eq!(node.retransmit_peers.get(&2), Some(&4));
        assert_eq!(node.retransmit_peers.get(&1), Some(&1));
        // The regular byte cells are untouched by the overlay.
        assert_eq!(node.comm().bytes(CommKind::Update), 100);
        assert_eq!(node.comm().messages(CommKind::Update), 1);
        let cell = node.cells.values().next().unwrap();
        assert_eq!(cell.comm.reliable().retransmit_bytes, 3 * 40 + 40);
        // Zero-copy records are no-ops.
        let mut none = TraceRecorder::new(0, TraceLevel::Metrics);
        none.record_retransmits(1, 0, 10);
        none.record_timeouts(0);
        let none = none.finish();
        assert!(none.cells.is_empty() && none.retransmit_peers.is_empty());
        assert_eq!(none.comm(), CommStats::default());
    }

    #[test]
    fn trace_aggregates_and_merges() {
        let mut a = TraceRecorder::new(0, TraceLevel::Metrics);
        a.set_scope(0, 0, 0);
        a.record_message(CommKind::Sync, 16);
        let mut b = TraceRecorder::new(1, TraceLevel::Metrics);
        b.set_scope(0, 0, 0);
        b.record_message(CommKind::Sync, 24);
        b.record_span(SpanCategory::Collective, 0.0, 0.5);
        let trace = Trace::new(vec![b.finish(), a.finish()]);
        assert_eq!(trace.nodes[0].machine, 0);
        assert_eq!(trace.comm().bytes(CommKind::Sync), 40);
        assert_eq!(trace.comm().messages(CommKind::Sync), 2);
        let merged = trace.merged_cells();
        assert_eq!(merged.len(), 1);
        let cell = merged.values().next().unwrap();
        assert_eq!(cell.comm, trace.comm());
        assert_eq!(cell.time(SpanCategory::Collective), 0.5);
    }

    /// The ledger pin: one event stream, fed to recorders at every level,
    /// gives one total, and at the levels that keep cells the cells sum
    /// to it. A record method that counted an event only in the cell, or
    /// only in the total, or only at some levels, fails here.
    #[test]
    fn one_event_stream_is_one_ledger_at_every_level() {
        let feed = |level| {
            let mut rec = TraceRecorder::new(0, level);
            for (step, kind) in crate::COMM_KINDS.into_iter().enumerate() {
                rec.set_scope(1, step as u32, 0);
                rec.record_message(kind, 10 + step as u64);
                rec.record_wire_formats(&[1, 2, step as u64]);
                rec.record_retransmits(step, 2, 5);
                rec.record_timeouts(3);
                rec.record_dup_drop();
                rec.record_ack();
            }
            rec.finish()
        };
        let [off, metrics, full] =
            [TraceLevel::Off, TraceLevel::Metrics, TraceLevel::Full].map(feed);
        let total = off.comm();
        let rel = total.reliable();
        assert_eq!(
            [
                total.total_bytes(),
                total.total_messages(),
                rel.retransmits,
                rel.retransmit_bytes
            ],
            [33, 3, 6, 30]
        );
        assert_eq!([rel.timeouts, rel.dup_drops, rel.acks], [9, 3, 3]);
        assert_eq!(total.format_bytes(), [3, 6, 3]);
        assert!(off.cells.is_empty());
        for node in [metrics, full] {
            assert_eq!(node.comm(), total);
            let cells = node
                .cells
                .values()
                .fold(CommStats::default(), |a, c| a + c.comm);
            assert_eq!(cells, total, "the cells sum to the total");
            assert_eq!(node.cells.len(), 3);
        }
    }
}
