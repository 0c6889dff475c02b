//! The two JSON exports of a [`Trace`].
//!
//! [`Trace::to_chrome_json`] is for eyes: the chrome://tracing (Trace
//! Event Format) JSON-object form (`{"traceEvents": [...]}`), with virtual
//! time on the x-axis (microseconds, as the format requires), one thread
//! track per machine, and complete (`"ph":"X"`) events carrying the
//! (iteration, step, group) scope in `args`. Spans from extra executor
//! lanes (`Span::thread > 0`) get auxiliary tracks next to their
//! machine's main track so intra-node imbalance is visible. Load the
//! output in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! [`Trace::to_metrics_json`] is for programs: the categorized totals of
//! the run, of each machine and of each (iteration, step, group) cell,
//! without any serialization dependency.

use std::collections::BTreeSet;

use crate::json::JsonWriter;
use crate::{CellStats, SpanCategory, Trace, COMM_KINDS};

/// The JSON key of each [`crate::CommKind`], in [`COMM_KINDS`] order
/// (sync traffic is the export's `collective`).
const KIND_KEYS: [&str; 3] = ["update", "dependency", "collective"];

/// Chrome track id for one (machine, executor lane) pair. Lane 0 keeps
/// the machine rank as its tid (the main per-machine track); other lanes
/// map to a disjoint high range grouped by machine.
fn track_id(machine: usize, thread: u32) -> u64 {
    if thread == 0 {
        machine as u64
    } else {
        (machine as u64 + 1) * 1000 + thread as u64
    }
}

impl Trace {
    /// Renders the trace in Trace Event Format.
    ///
    /// Only materialised spans appear, so exporting a run recorded below
    /// [`crate::TraceLevel::Full`] yields metadata-only output.
    pub fn to_chrome_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("displayTimeUnit").string("ms");
        w.key("traceEvents").begin_array();
        for node in &self.nodes {
            // Name the per-machine track.
            w.begin_object();
            w.key("name").string("thread_name");
            w.key("ph").string("M");
            w.key("pid").u64(0);
            w.key("tid").u64(node.machine as u64);
            w.key("args")
                .begin_object()
                .key("name")
                .string(&format!("machine {}", node.machine))
                .end_object();
            w.end_object();
            // Name one auxiliary track per extra executor lane seen.
            let aux: BTreeSet<u32> = node
                .spans
                .iter()
                .filter(|s| s.thread > 0)
                .map(|s| s.thread)
                .collect();
            for lane in aux {
                w.begin_object();
                w.key("name").string("thread_name");
                w.key("ph").string("M");
                w.key("pid").u64(0);
                w.key("tid").u64(track_id(node.machine, lane));
                w.key("args")
                    .begin_object()
                    .key("name")
                    .string(&format!("machine {} · lane {}", node.machine, lane))
                    .end_object();
                w.end_object();
            }
            for span in &node.spans {
                w.begin_object();
                w.key("name").string(span.category.name());
                w.key("cat").string(span.category.name());
                w.key("ph").string("X");
                w.key("ts").f64(span.start * 1e6);
                w.key("dur").f64(span.duration() * 1e6);
                w.key("pid").u64(0);
                w.key("tid").u64(track_id(node.machine, span.thread));
                w.key("args")
                    .begin_object()
                    .key("iteration")
                    .u64(span.scope.iteration as u64)
                    .key("step")
                    .u64(span.scope.step as u64)
                    .key("group")
                    .u64(span.scope.group as u64)
                    .end_object();
                w.end_object();
            }
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Writes [`Trace::to_chrome_json`] to `path`.
    pub fn write_chrome_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }

    /// Renders the categorized totals as JSON: the whole run (with its
    /// makespan `virtual_time`, which the trace itself does not hold),
    /// then one object per machine, then the cells merged across
    /// machines. Only `max_wall_secs`, `wall_secs` and `comm_wall_secs`
    /// are host measurements; every other value is deterministic.
    pub fn to_metrics_json(&self, virtual_time: f64) -> String {
        let machines: Vec<CellStats> = self
            .nodes
            .iter()
            .map(|node| CellStats {
                comm: node.comm(),
                ..sum_cells(node.cells.values())
            })
            .collect();
        let total = sum_cells(&machines);
        let max_wall = self.nodes.iter().map(|n| n.wall_secs).fold(0.0, f64::max);
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("machines").u64(self.nodes.len() as u64);
        w.key("virtual_time").f64(virtual_time);
        w.key("max_wall_secs").f64(max_wall);
        w.key("compute_cpu").f64(total.compute_cpu);
        let comm = total.comm;
        w.key("retransmits").u64(comm.reliable().retransmits);
        w.key("dup_drops").u64(comm.reliable().dup_drops);
        write_time_and_bytes(&mut w, &total);
        w.key("messages").begin_object();
        for (kind, name) in COMM_KINDS.into_iter().zip(KIND_KEYS) {
            w.key(name).u64(comm.messages(kind));
        }
        w.end_object();
        w.key("wire_format_bytes").begin_object();
        for (name, bytes) in ["flat", "dense", "sparse"]
            .into_iter()
            .zip(comm.format_bytes())
        {
            w.key(name).u64(bytes);
        }
        w.end_object();
        w.key("per_machine").begin_array();
        for (node, m) in self.nodes.iter().zip(&machines) {
            w.begin_object();
            w.key("machine").u64(node.machine as u64);
            write_time_and_bytes(&mut w, m);
            w.key("compute_cpu").f64(m.compute_cpu);
            w.key("lanes").u64(m.lanes as u64);
            w.key("wall_secs").f64(node.wall_secs);
            w.key("comm_wall_secs").f64(node.comm_wall_secs);
            let reliable = m.comm.reliable();
            w.key("retransmits").u64(reliable.retransmits);
            w.key("retransmit_bytes").u64(reliable.retransmit_bytes);
            w.key("dup_drops").u64(reliable.dup_drops);
            w.key("retransmit_peers").begin_object();
            for (peer, copies) in &node.retransmit_peers {
                w.key(&peer.to_string()).u64(*copies);
            }
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.key("cells").begin_array();
        for (key, cell) in &self.merged_cells() {
            w.begin_object();
            w.key("iteration").u64(key.iteration as u64);
            w.key("step").u64(key.step as u64);
            w.key("group").u64(key.group as u64);
            write_time_and_bytes(&mut w, cell);
            w.key("compute_cpu").f64(cell.compute_cpu);
            w.key("lanes").u64(cell.lanes as u64);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// The cells folded into one: times, bytes and counters summed in order,
/// lanes the widest.
fn sum_cells<'a>(cells: impl IntoIterator<Item = &'a CellStats>) -> CellStats {
    let mut sum = CellStats::default();
    for cell in cells {
        sum.absorb(cell);
    }
    sum
}

/// The `time` object (virtual seconds per span category) and the `bytes`
/// object (per byte category) of one record.
fn write_time_and_bytes(w: &mut JsonWriter, cell: &CellStats) {
    w.key("time").begin_object();
    for cat in SpanCategory::ALL {
        w.key(cat.name()).f64(cell.time(cat));
    }
    w.end_object();
    w.key("bytes").begin_object();
    for (kind, name) in COMM_KINDS.into_iter().zip(KIND_KEYS) {
        w.key(name).u64(cell.comm.bytes(kind));
    }
    w.end_object();
}

#[cfg(test)]
mod tests {
    use crate::{CommKind, SpanCategory, Trace, TraceLevel, TraceRecorder};

    #[test]
    fn export_contains_tracks_and_spans() {
        let mut a = TraceRecorder::new(0, TraceLevel::Full);
        a.set_scope(1, 2, 0);
        a.record_span(SpanCategory::Compute, 0.0, 1e-3);
        let mut b = TraceRecorder::new(1, TraceLevel::Full);
        b.set_scope(1, 2, 0);
        b.record_span(SpanCategory::DepWait, 1e-3, 3e-3);
        let json = Trace::new(vec![a.finish(), b.finish()]).to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("machine 0") && json.contains("machine 1"));
        assert!(json.contains("\"name\":\"compute\""));
        assert!(json.contains("\"name\":\"dep-wait\""));
        // 1 ms compute span → ts 0, dur 1000 µs on track 0.
        assert!(json.contains("\"ts\":0"));
        assert!(json.contains("\"dur\":1000"));
        assert!(json.contains("\"iteration\":1"));
    }

    #[test]
    fn executor_lanes_get_auxiliary_tracks() {
        let mut rec = TraceRecorder::new(2, TraceLevel::Full);
        rec.set_scope(0, 1, 0);
        rec.record_lanes(SpanCategory::Compute, 0.0, &[2e-3, 1e-3]);
        let json = Trace::new(vec![rec.finish()]).to_chrome_json();
        // Lane 0 stays on the machine's main track; lane 1 gets its own.
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"tid\":3001"));
        assert!(json.contains("machine 2 · lane 1"));
    }

    #[test]
    fn retry_spans_export_like_any_category() {
        let mut rec = TraceRecorder::new(0, TraceLevel::Full);
        rec.set_scope(0, 0, 0);
        rec.record_span(SpanCategory::Retry, 1e-3, 2e-3);
        let json = Trace::new(vec![rec.finish()]).to_chrome_json();
        assert!(json.contains("\"name\":\"retry\""));
        assert!(json.contains("\"cat\":\"retry\""));
    }

    #[test]
    fn metrics_level_exports_metadata_only() {
        let mut rec = TraceRecorder::new(0, TraceLevel::Metrics);
        rec.record_span(SpanCategory::Compute, 0.0, 1.0);
        let json = Trace::new(vec![rec.finish()]).to_chrome_json();
        assert!(json.contains("thread_name"));
        assert!(!json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn metrics_json_carries_totals_machines_and_cells() {
        let mut a = TraceRecorder::new(0, TraceLevel::Metrics);
        a.set_scope(0, 0, 0);
        a.record_span(SpanCategory::Compute, 0.0, 2.0);
        a.record_message(CommKind::Update, 40);
        a.record_message(CommKind::Update, 60);
        a.set_scope(1, 0, 0);
        a.record_lanes(SpanCategory::Compute, 2.0, &[3.0, 1.0]);
        let mut b = TraceRecorder::new(1, TraceLevel::Metrics);
        b.set_scope(0, 0, 0);
        b.record_span(SpanCategory::Retry, 0.0, 0.5);
        b.record_message(CommKind::Update, 60);
        b.record_retransmits(0, 2, 16);
        b.record_dup_drop();
        let (a, mut b) = (a.finish(), b.finish());
        b.wall_secs = 0.75;
        b.comm_wall_secs = 0.1;
        let json = Trace::new(vec![a, b]).to_metrics_json(2.5);
        assert!(json.starts_with('{') && json.ends_with('}'));
        for needle in [
            "{\"machines\":2,\"virtual_time\":2.5,\"max_wall_secs\":0.75,\"compute_cpu\":6,",
            "\"retransmits\":2,\"dup_drops\":1,",
            "\"time\":{\"compute\":5,",
            "\"retry\":0.5,",
            "\"bytes\":{\"update\":160,\"dependency\":0,\"collective\":0}",
            "\"messages\":{\"update\":3,",
            "\"lanes\":2,\"wall_secs\":0,\"comm_wall_secs\":0,",
            "\"wall_secs\":0.75,\"comm_wall_secs\":0.1,",
            "\"retransmit_bytes\":32,\"dup_drops\":1,\"retransmit_peers\":{\"0\":2}",
            "{\"iteration\":1,\"step\":0,\"group\":0,",
        ] {
            assert!(json.contains(needle), "{needle} not in {json}");
        }
        assert_eq!(json.matches("\"iteration\"").count(), 2, "two merged cells");
    }
}
