//! Virtual-time tracing and metrics for the SympleGraph reproduction.
//!
//! The simulated cluster (`symple-net`) advances a per-machine *virtual
//! clock* for every modelled action — edge processing, message
//! serialization, transfer waits, collectives. This crate gives every one
//! of those clock advances a name. Each machine owns a [`TraceRecorder`];
//! the engine attributes time to a [`SpanCategory`] and messages to a
//! [`CommKind`], keyed by the current [`Scope`] (iteration, circulant
//! step, buffer group). The recorder is the one place a communication
//! event is counted: [`CommStats`] is the per-machine total of its
//! ledger, and the cells are that total split by scope. The per-machine
//! results combine into a [`Trace`],
//! which exports to the `chrome://tracing` JSON format ([`Trace::to_chrome_json`],
//! virtual time on the x-axis, one track per machine) and totals its
//! counters per machine and per run ([`NodeTrace`], [`Trace`], and their
//! JSON dump [`Trace::to_metrics_json`]).
//!
//! Recording is always available and cheap: at [`TraceLevel::Off`] only
//! the communication totals are kept, at [`TraceLevel::Metrics`] (the
//! default) O(categories × cells) counters are touched too, and spans
//! are materialised only at [`TraceLevel::Full`].
//!
//! # Example
//!
//! ```
//! use symple_trace::{CommKind, SpanCategory, Trace, TraceLevel, TraceRecorder};
//!
//! let mut rec = TraceRecorder::new(0, TraceLevel::Full);
//! rec.set_scope(0, 1, 0); // iteration 0, circulant step 1, group 0
//! rec.record_span(SpanCategory::Compute, 0.0, 2.5e-3);
//! rec.record_message(CommKind::Update, 128);
//! let trace = Trace::new(vec![rec.finish()]);
//! assert_eq!(trace.nodes[0].time(SpanCategory::Compute), 2.5e-3);
//! assert_eq!(trace.comm().bytes(CommKind::Update), 128);
//! assert!(trace.to_chrome_json().contains("\"ph\":\"X\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comm;
mod export;
pub mod json;
mod recorder;

pub use comm::{CommKind, CommStats, ReliableStats, COMM_KINDS};
pub use recorder::{CellKey, CellStats, NodeTrace, Scope, Span, Trace, TraceRecorder};

/// How much the engine records.
///
/// The levels are strictly ordered: everything recorded at a level is also
/// recorded at the levels above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Keep only each machine's communication totals ([`CommStats`]):
    /// no cells and no spans.
    Off,
    /// Additionally accumulate categorized time and communication
    /// counters per (iteration, step, group) cell. Cheap; the default.
    #[default]
    Metrics,
    /// Additionally materialise every interval as a [`Span`] for the
    /// chrome://tracing export.
    Full,
}

impl TraceLevel {
    /// Whether categorized counters are being accumulated.
    pub fn metrics(self) -> bool {
        self >= TraceLevel::Metrics
    }

    /// Whether individual spans are being materialised.
    pub fn spans(self) -> bool {
        self >= TraceLevel::Full
    }
}

/// What a slice of virtual time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanCategory {
    /// Modelled local work: edge traversals and vertex examinations.
    Compute,
    /// Fixed per-message sender-side overhead (packing / syscall).
    Serialize,
    /// Waiting for an update-carrying message to arrive.
    Send,
    /// Waiting for a dependency message to arrive (the loop-carried
    /// dependency chain of the circulant schedule).
    DepWait,
    /// Waiting inside a barrier for the slowest machine.
    Barrier,
    /// Waiting inside a non-barrier collective (allgather / allreduce).
    Collective,
    /// Sender-side overhead of the reliable-delivery layer: retransmitting
    /// copies whose ack timer expired under an injected fault plan. Zero in
    /// fault-free runs — the category exists so fault recovery is visible
    /// without polluting the six fault-free categories.
    Retry,
    /// The apply pass: folding consumed updates into the destination
    /// masters' state. Charged from per-chunk lane costs, so it is
    /// distinguishable from the signal-side [`SpanCategory::Compute`]
    /// edge work.
    Apply,
    /// Waiting for the next frame of an update stream. The gather phase
    /// consumes update payloads one fixed-size frame at a time,
    /// interleaving each frame's apply charge with the arrival waits; the
    /// residual stall (arrival ahead of the clock) is charged here, not
    /// to [`SpanCategory::Send`].
    Exchange,
}

impl SpanCategory {
    /// All categories, in display order.
    pub const ALL: [SpanCategory; 9] = [
        SpanCategory::Compute,
        SpanCategory::Serialize,
        SpanCategory::Send,
        SpanCategory::DepWait,
        SpanCategory::Barrier,
        SpanCategory::Collective,
        SpanCategory::Retry,
        SpanCategory::Apply,
        SpanCategory::Exchange,
    ];

    /// Dense index into per-category arrays.
    pub fn index(self) -> usize {
        match self {
            SpanCategory::Compute => 0,
            SpanCategory::Serialize => 1,
            SpanCategory::Send => 2,
            SpanCategory::DepWait => 3,
            SpanCategory::Barrier => 4,
            SpanCategory::Collective => 5,
            SpanCategory::Retry => 6,
            SpanCategory::Apply => 7,
            SpanCategory::Exchange => 8,
        }
    }

    /// Whether the category represents busy local work on executor lanes
    /// (as opposed to waiting or messaging overhead). Compute-like time
    /// feeds the per-cell `compute_cpu` / `lanes` core-second accounting.
    pub fn is_compute_like(self) -> bool {
        matches!(self, SpanCategory::Compute | SpanCategory::Apply)
    }

    /// Stable lower-case name (used in exports).
    pub fn name(self) -> &'static str {
        match self {
            SpanCategory::Compute => "compute",
            SpanCategory::Serialize => "serialize",
            SpanCategory::Send => "send",
            SpanCategory::DepWait => "dep-wait",
            SpanCategory::Barrier => "barrier",
            SpanCategory::Collective => "collective",
            SpanCategory::Retry => "retry",
            SpanCategory::Apply => "apply",
            SpanCategory::Exchange => "exchange",
        }
    }
}

impl std::fmt::Display for SpanCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
