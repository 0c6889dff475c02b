//! Per-run execution statistics.
//!
//! One coherent [`RunStats`] bundles the three facets of a distributed
//! run: **time** ([`TimeStats`]: virtual makespan, wall clock, and the
//! per-category virtual-time breakdown), **work** ([`WorkStats`]: typed
//! computation counters keyed by [`WorkMetric`]), and **comm**
//! (`symple_net::CommStats`: bytes and messages per kind, the trace's
//! communication total). The raw
//! per-machine [`Trace`] rides along and carries every categorized total,
//! so any consumer can read them, dump them as JSON
//! ([`Trace::to_metrics_json`]) or as a chrome://tracing timeline without
//! re-running.

use std::fmt;
use std::time::Duration;
use symple_net::CommStats;
use symple_trace::{SpanCategory, Trace};

/// A typed computation counter of the engine.
///
/// The iteration counts aggregate differently from the work counters: work
/// sums across machines, iterations are SPMD-wide (every machine executes
/// the same ones), so [`WorkStats::merge`] takes their maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkMetric {
    /// Edges actually examined by signal functions (Table 5's metric).
    EdgesTraversed,
    /// Destination entries examined (active-check granularity).
    VerticesExamined,
    /// Destinations skipped because received dependency said so — the
    /// paper's "eliminated unnecessary computation".
    SkippedByDep,
    /// Update messages emitted by signals.
    UpdatesEmitted,
    /// Updates consumed by the gather pass: each `(vertex, update)` pair
    /// handed to the caller's `apply` at the vertex's master, once. Equals
    /// [`WorkMetric::UpdatesEmitted`] for a completed iteration.
    UpdatesApplied,
    /// Pull iterations executed.
    PullIterations,
    /// Push iterations executed.
    PushIterations,
}

impl WorkMetric {
    /// All metrics, in display order.
    pub const ALL: [WorkMetric; 7] = [
        WorkMetric::EdgesTraversed,
        WorkMetric::VerticesExamined,
        WorkMetric::SkippedByDep,
        WorkMetric::UpdatesEmitted,
        WorkMetric::UpdatesApplied,
        WorkMetric::PullIterations,
        WorkMetric::PushIterations,
    ];

    fn index(self) -> usize {
        match self {
            WorkMetric::EdgesTraversed => 0,
            WorkMetric::VerticesExamined => 1,
            WorkMetric::SkippedByDep => 2,
            WorkMetric::UpdatesEmitted => 3,
            WorkMetric::UpdatesApplied => 4,
            WorkMetric::PullIterations => 5,
            WorkMetric::PushIterations => 6,
        }
    }

    /// Whether this metric counts SPMD-wide iterations (merged by max)
    /// rather than per-machine work (merged by sum).
    pub fn is_iteration_count(self) -> bool {
        matches!(
            self,
            WorkMetric::PullIterations | WorkMetric::PushIterations
        )
    }

    /// Stable lower-case name (used in exports).
    pub fn name(self) -> &'static str {
        match self {
            WorkMetric::EdgesTraversed => "edges_traversed",
            WorkMetric::VerticesExamined => "vertices_examined",
            WorkMetric::SkippedByDep => "skipped_by_dep",
            WorkMetric::UpdatesEmitted => "updates_emitted",
            WorkMetric::UpdatesApplied => "updates_applied",
            WorkMetric::PullIterations => "pull_iterations",
            WorkMetric::PushIterations => "push_iterations",
        }
    }
}

impl fmt::Display for WorkMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Typed computation counters accumulated by one machine's
/// [`crate::Worker`] (and merged across machines by [`crate::run_spmd`]).
///
/// # Example
///
/// ```
/// use symple_core::{WorkMetric, WorkStats};
/// let mut w = WorkStats::default();
/// w.add(WorkMetric::EdgesTraversed, 10);
/// assert_eq!(w.edges_traversed(), 10);
/// assert_eq!(w.get(WorkMetric::EdgesTraversed), 10);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkStats {
    counts: [u64; 7],
}

impl WorkStats {
    /// The counter for `metric`.
    pub fn get(&self, metric: WorkMetric) -> u64 {
        self.counts[metric.index()]
    }

    /// Adds `n` to the counter for `metric`.
    pub fn add(&mut self, metric: WorkMetric, n: u64) {
        self.counts[metric.index()] += n;
    }

    /// Edges examined by signal functions.
    pub fn edges_traversed(&self) -> u64 {
        self.get(WorkMetric::EdgesTraversed)
    }

    /// Destination entries examined.
    pub fn vertices_examined(&self) -> u64 {
        self.get(WorkMetric::VerticesExamined)
    }

    /// Destinations skipped on received dependency.
    pub fn skipped_by_dep(&self) -> u64 {
        self.get(WorkMetric::SkippedByDep)
    }

    /// Update messages emitted by signals.
    pub fn updates_emitted(&self) -> u64 {
        self.get(WorkMetric::UpdatesEmitted)
    }

    /// Updates consumed by the receive/apply pass.
    pub fn updates_applied(&self) -> u64 {
        self.get(WorkMetric::UpdatesApplied)
    }

    /// Pull iterations executed.
    pub fn pull_iterations(&self) -> u64 {
        self.get(WorkMetric::PullIterations)
    }

    /// Push iterations executed.
    pub fn push_iterations(&self) -> u64 {
        self.get(WorkMetric::PushIterations)
    }

    /// Merges another machine's counters into this one: work counters sum,
    /// iteration counts take the max (they are SPMD-wide).
    pub fn merge(&mut self, other: &WorkStats) {
        for metric in WorkMetric::ALL {
            let i = metric.index();
            if metric.is_iteration_count() {
                self.counts[i] = self.counts[i].max(other.counts[i]);
            } else {
                self.counts[i] += other.counts[i];
            }
        }
    }
}

/// Time facet of a run: the modelled makespan, the host wall clock, and
/// the per-category virtual-time breakdown (summed across machines).
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeStats {
    /// Modelled makespan on the emulated cluster (seconds of virtual
    /// time; the maximum machine clock).
    pub virtual_secs: f64,
    /// Host wall-clock time of the whole run, as observed by the driver
    /// (not comparable to paper numbers; see DESIGN.md).
    pub wall: Duration,
    /// Measured critical-path wall time: the slowest machine's own
    /// wall-clock, excluding cluster setup and teardown. On the thread
    /// backend this is the measured counterpart of `virtual_secs`; on the
    /// simulator it only reflects host scheduling.
    pub max_node_wall: Duration,
    /// Measured set-up wall time: fetching the graph's
    /// [`crate::PreparedGraph`] plus the slowest machine's [`crate::Worker`]
    /// construction (part of its `max_node_wall`). The first job on a
    /// graph and layout builds the partition, dependency layout and
    /// buckets here; later jobs find them, and this drops to microseconds.
    pub setup_wall: Duration,
    breakdown: [f64; 9],
}

impl TimeStats {
    /// Builds the time facet from a finished trace.
    pub fn from_trace(virtual_secs: f64, wall: Duration, trace: &Trace) -> Self {
        let mut breakdown = [0.0; 9];
        for cat in SpanCategory::ALL {
            breakdown[cat.index()] = trace.time(cat);
        }
        TimeStats {
            virtual_secs,
            wall,
            max_node_wall: Duration::ZERO,
            setup_wall: Duration::ZERO,
            breakdown,
        }
    }

    /// Virtual seconds attributed to `cat`, summed across machines.
    ///
    /// Note the sum over machines of *all* categories is roughly
    /// `machines × virtual_secs`, not `virtual_secs`: every machine's full
    /// timeline is categorized.
    pub fn category(&self, cat: SpanCategory) -> f64 {
        self.breakdown[cat.index()]
    }

    /// Total categorized virtual seconds (all machines, all categories).
    pub fn accounted(&self) -> f64 {
        self.breakdown.iter().sum()
    }
}

/// Aggregated result of a distributed run: time, work, and communication,
/// plus the raw per-machine trace they were derived from.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Time facet: virtual makespan, wall clock, category breakdown.
    pub time: TimeStats,
    /// Sum of all machines' typed work counters.
    pub work: WorkStats,
    /// Sum of all machines' communication: [`Trace::comm`] of `trace`,
    /// kept at every trace level.
    pub comm: CommStats,
    /// Per-machine categorized attribution: totals per machine and per
    /// run, exported with [`Trace::to_metrics_json`] and
    /// [`Trace::to_chrome_json`].
    pub trace: Trace,
}

impl RunStats {
    /// Modelled makespan in virtual seconds (shorthand for
    /// `self.time.virtual_secs`).
    pub fn virtual_time(&self) -> f64 {
        self.time.virtual_secs
    }

    /// Host wall-clock time (shorthand for `self.time.wall`).
    pub fn wall(&self) -> Duration {
        self.time.wall
    }

    /// Measured critical-path wall time — the slowest machine's wall
    /// clock (shorthand for `self.time.max_node_wall`).
    pub fn max_node_wall(&self) -> Duration {
        self.time.max_node_wall
    }

    /// Measured set-up wall time — building or fetching the prepared
    /// graph (shorthand for `self.time.setup_wall`).
    pub fn setup_wall(&self) -> Duration {
        self.time.setup_wall
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "virtual {:.4}s, wall {:?}, edges {}, skips {}, comm [{}]",
            self.time.virtual_secs,
            self.time.wall,
            self.work.edges_traversed(),
            self.work.skipped_by_dep(),
            self.comm
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symple_trace::{TraceLevel, TraceRecorder};

    #[test]
    fn merge_sums_counters_and_maxes_iterations() {
        let mut a = WorkStats::default();
        a.add(WorkMetric::EdgesTraversed, 10);
        a.add(WorkMetric::VerticesExamined, 4);
        a.add(WorkMetric::SkippedByDep, 1);
        a.add(WorkMetric::UpdatesEmitted, 2);
        a.add(WorkMetric::PullIterations, 3);
        let mut b = WorkStats::default();
        b.add(WorkMetric::EdgesTraversed, 5);
        b.add(WorkMetric::VerticesExamined, 6);
        b.add(WorkMetric::SkippedByDep, 2);
        b.add(WorkMetric::UpdatesEmitted, 1);
        b.add(WorkMetric::PullIterations, 3);
        b.add(WorkMetric::PushIterations, 1);
        a.merge(&b);
        assert_eq!(a.edges_traversed(), 15);
        assert_eq!(a.vertices_examined(), 10);
        assert_eq!(a.skipped_by_dep(), 3);
        assert_eq!(a.updates_emitted(), 3);
        assert_eq!(a.pull_iterations(), 3, "iterations are SPMD-max, not sum");
        assert_eq!(a.push_iterations(), 1);
    }

    #[test]
    fn time_breakdown_from_trace() {
        let mut rec = TraceRecorder::new(0, TraceLevel::Metrics);
        rec.record_span(SpanCategory::Compute, 0.0, 2.0);
        rec.record_span(SpanCategory::DepWait, 2.0, 2.5);
        let trace = Trace::new(vec![rec.finish()]);
        let time = TimeStats::from_trace(2.5, Duration::from_millis(1), &trace);
        assert_eq!(time.category(SpanCategory::Compute), 2.0);
        assert_eq!(time.category(SpanCategory::DepWait), 0.5);
        assert!((time.accounted() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn display_is_informative() {
        let s = RunStats::default().to_string();
        assert!(s.contains("virtual"));
        assert!(s.contains("edges"));
    }
}
