//! Harness-side spans: one per call the benchmark makes into a layer.
//!
//! Spans are kept in memory and written when the run ends. The untraced
//! run, which every end-to-end metric comes from, uses a disabled
//! recorder; spans inside the engine are a later change.

use crate::json::Value;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Job the span belongs to; spans of one job share it.
    pub job: Option<u64>,
}

/// Handle returned by [`Recorder::enter`], consumed by [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Records a tree of spans against one monotonic clock.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one, inheriting its job id
    /// unless `job` names one.
    pub fn enter(&mut self, name: &'static str, job: Option<u64>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let parent = self.open.last().copied();
        let job = job.or_else(|| parent.and_then(|p| self.spans[p].job));
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
            job,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if let Some(id) = id.0 {
            assert_eq!(
                self.open.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end_us = self.now_us();
        }
    }

    /// Times `f` as a span and returns its result with the elapsed
    /// milliseconds (measured whether or not recording is enabled).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name, None);
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.exit(id);
        (out, ms)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Total duration of the spans called `name`, in microseconds.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .sum()
    }

    /// The span file: every span with its parent and job id.
    pub fn to_json(&self, workload: &str) -> Value {
        let opt = |v: Option<f64>| v.map_or(Value::Null, Value::Num);
        Value::obj([
            ("workload", Value::Str(workload.to_string())),
            ("unit", Value::Str("us".to_string())),
            (
                "spans",
                Value::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(id, s)| {
                            Value::obj([
                                ("id", Value::Num(id as f64)),
                                ("name", Value::Str(s.name.to_string())),
                                ("start", Value::Num(s.start_us)),
                                ("end", Value::Num(s.end_us)),
                                ("parent", opt(s.parent.map(|p| p as f64))),
                                ("job", opt(s.job.map(|j| j as f64))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_job_id() {
        let mut rec = Recorder::new(true);
        let job = rec.enter("algos.job", Some(7));
        let (_, ms) = rec.time("algos.validate", || std::hint::black_box(1 + 1));
        rec.exit(job);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].job, Some(7));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        assert!(ms >= 0.0);
        assert!(rec.total_us("algos.job") >= rec.total_us("algos.validate"));
        assert_eq!(rec.total_us("round"), 0.0);
        let file = Value::parse(&rec.to_json("w").to_string()).unwrap();
        assert_eq!(file.get("spans").and_then(Value::as_arr).unwrap().len(), 2);
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing_but_still_times() {
        let mut rec = Recorder::new(false);
        let id = rec.enter("algos.job", Some(1));
        let (out, ms) = rec.time("graph.generate", || 5);
        rec.exit(id);
        assert_eq!(out, 5);
        assert!(ms >= 0.0);
        assert!(rec.spans().is_empty());
    }
}
