//! Running and timing jobs: batches, failure accounting, one untraced
//! round, and pooling rounds into the end-to-end metrics.
//!
//! Jobs run closed-loop, one at a time, from the calling thread. Only the
//! call into the system is timed: the oracles run before the first timed
//! job, fingerprinting and comparison between jobs.

use crate::json::Value;
use crate::spans::Recorder;
use crate::stats::{median, peak_rss_mb, percentile};
use crate::workload::{check_cores, Prepared, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use symple_core::{EngineConfig, RunStats};
use symple_net::CommKind;

/// Jobs run and discarded before the first timed one.
pub const WARMUP_JOBS: usize = 3;

/// A reported number with its name and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The exact per-job quantities read from the job's public `RunStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobCounters {
    pub traversed: u64,
    pub vertices_examined: u64,
    pub skipped_by_dep: u64,
    pub updates_emitted: u64,
    pub updates_applied: u64,
    pub pull_iterations: u64,
    pub push_iterations: u64,
    pub update_bytes: u64,
    pub dep_bytes: u64,
    pub sync_bytes: u64,
    pub messages: u64,
    pub retransmits: u64,
    pub virtual_s: f64,
    /// Largest share of a node's wall time spent inside the transport
    /// (not exact: measured by the transport's own clock).
    pub comm_wall_share: f64,
}

impl JobCounters {
    pub fn of(stats: &RunStats) -> Self {
        let comm_wall_share = stats
            .trace
            .nodes
            .iter()
            .filter(|n| n.wall_secs > 0.0)
            .map(|n| n.comm_wall_secs / n.wall_secs)
            .fold(0.0, f64::max);
        JobCounters {
            traversed: stats.work.edges_traversed(),
            vertices_examined: stats.work.vertices_examined(),
            skipped_by_dep: stats.work.skipped_by_dep(),
            updates_emitted: stats.work.updates_emitted(),
            updates_applied: stats.work.updates_applied(),
            pull_iterations: stats.work.pull_iterations(),
            push_iterations: stats.work.push_iterations(),
            update_bytes: stats.comm.bytes(CommKind::Update),
            dep_bytes: stats.comm.bytes(CommKind::Dependency),
            sync_bytes: stats.comm.bytes(CommKind::Sync),
            messages: stats.comm.total_messages(),
            retransmits: stats.comm.reliable().retransmits,
            virtual_s: stats.virtual_time(),
            comm_wall_share,
        }
    }

    pub fn wire_bytes(&self) -> u64 {
        self.update_bytes + self.dep_bytes + self.sync_bytes
    }
}

/// One timed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSample {
    pub wall_ms: f64,
    /// The job returned and its output matched the oracle.
    pub ok: bool,
    /// `None` if the job panicked.
    pub counters: Option<JobCounters>,
}

/// Expected fingerprints, one per job of the cycle.
pub struct Oracle {
    /// `None` once computed means the oracle itself panicked, which fails
    /// the job rather than the harness.
    expected: Vec<Option<Option<u64>>>,
}

impl Oracle {
    pub fn new(prep: &Prepared) -> Self {
        Oracle {
            expected: vec![None; prep.cycle()],
        }
    }

    /// Replaces the expected fingerprint of job `idx`.
    #[cfg(test)]
    pub fn set(&mut self, idx: usize, fingerprint: u64) {
        self.expected[idx] = Some(Some(fingerprint));
    }

    /// Computes the missing expectations. Call it before the first timed
    /// job: an oracle run between two jobs would evict what the second
    /// one finds cached.
    pub fn prepare(&mut self, prep: &Prepared, cfg: &EngineConfig, rec: &mut Recorder) {
        for (idx, slot) in self.expected.iter_mut().enumerate() {
            if slot.is_none() {
                let span = rec.enter("algos.reference", None);
                *slot = Some(catch_unwind(AssertUnwindSafe(|| prep.oracle(idx, cfg))).ok());
                rec.exit(span);
            }
        }
    }
}

/// The timed jobs of one configuration.
#[derive(Default)]
pub struct Batch {
    pub samples: Vec<JobSample>,
    /// Milliseconds spent fingerprinting and comparing, per job.
    pub validate_ms: Vec<f64>,
    /// Full statistics of the last job that returned.
    pub last_stats: Option<RunStats>,
}

impl Batch {
    /// Runs this batch's next job under `cfg`, times the call, and checks
    /// the output against the prepared oracle. A job fails if it panics
    /// or its fingerprint differs; neither stops the harness. `job_id`
    /// names the job in the span file. Returns the timed seconds.
    pub fn run_next(
        &mut self,
        prep: &Prepared,
        cfg: &EngineConfig,
        oracle: &Oracle,
        rec: &mut Recorder,
        job_id: u64,
    ) -> f64 {
        let idx = self.samples.len() % prep.cycle();
        let job_span = rec.enter("algos.job", Some(job_id));

        let run_span = rec.enter("algos.run", None);
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| prep.run_job(idx, cfg)));
        let wall = start.elapsed().as_secs_f64();
        rec.exit(run_span);

        let mut sample = JobSample {
            wall_ms: wall * 1e3,
            ok: false,
            counters: None,
        };
        if let Ok((output, stats)) = result {
            let expected = oracle.expected[idx].flatten();
            let (ok, ms) = rec.time("algos.validate", || Some(output.fingerprint()) == expected);
            self.validate_ms.push(ms);
            sample.ok = ok;
            sample.counters = Some(JobCounters::of(&stats));
            self.last_stats = Some(stats);
        }
        self.samples.push(sample);
        rec.exit(job_span);
        wall
    }

    pub fn walls_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.wall_ms).collect()
    }

    pub fn p50_ms(&self) -> f64 {
        median(&self.walls_ms())
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Mean of `f` over the jobs that returned.
    pub fn mean(&self, f: impl Fn(&JobCounters) -> f64) -> f64 {
        let values: Vec<f64> = self
            .samples
            .iter()
            .filter_map(|s| s.counters.as_ref())
            .map(f)
            .collect();
        if values.is_empty() {
            return 0.0;
        }
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Runs and discards `n` jobs so caches fill and lazy set-up finishes.
pub fn warm_up(prep: &Prepared, cfg: &EngineConfig, n: usize) {
    for j in 0..n {
        // A panicking warm-up shows up again as a failed timed job.
        let _ = catch_unwind(AssertUnwindSafe(|| prep.run_job(j % prep.cycle(), cfg)));
    }
}

/// Runs jobs under `cfg`, back to back, until the timed sections sum to
/// `seconds` and at least `min_jobs` have run.
pub fn run_batch(
    prep: &Prepared,
    cfg: &EngineConfig,
    seconds: f64,
    min_jobs: usize,
    oracle: &Oracle,
    rec: &mut Recorder,
) -> Batch {
    let mut batch = Batch::default();
    let mut timed_s = 0.0;
    while timed_s < seconds || batch.samples.len() < min_jobs {
        let job_id = batch.samples.len() as u64;
        timed_s += batch.run_next(prep, cfg, oracle, rec, job_id);
    }
    batch
}

/// What one round (one fresh process) measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundResult {
    /// Process start to first timed job, less the harness's oracle runs:
    /// graph generation, UDF compile, warm-ups.
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub vertices: u64,
    pub edges: u64,
    pub walls_ms: Vec<f64>,
    pub failed: u64,
    /// Jobs of the first cycle (each distinct job once) that returned;
    /// the exact counters below are summed over exactly these, so they do
    /// not depend on how many jobs the time budget allowed.
    pub cycle_jobs: u64,
    pub traversed: u64,
    pub wire_bytes: u64,
    pub virtual_s: f64,
}

/// Sizing of a round.
#[derive(Debug, Clone, Copy)]
pub struct RoundParams {
    pub scale: u32,
    pub seed: u64,
    pub round: usize,
    /// Seconds of timed sections.
    pub seconds: f64,
    /// Lower bound on timed jobs, on top of one full cycle.
    pub min_jobs: usize,
}

/// Runs one untraced round in this process. `started` is when the process
/// began.
pub fn run_round(
    workload: &'static Workload,
    params: RoundParams,
    started: Instant,
) -> Result<RoundResult, String> {
    check_cores(
        workload.machines,
        workload.threads,
        crate::workload::nproc(),
    )?;
    let mut rec = Recorder::new(false);
    let prep = Prepared::new(workload, params.scale, params.seed, params.round, &mut rec)?;
    let cfg = prep.config();
    // Oracles before the warm-ups, so the first timed job finds the caches
    // as every later one does; their time is the harness's, not set-up.
    let mut oracle = Oracle::new(&prep);
    let oracle_start = Instant::now();
    oracle.prepare(&prep, &cfg, &mut rec);
    let oracle_s = oracle_start.elapsed().as_secs_f64();
    warm_up(&prep, &cfg, WARMUP_JOBS);
    let setup_s = started.elapsed().as_secs_f64() - oracle_s;

    let min_jobs = params.min_jobs.max(prep.cycle());
    let batch = run_batch(&prep, &cfg, params.seconds, min_jobs, &oracle, &mut rec);
    let peak_rss_mb = peak_rss_mb()?;

    let first_cycle: Vec<&JobCounters> = batch.samples[..prep.cycle()]
        .iter()
        .filter_map(|s| s.counters.as_ref())
        .collect();
    Ok(RoundResult {
        setup_s,
        peak_rss_mb,
        vertices: prep.graph.num_vertices() as u64,
        edges: prep.graph.num_edges() as u64,
        walls_ms: batch.walls_ms(),
        failed: batch.failed(),
        cycle_jobs: first_cycle.len() as u64,
        traversed: first_cycle.iter().map(|c| c.traversed).sum(),
        wire_bytes: first_cycle.iter().map(|c| c.wire_bytes()).sum(),
        virtual_s: first_cycle.iter().map(|c| c.virtual_s).sum(),
    })
}

impl RoundResult {
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("setup_s", Value::Num(self.setup_s)),
            ("peak_rss_mb", Value::Num(self.peak_rss_mb)),
            ("vertices", Value::Num(self.vertices as f64)),
            ("edges", Value::Num(self.edges as f64)),
            ("walls_ms", Value::nums(&self.walls_ms)),
            ("failed", Value::Num(self.failed as f64)),
            ("cycle_jobs", Value::Num(self.cycle_jobs as f64)),
            ("traversed", Value::Num(self.traversed as f64)),
            ("wire_bytes", Value::Num(self.wire_bytes as f64)),
            ("virtual_s", Value::Num(self.virtual_s)),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Self, String> {
        Ok(RoundResult {
            setup_s: v.num("setup_s")?,
            peak_rss_mb: v.num("peak_rss_mb")?,
            vertices: v.num("vertices")? as u64,
            edges: v.num("edges")? as u64,
            walls_ms: v.num_array("walls_ms")?,
            failed: v.num("failed")? as u64,
            cycle_jobs: v.num("cycle_jobs")? as u64,
            traversed: v.num("traversed")? as u64,
            wire_bytes: v.num("wire_bytes")? as u64,
            virtual_s: v.num("virtual_s")?,
        })
    }
}

/// The end-to-end metrics of one workload, pooled over its rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    pub jobs: u64,
    pub jobs_failed: u64,
    /// In the order of [`crate::report::END_TO_END`], plus
    /// `wire_bytes_per_job`.
    pub metrics: Vec<Metric>,
    /// The same metrics computed per round: the run's own spread.
    pub per_round: Vec<(String, Vec<f64>)>,
}

/// Pools rounds: timings over all jobs of all rounds; `setup_s` and
/// `peak_rss_mb` as the median round; exact counters per job of the first
/// cycles.
///
/// # Panics
///
/// Panics if `rounds` is empty or a round timed no job.
pub fn pool(rounds: &[RoundResult]) -> EndToEnd {
    let per_job = |sum: f64, jobs: u64| if jobs == 0 { 0.0 } else { sum / jobs as f64 };
    let round_metrics = |rs: &[&RoundResult]| -> Vec<Metric> {
        let walls: Vec<f64> = rs.iter().flat_map(|r| r.walls_ms.iter().copied()).collect();
        let cycle_jobs: u64 = rs.iter().map(|r| r.cycle_jobs).sum();
        let total_s: f64 = walls.iter().sum::<f64>() / 1e3;
        let edges = rs[0].edges as f64;
        let sum = |f: fn(&RoundResult) -> f64| rs.iter().map(|r| f(r)).sum::<f64>();
        let med = |f: fn(&RoundResult) -> f64| median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>());
        vec![
            Metric::new("setup_s", med(|r| r.setup_s), "s"),
            Metric::new("job_ms_p50", median(&walls), "ms"),
            Metric::new("job_ms_p90", percentile(&walls, 90.0), "ms"),
            Metric::new(
                "medges_per_s",
                edges * walls.len() as f64 / total_s / 1e6,
                "Medges/s",
            ),
            Metric::new(
                "traversed_edges_per_job",
                per_job(sum(|r| r.traversed as f64), cycle_jobs),
                "count",
            ),
            Metric::new(
                "virtual_ms_per_job",
                per_job(sum(|r| r.virtual_s), cycle_jobs) * 1e3,
                "model_ms",
            ),
            Metric::new("peak_rss_mb", med(|r| r.peak_rss_mb), "MiB"),
            Metric::new(
                "wire_bytes_per_job",
                per_job(sum(|r| r.wire_bytes as f64), cycle_jobs),
                "bytes",
            ),
        ]
    };
    let all: Vec<&RoundResult> = rounds.iter().collect();
    let metrics = round_metrics(&all);
    let each: Vec<Vec<Metric>> = rounds.iter().map(|r| round_metrics(&[r])).collect();
    let per_round = metrics
        .iter()
        .enumerate()
        .map(|(i, m)| (m.name.clone(), each.iter().map(|e| e[i].value).collect()))
        .collect();
    EndToEnd {
        jobs: rounds.iter().map(|r| r.walls_ms.len() as u64).sum(),
        jobs_failed: rounds.iter().map(|r| r.failed).sum(),
        metrics,
        per_round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::find;

    fn round(walls_ms: &[f64], setup_s: f64) -> RoundResult {
        RoundResult {
            setup_s,
            peak_rss_mb: 100.0 + setup_s,
            vertices: 1024,
            edges: 1_000_000,
            walls_ms: walls_ms.to_vec(),
            failed: 0,
            cycle_jobs: 1,
            traversed: 500_000,
            wire_bytes: 4096,
            virtual_s: 0.002,
        }
    }

    fn value(e: &EndToEnd, name: &str) -> f64 {
        e.metrics.iter().find(|m| m.name == name).unwrap().value
    }

    #[test]
    fn rounds_pool_into_the_named_metrics() {
        let rounds = [
            round(&[10.0, 20.0], 1.0),
            round(&[30.0, 40.0], 3.0),
            round(&[50.0], 2.0),
        ];
        let e = pool(&rounds);
        assert_eq!(e.jobs, 5);
        assert_eq!(e.jobs_failed, 0);
        assert_eq!(value(&e, "job_ms_p50"), 30.0);
        assert_eq!(value(&e, "job_ms_p90"), 50.0);
        assert_eq!(value(&e, "setup_s"), 2.0);
        assert_eq!(value(&e, "peak_rss_mb"), 102.0);
        // 5 jobs x 1e6 edges in 0.150 s
        assert!((value(&e, "medges_per_s") - 5.0 / 0.150).abs() < 1e-9);
        assert_eq!(value(&e, "traversed_edges_per_job"), 500_000.0);
        assert_eq!(value(&e, "wire_bytes_per_job"), 4096.0);
        assert!((value(&e, "virtual_ms_per_job") - 2.0).abs() < 1e-12);
        let (name, p50s) = &e.per_round[1];
        assert_eq!(name, "job_ms_p50");
        assert_eq!(p50s, &[15.0, 35.0, 50.0]);
    }

    #[test]
    fn a_round_result_round_trips_through_json() {
        let r = RoundResult {
            walls_ms: vec![1.234_567_890_123, 2.5, 1e-3],
            virtual_s: 0.012_345_678_901_234_5,
            traversed: 4_400_000_123,
            ..round(&[], 1.75)
        };
        let text = r.to_json().to_string();
        assert_eq!(RoundResult::from_json(&Value::parse(&text).unwrap()), Ok(r));
        assert!(RoundResult::from_json(&Value::parse("{\"setup_s\": 1}").unwrap()).is_err());
    }

    #[test]
    fn a_corrupted_expected_fingerprint_is_a_failed_job_not_a_panic() {
        let w = find("kcore-peel").unwrap();
        let mut rec = Recorder::new(false);
        let prep = Prepared::new(w, 9, 1, 0, &mut rec).unwrap();
        let cfg = prep.config();

        let mut oracle = Oracle::new(&prep);
        oracle.prepare(&prep, &cfg, &mut rec);
        let good = run_batch(&prep, &cfg, 0.0, 2, &oracle, &mut rec);
        assert_eq!(good.failed(), 0);

        let truth = prep.oracle(0, &cfg);
        oracle.set(0, truth ^ 1);
        let bad = run_batch(&prep, &cfg, 0.0, 3, &oracle, &mut rec);
        assert_eq!(bad.samples.len(), 3);
        assert_eq!(bad.failed(), 3);
        assert!(bad
            .samples
            .iter()
            .all(|s| s.counters.is_some() && s.wall_ms > 0.0));
    }

    #[test]
    fn a_budget_still_runs_every_job_of_the_cycle() {
        let w = find("bfs-roots").unwrap();
        let mut rec = Recorder::new(true);
        let prep = Prepared::new(w, 9, 1, 0, &mut rec).unwrap();
        let cfg = prep.config();
        let mut oracle = Oracle::new(&prep);
        oracle.prepare(&prep, &cfg, &mut rec);
        let batch = run_batch(&prep, &cfg, 0.0, prep.cycle(), &oracle, &mut rec);
        assert_eq!(batch.samples.len(), prep.cycle());
        assert_eq!(batch.failed(), 0);
        let jobs: Vec<_> = rec
            .spans()
            .iter()
            .filter(|s| s.name == "algos.job")
            .collect();
        assert_eq!(jobs.len(), prep.cycle());
        assert_eq!(jobs[5].job, Some(5));
        // one reference per distinct root, all before the first job
        let refs: Vec<_> = rec
            .spans()
            .iter()
            .filter(|s| s.name == "algos.reference")
            .collect();
        assert_eq!(refs.len(), prep.cycle());
        assert!(refs.iter().all(|s| s.end_us <= jobs[0].start_us));
    }
}
