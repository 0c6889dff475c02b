//! The SympleGraph job benchmark. See `README.md` beside this package.
//!
//! Driver mode, one workload per call, result as the last line of stdout:
//!
//! ```text
//! symple-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! ```
//!
//! Subcommands: `run` (every workload, untraced, every end-to-end metric),
//! `traced` (every workload, every per-layer metric, span file), `compare
//! A.json B.json`, `smoke`.

mod json;
mod layers;
mod measure;
mod report;
mod spans;
mod stats;
mod workload;

use json::Value;
use layers::{run_traced, TracedParams, JOBS_PER_VARIANT};
use measure::{pool, run_round, EndToEnd, Metric, RoundParams, RoundResult};
use report::{
    check_metrics, compare, end_to_end_json, end_to_end_specs, environment, metrics_json,
    per_layer_specs, print_metrics, results_json, END_TO_END,
};
use spans::Recorder;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{find, Workload, WORKLOADS};

/// Fresh processes per workload: variation between processes (allocator
/// and page placement) is larger than within one, so timings pool over
/// rounds and `setup_s` / `peak_rss_mb` are the median round.
const ROUNDS: usize = 5;
/// Seed used while developing; 28 is reserved for checking claims.
const DEFAULT_SEED: u64 = 27;
/// `run_seconds` of BENCHMARK.json, which `run` always measures with:
/// timed seconds per workload, split evenly over the rounds.
const RUN_SECONDS: f64 = 10.0;
/// Timed jobs per round, at least (and at least one full cycle).
const MIN_JOBS: usize = 24;

const USAGE: &str = "usage:
  symple-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
  symple-benchmark run     [--seed N] [--out FILE]
  symple-benchmark traced  [--seed N] [--out FILE] [--trace-out FILE]
  symple-benchmark compare A.json B.json
  symple-benchmark smoke";

/// `--key value` options after the subcommand, plus positional arguments.
struct Args {
    options: HashMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    /// Reads `args`; an option outside `allowed` is an error, not ignored.
    fn parse(args: &[String], allowed: &[&str]) -> Result<Self, String> {
        let mut options = HashMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    if !allowed.contains(&key) {
                        return Err(format!("unknown option --{key}\n{USAGE}"));
                    }
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    options.insert(key.to_string(), value.clone());
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args {
            options,
            positional,
        })
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.options
            .get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key}: cannot read `{v}`")))
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or_else(|| format!("missing --{key}"))
    }
}

fn write_file(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.pretty()).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read_file(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Result files go under the package unless `--out` says otherwise.
fn default_out(kind: &str, seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("{kind}-seed{seed}.json"))
}

/// Runs round `round` of `workload`, `seconds` of timed sections, in a
/// fresh child process.
fn spawn_round(
    workload: &Workload,
    seed: u64,
    round: usize,
    seconds: f64,
) -> Result<RoundResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let output = Command::new(exe)
        .arg("round")
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--round", &round.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting round {round}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "round {round} of {} ended with {}",
            workload.name, output.status
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().unwrap_or_default();
    RoundResult::from_json(&Value::parse(line)?)
}

/// The untraced measurement of one workload: `ROUNDS` fresh processes,
/// `seconds` of timed sections in total, pooled.
fn measure_workload(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
) -> Result<EndToEnd, String> {
    let rounds = (0..ROUNDS)
        .map(|round| spawn_round(workload, seed, round, seconds / ROUNDS as f64))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(pool(&rounds))
}

/// The child side of [`spawn_round`].
fn cmd_round(args: &Args, started: Instant) -> Result<ExitCode, String> {
    let workload = find(&args.required::<String>("workload")?)?;
    let params = RoundParams {
        scale: workload.scale,
        seed: args.required("seed")?,
        round: args.required("round")?,
        seconds: args.required("seconds")?,
        min_jobs: MIN_JOBS,
    };
    println!("{}", run_round(workload, params, started)?.to_json());
    Ok(ExitCode::SUCCESS)
}

/// The result line of driver mode.
fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> Value {
    Value::obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
}

fn exit_code(failed: u64) -> ExitCode {
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {failed} job(s) failed the correctness check");
        ExitCode::FAILURE
    }
}

/// Least share of the traced round's timed wall that must lie inside
/// `algos.job` spans.
const MIN_JOB_COVERAGE: f64 = 0.95;

/// Share of the traced round's timed wall inside `algos.job` spans. The
/// timed wall is the section in which the variants' jobs take turns
/// (`round.jobs`) less the empty-job probes run in it; what is left
/// outside the job spans is the harness's own time between jobs. An error
/// if the share is below [`MIN_JOB_COVERAGE`].
fn job_coverage(rec: &Recorder) -> Result<f64, String> {
    let timed_us = rec.total_us("round.jobs") - rec.total_us("core.empty_job");
    let share = rec.total_us("algos.job") / timed_us;
    if share.is_nan() || share < MIN_JOB_COVERAGE {
        return Err(format!(
            "algos.job spans cover {:.1}% of the traced round's timed wall, less than {:.0}%",
            100.0 * share,
            100.0 * MIN_JOB_COVERAGE
        ));
    }
    Ok(share)
}

/// Driver mode: one workload, untraced or traced.
fn cmd_driver(args: &Args) -> Result<ExitCode, String> {
    let workload = find(&args.required::<String>("workload")?)?;
    let seed: u64 = args.required("seed")?;
    let seconds: f64 = args.required("seconds")?;
    let (attempted, failed, metrics) = match args.required::<u8>("trace")? {
        0 => {
            let e = measure_workload(workload, seed, seconds)?;
            let metrics = e.metrics[..END_TO_END.len()].to_vec();
            check_metrics(&metrics, end_to_end_specs())?;
            (e.jobs, e.jobs_failed, metrics)
        }
        1 => {
            let mut rec = Recorder::new(true);
            let t = run_traced(workload, TracedParams::full(workload.scale, seed), &mut rec)?;
            check_metrics(&t.metrics, per_layer_specs())?;
            job_coverage(&rec)?;
            if let Some(path) = args.get::<PathBuf>("trace-out")? {
                write_file(&path, &rec.to_json(workload.name))?;
            }
            (t.attempted, t.failed, t.metrics)
        }
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    print_metrics(workload.name, &metrics);
    println!("{}", result_line(attempted, failed, &metrics));
    Ok(exit_code(failed))
}

/// `run`: every workload, untraced, `RUN_SECONDS` each; prints and
/// records every end-to-end metric.
fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let seed = args.get("seed")?.unwrap_or(DEFAULT_SEED);
    let out = args.get("out")?.unwrap_or_else(|| default_out("run", seed));
    let mut entries = Vec::new();
    let mut failed = 0;
    for workload in &WORKLOADS {
        let e = measure_workload(workload, seed, RUN_SECONDS)?;
        print_metrics(workload.name, &e.metrics);
        println!(
            "{:<17} {:<34} {:>18} count (out of {} jobs)",
            workload.name, "jobs_failed", e.jobs_failed, e.jobs
        );
        failed += e.jobs_failed;
        entries.push((workload.name.to_string(), end_to_end_json(&e)));
    }
    let env = environment(seed, ROUNDS, RUN_SECONDS, MIN_JOBS);
    write_file(&out, &results_json("run", env, entries))?;
    println!("results written to {}", out.display());
    Ok(exit_code(failed))
}

/// `traced`: every workload, one traced round each; prints and records
/// every per-layer metric and writes the span file.
fn cmd_traced(args: &Args) -> Result<ExitCode, String> {
    let seed = args.get("seed")?.unwrap_or(DEFAULT_SEED);
    let out = args
        .get("out")?
        .unwrap_or_else(|| default_out("traced", seed));
    let mut entries = Vec::new();
    let mut span_files = Vec::new();
    let mut failed = 0;
    for workload in &WORKLOADS {
        let mut rec = Recorder::new(true);
        let t = run_traced(workload, TracedParams::full(workload.scale, seed), &mut rec)?;
        check_metrics(&t.metrics, per_layer_specs())?;
        print_metrics(workload.name, &t.metrics);
        println!(
            "{:<17} algos.job spans cover {:.1}% of the traced round's timed wall",
            workload.name,
            100.0 * job_coverage(&rec)?
        );
        failed += t.failed;
        entries.push((
            workload.name.to_string(),
            Value::obj([
                ("jobs", Value::Num(t.attempted as f64)),
                ("jobs_failed", Value::Num(t.failed as f64)),
                ("metrics", metrics_json(&t.metrics)),
            ]),
        ));
        span_files.push(rec.to_json(workload.name));
    }
    let env = environment(seed, 1, 0.0, JOBS_PER_VARIANT);
    write_file(&out, &results_json("traced", env, entries))?;
    println!("results written to {}", out.display());
    if let Some(path) = args.get::<PathBuf>("trace-out")? {
        write_file(&path, &Value::Arr(span_files))?;
        println!("spans written to {}", path.display());
    }
    Ok(exit_code(failed))
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes two result files".to_string());
    };
    let (text, pass) = compare(&read_file(a)?, &read_file(b)?)?;
    print!("{text}");
    Ok(if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `smoke`: every workload and probe at scale 10, one round, a handful of
/// jobs; every named metric must be present and finite.
fn cmd_smoke() -> Result<ExitCode, String> {
    const SCALE: u32 = 10;
    let started = Instant::now();
    let mut failed = 0;
    for workload in &WORKLOADS {
        let params = RoundParams {
            scale: SCALE,
            seed: DEFAULT_SEED,
            round: 0,
            seconds: 0.0,
            min_jobs: 3,
        };
        let e = pool(&[run_round(workload, params, Instant::now())?]);
        check_metrics(&e.metrics[..END_TO_END.len()], end_to_end_specs())?;
        let traced = TracedParams {
            jobs: 3,
            reference_runs: 2,
            probe_reps: 1,
            ..TracedParams::full(SCALE, DEFAULT_SEED)
        };
        let mut rec = Recorder::new(true);
        let t = run_traced(workload, traced, &mut rec)?;
        check_metrics(&t.metrics, per_layer_specs())?;
        failed += e.jobs_failed + t.failed;
        println!(
            "{:<17} {} + {} jobs, {} + {} metrics present and finite, {} spans",
            workload.name,
            e.jobs,
            t.attempted,
            END_TO_END.len(),
            t.metrics.len(),
            rec.spans().len()
        );
    }
    println!("smoke: {:.1} s", started.elapsed().as_secs_f64());
    Ok(exit_code(failed))
}

fn dispatch(args: &[String], started: Instant) -> Result<ExitCode, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(first) if !first.starts_with("--") => (first, &args[1..]),
        _ => ("", args),
    };
    let allowed: &[&str] = match command {
        "" => &["workload", "seed", "seconds", "trace", "trace-out"],
        "round" => &["workload", "seed", "round", "seconds"],
        "run" => &["seed", "out"],
        "traced" => &["seed", "out", "trace-out"],
        _ => &[],
    };
    let parsed = Args::parse(rest, allowed)?;
    match command {
        "" if !rest.is_empty() => cmd_driver(&parsed),
        "round" => cmd_round(&parsed, started),
        "run" => cmd_run(&parsed),
        "traced" => cmd_traced(&parsed),
        "compare" => cmd_compare(&parsed),
        "smoke" => cmd_smoke(),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args, started).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        ExitCode::from(2)
    })
}
