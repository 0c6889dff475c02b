//! The metric tables, the results file, and `compare`.

use crate::json::Value;
use crate::measure::{EndToEnd, Metric};
use std::process::Command;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: `bound` is the share of the base value by which
/// it may get worse before that counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// A count (or a time modelled from counts) that repeats bit for bit on
    /// the same inputs; its bound is there for the spread between seeds.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEndSpec {
    EndToEndSpec {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, bound: f64) -> EndToEndSpec {
    EndToEndSpec {
        exact: true,
        ..e2e(name, unit, Better::Lower, bound)
    }
}

/// The end-to-end metrics of BENCHMARK.json, in reporting order. None of
/// them is ever 0 on any workload.
pub const END_TO_END: [EndToEndSpec; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("job_ms_p50", "ms", Better::Lower, 0.25),
    e2e("job_ms_p90", "ms", Better::Lower, 0.25),
    e2e("medges_per_s", "Medges/s", Better::Higher, 0.25),
    exact("traversed_edges_per_job", "count", 0.15),
    exact("virtual_ms_per_job", "model_ms", 0.10),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

/// Recorded beside them by `run` and judged by `compare`, but 0 on the
/// one-machine workload, so BENCHMARK.json carries it as the per-layer
/// metric `net.wire_bytes_per_job` instead.
pub const WIRE_BYTES: EndToEndSpec = exact("wire_bytes_per_job", "bytes", 0.15);

/// Every metric `compare` judges.
pub fn compared() -> impl Iterator<Item = &'static EndToEndSpec> {
    END_TO_END.iter().chain([&WIRE_BYTES])
}

/// The per-layer metrics, in reporting order: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, Better); 62] = {
    use Better::{Higher, Lower};
    [
        ("graph.generate_ms", "ms", Lower),
        ("graph.load_ms", "ms", Lower),
        ("graph.vertices", "count", Higher),
        ("graph.edges", "count", Higher),
        ("core.partition_ms", "ms", Lower),
        ("core.dep_layout_ms", "ms", Lower),
        ("core.local_graph_ms", "ms", Lower),
        ("core.empty_job_ms", "ms", Lower),
        ("core.setup_share", "share", Lower),
        ("core.vertices_examined", "count", Lower),
        ("core.skipped_by_dep", "count", Higher),
        ("core.updates_emitted", "count", Lower),
        ("core.updates_applied", "count", Lower),
        ("core.pull_iterations", "count", Lower),
        ("core.push_iterations", "count", Lower),
        ("core.traversed_vs_gemini", "ratio", Lower),
        ("core.traversed_medges_per_s", "Medges/s", Higher),
        ("core.wall_vs_gemini", "ratio", Lower),
        ("core.machine_speedup", "ratio", Higher),
        ("core.thread_speedup", "ratio", Higher),
        ("net.wire_bytes_per_job", "bytes", Lower),
        ("net.update_bytes", "bytes", Lower),
        ("net.dep_bytes", "bytes", Lower),
        ("net.sync_bytes", "bytes", Lower),
        ("net.messages", "count", Lower),
        ("net.retransmits", "count", Lower),
        ("net.adaptive_vs_flat_bytes", "ratio", Lower),
        ("net.adaptive_vs_flat_wall", "ratio", Lower),
        ("net.comm_wall_share", "share", Lower),
        ("net.pingpong_us", "us", Lower),
        ("net.barrier_us", "us", Lower),
        ("net.allgather_us", "us", Lower),
        ("net.stream_mb_s", "MB/s", Higher),
        ("net.encode_updates_dense_mb_s", "MB/s", Higher),
        ("net.decode_updates_dense_mb_s", "MB/s", Higher),
        ("net.encode_updates_sparse_mb_s", "MB/s", Higher),
        ("net.decode_updates_sparse_mb_s", "MB/s", Higher),
        ("net.encode_dep_mb_s", "MB/s", Higher),
        ("net.decode_dep_mb_s", "MB/s", Higher),
        ("udf.compile_us", "us", Lower),
        ("udf.vm_ns_per_edge", "ns", Lower),
        ("udf.interp_ns_per_edge", "ns", Lower),
        ("udf.dispatch_share", "share", Lower),
        ("udf.interp_vs_bytecode_wall", "ratio", Higher),
        ("udf.bytecode_fallbacks", "count", Lower),
        ("udf.certified_vs_wide_dep_bytes", "ratio", Lower),
        ("algos.reference_ms_p50", "ms", Lower),
        ("algos.speedup_over_reference", "ratio", Higher),
        ("algos.iterations_per_job", "count", Lower),
        ("algos.validate_ms", "ms", Lower),
        ("trace.overhead_ratio", "ratio", Lower),
        ("trace.spans_per_job", "count", Lower),
        ("trace.virtual_share.compute", "share", Higher),
        ("trace.virtual_share.serialize", "share", Lower),
        ("trace.virtual_share.send", "share", Lower),
        ("trace.virtual_share.dep_wait", "share", Lower),
        ("trace.virtual_share.barrier", "share", Lower),
        ("trace.virtual_share.collective", "share", Lower),
        ("trace.virtual_share.apply", "share", Lower),
        ("trace.virtual_share.exchange", "share", Lower),
        ("trace.model_vs_wall", "ratio", Lower),
        ("trace.export_ms", "ms", Lower),
    ]
};

/// `(name, unit)` of every end-to-end metric of BENCHMARK.json.
pub fn end_to_end_specs() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END.iter().map(|s| (s.name, s.unit))
}

/// `(name, unit)` of every per-layer metric.
pub fn per_layer_specs() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER.iter().map(|&(name, unit, _)| (name, unit))
}

/// Checks that `metrics` are exactly the named ones, in order, with their
/// units, and finite.
pub fn check_metrics<'a>(
    metrics: &[Metric],
    specs: impl Iterator<Item = (&'a str, &'a str)>,
) -> Result<(), String> {
    let specs: Vec<_> = specs.collect();
    if metrics.len() != specs.len() {
        return Err(format!(
            "{} metrics reported, {} named",
            metrics.len(),
            specs.len()
        ));
    }
    for (m, (name, unit)) in metrics.iter().zip(specs) {
        if m.name != name || m.unit != unit {
            return Err(format!(
                "metric `{}` [{}] reported where `{name}` [{unit}] is named",
                m.name, m.unit
            ));
        }
        if !m.value.is_finite() {
            return Err(format!("metric `{name}` is not finite"));
        }
    }
    Ok(())
}

/// `{name: {"value": v, "unit": u}}`.
pub fn metrics_json(metrics: &[Metric]) -> Value {
    Value::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Value::obj([
                ("value", Value::Num(m.value)),
                ("unit", Value::Str(m.unit.to_string())),
            ]),
        )
    }))
}

/// Prints metrics by name with value and unit.
pub fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload:<17} {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

fn command_line(program: &str, args: &[&str], dir: &str) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment a results file was measured in. `jobs` is the least
/// number of timed jobs per round (`run`) or per variant (`traced`).
pub fn environment(seed: u64, rounds: usize, seconds: f64, jobs: usize) -> Value {
    let dir = env!("CARGO_MANIFEST_DIR");
    Value::obj([
        ("nproc", Value::Num(crate::workload::nproc() as f64)),
        ("rustc", Value::Str(command_line("rustc", &["-V"], dir))),
        (
            "git_commit",
            Value::Str(command_line("git", &["rev-parse", "HEAD"], dir)),
        ),
        ("seed", Value::Num(seed as f64)),
        ("rounds", Value::Num(rounds as f64)),
        ("seconds", Value::Num(seconds)),
        ("jobs", Value::Num(jobs as f64)),
    ])
}

/// One workload's entry in a `run` results file.
pub fn end_to_end_json(e: &EndToEnd) -> Value {
    Value::obj([
        ("jobs", Value::Num(e.jobs as f64)),
        ("jobs_failed", Value::Num(e.jobs_failed as f64)),
        ("metrics", metrics_json(&e.metrics)),
        (
            "per_round",
            Value::obj(e.per_round.iter().map(|(k, v)| (k.clone(), Value::nums(v)))),
        ),
    ])
}

/// A results file: the environment beside the metrics.
pub fn results_json(kind: &str, env: Value, workloads: Vec<(String, Value)>) -> Value {
    Value::obj([
        ("schema", Value::Num(1.0)),
        ("kind", Value::Str(kind.to_string())),
        ("env", env),
        ("workloads", Value::Obj(workloads)),
    ])
}

/// Verdict on one workload x metric cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Not worse by more than the bound, but the rounds of one side
    /// spread wider than the bound, so "unchanged" is not shown either.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against base `a`; `spread` is the wider of the two sides'
/// round-to-round spreads as a share of their value. With `same_inputs`
/// (one seed) an exact counter has no noise to allow for: any worsening is
/// a change in what the program does, and what its rounds differ by is
/// their inputs (each takes other BFS roots).
pub fn judge(spec: &EndToEndSpec, a: f64, b: f64, spread: f64, same_inputs: bool) -> Verdict {
    let (bound, spread) = if spec.exact && same_inputs {
        (0.0, 0.0)
    } else {
        (spec.bound, spread)
    };
    let worse_by = match spec.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 && worse_by > 0.0 || a != 0.0 && worse_by / a.abs() > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn cell(file: &Value, workload: &str, metric: &str) -> Result<(f64, f64), String> {
    let w = file
        .get("workloads")
        .and_then(|ws| ws.get(workload))
        .ok_or_else(|| format!("no workload `{workload}`"))?;
    let value = w
        .get("metrics")
        .and_then(|m| m.get(metric))
        .ok_or_else(|| format!("{workload}: no metric `{metric}`"))?
        .num("value")?;
    let rounds = w
        .get("per_round")
        .ok_or_else(|| format!("{workload}: no per_round"))?
        .num_array(metric)?;
    let (lo, hi) = rounds
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let spread = if value == 0.0 {
        0.0
    } else {
        (hi - lo) / value.abs()
    };
    Ok((value, spread))
}

/// The seed both files were measured with, if it is the same one. An
/// error unless both are `run` results of the same sizing: other files
/// are not comparable cell by cell.
fn common_seed(a: &Value, b: &Value) -> Result<Option<f64>, String> {
    let env = |file: &Value, key: &str| file.get("env").ok_or("no env")?.num(key);
    for file in [a, b] {
        let kind = file.get("kind").and_then(Value::as_str);
        if kind != Some("run") {
            return Err(format!("compare takes `run` results, not {kind:?}"));
        }
    }
    for key in ["rounds", "seconds", "jobs"] {
        let (va, vb) = (env(a, key)?, env(b, key)?);
        if va != vb {
            return Err(format!("the files differ in `{key}`: {va} and {vb}"));
        }
    }
    let (sa, sb) = (env(a, "seed")?, env(b, "seed")?);
    Ok((sa == sb).then_some(sa))
}

/// Compares results file `b` against base `a`, cell by cell. Returns the
/// report and whether `b` passes: no cell `worse`, and no larger share of
/// failed jobs on any workload. Two files of one seed must agree on the
/// exact counters to the last digit; files of different seeds are judged
/// with the bounds alone, which allow for the spread between seeds.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let seed = common_seed(a, b)?;
    let workloads = a
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("base file has no workloads")?;
    let mut out = match seed {
        Some(seed) => {
            format!("seed {seed} on both sides: exact counters are held to the last digit\n")
        }
        None => "different seeds: every metric is judged with its bound between seeds\n".into(),
    };
    out.push_str(&format!(
        "{:<17} {:<24} {:>16} {:>16} {:>9}  verdict\n",
        "workload", "metric", "A (base)", "B", "B/A"
    ));
    let mut pass = true;
    for (name, entry_a) in workloads {
        for spec in compared() {
            let (va, spread_a) = cell(a, name, spec.name)?;
            let (vb, spread_b) = cell(b, name, spec.name)?;
            let verdict = judge(spec, va, vb, spread_a.max(spread_b), seed.is_some());
            pass &= verdict != Verdict::Worse;
            let ratio = if va == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:.4}", vb / va)
            };
            out.push_str(&format!(
                "{name:<17} {:<24} {va:>16.4} {vb:>16.4} {ratio:>9}  {}\n",
                spec.name,
                verdict.name()
            ));
        }
        let entry_b = b
            .get("workloads")
            .and_then(|ws| ws.get(name))
            .ok_or_else(|| format!("no workload `{name}` in B"))?;
        let share = |e: &Value| Ok::<_, String>(e.num("jobs_failed")? / e.num("jobs")?);
        let (fa, fb) = (share(entry_a)?, share(entry_b)?);
        let ok = fb <= fa;
        pass &= ok;
        out.push_str(&format!(
            "{name:<17} {:<24} {fa:>16.4} {fb:>16.4} {:>9}  {}\n",
            "jobs_failed/jobs",
            "",
            if ok { "ok" } else { "worse" }
        ));
    }
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{pool, RoundResult};
    use crate::workload::WORKLOADS;

    fn results(p50_scale: f64, failed: u64) -> Value {
        results_of(27, 123_456, p50_scale, failed)
    }

    /// A `run` file of one workload: three rounds that differ in the edges
    /// they traverse, as rounds with other BFS roots do.
    fn results_of(seed: u64, traversed: u64, p50_scale: f64, failed: u64) -> Value {
        let rounds: Vec<RoundResult> = (0..3)
            .map(|r| RoundResult {
                setup_s: 2.0 + 0.01 * r as f64,
                peak_rss_mb: 300.0,
                vertices: 1024,
                edges: 1_000_000,
                walls_ms: (0..40)
                    .map(|j| p50_scale * (50.0 + 0.01 * j as f64))
                    .collect(),
                failed,
                cycle_jobs: 1,
                traversed: traversed + 50_000 * r,
                wire_bytes: 0,
                virtual_s: 0.004,
            })
            .collect();
        let entry = end_to_end_json(&pool(&rounds));
        results_json(
            "run",
            environment(seed, 3, 12.0, 20),
            vec![("w".to_string(), entry)],
        )
    }

    #[test]
    fn a_results_file_round_trips_and_records_its_environment() {
        let file = results(1.0, 0);
        let back = Value::parse(&file.pretty()).unwrap();
        assert_eq!(back, file);
        let env = back.get("env").unwrap();
        assert!(env.num("nproc").unwrap() >= 1.0);
        assert_eq!(env.num("seed"), Ok(27.0));
        assert_eq!(env.num("rounds"), Ok(3.0));
        assert!(env.get("rustc").and_then(Value::as_str).is_some());
        assert!(env.get("git_commit").and_then(Value::as_str).is_some());
        let (value, spread) = cell(&back, "w", "job_ms_p50").unwrap();
        assert!((value - 50.195).abs() < 1e-9 && spread < 1e-9);
    }

    #[test]
    fn compare_passes_equal_runs_and_flags_a_slower_one() {
        let base = results(1.0, 0);
        let (text, pass) = compare(&base, &results(1.0, 0)).unwrap();
        assert!(pass, "{text}");
        assert!(text.contains("wire_bytes_per_job") && text.contains("n/a"));
        assert!(!text.contains("worse"));

        let (text, pass) = compare(&base, &results(1.5, 0)).unwrap();
        assert!(!pass);
        let worse: Vec<_> = text.lines().filter(|l| l.ends_with("worse")).collect();
        assert_eq!(worse.len(), 3, "{text}"); // p50, p90, medges_per_s
        assert!(text.contains("1.5000"));

        // faster is not worse
        assert!(compare(&base, &results(0.8, 0)).unwrap().1);
        // more failed jobs is
        let (text, pass) = compare(&base, &results(1.0, 2)).unwrap();
        assert!(!pass && text.contains("jobs_failed/jobs"));
    }

    #[test]
    fn one_seed_must_agree_on_the_exact_counters_to_the_last_digit() {
        let base = results(1.0, 0);
        let exact_cell = |text: &str| {
            let line = text.lines().find(|l| l.contains("traversed_edges"));
            line.unwrap().rsplit(' ').next().unwrap().to_string()
        };
        // One more edge in 520 000 is far inside the bound between seeds.
        let (text, pass) = compare(&base, &results_of(27, 123_457, 1.0, 0)).unwrap();
        assert!(!pass && exact_cell(&text) == "worse", "{text}");
        // Fewer edges on the same inputs is an improvement, not a failure;
        // the rounds' different inputs do not make it unresolved.
        let (text, pass) = compare(&base, &results_of(27, 100_000, 1.0, 0)).unwrap();
        assert!(pass && exact_cell(&text) == "ok", "{text}");
        // Between seeds the same difference is inside the bound, but the
        // rounds spread wider than it.
        let (text, pass) = compare(&base, &results_of(28, 123_457, 1.0, 0)).unwrap();
        assert!(pass && exact_cell(&text) == "unresolved", "{text}");
        assert!(text.starts_with("different seeds"));
    }

    #[test]
    fn files_that_are_not_comparable_are_refused() {
        let base = results(1.0, 0);
        let with = |path: &[&str], value: Value| {
            fn set(v: &mut Value, path: &[&str], value: Value) {
                let Value::Obj(fields) = v else { panic!() };
                let slot = &mut fields.iter_mut().find(|(k, _)| k == path[0]).unwrap().1;
                match path.len() {
                    1 => *slot = value,
                    _ => set(slot, &path[1..], value),
                }
            }
            let mut file = base.clone();
            set(&mut file, path, value);
            file
        };
        let traced = with(&["kind"], Value::Str("traced".into()));
        assert!(compare(&base, &traced).unwrap_err().contains("traced"));
        let longer = with(&["env", "seconds"], Value::Num(30.0));
        assert!(compare(&base, &longer).unwrap_err().contains("seconds"));
        let fewer = with(&["env", "rounds"], Value::Num(2.0));
        assert!(compare(&fewer, &base).unwrap_err().contains("rounds"));
        assert!(compare(&base, &with(&["workloads"], Value::Obj(vec![]))).is_err());
        assert!(compare(&base, &Value::obj([("workloads", Value::Obj(vec![]))])).is_err());
    }

    #[test]
    fn a_wide_spread_is_unresolved_not_ok() {
        let lower = e2e("job_ms_p50", "ms", Better::Lower, 0.10);
        for same_inputs in [false, true] {
            assert_eq!(judge(&lower, 50.0, 52.0, 0.02, same_inputs), Verdict::Ok);
            assert_eq!(
                judge(&lower, 50.0, 52.0, 0.30, same_inputs),
                Verdict::Unresolved
            );
            assert_eq!(judge(&lower, 50.0, 60.0, 0.30, same_inputs), Verdict::Worse);
            assert_eq!(judge(&WIRE_BYTES, 0.0, 0.0, 0.0, same_inputs), Verdict::Ok);
            assert_eq!(
                judge(&WIRE_BYTES, 0.0, 8.0, 0.0, same_inputs),
                Verdict::Worse
            );
        }
        let higher = e2e("medges_per_s", "Medges/s", Better::Higher, 0.10);
        assert_eq!(judge(&higher, 50.0, 60.0, 0.0, false), Verdict::Ok);
        assert_eq!(judge(&higher, 50.0, 40.0, 0.0, false), Verdict::Worse);
        assert_eq!(judge(&WIRE_BYTES, 800.0, 801.0, 0.0, false), Verdict::Ok);
        assert_eq!(judge(&WIRE_BYTES, 800.0, 801.0, 0.0, true), Verdict::Worse);
    }

    #[test]
    fn benchmark_json_names_exactly_these_workloads_and_metrics() {
        let file = Value::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let list = |key: &str| file.get(key).and_then(Value::as_arr).unwrap().to_vec();
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (v, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(v, "name"), w.name);
            assert_eq!(text(v, "why"), w.why);
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (v, spec) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(v, "name"), spec.name);
            assert_eq!(text(v, "unit"), spec.unit);
            assert_eq!(text(v, "better"), spec.better.name());
            assert_eq!(v.num("bound"), Ok(spec.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (v, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(v, "name"), *name);
            assert_eq!(text(v, "unit"), *unit);
            assert_eq!(text(v, "better"), better.name());
        }
        assert_eq!(list("paths"), vec![Value::Str("benchmark".into())]);
    }
}
