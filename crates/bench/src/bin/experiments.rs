//! CLI that regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p symple-bench --bin experiments -- all
//! cargo run --release -p symple-bench --bin experiments -- table4 fig11
//! cargo run --release -p symple-bench --bin experiments -- --chrome-trace trace.json
//! cargo run --release -p symple-bench --bin experiments -- --metrics-json metrics.json table6
//! ```
//!
//! `--matrix-json FILE` regenerates the consolidated scenario matrix
//! (`BENCH_matrix.json`); `--matrix-identity FILE` replays a committed
//! file wholesale and exits nonzero unless every cell is identical to
//! the committed one — the single perf gate `ci.sh` runs.
//!
//! `--chrome-trace FILE` and `--metrics-json FILE` run one fully-traced
//! BFS (4 machines) and export the virtual-time timeline (open in
//! `chrome://tracing` or <https://ui.perfetto.dev>) or the structured
//! metrics report.

use std::time::Instant;
use symple_bench::experiments;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--chrome-trace FILE] [--metrics-json FILE]\n                   [--exec-json FILE] [--exec-smoke] [--faults]\n                   [--fault-json FILE] [--udf-report FILE]\n                   [--transport-json FILE] [--matrix]\n                   [--matrix-json FILE] [--matrix-identity FILE]\n                   [--matrix-smoke]\n                   [<id>... | all]\n  ids: table1..table7, fig10, fig11, cost, ablation_threshold,\n       ablation_groups, direction, replication, comm, transport,\n       faults, udf, matrix\n  --exec-json FILE runs the executor study (per-edge UDF dispatch,\n                   interp vs bytecode) and writes BENCH_exec.json\n  --exec-smoke     runs one kernel through the full engine under both\n                   executors and fails unless outputs, work, comm, and\n                   modelled time are bit-identical; prints the ops per\n                   edge of each dispatch-study kernel's typed program,\n                   before and after the bind-time optimiser, and fails\n                   if one is over its budget\n  --faults         runs the fault-injection absorption sweep (same as\n                   the `faults` id): seeded chaos plan, outputs and work\n                   asserted bit-identical to fault-free\n  --fault-json FILE  runs the sweep and also writes the raw grid\n  --udf-report FILE  runs the UDF carried-state minimization study\n                   (naive vs dataflow-minimized instrumentation) and\n                   writes the per-kernel payload grid (BENCH_udf.json)\n  --transport-json FILE  runs the transport backend study (simulator vs\n                   OS-thread transport; outputs asserted bit-identical,\n                   modelled virtual vs measured wall time per algorithm)\n                   and writes the grid (BENCH_transport.json)\n  --matrix         runs the consolidated scenario matrix (algo x graph\n                   x policy x codec x threads x faults, same as the\n                   `matrix` id), asserting cross-cell output/work/byte\n                   bit-identity inline\n  --matrix-json FILE  runs the matrix and writes every cell\n                   (BENCH_matrix.json)\n  --matrix-identity FILE  re-runs the matrix over the graphs/machine\n                   count recorded in FILE (a committed\n                   BENCH_matrix.json) and exits nonzero unless every\n                   cell is byte-identical to the committed one — the\n                   consolidated perf gate\n  --matrix-smoke   runs the matrix restricted to the SNAP-loaded karate\n                   graph (all workloads, policies, and knob variants)\n                   with the same inline invariants"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut chrome_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut exec_json_path: Option<String> = None;
    let mut exec_smoke = false;
    let mut fault_json_path: Option<String> = None;
    let mut udf_path: Option<String> = None;
    let mut transport_path: Option<String> = None;
    let mut matrix_json_path: Option<String> = None;
    let mut matrix_identity_path: Option<String> = None;
    let mut matrix_smoke = false;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--chrome-trace" => chrome_path = Some(it.next().unwrap_or_else(|| usage())),
            "--metrics-json" => metrics_path = Some(it.next().unwrap_or_else(|| usage())),
            "--exec-json" => exec_json_path = Some(it.next().unwrap_or_else(|| usage())),
            "--exec-smoke" => exec_smoke = true,
            "--faults" => ids.push("faults".into()),
            "--fault-json" => fault_json_path = Some(it.next().unwrap_or_else(|| usage())),
            "--udf-report" => udf_path = Some(it.next().unwrap_or_else(|| usage())),
            "--transport-json" => transport_path = Some(it.next().unwrap_or_else(|| usage())),
            "--matrix" => ids.push("matrix".into()),
            "--matrix-json" => matrix_json_path = Some(it.next().unwrap_or_else(|| usage())),
            "--matrix-identity" => {
                matrix_identity_path = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--matrix-smoke" => matrix_smoke = true,
            "--help" | "-h" => usage(),
            _ => ids.push(arg),
        }
    }

    let start = Instant::now();
    if let Some(path) = &exec_json_path {
        let study = experiments::exec_study();
        let report = experiments::exec_report(&study);
        println!("=== {} — {} ===", report.id, report.title);
        println!("{}", report.text);
        let json = experiments::exec_json(&study);
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[executor study written to {path}]");
    }
    if exec_smoke {
        println!("{}", experiments::exec_smoke());
    }
    if matrix_smoke {
        println!("{}", symple_bench::matrix::matrix_smoke());
    }
    if let Some(path) = &matrix_json_path {
        use symple_bench::matrix::{matrix_json, matrix_study, MATRIX_GRAPHS, MATRIX_MACHINES};
        let cells = matrix_study(&MATRIX_GRAPHS, MATRIX_MACHINES);
        let json = matrix_json(MATRIX_MACHINES, &cells);
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "[scenario matrix ({} cells) written to {path}]",
            cells.len()
        );
    }
    if let Some(path) = &matrix_identity_path {
        let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: reading {path}: {e}");
            std::process::exit(1);
        });
        match symple_bench::matrix::matrix_identity(&baseline) {
            Ok(summary) => {
                println!("{summary}");
                eprintln!("[matrix identity check against {path} passed]");
            }
            Err(failures) => {
                eprintln!("matrix identity check against {path} FAILED:\n{failures}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &udf_path {
        let scale = 8;
        let points = experiments::udf_study(scale);
        let json = experiments::udf_json(scale, &points);
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[udf carried-state study written to {path}]");
    }
    if let Some(path) = &transport_path {
        let (name, machines) = ("s27", 4);
        let points = experiments::transport_study(name, machines);
        let json = experiments::transport_json(name, machines, &points);
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[transport backend study written to {path}]");
    }
    if let Some(path) = &fault_json_path {
        let (name, machines, seed) = ("s27", 4, 42);
        let points = experiments::fault_study(name, machines, seed);
        let json = experiments::fault_json(name, machines, seed, &points);
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[fault-injection study written to {path}]");
    }
    if chrome_path.is_some() || metrics_path.is_some() {
        let stats = experiments::traced_probe();
        if let Some(path) = &chrome_path {
            stats.trace.write_chrome_json(path).unwrap_or_else(|e| {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("[chrome trace written to {path} — open in chrome://tracing]");
        }
        if let Some(path) = &metrics_path {
            std::fs::write(path, stats.metrics().to_json()).unwrap_or_else(|e| {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("[metrics report written to {path}]");
        }
    }

    let reports = if ids.iter().any(|a| a == "all") {
        experiments::all()
    } else {
        let mut out = Vec::new();
        for id in &ids {
            match experiments::by_id(id) {
                Some(runner) => out.push(runner()),
                None => {
                    eprintln!("unknown experiment `{id}`");
                    std::process::exit(2);
                }
            }
        }
        out
    };
    for r in &reports {
        println!("=== {} — {} ===", r.id, r.title);
        println!("{}", r.text);
    }
    eprintln!("[experiments completed in {:?}]", start.elapsed());
}
