//! CLI that regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p symple-bench --bin experiments -- all
//! cargo run --release -p symple-bench --bin experiments -- table4 fig11
//! cargo run --release -p symple-bench --bin experiments -- --chrome-trace trace.json
//! cargo run --release -p symple-bench --bin experiments -- --metrics-json metrics.json table6
//! ```
//!
//! Everything printed to stdout is modelled or counted, so two runs are
//! byte-identical; every report and matrix flag of one invocation reads
//! the same registry of cells, so nothing is measured twice.
//!
//! `--matrix-json FILE` regenerates the consolidated scenario matrix
//! (`BENCH_matrix.json`); `--matrix-identity FILE` replays a committed
//! file wholesale and exits nonzero unless every cell is identical to
//! the committed one — the single perf gate `ci.sh` runs.
//!
//! `--chrome-trace FILE` and `--metrics-json FILE` run one fully-traced
//! BFS (4 machines) and export the virtual-time timeline (open in
//! `chrome://tracing` or <https://ui.perfetto.dev>) or its categorized
//! totals as JSON (`Trace::to_metrics_json`).

use std::time::Instant;
use symple_bench::experiments::{self, ReportSpec};
use symple_bench::matrix::{self, MATRIX_GRAPHS, MATRIX_MACHINES};
use symple_bench::Registry;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--chrome-trace FILE] [--metrics-json FILE]\n                   [--matrix-json FILE] [--matrix-identity FILE]\n                   [--matrix-smoke]\n                   [<id>... | all]\n  ids:{}\n  --chrome-trace FILE, --metrics-json FILE\n                   run one fully-traced BFS (s27, 4 machines) and write\n                   its timeline / its metrics JSON\n  --matrix-json FILE  runs the scenario matrix (algo x graph x policy\n                   x codec x threads x faults, the `matrix` report) and\n                   writes every cell (BENCH_matrix.json)\n  --matrix-identity FILE  re-runs the matrix over the graphs/machine\n                   count recorded in FILE (a committed\n                   BENCH_matrix.json) and exits nonzero unless every\n                   cell is byte-identical to the committed one — the\n                   consolidated perf gate\n  --matrix-smoke   runs the matrix restricted to the SNAP-loaded karate\n                   graph (all workloads, policies, and knob variants)\n                   with the same inline invariants",
        experiments::usage_ids()
    );
    std::process::exit(2);
}

fn write_or_exit(path: &str, contents: impl AsRef<[u8]>) {
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("error: writing {path}: {e}");
        std::process::exit(1);
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut chrome_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut matrix_json_path: Option<String> = None;
    let mut matrix_identity_path: Option<String> = None;
    let mut matrix_smoke = false;
    // Everything is resolved before anything runs or is written: a
    // mistyped flag or id exits 2 with the disk untouched.
    let mut reports: Vec<&'static ReportSpec> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--chrome-trace" => chrome_path = Some(it.next().unwrap_or_else(|| usage())),
            "--metrics-json" => metrics_path = Some(it.next().unwrap_or_else(|| usage())),
            "--matrix-json" => matrix_json_path = Some(it.next().unwrap_or_else(|| usage())),
            "--matrix-identity" => {
                matrix_identity_path = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--matrix-smoke" => matrix_smoke = true,
            "all" => reports.extend(&experiments::REPORTS),
            flag if flag.starts_with('-') => usage(),
            id => match experiments::by_id(id) {
                Some(spec) => reports.push(spec),
                None => {
                    eprintln!("unknown experiment `{id}`");
                    std::process::exit(2);
                }
            },
        }
    }

    let start = Instant::now();
    let reg = Registry::new();
    if matrix_smoke {
        println!("{}", matrix::matrix_smoke(&reg));
    }
    if let Some(path) = &matrix_json_path {
        let cells = matrix::matrix_study(&reg, &MATRIX_GRAPHS, MATRIX_MACHINES);
        write_or_exit(path, matrix::matrix_json(MATRIX_MACHINES, &cells));
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
        match matrix::matrix_identity(&reg, &baseline) {
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
            write_or_exit(path, stats.trace.to_metrics_json(stats.virtual_time()));
            eprintln!("[metrics report written to {path}]");
        }
    }

    for spec in reports {
        let r = spec.run(&reg);
        println!("=== {} — {} ===", r.id, r.title);
        println!("{}", r.text);
    }
    eprintln!(
        "[experiments completed in {:?}, {} engine runs]",
        start.elapsed(),
        reg.engine_runs()
    );
}
