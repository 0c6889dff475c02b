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
//! (`BENCH_matrix.json`); `--matrix-check FILE` replays a committed
//! baseline wholesale and exits nonzero on any >10% cell regression —
//! the single perf gate `ci.sh` runs; `--matrix-identity FILE` replays it
//! and exits nonzero unless every cell is identical to the committed one
//! (a dependency-free workload's seconds and bytes may be lower).
//!
//! `--chrome-trace FILE` and `--metrics-json FILE` run one fully-traced
//! BFS (4 machines) and export the virtual-time timeline (open in
//! `chrome://tracing` or <https://ui.perfetto.dev>) or the structured
//! metrics report.

use std::time::Instant;
use symple_bench::experiments;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--chrome-trace FILE] [--metrics-json FILE]\n                   [--threads LIST [--scale N] [--scaling-json FILE]]\n                   [--scaling-check FILE] [--exec-json FILE] [--exec-smoke]\n                   [--comm-json FILE [--comm-graph NAME] [--comm-machines N]]\n                   [--comm-check FILE] [--faults] [--fault-json FILE]\n                   [--udf-report FILE] [--transport-json FILE]\n                   [--pipeline-json FILE] [--pipeline-check FILE]\n                   [--pipeline-smoke] [--matrix] [--matrix-json FILE]\n                   [--matrix-check FILE] [--matrix-identity FILE]\n                   [--matrix-smoke]\n                   [<id>... | all]\n  ids: table1..table7, fig10, fig11, cost, ablation_threshold,\n       ablation_groups, direction, replication, comm, transport,\n       pipeline, faults, udf, matrix\n  --threads LIST   comma-separated executor thread counts (e.g. 1,2,4);\n                   runs the intra-machine scaling sweep (one dense\n                   BFS-UDF pull pass under both executors) on an RMAT\n                   graph of 2^N vertices (--scale N, default 18) and\n                   writes the points to --scaling-json (default\n                   BENCH_scaling.json)\n  --scaling-check FILE  re-runs the sweep at the scale/thread counts\n                   recorded in FILE (a committed BENCH_scaling.json,\n                   best of three runs per cell) and exits nonzero if\n                   any cell's bytecode/interp wall ratio regressed by\n                   more than 10%\n  --exec-json FILE runs the executor study (per-edge UDF dispatch,\n                   interp vs bytecode, plus the streamed-vs-blocked\n                   apply sweep at scale 25) and writes BENCH_exec.json\n  --exec-smoke     runs one kernel through the full engine under both\n                   executors and fails unless outputs, work, comm, and\n                   modelled time are bit-identical; prints the ops per\n                   edge of each dispatch-study kernel's typed program,\n                   before and after the bind-time optimiser, and fails\n                   if one is over its budget\n  --comm-json FILE runs the wire-codec byte study (flat vs adaptive,\n                   Gemini vs SympleGraph) on --comm-graph (default s27)\n                   at --comm-machines (default 8) and writes the grid\n  --comm-check FILE  re-runs the byte study at the graph/machine count\n                   recorded in FILE (a committed BENCH_comm.json) and\n                   exits nonzero if any adaptive/flat data ratio\n                   regressed by more than 10%\n  --faults         runs the fault-injection absorption sweep (same as\n                   the `faults` id): seeded chaos plan, outputs and work\n                   asserted bit-identical to fault-free\n  --fault-json FILE  runs the sweep and also writes the raw grid\n  --udf-report FILE  runs the UDF carried-state minimization study\n                   (naive vs dataflow-minimized instrumentation) and\n                   writes the per-kernel payload grid (BENCH_udf.json)\n  --transport-json FILE  runs the transport backend study (simulator vs\n                   OS-thread transport; outputs asserted bit-identical,\n                   modelled virtual vs measured wall time per algorithm)\n                   and writes the grid (BENCH_transport.json)\n  --pipeline-json FILE  runs the pipelined-exchange study (bulk vs\n                   chunked pipelined update exchange across a machine\n                   sweep; outputs/work/comm asserted bit-identical,\n                   modelled stall overlap plus measured thread-backend\n                   walls, best of three) and writes the grid\n                   (BENCH_pipeline.json)\n  --pipeline-check FILE  re-runs the study at the graph/machine counts\n                   recorded in FILE (a committed BENCH_pipeline.json)\n                   and exits nonzero if any cell's overlap ratio\n                   (exchange stall / bulk send stall) regressed by more\n                   than 10%\n  --pipeline-smoke runs BFS / K-core / MIS under both exchange modes and\n                   both backends and fails unless work, comm, and the\n                   stall ordering are bit-identical\n  --matrix         runs the consolidated scenario matrix (algo x graph\n                   x policy x codec x exchange x threads x faults,\n                   same as the `matrix` id), asserting cross-cell\n                   output/work/byte bit-identity inline\n  --matrix-json FILE  runs the matrix and writes every cell\n                   (BENCH_matrix.json)\n  --matrix-check FILE  re-runs the matrix over the graphs/machine count\n                   recorded in FILE (a committed BENCH_matrix.json) and\n                   exits nonzero if any cell's virtual seconds or data\n                   bytes regressed by more than 10% — the consolidated\n                   perf gate\n  --matrix-identity FILE  re-runs the matrix the same way and exits\n                   nonzero unless every cell is byte-identical to the\n                   committed one; only a dependency-free workload's\n                   (PageRank's) virtual seconds and data bytes may\n                   differ, and only downward\n  --matrix-smoke   runs the matrix restricted to the SNAP-loaded karate\n                   graph (all workloads, policies, and knob variants)\n                   with the same inline invariants"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut chrome_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut threads_list: Option<Vec<usize>> = None;
    let mut scale: u32 = 18;
    let mut scaling_path = String::from("BENCH_scaling.json");
    let mut comm_path: Option<String> = None;
    let mut comm_graph = String::from("s27");
    let mut comm_machines: usize = 8;
    let mut comm_check_path: Option<String> = None;
    let mut scaling_check_path: Option<String> = None;
    let mut exec_json_path: Option<String> = None;
    let mut exec_smoke = false;
    let mut fault_json_path: Option<String> = None;
    let mut udf_path: Option<String> = None;
    let mut transport_path: Option<String> = None;
    let mut pipeline_path: Option<String> = None;
    let mut pipeline_check_path: Option<String> = None;
    let mut pipeline_smoke = false;
    let mut matrix_json_path: Option<String> = None;
    let mut matrix_check_path: Option<String> = None;
    let mut matrix_identity_path: Option<String> = None;
    let mut matrix_smoke = false;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--chrome-trace" => chrome_path = Some(it.next().unwrap_or_else(|| usage())),
            "--metrics-json" => metrics_path = Some(it.next().unwrap_or_else(|| usage())),
            "--threads" => {
                let list = it.next().unwrap_or_else(|| usage());
                let parsed: Result<Vec<usize>, _> =
                    list.split(',').map(|t| t.trim().parse()).collect();
                match parsed {
                    Ok(v) if !v.is_empty() && !v.contains(&0) => threads_list = Some(v),
                    _ => usage(),
                }
            }
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--scaling-json" => scaling_path = it.next().unwrap_or_else(|| usage()),
            "--comm-json" => comm_path = Some(it.next().unwrap_or_else(|| usage())),
            "--comm-graph" => comm_graph = it.next().unwrap_or_else(|| usage()),
            "--comm-machines" => {
                comm_machines = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&m| m > 0)
                    .unwrap_or_else(|| usage());
            }
            "--comm-check" => comm_check_path = Some(it.next().unwrap_or_else(|| usage())),
            "--scaling-check" => scaling_check_path = Some(it.next().unwrap_or_else(|| usage())),
            "--exec-json" => exec_json_path = Some(it.next().unwrap_or_else(|| usage())),
            "--exec-smoke" => exec_smoke = true,
            "--faults" => ids.push("faults".into()),
            "--fault-json" => fault_json_path = Some(it.next().unwrap_or_else(|| usage())),
            "--udf-report" => udf_path = Some(it.next().unwrap_or_else(|| usage())),
            "--transport-json" => transport_path = Some(it.next().unwrap_or_else(|| usage())),
            "--pipeline-json" => pipeline_path = Some(it.next().unwrap_or_else(|| usage())),
            "--pipeline-check" => pipeline_check_path = Some(it.next().unwrap_or_else(|| usage())),
            "--pipeline-smoke" => pipeline_smoke = true,
            "--matrix" => ids.push("matrix".into()),
            "--matrix-json" => matrix_json_path = Some(it.next().unwrap_or_else(|| usage())),
            "--matrix-check" => matrix_check_path = Some(it.next().unwrap_or_else(|| usage())),
            "--matrix-identity" => {
                matrix_identity_path = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--matrix-smoke" => matrix_smoke = true,
            "--help" | "-h" => usage(),
            _ => ids.push(arg),
        }
    }
    if ids.is_empty()
        && chrome_path.is_none()
        && metrics_path.is_none()
        && threads_list.is_none()
        && comm_path.is_none()
        && comm_check_path.is_none()
        && scaling_check_path.is_none()
        && exec_json_path.is_none()
        && !exec_smoke
        && fault_json_path.is_none()
        && udf_path.is_none()
        && transport_path.is_none()
        && pipeline_path.is_none()
        && pipeline_check_path.is_none()
        && !pipeline_smoke
        && matrix_json_path.is_none()
        && matrix_check_path.is_none()
        && matrix_identity_path.is_none()
        && !matrix_smoke
    {
        usage();
    }

    let start = Instant::now();
    if let Some(threads) = &threads_list {
        let points = experiments::scaling_sweep_reps(scale, threads, 3);
        let report = experiments::scaling_report(scale, &points);
        println!("=== {} — {} ===", report.id, report.title);
        println!("{}", report.text);
        let json = experiments::scaling_json(scale, &points);
        std::fs::write(&scaling_path, json).unwrap_or_else(|e| {
            eprintln!("error: writing {scaling_path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[scaling sweep written to {scaling_path}]");
    }
    if let Some(path) = &comm_path {
        let points = experiments::comm_study(&comm_graph, comm_machines);
        let json = experiments::comm_json(&comm_graph, comm_machines, &points);
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[wire-codec byte study written to {path}]");
    }
    if let Some(path) = &comm_check_path {
        let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: reading {path}: {e}");
            std::process::exit(1);
        });
        match experiments::comm_check(&baseline) {
            Ok(summary) => {
                println!("{summary}");
                eprintln!("[comm regression check against {path} passed]");
            }
            Err(failures) => {
                eprintln!("comm regression check against {path} FAILED:\n{failures}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &scaling_check_path {
        let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: reading {path}: {e}");
            std::process::exit(1);
        });
        match experiments::scaling_check(&baseline) {
            Ok(summary) => {
                println!("{summary}");
                eprintln!("[scaling regression check against {path} passed]");
            }
            Err(failures) => {
                eprintln!("scaling regression check against {path} FAILED:\n{failures}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &exec_json_path {
        let study = experiments::exec_study(25);
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
    if pipeline_smoke {
        println!("{}", experiments::pipeline_smoke());
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
    let matrix_gate = |gate: &str, path: &str, check: fn(&str) -> Result<String, String>| {
        let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: reading {path}: {e}");
            std::process::exit(1);
        });
        match check(&baseline) {
            Ok(summary) => {
                println!("{summary}");
                eprintln!("[matrix {gate} check against {path} passed]");
            }
            Err(failures) => {
                eprintln!("matrix {gate} check against {path} FAILED:\n{failures}");
                std::process::exit(1);
            }
        }
    };
    if let Some(path) = &matrix_check_path {
        matrix_gate("regression", path, symple_bench::matrix::matrix_check);
    }
    if let Some(path) = &matrix_identity_path {
        matrix_gate("identity", path, symple_bench::matrix::matrix_identity);
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
    if let Some(path) = &pipeline_path {
        let (name, machine_counts) = ("s27", [2usize, 4, 8]);
        let points = experiments::pipeline_study(name, &machine_counts, 3);
        let json = experiments::pipeline_json(name, &points);
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[pipelined-exchange study written to {path}]");
    }
    if let Some(path) = &pipeline_check_path {
        let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: reading {path}: {e}");
            std::process::exit(1);
        });
        match experiments::pipeline_check(&baseline) {
            Ok(summary) => {
                println!("{summary}");
                eprintln!("[pipeline overlap regression check against {path} passed]");
            }
            Err(failures) => {
                eprintln!("pipeline overlap regression check against {path} FAILED:\n{failures}");
                std::process::exit(1);
            }
        }
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
