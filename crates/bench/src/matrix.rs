//! The scenario matrix: one consolidated sweep over
//! {algorithm × graph × policy × codec × threads × faults}.
//!
//! Each *base* cell runs an algorithm on a graph under the SympleGraph
//! and Gemini policies with the default knobs (flat codec, one thread,
//! no faults); each SympleGraph base cell then fans out into three
//! *variant* cells flipping exactly one knob (adaptive codec, two
//! executor threads, seeded chaos faults). While the sweep runs it
//! asserts the engine's determinism story **inline**:
//!
//! * every cell of an (algorithm, graph) pair — both policies and all
//!   three variants — produces the same output fingerprint (BFS is
//!   fingerprinted by depths only; parent choice legitimately depends
//!   on scan order);
//! * every variant traverses exactly as many edges as its base cell
//!   (knobs below the logical layer must not change the work); and
//! * the threaded and faulted variants ship exactly the base cell's
//!   logical bytes (the adaptive codec is the one knob *allowed* to
//!   change bytes — that is its purpose).
//!
//! Two UDF-driven workloads (`kcore-udf`, `sampling-udf`) ride along
//! with a wide base cell and a `certified-width` variant cell: the
//! abstract-interpretation certificate narrows the dependency wire, so
//! the variant must reproduce the base outputs and edges bit for bit
//! while *strictly* shrinking bytes — and the committed file then holds
//! the narrowed bytes.
//!
//! Every row is a [`Cell`] of the shared [`Registry`] under its knob
//! labels, so the matrix re-measures nothing another report of the same
//! process already has (its fault-free s27 cells are the `faults`
//! report's). The sweep serializes to `BENCH_matrix.json` — the one
//! committed schema — and [`matrix_identity`] replays the committed file
//! wholesale: every cell is re-measured and must serialize to exactly
//! the committed bytes — the single perf gate `ci.sh` runs. The
//! quantities are modelled, so they are the same on every host and in
//! every profile; a change that means to move a cell regenerates the
//! file and says so.

use crate::datasets::DATASETS;
use crate::experiments::{cfg, model_for};
use crate::fmt::table;
use crate::registry::{Cell, Registry, Workload, BFS};
use symple_core::{DepWidth, EngineConfig, FaultPlan, Policy};
use symple_net::{CostModel, WireCodec};

/// Matrix workloads: paper kernels (BFS from one root, K-core at the
/// grid's k) next to the three scenario-matrix kernels (SSSP, CC,
/// PageRank).
const MATRIX_ALGOS: [(&str, Workload); 5] = [
    ("bfs", BFS),
    ("kcore", Workload::Kcore(4)),
    ("sssp", Workload::Sssp),
    ("cc", Workload::Cc),
    ("pagerank", Workload::Pagerank),
];

/// UDF-driven matrix workloads: the instrumented kernels whose
/// certificates actually narrow the dependency wire (K-core's counter
/// fits one byte; sampling's latch elides its float payload). Each gets
/// a wide base cell plus a `certified-width` variant cell so the
/// `--matrix-identity` gate holds the narrowed-encoding bytes.
const MATRIX_UDF_ALGOS: [(&str, Workload); 2] = [
    (
        "kcore-udf",
        Workload::Udf {
            kernel: "kcore",
            naive: false,
        },
    ),
    (
        "sampling-udf",
        Workload::Udf {
            kernel: "sampling",
            naive: false,
        },
    ),
];

/// Graphs of the full matrix: the R-MAT Table-1 stand-in plus the real
/// SNAP-loaded dataset.
pub const MATRIX_GRAPHS: [&str; 2] = ["s27", "karate"];

/// Machine count every matrix cell runs at.
pub const MATRIX_MACHINES: usize = 4;

/// Chaos-plan seed for the fault variant.
const FAULT_SEED: u64 = 42;

/// One row of the scenario matrix: a registry [`Cell`] under its knob
/// labels, reduced to the four numbers `BENCH_matrix.json` holds.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Workload name.
    pub algo: &'static str,
    /// Dataset name (one of the registry's).
    pub graph: &'static str,
    /// Engine policy (`symple` or `gemini`).
    pub policy: &'static str,
    /// Wire codec (`flat` or `adaptive`), or `certified-width`.
    pub codec: &'static str,
    /// Executor threads.
    pub threads: usize,
    /// Whether the seeded chaos fault plan was active.
    pub faults: bool,
    /// Modelled seconds on the emulated cluster.
    pub virtual_secs: f64,
    /// Total logical bytes on the wire.
    pub data_bytes: u64,
    /// Edges traversed.
    pub edges: u64,
    /// FNV-1a-64 fingerprint of the algorithm output.
    pub fingerprint: u64,
}

impl MatrixCell {
    /// Stable cell identifier:
    /// `algo/graph/policy/codec/tN/{clean|faults}`.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/{}/t{}/{}",
            self.algo,
            self.graph,
            self.policy,
            self.codec,
            self.threads,
            if self.faults { "faults" } else { "clean" }
        )
    }
}

/// The knob half of a cell id: everything except the workload pair.
#[derive(Clone, Copy)]
struct Knobs {
    policy: &'static str,
    codec: &'static str,
    threads: usize,
    faults: bool,
}

fn cell_from(algo: &'static str, graph: &'static str, knobs: Knobs, cell: &Cell) -> MatrixCell {
    MatrixCell {
        algo,
        graph,
        policy: knobs.policy,
        codec: knobs.codec,
        threads: knobs.threads,
        faults: knobs.faults,
        virtual_secs: cell.time,
        data_bytes: cell.comm.total_bytes(),
        edges: cell.edges(),
        fingerprint: cell.fingerprint,
    }
}

const BASE_KNOBS: Knobs = Knobs {
    policy: "symple",
    codec: "flat",
    threads: 1,
    faults: false,
};

/// Runs the scenario matrix over `graphs` at `machines` machines,
/// asserting the cross-cell bit-identity invariants inline (see module
/// docs).
///
/// # Panics
///
/// Panics on an unknown graph name or on any violated invariant —
/// a fingerprint or work divergence here is an engine bug, not a
/// perf regression.
pub fn matrix_study(reg: &Registry, graphs: &[&'static str], machines: usize) -> Vec<MatrixCell> {
    let mut cells = Vec::new();
    for &graph_name in graphs {
        let cost = model_for(graph_name, CostModel::cluster_a());
        let symple = || cfg(machines, Policy::symple(), cost);
        for (algo, workload) in MATRIX_ALGOS {
            let row = |knobs: Knobs, config: EngineConfig| {
                let cell = reg.cell(workload, graph_name, &config);
                cell_from(algo, graph_name, knobs, &cell)
            };
            // Base cell: SympleGraph policy, default knobs.
            let base = row(BASE_KNOBS, symple());

            // Gemini counterpart: same output, no dependency savings.
            let gemini = row(
                Knobs {
                    policy: "gemini",
                    ..BASE_KNOBS
                },
                cfg(machines, Policy::Gemini, cost),
            );
            assert_eq!(
                gemini.fingerprint, base.fingerprint,
                "{algo}/{graph_name}: Gemini output fingerprint diverged from SympleGraph"
            );

            // Variants: one knob flipped per cell, SympleGraph policy.
            let variants = [
                (
                    Knobs {
                        codec: "adaptive",
                        ..BASE_KNOBS
                    },
                    symple().wire_codec(WireCodec::Adaptive),
                ),
                (
                    Knobs {
                        threads: 2,
                        ..BASE_KNOBS
                    },
                    symple().threads(2),
                ),
                (
                    Knobs {
                        faults: true,
                        ..BASE_KNOBS
                    },
                    symple().fault_plan(FaultPlan::chaos(FAULT_SEED)),
                ),
            ]
            .map(|(knobs, config)| row(knobs, config));
            for cell in &variants {
                assert_eq!(
                    cell.fingerprint,
                    base.fingerprint,
                    "{}: output fingerprint diverged from the base cell",
                    cell.id()
                );
                assert_eq!(
                    cell.edges,
                    base.edges,
                    "{}: edge traversals diverged from the base cell",
                    cell.id()
                );
                if cell.codec == "flat" {
                    // Executor threading and injected faults live below
                    // the logical byte accounting.
                    assert_eq!(
                        cell.data_bytes,
                        base.data_bytes,
                        "{}: logical bytes diverged from the base cell",
                        cell.id()
                    );
                }
            }
            cells.extend([base, gemini]);
            cells.extend(variants);
        }

        // UDF workloads: wide base cell vs `certified-width` variant.
        // The certificate only re-encodes the dependency wire, so the
        // variant must reproduce the base cell's outputs and work bit
        // for bit while strictly shrinking its bytes.
        for (algo, workload) in MATRIX_UDF_ALGOS {
            let at = |width: DepWidth| {
                let config = cfg(machines, Policy::symple_basic(), cost).dep_width(width);
                reg.cell(workload, graph_name, &config)
            };
            let wide_cell = at(DepWidth::Wide);
            let wide = cell_from(algo, graph_name, BASE_KNOBS, &wide_cell);
            let cert = cell_from(
                algo,
                graph_name,
                Knobs {
                    codec: "certified-width",
                    ..BASE_KNOBS
                },
                &at(DepWidth::Certified),
            );
            assert_eq!(
                cert.fingerprint,
                wide.fingerprint,
                "{}: output fingerprint diverged from the wide cell",
                cert.id()
            );
            assert_eq!(
                cert.edges,
                wide.edges,
                "{}: edge traversals diverged from the wide cell",
                cert.id()
            );
            // K-core's counter narrows 8 → 1 bytes, so any dependency
            // traffic shrinks strictly. Sampling's float stays 8 bytes
            // wide — its win is latch elision, which by construction
            // only removes payload where a segment actually latched.
            let must_shrink = algo == "kcore-udf" || wide_cell.work.skipped_by_dep() > 0;
            assert!(
                cert.data_bytes < wide.data_bytes
                    || (!must_shrink && cert.data_bytes == wide.data_bytes),
                "{}: certified-width encoding did not shrink the wire ({} vs {} bytes)",
                cert.id(),
                cert.data_bytes,
                wide.data_bytes
            );
            cells.extend([wide, cert]);
        }
    }
    cells
}

/// Serializes a matrix run as the `BENCH_matrix.json` document.
pub fn matrix_json(machines: usize, cells: &[MatrixCell]) -> String {
    let mut w = symple_trace::json::JsonWriter::new();
    w.begin_object();
    w.key("experiment").string("matrix");
    w.key("machines").u64(machines as u64);
    w.key("cells").begin_array();
    for c in cells {
        write_cell(&mut w, c);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// One cell as its `BENCH_matrix.json` object.
fn write_cell(w: &mut symple_trace::json::JsonWriter, c: &MatrixCell) {
    w.begin_object();
    w.key("id").string(&c.id());
    w.key("algo").string(c.algo);
    w.key("graph").string(c.graph);
    w.key("policy").string(c.policy);
    w.key("codec").string(c.codec);
    w.key("threads").u64(c.threads as u64);
    w.key("faults").bool(c.faults);
    w.key("virtual_secs").f64(c.virtual_secs);
    w.key("data_bytes").u64(c.data_bytes);
    w.key("edges").u64(c.edges);
    w.key("fingerprint")
        .string(&format!("{:016x}", c.fingerprint));
    w.end_object();
}

fn scan_str<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let rest = &s[s.find(key)? + key.len()..];
    rest.split('"').next()
}

/// Compares freshly measured cells with the committed document text,
/// exactly: every cell must serialize to the committed cell's bytes —
/// same knobs, virtual seconds, data bytes, edges and fingerprint. A
/// cell on one side only fails too. Every quantity is modelled, so a
/// difference in either direction means the change moved a cell.
pub fn matrix_identity_points(baseline_json: &str, cells: &[MatrixCell]) -> Result<String, String> {
    let cell_json = |c: &MatrixCell| {
        let mut w = symple_trace::json::JsonWriter::new();
        write_cell(&mut w, c);
        w.finish()
    };
    let mut committed_ids = Vec::new();
    let mut failures = Vec::new();
    // Cell objects are flat, so each runs from its `{"id":` to the next `}`.
    for (at, _) in baseline_json.match_indices("{\"id\":\"") {
        let rest = &baseline_json[at..];
        let committed = &rest[..rest.find('}').map_or(rest.len(), |end| end + 1)];
        let id = scan_str(committed, "\"id\":\"").unwrap_or_default();
        committed_ids.push(id);
        match cells.iter().find(|c| c.id() == id) {
            None => failures.push(format!("{id}: cell missing from the current matrix")),
            Some(cell) if cell_json(cell) != committed => failures.push(format!(
                "{id}: differs from the committed cell\n  committed {committed}\n  measured  {}",
                cell_json(cell)
            )),
            Some(_) => {}
        }
    }
    for c in cells {
        if !committed_ids.contains(&c.id().as_str()) {
            failures.push(format!(
                "{}: cell missing from the committed matrix",
                c.id()
            ));
        }
    }
    if failures.is_empty() {
        Ok(format!(
            "{} cells identical to the committed file",
            committed_ids.len()
        ))
    } else {
        Err(failures.join("\n"))
    }
}

/// The `--matrix-identity` entry point: re-runs the scenario matrix over
/// the committed file's graphs and machine count (as written by
/// [`matrix_json`]: no whitespace, known key order) and holds every cell
/// to [`matrix_identity_points`].
pub fn matrix_identity(reg: &Registry, baseline_json: &str) -> Result<String, String> {
    let machines = baseline_json
        .split_once("\"machines\":")
        .and_then(|(_, rest)| rest.split([',', '}']).next())
        .and_then(|digits| digits.parse::<usize>().ok())
        .ok_or("baseline: missing \"machines\"")?;
    let mut graphs: Vec<&'static str> = Vec::new();
    for (at, key) in baseline_json.match_indices("\"graph\":\"") {
        let name = scan_str(&baseline_json[at..], key).unwrap_or_default();
        let known = DATASETS
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| format!("baseline references unknown dataset `{name}`"))?;
        if !graphs.contains(&known.name) {
            graphs.push(known.name);
        }
    }
    if graphs.is_empty() {
        return Err("baseline: no cells found".into());
    }
    let cells = matrix_study(reg, &graphs, machines);
    matrix_identity_points(baseline_json, &cells)
}

fn render(machines: usize, cells: &[MatrixCell]) -> String {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.algo.to_string(),
                c.graph.to_string(),
                c.policy.to_string(),
                c.codec.to_string(),
                format!("t{}", c.threads),
                if c.faults { "chaos" } else { "clean" }.to_string(),
                format!("{:.4}", c.virtual_secs),
                c.data_bytes.to_string(),
                c.edges.to_string(),
                format!("{:016x}", c.fingerprint),
            ]
        })
        .collect();
    format!(
        "{}\n{} cells, {machines} machines. Output fingerprints, edge counts, and\nlogical bytes were asserted bit-identical across policies, thread\ncounts, and fault plans while the sweep ran (the adaptive codec may\nonly shrink bytes); every surviving row is a performance datapoint,\nnot a correctness question.\n",
        table(
            &[
                "app", "graph", "system", "codec", "threads", "faults", "secs", "bytes", "edges",
                "fingerprint"
            ],
            &rows
        ),
        cells.len()
    )
}

/// The full scenario matrix as a report (id `matrix`).
pub(crate) fn matrix_report(reg: &Registry) -> String {
    let cells = matrix_study(reg, &MATRIX_GRAPHS, MATRIX_MACHINES);
    render(MATRIX_MACHINES, &cells)
}

/// The quick-path smoke: the matrix restricted to the SNAP-loaded
/// `karate` graph, exercising every workload, policy, and knob variant
/// (29 cells, including the UDF `certified-width` pairs) plus all the
/// inline invariants in well under a second.
pub fn matrix_smoke(reg: &Registry) -> String {
    let cells = matrix_study(reg, &["karate"], MATRIX_MACHINES);
    render(MATRIX_MACHINES, &cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn karate_cells() -> Vec<MatrixCell> {
        matrix_study(&Registry::new(), &["karate"], 2)
    }

    #[test]
    fn karate_matrix_covers_every_knob() {
        let cells = karate_cells();
        // 5 algos x (2 policies + 3 variants) + 2 UDF algos x 2 widths
        assert_eq!(cells.len(), 29);
        let mut ids: Vec<String> = cells.iter().map(MatrixCell::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 29, "cell ids must be unique");
        assert!(cells.iter().any(|c| c.codec == "adaptive"));
        assert!(cells.iter().any(|c| c.threads == 2));
        assert!(cells.iter().any(|c| c.faults));
        assert!(cells.iter().all(|c| c.edges > 0));
        assert!(cells.iter().all(|c| c.virtual_secs > 0.0));
        // The certified-width pairs made it in, one per UDF workload.
        // K-core narrows its counter and must shrink strictly even on
        // karate; sampling's elision has nothing to elide on a graph
        // where no segment latches, so it only must not grow.
        for (algo, _) in MATRIX_UDF_ALGOS {
            let wide = cells
                .iter()
                .find(|c| c.algo == algo && c.codec == "flat")
                .expect("wide UDF cell");
            let cert = cells
                .iter()
                .find(|c| c.algo == algo && c.codec == "certified-width")
                .expect("certified UDF cell");
            assert!(cert.data_bytes <= wide.data_bytes, "{algo}: bytes grew");
            assert_eq!(cert.fingerprint, wide.fingerprint);
        }
        let kcore_wide = cells
            .iter()
            .find(|c| c.algo == "kcore-udf" && c.codec == "flat")
            .unwrap();
        let kcore_cert = cells
            .iter()
            .find(|c| c.algo == "kcore-udf" && c.codec == "certified-width")
            .unwrap();
        assert!(kcore_cert.data_bytes < kcore_wide.data_bytes, "no byte win");
    }

    #[test]
    fn identity_check_holds_every_cell_to_the_committed_bytes() {
        let cells = karate_cells();
        let committed = matrix_json(2, &cells);
        let ok = matrix_identity_points(&committed, &cells).expect("identical run must pass");
        assert!(ok.starts_with("29 cells identical"), "{ok}");
        // The entry point reads the graphs and machine count back out of
        // the document it is given.
        assert_eq!(matrix_identity(&Registry::new(), &committed), Ok(ok));
        let at = |algo: &str| cells.iter().position(|c| c.algo == algo).unwrap();
        let with = |i: usize, edit: fn(&mut MatrixCell)| {
            let mut moved = cells.clone();
            edit(&mut moved[i]);
            matrix_identity_points(&committed, &moved)
        };

        // No cell may move, in either direction, in any measured field.
        let err = with(at("pagerank"), |c| c.data_bytes -= 1).expect_err("lower must fail");
        assert!(err.contains("differs from the committed cell"), "{err}");
        with(at("pagerank"), |c| c.data_bytes += 1).expect_err("higher must fail");
        with(at("kcore"), |c| c.edges += 1).expect_err("edges moved");
        with(at("cc"), |c| c.fingerprint ^= 1).expect_err("fingerprint moved");
        with(at("bfs"), |c| c.virtual_secs *= 0.999).expect_err("bfs seconds moved");

        // A cell on one side only fails.
        let err = matrix_identity_points(&committed, &cells[1..]).expect_err("dropped cell");
        assert!(err.contains("missing from the current matrix"), "{err}");
        let fewer = matrix_json(2, &cells[1..]);
        let err = matrix_identity_points(&fewer, &cells).expect_err("uncommitted cell");
        assert!(err.contains("missing from the committed matrix"), "{err}");
    }

    #[test]
    fn malformed_baselines_are_errors_not_panics() {
        let json = r#"{"experiment":"matrix","machines":2,"cells":[{"id":"bfs/nope/symple/flat/t1/clean","algo":"bfs","graph":"nope","virtual_secs":1.0,"data_bytes":10}]}"#;
        let reg = Registry::new();
        let err = matrix_identity(&reg, json).expect_err("unknown graph must not panic");
        assert!(err.contains("unknown dataset"), "{err}");
        let err = matrix_identity(&reg, r#"{"machines":2,"cells":[]}"#).expect_err("no cells");
        assert!(err.contains("no cells"), "{err}");
        let err = matrix_identity(&reg, "{}").expect_err("no machine count");
        assert!(err.contains("machines"), "{err}");
    }
}
