//! `symple-lint` — the clippy-style diagnostics CLI for the UDF language.
//!
//! ```text
//! # lint the built-in corpus (the five paper kernels plus the example
//! # sources); exits nonzero if any *error*-severity diagnostic fires
//! cargo run --release --example symple_lint
//!
//! # lint a UDF source file against a property schema
//! cargo run --release --example symple_lint -- my_udf.sg frontier:bool rank:float
//! ```
//!
//! Every finding carries a byte-offset span threaded from the parser, so
//! the output points at the offending statement rustc-style:
//!
//! ```text
//! warning[W004]: local `done` is syntactically carried but its value never
//! crosses a machine boundary; it is dropped from the dependency message
//!   --> line 3, col 3
//!   |
//! 3 |   bool done = false;
//!   |   ^^^^^^^^^^^^^^^^^^
//! ```
//!
//! Warning lints (W001 unused local, W002 constant condition, W003
//! unreachable statement, W004 dead carried state, W005 order-sensitive
//! float accumulation, W006 interpreter fallback (compiler limit, or an
//! `int` stored into a `float` local), W007 unbounded carried
//! range, W008 non-monotone break) never gate by default; error codes
//! (E000 parse, E001–E007 checker) exit 1. Two extra modes:
//!
//! * `--deny-warnings` promotes warnings to the gate: any warning-severity
//!   finding also exits 1 (for corpora that are expected to be clean).
//! * `--explain W007` prints the long-form rationale for a diagnostic
//!   code and exits (2 for an unknown code).
//!
//! `ci.sh` runs the no-argument mode so a UDF regression fails CI with a
//! readable span-anchored message, plus an inverted `--deny-warnings`
//! probe asserting the gate itself works.

use std::collections::BTreeMap;
use std::fmt::Write;
use symplegraph::udf::types::Ty;
use symplegraph::udf::{explain, lint_source, paper_udfs, pretty, render_diagnostics, Severity};

fn parse_ty(name: &str) -> Option<Ty> {
    Some(match name {
        "bool" => Ty::Bool,
        "int" => Ty::Int,
        "float" => Ty::Float,
        "vertex" => Ty::Vertex,
        _ => return None,
    })
}

/// Built-in corpus: the five paper kernels plus the three scenario-matrix
/// kernels (SSSP, CC, PageRank), pretty-printed back to source so spans
/// exercise the same path as file input, with their schemas.
fn corpus() -> Vec<(String, String, BTreeMap<String, Ty>)> {
    let schema = |entries: &[(&str, Ty)]| -> BTreeMap<String, Ty> {
        entries.iter().map(|(n, t)| (n.to_string(), *t)).collect()
    };
    vec![
        (
            "bfs".to_string(),
            pretty(&paper_udfs::bfs_udf()),
            schema(&[("frontier", Ty::Bool)]),
        ),
        (
            "mis".to_string(),
            pretty(&paper_udfs::mis_udf()),
            schema(&[("active", Ty::Bool), ("color", Ty::Int)]),
        ),
        (
            "kcore".to_string(),
            pretty(&paper_udfs::kcore_udf(8)),
            schema(&[("active", Ty::Bool)]),
        ),
        (
            "kmeans".to_string(),
            pretty(&paper_udfs::kmeans_udf()),
            schema(&[("assigned", Ty::Bool), ("cluster", Ty::Int)]),
        ),
        (
            "sampling".to_string(),
            pretty(&paper_udfs::sampling_udf()),
            schema(&[("weight", Ty::Float), ("r", Ty::Float)]),
        ),
        (
            "sssp".to_string(),
            pretty(&paper_udfs::sssp_udf()),
            schema(&[("reached", Ty::Bool), ("dist", Ty::Int), ("w", Ty::Int)]),
        ),
        (
            "cc".to_string(),
            pretty(&paper_udfs::cc_udf()),
            schema(&[("changed", Ty::Bool), ("label", Ty::Int)]),
        ),
        (
            "pagerank".to_string(),
            pretty(&paper_udfs::pagerank_udf()),
            schema(&[("contrib", Ty::Int)]),
        ),
    ]
}

/// The CLI proper: renders into `out` and returns the process exit code.
/// Split from `main` so the gate semantics have direct tests.
fn run(args: &[String], out: &mut String) -> i32 {
    if let Some(pos) = args.iter().position(|a| a == "--explain") {
        let Some(code) = args.get(pos + 1) else {
            let _ = writeln!(out, "error: --explain needs a diagnostic code (e.g. W007)");
            return 2;
        };
        return match explain(code) {
            Some(text) => {
                let _ = writeln!(out, "{code}: {text}");
                0
            }
            None => {
                let _ = writeln!(out, "error: unknown diagnostic code `{code}`");
                2
            }
        };
    }
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let positional: Vec<&String> = args.iter().filter(|a| *a != "--deny-warnings").collect();

    let cases: Vec<(String, String, BTreeMap<String, Ty>)> = if positional.is_empty() {
        corpus()
    } else {
        let path = positional[0];
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(e) => {
                let _ = writeln!(out, "error: reading {path}: {e}");
                return 2;
            }
        };
        let mut schema = BTreeMap::new();
        for pair in &positional[1..] {
            let Some((name, ty)) = pair
                .split_once(':')
                .and_then(|(n, t)| parse_ty(t).map(|ty| (n.to_string(), ty)))
            else {
                let _ = writeln!(
                    out,
                    "error: bad schema entry `{pair}` (want name:bool|int|float|vertex)"
                );
                return 2;
            };
            schema.insert(name, ty);
        }
        vec![(path.clone(), src, schema)]
    };

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for (name, src, schema) in &cases {
        let diags = lint_source(src, schema);
        if diags.is_empty() {
            continue;
        }
        errors += diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        warnings += diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count();
        let _ = writeln!(out, "---- {name} ----");
        let _ = writeln!(out, "{}\n", render_diagnostics(src, &diags));
    }
    let _ = writeln!(
        out,
        "symple-lint: {} case(s), {errors} error(s), {warnings} warning(s)",
        cases.len()
    );
    if errors > 0 || (deny_warnings && warnings > 0) {
        if deny_warnings && errors == 0 {
            let _ = writeln!(out, "symple-lint: failing on warnings (--deny-warnings)");
        }
        return 1;
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::new();
    let code = run(&args, &mut out);
    print!("{out}");
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(args: &[&str]) -> (i32, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = String::new();
        let code = run(&args, &mut out);
        (code, out)
    }

    #[test]
    fn corpus_warns_but_passes_by_default() {
        let (code, out) = run_args(&[]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("0 error(s)"), "{out}");
        // The corpus legitimately warns (kcore W004, sampling W005/W008,
        // cc W007, ...): the default mode must not gate on that.
        assert!(!out.contains("0 warning(s)"), "{out}");
    }

    #[test]
    fn deny_warnings_gates_the_warning_corpus() {
        let (code, out) = run_args(&["--deny-warnings"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("failing on warnings"), "{out}");
    }

    #[test]
    fn explain_prints_the_rationale() {
        let (code, out) = run_args(&["--explain", "W007"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("W007:"), "{out}");
        assert!(out.contains("dep_width"), "{out}");
        let (code, out) = run_args(&["--explain", "W008"]);
        assert_eq!(code, 0);
        assert!(out.contains("monotone"), "{out}");
        for known in [
            "E000", "E001", "E002", "E003", "E004", "E005", "E006", "E007", "W001", "W002", "W003",
            "W004", "W005", "W006",
        ] {
            let (code, out) = run_args(&["--explain", known]);
            assert_eq!(code, 0, "{known}: {out}");
        }
    }

    #[test]
    fn int_stored_into_a_float_local_is_reported_at_the_store() {
        // The one well-typed construct that costs a program the bytecode
        // VM: W006 points at each store, and the file still passes.
        let (code, out) = run_args(&["examples/lazy_widening.sg", "count:int"]);
        let w006 = "warning[W006]: an `int` value is stored into float local `w`; the typed \
                    VM cannot keep a lazily widened integer, so the whole program falls back \
                    to the interpreter (write the value as a float)";
        let golden = format!(
            "---- examples/lazy_widening.sg ----\n\
             {w006}\n  --> line 2, col 3\n  |\n2 |   float w = 0;\n  |   ^^^^^^^^^^^^\n\n\
             {w006}\n  --> line 4, col 5\n  |\n4 |     w = count[u];\n  |     ^^^^^^^^^^^^^\n\n\
             symple-lint: 1 case(s), 0 error(s), 2 warning(s)\n"
        );
        assert_eq!((code, out.as_str()), (0, golden.as_str()));
        // Over a float array only the literal is left to fix.
        let (code, out) = run_args(&["examples/lazy_widening.sg", "count:float"]);
        assert_eq!(code, 0);
        assert!(
            out.contains("1 warning(s)") && out.contains("float w = 0;"),
            "{out}"
        );
        let (_, out) = run_args(&["--explain", "W006"]);
        assert!(out.contains("stored into a `float` local"), "{out}");
        assert!(out.contains("resource limit"), "{out}");
    }

    #[test]
    fn explain_rejects_unknown_codes() {
        let (code, out) = run_args(&["--explain", "W999"]);
        assert_eq!(code, 2);
        assert!(out.contains("unknown diagnostic code"), "{out}");
        let (code, _) = run_args(&["--explain"]);
        assert_eq!(code, 2);
    }
}
