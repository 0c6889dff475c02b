//! The analysis facts of a fixed corpus, pinned to a committed listing:
//! for every UDF, [`analyze`]'s `DepInfo` (kind, carried set, breaks,
//! reachable breaks and the whole certificate) and the diagnostics
//! [`lint`] renders. The corpus is the eight paper UDFs (k-core at two
//! values of k), the sources of `golden_diagnostics.rs` plus two with
//! code no path reaches, 256 UDFs of the random generator at fixed
//! seeds, and UDFs whose certified range depends on the interval
//! solver's widening delay and narrowing sweeps. A change to any
//! analysis shows up
//! as a diff of `tests/listings/analysis_facts.txt`: run the test with
//! `BLESS_LISTINGS=1` to rewrite the file, then read `git diff`.

use std::collections::BTreeMap;
use std::fmt::Write;

use symple_udf::types::Ty;
use symple_udf::{analyze, lint, lint_source, paper_udfs, parse_udf, render_diagnostics, UdfFn};

#[path = "support/gen.rs"]
#[allow(dead_code)]
mod gen;
use gen::{store, Gen};

fn schema(entries: &[(&str, Ty)]) -> BTreeMap<String, Ty> {
    entries.iter().map(|(n, t)| (n.to_string(), *t)).collect()
}

/// The eight paper UDFs with the schemas of the `symple_lint` corpus.
fn paper_cases() -> Vec<(String, UdfFn, BTreeMap<String, Ty>)> {
    let active = schema(&[("active", Ty::Bool)]);
    vec![
        (
            "bfs".into(),
            paper_udfs::bfs_udf(),
            schema(&[("frontier", Ty::Bool)]),
        ),
        (
            "mis".into(),
            paper_udfs::mis_udf(),
            schema(&[("active", Ty::Bool), ("color", Ty::Int)]),
        ),
        ("kcore(4)".into(), paper_udfs::kcore_udf(4), active.clone()),
        ("kcore(200)".into(), paper_udfs::kcore_udf(200), active),
        (
            "kmeans".into(),
            paper_udfs::kmeans_udf(),
            schema(&[("assigned", Ty::Bool), ("cluster", Ty::Int)]),
        ),
        (
            "sampling".into(),
            paper_udfs::sampling_udf(),
            schema(&[("weight", Ty::Float), ("r", Ty::Float)]),
        ),
        (
            "sssp".into(),
            paper_udfs::sssp_udf(),
            schema(&[("reached", Ty::Bool), ("dist", Ty::Int), ("w", Ty::Int)]),
        ),
        (
            "cc".into(),
            paper_udfs::cc_udf(),
            schema(&[("changed", Ty::Bool), ("label", Ty::Int)]),
        ),
        (
            "pagerank".into(),
            paper_udfs::pagerank_udf(),
            schema(&[("contrib", Ty::Int)]),
        ),
    ]
}

/// The sources `golden_diagnostics.rs` lints and two with dead code, with
/// their schemas.
fn source_cases() -> Vec<(&'static str, &'static str, BTreeMap<String, Ty>)> {
    vec![
        (
            "known_bad",
            "\
def bad(Vertex v, Array[Vertex] nbrs) -> int {
  x = 1;
  break;
  for u in nbrs {
    if (missing[u]) {
      emit(v, 1);
    }
  }
}",
            schema(&[]),
        ),
        (
            "undeclared_and_outside_loop",
            "\
def bad(Vertex v, Array[Vertex] nbrs) -> int {
  x = 1;
  break;
}",
            schema(&[]),
        ),
        (
            "duplicate_local_in_loop",
            "\
def dup(Vertex v, Array[Vertex] nbrs) -> int {
  int cnt = 0;
  for u in nbrs {
    int cnt = 1;
    break;
  }
}",
            schema(&[]),
        ),
        (
            "parse_error",
            "def broken(Vertex v, Array[Vertex] nbrs) -> int { int = 3; }",
            schema(&[]),
        ),
        (
            "warn",
            "\
def warn(Vertex v, Array[Vertex] nbrs) -> int {
  bool dbg = false;
  int unused = 7;
  int cnt = 0;
  for u in nbrs {
    cnt = cnt + 1;
    if (dbg) {
      break;
    }
    if (cnt >= 3) {
      break;
      cnt = 0;
    }
  }
  emit(v, cnt);
}",
            schema(&[]),
        ),
        (
            "kcore_source",
            "\
def kcore(Vertex v, Array[Vertex] nbrs) -> int {
  int cnt = 0;
  bool done = false;
  for u in nbrs {
    if (active[u]) {
      cnt = cnt + 1;
      if (cnt >= 4) {
        emit(v, cnt);
        done = true;
        break;
      }
    }
  }
  if (!done && (cnt > 0)) {
    emit(v, cnt);
  }
}",
            schema(&[("active", Ty::Bool)]),
        ),
        (
            "sampling_source",
            "\
def sample(Vertex v, Array[Vertex] nbrs) -> vertex {
  float acc = 0.0;
  for u in nbrs {
    acc = acc + weight[u];
    if (acc >= r[v]) {
      emit(v, u);
      break;
    }
  }
}",
            schema(&[("weight", Ty::Float), ("r", Ty::Float)]),
        ),
        (
            // Writes after a `break` never run; the facts still see them.
            "dead_writes_after_break",
            "\
def dead(Vertex v, Array[Vertex] nbrs) -> int {
  int x = 0;
  for u in nbrs {
    bool dbg = false;
    if (flag[u]) {
      break;
      x = 1;
      dbg = true;
    }
    if (dbg) {
      break;
    }
  }
  emit(v, x);
}",
            schema(&[("flag", Ty::Bool)]),
        ),
        (
            // A whole loop after a `return`: a cycle no path reaches.
            "dead_loop_after_return",
            "\
def ret(Vertex v, Array[Vertex] nbrs) -> int {
  int s = 0;
  bool stop = false;
  return;
  for u in nbrs {
    s = s + 1;
    if (stop) {
      break;
    }
    stop = true;
  }
  emit(v, s);
}",
            schema(&[]),
        ),
    ]
}

/// 256 generated UDFs, 160 choices each from one fixed LCG stream, the
/// update type cycling through the four types.
fn generated_cases() -> Vec<UdfFn> {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    (0..256)
        .map(|i| {
            let choices: Vec<u32> = (0..160)
                .map(|_| {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (x >> 33) as u32
                })
                .collect();
            let ty = [Ty::Bool, Ty::Int, Ty::Float, Ty::Vertex][i % 4];
            Gen::new(&choices, ty).udf()
        })
        .collect()
}

/// Counting loops whose exact bound no literal threshold gives, so the
/// certified range of the carried counter depends on when the interval
/// solver widens and how it narrows (`WIDEN_DELAY` and the sweeps in
/// `dataflow.rs`).
fn widening_cases() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            // 17 increments of 3 reach 52, past the widening delay; the
            // widened bound comes back to [0, 52] only after two sweeps.
            "two_sweeps_narrow",
            "\
def climb(Vertex v, Array[Vertex] nbrs) -> int {
  int c = 0;
  for u in nbrs {
    if (c >= 50) {
      break;
    }
    c = c + 3;
  }
  emit(v, c);
}",
        ),
        (
            // Six increments of 3 reach 17 within the widening delay. A
            // widening before them overshoots to the type's extreme, which
            // the guarded increment's exit edge keeps: no sweep recovers it.
            "bound_inside_the_delay",
            "\
def guard(Vertex v, Array[Vertex] nbrs) -> int {
  int c = 0;
  for u in nbrs {
    if (flag[u]) {
      break;
    }
    if (c < 15) {
      c = c + 3;
    }
  }
  emit(v, c);
}",
        ),
        (
            // The same loop to 50: widened past 52, and not narrowed back.
            "bound_past_the_delay",
            "\
def guard(Vertex v, Array[Vertex] nbrs) -> int {
  int c = 0;
  for u in nbrs {
    if (flag[u]) {
      break;
    }
    if (c < 50) {
      c = c + 3;
    }
  }
  emit(v, c);
}",
        ),
    ]
}

/// `analyze`'s result on one line per field group: kind, carried set,
/// breaks (syntactic / reachable), the certificate's two flags and one
/// line per certified carried local.
fn facts(out: &mut String, udf: &UdfFn) {
    let info = match analyze(udf) {
        Ok(info) => info,
        Err(e) => {
            writeln!(out, "analyze: error {e:?}").unwrap();
            return;
        }
    };
    let carried: Vec<String> = info
        .carried
        .iter()
        .map(|(n, ty)| format!("{n}: {ty}"))
        .collect();
    writeln!(
        out,
        "analyze: {:?} carried [{}] breaks {} reachable {} skip_latch {} stable_breaks {}",
        info.kind,
        carried.join(", "),
        info.breaks,
        info.reachable_breaks,
        info.cert.skip_latch,
        info.cert.stable_breaks,
    )
    .unwrap();
    for c in &info.cert.carried {
        writeln!(
            out,
            "  cert {}: {} range {} width {} mono {:?}",
            c.name, c.ty, c.range, c.width, c.mono
        )
        .unwrap();
    }
}

/// `lint`'s findings for an AST built without a source: no spans to
/// render, so each is its severity, code, statement and message.
fn diagnostics(out: &mut String, udf: &UdfFn, schema: &BTreeMap<String, Ty>) {
    for d in lint(udf, schema) {
        writeln!(
            out,
            "  {}[{}] stmt {:?}: {}",
            d.severity, d.code, d.stmt, d.message
        )
        .unwrap();
    }
}

fn listing() -> String {
    let mut out = String::new();
    for (name, udf, schema) in paper_cases() {
        writeln!(out, "== paper {name}").unwrap();
        facts(&mut out, &udf);
        diagnostics(&mut out, &udf, &schema);
    }
    for (name, src, schema) in source_cases() {
        writeln!(out, "== source {name}").unwrap();
        match parse_udf(src) {
            Ok(udf) => facts(&mut out, &udf),
            Err(e) => writeln!(out, "parse: error at {}", e.offset).unwrap(),
        }
        let rendered = render_diagnostics(src, &lint_source(src, &schema));
        for line in rendered.lines() {
            writeln!(out, "  | {line}").unwrap();
        }
    }
    let schema = store().schema();
    for (i, udf) in generated_cases().iter().enumerate() {
        writeln!(out, "== gen {i} ({})", udf.update_ty).unwrap();
        facts(&mut out, udf);
        diagnostics(&mut out, udf, &schema);
    }
    let flag = self::schema(&[("flag", Ty::Bool)]);
    for (name, src) in widening_cases() {
        writeln!(out, "== widen {name}").unwrap();
        let udf = parse_udf(src).expect("a widening case parses");
        facts(&mut out, &udf);
        diagnostics(&mut out, &udf, &flag);
    }
    out
}

#[test]
fn analysis_facts_match_the_committed_listing() {
    let got = listing();
    let path = format!(
        "{}/tests/listings/analysis_facts.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("BLESS_LISTINGS").is_some() {
        std::fs::write(&path, &got).unwrap();
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_default();
    // Compare line by line so a failure names the first line that moved.
    for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(g, w, "{path}:{}: analysis facts differ", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        golden.lines().count(),
        "{path}: line count differs"
    );
    assert_eq!(got, golden, "{path}: analysis facts differ");
}
