//! Diagnostics: source spans, severities, error codes, and rendering.
//!
//! The parser records a byte-offset [`Span`] for every statement it produces
//! (see [`crate::parser::parse_udf_with_spans`]); the checker, the dataflow
//! analyses, and the lint pass all report findings as [`Diagnostic`]s keyed by
//! the statement's pre-order index ([`StmtId`]). Attaching a [`SpanMap`] turns
//! those statement ids into concrete byte ranges so a finding can be rendered
//! with line/column information and a caret underline, clippy-style.
//!
//! AST nodes deliberately carry no position information — structural equality
//! (`parse(pretty(udf)) == udf`) is load-bearing for the round-trip tests —
//! so spans live in this side table instead.

use std::fmt;

/// Pre-order index of a statement within a [`crate::ast::UdfFn`] body.
///
/// The numbering visits a statement before its children and the `then`
/// branch before the `else` branch, which is exactly the order in which the
/// recursive-descent parser produces statements; the parser's [`SpanMap`] and
/// the CFG's statement table therefore agree on ids by construction.
pub type StmtId = usize;

/// A half-open byte range `[start, end)` into the UDF source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first character covered by the span.
    pub start: usize,
    /// Byte offset one past the last character covered by the span.
    pub end: usize,
}

impl Span {
    /// Builds a span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }
}

/// How serious a diagnostic is.
///
/// `Error` findings make `symple-lint` (and CI) fail; `Warning` findings are
/// reported but do not gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but legal code; does not fail the lint gate.
    Warning,
    /// A program the engine would reject; fails the lint gate.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A single finding produced by the checker or the lint pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`E001`–`E007` for checker errors,
    /// `W001`–`W008` for lint warnings, `E000` for parse errors).
    pub code: &'static str,
    /// Whether the finding gates (`Error`) or merely advises (`Warning`).
    pub severity: Severity,
    /// The statement the finding is anchored to, if any.
    pub stmt: Option<StmtId>,
    /// Source byte range, filled in by [`Diagnostic::attach_span`] /
    /// [`attach_spans`] when a [`SpanMap`] is available.
    pub span: Option<Span>,
    /// Human-readable description of the finding.
    pub message: String,
}

impl Diagnostic {
    /// Builds an error-severity diagnostic with no location.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            stmt: None,
            span: None,
            message: message.into(),
        }
    }

    /// Builds a warning-severity diagnostic with no location.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            stmt: None,
            span: None,
            message: message.into(),
        }
    }

    /// Anchors the diagnostic to a statement id.
    pub fn with_stmt(mut self, stmt: StmtId) -> Self {
        self.stmt = Some(stmt);
        self
    }

    /// Looks the anchored statement up in `spans` and records its byte range.
    pub fn attach_span(&mut self, spans: &SpanMap) {
        if let Some(id) = self.stmt {
            if self.span.is_none() {
                self.span = spans.get(id);
            }
        }
    }

    /// Renders the diagnostic against `src` in a compact rustc-like format.
    ///
    /// With a span the output includes the source line and a caret underline;
    /// without one only the headline is produced.
    pub fn render(&self, src: &str) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        if let Some(span) = self.span {
            let (line_no, col, line) = locate(src, span.start);
            out.push_str(&format!("\n  --> line {line_no}, col {col}\n"));
            let gutter = line_no.to_string();
            let pad = " ".repeat(gutter.len());
            out.push_str(&format!("{pad} |\n{gutter} | {line}\n{pad} | "));
            // Caret run: from the span start to its end, clipped to this line
            // and trimmed of trailing whitespace the parser swallowed.
            let text = &src[span.start..span.end.min(src.len()).max(span.start)];
            let trimmed = text.trim_end().len().max(1);
            let caret_end = (col - 1 + trimmed).min(line.len()).max(col);
            out.push_str(&" ".repeat(col - 1));
            out.push_str(&"^".repeat(caret_end - (col - 1)));
        }
        out
    }
}

/// Long-form rationale for a diagnostic code (`symple-lint --explain`),
/// or `None` for an unknown code. Covers `E000`–`E007` and
/// `W001`–`W008`; the text explains *why* the finding matters for the
/// dependency-propagation machinery, not just what it says.
pub fn explain(code: &str) -> Option<&'static str> {
    Some(match code {
        "E000" => {
            "The source text does not parse. Nothing else can be checked until the \
             syntax error is fixed; the span points at the first offending byte."
        }
        "E001" => {
            "A local variable is read before any `let` declares it. The interpreter \
             and VM both assume well-scoped programs, so an undefined local would \
             panic at runtime; the checker rejects it up front."
        }
        "E002" => {
            "The UDF reads a property array the schema does not declare. Property \
             reads resolve to engine-owned arrays at bind time; an unknown name \
             would only fail once a signal actually executes."
        }
        "E003" => {
            "An expression's operand types do not match (e.g. adding a bool to an \
             int). The executors assume a well-typed program and use unchecked \
             conversions in the hot loop."
        }
        "E004" => {
            "`break` or `u` (the current neighbour) appears outside the neighbour \
             loop. Loop-carried dependency is defined per neighbour segment; these \
             constructs have no meaning elsewhere."
        }
        "E005" => {
            "Two `let`s declare the same name. Carried-state restore is keyed by \
             name, so shadowing would make the dependency payload ambiguous."
        }
        "E006" => {
            "Nested neighbour loops are not supported: the dependency state machine \
             assumes one traversal per signal, matching the paper's UDF shape."
        }
        "E007" => {
            "The function already contains instrumentation nodes (receive/emit \
             guards). Instrumenting twice would double-restore carried state."
        }
        "W001" => {
            "A local (or its initial value) is never read. Dead locals cost \
             registers in the bytecode VM and obscure which state is genuinely \
             loop-carried."
        }
        "W002" => {
            "An `if` condition is compile-time constant. When the condition guards \
             a `break`, the dependency analysis outcome flips with it: an \
             always-false guard means no loop-carried dependency at all, an \
             always-true guard means the segment always breaks on entry."
        }
        "W003" => {
            "A statement can never execute (e.g. a write after `break`). The \
             analyses ignore unreachable code, so its presence usually signals a \
             logic error."
        }
        "W004" => {
            "A local is assigned inside the neighbour loop (syntactically carried) \
             but its value provably never crosses a machine boundary, so carried-\
             state minimization drops it from the dependency message. Usually \
             harmless; worth a look if you expected the value to propagate."
        }
        "W005" => {
            "A carried float accumulates neighbour properties. Float addition is \
             not associative, so the carried total depends on neighbour visit \
             order and may differ across partitionings (the paper accepts this \
             for sampling; differentiated propagation makes it visible)."
        }
        "W006" => {
            "The program exceeds a resource limit of the typed VM: more than 256 \
             registers (named locals plus the expression temporaries a statement \
             needs) or more than 64 carried locals. The engine runs it on the \
             tree interpreter instead, whose per-edge dispatch is an order of \
             magnitude slower. Fewer locals or shallower expressions bring it \
             back under the limit. `UdfProgram::uses_bytecode()` reports the same \
             fact at run time."
        }
        "W007" => {
            "The abstract interpreter could not bound an integer carried local's \
             value range (widening hit the type's extremes), so the value ships \
             at the full 8 bytes even under `dep_width = Certified`. Bounding the \
             local (e.g. saturating against a literal threshold) lets the \
             certificate narrow the wire encoding to 1, 2 or 4 bytes."
        }
        "W008" => {
            "The break condition is not provably monotone: the analysis cannot \
             show that once it triggers it stays triggered (e.g. it compares a \
             float accumulator, or a carried value that can decrease). The latch \
             certificate fails, so the engine re-evaluates every skipped \
             segment under a no-emission audit, in release builds too, instead \
             of trusting the skip bit outright."
        }
        _ => return None,
    })
}

/// Fills in the `span` field of every diagnostic that has a statement anchor.
pub fn attach_spans(diags: &mut [Diagnostic], spans: &SpanMap) {
    for d in diags.iter_mut() {
        d.attach_span(spans);
    }
}

/// Renders a batch of diagnostics against `src`, one block per finding,
/// separated by blank lines.
pub fn render_diagnostics(src: &str, diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| d.render(src))
        .collect::<Vec<_>>()
        .join("\n\n")
}

/// 1-based `(line, column, line text)` of a byte offset in `src`.
fn locate(src: &str, offset: usize) -> (usize, usize, &str) {
    let offset = offset.min(src.len());
    let before = &src[..offset];
    let line_no = before.bytes().filter(|&b| b == b'\n').count() + 1;
    let line_start = before.rfind('\n').map(|p| p + 1).unwrap_or(0);
    let line_end = src[offset..]
        .find('\n')
        .map(|p| offset + p)
        .unwrap_or(src.len());
    (line_no, offset - line_start + 1, &src[line_start..line_end])
}

/// Side table mapping [`StmtId`]s to source [`Span`]s, produced by
/// [`crate::parser::parse_udf_with_spans`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanMap {
    spans: Vec<Span>,
}

impl SpanMap {
    /// An empty map (every lookup misses). Useful when linting an AST that
    /// was built programmatically rather than parsed.
    pub fn empty() -> Self {
        SpanMap::default()
    }

    /// Number of statements with recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the map holds no spans at all.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The span recorded for statement `id`, if any.
    pub fn get(&self, id: StmtId) -> Option<Span> {
        self.spans.get(id).copied()
    }

    /// Reserves the next pre-order slot, returning its id. The parser calls
    /// this on entry to a statement and patches the end offset on exit.
    pub(crate) fn reserve(&mut self, start: usize) -> StmtId {
        let id = self.spans.len();
        self.spans.push(Span::new(start, start));
        id
    }

    /// Patches the end offset of a previously reserved slot.
    pub(crate) fn finish(&mut self, id: StmtId, end: usize) {
        let s = &mut self.spans[id];
        s.end = end.max(s.start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_reports_line_and_column() {
        let src = "ab\ncdef\ng";
        assert_eq!(locate(src, 0), (1, 1, "ab"));
        assert_eq!(locate(src, 4), (2, 2, "cdef"));
        assert_eq!(locate(src, 8), (3, 1, "g"));
    }

    #[test]
    fn render_includes_caret_under_span() {
        let src = "let x = 1;\nbreak;\n";
        let mut d = Diagnostic::error("E004", "`break` outside the neighbour loop").with_stmt(1);
        let mut spans = SpanMap::empty();
        let a = spans.reserve(0);
        spans.finish(a, 10);
        let b = spans.reserve(11);
        spans.finish(b, 17);
        d.attach_span(&spans);
        let rendered = d.render(src);
        assert!(rendered.contains("error[E004]"));
        assert!(rendered.contains("line 2, col 1"));
        assert!(rendered.contains("^^^^^^"));
    }

    #[test]
    fn no_span_renders_headline_only() {
        let d = Diagnostic::warning("W001", "local `x` is never read");
        assert_eq!(d.render(""), "warning[W001]: local `x` is never read");
    }
}
