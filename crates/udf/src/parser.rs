//! Text parser for the vertex-UDF language.
//!
//! Accepts exactly the pseudo-code dialect the pretty-printer emits (the
//! paper's figures), including the instrumentation lines, so
//! `parse(pretty(udf)) == udf` — a property the test-suite checks both on
//! the paper kernels and on randomly generated ASTs. This also lets
//! examples and downstream users keep UDFs as source text files, closer
//! to how the original system consumes C++ sources.

use crate::ast::{BinOp, Expr, Stmt, UdfFn, UnOp};
use crate::diag::SpanMap;
use crate::types::{Ty, Value};
use crate::UdfError;
use std::fmt;
use symple_graph::Vid;

/// A parse failure with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for UdfError {
    fn from(e: ParseError) -> Self {
        UdfError::UnknownProperty(format!("<parse error: {e}>"))
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Punct(&'static str),
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

const PUNCTS: [&str; 22] = [
    "&&", "||", "<=", ">=", "==", "!=", "->", "{", "}", "(", ")", "[", "]", ";", ",", "=", "<",
    ">", "+", "-", "*", ".",
];

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_trivia(&mut self) {
        loop {
            let rest = &self.src[self.pos..];
            if let Some(stripped) = rest.strip_prefix("//") {
                let line_len = stripped.find('\n').map_or(stripped.len(), |i| i + 1);
                self.pos += 2 + line_len;
            } else if rest.starts_with(char::is_whitespace) {
                let c = rest.chars().next().unwrap();
                self.pos += c.len_utf8();
            } else {
                return;
            }
        }
    }

    fn next(&mut self) -> Result<Option<Tok>, ParseError> {
        self.skip_trivia();
        let rest = &self.src[self.pos..];
        if rest.is_empty() {
            return Ok(None);
        }
        // `!` needs care: "!=" is a punct, bare "!" is unary not
        if let Some(r) = rest.strip_prefix("!=") {
            let _ = r;
            self.pos += 2;
            return Ok(Some(Tok::Punct("!=")));
        }
        if rest.starts_with('!') {
            self.pos += 1;
            return Ok(Some(Tok::Punct("!")));
        }
        for p in PUNCTS {
            if rest.starts_with(p) {
                self.pos += p.len();
                return Ok(Some(Tok::Punct(p)));
            }
        }
        let c = rest.chars().next().unwrap();
        if c.is_ascii_digit() {
            let digits = |s: &str| s.find(|ch: char| !ch.is_ascii_digit()).unwrap_or(s.len());
            let mut end = rest
                .find(|ch: char| !ch.is_ascii_digit() && ch != '.')
                .unwrap_or(rest.len());
            // An exponent part (`e`, an optional sign, digits) makes a
            // float literal: `1e300`, `2.5E-3`, `1e999` (infinity).
            if let Some(exp) = rest[end..].strip_prefix(['e', 'E']) {
                let sign = usize::from(exp.starts_with(['+', '-']));
                let n = digits(&exp[sign..]);
                if n > 0 {
                    end += 1 + sign + n;
                }
            }
            let text = &rest[..end];
            self.pos += end;
            if text.contains(['.', 'e', 'E']) {
                return text
                    .parse::<f64>()
                    .map(|f| Some(Tok::Float(f)))
                    .map_err(|_| self.error(format!("bad float literal `{text}`")));
            }
            return text
                .parse::<i64>()
                .map(|i| Some(Tok::Int(i)))
                .map_err(|_| self.error(format!("bad int literal `{text}`")));
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let end = rest
                .find(|ch: char| !ch.is_ascii_alphanumeric() && ch != '_')
                .unwrap_or(rest.len());
            let text = rest[..end].to_string();
            self.pos += end;
            return Ok(Some(Tok::Ident(text)));
        }
        Err(self.error(format!("unexpected character `{c}`")))
    }
}

struct Parser {
    toks: Vec<Tok>,
    offsets: Vec<usize>,
    idx: usize,
    /// Byte spans per statement, recorded in pre-order as statements are
    /// produced — the same numbering the CFG and checker use.
    spans: SpanMap,
}

impl Parser {
    fn new(src: &str) -> Result<Self, ParseError> {
        let mut lex = Lexer::new(src);
        let mut toks = Vec::new();
        let mut offsets = Vec::new();
        loop {
            // Record the offset of the token itself, not the trivia
            // (whitespace/comments) preceding it, so spans start exactly at
            // the statement's first character.
            lex.skip_trivia();
            let at = lex.pos;
            match lex.next()? {
                Some(t) => {
                    toks.push(t);
                    offsets.push(at);
                }
                None => break,
            }
        }
        offsets.push(src.len());
        Ok(Parser {
            toks,
            offsets,
            idx: 0,
            spans: SpanMap::empty(),
        })
    }

    /// Byte offset of the next unconsumed token (or end of input).
    fn here(&self) -> usize {
        self.offsets[self.idx.min(self.offsets.len() - 1)]
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.offsets[self.idx.min(self.offsets.len() - 1)],
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.idx)
    }

    fn bump(&mut self) -> Result<Tok, ParseError> {
        let t = self
            .toks
            .get(self.idx)
            .cloned()
            .ok_or_else(|| self.error("unexpected end of input"))?;
        self.idx += 1;
        Ok(t)
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        match self.bump()? {
            Tok::Punct(q) if q == p => Ok(()),
            other => Err(self.error(format!("expected `{p}`, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.bump()? {
            Tok::Ident(s) if s == kw => Ok(()),
            other => Err(self.error(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    fn any_ident(&mut self) -> Result<String, ParseError> {
        match self.bump()? {
            Tok::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Punct(q)) if *q == p) {
            self.idx += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.idx += 1;
            true
        } else {
            false
        }
    }

    fn parse_ty(&mut self, name: &str) -> Option<Ty> {
        match name {
            "bool" => Some(Ty::Bool),
            "int" => Some(Ty::Int),
            "float" => Some(Ty::Float),
            "vertex" => Some(Ty::Vertex),
            _ => None,
        }
    }

    fn parse_udf(&mut self) -> Result<UdfFn, ParseError> {
        self.expect_ident("def")?;
        let name = self.any_ident()?;
        self.expect_punct("(")?;
        self.expect_ident("Vertex")?;
        self.expect_ident("v")?;
        self.expect_punct(",")?;
        self.expect_ident("Array")?;
        self.expect_punct("[")?;
        self.expect_ident("Vertex")?;
        self.expect_punct("]")?;
        self.expect_ident("nbrs")?;
        self.expect_punct(")")?;
        self.expect_punct("->")?;
        let ty_name = self.any_ident()?;
        let update_ty = self
            .parse_ty(&ty_name)
            .ok_or_else(|| self.error(format!("unknown type `{ty_name}`")))?;
        self.expect_punct("{")?;
        let body = self.parse_block()?;
        if self.peek().is_some() {
            return Err(self.error("trailing tokens after function"));
        }
        Ok(UdfFn {
            name,
            update_ty,
            body,
        })
    }

    /// Parses statements until the matching `}` (consumed).
    fn parse_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        loop {
            if self.eat_punct("}") {
                return Ok(out);
            }
            out.push(self.parse_stmt()?);
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        // Reserve the pre-order span slot before descending so nested
        // statements number after their parent, matching the CFG walk.
        let id = self.spans.reserve(self.here());
        let stmt = self.parse_stmt_inner()?;
        self.spans.finish(id, self.here());
        Ok(stmt)
    }

    fn parse_stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        // instrumentation lines
        if self.eat_ident("DepMessage") {
            // DepMessage d = receive_dep(v); if (d.skip) return;
            // tokenized loosely: consume through the second `;`
            self.expect_ident("d")?;
            self.expect_punct("=")?;
            self.expect_ident("receive_dep")?;
            self.expect_punct("(")?;
            self.expect_ident("v")?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            self.expect_ident("if")?;
            self.expect_punct("(")?;
            self.expect_ident("d")?;
            // ".skip" lexes as an error ('.' unhandled) — the pretty form
            // is "d.skip"; accept a float-ish fallback by scanning idents:
            // simplest: expect punct "." fails, so pretty prints "d.skip"
            // — handled below by a dedicated token form.
            self.expect_punct(".")?;
            self.expect_ident("skip")?;
            self.expect_punct(")")?;
            self.expect_ident("return")?;
            self.expect_punct(";")?;
            return Ok(Stmt::ReceiveDepGuard);
        }
        if self.eat_ident("emit_dep") {
            self.expect_punct("(")?;
            self.expect_ident("v")?;
            self.expect_punct(",")?;
            self.expect_ident("d")?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(Stmt::EmitDep);
        }
        if self.eat_ident("if") {
            self.expect_punct("(")?;
            let cond = self.parse_expr()?;
            self.expect_punct(")")?;
            self.expect_punct("{")?;
            let then_branch = self.parse_block()?;
            let else_branch = if self.eat_ident("else") {
                self.expect_punct("{")?;
                self.parse_block()?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If {
                cond,
                then_branch,
                else_branch,
            });
        }
        if self.eat_ident("for") {
            self.expect_ident("u")?;
            self.expect_ident("in")?;
            self.expect_ident("nbrs")?;
            self.expect_punct("{")?;
            let body = self.parse_block()?;
            return Ok(Stmt::ForNeighbors { body });
        }
        if self.eat_ident("break") {
            self.expect_punct(";")?;
            return Ok(Stmt::Break);
        }
        if self.eat_ident("return") {
            self.expect_punct(";")?;
            return Ok(Stmt::Return);
        }
        if self.eat_ident("emit") {
            self.expect_punct("(")?;
            self.expect_ident("v")?;
            self.expect_punct(",")?;
            let value = self.parse_expr()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(Stmt::Emit(value));
        }
        // `ty name = expr;` or `name = expr;`
        let first = self.any_ident()?;
        if let Some(ty) = self.parse_ty(&first) {
            let name = self.any_ident()?;
            self.expect_punct("=")?;
            let init = self.parse_expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Let { name, ty, init });
        }
        self.expect_punct("=")?;
        let value = self.parse_expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::Assign { name: first, value })
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while self.eat_punct("||") {
            let rhs = self.parse_and()?;
            lhs = lhs.bin(BinOp::Or, rhs);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_cmp()?;
        while self.eat_punct("&&") {
            let rhs = self.parse_cmp()?;
            lhs = lhs.bin(BinOp::And, rhs);
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_add()?;
        for (p, op) in [
            ("<=", BinOp::Le),
            (">=", BinOp::Ge),
            ("==", BinOp::Eq),
            ("!=", BinOp::Ne),
            ("<", BinOp::Lt),
            (">", BinOp::Gt),
        ] {
            if self.eat_punct(p) {
                let rhs = self.parse_add()?;
                return Ok(lhs.bin(op, rhs));
            }
        }
        Ok(lhs)
    }

    fn parse_add(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_mul()?;
        loop {
            if self.eat_punct("+") {
                let rhs = self.parse_mul()?;
                lhs = lhs.bin(BinOp::Add, rhs);
            } else if self.eat_punct("-") {
                let rhs = self.parse_mul()?;
                lhs = lhs.bin(BinOp::Sub, rhs);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn parse_mul(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        while self.eat_punct("*") {
            let rhs = self.parse_unary()?;
            lhs = lhs.bin(BinOp::Mul, rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("!") {
            return Ok(Expr::Unary(UnOp::Not, Box::new(self.parse_unary()?)));
        }
        if self.eat_punct("-") {
            // fold negation of literals so `-3` round-trips as a literal
            let inner = self.parse_unary()?;
            return Ok(match inner {
                Expr::Lit(Value::Int(i)) => Expr::Lit(Value::Int(-i)),
                Expr::Lit(Value::Float(f)) => Expr::Lit(Value::Float(-f)),
                other => Expr::Unary(UnOp::Neg, Box::new(other)),
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("(") {
            let e = self.parse_expr()?;
            self.expect_punct(")")?;
            return Ok(e);
        }
        match self.bump()? {
            Tok::Int(i) => Ok(Expr::Lit(Value::Int(i))),
            Tok::Float(f) => Ok(Expr::Lit(Value::Float(f))),
            Tok::Ident(name) => match name.as_str() {
                "true" => Ok(Expr::Lit(Value::Bool(true))),
                "false" => Ok(Expr::Lit(Value::Bool(false))),
                "NaN" => Ok(Expr::Lit(Value::Float(f64::NAN))),
                "v" => Ok(Expr::CurrentVertex),
                "u" => Ok(Expr::CurrentNeighbor),
                _ => {
                    if self.eat_punct("[") {
                        let index = self.parse_expr()?;
                        self.expect_punct("]")?;
                        Ok(Expr::Prop {
                            array: name,
                            index: Box::new(index),
                        })
                    } else if name.starts_with('v') && name[1..].parse::<u32>().is_ok() {
                        // vertex literal like `v7` (the pretty form)
                        Ok(Expr::Lit(Value::Vertex(Vid::new(
                            name[1..].parse().unwrap(),
                        ))))
                    } else {
                        Ok(Expr::Local(name))
                    }
                }
            },
            other => Err(self.error(format!("unexpected token {other:?}"))),
        }
    }
}

/// Parses a UDF from the pretty-printed pseudo-code dialect.
///
/// # Errors
///
/// Returns a [`ParseError`] with a byte offset on malformed input.
///
/// # Example
///
/// ```
/// use symple_udf::parser::parse_udf;
///
/// let udf = parse_udf(r#"
/// def bfs(Vertex v, Array[Vertex] nbrs) -> vertex {
///   for u in nbrs {
///     if (frontier[u]) {
///       emit(v, u);
///       break;
///     }
///   }
/// }"#).unwrap();
/// assert_eq!(udf.name, "bfs");
/// ```
pub fn parse_udf(src: &str) -> Result<UdfFn, ParseError> {
    Parser::new(src)?.parse_udf()
}

/// Like [`parse_udf`], but also returns the byte-offset [`SpanMap`] mapping
/// each statement's pre-order id to its source range. The AST itself stays
/// span-free (structural equality is part of the language's contract); the
/// side table is what lets [`crate::check_all`] and [`crate::lint()`] render
/// findings with line/column carets.
///
/// # Errors
///
/// Returns a [`ParseError`] with a byte offset on malformed input.
pub fn parse_udf_with_spans(src: &str) -> Result<(UdfFn, SpanMap), ParseError> {
    let mut p = Parser::new(src)?;
    let udf = p.parse_udf()?;
    Ok((udf, p.spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{instrument, paper_udfs, pretty};

    #[test]
    fn paper_udfs_roundtrip() {
        for udf in [
            paper_udfs::bfs_udf(),
            paper_udfs::mis_udf(),
            paper_udfs::kcore_udf(8),
            paper_udfs::kmeans_udf(),
            paper_udfs::sampling_udf(),
        ] {
            let text = pretty(&udf);
            let back = parse_udf(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", udf.name));
            assert_eq!(back, udf, "roundtrip failed for {}\n{}", udf.name, text);
        }
    }

    #[test]
    fn instrumented_udfs_roundtrip() {
        for udf in [paper_udfs::bfs_udf(), paper_udfs::kcore_udf(3)] {
            let inst = instrument(&udf).unwrap();
            let text = pretty(&inst.udf);
            let back = parse_udf(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(back, inst.udf, "instrumented roundtrip\n{text}");
        }
    }

    #[test]
    fn else_branch_parses() {
        let udf = parse_udf(
            "def t(Vertex v, Array[Vertex] nbrs) -> bool {\n\
             if (true) { return; } else { emit(v, false); }\n}",
        )
        .unwrap();
        match &udf.body[0] {
            Stmt::If { else_branch, .. } => assert_eq!(else_branch.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let udf = parse_udf("def t(Vertex v, Array[Vertex] nbrs) -> int { emit(v, 1 + 2 * 3); }")
            .unwrap();
        match &udf.body[0] {
            Stmt::Emit(Expr::Binary(BinOp::Add, _, rhs)) => {
                assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn negative_literals_fold() {
        let udf = parse_udf("def t(Vertex v, Array[Vertex] nbrs) -> int { emit(v, -4); }").unwrap();
        assert_eq!(udf.body[0], Stmt::Emit(Expr::i(-4)));
    }

    #[test]
    fn exponent_literals_parse_and_i64_min_prints_as_a_difference() {
        let src = "def t(Vertex v, Array[Vertex] nbrs) -> float { emit(v, 2.5E-3 + -1e999); }";
        let sum = Expr::f(2.5e-3).add(Expr::f(f64::NEG_INFINITY));
        assert_eq!(parse_udf(src).unwrap().body, [Stmt::Emit(sum)]);
        // `i64::MIN`'s magnitude is no int literal: it prints as a
        // difference that evaluates to it without overflowing.
        let udf = UdfFn::new("t", Ty::Int, vec![Stmt::Emit(Expr::i(i64::MIN))]);
        let diff = Expr::i(i64::MIN + 1).bin(BinOp::Sub, Expr::i(1));
        assert_eq!(parse_udf(&pretty(&udf)).unwrap().body, [Stmt::Emit(diff)]);
    }

    #[test]
    fn vertex_literals_parse() {
        let udf =
            parse_udf("def t(Vertex v, Array[Vertex] nbrs) -> vertex { emit(v, v7); }").unwrap();
        assert_eq!(
            udf.body[0],
            Stmt::Emit(Expr::Lit(Value::Vertex(Vid::new(7))))
        );
    }

    #[test]
    fn errors_carry_offsets() {
        let err = parse_udf("def t(Vertex v").unwrap_err();
        assert!(err.offset > 0);
        assert!(err.to_string().contains("parse error"));
        let err = parse_udf("def t(Vertex v, Array[Vertex] nbrs) -> wat { }").unwrap_err();
        assert!(err.message.contains("unknown type"));
    }

    #[test]
    fn trailing_tokens_rejected() {
        let err = parse_udf("def t(Vertex v, Array[Vertex] nbrs) -> bool { } extra").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn spans_follow_preorder_statements() {
        let src = "def t(Vertex v, Array[Vertex] nbrs) -> int {\n  int x = 0;\n  for u in nbrs {\n    x = x + 1;\n    if (x >= 2) {\n      break;\n    }\n  }\n  emit(v, x);\n}";
        let (udf, spans) = parse_udf_with_spans(src).unwrap();
        // pre-order: 0 let, 1 for, 2 assign, 3 if, 4 break, 5 emit
        assert_eq!(spans.len(), 6);
        let let_span = spans.get(0).unwrap();
        assert!(src[let_span.start..].starts_with("int x = 0;"));
        let brk = spans.get(4).unwrap();
        assert!(src[brk.start..].starts_with("break;"));
        assert!(brk.end >= brk.start + "break;".len());
        let emit = spans.get(5).unwrap();
        assert!(src[emit.start..].starts_with("emit(v, x);"));
        assert_eq!(udf.body.len(), 3);
    }

    #[test]
    fn comments_are_skipped() {
        let udf = parse_udf(
            "def t(Vertex v, Array[Vertex] nbrs) -> bool {\n// nothing\nreturn; // done\n}",
        )
        .unwrap();
        assert_eq!(udf.body, vec![Stmt::Return]);
    }
}
