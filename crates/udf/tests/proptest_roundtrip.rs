//! Property: `parse(pretty(udf)) == udf` for arbitrary well-formed ASTs.
//! This pins the printer and parser to each other, so UDFs can live as
//! source text without drift. And UDF source is a byte-level entry point:
//! damaged text is an error, never a panic.

use proptest::prelude::*;
use std::collections::BTreeMap;
use symple_udf::ast::{BinOp, Expr, Stmt, UdfFn, UnOp};
use symple_udf::parser::parse_udf;
use symple_udf::types::{Ty, Value};
use symple_udf::{check_all, paper_udfs, pretty};

const KEYWORDS: [&str; 23] = [
    "def",
    "if",
    "else",
    "for",
    "in",
    "nbrs",
    "break",
    "return",
    "emit",
    "emit_dep",
    "receive_dep",
    "true",
    "false",
    "int",
    "float",
    "bool",
    "vertex",
    "DepMessage",
    "skip",
    "Vertex",
    "Array",
    "d",
    "u",
];

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("no keywords or vertex literals", |s| {
        !KEYWORDS.contains(&s.as_str())
            && !(s.starts_with('v') && (s.len() == 1 || s[1..].chars().all(|c| c.is_ascii_digit())))
    })
}

fn literal() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0i64..10_000).prop_map(|i| Expr::Lit(Value::Int(i))),
        (0.0f64..1000.0).prop_map(|f| Expr::Lit(Value::Float(f))),
        // exponent literals, the value that prints as one, and NaN
        (0usize..4).prop_map(|i| {
            Expr::Lit(Value::Float([1e300, f64::MAX, f64::INFINITY, f64::NAN][i]))
        }),
        any::<bool>().prop_map(|b| Expr::Lit(Value::Bool(b))),
        (0u32..1000).prop_map(|r| Expr::Lit(Value::Vertex(symple_graph::Vid::new(r)))),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        literal(),
        ident().prop_map(Expr::Local),
        Just(Expr::CurrentVertex),
        Just(Expr::CurrentNeighbor),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        let binop = prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
            Just(BinOp::Lt),
            Just(BinOp::Le),
            Just(BinOp::Gt),
            Just(BinOp::Ge),
            Just(BinOp::Eq),
            Just(BinOp::Ne),
            Just(BinOp::And),
            Just(BinOp::Or),
        ];
        prop_oneof![
            (ident(), inner.clone()).prop_map(|(array, index)| Expr::Prop {
                array,
                index: Box::new(index),
            }),
            inner
                .clone()
                .prop_map(|e| Expr::Unary(UnOp::Not, Box::new(e))),
            // negation only of non-literals (the parser folds `-literal`)
            ident().prop_map(|n| Expr::Unary(UnOp::Neg, Box::new(Expr::Local(n)))),
            (binop, inner.clone(), inner).prop_map(|(op, a, b)| a.bin(op, b)),
        ]
    })
}

fn arb_ty() -> impl Strategy<Value = Ty> {
    prop_oneof![
        Just(Ty::Bool),
        Just(Ty::Int),
        Just(Ty::Float),
        Just(Ty::Vertex)
    ]
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    let leaf = prop_oneof![
        (ident(), arb_ty(), arb_expr()).prop_map(|(name, ty, init)| Stmt::Let { name, ty, init }),
        (ident(), arb_expr()).prop_map(|(name, value)| Stmt::Assign { name, value }),
        Just(Stmt::Break),
        Just(Stmt::Return),
        Just(Stmt::EmitDep),
        arb_expr().prop_map(Stmt::Emit),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (
                arb_expr(),
                proptest::collection::vec(inner.clone(), 0..3),
                proptest::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(cond, then_branch, else_branch)| Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                }),
            proptest::collection::vec(inner, 0..3).prop_map(|body| Stmt::ForNeighbors { body }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_pretty_roundtrip(
        name in ident(),
        update_ty in arb_ty(),
        body in proptest::collection::vec(arb_stmt(), 0..6),
    ) {
        let udf = UdfFn { name, update_ty, body };
        let text = pretty(&udf);
        let parsed = parse_udf(&text)
            .unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        // `Debug` tells every float apart but NaN is no NaN's `==`.
        prop_assert_eq!(format!("{parsed:?}"), format!("{udf:?}"), "roundtrip mismatch for:\n{}", text);
    }
}

#[test]
fn nan_literals_parse_back_bit_for_bit() {
    for x in [f64::NAN, -f64::NAN] {
        let udf = UdfFn::new("nan", Ty::Float, vec![Stmt::Emit(Expr::f(x))]);
        let text = pretty(&udf);
        let parsed = parse_udf(&text).unwrap();
        let [Stmt::Emit(Expr::Lit(Value::Float(y)))] = parsed.body[..] else {
            panic!("not a float literal:\n{text}");
        };
        assert_eq!(y.to_bits(), x.to_bits(), "{text}");
    }
}

/// Every strict prefix and every single-bit flip of each paper UDF's
/// pretty text (read as UTF-8, lossily) parses or fails to, and what
/// parses is checked against the kernels' property schema — neither step
/// may panic.
#[test]
fn truncated_and_flipped_paper_udfs_never_panic() {
    let schema: BTreeMap<String, Ty> = [
        (
            Ty::Bool,
            &["frontier", "active", "assigned", "reached", "changed"][..],
        ),
        (
            Ty::Int,
            &["color", "cluster", "dist", "w", "label", "contrib"],
        ),
        (Ty::Float, &["weight", "r"]),
    ]
    .into_iter()
    .flat_map(|(ty, names)| names.iter().map(move |p| (p.to_string(), ty)))
    .collect();
    let udfs = [
        paper_udfs::bfs_udf(),
        paper_udfs::mis_udf(),
        paper_udfs::kcore_udf(4),
        paper_udfs::kmeans_udf(),
        paper_udfs::sampling_udf(),
        paper_udfs::sssp_udf(),
        paper_udfs::cc_udf(),
        paper_udfs::pagerank_udf(),
    ];
    for udf in &udfs {
        let clean = check_all(&parse_udf(&pretty(udf)).unwrap(), &schema);
        assert!(clean.is_empty(), "{}: {clean:?}", udf.name);
        let text = pretty(udf).into_bytes();
        let prefixes = (0..text.len()).map(|end| text[..end].to_vec());
        let flips = (0..text.len() * 8).map(|bit| {
            let mut damaged = text.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            damaged
        });
        for bytes in prefixes.chain(flips) {
            let src = String::from_utf8_lossy(&bytes);
            let outcome = std::panic::catch_unwind(|| {
                if let Ok(parsed) = parse_udf(&src) {
                    check_all(&parsed, &schema);
                }
            });
            assert!(outcome.is_ok(), "panicked on:\n{src}");
        }
    }
}
