//! Pretty-printer: renders UDF ASTs as the pseudo-code of the paper's
//! figures, including the instrumentation primitives of Figure 5.

use crate::ast::{BinOp, Expr, Stmt, UdfFn, UnOp};
use crate::types::Value;

/// Renders `udf` as indented pseudo-code.
///
/// # Example
///
/// ```
/// use symple_udf::{instrument, pretty, paper_udfs};
/// let inst = instrument(&paper_udfs::bfs_udf()).unwrap();
/// println!("{}", pretty(&inst.udf));
/// ```
pub fn pretty(udf: &UdfFn) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "def {}(Vertex v, Array[Vertex] nbrs) -> {} {{\n",
        udf.name, udf.update_ty
    ));
    print_block(&udf.body, 1, &mut out);
    out.push_str("}\n");
    out
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn print_block(block: &[Stmt], depth: usize, out: &mut String) {
    for s in block {
        print_stmt(s, depth, out);
    }
}

fn print_stmt(s: &Stmt, depth: usize, out: &mut String) {
    indent(depth, out);
    match s {
        Stmt::Let { name, ty, init } => {
            out.push_str(&format!("{ty} {name} = {};\n", expr(init)));
        }
        Stmt::Assign { name, value } => {
            out.push_str(&format!("{name} = {};\n", expr(value)));
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            out.push_str(&format!("if ({}) {{\n", expr(cond)));
            print_block(then_branch, depth + 1, out);
            if else_branch.is_empty() {
                indent(depth, out);
                out.push_str("}\n");
            } else {
                indent(depth, out);
                out.push_str("} else {\n");
                print_block(else_branch, depth + 1, out);
                indent(depth, out);
                out.push_str("}\n");
            }
        }
        Stmt::ForNeighbors { body } => {
            out.push_str("for u in nbrs {\n");
            print_block(body, depth + 1, out);
            indent(depth, out);
            out.push_str("}\n");
        }
        Stmt::Break => out.push_str("break;\n"),
        Stmt::Emit(e) => out.push_str(&format!("emit(v, {});\n", expr(e))),
        Stmt::Return => out.push_str("return;\n"),
        Stmt::ReceiveDepGuard => {
            out.push_str("DepMessage d = receive_dep(v); if (d.skip) return; // instrumented\n");
        }
        Stmt::EmitDep => out.push_str("emit_dep(v, d); // instrumented\n"),
    }
}

fn expr(e: &Expr) -> String {
    match e {
        // Literals print as text the parser reads back to the same value:
        // floats with `{:?}`, so `0.0` keeps its decimal point and `1e300`
        // its exponent; ±inf as an exponent that overflows to it; NaN as
        // `NaN` (`f64::NAN`), negated if its sign bit is set; and
        // `i64::MIN`, whose magnitude is no int literal, as a difference.
        Expr::Lit(Value::Float(x)) if x.is_infinite() => {
            if *x > 0.0 { "1e999" } else { "-1e999" }.to_string()
        }
        Expr::Lit(Value::Float(x)) if x.is_nan() => {
            if x.is_sign_negative() { "-NaN" } else { "NaN" }.to_string()
        }
        Expr::Lit(Value::Float(x)) => format!("{x:?}"),
        Expr::Lit(Value::Int(i64::MIN)) => format!("({} - 1)", i64::MIN + 1),
        Expr::Lit(v) => v.to_string(),
        Expr::Local(n) => n.clone(),
        Expr::Prop { array, index } => format!("{array}[{}]", expr(index)),
        Expr::CurrentVertex => "v".to_string(),
        Expr::CurrentNeighbor => "u".to_string(),
        Expr::Unary(UnOp::Not, a) => format!("!{}", paren(a)),
        Expr::Unary(UnOp::Neg, a) => format!("-{}", paren(a)),
        Expr::Binary(op, a, b) => format!("{} {} {}", paren(a), binop(*op), paren(b)),
    }
}

fn paren(e: &Expr) -> String {
    match e {
        Expr::Binary(..) => format!("({})", expr(e)),
        _ => expr(e),
    }
}

fn binop(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{instrument, paper_udfs};

    #[test]
    fn bfs_renders_like_figure_1b() {
        let text = pretty(&paper_udfs::bfs_udf());
        assert!(text.contains("def bfs"));
        assert!(text.contains("for u in nbrs {"));
        assert!(text.contains("if (frontier[u])"));
        assert!(text.contains("emit(v, u);"));
        assert!(text.contains("break;"));
        assert!(
            !text.contains("receive_dep"),
            "uninstrumented: no primitives"
        );
    }

    #[test]
    fn instrumented_bfs_renders_like_figure_5() {
        let inst = instrument(&paper_udfs::bfs_udf()).unwrap();
        let text = pretty(&inst.udf);
        assert!(text.contains("receive_dep(v)"));
        assert!(text.contains("if (d.skip) return"));
        assert!(text.contains("emit_dep(v, d)"));
        // emit_dep comes before break
        let ed = text.find("emit_dep").unwrap();
        let br = text[ed..].find("break").unwrap();
        assert!(br > 0);
    }

    #[test]
    fn operators_render() {
        let text = pretty(&paper_udfs::kcore_udf(5));
        assert!(text.contains("cnt = cnt + 1;"));
        assert!(text.contains(">= 5"));
    }

    #[test]
    fn else_branch_renders() {
        use crate::ast::{Expr, Stmt, UdfFn};
        use crate::types::Ty;
        let udf = UdfFn::new(
            "t",
            Ty::Bool,
            vec![Stmt::if_else(
                Expr::b(true),
                vec![Stmt::Return],
                vec![Stmt::Emit(Expr::b(false))],
            )],
        );
        let text = pretty(&udf);
        assert!(text.contains("} else {"));
    }
}
