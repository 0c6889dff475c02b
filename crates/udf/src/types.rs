//! Types and runtime values of the vertex-UDF language.

use std::fmt;
use symple_graph::Vid;

use crate::ast::{BinOp, UnOp};

/// The language's types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// Booleans.
    Bool,
    /// 64-bit signed integers.
    Int,
    /// 64-bit floats.
    Float,
    /// Vertex identifiers.
    Vertex,
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::Bool => "bool",
            Ty::Int => "int",
            Ty::Float => "float",
            Ty::Vertex => "vertex",
        };
        f.write_str(s)
    }
}

/// Runtime values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A vertex id.
    Vertex(Vid),
}

impl Value {
    /// This value's type.
    pub fn ty(&self) -> Ty {
        match self {
            Value::Bool(_) => Ty::Bool,
            Value::Int(_) => Ty::Int,
            Value::Float(_) => Ty::Float,
            Value::Vertex(_) => Ty::Vertex,
        }
    }

    /// Reads a boolean.
    ///
    /// # Panics
    ///
    /// Panics if the value has a different type (the checker rules this
    /// out for checked programs).
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            other => panic!("expected bool, got {other:?}"),
        }
    }

    /// Reads an integer.
    ///
    /// # Panics
    ///
    /// Panics on type mismatch.
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(i) => *i,
            other => panic!("expected int, got {other:?}"),
        }
    }

    /// Reads a float (integers widen implicitly).
    ///
    /// # Panics
    ///
    /// Panics on type mismatch.
    pub fn as_float(&self) -> f64 {
        match self {
            Value::Float(x) => *x,
            Value::Int(i) => *i as f64,
            other => panic!("expected float, got {other:?}"),
        }
    }

    /// Reads a vertex id.
    ///
    /// # Panics
    ///
    /// Panics on type mismatch.
    pub fn as_vertex(&self) -> Vid {
        match self {
            Value::Vertex(v) => *v,
            other => panic!("expected vertex, got {other:?}"),
        }
    }

    /// The default (zero) value of a type.
    pub fn zero(ty: Ty) -> Value {
        match ty {
            Ty::Bool => Value::Bool(false),
            Ty::Int => Value::Int(0),
            Ty::Float => Value::Float(0.0),
            Ty::Vertex => Value::Vertex(Vid::new(0)),
        }
    }

    /// Encodes into a `u64` for transport as an engine update payload.
    pub fn to_bits(self) -> u64 {
        match self {
            Value::Bool(b) => u64::from(b),
            Value::Int(i) => i as u64,
            Value::Float(x) => x.to_bits(),
            Value::Vertex(v) => u64::from(v.raw()),
        }
    }

    /// Decodes from [`Value::to_bits`], given the type.
    pub fn from_bits(ty: Ty, bits: u64) -> Value {
        match ty {
            Ty::Bool => Value::Bool(bits != 0),
            Ty::Int => Value::Int(bits as i64),
            Ty::Float => Value::Float(f64::from_bits(bits)),
            Ty::Vertex => Value::Vertex(Vid::new(bits as u32)),
        }
    }

    /// `op self`, the language's one definition of `!` and negation
    /// (integer negation wraps); `None` when `op` does not apply to the
    /// value's type.
    pub(crate) fn unary(self, op: UnOp) -> Option<Value> {
        match (op, self) {
            (UnOp::Not, Value::Bool(b)) => Some(Value::Bool(!b)),
            (UnOp::Neg, Value::Int(i)) => Some(Value::Int(i.wrapping_neg())),
            (UnOp::Neg, Value::Float(x)) => Some(Value::Float(-x)),
            _ => None,
        }
    }

    /// `self op b` for `+ - *` and the six comparisons, the language's one
    /// definition of them: integer arithmetic wraps, an `int` beside a
    /// `float` widens, vertices and booleans compare among themselves.
    /// `None` when the result is not a value: mismatched types or a
    /// comparison with a NaN. `&&`/`||` short-circuit, so each evaluator
    /// runs them itself (`None` here).
    pub(crate) fn binary(self, op: BinOp, b: Value) -> Option<Value> {
        let numeric = |v: Value| matches!(v, Value::Int(_) | Value::Float(_));
        if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) {
            if let (Value::Int(x), Value::Int(y)) = (self, b) {
                return Some(Value::Int(match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    _ => x.wrapping_mul(y),
                }));
            }
            if !(numeric(self) && numeric(b)) {
                return None;
            }
            let (x, y) = (self.as_float(), b.as_float());
            return Some(Value::Float(match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                _ => x * y,
            }));
        }
        let ord = match (self, b) {
            (Value::Vertex(x), Value::Vertex(y)) => x.cmp(&y),
            (Value::Bool(x), Value::Bool(y)) => x.cmp(&y),
            (Value::Int(x), Value::Int(y)) => x.cmp(&y),
            (x, y) if numeric(x) && numeric(y) => x.as_float().partial_cmp(&y.as_float())?,
            _ => return None,
        };
        Some(Value::Bool(match op {
            BinOp::Lt => ord.is_lt(),
            BinOp::Le => ord.is_le(),
            BinOp::Gt => ord.is_gt(),
            BinOp::Ge => ord.is_ge(),
            BinOp::Eq => ord.is_eq(),
            BinOp::Ne => ord.is_ne(),
            _ => return None,
        }))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Vertex(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_of_values() {
        assert_eq!(Value::Bool(true).ty(), Ty::Bool);
        assert_eq!(Value::Int(3).ty(), Ty::Int);
        assert_eq!(Value::Float(1.5).ty(), Ty::Float);
        assert_eq!(Value::Vertex(Vid::new(2)).ty(), Ty::Vertex);
    }

    #[test]
    fn accessors() {
        assert!(Value::Bool(true).as_bool());
        assert_eq!(Value::Int(-4).as_int(), -4);
        assert_eq!(Value::Float(2.5).as_float(), 2.5);
        assert_eq!(Value::Int(2).as_float(), 2.0, "ints widen to float");
        assert_eq!(Value::Vertex(Vid::new(9)).as_vertex(), Vid::new(9));
    }

    #[test]
    #[should_panic(expected = "expected bool")]
    fn wrong_accessor_panics() {
        Value::Int(1).as_bool();
    }

    #[test]
    fn bits_roundtrip() {
        for v in [
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-123456),
            Value::Float(-2.75),
            Value::Vertex(Vid::new(4_000_000_000)),
        ] {
            assert_eq!(Value::from_bits(v.ty(), v.to_bits()), v);
        }
    }

    #[test]
    fn zeros() {
        assert_eq!(Value::zero(Ty::Int), Value::Int(0));
        assert_eq!(Value::zero(Ty::Bool), Value::Bool(false));
    }

    #[test]
    fn operator_table_has_no_value_for_nan_comparisons_or_mismatched_types() {
        let (one, nan) = (Value::Int(1), Value::Float(f64::NAN));
        assert_eq!(
            Value::Int(i64::MAX).binary(BinOp::Add, one),
            Some(Value::Int(i64::MIN))
        );
        assert_eq!(
            one.binary(BinOp::Mul, Value::Float(2.5)),
            Some(Value::Float(2.5))
        );
        assert_eq!(
            one.binary(BinOp::Lt, Value::Float(1.5)),
            Some(Value::Bool(true))
        );
        assert_eq!(nan.binary(BinOp::Ne, nan), None);
        assert_eq!(one.binary(BinOp::Add, Value::Bool(true)), None);
        assert_eq!(one.binary(BinOp::Eq, Value::Vertex(Vid::new(1))), None);
        assert_eq!(
            Value::Bool(true).binary(BinOp::And, Value::Bool(true)),
            None
        );
        assert_eq!(
            Value::Int(i64::MIN).unary(UnOp::Neg),
            Some(Value::Int(i64::MIN))
        );
        assert_eq!(one.unary(UnOp::Not), None);
    }

    #[test]
    fn display() {
        assert_eq!(Ty::Vertex.to_string(), "vertex");
        assert_eq!(Value::Int(7).to_string(), "7");
    }
}
