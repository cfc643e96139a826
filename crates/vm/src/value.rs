//! Runtime values.

use khaos_ir::constant::normalize_int;
use khaos_ir::{Const, Type};

/// A dynamically-typed runtime value.
///
/// Integers and pointers are carried as `i64` (pointers are unsigned
/// addresses stored in two's complement); floats as `f64` (an `f32` value
/// is stored widened and re-narrowed at each operation of type `f32`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// Integer or pointer payload.
    Int(i64),
    /// Float payload.
    Float(f64),
}

impl Value {
    /// The zero value for `ty`.
    pub fn zero(ty: Type) -> Value {
        if ty.is_float() {
            Value::Float(0.0)
        } else {
            Value::Int(0)
        }
    }

    /// Converts a constant into a runtime value.
    pub fn from_const(c: &Const) -> Value {
        match c {
            Const::Int { value, ty } => Value::Int(normalize_int(*value, *ty)),
            Const::Float { value, .. } => Value::Float(*value),
            Const::Null => Value::Int(0),
        }
    }

    /// Reads the integer payload.
    ///
    /// # Panics
    /// Panics if the value is a float (the verifier rules this out for
    /// well-typed modules).
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Float(v) => panic!("expected int value, found float {v}"),
        }
    }

    /// Reads the float payload.
    ///
    /// # Panics
    /// Panics if the value is an integer.
    pub fn as_float(self) -> f64 {
        match self {
            Value::Float(v) => v,
            Value::Int(v) => panic!("expected float value, found int {v}"),
        }
    }

    /// The payload as frame-slot bits: an integer's two's complement, a
    /// float's `f64` bits.
    pub(crate) fn to_bits(self) -> u64 {
        match self {
            Value::Int(v) => v as u64,
            Value::Float(v) => v.to_bits(),
        }
    }

    /// Reads slot bits holding a value of static type `ty`.
    pub(crate) fn from_bits(bits: u64, ty: Type) -> Value {
        if ty.is_float() {
            Value::Float(f64::from_bits(bits))
        } else {
            Value::Int(bits as i64)
        }
    }

    /// Wraps the payload to `ty`'s width/precision, producing the canonical
    /// value stored in a local of that type.
    pub fn normalize(self, ty: Type) -> Value {
        match (self, ty) {
            (Value::Int(v), t) if t.is_int() => Value::Int(normalize_int(v, t)),
            (Value::Int(v), Type::Ptr) => Value::Int(v),
            (Value::Float(v), Type::F32) => Value::Float(v as f32 as f64),
            (Value::Float(v), Type::F64) => Value::Float(v),
            (v, t) => panic!("cannot normalize {v:?} to {t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_matches_type_class() {
        assert_eq!(Value::zero(Type::I32), Value::Int(0));
        assert_eq!(Value::zero(Type::F32), Value::Float(0.0));
        assert_eq!(Value::zero(Type::Ptr), Value::Int(0));
    }

    #[test]
    fn normalize_wraps_ints() {
        assert_eq!(Value::Int(300).normalize(Type::I8), Value::Int(44));
        assert_eq!(Value::Int(-1).normalize(Type::I64), Value::Int(-1));
        assert_eq!(Value::Int(3).normalize(Type::I1), Value::Int(1));
    }

    #[test]
    fn normalize_narrows_f32() {
        let v = Value::Float(1.000000001).normalize(Type::F32);
        assert_eq!(v, Value::Float(1.000000001f32 as f64));
    }

    #[test]
    fn const_conversion() {
        assert_eq!(Value::from_const(&Const::int(Type::I8, 257)), Value::Int(1));
        assert_eq!(Value::from_const(&Const::Null), Value::Int(0));
        assert_eq!(
            Value::from_const(&Const::float(Type::F64, 2.5)),
            Value::Float(2.5)
        );
    }
}
