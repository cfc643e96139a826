//! The KIR type system.
//!
//! The type lattice is deliberately small — the shapes the Khaos primitives
//! care about are integer widths, float widths and pointers. Aggregates are
//! memory blobs accessed through pointer arithmetic, as in post-SROA LLVM IR.

use std::fmt;

/// A first-class KIR value type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Type {
    /// No value; only valid as a function return type.
    Void,
    /// 1-bit boolean (comparison results, branch conditions).
    I1,
    /// 8-bit integer.
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// 32-bit IEEE float.
    F32,
    /// 64-bit IEEE float.
    F64,
    /// Untyped data or code pointer (64-bit).
    Ptr,
}

impl Type {
    /// All value types (everything except [`Type::Void`]).
    pub const VALUES: [Type; 8] = [
        Type::I1,
        Type::I8,
        Type::I16,
        Type::I32,
        Type::I64,
        Type::F32,
        Type::F64,
        Type::Ptr,
    ];

    /// Returns `true` for the integer types (including `I1`).
    pub fn is_int(self) -> bool {
        matches!(
            self,
            Type::I1 | Type::I8 | Type::I16 | Type::I32 | Type::I64
        )
    }

    /// Returns `true` for the float types.
    pub fn is_float(self) -> bool {
        matches!(self, Type::F32 | Type::F64)
    }

    /// Returns `true` for [`Type::Ptr`].
    pub fn is_ptr(self) -> bool {
        self == Type::Ptr
    }

    /// Size of a value of this type in bytes (0 for `Void`).
    pub fn size(self) -> u32 {
        match self {
            Type::Void => 0,
            Type::I1 | Type::I8 => 1,
            Type::I16 => 2,
            Type::I32 | Type::F32 => 4,
            Type::I64 | Type::F64 | Type::Ptr => 8,
        }
    }

    /// Bit width for integer types; `None` otherwise.
    pub fn bits(self) -> Option<u32> {
        match self {
            Type::I1 => Some(1),
            Type::I8 => Some(8),
            Type::I16 => Some(16),
            Type::I32 => Some(32),
            Type::I64 => Some(64),
            _ => None,
        }
    }

    /// Lossless-convertibility compatibility relation used by the fusion
    /// primitive when selecting functions and compressing parameter lists.
    ///
    /// Two types are *compatible* when a value of either can be carried in
    /// the [`Type::merged`] type and recovered without losing precision:
    /// integers are compatible with integers, floats with floats, pointers
    /// with pointers. Integer/float mixes are incompatible (the paper's
    /// example) and pointers never mix with arithmetic types.
    pub fn compatible(self, other: Type) -> bool {
        (self.is_int() && other.is_int())
            || (self.is_float() && other.is_float())
            || (self.is_ptr() && other.is_ptr())
    }

    /// The carrier type for two [compatible](Type::compatible) types: the
    /// wider of the two.
    ///
    /// Returns `None` when the types are incompatible.
    pub fn merged(self, other: Type) -> Option<Type> {
        if !self.compatible(other) {
            return None;
        }
        Some(if self.size() >= other.size() {
            self
        } else {
            other
        })
    }

    /// The type's name in the text format (`i32`, `ptr`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Type::Void => "void",
            Type::I1 => "i1",
            Type::I8 => "i8",
            Type::I16 => "i16",
            Type::I32 => "i32",
            Type::I64 => "i64",
            Type::F32 => "f32",
            Type::F64 => "f64",
            Type::Ptr => "ptr",
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(Type::I32.is_int());
        assert!(!Type::F32.is_int());
        assert!(Type::F64.is_float());
        assert!(Type::Ptr.is_ptr());
        assert!(!Type::Void.is_int());
    }

    #[test]
    fn sizes() {
        assert_eq!(Type::Void.size(), 0);
        assert_eq!(Type::I1.size(), 1);
        assert_eq!(Type::I16.size(), 2);
        assert_eq!(Type::F32.size(), 4);
        assert_eq!(Type::Ptr.size(), 8);
    }

    #[test]
    fn compatibility_is_class_based() {
        assert!(Type::I8.compatible(Type::I64));
        assert!(Type::F32.compatible(Type::F64));
        assert!(Type::Ptr.compatible(Type::Ptr));
        assert!(
            !Type::I32.compatible(Type::F32),
            "int/float loses precision"
        );
        assert!(!Type::Ptr.compatible(Type::I64));
        assert!(!Type::Void.compatible(Type::Void));
    }

    #[test]
    fn merged_picks_wider() {
        assert_eq!(Type::I8.merged(Type::I32), Some(Type::I32));
        assert_eq!(Type::I64.merged(Type::I16), Some(Type::I64));
        assert_eq!(Type::F32.merged(Type::F64), Some(Type::F64));
        assert_eq!(Type::I32.merged(Type::F64), None);
    }

    #[test]
    fn compatibility_is_symmetric() {
        for a in Type::VALUES {
            for b in Type::VALUES {
                assert_eq!(a.compatible(b), b.compatible(a));
            }
        }
    }

    #[test]
    fn display_roundtrips_names() {
        assert_eq!(Type::I64.to_string(), "i64");
        assert_eq!(Type::Void.to_string(), "void");
        assert_eq!(Type::Ptr.to_string(), "ptr");
    }
}
