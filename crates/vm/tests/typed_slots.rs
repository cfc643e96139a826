//! Typed-slot semantics against a Rust oracle: every integer `BinOp`,
//! `CmpPred`, `UnOp` and `CastKind` over `i1`, `i8`, `i16`, `i32`, `i64`
//! and `ptr` at edge inputs (`i64::MIN`, `-1`, shift counts at and above
//! the width), typed memory round trips, and the float ops over `f32` and
//! `f64` (rounding, NaN compares, a `select`).
//!
//! Each probe computes its result twice where the type allows a constant:
//! from locals, whose values were normalized to their type when copied
//! in, and straight from constant operands, which keep their literal
//! value — an `f32` op rounds a float constant only with its result.
//! The modules are not verified: integer arithmetic on `ptr` is not valid
//! KIR, but the interpreter decodes it like `i64`, so it is pinned here.

use khaos_ir::builder::FunctionBuilder;
use khaos_ir::{BinOp, CastKind, CmpPred, ExtFunc, ExtId, LocalId, Module, Operand, Type, UnOp};
use khaos_vm::{run_function, VmError};

const INTS: [Type; 6] = [
    Type::I1,
    Type::I8,
    Type::I16,
    Type::I32,
    Type::I64,
    Type::Ptr,
];
const FLOATS: [Type; 2] = [Type::F32, Type::F64];

const INT_BINOPS: [BinOp; 13] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::SDiv,
    BinOp::UDiv,
    BinOp::SRem,
    BinOp::URem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::LShr,
    BinOp::AShr,
];
const FLOAT_BINOPS: [BinOp; 4] = [BinOp::FAdd, BinOp::FSub, BinOp::FMul, BinOp::FDiv];

/// Integer inputs: signs, width boundaries, and shift counts at and above
/// every width.
const EDGES: [i64; 23] = [
    0,
    1,
    -1,
    2,
    7,
    8,
    15,
    16,
    31,
    32,
    63,
    64,
    65,
    0x7f,
    0x80,
    0xff,
    0x8000,
    i32::MAX as i64,
    i32::MIN as i64,
    u32::MAX as i64,
    i64::MAX,
    i64::MIN,
    0x1234_5678_9abc_def0,
];

/// Float inputs: signed zeros, values an `f32` rounds or overflows on, a
/// subnormal, NaN and the infinities.
const FEDGES: [f64; 12] = [
    0.0,
    -0.0,
    1.0,
    -1.5,
    0.1,
    1e-45,
    3.402_823_5e38,
    1e300,
    16_777_217.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// `v` as the canonical value of integer type `ty`.
fn norm(v: i64, ty: Type) -> i64 {
    match ty {
        Type::I1 => v & 1,
        Type::I8 => v as i8 as i64,
        Type::I16 => v as i16 as i64,
        Type::I32 => v as i32 as i64,
        _ => v,
    }
}

/// `v` as the canonical value of float type `ty` (an `f32` kept widened).
fn fnorm(v: f64, ty: Type) -> f64 {
    if ty == Type::F32 {
        v as f32 as f64
    } else {
        v
    }
}

/// The oracle for integer `op` on canonical `ty` values; `None` when it
/// traps. Shift counts wrap at the width (at 8 for `i1`).
fn int_bin(op: BinOp, ty: Type, a: i64, b: i64) -> Option<i64> {
    macro_rules! native {
        ($s:ty, $u:ty) => {{
            let (x, y, ux, uy) = (a as $s, b as $s, a as $u, b as $u);
            let r: $s = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::SDiv => x.checked_div(y).or((y != 0).then_some(x))?,
                BinOp::SRem => x.checked_rem(y).or((y != 0).then_some(0))?,
                BinOp::UDiv => ux.checked_div(uy)? as $s,
                BinOp::URem => ux.checked_rem(uy)? as $s,
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                BinOp::Shl => x.wrapping_shl(b as u32),
                BinOp::LShr => ux.wrapping_shr(b as u32) as $s,
                BinOp::AShr => x.wrapping_shr(b as u32),
                _ => unreachable!("{op:?} is not an integer op"),
            };
            r as i64
        }};
    }
    Some(match ty {
        Type::I1 => {
            let s = b & 7;
            let r = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::SDiv | BinOp::UDiv => a.checked_div(b)?,
                BinOp::SRem | BinOp::URem => a.checked_rem(b)?,
                BinOp::And => a & b,
                BinOp::Or => a | b,
                BinOp::Xor => a ^ b,
                BinOp::Shl => a << s,
                BinOp::LShr | BinOp::AShr => a >> s,
                _ => unreachable!("{op:?} is not an integer op"),
            };
            r & 1
        }
        Type::I8 => native!(i8, u8),
        Type::I16 => native!(i16, u16),
        Type::I32 => native!(i32, u32),
        _ => native!(i64, u64),
    })
}

/// The oracle for an integer compare of canonical `ty` values (`i1`
/// holds 0 and 1, so signed and unsigned agree on it).
fn int_cmp(pred: CmpPred, ty: Type, a: i64, b: i64) -> bool {
    macro_rules! native {
        ($s:ty, $u:ty) => {{
            let (x, y, ux, uy) = (a as $s, b as $s, a as $u, b as $u);
            match pred {
                CmpPred::Eq => x == y,
                CmpPred::Ne => x != y,
                CmpPred::Slt => x < y,
                CmpPred::Sle => x <= y,
                CmpPred::Sgt => x > y,
                CmpPred::Sge => x >= y,
                CmpPred::Ult => ux < uy,
                CmpPred::Ule => ux <= uy,
                CmpPred::Ugt => ux > uy,
                CmpPred::Uge => ux >= uy,
                _ => unreachable!("{pred:?} is not an integer predicate"),
            }
        }};
    }
    match ty {
        Type::I1 | Type::I8 => native!(i8, u8),
        Type::I16 => native!(i16, u16),
        Type::I32 => native!(i32, u32),
        _ => native!(i64, u64),
    }
}

fn float_cmp(pred: CmpPred, x: f64, y: f64) -> bool {
    match pred {
        CmpPred::FEq => x == y,
        CmpPred::FNe => x != y,
        CmpPred::FLt => x < y,
        CmpPred::FLe => x <= y,
        CmpPred::FGt => x > y,
        CmpPred::FGe => x >= y,
        _ => unreachable!("{pred:?} is not a float predicate"),
    }
}

fn float_bin(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
        BinOp::FAdd => x + y,
        BinOp::FSub => x - y,
        BinOp::FMul => x * y,
        BinOp::FDiv => x / y,
        _ => unreachable!("{op:?} is not a float op"),
    }
}

/// What the oracle expects a probe to print.
enum Want {
    Bits(i64),
    /// Any NaN: payloads are not part of the semantics.
    NaN,
}

/// `main` under construction: every probe prints its result, and the
/// oracle's value is recorded beside it.
struct Probes {
    m: Module,
    f: FunctionBuilder,
    print_i64: ExtId,
    print_f64: ExtId,
    want: Vec<(String, Want)>,
}

impl Probes {
    fn new() -> Self {
        let mut m = Module::new("t");
        let mut ext = |name: &str, ty: Type| {
            m.declare_external(ExtFunc {
                name: name.into(),
                params: vec![ty],
                ret_ty: Type::Void,
                variadic: false,
            })
        };
        let (print_i64, print_f64) = (ext("print_i64", Type::I64), ext("print_f64", Type::F64));
        Probes {
            m,
            f: FunctionBuilder::new("main", Type::I64),
            print_i64,
            print_f64,
            want: Vec::new(),
        }
    }

    /// A local of integer type `ty` holding `v`, copied from a constant
    /// (a pointer goes through `inttoptr`).
    fn int_local(&mut self, ty: Type, v: i64) -> Operand {
        let l = if ty == Type::Ptr {
            let c = Operand::const_int(Type::I64, v);
            self.f.cast(CastKind::IntToPtr, c, Type::I64, Type::Ptr)
        } else {
            self.f.copy(ty, Operand::const_int(ty, v))
        };
        Operand::local(l)
    }

    fn float_local(&mut self, ty: Type, v: f64) -> Operand {
        Operand::local(self.f.copy(ty, Operand::const_float(ty, v)))
    }

    /// Prints an integer-class local; the oracle says `want`.
    fn int(&mut self, label: String, l: LocalId, want: i64) {
        self.f
            .call_ext(self.print_i64, Type::Void, vec![Operand::local(l)]);
        self.want.push((label, Want::Bits(want)));
    }

    /// Prints a float local's bits; the oracle says `want`.
    fn float(&mut self, label: String, l: LocalId, want: f64) {
        self.f
            .call_ext(self.print_f64, Type::Void, vec![Operand::local(l)]);
        let want = if want.is_nan() {
            Want::NaN
        } else {
            Want::Bits(want.to_bits() as i64)
        };
        self.want.push((label, want));
    }

    fn check(mut self) {
        self.f.ret(Some(Operand::const_int(Type::I64, 0)));
        self.m.push_function(self.f.finish());
        let r = run_function(&self.m, "main", &[]).expect("probes run");
        assert_eq!(r.output.len(), self.want.len(), "one output per probe");
        for ((label, want), &got) in self.want.iter().zip(&r.output) {
            match want {
                Want::Bits(want) => assert_eq!(got, *want, "{label}"),
                Want::NaN => assert!(f64::from_bits(got as u64).is_nan(), "{label}: {got:#x}"),
            }
        }
    }
}

#[test]
fn integer_binops_match_the_oracle() {
    for ty in INTS {
        let mut p = Probes::new();
        for op in INT_BINOPS {
            for a in EDGES {
                for b in EDGES {
                    let (na, nb) = (norm(a, ty), norm(b, ty));
                    let Some(want) = int_bin(op, ty, na, nb) else {
                        continue;
                    };
                    let (la, lb) = (p.int_local(ty, a), p.int_local(ty, b));
                    let r = p.f.bin(op, ty, la, lb);
                    p.int(format!("{op:?} {ty} {a} {b}"), r, want);
                    if ty != Type::Ptr {
                        let (ca, cb) = (Operand::const_int(ty, a), Operand::const_int(ty, b));
                        let r = p.f.bin(op, ty, ca, cb);
                        p.int(format!("{op:?} {ty} const {a} {b}"), r, want);
                    }
                }
            }
        }
        p.check();
    }
}

#[test]
fn division_and_remainder_by_zero_trap_at_every_width() {
    for ty in INTS {
        for (op, what) in [
            (BinOp::SDiv, "division"),
            (BinOp::UDiv, "division"),
            (BinOp::SRem, "remainder"),
            (BinOp::URem, "remainder"),
        ] {
            let mut p = Probes::new();
            // A zero that is only zero after normalization (`i64`'s and
            // `ptr`'s zero is zero itself).
            let zero = if ty.bits().unwrap_or(64) < 64 {
                1i64 << ty.bits().unwrap()
            } else {
                0
            };
            let (a, b) = (p.int_local(ty, 1), p.int_local(ty, zero));
            let r = p.f.bin(op, ty, a, b);
            p.f.call_ext(p.print_i64, Type::Void, vec![Operand::local(r)]);
            p.f.ret(Some(Operand::const_int(Type::I64, 0)));
            p.m.push_function(p.f.finish());
            assert_eq!(
                run_function(&p.m, "main", &[]),
                Err(VmError::Trap(format!("integer {what} by zero"))),
                "{op:?} {ty}"
            );
        }
    }
}

#[test]
fn integer_compares_match_the_oracle() {
    for ty in INTS {
        let mut p = Probes::new();
        for pred in CmpPred::ALL.into_iter().filter(|p| !p.is_float_pred()) {
            for a in EDGES {
                for b in EDGES {
                    let want = int_cmp(pred, ty, norm(a, ty), norm(b, ty)) as i64;
                    let (la, lb) = (p.int_local(ty, a), p.int_local(ty, b));
                    let r = p.f.cmp(pred, ty, la, lb);
                    p.int(format!("{pred:?} {ty} {a} {b}"), r, want);
                    if ty != Type::Ptr {
                        let (ca, cb) = (Operand::const_int(ty, a), Operand::const_int(ty, b));
                        let r = p.f.cmp(pred, ty, ca, cb);
                        p.int(format!("{pred:?} {ty} const {a} {b}"), r, want);
                    }
                }
            }
        }
        p.check();
    }
}

#[test]
fn integer_unops_match_the_oracle() {
    let mut p = Probes::new();
    for ty in INTS {
        for a in EDGES {
            let na = norm(a, ty);
            for (op, want) in [
                (UnOp::Neg, norm(na.wrapping_neg(), ty)),
                (UnOp::Not, norm(!na, ty)),
            ] {
                let la = p.int_local(ty, a);
                let r = p.f.un(op, ty, la);
                p.int(format!("{op:?} {ty} {a}"), r, want);
            }
        }
    }
    p.check();
}

#[test]
fn integer_and_pointer_casts_match_the_oracle() {
    let mut p = Probes::new();
    let ints = &INTS[..5];
    for from in ints {
        for to in ints {
            for a in EDGES {
                let na = norm(a, *from);
                // The source's unsigned value (`i1` holds 0 or 1).
                let unsigned = match from.bits().unwrap() {
                    64 => na,
                    bits => na & ((1i64 << bits) - 1),
                };
                let mut casts = Vec::new();
                if from.size() >= to.size() {
                    casts.push((CastKind::Trunc, norm(na, *to)));
                }
                if from.size() <= to.size() {
                    casts.push((CastKind::SExt, norm(na, *to)));
                    casts.push((CastKind::ZExt, norm(unsigned, *to)));
                }
                for (kind, want) in casts {
                    let la = p.int_local(*from, a);
                    let r = p.f.cast(kind, la, *from, *to);
                    p.int(format!("{kind:?} {from} {to} {a}"), r, want);
                }
            }
        }
    }
    for a in EDGES {
        let la = p.int_local(Type::Ptr, a);
        let r = p.f.cast(CastKind::PtrToInt, la, Type::Ptr, Type::I64);
        p.int(format!("ptrtoint {a}"), r, a);
        let la = p.int_local(Type::I64, a);
        let r = p.f.cast(CastKind::IntToPtr, la, Type::I64, Type::Ptr);
        p.int(format!("inttoptr {a}"), r, a);
    }
    p.check();
}

#[test]
fn float_int_casts_match_the_oracle() {
    let mut p = Probes::new();
    for fty in FLOATS {
        for ity in &INTS[..5] {
            for x in FEDGES {
                // Saturating at the `i64` range (NaN to 0), then wrapped
                // to the target width.
                let want = norm(fnorm(x, fty) as i64, *ity);
                let lx = p.float_local(fty, x);
                let r = p.f.cast(CastKind::FpToSi, lx, fty, *ity);
                p.int(format!("fptosi {fty} {ity} {x}"), r, want);
            }
            for a in EDGES {
                let want = fnorm(norm(a, *ity) as f64, fty);
                let la = p.int_local(*ity, a);
                let r = p.f.cast(CastKind::SiToFp, la, *ity, fty);
                p.float(format!("sitofp {ity} {fty} {a}"), r, want);
            }
        }
    }
    for x in FEDGES {
        let lx = p.float_local(Type::F64, x);
        let r = p.f.cast(CastKind::FpTrunc, lx, Type::F64, Type::F32);
        p.float(format!("fptrunc {x}"), r, x as f32 as f64);
        let lx = p.float_local(Type::F32, x);
        let r = p.f.cast(CastKind::FpExt, lx, Type::F32, Type::F64);
        p.float(format!("fpext {x}"), r, x as f32 as f64);
    }
    p.check();
}

#[test]
fn float_ops_match_the_oracle() {
    for ty in FLOATS {
        let mut p = Probes::new();
        for x in FEDGES {
            for y in FEDGES {
                let (nx, ny) = (fnorm(x, ty), fnorm(y, ty));
                for op in FLOAT_BINOPS {
                    let (lx, ly) = (p.float_local(ty, x), p.float_local(ty, y));
                    let r = p.f.bin(op, ty, lx, ly);
                    p.float(
                        format!("{op:?} {ty} {x} {y}"),
                        r,
                        fnorm(float_bin(op, nx, ny), ty),
                    );
                    // Constants are rounded with the result, not before.
                    let (cx, cy) = (Operand::const_float(ty, x), Operand::const_float(ty, y));
                    let r = p.f.bin(op, ty, cx, cy);
                    p.float(
                        format!("{op:?} {ty} const {x} {y}"),
                        r,
                        fnorm(float_bin(op, x, y), ty),
                    );
                }
                for pred in CmpPred::ALL.into_iter().filter(|p| p.is_float_pred()) {
                    let (lx, ly) = (p.float_local(ty, x), p.float_local(ty, y));
                    let r = p.f.cmp(pred, ty, lx, ly);
                    let want = float_cmp(pred, nx, ny) as i64;
                    p.int(format!("{pred:?} {ty} {x} {y}"), r, want);
                    // A rounded local against an unrounded constant.
                    let lx = p.float_local(ty, x);
                    let r = p.f.cmp(pred, ty, lx, Operand::const_float(ty, y));
                    let want = float_cmp(pred, nx, y) as i64;
                    p.int(format!("{pred:?} {ty} {x} const {y}"), r, want);
                }
            }
            let lx = p.float_local(ty, x);
            let r = p.f.un(UnOp::FNeg, ty, lx);
            p.float(format!("fneg {ty} {x}"), r, fnorm(-fnorm(x, ty), ty));
        }
        p.check();
    }
}

#[test]
fn selects_round_a_constant_to_their_type() {
    let mut p = Probes::new();
    for ty in FLOATS {
        for x in FEDGES {
            for cond in [false, true] {
                let other = p.float_local(ty, 2.5);
                let r = p.f.select(
                    ty,
                    Operand::const_bool(cond),
                    Operand::const_float(ty, x),
                    other,
                );
                let want = if cond { fnorm(x, ty) } else { 2.5 };
                p.float(format!("select {ty} {cond} {x}"), r, want);
            }
        }
    }
    for ty in INTS {
        for a in EDGES {
            let (la, lb) = (p.int_local(ty, a), p.int_local(ty, 5));
            let c = p.f.cmp(
                CmpPred::Eq,
                Type::I64,
                Operand::const_int(Type::I64, a),
                Operand::const_int(Type::I64, 0),
            );
            let r = p.f.select(ty, Operand::local(c), la, lb);
            let want = if a == 0 { norm(a, ty) } else { norm(5, ty) };
            p.int(format!("select {ty} {a}"), r, want);
        }
    }
    p.check();
}

#[test]
fn typed_memory_round_trips_match_the_oracle() {
    let mut p = Probes::new();
    let slot = p.f.alloca(8);
    let at = Operand::local(slot);
    for ty in INTS {
        for a in EDGES {
            let la = p.int_local(ty, a);
            p.f.store(ty, la, at);
            let r = p.f.load(ty, at);
            p.int(format!("store/load {ty} {a}"), r, norm(a, ty));
            // Little-endian: a narrower load reads the low bytes.
            for narrow in [Type::I8, Type::I16, Type::I32] {
                if narrow.size() < ty.size() {
                    let r = p.f.load(narrow, at);
                    p.int(format!("load {narrow} of {ty} {a}"), r, norm(a, narrow));
                }
            }
        }
    }
    for ty in FLOATS {
        for x in FEDGES {
            let lx = p.float_local(ty, x);
            p.f.store(ty, lx, at);
            let r = p.f.load(ty, at);
            p.float(format!("store/load {ty} {x}"), r, fnorm(x, ty));
            // A constant stored as `f32` is rounded on the way out.
            p.f.store(ty, Operand::const_float(ty, x), at);
            let r = p.f.load(ty, at);
            p.float(format!("store/load {ty} const {x}"), r, fnorm(x, ty));
        }
    }
    p.check();
}
