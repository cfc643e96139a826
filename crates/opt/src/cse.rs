//! Local (block-scoped) common-subexpression elimination over pure
//! instructions.
//!
//! One pass over each block with a table of available expressions. A
//! definition invalidates the expressions that read or produce its local
//! through a per-local index of the keys recorded under it, so each def
//! costs the keys that name it, not a scan of the table.
//!
//! Commutative operands are put in a pinned order: by their text `l<id>`,
//! `i<value>:<type>`, `f<bits>:<type>` or `null`, compared as strings, so
//! `l10` sorts before `l9`. The text is rendered into a stack buffer.

use khaos_ir::{Function, Inst, LocalId, Operand};
use std::collections::HashMap;
use std::fmt::{self, Write};
use std::hash::{BuildHasherDefault, Hasher};

/// A hashable key for a pure expression.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    Bin(khaos_ir::BinOp, khaos_ir::Type, OpKey, OpKey),
    Un(khaos_ir::UnOp, khaos_ir::Type, OpKey),
    Cmp(khaos_ir::CmpPred, khaos_ir::Type, OpKey, OpKey),
    Cast(khaos_ir::CastKind, khaos_ir::Type, khaos_ir::Type, OpKey),
    PtrAdd(OpKey, OpKey),
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum OpKey {
    Local(LocalId),
    Int(i64, khaos_ir::Type),
    Float(u64, khaos_ir::Type),
    Null,
}

fn op_key(o: &Operand) -> OpKey {
    match o {
        Operand::Local(l) => OpKey::Local(*l),
        Operand::Const(khaos_ir::Const::Int { value, ty }) => OpKey::Int(*value, *ty),
        Operand::Const(khaos_ir::Const::Float { value, ty }) => OpKey::Float(value.to_bits(), *ty),
        Operand::Const(khaos_ir::Const::Null) => OpKey::Null,
    }
}

fn key_of(inst: &Inst) -> Option<(Key, LocalId, khaos_ir::Type)> {
    match inst {
        Inst::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        } if !op.can_trap() => {
            // Canonicalize commutative operand order for better hit rates.
            let (a, b) = if op.is_commutative() {
                let (ka, kb) = (op_key(lhs), op_key(rhs));
                if OpText::of(&ka).as_bytes() <= OpText::of(&kb).as_bytes() {
                    (ka, kb)
                } else {
                    (kb, ka)
                }
            } else {
                (op_key(lhs), op_key(rhs))
            };
            Some((Key::Bin(*op, *ty, a, b), *dst, *ty))
        }
        Inst::Un { op, ty, dst, src } => Some((Key::Un(*op, *ty, op_key(src)), *dst, *ty)),
        Inst::Cmp {
            pred,
            ty,
            dst,
            lhs,
            rhs,
        } => Some((
            Key::Cmp(*pred, *ty, op_key(lhs), op_key(rhs)),
            *dst,
            khaos_ir::Type::I1,
        )),
        Inst::Cast {
            kind,
            dst,
            src,
            from,
            to,
        } => Some((Key::Cast(*kind, *from, *to, op_key(src)), *dst, *to)),
        Inst::PtrAdd { dst, base, offset } => Some((
            Key::PtrAdd(op_key(base), op_key(offset)),
            *dst,
            khaos_ir::Type::Ptr,
        )),
        _ => None,
    }
}

/// An operand key's ordering text, rendered without allocating. The
/// longest text (`i-9223372036854775808:void`) is 26 bytes.
struct OpText {
    buf: [u8; 32],
    len: usize,
}

impl OpText {
    fn of(k: &OpKey) -> Self {
        let mut t = OpText {
            buf: [0; 32],
            len: 0,
        };
        let r = match k {
            OpKey::Local(l) => write!(t, "l{}", l.index()),
            OpKey::Int(v, ty) => write!(t, "i{v}:{ty}"),
            OpKey::Float(v, ty) => write!(t, "f{v}:{ty}"),
            OpKey::Null => t.write_str("null"),
        };
        r.expect("operand text fits its buffer");
        t
    }

    fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl Write for OpText {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        self.buf
            .get_mut(self.len..end)
            .ok_or(fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// The block's available expressions. The table is never iterated, so
/// its hasher changes speed only; keys are a few small integers, hashed
/// with a multiply-rotate (Fx) step each.
type Avail = HashMap<Key, LocalId, BuildHasherDefault<FxHasher>>;

#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

fn key_mentions(k: &Key, l: LocalId) -> bool {
    let check = |o: &OpKey| matches!(o, OpKey::Local(x) if *x == l);
    match k {
        Key::Bin(_, _, a, b) | Key::Cmp(_, _, a, b) | Key::PtrAdd(a, b) => check(a) || check(b),
        Key::Un(_, _, a) | Key::Cast(_, _, _, a) => check(a),
    }
}

/// The locals a key reads.
fn key_locals(k: &Key) -> impl Iterator<Item = LocalId> + '_ {
    let (a, b) = match k {
        Key::Bin(_, _, a, b) | Key::Cmp(_, _, a, b) | Key::PtrAdd(a, b) => (a, Some(b)),
        Key::Un(_, _, a) | Key::Cast(_, _, _, a) => (a, None),
    };
    std::iter::once(a).chain(b).filter_map(|o| match o {
        OpKey::Local(l) => Some(*l),
        _ => None,
    })
}

/// Per-local lists of the keys recorded while they read or produced that
/// local, chained through one arena. An entry may be stale (its key since
/// dropped, or re-recorded under another result); invalidation re-checks
/// each one against the table.
struct Named {
    head: Vec<u32>,
    links: Vec<(Key, u32)>,
    touched: Vec<LocalId>,
}

const NIL: u32 = u32::MAX;

impl Named {
    fn push(&mut self, l: LocalId, key: &Key) {
        let head = &mut self.head[l.index()];
        if *head == NIL {
            self.touched.push(l);
        }
        self.links.push((key.clone(), *head));
        *head = (self.links.len() - 1) as u32;
    }

    /// Drops from `avail` every key that reads or produces `d`.
    fn invalidate(&mut self, d: LocalId, avail: &mut Avail) {
        let mut at = std::mem::replace(&mut self.head[d.index()], NIL);
        while at != NIL {
            let (k, next) = &self.links[at as usize];
            if avail.get(k).is_some_and(|v| *v == d || key_mentions(k, d)) {
                avail.remove(k);
            }
            at = *next;
        }
    }

    fn clear(&mut self) {
        for l in self.touched.drain(..) {
            self.head[l.index()] = NIL;
        }
        self.links.clear();
    }
}

/// Runs local CSE on one function. Returns the number of replaced
/// instructions.
pub fn run_function(f: &mut Function) -> usize {
    let mut replaced = 0;
    let mut avail = Avail::default();
    let mut named = Named {
        head: vec![NIL; f.locals.len()],
        links: Vec::new(),
        touched: Vec::new(),
    };
    for b in &mut f.blocks {
        avail.clear();
        named.clear();
        for inst in &mut b.insts {
            let parsed = key_of(inst);
            // The definition invalidates expressions reading or producing
            // this local — do this before recording the new expression.
            if let Some(d) = inst.def() {
                named.invalidate(d, &mut avail);
            }
            if let Some((key, dst, ty)) = parsed {
                if let Some(prev) = avail.get(&key).copied() {
                    if prev != dst {
                        *inst = Inst::Copy {
                            ty,
                            dst,
                            src: Operand::local(prev),
                        };
                        replaced += 1;
                    }
                } else if !key_mentions(&key, dst) {
                    // Self-referential defs (`x = x + 1`) are not reusable.
                    for l in key_locals(&key).chain([dst]) {
                        named.push(l, &key);
                    }
                    avail.insert(key, dst);
                }
            }
        }
    }
    replaced
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::{BinOp, Module, Type};

    #[test]
    fn reuses_identical_expression() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.add_param(Type::I64);
        let a = fb.bin(BinOp::Mul, Type::I64, Operand::local(p), Operand::local(p));
        let b = fb.bin(BinOp::Mul, Type::I64, Operand::local(p), Operand::local(p));
        let r = fb.bin(BinOp::Add, Type::I64, Operand::local(a), Operand::local(b));
        fb.ret(Some(Operand::local(r)));
        m.push_function(fb.finish());
        assert_eq!(run_function(&mut m.functions[0]), 1);
        assert!(
            matches!(&m.functions[0].blocks[0].insts[1], Inst::Copy { src: Operand::Local(l), .. } if *l == a)
        );
        khaos_ir::verify::assert_valid(&m);
    }

    #[test]
    fn redefinition_invalidates() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.add_param(Type::I64);
        let a = fb.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 1),
        );
        fb.copy_to(p, Operand::const_int(Type::I64, 9)); // p redefined!
        let b = fb.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 1),
        );
        let r = fb.bin(BinOp::Add, Type::I64, Operand::local(a), Operand::local(b));
        fb.ret(Some(Operand::local(r)));
        m.push_function(fb.finish());
        assert_eq!(
            run_function(&mut m.functions[0]),
            0,
            "p changed between the adds"
        );
    }

    #[test]
    fn commutative_operands_canonicalized() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.add_param(Type::I64);
        let q = fb.add_param(Type::I64);
        let a = fb.bin(BinOp::Add, Type::I64, Operand::local(p), Operand::local(q));
        let _b = fb.bin(BinOp::Add, Type::I64, Operand::local(q), Operand::local(p));
        fb.ret(Some(Operand::local(a)));
        m.push_function(fb.finish());
        assert_eq!(run_function(&mut m.functions[0]), 1, "a+b and b+a unify");
    }

    #[test]
    fn trapping_ops_not_csed() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.add_param(Type::I64);
        let q = fb.add_param(Type::I64);
        let a = fb.bin(BinOp::SDiv, Type::I64, Operand::local(p), Operand::local(q));
        let _b = fb.bin(BinOp::SDiv, Type::I64, Operand::local(p), Operand::local(q));
        fb.ret(Some(Operand::local(a)));
        m.push_function(fb.finish());
        assert_eq!(run_function(&mut m.functions[0]), 0);
    }

    #[test]
    fn operand_order_is_pinned() {
        let text = |k: &OpKey| String::from_utf8(OpText::of(k).as_bytes().to_vec()).unwrap();
        let mut keys = [
            OpKey::Null,
            OpKey::Local(LocalId::new(9)),
            OpKey::Int(9, Type::I32),
            OpKey::Local(LocalId::new(10)),
            OpKey::Int(10, Type::I32),
            OpKey::Float(1f64.to_bits(), Type::F64),
            OpKey::Int(-1, Type::I64),
        ];
        keys.sort_by(|a, b| OpText::of(a).as_bytes().cmp(OpText::of(b).as_bytes()));
        let order: Vec<String> = keys.iter().map(text).collect();
        assert_eq!(
            order,
            [
                "f4607182418800017408:f64",
                "i-1:i64",
                "i10:i32",
                "i9:i32",
                "l10",
                "l9",
                "null"
            ]
        );
        // The longest texts fit the buffer.
        assert_eq!(
            text(&OpKey::Int(i64::MIN, Type::Void)),
            "i-9223372036854775808:void"
        );
        assert_eq!(
            text(&OpKey::Float(u64::MAX, Type::Void)),
            "f18446744073709551615:void"
        );
    }
}
