//! Block-local constant/copy propagation, constant folding and branch
//! simplification, iterated to a fixed point.
//!
//! The analysis is deliberately block-local (facts die at block
//! boundaries): this is what lets O-LLVM-style opaque predicates that load
//! from globals survive — matching the behaviour the paper relies on when
//! it measures `Sub`/`Bog`/`Fla` under `O2`. The facts live in a table
//! indexed by local, with a reverse index from each local to the locals
//! recorded as its copies, so a definition kills exactly its own facts.

use khaos_ir::constant::normalize_int;
use khaos_ir::{
    BinOp, CastKind, CmpPred, Const, Function, Inst, LocalId, Operand, Term, Type, UnOp,
};

/// What a local is currently known to hold within the block.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Known {
    Const(Const),
    CopyOf(LocalId),
}

/// Runs propagation/folding on one function. Returns true if changed.
pub fn run_function(f: &mut Function) -> bool {
    let mut changed = false;
    while run_once(f) {
        changed = true;
    }
    changed
}

fn run_once(f: &mut Function) -> bool {
    let mut changed = false;
    let mut known = Facts::new(f.locals.len());
    for block in &mut f.blocks {
        known.clear();
        for inst in &mut block.insts {
            inst.for_each_use_mut(|o| {
                if known.subst(o) {
                    changed = true;
                }
            });
            if let Some(folded) = fold_inst(inst) {
                *inst = folded;
                changed = true;
            }
            if let Some(d) = inst.def() {
                known.kill(d);
                match inst {
                    Inst::Copy {
                        src: Operand::Const(c),
                        ..
                    } => known.set(d, Known::Const(*c)),
                    Inst::Copy {
                        src: Operand::Local(s),
                        ..
                    } if *s != d => known.set(d, Known::CopyOf(*s)),
                    _ => {}
                }
            }
        }
        block.term.for_each_use_mut(|o| {
            if known.subst(o) {
                changed = true;
            }
        });
        if let Some(t) = fold_term(&block.term) {
            block.term = t;
            changed = true;
        }
    }
    changed
}

/// The block's known values, indexed by local, with the reverse index a
/// definition needs to kill the copies of its local.
struct Facts {
    known: Vec<Option<Known>>,
    /// `copies[s]`: locals recorded as `CopyOf(s)`. An entry may be stale
    /// (the local since redefined); a kill re-checks each one.
    copies: Vec<Vec<LocalId>>,
    /// Locals with a fact or a copy list, reset at the next block.
    touched: Vec<LocalId>,
}

impl Facts {
    fn new(num_locals: usize) -> Self {
        Facts {
            known: vec![None; num_locals],
            copies: vec![Vec::new(); num_locals],
            touched: Vec::new(),
        }
    }

    fn clear(&mut self) {
        for l in self.touched.drain(..) {
            self.known[l.index()] = None;
            self.copies[l.index()].clear();
        }
    }

    fn set(&mut self, d: LocalId, k: Known) {
        self.known[d.index()] = Some(k);
        self.touched.push(d);
        if let Known::CopyOf(s) = k {
            self.copies[s.index()].push(d);
            self.touched.push(s);
        }
    }

    /// Forgets what `d` held and every copy of `d`.
    fn kill(&mut self, d: LocalId) {
        self.known[d.index()] = None;
        for &x in &self.copies[d.index()] {
            if self.known[x.index()] == Some(Known::CopyOf(d)) {
                self.known[x.index()] = None;
            }
        }
        self.copies[d.index()].clear();
    }

    /// Substitutes an operand through the known values.
    fn subst(&self, o: &mut Operand) -> bool {
        let Some(l) = o.as_local() else { return false };
        match self.known[l.index()] {
            Some(Known::Const(c)) => *o = Operand::Const(c),
            Some(Known::CopyOf(src)) => *o = Operand::Local(src),
            None => return false,
        }
        true
    }
}

fn const_int(o: &Operand) -> Option<(i64, Type)> {
    match o.as_const()? {
        Const::Int { value, ty } => Some((normalize_int(value, ty), ty)),
        _ => None,
    }
}

fn const_float(o: &Operand) -> Option<f64> {
    match o.as_const()? {
        Const::Float { value, .. } => Some(value),
        _ => None,
    }
}

/// Folds an instruction with constant operands into a `Copy` of the result.
/// Returns `None` when not foldable (including would-trap divisions).
fn fold_inst(inst: &Inst) -> Option<Inst> {
    match inst {
        Inst::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        } => {
            if op.is_float_op() {
                let (x, y) = (const_float(lhs)?, const_float(rhs)?);
                let r = match op {
                    BinOp::FAdd => x + y,
                    BinOp::FSub => x - y,
                    BinOp::FMul => x * y,
                    BinOp::FDiv => x / y,
                    _ => return None,
                };
                let r = if *ty == Type::F32 { r as f32 as f64 } else { r };
                return Some(Inst::Copy {
                    ty: *ty,
                    dst: *dst,
                    src: Operand::const_float(*ty, r),
                });
            }
            // Algebraic identities with one constant side.
            if let Some((c, _)) = const_int(rhs) {
                match (op, c) {
                    (
                        BinOp::Add
                        | BinOp::Sub
                        | BinOp::Or
                        | BinOp::Xor
                        | BinOp::Shl
                        | BinOp::LShr
                        | BinOp::AShr,
                        0,
                    )
                    | (BinOp::Mul | BinOp::SDiv | BinOp::UDiv, 1) => {
                        return Some(Inst::Copy {
                            ty: *ty,
                            dst: *dst,
                            src: *lhs,
                        });
                    }
                    (BinOp::Mul | BinOp::And, 0) => {
                        return Some(Inst::Copy {
                            ty: *ty,
                            dst: *dst,
                            src: Operand::zero(*ty),
                        });
                    }
                    _ => {}
                }
            }
            let (x, xt) = const_int(lhs)?;
            let (y, _) = const_int(rhs)?;
            let bits = xt.bits().unwrap_or(64);
            let ux = if bits >= 64 {
                x as u64
            } else {
                (x as u64) & ((1 << bits) - 1)
            };
            let uy = if bits >= 64 {
                y as u64
            } else {
                (y as u64) & ((1 << bits) - 1)
            };
            let shift = (y & (bits.max(8) as i64 - 1)) as u32;
            let r = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::SDiv if y != 0 => x.wrapping_div(y),
                BinOp::SRem if y != 0 => x.wrapping_rem(y),
                BinOp::UDiv if y != 0 => (ux / uy) as i64,
                BinOp::URem if y != 0 => (ux % uy) as i64,
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                BinOp::Shl => x.wrapping_shl(shift),
                BinOp::LShr => (ux >> shift) as i64,
                BinOp::AShr => x >> shift,
                _ => return None, // division by zero: preserve the trap
            };
            Some(Inst::Copy {
                ty: *ty,
                dst: *dst,
                src: Operand::const_int(*ty, normalize_int(r, *ty)),
            })
        }
        Inst::Un { op, ty, dst, src } => match op {
            UnOp::FNeg => {
                let x = const_float(src)?;
                Some(Inst::Copy {
                    ty: *ty,
                    dst: *dst,
                    src: Operand::const_float(*ty, -x),
                })
            }
            UnOp::Neg => {
                let (x, _) = const_int(src)?;
                Some(Inst::Copy {
                    ty: *ty,
                    dst: *dst,
                    src: Operand::const_int(*ty, normalize_int(x.wrapping_neg(), *ty)),
                })
            }
            UnOp::Not => {
                let (x, _) = const_int(src)?;
                Some(Inst::Copy {
                    ty: *ty,
                    dst: *dst,
                    src: Operand::const_int(*ty, normalize_int(!x, *ty)),
                })
            }
        },
        Inst::Cmp {
            pred,
            ty,
            dst,
            lhs,
            rhs,
        } => {
            let r = if pred.is_float_pred() {
                let (x, y) = (const_float(lhs)?, const_float(rhs)?);
                match pred {
                    CmpPred::FEq => x == y,
                    CmpPred::FNe => x != y,
                    CmpPred::FLt => x < y,
                    CmpPred::FLe => x <= y,
                    CmpPred::FGt => x > y,
                    CmpPred::FGe => x >= y,
                    _ => return None,
                }
            } else {
                let (x, xt) = const_int(lhs)?;
                let (y, _) = const_int(rhs)?;
                let bits = xt.bits().unwrap_or(64);
                let ux = if bits >= 64 {
                    x as u64
                } else {
                    (x as u64) & ((1 << bits) - 1)
                };
                let uy = if bits >= 64 {
                    y as u64
                } else {
                    (y as u64) & ((1 << bits) - 1)
                };
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
                    _ => return None,
                }
            };
            let _ = ty;
            Some(Inst::Copy {
                ty: Type::I1,
                dst: *dst,
                src: Operand::const_bool(r),
            })
        }
        Inst::Select {
            ty,
            dst,
            cond,
            on_true,
            on_false,
        } => {
            let (c, _) = const_int(cond)?;
            let src = if c & 1 == 1 { *on_true } else { *on_false };
            Some(Inst::Copy {
                ty: *ty,
                dst: *dst,
                src,
            })
        }
        Inst::Cast {
            kind,
            dst,
            src,
            from,
            to,
        } => {
            match kind {
                CastKind::Trunc | CastKind::SExt => {
                    let (x, _) = const_int(src)?;
                    Some(Inst::Copy {
                        ty: *to,
                        dst: *dst,
                        src: Operand::const_int(*to, normalize_int(x, *to)),
                    })
                }
                CastKind::ZExt => {
                    let (x, _) = const_int(src)?;
                    let bits = from.bits()?;
                    let ux = if bits >= 64 {
                        x as u64
                    } else {
                        (x as u64) & ((1 << bits) - 1)
                    };
                    Some(Inst::Copy {
                        ty: *to,
                        dst: *dst,
                        src: Operand::const_int(*to, normalize_int(ux as i64, *to)),
                    })
                }
                CastKind::SiToFp => {
                    let (x, _) = const_int(src)?;
                    let v = if *to == Type::F32 {
                        x as f64 as f32 as f64
                    } else {
                        x as f64
                    };
                    Some(Inst::Copy {
                        ty: *to,
                        dst: *dst,
                        src: Operand::const_float(*to, v),
                    })
                }
                CastKind::FpTrunc | CastKind::FpExt => {
                    let x = const_float(src)?;
                    let v = if *to == Type::F32 { x as f32 as f64 } else { x };
                    Some(Inst::Copy {
                        ty: *to,
                        dst: *dst,
                        src: Operand::const_float(*to, v),
                    })
                }
                // Pointer casts and fptosi on constants are rare; skip.
                _ => None,
            }
        }
        _ => None,
    }
}

fn fold_term(term: &Term) -> Option<Term> {
    match term {
        Term::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            if then_bb == else_bb {
                return Some(Term::Jump(*then_bb));
            }
            let (c, _) = const_int(cond)?;
            Some(Term::Jump(if c & 1 == 1 { *then_bb } else { *else_bb }))
        }
        Term::Switch {
            value,
            cases,
            default,
            ..
        } => {
            let (v, _) = const_int(value)?;
            let target = cases
                .iter()
                .find(|(c, _)| *c == v)
                .map(|(_, t)| *t)
                .unwrap_or(*default);
            Some(Term::Jump(target))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::Module;

    #[test]
    fn folds_constant_chain() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let a = fb.bin(
            BinOp::Add,
            Type::I64,
            Operand::const_int(Type::I64, 2),
            Operand::const_int(Type::I64, 3),
        );
        let b = fb.bin(
            BinOp::Mul,
            Type::I64,
            Operand::local(a),
            Operand::const_int(Type::I64, 4),
        );
        fb.ret(Some(Operand::local(b)));
        m.push_function(fb.finish());
        run_function(&mut m.functions[0]);
        // After folding + propagation the ret reads a constant 20.
        match &m.functions[0].blocks[0].term {
            Term::Ret(Some(Operand::Const(c))) => assert_eq!(c.normalized(), Some(20)),
            other => panic!("expected constant return, got {other:?}"),
        }
    }

    #[test]
    fn preserves_division_by_zero() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let a = fb.bin(
            BinOp::SDiv,
            Type::I64,
            Operand::const_int(Type::I64, 1),
            Operand::const_int(Type::I64, 0),
        );
        fb.ret(Some(Operand::local(a)));
        m.push_function(fb.finish());
        run_function(&mut m.functions[0]);
        assert!(
            matches!(
                &m.functions[0].blocks[0].insts[0],
                Inst::Bin {
                    op: BinOp::SDiv,
                    ..
                }
            ),
            "div-by-zero must not be folded away"
        );
    }

    #[test]
    fn folds_constant_branch() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let t = fb.new_block();
        let e = fb.new_block();
        let c = fb.cmp(
            CmpPred::Sgt,
            Type::I64,
            Operand::const_int(Type::I64, 5),
            Operand::const_int(Type::I64, 3),
        );
        fb.branch(Operand::local(c), t, e);
        fb.switch_to(t);
        fb.ret(Some(Operand::const_int(Type::I64, 1)));
        fb.switch_to(e);
        fb.ret(Some(Operand::const_int(Type::I64, 2)));
        m.push_function(fb.finish());
        run_function(&mut m.functions[0]);
        assert!(matches!(m.functions[0].blocks[0].term, Term::Jump(b) if b.index() == 1));
    }

    #[test]
    fn copy_propagation_within_block() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.add_param(Type::I64);
        let a = fb.copy(Type::I64, Operand::local(p));
        let b = fb.copy(Type::I64, Operand::local(a));
        let r = fb.bin(BinOp::Add, Type::I64, Operand::local(b), Operand::local(b));
        fb.ret(Some(Operand::local(r)));
        m.push_function(fb.finish());
        run_function(&mut m.functions[0]);
        match &m.functions[0].blocks[0].insts[2] {
            Inst::Bin { lhs, rhs, .. } => {
                assert_eq!(
                    lhs.as_local(),
                    Some(p),
                    "uses chase copies back to the param"
                );
                assert_eq!(rhs.as_local(), Some(p));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn identity_simplification() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.add_param(Type::I64);
        let a = fb.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 0),
        );
        let b = fb.bin(
            BinOp::Mul,
            Type::I64,
            Operand::local(a),
            Operand::const_int(Type::I64, 1),
        );
        fb.ret(Some(Operand::local(b)));
        m.push_function(fb.finish());
        run_function(&mut m.functions[0]);
        let f = &m.functions[0];
        assert!(f.blocks[0]
            .insts
            .iter()
            .all(|i| matches!(i, Inst::Copy { .. })));
        assert!(matches!(f.blocks[0].term, Term::Ret(Some(Operand::Local(l))) if l == p));
    }

    #[test]
    fn facts_die_at_block_boundary() {
        // Loads from globals can't be folded; and a constant set in one
        // block isn't propagated into the next (block-local analysis).
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let x = fb.new_local(Type::I64);
        let nxt = fb.new_block();
        fb.copy_to(x, Operand::const_int(Type::I64, 7));
        fb.jump(nxt);
        fb.switch_to(nxt);
        let r = fb.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(x),
            Operand::const_int(Type::I64, 1),
        );
        fb.ret(Some(Operand::local(r)));
        m.push_function(fb.finish());
        run_function(&mut m.functions[0]);
        assert!(
            matches!(&m.functions[0].blocks[1].insts[0], Inst::Bin { .. }),
            "cross-block facts must not propagate"
        );
    }
}
