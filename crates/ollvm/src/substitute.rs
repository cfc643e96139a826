//! Instruction substitution (O-LLVM's `Sub`).
//!
//! Each integer arithmetic/logic instruction is, with probability
//! `ratio`, replaced by an equivalent multi-instruction sequence chosen
//! at random. All identities hold for two's-complement wrapping
//! arithmetic at any width.

use crate::OllvmContext;
use khaos_ir::{BinOp, Function, Inst, LocalId, Module, Operand, Type, UnOp};
use rand::Rng;

/// Applies substitution to every function of `m`.
pub fn substitution(m: &mut Module, ctx: &mut OllvmContext, ratio: f64) {
    for f in &mut m.functions {
        run_function(f, ctx, ratio);
    }
}

fn run_function(f: &mut Function, ctx: &mut OllvmContext, ratio: f64) {
    for bi in 0..f.blocks.len() {
        let old = std::mem::take(&mut f.blocks[bi].insts);
        let mut out = Vec::with_capacity(old.len());
        for inst in old {
            match &inst {
                Inst::Bin {
                    op,
                    ty,
                    dst,
                    lhs,
                    rhs,
                } if ty.is_int() && *ty != Type::I1 && ctx.rng.gen_bool(ratio) => {
                    if !substitute_one(&mut f.locals, &mut out, *op, *ty, *dst, *lhs, *rhs, ctx) {
                        out.push(inst);
                    }
                }
                _ => out.push(inst),
            }
        }
        f.blocks[bi].insts = out;
    }
}

fn new_local(locals: &mut Vec<Type>, ty: Type) -> LocalId {
    let id = LocalId::new(locals.len());
    locals.push(ty);
    id
}

/// Emits a substituted sequence; returns false when no strategy applies
/// (the caller keeps the original instruction).
#[allow(clippy::too_many_arguments)]
fn substitute_one(
    locals: &mut Vec<Type>,
    out: &mut Vec<Inst>,
    op: BinOp,
    ty: Type,
    dst: LocalId,
    lhs: Operand,
    rhs: Operand,
    ctx: &mut OllvmContext,
) -> bool {
    let l = |locals: &mut Vec<Type>| new_local(locals, ty);
    match op {
        BinOp::Add => match ctx.rng.gen_range(0..3u8) {
            0 => {
                // a + b == a - (0 - b)
                let t = l(locals);
                out.push(Inst::Bin {
                    op: BinOp::Sub,
                    ty,
                    dst: t,
                    lhs: Operand::zero(ty),
                    rhs,
                });
                out.push(Inst::Bin {
                    op: BinOp::Sub,
                    ty,
                    dst,
                    lhs,
                    rhs: Operand::local(t),
                });
                true
            }
            1 => {
                // a + b == (a ^ b) + 2*(a & b)
                let x = l(locals);
                let a = l(locals);
                let a2 = l(locals);
                out.push(Inst::Bin {
                    op: BinOp::Xor,
                    ty,
                    dst: x,
                    lhs,
                    rhs,
                });
                out.push(Inst::Bin {
                    op: BinOp::And,
                    ty,
                    dst: a,
                    lhs,
                    rhs,
                });
                out.push(Inst::Bin {
                    op: BinOp::Shl,
                    ty,
                    dst: a2,
                    lhs: Operand::local(a),
                    rhs: Operand::Const(khaos_ir::Const::int(ty, 1)),
                });
                out.push(Inst::Bin {
                    op: BinOp::Add,
                    ty,
                    dst,
                    lhs: Operand::local(x),
                    rhs: Operand::local(a2),
                });
                true
            }
            _ => {
                // a + b == -(-a - b)
                let na = l(locals);
                let s = l(locals);
                out.push(Inst::Un {
                    op: UnOp::Neg,
                    ty,
                    dst: na,
                    src: lhs,
                });
                out.push(Inst::Bin {
                    op: BinOp::Sub,
                    ty,
                    dst: s,
                    lhs: Operand::local(na),
                    rhs,
                });
                out.push(Inst::Un {
                    op: UnOp::Neg,
                    ty,
                    dst,
                    src: Operand::local(s),
                });
                true
            }
        },
        BinOp::Sub => {
            // a - b == a + (0 - b)
            let t = l(locals);
            out.push(Inst::Bin {
                op: BinOp::Sub,
                ty,
                dst: t,
                lhs: Operand::zero(ty),
                rhs,
            });
            out.push(Inst::Bin {
                op: BinOp::Add,
                ty,
                dst,
                lhs,
                rhs: Operand::local(t),
            });
            true
        }
        BinOp::Xor => {
            // a ^ b == (a | b) & ~(a & b)
            let o = l(locals);
            let a = l(locals);
            let na = l(locals);
            out.push(Inst::Bin {
                op: BinOp::Or,
                ty,
                dst: o,
                lhs,
                rhs,
            });
            out.push(Inst::Bin {
                op: BinOp::And,
                ty,
                dst: a,
                lhs,
                rhs,
            });
            out.push(Inst::Un {
                op: UnOp::Not,
                ty,
                dst: na,
                src: Operand::local(a),
            });
            out.push(Inst::Bin {
                op: BinOp::And,
                ty,
                dst,
                lhs: Operand::local(o),
                rhs: Operand::local(na),
            });
            true
        }
        BinOp::And => {
            // a & b == (a | b) ^ (a ^ b)
            let o = l(locals);
            let x = l(locals);
            out.push(Inst::Bin {
                op: BinOp::Or,
                ty,
                dst: o,
                lhs,
                rhs,
            });
            out.push(Inst::Bin {
                op: BinOp::Xor,
                ty,
                dst: x,
                lhs,
                rhs,
            });
            out.push(Inst::Bin {
                op: BinOp::Xor,
                ty,
                dst,
                lhs: Operand::local(o),
                rhs: Operand::local(x),
            });
            true
        }
        BinOp::Or => {
            // a | b == (a & b) ^ (a ^ b)
            let a = l(locals);
            let x = l(locals);
            out.push(Inst::Bin {
                op: BinOp::And,
                ty,
                dst: a,
                lhs,
                rhs,
            });
            out.push(Inst::Bin {
                op: BinOp::Xor,
                ty,
                dst: x,
                lhs,
                rhs,
            });
            out.push(Inst::Bin {
                op: BinOp::Xor,
                ty,
                dst,
                lhs: Operand::local(a),
                rhs: Operand::local(x),
            });
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_vm::run_function as vm_run;

    fn arith_module() -> Module {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let mut acc = fb.iconst(Type::I64, 1);
        for (op, k) in [
            (BinOp::Add, 12345),
            (BinOp::Sub, 777),
            (BinOp::Xor, 0x5aa5),
            (BinOp::And, 0xff0f),
            (BinOp::Or, 0x1010),
            (BinOp::Add, -99),
        ] {
            acc = fb.bin(
                op,
                Type::I64,
                Operand::local(acc),
                Operand::const_int(Type::I64, k),
            );
        }
        fb.ret(Some(Operand::local(acc)));
        m.push_function(fb.finish());
        m
    }

    #[test]
    fn substitution_preserves_semantics() {
        let base = arith_module();
        let expected = vm_run(&base, "main", &[]).unwrap().exit_code;
        for seed in 0..10 {
            let mut m = base.clone();
            let mut ctx = OllvmContext::new(seed);
            substitution(&mut m, &mut ctx, 1.0);
            khaos_ir::verify::assert_valid(&m);
            assert_eq!(
                vm_run(&m, "main", &[]).unwrap().exit_code,
                expected,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn full_ratio_grows_code() {
        let base = arith_module();
        let mut m = base.clone();
        let mut ctx = OllvmContext::new(1);
        substitution(&mut m, &mut ctx, 1.0);
        assert!(
            m.inst_count() > base.inst_count(),
            "substitution expands instructions"
        );
    }

    #[test]
    fn zero_ratio_is_identity() {
        let base = arith_module();
        let mut m = base.clone();
        let mut ctx = OllvmContext::new(1);
        substitution(&mut m, &mut ctx, 0.0);
        assert_eq!(m, base);
    }

    #[test]
    fn float_and_bool_ops_untouched() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::F64);
        let a = fb.bin(
            BinOp::FAdd,
            Type::F64,
            Operand::const_float(Type::F64, 1.5),
            Operand::const_float(Type::F64, 2.5),
        );
        fb.ret(Some(Operand::local(a)));
        m.push_function(fb.finish());
        let before = m.clone();
        let mut ctx = OllvmContext::new(9);
        substitution(&mut m, &mut ctx, 1.0);
        assert_eq!(m, before, "float ops are not substituted");
    }
}
