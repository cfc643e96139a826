//! Control-flow flattening (O-LLVM's `Fla`).
//!
//! Selected functions are rewritten into dispatch form: every block ends
//! by storing an *encoded* successor id into a state register and jumping
//! back to a central `switch`. The encoding (multiplication by a random
//! odd key mod 2^31) hides the case relationship, as the paper describes.
//!
//! Like O-LLVM, functions containing exception control flow (invokes or
//! landing pads) are skipped — the limitation the paper notes in §5.

use crate::OllvmContext;
use khaos_ir::{Block, BlockId, Function, Inst, Module, Operand, Term, Type};
use rand::Rng;

/// Applies flattening to each function of `m` with probability `ratio`.
pub fn flattening(m: &mut Module, ctx: &mut OllvmContext, ratio: f64) {
    for f in &mut m.functions {
        let has_eh = f
            .blocks
            .iter()
            .any(|b| b.is_pad() || matches!(b.term, Term::Invoke { .. }));
        if has_eh || f.blocks.len() < 3 {
            continue;
        }
        if !ctx.rng.gen_bool(ratio) {
            continue;
        }
        flatten_function(f, ctx);
    }
}

fn flatten_function(f: &mut Function, ctx: &mut OllvmContext) {
    let n = f.blocks.len();
    let key: i64 = (ctx.rng.gen_range(0..1i64 << 30) << 1) | 1; // odd
    let enc = |i: usize| -> i64 { ((i as i64 + 1).wrapping_mul(key)) & 0x7fff_ffff };

    let state = f.new_local(Type::I32);

    // Ids after the rewrite:
    //   0 .. n-1   original blocks (code kept, terminators rewritten)
    //   n          dispatch
    //   n+1        unreachable default
    //   n+2        new entry (old entry body moved to slot `n+2`? no —
    // The entry block must remain BlockId(0), so we move the original
    // entry body into a fresh block at the end and turn block 0 into the
    // state initialisation.
    let dispatch = BlockId::new(n);
    let default = BlockId::new(n + 1);
    let moved_entry = BlockId::new(n + 2);

    // Rewrite every original terminator into state updates + jump to the
    // dispatch block.
    for bi in 0..n {
        let term = f.blocks[bi].term.clone();
        let new_term = match term {
            Term::Jump(t) => {
                f.blocks[bi].insts.push(Inst::Copy {
                    ty: Type::I32,
                    dst: state,
                    src: Operand::const_int(Type::I32, enc(t.index())),
                });
                Term::Jump(dispatch)
            }
            Term::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                f.blocks[bi].insts.push(Inst::Select {
                    ty: Type::I32,
                    dst: state,
                    cond,
                    on_true: Operand::const_int(Type::I32, enc(then_bb.index())),
                    on_false: Operand::const_int(Type::I32, enc(else_bb.index())),
                });
                Term::Jump(dispatch)
            }
            Term::Switch {
                ty,
                value,
                cases,
                default: d,
            } => {
                // Encode through a small chain of selects.
                f.blocks[bi].insts.push(Inst::Copy {
                    ty: Type::I32,
                    dst: state,
                    src: Operand::const_int(Type::I32, enc(d.index())),
                });
                for (cv, target) in cases {
                    let c = f.new_local(Type::I1);
                    f.blocks[bi].insts.push(Inst::Cmp {
                        pred: khaos_ir::CmpPred::Eq,
                        ty,
                        dst: c,
                        lhs: value,
                        rhs: Operand::Const(khaos_ir::Const::int(ty, cv)),
                    });
                    f.blocks[bi].insts.push(Inst::Select {
                        ty: Type::I32,
                        dst: state,
                        cond: Operand::local(c),
                        on_true: Operand::const_int(Type::I32, enc(target.index())),
                        on_false: Operand::local(state),
                    });
                }
                Term::Jump(dispatch)
            }
            t @ (Term::Ret(_) | Term::Unreachable) => t,
            Term::Invoke { .. } => unreachable!("EH functions are skipped"),
        };
        f.blocks[bi].term = new_term;
    }

    // Dispatch switch over encoded states.
    let cases: Vec<(i64, BlockId)> = (0..n)
        .map(|i| (enc(i), if i == 0 { moved_entry } else { BlockId::new(i) }))
        .collect();
    f.blocks.push(Block {
        insts: Vec::new(),
        term: Term::Switch {
            ty: Type::I32,
            value: Operand::local(state),
            cases,
            default,
        },
        pad: None,
    });
    debug_assert_eq!(f.blocks.len() - 1, dispatch.index());
    f.blocks.push(Block::with_term(Term::Unreachable));
    debug_assert_eq!(f.blocks.len() - 1, default.index());

    // Move the original entry body to the end; block 0 becomes the
    // initialiser that enters the dispatch loop.
    let entry_body = std::mem::replace(
        &mut f.blocks[0],
        Block {
            insts: vec![Inst::Copy {
                ty: Type::I32,
                dst: state,
                src: Operand::const_int(Type::I32, enc(0)),
            }],
            term: Term::Jump(dispatch),
            pad: None,
        },
    );
    f.blocks.push(entry_body);
    debug_assert_eq!(f.blocks.len() - 1, moved_entry.index());
}

/// True if `f` is in flattened (dispatch) form — used by tests and stats.
pub fn looks_flattened(f: &Function) -> bool {
    f.blocks.iter().any(|b| {
        matches!(&b.term, Term::Switch { cases, .. } if cases.len() >= 3) && b.insts.is_empty()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::{BinOp, CmpPred};
    use khaos_vm::run_function as vm_run;

    fn loopy() -> Module {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.add_param(Type::I64);
        let i = fb.new_local(Type::I64);
        let acc = fb.new_local(Type::I64);
        let h = fb.new_block();
        let body = fb.new_block();
        let odd = fb.new_block();
        let even = fb.new_block();
        let next = fb.new_block();
        let exit = fb.new_block();
        fb.copy_to(i, Operand::const_int(Type::I64, 0));
        fb.copy_to(acc, Operand::const_int(Type::I64, 0));
        fb.jump(h);
        fb.switch_to(h);
        let c = fb.cmp(
            CmpPred::Slt,
            Type::I64,
            Operand::local(i),
            Operand::local(p),
        );
        fb.branch(Operand::local(c), body, exit);
        fb.switch_to(body);
        let bit = fb.bin(
            BinOp::And,
            Type::I64,
            Operand::local(i),
            Operand::const_int(Type::I64, 1),
        );
        let isodd = fb.cmp(
            CmpPred::Eq,
            Type::I64,
            Operand::local(bit),
            Operand::const_int(Type::I64, 1),
        );
        fb.branch(Operand::local(isodd), odd, even);
        fb.switch_to(odd);
        let a1 = fb.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(acc),
            Operand::local(i),
        );
        fb.copy_to(acc, Operand::local(a1));
        fb.jump(next);
        fb.switch_to(even);
        let a2 = fb.bin(
            BinOp::Sub,
            Type::I64,
            Operand::local(acc),
            Operand::local(i),
        );
        fb.copy_to(acc, Operand::local(a2));
        fb.jump(next);
        fb.switch_to(next);
        let ni = fb.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(i),
            Operand::const_int(Type::I64, 1),
        );
        fb.copy_to(i, Operand::local(ni));
        fb.jump(h);
        fb.switch_to(exit);
        fb.ret(Some(Operand::local(acc)));
        m.push_function(fb.finish());
        m
    }

    #[test]
    fn flattening_preserves_semantics() {
        let base = loopy();
        for seed in 0..5 {
            let mut m = base.clone();
            let mut ctx = OllvmContext::new(seed);
            flattening(&mut m, &mut ctx, 1.0);
            khaos_ir::verify::assert_valid(&m);
            assert!(looks_flattened(&m.functions[0]), "seed {seed}");
            for arg in [0i64, 1, 9, 20] {
                let want = vm_run(&base, "main", &[khaos_vm::Value::Int(arg)]).unwrap();
                let got = vm_run(&m, "main", &[khaos_vm::Value::Int(arg)]).unwrap();
                assert_eq!(want.exit_code, got.exit_code, "seed {seed} arg {arg}");
            }
        }
    }

    #[test]
    fn switch_terminators_survive_flattening() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.add_param(Type::I64);
        let a = fb.new_block();
        let b = fb.new_block();
        let d = fb.new_block();
        fb.switch(Type::I64, Operand::local(p), vec![(0, a), (5, b)], d);
        fb.switch_to(a);
        fb.ret(Some(Operand::const_int(Type::I64, 10)));
        fb.switch_to(b);
        fb.ret(Some(Operand::const_int(Type::I64, 20)));
        fb.switch_to(d);
        fb.ret(Some(Operand::const_int(Type::I64, 30)));
        m.push_function(fb.finish());

        let base = m.clone();
        let mut ctx = OllvmContext::new(7);
        flattening(&mut m, &mut ctx, 1.0);
        khaos_ir::verify::assert_valid(&m);
        for arg in [0i64, 5, 99] {
            assert_eq!(
                vm_run(&base, "main", &[khaos_vm::Value::Int(arg)])
                    .unwrap()
                    .exit_code,
                vm_run(&m, "main", &[khaos_vm::Value::Int(arg)])
                    .unwrap()
                    .exit_code,
            );
        }
    }

    #[test]
    fn eh_functions_skipped() {
        let mut m = Module::new("t");
        let te = m.declare_external(khaos_ir::ExtFunc {
            name: "throw_exc".into(),
            params: vec![Type::I64],
            ret_ty: Type::Void,
            variadic: false,
        });
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let normal = fb.new_block();
        let pad = fb.new_pad_block(None);
        let extra = fb.new_block();
        fb.invoke(
            khaos_ir::Callee::Ext(te),
            Type::Void,
            vec![Operand::const_int(Type::I64, 1)],
            normal,
            pad,
        );
        fb.switch_to(normal);
        fb.jump(extra);
        fb.switch_to(extra);
        fb.ret(Some(Operand::const_int(Type::I64, 0)));
        fb.switch_to(pad);
        fb.ret(Some(Operand::const_int(Type::I64, 1)));
        m.push_function(fb.finish());
        let before = m.clone();
        let mut ctx = OllvmContext::new(8);
        flattening(&mut m, &mut ctx, 1.0);
        assert_eq!(m, before, "EH function must be skipped (O-LLVM limitation)");
    }

    #[test]
    fn ratio_zero_is_identity() {
        let base = loopy();
        let mut m = base.clone();
        let mut ctx = OllvmContext::new(9);
        flattening(&mut m, &mut ctx, 0.0);
        assert_eq!(m, base);
    }
}
