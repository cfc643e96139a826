//! Bogus control flow (O-LLVM's `Bog`).
//!
//! Each selected block is guarded by an opaque predicate
//! `x * (x + 1) % 2 == 0` (always true) whose `x` is loaded from a global,
//! so constant propagation cannot remove it. The false arm jumps to a
//! mutated clone of the block — dead code that changes every CFG feature
//! a differ extracts.

use crate::OllvmContext;
use khaos_ir::{
    BinOp, Block, BlockId, CmpPred, Const, GInit, Global, Inst, Module, Operand, Term, Type,
};
use rand::Rng;

/// Applies bogus control flow to every function of `m`.
pub fn bogus_control_flow(m: &mut Module, ctx: &mut OllvmContext, ratio: f64) {
    // One opaque-state global for the whole module.
    let opaque = m.push_global(Global {
        name: format!("__opq_state_{}", m.globals.len()),
        init: vec![GInit::Int {
            value: ctx.rng.gen_range(1..1000),
            ty: Type::I64,
        }],
        align: 8,
        exported: false,
    });

    for fi in 0..m.functions.len() {
        let f = &mut m.functions[fi];
        let original_blocks = f.blocks.len();
        // The opaque value is computed once per function (O-LLVM reuses
        // its opaque predicates); each guarded block then costs a single
        // conditional branch at run time.
        let mut opaque_cond: Option<khaos_ir::LocalId> = None;
        for bi in 0..original_blocks {
            let bid = BlockId::new(bi);
            if f.block(bid).is_pad() || !ctx.rng.gen_bool(ratio) {
                continue;
            }
            // Move the real body out.
            let body = std::mem::replace(f.block_mut(bid), Block::with_term(Term::Unreachable));
            let pad = body.pad;
            let real = f.push_block(Block {
                insts: body.insts.clone(),
                term: body.term.clone(),
                pad: None,
            });

            // Junk clone: perturb constants and swap add/sub, then fall
            // into the real block (never executed).
            let mut junk_insts = body.insts.clone();
            for inst in &mut junk_insts {
                if let Inst::Bin { op, .. } = inst {
                    *op = match *op {
                        BinOp::Add => BinOp::Sub,
                        BinOp::Sub => BinOp::Add,
                        other => other,
                    };
                }
                inst.for_each_use_mut(|o| {
                    if let Operand::Const(Const::Int { value, ty }) = o {
                        if *ty != Type::I1 {
                            *o = Operand::Const(Const::int(*ty, value.wrapping_add(1)));
                        }
                    }
                });
            }
            // Anchor the junk with a (never executed) store to the opaque
            // global: memory side effects keep dead-code elimination from
            // dissolving the clone, mirroring how O-LLVM's altered blocks
            // survive in real binaries.
            let jga = f.new_local(Type::Ptr);
            junk_insts.push(Inst::GlobalAddr {
                dst: jga,
                global: opaque,
            });
            junk_insts.push(Inst::Store {
                ty: Type::I64,
                addr: Operand::local(jga),
                value: Operand::const_int(Type::I64, ctx.rng.gen_range(1..1 << 20)),
            });
            let junk = f.push_block(Block {
                insts: junk_insts,
                term: Term::Jump(real),
                pad: None,
            });

            // Guard: x = load opaque; x*(x+1) % 2 == 0  (always true).
            // Computed once per function, in the entry block.
            let cond = match opaque_cond {
                Some(c) => c,
                None => {
                    let x = f.new_local(Type::I64);
                    let ga = f.new_local(Type::Ptr);
                    let x1 = f.new_local(Type::I64);
                    let prod = f.new_local(Type::I64);
                    let rem = f.new_local(Type::I64);
                    let cond = f.new_local(Type::I1);
                    let pred_insts = vec![
                        Inst::GlobalAddr {
                            dst: ga,
                            global: opaque,
                        },
                        Inst::Load {
                            ty: Type::I64,
                            dst: x,
                            addr: Operand::local(ga),
                        },
                        Inst::Bin {
                            op: BinOp::Add,
                            ty: Type::I64,
                            dst: x1,
                            lhs: Operand::local(x),
                            rhs: Operand::const_int(Type::I64, 1),
                        },
                        Inst::Bin {
                            op: BinOp::Mul,
                            ty: Type::I64,
                            dst: prod,
                            lhs: Operand::local(x),
                            rhs: Operand::local(x1),
                        },
                        Inst::Bin {
                            op: BinOp::SRem,
                            ty: Type::I64,
                            dst: rem,
                            lhs: Operand::local(prod),
                            rhs: Operand::const_int(Type::I64, 2),
                        },
                        Inst::Cmp {
                            pred: CmpPred::Eq,
                            ty: Type::I64,
                            dst: cond,
                            lhs: Operand::local(rem),
                            rhs: Operand::const_int(Type::I64, 0),
                        },
                    ];
                    // Entry may itself be the block being guarded (bi==0):
                    // when so the predicate lands in the guard block below;
                    // otherwise prepend to the entry block.
                    if bi == 0 {
                        let guard = f.block_mut(bid);
                        guard.insts = pred_insts.clone();
                    } else {
                        let entry = f.block_mut(BlockId::new(0));
                        let old = std::mem::take(&mut entry.insts);
                        entry.insts = pred_insts.iter().cloned().chain(old).collect();
                    }
                    opaque_cond = Some(cond);
                    cond
                }
            };
            let guard = f.block_mut(bid);
            guard.pad = pad;
            if bi != 0 {
                // Non-entry guards are empty: body moved to `real`, the
                // opaque condition already lives in the entry block.
                guard.insts = Vec::new();
            }
            guard.term = Term::Branch {
                cond: Operand::local(cond),
                then_bb: real,
                else_bb: junk,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_vm::run_function as vm_run;

    fn sample() -> Module {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.add_param(Type::I64);
        let t = fb.new_block();
        let e = fb.new_block();
        let c = fb.cmp(
            CmpPred::Sgt,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 0),
        );
        fb.branch(Operand::local(c), t, e);
        fb.switch_to(t);
        let a = fb.bin(
            BinOp::Mul,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 3),
        );
        fb.ret(Some(Operand::local(a)));
        fb.switch_to(e);
        fb.ret(Some(Operand::const_int(Type::I64, -1)));
        m.push_function(fb.finish());
        m
    }

    #[test]
    fn behaviour_preserved_at_full_ratio() {
        let base = sample();
        for seed in 0..5 {
            let mut m = base.clone();
            let mut ctx = OllvmContext::new(seed);
            bogus_control_flow(&mut m, &mut ctx, 1.0);
            khaos_ir::verify::assert_valid(&m);
            for arg in [-2i64, 0, 7] {
                let want = vm_run(&base, "main", &[khaos_vm::Value::Int(arg)])
                    .unwrap()
                    .exit_code;
                let got = vm_run(&m, "main", &[khaos_vm::Value::Int(arg)])
                    .unwrap()
                    .exit_code;
                assert_eq!(want, got, "seed {seed} arg {arg}");
            }
        }
    }

    #[test]
    fn blocks_multiply() {
        let base = sample();
        let mut m = base.clone();
        let mut ctx = OllvmContext::new(3);
        bogus_control_flow(&mut m, &mut ctx, 1.0);
        let fb = &base.functions[0];
        let fm = &m.functions[0];
        assert!(
            fm.blocks.len() >= fb.blocks.len() * 2,
            "each guarded block adds a real and a junk clone"
        );
    }

    #[test]
    fn opaque_predicate_survives_o2() {
        // The junk must not be removable by our optimizer at O2 — the
        // paper chose O2 as baseline because O3 broke Sub.
        let mut m = sample();
        let mut ctx = OllvmContext::new(4);
        bogus_control_flow(&mut m, &mut ctx, 1.0);
        let guarded = 3; // sample() has three blocks, all guarded
        khaos_opt::optimize(&mut m, &khaos_opt::OptOptions::baseline());
        let after_blocks: usize = m.functions[0].blocks.len();
        assert!(
            after_blocks >= 3 * guarded,
            "guard+real+junk triples survive O2 (got {after_blocks})"
        );
        // And the program still works.
        assert_eq!(
            vm_run(&m, "main", &[khaos_vm::Value::Int(4)])
                .unwrap()
                .exit_code,
            12
        );
    }
}
