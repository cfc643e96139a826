//! Indirect-call rewriting: the tagged-pointer decode sequence
//! (paper §3.3.3, Figure 4(c)).
//!
//! Every indirect call site in the module is split into a tag check:
//! untagged pointers are called as before; tagged pointers are stripped,
//! the `ctrl` bits are extracted and passed as the first argument to the
//! fused function. The positional parameter-compression layout guarantees
//! the original arguments land in the right slots.
//!
//! Two tag layouts share this rewrite (both live in the low 4 bits that
//! 16-byte function alignment frees up, paper §A.1):
//!
//! * **pair scheme** — bit 2 marks "fused", bit 3 is the one-bit `ctrl`
//!   (the paper's layout);
//! * **N-way scheme** — bit 1 marks "fused", bits 2–3 carry a two-bit
//!   `ctrl`, supporting up to four constituents (the §A.1 bit budget:
//!   bit 0 stays reserved for the pointer-to-virtual-function marker).

use super::merge::TAG_MASK;
use super::nway::{NWAY_CTRL_MASK, NWAY_CTRL_SHIFT, NWAY_FLAG, NWAY_MASK};
use crate::KhaosContext;
use khaos_ir::{
    BinOp, Block, BlockId, Callee, CastKind, CmpPred, FuncId, Inst, Module, Operand, Term, Type,
};

/// How tag bits are packed into a function pointer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TagScheme {
    /// All bits the scheme may set (stripped before the call).
    pub mask: i64,
    /// Bits whose presence means "points to a fused function".
    pub flag: i64,
    /// Right-shift that brings the `ctrl` field to bit 0.
    pub ctrl_shift: u32,
    /// Mask applied after the shift.
    pub ctrl_mask: i64,
}

/// The paper's pair layout: flag on bit 2, `ctrl` on bit 3.
pub const PAIR_SCHEME: TagScheme = TagScheme {
    mask: TAG_MASK,
    flag: TAG_MASK,
    ctrl_shift: 3,
    ctrl_mask: 1,
};

/// The N-way layout: flag on bit 1, `ctrl` on bits 2–3.
pub const NWAY_SCHEME: TagScheme = TagScheme {
    mask: NWAY_MASK,
    flag: NWAY_FLAG,
    ctrl_shift: NWAY_CTRL_SHIFT,
    ctrl_mask: NWAY_CTRL_MASK,
};

/// Rewrites every indirect call site in the module with the pair-fusion
/// decode. Returns the number of sites rewritten.
pub fn rewrite_indirect_sites(m: &mut Module, ctx: &mut KhaosContext) -> usize {
    rewrite_indirect_sites_with(m, ctx, PAIR_SCHEME)
}

/// Rewrites every indirect call site with an explicit tag scheme.
pub fn rewrite_indirect_sites_with(
    m: &mut Module,
    ctx: &mut KhaosContext,
    scheme: TagScheme,
) -> usize {
    let mut total = 0;
    for fi in 0..m.functions.len() {
        total += rewrite_in_function(m, FuncId::new(fi), scheme);
    }
    ctx.fusion_stats.indirect_sites_rewritten += total;
    total
}

fn rewrite_in_function(m: &mut Module, fid: FuncId, scheme: TagScheme) -> usize {
    // Collect sites up front: (block, inst index). Only blocks that exist
    // now — the split blocks we append contain the already-rewritten
    // calls and must not be revisited.
    let f = m.function(fid);
    let mut sites: Vec<(BlockId, usize)> = Vec::new();
    for (b, block) in f.iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            if matches!(
                inst,
                Inst::Call {
                    callee: Callee::Indirect(_),
                    ..
                }
            ) {
                sites.push((b, i));
            }
        }
    }
    // Split from the highest instruction index first so earlier indices in
    // the same block stay valid.
    sites.sort_by_key(|&(b, i)| std::cmp::Reverse((b, i)));
    let n = sites.len();
    for (b, i) in sites {
        split_site(m, fid, b, i, scheme);
    }
    n
}

fn split_site(m: &mut Module, fid: FuncId, b: BlockId, i: usize, scheme: TagScheme) {
    let f = m.function_mut(fid);
    let Inst::Call {
        dst,
        callee: Callee::Indirect(ptr),
        args,
    } = f.blocks[b.index()].insts[i].clone()
    else {
        panic!("split_site target is not an indirect call");
    };

    // Tail of the original block becomes the join block.
    let tail: Vec<Inst> = f.blocks[b.index()].insts[i + 1..].to_vec();
    let old_term = f.blocks[b.index()].term.clone();
    let join = f.push_block(Block {
        insts: tail,
        term: old_term,
        pad: None,
    });

    // Plain path: the original call, unchanged.
    let plain = f.push_block(Block {
        insts: vec![Inst::Call {
            dst,
            callee: Callee::Indirect(ptr),
            args: args.clone(),
        }],
        term: Term::Jump(join),
        pad: None,
    });

    // Tagged path: strip the tag, extract ctrl, call fus(ctrl, args...).
    let as_int = f.new_local(Type::I64);
    let shifted = f.new_local(Type::I64);
    let ctrl64 = f.new_local(Type::I64);
    let ctrl = f.new_local(Type::I32);
    let stripped = f.new_local(Type::I64);
    let base = f.new_local(Type::Ptr);
    let mut tagged_insts = vec![
        Inst::Bin {
            op: BinOp::LShr,
            ty: Type::I64,
            dst: shifted,
            lhs: Operand::local(as_int),
            rhs: Operand::const_int(Type::I64, scheme.ctrl_shift as i64),
        },
        Inst::Bin {
            op: BinOp::And,
            ty: Type::I64,
            dst: ctrl64,
            lhs: Operand::local(shifted),
            rhs: Operand::const_int(Type::I64, scheme.ctrl_mask),
        },
        Inst::Cast {
            kind: CastKind::Trunc,
            dst: ctrl,
            src: Operand::local(ctrl64),
            from: Type::I64,
            to: Type::I32,
        },
        Inst::Bin {
            op: BinOp::And,
            ty: Type::I64,
            dst: stripped,
            lhs: Operand::local(as_int),
            rhs: Operand::const_int(Type::I64, !scheme.mask),
        },
        Inst::Cast {
            kind: CastKind::IntToPtr,
            dst: base,
            src: Operand::local(stripped),
            from: Type::I64,
            to: Type::Ptr,
        },
    ];
    let mut fused_args = Vec::with_capacity(args.len() + 1);
    fused_args.push(Operand::local(ctrl));
    fused_args.extend(args.iter().copied());
    tagged_insts.push(Inst::Call {
        dst,
        callee: Callee::Indirect(Operand::local(base)),
        args: fused_args,
    });
    let tagged = f.push_block(Block {
        insts: tagged_insts,
        term: Term::Jump(join),
        pad: None,
    });

    // Head: compute the tag test and branch.
    let tag_bits = f.new_local(Type::I64);
    let is_plain = f.new_local(Type::I1);
    let head = &mut f.blocks[b.index()];
    head.insts.truncate(i);
    head.insts.push(Inst::Cast {
        kind: CastKind::PtrToInt,
        dst: as_int,
        src: ptr,
        from: Type::Ptr,
        to: Type::I64,
    });
    head.insts.push(Inst::Bin {
        op: BinOp::And,
        ty: Type::I64,
        dst: tag_bits,
        lhs: Operand::local(as_int),
        rhs: Operand::const_int(Type::I64, scheme.flag),
    });
    head.insts.push(Inst::Cmp {
        pred: CmpPred::Eq,
        ty: Type::I64,
        dst: is_plain,
        lhs: Operand::local(tag_bits),
        rhs: Operand::const_int(Type::I64, 0),
    });
    head.term = Term::Branch {
        cond: Operand::local(is_plain),
        then_bb: plain,
        else_bb: tagged,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KhaosContext;
    use khaos_ir::builder::FunctionBuilder;

    fn module_with_indirect_calls() -> Module {
        let mut m = Module::new("t");
        let mut callee = FunctionBuilder::new("f", Type::I64);
        let p = callee.add_param(Type::I64);
        callee.ret(Some(Operand::local(p)));
        let cid = m.push_function(callee.finish());

        let mut main = FunctionBuilder::new("main", Type::I64);
        let fp = main.funcaddr(cid);
        let r1 = main
            .call_indirect(
                Operand::local(fp),
                Type::I64,
                vec![Operand::const_int(Type::I64, 1)],
            )
            .unwrap();
        let r2 = main
            .call_indirect(Operand::local(fp), Type::I64, vec![Operand::local(r1)])
            .unwrap();
        main.ret(Some(Operand::local(r2)));
        m.push_function(main.finish());
        khaos_ir::verify::assert_valid(&m);
        m
    }

    #[test]
    fn rewrites_all_sites_once() {
        let mut m = module_with_indirect_calls();
        let before = khaos_vm::run_function(&m, "main", &[]).unwrap();

        let mut ctx = KhaosContext::new(1);
        let n = rewrite_indirect_sites(&mut m, &mut ctx);
        assert_eq!(n, 2);
        khaos_ir::verify::assert_valid(&m);
        let after = khaos_vm::run_function(&m, "main", &[]).unwrap();
        assert_eq!(
            before.exit_code, after.exit_code,
            "untagged pointers still work"
        );

        // Idempotence is NOT expected (plain paths contain indirect calls);
        // the driver only calls this once per module.
    }

    #[test]
    fn nway_scheme_preserves_untagged_calls() {
        let mut m = module_with_indirect_calls();
        let before = khaos_vm::run_function(&m, "main", &[]).unwrap();

        let mut ctx = KhaosContext::new(1);
        let n = rewrite_indirect_sites_with(&mut m, &mut ctx, NWAY_SCHEME);
        assert_eq!(n, 2);
        khaos_ir::verify::assert_valid(&m);
        let after = khaos_vm::run_function(&m, "main", &[]).unwrap();
        assert_eq!(before.exit_code, after.exit_code);
    }

    #[test]
    fn schemes_do_not_overlap_bit_zero() {
        // Bit 0 is reserved (clang's pointer-to-virtual-function marker,
        // paper §A.1) — neither scheme may touch it.
        assert_eq!(PAIR_SCHEME.mask & 1, 0);
        assert_eq!(NWAY_SCHEME.mask & 1, 0);
        // The flag bits must be inside the mask, and the ctrl field must
        // decode to within each scheme's arity budget.
        assert_eq!(PAIR_SCHEME.flag & !PAIR_SCHEME.mask, 0);
        assert_eq!(NWAY_SCHEME.flag & !NWAY_SCHEME.mask, 0);
        assert_eq!(PAIR_SCHEME.ctrl_mask, 1);
        assert_eq!(NWAY_SCHEME.ctrl_mask, 3);
    }
}
