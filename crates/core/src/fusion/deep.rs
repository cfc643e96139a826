//! Deep fusion (paper §3.3.4): merging *innocuous* basic blocks from the
//! two constituents so the fused control/data flow cannot simply be
//! separated back.
//!
//! A block is innocuous when executing it on the *other* constituent's
//! path cannot affect the global memory state or trap: register-only
//! arithmetic (no integer division), casts, selects, address computations
//! and loads from directly-addressed globals qualify; stores, calls,
//! allocas and anything that can fault do not.

use super::merge::FusedInfo;
use crate::KhaosContext;
use khaos_ir::rewrite::{remove_blocks, retarget_edges};
use khaos_ir::{Block, BlockId, CmpPred, FuncId, Inst, LocalId, Module, Operand, Term, Type};
use std::collections::HashSet;
use std::ops::Range;

/// Merges up to `deep_fusion_max_pairs` innocuous-block pairs inside the
/// fused function described by `info`.
pub fn run(m: &mut Module, info: &FusedInfo, ctx: &mut KhaosContext) {
    merge_sides(
        m,
        info.fus,
        info.ctrl,
        &[(info.a_side.clone(), info.b_side.clone(), 0)],
        ctx,
    );
}

/// Deep-fuses innocuous blocks between side pairs of a fused function.
///
/// Each entry is `(side_x, side_y, x_ctrl)`: block-index ranges of two
/// constituents' bodies and the `ctrl` value that selects the first one.
/// Pair fusion passes a single `(a, b, 0)`; the N-way extension passes
/// `(side[2j], side[2j+1], 2j)` for each consecutive side pair. All dead
/// blocks are removed in one sweep at the end, so the ranges (which are
/// pre-removal indices) stay valid throughout.
pub(super) fn merge_sides(
    m: &mut Module,
    fus: FuncId,
    ctrl: LocalId,
    side_pairs: &[(Range<usize>, Range<usize>, i64)],
    ctx: &mut KhaosContext,
) {
    let f = m.function(fus);
    let mut pairs: Vec<(BlockId, BlockId, i64)> = Vec::new();
    for (ra, rb, a_ctrl) in side_pairs {
        let a_blocks = innocuous_blocks(f, ra);
        let b_blocks = innocuous_blocks(f, rb);
        ctx.fusion_stats.innocuous_blocks += a_blocks.len() + b_blocks.len();
        pairs.extend(
            a_blocks
                .into_iter()
                .zip(b_blocks)
                .take(ctx.options.deep_fusion_max_pairs)
                .map(|(x, y)| (x, y, *a_ctrl)),
        );
    }
    if pairs.is_empty() {
        return;
    }

    let f = m.function_mut(fus);
    let mut dead: Vec<BlockId> = Vec::new();
    for (alpha, beta, a_ctrl) in pairs {
        let Term::Jump(a_target) = f.block(alpha).term else {
            unreachable!("checked Jump")
        };
        let Term::Jump(b_target) = f.block(beta).term else {
            unreachable!("checked Jump")
        };
        // The merged block runs BOTH instruction lists, then branches on
        // ctrl back into the correct constituent.
        let mut insts = f.block(alpha).insts.clone();
        insts.extend(f.block(beta).insts.iter().cloned());
        let is_a = f.new_local(Type::I1);
        insts.push(Inst::Cmp {
            pred: CmpPred::Eq,
            ty: Type::I32,
            dst: is_a,
            lhs: Operand::local(ctrl),
            rhs: Operand::const_int(Type::I32, a_ctrl),
        });
        let merged = f.push_block(Block {
            insts,
            term: Term::Branch {
                cond: Operand::local(is_a),
                then_bb: a_target,
                else_bb: b_target,
            },
            pad: None,
        });
        retarget_edges(f, alpha, merged);
        retarget_edges(f, beta, merged);
        dead.push(alpha);
        dead.push(beta);
        ctx.fusion_stats.deep_fused_pairs += 1;
    }
    remove_blocks(f, &dead);
}

/// Finds innocuous blocks within `range` (excluding dispatch/adapters and
/// entries that merged pairs depend on), in ascending block order.
fn innocuous_blocks(f: &khaos_ir::Function, range: &Range<usize>) -> Vec<BlockId> {
    let mut out = Vec::new();
    for i in range.clone() {
        let b = BlockId::new(i);
        let block = f.block(b);
        if block.is_pad() || block.insts.is_empty() {
            continue;
        }
        let Term::Jump(t) = block.term else { continue };
        if t == b {
            continue; // self-loop
        }
        if block_is_innocuous(block) {
            out.push(b);
        }
    }
    out
}

fn block_is_innocuous(block: &Block) -> bool {
    // Locals known to hold directly-computed global addresses (in-block).
    let mut global_ptrs: HashSet<LocalId> = HashSet::new();
    for inst in &block.insts {
        match inst {
            Inst::Bin { op, .. } => {
                if op.can_trap() {
                    return false;
                }
            }
            Inst::Un { .. }
            | Inst::Cmp { .. }
            | Inst::Select { .. }
            | Inst::Copy { .. }
            | Inst::Cast { .. }
            | Inst::FuncAddr { .. } => {}
            Inst::GlobalAddr { dst, .. } => {
                global_ptrs.insert(*dst);
            }
            Inst::PtrAdd { dst, base, offset } => {
                // Constant offsets from a known global stay "known".
                if let (Some(bl), Some(_)) = (base.as_local(), offset.as_const()) {
                    if global_ptrs.contains(&bl) {
                        global_ptrs.insert(*dst);
                    }
                }
            }
            Inst::Load { addr, .. } => {
                // Loads only from in-block global addresses: guaranteed
                // mapped memory regardless of which path executes.
                match addr.as_local() {
                    Some(l) if global_ptrs.contains(&l) => {}
                    _ => return false,
                }
            }
            Inst::Store { .. } | Inst::Alloca { .. } | Inst::Call { .. } => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::{BinOp, Function};

    fn block_of(f: impl FnOnce(&mut FunctionBuilder)) -> Function {
        let mut fb = FunctionBuilder::new("t", Type::Void);
        let next = fb.new_block();
        f(&mut fb);
        fb.jump(next);
        fb.switch_to(next);
        fb.ret(None);
        fb.finish()
    }

    #[test]
    fn register_arithmetic_is_innocuous() {
        let f = block_of(|fb| {
            let a = fb.iconst(Type::I64, 1);
            let _ = fb.bin(
                BinOp::Add,
                Type::I64,
                Operand::local(a),
                Operand::const_int(Type::I64, 2),
            );
        });
        assert!(block_is_innocuous(&f.blocks[0]));
    }

    #[test]
    fn division_disqualifies() {
        let f = block_of(|fb| {
            let a = fb.iconst(Type::I64, 1);
            let _ = fb.bin(BinOp::SDiv, Type::I64, Operand::local(a), Operand::local(a));
        });
        assert!(!block_is_innocuous(&f.blocks[0]));
    }

    #[test]
    fn store_disqualifies() {
        let mut m = khaos_ir::Module::new("x");
        let g = m.push_global(khaos_ir::Global::zeroed("g", 8));
        let f = block_of(|fb| {
            let p = fb.globaladdr(g);
            fb.store(
                Type::I64,
                Operand::const_int(Type::I64, 1),
                Operand::local(p),
            );
        });
        assert!(!block_is_innocuous(&f.blocks[0]));
    }

    #[test]
    fn global_load_is_innocuous_but_unknown_load_is_not() {
        let mut m = khaos_ir::Module::new("x");
        let g = m.push_global(khaos_ir::Global::zeroed("g", 16));
        let ok = block_of(|fb| {
            let p = fb.globaladdr(g);
            let q = fb.ptradd(Operand::local(p), Operand::const_int(Type::I64, 8));
            let _ = fb.load(Type::I64, Operand::local(q));
        });
        assert!(block_is_innocuous(&ok.blocks[0]));

        let bad = block_of(|fb| {
            let p = fb.add_param(Type::Ptr);
            let _ = fb.load(Type::I64, Operand::local(p));
        });
        assert!(!block_is_innocuous(&bad.blocks[0]));
    }

    #[test]
    fn call_disqualifies() {
        let mut m = khaos_ir::Module::new("x");
        let e = m.declare_external(khaos_ir::ExtFunc {
            name: "print_i64".into(),
            params: vec![Type::I64],
            ret_ty: Type::Void,
            variadic: false,
        });
        let f = block_of(|fb| {
            fb.call_ext(e, Type::Void, vec![Operand::const_int(Type::I64, 1)]);
        });
        assert!(!block_is_innocuous(&f.blocks[0]));
    }
}
