//! CFG cleanups: unreachable-block removal, jump threading and linear
//! block merging.
//!
//! Each round drops unreachable blocks, threads empty forwarding blocks,
//! then merges blocks into their unique jump-successors in block order,
//! until a round changes nothing. A round that threaded merges once and
//! starts over. In a round that threaded nothing every block is
//! reachable, and a merge changes no other block's mergeability: the
//! merged block inherits its successor's edges, so every predecessor count
//! stays put. Nor can a merge leave the block threadable, which would need
//! both bodies empty, and then the block was threadable already. So the
//! scan keeps merging at the same block and then moves on, moving each
//! successor's body instead of copying it. At the end of the scan one more
//! round would only drop the emptied successors and the next would change
//! nothing: the pass drops them and stops.

use khaos_ir::rewrite::{remove_blocks, retarget_edges};
use khaos_ir::{Block, BlockId, Cfg, Function, Term};

/// Runs CFG simplification to a fixed point. Returns true if anything
/// changed.
pub fn run_function(f: &mut Function) -> bool {
    let mut changed = false;
    loop {
        // 1. Drop unreachable blocks.
        let mut cfg = Cfg::compute(f);
        let dead: Vec<BlockId> = f
            .iter_blocks()
            .map(|(b, _)| b)
            .filter(|b| !cfg.is_reachable(*b))
            .collect();
        if !dead.is_empty() {
            remove_blocks(f, &dead);
            changed = true;
        }

        // 2. Thread empty forwarding blocks (non-entry, no insts, plain
        //    jump, not a landing pad, does not jump to itself).
        let mut threaded = false;
        for b in 1..f.blocks.len() {
            let bid = BlockId::new(b);
            if let Some(t) = threadable(f, bid) {
                retarget_edges(f, bid, t);
                threaded = true;
            }
        }

        // 3. Merge a block into its unique jump-successor when that
        //    successor has exactly one predecessor (and is not a pad).
        if !dead.is_empty() || threaded {
            cfg = Cfg::compute(f);
        }
        let mut merged = Vec::new();
        'scan: for b in 0..f.blocks.len() {
            let bid = BlockId::new(b);
            if !cfg.is_reachable(bid) {
                continue;
            }
            while let Term::Jump(t) = f.block(bid).term {
                if t == bid || t == f.entry() || f.block(t).is_pad() || cfg.preds(t).len() != 1 {
                    break;
                }
                // Move t's body into b; t is unreachable from here on.
                let succ = std::mem::replace(f.block_mut(t), Block::with_term(Term::Unreachable));
                let this = f.block_mut(bid);
                this.insts.extend(succ.insts);
                this.term = succ.term;
                merged.push(t);
                if threaded {
                    break 'scan;
                }
            }
        }

        if !threaded {
            if !merged.is_empty() {
                remove_blocks(f, &merged);
                changed = true;
            }
            return changed;
        }
        changed = true;
    }
}

/// The target `b` forwards to when it is an empty, non-entry, non-pad
/// block ending in a jump to another non-pad block.
fn threadable(f: &Function, b: BlockId) -> Option<BlockId> {
    let block = f.block(b);
    if b == f.entry() || !block.insts.is_empty() || block.is_pad() {
        return None;
    }
    match block.term {
        Term::Jump(t) if t != b && !f.block(t).is_pad() => Some(t),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::{CmpPred, Module, Operand, Type};

    #[test]
    fn removes_unreachable() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let dead = fb.new_block();
        fb.ret(Some(Operand::const_int(Type::I64, 0)));
        fb.switch_to(dead);
        fb.ret(Some(Operand::const_int(Type::I64, 1)));
        m.push_function(fb.finish());
        assert!(run_function(&mut m.functions[0]));
        assert_eq!(m.functions[0].blocks.len(), 1);
    }

    #[test]
    fn threads_empty_jump_blocks() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.add_param(Type::I64);
        let hop1 = fb.new_block();
        let hop2 = fb.new_block();
        let end = fb.new_block();
        let c = fb.cmp(
            CmpPred::Sgt,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 0),
        );
        fb.branch(Operand::local(c), hop1, hop2);
        fb.switch_to(hop1);
        fb.jump(end);
        fb.switch_to(hop2);
        fb.jump(end);
        fb.switch_to(end);
        fb.ret(Some(Operand::local(p)));
        m.push_function(fb.finish());
        assert!(run_function(&mut m.functions[0]));
        // Both hops threaded away and removed as unreachable.
        assert_eq!(m.functions[0].blocks.len(), 2);
        khaos_ir::verify::assert_valid(&m);
    }

    #[test]
    fn merges_linear_chain() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let b1 = fb.new_block();
        let b2 = fb.new_block();
        let x = fb.iconst(Type::I64, 1);
        fb.jump(b1);
        fb.switch_to(b1);
        let y = fb.bin(
            khaos_ir::BinOp::Add,
            Type::I64,
            Operand::local(x),
            Operand::const_int(Type::I64, 1),
        );
        fb.jump(b2);
        fb.switch_to(b2);
        fb.ret(Some(Operand::local(y)));
        m.push_function(fb.finish());
        assert!(run_function(&mut m.functions[0]));
        assert_eq!(
            m.functions[0].blocks.len(),
            1,
            "whole chain merges into entry"
        );
        khaos_ir::verify::assert_valid(&m);
    }

    #[test]
    fn keeps_loops_intact() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.add_param(Type::I64);
        let h = fb.new_block();
        let exit = fb.new_block();
        fb.jump(h);
        fb.switch_to(h);
        let c = fb.cmp(
            CmpPred::Sgt,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 0),
        );
        fb.branch(Operand::local(c), h, exit);
        fb.switch_to(exit);
        fb.ret(Some(Operand::local(p)));
        m.push_function(fb.finish());
        run_function(&mut m.functions[0]);
        khaos_ir::verify::assert_valid(&m);
        // The loop header must still exist (self edge prevents merging).
        let f = &m.functions[0];
        assert!(f
            .blocks
            .iter()
            .any(|b| matches!(b.term, Term::Branch { .. })));
    }
}
