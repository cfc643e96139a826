//! Liveness-based dead code elimination for pure instructions.
//!
//! Each round solves liveness once and, walking every block backwards
//! from its live-out set, removes the pure instructions whose results are
//! dead. DCE never touches a terminator, so one CFG serves every round.
//! A removed definition had no use before the next definition of its
//! local, so removing it never exposes a later use: when a round's
//! removals leave every block's upward-exposed (`gen`) set unchanged,
//! liveness cannot change and the next round would remove nothing. The
//! loop stops there instead of solving again to see an empty round.

use khaos_ir::analysis::liveness::LocalSet;
use khaos_ir::{Block, BlockId, Cfg, Function, Liveness};

/// Removes pure instructions whose results are dead. Returns the number of
/// removed instructions.
pub fn run_function(f: &mut Function) -> usize {
    let cfg = Cfg::compute(f);
    let nl = f.locals.len();
    let mut live = LocalSet::new(nl);
    let (mut gen, mut def) = (vec![0; nl.div_ceil(64)], vec![0; nl.div_ceil(64)]);
    let mut keep = Vec::new();
    let mut removed = 0;
    loop {
        let lv = Liveness::compute(f, &cfg);
        let mut gen_changed = false;
        for (b, block) in f.blocks.iter_mut().enumerate() {
            let bid = BlockId::new(b);
            live.copy_from(lv.live_out(bid));
            let dropped = sweep_block(block, &mut live, &mut keep);
            if dropped > 0 {
                removed += dropped;
                if !gen_changed {
                    Liveness::block_sets_into(block, &mut gen, &mut def);
                    gen_changed = gen != lv.gen_set(bid).words();
                }
            }
        }
        if !gen_changed {
            return removed;
        }
    }
}

/// Removes the dead pure instructions of `block`, walking backwards from
/// `live` (its live-out set, consumed). Returns the number removed.
fn sweep_block(block: &mut Block, live: &mut LocalSet, keep: &mut Vec<bool>) -> usize {
    block.term.for_each_use(|o| {
        if let Some(l) = o.as_local() {
            live.insert(l);
        }
    });
    keep.clear();
    keep.resize(block.insts.len(), true);
    let mut dropped = 0;
    for (i, inst) in block.insts.iter().enumerate().rev() {
        if let Some(d) = inst.def() {
            if !live.contains(d) && inst.is_pure() {
                keep[i] = false;
                dropped += 1;
                continue;
            }
            live.remove(d);
        }
        inst.for_each_use(|o| {
            if let Some(l) = o.as_local() {
                live.insert(l);
            }
        });
    }
    if dropped > 0 {
        let mut it = keep.iter();
        block
            .insts
            .retain(|_| *it.next().expect("keep mask aligned"));
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::{BinOp, Inst, Module, Operand, Type};

    #[test]
    fn removes_unused_chain() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.add_param(Type::I64);
        let a = fb.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 1),
        );
        let _b = fb.bin(
            BinOp::Mul,
            Type::I64,
            Operand::local(a),
            Operand::const_int(Type::I64, 2),
        );
        fb.ret(Some(Operand::local(p)));
        m.push_function(fb.finish());
        let removed = run_function(&mut m.functions[0]);
        assert_eq!(removed, 2, "whole dead chain removed");
        assert!(m.functions[0].blocks[0].insts.is_empty());
    }

    #[test]
    fn keeps_impure_instructions() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.alloca(8); // impure (frame effect), result unused below
        fb.store(
            Type::I64,
            Operand::const_int(Type::I64, 1),
            Operand::local(p),
        );
        fb.ret(Some(Operand::const_int(Type::I64, 0)));
        m.push_function(fb.finish());
        let removed = run_function(&mut m.functions[0]);
        assert_eq!(removed, 0);
        assert_eq!(m.functions[0].blocks[0].insts.len(), 2);
    }

    #[test]
    fn keeps_dead_looking_but_live_across_blocks() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.add_param(Type::I64);
        let x = fb.new_local(Type::I64);
        let nxt = fb.new_block();
        fb.copy_to(x, Operand::local(p)); // only used in the next block
        fb.jump(nxt);
        fb.switch_to(nxt);
        fb.ret(Some(Operand::local(x)));
        m.push_function(fb.finish());
        assert_eq!(run_function(&mut m.functions[0]), 0);
    }

    #[test]
    fn removes_dead_store_to_register_but_not_memory() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let x = fb.new_local(Type::I64);
        fb.copy_to(x, Operand::const_int(Type::I64, 1)); // overwritten below
        fb.copy_to(x, Operand::const_int(Type::I64, 2));
        fb.ret(Some(Operand::local(x)));
        m.push_function(fb.finish());
        let removed = run_function(&mut m.functions[0]);
        assert_eq!(removed, 1, "first copy is a dead register write");
        assert!(matches!(
            &m.functions[0].blocks[0].insts[0],
            Inst::Copy { src: Operand::Const(c), .. } if c.normalized() == Some(2)
        ));
    }
}
