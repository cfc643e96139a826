//! Control-flow graph utilities: predecessors, postorder traversals and
//! reachability.
//!
//! The graph is flat: predecessors are one CSR array (an offsets vector
//! and one list), and the traversal walks successors from one flat
//! buffer, so computing a CFG costs a handful of allocations whatever
//! the number of blocks.

use crate::function::Function;
use crate::ids::BlockId;

#[cfg(test)]
pub(crate) mod reference;

/// Predecessor lists and traversal orders for a function's CFG.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// `pred_list[pred_start[b]..pred_start[b + 1]]` are `b`'s predecessors.
    pred_start: Vec<u32>,
    pred_list: Vec<BlockId>,
    /// Reverse postorder over reachable blocks, starting at the entry.
    rpo: Vec<BlockId>,
    /// `rpo_index[b] == Some(i)` iff `rpo[i] == b`; `None` for unreachable.
    rpo_index: Vec<Option<u32>>,
}

impl Cfg {
    /// Computes the CFG for `f`.
    pub fn compute(f: &Function) -> Self {
        let n = f.blocks.len();
        // Successors, flat: `succ_list[succ_start[b]..succ_start[b + 1]]`.
        let mut succ_start = Vec::with_capacity(n + 1);
        let mut succ_list = Vec::with_capacity(2 * n);
        succ_start.push(0u32);
        for block in &f.blocks {
            block.term.for_each_successor(|s| succ_list.push(s));
            succ_start.push(succ_list.len() as u32);
        }
        // Predecessors, deduplicated in discovery order. Blocks are
        // scanned in id order, so a repeated `b -> s` edge can only
        // follow `b`'s own earlier push onto `s`: comparing with the
        // last predecessor recorded for `s` deduplicates.
        let mut last = vec![u32::MAX; n];
        let mut pred_start = vec![0u32; n + 1];
        for b in 0..n {
            for s in &succ_list[succ_start[b] as usize..succ_start[b + 1] as usize] {
                if std::mem::replace(&mut last[s.index()], b as u32) != b as u32 {
                    pred_start[s.index() + 1] += 1;
                }
            }
        }
        for b in 0..n {
            pred_start[b + 1] += pred_start[b];
        }
        let mut fill: Vec<u32> = pred_start[..n].to_vec();
        let mut pred_list = vec![BlockId(0); pred_start[n] as usize];
        last.fill(u32::MAX);
        for b in 0..n {
            for s in &succ_list[succ_start[b] as usize..succ_start[b + 1] as usize] {
                let si = s.index();
                if std::mem::replace(&mut last[si], b as u32) != b as u32 {
                    pred_list[fill[si] as usize] = BlockId::new(b);
                    fill[si] += 1;
                }
            }
        }
        // Iterative DFS postorder; a stack entry is a block and the flat
        // index of its next successor.
        let mut post = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let entry = f.entry();
        let mut stack: Vec<(BlockId, u32)> = vec![(entry, succ_start[entry.index()])];
        visited[entry.index()] = true;
        while let Some((b, i)) = stack.pop() {
            if i < succ_start[b.index() + 1] {
                stack.push((b, i + 1));
                let s = succ_list[i as usize];
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, succ_start[s.index()]));
                }
            } else {
                post.push(b);
            }
        }
        let mut rpo = post;
        rpo.reverse();
        let mut rpo_index = vec![None; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = Some(i as u32);
        }
        Cfg {
            pred_start,
            pred_list,
            rpo,
            rpo_index,
        }
    }

    /// Predecessors of `b` (deduplicated, in discovery order).
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        let i = b.index();
        &self.pred_list[self.pred_start[i] as usize..self.pred_start[i + 1] as usize]
    }

    /// Reverse postorder over reachable blocks; `rpo()[0]` is the entry.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in reverse postorder, or `None` if unreachable.
    pub fn rpo_index(&self, b: BlockId) -> Option<u32> {
        self.rpo_index[b.index()]
    }

    /// True if `b` is reachable from the entry block.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index(b).is_some()
    }

    /// Number of reachable blocks.
    pub fn reachable_count(&self) -> usize {
        self.rpo.len()
    }

    /// Number of CFG edges among reachable blocks (with multiplicity).
    pub fn edge_count(&self, f: &Function) -> usize {
        let mut edges = 0;
        for &b in &self.rpo {
            f.block(b).term.for_each_successor(|_| edges += 1);
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{CmpPred, Operand};
    use crate::types::Type;

    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("d", Type::Void);
        let p = b.add_param(Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.cmp(
            CmpPred::Sgt,
            Type::I32,
            Operand::local(p),
            Operand::const_int(Type::I32, 0),
        );
        b.branch(Operand::local(c), t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn preds_of_join() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.preds(BlockId(3)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds(BlockId(0)), &[]);
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.rpo()[0], BlockId(0));
        assert_eq!(cfg.reachable_count(), 4);
        // The join must come after both branch targets.
        let j = cfg.rpo_index(BlockId(3)).unwrap();
        assert!(j > cfg.rpo_index(BlockId(1)).unwrap());
        assert!(j > cfg.rpo_index(BlockId(2)).unwrap());
    }

    #[test]
    fn unreachable_blocks_detected() {
        let mut f = diamond();
        // Add a dangling block no one targets.
        let dead = f.push_block(crate::function::Block::with_term(crate::inst::Term::Ret(
            None,
        )));
        let cfg = Cfg::compute(&f);
        assert!(!cfg.is_reachable(dead));
        assert_eq!(cfg.reachable_count(), 4);
    }

    #[test]
    fn edge_count_counts_multiplicity() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.edge_count(&f), 4); // branch(2) + 2 jumps
    }

    #[test]
    fn repeated_edges_and_self_loops_match_the_reference() {
        // Block 1 switches to 2, 1 (itself), 2 again and defaults to 3;
        // block 2 branches to 3 on both arms; block 4 is unreachable
        // and jumps into the loop.
        let mut b = FunctionBuilder::new("r", Type::Void);
        let p = b.add_param(Type::I32);
        let (s, t, j, dead) = (b.new_block(), b.new_block(), b.new_block(), b.new_block());
        b.jump(s);
        b.switch_to(s);
        b.switch(
            Type::I32,
            Operand::local(p),
            vec![(0, t), (1, s), (2, t)],
            j,
        );
        b.switch_to(t);
        b.branch(Operand::local(p), j, j);
        b.switch_to(j);
        b.ret(None);
        b.switch_to(dead);
        b.jump(s);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.preds(s), &[BlockId(0), s, dead]);
        assert_eq!(cfg.preds(j), &[s, t], "deduplicated, in discovery order");
        assert_eq!(cfg.edge_count(&f), 7);
        reference::assert_matches(&f, "hand-built");
    }
}
