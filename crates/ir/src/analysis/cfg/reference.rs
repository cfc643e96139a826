//! The CFG as it was before the flat layout: one predecessor vector and
//! one successor vector per block. It is the test oracle that
//! [`Cfg`](crate::analysis::cfg::Cfg) must match block for block
//! (predecessors in order, reverse postorder and its index).
//!
//! Compiled only into tests: this crate's unit tests, and
//! `tests/flat_analyses_quick.rs`, which includes this file by path and
//! re-exports the crate's modules at its root so the `crate::` paths
//! below resolve there too.

use crate::function::Function;
use crate::ids::BlockId;

/// Per-block predecessor vectors and the traversal orders.
pub struct Cfg {
    preds: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
    rpo_index: Vec<Option<u32>>,
}

impl Cfg {
    /// Computes the CFG for `f`.
    pub fn compute(f: &Function) -> Self {
        let n = f.blocks.len();
        let mut preds = vec![Vec::new(); n];
        for (b, block) in f.iter_blocks() {
            block.term.for_each_successor(|s| {
                if !preds[s.index()].contains(&b) {
                    preds[s.index()].push(b);
                }
            });
        }
        // Iterative DFS postorder.
        let mut post = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut stack: Vec<(BlockId, usize)> = vec![(f.entry(), 0)];
        visited[f.entry().index()] = true;
        let succs: Vec<Vec<BlockId>> = f.blocks.iter().map(|b| b.term.successors()).collect();
        while let Some((b, i)) = stack.pop() {
            if i < succs[b.index()].len() {
                stack.push((b, i + 1));
                let s = succs[b.index()][i];
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
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
            preds,
            rpo,
            rpo_index,
        }
    }

    /// Predecessors of `b` (deduplicated, in discovery order).
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
    }

    /// Reverse postorder over reachable blocks.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in reverse postorder, or `None` if unreachable.
    pub fn rpo_index(&self, b: BlockId) -> Option<u32> {
        self.rpo_index[b.index()]
    }
}

/// Asserts that [`crate::analysis::cfg::Cfg`] equals this reference on
/// `f`: every block's predecessors in order, the reverse postorder and
/// every block's position in it.
pub fn assert_matches(f: &Function, what: &str) {
    let flat = crate::analysis::cfg::Cfg::compute(f);
    let old = Cfg::compute(f);
    assert_eq!(flat.rpo(), old.rpo(), "{what}: rpo of {}", f.name);
    for (b, _) in f.iter_blocks() {
        assert_eq!(
            flat.preds(b),
            old.preds(b),
            "{what}: preds of {b} in {}",
            f.name
        );
        assert_eq!(
            flat.rpo_index(b),
            old.rpo_index(b),
            "{what}: rpo_index of {b} in {}",
            f.name
        );
    }
}
