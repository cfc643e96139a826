//! Region identification — Algorithm 1 of the paper.
//!
//! Candidate regions are dominator subtrees (single entry by
//! construction). Each candidate is scored `effect / cost` where `effect`
//! is its block count and `cost` is the execution frequency of its head,
//! multiplied by the innermost loop's trip count when the head sits in a
//! loop. The algorithm repeatedly takes the most cost-effective tree and
//! discards everything that intersects it.

use crate::KhaosOptions;
use khaos_ir::{BlockFreq, BlockId, Callee, Cfg, DomTree, FuncId, Inst, LoopInfo, Module, Term};
use std::collections::HashMap;

/// A selected region: a dominator subtree rooted at `root`.
#[derive(Clone, Debug)]
pub struct Region {
    /// The subtree root — the region's single entry block.
    pub root: BlockId,
    /// All blocks in the region, including `root`.
    pub blocks: Vec<BlockId>,
    /// The score it was selected with (diagnostics).
    pub value: f64,
}

impl Region {
    /// Rewrites block ids after an extraction compacted the function.
    pub fn apply_block_map(&mut self, map: &HashMap<BlockId, BlockId>) {
        self.root = *map.get(&self.root).expect("disjoint region root survives");
        for b in &mut self.blocks {
            *b = *map.get(b).expect("disjoint region blocks survive");
        }
    }

    fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }
}

/// Runs Algorithm 1 on `func`, returning disjoint regions to separate.
pub fn identify_regions(m: &Module, func: FuncId, opts: &KhaosOptions) -> Vec<Region> {
    let f = m.function(func);
    let cfg = Cfg::compute(f);
    let dt = DomTree::compute(f, &cfg);
    let li = LoopInfo::compute(f, &cfg, &dt);
    let bf = BlockFreq::compute(f, &cfg, &li);

    // Line 2-3: all dominator subtrees except the whole function.
    let mut candidates: Vec<Region> = Vec::new();
    for root in dt.candidate_roots(&cfg) {
        let blocks = dt.subtree(root);
        if blocks.len() < opts.fission_min_blocks {
            continue;
        }
        if blocks.len() >= f.blocks.len() {
            continue; // must leave a remnant
        }
        if !region_is_extractable(m, f, root, &blocks) {
            continue;
        }
        // Lines 7-13: effect / cost.
        let effect = blocks.len() as f64;
        let mut cost = bf.freq(root).max(1e-6);
        if li.in_loop(root) {
            cost *= li.trip_count(root);
        }
        let value = effect / cost;
        if value < opts.fission_min_value {
            continue;
        }
        candidates.push(Region {
            root,
            blocks,
            value,
        });
    }

    // Lines 4-21: iteratively select the best tree, discard intersecting.
    let mut selected: Vec<Region> = Vec::new();
    while !candidates.is_empty() && selected.len() < opts.fission_max_regions {
        let best = candidates
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1.value
                    .partial_cmp(&b.1.value)
                    .expect("finite scores")
                    .then(b.1.root.cmp(&a.1.root)) // deterministic tie-break
            })
            .map(|(i, _)| i)
            .expect("non-empty");
        let chosen = candidates.swap_remove(best);
        candidates.retain(|c| !intersects(c, &chosen));
        selected.push(chosen);
    }
    selected
}

fn intersects(a: &Region, b: &Region) -> bool {
    // Dominator subtrees intersect iff one contains the other's root.
    a.contains(b.root) || b.contains(a.root)
}

/// Correctness filters on top of Algorithm 1.
fn region_is_extractable(
    m: &Module,
    f: &khaos_ir::Function,
    root: BlockId,
    blocks: &[BlockId],
) -> bool {
    // The region entry is reached by normal edges; landing pads are only
    // reachable through invoke unwind edges, so a pad cannot head a region.
    if f.block(root).is_pad() {
        return false;
    }
    for &b in blocks {
        let block = f.block(b);
        // EH pairing (paper §3.2.4): an invoke and its landing pad must
        // end up in the same function, so reject regions that would tear
        // an unwind edge apart.
        if let Term::Invoke { unwind, .. } = &block.term {
            if !blocks.contains(unwind) {
                return false;
            }
        }
        // setjmp call-sites must stay in the original frame (§3.2.4).
        for inst in &block.insts {
            match inst {
                Inst::Call {
                    callee: Callee::Ext(e),
                    ..
                } if m.external(*e).name == "setjmp" => {
                    return false;
                }
                // An alloca whose address could outlive the sepFunc frame
                // must not move; conservatively keep allocas out of regions.
                Inst::Alloca { .. } => return false,
                _ => {}
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KhaosOptions;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::{CmpPred, Operand, Type};

    /// entry -> cold (4-block chain) or ret; cold chain rejoins ret.
    fn module_with_cold_region() -> (Module, FuncId) {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("f", Type::I64);
        let p = fb.add_param(Type::I64);
        let c1 = fb.new_block();
        let c2 = fb.new_block();
        let c3 = fb.new_block();
        let done = fb.new_block();
        let cond = fb.cmp(
            CmpPred::Sgt,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 100),
        );
        fb.branch(Operand::local(cond), c1, done);
        fb.switch_to(c1);
        fb.jump(c2);
        fb.switch_to(c2);
        fb.jump(c3);
        fb.switch_to(c3);
        fb.jump(done);
        fb.switch_to(done);
        fb.ret(Some(Operand::local(p)));
        let id = m.push_function(fb.finish());
        (m, id)
    }

    #[test]
    fn finds_cold_chain() {
        let (m, id) = module_with_cold_region();
        let regions = identify_regions(&m, id, &KhaosOptions::default());
        assert!(!regions.is_empty());
        let r = &regions[0];
        assert_eq!(r.root, BlockId(1), "chain head is the best region root");
        assert_eq!(r.blocks.len(), 3);
    }

    #[test]
    fn regions_are_disjoint() {
        let (m, id) = module_with_cold_region();
        let regions = identify_regions(&m, id, &KhaosOptions::default());
        for (i, a) in regions.iter().enumerate() {
            for b in regions.iter().skip(i + 1) {
                for blk in &a.blocks {
                    assert!(!b.blocks.contains(blk), "regions must not share blocks");
                }
            }
        }
    }

    #[test]
    fn min_blocks_respected() {
        let (m, id) = module_with_cold_region();
        let opts = KhaosOptions {
            fission_min_blocks: 10,
            ..KhaosOptions::default()
        };
        assert!(identify_regions(&m, id, &opts).is_empty());
    }

    #[test]
    fn hot_loop_body_disfavoured() {
        // A 2-block loop body region head inside a loop has cost ~ 10*freq,
        // pushing its value below the default threshold.
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("f", Type::I64);
        let p = fb.add_param(Type::I64);
        let h = fb.new_block();
        let b1 = fb.new_block();
        let b2 = fb.new_block();
        let exit = fb.new_block();
        fb.jump(h);
        fb.switch_to(h);
        let c = fb.cmp(
            CmpPred::Sgt,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 0),
        );
        fb.branch(Operand::local(c), b1, exit);
        fb.switch_to(b1);
        fb.jump(b2);
        fb.switch_to(b2);
        fb.jump(h);
        fb.switch_to(exit);
        fb.ret(Some(Operand::local(p)));
        let id = m.push_function(fb.finish());
        let regions = identify_regions(&m, id, &KhaosOptions::default());
        assert!(
            regions.iter().all(|r| r.root != BlockId(2)),
            "hot in-loop region should lose to the threshold: {regions:?}"
        );
    }

    #[test]
    fn setjmp_region_rejected() {
        let mut m = Module::new("t");
        let setjmp = m.declare_external(khaos_ir::ExtFunc {
            name: "setjmp".into(),
            params: vec![Type::Ptr],
            ret_ty: Type::I32,
            variadic: false,
        });
        let mut fb = FunctionBuilder::new("f", Type::I64);
        let p = fb.add_param(Type::I64);
        let c1 = fb.new_block();
        let c2 = fb.new_block();
        let done = fb.new_block();
        let buf = fb.alloca(8);
        let cond = fb.cmp(
            CmpPred::Sgt,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 100),
        );
        fb.branch(Operand::local(cond), c1, done);
        fb.switch_to(c1);
        fb.call_ext(setjmp, Type::I32, vec![Operand::local(buf)]);
        fb.jump(c2);
        fb.switch_to(c2);
        fb.jump(done);
        fb.switch_to(done);
        fb.ret(Some(Operand::local(p)));
        let id = m.push_function(fb.finish());
        let regions = identify_regions(&m, id, &KhaosOptions::default());
        assert!(
            regions.iter().all(|r| !r.blocks.contains(&BlockId(1))),
            "setjmp block must stay in the remFunc"
        );
    }
}
