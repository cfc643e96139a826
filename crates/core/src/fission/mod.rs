//! The fission primitive (paper §3.2): separate a function into
//! `sepFunc`s plus a `remFunc`.

mod extract;
mod regions;

pub use extract::extract_region;
pub use regions::{identify_regions, Region};

use crate::KhaosContext;
use khaos_ir::{Callee, FuncId, Inst, Module, ProvKind};

/// Runs fission over every eligible function of `m`.
///
/// Eligibility (paper §3.2.1 plus correctness constraints):
/// * not variadic (no way to forward unnamed arguments to a `sepFunc`),
/// * enough blocks to contain a worthwhile region,
/// * only previously-untouched functions (kind `Original`).
pub fn run(m: &mut Module, ctx: &mut KhaosContext) {
    let candidates: Vec<FuncId> = m
        .iter_functions()
        .filter(|(_, f)| {
            f.provenance.kind == ProvKind::Original
                && !f.variadic
                && f.blocks.len() > ctx.options.fission_min_blocks
        })
        .map(|(id, _)| id)
        .collect();
    ctx.fission_stats.ori_funcs += m.functions.len();

    for func in candidates {
        let regions = identify_regions(m, func, &ctx.options);
        if regions.is_empty() {
            continue;
        }
        let blocks_before = m.function(func).blocks.len();
        let mut moved = 0usize;
        let mut any = false;
        // Extract one region at a time; each extraction compacts block ids
        // and returns a remap that must be applied to the remaining
        // regions (they are block-disjoint, so they survive intact).
        let mut pending = regions;
        while let Some(region) = pending.pop() {
            let sep_index = ctx.fission_stats.sep_funcs;
            let outcome = extract_region(m, func, &region, sep_index, ctx);
            moved += region.blocks.len() - 1; // root survives as the call block
            any = true;
            for r in &mut pending {
                r.apply_block_map(&outcome.block_map);
            }
            ctx.fission_stats.sep_funcs += 1;
            ctx.fission_stats.sep_blocks += outcome.sep_blocks;
            ctx.fission_stats.params_reduced += outcome.params_reduced;
        }
        if any {
            ctx.fission_stats.fissioned_funcs += 1;
            ctx.fission_stats.reduced_ratio_sum += moved as f64 / blocks_before as f64;
            let f = m.function_mut(func);
            f.provenance.kind = ProvKind::Rem;
        }
    }
}

/// True if the block set contains a call to the `setjmp` external —
/// the call-site of `setjmp` must never move into a `sepFunc`
/// (paper §3.2.4: its frame must stay alive for the matching `longjmp`).
pub fn region_calls_setjmp(
    m: &Module,
    f: &khaos_ir::Function,
    blocks: &[khaos_ir::BlockId],
) -> bool {
    blocks.iter().any(|b| {
        f.block(*b).insts.iter().any(|i| match i {
            Inst::Call {
                callee: Callee::Ext(e),
                ..
            } => m.external(*e).name == "setjmp",
            _ => false,
        })
    })
}
