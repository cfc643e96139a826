//! Region extraction — the data-flow and control-flow rebuild of §3.2.
//!
//! The chosen region becomes the body of a fresh `sepFunc`:
//!
//! * **inputs** (values flowing in) become value parameters,
//! * **outputs** (values flowing out) become pointer parameters to stack
//!   slots allocated in the `remFunc` (the paper passes pointers for
//!   cross-function define-use chains),
//! * each *exit* of the region gets a code; the `sepFunc` returns the code
//!   and the `remFunc` dispatches on it (paper Figure 1, block `a`),
//! * a `return` inside the region propagates through a dedicated
//!   return-value slot plus its own exit code,
//! * the lazy-allocation **data-flow reduction** moves allocas used only
//!   inside the region into the `sepFunc`, shortening the parameter list.

use super::regions::Region;
use crate::KhaosContext;
use khaos_ir::rewrite::{remap_block, remove_blocks};
use khaos_ir::{
    Block, BlockId, Cfg, FuncId, Function, Inst, Linkage, Liveness, LocalId, Module, Operand,
    ProvKind, Provenance, Term, Type,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What an extraction produced.
#[derive(Debug)]
pub struct ExtractOutcome {
    /// Id of the new `sepFunc`.
    pub sep_func: FuncId,
    /// Block count of the `sepFunc` (for the `#BB` statistic).
    pub sep_blocks: usize,
    /// Parameters avoided by the data-flow reduction.
    pub params_reduced: usize,
    /// Old→new block ids of the surviving `remFunc` blocks.
    pub block_map: HashMap<BlockId, BlockId>,
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Exit {
    /// Control leaves to this (outside) block.
    Edge(BlockId),
    /// The original function returns from inside the region.
    Return,
}

/// Extracts `region` out of `func`, appending the new `sepFunc` to `m`.
pub fn extract_region(
    m: &mut Module,
    func: FuncId,
    region: &Region,
    sep_index: usize,
    ctx: &mut KhaosContext,
) -> ExtractOutcome {
    let region_set: BTreeSet<BlockId> = region.blocks.iter().copied().collect();
    let f = m.function(func);
    let cfg = Cfg::compute(f);
    let lv = Liveness::compute(f, &cfg);

    // ---- Data-flow reduction: allocas used only inside the region. ----
    let moved_allocas: Vec<(BlockId, usize)> = if ctx.options.data_flow_reduction {
        find_movable_allocas(f, &region_set, region.root)
    } else {
        Vec::new()
    };
    let moved_locals: BTreeSet<LocalId> = moved_allocas
        .iter()
        .map(|(b, i)| f.block(*b).insts[*i].def().expect("alloca defines"))
        .collect();

    // ---- Classify locals crossing the region boundary. ----
    let mut used_in_region: BTreeSet<LocalId> = BTreeSet::new();
    let mut defined_in_region: BTreeSet<LocalId> = BTreeSet::new();
    for &b in &region_set {
        let block = f.block(b);
        for inst in &block.insts {
            inst.for_each_use(|o| {
                if let Some(l) = o.as_local() {
                    used_in_region.insert(l);
                }
            });
            if let Some(d) = inst.def() {
                defined_in_region.insert(d);
            }
        }
        block.term.for_each_use(|o| {
            if let Some(l) = o.as_local() {
                used_in_region.insert(l);
            }
        });
        if let Some(d) = block.term.def() {
            defined_in_region.insert(d);
        }
        if let Some(pad) = &block.pad {
            if let Some(d) = pad.dst {
                defined_in_region.insert(d);
            }
        }
    }

    // ---- Exits, in deterministic order. ----
    let mut exits: Vec<Exit> = Vec::new();
    let mut has_ret_value = false;
    for &b in &region_set {
        let block = f.block(b);
        match &block.term {
            Term::Ret(v) => {
                if !exits.contains(&Exit::Return) {
                    exits.push(Exit::Return);
                }
                if v.is_some() {
                    has_ret_value = true;
                }
            }
            t => t.for_each_successor(|s| {
                if !region_set.contains(&s) && !exits.contains(&Exit::Edge(s)) {
                    exits.push(Exit::Edge(s));
                }
            }),
        }
    }
    exits.sort();

    // outputs: defined inside, live into some outside exit target.
    let mut outputs: BTreeSet<LocalId> = BTreeSet::new();
    for e in &exits {
        if let Exit::Edge(t) = e {
            for l in lv.live_in(*t).iter() {
                if defined_in_region.contains(&l) && !moved_locals.contains(&l) {
                    outputs.insert(l);
                }
            }
        }
    }
    // inputs: the data-flow reduction (§3.2.2, "lazy allocation") passes
    // only values that actually flow in — locals that are live into the
    // region head. Without it, every local the region merely *mentions*
    // becomes a parameter (the naive CodeExtractor behaviour).
    let minimized: Vec<LocalId> = lv
        .live_in(region.root)
        .iter()
        .filter(|l| used_in_region.contains(l) && !outputs.contains(l) && !moved_locals.contains(l))
        .collect();
    let mut inputs: Vec<LocalId> = if ctx.options.data_flow_reduction {
        let naive_count = used_in_region
            .iter()
            .filter(|l| !outputs.contains(l) && !moved_locals.contains(l))
            .count();
        ctx.fission_stats.params_reduced += naive_count - minimized.len();
        minimized
    } else {
        used_in_region
            .iter()
            .copied()
            .filter(|l| !outputs.contains(l) && !moved_locals.contains(l))
            .collect()
    };
    inputs.sort();
    let outputs: Vec<LocalId> = outputs.into_iter().collect();

    let ret_ty = f.ret_ty;
    let needs_ret_slot = has_ret_value && ret_ty != Type::Void;
    let multi_exit = exits.len() >= 2;
    let sep_ret_ty = if multi_exit { Type::I32 } else { Type::Void };

    // ---- Build the sepFunc. ----
    let orig_name = f.name.clone();
    let origins = f.provenance.origins.clone();
    let mut g = Function::new(format!("{orig_name}_sep_{sep_index}"), sep_ret_ty);
    g.linkage = Linkage::Internal;
    g.provenance = Provenance {
        kind: ProvKind::Sep,
        origins,
    };
    // Khaos schedules its passes ahead of the regular pipeline and pins
    // the separated functions so the inliner cannot stitch them back
    // (the remFunc stays inlinable — the paper's negative-overhead cases
    // come from exactly that).
    g.annotations.push("noinline".to_string());

    // Parameters: inputs by value, then output slots, then retval slot.
    let mut lmap: HashMap<LocalId, LocalId> = HashMap::new();
    for &l in &inputs {
        let p = g.new_local(f.local_ty(l));
        lmap.insert(l, p);
    }
    let out_slot_params: Vec<LocalId> = outputs.iter().map(|_| g.new_local(Type::Ptr)).collect();
    let ret_slot_param = if needs_ret_slot {
        Some(g.new_local(Type::Ptr))
    } else {
        None
    };
    g.param_count = g.locals.len() as u32;

    // Working locals for outputs; fresh locals for everything else the
    // region touches.
    for &l in &outputs {
        let w = g.new_local(f.local_ty(l));
        lmap.insert(l, w);
    }
    for &l in used_in_region.union(&defined_in_region) {
        lmap.entry(l).or_insert_with(|| {
            let ty = f.local_ty(l);
            g.new_local(ty)
        });
    }

    // Block layout in g: bb0 = prologue, then region blocks (sorted),
    // then one stub per exit.
    let region_sorted: Vec<BlockId> = region_set.iter().copied().collect();
    let mut bmap: HashMap<BlockId, BlockId> = HashMap::new();
    for (i, &b) in region_sorted.iter().enumerate() {
        bmap.insert(b, BlockId::new(1 + i));
    }
    let stub_base = 1 + region_sorted.len();
    let exit_code =
        |e: &Exit| -> i64 { exits.iter().position(|x| x == e).expect("exit known") as i64 };
    let stub_id = |e: &Exit| -> BlockId { BlockId::new(stub_base + exit_code(e) as usize) };

    // Prologue: moved allocas, then loads of output slots.
    let mut prologue = Vec::new();
    for (b, i) in &moved_allocas {
        let inst = f.block(*b).insts[*i].clone();
        if let Inst::Alloca { dst, size, align } = inst {
            prologue.push(Inst::Alloca {
                dst: lmap[&dst],
                size,
                align,
            });
        }
    }
    for (k, &l) in outputs.iter().enumerate() {
        prologue.push(Inst::Load {
            ty: f.local_ty(l),
            dst: lmap[&l],
            addr: Operand::local(out_slot_params[k]),
        });
    }
    g.blocks[0] = Block {
        insts: prologue,
        term: Term::Jump(bmap[&region.root]),
        pad: None,
    };

    // Copy region blocks: remap locals first, then rewrite returns and
    // retarget exit edges (the remapped operands are g-locals, which are
    // absent from `lmap`, so the order avoids double-remapping).
    for &b in &region_sorted {
        let mut nb = f.block(b).clone();
        let id_blocks: HashMap<BlockId, BlockId> = HashMap::new();
        remap_block(&mut nb, &lmap, &id_blocks);
        if let Term::Ret(v) = nb.term.clone() {
            if let (Some(val), Some(slot)) = (v, ret_slot_param) {
                nb.insts.push(Inst::Store {
                    ty: ret_ty,
                    addr: Operand::local(slot),
                    value: val,
                });
            }
            nb.term = if multi_exit {
                Term::Ret(Some(Operand::const_int(
                    Type::I32,
                    exit_code(&Exit::Return),
                )))
            } else {
                Term::Ret(None)
            };
        }
        // Retarget successors: inside region -> mapped, outside -> stub.
        nb.term.for_each_successor_mut(|s| {
            *s = match bmap.get(s) {
                Some(n) => *n,
                None => stub_id(&Exit::Edge(*s)),
            };
        });
        g.blocks.push(nb);
    }
    debug_assert_eq!(g.blocks.len(), stub_base);

    // Exit stubs.
    for e in &exits {
        let mut insts = Vec::new();
        if matches!(e, Exit::Edge(_)) {
            for (k, &l) in outputs.iter().enumerate() {
                insts.push(Inst::Store {
                    ty: f.local_ty(l),
                    addr: Operand::local(out_slot_params[k]),
                    value: Operand::local(lmap[&l]),
                });
            }
        }
        let term = if multi_exit {
            Term::Ret(Some(Operand::const_int(Type::I32, exit_code(e))))
        } else {
            Term::Ret(None)
        };
        g.blocks.push(Block {
            insts,
            term,
            pad: None,
        });
    }

    let sep_blocks = g.blocks.len();
    let sep_func = m.push_function(g);

    // ---- Rewrite the remFunc. ----
    let f = m.function_mut(func);

    // Delete moved allocas (indices within a block shift; delete in
    // descending inst order per block).
    let mut by_block: BTreeMap<BlockId, Vec<usize>> = BTreeMap::new();
    for (b, i) in &moved_allocas {
        by_block.entry(*b).or_default().push(*i);
    }
    for (b, mut idxs) in by_block {
        idxs.sort_unstable_by(|a, b| b.cmp(a));
        for i in idxs {
            f.block_mut(b).insts.remove(i);
        }
    }

    // Slots live in the remFunc entry block.
    let mut out_slots: Vec<LocalId> = Vec::new();
    let mut entry_prepend = Vec::new();
    for &l in &outputs {
        let slot = f.new_local(Type::Ptr);
        let size = f.local_ty(l).size().max(1);
        entry_prepend.push(Inst::Alloca {
            dst: slot,
            size,
            align: 8,
        });
        out_slots.push(slot);
    }
    let ret_slot = if needs_ret_slot {
        let slot = f.new_local(Type::Ptr);
        entry_prepend.push(Inst::Alloca {
            dst: slot,
            size: ret_ty.size(),
            align: 8,
        });
        Some(slot)
    } else {
        None
    };
    let entry = f.entry();
    let old_entry_insts = std::mem::take(&mut f.block_mut(entry).insts);
    f.block_mut(entry).insts = entry_prepend.into_iter().chain(old_entry_insts).collect();

    // A return-continuation block when the region returned.
    let ret_block = if exits.contains(&Exit::Return) {
        let mut insts = Vec::new();
        let term = if let Some(slot) = ret_slot {
            let rv = f.new_local(ret_ty);
            insts.push(Inst::Load {
                ty: ret_ty,
                dst: rv,
                addr: Operand::local(slot),
            });
            Term::Ret(Some(Operand::local(rv)))
        } else {
            Term::Ret(None)
        };
        Some(f.push_block(Block {
            insts,
            term,
            pad: None,
        }))
    } else {
        None
    };

    // The call block replaces the region root in place, so every edge into
    // the region keeps working.
    let mut insts = Vec::new();
    for (k, &l) in outputs.iter().enumerate() {
        insts.push(Inst::Store {
            ty: f.local_ty(l),
            addr: Operand::local(out_slots[k]),
            value: Operand::local(l),
        });
    }
    let mut args: Vec<Operand> = inputs.iter().map(|l| Operand::local(*l)).collect();
    args.extend(out_slots.iter().map(|s| Operand::local(*s)));
    if let Some(slot) = ret_slot {
        args.push(Operand::local(slot));
    }
    let call_dst = if multi_exit {
        Some(f.new_local(Type::I32))
    } else {
        None
    };
    insts.push(Inst::Call {
        dst: call_dst,
        callee: khaos_ir::Callee::Direct(sep_func),
        args,
    });
    for (k, &l) in outputs.iter().enumerate() {
        insts.push(Inst::Load {
            ty: f.local_ty(l),
            dst: l,
            addr: Operand::local(out_slots[k]),
        });
    }
    let exit_target = |e: &Exit| -> BlockId {
        match e {
            Exit::Edge(t) => *t,
            Exit::Return => ret_block.expect("ret block exists for Return exit"),
        }
    };
    let term = match exits.len() {
        0 => Term::Unreachable, // the region diverges; the call never returns
        1 => Term::Jump(exit_target(&exits[0])),
        _ => {
            let cases: Vec<(i64, BlockId)> = exits
                .iter()
                .map(|e| (exit_code(e), exit_target(e)))
                .collect();
            let default = cases.last().expect("non-empty").1;
            let cases = cases[..cases.len() - 1].to_vec();
            Term::Switch {
                ty: Type::I32,
                value: Operand::local(call_dst.expect("multi-exit call has dst")),
                cases,
                default,
            }
        }
    };
    *f.block_mut(region.root) = Block {
        insts,
        term,
        pad: None,
    };

    // Drop the now-dead region bodies (all except the root).
    let dead: Vec<BlockId> = region_sorted
        .iter()
        .copied()
        .filter(|b| *b != region.root)
        .collect();
    let block_map = remove_blocks(f, &dead);

    ExtractOutcome {
        sep_func,
        sep_blocks,
        params_reduced: moved_allocas.len(), // the alloca part; the
        // register part is counted inline above
        block_map,
    }
}

/// Allocas outside the region whose slot is provably region-private:
/// every use of the pointer sits inside the region, the pointer is never
/// derived from (no `ptradd`/copies), and the region's root block writes
/// the slot before any read (so each entry re-initialises it, making the
/// move to a fresh frame safe).
fn find_movable_allocas(
    f: &Function,
    region: &BTreeSet<BlockId>,
    root: BlockId,
) -> Vec<(BlockId, usize)> {
    let mut out = Vec::new();
    for (b, block) in f.iter_blocks() {
        if region.contains(&b) {
            continue;
        }
        'insts: for (i, inst) in block.insts.iter().enumerate() {
            let Inst::Alloca { dst, .. } = inst else {
                continue;
            };
            let l = *dst;
            // Scan every use and def of l across the function.
            for (ub, ublock) in f.iter_blocks() {
                for (ui, uinst) in ublock.insts.iter().enumerate() {
                    if ub == b && ui == i {
                        continue; // the alloca itself
                    }
                    if uinst.def() == Some(l) {
                        continue 'insts; // redefinition: too clever, skip
                    }
                    let mut used = false;
                    uinst.for_each_use(|o| {
                        if o.as_local() == Some(l) {
                            used = true;
                        }
                    });
                    if !used {
                        continue;
                    }
                    if !region.contains(&ub) {
                        continue 'insts;
                    }
                    // Only direct load/store addressing is allowed.
                    match uinst {
                        Inst::Load { addr, .. } if addr.as_local() == Some(l) => {}
                        Inst::Store { addr, value, .. }
                            if addr.as_local() == Some(l) && value.as_local() != Some(l) => {}
                        _ => continue 'insts,
                    }
                }
                let mut term_uses = false;
                ublock.term.for_each_use(|o| {
                    if o.as_local() == Some(l) {
                        term_uses = true;
                    }
                });
                if term_uses {
                    continue 'insts;
                }
            }
            // Re-initialisation check: the region root (which dominates
            // every region block) must write the slot before any read, so
            // a fresh frame slot per call observes the same values.
            let mut root_first_is_store = false;
            let mut root_seen_access = false;
            for uinst in &f.block(root).insts {
                let mut touches = false;
                uinst.for_each_use(|o| {
                    if o.as_local() == Some(l) {
                        touches = true;
                    }
                });
                if touches && !root_seen_access {
                    root_seen_access = true;
                    root_first_is_store =
                        matches!(uinst, Inst::Store { addr, .. } if addr.as_local() == Some(l));
                }
            }
            if root_seen_access && root_first_is_store {
                out.push((b, i));
            }
        }
    }
    out
}
