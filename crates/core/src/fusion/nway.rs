//! N-way fusion — the generalization the paper reserves for future work.
//!
//! Paper §3.3: *"In theory, the fusion can aggregate any number of
//! functions. To balance the performance overhead and the obfuscation
//! effect, we choose to aggregate two functions to form a fusFunc."*
//! This module implements the general form for 2–4 constituents so that
//! the trade-off can actually be measured (`experiments ext-arity`).
//!
//! The arity ceiling of four comes straight from the paper's §A.1 bit
//! budget: 16-byte function alignment frees the low 4 pointer bits,
//! bit 0 is reserved (clang's pointer-to-virtual-function marker), which
//! leaves three. We spend bit 1 on the "points to a fusFunc" flag and
//! bits 2–3 on a two-bit `ctrl` — four selectable bodies.
//!
//! Everything else generalizes structurally:
//!
//! * the two-way `ctrl` branch becomes a `switch`;
//! * parameter-list compression merges each parameter position across
//!   *all* constituents (greedy grouping by type compatibility);
//! * return types fold pairwise under the same no-precision-loss rule;
//! * deep fusion runs on consecutive side pairs.

use super::deep;
use super::merge::{
    install_trampoline, narrow_cast, rewrite_calls_in, stub_function, widen_cast, CallSpec,
};
use super::prefix_compatible;
use crate::KhaosContext;
use khaos_ir::rewrite::{import_locals, remap_block};
use khaos_ir::{
    Block, BlockId, CallGraph, FuncId, Function, GInit, Inst, LocalId, Module, Operand, ProvKind,
    Provenance, Term, Type,
};
use rand::seq::SliceRandom;
use std::collections::HashMap;
use std::ops::Range;

/// "Points to a fused function" flag bit of the N-way tag layout.
pub const NWAY_FLAG: i64 = 0b0010;
/// Right-shift bringing the N-way `ctrl` field to bit 0.
pub const NWAY_CTRL_SHIFT: u32 = 2;
/// Mask of the shifted `ctrl` field (two bits: arities up to 4).
pub const NWAY_CTRL_MASK: i64 = 0b11;
/// Every pointer bit the N-way layout can set.
pub const NWAY_MASK: i64 = 0b1110;

/// Largest group the tag bit budget supports.
pub const MAX_ARITY: usize = 4;

/// The tag value selecting constituent `ctrl` of an N-way fused function.
pub fn nway_tag(ctrl: i64) -> i64 {
    debug_assert!((0..MAX_ARITY as i64).contains(&ctrl));
    NWAY_FLAG | (ctrl << NWAY_CTRL_SHIFT)
}

/// What an N-way group fusion produced.
#[derive(Clone, Debug)]
pub struct NwayInfo {
    /// The new function.
    pub fus: FuncId,
    /// Whether tagged pointers were emitted — if so, every indirect call
    /// site must be rewritten afterwards with the N-way decode
    /// ([`NWAY_SCHEME`](crate::fusion::NWAY_SCHEME)); the [`run_n`]
    /// driver does this automatically.
    pub used_tags: bool,
    /// Block index ranges of each constituent's body inside the fus, in
    /// `ctrl` order. These describe the layout as built by
    /// [`fuse_group`]; the deep-fusion step that [`run_n`] applies
    /// afterwards merges and removes blocks, so treat them as
    /// informational once the driver has run.
    pub sides: Vec<Range<usize>>,
    /// The `ctrl` parameter local (always `LocalId(0)`).
    pub ctrl: LocalId,
}

/// Where each constituent's parameters landed in the merged list.
struct GroupLayout {
    /// Merged slot types (excluding `ctrl`).
    slots: Vec<Type>,
    /// `maps[f][i]` = slot index of constituent `f`'s parameter `i`.
    maps: Vec<Vec<usize>>,
    /// Parameters saved by compression (the `#RP` statistic).
    compressed: usize,
}

/// Generalized parameter-list compression (paper §3.3.2): at each
/// parameter position, greedily group the constituents' types by
/// merge-compatibility; the first group takes the positional slot,
/// later groups are deferred to fresh trailing slots.
fn merge_params_n(funcs: &[&Function], compression: bool) -> GroupLayout {
    let mut slots: Vec<Type> = Vec::new();
    let mut maps: Vec<Vec<usize>> = funcs
        .iter()
        .map(|f| vec![usize::MAX; f.param_count as usize])
        .collect();
    let mut compressed = 0usize;

    if !compression {
        for (fi, f) in funcs.iter().enumerate() {
            for (i, &t) in f.param_types().iter().enumerate() {
                maps[fi][i] = slots.len();
                slots.push(t);
            }
        }
        return GroupLayout {
            slots,
            maps,
            compressed,
        };
    }

    let max_params = funcs
        .iter()
        .map(|f| f.param_count as usize)
        .max()
        .unwrap_or(0);
    let mut deferred: Vec<(Type, Vec<(usize, usize)>)> = Vec::new();
    // `pos` walks parameter positions (it indexes into each constituent's
    // own map row, so enumerate() has nothing to offer here).
    #[allow(clippy::needless_range_loop)]
    for pos in 0..max_params {
        // Greedy grouping of this position's types.
        let mut groups: Vec<(Type, Vec<usize>)> = Vec::new();
        for (fi, f) in funcs.iter().enumerate() {
            let Some(&t) = f.param_types().get(pos) else {
                continue;
            };
            match groups
                .iter_mut()
                .find_map(|g| g.0.merged(t).map(|m| (g, m)))
            {
                Some((g, merged)) => {
                    g.0 = merged;
                    g.1.push(fi);
                }
                None => groups.push((t, vec![fi])),
            }
        }
        for (gi, (ty, members)) in groups.into_iter().enumerate() {
            compressed += members.len() - 1;
            if gi == 0 {
                // Positional slot — this is what keeps tagged indirect
                // calls' positional convention intact when every
                // constituent merges at every position.
                let s = slots.len();
                for fi in members {
                    maps[fi][pos] = s;
                }
                slots.push(ty);
            } else {
                deferred.push((ty, members.into_iter().map(|fi| (fi, pos)).collect()));
            }
        }
    }
    for (ty, members) in deferred {
        let s = slots.len();
        for (fi, pos) in members {
            maps[fi][pos] = s;
        }
        slots.push(ty);
    }
    GroupLayout {
        slots,
        maps,
        compressed,
    }
}

/// Folds the constituents' return types under the paper's
/// no-precision-loss rule. `None` when the group cannot aggregate.
pub(super) fn group_ret(funcs: &[&Function]) -> Option<Type> {
    let mut cur = Type::Void;
    for f in funcs {
        cur = match (cur, f.ret_ty) {
            (Type::Void, t) | (t, Type::Void) => t,
            (a, b) => a.merged(b)?,
        };
    }
    Some(cur)
}

/// Fuses `ids` (2–4 functions) into one N-way `fusFunc`; rewrites every
/// reference in the module; stubs or trampolines the originals.
///
/// # Panics
/// Panics if `ids` has fewer than 2 or more than [`MAX_ARITY`] entries, or
/// if the group's return types do not fold (the caller's selection must
/// guarantee both).
pub fn fuse_group(
    m: &mut Module,
    ids: &[FuncId],
    cg: &CallGraph,
    has_indirect_invoke: bool,
    ctx: &mut KhaosContext,
) -> NwayInfo {
    let k = ids.len();
    assert!(
        (2..=MAX_ARITY).contains(&k),
        "N-way fusion arity must be 2..=4, got {k}"
    );
    let origs: Vec<Function> = ids.iter().map(|&id| m.function(id).clone()).collect();
    let orig_refs: Vec<&Function> = origs.iter().collect();
    let layout = merge_params_n(&orig_refs, ctx.options.parameter_compression);
    let fus_ret = group_ret(&orig_refs).expect("selection guarantees compatible returns");
    ctx.fusion_stats.params_removed += layout.compressed;

    // ---- Build the fusFunc skeleton. ----
    let mut name = String::new();
    for f in &origs {
        name.push_str(&f.name);
        name.push('_');
    }
    name.push_str("fusion");
    let mut fus = Function::new(name, fus_ret);
    fus.provenance = Provenance {
        kind: ProvKind::Fused,
        origins: origs
            .iter()
            .flat_map(|f| f.provenance.origins.iter().cloned())
            .collect(),
    };
    fus.annotations = origs
        .iter()
        .flat_map(|f| f.annotations.iter().cloned())
        .collect();
    if !fus.annotations.iter().any(|a| a == "noinline") {
        fus.annotations.push("noinline".to_string());
    }
    let ctrl = fus.new_local(Type::I32);
    for &t in &layout.slots {
        fus.new_local(t);
    }
    fus.param_count = 1 + layout.slots.len() as u32;

    let lmaps: Vec<HashMap<LocalId, LocalId>> =
        origs.iter().map(|f| import_locals(&mut fus, f)).collect();

    // Block layout: 0 dispatch, 1..=k adapters, then the k bodies.
    let adapters: Vec<BlockId> = (1..=k).map(BlockId::new).collect();
    let mut body_base = vec![0usize; k];
    let mut next = 1 + k;
    for (i, f) in origs.iter().enumerate() {
        body_base[i] = next;
        next += f.blocks.len();
    }

    // Dispatch on ctrl. Two constituents keep the paper's branch; more
    // use a switch (which is also what the fused binary shows a differ).
    fus.blocks[0] = if k == 2 {
        let is_a = fus.new_local(Type::I1);
        Block {
            insts: vec![Inst::Cmp {
                pred: khaos_ir::CmpPred::Eq,
                ty: Type::I32,
                dst: is_a,
                lhs: Operand::local(ctrl),
                rhs: Operand::const_int(Type::I32, 0),
            }],
            term: Term::Branch {
                cond: Operand::local(is_a),
                then_bb: adapters[0],
                else_bb: adapters[1],
            },
            pad: None,
        }
    } else {
        Block {
            insts: Vec::new(),
            term: Term::Switch {
                ty: Type::I32,
                value: Operand::local(ctrl),
                cases: (1..k).map(|i| (i as i64, adapters[i])).collect(),
                default: adapters[0],
            },
            pad: None,
        }
    };

    // Adapters: move (and narrow) the slot values into each body's
    // parameter locals.
    for (fi, f) in origs.iter().enumerate() {
        let mut insts = Vec::new();
        for (i, &ty) in f.param_types().iter().enumerate() {
            let slot = layout.maps[fi][i];
            let slot_local = LocalId::new(1 + slot);
            let slot_ty = layout.slots[slot];
            let dst = lmaps[fi][&LocalId::new(i)];
            match narrow_cast(slot_ty, ty) {
                Some(kind) => insts.push(Inst::Cast {
                    kind,
                    dst,
                    src: Operand::local(slot_local),
                    from: slot_ty,
                    to: ty,
                }),
                None => insts.push(Inst::Copy {
                    ty,
                    dst,
                    src: Operand::local(slot_local),
                }),
            }
        }
        let adapter = Block {
            insts,
            term: Term::Jump(BlockId::new(body_base[fi])),
            pad: None,
        };
        fus.push_block(adapter);
    }
    debug_assert_eq!(fus.blocks.len(), 1 + k);

    // Copy the bodies, rewriting returns to the merged type.
    for (fi, f) in origs.iter().enumerate() {
        let bmap: HashMap<BlockId, BlockId> = (0..f.blocks.len())
            .map(|i| (BlockId::new(i), BlockId::new(body_base[fi] + i)))
            .collect();
        for ob in &f.blocks {
            let mut nb = ob.clone();
            remap_block(&mut nb, &lmaps[fi], &bmap);
            if let Term::Ret(v) = nb.term.clone() {
                nb.term = match (v, fus_ret, f.ret_ty) {
                    (_, Type::Void, _) => Term::Ret(None),
                    (None, t, Type::Void) => Term::Ret(Some(Operand::zero(t))),
                    (Some(val), want, have) => match widen_cast(have, want) {
                        None => Term::Ret(Some(val)),
                        Some(kind) => {
                            let w = fus.new_local(want);
                            nb.insts.push(Inst::Cast {
                                kind,
                                dst: w,
                                src: val,
                                from: have,
                                to: want,
                            });
                            Term::Ret(Some(Operand::local(w)))
                        }
                    },
                    (None, _, _) => unreachable!("void return in non-void function"),
                };
            }
            fus.push_block(nb);
        }
    }

    let fus_id = m.push_function(fus);

    // ---- Rewrite every direct call/invoke to a constituent. ----
    let specs: Vec<CallSpec> = ids
        .iter()
        .enumerate()
        .map(|(fi, &id)| CallSpec {
            target: id,
            ctrl: fi as i64,
            map: layout.maps[fi].clone(),
            orig_ret: origs[fi].ret_ty,
        })
        .collect();
    let slots = layout.slots.clone();
    for fi in 0..m.functions.len() {
        let fid = FuncId::new(fi);
        if ids.contains(&fid) {
            continue; // bodies about to be replaced
        }
        rewrite_calls_in(m, fid, fus_id, fus_ret, &slots, &specs);
    }

    // ---- Pointer references: tags or trampolines. ----
    let can_tag = ctx.options.parameter_compression
        && !has_indirect_invoke
        && pairwise_prefix_compatible(&orig_refs);
    let mut used_tags = false;
    for spec in &specs {
        let x = spec.target;
        if !cg.is_address_taken(x) && !cg.escapes(x) {
            stub_function(m, x);
            continue;
        }
        if cg.escapes(x) || !can_tag {
            install_trampoline(m, x, fus_id, fus_ret, &slots, spec);
            ctx.fusion_stats.trampolines += 1;
        } else {
            let tag = nway_tag(spec.ctrl);
            super::merge::rewrite_funcaddrs(m, x, fus_id, tag);
            for g in &mut m.globals {
                for init in &mut g.init {
                    if let GInit::FuncPtr { func, addend } = init {
                        if *func == x {
                            *func = fus_id;
                            *addend += tag;
                        }
                    }
                }
            }
            used_tags = true;
            stub_function(m, x);
        }
    }

    NwayInfo {
        fus: fus_id,
        used_tags,
        sides: (0..k)
            .map(|i| body_base[i]..body_base[i] + origs[i].blocks.len())
            .collect(),
        ctrl,
    }
}

fn pairwise_prefix_compatible(funcs: &[&Function]) -> bool {
    for (i, a) in funcs.iter().enumerate() {
        for b in &funcs[i + 1..] {
            if !prefix_compatible(a, b) {
                return false;
            }
        }
    }
    true
}

/// Whether `b` can join `group` (return fold succeeds, no direct call
/// relation with any member, optional register-budget preference).
fn joins_group(m: &Module, cg: &CallGraph, group: &[FuncId], b: FuncId, require_reg: bool) -> bool {
    let mut members: Vec<&Function> = group.iter().map(|&id| m.function(id)).collect();
    let fb = m.function(b);
    members.push(fb);
    if group_ret(&members).is_none() {
        return false;
    }
    if group.iter().any(|&a| cg.directly_related(a, b)) {
        return false;
    }
    if require_reg {
        // ctrl + merged params must stay within six register slots; the
        // positional merge needs at most the max param count.
        let max = members
            .iter()
            .map(|f| f.param_count as usize)
            .max()
            .unwrap_or(0);
        if max >= 6 {
            return false;
        }
    }
    true
}

/// Runs N-way fusion over the functions of `m` selected by `filter`,
/// forming groups of up to `arity` constituents. Returns the infos of the
/// groups formed.
pub fn run_n(
    m: &mut Module,
    ctx: &mut KhaosContext,
    arity: usize,
    filter: impl Fn(&Function) -> bool,
) -> Vec<NwayInfo> {
    let arity = arity.clamp(2, MAX_ARITY);
    let cg = CallGraph::compute(m);
    let has_indirect_invoke = super::module_has_indirect_invoke(m);

    let mut eligible: Vec<FuncId> = m
        .iter_functions()
        .filter(|(_, f)| {
            filter(f)
                && !f.variadic
                && f.name != "main"
                && !matches!(f.provenance.kind, ProvKind::Trampoline | ProvKind::Fused)
        })
        .map(|(id, _)| id)
        .collect();
    ctx.fusion_stats.eligible_funcs += eligible.len();
    eligible.shuffle(&mut ctx.rng);

    // Greedy group building; two passes when register-args are preferred.
    let mut groups: Vec<Vec<FuncId>> = Vec::new();
    let mut remaining = eligible;
    let passes: &[bool] = if ctx.options.prefer_register_args {
        &[true, false]
    } else {
        &[false]
    };
    for &require_reg in passes {
        let mut next_remaining = Vec::new();
        while let Some(a) = remaining.first().copied() {
            remaining.remove(0);
            let mut group = vec![a];
            remaining.retain(|&b| {
                if group.len() < arity && joins_group(m, &cg, &group, b, require_reg) {
                    group.push(b);
                    false
                } else {
                    true
                }
            });
            if group.len() >= 2 {
                groups.push(group);
            } else {
                next_remaining.push(a);
            }
        }
        remaining = next_remaining;
    }

    let mut any_tags = false;
    let mut infos = Vec::with_capacity(groups.len());
    for group in groups {
        let info = fuse_group(m, &group, &cg, has_indirect_invoke, ctx);
        any_tags |= info.used_tags;
        if ctx.options.deep_fusion {
            let side_pairs: Vec<(Range<usize>, Range<usize>, i64)> = info
                .sides
                .chunks(2)
                .enumerate()
                .filter(|(_, c)| c.len() == 2)
                .map(|(j, c)| (c[0].clone(), c[1].clone(), 2 * j as i64))
                .collect();
            deep::merge_sides(m, info.fus, info.ctrl, &side_pairs, ctx);
        }
        ctx.fusion_stats.fused_funcs += group.len();
        ctx.fusion_stats.fus_funcs += 1;
        infos.push(info);
    }

    if any_tags {
        super::callsites::rewrite_indirect_sites_with(m, ctx, super::callsites::NWAY_SCHEME);
    }

    // Dead originals were stubbed by `fuse_group`; sweep them. Function
    // ids shift, so re-resolve each info's fus by name; a fused function
    // that itself became unreachable is dropped from the result.
    let fus_names: Vec<String> = infos
        .iter()
        .map(|i| m.function(i.fus).name.clone())
        .collect();
    khaos_opt::dfe::run_module(m);
    let mut live = Vec::with_capacity(infos.len());
    for (mut info, name) in infos.into_iter().zip(fus_names) {
        if let Some((id, _)) = m.function_by_name(&name) {
            info.fus = id;
            live.push(info);
        }
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::BinOp;

    #[test]
    fn tag_values_fit_the_bit_budget() {
        for ctrl in 0..MAX_ARITY as i64 {
            let t = nway_tag(ctrl);
            assert_eq!(t & 1, 0, "bit 0 stays reserved");
            assert_eq!(t & !NWAY_MASK, 0, "tag inside the mask");
            assert_eq!(
                (t >> NWAY_CTRL_SHIFT) & NWAY_CTRL_MASK,
                ctrl,
                "ctrl roundtrips"
            );
            assert_ne!(t & NWAY_FLAG, 0, "flag set");
        }
    }

    #[test]
    fn merge_params_three_way_compresses_common_prefix() {
        let mk = |name: &str, params: &[Type]| {
            let mut fb = FunctionBuilder::new(name, Type::I64);
            for &p in params {
                fb.add_param(p);
            }
            fb.ret(Some(Operand::const_int(Type::I64, 0)));
            fb.finish()
        };
        let a = mk("a", &[Type::I32, Type::I64]);
        let b = mk("b", &[Type::I64]);
        let c = mk("c", &[Type::I16, Type::I64, Type::F64]);
        let layout = merge_params_n(&[&a, &b, &c], true);
        // Position 0: i32/i64/i16 merge to i64; position 1: i64/i64 merge;
        // position 2: only c's f64.
        assert_eq!(layout.slots, vec![Type::I64, Type::I64, Type::F64]);
        assert_eq!(layout.maps[0], vec![0, 1]);
        assert_eq!(layout.maps[1], vec![0]);
        assert_eq!(layout.maps[2], vec![0, 1, 2]);
        assert_eq!(layout.compressed, 3, "two merges at pos 0 + one at pos 1");
    }

    #[test]
    fn merge_params_incompatible_position_defers() {
        let mk = |name: &str, p: Type| {
            let mut fb = FunctionBuilder::new(name, Type::Void);
            fb.add_param(p);
            fb.ret(None);
            fb.finish()
        };
        let a = mk("a", Type::I64);
        let b = mk("b", Type::F64);
        let layout = merge_params_n(&[&a, &b], true);
        assert_eq!(layout.slots, vec![Type::I64, Type::F64]);
        assert_eq!(layout.maps[0], vec![0]);
        assert_eq!(layout.maps[1], vec![1], "f64 deferred to a trailing slot");
        assert_eq!(layout.compressed, 0);
    }

    #[test]
    fn merge_params_no_compression_concatenates() {
        let mk = |name: &str, params: &[Type]| {
            let mut fb = FunctionBuilder::new(name, Type::Void);
            for &p in params {
                fb.add_param(p);
            }
            fb.ret(None);
            fb.finish()
        };
        let a = mk("a", &[Type::I64, Type::I64]);
        let b = mk("b", &[Type::I64]);
        let layout = merge_params_n(&[&a, &b], false);
        assert_eq!(layout.slots.len(), 3);
        assert_eq!(layout.maps[0], vec![0, 1]);
        assert_eq!(layout.maps[1], vec![2]);
    }

    #[test]
    fn group_ret_folds_voids_and_widths() {
        let mk = |name: &str, ret: Type| {
            let mut fb = FunctionBuilder::new(name, ret);
            match ret {
                Type::Void => fb.ret(None),
                t => fb.ret(Some(Operand::zero(t))),
            }
            fb.finish()
        };
        let v = mk("v", Type::Void);
        let i32_ = mk("i", Type::I32);
        let i64_ = mk("j", Type::I64);
        let f64_ = mk("f", Type::F64);
        assert_eq!(group_ret(&[&v, &v, &v]), Some(Type::Void));
        assert_eq!(group_ret(&[&v, &i32_, &i64_]), Some(Type::I64));
        assert_eq!(
            group_ret(&[&i32_, &f64_]),
            None,
            "int/float loses precision"
        );
        assert_eq!(group_ret(&[&v, &f64_]), Some(Type::F64));
    }

    #[test]
    fn three_way_fusion_preserves_behaviour() {
        let mut m = Module::new("t");
        let mut fns = Vec::new();
        for (name, mul) in [("f1", 3i64), ("f2", 5), ("f3", 7)] {
            let mut fb = FunctionBuilder::new(name, Type::I64);
            let p = fb.add_param(Type::I64);
            let r = fb.bin(
                BinOp::Mul,
                Type::I64,
                Operand::local(p),
                Operand::const_int(Type::I64, mul),
            );
            fb.ret(Some(Operand::local(r)));
            fns.push(m.push_function(fb.finish()));
        }
        let mut main = FunctionBuilder::new("main", Type::I64);
        let mut acc = main.iconst(Type::I64, 0);
        for (i, &f) in fns.iter().enumerate() {
            let r = main
                .call(
                    f,
                    Type::I64,
                    vec![Operand::const_int(Type::I64, i as i64 + 1)],
                )
                .unwrap();
            let n = main.bin(
                BinOp::Add,
                Type::I64,
                Operand::local(acc),
                Operand::local(r),
            );
            acc = n;
        }
        main.ret(Some(Operand::local(acc)));
        m.push_function(main.finish());
        khaos_ir::verify::assert_valid(&m);
        let want = khaos_vm::run_function(&m, "main", &[]).unwrap().exit_code;
        assert_eq!(want, 3 + 10 + 21);

        let mut ctx = KhaosContext::new(0xA1);
        let infos = run_n(&mut m, &mut ctx, 3, |_| true);
        assert_eq!(infos.len(), 1, "one group of three");
        assert_eq!(infos[0].sides.len(), 3);
        khaos_ir::verify::assert_valid(&m);
        let got = khaos_vm::run_function(&m, "main", &[]).unwrap().exit_code;
        assert_eq!(want, got);
        // The three originals are gone; one fusion function remains.
        let fused = m
            .functions
            .iter()
            .filter(|f| f.provenance.kind == ProvKind::Fused)
            .count();
        assert_eq!(fused, 1);
        assert!(m.functions.len() <= 2, "main + fusion");
    }

    #[test]
    fn four_way_fusion_via_switch_dispatch() {
        let mut m = Module::new("t");
        let mut fns = Vec::new();
        for (name, add) in [("g1", 10i64), ("g2", 20), ("g3", 30), ("g4", 40)] {
            let mut fb = FunctionBuilder::new(name, Type::I64);
            let p = fb.add_param(Type::I64);
            let r = fb.bin(
                BinOp::Add,
                Type::I64,
                Operand::local(p),
                Operand::const_int(Type::I64, add),
            );
            fb.ret(Some(Operand::local(r)));
            fns.push(m.push_function(fb.finish()));
        }
        let mut main = FunctionBuilder::new("main", Type::I64);
        let mut acc = main.iconst(Type::I64, 0);
        for &f in &fns {
            let r = main.call(f, Type::I64, vec![Operand::local(acc)]).unwrap();
            acc = r;
        }
        main.ret(Some(Operand::local(acc)));
        m.push_function(main.finish());
        let want = khaos_vm::run_function(&m, "main", &[]).unwrap().exit_code;
        assert_eq!(want, 100);

        let mut ctx = KhaosContext::new(0xB2);
        let infos = run_n(&mut m, &mut ctx, 4, |_| true);
        assert_eq!(infos.len(), 1);
        let fus = m.function(infos[0].fus);
        assert!(
            matches!(fus.blocks[0].term, Term::Switch { ref cases, .. } if cases.len() == 3),
            "arity-4 dispatch is a 3-case switch with a default"
        );
        khaos_ir::verify::assert_valid(&m);
        let got = khaos_vm::run_function(&m, "main", &[]).unwrap().exit_code;
        assert_eq!(want, got);
    }

    #[test]
    fn tagged_indirect_calls_roundtrip_at_arity_three() {
        // Three functions of identical signature, all called indirectly
        // through a pointer chosen at runtime — the hard case the tag
        // mechanism exists for.
        let mut m = Module::new("t");
        let mut fns = Vec::new();
        for (name, mul) in [("h1", 2i64), ("h2", 3), ("h3", 4)] {
            let mut fb = FunctionBuilder::new(name, Type::I64);
            let p = fb.add_param(Type::I64);
            let r = fb.bin(
                BinOp::Mul,
                Type::I64,
                Operand::local(p),
                Operand::const_int(Type::I64, mul),
            );
            fb.ret(Some(Operand::local(r)));
            fns.push(m.push_function(fb.finish()));
        }
        let mut main = FunctionBuilder::new("main", Type::I64);
        let mut acc = main.iconst(Type::I64, 0);
        for (i, &f) in fns.iter().enumerate() {
            let fp = main.funcaddr(f);
            let r = main
                .call_indirect(
                    Operand::local(fp),
                    Type::I64,
                    vec![Operand::const_int(Type::I64, i as i64 + 1)],
                )
                .unwrap();
            let n = main.bin(
                BinOp::Add,
                Type::I64,
                Operand::local(acc),
                Operand::local(r),
            );
            acc = n;
        }
        main.ret(Some(Operand::local(acc)));
        m.push_function(main.finish());
        let want = khaos_vm::run_function(&m, "main", &[]).unwrap().exit_code;
        assert_eq!(want, 2 + 6 + 12);

        let mut ctx = KhaosContext::new(0xC3);
        let infos = run_n(&mut m, &mut ctx, 3, |_| true);
        assert_eq!(infos.len(), 1);
        assert!(
            infos[0].used_tags,
            "address-taken constituents must be tagged"
        );
        khaos_ir::verify::assert_valid(&m);
        let got = khaos_vm::run_function(&m, "main", &[]).unwrap().exit_code;
        assert_eq!(want, got);
    }

    #[test]
    fn arity_two_matches_pair_semantics() {
        // run_n(.., 2, ..) must behave like the paper's pair fusion
        // (modulo tag layout): behaviour preserved, one fusFunc per pair.
        let mut m = Module::new("t");
        for (name, c) in [("p", 11i64), ("q", 13), ("r", 17), ("s", 19)] {
            let mut fb = FunctionBuilder::new(name, Type::I64);
            let x = fb.add_param(Type::I64);
            let v = fb.bin(
                BinOp::Add,
                Type::I64,
                Operand::local(x),
                Operand::const_int(Type::I64, c),
            );
            fb.ret(Some(Operand::local(v)));
            m.push_function(fb.finish());
        }
        let ids: Vec<FuncId> = m.iter_functions().map(|(id, _)| id).collect();
        let mut main = FunctionBuilder::new("main", Type::I64);
        let mut acc = main.iconst(Type::I64, 0);
        for &f in &ids {
            let r = main.call(f, Type::I64, vec![Operand::local(acc)]).unwrap();
            acc = r;
        }
        main.ret(Some(Operand::local(acc)));
        m.push_function(main.finish());
        let want = khaos_vm::run_function(&m, "main", &[]).unwrap().exit_code;

        let mut ctx = KhaosContext::new(0xD4);
        let infos = run_n(&mut m, &mut ctx, 2, |_| true);
        assert_eq!(infos.len(), 2, "four functions pair into two groups");
        khaos_ir::verify::assert_valid(&m);
        let got = khaos_vm::run_function(&m, "main", &[]).unwrap().exit_code;
        assert_eq!(want, got);
    }
}
