//! Pair merging: building the `fusFunc`, rewriting call sites, tagging
//! function pointers and generating trampolines (paper §3.3.2–§3.3.3).

use super::prefix_compatible;
use crate::KhaosContext;
use khaos_ir::rewrite::{import_locals, remap_block};
use khaos_ir::{
    Block, BlockId, CallGraph, Callee, CastKind, CmpPred, FuncId, Function, GInit, Inst, Linkage,
    LocalId, Module, Operand, ProvKind, Provenance, Term, Type,
};
use std::collections::HashMap;
use std::ops::Range;

/// The tag attached to pointers to the first constituent (`ctrl == 0`):
/// bit 2 marks "points to a fusFunc".
pub const TAG_A: i64 = 0b0100;
/// The tag for the second constituent (`ctrl == 1`): bits 2 and 3.
pub const TAG_B: i64 = 0b1100;
/// Mask covering both tag bits.
pub const TAG_MASK: i64 = 0b1100;

/// What a pair fusion produced.
#[derive(Clone, Debug)]
pub struct FusedInfo {
    /// The new function.
    pub fus: FuncId,
    /// Whether tagged pointers were emitted (requires the indirect-call
    /// decode rewrite afterwards).
    pub used_tags: bool,
    /// Block index range of the first constituent's body inside the fus.
    pub a_side: Range<usize>,
    /// Block index range of the second constituent's body.
    pub b_side: Range<usize>,
    /// The `ctrl` parameter local (always `LocalId(0)`).
    pub ctrl: LocalId,
}

/// Where each original parameter landed in the merged list.
struct ParamLayout {
    /// Merged slot types (excluding `ctrl`).
    slots: Vec<Type>,
    /// `a_map[i]` = slot index of a's parameter `i`.
    a_map: Vec<usize>,
    /// `b_map[i]` = slot index of b's parameter `i`.
    b_map: Vec<usize>,
    /// Parameters saved by compression (the `#RP` statistic).
    compressed: usize,
}

fn merge_params(fa: &Function, fb: &Function, compression: bool) -> ParamLayout {
    let pa = fa.param_types();
    let pb = fb.param_types();
    let mut slots = Vec::new();
    let mut a_map = Vec::with_capacity(pa.len());
    let mut b_map = Vec::with_capacity(pb.len());
    let mut compressed = 0;
    if compression {
        let mut deferred_b: Vec<(usize, Type)> = Vec::new();
        for i in 0..pa.len().max(pb.len()) {
            match (pa.get(i), pb.get(i)) {
                (Some(&ta), Some(&tb)) => match ta.merged(tb) {
                    Some(t) => {
                        a_map.push(slots.len());
                        b_map.push(slots.len());
                        slots.push(t);
                        compressed += 1;
                    }
                    None => {
                        a_map.push(slots.len());
                        slots.push(ta);
                        deferred_b.push((i, tb));
                        b_map.push(usize::MAX); // patched below
                    }
                },
                (Some(&ta), None) => {
                    a_map.push(slots.len());
                    slots.push(ta);
                }
                (None, Some(&tb)) => {
                    b_map.push(slots.len());
                    slots.push(tb);
                }
                (None, None) => unreachable!(),
            }
        }
        for (i, tb) in deferred_b {
            b_map[i] = slots.len();
            slots.push(tb);
        }
    } else {
        for &t in pa {
            a_map.push(slots.len());
            slots.push(t);
        }
        for &t in pb {
            b_map.push(slots.len());
            slots.push(t);
        }
    }
    ParamLayout {
        slots,
        a_map,
        b_map,
        compressed,
    }
}

fn merged_ret(fa: &Function, fb: &Function) -> Type {
    match (fa.ret_ty, fb.ret_ty) {
        (Type::Void, Type::Void) => Type::Void,
        (Type::Void, t) | (t, Type::Void) => t,
        (a, b) => a
            .merged(b)
            .expect("selection guarantees compatible returns"),
    }
}

pub(super) fn widen_cast(from: Type, to: Type) -> Option<CastKind> {
    if from == to {
        return None;
    }
    Some(if from.is_float() {
        CastKind::FpExt
    } else {
        CastKind::SExt
    })
}

pub(super) fn narrow_cast(from: Type, to: Type) -> Option<CastKind> {
    if from == to {
        return None;
    }
    Some(if from.is_float() {
        CastKind::FpTrunc
    } else {
        CastKind::Trunc
    })
}

/// Fuses `a` and `b` into a new `fusFunc`; rewrites every reference in the
/// module; stubs or trampolines the originals.
pub fn fuse_pair(
    m: &mut Module,
    a: FuncId,
    b: FuncId,
    cg: &CallGraph,
    has_indirect_invoke: bool,
    ctx: &mut KhaosContext,
) -> FusedInfo {
    let fa = m.function(a).clone();
    let fb = m.function(b).clone();
    let layout = merge_params(&fa, &fb, ctx.options.parameter_compression);
    let fus_ret = merged_ret(&fa, &fb);
    ctx.fusion_stats.params_removed += layout.compressed;

    // ---- Build the fusFunc skeleton. ----
    let mut fus = Function::new(format!("{}_{}_fusion", fa.name, fb.name), fus_ret);
    fus.provenance = Provenance {
        kind: ProvKind::Fused,
        origins: fa
            .provenance
            .origins
            .iter()
            .chain(fb.provenance.origins.iter())
            .cloned()
            .collect(),
    };
    fus.annotations = fa
        .annotations
        .iter()
        .chain(fb.annotations.iter())
        .cloned()
        .collect();
    if !fus.annotations.iter().any(|a| a == "noinline") {
        // Keep the aggregation intact through later optimization.
        fus.annotations.push("noinline".to_string());
    }
    let ctrl = fus.new_local(Type::I32);
    for &t in &layout.slots {
        fus.new_local(t);
    }
    fus.param_count = 1 + layout.slots.len() as u32;

    // Locals for both bodies.
    let amap = import_locals(&mut fus, &fa);
    let bmap = import_locals(&mut fus, &fb);

    // Block layout: 0 dispatch, 1 adapterA, 2 adapterB, then bodies.
    let a_base = 3usize;
    let b_base = 3 + fa.blocks.len();
    let adapter_a = BlockId::new(1);
    let adapter_b = BlockId::new(2);

    let is_a = fus.new_local(Type::I1);
    fus.blocks[0] = Block {
        insts: vec![Inst::Cmp {
            pred: CmpPred::Eq,
            ty: Type::I32,
            dst: is_a,
            lhs: Operand::local(ctrl),
            rhs: Operand::const_int(Type::I32, 0),
        }],
        term: Term::Branch {
            cond: Operand::local(is_a),
            then_bb: adapter_a,
            else_bb: adapter_b,
        },
        pad: None,
    };

    // Adapters: move (and narrow) the slot values into each body's
    // parameter locals.
    let build_adapter = |_fus: &mut Function,
                         orig: &Function,
                         map: &HashMap<LocalId, LocalId>,
                         slot_of: &[usize],
                         entry_target: BlockId| {
        let mut insts = Vec::new();
        for (i, &ty) in orig.param_types().iter().enumerate() {
            let slot_local = LocalId::new(1 + slot_of[i]);
            let slot_ty = layout.slots[slot_of[i]];
            let dst = map[&LocalId::new(i)];
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
        Block {
            insts,
            term: Term::Jump(entry_target),
            pad: None,
        }
    };
    let adapter_a_block = build_adapter(&mut fus, &fa, &amap, &layout.a_map, BlockId::new(a_base));
    let adapter_b_block = build_adapter(&mut fus, &fb, &bmap, &layout.b_map, BlockId::new(b_base));
    fus.push_block(adapter_a_block);
    fus.push_block(adapter_b_block);
    debug_assert_eq!(fus.blocks.len(), a_base);

    // Copy the bodies, rewriting returns to the merged type.
    let copy_body =
        |fus: &mut Function, orig: &Function, map: &HashMap<LocalId, LocalId>, base: usize| {
            let bmap_blocks: HashMap<BlockId, BlockId> = (0..orig.blocks.len())
                .map(|i| (BlockId::new(i), BlockId::new(base + i)))
                .collect();
            for ob in &orig.blocks {
                let mut nb = ob.clone();
                remap_block(&mut nb, map, &bmap_blocks);
                if let Term::Ret(v) = nb.term.clone() {
                    nb.term = match (v, fus_ret, orig.ret_ty) {
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
        };
    copy_body(&mut fus, &fa, &amap, a_base);
    copy_body(&mut fus, &fb, &bmap, b_base);

    let fus_id = m.push_function(fus);

    // ---- Rewrite every direct call/invoke to a or b. ----
    let specs = [
        CallSpec {
            target: a,
            ctrl: 0,
            map: layout.a_map.clone(),
            orig_ret: fa.ret_ty,
        },
        CallSpec {
            target: b,
            ctrl: 1,
            map: layout.b_map.clone(),
            orig_ret: fb.ret_ty,
        },
    ];
    let slots = layout.slots.clone();
    for fi in 0..m.functions.len() {
        let fid = FuncId::new(fi);
        if fid == a || fid == b {
            continue; // bodies about to be replaced
        }
        rewrite_calls_in(m, fid, fus_id, fus_ret, &slots, &specs);
    }

    // ---- Pointer references: tags or trampolines. ----
    let can_tag =
        ctx.options.parameter_compression && !has_indirect_invoke && prefix_compatible(&fa, &fb);
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
            let tag = if spec.ctrl == 0 { TAG_A } else { TAG_B };
            rewrite_funcaddrs(m, x, fus_id, tag);
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

    FusedInfo {
        fus: fus_id,
        used_tags,
        a_side: a_base..a_base + fa.blocks.len(),
        b_side: b_base..b_base + fb.blocks.len(),
        ctrl,
    }
}

/// How calls to one constituent of a fused function are rewritten: which
/// `ctrl` value selects its body and where its arguments land in the
/// merged slot list. Shared by pair fusion and the N-way extension.
pub(super) struct CallSpec {
    pub(super) target: FuncId,
    pub(super) ctrl: i64,
    pub(super) map: Vec<usize>,
    pub(super) orig_ret: Type,
}

/// Builds the argument vector for a rewritten call, emitting widening
/// casts into `pre` as needed.
pub(super) fn build_fused_args(
    f: &mut Function,
    pre: &mut Vec<Inst>,
    slots: &[Type],
    spec: &CallSpec,
    args: &[Operand],
) -> Vec<Operand> {
    let mut new_args: Vec<Operand> = Vec::with_capacity(1 + slots.len());
    new_args.push(Operand::const_int(Type::I32, spec.ctrl));
    let mut by_slot: Vec<Option<Operand>> = vec![None; slots.len()];
    for (i, arg) in args.iter().enumerate() {
        let slot = spec.map[i];
        let slot_ty = slots[slot];
        // The original argument type is the callee's param type, which is
        // what the slot was merged from.
        let have = arg_type_for_slot(f, arg);
        by_slot[slot] = Some(match widen_cast_checked(have, slot_ty) {
            None => *arg,
            Some(kind) => {
                let w = f.new_local(slot_ty);
                pre.push(Inst::Cast {
                    kind,
                    dst: w,
                    src: *arg,
                    from: have,
                    to: slot_ty,
                });
                Operand::local(w)
            }
        });
    }
    for (k, v) in by_slot.into_iter().enumerate() {
        new_args.push(v.unwrap_or(Operand::zero(slots[k])));
    }
    new_args
}

fn arg_type_for_slot(f: &Function, arg: &Operand) -> Type {
    match arg {
        Operand::Local(l) => f.local_ty(*l),
        Operand::Const(c) => c.ty(),
    }
}

fn widen_cast_checked(from: Type, to: Type) -> Option<CastKind> {
    if from == to {
        None
    } else {
        debug_assert!(from.compatible(to) && from.size() <= to.size());
        widen_cast(from, to)
    }
}

pub(super) fn rewrite_calls_in(
    m: &mut Module,
    fid: FuncId,
    fus_id: FuncId,
    fus_ret: Type,
    slots: &[Type],
    specs: &[CallSpec],
) {
    let nblocks = m.function(fid).blocks.len();
    for bi in 0..nblocks {
        // --- instructions ---
        let old = std::mem::take(&mut m.function_mut(fid).blocks[bi].insts);
        let mut new_insts = Vec::with_capacity(old.len());
        for inst in old {
            let spec = match &inst {
                Inst::Call {
                    callee: Callee::Direct(t),
                    ..
                } => specs.iter().find(|s| s.target == *t),
                _ => None,
            };
            let Some(spec) = spec else {
                new_insts.push(inst);
                continue;
            };
            let Inst::Call { dst, args, .. } = inst else {
                unreachable!()
            };
            let f = m.function_mut(fid);
            let mut pre = Vec::new();
            let new_args = build_fused_args(f, &mut pre, slots, spec, &args);
            new_insts.extend(pre);
            match (dst, narrow_cast(fus_ret, spec.orig_ret)) {
                (Some(d), Some(kind)) if spec.orig_ret != Type::Void => {
                    let w = f.new_local(fus_ret);
                    new_insts.push(Inst::Call {
                        dst: Some(w),
                        callee: Callee::Direct(fus_id),
                        args: new_args,
                    });
                    new_insts.push(Inst::Cast {
                        kind,
                        dst: d,
                        src: Operand::local(w),
                        from: fus_ret,
                        to: spec.orig_ret,
                    });
                }
                (d, _) => {
                    new_insts.push(Inst::Call {
                        dst: d,
                        callee: Callee::Direct(fus_id),
                        args: new_args,
                    });
                }
            }
        }
        m.function_mut(fid).blocks[bi].insts = new_insts;

        // --- invoke terminator ---
        let term = m.function_mut(fid).blocks[bi].term.clone();
        if let Term::Invoke {
            dst,
            callee: Callee::Direct(t),
            args,
            normal,
            unwind,
        } = term
        {
            let Some(spec) = specs.iter().find(|s| s.target == t) else {
                continue;
            };
            let f = m.function_mut(fid);
            let mut pre = Vec::new();
            let new_args = build_fused_args(f, &mut pre, slots, spec, &args);
            f.blocks[bi].insts.extend(pre);
            let (new_dst, new_normal) = match (dst, narrow_cast(fus_ret, spec.orig_ret)) {
                (Some(d), Some(kind)) if spec.orig_ret != Type::Void => {
                    let w = f.new_local(fus_ret);
                    let shim = f.push_block(Block {
                        insts: vec![Inst::Cast {
                            kind,
                            dst: d,
                            src: Operand::local(w),
                            from: fus_ret,
                            to: spec.orig_ret,
                        }],
                        term: Term::Jump(normal),
                        pad: None,
                    });
                    (Some(w), shim)
                }
                (d, _) => (d, normal),
            };
            f.blocks[bi].term = Term::Invoke {
                dst: new_dst,
                callee: Callee::Direct(fus_id),
                args: new_args,
                normal: new_normal,
                unwind,
            };
        }
    }
}

/// Replaces every `funcaddr @x` with a tagged pointer to the fusFunc.
pub(super) fn rewrite_funcaddrs(m: &mut Module, x: FuncId, fus_id: FuncId, tag: i64) {
    for fi in 0..m.functions.len() {
        let f = m.function_mut(FuncId::new(fi));
        for bi in 0..f.blocks.len() {
            let old = std::mem::take(&mut f.blocks[bi].insts);
            let mut new_insts = Vec::with_capacity(old.len());
            for inst in old {
                match inst {
                    Inst::FuncAddr { dst, func } if func == x => {
                        let raw = LocalId::new(f.locals.len());
                        f.locals.push(Type::Ptr);
                        let as_int = LocalId::new(f.locals.len());
                        f.locals.push(Type::I64);
                        let tagged = LocalId::new(f.locals.len());
                        f.locals.push(Type::I64);
                        new_insts.push(Inst::FuncAddr {
                            dst: raw,
                            func: fus_id,
                        });
                        new_insts.push(Inst::Cast {
                            kind: CastKind::PtrToInt,
                            dst: as_int,
                            src: Operand::local(raw),
                            from: Type::Ptr,
                            to: Type::I64,
                        });
                        new_insts.push(Inst::Bin {
                            op: khaos_ir::BinOp::Or,
                            ty: Type::I64,
                            dst: tagged,
                            lhs: Operand::local(as_int),
                            rhs: Operand::const_int(Type::I64, tag),
                        });
                        new_insts.push(Inst::Cast {
                            kind: CastKind::IntToPtr,
                            dst,
                            src: Operand::local(tagged),
                            from: Type::I64,
                            to: Type::Ptr,
                        });
                    }
                    other => new_insts.push(other),
                }
            }
            f.blocks[bi].insts = new_insts;
        }
    }
}

/// Replaces `x`'s body with a forwarding trampoline to the fusFunc
/// (paper §3.3.3, cross-module handling). The name, signature and linkage
/// stay, so external callers and escaped pointers keep working.
pub(super) fn install_trampoline(
    m: &mut Module,
    x: FuncId,
    fus_id: FuncId,
    fus_ret: Type,
    slots: &[Type],
    spec: &CallSpec,
) {
    let f = m.function(x);
    let params: Vec<Type> = f.param_types().to_vec();
    let ret = f.ret_ty;
    let name = f.name.clone();
    let linkage = f.linkage;
    let origins = f.provenance.origins.clone();
    let annotations = f.annotations.clone();

    let mut nf = Function::new(name, ret);
    for &t in &params {
        nf.new_local(t);
    }
    nf.param_count = params.len() as u32;
    nf.linkage = linkage;
    nf.provenance = Provenance {
        kind: ProvKind::Trampoline,
        origins,
    };
    nf.annotations = annotations;

    let mut insts = Vec::new();
    let args: Vec<Operand> = (0..params.len())
        .map(|i| Operand::local(LocalId::new(i)))
        .collect();
    let mut pre = Vec::new();
    let new_args = build_fused_args(&mut nf, &mut pre, slots, spec, &args);
    insts.extend(pre);
    let term = if ret == Type::Void {
        insts.push(Inst::Call {
            dst: None,
            callee: Callee::Direct(fus_id),
            args: new_args,
        });
        Term::Ret(None)
    } else {
        match narrow_cast(fus_ret, ret) {
            None => {
                let r = nf.new_local(ret);
                insts.push(Inst::Call {
                    dst: Some(r),
                    callee: Callee::Direct(fus_id),
                    args: new_args,
                });
                Term::Ret(Some(Operand::local(r)))
            }
            Some(kind) => {
                let w = nf.new_local(fus_ret);
                let r = nf.new_local(ret);
                insts.push(Inst::Call {
                    dst: Some(w),
                    callee: Callee::Direct(fus_id),
                    args: new_args,
                });
                insts.push(Inst::Cast {
                    kind,
                    dst: r,
                    src: Operand::local(w),
                    from: fus_ret,
                    to: ret,
                });
                Term::Ret(Some(Operand::local(r)))
            }
        }
    };
    nf.blocks[0] = Block {
        insts,
        term,
        pad: None,
    };
    *m.function_mut(x) = nf;
}

/// Empties a dead original so LTO-style dead-function elimination sweeps
/// it away.
pub(super) fn stub_function(m: &mut Module, x: FuncId) {
    let f = m.function_mut(x);
    f.linkage = Linkage::Internal;
    let term = match f.ret_ty {
        Type::Void => Term::Ret(None),
        t => Term::Ret(Some(Operand::zero(t))),
    };
    f.blocks = vec![Block {
        insts: Vec::new(),
        term,
        pad: None,
    }];
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::builder::FunctionBuilder;

    fn func_with_params(name: &str, ret: Type, params: &[Type]) -> Function {
        let mut fb = FunctionBuilder::new(name, ret);
        for &p in params {
            fb.add_param(p);
        }
        match ret {
            Type::Void => fb.ret(None),
            t => fb.ret(Some(Operand::zero(t))),
        }
        fb.finish()
    }

    #[test]
    fn tag_constants_match_the_paper_layout() {
        // §A.1 / §3.3.3: flag on bit 2, ctrl on bit 3, bit 0 reserved.
        assert_eq!(TAG_A, 0b0100);
        assert_eq!(TAG_B, 0b1100);
        assert_eq!(TAG_MASK, TAG_A | TAG_B);
        assert_eq!(TAG_A & 1, 0);
        assert_eq!(TAG_B & 1, 0);
        // Both tags are non-zero under the mask (the decode's tag test)
        // and distinguished by bit 3 (the ctrl extraction).
        assert_ne!(TAG_A & TAG_MASK, 0);
        assert_ne!(TAG_B & TAG_MASK, 0);
        assert_eq!((TAG_A >> 3) & 1, 0);
        assert_eq!((TAG_B >> 3) & 1, 1);
    }

    #[test]
    fn param_merge_compresses_compatible_positions() {
        // Paper Figure 3(c): `short a` and `int m` share one slot.
        let bar = func_with_params("bar", Type::Void, &[Type::I16, Type::F32]);
        let foo = func_with_params("foo", Type::I32, &[Type::I32]);
        let l = merge_params(&bar, &foo, true);
        assert_eq!(l.slots, vec![Type::I32, Type::F32]);
        assert_eq!(l.a_map, vec![0, 1]);
        assert_eq!(l.b_map, vec![0]);
        assert_eq!(l.compressed, 1);
    }

    #[test]
    fn param_merge_defers_incompatible_positions() {
        let a = func_with_params("a", Type::Void, &[Type::F64, Type::I64]);
        let b = func_with_params("b", Type::Void, &[Type::I64, Type::I64]);
        let l = merge_params(&a, &b, true);
        // Position 0 cannot merge (f64 vs i64): b's goes to a trailing
        // slot; position 1 merges.
        assert_eq!(l.slots, vec![Type::F64, Type::I64, Type::I64]);
        assert_eq!(l.a_map, vec![0, 1]);
        assert_eq!(l.b_map, vec![2, 1]);
        assert_eq!(l.compressed, 1);
    }

    #[test]
    fn param_merge_without_compression_concatenates() {
        let a = func_with_params("a", Type::Void, &[Type::I32, Type::I32]);
        let b = func_with_params("b", Type::Void, &[Type::I32]);
        let l = merge_params(&a, &b, false);
        assert_eq!(l.slots.len(), 3, "worst case: na + nb slots (paper §3.3.2)");
        assert_eq!(l.compressed, 0);
    }

    #[test]
    fn return_type_determination_rules() {
        // Paper §3.3.2: void defers to the other; both non-void merge.
        let v = func_with_params("v", Type::Void, &[]);
        let i32_ = func_with_params("x", Type::I32, &[]);
        let i64_ = func_with_params("y", Type::I64, &[]);
        assert_eq!(merged_ret(&v, &v), Type::Void);
        assert_eq!(merged_ret(&v, &i32_), Type::I32);
        assert_eq!(merged_ret(&i32_, &v), Type::I32);
        assert_eq!(merged_ret(&i32_, &i64_), Type::I64, "widening merge");
    }

    #[test]
    fn cast_selection_is_lossless() {
        assert_eq!(widen_cast(Type::I32, Type::I32), None);
        assert_eq!(widen_cast(Type::I32, Type::I64), Some(CastKind::SExt));
        assert_eq!(widen_cast(Type::F32, Type::F64), Some(CastKind::FpExt));
        assert_eq!(narrow_cast(Type::I64, Type::I32), Some(CastKind::Trunc));
        assert_eq!(narrow_cast(Type::F64, Type::F32), Some(CastKind::FpTrunc));
        assert_eq!(narrow_cast(Type::F64, Type::F64), None);
    }

    #[test]
    fn stub_reduces_to_one_returning_block() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("victim", Type::I64);
        let p = fb.add_param(Type::I64);
        let t = fb.new_block();
        let e = fb.new_block();
        let c = fb.cmp(
            CmpPred::Sgt,
            Type::I64,
            Operand::local(p),
            Operand::zero(Type::I64),
        );
        fb.branch(Operand::local(c), t, e);
        fb.switch_to(t);
        fb.ret(Some(Operand::local(p)));
        fb.switch_to(e);
        fb.ret(Some(Operand::zero(Type::I64)));
        let mut f = fb.finish();
        f.linkage = Linkage::Exported;
        let id = m.push_function(f);

        stub_function(&mut m, id);
        let f = m.function(id);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(
            f.linkage,
            Linkage::Internal,
            "stub is internal so DFE sweeps it"
        );
        assert!(matches!(f.blocks[0].term, Term::Ret(Some(_))));
        khaos_ir::verify::assert_valid(&m);
    }

    #[test]
    fn trampoline_forwards_with_ctrl_and_zero_padding() {
        // A fusFunc f(ctrl: i32, x: i64) stands in for orig(x: i32); the
        // trampoline must widen the argument, pass ctrl = 1, and narrow
        // the result back.
        let mut m = Module::new("t");
        let mut fus = FunctionBuilder::new("fus", Type::I64);
        let ctrl = fus.add_param(Type::I32);
        let x = fus.add_param(Type::I64);
        let c = fus.cast(CastKind::SExt, Operand::local(ctrl), Type::I32, Type::I64);
        let s = fus.bin(
            khaos_ir::BinOp::Add,
            Type::I64,
            Operand::local(x),
            Operand::local(c),
        );
        fus.ret(Some(Operand::local(s)));
        let fus_id = m.push_function(fus.finish());

        let orig = func_with_params("orig", Type::I32, &[Type::I32]);
        let orig_id = m.push_function(orig);

        let spec = CallSpec {
            target: orig_id,
            ctrl: 1,
            map: vec![0],
            orig_ret: Type::I32,
        };
        install_trampoline(&mut m, orig_id, fus_id, Type::I64, &[Type::I64], &spec);
        khaos_ir::verify::assert_valid(&m);
        let f = m.function(orig_id);
        assert_eq!(f.provenance.kind, ProvKind::Trampoline);
        assert_eq!(f.param_count, 1, "the public signature is unchanged");

        // Calling the trampoline computes fus(1, widen(x)) = x + 1.
        let mut main = FunctionBuilder::new("main", Type::I64);
        let r = main
            .call(orig_id, Type::I32, vec![Operand::const_int(Type::I32, 41)])
            .unwrap();
        let w = main.cast(CastKind::SExt, Operand::local(r), Type::I32, Type::I64);
        main.ret(Some(Operand::local(w)));
        m.push_function(main.finish());
        let got = khaos_vm::run_function(&m, "main", &[]).unwrap();
        assert_eq!(got.exit_code, 42);
    }
}
