//! Reference implementations of the passes as they were before they
//! became near-linear, and the tests that pin the fast passes to them
//! function by function (module by module for the inliner and DFE).
//!
//! * [`dce`] recomputes the CFG and liveness every round until a round
//!   removes nothing.
//! * [`simplifycfg`] merges one block per round, cloning the successor.
//! * [`inline_module`] rescans the caller from its entry after every
//!   inlined site, counts the callee's size at every call it scans, and
//!   splices through two clones and two `HashMap`s of remapped ids.
//! * [`dfe_module`] rescans the whole module once per layer of dead
//!   functions.

use crate::inline::InlineOptions;
use crate::{constprop, cse, dfe, inline, mem2reg, optimize, simplifycfg, OptOptions};
use khaos_ir::analysis::liveness::LocalSet;
use khaos_ir::builder::FunctionBuilder;
use khaos_ir::rewrite::{import_locals, remap_block, remove_blocks, retarget_edges};
use khaos_ir::{
    BinOp, Block, BlockId, CallGraph, Callee, Cfg, CmpPred, FuncId, Function, GInit, Global, Inst,
    Linkage, Liveness, LocalId, Module, Operand, Term, Type,
};
use std::collections::HashMap;

/// Dead code elimination, one full CFG and liveness solve per round.
fn dce(f: &mut Function) -> usize {
    let mut removed = 0;
    loop {
        let cfg = Cfg::compute(f);
        let lv = Liveness::compute(f, &cfg);
        let mut round = 0;
        for (b, block) in f.blocks.iter_mut().enumerate() {
            let bid = BlockId::new(b);
            let mut live: LocalSet = lv.live_out(bid).clone();
            block.term.for_each_use(|o| {
                if let Some(l) = o.as_local() {
                    live.insert(l);
                }
            });
            let mut keep = vec![true; block.insts.len()];
            for (i, inst) in block.insts.iter().enumerate().rev() {
                let dead = match inst.def() {
                    Some(d) => !live.contains(d),
                    None => false,
                };
                if dead && inst.is_pure() {
                    keep[i] = false;
                    round += 1;
                    continue;
                }
                if let Some(d) = inst.def() {
                    live.remove(d);
                }
                inst.for_each_use(|o| {
                    if let Some(l) = o.as_local() {
                        live.insert(l);
                    }
                });
            }
            if round > 0 {
                let mut it = keep.iter();
                block
                    .insts
                    .retain(|_| *it.next().expect("keep mask aligned"));
            }
        }
        if round == 0 {
            return removed;
        }
        removed += round;
    }
}

/// CFG simplification, at most one merge per round.
fn simplifycfg(f: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let mut round = false;
        let cfg = Cfg::compute(f);
        let dead: Vec<BlockId> = f
            .iter_blocks()
            .map(|(b, _)| b)
            .filter(|b| !cfg.is_reachable(*b))
            .collect();
        if !dead.is_empty() {
            remove_blocks(f, &dead);
            round = true;
        }
        for b in 1..f.blocks.len() {
            let bid = BlockId::new(b);
            let block = f.block(bid);
            if block.insts.is_empty() && !block.is_pad() {
                if let Term::Jump(t) = block.term {
                    if t != bid && !f.block(t).is_pad() {
                        retarget_edges(f, bid, t);
                        round = true;
                    }
                }
            }
        }
        let cfg = Cfg::compute(f);
        for b in 0..f.blocks.len() {
            let bid = BlockId::new(b);
            if !cfg.is_reachable(bid) {
                continue;
            }
            let Term::Jump(t) = f.block(bid).term else {
                continue;
            };
            if t == bid || t == f.entry() || f.block(t).is_pad() || cfg.preds(t).len() != 1 {
                continue;
            }
            let succ_block = f.block(t).clone();
            let this = f.block_mut(bid);
            this.insts.extend(succ_block.insts);
            this.term = succ_block.term;
            round = true;
            break;
        }
        if !round {
            return changed;
        }
        changed = true;
    }
}

/// The inliner, rescanning the caller from its entry after every site.
fn inline_module(m: &mut Module, opts: &InlineOptions) -> usize {
    let cg = CallGraph::compute(m);
    let mut order: Vec<FuncId> = m.iter_functions().map(|(id, _)| id).collect();
    order.sort_by_key(|f| cg.callees(*f).len());

    let mut inlined = 0;
    for caller in order {
        let base_size = m.function(caller).inst_count();
        let budget = base_size * 2 + opts.threshold * 2;
        let mut grown = 0usize;
        while let Some((bb, idx, callee)) = find_candidate(m, caller, opts) {
            let callee_size = m.function(callee).inst_count();
            if grown + callee_size > budget {
                break;
            }
            inline_site(m, caller, bb, idx, callee);
            grown += callee_size;
            inlined += 1;
        }
    }
    inlined
}

fn find_candidate(
    m: &Module,
    caller: FuncId,
    opts: &InlineOptions,
) -> Option<(BlockId, usize, FuncId)> {
    let f = m.function(caller);
    for (b, block) in f.iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            let Inst::Call {
                callee: Callee::Direct(t),
                args,
                ..
            } = inst
            else {
                continue;
            };
            if *t == caller {
                continue;
            }
            let g = m.function(*t);
            if g.variadic
                || args.len() != g.param_count as usize
                || g.inst_count() > opts.threshold
                || (g.linkage == Linkage::Exported && !opts.allow_exported)
                || g.has_annotation("noinline")
            {
                continue;
            }
            return Some((b, i, *t));
        }
    }
    None
}

fn inline_site(m: &mut Module, caller: FuncId, bb: BlockId, idx: usize, callee: FuncId) {
    let g = m.function(callee).clone();
    let f = m.function_mut(caller);

    let Inst::Call { dst, args, .. } = f.block(bb).insts[idx].clone() else {
        panic!("inline_site target is not a call");
    };
    let lmap = import_locals(f, &g);
    let tail_insts: Vec<Inst> = f.block(bb).insts[idx + 1..].to_vec();
    let old_term = f.block(bb).term.clone();
    let join = f.push_block(Block {
        insts: tail_insts,
        term: old_term,
        pad: None,
    });
    let mut bmap: HashMap<BlockId, BlockId> = HashMap::new();
    for (i, _) in g.blocks.iter().enumerate() {
        let placeholder = f.push_block(Block::with_term(Term::Unreachable));
        bmap.insert(BlockId::new(i), placeholder);
    }
    for (i, gb) in g.blocks.iter().enumerate() {
        let mut nb = gb.clone();
        remap_block(&mut nb, &lmap, &bmap);
        if let Term::Ret(v) = nb.term.clone() {
            if let (Some(d), Some(val)) = (dst, v) {
                let ty = f.local_ty(d);
                nb.insts.push(Inst::Copy {
                    ty,
                    dst: d,
                    src: val,
                });
            }
            nb.term = Term::Jump(join);
        }
        *f.block_mut(bmap[&BlockId::new(i)]) = nb;
    }
    f.block_mut(bb).insts.truncate(idx);
    for (i, a) in args.iter().enumerate() {
        let param = lmap[&LocalId::new(i)];
        let pty = f.local_ty(param);
        f.block_mut(bb).insts.push(Inst::Copy {
            ty: pty,
            dst: param,
            src: *a,
        });
    }
    for i in g.param_count as usize..g.locals.len() {
        let mapped = lmap[&LocalId::new(i)];
        let ty = f.local_ty(mapped);
        f.block_mut(bb).insts.push(Inst::Copy {
            ty,
            dst: mapped,
            src: Operand::zero(ty),
        });
    }
    f.block_mut(bb).term = Term::Jump(bmap[&g.entry()]);
}

/// Dead function elimination, one scan of the whole module per layer of
/// dead functions.
fn dfe_module(m: &mut Module) -> usize {
    let mut referenced = vec![false; m.functions.len()];
    for (i, f) in m.functions.iter().enumerate() {
        if f.linkage == Linkage::Exported || f.name == "main" {
            referenced[i] = true;
        }
    }
    let mark = |c: &Callee, referenced: &mut Vec<bool>| {
        if let Callee::Direct(t) = c {
            referenced[t.index()] = true;
        }
    };
    for f in &m.functions {
        for b in &f.blocks {
            for inst in &b.insts {
                match inst {
                    Inst::Call { callee, .. } => mark(callee, &mut referenced),
                    Inst::FuncAddr { func, .. } => referenced[func.index()] = true,
                    _ => {}
                }
            }
            if let Term::Invoke { callee, .. } = &b.term {
                mark(callee, &mut referenced);
            }
        }
    }
    for g in &m.globals {
        for init in &g.init {
            if let GInit::FuncPtr { func, .. } = init {
                referenced[func.index()] = true;
            }
        }
    }
    let dead = referenced.iter().filter(|r| !**r).count();
    if dead == 0 {
        return 0;
    }
    let mut map: HashMap<FuncId, FuncId> = HashMap::new();
    let old: Vec<Function> = std::mem::take(&mut m.functions);
    for (i, f) in old.into_iter().enumerate() {
        if referenced[i] {
            map.insert(FuncId::new(i), FuncId::new(m.functions.len()));
            m.functions.push(f);
        }
    }
    let remap = |c: &mut Callee| {
        if let Callee::Direct(t) = c {
            *t = map[t];
        }
    };
    for f in &mut m.functions {
        for b in &mut f.blocks {
            for inst in &mut b.insts {
                match inst {
                    Inst::Call { callee, .. } => remap(callee),
                    Inst::FuncAddr { func, .. } => *func = map[func],
                    _ => {}
                }
            }
            if let Term::Invoke { callee, .. } = &mut b.term {
                remap(callee);
            }
        }
    }
    for g in &mut m.globals {
        for init in &mut g.init {
            if let GInit::FuncPtr { func, .. } = init {
                *func = map[func];
            }
        }
    }
    dead + dfe_module(m)
}

/// Runs the fast inliner on `m`, asserting it inlines the same number of
/// sites and builds the same module as [`inline_module`].
fn check_inline(m: &mut Module, opts: &InlineOptions, what: &str) {
    let mut r = m.clone();
    let (got, want) = (inline::run_module(m, opts), inline_module(&mut r, opts));
    assert_eq!(got, want, "inline count on {what} ({opts:?})");
    assert!(
        *m == r,
        "inline output differs from the reference on {what} ({opts:?})"
    );
}

/// Runs the fast DFE on `m`, asserting it removes the same functions as
/// [`dfe_module`].
fn check_dfe(m: &mut Module, what: &str) {
    let mut r = m.clone();
    let (got, want) = (dfe::run_module(m), dfe_module(&mut r));
    assert_eq!(got, want, "dfe removal count on {what}");
    assert!(*m == r, "dfe output differs from the reference on {what}");
}

/// Runs the fast DCE and simplifycfg on `f`, asserting each matches its
/// reference on the same input (result and returned value).
fn check_function(f: &mut Function, what: &str) {
    let mut r = f.clone();
    let (got, want) = (crate::dce::run_function(f), dce(&mut r));
    assert_eq!(got, want, "dce removal count on {what}/{}", f.name);
    assert!(
        *f == r,
        "dce output differs from the reference on {what}/{}",
        f.name
    );
    let mut r = f.clone();
    let (got, want) = (crate::simplifycfg::run_function(f), simplifycfg(&mut r));
    assert_eq!(got, want, "simplifycfg result on {what}/{}", f.name);
    assert!(
        *f == r,
        "simplifycfg output differs from the reference on {what}/{}",
        f.name
    );
}

/// `optimize_scalar`, checking DCE and simplifycfg against their
/// references on every function.
fn checked_scalar(m: &mut Module, what: &str) {
    for f in &mut m.functions {
        mem2reg::run_function(f);
        constprop::run_function(f);
        cse::run_function(f);
        check_function(f, what);
    }
}

/// `optimize(m, O2+lto)` with every scalar cleanup, the inliner and DFE
/// checked; asserts the result equals the unchecked pipeline's.
fn checked_o2_lto(m: &mut Module, what: &str) {
    let mut plain = m.clone();
    optimize(&mut plain, &OptOptions::baseline());
    checked_scalar(m, what);
    check_inline(
        m,
        &InlineOptions {
            threshold: 48,
            allow_exported: true,
        },
        what,
    );
    checked_scalar(m, what);
    check_dfe(m, what);
    assert!(
        *m == plain,
        "checked O2+lto differs from optimize on {what}"
    );
}

/// The `--quick` program set: the trimmed T-I (6), T-II (8) and T-III
/// (2) suites, plus the Figure-9 programs among T-I's.
fn quick_programs() -> Vec<Module> {
    let mut t1 = khaos_workloads::spec2006();
    t1.extend(khaos_workloads::spec2017());
    let fig9 = ["400.perlbench", "401.bzip2", "429.mcf", "445.gobmk"];
    let mut v: Vec<Module> = t1.iter().take(6).cloned().collect();
    for m in t1.into_iter().filter(|m| fig9.contains(&m.name.as_str())) {
        if !v.iter().any(|have| have.name == m.name) {
            v.push(m);
        }
    }
    v.extend(khaos_workloads::coreutils().into_iter().take(8));
    v.extend(khaos_workloads::tiii().into_iter().take(2));
    v
}

/// The obfuscation atoms of Figure 7's nine configurations.
const FIG7_ATOMS: [&str; 9] = [
    "sub",
    "bog",
    "fla",
    "fla(ratio=0.1)",
    "fission",
    "fusion",
    "fufi_sep",
    "fufi_ori",
    "fufi_all",
];

#[test]
fn quick_programs_match_reference_raw_and_after_each_fig7_atom() {
    for src in quick_programs() {
        let mut base = src.clone();
        checked_o2_lto(&mut base, &src.name);
        for atom in FIG7_ATOMS {
            let pipeline = khaos_pass::Pipeline::parse(atom).expect("fig7 atom parses");
            let mut obf = base.clone();
            let mut ctx = khaos_pass::PassCtx::new(0xC60_2023);
            pipeline
                .run(&mut obf, &mut ctx)
                .unwrap_or_else(|e| panic!("{atom} on {}: {e}", src.name));
            checked_o2_lto(&mut obf, &format!("{}/{atom}", src.name));
        }
    }
}

/// p → a = p + 1 → b = a * 2 → c = b + 3 → ret p, one def per block.
fn dead_chain_over_three_blocks() -> Function {
    let mut fb = FunctionBuilder::new("chain", Type::I64);
    let p = fb.add_param(Type::I64);
    let (b1, b2) = (fb.new_block(), fb.new_block());
    let a = fb.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(p),
        Operand::const_int(Type::I64, 1),
    );
    fb.jump(b1);
    fb.switch_to(b1);
    let b = fb.bin(
        BinOp::Mul,
        Type::I64,
        Operand::local(a),
        Operand::const_int(Type::I64, 2),
    );
    fb.jump(b2);
    fb.switch_to(b2);
    fb.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(b),
        Operand::const_int(Type::I64, 3),
    );
    fb.ret(Some(Operand::local(p)));
    fb.finish()
}

/// x = x + 1 around a loop whose exit never reads x.
fn dead_loop_carried_increment() -> Function {
    let mut fb = FunctionBuilder::new("loop", Type::I64);
    let p = fb.add_param(Type::I64);
    let x = fb.new_local(Type::I64);
    let (h, exit) = (fb.new_block(), fb.new_block());
    fb.copy_to(x, Operand::const_int(Type::I64, 0));
    fb.jump(h);
    fb.switch_to(h);
    let nx = fb.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(x),
        Operand::const_int(Type::I64, 1),
    );
    fb.copy_to(x, Operand::local(nx));
    let c = fb.cmp(
        CmpPred::Slt,
        Type::I64,
        Operand::local(nx),
        Operand::local(p),
    );
    fb.branch(Operand::local(c), h, exit);
    fb.switch_to(exit);
    fb.ret(Some(Operand::const_int(Type::I64, 0)));
    fb.finish()
}

/// An invoke whose landing pad binds the exception and a dead copy of it,
/// with a dead computation on the normal edge.
fn landing_pad_destination() -> Function {
    let mut fb = FunctionBuilder::new("pad", Type::I64);
    let p = fb.add_param(Type::Ptr);
    let normal = fb.new_block();
    let exc = fb.new_local(Type::I64);
    let pad = fb.new_pad_block(Some(exc));
    let r = fb
        .invoke(
            Callee::Indirect(Operand::local(p)),
            Type::I64,
            vec![],
            normal,
            pad,
        )
        .expect("non-void invoke binds a result");
    fb.switch_to(normal);
    fb.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(r),
        Operand::const_int(Type::I64, 1),
    );
    fb.ret(Some(Operand::local(r)));
    fb.switch_to(pad);
    fb.copy(Type::I64, Operand::local(exc));
    fb.ret(Some(Operand::local(exc)));
    fb.finish()
}

/// A 70-deep chain of defs over more than one word of locals, every
/// other one dead, split over blocks that merge back into one.
fn more_than_64_locals() -> Function {
    let mut fb = FunctionBuilder::new("wide", Type::I64);
    let mut acc = fb.add_param(Type::I64);
    for i in 0..70 {
        let v = fb.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(acc),
            Operand::const_int(Type::I64, i),
        );
        if i % 2 == 0 {
            acc = v;
        }
        if i % 10 == 9 {
            let next = fb.new_block();
            fb.jump(next);
            fb.switch_to(next);
        }
    }
    fb.ret(Some(Operand::local(acc)));
    let f = fb.finish();
    assert!(f.locals.len() > 64);
    f
}

#[test]
fn hand_built_cases_match_reference() {
    for mut f in [
        dead_chain_over_three_blocks(),
        dead_loop_carried_increment(),
        landing_pad_destination(),
        more_than_64_locals(),
    ] {
        check_function(&mut f, "hand-built");
    }
}

#[test]
fn dead_chain_over_three_blocks_needs_several_rounds() {
    let mut f = dead_chain_over_three_blocks();
    assert_eq!(crate::dce::run_function(&mut f), 3);
    assert!(f.blocks.iter().all(|b| b.insts.is_empty()));
}

#[test]
fn dead_loop_carried_increment_survives() {
    let mut f = dead_loop_carried_increment();
    let before = f.clone();
    assert_eq!(
        crate::dce::run_function(&mut f),
        0,
        "x feeds itself around the loop"
    );
    assert_eq!(f, before);
}

#[test]
fn landing_pad_keeps_its_binding() {
    let mut f = landing_pad_destination();
    assert_eq!(
        crate::dce::run_function(&mut f),
        2,
        "the dead add and the dead copy"
    );
    let pad = f.blocks.iter().find(|b| b.is_pad()).expect("pad survives");
    assert!(pad.insts.is_empty());
    assert!(pad.pad.as_ref().is_some_and(|p| p.dst.is_some()));
}

#[test]
fn wide_function_drops_every_dead_def() {
    let mut f = more_than_64_locals();
    assert_eq!(crate::dce::run_function(&mut f), 35);
    assert!(crate::simplifycfg::run_function(&mut f));
    assert_eq!(
        f.blocks.len(),
        1,
        "the straight-line blocks merge into the entry"
    );
}

/// `rounds` rounds of `cse | simplifycfg | inline(opts)` on `src`, the
/// inliner checked against its reference after every round and DFE on a
/// copy after every round.
fn checked_tuner_rounds(src: &Module, opts: &InlineOptions, rounds: usize) {
    let mut m = src.clone();
    for round in 1..=rounds {
        let what = format!("{} round {round}", src.name);
        for f in &mut m.functions {
            cse::run_function(f);
            simplifycfg::run_function(f);
        }
        check_inline(&mut m, opts, &what);
        check_dfe(&mut m.clone(), &what);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "every --quick program under 24 inliner sweeps: run with --release"
)]
fn quick_programs_match_inline_and_dfe_references() {
    for src in quick_programs() {
        check_dfe(&mut src.clone(), &src.name);
        for threshold in [16, 48, 96, 160] {
            for allow_exported in [false, true] {
                let opts = InlineOptions {
                    threshold,
                    allow_exported,
                };
                checked_tuner_rounds(&src, &opts, 3);
            }
        }
    }
}

/// `helper(p) = p + 1 + 2 + … + 9` (ten instructions) and a `main` that
/// calls it `calls` times, one call per block, summing the results.
fn caller_over_many_blocks(calls: usize) -> Module {
    let mut m = Module::new("budget");
    let mut h = FunctionBuilder::new("helper", Type::I64);
    let mut r = h.add_param(Type::I64);
    for k in 1..10 {
        r = h.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(r),
            Operand::const_int(Type::I64, k),
        );
    }
    h.ret(Some(Operand::local(r)));
    let hid = m.push_function(h.finish());

    let mut main = FunctionBuilder::new("main", Type::I64);
    let mut acc = main.bin(
        BinOp::Add,
        Type::I64,
        Operand::const_int(Type::I64, 0),
        Operand::const_int(Type::I64, 0),
    );
    for i in 0..calls {
        let v = main
            .call(
                hid,
                Type::I64,
                vec![Operand::const_int(Type::I64, i as i64)],
            )
            .expect("helper returns a value");
        acc = main.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(acc),
            Operand::local(v),
        );
        let next = main.new_block();
        main.jump(next);
        main.switch_to(next);
    }
    main.ret(Some(Operand::local(acc)));
    m.push_function(main.finish());
    khaos_ir::verify::assert_valid(&m);
    m
}

#[test]
fn caller_budget_runs_out_in_the_middle_of_a_scan() {
    // main has 1 + 3 * 24 + 1 = 74 instructions, so its budget is
    // 2 * 74 + 2 * 10 = 168: sixteen 10-instruction helpers fit, the
    // other eight calls stay, and the scan stops at a block in the middle.
    let src = caller_over_many_blocks(24);
    let opts = InlineOptions {
        threshold: 10,
        allow_exported: true,
    };
    assert_eq!(src.function(FuncId::new(0)).inst_count(), 10);
    assert_eq!(src.function(FuncId::new(1)).inst_count(), 74);
    let mut m = src.clone();
    check_inline(&mut m, &opts, "budget");
    let (_, main) = m.function_by_name("main").expect("main survives");
    let calls_left = main
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|i| matches!(i, Inst::Call { .. }))
        .count();
    assert_eq!(calls_left, 8, "the budget stops inlining part way");
    khaos_ir::verify::assert_valid(&m);
    let want = khaos_vm::run_function(&src, "main", &[]).expect("source runs");
    let got = khaos_vm::run_function(&m, "main", &[]).expect("inlined runs");
    assert_eq!(got.exit_code, want.exit_code);
}

/// `guarded(p)` invokes `p` indirectly with a landing pad that returns
/// the exception value; `main` calls `guarded` twice.
fn callee_with_landing_pad() -> Module {
    let mut m = Module::new("pad");
    let gid = m.push_function(landing_pad_destination());
    let mut leaf = FunctionBuilder::new("leaf", Type::I64);
    leaf.ret(Some(Operand::const_int(Type::I64, 41)));
    let lid = m.push_function(leaf.finish());
    let mut main = FunctionBuilder::new("main", Type::I64);
    let fp = main.funcaddr(lid);
    let a = main
        .call(gid, Type::I64, vec![Operand::local(fp)])
        .expect("guarded returns a value");
    let b = main
        .call(gid, Type::I64, vec![Operand::local(fp)])
        .expect("guarded returns a value");
    let r = main.bin(BinOp::Add, Type::I64, Operand::local(a), Operand::local(b));
    main.ret(Some(Operand::local(r)));
    m.push_function(main.finish());
    khaos_ir::verify::assert_valid(&m);
    m
}

#[test]
fn callee_with_landing_pad_matches_reference() {
    let src = callee_with_landing_pad();
    let mut m = src.clone();
    check_inline(&mut m, &InlineOptions::default(), "landing pad");
    let (_, main) = m.function_by_name("main").expect("main survives");
    assert_eq!(
        main.blocks.iter().filter(|b| b.is_pad()).count(),
        2,
        "each inlined copy brings its own landing pad"
    );
    khaos_ir::verify::assert_valid(&m);
    let want = khaos_vm::run_function(&src, "main", &[]).expect("source runs");
    let got = khaos_vm::run_function(&m, "main", &[]).expect("inlined runs");
    assert_eq!(got.exit_code, want.exit_code);
    assert_eq!(got.exit_code, 82);
}

/// A module of `main` plus internal functions named by `calls`: each
/// entry `(name, callees)` calls the functions at those indices. `main`
/// is last and calls nothing.
fn call_web(calls: &[(&str, &[usize])]) -> Module {
    let mut m = Module::new("web");
    for (name, callees) in calls {
        let mut fb = FunctionBuilder::new(*name, Type::Void);
        for c in *callees {
            fb.call(FuncId::new(*c), Type::Void, vec![]);
        }
        fb.ret(None);
        m.push_function(fb.finish());
    }
    let mut main = FunctionBuilder::new("main", Type::I64);
    main.ret(Some(Operand::const_int(Type::I64, 0)));
    m.push_function(main.finish());
    m
}

#[test]
fn dead_cycles_stay_and_dead_chains_go() {
    // A dead self-recursive function stays.
    let mut m = call_web(&[("selfrec", &[0])]);
    check_dfe(&mut m, "self-recursive");
    assert_eq!(m.functions.len(), 2);
    // A dead two-function cycle stays.
    let mut m = call_web(&[("ping", &[1]), ("pong", &[0])]);
    check_dfe(&mut m, "two-cycle");
    assert_eq!(m.functions.len(), 3);
    // A dead three-function chain goes, whatever the id order.
    let mut m = call_web(&[("c", &[]), ("a", &[2]), ("b", &[0])]);
    let mut r = m.clone();
    assert_eq!(dfe::run_module(&mut r), 3);
    check_dfe(&mut m, "chain");
    assert_eq!(m.functions.len(), 1);
    assert_eq!(m.functions[0].name, "main");
    // Survivors keep their order, and their references and a global's
    // function pointer are renumbered.
    let mut m = call_web(&[("dead", &[]), ("kept", &[]), ("user", &[1]), ("ring", &[3])]);
    m.functions[2].linkage = Linkage::Exported;
    m.push_global(Global {
        name: "table".into(),
        init: vec![GInit::FuncPtr {
            func: FuncId::new(1),
            addend: 0,
        }],
        align: 8,
        exported: false,
    });
    check_dfe(&mut m, "renumbered");
    let names: Vec<&str> = m.functions.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["kept", "user", "ring", "main"]);
    khaos_ir::verify::assert_valid(&m);
}
