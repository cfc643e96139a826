//! Reference implementations of the scalar passes as they were before
//! they became near-linear, and the tests that pin the fast passes to
//! them function by function.
//!
//! * [`dce`] recomputes the CFG and liveness every round until a round
//!   removes nothing.
//! * [`simplifycfg`] merges one block per round, cloning the successor.

use crate::{constprop, cse, dfe, inline, mem2reg, optimize, OptOptions};
use khaos_ir::analysis::liveness::LocalSet;
use khaos_ir::builder::FunctionBuilder;
use khaos_ir::rewrite::{remove_blocks, retarget_edges};
use khaos_ir::{
    BinOp, BlockId, Callee, Cfg, CmpPred, Function, Liveness, Module, Operand, Term, Type,
};

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

/// `optimize(m, O2+lto)` with every scalar cleanup checked; asserts the
/// result equals the unchecked pipeline's.
fn checked_o2_lto(m: &mut Module, what: &str) {
    let mut plain = m.clone();
    optimize(&mut plain, &OptOptions::baseline());
    checked_scalar(m, what);
    inline::run_module(
        m,
        &inline::InlineOptions {
            threshold: 48,
            allow_exported: true,
        },
    );
    checked_scalar(m, what);
    dfe::run_module(m);
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
