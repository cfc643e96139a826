//! Bottom-up function inlining with a size-based cost model.
//!
//! This is the optimization the paper leans on twice: the baseline build
//! inlines small functions (`O2 + LTO`), and after fission the thinned
//! `remFunc`s become inlinable into their callers — the source of the
//! negative-overhead cases in Figure 6.
//!
//! ## Cost
//!
//! Callers are visited once each, and each caller's loop is linear in
//! what it scans and splices:
//!
//! * Function sizes are counted once per [`run_module`]; a caller's size
//!   is refreshed when its loop ends. Only the caller is edited while it
//!   is visited, so its callees' sizes hold throughout.
//! * The scan for the next call site to inline resumes at the block after
//!   the site just inlined. Nothing before that site changed, nothing
//!   there was a candidate (candidacy depends on the callee alone), and
//!   the call block now ends in copies and a jump. The split-off tail and
//!   the callee's body are appended, so the scan still reaches them.
//! * A site is spliced with one clone of the callee's blocks. The callee's
//!   locals and blocks are appended to the caller's, so every id is
//!   remapped by adding a fixed offset.
//!
//! The inlined calls and the modules built are the same as rescanning
//! the caller from its entry after every site; the tests check this
//! against such a rescanning reference on every `--quick` program.

use khaos_ir::{
    Block, BlockId, CallGraph, Callee, FuncId, Function, Inst, Linkage, LocalId, Module, Operand,
    Term,
};

/// Inliner configuration.
#[derive(Clone, Copy, Debug)]
pub struct InlineOptions {
    /// Maximum callee size (instruction count) to inline.
    pub threshold: usize,
    /// Allow inlining bodies of exported functions into callers (the LTO
    /// whole-program assumption).
    pub allow_exported: bool,
}

impl Default for InlineOptions {
    fn default() -> Self {
        InlineOptions {
            threshold: 48,
            allow_exported: true,
        }
    }
}

/// Runs the inliner over the module. Returns the number of call sites
/// inlined.
pub fn run_module(m: &mut Module, opts: &InlineOptions) -> usize {
    let cg = CallGraph::compute(m);
    // Process callers in an order that tends to visit leaves first:
    // ascending by callee count.
    let mut order: Vec<FuncId> = m.iter_functions().map(|(id, _)| id).collect();
    order.sort_by_key(|f| cg.callees(*f).len());
    let mut sizes: Vec<usize> = m.functions.iter().map(Function::inst_count).collect();

    let mut inlined = 0;
    for caller in order {
        // Budget: don't let a function more than triple.
        let budget = sizes[caller.index()] * 2 + opts.threshold * 2;
        let mut grown = 0usize;
        let mut from = 0;
        while let Some((bb, idx, callee)) = find_candidate(m, caller, &sizes, opts, from) {
            let callee_size = sizes[callee.index()];
            if grown + callee_size > budget {
                break;
            }
            inline_site(m, caller, bb, idx, callee);
            grown += callee_size;
            inlined += 1;
            from = bb.index() + 1;
        }
        sizes[caller.index()] = m.function(caller).inst_count();
    }
    inlined
}

/// The first inlinable call site of `caller` in block `from` or later.
fn find_candidate(
    m: &Module,
    caller: FuncId,
    sizes: &[usize],
    opts: &InlineOptions,
    from: usize,
) -> Option<(BlockId, usize, FuncId)> {
    let f = m.function(caller);
    for (b, block) in f.blocks.iter().enumerate().skip(from) {
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
                continue; // no self-inline
            }
            let g = m.function(*t);
            if g.variadic
                || args.len() != g.param_count as usize
                || sizes[t.index()] > opts.threshold
                || (g.linkage == Linkage::Exported && !opts.allow_exported)
                || g.has_annotation("noinline")
            {
                continue;
            }
            return Some((BlockId::new(b), i, *t));
        }
    }
    None
}

/// Splices `callee`'s body in place of the call at `(bb, idx)` in `caller`.
fn inline_site(m: &mut Module, caller: FuncId, bb: BlockId, idx: usize, callee: FuncId) {
    let g = m.function(callee);
    let (params, locals, body) = (g.param_count as usize, g.locals.clone(), g.blocks.clone());
    let f = m.function_mut(caller);

    // Split the call block: `bb` keeps insts[..idx] and jumps into the
    // inlined entry (the callee's first block); `join` receives
    // insts[idx+1..] and the old terminator.
    let tail_insts = f.blocks[bb.index()].insts.split_off(idx + 1);
    let Some(Inst::Call { dst, args, .. }) = f.blocks[bb.index()].insts.pop() else {
        panic!("inline_site target is not a call");
    };
    let local_base = f.locals.len();
    f.locals.extend_from_slice(&locals);
    let join = BlockId::new(f.blocks.len());
    let block_base = join.index() + 1;
    let old_term = std::mem::replace(
        &mut f.blocks[bb.index()].term,
        Term::Jump(BlockId::new(block_base)),
    );
    f.push_block(Block {
        insts: tail_insts,
        term: old_term,
        pad: None,
    });

    // Append the callee's blocks, shifting locals and block ids past the
    // caller's.
    for mut nb in body {
        shift_block(&mut nb, local_base, block_base);
        // Rewrite returns into copies + jump to the join block.
        if let Term::Ret(v) = &nb.term {
            if let (Some(d), Some(val)) = (dst, *v) {
                let ty = f.local_ty(d);
                nb.insts.push(Inst::Copy {
                    ty,
                    dst: d,
                    src: val,
                });
            }
            nb.term = Term::Jump(join);
        }
        f.blocks.push(nb);
    }

    // Rewire the call block: arg copies then jump to the inlined entry.
    let insts = &mut f.blocks[bb.index()].insts;
    for (i, a) in args.into_iter().enumerate() {
        insts.push(Inst::Copy {
            ty: locals[i],
            dst: LocalId::new(local_base + i),
            src: a,
        });
    }
    // A call gives the callee a frame of zeroed locals; an inlined body
    // reuses the caller's locals, which would otherwise carry stale
    // values when the call site sits in a loop. Re-establish the
    // fresh-frame semantics explicitly (DCE removes the dead ones).
    for (i, &ty) in locals.iter().enumerate().skip(params) {
        insts.push(Inst::Copy {
            ty,
            dst: LocalId::new(local_base + i),
            src: Operand::zero(ty),
        });
    }
}

/// Renumbers a callee block appended to a caller: every local id moves
/// up by `locals`, every block id by `blocks`.
fn shift_block(b: &mut Block, locals: usize, blocks: usize) {
    let shift = |l: &mut LocalId| *l = LocalId::new(l.index() + locals);
    let shift_use = |o: &mut Operand| {
        if let Operand::Local(l) = o {
            shift(l);
        }
    };
    if let Some(d) = b.pad.as_mut().and_then(|p| p.dst.as_mut()) {
        shift(d);
    }
    for inst in &mut b.insts {
        if let Some(d) = inst.def_mut() {
            shift(d);
        }
        inst.for_each_use_mut(shift_use);
    }
    if let Term::Invoke { dst: Some(d), .. } = &mut b.term {
        shift(d);
    }
    b.term.for_each_use_mut(shift_use);
    b.term
        .for_each_successor_mut(|s| *s = BlockId::new(s.index() + blocks));
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::{BinOp, CmpPred, Operand, Type};
    use khaos_vm::run_function;

    fn module_with_helper() -> (Module, FuncId) {
        let mut m = Module::new("t");
        let mut h = FunctionBuilder::new("helper", Type::I64);
        let p = h.add_param(Type::I64);
        let t = h.new_block();
        let e = h.new_block();
        let c = h.cmp(
            CmpPred::Sgt,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 0),
        );
        h.branch(Operand::local(c), t, e);
        h.switch_to(t);
        let r1 = h.bin(
            BinOp::Mul,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 2),
        );
        h.ret(Some(Operand::local(r1)));
        h.switch_to(e);
        h.ret(Some(Operand::const_int(Type::I64, -1)));
        let hid = m.push_function(h.finish());
        (m, hid)
    }

    #[test]
    fn inlines_and_preserves_behaviour() {
        let (mut m, hid) = module_with_helper();
        let mut main = FunctionBuilder::new("main", Type::I64);
        let a = main
            .call(hid, Type::I64, vec![Operand::const_int(Type::I64, 21)])
            .unwrap();
        let b = main
            .call(hid, Type::I64, vec![Operand::const_int(Type::I64, -5)])
            .unwrap();
        let r = main.bin(BinOp::Add, Type::I64, Operand::local(a), Operand::local(b));
        main.ret(Some(Operand::local(r)));
        m.push_function(main.finish());
        khaos_ir::verify::assert_valid(&m);
        let before = run_function(&m, "main", &[]).unwrap();

        let n = run_module(&mut m, &InlineOptions::default());
        assert_eq!(n, 2);
        khaos_ir::verify::assert_valid(&m);
        let after = run_function(&m, "main", &[]).unwrap();
        assert_eq!(before.exit_code, after.exit_code);
        assert_eq!(after.exit_code, 42 - 1);
        // No calls remain in main.
        let (_, mainf) = m.function_by_name("main").unwrap();
        assert!(!mainf
            .blocks
            .iter()
            .any(|b| b.insts.iter().any(|i| matches!(i, Inst::Call { .. }))));
        assert!(
            after.cycles < before.cycles,
            "call overhead should disappear"
        );
    }

    #[test]
    fn respects_threshold() {
        let (mut m, hid) = module_with_helper();
        let mut main = FunctionBuilder::new("main", Type::I64);
        let a = main
            .call(hid, Type::I64, vec![Operand::const_int(Type::I64, 21)])
            .unwrap();
        main.ret(Some(Operand::local(a)));
        m.push_function(main.finish());
        let n = run_module(
            &mut m,
            &InlineOptions {
                threshold: 2,
                allow_exported: true,
            },
        );
        assert_eq!(n, 0, "helper exceeds tiny threshold");
    }

    #[test]
    fn inlined_locals_are_fresh_per_execution() {
        // Regression: a callee local read-before-written on one path must
        // see zero on EVERY execution, exactly as a fresh frame would —
        // not a stale value from the previous loop iteration.
        let mut m = Module::new("t");
        let mut h = FunctionBuilder::new("latch", Type::I64);
        let p = h.add_param(Type::I64);
        let x = h.new_local(Type::I64); // zero-init unless the branch writes it
        let setit = h.new_block();
        let out = h.new_block();
        let c = h.cmp(
            CmpPred::Sgt,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 0),
        );
        h.branch(Operand::local(c), setit, out);
        h.switch_to(setit);
        h.copy_to(x, Operand::const_int(Type::I64, 99));
        h.jump(out);
        h.switch_to(out);
        h.ret(Some(Operand::local(x)));
        let hid = m.push_function(h.finish());

        // main: call latch(1) then latch(0); second must return 0, not 99.
        let mut main = FunctionBuilder::new("main", Type::I64);
        let _first = main
            .call(hid, Type::I64, vec![Operand::const_int(Type::I64, 1)])
            .unwrap();
        let second = main
            .call(hid, Type::I64, vec![Operand::const_int(Type::I64, 0)])
            .unwrap();
        main.ret(Some(Operand::local(second)));
        m.push_function(main.finish());
        khaos_ir::verify::assert_valid(&m);
        assert_eq!(run_function(&m, "main", &[]).unwrap().exit_code, 0);

        run_module(&mut m, &InlineOptions::default());
        khaos_ir::verify::assert_valid(&m);
        assert_eq!(
            run_function(&m, "main", &[]).unwrap().exit_code,
            0,
            "inlined locals must behave like a fresh frame"
        );
    }

    #[test]
    fn no_self_inline() {
        let mut m = Module::new("t");
        let mut f = FunctionBuilder::new("rec", Type::I64);
        let p = f.add_param(Type::I64);
        f.ret(Some(Operand::local(p)));
        let fid = m.push_function(f.finish());
        // Patch a self call in.
        let fun = m.function_mut(fid);
        let d = fun.new_local(Type::I64);
        fun.blocks[0].insts.push(Inst::Call {
            dst: Some(d),
            callee: Callee::Direct(fid),
            args: vec![Operand::const_int(Type::I64, 1)],
        });
        let n = run_module(&mut m, &InlineOptions::default());
        assert_eq!(n, 0);
    }

    #[test]
    fn recursive_helper_callers_still_work() {
        // helper calls itself; caller inlines one level only (budget-capped).
        let mut m = Module::new("t");
        let mut h = FunctionBuilder::new("count", Type::I64);
        let p = h.add_param(Type::I64);
        let base = h.new_block();
        let rec = h.new_block();
        let c = h.cmp(
            CmpPred::Sle,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 0),
        );
        h.branch(Operand::local(c), base, rec);
        h.switch_to(base);
        h.ret(Some(Operand::const_int(Type::I64, 0)));
        h.switch_to(rec);
        let pm1 = h.bin(
            BinOp::Sub,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 1),
        );
        let hid_placeholder = FuncId(0); // self id known: first pushed
        let r = h
            .call(hid_placeholder, Type::I64, vec![Operand::local(pm1)])
            .unwrap();
        let r1 = h.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(r),
            Operand::const_int(Type::I64, 1),
        );
        h.ret(Some(Operand::local(r1)));
        let hid = m.push_function(h.finish());
        assert_eq!(hid, hid_placeholder);

        let mut main = FunctionBuilder::new("main", Type::I64);
        let a = main
            .call(hid, Type::I64, vec![Operand::const_int(Type::I64, 5)])
            .unwrap();
        main.ret(Some(Operand::local(a)));
        m.push_function(main.finish());
        khaos_ir::verify::assert_valid(&m);

        run_module(&mut m, &InlineOptions::default());
        khaos_ir::verify::assert_valid(&m);
        assert_eq!(run_function(&m, "main", &[]).unwrap().exit_code, 5);
    }
}
