//! End-to-end tests of the fission and fusion primitives: every transform
//! must preserve observable behaviour (differential execution on the VM)
//! and produce verifiable IR with the expected structure.
//!
//! The `bar`/`foo` pair mirrors the paper's Figure 3 fusion example, hence
//! the placeholder-name lint allowance.
#![allow(clippy::disallowed_names)]

use khaos_core::{fission, fufi_all, fufi_ori, fufi_sep, fusion, KhaosContext, KhaosOptions};
use khaos_ir::builder::FunctionBuilder;
use khaos_ir::{BinOp, Callee, CmpPred, ExtFunc, ExtId, FuncId, Module, Operand, ProvKind, Type};
use khaos_vm::{run_function, run_to_completion};

fn print_ext(m: &mut Module) -> ExtId {
    m.declare_external(ExtFunc {
        name: "print_i64".into(),
        params: vec![Type::I64],
        ret_ty: Type::Void,
        variadic: false,
    })
}

/// A `cal_file`-like function (paper Figure 1): entry checks, a cold
/// error path, a hot loop, and multiple returns.
fn cal_file_like(m: &mut Module) -> FuncId {
    let p = print_ext(m);
    let mut fb = FunctionBuilder::new("cal_file", Type::I64);
    let arg = fb.add_param(Type::I64);

    let check = fb.current();
    let cold1 = fb.new_block();
    let cold2 = fb.new_block();
    let loop_h = fb.new_block();
    let loop_b = fb.new_block();
    let done = fb.new_block();

    let i = fb.new_local(Type::I64);
    let value = fb.new_local(Type::I64);

    // entry: if (arg < 0) goto cold; i = arg; value = 0;
    let neg = fb.cmp(
        CmpPred::Slt,
        Type::I64,
        Operand::local(arg),
        Operand::const_int(Type::I64, 0),
    );
    fb.copy_to(i, Operand::local(arg));
    fb.copy_to(value, Operand::const_int(Type::I64, 0));
    fb.branch(Operand::local(neg), cold1, loop_h);
    assert_eq!(check, fb.function().entry());

    // cold path: print twice, return -1
    fb.switch_to(cold1);
    fb.call_ext(p, Type::Void, vec![Operand::local(arg)]);
    fb.jump(cold2);
    fb.switch_to(cold2);
    fb.call_ext(p, Type::Void, vec![Operand::const_int(Type::I64, -99)]);
    fb.ret(Some(Operand::const_int(Type::I64, -1)));

    // loop: value += i--; until i == 0
    fb.switch_to(loop_h);
    let cont = fb.cmp(
        CmpPred::Sgt,
        Type::I64,
        Operand::local(i),
        Operand::const_int(Type::I64, 0),
    );
    fb.branch(Operand::local(cont), loop_b, done);
    fb.switch_to(loop_b);
    let nv = fb.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(value),
        Operand::local(i),
    );
    fb.copy_to(value, Operand::local(nv));
    let ni = fb.bin(
        BinOp::Sub,
        Type::I64,
        Operand::local(i),
        Operand::const_int(Type::I64, 1),
    );
    fb.copy_to(i, Operand::local(ni));
    fb.jump(loop_h);

    fb.switch_to(done);
    fb.ret(Some(Operand::local(value)));
    m.push_function(fb.finish())
}

fn main_calling(m: &mut Module, target: FuncId, args: &[i64]) {
    let p = print_ext(m);
    let mut fb = FunctionBuilder::new("main", Type::I64);
    let mut acc = fb.iconst(Type::I64, 0);
    for &a in args {
        let r = fb
            .call(target, Type::I64, vec![Operand::const_int(Type::I64, a)])
            .unwrap();
        fb.call_ext(p, Type::Void, vec![Operand::local(r)]);
        let na = fb.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(acc),
            Operand::local(r),
        );
        acc = na;
    }
    fb.ret(Some(Operand::local(acc)));
    m.push_function(fb.finish());
}

#[test]
fn fission_preserves_behaviour_and_splits() {
    let mut m = Module::new("t");
    let f = cal_file_like(&mut m);
    main_calling(&mut m, f, &[-3, 0, 5, 10]);
    khaos_ir::verify::assert_valid(&m);
    let before = run_to_completion(&m, &[]).unwrap();

    let mut ctx = KhaosContext::new(1);
    fission(&mut m, &mut ctx).unwrap();
    let after = run_to_completion(&m, &[]).unwrap();
    assert_eq!(before.output, after.output);
    assert_eq!(before.exit_code, after.exit_code);

    assert!(
        ctx.fission_stats.sep_funcs >= 1,
        "at least one region separated"
    );
    let seps: Vec<_> = m
        .functions
        .iter()
        .filter(|f| f.provenance.kind == ProvKind::Sep)
        .collect();
    assert_eq!(seps.len(), ctx.fission_stats.sep_funcs);
    for s in &seps {
        assert!(s.provenance.has_origin("cal_file"));
        assert!(s.name.starts_with("cal_file_sep_"));
    }
    let rem = m.functions.iter().find(|f| f.name == "cal_file").unwrap();
    assert_eq!(rem.provenance.kind, ProvKind::Rem);
}

#[test]
fn fission_region_with_return_propagates_value() {
    // The cold path (which contains `return -1`) is the classic region.
    let mut m = Module::new("t");
    let f = cal_file_like(&mut m);
    main_calling(&mut m, f, &[-7]);
    let before = run_to_completion(&m, &[]).unwrap();
    let mut ctx = KhaosContext::new(2);
    fission(&mut m, &mut ctx).unwrap();
    let after = run_to_completion(&m, &[]).unwrap();
    assert_eq!(before.output, after.output, "cold return path must survive");
    assert_eq!(after.exit_code, -1);
}

#[test]
fn fission_respects_disabled_data_flow_reduction() {
    let mut m1 = Module::new("t");
    let f1 = cal_file_like(&mut m1);
    main_calling(&mut m1, f1, &[4]);
    let mut m2 = m1.clone();

    let mut on = KhaosContext::new(3);
    fission(&mut m1, &mut on).unwrap();
    let mut off = KhaosContext::with_options(
        3,
        KhaosOptions {
            data_flow_reduction: false,
            ..KhaosOptions::default()
        },
    );
    fission(&mut m2, &mut off).unwrap();
    assert_eq!(off.fission_stats.params_reduced, 0);
    assert_eq!(
        run_to_completion(&m1, &[]).unwrap().output,
        run_to_completion(&m2, &[]).unwrap().output
    );
}

fn two_fusable_functions(m: &mut Module) -> (FuncId, FuncId) {
    // bar(i32, f32) -> i32  and  foo(i64) -> i64 (paper Figure 3 flavour)
    let mut bar = FunctionBuilder::new("bar", Type::I32);
    let a = bar.add_param(Type::I32);
    let b = bar.add_param(Type::F32);
    let bi = bar.cast(
        khaos_ir::CastKind::FpToSi,
        Operand::local(b),
        Type::F32,
        Type::I32,
    );
    let s = bar.bin(BinOp::Add, Type::I32, Operand::local(a), Operand::local(bi));
    bar.ret(Some(Operand::local(s)));
    let bar = m.push_function(bar.finish());

    let mut foo = FunctionBuilder::new("foo", Type::I64);
    let x = foo.add_param(Type::I64);
    let t = foo.new_block();
    let e = foo.new_block();
    let c = foo.cmp(
        CmpPred::Sgt,
        Type::I64,
        Operand::local(x),
        Operand::const_int(Type::I64, 10),
    );
    foo.branch(Operand::local(c), t, e);
    foo.switch_to(t);
    let d = foo.bin(
        BinOp::Mul,
        Type::I64,
        Operand::local(x),
        Operand::const_int(Type::I64, 3),
    );
    foo.ret(Some(Operand::local(d)));
    foo.switch_to(e);
    foo.ret(Some(Operand::local(x)));
    let foo = m.push_function(foo.finish());
    (bar, foo)
}

#[test]
fn fusion_merges_pair_and_preserves_behaviour() {
    let mut m = Module::new("t");
    let p = print_ext(&mut m);
    let (bar, foo) = two_fusable_functions(&mut m);
    let mut main = FunctionBuilder::new("main", Type::I64);
    let r1 = main
        .call(
            bar,
            Type::I32,
            vec![
                Operand::const_int(Type::I32, 4),
                Operand::const_float(Type::F32, 2.0),
            ],
        )
        .unwrap();
    let r1w = main.cast(
        khaos_ir::CastKind::SExt,
        Operand::local(r1),
        Type::I32,
        Type::I64,
    );
    main.call_ext(p, Type::Void, vec![Operand::local(r1w)]);
    let r2 = main
        .call(foo, Type::I64, vec![Operand::const_int(Type::I64, 20)])
        .unwrap();
    main.call_ext(p, Type::Void, vec![Operand::local(r2)]);
    let s = main.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(r1w),
        Operand::local(r2),
    );
    main.ret(Some(Operand::local(s)));
    m.push_function(main.finish());
    khaos_ir::verify::assert_valid(&m);
    let before = run_to_completion(&m, &[]).unwrap();

    let mut ctx = KhaosContext::new(4);
    fusion(&mut m, &mut ctx).unwrap();
    let after = run_to_completion(&m, &[]).unwrap();
    assert_eq!(before.output, after.output);
    assert_eq!(before.exit_code, after.exit_code);

    assert_eq!(ctx.fusion_stats.fus_funcs, 1);
    let fus = m
        .functions
        .iter()
        .find(|f| f.provenance.kind == ProvKind::Fused)
        .unwrap();
    assert!(fus.provenance.has_origin("bar") && fus.provenance.has_origin("foo"));
    assert!(fus.name.contains("fusion"));
    // The originals are gone (stubbed + swept).
    assert!(m.function_by_name("bar").is_none());
    assert!(m.function_by_name("foo").is_none());
    // ctrl + compressed params: bar has (i32,f32), foo has (i64) ->
    // slot0 = i64 (i32+i64 merged), slot1 = f32 => 3 params with ctrl.
    assert_eq!(fus.param_count, 3);
    assert_eq!(ctx.fusion_stats.params_removed, 1);
}

#[test]
fn fusion_handles_indirect_calls_with_tagged_pointers() {
    let mut m = Module::new("t");
    let p = print_ext(&mut m);

    // Two functions with identical signatures, called through a pointer.
    let mk = |m: &mut Module, name: &str, k: i64| -> FuncId {
        let mut f = FunctionBuilder::new(name, Type::I64);
        let x = f.add_param(Type::I64);
        let r = f.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(x),
            Operand::const_int(Type::I64, k),
        );
        f.ret(Some(Operand::local(r)));
        m.push_function(f.finish())
    };
    let f1 = mk(&mut m, "inc10", 10);
    let f2 = mk(&mut m, "inc100", 100);

    let mut main = FunctionBuilder::new("main", Type::I64);
    let sel = main.new_local(Type::Ptr);
    let t = main.new_block();
    let e = main.new_block();
    let j = main.new_block();
    // Select a pointer based on a runtime-ish condition (constant here).
    let c = main.cmp(
        CmpPred::Sgt,
        Type::I64,
        Operand::const_int(Type::I64, 1),
        Operand::const_int(Type::I64, 0),
    );
    main.branch(Operand::local(c), t, e);
    main.switch_to(t);
    let p1 = main.funcaddr(f1);
    main.copy_to(sel, Operand::local(p1));
    main.jump(j);
    main.switch_to(e);
    let p2 = main.funcaddr(f2);
    main.copy_to(sel, Operand::local(p2));
    main.jump(j);
    main.switch_to(j);
    let r = main
        .call_indirect(
            Operand::local(sel),
            Type::I64,
            vec![Operand::const_int(Type::I64, 7)],
        )
        .unwrap();
    main.call_ext(p, Type::Void, vec![Operand::local(r)]);
    // Also call both directly so the pair is exercised both ways.
    let d1 = main
        .call(f1, Type::I64, vec![Operand::const_int(Type::I64, 1)])
        .unwrap();
    let d2 = main.call(f2, Type::I64, vec![Operand::local(d1)]).unwrap();
    main.ret(Some(Operand::local(d2)));
    m.push_function(main.finish());
    khaos_ir::verify::assert_valid(&m);
    let before = run_to_completion(&m, &[]).unwrap();
    assert_eq!(before.output, vec![17]);
    assert_eq!(before.exit_code, 111);

    let mut ctx = KhaosContext::new(5);
    fusion(&mut m, &mut ctx).unwrap();
    let after = run_to_completion(&m, &[]).unwrap();
    assert_eq!(before.output, after.output);
    assert_eq!(before.exit_code, after.exit_code);
    assert_eq!(ctx.fusion_stats.fus_funcs, 1);
    assert!(
        ctx.fusion_stats.indirect_sites_rewritten >= 1,
        "decode sequence inserted"
    );
}

#[test]
fn fusion_exported_function_gets_trampoline() {
    let mut m = Module::new("t");
    let mut api = FunctionBuilder::new("api_entry", Type::I64);
    api.set_exported();
    let x = api.add_param(Type::I64);
    let r = api.bin(
        BinOp::Mul,
        Type::I64,
        Operand::local(x),
        Operand::const_int(Type::I64, 2),
    );
    api.ret(Some(Operand::local(r)));
    let api = m.push_function(api.finish());

    let mut other = FunctionBuilder::new("worker", Type::I64);
    let y = other.add_param(Type::I64);
    let r2 = other.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(y),
        Operand::const_int(Type::I64, 5),
    );
    other.ret(Some(Operand::local(r2)));
    let worker = m.push_function(other.finish());

    let mut main = FunctionBuilder::new("main", Type::I64);
    let a = main
        .call(api, Type::I64, vec![Operand::const_int(Type::I64, 21)])
        .unwrap();
    let b = main
        .call(worker, Type::I64, vec![Operand::local(a)])
        .unwrap();
    main.ret(Some(Operand::local(b)));
    m.push_function(main.finish());
    let before = run_to_completion(&m, &[]).unwrap();

    let mut ctx = KhaosContext::new(6);
    fusion(&mut m, &mut ctx).unwrap();
    let after = run_to_completion(&m, &[]).unwrap();
    assert_eq!(before.exit_code, after.exit_code);

    // The exported name survives as a trampoline with the same signature.
    let (_, tramp) = m
        .function_by_name("api_entry")
        .expect("name kept for external callers");
    assert_eq!(tramp.provenance.kind, ProvKind::Trampoline);
    assert_eq!(tramp.linkage, khaos_ir::Linkage::Exported);
    assert_eq!(tramp.param_count, 1);
    assert_eq!(ctx.fusion_stats.trampolines, 1);
    // Calling the trampoline still computes api_entry's function.
    let r = run_function(&m, "api_entry", &[khaos_vm::Value::Int(8)]).unwrap();
    assert_eq!(r.exit_code, 16);
}

#[test]
fn deep_fusion_keeps_behaviour() {
    // Functions with register-arithmetic blocks that qualify as innocuous.
    let mut m = Module::new("t");
    let mk = |m: &mut Module, name: &str, mul: i64| -> FuncId {
        let mut f = FunctionBuilder::new(name, Type::I64);
        let x = f.add_param(Type::I64);
        let work = f.new_block();
        let out = f.new_block();
        f.jump(work);
        f.switch_to(work);
        let a = f.bin(
            BinOp::Mul,
            Type::I64,
            Operand::local(x),
            Operand::const_int(Type::I64, mul),
        );
        let b = f.bin(
            BinOp::Xor,
            Type::I64,
            Operand::local(a),
            Operand::const_int(Type::I64, 0x5a),
        );
        let c = f.bin(BinOp::Add, Type::I64, Operand::local(b), Operand::local(x));
        f.jump(out);
        f.switch_to(out);
        f.ret(Some(Operand::local(c)));
        m.push_function(f.finish())
    };
    let f1 = mk(&mut m, "alpha", 3);
    let f2 = mk(&mut m, "beta", 7);
    let mut main = FunctionBuilder::new("main", Type::I64);
    let r1 = main
        .call(f1, Type::I64, vec![Operand::const_int(Type::I64, 11)])
        .unwrap();
    let r2 = main
        .call(f2, Type::I64, vec![Operand::const_int(Type::I64, 13)])
        .unwrap();
    let s = main.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(r1),
        Operand::local(r2),
    );
    main.ret(Some(Operand::local(s)));
    m.push_function(main.finish());
    let before = run_to_completion(&m, &[]).unwrap();

    let mut ctx = KhaosContext::new(7);
    fusion(&mut m, &mut ctx).unwrap();
    let after = run_to_completion(&m, &[]).unwrap();
    assert_eq!(before.exit_code, after.exit_code);
    assert!(
        ctx.fusion_stats.innocuous_blocks >= 2,
        "work blocks are innocuous"
    );
    assert!(
        ctx.fusion_stats.deep_fused_pairs >= 1,
        "deep fusion merged a pair"
    );
}

#[test]
fn deep_fusion_off_still_works() {
    let mut m = Module::new("t");
    let (bar, foo) = two_fusable_functions(&mut m);
    let mut main = FunctionBuilder::new("main", Type::I64);
    let r1 = main
        .call(
            bar,
            Type::I32,
            vec![
                Operand::const_int(Type::I32, 1),
                Operand::const_float(Type::F32, 1.0),
            ],
        )
        .unwrap();
    let w = main.cast(
        khaos_ir::CastKind::SExt,
        Operand::local(r1),
        Type::I32,
        Type::I64,
    );
    let r2 = main.call(foo, Type::I64, vec![Operand::local(w)]).unwrap();
    main.ret(Some(Operand::local(r2)));
    m.push_function(main.finish());
    let before = run_to_completion(&m, &[]).unwrap();
    let mut ctx = KhaosContext::with_options(
        8,
        KhaosOptions {
            deep_fusion: false,
            ..KhaosOptions::default()
        },
    );
    fusion(&mut m, &mut ctx).unwrap();
    assert_eq!(ctx.fusion_stats.deep_fused_pairs, 0);
    assert_eq!(
        run_to_completion(&m, &[]).unwrap().exit_code,
        before.exit_code
    );
}

fn mixed_module() -> Module {
    let mut m = Module::new("mix");
    let f = cal_file_like(&mut m);
    let (_bar, _foo) = two_fusable_functions(&mut m);
    // A couple of tiny single-block functions that fission skips.
    for (name, k) in [("tiny1", 2i64), ("tiny2", 9)] {
        let mut t = FunctionBuilder::new(name, Type::I64);
        let x = t.add_param(Type::I64);
        let r = t.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(x),
            Operand::const_int(Type::I64, k),
        );
        t.ret(Some(Operand::local(r)));
        m.push_function(t.finish());
    }
    let (t1, _) = m.function_by_name("tiny1").unwrap();
    let (t2, _) = m.function_by_name("tiny2").unwrap();
    let (bar, _) = m.function_by_name("bar").unwrap();
    let (foo, _) = m.function_by_name("foo").unwrap();

    let p = print_ext(&mut m);
    let mut main = FunctionBuilder::new("main", Type::I64);
    let mut acc = main.iconst(Type::I64, 0);
    for (func, arg) in [(f, 6i64), (t1, 1), (t2, 2), (foo, 30)] {
        let r = main
            .call(func, Type::I64, vec![Operand::const_int(Type::I64, arg)])
            .unwrap();
        main.call_ext(p, Type::Void, vec![Operand::local(r)]);
        let na = main.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(acc),
            Operand::local(r),
        );
        acc = na;
    }
    let br = main
        .call(
            bar,
            Type::I32,
            vec![
                Operand::const_int(Type::I32, 3),
                Operand::const_float(Type::F32, 4.0),
            ],
        )
        .unwrap();
    let brw = main.cast(
        khaos_ir::CastKind::SExt,
        Operand::local(br),
        Type::I32,
        Type::I64,
    );
    let fin = main.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(acc),
        Operand::local(brw),
    );
    main.ret(Some(Operand::local(fin)));
    m.push_function(main.finish());
    khaos_ir::verify::assert_valid(&m);
    m
}

#[test]
fn fufi_modes_preserve_behaviour() {
    let base = mixed_module();
    let expected = run_to_completion(&base, &[]).unwrap();
    for (name, apply) in [
        ("sep", fufi_sep as fn(&mut Module, &mut KhaosContext) -> _),
        ("ori", fufi_ori),
        ("all", fufi_all),
    ] {
        let mut m = base.clone();
        let mut ctx = KhaosContext::new(0xFF + name.len() as u64);
        apply(&mut m, &mut ctx).unwrap_or_else(|e| panic!("FuFi.{name}: {e}"));
        let got = run_to_completion(&m, &[]).unwrap_or_else(|e| panic!("FuFi.{name} run: {e}"));
        assert_eq!(got.output, expected.output, "FuFi.{name} output");
        assert_eq!(got.exit_code, expected.exit_code, "FuFi.{name} exit");
    }
}

#[test]
fn fufi_sep_only_fuses_sepfuncs() {
    let mut m = mixed_module();
    let mut ctx = KhaosContext::new(11);
    fufi_sep(&mut m, &mut ctx).unwrap();
    for f in &m.functions {
        if f.provenance.kind == ProvKind::Fused {
            // Every fused function must descend from sepFuncs only, i.e.
            // its name carries the sep marker for both sides.
            assert!(
                f.name.matches("_sep_").count() >= 2,
                "FuFi.sep fused a non-sepFunc: {}",
                f.name
            );
        }
    }
}

#[test]
fn fission_handles_eh_regions() {
    // invoke + landing pad inside the same cold region.
    let mut m = Module::new("t");
    let throw_ext = m.declare_external(ExtFunc {
        name: "throw_exc".into(),
        params: vec![Type::I64],
        ret_ty: Type::Void,
        variadic: false,
    });
    let p = print_ext(&mut m);

    let mut thrower = FunctionBuilder::new("thrower", Type::Void);
    let tx = thrower.add_param(Type::I64);
    let yes = thrower.new_block();
    let no = thrower.new_block();
    let c = thrower.cmp(
        CmpPred::Sgt,
        Type::I64,
        Operand::local(tx),
        Operand::const_int(Type::I64, 0),
    );
    thrower.branch(Operand::local(c), yes, no);
    thrower.switch_to(yes);
    thrower.call_ext(throw_ext, Type::Void, vec![Operand::local(tx)]);
    thrower.ret(None);
    thrower.switch_to(no);
    thrower.ret(None);
    let thrower = m.push_function(thrower.finish());

    let mut f = FunctionBuilder::new("guarded", Type::I64);
    let x = f.add_param(Type::I64);
    let cold = f.new_block();
    let normal = f.new_block();
    let exc_local = f.new_local(Type::I64);
    let pad = f.new_pad_block(Some(exc_local));
    let join = f.new_block();
    let out = f.new_local(Type::I64);
    let c2 = f.cmp(
        CmpPred::Slt,
        Type::I64,
        Operand::local(x),
        Operand::const_int(Type::I64, 0),
    );
    f.copy_to(out, Operand::const_int(Type::I64, 0));
    f.branch(Operand::local(c2), cold, join);
    // cold region: invoke thrower; catch sets out = exc; normal sets out = 1.
    f.switch_to(cold);
    f.invoke(
        Callee::Direct(thrower),
        Type::Void,
        vec![Operand::local(x)],
        normal,
        pad,
    );
    f.switch_to(normal);
    f.copy_to(out, Operand::const_int(Type::I64, 1));
    f.jump(join);
    f.switch_to(pad);
    f.copy_to(out, Operand::local(exc_local));
    f.jump(join);
    f.switch_to(join);
    f.ret(Some(Operand::local(out)));
    let f = m.push_function(f.finish());

    let mut main = FunctionBuilder::new("main", Type::I64);
    for arg in [-5i64, 3, -1] {
        let r = main
            .call(f, Type::I64, vec![Operand::const_int(Type::I64, arg)])
            .unwrap();
        main.call_ext(p, Type::Void, vec![Operand::local(r)]);
    }
    main.ret(Some(Operand::const_int(Type::I64, 0)));
    m.push_function(main.finish());
    khaos_ir::verify::assert_valid(&m);
    let before = run_to_completion(&m, &[]).unwrap();

    let mut ctx = KhaosContext::new(12);
    fission(&mut m, &mut ctx).unwrap();
    let after = run_to_completion(&m, &[]).unwrap();
    assert_eq!(
        before.output, after.output,
        "EH behaviour preserved across fission"
    );
}

#[test]
fn fusion_of_void_functions() {
    let mut m = Module::new("t");
    let p = print_ext(&mut m);
    let g = m.push_global(khaos_ir::Global::zeroed("counter", 8));

    let mk = |m: &mut Module, name: &str, k: i64| -> FuncId {
        let mut f = FunctionBuilder::new(name, Type::Void);
        let ga = f.globaladdr(g);
        let v = f.load(Type::I64, Operand::local(ga));
        let nv = f.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(v),
            Operand::const_int(Type::I64, k),
        );
        f.store(Type::I64, Operand::local(nv), Operand::local(ga));
        f.ret(None);
        m.push_function(f.finish())
    };
    let f1 = mk(&mut m, "bump1", 1);
    let f2 = mk(&mut m, "bump10", 10);

    let mut main = FunctionBuilder::new("main", Type::I64);
    main.call(f1, Type::Void, vec![]);
    main.call(f2, Type::Void, vec![]);
    main.call(f1, Type::Void, vec![]);
    let ga = main.globaladdr(g);
    let v = main.load(Type::I64, Operand::local(ga));
    main.call_ext(p, Type::Void, vec![Operand::local(v)]);
    main.ret(Some(Operand::local(v)));
    m.push_function(main.finish());
    let before = run_to_completion(&m, &[]).unwrap();
    assert_eq!(before.exit_code, 12);

    let mut ctx = KhaosContext::new(13);
    fusion(&mut m, &mut ctx).unwrap();
    let after = run_to_completion(&m, &[]).unwrap();
    assert_eq!(after.exit_code, 12);
    assert_eq!(before.output, after.output);
}

#[test]
fn obfuscation_is_deterministic_per_seed() {
    let base = mixed_module();
    let mut m1 = base.clone();
    let mut m2 = base.clone();
    let mut c1 = KhaosContext::new(42);
    let mut c2 = KhaosContext::new(42);
    fufi_all(&mut m1, &mut c1).unwrap();
    fufi_all(&mut m2, &mut c2).unwrap();
    assert_eq!(m1, m2, "same seed, same module");

    let mut m3 = base.clone();
    let mut c3 = KhaosContext::new(43);
    fufi_all(&mut m3, &mut c3).unwrap();
    // Different seeds usually pick different pairings; at minimum the
    // result must still behave identically.
    assert_eq!(
        run_to_completion(&m1, &[]).unwrap().output,
        run_to_completion(&m3, &[]).unwrap().output
    );
}
