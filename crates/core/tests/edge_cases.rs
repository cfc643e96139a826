//! Edge cases of the primitives: switch exits, multi-region fission,
//! fusion of recursive / pointer-parameter functions, combination with
//! disabled options.

use khaos_core::{fission, fusion, KhaosContext, KhaosOptions};
use khaos_ir::builder::FunctionBuilder;
use khaos_ir::{BinOp, CmpPred, ExtFunc, FuncId, Module, Operand, ProvKind, Type};
use khaos_vm::run_to_completion;

fn print_ext(m: &mut Module) -> khaos_ir::ExtId {
    m.declare_external(ExtFunc {
        name: "print_i64".into(),
        params: vec![Type::I64],
        ret_ty: Type::Void,
        variadic: false,
    })
}

/// A function whose cold region exits through a switch with three
/// distinct outside targets — exercising the exit-code dispatch.
#[test]
fn fission_multi_exit_region_dispatch() {
    let mut m = Module::new("t");
    let p = print_ext(&mut m);
    let mut fb = FunctionBuilder::new("multi", Type::I64);
    let x = fb.add_param(Type::I64);
    let cold1 = fb.new_block();
    let cold2 = fb.new_block();
    let out_a = fb.new_block();
    let out_b = fb.new_block();
    let out_c = fb.new_block();
    let big = fb.cmp(
        CmpPred::Sgt,
        Type::I64,
        Operand::local(x),
        Operand::const_int(Type::I64, 100),
    );
    fb.branch(Operand::local(big), cold1, out_a);
    // Region {cold1, cold2}: switch exits to three outside blocks.
    fb.switch_to(cold1);
    let y = fb.bin(
        BinOp::And,
        Type::I64,
        Operand::local(x),
        Operand::const_int(Type::I64, 3),
    );
    fb.jump(cold2);
    fb.switch_to(cold2);
    fb.switch(
        Type::I64,
        Operand::local(y),
        vec![(0, out_a), (1, out_b)],
        out_c,
    );
    fb.switch_to(out_a);
    fb.ret(Some(Operand::const_int(Type::I64, 10)));
    fb.switch_to(out_b);
    fb.ret(Some(Operand::const_int(Type::I64, 20)));
    fb.switch_to(out_c);
    fb.ret(Some(Operand::const_int(Type::I64, 30)));
    let f = m.push_function(fb.finish());

    let mut main = FunctionBuilder::new("main", Type::I64);
    let mut acc = main.iconst(Type::I64, 0);
    for arg in [5i64, 104, 101, 102, 103] {
        let r = main
            .call(f, Type::I64, vec![Operand::const_int(Type::I64, arg)])
            .unwrap();
        main.call_ext(p, Type::Void, vec![Operand::local(r)]);
        acc = main.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(acc),
            Operand::local(r),
        );
    }
    main.ret(Some(Operand::local(acc)));
    m.push_function(main.finish());
    khaos_ir::verify::assert_valid(&m);
    let want = run_to_completion(&m, &[]).unwrap();

    let mut ctx = KhaosContext::with_options(
        1,
        KhaosOptions {
            fission_min_value: 0.0,
            ..KhaosOptions::default()
        },
    );
    fission(&mut m, &mut ctx).unwrap();
    assert!(ctx.fission_stats.sep_funcs >= 1);
    let got = run_to_completion(&m, &[]).unwrap();
    assert_eq!(want.output, got.output);
    assert_eq!(want.exit_code, got.exit_code);
}

/// Several disjoint regions in one function extract independently.
#[test]
fn fission_multiple_regions_per_function() {
    let mut m = Module::new("t");
    let mut fb = FunctionBuilder::new("wide", Type::I64);
    let x = fb.add_param(Type::I64);
    // Three parallel cold diamonds off a switch.
    let arms: Vec<_> = (0..3).map(|_| (fb.new_block(), fb.new_block())).collect();
    let join = fb.new_block();
    let sel = fb.bin(
        BinOp::And,
        Type::I64,
        Operand::local(x),
        Operand::const_int(Type::I64, 3),
    );
    let out = fb.new_local(Type::I64);
    fb.switch(
        Type::I64,
        Operand::local(sel),
        vec![(0, arms[0].0), (1, arms[1].0)],
        arms[2].0,
    );
    for (k, (a, b)) in arms.iter().enumerate() {
        fb.switch_to(*a);
        let v = fb.bin(
            BinOp::Mul,
            Type::I64,
            Operand::local(x),
            Operand::const_int(Type::I64, (k + 2) as i64),
        );
        fb.jump(*b);
        fb.switch_to(*b);
        let w = fb.bin(
            BinOp::Xor,
            Type::I64,
            Operand::local(v),
            Operand::const_int(Type::I64, 0x1f),
        );
        fb.copy_to(out, Operand::local(w));
        fb.jump(join);
    }
    fb.switch_to(join);
    fb.ret(Some(Operand::local(out)));
    let f = m.push_function(fb.finish());

    let mut main = FunctionBuilder::new("main", Type::I64);
    let mut acc = main.iconst(Type::I64, 0);
    for arg in [0i64, 1, 2, 3, 7] {
        let r = main
            .call(f, Type::I64, vec![Operand::const_int(Type::I64, arg)])
            .unwrap();
        acc = main.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(acc),
            Operand::local(r),
        );
    }
    main.ret(Some(Operand::local(acc)));
    m.push_function(main.finish());
    let want = run_to_completion(&m, &[]).unwrap();

    let mut ctx = KhaosContext::with_options(
        2,
        KhaosOptions {
            fission_min_value: 0.0,
            fission_max_regions: 8,
            ..KhaosOptions::default()
        },
    );
    fission(&mut m, &mut ctx).unwrap();
    assert!(
        ctx.fission_stats.sep_funcs >= 2,
        "expected several regions, got {}",
        ctx.fission_stats.sep_funcs
    );
    assert_eq!(
        run_to_completion(&m, &[]).unwrap().exit_code,
        want.exit_code
    );
}

/// Fusion must handle self-recursive constituents: the recursive call is
/// redirected to the fusFunc with the right ctrl value.
#[test]
fn fusion_of_recursive_function() {
    let mut m = Module::new("t");
    let mut rec = FunctionBuilder::new("sum_to", Type::I64);
    let n = rec.add_param(Type::I64);
    let base = rec.new_block();
    let step = rec.new_block();
    let c = rec.cmp(
        CmpPred::Sle,
        Type::I64,
        Operand::local(n),
        Operand::const_int(Type::I64, 0),
    );
    rec.branch(Operand::local(c), base, step);
    rec.switch_to(base);
    rec.ret(Some(Operand::const_int(Type::I64, 0)));
    rec.switch_to(step);
    let nm1 = rec.bin(
        BinOp::Sub,
        Type::I64,
        Operand::local(n),
        Operand::const_int(Type::I64, 1),
    );
    let inner = rec
        .call(FuncId(0), Type::I64, vec![Operand::local(nm1)])
        .unwrap();
    let s = rec.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(inner),
        Operand::local(n),
    );
    rec.ret(Some(Operand::local(s)));
    let rid = m.push_function(rec.finish());
    assert_eq!(rid, FuncId(0));

    let mut other = FunctionBuilder::new("shift", Type::I64);
    let v = other.add_param(Type::I64);
    let r = other.bin(
        BinOp::Shl,
        Type::I64,
        Operand::local(v),
        Operand::const_int(Type::I64, 1),
    );
    other.ret(Some(Operand::local(r)));
    let oid = m.push_function(other.finish());

    let mut main = FunctionBuilder::new("main", Type::I64);
    let a = main
        .call(rid, Type::I64, vec![Operand::const_int(Type::I64, 10)])
        .unwrap();
    let b = main.call(oid, Type::I64, vec![Operand::local(a)]).unwrap();
    main.ret(Some(Operand::local(b)));
    m.push_function(main.finish());
    khaos_ir::verify::assert_valid(&m);
    assert_eq!(run_to_completion(&m, &[]).unwrap().exit_code, 110);

    let mut ctx = KhaosContext::new(3);
    fusion(&mut m, &mut ctx).unwrap();
    assert_eq!(ctx.fusion_stats.fus_funcs, 1);
    assert_eq!(
        run_to_completion(&m, &[]).unwrap().exit_code,
        110,
        "recursion survives fusion"
    );
    // The fused function calls itself (recursive fusFunc, as the paper
    // notes for 502.gcc_r).
    let fus = m
        .functions
        .iter()
        .find(|f| f.provenance.kind == ProvKind::Fused)
        .unwrap();
    assert!(fus.provenance.has_origin("sum_to") && fus.provenance.has_origin("shift"));
}

/// Pointer-typed parameters compress with each other.
#[test]
fn fusion_compresses_pointer_params() {
    let mut m = Module::new("t");
    let g = m.push_global(khaos_ir::Global::zeroed("buf", 16));

    let mk = |m: &mut Module, name: &str, off: i64| -> FuncId {
        let mut f = FunctionBuilder::new(name, Type::I64);
        let p = f.add_param(Type::Ptr);
        let q = f.ptradd(Operand::local(p), Operand::const_int(Type::I64, off));
        let v = f.load(Type::I64, Operand::local(q));
        f.ret(Some(Operand::local(v)));
        m.push_function(f.finish())
    };
    let f1 = mk(&mut m, "load_lo", 0);
    let f2 = mk(&mut m, "load_hi", 8);

    let mut main = FunctionBuilder::new("main", Type::I64);
    let ga = main.globaladdr(g);
    main.store(
        Type::I64,
        Operand::const_int(Type::I64, 7),
        Operand::local(ga),
    );
    let hi = main.ptradd(Operand::local(ga), Operand::const_int(Type::I64, 8));
    main.store(
        Type::I64,
        Operand::const_int(Type::I64, 35),
        Operand::local(hi),
    );
    let a = main.call(f1, Type::I64, vec![Operand::local(ga)]).unwrap();
    let b = main.call(f2, Type::I64, vec![Operand::local(ga)]).unwrap();
    let s = main.bin(BinOp::Add, Type::I64, Operand::local(a), Operand::local(b));
    main.ret(Some(Operand::local(s)));
    m.push_function(main.finish());
    let mut ctx = KhaosContext::new(4);
    fusion(&mut m, &mut ctx).unwrap();
    assert_eq!(run_to_completion(&m, &[]).unwrap().exit_code, 42);
    assert_eq!(
        ctx.fusion_stats.params_removed, 1,
        "ptr params share a slot"
    );
    let fus = m
        .functions
        .iter()
        .find(|f| f.provenance.kind == ProvKind::Fused)
        .unwrap();
    assert_eq!(fus.param_count, 2, "ctrl + one compressed ptr");
}

/// With compression disabled, address-taken constituents are routed
/// through trampolines so indirect calls stay correct.
#[test]
fn fusion_without_compression_uses_trampolines_for_pointers() {
    let mut m = Module::new("t");
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
    let f1 = mk(&mut m, "inc1", 1);
    let f2 = mk(&mut m, "inc2", 2);
    let mut main = FunctionBuilder::new("main", Type::I64);
    let p1 = main.funcaddr(f1);
    let r1 = main
        .call_indirect(
            Operand::local(p1),
            Type::I64,
            vec![Operand::const_int(Type::I64, 10)],
        )
        .unwrap();
    let r2 = main.call(f2, Type::I64, vec![Operand::local(r1)]).unwrap();
    main.ret(Some(Operand::local(r2)));
    m.push_function(main.finish());
    let mut ctx = KhaosContext::with_options(
        5,
        KhaosOptions {
            parameter_compression: false,
            ..KhaosOptions::default()
        },
    );
    fusion(&mut m, &mut ctx).unwrap();
    assert_eq!(run_to_completion(&m, &[]).unwrap().exit_code, 13);
    assert!(
        ctx.fusion_stats.trampolines >= 1,
        "pointer went through a trampoline"
    );
    assert_eq!(
        ctx.fusion_stats.indirect_sites_rewritten, 0,
        "no tags => no decode rewrite"
    );
}

/// Functions pinned into global vtables keep working after fusion via
/// relocation addends (tag) or trampolines.
#[test]
fn fusion_handles_global_function_tables() {
    let mut m = Module::new("t");
    let mk = |m: &mut Module, name: &str, k: i64| -> FuncId {
        let mut f = FunctionBuilder::new(name, Type::I64);
        let x = f.add_param(Type::I64);
        let r = f.bin(
            BinOp::Mul,
            Type::I64,
            Operand::local(x),
            Operand::const_int(Type::I64, k),
        );
        f.ret(Some(Operand::local(r)));
        m.push_function(f.finish())
    };
    let f1 = mk(&mut m, "times3", 3);
    let f2 = mk(&mut m, "times5", 5);
    let tbl = m.push_global(khaos_ir::Global {
        name: "vtable".into(),
        init: vec![
            khaos_ir::GInit::FuncPtr {
                func: f1,
                addend: 0,
            },
            khaos_ir::GInit::FuncPtr {
                func: f2,
                addend: 0,
            },
        ],
        align: 8,
        exported: false,
    });

    let mut main = FunctionBuilder::new("main", Type::I64);
    let ga = main.globaladdr(tbl);
    let mut acc = main.iconst(Type::I64, 0);
    for slot in 0..2i64 {
        let p = main.ptradd(Operand::local(ga), Operand::const_int(Type::I64, slot * 8));
        let fp = main.load(Type::Ptr, Operand::local(p));
        let r = main
            .call_indirect(
                Operand::local(fp),
                Type::I64,
                vec![Operand::const_int(Type::I64, 10)],
            )
            .unwrap();
        acc = main.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(acc),
            Operand::local(r),
        );
    }
    main.ret(Some(Operand::local(acc)));
    m.push_function(main.finish());
    khaos_ir::verify::assert_valid(&m);
    assert_eq!(run_to_completion(&m, &[]).unwrap().exit_code, 80);

    let mut ctx = KhaosContext::new(6);
    fusion(&mut m, &mut ctx).unwrap();
    assert_eq!(
        run_to_completion(&m, &[]).unwrap().exit_code,
        80,
        "vtable dispatch survives fusion"
    );
}

/// The region identifier must never select regions containing allocas
/// whose pointers outlive the region.
#[test]
fn fission_leaves_escaping_allocas_alone() {
    let mut m = Module::new("t");
    let mut fb = FunctionBuilder::new("f", Type::I64);
    let x = fb.add_param(Type::I64);
    let cold = fb.new_block();
    let cold2 = fb.new_block();
    let merge = fb.new_block();
    let slot = fb.new_local(Type::Ptr);
    let c = fb.cmp(
        CmpPred::Sgt,
        Type::I64,
        Operand::local(x),
        Operand::const_int(Type::I64, 50),
    );
    fb.branch(Operand::local(c), cold, merge);
    // The region allocates and the pointer flows OUT of the region.
    fb.switch_to(cold);
    let buf = fb.alloca(8);
    fb.store(Type::I64, Operand::local(x), Operand::local(buf));
    fb.copy_to(slot, Operand::local(buf));
    fb.jump(cold2);
    fb.switch_to(cold2);
    fb.jump(merge);
    fb.switch_to(merge);
    let z = fb.select(
        Type::Ptr,
        Operand::local(c),
        Operand::local(slot),
        Operand::local(slot),
    );
    let _ = z;
    fb.ret(Some(Operand::local(x)));
    let f = m.push_function(fb.finish());
    let mut main = FunctionBuilder::new("main", Type::I64);
    let r = main
        .call(f, Type::I64, vec![Operand::const_int(Type::I64, 60)])
        .unwrap();
    main.ret(Some(Operand::local(r)));
    m.push_function(main.finish());
    let want = run_to_completion(&m, &[]).unwrap();

    let mut ctx = KhaosContext::with_options(
        7,
        KhaosOptions {
            fission_min_value: 0.0,
            ..KhaosOptions::default()
        },
    );
    fission(&mut m, &mut ctx).unwrap();
    // Whatever was or wasn't extracted, behaviour holds (the alloca
    // region must have been rejected).
    assert_eq!(
        run_to_completion(&m, &[]).unwrap().exit_code,
        want.exit_code
    );
}

/// N-way fusion of a group containing an exported function: the export
/// must keep its name and signature via a trampoline while its body moves
/// into the fusFunc.
#[test]
fn nway_fusion_trampolines_exported_constituent() {
    let mut m = Module::new("t");
    let mut api = FunctionBuilder::new("public_api", Type::I64);
    let p = api.add_param(Type::I64);
    let r = api.bin(
        BinOp::Mul,
        Type::I64,
        Operand::local(p),
        Operand::const_int(Type::I64, 2),
    );
    api.ret(Some(Operand::local(r)));
    api.set_exported();
    let api_id = m.push_function(api.finish());

    for (name, c) in [("inner1", 5i64), ("inner2", 9)] {
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
    let (i1, _) = m.function_by_name("inner1").unwrap();
    let (i2, _) = m.function_by_name("inner2").unwrap();

    let mut main = FunctionBuilder::new("main", Type::I64);
    let a = main
        .call(api_id, Type::I64, vec![Operand::const_int(Type::I64, 10)])
        .unwrap();
    let b = main.call(i1, Type::I64, vec![Operand::local(a)]).unwrap();
    let c = main.call(i2, Type::I64, vec![Operand::local(b)]).unwrap();
    main.ret(Some(Operand::local(c)));
    m.push_function(main.finish());
    let want = run_to_completion(&m, &[]).unwrap();
    assert_eq!(want.exit_code, 10 * 2 + 5 + 9);

    let mut ctx = KhaosContext::new(0xE1);
    let infos = khaos_core::fusion::nway::run_n(&mut m, &mut ctx, 3, |_| true);
    assert_eq!(infos.len(), 1, "all three fuse into one group");
    khaos_ir::verify::assert_valid(&m);

    // The export survives as a trampoline under its public name.
    let (_, api) = m.function_by_name("public_api").expect("export kept");
    assert_eq!(api.provenance.kind, ProvKind::Trampoline);
    assert_eq!(api.param_count, 1);
    assert!(ctx.fusion_stats.trampolines >= 1);

    let got = run_to_completion(&m, &[]).unwrap();
    assert_eq!(want.exit_code, got.exit_code);
}

/// N-way fusion with a void constituent in the middle of the group: the
/// fusFunc returns the folded non-void type and the void caller ignores it.
#[test]
fn nway_fusion_mixes_void_and_value_returns() {
    let mut m = Module::new("t");
    let g = m.push_global(khaos_ir::Global::zeroed("counter", 8));

    // void bump() { counter += 1; }
    let mut bump = FunctionBuilder::new("bump", Type::Void);
    let addr = bump.globaladdr(g);
    let old = bump.load(Type::I64, Operand::local(addr));
    let new = bump.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(old),
        Operand::const_int(Type::I64, 1),
    );
    bump.store(Type::I64, Operand::local(new), Operand::local(addr));
    bump.ret(None);
    let bump_id = m.push_function(bump.finish());

    for (name, c) in [("val32", 100i64), ("val64", 1000)] {
        let ty = if name == "val32" {
            Type::I32
        } else {
            Type::I64
        };
        let mut fb = FunctionBuilder::new(name, ty);
        fb.ret(Some(Operand::const_int(ty, c)));
        m.push_function(fb.finish());
    }
    let (v32, _) = m.function_by_name("val32").unwrap();
    let (v64, _) = m.function_by_name("val64").unwrap();

    let mut main = FunctionBuilder::new("main", Type::I64);
    main.call(bump_id, Type::Void, vec![]);
    main.call(bump_id, Type::Void, vec![]);
    let a = main.call(v32, Type::I32, vec![]).unwrap();
    let aw = main.cast(
        khaos_ir::CastKind::SExt,
        Operand::local(a),
        Type::I32,
        Type::I64,
    );
    let b = main.call(v64, Type::I64, vec![]).unwrap();
    let gaddr = main.globaladdr(g);
    let cnt = main.load(Type::I64, Operand::local(gaddr));
    let s1 = main.bin(BinOp::Add, Type::I64, Operand::local(aw), Operand::local(b));
    let s2 = main.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(s1),
        Operand::local(cnt),
    );
    main.ret(Some(Operand::local(s2)));
    m.push_function(main.finish());
    let want = run_to_completion(&m, &[]).unwrap();
    assert_eq!(want.exit_code, 100 + 1000 + 2);

    let mut ctx = KhaosContext::new(0xE2);
    let infos = khaos_core::fusion::nway::run_n(&mut m, &mut ctx, 3, |_| true);
    assert_eq!(infos.len(), 1, "void folds with i32/i64 into one group");
    khaos_ir::verify::assert_valid(&m);
    let got = run_to_completion(&m, &[]).unwrap();
    assert_eq!(want.exit_code, got.exit_code);
}

/// N-way fusion when the merged parameter list spills past the six
/// register slots (prefer_register_args off): arguments must still land
/// in the right slots through the stack.
#[test]
fn nway_fusion_handles_stack_passed_parameters() {
    let mut m = Module::new("t");
    for (name, mul) in [("wide1", 1i64), ("wide2", 2), ("wide3", 3)] {
        let mut fb = FunctionBuilder::new(name, Type::I64);
        let params: Vec<_> = (0..4).map(|_| fb.add_param(Type::I64)).collect();
        let mut acc = fb.iconst(Type::I64, 0);
        for (k, p) in params.into_iter().enumerate() {
            let scaled = fb.bin(
                BinOp::Mul,
                Type::I64,
                Operand::local(p),
                Operand::const_int(Type::I64, mul + k as i64),
            );
            let n = fb.bin(
                BinOp::Add,
                Type::I64,
                Operand::local(acc),
                Operand::local(scaled),
            );
            acc = n;
        }
        fb.ret(Some(Operand::local(acc)));
        m.push_function(fb.finish());
    }
    let ids: Vec<FuncId> = m.iter_functions().map(|(id, _)| id).collect();
    let mut main = FunctionBuilder::new("main", Type::I64);
    let mut total = main.iconst(Type::I64, 0);
    for (j, &f) in ids.iter().enumerate() {
        let args: Vec<Operand> = (0..4)
            .map(|k| Operand::const_int(Type::I64, (j as i64 + 1) * 10 + k))
            .collect();
        let r = main.call(f, Type::I64, args).unwrap();
        let n = main.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(total),
            Operand::local(r),
        );
        total = n;
    }
    main.ret(Some(Operand::local(total)));
    m.push_function(main.finish());
    let want = run_to_completion(&m, &[]).unwrap();

    // Compression merges the 4-param lists; disabling it forces the
    // worst case of 1 + 12 parameters — deep into the stack area.
    let options = KhaosOptions {
        parameter_compression: false,
        prefer_register_args: false,
        ..KhaosOptions::default()
    };
    let mut ctx = KhaosContext::with_options(0xE3, options);
    let infos = khaos_core::fusion::nway::run_n(&mut m, &mut ctx, 3, |_| true);
    assert_eq!(infos.len(), 1);
    let fus = m.function(infos[0].fus);
    assert_eq!(
        fus.param_count,
        1 + 12,
        "no compression: every param gets a slot"
    );
    khaos_ir::verify::assert_valid(&m);
    let got = run_to_completion(&m, &[]).unwrap();
    assert_eq!(want.exit_code, got.exit_code);
}
