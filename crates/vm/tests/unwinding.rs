//! Deep unwinding scenarios: nested invokes, rethrow, longjmp across
//! multiple frames, and interaction of both mechanisms with stack
//! allocation — the machinery fission/fusion must not break.

use khaos_ir::builder::FunctionBuilder;
use khaos_ir::{BinOp, Callee, CmpPred, ExtFunc, ExtId, Module, Operand, Type};
use khaos_vm::{run_function, Value};

fn throw_ext(m: &mut Module) -> ExtId {
    m.declare_external(ExtFunc {
        name: "throw_exc".into(),
        params: vec![Type::I64],
        ret_ty: Type::Void,
        variadic: false,
    })
}

/// Exceptions unwind through intermediate plain-call frames.
#[test]
fn exception_skips_plain_frames() {
    let mut m = Module::new("t");
    let te = throw_ext(&mut m);

    let mut leaf = FunctionBuilder::new("leaf", Type::Void);
    leaf.call_ext(te, Type::Void, vec![Operand::const_int(Type::I64, 41)]);
    leaf.ret(None);
    let leaf = m.push_function(leaf.finish());

    // Two plain frames between the throw and the catch.
    let mut mid1 = FunctionBuilder::new("mid1", Type::Void);
    mid1.call(leaf, Type::Void, vec![]);
    mid1.ret(None);
    let mid1 = m.push_function(mid1.finish());
    let mut mid2 = FunctionBuilder::new("mid2", Type::Void);
    mid2.call(mid1, Type::Void, vec![]);
    mid2.ret(None);
    let mid2 = m.push_function(mid2.finish());

    let mut main = FunctionBuilder::new("main", Type::I64);
    let exc = main.new_local(Type::I64);
    let normal = main.new_block();
    let pad = main.new_pad_block(Some(exc));
    main.invoke(Callee::Direct(mid2), Type::Void, vec![], normal, pad);
    main.switch_to(normal);
    main.ret(Some(Operand::const_int(Type::I64, 0)));
    main.switch_to(pad);
    let plus = main.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(exc),
        Operand::const_int(Type::I64, 1),
    );
    main.ret(Some(Operand::local(plus)));
    m.push_function(main.finish());
    khaos_ir::verify::assert_valid(&m);
    assert_eq!(run_function(&m, "main", &[]).unwrap().exit_code, 42);
}

/// An inner handler catches first; rethrowing reaches the outer handler.
#[test]
fn nested_invokes_catch_innermost_and_rethrow() {
    let mut m = Module::new("t");
    let te = throw_ext(&mut m);

    let mut thrower = FunctionBuilder::new("thrower", Type::Void);
    thrower.call_ext(te, Type::Void, vec![Operand::const_int(Type::I64, 5)]);
    thrower.ret(None);
    let thrower = m.push_function(thrower.finish());

    // inner: catches, adds 100, rethrows.
    let mut inner = FunctionBuilder::new("inner", Type::Void);
    let exc = inner.new_local(Type::I64);
    let normal = inner.new_block();
    let pad = inner.new_pad_block(Some(exc));
    inner.invoke(Callee::Direct(thrower), Type::Void, vec![], normal, pad);
    inner.switch_to(normal);
    inner.ret(None);
    inner.switch_to(pad);
    let bumped = inner.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(exc),
        Operand::const_int(Type::I64, 100),
    );
    inner.call_ext(te, Type::Void, vec![Operand::local(bumped)]);
    inner.ret(None);
    let inner = m.push_function(inner.finish());

    let mut main = FunctionBuilder::new("main", Type::I64);
    let exc2 = main.new_local(Type::I64);
    let normal2 = main.new_block();
    let pad2 = main.new_pad_block(Some(exc2));
    main.invoke(Callee::Direct(inner), Type::Void, vec![], normal2, pad2);
    main.switch_to(normal2);
    main.ret(Some(Operand::const_int(Type::I64, -1)));
    main.switch_to(pad2);
    main.ret(Some(Operand::local(exc2)));
    m.push_function(main.finish());
    khaos_ir::verify::assert_valid(&m);
    assert_eq!(run_function(&m, "main", &[]).unwrap().exit_code, 105);
}

/// longjmp pops several frames and releases their stack allocations.
#[test]
fn longjmp_across_frames_releases_stack() {
    let mut m = Module::new("t");
    let setjmp = m.declare_external(ExtFunc {
        name: "setjmp".into(),
        params: vec![Type::Ptr],
        ret_ty: Type::I32,
        variadic: false,
    });
    let longjmp = m.declare_external(ExtFunc {
        name: "longjmp".into(),
        params: vec![Type::Ptr, Type::I32],
        ret_ty: Type::Void,
        variadic: false,
    });

    // deep(buf, n): allocates 64 bytes, recurses, longjmps at n == 0.
    let mut deep = FunctionBuilder::new("deep", Type::Void);
    let buf = deep.add_param(Type::Ptr);
    let n = deep.add_param(Type::I64);
    let big = deep.alloca(64);
    deep.store(Type::I64, Operand::local(n), Operand::local(big));
    let jump_bb = deep.new_block();
    let recurse_bb = deep.new_block();
    let z = deep.cmp(
        CmpPred::Sle,
        Type::I64,
        Operand::local(n),
        Operand::const_int(Type::I64, 0),
    );
    deep.branch(Operand::local(z), jump_bb, recurse_bb);
    deep.switch_to(jump_bb);
    deep.call_ext(
        longjmp,
        Type::Void,
        vec![Operand::local(buf), Operand::const_int(Type::I32, 7)],
    );
    deep.ret(None);
    deep.switch_to(recurse_bb);
    let nm1 = deep.bin(
        BinOp::Sub,
        Type::I64,
        Operand::local(n),
        Operand::const_int(Type::I64, 1),
    );
    deep.call(
        khaos_ir::FuncId(0),
        Type::Void,
        vec![Operand::local(buf), Operand::local(nm1)],
    );
    deep.ret(None);
    let deep_id = m.push_function(deep.finish());
    assert_eq!(deep_id, khaos_ir::FuncId(0));

    // main: run the setjmp/longjmp cycle many times — if frames leaked,
    // the arena would overflow well within the loop.
    let mut main = FunctionBuilder::new("main", Type::I64);
    let jb = main.alloca(8);
    let count = main.new_local(Type::I64);
    let head = main.new_block();
    let body = main.new_block();
    let after = main.new_block();
    let done = main.new_block();
    main.copy_to(count, Operand::const_int(Type::I64, 0));
    main.jump(head);
    main.switch_to(head);
    let c = main.cmp(
        CmpPred::Slt,
        Type::I64,
        Operand::local(count),
        Operand::const_int(Type::I64, 2000),
    );
    main.branch(Operand::local(c), body, done);
    main.switch_to(body);
    let r = main
        .call_ext(setjmp, Type::I32, vec![Operand::local(jb)])
        .unwrap();
    let came_back = main.new_block();
    let go_deep = main.new_block();
    let rz = main.cmp(
        CmpPred::Eq,
        Type::I32,
        Operand::local(r),
        Operand::const_int(Type::I32, 0),
    );
    main.branch(Operand::local(rz), go_deep, came_back);
    main.switch_to(go_deep);
    main.call(
        deep_id,
        Type::Void,
        vec![Operand::local(jb), Operand::const_int(Type::I64, 20)],
    );
    main.ret(Some(Operand::const_int(Type::I64, -1))); // unreachable: deep always longjmps
    main.switch_to(came_back);
    main.jump(after);
    main.switch_to(after);
    let ni = main.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(count),
        Operand::const_int(Type::I64, 1),
    );
    main.copy_to(count, Operand::local(ni));
    main.jump(head);
    main.switch_to(done);
    main.ret(Some(Operand::local(count)));
    m.push_function(main.finish());
    khaos_ir::verify::assert_valid(&m);
    let r = run_function(&m, "main", &[]).unwrap();
    assert_eq!(
        r.exit_code, 2000,
        "2000 longjmp cycles without leaking stack"
    );
}

/// Arguments of every numeric class round-trip through calls.
#[test]
fn mixed_argument_classes() {
    let mut m = Module::new("t");
    let mut callee = FunctionBuilder::new("mix", Type::F64);
    let a = callee.add_param(Type::I32);
    let b = callee.add_param(Type::F64);
    let c = callee.add_param(Type::I64);
    let aw = callee.cast(
        khaos_ir::CastKind::SExt,
        Operand::local(a),
        Type::I32,
        Type::I64,
    );
    let s = callee.bin(BinOp::Add, Type::I64, Operand::local(aw), Operand::local(c));
    let sf = callee.cast(
        khaos_ir::CastKind::SiToFp,
        Operand::local(s),
        Type::I64,
        Type::F64,
    );
    let r = callee.bin(
        BinOp::FAdd,
        Type::F64,
        Operand::local(sf),
        Operand::local(b),
    );
    callee.ret(Some(Operand::local(r)));
    let cid = m.push_function(callee.finish());

    let mut main = FunctionBuilder::new("main", Type::I64);
    let r = main
        .call(
            cid,
            Type::F64,
            vec![
                Operand::const_int(Type::I32, -3),
                Operand::const_float(Type::F64, 0.5),
                Operand::const_int(Type::I64, 10),
            ],
        )
        .unwrap();
    let half = main.bin(
        BinOp::FMul,
        Type::F64,
        Operand::local(r),
        Operand::const_float(Type::F64, 2.0),
    );
    let i = main.cast(
        khaos_ir::CastKind::FpToSi,
        Operand::local(half),
        Type::F64,
        Type::I64,
    );
    main.ret(Some(Operand::local(i)));
    m.push_function(main.finish());
    khaos_ir::verify::assert_valid(&m);
    // (-3 + 10 + 0.5) * 2 = 15
    assert_eq!(run_function(&m, "main", &[]).unwrap().exit_code, 15);
    let _ = Value::Int(0);
}
