//! Accesses whose address or length wraps around the address space trap
//! like any other out-of-bounds access — in debug and release builds
//! alike — instead of panicking inside the interpreter.

use khaos_ir::builder::FunctionBuilder;
use khaos_ir::{CastKind, ExtFunc, Module, Operand, Type};
use khaos_vm::{run_function, VmError};

/// Runs `main` built by `body`, which receives a valid 16-byte buffer and
/// a pointer to the wild address `-8`.
fn run(body: impl FnOnce(&mut Module, &mut FunctionBuilder, Operand, Operand)) -> VmError {
    let mut m = Module::new("t");
    let mut f = FunctionBuilder::new("main", Type::I64);
    let buf = Operand::local(f.alloca(16));
    let wild = f.cast(
        CastKind::IntToPtr,
        Operand::const_int(Type::I64, -8),
        Type::I64,
        Type::Ptr,
    );
    body(&mut m, &mut f, buf, Operand::local(wild));
    f.ret(Some(Operand::const_int(Type::I64, 0)));
    m.push_function(f.finish());
    run_function(&m, "main", &[]).expect_err("the access traps")
}

fn expect_trap(e: VmError, prefix: &str) {
    match e {
        VmError::Trap(msg) => assert!(msg.starts_with(prefix), "{msg}"),
        e => panic!("expected a trap, got {e:?}"),
    }
}

/// Calls `memcpy` or `memset` (three pointer-sized arguments).
fn mem_call(m: &mut Module, f: &mut FunctionBuilder, name: &str, args: [Operand; 3]) {
    let ext = m.declare_external(ExtFunc {
        name: name.into(),
        params: vec![Type::Ptr, Type::Ptr, Type::I64],
        ret_ty: Type::Ptr,
        variadic: false,
    });
    f.call_ext(ext, Type::Ptr, args.to_vec());
}

#[test]
fn loads_and_stores_at_wrapping_addresses_trap() {
    for ty in [
        Type::I8,
        Type::I32,
        Type::I64,
        Type::Ptr,
        Type::F32,
        Type::F64,
    ] {
        let e = run(|_, f, _, wild| {
            f.load(ty, wild);
        });
        expect_trap(e, "load: ");
        let e = run(|_, f, _, wild| {
            f.store(ty, Operand::zero(ty), wild);
        });
        expect_trap(e, "store: ");
    }
    // `-4`: a 4-byte access ends exactly at the wrap, an 8-byte one past it.
    for ty in [Type::I32, Type::I64] {
        let e = run(|_, f, _, _| {
            let at = f.cast(
                CastKind::IntToPtr,
                Operand::const_int(Type::I64, -4),
                Type::I64,
                Type::Ptr,
            );
            f.load(ty, Operand::local(at));
        });
        expect_trap(e, "load: ");
    }
}

#[test]
fn memcpy_and_memset_at_wrapping_ranges_trap() {
    let n = Operand::const_int(Type::I64, 16);
    let e = run(|m, f, buf, wild| mem_call(m, f, "memcpy", [buf, wild, n]));
    expect_trap(e, "data access to code address");
    let e = run(|m, f, buf, wild| mem_call(m, f, "memcpy", [wild, buf, n]));
    expect_trap(e, "data access to code address");
    let e =
        run(|m, f, _, wild| mem_call(m, f, "memset", [wild, Operand::const_int(Type::I64, 0), n]));
    expect_trap(e, "data access to code address");
    // A length no arena holds, from a valid buffer.
    let huge = Operand::const_int(Type::I64, i64::MAX);
    let e = run(|m, f, buf, _| {
        mem_call(
            m,
            f,
            "memset",
            [buf, Operand::const_int(Type::I64, 0), huge],
        )
    });
    expect_trap(e, "out-of-bounds access");
}
