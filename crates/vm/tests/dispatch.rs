//! The step budget and traps are exact: a run that takes `S` steps
//! succeeds with a budget of exactly `S` and runs out of fuel with any
//! smaller one, wherever the budget ends (mid-block, on a terminator,
//! across a back-edge, inside a callee); and a fault reached deep inside
//! a loop traps at its own step with its own message.

use khaos_ir::builder::FunctionBuilder;
use khaos_ir::{BinOp, CmpPred, Module, Operand, Type};
use khaos_vm::{RunConfig, RunResult, Vm, VmError};

fn int(v: i64) -> Operand {
    Operand::const_int(Type::I64, v)
}

/// Runs `main` with a step budget.
fn run(m: &Module, max_steps: u64) -> Result<RunResult, VmError> {
    let (id, _) = m.function_by_name("main").expect("main");
    Vm::new(
        m,
        RunConfig {
            max_steps,
            ..RunConfig::default()
        },
    )
    .run(id, &[])
}

/// A loop of five iterations whose body is a multi-instruction block
/// with a call, a switch diamond and a memory round trip, so budgets
/// end everywhere the dispatcher can be.
fn looping() -> Module {
    let mut m = Module::new("t");
    let mut sq = FunctionBuilder::new("sq", Type::I64);
    let x = sq.add_param(Type::I64);
    let y = sq.bin(BinOp::Mul, Type::I64, Operand::local(x), Operand::local(x));
    sq.ret(Some(Operand::local(y)));
    let sq = m.push_function(sq.finish());

    let mut f = FunctionBuilder::new("main", Type::I64);
    let i = f.new_local(Type::I64);
    let acc = f.new_local(Type::I64);
    let p = f.alloca(8);
    f.store(Type::I64, int(0), Operand::local(p));
    f.copy_to(i, int(0));
    f.copy_to(acc, int(0));
    let head = f.new_block();
    let body = f.new_block();
    let even = f.new_block();
    let odd = f.new_block();
    let latch = f.new_block();
    let exit = f.new_block();
    f.jump(head);

    f.switch_to(head);
    let c = f.cmp(CmpPred::Slt, Type::I64, Operand::local(i), int(5));
    f.branch(Operand::local(c), body, exit);

    f.switch_to(body);
    let t = f.bin(BinOp::Mul, Type::I64, Operand::local(i), int(3));
    let a = f.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(acc),
        Operand::local(t),
    );
    let r = f
        .call(sq, Type::I64, vec![Operand::local(i)])
        .expect("value call");
    let a = f.bin(BinOp::Add, Type::I64, Operand::local(a), Operand::local(r));
    f.copy_to(acc, Operand::local(a));
    let parity = f.bin(BinOp::And, Type::I64, Operand::local(i), int(1));
    f.switch(Type::I64, Operand::local(parity), vec![(0, even)], odd);

    f.switch_to(even);
    let v = f.load(Type::I64, Operand::local(p));
    let v = f.bin(BinOp::Add, Type::I64, Operand::local(v), int(10));
    f.store(Type::I64, Operand::local(v), Operand::local(p));
    f.jump(latch);

    f.switch_to(odd);
    let v = f.load(Type::I64, Operand::local(p));
    let v = f.bin(BinOp::Sub, Type::I64, Operand::local(v), int(1));
    f.store(Type::I64, Operand::local(v), Operand::local(p));
    f.jump(latch);

    f.switch_to(latch);
    let ni = f.bin(BinOp::Add, Type::I64, Operand::local(i), int(1));
    f.copy_to(i, Operand::local(ni));
    f.jump(head);

    f.switch_to(exit);
    let v = f.load(Type::I64, Operand::local(p));
    let s = f.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(acc),
        Operand::local(v),
    );
    f.ret(Some(Operand::local(s)));
    m.push_function(f.finish());
    khaos_ir::verify::assert_valid(&m);
    m
}

#[test]
fn fuel_boundary_is_exact() {
    let m = looping();
    let full = run(&m, u64::MAX).expect("runs");
    // acc = 3·(0+1+2+3+4) + (0+1+4+9+16) = 60; memory = 3·10 − 2 = 28.
    assert_eq!(full.exit_code, 88);
    // 5 setup steps, 5 passes of 18 (head 2, body 7 + callee 2, one
    // diamond arm 4, latch 3), the final head 2 and the exit 3. The
    // cycles are part of the cost model: pinned.
    assert_eq!((full.steps, full.cycles), (100, 412));

    let s = full.steps;
    assert_eq!(run(&m, s), Ok(full), "a budget of exactly S suffices");
    // Every smaller budget stops short: the loop body is longer than
    // any block, so this covers budgets ending mid-block, on each
    // terminator, across the back-edge and inside the callee.
    for budget in (0..s).rev() {
        assert_eq!(
            run(&m, budget),
            Err(VmError::OutOfFuel),
            "budget {budget} of {s}"
        );
    }
}

/// The smallest budget at which `m` stops with something other than
/// `OutOfFuel`, and what it stops with.
fn first_stop(m: &Module) -> (u64, VmError) {
    (0..10_000)
        .find_map(|budget| match run(m, budget) {
            Err(VmError::OutOfFuel) => None,
            Err(e) => Some((budget, e)),
            Ok(r) => panic!("expected a trap, ran to completion: {r:?}"),
        })
        .expect("stops within the search range")
}

/// `loop { q = 100 op (3 - i); i += 1 }`: faults on the fourth pass
/// through a chained block.
fn dividing(op: BinOp) -> Module {
    let mut m = Module::new("t");
    let mut f = FunctionBuilder::new("main", Type::I64);
    let i = f.new_local(Type::I64);
    let acc = f.new_local(Type::I64);
    f.copy_to(i, int(0));
    f.copy_to(acc, int(0));
    let body = f.new_block();
    f.jump(body);
    f.switch_to(body);
    let d = f.bin(BinOp::Sub, Type::I64, int(3), Operand::local(i));
    let q = f.bin(op, Type::I64, int(100), Operand::local(d));
    let a = f.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(acc),
        Operand::local(q),
    );
    f.copy_to(acc, Operand::local(a));
    let ni = f.bin(BinOp::Add, Type::I64, Operand::local(i), int(1));
    f.copy_to(i, Operand::local(ni));
    let c = f.cmp(CmpPred::Slt, Type::I64, Operand::local(i), int(10));
    let done = f.new_block();
    f.branch(Operand::local(c), body, done);
    f.switch_to(done);
    f.ret(Some(Operand::local(acc)));
    m.push_function(f.finish());
    khaos_ir::verify::assert_valid(&m);
    m
}

#[test]
fn division_by_zero_in_a_chained_block_traps_at_its_step() {
    let (step, e) = first_stop(&dividing(BinOp::SDiv));
    assert_eq!(e, VmError::Trap("integer division by zero".into()));
    // 3 setup steps, 3 clean passes of 8 steps, then the second
    // instruction of the fourth pass.
    assert_eq!(step, 3 + 3 * 8 + 2);
    let (step, e) = first_stop(&dividing(BinOp::URem));
    assert_eq!(e, VmError::Trap("integer remainder by zero".into()));
    assert_eq!(step, 3 + 3 * 8 + 2);
}

#[test]
fn null_load_and_store_in_a_chained_block_trap_at_their_step() {
    // loop { p = i == 2 ? null : slot; v = load/store p; i += 1 }
    let build = |store: bool| {
        let mut m = Module::new("t");
        let mut f = FunctionBuilder::new("main", Type::I64);
        let i = f.new_local(Type::I64);
        let slot = f.alloca(8);
        f.store(Type::I64, int(5), Operand::local(slot));
        f.copy_to(i, int(0));
        let body = f.new_block();
        f.jump(body);
        f.switch_to(body);
        let z = f.cmp(CmpPred::Eq, Type::I64, Operand::local(i), int(2));
        let p = f.select(
            Type::Ptr,
            Operand::local(z),
            Operand::zero(Type::Ptr),
            Operand::local(slot),
        );
        if store {
            f.store(Type::I64, Operand::local(i), Operand::local(p));
        } else {
            f.load(Type::I64, Operand::local(p));
        }
        let ni = f.bin(BinOp::Add, Type::I64, Operand::local(i), int(1));
        f.copy_to(i, Operand::local(ni));
        let c = f.cmp(CmpPred::Slt, Type::I64, Operand::local(i), int(10));
        let done = f.new_block();
        f.branch(Operand::local(c), body, done);
        f.switch_to(done);
        f.ret(Some(Operand::local(i)));
        m.push_function(f.finish());
        khaos_ir::verify::assert_valid(&m);
        m
    };
    // 4 setup steps, 2 clean passes of 7 steps, then the third
    // instruction of the third pass.
    let (step, e) = first_stop(&build(false));
    assert_eq!(e, VmError::Trap("load: null dereference at 0x0".into()));
    assert_eq!(step, 4 + 2 * 7 + 3);
    let (step, e) = first_stop(&build(true));
    assert_eq!(e, VmError::Trap("store: null dereference at 0x0".into()));
    assert_eq!(step, 4 + 2 * 7 + 3);
}

/// Runs `m` with every budget up to its step count `S`: exactly `S`
/// reproduces the unlimited run, and every smaller budget runs out of
/// fuel. Returns the run.
fn assert_fuel_exact(m: &Module) -> RunResult {
    let full = run(m, u64::MAX).expect("runs");
    let s = full.steps;
    assert_eq!(
        run(m, s),
        Ok(full.clone()),
        "a budget of exactly S suffices"
    );
    for budget in (0..s).rev() {
        assert_eq!(
            run(m, budget),
            Err(VmError::OutOfFuel),
            "budget {budget} of {s}"
        );
    }
    full
}

fn external(m: &mut Module, name: &str, params: Vec<Type>, ret_ty: Type) -> khaos_ir::ExtId {
    m.declare_external(khaos_ir::ExtFunc {
        name: name.into(),
        params,
        ret_ty,
        variadic: false,
    })
}

/// `for i in 0..3 { acc += body(i) }`, where the loop body ends in an
/// invoke of `callee(acc + i)` and continues in a multi-op block: the
/// landing pad when `throws`, else the normal successor. Either is
/// entered mid-run, after the callee's frame is gone.
fn invoking(throws: bool) -> Module {
    let mut m = Module::new("t");
    let throw = external(&mut m, "throw_exc", vec![Type::I64], Type::Void);
    let mut callee = FunctionBuilder::new("callee", Type::I64);
    let x = callee.add_param(Type::I64);
    let t = callee.bin(BinOp::Mul, Type::I64, Operand::local(x), int(2));
    let t = callee.bin(BinOp::Add, Type::I64, Operand::local(t), int(1));
    if throws {
        callee.call_ext(throw, Type::Void, vec![Operand::local(t)]);
    }
    callee.ret(Some(Operand::local(t)));
    let callee = m.push_function(callee.finish());

    let mut f = FunctionBuilder::new("main", Type::I64);
    let i = f.new_local(Type::I64);
    let acc = f.new_local(Type::I64);
    let got = f.new_local(Type::I64);
    f.copy_to(i, int(0));
    f.copy_to(acc, int(0));
    let head = f.new_block();
    let body = f.new_block();
    let normal = f.new_block();
    let pad = f.new_pad_block(Some(got));
    let exit = f.new_block();
    f.jump(head);

    f.switch_to(head);
    let c = f.cmp(CmpPred::Slt, Type::I64, Operand::local(i), int(3));
    f.branch(Operand::local(c), body, exit);

    f.switch_to(body);
    let a = f.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(acc),
        Operand::local(i),
    );
    let r = f
        .invoke(
            khaos_ir::Callee::Direct(callee),
            Type::I64,
            vec![Operand::local(a)],
            normal,
            pad,
        )
        .expect("value invoke");

    // The successor the run takes folds the callee's value into `acc`;
    // the other one returns a sentinel.
    let (taken, other) = if throws { (pad, normal) } else { (normal, pad) };
    f.switch_to(taken);
    let v = if throws { got } else { r };
    let a = f.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(acc),
        Operand::local(v),
    );
    f.copy_to(acc, Operand::local(a));
    let ni = f.bin(BinOp::Add, Type::I64, Operand::local(i), int(1));
    f.copy_to(i, Operand::local(ni));
    f.jump(head);
    f.switch_to(other);
    f.ret(Some(int(-1)));

    f.switch_to(exit);
    f.ret(Some(Operand::local(acc)));
    m.push_function(f.finish());
    khaos_ir::verify::assert_valid(&m);
    m
}

#[test]
fn fuel_boundary_is_exact_across_a_landing_pad() {
    let full = assert_fuel_exact(&invoking(true));
    // acc: 0 → 0+2·0+1 = 1 → 1+2·2+1 = 6 → 6+2·8+1 = 23. The counts
    // are part of the cost model: pinned.
    assert_eq!(full.exit_code, 23);
    assert_eq!((full.steps, full.cycles), (42, 219));
}

#[test]
fn fuel_boundary_is_exact_across_an_invoke_return() {
    let full = assert_fuel_exact(&invoking(false));
    assert_eq!(full.exit_code, 23);
    assert_eq!((full.steps, full.cycles), (42, 180));
}

/// `n = 0; r = setjmp(buf); n += r; if r < 3 { jump(buf, r) }; return n`,
/// where `jump` longjmps back with `r + 1`: the block after the setjmp
/// call is re-entered three times, mid-block, from another frame.
fn jumping() -> Module {
    let mut m = Module::new("t");
    let setjmp = external(&mut m, "setjmp", vec![Type::Ptr], Type::I32);
    let longjmp = external(&mut m, "longjmp", vec![Type::Ptr, Type::I32], Type::Void);
    let mut jump = FunctionBuilder::new("jump", Type::Void);
    let buf = jump.add_param(Type::Ptr);
    let v = jump.add_param(Type::I32);
    let w = jump.bin(
        BinOp::Add,
        Type::I32,
        Operand::local(v),
        Operand::const_int(Type::I32, 1),
    );
    jump.call_ext(
        longjmp,
        Type::Void,
        vec![Operand::local(buf), Operand::local(w)],
    );
    jump.ret(None);
    let jump = m.push_function(jump.finish());

    let mut f = FunctionBuilder::new("main", Type::I64);
    let n = f.new_local(Type::I64);
    let buf = f.alloca(8);
    f.copy_to(n, int(0));
    let r = f
        .call_ext(setjmp, Type::I32, vec![Operand::local(buf)])
        .expect("setjmp value");
    let r64 = f.cast(
        khaos_ir::CastKind::SExt,
        Operand::local(r),
        Type::I32,
        Type::I64,
    );
    let sum = f.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(n),
        Operand::local(r64),
    );
    f.copy_to(n, Operand::local(sum));
    let c = f.cmp(CmpPred::Slt, Type::I64, Operand::local(r64), int(3));
    let again = f.new_block();
    let done = f.new_block();
    f.branch(Operand::local(c), again, done);
    f.switch_to(again);
    f.call(
        jump,
        Type::Void,
        vec![Operand::local(buf), Operand::local(r)],
    );
    f.ret(Some(int(-1)));
    f.switch_to(done);
    f.ret(Some(Operand::local(n)));
    m.push_function(f.finish());
    khaos_ir::verify::assert_valid(&m);
    m
}

#[test]
fn fuel_boundary_is_exact_across_a_longjmp() {
    let full = assert_fuel_exact(&jumping());
    assert_eq!(full.exit_code, 1 + 2 + 3);
    assert_eq!((full.steps, full.cycles), (33, 221));
}
