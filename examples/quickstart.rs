//! Quickstart: build a small program, obfuscate it through a Khaos
//! build *pipeline*, and watch behaviour stay identical while the code
//! restructures.
//!
//! Pipelines are first-class data: a spec string parses into a
//! `Pipeline`, runs over one seeded `PassCtx`, reports per-pass timing
//! and IR deltas, and carries a stable fingerprint (the build
//! provenance the diffing cache keys on).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use khaos::pass::{PassCtx, Pipeline};
use khaos::vm::run_to_completion;
use khaos_ir::builder::FunctionBuilder;
use khaos_ir::printer::print_module;
use khaos_ir::{BinOp, CmpPred, ExtFunc, Module, Operand, Type};

fn build_demo() -> Module {
    let mut m = Module::new("quickstart");
    let print = m.declare_external(ExtFunc {
        name: "print_i64".into(),
        params: vec![Type::I64],
        ret_ty: Type::Void,
        variadic: false,
    });

    // cal_file-alike (paper Figure 1): entry checks, a cold error path,
    // a hot loop, several returns.
    let mut f = FunctionBuilder::new("cal_file", Type::I64);
    let len = f.add_param(Type::I64);
    let cold = f.new_block();
    let loop_h = f.new_block();
    let loop_b = f.new_block();
    let done = f.new_block();
    let i = f.new_local(Type::I64);
    let value = f.new_local(Type::I64);
    let bad = f.cmp(
        CmpPred::Slt,
        Type::I64,
        Operand::local(len),
        Operand::const_int(Type::I64, 0),
    );
    f.copy_to(i, Operand::const_int(Type::I64, 0));
    f.copy_to(value, Operand::const_int(Type::I64, 0));
    f.branch(Operand::local(bad), cold, loop_h);
    f.switch_to(cold);
    f.ret(Some(Operand::const_int(Type::I64, -1)));
    f.switch_to(loop_h);
    let more = f.cmp(
        CmpPred::Slt,
        Type::I64,
        Operand::local(i),
        Operand::local(len),
    );
    f.branch(Operand::local(more), loop_b, done);
    f.switch_to(loop_b);
    let nv = f.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(value),
        Operand::local(i),
    );
    f.copy_to(value, Operand::local(nv));
    let ni = f.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(i),
        Operand::const_int(Type::I64, 1),
    );
    f.copy_to(i, Operand::local(ni));
    f.jump(loop_h);
    f.switch_to(done);
    f.ret(Some(Operand::local(value)));
    let cal_file = m.push_function(f.finish());

    // A logging helper with a compatible signature, fusion bait.
    let mut g = FunctionBuilder::new("log_value", Type::I64);
    let v = g.add_param(Type::I64);
    let doubled = g.bin(
        BinOp::Mul,
        Type::I64,
        Operand::local(v),
        Operand::const_int(Type::I64, 2),
    );
    g.ret(Some(Operand::local(doubled)));
    let log_value = m.push_function(g.finish());

    let mut main = FunctionBuilder::new("main", Type::I64);
    let r1 = main
        .call(cal_file, Type::I64, vec![Operand::const_int(Type::I64, 10)])
        .unwrap();
    main.call_ext(print, Type::Void, vec![Operand::local(r1)]);
    let r2 = main
        .call(log_value, Type::I64, vec![Operand::local(r1)])
        .unwrap();
    main.call_ext(print, Type::Void, vec![Operand::local(r2)]);
    let r3 = main
        .call(cal_file, Type::I64, vec![Operand::const_int(Type::I64, -5)])
        .unwrap();
    main.call_ext(print, Type::Void, vec![Operand::local(r3)]);
    let s = main.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(r2),
        Operand::local(r3),
    );
    main.ret(Some(Operand::local(s)));
    m.push_function(main.finish());
    m
}

fn main() {
    let mut module = build_demo();

    // The vendor's compiler: the paper baseline, as a one-atom pipeline.
    Pipeline::parse("O2+lto")
        .unwrap()
        .run(&mut module, &mut PassCtx::new(0xC60))
        .expect("baseline build");

    println!("=== before obfuscation ===");
    println!("{}", print_module(&module));
    let before = run_to_completion(&module, &[]).expect("baseline runs");
    println!(
        "output: {:?}, exit: {}, cycles: {}\n",
        before.output, before.exit_code, before.cycles
    );

    // The shipped build: Khaos FuFi.all in the middle-end, then the
    // rest of the compiler pipeline. One spec string describes it all.
    let pipeline = Pipeline::parse("fufi_all | O2+lto").expect("spec parses");
    let mut ctx = PassCtx::new(0xC60);
    let report = pipeline.run(&mut module, &mut ctx).expect("obfuscation");

    println!("=== after `{pipeline}` ===");
    println!("{}", print_module(&module));
    let after = run_to_completion(&module, &[]).expect("obfuscated runs");
    println!(
        "output: {:?}, exit: {}, cycles: {}",
        after.output, after.exit_code, after.cycles
    );

    assert_eq!(before.output, after.output, "behaviour must be preserved");
    assert_eq!(before.exit_code, after.exit_code);
    println!(
        "\nbehaviour preserved; functions: {} sepFuncs, {} fusFuncs",
        ctx.fission_stats.sep_funcs, ctx.fusion_stats.fus_funcs
    );
    println!(
        "runtime overhead: {:+.1}%",
        (after.cycles as f64 / before.cycles as f64 - 1.0) * 100.0
    );

    // The pipeline is data: it reports what each pass did, round-trips
    // through its spec, and fingerprints its configuration (the build
    // provenance `khaos-diff`'s embedding cache keys on).
    println!("\n{report}");
    assert_eq!(Pipeline::parse(&pipeline.to_string()).unwrap(), pipeline);
    println!(
        "build provenance fingerprint: {:016x}",
        pipeline.fingerprint()
    );
}
