//! N-way fusion walkthrough — the "any number of functions" form the
//! paper reserves for future work (§3.3), bounded at four constituents by
//! the §A.1 tag-bit budget.
//!
//! Builds a module with four dispatch handlers reached through a
//! function-pointer table (the shape of BusyBox's applet table), fuses
//! all four into ONE function at arity 4, and shows:
//!
//! * the module shrinking to a single `fusFunc` (plus `main`),
//! * the switch dispatch on the `ctrl` parameter,
//! * tagged function pointers keeping the indirect dispatch working,
//! * identical observable behaviour before and after.
//!
//! ```sh
//! cargo run --release --example nway_fusion
//! ```

use khaos::pass::{PassCtx, Pipeline};
use khaos::vm::run_to_completion;
use khaos_ir::builder::FunctionBuilder;
use khaos_ir::printer::print_module;
use khaos_ir::{BinOp, CmpPred, GInit, Global, Module, Operand, Type};

/// Four handlers of identical signature plus a `main` that dispatches
/// through a global function-pointer table — the pattern that forces the
/// tagged-pointer machinery (the compiler cannot know which handler a
/// table slot holds).
fn build_demo() -> Module {
    let mut m = Module::new("nway_demo");

    let mut handlers = Vec::new();
    for (name, op, k) in [
        ("handle_add", BinOp::Add, 100i64),
        ("handle_mul", BinOp::Mul, 3),
        ("handle_xor", BinOp::Xor, 0x5a),
        ("handle_shl", BinOp::Shl, 2),
    ] {
        let mut f = FunctionBuilder::new(name, Type::I64);
        let x = f.add_param(Type::I64);
        let r = f.bin(
            op,
            Type::I64,
            Operand::local(x),
            Operand::const_int(Type::I64, k),
        );
        f.ret(Some(Operand::local(r)));
        handlers.push(m.push_function(f.finish()));
    }

    // Applet table: four slots holding the handlers' addresses.
    let table = m.push_global(Global {
        name: "applet_table".into(),
        init: handlers
            .iter()
            .map(|&h| GInit::FuncPtr { func: h, addend: 0 })
            .collect(),
        align: 8,
        exported: false,
    });

    // main: walk the table, call each slot indirectly, accumulate.
    let mut f = FunctionBuilder::new("main", Type::I64);
    let loop_h = f.new_block();
    let loop_b = f.new_block();
    let done = f.new_block();
    let i = f.new_local(Type::I64);
    let acc = f.new_local(Type::I64);
    f.copy_to(i, Operand::const_int(Type::I64, 0));
    f.copy_to(acc, Operand::const_int(Type::I64, 7));
    f.jump(loop_h);
    f.switch_to(loop_h);
    let more = f.cmp(
        CmpPred::Slt,
        Type::I64,
        Operand::local(i),
        Operand::const_int(Type::I64, 4),
    );
    f.branch(Operand::local(more), loop_b, done);
    f.switch_to(loop_b);
    let base = f.globaladdr(table);
    let off = f.bin(
        BinOp::Shl,
        Type::I64,
        Operand::local(i),
        Operand::const_int(Type::I64, 3),
    );
    let slot = f.ptradd(Operand::local(base), Operand::local(off));
    let fp = f.load(Type::Ptr, Operand::local(slot));
    let r = f
        .call_indirect(Operand::local(fp), Type::I64, vec![Operand::local(acc)])
        .expect("handler returns a value");
    f.copy_to(acc, Operand::local(r));
    let ni = f.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(i),
        Operand::const_int(Type::I64, 1),
    );
    f.copy_to(i, Operand::local(ni));
    f.jump(loop_h);
    f.switch_to(done);
    f.ret(Some(Operand::local(acc)));
    m.push_function(f.finish());
    m
}

fn main() {
    let mut m = build_demo();
    khaos_ir::verify::assert_valid(&m);

    let before = run_to_completion(&m, &[]).expect("baseline runs");
    println!("== before: {} functions ==", m.functions.len());
    for f in &m.functions {
        println!("  {} ({} blocks)", f.name, f.blocks.len());
    }
    println!("exit code: {}\n", before.exit_code);

    let mut ctx = PassCtx::new(0xC60);
    Pipeline::parse("fusion_n(arity=4)")
        .unwrap()
        .run(&mut m, &mut ctx)
        .expect("arity-4 fusion");

    let after = run_to_completion(&m, &[]).expect("fused build runs");
    println!(
        "== after arity-4 fusion: {} functions ==",
        m.functions.len()
    );
    for f in &m.functions {
        println!("  {} ({} blocks)", f.name, f.blocks.len());
    }
    println!(
        "fusFuncs formed: {}, indirect sites rewritten: {}, trampolines: {}",
        ctx.fusion_stats.fus_funcs,
        ctx.fusion_stats.indirect_sites_rewritten,
        ctx.fusion_stats.trampolines,
    );
    println!(
        "exit code: {} (must equal {})",
        after.exit_code, before.exit_code
    );
    assert_eq!(before.output, after.output);
    assert_eq!(before.exit_code, after.exit_code);

    // Show the fused function's dispatch: a switch over ctrl.
    let fus = m
        .functions
        .iter()
        .find(|f| f.provenance.kind == khaos_ir::ProvKind::Fused)
        .expect("a fused function exists");
    println!("\n== dispatch of {} ==", fus.name);
    let text = print_module(&m);
    let header = format!("func {}", fus.name);
    for line in text.lines().skip_while(|l| !l.contains(&header)).take(8) {
        println!("  {line}");
    }
    println!("\nall four handlers now live behind one symbol — a diffing tool");
    println!("sees one big function where the reference build had four small ones");
}
