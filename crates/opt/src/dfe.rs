//! Dead internal function elimination (the whole-program LTO effect).
//!
//! Removes internal functions that are never directly called, never
//! address-taken and never referenced from a global initialiser. Function
//! ids shift, so every reference in the module is rewritten.
//!
//! ## Peeling
//!
//! One pass counts the references to every function: each direct call,
//! invoke and `funcaddr`, each global `FuncPtr`, and one more for a root
//! (an exported function or `main`). Functions with no references go on
//! a worklist. Removing one decrements the counts of the functions it
//! refers to, and any count that reaches zero joins the worklist. The
//! survivors are compacted and remapped once, in their old order.
//!
//! This peels exactly the functions that removing every unreferenced
//! function, and rescanning, until none is left would remove. A dead
//! function that calls itself, or a dead cycle of functions, keeps a
//! reference from inside and **stays**. Reachability from the roots
//! would remove such cycles, and so change what every LTO build
//! contains.

use khaos_ir::{Callee, FuncId, Function, GInit, Inst, Linkage, Module, Term};

/// Visits every direct reference `f` makes to a function: direct calls,
/// direct invokes and `funcaddr` operands.
fn for_each_ref_mut(f: &mut Function, mut visit: impl FnMut(&mut FuncId)) {
    for b in &mut f.blocks {
        for inst in &mut b.insts {
            match inst {
                Inst::Call {
                    callee: Callee::Direct(t),
                    ..
                } => visit(t),
                Inst::FuncAddr { func, .. } => visit(func),
                _ => {}
            }
        }
        if let Term::Invoke {
            callee: Callee::Direct(t),
            ..
        } = &mut b.term
        {
            visit(t);
        }
    }
}

/// Visits every function pointer in the module's global initialisers.
fn for_each_global_ref_mut(m: &mut Module, mut visit: impl FnMut(&mut FuncId)) {
    for g in &mut m.globals {
        for init in &mut g.init {
            if let GInit::FuncPtr { func, .. } = init {
                visit(func);
            }
        }
    }
}

/// Removes dead internal functions. Returns the number removed.
pub fn run_module(m: &mut Module) -> usize {
    let n = m.functions.len();
    let mut refs = vec![0usize; n];
    for (i, f) in m.functions.iter_mut().enumerate() {
        if f.linkage == Linkage::Exported || f.name == "main" {
            refs[i] += 1;
        }
        for_each_ref_mut(f, |t| refs[t.index()] += 1);
    }
    for_each_global_ref_mut(m, |t| refs[t.index()] += 1);

    let mut work: Vec<usize> = (0..n).filter(|&i| refs[i] == 0).collect();
    let mut dead = vec![false; n];
    let mut removed = 0;
    while let Some(i) = work.pop() {
        dead[i] = true;
        removed += 1;
        for_each_ref_mut(&mut m.functions[i], |t| {
            refs[t.index()] -= 1;
            if refs[t.index()] == 0 {
                work.push(t.index());
            }
        });
    }
    if removed == 0 {
        return 0;
    }

    // Compact and remap.
    let mut map = vec![FuncId::new(0); n];
    let old: Vec<Function> = std::mem::take(&mut m.functions);
    for (i, f) in old.into_iter().enumerate() {
        if !dead[i] {
            map[i] = FuncId::new(m.functions.len());
            m.functions.push(f);
        }
    }
    for f in &mut m.functions {
        for_each_ref_mut(f, |t| *t = map[t.index()]);
    }
    for_each_global_ref_mut(m, |t| *t = map[t.index()]);
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::{Operand, Type};

    #[test]
    fn removes_uncalled_internal_chain() {
        let mut m = Module::new("t");
        // dead2 called only by dead1; dead1 called by nobody.
        let mut d2 = FunctionBuilder::new("dead2", Type::Void);
        d2.ret(None);
        let d2id = m.push_function(d2.finish());
        let mut d1 = FunctionBuilder::new("dead1", Type::Void);
        d1.call(d2id, Type::Void, vec![]);
        d1.ret(None);
        m.push_function(d1.finish());
        let mut main = FunctionBuilder::new("main", Type::I64);
        main.ret(Some(Operand::const_int(Type::I64, 0)));
        m.push_function(main.finish());

        let removed = run_module(&mut m);
        assert_eq!(removed, 2);
        assert_eq!(m.functions.len(), 1);
        assert_eq!(m.functions[0].name, "main");
        khaos_ir::verify::assert_valid(&m);
    }

    #[test]
    fn keeps_exported_and_referenced() {
        let mut m = Module::new("t");
        let mut api = FunctionBuilder::new("api", Type::Void);
        api.set_exported();
        api.ret(None);
        m.push_function(api.finish());

        let mut tbl = FunctionBuilder::new("via_table", Type::Void);
        tbl.ret(None);
        let tid = m.push_function(tbl.finish());
        m.push_global(khaos_ir::Global {
            name: "table".into(),
            init: vec![GInit::FuncPtr {
                func: tid,
                addend: 0,
            }],
            align: 8,
            exported: false,
        });

        let mut main = FunctionBuilder::new("main", Type::I64);
        main.ret(Some(Operand::const_int(Type::I64, 0)));
        m.push_function(main.finish());

        assert_eq!(run_module(&mut m), 0);
        assert_eq!(m.functions.len(), 3);
    }

    #[test]
    fn remaps_ids_after_compaction() {
        let mut m = Module::new("t");
        let mut dead = FunctionBuilder::new("dead", Type::Void);
        dead.ret(None);
        m.push_function(dead.finish());
        let mut live = FunctionBuilder::new("live", Type::I64);
        live.ret(Some(Operand::const_int(Type::I64, 7)));
        let lid = m.push_function(live.finish());
        let mut main = FunctionBuilder::new("main", Type::I64);
        let r = main.call(lid, Type::I64, vec![]).unwrap();
        main.ret(Some(Operand::local(r)));
        m.push_function(main.finish());

        assert_eq!(run_module(&mut m), 1);
        khaos_ir::verify::assert_valid(&m);
        assert_eq!(
            khaos_vm::run_function(&m, "main", &[]).unwrap().exit_code,
            7
        );
    }
}
