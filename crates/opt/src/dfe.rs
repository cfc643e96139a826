//! Dead internal function elimination (the whole-program LTO effect).
//!
//! Removes internal functions that are never directly called, never
//! address-taken and never referenced from a global initialiser. Function
//! ids shift, so every reference in the module is rewritten.

use khaos_ir::{Callee, FuncId, Function, GInit, Inst, Linkage, Module, Term};
use std::collections::HashMap;

/// Removes dead internal functions. Returns the number removed.
pub fn run_module(m: &mut Module) -> usize {
    {
        let mut referenced = vec![false; m.functions.len()];
        for (i, f) in m.functions.iter().enumerate() {
            if f.linkage == Linkage::Exported || f.name == "main" {
                referenced[i] = true;
            }
        }
        let mark = |c: &Callee, referenced: &mut Vec<bool>| {
            if let Callee::Direct(t) = c {
                referenced[t.index()] = true;
            }
        };
        for f in &m.functions {
            for b in &f.blocks {
                for inst in &b.insts {
                    match inst {
                        Inst::Call { callee, .. } => mark(callee, &mut referenced),
                        Inst::FuncAddr { func, .. } => referenced[func.index()] = true,
                        _ => {}
                    }
                }
                if let Term::Invoke { callee, .. } = &b.term {
                    mark(callee, &mut referenced);
                }
            }
        }
        for g in &m.globals {
            for init in &g.init {
                if let GInit::FuncPtr { func, .. } = init {
                    referenced[func.index()] = true;
                }
            }
        }

        let dead: Vec<usize> = (0..m.functions.len()).filter(|i| !referenced[*i]).collect();
        if dead.is_empty() {
            return 0;
        }

        // Compact and remap.
        let mut map: HashMap<FuncId, FuncId> = HashMap::new();
        let old: Vec<Function> = std::mem::take(&mut m.functions);
        for (i, f) in old.into_iter().enumerate() {
            if referenced[i] {
                map.insert(FuncId::new(i), FuncId::new(m.functions.len()));
                m.functions.push(f);
            }
        }
        let remap = |c: &mut Callee| {
            if let Callee::Direct(t) = c {
                *t = map[t];
            }
        };
        for f in &mut m.functions {
            for b in &mut f.blocks {
                for inst in &mut b.insts {
                    match inst {
                        Inst::Call { callee, .. } => remap(callee),
                        Inst::FuncAddr { func, .. } => *func = map[func],
                        _ => {}
                    }
                }
                if let Term::Invoke { callee, .. } = &mut b.term {
                    remap(callee);
                }
            }
        }
        for g in &mut m.globals {
            for init in &mut g.init {
                if let GInit::FuncPtr { func, .. } = init {
                    *func = map[func];
                }
            }
        }
        // Removing functions can orphan others; iterate.
        let removed = dead.len();
        removed + run_module(m)
    }
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
