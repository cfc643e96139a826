//! Promotion of non-escaping allocas to registers.
//!
//! An alloca qualifies when its address is used *only* as the direct
//! address operand of same-typed loads and stores. The alloca becomes a
//! zero-initialised register; loads become copies from it, stores copies
//! into it. This is the pass that cleans up after fission demotes
//! cross-region variables to stack slots.

use khaos_ir::{Function, Inst, LocalId, Operand, Type};

/// Runs promotion on one function. Returns the number of promoted allocas.
pub fn run_function(f: &mut Function) -> usize {
    // Gather candidate allocas: local -> (size, element type or None until seen).
    #[derive(Clone)]
    struct Cand {
        size: u32,
        ty: Option<Type>,
        ok: bool,
    }
    let mut cands: Vec<Option<Cand>> = vec![None; f.locals.len()];
    for b in &f.blocks {
        for inst in &b.insts {
            if let Inst::Alloca { dst, size, .. } = inst {
                match &mut cands[dst.index()] {
                    // A second alloca defining the same local: unsupported.
                    Some(c) => c.ok = false,
                    slot => {
                        *slot = Some(Cand {
                            size: *size,
                            ty: None,
                            ok: true,
                        })
                    }
                }
            }
        }
    }
    let disqualify = |cands: &mut Vec<Option<Cand>>, l: LocalId| {
        if let Some(c) = &mut cands[l.index()] {
            c.ok = false;
        }
    };

    // Scan all uses; only Load/Store address positions are allowed.
    for b in &f.blocks {
        if let Some(pad) = &b.pad {
            if let Some(d) = pad.dst {
                disqualify(&mut cands, d);
            }
        }
        for inst in &b.insts {
            match inst {
                Inst::Load { ty, addr, dst } => {
                    if let Some(l) = addr.as_local() {
                        if let Some(c) = &mut cands[l.index()] {
                            match c.ty {
                                None => c.ty = Some(*ty),
                                Some(t) if t == *ty => {}
                                _ => c.ok = false,
                            }
                            if ty.size() > c.size {
                                c.ok = false;
                            }
                        }
                    }
                    // A load *into* the candidate local clobbers it.
                    if cands[dst.index()].is_some() {
                        disqualify(&mut cands, *dst);
                    }
                }
                Inst::Store { ty, addr, value } => {
                    if let Some(l) = addr.as_local() {
                        if let Some(c) = &mut cands[l.index()] {
                            match c.ty {
                                None => c.ty = Some(*ty),
                                Some(t) if t == *ty => {}
                                _ => c.ok = false,
                            }
                            if ty.size() > c.size {
                                c.ok = false;
                            }
                        }
                    }
                    // Storing the pointer itself leaks it.
                    if let Some(l) = value.as_local() {
                        disqualify(&mut cands, l);
                    }
                }
                Inst::Alloca { .. } => {}
                other => {
                    other.for_each_use(|o| {
                        if let Some(l) = o.as_local() {
                            disqualify(&mut cands, l);
                        }
                    });
                    if let Some(d) = other.def() {
                        if cands[d.index()].is_some() {
                            disqualify(&mut cands, d);
                        }
                    }
                }
            }
        }
        b.term.for_each_use(|o| {
            if let Some(l) = o.as_local() {
                disqualify(&mut cands, l);
            }
        });
        if let Some(d) = b.term.def() {
            if cands[d.index()].is_some() {
                disqualify(&mut cands, d);
            }
        }
    }

    // Materialize: one fresh register per promoted alloca.
    let mut reg_for: Vec<Option<(LocalId, Type)>> = vec![None; f.locals.len()];
    let mut promoted = 0;
    for (i, c) in cands.iter().enumerate() {
        if let Some(Cand {
            ty: Some(ty),
            ok: true,
            ..
        }) = c
        {
            let r = f.new_local(*ty);
            reg_for[i] = Some((r, *ty));
            promoted += 1;
        }
    }
    if promoted == 0 {
        return 0;
    }

    for b in &mut f.blocks {
        for inst in &mut b.insts {
            let replacement = match inst {
                Inst::Alloca { dst, .. } => {
                    reg_for
                        .get(dst.index())
                        .and_then(|r| *r)
                        .map(|(r, ty)| Inst::Copy {
                            ty,
                            dst: r,
                            src: Operand::zero(ty),
                        })
                }
                Inst::Load { dst, addr, .. } => addr
                    .as_local()
                    .and_then(|l| reg_for[l.index()])
                    .map(|(r, ty)| Inst::Copy {
                        ty,
                        dst: *dst,
                        src: Operand::local(r),
                    }),
                Inst::Store { addr, value, .. } => addr
                    .as_local()
                    .and_then(|l| reg_for[l.index()])
                    .map(|(r, ty)| Inst::Copy {
                        ty,
                        dst: r,
                        src: *value,
                    }),
                _ => None,
            };
            if let Some(r) = replacement {
                *inst = r;
            }
        }
    }
    promoted
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::{BinOp, Module};
    use khaos_vm::run_function as vm_run;

    #[test]
    fn promotes_simple_slot() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.alloca(8);
        fb.store(
            Type::I64,
            Operand::const_int(Type::I64, 5),
            Operand::local(p),
        );
        let v = fb.load(Type::I64, Operand::local(p));
        fb.ret(Some(Operand::local(v)));
        m.push_function(fb.finish());

        let n = run_function(&mut m.functions[0]);
        assert_eq!(n, 1);
        khaos_ir::verify::assert_valid(&m);
        assert!(
            !m.functions[0]
                .blocks
                .iter()
                .any(|b| b.insts.iter().any(|i| matches!(
                    i,
                    Inst::Alloca { .. } | Inst::Load { .. } | Inst::Store { .. }
                ))),
            "all memory ops should be gone"
        );
        assert_eq!(vm_run(&m, "main", &[]).unwrap().exit_code, 5);
    }

    #[test]
    fn escaping_alloca_not_promoted() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.alloca(8);
        // Address escapes through pointer arithmetic.
        let q = fb.ptradd(Operand::local(p), Operand::const_int(Type::I64, 0));
        fb.store(
            Type::I64,
            Operand::const_int(Type::I64, 5),
            Operand::local(q),
        );
        let v = fb.load(Type::I64, Operand::local(p));
        fb.ret(Some(Operand::local(v)));
        m.push_function(fb.finish());
        let n = run_function(&mut m.functions[0]);
        assert_eq!(n, 0);
        assert_eq!(vm_run(&m, "main", &[]).unwrap().exit_code, 5);
    }

    #[test]
    fn mixed_types_not_promoted() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.alloca(8);
        fb.store(
            Type::I32,
            Operand::const_int(Type::I32, 5),
            Operand::local(p),
        );
        let v = fb.load(Type::I64, Operand::local(p));
        fb.ret(Some(Operand::local(v)));
        m.push_function(fb.finish());
        assert_eq!(run_function(&mut m.functions[0]), 0);
    }

    #[test]
    fn promoted_register_behaves_across_blocks() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.alloca(8);
        let h = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        let i = fb.new_local(Type::I64);
        fb.store(
            Type::I64,
            Operand::const_int(Type::I64, 0),
            Operand::local(p),
        );
        fb.copy_to(i, Operand::const_int(Type::I64, 0));
        fb.jump(h);
        fb.switch_to(h);
        let c = fb.cmp(
            khaos_ir::CmpPred::Slt,
            Type::I64,
            Operand::local(i),
            Operand::const_int(Type::I64, 5),
        );
        fb.branch(Operand::local(c), body, exit);
        fb.switch_to(body);
        let cur = fb.load(Type::I64, Operand::local(p));
        let nxt = fb.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(cur),
            Operand::local(i),
        );
        fb.store(Type::I64, Operand::local(nxt), Operand::local(p));
        let ni = fb.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(i),
            Operand::const_int(Type::I64, 1),
        );
        fb.copy_to(i, Operand::local(ni));
        fb.jump(h);
        fb.switch_to(exit);
        let fin = fb.load(Type::I64, Operand::local(p));
        fb.ret(Some(Operand::local(fin)));
        m.push_function(fb.finish());

        let before = vm_run(&m, "main", &[]).unwrap();
        assert_eq!(run_function(&mut m.functions[0]), 1);
        khaos_ir::verify::assert_valid(&m);
        let after = vm_run(&m, "main", &[]).unwrap();
        assert_eq!(before.exit_code, after.exit_code);
        assert_eq!(after.exit_code, 1 + 2 + 3 + 4);
        assert!(after.cycles < before.cycles);
    }
}
