//! Module and function verification.
//!
//! Every optimization and obfuscation pass must leave the module in a state
//! that passes [`verify_module`]; the test suites assert this after each
//! transformation.

use crate::function::Function;
use crate::ids::{BlockId, FuncId, LocalId};
use crate::inst::{Callee, CastKind, Inst, Operand, Term};
use crate::module::{GInit, Module};
use crate::types::Type;
use std::fmt;

/// A single verification failure.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyError {
    /// Function in which the error occurred, if any.
    pub function: Option<String>,
    /// Block in which the error occurred, if any.
    pub block: Option<BlockId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.function, &self.block) {
            (Some(func), Some(b)) => write!(f, "in {func} at {b}: {}", self.message),
            (Some(func), None) => write!(f, "in {func}: {}", self.message),
            _ => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

struct Checker<'m> {
    m: &'m Module,
    errors: Vec<VerifyError>,
    cur_fn: Option<String>,
    cur_bb: Option<BlockId>,
}

impl<'m> Checker<'m> {
    fn err(&mut self, message: impl Into<String>) {
        self.errors.push(VerifyError {
            function: self.cur_fn.clone(),
            block: self.cur_bb,
            message: message.into(),
        });
    }

    /// Reports every name of `names` seen before (the parser and the
    /// audit both look symbols up by name, so a repeat would alias).
    fn check_unique<'a>(&mut self, what: &str, names: impl Iterator<Item = &'a str>) {
        let mut seen = std::collections::HashSet::new();
        for name in names {
            if !seen.insert(name) {
                self.err(format!("duplicate {what} name `{name}`"));
            }
        }
    }

    fn check_module(&mut self) {
        let m = self.m;
        self.check_unique("function", m.functions.iter().map(|f| f.name.as_str()));
        self.check_unique("global", m.globals.iter().map(|g| g.name.as_str()));
        self.check_unique("external", m.externals.iter().map(|e| e.name.as_str()));
        for g in &m.globals {
            for init in &g.init {
                if let GInit::FuncPtr { func, .. } = init {
                    if func.index() >= self.m.functions.len() {
                        self.err(format!(
                            "global `{}` references out-of-range {func}",
                            g.name
                        ));
                    }
                }
            }
        }
        for (fi, f) in m.functions.iter().enumerate() {
            self.cur_fn = Some(f.name.clone());
            self.check_function(FuncId::new(fi), f);
            self.cur_fn = None;
        }
    }

    fn local_ty(&mut self, f: &Function, l: LocalId) -> Option<Type> {
        if l.index() >= f.locals.len() {
            self.err(format!("out-of-range local {l}"));
            None
        } else {
            Some(f.locals[l.index()])
        }
    }

    fn operand_ty(&mut self, f: &Function, o: &Operand) -> Option<Type> {
        match o {
            Operand::Local(l) => self.local_ty(f, *l),
            Operand::Const(c) => Some(c.ty()),
        }
    }

    fn expect_operand(&mut self, f: &Function, o: &Operand, want: Type, what: &str) {
        if let Some(t) = self.operand_ty(f, o) {
            if t != want {
                self.err(format!("{what} has type {t}, expected {want}"));
            }
        }
    }

    fn expect_local(&mut self, f: &Function, l: LocalId, want: Type, what: &str) {
        if let Some(t) = self.local_ty(f, l) {
            if t != want {
                self.err(format!("{what} {l} has type {t}, expected {want}"));
            }
        }
    }

    fn check_block_ref(&mut self, f: &Function, b: BlockId) {
        if b.index() >= f.blocks.len() {
            self.err(format!("out-of-range block target {b}"));
        }
    }

    fn check_callee_sig(
        &mut self,
        f: &Function,
        callee: &Callee,
        args: &[Operand],
        dst: Option<LocalId>,
        via_invoke: bool,
    ) {
        match callee {
            Callee::Direct(t) => {
                if t.index() >= self.m.functions.len() {
                    self.err(format!("call to out-of-range {t}"));
                    return;
                }
                let target = &self.m.functions[t.index()];
                let want = target.param_types().to_vec();
                let (tname, tret, tvariadic) =
                    (target.name.clone(), target.ret_ty, target.variadic);
                if !tvariadic && args.len() != want.len() {
                    self.err(format!(
                        "call to `{tname}` passes {} args, expected {}",
                        args.len(),
                        want.len()
                    ));
                } else if tvariadic && args.len() < want.len() {
                    self.err(format!(
                        "variadic call to `{tname}` passes {} args, needs at least {}",
                        args.len(),
                        want.len()
                    ));
                }
                for (i, (a, w)) in args.iter().zip(want.iter()).enumerate() {
                    if let Some(t) = self.operand_ty(f, a) {
                        if t != *w {
                            self.err(format!(
                                "arg {i} of call to `{tname}` has type {t}, expected {w}"
                            ));
                        }
                    }
                }
                match (dst, tret) {
                    (Some(d), Type::Void) => {
                        self.err(format!("void call to `{tname}` must not define {d}"))
                    }
                    (Some(d), rt) => self.expect_local(f, d, rt, "call result"),
                    (None, _) => {}
                }
            }
            Callee::Ext(e) => {
                if e.index() >= self.m.externals.len() {
                    self.err(format!("call to out-of-range external {e}"));
                    return;
                }
                let ext = &self.m.externals[e.index()];
                let (ename, eret, evariadic) = (ext.name.clone(), ext.ret_ty, ext.variadic);
                let want = ext.params.clone();
                if !evariadic && args.len() != want.len() {
                    self.err(format!(
                        "call to external `{ename}` passes {} args, expected {}",
                        args.len(),
                        want.len()
                    ));
                }
                for (i, (a, w)) in args.iter().zip(want.iter()).enumerate() {
                    if let Some(t) = self.operand_ty(f, a) {
                        if t != *w {
                            self.err(format!(
                                "arg {i} of call to external `{ename}` has type {t}, expected {w}"
                            ));
                        }
                    }
                }
                match (dst, eret) {
                    (Some(d), Type::Void) => {
                        self.err(format!("void external call `{ename}` must not define {d}"))
                    }
                    (Some(d), rt) => self.expect_local(f, d, rt, "external call result"),
                    (None, _) => {}
                }
            }
            Callee::Indirect(p) => {
                self.expect_operand(f, p, Type::Ptr, "indirect call target");
                // Indirect calls are unchecked beyond the pointer type:
                // the VM enforces arity dynamically (K&R-style).
                let _ = via_invoke;
                if let Some(d) = dst {
                    let _ = self.local_ty(f, d);
                }
            }
        }
    }

    fn check_function(&mut self, _id: FuncId, f: &Function) {
        let errs_at_entry = self.errors.len();
        if f.param_count as usize > f.locals.len() {
            self.err("param_count exceeds locals".to_string());
        }
        for (i, t) in f.param_types().iter().enumerate() {
            if *t == Type::Void {
                self.err(format!("param {i} has type void"));
            }
        }
        if f.blocks.is_empty() {
            self.err("function has no blocks".to_string());
            return;
        }
        if f.blocks[0].pad.is_some() {
            self.err("entry block must not be a landing pad".to_string());
        }

        // Landing pads may only be reached via invoke unwind edges.
        let mut pad_ok = vec![true; f.blocks.len()];
        for (_, block) in f.iter_blocks() {
            match &block.term {
                Term::Invoke { normal, unwind, .. } => {
                    self.check_block_ref(f, *normal);
                    self.check_block_ref(f, *unwind);
                    if unwind.index() < f.blocks.len() && !f.block(*unwind).is_pad() {
                        self.err(format!(
                            "invoke unwind target {unwind} is not a landing pad"
                        ));
                    }
                    if normal.index() < f.blocks.len() && f.block(*normal).is_pad() {
                        self.err(format!("invoke normal target {normal} is a landing pad"));
                    }
                }
                t => {
                    t.for_each_successor(|s| {
                        if s.index() < f.blocks.len() && f.block(s).is_pad() {
                            pad_ok[s.index()] = false;
                        }
                    });
                }
            }
        }
        for (b, block) in f.iter_blocks() {
            if block.is_pad() && !pad_ok[b.index()] {
                self.cur_bb = Some(b);
                self.err("landing pad reached through a non-invoke edge".to_string());
                self.cur_bb = None;
            }
        }

        for (b, block) in f.iter_blocks() {
            self.cur_bb = Some(b);
            if let Some(pad) = &block.pad {
                if let Some(d) = pad.dst {
                    self.expect_local(f, d, Type::I64, "landing-pad binding");
                }
            }
            for inst in &block.insts {
                self.check_inst(f, inst);
            }
            self.check_term(f, &block.term);
            self.cur_bb = None;
        }

        // Def-before-use for addresses, by one may-defined solve over
        // locals ([`crate::analysis::dataflow::certainly_uninit_uses`]): a
        // local dereferenced in reachable code (load/store address,
        // indirect callee) must have at least one definition reaching it.
        // Three deliberate limits keep this sound for the IR's real
        // programs: KIR zero-initializes locals, so a maybe-uninit value
        // read is defined behavior (it reads zero) and stays legal; deep
        // fusion's ctrl-correlated block merging makes defs stop
        // *dominating* their uses while every dynamic path still executes
        // them, so only a use no def reaches on ANY path counts; and
        // fission's naive (non-data-flow-reduced) extraction passes
        // never-defined locals as call arguments on purpose (transporting
        // the zero), so only *address* positions — where the zero faults —
        // are errors. Runs only when the structural checks above are clean
        // — the CFG walk indexes successor blocks, which may be out of
        // range otherwise.
        if self.errors.len() == errs_at_entry {
            let cfg = crate::analysis::cfg::Cfg::compute(f);
            for v in crate::analysis::dataflow::certainly_uninit_uses(f, &cfg) {
                if !is_address_use(f, &v) {
                    continue;
                }
                self.cur_bb = Some(v.block);
                let site = match v.inst {
                    Some(i) => format!("inst {i}"),
                    None => "terminator".to_string(),
                };
                self.err(format!(
                    "local {} is dereferenced but no definition reaches the use at {site}",
                    v.local
                ));
                self.cur_bb = None;
            }
        }
    }

    fn check_inst(&mut self, f: &Function, inst: &Inst) {
        match inst {
            Inst::Bin {
                op,
                ty,
                dst,
                lhs,
                rhs,
            } => {
                if op.is_float_op() != ty.is_float() {
                    self.err(format!("{} on mismatched class {ty}", op.mnemonic()));
                }
                if *ty == Type::Void || *ty == Type::Ptr {
                    self.err(format!("{} on invalid type {ty}", op.mnemonic()));
                }
                self.expect_operand(f, lhs, *ty, "lhs");
                self.expect_operand(f, rhs, *ty, "rhs");
                self.expect_local(f, *dst, *ty, "dst");
            }
            Inst::Un { op, ty, dst, src } => {
                let float = matches!(op, crate::inst::UnOp::FNeg);
                if float != ty.is_float() {
                    self.err(format!("{} on mismatched class {ty}", op.mnemonic()));
                }
                self.expect_operand(f, src, *ty, "src");
                self.expect_local(f, *dst, *ty, "dst");
            }
            Inst::Cmp {
                pred,
                ty,
                dst,
                lhs,
                rhs,
            } => {
                if pred.is_float_pred() != ty.is_float() {
                    self.err(format!("cmp {} on mismatched class {ty}", pred.mnemonic()));
                }
                self.expect_operand(f, lhs, *ty, "lhs");
                self.expect_operand(f, rhs, *ty, "rhs");
                self.expect_local(f, *dst, Type::I1, "cmp dst");
            }
            Inst::Select {
                ty,
                dst,
                cond,
                on_true,
                on_false,
            } => {
                self.expect_operand(f, cond, Type::I1, "select cond");
                self.expect_operand(f, on_true, *ty, "select true arm");
                self.expect_operand(f, on_false, *ty, "select false arm");
                self.expect_local(f, *dst, *ty, "select dst");
            }
            Inst::Copy { ty, dst, src } => {
                self.expect_operand(f, src, *ty, "copy src");
                self.expect_local(f, *dst, *ty, "copy dst");
            }
            Inst::Cast {
                kind,
                dst,
                src,
                from,
                to,
            } => {
                self.expect_operand(f, src, *from, "cast src");
                self.expect_local(f, *dst, *to, "cast dst");
                let ok = match kind {
                    CastKind::Trunc => from.is_int() && to.is_int() && from.size() >= to.size(),
                    CastKind::ZExt | CastKind::SExt => {
                        from.is_int() && to.is_int() && from.size() <= to.size()
                    }
                    CastKind::FpToSi => from.is_float() && to.is_int(),
                    CastKind::SiToFp => from.is_int() && to.is_float(),
                    CastKind::FpTrunc => *from == Type::F64 && *to == Type::F32,
                    CastKind::FpExt => *from == Type::F32 && *to == Type::F64,
                    CastKind::PtrToInt => from.is_ptr() && *to == Type::I64,
                    CastKind::IntToPtr => *from == Type::I64 && to.is_ptr(),
                };
                if !ok {
                    self.err(format!("invalid cast {} : {from} -> {to}", kind.mnemonic()));
                }
            }
            Inst::Load { ty, dst, addr } => {
                if *ty == Type::Void {
                    self.err("load of void".to_string());
                }
                self.expect_operand(f, addr, Type::Ptr, "load addr");
                self.expect_local(f, *dst, *ty, "load dst");
            }
            Inst::Store { ty, addr, value } => {
                if *ty == Type::Void {
                    self.err("store of void".to_string());
                }
                self.expect_operand(f, addr, Type::Ptr, "store addr");
                self.expect_operand(f, value, *ty, "store value");
            }
            Inst::Alloca { dst, size, align } => {
                if *size == 0 {
                    self.err("alloca of zero size".to_string());
                }
                if !align.is_power_of_two() {
                    self.err(format!("alloca alignment {align} not a power of two"));
                }
                self.expect_local(f, *dst, Type::Ptr, "alloca dst");
            }
            Inst::PtrAdd { dst, base, offset } => {
                self.expect_operand(f, base, Type::Ptr, "ptradd base");
                self.expect_operand(f, offset, Type::I64, "ptradd offset");
                self.expect_local(f, *dst, Type::Ptr, "ptradd dst");
            }
            Inst::Call { dst, callee, args } => {
                self.check_callee_sig(f, callee, args, *dst, false);
            }
            Inst::FuncAddr { dst, func } => {
                if func.index() >= self.m.functions.len() {
                    self.err(format!("funcaddr of out-of-range {func}"));
                }
                self.expect_local(f, *dst, Type::Ptr, "funcaddr dst");
            }
            Inst::GlobalAddr { dst, global } => {
                if global.index() >= self.m.globals.len() {
                    self.err(format!("globaladdr of out-of-range {global}"));
                }
                self.expect_local(f, *dst, Type::Ptr, "globaladdr dst");
            }
        }
    }

    fn check_term(&mut self, f: &Function, term: &Term) {
        match term {
            Term::Jump(t) => self.check_block_ref(f, *t),
            Term::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                self.expect_operand(f, cond, Type::I1, "branch cond");
                self.check_block_ref(f, *then_bb);
                self.check_block_ref(f, *else_bb);
            }
            Term::Switch {
                ty,
                value,
                cases,
                default,
            } => {
                if !ty.is_int() {
                    self.err(format!("switch on non-integer type {ty}"));
                }
                self.expect_operand(f, value, *ty, "switch value");
                let mut seen = std::collections::HashSet::new();
                for (v, t) in cases {
                    if !seen.insert(*v) {
                        self.err(format!("duplicate switch case {v}"));
                    }
                    self.check_block_ref(f, *t);
                }
                self.check_block_ref(f, *default);
            }
            Term::Ret(v) => match (v, f.ret_ty) {
                (None, Type::Void) => {}
                (None, t) => self.err(format!("ret void in function returning {t}")),
                (Some(_), Type::Void) => self.err("ret value in void function".to_string()),
                (Some(op), t) => self.expect_operand(f, op, t, "ret value"),
            },
            Term::Invoke {
                dst, callee, args, ..
            } => {
                self.check_callee_sig(f, callee, args, *dst, true);
            }
            Term::Unreachable => {}
        }
    }
}

/// True when the flagged use sits in an address position: a load/store
/// address or an indirect call/invoke target.
fn is_address_use(f: &Function, v: &crate::analysis::dataflow::UseBeforeInit) -> bool {
    let block = f.block(v.block);
    match v.inst {
        Some(i) => match &block.insts[i] {
            Inst::Load { addr, .. } | Inst::Store { addr, .. } => addr.as_local() == Some(v.local),
            Inst::Call {
                callee: Callee::Indirect(p),
                ..
            } => p.as_local() == Some(v.local),
            _ => false,
        },
        None => match &block.term {
            Term::Invoke {
                callee: Callee::Indirect(p),
                ..
            } => p.as_local() == Some(v.local),
            _ => false,
        },
    }
}

/// Verifies a whole module.
///
/// # Errors
/// Returns every problem found; an empty `Ok(())` means the module is
/// well-formed for the VM, the optimizer and the code generator.
pub fn verify_module(m: &Module) -> Result<(), Vec<VerifyError>> {
    let mut c = Checker {
        m,
        errors: Vec::new(),
        cur_fn: None,
        cur_bb: None,
    };
    c.check_module();
    if c.errors.is_empty() {
        Ok(())
    } else {
        Err(c.errors)
    }
}

/// Verifies a single function against its module context.
///
/// # Errors
/// Returns the problems found within `f`.
pub fn verify_function(m: &Module, id: FuncId) -> Result<(), Vec<VerifyError>> {
    let f = m.function(id);
    let mut c = Checker {
        m,
        errors: Vec::new(),
        cur_fn: Some(f.name.clone()),
        cur_bb: None,
    };
    c.check_function(id, f);
    if c.errors.is_empty() {
        Ok(())
    } else {
        Err(c.errors)
    }
}

/// Convenience used by tests: panics with a readable report when invalid.
///
/// # Panics
/// Panics if the module fails verification.
pub fn assert_valid(m: &Module) {
    if let Err(errs) = verify_module(m) {
        let mut s = String::new();
        for e in &errs {
            s.push_str(&format!("  - {e}\n"));
        }
        panic!("module `{}` failed verification:\n{s}", m.name);
    }
}

// Re-exported for pass writers that want linkage checks.
pub use crate::function::Linkage as _Linkage;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, CmpPred};
    use crate::module::{ExtFunc, Global};

    #[test]
    fn valid_module_passes() {
        let mut m = Module::new("ok");
        let mut fb = FunctionBuilder::new("f", Type::I32);
        let p = fb.add_param(Type::I32);
        let r = fb.bin(
            BinOp::Add,
            Type::I32,
            Operand::local(p),
            Operand::const_int(Type::I32, 1),
        );
        fb.ret(Some(Operand::local(r)));
        m.push_function(fb.finish());
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn type_mismatch_caught() {
        let mut m = Module::new("bad");
        let mut fb = FunctionBuilder::new("f", Type::I32);
        let p = fb.add_param(Type::I64); // wrong width used below
        let r = fb.bin(
            BinOp::Add,
            Type::I32,
            Operand::local(p),
            Operand::const_int(Type::I32, 1),
        );
        fb.ret(Some(Operand::local(r)));
        m.push_function(fb.finish());
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("expected i32")),
            "{errs:?}"
        );
    }

    #[test]
    fn ret_type_checked() {
        let mut m = Module::new("bad");
        let mut fb = FunctionBuilder::new("f", Type::I32);
        fb.ret(None);
        m.push_function(fb.finish());
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("ret void")),
            "{errs:?}"
        );
    }

    #[test]
    fn call_arity_checked() {
        let mut m = Module::new("bad");
        let mut callee = FunctionBuilder::new("callee", Type::Void);
        callee.add_param(Type::I32);
        callee.ret(None);
        let cid = m.push_function(callee.finish());
        let mut caller = FunctionBuilder::new("caller", Type::Void);
        caller.call(cid, Type::Void, vec![]);
        caller.ret(None);
        m.push_function(caller.finish());
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("passes 0 args")),
            "{errs:?}"
        );
    }

    #[test]
    fn duplicate_names_caught() {
        let mut m = Module::new("dup");
        let mut f1 = FunctionBuilder::new("same", Type::Void);
        f1.ret(None);
        m.push_function(f1.finish());
        let mut f2 = FunctionBuilder::new("same", Type::Void);
        f2.ret(None);
        m.push_function(f2.finish());
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("duplicate")),
            "{errs:?}"
        );
    }

    #[test]
    fn pad_edges_checked() {
        let mut m = Module::new("eh");
        let mut fb = FunctionBuilder::new("f", Type::Void);
        let pad = fb.new_pad_block(None);
        fb.jump(pad); // illegal: jump into a pad
        fb.switch_to(pad);
        fb.ret(None);
        m.push_function(fb.finish());
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("non-invoke edge")),
            "{errs:?}"
        );
    }

    #[test]
    fn invalid_cast_caught() {
        let mut m = Module::new("c");
        let mut fb = FunctionBuilder::new("f", Type::Void);
        let p = fb.add_param(Type::I64);
        let _bad = fb.cast(CastKind::Trunc, Operand::local(p), Type::I64, Type::F32);
        fb.ret(None);
        m.push_function(fb.finish());
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("invalid cast")),
            "{errs:?}"
        );
    }

    #[test]
    fn duplicate_switch_cases_caught() {
        let mut m = Module::new("s");
        let mut fb = FunctionBuilder::new("f", Type::Void);
        let p = fb.add_param(Type::I32);
        let a = fb.new_block();
        fb.switch(Type::I32, Operand::local(p), vec![(1, a), (1, a)], a);
        fb.switch_to(a);
        fb.ret(None);
        m.push_function(fb.finish());
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.message.contains("duplicate switch case")),
            "{errs:?}"
        );
    }

    /// Verifies a module holding just `f` and returns every error as text.
    fn errors_of(f: Function) -> Vec<String> {
        let mut m = Module::new("deref");
        m.push_function(f);
        match verify_module(&m) {
            Ok(()) => Vec::new(),
            Err(errs) => errs.iter().map(ToString::to_string).collect(),
        }
    }

    #[test]
    fn undefined_load_address_caught() {
        let mut fb = FunctionBuilder::new("f", Type::I64);
        let a = fb.new_local(Type::Ptr);
        let v = fb.load(Type::I64, Operand::local(a));
        fb.ret(Some(Operand::local(v)));
        assert_eq!(
            errors_of(fb.finish()),
            ["in f at bb0: local %0 is dereferenced but no definition reaches the use at inst 0"]
        );
    }

    #[test]
    fn undefined_store_address_caught() {
        let mut fb = FunctionBuilder::new("f", Type::Void);
        let v = fb.iconst(Type::I64, 7);
        let a = fb.new_local(Type::Ptr);
        fb.store(Type::I64, Operand::local(v), Operand::local(a));
        fb.ret(None);
        assert_eq!(
            errors_of(fb.finish()),
            ["in f at bb0: local %1 is dereferenced but no definition reaches the use at inst 1"]
        );
    }

    #[test]
    fn undefined_indirect_call_target_caught() {
        let mut fb = FunctionBuilder::new("f", Type::Void);
        let t = fb.new_local(Type::Ptr);
        fb.call_indirect(Operand::local(t), Type::Void, vec![]);
        fb.ret(None);
        assert_eq!(
            errors_of(fb.finish()),
            ["in f at bb0: local %0 is dereferenced but no definition reaches the use at inst 0"]
        );
    }

    #[test]
    fn undefined_indirect_invoke_target_caught() {
        let mut fb = FunctionBuilder::new("f", Type::Void);
        let t = fb.new_local(Type::Ptr);
        let (normal, pad) = (fb.new_block(), fb.new_pad_block(None));
        fb.invoke(
            Callee::Indirect(Operand::local(t)),
            Type::Void,
            vec![],
            normal,
            pad,
        );
        fb.switch_to(normal);
        fb.ret(None);
        fb.switch_to(pad);
        fb.ret(None);
        assert_eq!(
            errors_of(fb.finish()),
            ["in f at bb0: local %0 is dereferenced but no definition reaches the use at terminator"]
        );
    }

    /// An invoke returning a pointer, dereferenced in the unwind pad
    /// (`in_pad`) or on the normal edge.
    fn deref_invoke_result(in_pad: bool) -> Function {
        let mut fb = FunctionBuilder::new("f", Type::I64);
        let t = fb.add_param(Type::Ptr);
        let (normal, pad) = (fb.new_block(), fb.new_pad_block(None));
        let r = fb
            .invoke(
                Callee::Indirect(Operand::local(t)),
                Type::Ptr,
                vec![],
                normal,
                pad,
            )
            .expect("non-void invoke binds a result");
        let (deref, other) = if in_pad { (pad, normal) } else { (normal, pad) };
        fb.switch_to(deref);
        let v = fb.load(Type::I64, Operand::local(r));
        fb.ret(Some(Operand::local(v)));
        fb.switch_to(other);
        fb.ret(Some(Operand::const_int(Type::I64, 0)));
        fb.finish()
    }

    #[test]
    fn invoke_result_dereferenced_in_its_pad_caught() {
        assert_eq!(
            errors_of(deref_invoke_result(true)),
            ["in f at bb2: local %1 is dereferenced but no definition reaches the use at inst 0"]
        );
    }

    #[test]
    fn invoke_result_dereferenced_on_normal_edge_accepted() {
        assert_eq!(errors_of(deref_invoke_result(false)), Vec::<String>::new());
    }

    /// bb1 loads through `q` before bb2, the latch, allocates it: only
    /// the back edge carries a def to the use.
    #[test]
    fn address_defined_around_back_edge_accepted() {
        let mut fb = FunctionBuilder::new("f", Type::Void);
        let n = fb.add_param(Type::I64);
        let q = fb.new_local(Type::Ptr);
        let (head, latch, exit) = (fb.new_block(), fb.new_block(), fb.new_block());
        fb.jump(head);
        fb.switch_to(head);
        fb.load(Type::I64, Operand::local(q));
        let c = fb.cmp(
            CmpPred::Sgt,
            Type::I64,
            Operand::local(n),
            Operand::const_int(Type::I64, 0),
        );
        fb.branch(Operand::local(c), latch, exit);
        fb.switch_to(latch);
        let a = fb.alloca(8);
        fb.copy_to(q, Operand::local(a));
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(None);
        assert_eq!(errors_of(fb.finish()), Vec::<String>::new());
    }

    #[test]
    fn address_defined_only_in_unreachable_block_caught() {
        let mut fb = FunctionBuilder::new("f", Type::I64);
        let q = fb.new_local(Type::Ptr);
        let dead = fb.new_block();
        let v = fb.load(Type::I64, Operand::local(q));
        fb.ret(Some(Operand::local(v)));
        fb.switch_to(dead);
        let a = fb.alloca(8);
        fb.copy_to(q, Operand::local(a));
        fb.ret(Some(Operand::const_int(Type::I64, 0)));
        assert_eq!(
            errors_of(fb.finish()),
            ["in f at bb0: local %0 is dereferenced but no definition reaches the use at inst 0"]
        );
    }

    /// Fission transports a never-defined local's zero as a plain call
    /// argument on purpose; only address positions are checked.
    #[test]
    fn undefined_plain_call_argument_accepted() {
        let mut m = Module::new("zero");
        let mut callee = FunctionBuilder::new("callee", Type::Void);
        callee.add_param(Type::Ptr);
        callee.ret(None);
        let cid = m.push_function(callee.finish());
        let mut fb = FunctionBuilder::new("f", Type::Void);
        let x = fb.new_local(Type::Ptr);
        fb.call(cid, Type::Void, vec![Operand::local(x)]);
        fb.ret(None);
        m.push_function(fb.finish());
        assert_eq!(verify_module(&m), Ok(()));
    }

    /// Globals `a`, `a`, `c` with a store to `@c`. Before the check this
    /// verified clean, and after a text round trip the store targeted the
    /// second `a`.
    fn duplicate_global_module() -> Module {
        let mut m = Module::new("dupg");
        let ids = ["a", "a", "c"].map(|name| m.push_global(Global::zeroed(name, 8)));
        let mut fb = FunctionBuilder::new("main", Type::Void);
        let c = fb.globaladdr(ids[2]);
        fb.store(
            Type::I64,
            Operand::const_int(Type::I64, 1),
            Operand::local(c),
        );
        fb.ret(None);
        m.push_function(fb.finish());
        m
    }

    #[test]
    fn duplicate_global_names_caught() {
        let m = duplicate_global_module();
        let errs = verify_module(&m).unwrap_err();
        let text: Vec<String> = errs.iter().map(ToString::to_string).collect();
        assert_eq!(text, ["duplicate global name `a`"]);
        let err = crate::parser::parse_module(&crate::printer::print_module(&m)).unwrap_err();
        assert!(err.message.contains("duplicate global name `a`"), "{err}");
    }

    #[test]
    fn duplicate_external_names_caught() {
        let mut m = Module::new("dupe");
        for ret_ty in [Type::Void, Type::I64] {
            m.externals.push(ExtFunc {
                name: "print_i64".into(),
                params: vec![Type::I64],
                ret_ty,
                variadic: false,
            });
        }
        let errs = verify_module(&m).unwrap_err();
        let text: Vec<String> = errs.iter().map(ToString::to_string).collect();
        assert_eq!(text, ["duplicate external name `print_i64`"]);
        let err = crate::parser::parse_module(&crate::printer::print_module(&m)).unwrap_err();
        assert!(
            err.message.contains("duplicate extern name `print_i64`"),
            "{err}"
        );
    }
}
