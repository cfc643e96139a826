//! Textual printing of KIR modules.
//!
//! The format round-trips through [`crate::parser`], which the test suites
//! use to snapshot and rebuild IR, and the build memo uses to store built
//! modules.
//!
//! There is one printer, generic over a private byte sink. It writes each
//! token straight into the sink: `&'static str` keywords and mnemonics,
//! names, integers from a small digit formatter, and `{:?}` only for
//! floats. [`print_module`] runs it into a `String`.
//! [`Module::content_fingerprint`] runs it into an FNV-1a hash, so a
//! module's fingerprint is the FNV-1a of its printed text without the
//! text ever being built. `crates/ir/tests/text_format_pin.rs` pins the
//! text and the fingerprint of a module holding every variant.

use crate::constant::Const;
use crate::function::{Function, Linkage, ProvKind};
use crate::ids::{BlockId, LocalId};
use crate::inst::{Callee, Inst, Operand, Term};
use crate::module::{GInit, Module};
use crate::types::Type;
use std::fmt::Write as _;

#[cfg(test)]
pub(crate) mod reference;

/// Prints a whole module.
pub fn print_module(m: &Module) -> String {
    // About 25 to 35 bytes of text per instruction: one growth step at
    // most.
    text(m, 32 * m.inst_count() + 1024, Printer::module)
}

/// Prints a single function (with module context for callee names).
pub fn print_function(m: &Module, f: &Function) -> String {
    text(m, 0, |p| p.function(f))
}

/// Formats one instruction in parseable syntax.
pub fn fmt_inst(m: &Module, inst: &Inst) -> String {
    text(m, 0, |p| p.inst(inst))
}

/// Formats one terminator in parseable syntax.
pub fn fmt_term(m: &Module, term: &Term) -> String {
    text(m, 0, |p| p.term(term))
}

/// FNV-1a (64-bit) over the text [`print_module`] would return.
pub(crate) fn fnv1a(m: &Module) -> u64 {
    let mut p = Printer {
        m,
        out: Fnv1a(0xcbf2_9ce4_8422_2325),
    };
    p.module();
    p.out.0
}

/// What `write` prints, as a `String`.
fn text<'m>(
    m: &'m Module,
    capacity: usize,
    write: impl FnOnce(&mut Printer<'m, Vec<u8>>),
) -> String {
    let mut p = Printer {
        m,
        out: Vec::with_capacity(capacity),
    };
    write(&mut p);
    String::from_utf8(p.out).expect("the printer writes only names and ASCII")
}

/// Where the printer's bytes go.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// The FNV-1a hash of everything put so far.
struct Fnv1a(u64);

impl Sink for Fnv1a {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Lets `write!` format a float straight into a sink.
struct FmtSink<'a, S>(&'a mut S);

impl<S: Sink> std::fmt::Write for FmtSink<'_, S> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.put(s.as_bytes());
        Ok(())
    }
}

struct Printer<'m, S> {
    m: &'m Module,
    out: S,
}

impl<S: Sink> Printer<'_, S> {
    fn s(&mut self, s: &str) {
        self.out.put(s.as_bytes());
    }

    fn uint(&mut self, mut v: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out.put(&buf[i..]);
    }

    fn int(&mut self, v: i64) {
        if v < 0 {
            self.s("-");
        }
        self.uint(v.unsigned_abs());
    }

    fn float(&mut self, v: f64) {
        let _ = write!(FmtSink(&mut self.out), "{v:?}");
    }

    fn ty(&mut self, t: Type) {
        self.s(t.name());
    }

    fn local(&mut self, l: LocalId) {
        self.s("%");
        self.uint(u64::from(l.0));
    }

    fn block_id(&mut self, b: BlockId) {
        self.s("bb");
        self.uint(u64::from(b.0));
    }

    /// `%d = ` before an instruction that defines `d`.
    fn def(&mut self, d: LocalId) {
        self.local(d);
        self.s(" = ");
    }

    /// `items` separated by `sep`.
    fn list<T>(&mut self, items: &[T], sep: &str, mut item: impl FnMut(&mut Self, &T)) {
        for (i, x) in items.iter().enumerate() {
            if i > 0 {
                self.s(sep);
            }
            item(self, x);
        }
    }

    fn module(&mut self) {
        let m = self.m;
        self.s("module ");
        self.s(&m.name);
        self.s("\n");
        for e in &m.externals {
            self.s("extern ");
            self.s(&e.name);
            self.s("(");
            self.list(&e.params, ", ", |p, &t| p.ty(t));
            if e.variadic {
                self.s(", ...");
            }
            self.s(") -> ");
            self.ty(e.ret_ty);
            self.s("\n");
        }
        for g in &m.globals {
            self.s("global ");
            self.s(&g.name);
            self.s(" align ");
            self.uint(u64::from(g.align));
            self.s(if g.exported { " exported {\n" } else { " {\n" });
            for init in &g.init {
                self.ginit(init);
            }
            self.s("}\n");
        }
        for f in &m.functions {
            self.s("\n");
            self.function(f);
        }
    }

    fn ginit(&mut self, init: &GInit) {
        match init {
            GInit::Bytes(b) => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                self.s("  bytes ");
                for &x in b {
                    let pair = [HEX[usize::from(x >> 4)], HEX[usize::from(x & 15)]];
                    self.out.put(&pair);
                }
            }
            GInit::Int { value, ty } => {
                self.s("  int ");
                self.ty(*ty);
                self.s(" ");
                self.int(*value);
            }
            GInit::Float { value, ty } => {
                self.s("  float ");
                self.ty(*ty);
                self.s(" ");
                self.float(*value);
            }
            GInit::Zero(n) => {
                self.s("  zero ");
                self.uint(u64::from(*n));
            }
            GInit::FuncPtr { func, addend } => {
                self.s("  funcptr @");
                self.s(&self.m.functions[func.index()].name);
                self.s(" + ");
                self.int(*addend);
            }
        }
        self.s("\n");
    }

    fn function(&mut self, f: &Function) {
        self.s("func ");
        self.s(&f.name);
        self.s("(");
        self.uint(u64::from(f.param_count));
        self.s(") -> ");
        self.ty(f.ret_ty);
        if f.linkage == Linkage::Exported {
            self.s(" exported");
        }
        if f.variadic {
            self.s(" variadic");
        }
        self.s(" {\n  prov ");
        self.s(match f.provenance.kind {
            ProvKind::Original => "original ",
            ProvKind::Sep => "sep ",
            ProvKind::Rem => "rem ",
            ProvKind::Fused => "fused ",
            ProvKind::Trampoline => "trampoline ",
        });
        self.list(&f.provenance.origins, " ", |p, o| p.s(o));
        if !f.annotations.is_empty() {
            self.s("\n  annot ");
            self.list(&f.annotations, " ", |p, a| p.s(a));
        }
        self.s("\n  locals ");
        self.list(&f.locals, " ", |p, &t| p.ty(t));
        self.s("\n");
        for (b, block) in f.iter_blocks() {
            self.block_id(b);
            if let Some(pad) = block.pad {
                self.s(" pad");
                if let Some(d) = pad.dst {
                    self.s(" ");
                    self.local(d);
                }
            }
            self.s(":\n");
            for inst in &block.insts {
                self.s("  ");
                self.inst(inst);
                self.s("\n");
            }
            self.s("  ");
            self.term(&block.term);
            self.s("\n");
        }
        self.s("}\n");
    }

    fn operand(&mut self, o: &Operand) {
        match *o {
            Operand::Local(l) => self.local(l),
            Operand::Const(Const::Int {
                value,
                ty: Type::I1,
            }) => {
                self.s(if value & 1 == 1 { "true" } else { "false" });
            }
            Operand::Const(Const::Int { value, ty }) => {
                self.ty(ty);
                self.s(":");
                self.int(value);
            }
            Operand::Const(Const::Float { value, ty }) => {
                self.ty(ty);
                self.s(":");
                self.float(value);
            }
            Operand::Const(Const::Null) => self.s("null"),
        }
    }

    /// `lhs, rhs`
    fn pair(&mut self, lhs: &Operand, rhs: &Operand) {
        self.operand(lhs);
        self.s(", ");
        self.operand(rhs);
    }

    /// `callee(args)`
    fn call(&mut self, callee: &Callee, args: &[Operand]) {
        match callee {
            Callee::Direct(f) => {
                self.s("@");
                self.s(&self.m.functions[f.index()].name);
            }
            Callee::Ext(e) => {
                self.s("ext:");
                self.s(&self.m.externals[e.index()].name);
            }
            Callee::Indirect(p) => {
                self.s("[");
                self.operand(p);
                self.s("]");
            }
        }
        self.s("(");
        self.list(args, ", ", Self::operand);
        self.s(")");
    }

    fn inst(&mut self, inst: &Inst) {
        match inst {
            Inst::Bin {
                op,
                ty,
                dst,
                lhs,
                rhs,
            } => {
                self.def(*dst);
                self.s(op.mnemonic());
                self.s(" ");
                self.ty(*ty);
                self.s(" ");
                self.pair(lhs, rhs);
            }
            Inst::Un { op, ty, dst, src } => {
                self.def(*dst);
                self.s(op.mnemonic());
                self.s(" ");
                self.ty(*ty);
                self.s(" ");
                self.operand(src);
            }
            Inst::Cmp {
                pred,
                ty,
                dst,
                lhs,
                rhs,
            } => {
                self.def(*dst);
                self.s("cmp ");
                self.s(pred.mnemonic());
                self.s(" ");
                self.ty(*ty);
                self.s(" ");
                self.pair(lhs, rhs);
            }
            Inst::Select {
                ty,
                dst,
                cond,
                on_true,
                on_false,
            } => {
                self.def(*dst);
                self.s("select ");
                self.ty(*ty);
                self.s(" ");
                self.operand(cond);
                self.s(", ");
                self.pair(on_true, on_false);
            }
            Inst::Copy { ty, dst, src } => {
                self.def(*dst);
                self.s("copy ");
                self.ty(*ty);
                self.s(" ");
                self.operand(src);
            }
            Inst::Cast {
                kind,
                dst,
                src,
                from,
                to,
            } => {
                self.def(*dst);
                self.s(kind.mnemonic());
                self.s(" ");
                self.operand(src);
                self.s(" : ");
                self.ty(*from);
                self.s(" -> ");
                self.ty(*to);
            }
            Inst::Load { ty, dst, addr } => {
                self.def(*dst);
                self.s("load ");
                self.ty(*ty);
                self.s(", ");
                self.operand(addr);
            }
            Inst::Store { ty, addr, value } => {
                self.s("store ");
                self.ty(*ty);
                self.s(" ");
                self.pair(value, addr);
            }
            Inst::Alloca { dst, size, align } => {
                self.def(*dst);
                self.s("alloca ");
                self.uint(u64::from(*size));
                self.s(" align ");
                self.uint(u64::from(*align));
            }
            Inst::PtrAdd { dst, base, offset } => {
                self.def(*dst);
                self.s("ptradd ");
                self.pair(base, offset);
            }
            Inst::Call { dst, callee, args } => {
                if let Some(d) = dst {
                    self.def(*d);
                }
                self.s("call ");
                self.call(callee, args);
            }
            Inst::FuncAddr { dst, func } => {
                self.def(*dst);
                self.s("funcaddr @");
                self.s(&self.m.functions[func.index()].name);
            }
            Inst::GlobalAddr { dst, global } => {
                self.def(*dst);
                self.s("globaladdr @");
                self.s(&self.m.globals[global.index()].name);
            }
        }
    }

    fn term(&mut self, term: &Term) {
        match term {
            Term::Jump(t) => {
                self.s("jmp ");
                self.block_id(*t);
            }
            Term::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                self.s("br ");
                self.operand(cond);
                self.s(", ");
                self.block_id(*then_bb);
                self.s(", ");
                self.block_id(*else_bb);
            }
            Term::Switch {
                ty,
                value,
                cases,
                default,
            } => {
                self.s("switch ");
                self.ty(*ty);
                self.s(" ");
                self.operand(value);
                self.s(" [");
                self.list(cases, ", ", |p, &(v, t)| {
                    p.int(v);
                    p.s(" -> ");
                    p.block_id(t);
                });
                self.s("] default ");
                self.block_id(*default);
            }
            Term::Ret(None) => self.s("ret"),
            Term::Ret(Some(v)) => {
                self.s("ret ");
                self.operand(v);
            }
            Term::Invoke {
                dst,
                callee,
                args,
                normal,
                unwind,
            } => {
                if let Some(d) = dst {
                    self.def(*d);
                }
                self.s("invoke ");
                self.call(callee, args);
                self.s(" to ");
                self.block_id(*normal);
                self.s(" unwind ");
                self.block_id(*unwind);
            }
            Term::Unreachable => self.s("unreachable"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, CmpPred};

    #[test]
    fn prints_readable_function() {
        let mut m = Module::new("demo");
        let mut fb = FunctionBuilder::new("f", Type::I32);
        let p = fb.add_param(Type::I32);
        let t = fb.new_block();
        let e = fb.new_block();
        let c = fb.cmp(
            CmpPred::Sgt,
            Type::I32,
            Operand::local(p),
            Operand::const_int(Type::I32, 0),
        );
        fb.branch(Operand::local(c), t, e);
        fb.switch_to(t);
        let r = fb.bin(
            BinOp::Add,
            Type::I32,
            Operand::local(p),
            Operand::const_int(Type::I32, 1),
        );
        fb.ret(Some(Operand::local(r)));
        fb.switch_to(e);
        fb.ret(Some(Operand::const_int(Type::I32, 0)));
        m.push_function(fb.finish());
        let out = print_module(&m);
        assert!(out.contains("module demo"));
        assert!(out.contains("func f(1) -> i32"));
        assert!(out.contains("%2 = add i32 %0, i32:1"));
        assert!(out.contains("br %1, bb1, bb2"));
        assert!(out.contains("ret i32:0"));
        assert!(out.contains("prov original f"));
        assert_eq!(out, reference::print_module(&m));
        assert_eq!(
            print_function(&m, &m.functions[0]),
            out["module demo\n\n".len()..]
        );
        assert_eq!(fnv1a(&m), reference::fnv1a(&m));
    }

    #[test]
    fn prints_bool_consts_as_keywords() {
        let m = Module::new("m");
        let ret = |v| fmt_term(&m, &Term::Ret(Some(v)));
        assert_eq!(ret(Operand::const_bool(true)), "ret true");
        assert_eq!(ret(Operand::const_bool(false)), "ret false");
        assert_eq!(ret(Operand::Const(Const::Null)), "ret null");
    }

    #[test]
    fn formats_integers_at_their_extremes() {
        let m = Module::new("m");
        let ret = |value| fmt_term(&m, &Term::Ret(Some(Operand::const_int(Type::I64, value))));
        for v in [0, 1, -1, 9, 10, -10, 4_294_967_296, i64::MAX, i64::MIN] {
            assert_eq!(ret(v), format!("ret i64:{v}"));
        }
    }
}
