//! The text printer as it was before the streaming printer: one
//! `format!` string per operand and per instruction, joined into the
//! module's text. It is the test oracle the streaming printer must match
//! byte for byte, and that `Module::content_fingerprint` must match as
//! FNV-1a over its text.
//!
//! Compiled only into tests: this crate's unit tests, and
//! `tests/text_ir_quick.rs`, which includes this file by path and
//! re-exports the crate's modules at its root so the `crate::` paths
//! below resolve there too.

use crate::constant::Const;
use crate::function::{Function, Linkage, ProvKind};
use crate::inst::{Callee, Inst, Operand, Term};
use crate::module::{GInit, Module};
use crate::types::Type;
use std::fmt::Write as _;

/// Prints a whole module.
pub fn print_module(m: &Module) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "module {}", m.name);
    for e in &m.externals {
        let params: Vec<String> = e.params.iter().map(|t| t.to_string()).collect();
        let var = if e.variadic { ", ..." } else { "" };
        let _ = writeln!(
            s,
            "extern {}({}{}) -> {}",
            e.name,
            params.join(", "),
            var,
            e.ret_ty
        );
    }
    for g in &m.globals {
        let exp = if g.exported { " exported" } else { "" };
        let _ = writeln!(s, "global {} align {}{} {{", g.name, g.align, exp);
        for init in &g.init {
            match init {
                GInit::Bytes(b) => {
                    let hex: Vec<String> = b.iter().map(|x| format!("{x:02x}")).collect();
                    let _ = writeln!(s, "  bytes {}", hex.join(""));
                }
                GInit::Int { value, ty } => {
                    let _ = writeln!(s, "  int {ty} {value}");
                }
                GInit::Float { value, ty } => {
                    let _ = writeln!(s, "  float {ty} {value:?}");
                }
                GInit::Zero(n) => {
                    let _ = writeln!(s, "  zero {n}");
                }
                GInit::FuncPtr { func, addend } => {
                    let name = &m.functions[func.index()].name;
                    let _ = writeln!(s, "  funcptr @{name} + {addend}");
                }
            }
        }
        let _ = writeln!(s, "}}");
    }
    for f in &m.functions {
        s.push('\n');
        print_function_into(&mut s, m, f);
    }
    s
}

/// FNV-1a (64-bit) over [`print_module`]'s text.
pub fn fnv1a(m: &Module) -> u64 {
    print_module(m).bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn print_function_into(s: &mut String, m: &Module, f: &Function) {
    let exp = if f.linkage == Linkage::Exported {
        " exported"
    } else {
        ""
    };
    let var = if f.variadic { " variadic" } else { "" };
    let _ = writeln!(
        s,
        "func {}({}) -> {}{}{} {{",
        f.name, f.param_count, f.ret_ty, exp, var
    );
    let kind = match f.provenance.kind {
        ProvKind::Original => "original",
        ProvKind::Sep => "sep",
        ProvKind::Rem => "rem",
        ProvKind::Fused => "fused",
        ProvKind::Trampoline => "trampoline",
    };
    let _ = writeln!(s, "  prov {} {}", kind, f.provenance.origins.join(" "));
    if !f.annotations.is_empty() {
        let _ = writeln!(s, "  annot {}", f.annotations.join(" "));
    }
    let tys: Vec<String> = f.locals.iter().map(|t| t.to_string()).collect();
    let _ = writeln!(s, "  locals {}", tys.join(" "));
    for (b, block) in f.iter_blocks() {
        match &block.pad {
            Some(pad) => match pad.dst {
                Some(d) => {
                    let _ = writeln!(s, "{b} pad {d}:");
                }
                None => {
                    let _ = writeln!(s, "{b} pad:");
                }
            },
            None => {
                let _ = writeln!(s, "{b}:");
            }
        }
        for inst in &block.insts {
            let _ = writeln!(s, "  {}", fmt_inst(m, inst));
        }
        let _ = writeln!(s, "  {}", fmt_term(m, &block.term));
    }
    let _ = writeln!(s, "}}");
}

fn fmt_operand(o: &Operand) -> String {
    match o {
        Operand::Local(l) => format!("{l}"),
        Operand::Const(Const::Int { value, ty }) => {
            if *ty == Type::I1 {
                if *value & 1 == 1 {
                    "true".into()
                } else {
                    "false".into()
                }
            } else {
                format!("{ty}:{value}")
            }
        }
        Operand::Const(Const::Float { value, ty }) => format!("{ty}:{value:?}"),
        Operand::Const(Const::Null) => "null".into(),
    }
}

fn fmt_callee(m: &Module, c: &Callee) -> String {
    match c {
        Callee::Direct(f) => format!("@{}", m.functions[f.index()].name),
        Callee::Ext(e) => format!("ext:{}", m.externals[e.index()].name),
        Callee::Indirect(p) => format!("[{}]", fmt_operand(p)),
    }
}

fn fmt_args(args: &[Operand]) -> String {
    let v: Vec<String> = args.iter().map(fmt_operand).collect();
    v.join(", ")
}

/// Formats one instruction in parseable syntax.
fn fmt_inst(m: &Module, inst: &Inst) -> String {
    match inst {
        Inst::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        } => {
            format!(
                "{dst} = {} {ty} {}, {}",
                op.mnemonic(),
                fmt_operand(lhs),
                fmt_operand(rhs)
            )
        }
        Inst::Un { op, ty, dst, src } => {
            format!("{dst} = {} {ty} {}", op.mnemonic(), fmt_operand(src))
        }
        Inst::Cmp {
            pred,
            ty,
            dst,
            lhs,
            rhs,
        } => {
            format!(
                "{dst} = cmp {} {ty} {}, {}",
                pred.mnemonic(),
                fmt_operand(lhs),
                fmt_operand(rhs)
            )
        }
        Inst::Select {
            ty,
            dst,
            cond,
            on_true,
            on_false,
        } => {
            format!(
                "{dst} = select {ty} {}, {}, {}",
                fmt_operand(cond),
                fmt_operand(on_true),
                fmt_operand(on_false)
            )
        }
        Inst::Copy { ty, dst, src } => format!("{dst} = copy {ty} {}", fmt_operand(src)),
        Inst::Cast {
            kind,
            dst,
            src,
            from,
            to,
        } => {
            format!(
                "{dst} = {} {} : {from} -> {to}",
                kind.mnemonic(),
                fmt_operand(src)
            )
        }
        Inst::Load { ty, dst, addr } => format!("{dst} = load {ty}, {}", fmt_operand(addr)),
        Inst::Store { ty, addr, value } => {
            format!("store {ty} {}, {}", fmt_operand(value), fmt_operand(addr))
        }
        Inst::Alloca { dst, size, align } => format!("{dst} = alloca {size} align {align}"),
        Inst::PtrAdd { dst, base, offset } => {
            format!(
                "{dst} = ptradd {}, {}",
                fmt_operand(base),
                fmt_operand(offset)
            )
        }
        Inst::Call { dst, callee, args } => match dst {
            Some(d) => format!("{d} = call {}({})", fmt_callee(m, callee), fmt_args(args)),
            None => format!("call {}({})", fmt_callee(m, callee), fmt_args(args)),
        },
        Inst::FuncAddr { dst, func } => {
            format!("{dst} = funcaddr @{}", m.functions[func.index()].name)
        }
        Inst::GlobalAddr { dst, global } => {
            format!("{dst} = globaladdr @{}", m.globals[global.index()].name)
        }
    }
}

/// Formats one terminator in parseable syntax.
fn fmt_term(m: &Module, term: &Term) -> String {
    match term {
        Term::Jump(t) => format!("jmp {t}"),
        Term::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            format!("br {}, {then_bb}, {else_bb}", fmt_operand(cond))
        }
        Term::Switch {
            ty,
            value,
            cases,
            default,
        } => {
            let cs: Vec<String> = cases.iter().map(|(v, t)| format!("{v} -> {t}")).collect();
            format!(
                "switch {ty} {} [{}] default {default}",
                fmt_operand(value),
                cs.join(", ")
            )
        }
        Term::Ret(None) => "ret".into(),
        Term::Ret(Some(v)) => format!("ret {}", fmt_operand(v)),
        Term::Invoke {
            dst,
            callee,
            args,
            normal,
            unwind,
        } => {
            let head = match dst {
                Some(d) => format!("{d} = invoke"),
                None => "invoke".into(),
            };
            format!(
                "{head} {}({}) to {normal} unwind {unwind}",
                fmt_callee(m, callee),
                fmt_args(args)
            )
        }
        Term::Unreachable => "unreachable".into(),
    }
}
