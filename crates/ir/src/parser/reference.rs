//! The text parser as it was before the one-pass parser: a symbol
//! pre-scan over every line, then a second split into lines, with every
//! error value built eagerly on the success path. It is the test oracle
//! the new parser must match: the same `Module` on every printed module,
//! and an error on the same line for malformed input wherever this one
//! does not panic (it panics on a few malformed lines the new parser
//! rejects).
//!
//! Compiled only into tests: this crate's unit tests, and
//! `tests/text_ir_quick.rs`, which includes this file by path and
//! re-exports the crate's modules at its root so the `crate::` paths
//! below resolve there too.

use crate::constant::Const;
use crate::function::{Block, Function, Linkage, PadInfo, ProvKind, Provenance};
use crate::ids::{BlockId, ExtId, FuncId, GlobalId, LocalId};
use crate::inst::{BinOp, Callee, CastKind, CmpPred, Inst, Operand, Term, UnOp};
use crate::module::{ExtFunc, GInit, Global, Module};
use crate::parser::ParseError;
use crate::types::Type;
use std::collections::HashMap;

type PResult<T> = Result<T, ParseError>;

struct Parser<'a> {
    lines: Vec<(usize, &'a str)>,
    pos: usize,
    func_ids: HashMap<String, FuncId>,
    global_ids: HashMap<String, GlobalId>,
    ext_ids: HashMap<String, ExtId>,
}

/// Parses a module from the textual format.
///
/// # Errors
/// Returns a [`ParseError`] with the offending line on malformed input.
pub fn parse_module(src: &str) -> PResult<Module> {
    // Pre-scan symbol tables so forward references resolve.
    let mut func_ids = HashMap::new();
    let mut global_ids = HashMap::new();
    let mut ext_ids = HashMap::new();
    for (i, line) in src.lines().enumerate() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("func ") {
            if let Some(name) = rest.split('(').next() {
                declare(&mut func_ids, name.trim(), "func", i + 1, FuncId::new)?;
            }
        } else if let Some(rest) = t.strip_prefix("global ") {
            if let Some(name) = rest.split_whitespace().next() {
                declare(&mut global_ids, name, "global", i + 1, GlobalId::new)?;
            }
        } else if let Some(rest) = t.strip_prefix("extern ") {
            if let Some(name) = rest.split('(').next() {
                declare(&mut ext_ids, name.trim(), "extern", i + 1, ExtId::new)?;
            }
        }
    }

    let lines: Vec<(usize, &str)> = src
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with(';'))
        .collect();
    let mut p = Parser {
        lines,
        pos: 0,
        func_ids,
        global_ids,
        ext_ids,
    };
    p.module()
}

/// Numbers `name` in declaration order. A repeated name is an error: it
/// would shift the id of every later declaration of its kind.
fn declare<I>(
    ids: &mut HashMap<String, I>,
    name: &str,
    what: &str,
    line: usize,
    id: impl FnOnce(usize) -> I,
) -> PResult<()> {
    let next = id(ids.len());
    if ids.insert(name.to_string(), next).is_some() {
        return Err(ParseError {
            line,
            message: format!("duplicate {what} name `{name}`"),
        });
    }
    Ok(())
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<(usize, &'a str)> {
        self.lines.get(self.pos).copied()
    }

    fn next_line(&mut self) -> PResult<(usize, &'a str)> {
        let r = self.peek().ok_or_else(|| ParseError {
            line: self.lines.last().map_or(0, |(n, _)| *n),
            message: "unexpected end of input".into(),
        })?;
        self.pos += 1;
        Ok(r)
    }

    fn err<T>(&self, line: usize, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            line,
            message: msg.into(),
        })
    }

    fn module(&mut self) -> PResult<Module> {
        let (ln, first) = self.next_line()?;
        let name = first.strip_prefix("module ").ok_or_else(|| ParseError {
            line: ln,
            message: "expected `module <name>`".into(),
        })?;
        let mut m = Module::new(name.trim());
        // Pre-size function slots so ids match the pre-scan.
        while let Some((ln, line)) = self.peek() {
            if line.starts_with("extern ") {
                self.pos += 1;
                m.externals.push(self.parse_extern(ln, line)?);
            } else if line.starts_with("global ") {
                self.pos += 1;
                m.globals.push(self.parse_global(ln, line)?);
            } else if line.starts_with("func ") {
                self.pos += 1;
                let f = self.parse_function(ln, line)?;
                m.functions.push(f);
            } else {
                return self.err(ln, format!("unexpected line `{line}`"));
            }
        }
        Ok(m)
    }

    fn parse_type(&self, ln: usize, s: &str) -> PResult<Type> {
        match s {
            "void" => Ok(Type::Void),
            "i1" => Ok(Type::I1),
            "i8" => Ok(Type::I8),
            "i16" => Ok(Type::I16),
            "i32" => Ok(Type::I32),
            "i64" => Ok(Type::I64),
            "f32" => Ok(Type::F32),
            "f64" => Ok(Type::F64),
            "ptr" => Ok(Type::Ptr),
            other => self.err(ln, format!("unknown type `{other}`")),
        }
    }

    fn parse_extern(&self, ln: usize, line: &str) -> PResult<ExtFunc> {
        // extern name(ty, ty, ...) -> ty
        let rest = line.strip_prefix("extern ").expect("caller checked prefix");
        let open = rest.find('(').ok_or(ParseError {
            line: ln,
            message: "expected `(`".into(),
        })?;
        let close = rest.rfind(')').ok_or(ParseError {
            line: ln,
            message: "expected `)`".into(),
        })?;
        let name = rest[..open].trim().to_string();
        let params_str = &rest[open + 1..close];
        let after = rest[close + 1..].trim();
        let ret_str = after
            .strip_prefix("->")
            .ok_or(ParseError {
                line: ln,
                message: "expected `-> <ty>`".into(),
            })?
            .trim();
        let mut params = Vec::new();
        let mut variadic = false;
        for part in params_str
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
        {
            if part == "..." {
                variadic = true;
            } else {
                params.push(self.parse_type(ln, part)?);
            }
        }
        Ok(ExtFunc {
            name,
            params,
            ret_ty: self.parse_type(ln, ret_str)?,
            variadic,
        })
    }

    fn parse_global(&mut self, ln: usize, header: &str) -> PResult<Global> {
        // global name align N [exported] {
        let rest = header
            .strip_prefix("global ")
            .expect("caller checked prefix");
        let mut words = rest.split_whitespace();
        let name = words
            .next()
            .ok_or(ParseError {
                line: ln,
                message: "expected global name".into(),
            })?
            .to_string();
        let mut align = 8u32;
        let mut exported = false;
        while let Some(w) = words.next() {
            match w {
                "align" => {
                    let v = words.next().ok_or(ParseError {
                        line: ln,
                        message: "expected align value".into(),
                    })?;
                    align = v.parse().map_err(|_| ParseError {
                        line: ln,
                        message: "bad align value".into(),
                    })?;
                }
                "exported" => exported = true,
                "{" => break,
                other => return self.err(ln, format!("unexpected `{other}` in global header")),
            }
        }
        let mut init = Vec::new();
        loop {
            let (ln2, line) = self.next_line()?;
            if line == "}" {
                break;
            }
            let mut w = line.split_whitespace();
            match w.next() {
                Some("bytes") => {
                    let hex = w.next().unwrap_or("");
                    if hex.len() % 2 != 0 {
                        return self.err(ln2, "odd-length hex byte string");
                    }
                    let mut bytes = Vec::with_capacity(hex.len() / 2);
                    for i in (0..hex.len()).step_by(2) {
                        let b = u8::from_str_radix(&hex[i..i + 2], 16).map_err(|_| ParseError {
                            line: ln2,
                            message: "bad hex".into(),
                        })?;
                        bytes.push(b);
                    }
                    init.push(GInit::Bytes(bytes));
                }
                Some("int") => {
                    let ty = self.parse_type(
                        ln2,
                        w.next().ok_or(ParseError {
                            line: ln2,
                            message: "expected type".into(),
                        })?,
                    )?;
                    let v: i64 = w.next().and_then(|s| s.parse().ok()).ok_or(ParseError {
                        line: ln2,
                        message: "bad int value".into(),
                    })?;
                    init.push(GInit::Int { value: v, ty });
                }
                Some("float") => {
                    let ty = self.parse_type(
                        ln2,
                        w.next().ok_or(ParseError {
                            line: ln2,
                            message: "expected type".into(),
                        })?,
                    )?;
                    let v: f64 = w.next().and_then(|s| s.parse().ok()).ok_or(ParseError {
                        line: ln2,
                        message: "bad float value".into(),
                    })?;
                    init.push(GInit::Float { value: v, ty });
                }
                Some("zero") => {
                    let n: u32 = w.next().and_then(|s| s.parse().ok()).ok_or(ParseError {
                        line: ln2,
                        message: "bad zero size".into(),
                    })?;
                    init.push(GInit::Zero(n));
                }
                Some("funcptr") => {
                    let fname = w
                        .next()
                        .and_then(|s| s.strip_prefix('@'))
                        .ok_or(ParseError {
                            line: ln2,
                            message: "expected @func".into(),
                        })?;
                    let func = *self.func_ids.get(fname).ok_or(ParseError {
                        line: ln2,
                        message: format!("unknown func `{fname}`"),
                    })?;
                    // optional "+ N"
                    let mut addend = 0i64;
                    if let Some("+") = w.next() {
                        addend = w.next().and_then(|s| s.parse().ok()).ok_or(ParseError {
                            line: ln2,
                            message: "bad addend".into(),
                        })?;
                    }
                    init.push(GInit::FuncPtr { func, addend });
                }
                other => return self.err(ln2, format!("unknown global init `{other:?}`")),
            }
        }
        Ok(Global {
            name,
            init,
            align,
            exported,
        })
    }

    fn parse_operand(&self, ln: usize, s: &str) -> PResult<Operand> {
        let s = s.trim();
        if let Some(n) = s.strip_prefix('%') {
            let i: usize = n.parse().map_err(|_| ParseError {
                line: ln,
                message: format!("bad local `{s}`"),
            })?;
            return Ok(Operand::Local(LocalId::new(i)));
        }
        match s {
            "true" => return Ok(Operand::const_bool(true)),
            "false" => return Ok(Operand::const_bool(false)),
            "null" => return Ok(Operand::Const(Const::Null)),
            _ => {}
        }
        // ty:value
        let (ty_s, val_s) = s.split_once(':').ok_or_else(|| ParseError {
            line: ln,
            message: format!("bad operand `{s}`"),
        })?;
        let ty = self.parse_type(ln, ty_s)?;
        if ty.is_float() {
            let v: f64 = val_s.parse().map_err(|_| ParseError {
                line: ln,
                message: format!("bad float `{val_s}`"),
            })?;
            Ok(Operand::const_float(ty, v))
        } else {
            let v: i64 = val_s.parse().map_err(|_| ParseError {
                line: ln,
                message: format!("bad int `{val_s}`"),
            })?;
            Ok(Operand::const_int(ty, v))
        }
    }

    fn parse_local(&self, ln: usize, s: &str) -> PResult<LocalId> {
        let n = s.trim().strip_prefix('%').ok_or_else(|| ParseError {
            line: ln,
            message: format!("expected local, got `{s}`"),
        })?;
        let i: usize = n.parse().map_err(|_| ParseError {
            line: ln,
            message: format!("bad local `{s}`"),
        })?;
        Ok(LocalId::new(i))
    }

    fn parse_block_id(&self, ln: usize, s: &str) -> PResult<BlockId> {
        let n = s.trim().strip_prefix("bb").ok_or_else(|| ParseError {
            line: ln,
            message: format!("expected block, got `{s}`"),
        })?;
        let i: usize = n.parse().map_err(|_| ParseError {
            line: ln,
            message: format!("bad block `{s}`"),
        })?;
        Ok(BlockId::new(i))
    }

    fn parse_callee(&self, ln: usize, s: &str) -> PResult<Callee> {
        let s = s.trim();
        if let Some(name) = s.strip_prefix('@') {
            let id = self.func_ids.get(name).ok_or_else(|| ParseError {
                line: ln,
                message: format!("unknown func `{name}`"),
            })?;
            Ok(Callee::Direct(*id))
        } else if let Some(name) = s.strip_prefix("ext:") {
            let id = self.ext_ids.get(name).ok_or_else(|| ParseError {
                line: ln,
                message: format!("unknown extern `{name}`"),
            })?;
            Ok(Callee::Ext(*id))
        } else if s.starts_with('[') && s.ends_with(']') {
            Ok(Callee::Indirect(
                self.parse_operand(ln, &s[1..s.len() - 1])?,
            ))
        } else {
            self.err(ln, format!("bad callee `{s}`"))
        }
    }

    fn parse_args(&self, ln: usize, s: &str) -> PResult<Vec<Operand>> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(Vec::new());
        }
        s.split(',').map(|a| self.parse_operand(ln, a)).collect()
    }

    fn parse_call_like(&self, ln: usize, s: &str) -> PResult<(Callee, Vec<Operand>)> {
        // "<callee>(<args>)"
        let open = s.find('(').ok_or_else(|| ParseError {
            line: ln,
            message: "expected `(` in call".into(),
        })?;
        let close = s.rfind(')').ok_or_else(|| ParseError {
            line: ln,
            message: "expected `)` in call".into(),
        })?;
        let callee = self.parse_callee(ln, &s[..open])?;
        let args = self.parse_args(ln, &s[open + 1..close])?;
        Ok((callee, args))
    }

    fn parse_function(&mut self, ln: usize, header: &str) -> PResult<Function> {
        // func name(N) -> ty [exported] [variadic] {
        let rest = header.strip_prefix("func ").expect("caller checked prefix");
        let open = rest.find('(').ok_or(ParseError {
            line: ln,
            message: "expected `(`".into(),
        })?;
        let close = rest.find(')').ok_or(ParseError {
            line: ln,
            message: "expected `)`".into(),
        })?;
        let name = rest[..open].trim().to_string();
        let param_count: u32 = rest[open + 1..close]
            .trim()
            .parse()
            .map_err(|_| ParseError {
                line: ln,
                message: "bad param count".into(),
            })?;
        let after = rest[close + 1..].trim();
        let after = after
            .strip_prefix("->")
            .ok_or(ParseError {
                line: ln,
                message: "expected `->`".into(),
            })?
            .trim();
        let mut words = after.split_whitespace();
        let ret_ty = self.parse_type(
            ln,
            words.next().ok_or(ParseError {
                line: ln,
                message: "expected return type".into(),
            })?,
        )?;
        let mut linkage = Linkage::Internal;
        let mut variadic = false;
        for w in words {
            match w {
                "exported" => linkage = Linkage::Exported,
                "variadic" => variadic = true,
                "{" => break,
                other => return self.err(ln, format!("unexpected `{other}` in func header")),
            }
        }

        let mut f = Function::new(name, ret_ty);
        f.blocks.clear();
        f.param_count = param_count;
        f.linkage = linkage;
        f.variadic = variadic;

        // Optional prov / annot lines, then locals.
        loop {
            let (ln2, line) = self.next_line()?;
            if let Some(rest) = line.strip_prefix("prov ") {
                let mut w = rest.split_whitespace();
                let kind = match w.next() {
                    Some("original") => ProvKind::Original,
                    Some("sep") => ProvKind::Sep,
                    Some("rem") => ProvKind::Rem,
                    Some("fused") => ProvKind::Fused,
                    Some("trampoline") => ProvKind::Trampoline,
                    other => return self.err(ln2, format!("unknown prov kind `{other:?}`")),
                };
                f.provenance = Provenance {
                    kind,
                    origins: w.map(String::from).collect(),
                };
            } else if let Some(rest) = line.strip_prefix("annot ") {
                f.annotations = rest.split_whitespace().map(String::from).collect();
            } else if let Some(rest) = line.strip_prefix("locals") {
                f.locals = rest
                    .split_whitespace()
                    .map(|t| self.parse_type(ln2, t))
                    .collect::<PResult<Vec<_>>>()?;
                break;
            } else {
                return self.err(ln2, format!("expected prov/annot/locals, got `{line}`"));
            }
        }

        // Blocks until "}".
        let mut cur: Option<Block> = None;
        loop {
            let (ln2, line) = self.next_line()?;
            if line == "}" {
                if let Some(b) = cur.take() {
                    f.blocks.push(b);
                }
                break;
            }
            if line.starts_with("bb") && line.ends_with(':') {
                if let Some(b) = cur.take() {
                    f.blocks.push(b);
                }
                let head = &line[..line.len() - 1];
                let mut parts = head.split_whitespace();
                let _bid = parts.next(); // block ids are positional
                let mut pad = None;
                if let Some("pad") = parts.next() {
                    let dst = match parts.next() {
                        Some(l) => Some(self.parse_local(ln2, l)?),
                        None => None,
                    };
                    pad = Some(PadInfo { dst });
                }
                let mut b = Block::with_term(Term::Unreachable);
                b.pad = pad;
                cur = Some(b);
                continue;
            }
            let block = cur.as_mut().ok_or(ParseError {
                line: ln2,
                message: "instruction before first block".into(),
            })?;
            if let Some(term) = self.try_parse_term(ln2, line)? {
                block.term = term;
            } else {
                block.insts.push(self.parse_inst(ln2, line)?);
            }
        }
        Ok(f)
    }

    fn try_parse_term(&self, ln: usize, line: &str) -> PResult<Option<Term>> {
        if let Some(rest) = line.strip_prefix("jmp ") {
            return Ok(Some(Term::Jump(self.parse_block_id(ln, rest)?)));
        }
        if let Some(rest) = line.strip_prefix("br ") {
            let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
            if parts.len() != 3 {
                return self.err(ln, "br needs cond, then, else");
            }
            return Ok(Some(Term::Branch {
                cond: self.parse_operand(ln, parts[0])?,
                then_bb: self.parse_block_id(ln, parts[1])?,
                else_bb: self.parse_block_id(ln, parts[2])?,
            }));
        }
        if let Some(rest) = line.strip_prefix("switch ") {
            // switch ty value [c -> bb, ...] default bb
            let open = rest.find('[').ok_or(ParseError {
                line: ln,
                message: "expected `[`".into(),
            })?;
            let close = rest.rfind(']').ok_or(ParseError {
                line: ln,
                message: "expected `]`".into(),
            })?;
            let mut head = rest[..open].split_whitespace();
            let ty = self.parse_type(
                ln,
                head.next().ok_or(ParseError {
                    line: ln,
                    message: "expected type".into(),
                })?,
            )?;
            let value = self.parse_operand(
                ln,
                head.next().ok_or(ParseError {
                    line: ln,
                    message: "expected value".into(),
                })?,
            )?;
            let mut cases = Vec::new();
            for c in rest[open + 1..close]
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
            {
                let (v, t) = c.split_once("->").ok_or(ParseError {
                    line: ln,
                    message: "case needs `->`".into(),
                })?;
                let v: i64 = v.trim().parse().map_err(|_| ParseError {
                    line: ln,
                    message: "bad case value".into(),
                })?;
                cases.push((v, self.parse_block_id(ln, t)?));
            }
            let def = rest[close + 1..]
                .trim()
                .strip_prefix("default")
                .ok_or(ParseError {
                    line: ln,
                    message: "expected `default`".into(),
                })?;
            return Ok(Some(Term::Switch {
                ty,
                value,
                cases,
                default: self.parse_block_id(ln, def)?,
            }));
        }
        if line == "ret" {
            return Ok(Some(Term::Ret(None)));
        }
        if let Some(rest) = line.strip_prefix("ret ") {
            return Ok(Some(Term::Ret(Some(self.parse_operand(ln, rest)?))));
        }
        if line == "unreachable" {
            return Ok(Some(Term::Unreachable));
        }
        // [%d =] invoke callee(args) to bbN unwind bbM
        let (dst, body) = match line.split_once('=') {
            Some((lhs, rhs))
                if lhs.trim().starts_with('%') && rhs.trim().starts_with("invoke ") =>
            {
                (Some(self.parse_local(ln, lhs)?), rhs.trim())
            }
            _ => (None, line),
        };
        if let Some(rest) = body.strip_prefix("invoke ") {
            let to_pos = rest.rfind(" to ").ok_or(ParseError {
                line: ln,
                message: "invoke needs ` to `".into(),
            })?;
            let (callee, args) = self.parse_call_like(ln, &rest[..to_pos])?;
            let tail = &rest[to_pos + 4..];
            let (normal_s, unwind_s) = tail.split_once("unwind").ok_or(ParseError {
                line: ln,
                message: "invoke needs `unwind`".into(),
            })?;
            return Ok(Some(Term::Invoke {
                dst,
                callee,
                args,
                normal: self.parse_block_id(ln, normal_s)?,
                unwind: self.parse_block_id(ln, unwind_s)?,
            }));
        }
        Ok(None)
    }

    fn parse_inst(&self, ln: usize, line: &str) -> PResult<Inst> {
        // Void call has no `=`.
        if let Some(rest) = line.strip_prefix("call ") {
            let (callee, args) = self.parse_call_like(ln, rest)?;
            return Ok(Inst::Call {
                dst: None,
                callee,
                args,
            });
        }
        if let Some(rest) = line.strip_prefix("store ") {
            // store ty value, addr
            let mut w = rest.splitn(2, ' ');
            let ty = self.parse_type(
                ln,
                w.next().ok_or(ParseError {
                    line: ln,
                    message: "expected type".into(),
                })?,
            )?;
            let rest2 = w.next().ok_or(ParseError {
                line: ln,
                message: "expected operands".into(),
            })?;
            let (v, a) = rest2.split_once(',').ok_or(ParseError {
                line: ln,
                message: "store needs value, addr".into(),
            })?;
            return Ok(Inst::Store {
                ty,
                value: self.parse_operand(ln, v)?,
                addr: self.parse_operand(ln, a)?,
            });
        }
        let (lhs, rhs) = line.split_once('=').ok_or_else(|| ParseError {
            line: ln,
            message: format!("unrecognised line `{line}`"),
        })?;
        let dst = self.parse_local(ln, lhs)?;
        let body = rhs.trim();
        let mut w = body.splitn(2, ' ');
        let mnem = w.next().unwrap_or("");
        let rest = w.next().unwrap_or("").trim();

        let binop = BinOp::ALL.iter().find(|b| b.mnemonic() == mnem).copied();
        if let Some(op) = binop {
            let mut ww = rest.splitn(2, ' ');
            let ty = self.parse_type(
                ln,
                ww.next().ok_or(ParseError {
                    line: ln,
                    message: "expected type".into(),
                })?,
            )?;
            let ops = ww.next().ok_or(ParseError {
                line: ln,
                message: "expected operands".into(),
            })?;
            let (l, r) = ops.split_once(',').ok_or(ParseError {
                line: ln,
                message: "binop needs two operands".into(),
            })?;
            return Ok(Inst::Bin {
                op,
                ty,
                dst,
                lhs: self.parse_operand(ln, l)?,
                rhs: self.parse_operand(ln, r)?,
            });
        }
        if let Some(op) = [UnOp::Neg, UnOp::Not, UnOp::FNeg]
            .iter()
            .find(|u| u.mnemonic() == mnem)
            .copied()
        {
            let mut ww = rest.splitn(2, ' ');
            let ty = self.parse_type(
                ln,
                ww.next().ok_or(ParseError {
                    line: ln,
                    message: "expected type".into(),
                })?,
            )?;
            let src = ww.next().ok_or(ParseError {
                line: ln,
                message: "expected operand".into(),
            })?;
            return Ok(Inst::Un {
                op,
                ty,
                dst,
                src: self.parse_operand(ln, src)?,
            });
        }
        match mnem {
            "cmp" => {
                let mut ww = rest.splitn(3, ' ');
                let pred_s = ww.next().ok_or(ParseError {
                    line: ln,
                    message: "expected pred".into(),
                })?;
                let pred = CmpPred::ALL
                    .iter()
                    .find(|p| p.mnemonic() == pred_s)
                    .copied()
                    .ok_or_else(|| ParseError {
                        line: ln,
                        message: format!("bad pred `{pred_s}`"),
                    })?;
                let ty = self.parse_type(
                    ln,
                    ww.next().ok_or(ParseError {
                        line: ln,
                        message: "expected type".into(),
                    })?,
                )?;
                let ops = ww.next().ok_or(ParseError {
                    line: ln,
                    message: "expected operands".into(),
                })?;
                let (l, r) = ops.split_once(',').ok_or(ParseError {
                    line: ln,
                    message: "cmp needs two operands".into(),
                })?;
                Ok(Inst::Cmp {
                    pred,
                    ty,
                    dst,
                    lhs: self.parse_operand(ln, l)?,
                    rhs: self.parse_operand(ln, r)?,
                })
            }
            "select" => {
                let mut ww = rest.splitn(2, ' ');
                let ty = self.parse_type(
                    ln,
                    ww.next().ok_or(ParseError {
                        line: ln,
                        message: "expected type".into(),
                    })?,
                )?;
                let ops = ww.next().ok_or(ParseError {
                    line: ln,
                    message: "expected operands".into(),
                })?;
                let parts: Vec<&str> = ops.split(',').map(str::trim).collect();
                if parts.len() != 3 {
                    return self.err(ln, "select needs three operands");
                }
                Ok(Inst::Select {
                    ty,
                    dst,
                    cond: self.parse_operand(ln, parts[0])?,
                    on_true: self.parse_operand(ln, parts[1])?,
                    on_false: self.parse_operand(ln, parts[2])?,
                })
            }
            "copy" => {
                let mut ww = rest.splitn(2, ' ');
                let ty = self.parse_type(
                    ln,
                    ww.next().ok_or(ParseError {
                        line: ln,
                        message: "expected type".into(),
                    })?,
                )?;
                let src = ww.next().ok_or(ParseError {
                    line: ln,
                    message: "expected operand".into(),
                })?;
                Ok(Inst::Copy {
                    ty,
                    dst,
                    src: self.parse_operand(ln, src)?,
                })
            }
            "load" => {
                let (ty_s, addr_s) = rest.split_once(',').ok_or(ParseError {
                    line: ln,
                    message: "load needs `ty, addr`".into(),
                })?;
                Ok(Inst::Load {
                    ty: self.parse_type(ln, ty_s.trim())?,
                    dst,
                    addr: self.parse_operand(ln, addr_s)?,
                })
            }
            "alloca" => {
                let mut ww = rest.split_whitespace();
                let size: u32 = ww.next().and_then(|s| s.parse().ok()).ok_or(ParseError {
                    line: ln,
                    message: "bad alloca size".into(),
                })?;
                let mut align = 8;
                if let Some("align") = ww.next() {
                    align = ww.next().and_then(|s| s.parse().ok()).ok_or(ParseError {
                        line: ln,
                        message: "bad align".into(),
                    })?;
                }
                Ok(Inst::Alloca { dst, size, align })
            }
            "ptradd" => {
                let (b, o) = rest.split_once(',').ok_or(ParseError {
                    line: ln,
                    message: "ptradd needs base, offset".into(),
                })?;
                Ok(Inst::PtrAdd {
                    dst,
                    base: self.parse_operand(ln, b)?,
                    offset: self.parse_operand(ln, o)?,
                })
            }
            "call" => {
                let (callee, args) = self.parse_call_like(ln, rest)?;
                Ok(Inst::Call {
                    dst: Some(dst),
                    callee,
                    args,
                })
            }
            "funcaddr" => {
                let name = rest.strip_prefix('@').ok_or(ParseError {
                    line: ln,
                    message: "expected @func".into(),
                })?;
                let func = *self.func_ids.get(name).ok_or_else(|| ParseError {
                    line: ln,
                    message: format!("unknown func `{name}`"),
                })?;
                Ok(Inst::FuncAddr { dst, func })
            }
            "globaladdr" => {
                let name = rest.strip_prefix('@').ok_or(ParseError {
                    line: ln,
                    message: "expected @global".into(),
                })?;
                let global = *self.global_ids.get(name).ok_or_else(|| ParseError {
                    line: ln,
                    message: format!("unknown global `{name}`"),
                })?;
                Ok(Inst::GlobalAddr { dst, global })
            }
            // casts: "%d = trunc %s : i64 -> i32"
            m => {
                let kinds = [
                    CastKind::Trunc,
                    CastKind::ZExt,
                    CastKind::SExt,
                    CastKind::FpToSi,
                    CastKind::SiToFp,
                    CastKind::FpTrunc,
                    CastKind::FpExt,
                    CastKind::PtrToInt,
                    CastKind::IntToPtr,
                ];
                if let Some(kind) = kinds.iter().find(|k| k.mnemonic() == m).copied() {
                    // Split at the LAST colon: the source operand may be a
                    // typed constant (`i64:0`) containing one itself.
                    let (src_s, tys) = rest.rsplit_once(':').ok_or(ParseError {
                        line: ln,
                        message: "cast needs `:`".into(),
                    })?;
                    let (from_s, to_s) = tys.split_once("->").ok_or(ParseError {
                        line: ln,
                        message: "cast needs `->`".into(),
                    })?;
                    return Ok(Inst::Cast {
                        kind,
                        dst,
                        src: self.parse_operand(ln, src_s)?,
                        from: self.parse_type(ln, from_s.trim())?,
                        to: self.parse_type(ln, to_s.trim())?,
                    });
                }
                self.err(ln, format!("unknown instruction `{m}`"))
            }
        }
    }
}
