//! Parsing of the textual KIR format produced by [`crate::printer`].
//!
//! One pass splits the text into lines and numbers every `func`, `global`
//! and `extern` header, so forward references resolve; a second walks the
//! lines. Error values are built only on the failure path, and no line
//! allocates beyond what the module keeps. Malformed input is a
//! [`ParseError`] naming the line, never a panic.

use crate::constant::Const;
use crate::function::{Block, Function, Linkage, PadInfo, ProvKind, Provenance};
use crate::ids::{BlockId, ExtId, FuncId, GlobalId, LocalId};
use crate::inst::{BinOp, Callee, CastKind, CmpPred, Inst, Operand, Term, UnOp};
use crate::module::{ExtFunc, GInit, Global, Module};
use crate::types::Type;
use std::collections::HashMap;
use std::fmt;

#[cfg(test)]
pub(crate) mod reference;

/// A parse failure with a line number.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

#[cold]
fn fail(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// `ok_or` with a static message, built only on failure.
trait OrFail<T> {
    fn or_fail(self, line: usize, message: &str) -> PResult<T>;
}

impl<T> OrFail<T> for Option<T> {
    #[inline]
    fn or_fail(self, line: usize, message: &str) -> PResult<T> {
        match self {
            Some(v) => Ok(v),
            None => Err(fail(line, message)),
        }
    }
}

impl<T, E> OrFail<T> for Result<T, E> {
    #[inline]
    fn or_fail(self, line: usize, message: &str) -> PResult<T> {
        self.ok().or_fail(line, message)
    }
}

struct Parser<'a> {
    /// Non-blank, non-comment lines, trimmed, with their 1-based numbers.
    lines: Vec<(usize, &'a str)>,
    pos: usize,
    func_ids: HashMap<&'a str, FuncId>,
    global_ids: HashMap<&'a str, GlobalId>,
    ext_ids: HashMap<&'a str, ExtId>,
}

/// Parses a module from the textual format.
///
/// # Errors
/// Returns a [`ParseError`] with the offending line on malformed input.
pub fn parse_module(src: &str) -> PResult<Module> {
    let mut p = Parser {
        lines: Vec::new(),
        pos: 0,
        func_ids: HashMap::new(),
        global_ids: HashMap::new(),
        ext_ids: HashMap::new(),
    };
    for (i, line) in src.lines().enumerate() {
        let (ln, t) = (i + 1, line.trimmed());
        if t.is_empty() || t.starts_with(';') {
            continue;
        }
        p.lines.push((ln, t));
        // Number the symbols in declaration order so forward references
        // resolve; a header the main pass rejects fails there.
        if let Some(rest) = t.strip_prefix("func ") {
            let name = rest.split('(').next().unwrap_or(rest).trimmed();
            declare(&mut p.func_ids, name, "func", ln, FuncId::new)?;
        } else if let Some(rest) = t.strip_prefix("global ") {
            if let Some(name) = rest.split_whitespace().next() {
                declare(&mut p.global_ids, name, "global", ln, GlobalId::new)?;
            }
        } else if let Some(rest) = t.strip_prefix("extern ") {
            let name = rest.split('(').next().unwrap_or(rest).trimmed();
            declare(&mut p.ext_ids, name, "extern", ln, ExtId::new)?;
        }
    }
    p.module()
}

/// Numbers `name` in declaration order. A repeated name is an error: it
/// would shift the id of every later declaration of its kind.
fn declare<'a, I>(
    ids: &mut HashMap<&'a str, I>,
    name: &'a str,
    what: &str,
    line: usize,
    id: impl FnOnce(usize) -> I,
) -> PResult<()> {
    let next = id(ids.len());
    if ids.insert(name, next).is_some() {
        return Err(fail(line, format!("duplicate {what} name `{name}`")));
    }
    Ok(())
}

/// The `(` … `)` span of a header: the first `(` and the `)` that
/// `close` finds. A `)` before the `(` is an error, not a backwards slice.
fn parens(
    ln: usize,
    s: &str,
    close: impl FnOnce(&str) -> Option<usize>,
) -> PResult<(usize, usize)> {
    let open = s.find('(').or_fail(ln, "expected `(`")?;
    let close = close(s).or_fail(ln, "expected `)`")?;
    if close < open {
        return Err(fail(ln, "expected `)` after `(`"));
    }
    Ok((open, close))
}

fn bin_op(mnem: &str) -> Option<BinOp> {
    Some(match mnem {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "sdiv" => BinOp::SDiv,
        "udiv" => BinOp::UDiv,
        "srem" => BinOp::SRem,
        "urem" => BinOp::URem,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "lshr" => BinOp::LShr,
        "ashr" => BinOp::AShr,
        "fadd" => BinOp::FAdd,
        "fsub" => BinOp::FSub,
        "fmul" => BinOp::FMul,
        "fdiv" => BinOp::FDiv,
        _ => return None,
    })
}

fn un_op(mnem: &str) -> Option<UnOp> {
    Some(match mnem {
        "neg" => UnOp::Neg,
        "not" => UnOp::Not,
        "fneg" => UnOp::FNeg,
        _ => return None,
    })
}

fn cmp_pred(mnem: &str) -> Option<CmpPred> {
    Some(match mnem {
        "eq" => CmpPred::Eq,
        "ne" => CmpPred::Ne,
        "slt" => CmpPred::Slt,
        "sle" => CmpPred::Sle,
        "sgt" => CmpPred::Sgt,
        "sge" => CmpPred::Sge,
        "ult" => CmpPred::Ult,
        "ule" => CmpPred::Ule,
        "ugt" => CmpPred::Ugt,
        "uge" => CmpPred::Uge,
        "feq" => CmpPred::FEq,
        "fne" => CmpPred::FNe,
        "flt" => CmpPred::FLt,
        "fle" => CmpPred::FLe,
        "fgt" => CmpPred::FGt,
        "fge" => CmpPred::FGe,
        _ => return None,
    })
}

fn cast_kind(mnem: &str) -> Option<CastKind> {
    Some(match mnem {
        "trunc" => CastKind::Trunc,
        "zext" => CastKind::ZExt,
        "sext" => CastKind::SExt,
        "fptosi" => CastKind::FpToSi,
        "sitofp" => CastKind::SiToFp,
        "fptrunc" => CastKind::FpTrunc,
        "fpext" => CastKind::FpExt,
        "ptrtoint" => CastKind::PtrToInt,
        "inttoptr" => CastKind::IntToPtr,
        _ => return None,
    })
}

/// `s` split at its first space; the second part is `None` without one.
fn first_word(s: &str) -> (&str, Option<&str>) {
    match s.split_byte(b' ') {
        Some((a, b)) => (a, Some(b)),
        None => (s, None),
    }
}

/// `str::trim` and `str::split_once` for the parser's short lines: the
/// same results, minus the character decoding and the searcher set-up
/// that dominate on lines this short.
trait Text {
    /// `trim()`, decoding characters only when an end is non-ASCII or a
    /// vertical tab (the one ASCII space `trim_ascii` keeps).
    fn trimmed(&self) -> &str;
    /// `split_once(b)` for an ASCII byte `b`.
    fn split_byte(&self, b: u8) -> Option<(&str, &str)>;
}

impl Text for str {
    fn trimmed(&self) -> &str {
        let t = self.trim_ascii();
        match (t.bytes().next(), t.bytes().next_back()) {
            (Some(a), Some(z)) if !a.is_ascii() || !z.is_ascii() || a == 0x0b || z == 0x0b => {
                t.trim()
            }
            _ => t,
        }
    }

    fn split_byte(&self, b: u8) -> Option<(&str, &str)> {
        let i = self.bytes().position(|c| c == b)?;
        Some((&self[..i], &self[i + 1..]))
    }
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<(usize, &'a str)> {
        self.lines.get(self.pos).copied()
    }

    fn next_line(&mut self) -> PResult<(usize, &'a str)> {
        let r = self.peek().ok_or_else(|| {
            let last = self.lines.last().map_or(0, |(n, _)| *n);
            fail(last, "unexpected end of input")
        })?;
        self.pos += 1;
        Ok(r)
    }

    fn module(&mut self) -> PResult<Module> {
        let (ln, first) = self.next_line()?;
        let name = first
            .strip_prefix("module ")
            .or_fail(ln, "expected `module <name>`")?;
        let mut m = Module::new(name.trimmed());
        m.functions.reserve_exact(self.func_ids.len());
        while let Some((ln, line)) = self.peek() {
            self.pos += 1;
            if line.starts_with("extern ") {
                m.externals.push(self.parse_extern(ln, line)?);
            } else if line.starts_with("global ") {
                m.globals.push(self.parse_global(ln, line)?);
            } else if line.starts_with("func ") {
                m.functions.push(self.parse_function(ln, line)?);
            } else {
                return Err(fail(ln, format!("unexpected line `{line}`")));
            }
        }
        Ok(m)
    }

    fn parse_type(&self, ln: usize, s: &str) -> PResult<Type> {
        Ok(match s {
            "void" => Type::Void,
            "i1" => Type::I1,
            "i8" => Type::I8,
            "i16" => Type::I16,
            "i32" => Type::I32,
            "i64" => Type::I64,
            "f32" => Type::F32,
            "f64" => Type::F64,
            "ptr" => Type::Ptr,
            other => return Err(fail(ln, format!("unknown type `{other}`"))),
        })
    }

    fn parse_extern(&self, ln: usize, line: &str) -> PResult<ExtFunc> {
        // extern name(ty, ty, ...) -> ty
        let rest = &line["extern ".len()..];
        let (open, close) = parens(ln, rest, |s| s.rfind(')'))?;
        let ret_str = rest[close + 1..]
            .trimmed()
            .strip_prefix("->")
            .or_fail(ln, "expected `-> <ty>`")?
            .trimmed();
        let mut params = Vec::new();
        let mut variadic = false;
        for part in rest[open + 1..close]
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
            name: rest[..open].trimmed().to_string(),
            params,
            ret_ty: self.parse_type(ln, ret_str)?,
            variadic,
        })
    }

    fn parse_global(&mut self, ln: usize, header: &str) -> PResult<Global> {
        // global name align N [exported] {
        let mut words = header["global ".len()..].split_whitespace();
        let name = words.next().or_fail(ln, "expected global name")?;
        let mut align = 8u32;
        let mut exported = false;
        while let Some(w) = words.next() {
            match w {
                "align" => {
                    let v = words.next().or_fail(ln, "expected align value")?;
                    align = v.parse().or_fail(ln, "bad align value")?;
                }
                "exported" => exported = true,
                "{" => break,
                other => {
                    return Err(fail(ln, format!("unexpected `{other}` in global header")));
                }
            }
        }
        let mut init = Vec::new();
        loop {
            let (ln, line) = self.next_line()?;
            if line == "}" {
                break;
            }
            let mut w = line.split_whitespace();
            init.push(match w.next() {
                Some("bytes") => {
                    let hex = w.next().unwrap_or("");
                    if hex.len() % 2 != 0 {
                        return Err(fail(ln, "odd-length hex byte string"));
                    }
                    // Two-byte slices of ASCII are whole characters.
                    if !hex.is_ascii() {
                        return Err(fail(ln, "bad hex"));
                    }
                    let bytes = (0..hex.len())
                        .step_by(2)
                        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).or_fail(ln, "bad hex"))
                        .collect::<PResult<_>>()?;
                    GInit::Bytes(bytes)
                }
                Some("int") => {
                    let ty = self.parse_type(ln, w.next().or_fail(ln, "expected type")?)?;
                    let value = w.next().and_then(|s| s.parse().ok());
                    GInit::Int {
                        value: value.or_fail(ln, "bad int value")?,
                        ty,
                    }
                }
                Some("float") => {
                    let ty = self.parse_type(ln, w.next().or_fail(ln, "expected type")?)?;
                    let value = w.next().and_then(|s| s.parse().ok());
                    GInit::Float {
                        value: value.or_fail(ln, "bad float value")?,
                        ty,
                    }
                }
                Some("zero") => {
                    let n = w.next().and_then(|s| s.parse().ok());
                    GInit::Zero(n.or_fail(ln, "bad zero size")?)
                }
                Some("funcptr") => {
                    let fname = w.next().and_then(|s| s.strip_prefix('@'));
                    let fname = fname.or_fail(ln, "expected @func")?;
                    let func = *self
                        .func_ids
                        .get(fname)
                        .ok_or_else(|| fail(ln, format!("unknown func `{fname}`")))?;
                    // optional "+ N"
                    let mut addend = 0i64;
                    if let Some("+") = w.next() {
                        let n = w.next().and_then(|s| s.parse().ok());
                        addend = n.or_fail(ln, "bad addend")?;
                    }
                    GInit::FuncPtr { func, addend }
                }
                other => return Err(fail(ln, format!("unknown global init `{other:?}`"))),
            });
        }
        Ok(Global {
            name: name.to_string(),
            init,
            align,
            exported,
        })
    }

    fn parse_operand(&self, ln: usize, s: &str) -> PResult<Operand> {
        let s = s.trimmed();
        if let Some(n) = s.strip_prefix('%') {
            let i = n
                .parse()
                .map_err(|_| fail(ln, format!("bad local `{s}`")))?;
            return Ok(Operand::Local(LocalId(i)));
        }
        match s {
            "true" => return Ok(Operand::const_bool(true)),
            "false" => return Ok(Operand::const_bool(false)),
            "null" => return Ok(Operand::Const(Const::Null)),
            _ => {}
        }
        // ty:value
        let (ty_s, val_s) = s
            .split_byte(b':')
            .ok_or_else(|| fail(ln, format!("bad operand `{s}`")))?;
        let ty = self.parse_type(ln, ty_s)?;
        if ty.is_float() {
            let value = val_s
                .parse()
                .map_err(|_| fail(ln, format!("bad float `{val_s}`")))?;
            Ok(Operand::Const(Const::Float { value, ty }))
        } else {
            let value = val_s
                .parse()
                .map_err(|_| fail(ln, format!("bad int `{val_s}`")))?;
            if !ty.is_int() {
                return Err(fail(ln, format!("no `{ty}` constants: `{s}`")));
            }
            Ok(Operand::Const(Const::Int { value, ty }))
        }
    }

    fn parse_local(&self, ln: usize, s: &str) -> PResult<LocalId> {
        let n = s
            .trimmed()
            .strip_prefix('%')
            .ok_or_else(|| fail(ln, format!("expected local, got `{s}`")))?;
        let i = n
            .parse()
            .map_err(|_| fail(ln, format!("bad local `{s}`")))?;
        Ok(LocalId(i))
    }

    fn parse_block_id(&self, ln: usize, s: &str) -> PResult<BlockId> {
        let n = s
            .trimmed()
            .strip_prefix("bb")
            .ok_or_else(|| fail(ln, format!("expected block, got `{s}`")))?;
        let i = n
            .parse()
            .map_err(|_| fail(ln, format!("bad block `{s}`")))?;
        Ok(BlockId(i))
    }

    fn parse_callee(&self, ln: usize, s: &str) -> PResult<Callee> {
        let s = s.trimmed();
        if let Some(name) = s.strip_prefix('@') {
            let id = self
                .func_ids
                .get(name)
                .ok_or_else(|| fail(ln, format!("unknown func `{name}`")))?;
            Ok(Callee::Direct(*id))
        } else if let Some(name) = s.strip_prefix("ext:") {
            let id = self
                .ext_ids
                .get(name)
                .ok_or_else(|| fail(ln, format!("unknown extern `{name}`")))?;
            Ok(Callee::Ext(*id))
        } else if s.starts_with('[') && s.ends_with(']') {
            Ok(Callee::Indirect(
                self.parse_operand(ln, &s[1..s.len() - 1])?,
            ))
        } else {
            Err(fail(ln, format!("bad callee `{s}`")))
        }
    }

    fn parse_call_like(&self, ln: usize, s: &str) -> PResult<(Callee, Vec<Operand>)> {
        // "<callee>(<args>)"
        let open = s.find('(').or_fail(ln, "expected `(` in call")?;
        let close = s.rfind(')').or_fail(ln, "expected `)` in call")?;
        let callee = self.parse_callee(ln, &s[..open])?;
        if close < open {
            return Err(fail(ln, "expected `)` after `(` in call"));
        }
        let args = s[open + 1..close].trimmed();
        if args.is_empty() {
            return Ok((callee, Vec::new()));
        }
        let args = args
            .split(',')
            .map(|a| self.parse_operand(ln, a))
            .collect::<PResult<_>>()?;
        Ok((callee, args))
    }

    fn parse_function(&mut self, ln: usize, header: &str) -> PResult<Function> {
        // func name(N) -> ty [exported] [variadic] {
        let rest = &header["func ".len()..];
        let (open, close) = parens(ln, rest, |s| s.find(')'))?;
        let name = rest[..open].trimmed().to_string();
        let param_count = rest[open + 1..close]
            .trimmed()
            .parse()
            .or_fail(ln, "bad param count")?;
        let after = rest[close + 1..]
            .trimmed()
            .strip_prefix("->")
            .or_fail(ln, "expected `->`")?;
        let mut words = after.split_whitespace();
        let ret_ty = self.parse_type(ln, words.next().or_fail(ln, "expected return type")?)?;
        let mut linkage = Linkage::Internal;
        let mut variadic = false;
        for w in words {
            match w {
                "exported" => linkage = Linkage::Exported,
                "variadic" => variadic = true,
                "{" => break,
                other => return Err(fail(ln, format!("unexpected `{other}` in func header"))),
            }
        }

        // Optional prov / annot lines, then locals.
        let mut provenance = None;
        let mut annotations = Vec::new();
        let locals = loop {
            let (ln, line) = self.next_line()?;
            if let Some(rest) = line.strip_prefix("prov ") {
                let mut w = rest.split_whitespace();
                let kind = match w.next() {
                    Some("original") => ProvKind::Original,
                    Some("sep") => ProvKind::Sep,
                    Some("rem") => ProvKind::Rem,
                    Some("fused") => ProvKind::Fused,
                    Some("trampoline") => ProvKind::Trampoline,
                    other => return Err(fail(ln, format!("unknown prov kind `{other:?}`"))),
                };
                provenance = Some(Provenance {
                    kind,
                    origins: w.map(String::from).collect(),
                });
            } else if let Some(rest) = line.strip_prefix("annot ") {
                annotations = rest.split_whitespace().map(String::from).collect();
            } else if let Some(rest) = line.strip_prefix("locals") {
                break rest
                    .split_whitespace()
                    .map(|t| self.parse_type(ln, t))
                    .collect::<PResult<Vec<_>>>()?;
            } else {
                return Err(fail(
                    ln,
                    format!("expected prov/annot/locals, got `{line}`"),
                ));
            }
        };

        // Blocks until "}".
        let mut blocks = Vec::new();
        let mut cur: Option<Block> = None;
        loop {
            let (ln, line) = self.next_line()?;
            if line == "}" {
                blocks.extend(cur.take());
                break;
            }
            if line.starts_with("bb") && line.ends_with(':') {
                blocks.extend(cur.take());
                let mut parts = line[..line.len() - 1].split_whitespace();
                let _bid = parts.next(); // block ids are positional
                let mut pad = None;
                if let Some("pad") = parts.next() {
                    let dst = match parts.next() {
                        Some(l) => Some(self.parse_local(ln, l)?),
                        None => None,
                    };
                    pad = Some(PadInfo { dst });
                }
                let mut b = Block::with_term(Term::Unreachable);
                b.pad = pad;
                cur = Some(b);
                continue;
            }
            let block = cur.as_mut().or_fail(ln, "instruction before first block")?;
            self.parse_block_line(ln, line, block)?;
        }
        Ok(Function {
            provenance: provenance.unwrap_or_else(|| Provenance::original(name.clone())),
            name,
            locals,
            param_count,
            ret_ty,
            blocks,
            linkage,
            variadic,
            annotations,
        })
    }

    /// One instruction or terminator line of `block`.
    fn parse_block_line(&self, ln: usize, line: &str, block: &mut Block) -> PResult<()> {
        if line.starts_with('%') {
            // `%d = invoke ...` or `%d = <inst>`.
            let (lhs, rhs) = line
                .split_byte(b'=')
                .ok_or_else(|| fail(ln, format!("unrecognised line `{line}`")))?;
            let dst = self.parse_local(ln, lhs)?;
            let body = rhs.trimmed();
            if let Some(rest) = body.strip_prefix("invoke ") {
                block.term = self.parse_invoke(ln, Some(dst), rest)?;
            } else {
                block.insts.push(self.parse_def(ln, dst, body)?);
            }
            return Ok(());
        }
        if let Some(term) = self.try_parse_term(ln, line)? {
            block.term = term;
            return Ok(());
        }
        if let Some(rest) = line.strip_prefix("call ") {
            let (callee, args) = self.parse_call_like(ln, rest)?;
            block.insts.push(Inst::Call {
                dst: None,
                callee,
                args,
            });
        } else if let Some(rest) = line.strip_prefix("store ") {
            // store ty value, addr
            let (ty, ops) = first_word(rest);
            let ty = self.parse_type(ln, ty)?;
            let ops = ops.or_fail(ln, "expected operands")?;
            let (v, a) = ops
                .split_byte(b',')
                .or_fail(ln, "store needs value, addr")?;
            block.insts.push(Inst::Store {
                ty,
                value: self.parse_operand(ln, v)?,
                addr: self.parse_operand(ln, a)?,
            });
        } else {
            let (lhs, _) = line
                .split_byte(b'=')
                .ok_or_else(|| fail(ln, format!("unrecognised line `{line}`")))?;
            // Not a `%` local: this fails, naming it.
            self.parse_local(ln, lhs)?;
        }
        Ok(())
    }

    /// A terminator without a destination, or `None` for other lines.
    fn try_parse_term(&self, ln: usize, line: &str) -> PResult<Option<Term>> {
        Ok(Some(match first_word(line) {
            ("jmp", Some(rest)) => Term::Jump(self.parse_block_id(ln, rest)?),
            ("br", Some(rest)) => {
                let mut parts = rest.split(',');
                let (Some(cond), Some(then_bb), Some(else_bb), None) =
                    (parts.next(), parts.next(), parts.next(), parts.next())
                else {
                    return Err(fail(ln, "br needs cond, then, else"));
                };
                Term::Branch {
                    cond: self.parse_operand(ln, cond)?,
                    then_bb: self.parse_block_id(ln, then_bb.trimmed())?,
                    else_bb: self.parse_block_id(ln, else_bb.trimmed())?,
                }
            }
            ("switch", Some(rest)) => self.parse_switch(ln, rest)?,
            ("ret", None) => Term::Ret(None),
            ("ret", Some(rest)) => Term::Ret(Some(self.parse_operand(ln, rest)?)),
            ("unreachable", None) => Term::Unreachable,
            ("invoke", Some(rest)) => self.parse_invoke(ln, None, rest)?,
            _ => return Ok(None),
        }))
    }

    fn parse_switch(&self, ln: usize, rest: &str) -> PResult<Term> {
        // switch ty value [c -> bb, ...] default bb
        let open = rest.find('[').or_fail(ln, "expected `[`")?;
        let close = rest.rfind(']').or_fail(ln, "expected `]`")?;
        if close < open {
            return Err(fail(ln, "expected `]` after `[`"));
        }
        let mut head = rest[..open].split_whitespace();
        let ty = self.parse_type(ln, head.next().or_fail(ln, "expected type")?)?;
        let value = self.parse_operand(ln, head.next().or_fail(ln, "expected value")?)?;
        let mut cases = Vec::new();
        for c in rest[open + 1..close]
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
        {
            let (v, t) = c.split_once("->").or_fail(ln, "case needs `->`")?;
            let v = v.trimmed().parse().or_fail(ln, "bad case value")?;
            cases.push((v, self.parse_block_id(ln, t)?));
        }
        let default = rest[close + 1..]
            .trimmed()
            .strip_prefix("default")
            .or_fail(ln, "expected `default`")?;
        Ok(Term::Switch {
            ty,
            value,
            cases,
            default: self.parse_block_id(ln, default)?,
        })
    }

    /// `callee(args) to bbN unwind bbM`, after `[%d =] invoke `.
    fn parse_invoke(&self, ln: usize, dst: Option<LocalId>, rest: &str) -> PResult<Term> {
        let to_pos = rest.rfind(" to ").or_fail(ln, "invoke needs ` to `")?;
        let (callee, args) = self.parse_call_like(ln, &rest[..to_pos])?;
        let (normal, unwind) = rest[to_pos + 4..]
            .split_once("unwind")
            .or_fail(ln, "invoke needs `unwind`")?;
        Ok(Term::Invoke {
            dst,
            callee,
            args,
            normal: self.parse_block_id(ln, normal)?,
            unwind: self.parse_block_id(ln, unwind)?,
        })
    }

    /// The instruction after `%dst = `.
    fn parse_def(&self, ln: usize, dst: LocalId, body: &str) -> PResult<Inst> {
        let (mnem, rest) = first_word(body);
        let rest = rest.unwrap_or("").trimmed();
        // `ty operands`: the type, then whatever follows its space.
        let typed = |what: &str| -> PResult<(Type, &str)> {
            let (ty, ops) = first_word(rest);
            Ok((self.parse_type(ln, ty)?, ops.or_fail(ln, what)?))
        };
        if let Some(op) = bin_op(mnem) {
            let (ty, ops) = typed("expected operands")?;
            let (l, r) = ops
                .split_byte(b',')
                .or_fail(ln, "binop needs two operands")?;
            return Ok(Inst::Bin {
                op,
                ty,
                dst,
                lhs: self.parse_operand(ln, l)?,
                rhs: self.parse_operand(ln, r)?,
            });
        }
        if let Some(op) = un_op(mnem) {
            let (ty, src) = typed("expected operand")?;
            return Ok(Inst::Un {
                op,
                ty,
                dst,
                src: self.parse_operand(ln, src)?,
            });
        }
        Ok(match mnem {
            "cmp" => {
                let (pred_s, tail) = first_word(rest);
                let pred =
                    cmp_pred(pred_s).ok_or_else(|| fail(ln, format!("bad pred `{pred_s}`")))?;
                let (ty, ops) = first_word(tail.or_fail(ln, "expected type")?);
                let ty = self.parse_type(ln, ty)?;
                let ops = ops.or_fail(ln, "expected operands")?;
                let (l, r) = ops.split_byte(b',').or_fail(ln, "cmp needs two operands")?;
                Inst::Cmp {
                    pred,
                    ty,
                    dst,
                    lhs: self.parse_operand(ln, l)?,
                    rhs: self.parse_operand(ln, r)?,
                }
            }
            "select" => {
                let (ty, ops) = typed("expected operands")?;
                let mut parts = ops.split(',');
                let (Some(cond), Some(on_true), Some(on_false), None) =
                    (parts.next(), parts.next(), parts.next(), parts.next())
                else {
                    return Err(fail(ln, "select needs three operands"));
                };
                Inst::Select {
                    ty,
                    dst,
                    cond: self.parse_operand(ln, cond)?,
                    on_true: self.parse_operand(ln, on_true)?,
                    on_false: self.parse_operand(ln, on_false)?,
                }
            }
            "copy" => {
                let (ty, src) = typed("expected operand")?;
                Inst::Copy {
                    ty,
                    dst,
                    src: self.parse_operand(ln, src)?,
                }
            }
            "load" => {
                let (ty, addr) = rest.split_byte(b',').or_fail(ln, "load needs `ty, addr`")?;
                Inst::Load {
                    ty: self.parse_type(ln, ty.trimmed())?,
                    dst,
                    addr: self.parse_operand(ln, addr)?,
                }
            }
            "alloca" => {
                let mut w = rest.split_whitespace();
                let size = w.next().and_then(|s| s.parse().ok());
                let size = size.or_fail(ln, "bad alloca size")?;
                let mut align = 8;
                if let Some("align") = w.next() {
                    let a = w.next().and_then(|s| s.parse().ok());
                    align = a.or_fail(ln, "bad align")?;
                }
                Inst::Alloca { dst, size, align }
            }
            "ptradd" => {
                let (b, o) = rest
                    .split_byte(b',')
                    .or_fail(ln, "ptradd needs base, offset")?;
                Inst::PtrAdd {
                    dst,
                    base: self.parse_operand(ln, b)?,
                    offset: self.parse_operand(ln, o)?,
                }
            }
            "call" => {
                let (callee, args) = self.parse_call_like(ln, rest)?;
                Inst::Call {
                    dst: Some(dst),
                    callee,
                    args,
                }
            }
            "funcaddr" => {
                let name = rest.strip_prefix('@').or_fail(ln, "expected @func")?;
                let func = *self
                    .func_ids
                    .get(name)
                    .ok_or_else(|| fail(ln, format!("unknown func `{name}`")))?;
                Inst::FuncAddr { dst, func }
            }
            "globaladdr" => {
                let name = rest.strip_prefix('@').or_fail(ln, "expected @global")?;
                let global = *self
                    .global_ids
                    .get(name)
                    .ok_or_else(|| fail(ln, format!("unknown global `{name}`")))?;
                Inst::GlobalAddr { dst, global }
            }
            // casts: "%d = trunc %s : i64 -> i32"
            m => {
                let kind =
                    cast_kind(m).ok_or_else(|| fail(ln, format!("unknown instruction `{m}`")))?;
                // Split at the LAST colon: the source operand may be a
                // typed constant (`i64:0`) containing one itself.
                let (src, tys) = rest.rsplit_once(':').or_fail(ln, "cast needs `:`")?;
                let (from, to) = tys.split_once("->").or_fail(ln, "cast needs `->`")?;
                Inst::Cast {
                    kind,
                    dst,
                    src: self.parse_operand(ln, src)?,
                    from: self.parse_type(ln, from.trimmed())?,
                    to: self.parse_type(ln, to.trimmed())?,
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;

    const SAMPLE: &str = r#"
module sample
extern print_i64(i64) -> void
extern printf(ptr, ...) -> i32
global counter align 8 {
  int i64 0
}
global table align 8 exported {
  funcptr @helper + 12
  zero 8
}

func helper(1) -> i32 {
  prov original helper
  locals i32 i32
bb0:
  %1 = add i32 %0, i32:1
  ret %1
}

func main(0) -> i32 exported {
  prov original main
  annot vulnerable
  locals i32 ptr i32 i1 i64
bb0:
  %1 = globaladdr @counter
  %2 = call @helper(i32:41)
  %3 = cmp sgt i32 %2, i32:0
  br %3, bb1, bb2
bb1:
  %4 = load i64, %1
  call ext:print_i64(%4)
  ret %2
bb2:
  switch i32 %2 [0 -> bb1, 1 -> bb1] default bb3
bb3:
  ret i32:0
}
"#;

    #[test]
    fn parses_sample() {
        let m = parse_module(SAMPLE).expect("sample parses");
        assert_eq!(m.name, "sample");
        assert_eq!(m.functions.len(), 2);
        assert_eq!(m.globals.len(), 2);
        assert_eq!(m.externals.len(), 2);
        assert!(m.externals[1].variadic);
        let (_, main) = m.function_by_name("main").unwrap();
        assert!(main.has_annotation("vulnerable"));
        assert_eq!(main.blocks.len(), 4);
        crate::verify::assert_valid(&m);
    }

    #[test]
    fn roundtrips_through_printer() {
        let m = parse_module(SAMPLE).expect("sample parses");
        let printed = print_module(&m);
        let m2 = parse_module(&printed).expect("printed output parses");
        assert_eq!(m, m2, "print -> parse must be the identity");
    }

    #[test]
    fn reports_line_numbers() {
        let bad = "module m\nfunc f(0) -> void {\n  prov original f\n  locals\nbb0:\n  %0 = frob i32 %1\n  ret\n}\n";
        let err = parse_module(bad).unwrap_err();
        assert_eq!(err.line, 6);
        assert!(err.message.contains("frob"));
    }

    #[test]
    fn cast_of_typed_constant_parses() {
        // Regression: the operand's own `ty:value` colon must not be
        // mistaken for the cast's type separator.
        let src = "module m\nfunc f(0) -> i32 {\n  prov original f\n  locals i32\nbb0:\n  %0 = trunc i64:0 : i64 -> i32\n  ret %0\n}\n";
        let m = parse_module(src).expect("cast with constant source parses");
        let printed = print_module(&m);
        assert_eq!(parse_module(&printed).unwrap(), m);
    }

    #[test]
    fn rejects_unknown_callee() {
        let bad = "module m\nfunc f(0) -> void {\n  prov original f\n  locals\nbb0:\n  call @nope()\n  ret\n}\n";
        let err = parse_module(bad).unwrap_err();
        assert!(err.message.contains("unknown func"));
    }

    #[test]
    fn rejects_duplicate_func_name() {
        let f = "func f(0) -> void {\n  prov original f\n  locals\nbb0:\n  ret\n}\n";
        let err = parse_module(&format!("module m\n{f}{f}")).unwrap_err();
        assert_eq!(err.line, 8);
        assert_eq!(err.message, "duplicate func name `f`");
    }

    #[test]
    fn agrees_with_the_reference_on_the_sample() {
        let m = parse_module(SAMPLE).unwrap();
        assert_eq!(m, reference::parse_module(SAMPLE).unwrap());
        let text = print_module(&m);
        assert_eq!(parse_module(&text).unwrap(), m);
        // Every line cut short and every line dropped: the same error on
        // the same line, or the same module.
        let lines: Vec<&str> = text.lines().collect();
        for i in 0..lines.len() {
            for cut in [None, Some(lines[i].len() / 2)] {
                let mutated: String = lines
                    .iter()
                    .enumerate()
                    .filter_map(|(j, l)| match (j == i, cut) {
                        (false, _) => Some(format!("{l}\n")),
                        (true, None) => None,
                        (true, Some(n)) => Some(format!("{}\n", &l[..n])),
                    })
                    .collect();
                assert_eq!(
                    parse_module(&mutated),
                    reference::parse_module(&mutated),
                    "{mutated}"
                );
            }
        }
    }

    /// Lines the reference parser panics on: each is an error naming
    /// its line.
    #[test]
    fn malformed_lines_are_errors_not_panics() {
        let body = |line: &str| {
            format!("module m\nfunc f(0) -> void {{\n  prov original f\n  locals i64\nbb0:\n  {line}\n  ret\n}}\n")
        };
        let cases = [
            (
                "module m\nfunc f)(0) -> void {\n}\n".to_string(),
                2,
                "expected `)` after `(`",
            ),
            (
                "module m\nextern e)(i64 -> void\n".into(),
                2,
                "expected `)` after `(`",
            ),
            (
                "module m\nglobal g align 8 {\n  bytes a\u{e9}0\n}\n".into(),
                3,
                "bad hex",
            ),
            (
                body("switch i64 %0 ] [ default bb0"),
                6,
                "expected `]` after `[`",
            ),
            (
                format!(
                    "module m\nextern e)(i64) -> void\n{}",
                    &body("call ext:e)(")[9..]
                ),
                7,
                "expected `)` after `(` in call",
            ),
            (
                body("%99999999999 = copy i64 %0"),
                6,
                "bad local `%99999999999 `",
            ),
            (
                body("%0 = copy i64 %4294967296"),
                6,
                "bad local `%4294967296`",
            ),
            (body("jmp bb4294967296"), 6, "bad block `bb4294967296`"),
            (
                body("%0 = copy ptr ptr:0"),
                6,
                "no `ptr` constants: `ptr:0`",
            ),
            (body("ret void:0"), 6, "no `void` constants: `void:0`"),
        ];
        for (src, line, message) in cases {
            let err = parse_module(&src).expect_err(&src);
            assert_eq!((err.line, err.message.as_str()), (line, message), "{src}");
        }
    }
}
