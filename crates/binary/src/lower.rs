//! Lowering KIR to machine code.
//!
//! A deliberately simple but realistic code generator: frame-pointer
//! prologues, use-count-driven register assignment with stack spills,
//! SysV-style argument registers (six integer + six float slots, the
//! rest pushed), and relocation records for data-resident function
//! pointers.

use crate::{
    BinBlock, BinFunction, BinProvenance, Binary, ExtSym, MInst, MOperand, Opcode, Reloc, SymRef,
};
use khaos_ir::{
    BinOp, Callee, CastKind, Const, Function, GInit, Inst, Linkage, LocalId, Module, Operand, Term,
    Type, UnOp,
};
use std::collections::HashMap;

/// Return-value / scratch integer registers.
const RAX: u8 = 0;
const SCRATCH1: u8 = 1; // r10
const SCRATCH2: u8 = 2; // r11
/// First of six integer argument registers (rdi..r9).
const ARG_BASE: u8 = 3;
/// Allocatable integer registers (callee-saved flavour).
const ALLOC_BASE: u8 = 9;
const ALLOC_COUNT: u8 = 7;
/// Frame pointer.
const RBP: u8 = 16;

/// Float scratch / return register (xmm0).
const XMM0: u8 = 0;
const FSCRATCH: u8 = 1;
/// First of six float argument registers.
const FARG_BASE: u8 = 2;
const FALLOC_BASE: u8 = 8;
const FALLOC_COUNT: u8 = 6;

/// Integer argument register slots (SysV has 6).
pub const INT_ARG_SLOTS: usize = 6;

/// Where a local lives.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Place {
    Reg(u8),
    FReg(u8),
    /// rbp-relative spill slot.
    Slot(i32),
}

struct FnLowering<'m> {
    m: &'m Module,
    f: &'m Function,
    places: Vec<Place>,
    frame_size: i32,
    /// The function-wide flat operand pool (becomes
    /// [`BinFunction::operand_pool`]); [`FnLowering::emit`] allocates
    /// every instruction's operands here.
    pool: Vec<MOperand>,
    /// Instructions of the block currently being lowered.
    insts: Vec<MInst>,
    /// Call sites of the block currently being lowered.
    calls: Vec<SymRef>,
}

/// Lowers a whole module to a [`Binary`].
pub fn lower_module(m: &Module) -> Binary {
    let _span = khaos_obs::span("lower");
    let functions = m.functions.iter().map(|f| lower_function(m, f)).collect();
    let mut relocations = Vec::new();
    for g in &m.globals {
        for init in &g.init {
            if let GInit::FuncPtr { func, addend } = init {
                relocations.push(Reloc {
                    func: func.index() as u32,
                    addend: *addend,
                });
            }
        }
    }
    let externals = m
        .externals
        .iter()
        .map(|e| ExtSym {
            name: e.name.clone(),
        })
        .collect();
    Binary::new(m.name.clone(), functions, relocations, externals)
}

fn assign_places(f: &Function) -> (Vec<Place>, i32) {
    // Use counts decide who gets a register.
    let mut counts = vec![0usize; f.locals.len()];
    for b in &f.blocks {
        for i in &b.insts {
            i.for_each_use(|o| {
                if let Some(l) = o.as_local() {
                    counts[l.index()] += 1;
                }
            });
            if let Some(d) = i.def() {
                counts[d.index()] += 1;
            }
        }
        b.term.for_each_use(|o| {
            if let Some(l) = o.as_local() {
                counts[l.index()] += 1;
            }
        });
    }
    let mut order: Vec<usize> = (0..f.locals.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(counts[i]), i));

    let mut places = vec![Place::Slot(0); f.locals.len()];
    let mut next_int = 0u8;
    let mut next_float = 0u8;
    let mut frame = 0i32;
    for &i in &order {
        let ty = f.locals[i];
        if ty.is_float() {
            if next_float < FALLOC_COUNT {
                places[i] = Place::FReg(FALLOC_BASE + next_float);
                next_float += 1;
                continue;
            }
        } else if next_int < ALLOC_COUNT {
            places[i] = Place::Reg(ALLOC_BASE + next_int);
            next_int += 1;
            continue;
        }
        frame += 8;
        places[i] = Place::Slot(-frame);
    }
    (places, frame)
}

fn lower_function(m: &Module, f: &Function) -> BinFunction {
    let (places, mut frame_size) = assign_places(f);
    // Alloca areas extend the frame.
    let mut alloca_offsets: HashMap<(usize, usize), i32> = HashMap::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, inst) in b.insts.iter().enumerate() {
            if let Inst::Alloca { size, align, .. } = inst {
                let align = (*align).max(8) as i32;
                frame_size = (frame_size + align - 1) / align * align;
                frame_size += (*size as i32 + 7) / 8 * 8;
                alloca_offsets.insert((bi, ii), -frame_size);
            }
        }
    }

    let mut blocks = Vec::with_capacity(f.blocks.len());
    // One lowering context per function: the operand pool (and the
    // place assignment) spans all blocks, so block loops below only
    // drain `insts`/`calls` into the finished `BinBlock`s.
    let mut lw = FnLowering {
        m,
        f,
        places,
        frame_size,
        pool: Vec::new(),
        insts: Vec::new(),
        calls: Vec::new(),
    };
    for (bi, b) in f.blocks.iter().enumerate() {
        if bi == 0 {
            // Prologue.
            lw.emit(Opcode::Push, &[MOperand::Reg(RBP)]);
            lw.emit(Opcode::Mov, &[MOperand::Reg(RBP), MOperand::Reg(17)]);
            if frame_size > 0 {
                lw.emit(
                    Opcode::Sub,
                    &[MOperand::Reg(17), MOperand::Imm(frame_size as i64)],
                );
            }
            // Spill incoming register arguments that live in memory, move
            // those that live in registers.
            let mut int_seen = 0usize;
            let mut float_seen = 0usize;
            for i in 0..f.param_count as usize {
                let ty = f.locals[i];
                let (src, is_float) = if ty.is_float() {
                    let s = if float_seen < 6 {
                        Some(MOperand::FReg(FARG_BASE + float_seen as u8))
                    } else {
                        None
                    };
                    float_seen += 1;
                    (s, true)
                } else {
                    let s = if int_seen < INT_ARG_SLOTS {
                        Some(MOperand::Reg(ARG_BASE + int_seen as u8))
                    } else {
                        None
                    };
                    int_seen += 1;
                    (s, false)
                };
                let Some(src) = src else { continue }; // stack args already in memory
                match lw.places[i] {
                    Place::Reg(r) => lw.emit(Opcode::Mov, &[MOperand::Reg(r), src]),
                    Place::FReg(r) => lw.emit(Opcode::Movsd, &[MOperand::FReg(r), src]),
                    Place::Slot(off) => {
                        let op = if is_float {
                            Opcode::Movsd
                        } else {
                            Opcode::Store
                        };
                        lw.emit(
                            op,
                            &[
                                MOperand::Mem {
                                    base: RBP,
                                    offset: off,
                                },
                                src,
                            ],
                        );
                    }
                }
            }
        }
        for (ii, inst) in b.insts.iter().enumerate() {
            lw.lower_inst(bi, ii, inst, &alloca_offsets);
        }
        let mut succs: Vec<u32> = Vec::new();
        b.term.for_each_successor(|s| succs.push(s.index() as u32));
        lw.lower_term(&b.term);
        blocks.push(BinBlock {
            insts: std::mem::take(&mut lw.insts),
            succs,
            calls: std::mem::take(&mut lw.calls),
        });
    }

    BinFunction {
        name: Some(f.name.clone()),
        provenance: BinProvenance {
            origins: f.provenance.origins.clone(),
            annotations: f.annotations.clone(),
        },
        exported: f.linkage == Linkage::Exported,
        blocks,
        operand_pool: lw.pool,
    }
}

impl<'m> FnLowering<'m> {
    /// Appends one instruction, allocating its operands in the
    /// function's flat pool.
    fn emit(&mut self, opcode: Opcode, operands: &[MOperand]) {
        self.insts
            .push(MInst::alloc(&mut self.pool, opcode, operands));
    }

    fn place(&self, l: LocalId) -> Place {
        self.places[l.index()]
    }

    fn is_float_local(&self, l: LocalId) -> bool {
        self.f.locals[l.index()].is_float()
    }

    /// Materializes an integer operand into a register; returns it.
    fn read_int(&mut self, o: &Operand, scratch: u8) -> u8 {
        match o {
            Operand::Local(l) => match self.place(*l) {
                Place::Reg(r) => r,
                Place::Slot(off) => {
                    self.emit(
                        Opcode::Load,
                        &[
                            MOperand::Reg(scratch),
                            MOperand::Mem {
                                base: RBP,
                                offset: off,
                            },
                        ],
                    );
                    scratch
                }
                Place::FReg(_) => unreachable!("int read of float local"),
            },
            Operand::Const(c) => {
                let v = match c {
                    Const::Int { value, .. } => *value,
                    Const::Null => 0,
                    Const::Float { .. } => unreachable!("int read of float const"),
                };
                self.emit(Opcode::MovImm, &[MOperand::Reg(scratch), MOperand::Imm(v)]);
                scratch
            }
        }
    }

    /// Materializes a float operand into an XMM register.
    fn read_float(&mut self, o: &Operand, scratch: u8) -> u8 {
        match o {
            Operand::Local(l) => match self.place(*l) {
                Place::FReg(r) => r,
                Place::Slot(off) => {
                    self.emit(
                        Opcode::Movsd,
                        &[
                            MOperand::FReg(scratch),
                            MOperand::Mem {
                                base: RBP,
                                offset: off,
                            },
                        ],
                    );
                    scratch
                }
                Place::Reg(_) => unreachable!("float read of int local"),
            },
            Operand::Const(c) => {
                let bits = match c {
                    Const::Float { value, .. } => value.to_bits() as i64,
                    _ => unreachable!("float read of int const"),
                };
                // movabs + movq in real life; model as MovImm + Movsd.
                self.emit(
                    Opcode::MovImm,
                    &[MOperand::Reg(SCRATCH2), MOperand::Imm(bits)],
                );
                self.emit(
                    Opcode::Movsd,
                    &[MOperand::FReg(scratch), MOperand::Reg(SCRATCH2)],
                );
                scratch
            }
        }
    }

    /// Writes `src_reg` (int) into the destination local.
    fn write_int(&mut self, dst: LocalId, src_reg: u8) {
        match self.place(dst) {
            Place::Reg(r) => {
                if r != src_reg {
                    self.emit(Opcode::Mov, &[MOperand::Reg(r), MOperand::Reg(src_reg)]);
                }
            }
            Place::Slot(off) => self.emit(
                Opcode::Store,
                &[
                    MOperand::Mem {
                        base: RBP,
                        offset: off,
                    },
                    MOperand::Reg(src_reg),
                ],
            ),
            Place::FReg(_) => unreachable!("int write to float local"),
        }
    }

    fn write_float(&mut self, dst: LocalId, src_reg: u8) {
        match self.place(dst) {
            Place::FReg(r) => {
                if r != src_reg {
                    self.emit(Opcode::Movsd, &[MOperand::FReg(r), MOperand::FReg(src_reg)]);
                }
            }
            Place::Slot(off) => self.emit(
                Opcode::Movsd,
                &[
                    MOperand::Mem {
                        base: RBP,
                        offset: off,
                    },
                    MOperand::FReg(src_reg),
                ],
            ),
            Place::Reg(_) => unreachable!("float write to int local"),
        }
    }

    fn lower_call(&mut self, dst: Option<LocalId>, callee: &Callee, args: &[Operand]) {
        // Argument setup.
        let mut int_used = 0usize;
        let mut float_used = 0usize;
        let mut pushed = 0usize;
        for a in args {
            let is_float = match a {
                Operand::Local(l) => self.is_float_local(*l),
                Operand::Const(c) => c.ty().is_float(),
            };
            if is_float {
                if float_used < 6 {
                    let r = self.read_float(a, FSCRATCH);
                    self.emit(
                        Opcode::Movsd,
                        &[
                            MOperand::FReg(FARG_BASE + float_used as u8),
                            MOperand::FReg(r),
                        ],
                    );
                    float_used += 1;
                } else {
                    let r = self.read_float(a, FSCRATCH);
                    self.emit(Opcode::Push, &[MOperand::FReg(r)]);
                    pushed += 1;
                }
            } else if int_used < INT_ARG_SLOTS {
                let r = self.read_int(a, SCRATCH1);
                self.emit(
                    Opcode::Mov,
                    &[MOperand::Reg(ARG_BASE + int_used as u8), MOperand::Reg(r)],
                );
                int_used += 1;
            } else {
                let r = self.read_int(a, SCRATCH1);
                self.emit(Opcode::Push, &[MOperand::Reg(r)]);
                pushed += 1;
            }
        }
        // The call itself.
        let (ret_ty, sym) = match callee {
            Callee::Direct(t) => {
                let sym = SymRef::Func(t.index() as u32);
                self.calls.push(sym);
                self.emit(Opcode::Call, &[MOperand::Sym(sym)]);
                (self.m.function(*t).ret_ty, Some(sym))
            }
            Callee::Ext(e) => {
                let sym = SymRef::Ext(e.index() as u32);
                self.calls.push(sym);
                self.emit(Opcode::Call, &[MOperand::Sym(sym)]);
                (self.m.external(*e).ret_ty, Some(sym))
            }
            Callee::Indirect(p) => {
                let r = self.read_int(p, SCRATCH1);
                self.emit(Opcode::CallInd, &[MOperand::Reg(r)]);
                (
                    dst.map(|d| self.f.locals[d.index()]).unwrap_or(Type::Void),
                    None,
                )
            }
        };
        let _ = sym;
        // Stack cleanup.
        if pushed > 0 {
            self.emit(
                Opcode::Add,
                &[MOperand::Reg(17), MOperand::Imm(pushed as i64 * 8)],
            );
        }
        // Result.
        if let Some(d) = dst {
            if ret_ty.is_float() {
                self.write_float(d, XMM0);
            } else {
                self.write_int(d, RAX);
            }
        }
    }

    fn lower_inst(
        &mut self,
        bi: usize,
        ii: usize,
        inst: &Inst,
        alloca_offsets: &HashMap<(usize, usize), i32>,
    ) {
        match inst {
            Inst::Bin {
                op,
                ty,
                dst,
                lhs,
                rhs,
            } => {
                if ty.is_float() {
                    let rl = self.read_float(lhs, XMM0);
                    if rl != XMM0 {
                        self.emit(Opcode::Movsd, &[MOperand::FReg(XMM0), MOperand::FReg(rl)]);
                    }
                    let rr = self.read_float(rhs, FSCRATCH);
                    let opc = match op {
                        BinOp::FAdd => Opcode::Addsd,
                        BinOp::FSub => Opcode::Subsd,
                        BinOp::FMul => Opcode::Mulsd,
                        BinOp::FDiv => Opcode::Divsd,
                        _ => unreachable!("int op on float type"),
                    };
                    self.emit(opc, &[MOperand::FReg(XMM0), MOperand::FReg(rr)]);
                    self.write_float(*dst, XMM0);
                    return;
                }
                let rl = self.read_int(lhs, SCRATCH1);
                if rl != SCRATCH1 {
                    self.emit(Opcode::Mov, &[MOperand::Reg(SCRATCH1), MOperand::Reg(rl)]);
                }
                // Immediate form when rhs is constant (realistic encoding).
                let rhs_op = match rhs.as_const() {
                    Some(Const::Int { value, .. }) => MOperand::Imm(value),
                    _ => MOperand::Reg(self.read_int(rhs, SCRATCH2)),
                };
                let opc = match op {
                    BinOp::Add => Opcode::Add,
                    BinOp::Sub => Opcode::Sub,
                    BinOp::Mul => Opcode::Imul,
                    BinOp::SDiv | BinOp::SRem => Opcode::Idiv,
                    BinOp::UDiv | BinOp::URem => Opcode::Div,
                    BinOp::And => Opcode::And,
                    BinOp::Or => Opcode::Or,
                    BinOp::Xor => Opcode::Xor,
                    BinOp::Shl => Opcode::Shl,
                    BinOp::LShr => Opcode::Shr,
                    BinOp::AShr => Opcode::Sar,
                    _ => unreachable!("float op on int type"),
                };
                self.emit(opc, &[MOperand::Reg(SCRATCH1), rhs_op]);
                self.write_int(*dst, SCRATCH1);
            }
            Inst::Un { op, ty, dst, src } => {
                if ty.is_float() {
                    let r = self.read_float(src, XMM0);
                    self.emit(Opcode::Xorps, &[MOperand::FReg(r), MOperand::FReg(r)]);
                    self.write_float(*dst, r);
                    return;
                }
                let r = self.read_int(src, SCRATCH1);
                if r != SCRATCH1 {
                    self.emit(Opcode::Mov, &[MOperand::Reg(SCRATCH1), MOperand::Reg(r)]);
                }
                let opc = match op {
                    UnOp::Neg => Opcode::Neg,
                    UnOp::Not => Opcode::Not,
                    UnOp::FNeg => unreachable!("fneg on int"),
                };
                self.emit(opc, &[MOperand::Reg(SCRATCH1)]);
                self.write_int(*dst, SCRATCH1);
            }
            Inst::Cmp {
                ty,
                dst,
                lhs,
                rhs,
                pred,
            } => {
                if ty.is_float() {
                    let rl = self.read_float(lhs, XMM0);
                    let rr = self.read_float(rhs, FSCRATCH);
                    self.emit(Opcode::Ucomisd, &[MOperand::FReg(rl), MOperand::FReg(rr)]);
                } else {
                    let rl = self.read_int(lhs, SCRATCH1);
                    let rhs_op = match rhs.as_const() {
                        Some(Const::Int { value, .. }) => MOperand::Imm(value),
                        _ => MOperand::Reg(self.read_int(rhs, SCRATCH2)),
                    };
                    self.emit(Opcode::Cmp, &[MOperand::Reg(rl), rhs_op]);
                }
                let _ = pred;
                self.emit(Opcode::Setcc, &[MOperand::Reg(SCRATCH1)]);
                self.write_int(*dst, SCRATCH1);
            }
            Inst::Select {
                ty,
                dst,
                cond,
                on_true,
                on_false,
            } => {
                if ty.is_float() {
                    // Lower via two moves + cmov-equivalent on the bits.
                    let rf = self.read_float(on_false, XMM0);
                    self.write_float(*dst, rf);
                    let rc = self.read_int(cond, SCRATCH1);
                    self.emit(Opcode::Test, &[MOperand::Reg(rc), MOperand::Reg(rc)]);
                    let rt = self.read_float(on_true, FSCRATCH);
                    self.emit(Opcode::Cmov, &[MOperand::FReg(XMM0), MOperand::FReg(rt)]);
                    self.write_float(*dst, XMM0);
                    return;
                }
                let rf = self.read_int(on_false, SCRATCH1);
                if rf != SCRATCH1 {
                    self.emit(Opcode::Mov, &[MOperand::Reg(SCRATCH1), MOperand::Reg(rf)]);
                }
                let rc = self.read_int(cond, SCRATCH2);
                self.emit(Opcode::Test, &[MOperand::Reg(rc), MOperand::Reg(rc)]);
                let rt = self.read_int(on_true, SCRATCH2);
                self.emit(Opcode::Cmov, &[MOperand::Reg(SCRATCH1), MOperand::Reg(rt)]);
                self.write_int(*dst, SCRATCH1);
            }
            Inst::Copy { ty, dst, src } => {
                if ty.is_float() {
                    let r = self.read_float(src, XMM0);
                    self.write_float(*dst, r);
                } else {
                    match src.as_const() {
                        Some(Const::Int { value, .. }) => {
                            self.emit(
                                Opcode::MovImm,
                                &[MOperand::Reg(SCRATCH1), MOperand::Imm(value)],
                            );
                            self.write_int(*dst, SCRATCH1);
                        }
                        _ => {
                            let r = self.read_int(src, SCRATCH1);
                            self.write_int(*dst, r);
                        }
                    }
                }
            }
            Inst::Cast {
                kind,
                dst,
                src,
                from,
                to,
            } => {
                let opc = match kind {
                    CastKind::Trunc | CastKind::PtrToInt | CastKind::IntToPtr => Opcode::Mov,
                    CastKind::ZExt => Opcode::Movzx,
                    CastKind::SExt => Opcode::Movsx,
                    CastKind::FpToSi => Opcode::Cvttsd2si,
                    CastKind::SiToFp => Opcode::Cvtsi2sd,
                    CastKind::FpTrunc => Opcode::Cvtsd2ss,
                    CastKind::FpExt => Opcode::Cvtss2sd,
                };
                match (from.is_float(), to.is_float()) {
                    (false, false) => {
                        let r = self.read_int(src, SCRATCH1);
                        self.emit(opc, &[MOperand::Reg(SCRATCH1), MOperand::Reg(r)]);
                        self.write_int(*dst, SCRATCH1);
                    }
                    (true, false) => {
                        let r = self.read_float(src, XMM0);
                        self.emit(opc, &[MOperand::Reg(SCRATCH1), MOperand::FReg(r)]);
                        self.write_int(*dst, SCRATCH1);
                    }
                    (false, true) => {
                        let r = self.read_int(src, SCRATCH1);
                        self.emit(opc, &[MOperand::FReg(XMM0), MOperand::Reg(r)]);
                        self.write_float(*dst, XMM0);
                    }
                    (true, true) => {
                        let r = self.read_float(src, XMM0);
                        self.emit(opc, &[MOperand::FReg(XMM0), MOperand::FReg(r)]);
                        self.write_float(*dst, XMM0);
                    }
                }
            }
            Inst::Load { ty, dst, addr } => {
                let ra = self.read_int(addr, SCRATCH1);
                if ty.is_float() {
                    self.emit(
                        Opcode::Movsd,
                        &[
                            MOperand::FReg(XMM0),
                            MOperand::Mem {
                                base: ra,
                                offset: 0,
                            },
                        ],
                    );
                    self.write_float(*dst, XMM0);
                } else {
                    self.emit(
                        Opcode::Load,
                        &[
                            MOperand::Reg(SCRATCH2),
                            MOperand::Mem {
                                base: ra,
                                offset: 0,
                            },
                        ],
                    );
                    self.write_int(*dst, SCRATCH2);
                }
            }
            Inst::Store { ty, addr, value } => {
                let ra = self.read_int(addr, SCRATCH1);
                if ty.is_float() {
                    let rv = self.read_float(value, XMM0);
                    self.emit(
                        Opcode::Movsd,
                        &[
                            MOperand::Mem {
                                base: ra,
                                offset: 0,
                            },
                            MOperand::FReg(rv),
                        ],
                    );
                } else {
                    let rv = self.read_int(value, SCRATCH2);
                    self.emit(
                        Opcode::Store,
                        &[
                            MOperand::Mem {
                                base: ra,
                                offset: 0,
                            },
                            MOperand::Reg(rv),
                        ],
                    );
                }
            }
            Inst::Alloca { dst, .. } => {
                let off = alloca_offsets[&(bi, ii)];
                self.emit(
                    Opcode::Lea,
                    &[
                        MOperand::Reg(SCRATCH1),
                        MOperand::Mem {
                            base: RBP,
                            offset: off,
                        },
                    ],
                );
                self.write_int(*dst, SCRATCH1);
            }
            Inst::PtrAdd { dst, base, offset } => match offset.as_const() {
                Some(Const::Int { value, .. }) => {
                    let rb = self.read_int(base, SCRATCH1);
                    self.emit(
                        Opcode::Lea,
                        &[
                            MOperand::Reg(SCRATCH1),
                            MOperand::Mem {
                                base: rb,
                                offset: value as i32,
                            },
                        ],
                    );
                    self.write_int(*dst, SCRATCH1);
                }
                _ => {
                    let rb = self.read_int(base, SCRATCH1);
                    if rb != SCRATCH1 {
                        self.emit(Opcode::Mov, &[MOperand::Reg(SCRATCH1), MOperand::Reg(rb)]);
                    }
                    let ro = self.read_int(offset, SCRATCH2);
                    self.emit(Opcode::Add, &[MOperand::Reg(SCRATCH1), MOperand::Reg(ro)]);
                    self.write_int(*dst, SCRATCH1);
                }
            },
            Inst::Call { dst, callee, args } => self.lower_call(*dst, callee, args),
            Inst::FuncAddr { dst, func } => {
                self.emit(
                    Opcode::Lea,
                    &[
                        MOperand::Reg(SCRATCH1),
                        MOperand::Sym(SymRef::Func(func.index() as u32)),
                    ],
                );
                self.write_int(*dst, SCRATCH1);
            }
            Inst::GlobalAddr { dst, global } => {
                self.emit(
                    Opcode::Lea,
                    &[
                        MOperand::Reg(SCRATCH1),
                        MOperand::Sym(SymRef::Global(global.index() as u32)),
                    ],
                );
                self.write_int(*dst, SCRATCH1);
            }
        }
    }

    fn lower_term(&mut self, term: &Term) {
        match term {
            Term::Jump(t) => {
                self.emit(Opcode::Jmp, &[MOperand::Label(t.index() as u32)]);
            }
            Term::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let rc = self.read_int(cond, SCRATCH1);
                self.emit(Opcode::Test, &[MOperand::Reg(rc), MOperand::Reg(rc)]);
                self.emit(Opcode::Jcc, &[MOperand::Label(then_bb.index() as u32)]);
                self.emit(Opcode::Jmp, &[MOperand::Label(else_bb.index() as u32)]);
            }
            Term::Switch {
                value,
                cases,
                default,
                ..
            } => {
                let rv = self.read_int(value, SCRATCH1);
                for (cv, t) in cases {
                    self.emit(Opcode::Cmp, &[MOperand::Reg(rv), MOperand::Imm(*cv)]);
                    self.emit(Opcode::Jcc, &[MOperand::Label(t.index() as u32)]);
                }
                self.emit(Opcode::Jmp, &[MOperand::Label(default.index() as u32)]);
            }
            Term::Ret(v) => {
                if let Some(v) = v {
                    if self.f.ret_ty.is_float() {
                        let r = self.read_float(v, XMM0);
                        if r != XMM0 {
                            self.emit(Opcode::Movsd, &[MOperand::FReg(XMM0), MOperand::FReg(r)]);
                        }
                    } else {
                        let r = self.read_int(v, RAX);
                        if r != RAX {
                            self.emit(Opcode::Mov, &[MOperand::Reg(RAX), MOperand::Reg(r)]);
                        }
                    }
                }
                // Epilogue.
                if self.frame_size > 0 {
                    self.emit(
                        Opcode::Add,
                        &[MOperand::Reg(17), MOperand::Imm(self.frame_size as i64)],
                    );
                }
                self.emit(Opcode::Pop, &[MOperand::Reg(RBP)]);
                self.emit(Opcode::Ret, &[]);
            }
            Term::Invoke {
                dst,
                callee,
                args,
                normal,
                ..
            } => {
                self.lower_call(*dst, callee, args);
                self.emit(Opcode::Jmp, &[MOperand::Label(normal.index() as u32)]);
            }
            Term::Unreachable => {
                self.emit(Opcode::Nop, &[]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode_histogram;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::CmpPred;

    fn sample_module() -> Module {
        let mut m = Module::new("t");
        let p = m.declare_external(khaos_ir::ExtFunc {
            name: "print_i64".into(),
            params: vec![Type::I64],
            ret_ty: Type::Void,
            variadic: false,
        });
        let mut callee = FunctionBuilder::new("helper", Type::I64);
        let mut args = Vec::new();
        for _ in 0..8 {
            args.push(callee.add_param(Type::I64));
        }
        let s = callee.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(args[0]),
            Operand::local(args[7]),
        );
        callee.ret(Some(Operand::local(s)));
        let cid = m.push_function(callee.finish());

        let mut main = FunctionBuilder::new("main", Type::I64);
        let one = Operand::const_int(Type::I64, 1);
        let r = main.call(cid, Type::I64, vec![one; 8]).unwrap();
        main.call_ext(p, Type::Void, vec![Operand::local(r)]);
        let fp = main.funcaddr(cid);
        let fpi = main.cast(CastKind::PtrToInt, Operand::local(fp), Type::Ptr, Type::I64);
        let t = main.new_block();
        let e = main.new_block();
        let c = main.cmp(
            CmpPred::Sgt,
            Type::I64,
            Operand::local(fpi),
            Operand::const_int(Type::I64, 0),
        );
        main.branch(Operand::local(c), t, e);
        main.switch_to(t);
        main.ret(Some(Operand::local(r)));
        main.switch_to(e);
        main.ret(Some(Operand::const_int(Type::I64, 0)));
        m.push_function(main.finish());
        khaos_ir::verify::assert_valid(&m);
        m
    }

    #[test]
    fn lowers_whole_module() {
        let m = sample_module();
        let b = lower_module(&m);
        assert_eq!(b.functions.len(), 2);
        assert_eq!(b.functions[1].name.as_deref(), Some("main"));
        assert_eq!(b.functions[1].blocks.len(), 3);
        // Entry block of main calls helper and print.
        assert_eq!(b.functions[1].blocks[0].calls.len(), 2);
        assert!(b.inst_count() > 20);
    }

    #[test]
    fn eight_args_produce_stack_pushes() {
        let m = sample_module();
        let b = lower_module(&m);
        let h = opcode_histogram(&b);
        // 2 args beyond the 6 register slots + prologue pushes.
        assert!(
            h[&Opcode::Push] >= 2 + 2,
            "stack-passed arguments visible: {h:?}"
        );
    }

    #[test]
    fn cfg_edges_preserved() {
        let m = sample_module();
        let b = lower_module(&m);
        let main = &b.functions[1];
        assert_eq!(main.blocks[0].succs, vec![1, 2]);
        assert_eq!(main.edge_count(), 2);
        assert_eq!(main.call_count(), 2);
    }

    #[test]
    fn params_beyond_regs_spill_from_stack() {
        // 8-param function: prologue moves 6 register args; params 7-8
        // are already in memory (no move emitted for them).
        let m = sample_module();
        let b = lower_module(&m);
        let helper = &b.functions[0];
        let prologue_movs = helper.blocks[0]
            .insts
            .iter()
            .filter(|i| {
                matches!(i.opcode, Opcode::Mov | Opcode::Store)
                    && matches!(i.operands(&helper.operand_pool).get(1), Some(MOperand::Reg(r)) if (ARG_BASE..ARG_BASE + 6).contains(r))
            })
            .count();
        assert_eq!(prologue_movs, 6);
    }

    #[test]
    fn relocations_carry_addends() {
        let mut m = Module::new("t");
        let mut f = FunctionBuilder::new("f", Type::Void);
        f.ret(None);
        let fid = m.push_function(f.finish());
        m.push_global(khaos_ir::Global {
            name: "tbl".into(),
            init: vec![GInit::FuncPtr {
                func: fid,
                addend: 12,
            }],
            align: 8,
            exported: false,
        });
        let b = lower_module(&m);
        assert_eq!(b.relocations.len(), 1);
        assert_eq!(b.relocations[0].addend, 12, "fusion tag rides the addend");
    }

    #[test]
    fn float_code_uses_xmm_opcodes() {
        let mut m = Module::new("t");
        let mut f = FunctionBuilder::new("fsum", Type::F64);
        let a = f.add_param(Type::F64);
        let b_ = f.add_param(Type::F64);
        let s = f.bin(
            BinOp::FAdd,
            Type::F64,
            Operand::local(a),
            Operand::local(b_),
        );
        let d = f.bin(
            BinOp::FDiv,
            Type::F64,
            Operand::local(s),
            Operand::const_float(Type::F64, 2.0),
        );
        f.ret(Some(Operand::local(d)));
        m.push_function(f.finish());
        let b = lower_module(&m);
        let h = opcode_histogram(&b);
        assert!(h.contains_key(&Opcode::Addsd));
        assert!(h.contains_key(&Opcode::Divsd));
        assert!(h.contains_key(&Opcode::Movsd));
    }
}
