//! The interpreter proper: decoding, dispatch, calls, unwinding.
//!
//! [`Vm::new`] decodes the module once into a flat code array (the
//! crate docs describe the decoded form and where each cost is charged).
//! [`Vm::run`] then alternates between two paths: the block-chained inner
//! loop, which runs straight-line ops and follows jumps, branches and
//! switches without leaving the current frame, and the out-of-line path
//! for calls, allocas, returns, invokes and externals, which works on the
//! module's own `&Inst`/`&Term`.

use crate::cost::CostModel;
use crate::libc::{self, ExtOutcome};
use crate::memory::{addr_to_func, func_addr, Memory};
use crate::value::Value;
use khaos_ir::constant::normalize_int;
use khaos_ir::{
    BinOp, BlockId, Callee, CastKind, CmpPred, FuncId, Inst, LocalId, Module, Operand, Term, Type,
    UnOp,
};
use std::fmt;

/// Why execution stopped abnormally.
#[derive(Clone, Debug, PartialEq)]
pub enum VmError {
    /// A dynamic fault: bad memory access, division by zero, call through a
    /// tagged/invalid pointer, type confusion, etc.
    Trap(String),
    /// The step budget ran out (probably an accidental infinite loop).
    OutOfFuel,
    /// An exception reached the top of the stack.
    UncaughtException(i64),
    /// The module has no runnable entry function.
    NoEntry(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Trap(m) => write!(f, "trap: {m}"),
            VmError::OutOfFuel => write!(f, "out of fuel (step budget exhausted)"),
            VmError::UncaughtException(v) => write!(f, "uncaught exception {v}"),
            VmError::NoEntry(n) => write!(f, "no entry function `{n}`"),
        }
    }
}

impl std::error::Error for VmError {}

/// Execution configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Values returned by the `input_i64` external, in order (cycled).
    pub inputs: Vec<i64>,
    /// Maximum interpreter steps before [`VmError::OutOfFuel`].
    pub max_steps: u64,
    /// Size of the data arena in bytes (globals + heap + stack).
    pub data_size: usize,
    /// Cycle cost model.
    pub cost: CostModel,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            inputs: Vec::new(),
            max_steps: 200_000_000,
            data_size: 1 << 22,
            cost: CostModel::default(),
        }
    }
}

/// The observable result of a run: the differential-testing oracle plus the
/// simulated performance counters.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Everything printed through the output externals.
    pub output: Vec<i64>,
    /// The entry function's return value (or `exit` argument).
    pub exit_code: i64,
    /// Simulated cycles (the paper's "runtime").
    pub cycles: u64,
    /// Interpreter steps executed.
    pub steps: u64,
}

/// A decoded operand: a local slot, or an immediate normalized once at
/// decode time.
#[derive(Clone, Copy, Debug)]
enum Src {
    Local(u32),
    Imm(Value),
}

impl Src {
    fn new(o: &Operand) -> Self {
        match o {
            Operand::Local(l) => Src::Local(l.0),
            Operand::Const(c) => Src::Imm(Value::from_const(c)),
        }
    }
}

/// Reads a decoded operand.
#[inline(always)]
fn read(locals: &[Value], s: Src) -> Value {
    match s {
        Src::Local(i) => locals[i as usize],
        Src::Imm(v) => v,
    }
}

/// Reads an operand of the module (the out-of-line path).
fn read_operand(locals: &[Value], o: &Operand) -> Value {
    match o {
        Operand::Local(l) => locals[l.index()],
        Operand::Const(c) => Value::from_const(c),
    }
}

/// One decoded instruction or terminator. Block targets are resolved to
/// code positions, branch sites to predictor slots.
#[derive(Debug)]
enum Op<'m> {
    Bin {
        op: BinOp,
        ty: Type,
        dst: u32,
        lhs: Src,
        rhs: Src,
    },
    Un {
        op: UnOp,
        ty: Type,
        dst: u32,
        src: Src,
    },
    Cmp {
        pred: CmpPred,
        ty: Type,
        dst: u32,
        lhs: Src,
        rhs: Src,
    },
    /// `select`; its `[cond, on_true, on_false]` are `Code::selects[ops]`.
    Select {
        ty: Type,
        dst: u32,
        ops: u32,
    },
    Copy {
        ty: Type,
        dst: u32,
        src: Src,
    },
    Cast {
        kind: CastKind,
        from: Type,
        to: Type,
        dst: u32,
        src: Src,
    },
    Load {
        ty: Type,
        dst: u32,
        addr: Src,
    },
    Store {
        ty: Type,
        addr: Src,
        value: Src,
    },
    PtrAdd {
        dst: u32,
        base: Src,
        offset: Src,
    },
    /// `funcaddr` / `globaladdr`: the address, resolved at decode time.
    Addr {
        dst: u32,
        addr: Value,
    },
    Jump {
        pc: u32,
    },
    Branch {
        cond: Src,
        site: u32,
        then_bb: u32,
        else_bb: u32,
        then_pc: u32,
        else_pc: u32,
    },
    Switch {
        value: Src,
        site: u32,
        table: u32,
    },
    /// Calls and allocas (and a `globaladdr` of a missing global, which
    /// panics when run, as it always has), run out of line.
    Inst(&'m Inst),
    /// Returns, invokes and `unreachable`, run out of line.
    Term(&'m Term),
}

/// How a step charges its instruction cost (terminators charge their own
/// control-transfer costs instead).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Charge {
    /// A plain ALU op: every second consecutive one is free.
    Pair,
    /// Any other instruction: charged, and it breaks a pair.
    Solo,
    /// A terminator: leaves the pairing state alone.
    Term,
}

/// An op with its instruction cost and how that cost is charged.
#[derive(Debug)]
struct Decoded<'m> {
    op: Op<'m>,
    cost: u64,
    charge: Charge,
}

/// A decoded switch: the module's case list, with every target resolved.
#[derive(Debug)]
struct SwitchTable<'m> {
    cases: &'m [(i64, BlockId)],
    case_pcs: Vec<u32>,
    default: BlockId,
    default_pc: u32,
    /// The cmp/jcc scan charge, `switch_case * (cases / 2)`.
    scan: u64,
}

/// A module decoded for dispatch: every function's blocks laid out back
/// to back (each block's instructions, then its terminator), so a frame's
/// position is one index. Blocks are numbered module-wide as branch
/// sites: function `f`'s block `b` is site `site_base[f] + b`.
#[derive(Debug)]
struct Code<'m> {
    ops: Vec<Decoded<'m>>,
    /// First op of every block, by site.
    block_pc: Vec<u32>,
    /// First site of every function.
    site_base: Vec<u32>,
    switches: Vec<SwitchTable<'m>>,
    selects: Vec<[Src; 3]>,
}

/// The code position of a block target that does not exist: executing
/// it panics, as reaching a missing block always has.
const NO_PC: u32 = u32::MAX;

impl<'m> Code<'m> {
    fn decode(m: &'m Module, cost: &CostModel, mem: &Memory) -> Self {
        let mut block_pc = Vec::new();
        let mut site_base = Vec::with_capacity(m.functions.len());
        let mut pc = 0u32;
        for f in &m.functions {
            site_base.push(block_pc.len() as u32);
            for b in &f.blocks {
                block_pc.push(pc);
                pc += b.insts.len() as u32 + 1;
            }
        }
        let mut code = Code {
            ops: Vec::with_capacity(pc as usize),
            block_pc,
            site_base,
            switches: Vec::new(),
            selects: Vec::new(),
        };
        for (fi, f) in m.functions.iter().enumerate() {
            let base = code.site_base[fi];
            let target = |b: BlockId| {
                if b.index() < f.blocks.len() {
                    code.block_pc[(base + b.0) as usize]
                } else {
                    NO_PC
                }
            };
            for (bi, b) in f.blocks.iter().enumerate() {
                for inst in &b.insts {
                    code.ops.push(Decoded {
                        op: decode_inst(m, inst, mem, &mut code.selects),
                        cost: cost.inst_cost(inst),
                        charge: if CostModel::is_pairable_alu(inst) {
                            Charge::Pair
                        } else {
                            Charge::Solo
                        },
                    });
                }
                let site = base + bi as u32;
                let op = match &b.term {
                    Term::Jump(t) => Op::Jump { pc: target(*t) },
                    Term::Branch {
                        cond,
                        then_bb,
                        else_bb,
                    } => Op::Branch {
                        cond: Src::new(cond),
                        site,
                        then_bb: then_bb.0,
                        else_bb: else_bb.0,
                        then_pc: target(*then_bb),
                        else_pc: target(*else_bb),
                    },
                    Term::Switch {
                        ty: _,
                        value,
                        cases,
                        default,
                    } => {
                        code.switches.push(SwitchTable {
                            cases,
                            case_pcs: cases.iter().map(|(_, t)| target(*t)).collect(),
                            default: *default,
                            default_pc: target(*default),
                            scan: cost.switch_case * (cases.len() as u64 / 2),
                        });
                        Op::Switch {
                            value: Src::new(value),
                            site,
                            table: code.switches.len() as u32 - 1,
                        }
                    }
                    term @ (Term::Ret(_) | Term::Invoke { .. } | Term::Unreachable) => {
                        Op::Term(term)
                    }
                };
                code.ops.push(Decoded {
                    op,
                    cost: 0,
                    charge: Charge::Term,
                });
            }
        }
        code
    }

    /// Code position of `func`'s block `b`.
    ///
    /// # Panics
    /// Panics if the block does not exist.
    fn block_pc(&self, m: &Module, func: FuncId, b: BlockId) -> usize {
        assert!(
            b.index() < m.function(func).blocks.len(),
            "{func} has no block {b}"
        );
        self.block_pc[self.site_base[func.index()] as usize + b.index()] as usize
    }
}

fn decode_inst<'m>(
    m: &Module,
    inst: &'m Inst,
    mem: &Memory,
    selects: &mut Vec<[Src; 3]>,
) -> Op<'m> {
    match inst {
        Inst::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        } => Op::Bin {
            op: *op,
            ty: *ty,
            dst: dst.0,
            lhs: Src::new(lhs),
            rhs: Src::new(rhs),
        },
        Inst::Un { op, ty, dst, src } => Op::Un {
            op: *op,
            ty: *ty,
            dst: dst.0,
            src: Src::new(src),
        },
        Inst::Cmp {
            pred,
            ty,
            dst,
            lhs,
            rhs,
        } => Op::Cmp {
            pred: *pred,
            ty: *ty,
            dst: dst.0,
            lhs: Src::new(lhs),
            rhs: Src::new(rhs),
        },
        Inst::Select {
            ty,
            dst,
            cond,
            on_true,
            on_false,
        } => {
            selects.push([Src::new(cond), Src::new(on_true), Src::new(on_false)]);
            Op::Select {
                ty: *ty,
                dst: dst.0,
                ops: selects.len() as u32 - 1,
            }
        }
        Inst::Copy { ty, dst, src } => Op::Copy {
            ty: *ty,
            dst: dst.0,
            src: Src::new(src),
        },
        Inst::Cast {
            kind,
            dst,
            src,
            from,
            to,
        } => Op::Cast {
            kind: *kind,
            from: *from,
            to: *to,
            dst: dst.0,
            src: Src::new(src),
        },
        Inst::Load { ty, dst, addr } => Op::Load {
            ty: *ty,
            dst: dst.0,
            addr: Src::new(addr),
        },
        Inst::Store { ty, addr, value } => Op::Store {
            ty: *ty,
            addr: Src::new(addr),
            value: Src::new(value),
        },
        Inst::PtrAdd { dst, base, offset } => Op::PtrAdd {
            dst: dst.0,
            base: Src::new(base),
            offset: Src::new(offset),
        },
        Inst::FuncAddr { dst, func } => Op::Addr {
            dst: dst.0,
            addr: Value::Int(func_addr(*func) as i64),
        },
        Inst::GlobalAddr { dst, global } if global.index() < m.globals.len() => Op::Addr {
            dst: dst.0,
            addr: Value::Int(mem.global_addr(*global) as i64),
        },
        Inst::GlobalAddr { .. } | Inst::Call { .. } | Inst::Alloca { .. } => Op::Inst(inst),
    }
}

/// Where the chained loop handed control back to [`Vm::run`].
enum Exit<'m> {
    /// The step budget ran out.
    Fuel,
    /// An instruction to run out of line; the frame is positioned after it.
    Inst(&'m Inst),
    /// A terminator to run out of line; the frame is positioned on it.
    Term(&'m Term),
}

#[derive(Debug)]
struct Pending {
    dst: Option<LocalId>,
    /// `Some((normal, unwind))` when the pending call was an invoke.
    invoke: Option<(BlockId, BlockId)>,
}

#[derive(Debug)]
struct Frame {
    func: FuncId,
    locals: Vec<Value>,
    /// Position in the decoded code.
    pc: usize,
    stack_mark: u64,
    pending: Option<Pending>,
}

#[derive(Debug)]
pub(crate) struct JmpSnapshot {
    pub depth: usize,
    pub func: FuncId,
    pub pc: usize,
    pub dst: Option<LocalId>,
    pub stack_mark: u64,
}

/// The interpreter. Most users want [`run_to_completion`]; `Vm` is exposed
/// for tests that need to poke at intermediate state.
pub struct Vm<'m> {
    m: &'m Module,
    code: Code<'m>,
    pub(crate) mem: Memory,
    frames: Vec<Frame>,
    /// `locals` vectors of popped frames, reused by the next pushes.
    spare_locals: Vec<Vec<Value>>,
    /// Argument buffer reused by every call.
    args: Vec<Value>,
    pub(crate) output: Vec<i64>,
    pub(crate) input_pos: usize,
    pub(crate) config: RunConfig,
    pub(crate) snapshots: Vec<JmpSnapshot>,
    pub(crate) file_offsets: Vec<u64>,
    /// 1-entry branch history per site: the last successor's block
    /// index, `u32::MAX` before the site's first branch.
    predictor: Vec<u32>,
    /// Dual-issue pairing state for consecutive plain ALU ops.
    alu_pair: bool,
    cycles: u64,
    steps: u64,
}

enum Flow {
    Continue,
    Done(i64),
}

fn trap(msg: impl Into<String>) -> VmError {
    VmError::Trap(msg.into())
}

/// Charges a two- or multi-way transfer at `site` with 1-entry branch
/// prediction: a repeat of the site's last successor costs
/// [`CostModel::branch`], anything else [`CostModel::branch_miss`].
#[inline(always)]
fn predict(predictor: &mut [u32], site: u32, actual: u32, cost: &CostModel) -> u64 {
    let last = std::mem::replace(&mut predictor[site as usize], actual);
    if last == actual {
        cost.branch
    } else {
        cost.branch_miss
    }
}

impl<'m> Vm<'m> {
    /// Creates a VM for `m`, decoding it for dispatch.
    pub fn new(m: &'m Module, config: RunConfig) -> Self {
        let mem = Memory::new(m, config.data_size);
        let code = Code::decode(m, &config.cost, &mem);
        let predictor = vec![u32::MAX; code.block_pc.len()];
        Vm {
            m,
            code,
            mem,
            frames: Vec::new(),
            spare_locals: Vec::new(),
            args: Vec::new(),
            output: Vec::new(),
            input_pos: 0,
            config,
            snapshots: Vec::new(),
            file_offsets: Vec::new(),
            predictor,
            alu_pair: false,
            cycles: 0,
            steps: 0,
        }
    }

    /// Module being executed.
    pub fn module(&self) -> &Module {
        self.m
    }

    fn block_pc(&self, func: FuncId, b: BlockId) -> usize {
        self.code.block_pc(self.m, func, b)
    }

    fn top(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("frame exists")
    }

    fn push_frame(
        &mut self,
        func: FuncId,
        args: &[Value],
        strict_arity: bool,
    ) -> Result<(), VmError> {
        let f = self.m.function(func);
        if strict_arity && !f.variadic && args.len() != f.param_count as usize {
            return Err(trap(format!(
                "call to `{}` with {} args, expected {}",
                f.name,
                args.len(),
                f.param_count
            )));
        }
        if self.frames.len() >= 1 << 14 {
            return Err(trap("call stack overflow"));
        }
        let mut locals = self.spare_locals.pop().unwrap_or_default();
        locals.clear();
        locals.extend(f.locals.iter().map(|t| Value::zero(*t)));
        for (i, a) in args.iter().take(f.param_count as usize).enumerate() {
            let ty = f.locals[i];
            // Indirect K&R-style calls may pass the compatible wider class;
            // normalize into the declared parameter type.
            let v = match (a, ty.is_float()) {
                (Value::Int(_), false) | (Value::Float(_), true) => a.normalize(ty),
                _ => {
                    return Err(trap(format!(
                        "argument class mismatch calling `{}`",
                        f.name
                    )))
                }
            };
            locals[i] = v;
        }
        let pc = self.block_pc(func, f.entry());
        self.frames.push(Frame {
            func,
            locals,
            pc,
            stack_mark: self.mem.stack_mark(),
            pending: None,
        });
        Ok(())
    }

    /// Pops the top frame, releasing its allocas and setjmp snapshots and
    /// keeping its `locals` vector for reuse.
    fn pop_frame(&mut self) -> Option<()> {
        let fr = self.frames.pop()?;
        self.mem.stack_release(fr.stack_mark);
        self.snapshots.retain(|s| s.depth <= self.frames.len());
        self.spare_locals.push(fr.locals);
        Some(())
    }

    fn do_return(&mut self, value: Option<Value>) -> Result<Flow, VmError> {
        self.cycles += self.config.cost.ret;
        self.pop_frame().expect("return with no frame");
        let Some(caller) = self.frames.last_mut() else {
            return Ok(Flow::Done(value.map_or(0, Value::as_int)));
        };
        let pending = caller
            .pending
            .take()
            .expect("caller must have pending call");
        if let Some(d) = pending.dst {
            let ty = self.m.function(caller.func).locals[d.index()];
            let v = value.ok_or(VmError::Trap("void return into value context".into()))?;
            caller.locals[d.index()] = v.normalize(ty);
        }
        if let Some((normal, _)) = pending.invoke {
            let func = caller.func;
            self.top().pc = self.block_pc(func, normal);
        }
        Ok(Flow::Continue)
    }

    pub(crate) fn unwind(&mut self, exc: i64) -> Result<(), VmError> {
        loop {
            if self.pop_frame().is_none() {
                return Err(VmError::UncaughtException(exc));
            }
            let Some(caller) = self.frames.last_mut() else {
                return Err(VmError::UncaughtException(exc));
            };
            let pending = caller
                .pending
                .take()
                .expect("caller must have pending call");
            if let Some((_, unwind)) = pending.invoke {
                self.enter_pad(exc, unwind);
                return Ok(());
            }
            // Plain call: keep popping.
        }
    }

    /// Moves the top frame to landing pad `unwind`, binding the exception.
    fn enter_pad(&mut self, exc: i64, unwind: BlockId) {
        let m: &'m Module = self.m;
        let func = self.top().func;
        let pc = self.block_pc(func, unwind);
        let fr = self.top();
        fr.pc = pc;
        if let Some(pad) = &m.function(func).block(unwind).pad {
            if let Some(d) = pad.dst {
                fr.locals[d.index()] = Value::Int(exc);
            }
        }
    }

    pub(crate) fn do_longjmp(&mut self, id: i64, val: i64) -> Result<(), VmError> {
        let idx = id as usize;
        if idx >= self.snapshots.len() {
            return Err(trap(format!("longjmp with invalid jmpbuf id {id}")));
        }
        let (depth, func, pc, dst, stack_mark) = {
            let s = &self.snapshots[idx];
            (s.depth, s.func, s.pc, s.dst, s.stack_mark)
        };
        if depth > self.frames.len() {
            return Err(trap("longjmp target frame no longer on the stack"));
        }
        for fr in self.frames.drain(depth..) {
            self.spare_locals.push(fr.locals);
        }
        let fr = self.frames.last_mut().expect("longjmp with empty stack");
        if fr.func != func {
            return Err(trap("longjmp target frame mismatch"));
        }
        fr.pending = None;
        fr.pc = pc;
        if let Some(d) = dst {
            let v = if val == 0 { 1 } else { val };
            fr.locals[d.index()] = Value::Int(normalize_int(v, Type::I32));
        }
        self.mem.stack_release(stack_mark);
        self.snapshots.retain(|s| s.depth <= self.frames.len());
        Ok(())
    }

    fn resolve_indirect(&self, addr: i64) -> Result<FuncId, VmError> {
        let a = addr as u64;
        match addr_to_func(a, self.m.functions.len()) {
            Some(f) => Ok(f),
            None => Err(VmError::Trap(format!(
                "indirect call to invalid address {a:#x}{}",
                if a & 0xe != 0 {
                    " (tag bits still set — missing decode?)"
                } else {
                    ""
                }
            ))),
        }
    }

    /// A `call` instruction (`invoke: None`) or an `invoke` terminator.
    fn call(
        &mut self,
        dst: Option<LocalId>,
        callee: &'m Callee,
        args: &'m [Operand],
        invoke: Option<(BlockId, BlockId)>,
    ) -> Result<Flow, VmError> {
        let mut vals = std::mem::take(&mut self.args);
        vals.clear();
        let flow = self.call_with(&mut vals, dst, callee, args, invoke);
        self.args = vals;
        flow
    }

    fn call_with(
        &mut self,
        vals: &mut Vec<Value>,
        dst: Option<LocalId>,
        callee: &'m Callee,
        args: &'m [Operand],
        invoke: Option<(BlockId, BlockId)>,
    ) -> Result<Flow, VmError> {
        let fr = self.frames.last().expect("frame exists");
        vals.extend(args.iter().map(|a| read_operand(&fr.locals, a)));
        let callee = match callee {
            Callee::Indirect(p) => {
                let addr = read_operand(&fr.locals, p).as_int();
                self.cycles += self.config.cost.indirect_extra;
                Callee::Direct(self.resolve_indirect(addr)?)
            }
            Callee::Direct(f) => Callee::Direct(*f),
            Callee::Ext(e) => Callee::Ext(*e),
        };
        if let (Callee::Direct(f), None) = (&callee, invoke) {
            // A call whose arity differs from the callee's (K&R-style, or
            // an indirect call to a fused function) uses relaxed arity
            // and pays no argument traffic.
            if args.len() != self.m.function(*f).param_count as usize {
                self.cycles += self.config.cost.call;
                self.top().pending = Some(Pending { dst, invoke: None });
                self.push_frame(*f, vals, false)?;
                return Ok(Flow::Continue);
            }
        }
        self.eval_call(callee, vals, dst, invoke)
    }

    fn eval_call(
        &mut self,
        callee: Callee,
        args: &[Value],
        dst: Option<LocalId>,
        invoke: Option<(BlockId, BlockId)>,
    ) -> Result<Flow, VmError> {
        let cost = &self.config.cost;
        self.cycles += cost.arg_cost(args.len());
        match callee {
            Callee::Direct(f) => {
                self.cycles += cost.call + invoke.map_or(0, |_| cost.invoke_extra);
                self.top().pending = Some(Pending { dst, invoke });
                self.push_frame(f, args, true)?;
                Ok(Flow::Continue)
            }
            Callee::Indirect(_) => unreachable!("resolved before eval_call"),
            Callee::Ext(e) => {
                self.cycles += cost.ext_call;
                let m: &'m Module = self.m;
                let name = m.external(e).name.as_str();
                match libc::dispatch(self, name, args)? {
                    ExtOutcome::Ret(v) => {
                        let fr = self.top();
                        if let Some(d) = dst {
                            let ty = m.function(fr.func).locals[d.index()];
                            let v = v.ok_or(VmError::Trap(format!(
                                "external `{name}` returned void into value context"
                            )))?;
                            fr.locals[d.index()] = v.normalize(ty);
                        }
                        if let Some((normal, _)) = invoke {
                            let func = fr.func;
                            self.top().pc = self.block_pc(func, normal);
                        }
                        Ok(Flow::Continue)
                    }
                    ExtOutcome::Throw(exc) => {
                        if let Some((_, unwind)) = invoke {
                            // The invoke itself catches what its
                            // external throws.
                            self.top().pending = None;
                            self.enter_pad(exc, unwind);
                        } else {
                            self.unwind(exc)?;
                        }
                        Ok(Flow::Continue)
                    }
                    ExtOutcome::Exit(code) => Ok(Flow::Done(code)),
                    ExtOutcome::Setjmp { buf } => {
                        let fr = self.frames.last().expect("frame exists");
                        let snap = JmpSnapshot {
                            depth: self.frames.len(),
                            func: fr.func,
                            pc: fr.pc,
                            dst,
                            stack_mark: self.mem.stack_mark(),
                        };
                        let id = self.snapshots.len() as i64;
                        self.snapshots.push(snap);
                        self.mem
                            .write(buf as u64, Type::I64, Value::Int(id))
                            .map_err(|e| VmError::Trap(format!("setjmp buffer: {}", e.message)))?;
                        let fr = self.top();
                        if let Some(d) = dst {
                            fr.locals[d.index()] = Value::Int(0);
                        }
                        if let Some((normal, _)) = invoke {
                            let func = fr.func;
                            self.top().pc = self.block_pc(func, normal);
                        }
                        Ok(Flow::Continue)
                    }
                    ExtOutcome::Longjmp { id, val } => {
                        self.do_longjmp(id, val)?;
                        Ok(Flow::Continue)
                    }
                }
            }
        }
    }

    /// The out-of-line instructions.
    fn exec_inst(&mut self, inst: &'m Inst) -> Result<Flow, VmError> {
        match inst {
            Inst::Call { dst, callee, args } => self.call(*dst, callee, args, None),
            Inst::Alloca { dst, size, align } => {
                let a = self
                    .mem
                    .stack_alloc(*size, *align)
                    .map_err(|e| VmError::Trap(e.message))?;
                self.top().locals[dst.index()] = Value::Int(a as i64);
                Ok(Flow::Continue)
            }
            Inst::GlobalAddr { dst, global } => {
                let a = self.mem.global_addr(*global);
                self.top().locals[dst.index()] = Value::Int(a as i64);
                Ok(Flow::Continue)
            }
            _ => unreachable!("decoded inline"),
        }
    }

    /// The out-of-line terminators.
    fn exec_term(&mut self, term: &'m Term) -> Result<Flow, VmError> {
        match term {
            Term::Ret(v) => {
                let fr = self.frames.last().expect("frame");
                // Normalize to the function's return type.
                let rt = self.m.function(fr.func).ret_ty;
                let value = v
                    .as_ref()
                    .map(|o| read_operand(&fr.locals, o).normalize(rt));
                self.do_return(value)
            }
            Term::Invoke {
                dst,
                callee,
                args,
                normal,
                unwind,
            } => self.call(*dst, callee, args, Some((*normal, *unwind))),
            Term::Unreachable => Err(trap("executed unreachable")),
            _ => unreachable!("decoded inline"),
        }
    }

    /// The block-chained inner loop: runs the top frame's ops, following
    /// jumps, branches and switches, until the fuel runs out, an op
    /// traps, or an op must run out of line. The step counter, fuel
    /// check and every cost are exactly those of one dispatch per step.
    fn chain(&mut self) -> Result<Exit<'m>, VmError> {
        let Vm {
            code,
            mem,
            frames,
            predictor,
            config,
            alu_pair,
            cycles,
            steps,
            ..
        } = self;
        let fr = frames.last_mut().expect("frame exists");
        let locals = fr.locals.as_mut_slice();
        let ops = code.ops.as_slice();
        let cost = &config.cost;
        let max_steps = config.max_steps;
        let (mut pc, mut cy, mut st, mut pair) = (fr.pc, *cycles, *steps, *alu_pair);
        let exit = loop {
            if st >= max_steps {
                break Ok(Exit::Fuel);
            }
            st += 1;
            let d = &ops[pc];
            pc += 1;
            match d.charge {
                Charge::Pair => {
                    // Dual issue: every second consecutive plain ALU op
                    // is free (hidden by superscalar issue).
                    if pair {
                        pair = false;
                    } else {
                        pair = true;
                        cy += d.cost;
                    }
                }
                Charge::Solo => {
                    pair = false;
                    cy += d.cost;
                }
                Charge::Term => {}
            }
            match d.op {
                Op::Bin {
                    op,
                    ty,
                    dst,
                    lhs,
                    rhs,
                } => match eval_bin(op, ty, read(locals, lhs), read(locals, rhs)) {
                    Ok(v) => locals[dst as usize] = v,
                    Err(e) => break Err(e),
                },
                Op::Un { op, ty, dst, src } => {
                    let s = read(locals, src);
                    let v = match op {
                        UnOp::Neg => Value::Int(s.as_int().wrapping_neg()),
                        UnOp::Not => Value::Int(!s.as_int()),
                        UnOp::FNeg => Value::Float(-s.as_float()),
                    };
                    locals[dst as usize] = v.normalize(ty);
                }
                Op::Cmp {
                    pred,
                    ty,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let r = eval_cmp(pred, ty, read(locals, lhs), read(locals, rhs));
                    locals[dst as usize] = Value::Int(r as i64);
                }
                Op::Select { ty, dst, ops } => {
                    let [cond, on_true, on_false] = code.selects[ops as usize];
                    let c = read(locals, cond).as_int() & 1;
                    let v = read(locals, if c == 1 { on_true } else { on_false });
                    locals[dst as usize] = v.normalize(ty);
                }
                Op::Copy { ty, dst, src } => locals[dst as usize] = read(locals, src).normalize(ty),
                Op::Cast {
                    kind,
                    from,
                    to,
                    dst,
                    src,
                } => {
                    locals[dst as usize] = eval_cast(kind, read(locals, src), from, to);
                }
                Op::Load { ty, dst, addr } => {
                    let a = read(locals, addr).as_int() as u64;
                    match mem.read(a, ty) {
                        Ok(v) => locals[dst as usize] = v,
                        Err(e) => {
                            break Err(VmError::Trap(format!(
                                "load: {} at {:#x}",
                                e.message, e.addr
                            )))
                        }
                    }
                }
                Op::Store { ty, addr, value } => {
                    let a = read(locals, addr).as_int() as u64;
                    let v = read(locals, value).normalize(ty);
                    if let Err(e) = mem.write(a, ty, v) {
                        break Err(VmError::Trap(format!(
                            "store: {} at {:#x}",
                            e.message, e.addr
                        )));
                    }
                }
                Op::PtrAdd { dst, base, offset } => {
                    let b = read(locals, base).as_int();
                    let o = read(locals, offset).as_int();
                    locals[dst as usize] = Value::Int(b.wrapping_add(o));
                }
                Op::Addr { dst, addr } => locals[dst as usize] = addr,
                Op::Jump { pc: target } => {
                    cy += cost.branch;
                    pc = target as usize;
                }
                Op::Branch {
                    cond,
                    site,
                    then_bb,
                    else_bb,
                    then_pc,
                    else_pc,
                } => {
                    let c = read(locals, cond).as_int() & 1;
                    let (target, target_pc) = if c == 1 {
                        (then_bb, then_pc)
                    } else {
                        (else_bb, else_pc)
                    };
                    cy += predict(predictor, site, target, cost);
                    pc = target_pc as usize;
                }
                Op::Switch { value, site, table } => {
                    let v = read(locals, value).as_int();
                    let t = &code.switches[table as usize];
                    // Lowered switches scan a cmp/jcc chain, and erratic
                    // targets (flattening dispatch) mispredict.
                    let (target, target_pc) = match t.cases.iter().position(|(c, _)| *c == v) {
                        Some(i) => (t.cases[i].1, t.case_pcs[i]),
                        None => (t.default, t.default_pc),
                    };
                    cy += t.scan + predict(predictor, site, target.0, cost);
                    pc = target_pc as usize;
                }
                Op::Inst(inst) => break Ok(Exit::Inst(inst)),
                Op::Term(term) => {
                    // Stay on the terminator, as a setjmp snapshot taken
                    // by an invoked external records it.
                    pc -= 1;
                    break Ok(Exit::Term(term));
                }
            }
        };
        fr.pc = pc;
        *cycles = cy;
        *steps = st;
        *alu_pair = pair;
        exit
    }

    /// Runs `entry` with `args` until completion.
    ///
    /// # Errors
    /// Propagates traps, fuel exhaustion and uncaught exceptions.
    pub fn run(&mut self, entry: FuncId, args: &[Value]) -> Result<RunResult, VmError> {
        self.push_frame(entry, args, true)?;
        loop {
            let flow = match self.chain()? {
                Exit::Fuel => return Err(VmError::OutOfFuel),
                Exit::Inst(inst) => self.exec_inst(inst)?,
                Exit::Term(term) => self.exec_term(term)?,
            };
            if let Flow::Done(code) = flow {
                return Ok(RunResult {
                    output: std::mem::take(&mut self.output),
                    exit_code: code,
                    cycles: self.cycles,
                    steps: self.steps,
                });
            }
        }
    }
}

fn eval_bin(op: BinOp, ty: Type, a: Value, b: Value) -> Result<Value, VmError> {
    if op.is_float_op() {
        let (x, y) = (a.as_float(), b.as_float());
        let r = match op {
            BinOp::FAdd => x + y,
            BinOp::FSub => x - y,
            BinOp::FMul => x * y,
            BinOp::FDiv => x / y,
            _ => unreachable!(),
        };
        return Ok(Value::Float(r).normalize(ty));
    }
    let (x, y) = (a.as_int(), b.as_int());
    let bits = ty.bits().unwrap_or(64);
    let shift_mask = (bits.max(8) - 1) as i64; // i1 shifts unused in practice
    let r = match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::SDiv => {
            if y == 0 {
                return Err(trap("integer division by zero"));
            }
            x.wrapping_div(y)
        }
        BinOp::SRem => {
            if y == 0 {
                return Err(trap("integer remainder by zero"));
            }
            x.wrapping_rem(y)
        }
        BinOp::UDiv => {
            if y == 0 {
                return Err(trap("integer division by zero"));
            }
            (to_unsigned(x, bits) / to_unsigned(y, bits)) as i64
        }
        BinOp::URem => {
            if y == 0 {
                return Err(trap("integer remainder by zero"));
            }
            (to_unsigned(x, bits) % to_unsigned(y, bits)) as i64
        }
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl((y & shift_mask) as u32),
        BinOp::LShr => (to_unsigned(x, bits) >> (y & shift_mask) as u32) as i64,
        BinOp::AShr => x >> (y & shift_mask) as u32,
        _ => unreachable!(),
    };
    Ok(Value::Int(r).normalize(ty))
}

fn to_unsigned(x: i64, bits: u32) -> u64 {
    if bits >= 64 {
        x as u64
    } else {
        (x as u64) & ((1u64 << bits) - 1)
    }
}

fn eval_cmp(pred: CmpPred, ty: Type, a: Value, b: Value) -> bool {
    if pred.is_float_pred() {
        let (x, y) = (a.as_float(), b.as_float());
        return match pred {
            CmpPred::FEq => x == y,
            CmpPred::FNe => x != y,
            CmpPred::FLt => x < y,
            CmpPred::FLe => x <= y,
            CmpPred::FGt => x > y,
            CmpPred::FGe => x >= y,
            _ => unreachable!(),
        };
    }
    let (x, y) = (a.as_int(), b.as_int());
    let bits = ty.bits().unwrap_or(64);
    let (ux, uy) = (to_unsigned(x, bits), to_unsigned(y, bits));
    match pred {
        CmpPred::Eq => x == y,
        CmpPred::Ne => x != y,
        CmpPred::Slt => x < y,
        CmpPred::Sle => x <= y,
        CmpPred::Sgt => x > y,
        CmpPred::Sge => x >= y,
        CmpPred::Ult => ux < uy,
        CmpPred::Ule => ux <= uy,
        CmpPred::Ugt => ux > uy,
        CmpPred::Uge => ux >= uy,
        _ => unreachable!(),
    }
}

fn eval_cast(kind: CastKind, s: Value, from: Type, to: Type) -> Value {
    match kind {
        CastKind::Trunc | CastKind::SExt => Value::Int(s.as_int()).normalize(to),
        CastKind::ZExt => {
            let bits = from.bits().unwrap_or(64);
            Value::Int(to_unsigned(s.as_int(), bits) as i64).normalize(to)
        }
        CastKind::FpToSi => {
            let f = s.as_float();
            let v = if f.is_nan() {
                0
            } else {
                f.max(i64::MIN as f64).min(i64::MAX as f64) as i64
            };
            Value::Int(v).normalize(to)
        }
        CastKind::SiToFp => Value::Float(s.as_int() as f64).normalize(to),
        CastKind::FpTrunc | CastKind::FpExt => Value::Float(s.as_float()).normalize(to),
        CastKind::PtrToInt => Value::Int(s.as_int()),
        CastKind::IntToPtr => Value::Int(s.as_int()),
    }
}

/// Runs the module's entry function (`main`, falling back to the single
/// exported function) with default inputs.
///
/// # Errors
/// Fails when no entry exists or execution faults.
pub fn run_to_completion(m: &Module, inputs: &[i64]) -> Result<RunResult, VmError> {
    let config = RunConfig {
        inputs: inputs.to_vec(),
        ..RunConfig::default()
    };
    run_with_config(m, config)
}

/// [`run_to_completion`] with an explicit configuration.
///
/// # Errors
/// Fails when no entry exists or execution faults.
pub fn run_with_config(m: &Module, config: RunConfig) -> Result<RunResult, VmError> {
    let entry = m
        .function_by_name("main")
        .map(|(id, _)| id)
        .ok_or_else(|| VmError::NoEntry("main".into()))?;
    let f = m.function(entry);
    let args: Vec<Value> = f.param_types().iter().map(|t| Value::zero(*t)).collect();
    let mut vm = Vm::new(m, config);
    vm.run(entry, &args)
}

/// Runs an arbitrary function with integer/float arguments (test helper).
///
/// # Errors
/// Fails when the function is missing or execution faults.
pub fn run_function(m: &Module, name: &str, args: &[Value]) -> Result<RunResult, VmError> {
    let (id, _) = m
        .function_by_name(name)
        .ok_or_else(|| VmError::NoEntry(name.into()))?;
    let mut vm = Vm::new(m, RunConfig::default());
    vm.run(id, args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::{ExtFunc, Module, Operand};

    fn int_fn_module(build: impl FnOnce(&mut FunctionBuilder, &mut Module)) -> Module {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        build(&mut fb, &mut m);
        m.push_function(fb.finish());
        khaos_ir::verify::assert_valid(&m);
        m
    }

    #[test]
    fn arithmetic_and_return() {
        let m = int_fn_module(|fb, _| {
            let a = fb.bin(
                BinOp::Mul,
                Type::I64,
                Operand::const_int(Type::I64, 6),
                Operand::const_int(Type::I64, 7),
            );
            fb.ret(Some(Operand::local(a)));
        });
        let r = run_function(&m, "main", &[]).unwrap();
        assert_eq!(r.exit_code, 42);
        assert!(r.cycles > 0);
    }

    #[test]
    fn division_by_zero_traps() {
        let m = int_fn_module(|fb, _| {
            let a = fb.bin(
                BinOp::SDiv,
                Type::I64,
                Operand::const_int(Type::I64, 1),
                Operand::const_int(Type::I64, 0),
            );
            fb.ret(Some(Operand::local(a)));
        });
        let e = run_function(&m, "main", &[]).unwrap_err();
        assert!(matches!(e, VmError::Trap(m) if m.contains("division by zero")));
    }

    #[test]
    fn loop_summation() {
        // sum 1..=10 via a loop
        let m = int_fn_module(|fb, _| {
            let i = fb.new_local(Type::I64);
            let sum = fb.new_local(Type::I64);
            let h = fb.new_block();
            let body = fb.new_block();
            let exit = fb.new_block();
            fb.copy_to(i, Operand::const_int(Type::I64, 1));
            fb.copy_to(sum, Operand::const_int(Type::I64, 0));
            fb.jump(h);
            fb.switch_to(h);
            let c = fb.cmp(
                CmpPred::Sle,
                Type::I64,
                Operand::local(i),
                Operand::const_int(Type::I64, 10),
            );
            fb.branch(Operand::local(c), body, exit);
            fb.switch_to(body);
            let ns = fb.bin(
                BinOp::Add,
                Type::I64,
                Operand::local(sum),
                Operand::local(i),
            );
            fb.copy_to(sum, Operand::local(ns));
            let ni = fb.bin(
                BinOp::Add,
                Type::I64,
                Operand::local(i),
                Operand::const_int(Type::I64, 1),
            );
            fb.copy_to(i, Operand::local(ni));
            fb.jump(h);
            fb.switch_to(exit);
            fb.ret(Some(Operand::local(sum)));
        });
        assert_eq!(run_function(&m, "main", &[]).unwrap().exit_code, 55);
    }

    #[test]
    fn memory_via_alloca() {
        let m = int_fn_module(|fb, _| {
            let p = fb.alloca(8);
            fb.store(
                Type::I64,
                Operand::const_int(Type::I64, 99),
                Operand::local(p),
            );
            let v = fb.load(Type::I64, Operand::local(p));
            fb.ret(Some(Operand::local(v)));
        });
        assert_eq!(run_function(&m, "main", &[]).unwrap().exit_code, 99);
    }

    #[test]
    fn direct_and_indirect_calls() {
        let mut m = Module::new("t");
        let mut callee = FunctionBuilder::new("add3", Type::I64);
        let p = callee.add_param(Type::I64);
        let r = callee.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 3),
        );
        callee.ret(Some(Operand::local(r)));
        let cid = m.push_function(callee.finish());

        let mut main = FunctionBuilder::new("main", Type::I64);
        let d = main
            .call(cid, Type::I64, vec![Operand::const_int(Type::I64, 10)])
            .unwrap();
        let fp = main.funcaddr(cid);
        let ind = main
            .call_indirect(Operand::local(fp), Type::I64, vec![Operand::local(d)])
            .unwrap();
        main.ret(Some(Operand::local(ind)));
        m.push_function(main.finish());
        khaos_ir::verify::assert_valid(&m);
        assert_eq!(run_function(&m, "main", &[]).unwrap().exit_code, 16);
    }

    #[test]
    fn tagged_pointer_call_traps_without_decode() {
        let mut m = Module::new("t");
        let mut callee = FunctionBuilder::new("f", Type::Void);
        callee.ret(None);
        let cid = m.push_function(callee.finish());
        let mut main = FunctionBuilder::new("main", Type::I64);
        let fp = main.funcaddr(cid);
        let fi = main.cast(CastKind::PtrToInt, Operand::local(fp), Type::Ptr, Type::I64);
        let tagged = main.bin(
            BinOp::Or,
            Type::I64,
            Operand::local(fi),
            Operand::const_int(Type::I64, 4),
        );
        let tp = main.cast(
            CastKind::IntToPtr,
            Operand::local(tagged),
            Type::I64,
            Type::Ptr,
        );
        main.call_indirect(Operand::local(tp), Type::Void, vec![]);
        main.ret(Some(Operand::const_int(Type::I64, 0)));
        m.push_function(main.finish());
        let e = run_function(&m, "main", &[]).unwrap_err();
        assert!(matches!(e, VmError::Trap(msg) if msg.contains("tag bits")));
    }

    #[test]
    fn exception_unwinds_to_landing_pad() {
        let mut m = Module::new("t");
        let throw_ext = m.declare_external(ExtFunc {
            name: "throw_exc".into(),
            params: vec![Type::I64],
            ret_ty: Type::Void,
            variadic: false,
        });
        // thrower: plain call to throw_exc -> unwinds through.
        let mut thrower = FunctionBuilder::new("thrower", Type::Void);
        thrower.call_ext(
            throw_ext,
            Type::Void,
            vec![Operand::const_int(Type::I64, 77)],
        );
        thrower.ret(None);
        let tid = m.push_function(thrower.finish());
        // main: invoke thrower; pad returns the exception value.
        let mut main = FunctionBuilder::new("main", Type::I64);
        let exc = main.new_local(Type::I64);
        let normal = main.new_block();
        let pad = main.new_pad_block(Some(exc));
        main.invoke(Callee::Direct(tid), Type::Void, vec![], normal, pad);
        main.switch_to(normal);
        main.ret(Some(Operand::const_int(Type::I64, 0)));
        main.switch_to(pad);
        main.ret(Some(Operand::local(exc)));
        m.push_function(main.finish());
        khaos_ir::verify::assert_valid(&m);
        assert_eq!(run_function(&m, "main", &[]).unwrap().exit_code, 77);
    }

    #[test]
    fn uncaught_exception_reported() {
        let mut m = Module::new("t");
        let throw_ext = m.declare_external(ExtFunc {
            name: "throw_exc".into(),
            params: vec![Type::I64],
            ret_ty: Type::Void,
            variadic: false,
        });
        let mut main = FunctionBuilder::new("main", Type::I64);
        main.call_ext(
            throw_ext,
            Type::Void,
            vec![Operand::const_int(Type::I64, 5)],
        );
        main.ret(Some(Operand::const_int(Type::I64, 0)));
        m.push_function(main.finish());
        let e = run_function(&m, "main", &[]).unwrap_err();
        assert_eq!(e, VmError::UncaughtException(5));
    }

    #[test]
    fn setjmp_longjmp_roundtrip() {
        let mut m = Module::new("t");
        let setjmp = m.declare_external(ExtFunc {
            name: "setjmp".into(),
            params: vec![Type::Ptr],
            ret_ty: Type::I32,
            variadic: false,
        });
        let longjmp = m.declare_external(ExtFunc {
            name: "longjmp".into(),
            params: vec![Type::Ptr, Type::I32],
            ret_ty: Type::Void,
            variadic: false,
        });
        // jumper(buf): longjmp(buf, 9)
        let mut jumper = FunctionBuilder::new("jumper", Type::Void);
        let bp = jumper.add_param(Type::Ptr);
        jumper.call_ext(
            longjmp,
            Type::Void,
            vec![Operand::local(bp), Operand::const_int(Type::I32, 9)],
        );
        jumper.ret(None);
        let jid = m.push_function(jumper.finish());
        // main: buf = alloca; r = setjmp(buf); if r==0 { jumper(buf); return 1 } else return r
        let mut main = FunctionBuilder::new("main", Type::I64);
        let buf = main.alloca(8);
        let r = main
            .call_ext(setjmp, Type::I32, vec![Operand::local(buf)])
            .unwrap();
        let first = main.new_block();
        let again = main.new_block();
        let c = main.cmp(
            CmpPred::Eq,
            Type::I32,
            Operand::local(r),
            Operand::const_int(Type::I32, 0),
        );
        main.branch(Operand::local(c), first, again);
        main.switch_to(first);
        main.call(jid, Type::Void, vec![Operand::local(buf)]);
        main.ret(Some(Operand::const_int(Type::I64, 1)));
        main.switch_to(again);
        let w = main.cast(CastKind::SExt, Operand::local(r), Type::I32, Type::I64);
        main.ret(Some(Operand::local(w)));
        m.push_function(main.finish());
        khaos_ir::verify::assert_valid(&m);
        assert_eq!(run_function(&m, "main", &[]).unwrap().exit_code, 9);
    }

    #[test]
    fn fuel_limit_stops_infinite_loop() {
        let mut m = Module::new("t");
        let mut main = FunctionBuilder::new("main", Type::I64);
        let h = main.new_block();
        main.jump(h);
        main.switch_to(h);
        main.jump(h);
        m.push_function(main.finish());
        let mut vm = Vm::new(
            &m,
            RunConfig {
                max_steps: 1000,
                ..RunConfig::default()
            },
        );
        let (id, _) = m.function_by_name("main").unwrap();
        assert_eq!(vm.run(id, &[]).unwrap_err(), VmError::OutOfFuel);
    }

    #[test]
    fn switch_dispatch() {
        let m = int_fn_module(|fb, _| {
            let a = fb.new_block();
            let b = fb.new_block();
            let d = fb.new_block();
            fb.switch(
                Type::I64,
                Operand::const_int(Type::I64, 1),
                vec![(0, a), (1, b)],
                d,
            );
            fb.switch_to(a);
            fb.ret(Some(Operand::const_int(Type::I64, 100)));
            fb.switch_to(b);
            fb.ret(Some(Operand::const_int(Type::I64, 200)));
            fb.switch_to(d);
            fb.ret(Some(Operand::const_int(Type::I64, 300)));
        });
        assert_eq!(run_function(&m, "main", &[]).unwrap().exit_code, 200);
    }

    #[test]
    fn stack_args_cost_more_than_reg_args() {
        // Two identical callees, one called with 2 args, one with 8.
        let mut m = Module::new("t");
        let mut few = FunctionBuilder::new("few", Type::I64);
        let p0 = few.add_param(Type::I64);
        let _p1 = few.add_param(Type::I64);
        few.ret(Some(Operand::local(p0)));
        let fid = m.push_function(few.finish());
        let mut many = FunctionBuilder::new("many", Type::I64);
        let q0 = many.add_param(Type::I64);
        for _ in 1..8 {
            many.add_param(Type::I64);
        }
        many.ret(Some(Operand::local(q0)));
        let mid = m.push_function(many.finish());

        let mk_main = |m: &Module, use_many: bool| -> Module {
            let mut m2 = m.clone();
            let mut main = FunctionBuilder::new("main", Type::I64);
            let one = Operand::const_int(Type::I64, 1);
            let r = if use_many {
                main.call(mid, Type::I64, vec![one; 8]).unwrap()
            } else {
                main.call(fid, Type::I64, vec![one; 2]).unwrap()
            };
            main.ret(Some(Operand::local(r)));
            m2.push_function(main.finish());
            m2
        };
        let cheap = run_function(&mk_main(&m, false), "main", &[])
            .unwrap()
            .cycles;
        let pricey = run_function(&mk_main(&m, true), "main", &[])
            .unwrap()
            .cycles;
        assert!(pricey > cheap, "8-arg call must cost more than 2-arg call");
    }
}
