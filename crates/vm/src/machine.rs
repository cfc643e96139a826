//! The interpreter proper: decoding, dispatch, calls, unwinding.
//!
//! [`Vm::new`] decodes the module once into a flat code array of typed
//! ops over 8-byte frame slots, with a segment table beside it (the crate
//! docs describe the decoded form and where each cost is charged).
//! [`Vm::run`] then alternates between two paths: the segment-chained
//! inner loop, which runs straight-line ops and follows jumps, branches
//! and switches without leaving the current frame, and the out-of-line
//! path for calls, allocas, returns, invokes and externals, which works on
//! the module's own `&Inst`/`&Term` and converts slots to [`Value`]s.

use crate::cost::CostModel;
use crate::libc::{self, ExtOutcome};
use crate::memory::{addr_to_func, func_addr, MemError, Memory};
use crate::value::Value;
use khaos_ir::constant::normalize_int;
use khaos_ir::{
    BinOp, BlockId, Callee, CastKind, CmpPred, FuncId, Inst, LocalId, Module, Operand, Term, Type,
    UnOp,
};
use std::collections::HashMap;
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

/// The slots of a two-operand op: `dst = a op b`.
#[derive(Clone, Copy, Debug)]
struct Abc {
    dst: u32,
    a: u32,
    b: u32,
}

/// One decoded instruction or terminator. Every operand is a frame slot:
/// a local, or one of the function's constant slots. Block targets are
/// code positions. The first group are the 64-bit (`i64`/`ptr`, and `f64`
/// for copies) forms of the commonest ops, each a single ALU op or 8-byte
/// memory access; every other instruction takes a generic arm that
/// normalizes its result by the static type it carries.
#[derive(Debug)]
enum Op<'m> {
    Add(Abc),
    Sub(Abc),
    Mul(Abc),
    And(Abc),
    Or(Abc),
    Xor(Abc),
    Shl(Abc),
    AShr(Abc),
    LShr(Abc),
    Slt(Abc),
    Copy {
        dst: u32,
        src: u32,
    },
    Load {
        dst: u32,
        addr: u32,
    },
    Store {
        addr: u32,
        value: u32,
    },
    Bin {
        op: BinOp,
        ty: Type,
        o: Abc,
    },
    Un {
        op: UnOp,
        ty: Type,
        dst: u32,
        src: u32,
    },
    Cmp {
        pred: CmpPred,
        ty: Type,
        o: Abc,
    },
    /// `select`; its `[cond, on_true, on_false]` are `Code::selects[ops]`.
    Select {
        ty: Type,
        dst: u32,
        ops: u32,
    },
    /// A copy of a narrow or `f32` value, normalized to `ty`.
    Convert {
        ty: Type,
        dst: u32,
        src: u32,
    },
    Cast {
        kind: CastKind,
        from: Type,
        to: Type,
        dst: u32,
        src: u32,
    },
    LoadTyped {
        ty: Type,
        dst: u32,
        addr: u32,
    },
    StoreTyped {
        ty: Type,
        addr: u32,
        value: u32,
    },
    Jump {
        pc: u32,
    },
    /// The predictor slot of a branch or switch is its own code position.
    Branch {
        cond: u32,
        then_pc: u32,
        else_pc: u32,
    },
    Switch {
        value: u32,
        table: u32,
    },
    /// Calls and allocas (and a `globaladdr` of a missing global, which
    /// panics when run, as it always has), run out of line.
    Inst(&'m Inst),
    /// Returns, invokes and `unreachable`, run out of line.
    Term(&'m Term),
    /// The target of a jump to a block that does not exist: executing it
    /// panics, as reaching a missing block always has.
    Missing,
}

// Every op is 16 bytes: wide tables live beside the code (`selects`,
// `switches`), and a branch's predictor slot is its own position.
const _: () = assert!(std::mem::size_of::<Op<'static>>() == 16);

impl Op<'_> {
    /// True for the ops that end a segment: terminators and out-of-line
    /// ops.
    fn ends_segment(&self) -> bool {
        matches!(
            self,
            Op::Jump { .. }
                | Op::Branch { .. }
                | Op::Switch { .. }
                | Op::Inst(_)
                | Op::Term(_)
                | Op::Missing
        )
    }
}

/// How an op charges its static cost.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Charge {
    /// A plain ALU op: every second consecutive one is free.
    Pair,
    /// Any other instruction: charged, and it breaks a pair.
    Solo,
    /// A terminator: charged, and it leaves the pairing state alone.
    Term,
}

/// The accounting of the rest of a segment, from one op to the segment's
/// last op inclusive. A segment runs from any op to the next terminator
/// or out-of-line op; entering it at this op in pairing state `s` costs
/// `cycles[s]` static cycles and leaves the pairing state `pair_out[s]`.
#[derive(Clone, Copy, Debug, Default)]
struct Seg {
    steps: u32,
    pair_out: [bool; 2],
    cycles: [u64; 2],
}

impl Seg {
    /// The accounting of an op charging `cost` as `charge`, followed by
    /// `tail` when the op does not end its segment.
    fn new(cost: u64, charge: Charge, tail: Option<&Seg>) -> Seg {
        let mut seg = Seg {
            steps: 1 + tail.map_or(0, |t| t.steps),
            ..Seg::default()
        };
        for pair in [false, true] {
            let (cycles, next) = match charge {
                // Dual issue: every second consecutive plain ALU op is
                // free (hidden by superscalar issue).
                Charge::Pair if pair => (0, false),
                Charge::Pair => (cost, true),
                Charge::Solo => (cost, false),
                Charge::Term => (cost, pair),
            };
            let (rest, out) = tail.map_or((0, next), |t| {
                (t.cycles[next as usize], t.pair_out[next as usize])
            });
            seg.cycles[pair as usize] = cycles + rest;
            seg.pair_out[pair as usize] = out;
        }
        seg
    }
}

/// A decoded switch: every case target resolved to a code position.
#[derive(Debug)]
struct SwitchTable {
    cases: Vec<(i64, u32)>,
    default_pc: u32,
}

/// A module decoded for dispatch: every function's blocks laid out back
/// to back (each block's instructions, then its terminator), so a frame's
/// position is one index, with one [`Seg`] per op.
#[derive(Debug)]
struct Code<'m> {
    ops: Vec<Op<'m>>,
    segs: Vec<Seg>,
    /// First op of every block: function `f`'s block `b` is at
    /// `block_pc[func_base[f] + b]`.
    block_pc: Vec<u32>,
    func_base: Vec<u32>,
    /// Each function's constant slots, in slot order after its locals.
    consts: Vec<Vec<u64>>,
    switches: Vec<SwitchTable>,
    selects: Vec<[u32; 3]>,
}

/// Assigns one function's operands to slots: a local is its own slot,
/// each distinct constant gets one slot after the locals.
#[derive(Default)]
struct Slots {
    locals: u32,
    consts: Vec<u64>,
    /// Constant bits to slot; kept across functions for its capacity.
    index: HashMap<u64, u32>,
}

impl Slots {
    /// Starts the slots of a function with `locals` locals.
    fn start(&mut self, locals: usize) {
        self.locals = locals as u32;
        self.index.clear();
    }

    /// The slot holding a constant with slot bits `bits`.
    fn constant(&mut self, bits: u64) -> u32 {
        let next = self.locals + self.consts.len() as u32;
        *self.index.entry(bits).or_insert_with(|| {
            self.consts.push(bits);
            next
        })
    }

    fn of(&mut self, o: &Operand) -> u32 {
        match o {
            Operand::Local(l) => l.0,
            Operand::Const(c) => self.constant(Value::from_const(c).to_bits()),
        }
    }
}

/// True for the types whose values are a full 64-bit integer slot.
fn is_wide_int(ty: Type) -> bool {
    matches!(ty, Type::I64 | Type::Ptr)
}

impl<'m> Code<'m> {
    fn decode(m: &'m Module, cost: &CostModel, mem: &Memory) -> Self {
        let mut block_pc = Vec::new();
        let mut func_base = Vec::with_capacity(m.functions.len());
        let mut pc = 0u32;
        for f in &m.functions {
            func_base.push(block_pc.len() as u32);
            for b in &f.blocks {
                block_pc.push(pc);
                pc += b.insts.len() as u32 + 1;
            }
        }
        // One op past the code: the target of every missing block.
        let missing = pc;
        let mut code = Code {
            ops: Vec::with_capacity(pc as usize + 1),
            segs: Vec::with_capacity(pc as usize + 1),
            block_pc,
            func_base,
            consts: Vec::with_capacity(m.functions.len()),
            switches: Vec::new(),
            selects: Vec::new(),
        };
        let mut charges = Vec::new();
        let mut slots = Slots::default();
        for (fi, f) in m.functions.iter().enumerate() {
            let base = code.func_base[fi] as usize;
            let block_pc = &code.block_pc;
            let target = |b: BlockId| {
                if b.index() < f.blocks.len() {
                    block_pc[base + b.index()]
                } else {
                    missing
                }
            };
            slots.start(f.locals.len());
            for b in &f.blocks {
                charges.clear();
                for inst in &b.insts {
                    code.ops
                        .push(decode_inst(m, inst, mem, &mut slots, &mut code.selects));
                    let charge = if CostModel::is_pairable_alu(inst) {
                        Charge::Pair
                    } else {
                        Charge::Solo
                    };
                    charges.push((cost.inst_cost(inst), charge));
                }
                // A jump's and a switch's scan cost are static: they join
                // the segment's cycles. Predictions are charged when run.
                let (op, term_cost) = match &b.term {
                    Term::Jump(t) => (Op::Jump { pc: target(*t) }, cost.branch),
                    Term::Branch {
                        cond,
                        then_bb,
                        else_bb,
                    } => (
                        Op::Branch {
                            cond: slots.of(cond),
                            then_pc: target(*then_bb),
                            else_pc: target(*else_bb),
                        },
                        0,
                    ),
                    Term::Switch {
                        ty: _,
                        value,
                        cases,
                        default,
                    } => {
                        code.switches.push(SwitchTable {
                            cases: cases.iter().map(|(v, t)| (*v, target(*t))).collect(),
                            default_pc: target(*default),
                        });
                        let op = Op::Switch {
                            value: slots.of(value),
                            table: code.switches.len() as u32 - 1,
                        };
                        // The cmp/jcc scan of a lowered switch.
                        (op, cost.switch_case * (cases.len() as u64 / 2))
                    }
                    term @ (Term::Ret(_) | Term::Invoke { .. } | Term::Unreachable) => {
                        (Op::Term(term), 0)
                    }
                };
                code.ops.push(op);
                charges.push((term_cost, Charge::Term));
                // The block's segment table, back to front.
                let start = code.segs.len();
                code.segs.resize(code.ops.len(), Seg::default());
                for (i, &(cost, charge)) in charges.iter().enumerate().rev() {
                    let pc = start + i;
                    let tail = (!code.ops[pc].ends_segment()).then(|| code.segs[pc + 1]);
                    code.segs[pc] = Seg::new(cost, charge, tail.as_ref());
                }
            }
            code.consts.push(std::mem::take(&mut slots.consts));
        }
        code.ops.push(Op::Missing);
        code.segs.push(Seg::new(0, Charge::Term, None));
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
        self.block_pc[self.func_base[func.index()] as usize + b.index()] as usize
    }
}

fn decode_inst<'m>(
    m: &Module,
    inst: &'m Inst,
    mem: &Memory,
    slots: &mut Slots,
    selects: &mut Vec<[u32; 3]>,
) -> Op<'m> {
    match inst {
        Inst::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        } => {
            let o = Abc {
                dst: dst.0,
                a: slots.of(lhs),
                b: slots.of(rhs),
            };
            match op {
                _ if !is_wide_int(*ty) => Op::Bin {
                    op: *op,
                    ty: *ty,
                    o,
                },
                BinOp::Add => Op::Add(o),
                BinOp::Sub => Op::Sub(o),
                BinOp::Mul => Op::Mul(o),
                BinOp::And => Op::And(o),
                BinOp::Or => Op::Or(o),
                BinOp::Xor => Op::Xor(o),
                BinOp::Shl => Op::Shl(o),
                BinOp::AShr => Op::AShr(o),
                BinOp::LShr => Op::LShr(o),
                // Division and remainder keep their traps in the generic arm.
                _ => Op::Bin {
                    op: *op,
                    ty: *ty,
                    o,
                },
            }
        }
        Inst::Un { op, ty, dst, src } => Op::Un {
            op: *op,
            ty: *ty,
            dst: dst.0,
            src: slots.of(src),
        },
        Inst::Cmp {
            pred,
            ty,
            dst,
            lhs,
            rhs,
        } => {
            let o = Abc {
                dst: dst.0,
                a: slots.of(lhs),
                b: slots.of(rhs),
            };
            if *pred == CmpPred::Slt && is_wide_int(*ty) {
                Op::Slt(o)
            } else {
                Op::Cmp {
                    pred: *pred,
                    ty: *ty,
                    o,
                }
            }
        }
        Inst::Select {
            ty,
            dst,
            cond,
            on_true,
            on_false,
        } => {
            selects.push([slots.of(cond), slots.of(on_true), slots.of(on_false)]);
            Op::Select {
                ty: *ty,
                dst: dst.0,
                ops: selects.len() as u32 - 1,
            }
        }
        Inst::Copy { ty, dst, src } => {
            let (dst, src) = (dst.0, slots.of(src));
            if is_wide_int(*ty) || *ty == Type::F64 {
                Op::Copy { dst, src }
            } else {
                Op::Convert { ty: *ty, dst, src }
            }
        }
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
            src: slots.of(src),
        },
        Inst::Load { ty, dst, addr } => {
            let (dst, addr) = (dst.0, slots.of(addr));
            if is_wide_int(*ty) {
                Op::Load { dst, addr }
            } else {
                Op::LoadTyped { ty: *ty, dst, addr }
            }
        }
        Inst::Store { ty, addr, value } => {
            let (addr, value) = (slots.of(addr), slots.of(value));
            if is_wide_int(*ty) {
                Op::Store { addr, value }
            } else {
                Op::StoreTyped {
                    ty: *ty,
                    addr,
                    value,
                }
            }
        }
        // A pointer add is a 64-bit add.
        Inst::PtrAdd { dst, base, offset } => Op::Add(Abc {
            dst: dst.0,
            a: slots.of(base),
            b: slots.of(offset),
        }),
        // An address known at decode time is a constant slot.
        Inst::FuncAddr { dst, func } => Op::Copy {
            dst: dst.0,
            src: slots.constant(func_addr(*func)),
        },
        Inst::GlobalAddr { dst, global } if global.index() < m.globals.len() => Op::Copy {
            dst: dst.0,
            src: slots.constant(mem.global_addr(*global)),
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
    /// The function's locals, then its constant slots: each slot holds
    /// its value's bits (see [`Value::to_bits`]).
    slots: Vec<u64>,
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
    /// `slots` vectors of popped frames, reused by the next pushes.
    spare_slots: Vec<Vec<u64>>,
    /// Argument buffer reused by every call.
    args: Vec<Value>,
    pub(crate) output: Vec<i64>,
    pub(crate) input_pos: usize,
    pub(crate) config: RunConfig,
    pub(crate) snapshots: Vec<JmpSnapshot>,
    pub(crate) file_offsets: Vec<u64>,
    /// 1-entry branch history per branch or switch, indexed by its code
    /// position: the last successor's code position, `u32::MAX` before
    /// its first transfer.
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

#[cold]
fn mem_trap(what: &str, e: MemError) -> VmError {
    VmError::Trap(format!("{what}: {} at {:#x}", e.message, e.addr))
}

/// Charges a two- or multi-way transfer at code position `site` with
/// 1-entry branch prediction: a repeat of the site's last successor
/// costs [`CostModel::branch`], anything else [`CostModel::branch_miss`].
#[inline(always)]
fn predict(predictor: &mut [u32], site: usize, actual: u32, cost: &CostModel) -> u64 {
    let last = std::mem::replace(&mut predictor[site], actual);
    if last == actual {
        cost.branch
    } else {
        cost.branch_miss
    }
}

/// Executes a straight-line op on the frame's slots `s`: the one op body
/// of the interpreter, shared by the full-segment loop of [`Vm::chain`]
/// and [`exec_short`]. Its cost was charged with its segment.
#[inline(always)]
fn exec(op: &Op<'_>, code: &Code<'_>, s: &mut [u64], mem: &mut Memory) -> Result<(), VmError> {
    // `dst = f(a, b)` on the slots of `o`.
    macro_rules! bin {
        ($o:expr, |$x:ident, $y:ident| $e:expr) => {{
            let ($x, $y) = (s[$o.a as usize], s[$o.b as usize]);
            s[$o.dst as usize] = $e;
        }};
    }
    match *op {
        Op::Add(o) => bin!(o, |x, y| x.wrapping_add(y)),
        Op::Sub(o) => bin!(o, |x, y| x.wrapping_sub(y)),
        Op::Mul(o) => bin!(o, |x, y| x.wrapping_mul(y)),
        Op::And(o) => bin!(o, |x, y| x & y),
        Op::Or(o) => bin!(o, |x, y| x | y),
        Op::Xor(o) => bin!(o, |x, y| x ^ y),
        Op::Shl(o) => bin!(o, |x, y| x << (y & 63)),
        Op::AShr(o) => bin!(o, |x, y| ((x as i64) >> (y & 63)) as u64),
        Op::LShr(o) => bin!(o, |x, y| x >> (y & 63)),
        Op::Slt(o) => bin!(o, |x, y| ((x as i64) < (y as i64)) as u64),
        Op::Copy { dst, src } => s[dst as usize] = s[src as usize],
        Op::Load { dst, addr } => {
            s[dst as usize] = mem
                .load64(s[addr as usize])
                .map_err(|e| mem_trap("load", e))?;
        }
        Op::Store { addr, value } => mem
            .store64(s[addr as usize], s[value as usize])
            .map_err(|e| mem_trap("store", e))?,
        Op::Bin { op, ty, o } => {
            s[o.dst as usize] = eval_bin(op, ty, s[o.a as usize], s[o.b as usize])?;
        }
        Op::Un { op, ty, dst, src } => s[dst as usize] = eval_un(op, ty, s[src as usize]),
        Op::Cmp { pred, ty, o } => {
            s[o.dst as usize] = eval_cmp(pred, ty, s[o.a as usize], s[o.b as usize]) as u64;
        }
        Op::Select { ty, dst, ops } => {
            let [cond, on_true, on_false] = code.selects[ops as usize];
            let pick = if s[cond as usize] & 1 == 1 {
                on_true
            } else {
                on_false
            };
            s[dst as usize] = normalize(s[pick as usize], ty);
        }
        Op::Convert { ty, dst, src } => s[dst as usize] = normalize(s[src as usize], ty),
        Op::Cast {
            kind,
            from,
            to,
            dst,
            src,
        } => s[dst as usize] = eval_cast(kind, s[src as usize], from, to),
        Op::LoadTyped { ty, dst, addr } => {
            s[dst as usize] = mem
                .load(s[addr as usize], ty)
                .map_err(|e| mem_trap("load", e))?;
        }
        Op::StoreTyped { ty, addr, value } => mem
            .store(s[addr as usize], ty, s[value as usize])
            .map_err(|e| mem_trap("store", e))?,
        Op::Jump { .. }
        | Op::Branch { .. }
        | Op::Switch { .. }
        | Op::Inst(_)
        | Op::Term(_)
        | Op::Missing => unreachable!("a segment's last op runs in the chained loop"),
    }
    Ok(())
}

/// Runs the first `budget` ops from `pc`, all inside one segment that the
/// remaining fuel does not cover, and reports the empty tank — or the
/// trap one of them raises first.
#[cold]
#[inline(never)]
fn exec_short<'m>(
    code: &Code<'m>,
    pc: usize,
    budget: u64,
    s: &mut [u64],
    mem: &mut Memory,
) -> Result<Exit<'m>, VmError> {
    for op in &code.ops[pc..pc + budget as usize] {
        exec(op, code, s, mem)?;
    }
    Ok(Exit::Fuel)
}

impl<'m> Vm<'m> {
    /// Creates a VM for `m`, decoding it for dispatch.
    pub fn new(m: &'m Module, config: RunConfig) -> Self {
        let mem = Memory::new(m, config.data_size);
        let code = Code::decode(m, &config.cost, &mem);
        let predictor = vec![u32::MAX; code.ops.len()];
        Vm {
            m,
            code,
            mem,
            frames: Vec::new(),
            spare_slots: Vec::new(),
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

    /// Stores `v` into local `d` of the top frame, normalized to the
    /// local's type.
    fn set_local(&mut self, d: LocalId, v: Value) {
        let m: &'m Module = self.m;
        let fr = self.top();
        let ty = m.function(fr.func).locals[d.index()];
        fr.slots[d.index()] = v.normalize(ty).to_bits();
    }

    /// Reads an operand of the top frame (the out-of-line path).
    fn operand(&self, o: &Operand) -> Value {
        let fr = self.frames.last().expect("frame exists");
        match o {
            Operand::Local(l) => Value::from_bits(
                fr.slots[l.index()],
                self.m.function(fr.func).locals[l.index()],
            ),
            Operand::Const(c) => Value::from_const(c),
        }
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
        let mut slots = self.spare_slots.pop().unwrap_or_default();
        slots.clear();
        slots.resize(f.locals.len(), 0);
        slots.extend_from_slice(&self.code.consts[func.index()]);
        for (i, a) in args.iter().take(f.param_count as usize).enumerate() {
            let ty = f.locals[i];
            // Indirect K&R-style calls may pass the compatible wider class;
            // normalize into the declared parameter type.
            slots[i] = match (a, ty.is_float()) {
                (Value::Int(_), false) | (Value::Float(_), true) => a.normalize(ty).to_bits(),
                _ => {
                    return Err(trap(format!(
                        "argument class mismatch calling `{}`",
                        f.name
                    )));
                }
            };
        }
        let pc = self.block_pc(func, f.entry());
        self.frames.push(Frame {
            func,
            slots,
            pc,
            stack_mark: self.mem.stack_mark(),
            pending: None,
        });
        Ok(())
    }

    /// Pops the top frame, releasing its allocas and setjmp snapshots and
    /// keeping its `slots` vector for reuse.
    fn pop_frame(&mut self) -> Option<()> {
        let fr = self.frames.pop()?;
        self.mem.stack_release(fr.stack_mark);
        self.snapshots.retain(|s| s.depth <= self.frames.len());
        self.spare_slots.push(fr.slots);
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
            let v = value.ok_or(VmError::Trap("void return into value context".into()))?;
            self.set_local(d, v);
        }
        if let Some((normal, _)) = pending.invoke {
            let func = self.top().func;
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
                fr.slots[d.index()] = exc as u64;
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
            self.spare_slots.push(fr.slots);
        }
        let fr = self.frames.last_mut().expect("longjmp with empty stack");
        if fr.func != func {
            return Err(trap("longjmp target frame mismatch"));
        }
        fr.pending = None;
        fr.pc = pc;
        if let Some(d) = dst {
            let v = if val == 0 { 1 } else { val };
            fr.slots[d.index()] = normalize_int(v, Type::I32) as u64;
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
        vals.extend(args.iter().map(|a| self.operand(a)));
        let callee = match callee {
            Callee::Indirect(p) => {
                let addr = self.operand(p).as_int();
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
                        if let Some(d) = dst {
                            let v = v.ok_or(VmError::Trap(format!(
                                "external `{name}` returned void into value context"
                            )))?;
                            self.set_local(d, v);
                        }
                        if let Some((normal, _)) = invoke {
                            let func = self.top().func;
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
                            fr.slots[d.index()] = 0;
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
                self.top().slots[dst.index()] = a;
                Ok(Flow::Continue)
            }
            Inst::GlobalAddr { dst, global } => {
                let a = self.mem.global_addr(*global);
                self.top().slots[dst.index()] = a;
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
                let value = v.as_ref().map(|o| self.operand(o).normalize(rt));
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

    /// The segment-chained inner loop: runs the top frame's ops, following
    /// jumps, branches and switches, until the fuel runs out, an op traps,
    /// or an op must run out of line. Each segment is charged its steps
    /// and static cycles once, on entry, when the remaining fuel covers
    /// it; otherwise the ops the fuel covers run (one of them may trap)
    /// and the run stops out of fuel. Either way the counters and the
    /// stopping step are exactly those of one fuel check, step count and
    /// charge per op.
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
        let s = fr.slots.as_mut_slice();
        let code: &Code<'m> = code;
        let (ops, segs) = (code.ops.as_slice(), code.segs.as_slice());
        let cost = &config.cost;
        let max_steps = config.max_steps;
        let (mut pc, mut cy, mut st, mut pair) = (fr.pc, *cycles, *steps, *alu_pair);
        let exit = 'segment: loop {
            let seg = &segs[pc];
            let fuel = max_steps.saturating_sub(st);
            if u64::from(seg.steps) > fuel {
                break exec_short(code, pc, fuel, s, mem);
            }
            st += u64::from(seg.steps);
            cy += seg.cycles[pair as usize];
            pair = seg.pair_out[pair as usize];
            let (last, straight) = ops[pc..pc + seg.steps as usize]
                .split_last()
                .expect("a segment has an op");
            for op in straight {
                if let Err(e) = exec(op, code, s, mem) {
                    break 'segment Err(e);
                }
            }
            pc += straight.len();
            match *last {
                Op::Jump { pc: target } => pc = target as usize,
                Op::Branch {
                    cond,
                    then_pc,
                    else_pc,
                } => {
                    let target = if s[cond as usize] & 1 == 1 {
                        then_pc
                    } else {
                        else_pc
                    };
                    cy += predict(predictor, pc, target, cost);
                    pc = target as usize;
                }
                Op::Switch { value, table } => {
                    let v = s[value as usize] as i64;
                    let t = &code.switches[table as usize];
                    // Erratic targets (flattening dispatch) mispredict.
                    let target = t
                        .cases
                        .iter()
                        .find(|(c, _)| *c == v)
                        .map_or(t.default_pc, |&(_, pc)| pc);
                    cy += predict(predictor, pc, target, cost);
                    pc = target as usize;
                }
                Op::Inst(inst) => {
                    pc += 1;
                    break Ok(Exit::Inst(inst));
                }
                // A terminator stays put, as a setjmp snapshot taken by an
                // invoked external records it.
                Op::Term(term) => break Ok(Exit::Term(term)),
                Op::Missing => panic!("control reached a block that does not exist"),
                _ => unreachable!("a segment ends in a terminator or an out-of-line op"),
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

/// Slot bits of integer `v` as a value of type `ty` (pointers are not
/// narrowed).
fn int_slot(v: i64, ty: Type) -> u64 {
    if ty == Type::Ptr {
        v as u64
    } else {
        normalize_int(v, ty) as u64
    }
}

/// Slot bits of float `v` as a value of type `ty` (an `f32` is rounded
/// and kept widened).
fn float_slot(v: f64, ty: Type) -> u64 {
    match ty {
        Type::F32 => (v as f32 as f64).to_bits(),
        Type::F64 => v.to_bits(),
        _ => panic!("cannot normalize float {v} to {ty}"),
    }
}

/// Normalizes slot bits to `ty` (the canonical value of a local of that
/// type; constant slots hold a float constant unrounded).
fn normalize(bits: u64, ty: Type) -> u64 {
    if ty.is_float() {
        float_slot(f64::from_bits(bits), ty)
    } else {
        int_slot(bits as i64, ty)
    }
}

fn eval_bin(op: BinOp, ty: Type, a: u64, b: u64) -> Result<u64, VmError> {
    if op.is_float_op() {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        let r = match op {
            BinOp::FAdd => x + y,
            BinOp::FSub => x - y,
            BinOp::FMul => x * y,
            BinOp::FDiv => x / y,
            _ => unreachable!(),
        };
        return Ok(float_slot(r, ty));
    }
    let (x, y) = (a as i64, b as i64);
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
    Ok(int_slot(r, ty))
}

fn eval_un(op: UnOp, ty: Type, s: u64) -> u64 {
    match op {
        UnOp::Neg => int_slot((s as i64).wrapping_neg(), ty),
        UnOp::Not => int_slot(!(s as i64), ty),
        UnOp::FNeg => float_slot(-f64::from_bits(s), ty),
    }
}

fn to_unsigned(x: i64, bits: u32) -> u64 {
    if bits >= 64 {
        x as u64
    } else {
        (x as u64) & ((1u64 << bits) - 1)
    }
}

fn eval_cmp(pred: CmpPred, ty: Type, a: u64, b: u64) -> bool {
    if pred.is_float_pred() {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
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
    let (x, y) = (a as i64, b as i64);
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

fn eval_cast(kind: CastKind, s: u64, from: Type, to: Type) -> u64 {
    match kind {
        CastKind::Trunc | CastKind::SExt => int_slot(s as i64, to),
        CastKind::ZExt => {
            let bits = from.bits().unwrap_or(64);
            int_slot(to_unsigned(s as i64, bits) as i64, to)
        }
        CastKind::FpToSi => {
            let f = f64::from_bits(s);
            let v = if f.is_nan() {
                0
            } else {
                f.max(i64::MIN as f64).min(i64::MAX as f64) as i64
            };
            int_slot(v, to)
        }
        CastKind::SiToFp => float_slot(s as i64 as f64, to),
        CastKind::FpTrunc | CastKind::FpExt => float_slot(f64::from_bits(s), to),
        CastKind::PtrToInt | CastKind::IntToPtr => s,
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
