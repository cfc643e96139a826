//! # khaos-vm — the KIR execution substrate
//!
//! A deterministic interpreter for KIR modules with a per-instruction
//! **cycle cost model**. It plays two roles in the Khaos reproduction:
//!
//! 1. **Correctness oracle** — an obfuscated module must produce exactly
//!    the same [`RunResult::output`] and exit code as the baseline build
//!    (differential testing).
//! 2. **Performance simulator** — [`RunResult::cycles`] stands in for the
//!    paper's wall-clock runtime when measuring obfuscation overhead
//!    (Figures 6 and 7). The model charges realistic relative costs for
//!    calls, register vs. stack argument passing, memory traffic and
//!    division, which is where fission/fusion overhead comes from.
//!
//! The VM also implements the runtime machinery the paper's mechanisms
//! assume: 16-byte-aligned synthetic function addresses (so the fusion
//! tag bits 2–3 are available), relocation addends on global function
//! pointers, `setjmp`/`longjmp`, and `invoke`-based exception unwinding.
//! Indirect calls through a *tagged* pointer trap — the obfuscator must
//! emit explicit decode code, and the differential tests prove it does.
//!
//! ## Dispatch
//!
//! [`Vm::new`] decodes the module once. Every function's blocks are laid
//! out back to back in one flat code array, each block as its
//! instructions followed by its terminator, so a frame's position is a
//! single index, and jump, branch and switch targets are code positions.
//! Calls, allocas, returns, invokes and `unreachable` stay references into
//! the module and run out of line.
//!
//! - **Typed slots.** A frame is a `Vec<u64>` of raw slot bits: integers
//!   and pointers as their normalized `i64`, floats as `f64` bits (an
//!   `f32` kept widened). Each op normalizes its result by the static
//!   type decoded with it. [`Value`] appears only at the boundaries —
//!   entry, call and invoke arguments (where the argument class is still
//!   checked), returns, externals and landing pads — and is converted
//!   there by static type.
//! - **Constant slots.** Each function's distinct constants get slots
//!   after its locals, filled when a frame is pushed, so every operand is
//!   a slot index. A constant keeps its literal value: a float constant
//!   of an `f32` op is rounded with the result, as it always was.
//! - **Specialized ops.** `add`, `sub`, `mul`, `and`, `or`, `xor`, `shl`,
//!   `ashr`, `lshr` and `cmp slt` on `i64`/`ptr`, `ptradd`, 64-bit copies
//!   (and `funcaddr`/`globaladdr`, which copy a constant slot), and
//!   `i64`/`ptr` loads and stores each decode to an op whose body is one
//!   ALU op or one 8-byte access. Everything else — division and
//!   remainder with their traps, floats, narrow integers, casts, selects
//!   — takes one generic arm per instruction kind.
//! - **Segment tables.** A segment runs from any op to the next
//!   terminator or out-of-line op, inclusive. For every op the decoder
//!   records the steps to its segment's end and, for each incoming
//!   dual-issue pairing state, the static cycles to the end and the
//!   outgoing state (pairing carries across jumps).
//!
//! [`Vm::run`] spends its time in a segment-chained loop over the current
//! frame's code. At every segment entry — a block start, the return
//! from a call, a landing pad, a longjmp target — it compares the
//! remaining fuel with the segment's steps. If the fuel covers them, it
//! charges the segment's steps and cycles once and runs its ops with no
//! per-op fuel check, step count or pairing update; a branch or switch at
//! the end still charges its prediction. If not, it runs the ops the fuel
//! covers through the same op body (a trap among them still surfaces)
//! and stops out of fuel. The counters are those of one fuel check, step
//! and charge per op, so a budget of exactly the steps a run takes
//! suffices and one less stops it, wherever the budget ends; a run that
//! traps reports no counters.
//!
//! ## Memory
//!
//! The data arena ([`RunConfig::data_size`] bytes, from address `0x1000`)
//! holds the globals and the heap from its base and the alloca stack
//! from its middle. [`Memory`] commits it on demand in those two regions:
//! each holds bytes from its base up to the highest byte written so far,
//! at least doubling as it grows, and a byte never written reads as zero.
//! [`Vm::new`] therefore allocates the globals' initialized bytes and
//! nothing else; it no longer zero-fills the whole arena. An access
//! inside one region's committed bytes costs one range compare per
//! region; an access that straddles the two regions or reaches
//! uncommitted bytes takes a cold path. Addresses, bounds, traps and
//! trap messages are those of a zero-filled arena, kept as the test
//! oracle in `src/memory/reference.rs`. A module whose
//! initialized globals do not fit in the arena traps before its first
//! step.
//!
//! ## Where each cost is charged
//!
//! | event | cycles |
//! |-------|--------|
//! | instruction | `inst_cost`; of consecutive pairable ALU ops every second is free, any other instruction breaks the pair, terminators leave it alone |
//! | `jump` | `branch` (static: charged with the segment) |
//! | `branch` | `branch` when the site repeats its last successor, else `branch_miss` (1-entry history per site; the first visit misses) |
//! | `switch` | the `branch` row's charge, plus `switch_case * (cases / 2)` for the compare chain (static: charged with the segment) |
//! | call / invoke | `arg_cost(args)` + `call`; an invoke adds `invoke_extra`; an indirect callee adds `indirect_extra`; a `call` whose arity differs from the callee's pays `call` (plus `indirect_extra`) and no argument cost |
//! | external call | `arg_cost(args)` + `ext_call` |
//! | `ret` | `ret` |
//!
//! Every run's [`RunResult`] is pinned bit-identical over the `--quick`
//! programs and builds (`crates/bench/tests/build_memo.rs`).

mod cost;
mod libc;
mod machine;
mod memory;
mod value;

pub use cost::CostModel;
pub use machine::{
    run_function, run_to_completion, run_with_config, RunConfig, RunResult, Vm, VmError,
};
pub use memory::{Memory, FUNC_SPACE_BASE, FUNC_SPACE_STRIDE};
pub use value::Value;
