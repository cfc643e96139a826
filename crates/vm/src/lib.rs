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
//! single index. Each operand becomes a local slot or an immediate whose
//! constant was normalized at decode time. Each instruction carries its
//! [`CostModel::inst_cost`] and its [`CostModel::is_pairable_alu`] bit.
//! Jump, branch and switch targets become code positions. Every block is
//! a branch site with a module-wide number, and the branch predictor is
//! one slot per site. Calls, allocas, returns, invokes and `unreachable`
//! stay references into the module and run out of line.
//!
//! [`Vm::run`] spends its time in a block-chained loop over the current
//! frame's code. Each step checks the fuel (`steps < max_steps`), counts
//! itself, charges its cost and executes. Jumps, branches and switches
//! continue inside the loop. It hands control back only for the
//! out-of-line operations above, a trap, or an empty fuel tank, so a
//! budget of exactly the steps a run takes suffices and one less stops
//! it, wherever the budget ends.
//!
//! ## Where each cost is charged
//!
//! | event | cycles |
//! |-------|--------|
//! | instruction | `inst_cost`; of consecutive pairable ALU ops every second is free, any other instruction breaks the pair, terminators leave it alone |
//! | `jump` | `branch` |
//! | `branch` | `branch` when the site repeats its last successor, else `branch_miss` (1-entry history per site; the first visit misses) |
//! | `switch` | the `branch` row's charge, plus `switch_case * (cases / 2)` for the compare chain |
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
