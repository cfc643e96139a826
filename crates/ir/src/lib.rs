//! # khaos-ir — KIR, the compiler IR substrate
//!
//! KIR is a typed, register-based intermediate representation modelled on the
//! subset of LLVM IR that the Khaos obfuscator (CGO 2023) manipulates:
//!
//! * functions made of basic blocks with explicit terminators,
//! * typed virtual registers ("locals") plus explicit [`Inst::Alloca`] stack
//!   slots for address-taken data,
//! * direct, external and indirect calls, function-address constants and
//!   globals with function-pointer initialisers (relocations with addends),
//! * `invoke`-style exception edges and `setjmp`/`longjmp` intrinsics.
//!
//! Unlike LLVM, KIR is *not* SSA: a local may be assigned multiple times.
//! This mirrors the "demote to memory / registers" representation LLVM's
//! `CodeExtractor` works on and keeps the fission/fusion transformations
//! faithful while avoiding phi-node rewiring machinery.
//!
//! The crate also hosts the analyses both the optimizer and the obfuscator
//! need: CFG utilities, dominator trees, natural loops, static block
//! frequencies, liveness and the call graph.
//!
//! ## The dataflow framework
//!
//! [`analysis::dataflow`] provides a generic monotone dataflow solver the
//! concrete analyses are instances of. An [`analysis::dataflow::Analysis`]
//! supplies a lattice of per-block states and the solver
//! ([`analysis::dataflow::solve`]) iterates a worklist seeded in
//! reverse-postorder (postorder for backward problems) until a fixed
//! point. The contract an instance must meet:
//!
//! * **Lattice.** `join` must be commutative, associative and idempotent;
//!   `top` is the identity of `join` (full set + intersection for a
//!   *must* analysis, empty set + union for a *may* analysis).
//! * **Monotonicity.** `transfer` and `edge` must be monotone: a larger
//!   input state may never produce a smaller output state.
//! * **Finite height.** Every ascending chain of states must be finite —
//!   with the bitset states used here, bounded by the local count.
//!
//! Under that contract the solver terminates with the unique least
//! fixed point; each block is re-processed only when a predecessor's
//! (successor's, for backward) state changes, so convergence takes
//! `O(height × edges)` joins in the worst case and one pass over an
//! acyclic CFG. Shipped instances: definite initialisation, live
//! variables, and dead-assignment/unreachable-block detection. The
//! verifier's certainly-uninitialised check is a word-parallel
//! may-defined solve beside the framework.
//!
//! ## The semantic auditor
//!
//! [`audit`] distills a module into per-root observable-behavior
//! summaries (reachable external calls, global read/write/escape sets,
//! exported signatures) and diffs summaries taken before and after a
//! transformation, flagging dropped effects as structured
//! [`audit::AuditDiagnostic`]s — the static net that catches semantic
//! miscompiles (dropped stores, retargeted calls, orphaned effectful
//! blocks) which structural verification cannot see.
//!
//! ```
//! use khaos_ir::builder::FunctionBuilder;
//! use khaos_ir::{Module, Type, Operand, BinOp};
//!
//! let mut m = Module::new("demo");
//! let mut b = FunctionBuilder::new("add1", Type::I64);
//! let x = b.add_param(Type::I64);
//! let one = Operand::const_int(Type::I64, 1);
//! let r = b.bin(BinOp::Add, Type::I64, Operand::local(x), one);
//! b.ret(Some(Operand::local(r)));
//! m.push_function(b.finish());
//! assert!(khaos_ir::verify::verify_module(&m).is_ok());
//! ```

pub mod analysis;
pub mod audit;
pub mod builder;
pub mod constant;
pub mod function;
pub mod ids;
pub mod inst;
pub mod module;
pub mod parser;
pub mod printer;
pub mod rewrite;
pub mod types;
pub mod verify;

pub use constant::Const;
pub use function::{Block, Function, Linkage, PadInfo, ProvKind, Provenance};
pub use ids::{BlockId, ExtId, FuncId, GlobalId, LocalId};
pub use inst::{BinOp, Callee, CastKind, CmpPred, Inst, Operand, Term, UnOp};
pub use module::{ExtFunc, GInit, Global, Module};
pub use types::Type;

pub use analysis::callgraph::CallGraph;
pub use analysis::cfg::Cfg;
pub use analysis::dom::DomTree;
pub use analysis::freq::BlockFreq;
pub use analysis::liveness::Liveness;
pub use analysis::loops::LoopInfo;
pub use audit::{AuditDiagnostic, AuditKind, ModuleSummary};
