//! # khaos-opt — optimization passes for KIR
//!
//! A classical middle-end pipeline. Khaos's central claim is that *moving
//! code across functions changes what intra-procedural optimizations
//! produce*; this crate supplies those optimizations:
//!
//! * [`mem2reg`] — promotes non-escaping allocas to registers (re-promotes
//!   the stack slots fission introduces inside each new function),
//! * [`constprop`] — constant/copy propagation and folding with branch
//!   simplification,
//! * [`cse`] — local common-subexpression elimination,
//! * [`dce`] — liveness-based dead code elimination,
//! * [`simplifycfg`] — unreachable-block removal, jump threading, block
//!   merging,
//! * [`inline`] — bottom-up inlining with a cost model (the source of the
//!   paper's *negative* overhead cases: thin `remFunc`s get inlined),
//! * [`dfe`] — dead internal function elimination (the LTO effect).
//!
//! The driver is [`optimize`] with [`OptLevel`] `O0`–`O3` and an `lto`
//! switch, mirroring the paper's `O2 + LTO` baseline.
//!
//! ## Cost
//!
//! Every build the paper measures ends in `O2 + LTO`, so the scalar
//! passes are kept near-linear in the size of a function (`w` below is
//! the number of 64-bit words in a set over its locals):
//!
//! * [`mem2reg`] and [`cse`]: one pass over the instructions. A CSE
//!   definition drops only the expressions recorded under its local.
//!   Commutative operands are ordered by their text compared as strings
//!   (`l10` before `l9`); that order is pinned, so every CSE hit and
//!   every built module stays the same.
//! * [`constprop`]: one pass over the instructions per round, rounds to a
//!   fixed point. A definition kills the copies of its local through a
//!   reverse index.
//! * [`dce`]: one CFG, then one liveness solve per round. A round whose
//!   removals leave every block's upward-exposed uses unchanged is the
//!   last, so a function without a dead chain across blocks costs one
//!   solve; the loop no longer ends with a solve that finds nothing. A
//!   solve sweeps the reachable blocks in postorder, `O(blocks · w)` word
//!   operations per sweep, until a sweep changes nothing.
//! * [`simplifycfg`]: one scan over the blocks merges every linear chain,
//!   moving bodies instead of copying them, and a round costs one or two
//!   CFG computations. A call without jump threading is one round; a round
//!   that threads adds one merge and one more round.
//!
//! Through the `khaos-pass` pipeline API every pass here is a spec
//! atom (`mem2reg`, `inline(threshold=96)`, `dfe`, …) and [`optimize`]
//! is the family of macro-pipeline atoms `O0`..`O3` with an optional
//! `+lto` suffix — `"fufi_all | O2+lto"` is the paper's whole build in
//! one declarative, fingerprinted spec. The functions here remain the
//! implementation the adapters call.

pub mod constprop;
pub mod cse;
pub mod dce;
pub mod dfe;
pub mod inline;
pub mod mem2reg;
#[cfg(test)]
mod reference;
pub mod simplifycfg;

use khaos_ir::Module;

/// Optimization level, mirroring `-O0`..`-O3`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptLevel {
    /// No optimization.
    O0,
    /// Scalar cleanups only.
    O1,
    /// Scalar cleanups + inlining (the paper's baseline level).
    O2,
    /// `O2` with a more aggressive inliner and an extra cleanup round.
    O3,
}

impl OptLevel {
    /// All levels, for sweeps.
    pub const ALL: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3];

    /// Display name (`"O2"` etc.).
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O2",
            OptLevel::O3 => "O3",
        }
    }
}

/// Pipeline configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OptOptions {
    /// Optimization level.
    pub level: OptLevel,
    /// Link-time optimization: dead internal functions are removed and the
    /// inliner may inline across "module boundaries" (exported functions).
    pub lto: bool,
    /// Inliner threshold override (instruction count).
    pub inline_threshold: Option<usize>,
}

impl OptOptions {
    /// The paper's baseline configuration: `O2` with LTO.
    pub fn baseline() -> Self {
        OptOptions {
            level: OptLevel::O2,
            lto: true,
            inline_threshold: None,
        }
    }

    /// A specific level without LTO.
    pub fn level(level: OptLevel) -> Self {
        OptOptions {
            level,
            lto: false,
            inline_threshold: None,
        }
    }
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions::baseline()
    }
}

/// The scalar cleanup pipeline without inlining.
///
/// This is what runs *after* the obfuscation passes in the paper's
/// pipeline (Khaos is a middle-end pass followed by the rest of the
/// compiler): it re-promotes the stack slots fission introduced, folds
/// the adapters fusion inserted, and generally reshapes the obfuscated
/// bodies — without re-inlining, which would undo the obfuscation.
pub fn optimize_scalar(m: &mut Module) {
    for f in &mut m.functions {
        mem2reg::run_function(f);
        constprop::run_function(f);
        cse::run_function(f);
        dce::run_function(f);
        simplifycfg::run_function(f);
    }
}

/// Runs the full pipeline for `opts` on `m`.
///
/// The module must verify beforehand; it will verify afterwards (asserted
/// in debug builds).
pub fn optimize(m: &mut Module, opts: &OptOptions) {
    if opts.level == OptLevel::O0 {
        return;
    }
    optimize_scalar(m);
    if opts.level >= OptLevel::O2 {
        let threshold = opts.inline_threshold.unwrap_or(match opts.level {
            OptLevel::O3 => 96,
            _ => 48,
        });
        inline::run_module(
            m,
            &inline::InlineOptions {
                threshold,
                allow_exported: opts.lto,
            },
        );
        optimize_scalar(m);
        if opts.level == OptLevel::O3 {
            inline::run_module(
                m,
                &inline::InlineOptions {
                    threshold: threshold / 2,
                    allow_exported: opts.lto,
                },
            );
            optimize_scalar(m);
        }
    }
    if opts.lto {
        dfe::run_module(m);
    }
    debug_assert!(
        khaos_ir::verify::verify_module(m).is_ok(),
        "optimizer produced invalid module: {:?}",
        khaos_ir::verify::verify_module(m).err()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::{BinOp, Operand, Type};
    use khaos_vm::run_function;

    /// main: x = alloca; store 20; v = load; w = v + 22; ret w
    fn sample_module() -> Module {
        let mut m = Module::new("s");
        let mut fb = FunctionBuilder::new("main", Type::I64);
        let p = fb.alloca(8);
        fb.store(
            Type::I64,
            Operand::const_int(Type::I64, 20),
            Operand::local(p),
        );
        let v = fb.load(Type::I64, Operand::local(p));
        let w = fb.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(v),
            Operand::const_int(Type::I64, 22),
        );
        fb.ret(Some(Operand::local(w)));
        m.push_function(fb.finish());
        m
    }

    #[test]
    fn o2_shrinks_and_preserves_behaviour() {
        let mut m = sample_module();
        let before = run_function(&m, "main", &[]).unwrap();
        let size_before = m.inst_count();
        optimize(&mut m, &OptOptions::baseline());
        let after = run_function(&m, "main", &[]).unwrap();
        assert_eq!(before.exit_code, after.exit_code);
        assert_eq!(before.output, after.output);
        assert!(m.inst_count() < size_before, "O2 should shrink the sample");
        assert!(
            after.cycles < before.cycles,
            "O2 should speed the sample up"
        );
    }

    #[test]
    fn o0_is_identity() {
        let mut m = sample_module();
        let orig = m.clone();
        optimize(&mut m, &OptOptions::level(OptLevel::O0));
        assert_eq!(m, orig);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(OptLevel::O0 < OptLevel::O2);
        assert_eq!(OptLevel::O2.name(), "O2");
    }
}
