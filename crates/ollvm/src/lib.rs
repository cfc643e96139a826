//! # khaos-ollvm — O-LLVM-style intra-procedural obfuscation baselines
//!
//! The three comparison transforms the paper evaluates Khaos against
//! (§2.2, §4):
//!
//! * [`substitution`] (**Sub**) — instruction substitution: arithmetic and
//!   logic operations replaced with equivalent multi-instruction
//!   sequences.
//! * [`bogus_control_flow`] (**Bog**) — opaque-predicate-guarded junk
//!   clones of real blocks spliced into the CFG.
//! * [`flattening`] (**Fla**) — control-flow flattening through an
//!   encrypted-state dispatch switch. Like O-LLVM, it skips
//!   exception-relevant functions (a limitation the paper calls out
//!   in §5).
//!
//! All three are *intra*-procedural: they never change a function's
//! boundary, call graph position or parameter list — which is exactly why
//! modern binary diffing sees through them and why Khaos doesn't work
//! this way.
//!
//! The primary interface is the `khaos-pass` pipeline API: the spec
//! atoms `sub`, `bog` and `fla` (each with a `ratio` argument, e.g.
//! `fla(ratio=0.1)`) wrap these transforms behind the one `Pass` trait
//! and draw from the pipeline's single seeded RNG stream.
//! [`OllvmMode::apply`] remains as a compatibility wrapper and is
//! seed-equivalent to the one-atom pipeline.

mod bogus;
mod flatten;
mod substitute;

pub use bogus::bogus_control_flow;
pub use flatten::{flattening, looks_flattened};
pub use substitute::substitution;

use khaos_ir::Module;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seeded context for the baseline transforms.
#[derive(Debug)]
pub struct OllvmContext {
    pub(crate) rng: StdRng,
}

impl OllvmContext {
    /// Creates a deterministic context.
    pub fn new(seed: u64) -> Self {
        Self::from_rng(StdRng::seed_from_u64(seed))
    }

    /// A context over an externally-owned RNG stream — the hook the
    /// `khaos-pass` pipeline adapters use to lend their single seeded
    /// stream to each baseline transform in turn.
    pub fn from_rng(rng: StdRng) -> Self {
        OllvmContext { rng }
    }

    /// Hands the RNG stream back (counterpart of
    /// [`OllvmContext::from_rng`]).
    pub fn into_rng(self) -> StdRng {
        self.rng
    }
}

/// The baseline configurations used across the paper's figures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OllvmMode {
    /// Instruction substitution at the given ratio (0.0–1.0).
    Sub(f64),
    /// Bogus control flow at the given ratio.
    Bog(f64),
    /// Control-flow flattening at the given ratio of functions.
    Fla(f64),
}

impl OllvmMode {
    /// The paper's standard configurations: Sub/Bog at 100%, Fla at 10%
    /// (Fla-100 is used only in the vulnerable-code experiment).
    pub const STANDARD: [OllvmMode; 3] = [
        OllvmMode::Sub(1.0),
        OllvmMode::Bog(1.0),
        OllvmMode::Fla(0.1),
    ];

    /// Display name matching the paper's legends.
    pub fn name(self) -> String {
        match self {
            OllvmMode::Sub(r) if r >= 1.0 => "Sub".into(),
            OllvmMode::Bog(r) if r >= 1.0 => "Bog".into(),
            OllvmMode::Fla(r) if r >= 1.0 => "Fla".into(),
            OllvmMode::Sub(r) => format!("Sub-{}", (r * 100.0) as u32),
            OllvmMode::Bog(r) => format!("Bog-{}", (r * 100.0) as u32),
            OllvmMode::Fla(r) => format!("Fla-{}", (r * 100.0) as u32),
        }
    }

    /// Applies the transform to `m` with the given seed.
    pub fn apply(self, m: &mut Module, seed: u64) {
        let mut ctx = OllvmContext::new(seed);
        match self {
            OllvmMode::Sub(r) => substitution(m, &mut ctx, r),
            OllvmMode::Bog(r) => bogus_control_flow(m, &mut ctx, r),
            OllvmMode::Fla(r) => flattening(m, &mut ctx, r),
        }
        debug_assert!(
            khaos_ir::verify::verify_module(m).is_ok(),
            "{} produced invalid IR: {:?}",
            self.name(),
            khaos_ir::verify::verify_module(m).err()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(OllvmMode::Sub(1.0).name(), "Sub");
        assert_eq!(OllvmMode::Fla(0.1).name(), "Fla-10");
        assert_eq!(OllvmMode::Fla(1.0).name(), "Fla");
    }
}
