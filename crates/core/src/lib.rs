//! # khaos-core — the Khaos inter-procedural obfuscator
//!
//! Reproduction of the CGO 2023 paper *"Khaos: The Impact of
//! Inter-procedural Code Obfuscation on Binary Diffing Techniques"*.
//!
//! Khaos moves code **across** functions and lets ordinary compiler
//! optimization re-shape the result:
//!
//! * [`fission()`] separates a function into `sepFunc`s and a `remFunc`
//!   (paper §3.2): dominator-subtree region identification driven by a
//!   cost/effect ratio, pointer-parameter data-flow rebuild with a
//!   lazy-allocation reduction, and exit-code-encoded control-flow rebuild.
//! * [`fusion()`] aggregates pairs of functions into a `fusFunc`
//!   (paper §3.3): compatible-return selection, parameter-list
//!   compression, a `ctrl` selector, **tagged pointers** on bits 2–3 of
//!   16-byte-aligned function addresses for indirect calls, trampolines
//!   for escaping/exported functions, and **deep fusion** of innocuous
//!   basic blocks.
//! * The combinations [`fufi_sep`], [`fufi_ori`] and [`fufi_all`]
//!   (paper §3.4).
//!
//! All randomness (fusion pairing) flows from the seed in
//! [`KhaosContext`]; obfuscation is fully deterministic.
//!
//! ## Building through pipelines
//!
//! The primary interface to these transforms is the `khaos-pass`
//! pipeline API: each entry point has an adapter pass and a spec atom
//! (`fission`, `fusion(arity=3)`, `fufi_all`, …), so a whole build is
//! one declarative, fingerprinted `Pipeline` — e.g.
//! `"fufi_all | O2+lto"` — sharing a single seeded `PassCtx` RNG
//! stream. The free functions below remain as thin compatibility
//! wrappers and are seed-equivalent to the adapters (byte-identical
//! printed modules for the same seed).
//!
//! ```
//! use khaos_core::{fission, KhaosContext};
//! use khaos_ir::{builder::FunctionBuilder, Module, Operand, Type, CmpPred, BinOp};
//!
//! let mut m = Module::new("demo");
//! // ... build a module (see the examples/ directory for full programs)
//! # let mut fb = FunctionBuilder::new("main", Type::I64);
//! # fb.ret(Some(Operand::const_int(Type::I64, 0)));
//! # m.push_function(fb.finish());
//! let mut ctx = KhaosContext::new(0xC60);
//! fission(&mut m, &mut ctx).unwrap();
//! assert!(khaos_ir::verify::verify_module(&m).is_ok());
//! ```

pub mod fission;
pub mod fusion;
pub mod stats;

use khaos_ir::Module;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

pub use stats::{FissionStats, FusionStats};

/// Failure modes of the obfuscator.
#[derive(Clone, Debug, PartialEq)]
pub enum KhaosError {
    /// The module failed verification after a transformation — a bug in
    /// the obfuscator; the message carries the verifier report.
    InvalidResult(String),
    /// An N-way fusion arity outside the tag-bit budget of `2..=4`
    /// (paper §A.1 leaves three usable pointer bits).
    UnsupportedArity(usize),
}

impl fmt::Display for KhaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KhaosError::InvalidResult(m) => write!(f, "obfuscation produced invalid IR: {m}"),
            KhaosError::UnsupportedArity(k) => {
                write!(f, "fusion arity {k} outside the supported range 2..=4")
            }
        }
    }
}

impl std::error::Error for KhaosError {}

/// Tuning knobs for the two primitives.
#[derive(Clone, Debug)]
pub struct KhaosOptions {
    /// Minimum number of basic blocks a region must contain (the paper's
    /// "effect" floor; tiny regions are not worth a call).
    pub fission_min_blocks: usize,
    /// Minimum cost-effectiveness (`effect / cost`) for a region to be
    /// separated. Lower values separate hotter regions (more overhead).
    pub fission_min_value: f64,
    /// Upper bound on regions separated per function.
    pub fission_max_regions: usize,
    /// The data-flow reduction of §3.2.2 (lazy allocation of locals that
    /// are only used inside a region). Disable for the ablation bench.
    pub data_flow_reduction: bool,
    /// Parameter-list compression of §3.3.2. Disable for the ablation.
    pub parameter_compression: bool,
    /// Deep fusion of innocuous blocks (§3.3.4). Disable for the ablation.
    pub deep_fusion: bool,
    /// Maximum innocuous-block pairs merged per fused function.
    pub deep_fusion_max_pairs: usize,
    /// Prefer fusion pairs whose combined parameter count stays within the
    /// six register slots (§3.3.2).
    pub prefer_register_args: bool,
}

impl Default for KhaosOptions {
    fn default() -> Self {
        KhaosOptions {
            fission_min_blocks: 2,
            fission_min_value: 2.0,
            fission_max_regions: 3,
            data_flow_reduction: true,
            parameter_compression: true,
            deep_fusion: true,
            deep_fusion_max_pairs: 2,
            prefer_register_args: true,
        }
    }
}

/// Seeded context threaded through every transformation; collects the
/// Table-2 statistics as it goes.
#[derive(Debug)]
pub struct KhaosContext {
    pub(crate) rng: StdRng,
    /// Options in effect.
    pub options: KhaosOptions,
    /// Fission counters (paper Table 2, upper half).
    pub fission_stats: FissionStats,
    /// Fusion counters (paper Table 2, lower half).
    pub fusion_stats: FusionStats,
}

impl KhaosContext {
    /// A context with default options.
    pub fn new(seed: u64) -> Self {
        Self::with_options(seed, KhaosOptions::default())
    }

    /// A context with explicit options.
    pub fn with_options(seed: u64, options: KhaosOptions) -> Self {
        Self::from_rng(StdRng::seed_from_u64(seed), options)
    }

    /// A context over an externally-owned RNG stream. This is the hook
    /// the `khaos-pass` pipeline adapters use: a pipeline threads **one**
    /// seeded stream through every pass, lending it to each transform in
    /// turn, so a pass sequence consumes randomness exactly as the
    /// monolithic legacy entry points did.
    pub fn from_rng(rng: StdRng, options: KhaosOptions) -> Self {
        KhaosContext {
            rng,
            options,
            fission_stats: FissionStats::default(),
            fusion_stats: FusionStats::default(),
        }
    }

    /// Decomposes the context into its RNG stream and the collected
    /// statistics — the counterpart of [`KhaosContext::from_rng`] for
    /// handing the stream (and the Table-2 counters) back to a pipeline
    /// context.
    pub fn into_parts(self) -> (StdRng, FissionStats, FusionStats) {
        (self.rng, self.fission_stats, self.fusion_stats)
    }
}

fn check(m: &Module) -> Result<(), KhaosError> {
    khaos_ir::verify::verify_module(m).map_err(|errs| {
        let mut s = String::new();
        for e in errs.iter().take(8) {
            s.push_str(&format!("{e}; "));
        }
        KhaosError::InvalidResult(s)
    })
}

/// Applies the fission primitive to every eligible function in `m`.
///
/// # Errors
/// Returns [`KhaosError::InvalidResult`] if the transformed module fails
/// verification (an internal bug, surfaced rather than hidden).
pub fn fission(m: &mut Module, ctx: &mut KhaosContext) -> Result<(), KhaosError> {
    fission::run(m, ctx);
    check(m)
}

/// Applies the fusion primitive, randomly pairing all eligible functions.
///
/// # Errors
/// Returns [`KhaosError::InvalidResult`] if the transformed module fails
/// verification.
pub fn fusion(m: &mut Module, ctx: &mut KhaosContext) -> Result<(), KhaosError> {
    fusion::run(m, ctx, |f| {
        f.provenance.kind != khaos_ir::ProvKind::Trampoline
    });
    check(m)
}

/// N-way fusion (extension): aggregates groups of up to `arity`
/// functions into each `fusFunc`.
///
/// The paper fixes the arity at two "to balance the performance overhead
/// and the obfuscation effect" (§3.3) but notes the primitive generalizes;
/// this entry point implements the general form, with the arity ceiling
/// of [`fusion::MAX_ARITY`] dictated by the §A.1 tag-bit budget. The
/// arity-sweep experiment (`experiments ext-arity`) quantifies the
/// trade-off the paper predicts.
///
/// # Errors
/// Returns [`KhaosError::UnsupportedArity`] when `arity` is outside
/// `2..=4`, or [`KhaosError::InvalidResult`] on verifier failure.
pub fn fusion_n(m: &mut Module, ctx: &mut KhaosContext, arity: usize) -> Result<(), KhaosError> {
    if !(2..=fusion::MAX_ARITY).contains(&arity) {
        return Err(KhaosError::UnsupportedArity(arity));
    }
    fusion::nway::run_n(m, ctx, arity, |f| {
        f.provenance.kind != khaos_ir::ProvKind::Trampoline
    });
    check(m)
}

/// FuFi.all at a chosen fusion arity (extension): fission, then N-way
/// fusion over both `sepFunc`s and untouched originals.
///
/// `fufi_n(m, ctx, 2)` is the arity-2 analogue of [`fufi_all`]; higher
/// arities push the obfuscation-effect-first profile of §3.4 further at
/// the overhead cost measured in `experiments ext-arity`.
///
/// # Errors
/// Returns [`KhaosError::UnsupportedArity`] when `arity` is outside
/// `2..=4`, or [`KhaosError::InvalidResult`] on verifier failure.
pub fn fufi_n(m: &mut Module, ctx: &mut KhaosContext, arity: usize) -> Result<(), KhaosError> {
    if !(2..=fusion::MAX_ARITY).contains(&arity) {
        return Err(KhaosError::UnsupportedArity(arity));
    }
    fission::run(m, ctx);
    fusion::nway::run_n(m, ctx, arity, |f| {
        matches!(
            f.provenance.kind,
            khaos_ir::ProvKind::Sep | khaos_ir::ProvKind::Original
        )
    });
    check(m)
}

/// FuFi.sep: fission, then fusion restricted to the generated `sepFunc`s.
/// Indirect-call handling is moot here — `sepFunc`s are never
/// address-taken (paper §3.4).
///
/// # Errors
/// Returns [`KhaosError::InvalidResult`] on verifier failure.
pub fn fufi_sep(m: &mut Module, ctx: &mut KhaosContext) -> Result<(), KhaosError> {
    fission::run(m, ctx);
    fusion::run(m, ctx, |f| f.provenance.kind == khaos_ir::ProvKind::Sep);
    check(m)
}

/// FuFi.ori: fission, then fusion restricted to functions fission left
/// untouched (e.g. single-block functions) — the balanced mode the paper
/// recommends for most real-world software (§3.4).
///
/// # Errors
/// Returns [`KhaosError::InvalidResult`] on verifier failure.
pub fn fufi_ori(m: &mut Module, ctx: &mut KhaosContext) -> Result<(), KhaosError> {
    fission::run(m, ctx);
    fusion::run(m, ctx, |f| {
        f.provenance.kind == khaos_ir::ProvKind::Original
    });
    check(m)
}

/// FuFi.all: fission, then fusion over both `sepFunc`s and untouched
/// originals, uniformly and randomly — obfuscation effect first (§3.4).
///
/// # Errors
/// Returns [`KhaosError::InvalidResult`] on verifier failure.
pub fn fufi_all(m: &mut Module, ctx: &mut KhaosContext) -> Result<(), KhaosError> {
    fission::run(m, ctx);
    fusion::run(m, ctx, |f| {
        matches!(
            f.provenance.kind,
            khaos_ir::ProvKind::Sep | khaos_ir::ProvKind::Original
        )
    });
    check(m)
}

/// The Khaos build modes evaluated in the paper's figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KhaosMode {
    /// Fission only.
    Fission,
    /// Fusion only.
    Fusion,
    /// Fission + fusion of sepFuncs.
    FuFiSep,
    /// Fission + fusion of untouched originals.
    FuFiOri,
    /// Fission + fusion of everything.
    FuFiAll,
}

impl KhaosMode {
    /// All modes in the paper's presentation order.
    pub const ALL: [KhaosMode; 5] = [
        KhaosMode::Fission,
        KhaosMode::Fusion,
        KhaosMode::FuFiSep,
        KhaosMode::FuFiOri,
        KhaosMode::FuFiAll,
    ];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            KhaosMode::Fission => "Fission",
            KhaosMode::Fusion => "Fusion",
            KhaosMode::FuFiSep => "FuFi.sep",
            KhaosMode::FuFiOri => "FuFi.ori",
            KhaosMode::FuFiAll => "FuFi.all",
        }
    }

    /// Applies this mode to `m`.
    ///
    /// # Errors
    /// Returns [`KhaosError::InvalidResult`] on verifier failure.
    pub fn apply(self, m: &mut Module, ctx: &mut KhaosContext) -> Result<(), KhaosError> {
        match self {
            KhaosMode::Fission => fission(m, ctx),
            KhaosMode::Fusion => fusion(m, ctx),
            KhaosMode::FuFiSep => fufi_sep(m, ctx),
            KhaosMode::FuFiOri => fufi_ori(m, ctx),
            KhaosMode::FuFiAll => fufi_all(m, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_is_deterministic() {
        use rand::Rng;
        let mut a = KhaosContext::new(7);
        let mut b = KhaosContext::new(7);
        let xa: u64 = a.rng.gen();
        let xb: u64 = b.rng.gen();
        assert_eq!(xa, xb);
    }

    #[test]
    fn mode_names_match_paper() {
        assert_eq!(KhaosMode::FuFiSep.name(), "FuFi.sep");
        assert_eq!(KhaosMode::ALL.len(), 5);
    }
}
