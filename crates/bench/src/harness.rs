//! Shared experiment plumbing: build pipelines, measurement, statistics,
//! and the parallel fan-out helpers the experiment drivers use to spread
//! build-config × workload × tool grids across cores.
//!
//! Every module the drivers evaluate is built through a
//! [`khaos_pass::Pipeline`]: [`BuildConfig`] is a thin name → spec
//! table, and the historical helpers ([`build_baseline`],
//! [`khaos_apply`], [`obfuscate_ollvm`], …) are wrappers over
//! [`run_spec`]. Binaries built for diffing carry the pipeline's
//! fingerprint as build provenance (see [`build_binary`]), so the
//! process-wide `khaos-diff` embedding cache is safely shared across
//! drivers that rebuild the same (program, pipeline) pair.
//!
//! ## Persistent artifacts
//!
//! When the `KHAOS_STORE` environment variable names a directory, the
//! whole harness runs against that persistent artifact store
//! ([`artifact_store`]): the embedding cache behind every metric call
//! tiers memory → disk → compute (so fig6–fig11/table2 sweeps
//! warm-start across processes), [`run_spec`] persists each build's
//! [`khaos_pass::PipelineReport`] keyed by the pipeline's fingerprint,
//! and drivers can attach metric results to the same keys via
//! [`persist_metrics`]. Store writes are atomic renames, so concurrent
//! [`par_fan_out`] workers share one store safely.
//!
//! ## Build and run memos
//!
//! The figures build the same programs under the same configurations
//! again and again: in one `experiments --quick all` run, 402 of the
//! 602 [`run_spec`] builds repeat a build already made, and 103 of the
//! 212 [`measure_cycles`] runs repeat a VM run. Two memos remove that
//! work. Both key on [`Module::content_fingerprint`], never on a
//! program's name: FNV-1a over the module's printed text IR, which the
//! printer streams into the hash without ever building the text.
//!
//! * **Build memo** (in the store). [`run_spec`] keys each build by
//!   `(source content fingerprint, Pipeline::fingerprint(), seed,
//!   BUILD_MEMO_VERSION)` and records it as a `bld/` store record: the
//!   built module as text IR plus its [`FissionStats`]/[`FusionStats`]
//!   counters. A hit parses the module back — the printer and parser
//!   round-trip, so it equals the rebuild — and returns the same Table-2
//!   counters; a hit writes no report, since the miss that recorded the
//!   build wrote it. Every record was written by a build that passed
//!   [`VerifyPolicy::AuditAfterEach`]; a damaged or unparsable record is
//!   a miss and is rebuilt. Without `KHAOS_STORE` there is no build
//!   memo: the store is where it lives. [`BUILD_MEMO_VERSION`] guards
//!   against stale builds in warm stores (see its docs).
//! * **Run memo** (in memory). [`measure_cycles`] keeps a process-wide
//!   map from module content fingerprint to the run's cycles, output
//!   digest and exit code, four words per distinct module. The figures'
//!   overheads come from [`checked_overhead`], which compares each
//!   obfuscated run's output and exit code with its baseline's before
//!   it reports a number.
//!
//! There is deliberately **no in-memory module tier**. Every repeat
//! build crosses figure targets (all 126 of ext-dataflow's builds
//! repeat earlier figures), so only an unbounded tier catches them, and
//! one that kept all 200 built modules (21.5 MB of text) resident
//! raised the peak RSS of `--quick all` from 105 to 127 MB, while the
//! store tier plus the run memo gave the larger saving (wall time −30%
//! against −20%) at an unchanged peak (2-core x86-64 host).
//!
//! ## Grids and elastic workers
//!
//! Figure 7, Figure 9, Figure 10 and Table 2 are grids ([`crate::grid`]):
//! every cell is a deterministic function of `(program, config, seed)`
//! and persists under its own report key. Any number of `--elastic`
//! workers on machines sharing a `KHAOS_STORE` split a grid between
//! them through a leased work queue in the store
//! ([`crate::coordinator`]): they claim open units with atomic claim
//! files, steal stale claims from dead peers after the lease horizon,
//! and converge on one complete grid. `figN-merge` decodes the grid
//! from any union of stores, and workers, stealers and even
//! double-computed cells merge bit-identically.

use khaos_binary::{lower_module, Binary};
use khaos_core::{FissionStats, FusionStats, KhaosMode};
use khaos_ir::{parser, printer, Module};
use khaos_obs::Counter;
use khaos_ollvm::OllvmMode;
use khaos_opt::OptLevel;
use khaos_pass::{PassCtx, Pipeline, PipelineReport, VerifyPolicy};
use khaos_store::{BuildKey, Store, StoredBuild, StoredReport};
use khaos_vm::{run_with_config, RunConfig, RunResult};
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// The obfuscation seed used across all experiments (determinism).
pub const SEED: u64 = 0xC60_2023;

/// The spec atom of a Khaos mode (the obfuscation half of its build
/// pipeline).
pub fn khaos_atom(mode: KhaosMode) -> &'static str {
    match mode {
        KhaosMode::Fission => "fission",
        KhaosMode::Fusion => "fusion",
        KhaosMode::FuFiSep => "fufi_sep",
        KhaosMode::FuFiOri => "fufi_ori",
        KhaosMode::FuFiAll => "fufi_all",
    }
}

/// The spec atom of an O-LLVM mode.
pub fn ollvm_atom(mode: OllvmMode) -> String {
    match mode {
        OllvmMode::Sub(r) if r >= 1.0 => "sub".into(),
        OllvmMode::Bog(r) if r >= 1.0 => "bog".into(),
        OllvmMode::Fla(r) if r >= 1.0 => "fla".into(),
        OllvmMode::Sub(r) => format!("sub(ratio={r})"),
        OllvmMode::Bog(r) => format!("bog(ratio={r})"),
        OllvmMode::Fla(r) => format!("fla(ratio={r})"),
    }
}

/// One build configuration evaluated in the figures — a *name* for a
/// pipeline spec ([`BuildConfig::spec`]), nothing more.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BuildConfig {
    /// Un-obfuscated baseline at `O2 + LTO` (the paper's baseline).
    Baseline,
    /// An O-LLVM transform over the baseline.
    Ollvm(OllvmMode),
    /// A Khaos mode over the baseline.
    Khaos(KhaosMode),
}

impl BuildConfig {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> String {
        match self {
            BuildConfig::Baseline => "Baseline".into(),
            BuildConfig::Ollvm(m) => m.name(),
            BuildConfig::Khaos(m) => m.name().into(),
        }
    }

    /// The pipeline spec applied **on top of the optimized baseline**:
    /// the obfuscation atom followed by the rest of the compiler
    /// pipeline (`O2+lto` again), or the empty (identity) pipeline for
    /// the baseline itself.
    pub fn spec(&self) -> String {
        match self {
            BuildConfig::Baseline => String::new(),
            BuildConfig::Ollvm(m) => format!("{} | O2+lto", ollvm_atom(*m)),
            BuildConfig::Khaos(m) => format!("{} | O2+lto", khaos_atom(*m)),
        }
    }

    /// The parsed pipeline for [`BuildConfig::spec`].
    pub fn pipeline(&self) -> Pipeline {
        let spec = self.spec();
        Pipeline::parse(&spec).unwrap_or_else(|e| panic!("config spec `{spec}`: {e}"))
    }

    /// The build-provenance fingerprint of this configuration
    /// ([`Pipeline::fingerprint`] of [`BuildConfig::spec`]). Distinct
    /// configurations — including the same transform at different
    /// knobs, e.g. `Fla(0.1)` vs `Fla(1.0)` — have distinct
    /// fingerprints.
    pub fn fingerprint(&self) -> u64 {
        self.pipeline().fingerprint()
    }

    /// The eight obfuscated configurations of Figure 8/11, in order.
    pub fn figure8_set() -> Vec<BuildConfig> {
        let mut v: Vec<BuildConfig> = OllvmMode::STANDARD
            .iter()
            .map(|m| BuildConfig::Ollvm(*m))
            .collect();
        v.extend(KhaosMode::ALL.iter().map(|m| BuildConfig::Khaos(*m)));
        v
    }
}

/// The artifact store configured by `KHAOS_STORE`, shared with the
/// process-wide `khaos-diff` embedding cache (whose disk tier it is).
/// `None` when no store is configured — every persistence helper in
/// this module is then a no-op.
pub fn artifact_store() -> Option<Arc<Store>> {
    // Routing through the cache (rather than `Store::from_env`
    // directly) keeps exactly one `Store` per process and ensures the
    // disk tier is attached before the first metric call.
    khaos_diff::EmbeddingCache::global().store()
}

/// Converts a pipeline report into its persistent form, stamped with
/// the subject it was measured on (a thin re-export of
/// [`StoredReport::from_pipeline`] so drivers only need `khaos-bench`).
pub fn stored_report(subject: &str, report: &PipelineReport) -> StoredReport {
    StoredReport::from_pipeline(subject, report)
}

/// Persists metric results for a build, keyed by the pipeline's
/// fingerprint, the experiment seed and a free-form subject (program
/// name, experiment cell, …). No-op without a configured store; store
/// errors are swallowed — persistence must never fail an experiment.
pub fn persist_metrics(subject: &str, pipeline_fingerprint: u64, metrics: &[(&str, f64)]) {
    if let Some(store) = artifact_store() {
        persist_metrics_to(&store, subject, pipeline_fingerprint, metrics);
    }
}

/// [`persist_metrics`] into an explicit store — the form the grid
/// runner uses so tests can target scratch stores without touching the
/// process-wide `KHAOS_STORE` state. Store errors are swallowed here
/// too: persistence must never fail an experiment.
pub fn persist_metrics_to(
    store: &Store,
    subject: &str,
    pipeline_fingerprint: u64,
    metrics: &[(&str, f64)],
) {
    let report = StoredReport {
        spec: String::new(),
        pipeline: pipeline_fingerprint,
        seed: SEED,
        subject: subject.to_string(),
        total_micros: 0,
        passes: Vec::new(),
        metrics: metrics.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
    };
    let _ = store.put_report(&report);
}

/// Version of the build memo, mixed into every [`BuildKey`]. A memo
/// hit skips the pass code, so a change that alters what a pipeline
/// builds without changing any fingerprint must bump this constant —
/// together with the build digests pinned in `tests/build_memo.rs`,
/// which fail when pass output changes — or warm stores would serve
/// stale builds. A change to the order or number of the counters a
/// record carries ([`STATS_COUNTERS`]) bumps it too.
pub const BUILD_MEMO_VERSION: u64 = 1;

/// The names of a build's Table-2 counters, in the order
/// [`stats_counters`] lists them: the raw [`FissionStats`] and
/// [`FusionStats`] fields, not the derived ratios (counters sum across
/// programs; ratios do not).
pub(crate) const STATS_COUNTERS: [&str; 14] = [
    "fi/ori_funcs",
    "fi/fissioned_funcs",
    "fi/sep_funcs",
    "fi/sep_blocks",
    "fi/reduced_ratio_sum",
    "fi/params_reduced",
    "fu/eligible_funcs",
    "fu/fused_funcs",
    "fu/fus_funcs",
    "fu/params_removed",
    "fu/innocuous_blocks",
    "fu/deep_fused_pairs",
    "fu/trampolines",
    "fu/indirect_sites_rewritten",
];

/// The counters of `fi` and `fu` in [`STATS_COUNTERS`] order. Counts
/// round-trip exactly through `f64` (they are far below 2^53), and
/// `reduced_ratio_sum` is carried bit for bit.
pub(crate) fn stats_counters(fi: &FissionStats, fu: &FusionStats) -> [f64; 14] {
    [
        fi.ori_funcs as f64,
        fi.fissioned_funcs as f64,
        fi.sep_funcs as f64,
        fi.sep_blocks as f64,
        fi.reduced_ratio_sum,
        fi.params_reduced as f64,
        fu.eligible_funcs as f64,
        fu.fused_funcs as f64,
        fu.fus_funcs as f64,
        fu.params_removed as f64,
        fu.innocuous_blocks as f64,
        fu.deep_fused_pairs as f64,
        fu.trampolines as f64,
        fu.indirect_sites_rewritten as f64,
    ]
}

/// Inverse of [`stats_counters`].
///
/// # Panics
/// Panics when `v` holds fewer than 14 values.
pub(crate) fn stats_from_counters(v: &[f64]) -> (FissionStats, FusionStats) {
    (
        FissionStats {
            ori_funcs: v[0] as usize,
            fissioned_funcs: v[1] as usize,
            sep_funcs: v[2] as usize,
            sep_blocks: v[3] as usize,
            reduced_ratio_sum: v[4],
            params_reduced: v[5] as usize,
        },
        FusionStats {
            eligible_funcs: v[6] as usize,
            fused_funcs: v[7] as usize,
            fus_funcs: v[8] as usize,
            params_removed: v[9] as usize,
            innocuous_blocks: v[10] as usize,
            deep_fused_pairs: v[11] as usize,
            trampolines: v[12] as usize,
            indirect_sites_rewritten: v[13] as usize,
        },
    )
}

/// Hit/miss counters of one memo tier in the global metrics registry.
struct MemoObs {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl MemoObs {
    fn new(prefix: &str) -> MemoObs {
        let r = khaos_obs::Registry::global();
        MemoObs {
            hits: r.counter(&format!("{prefix}.memo.hits")),
            misses: r.counter(&format!("{prefix}.memo.misses")),
        }
    }
}

fn build_memo_obs() -> &'static MemoObs {
    static OBS: OnceLock<MemoObs> = OnceLock::new();
    OBS.get_or_init(|| MemoObs::new("pass"))
}

/// The module and Table-2 counters of a memoized build, or `None` when
/// the record is missing, damaged, or does not parse — every such case
/// is a miss that rebuilds (and rewrites) the record. Runs inside the
/// caller's `memo:build_load` span.
fn load_build(store: &Store, key: &BuildKey) -> Option<(Module, PassCtx)> {
    let build = store.get_build(key).ok()??;
    if build.stats.len() != STATS_COUNTERS.len() {
        return None;
    }
    let m = parser::parse_module(&build.module).ok()?;
    let mut ctx = PassCtx::new(key.seed).with_verify(VerifyPolicy::AuditAfterEach);
    (ctx.fission_stats, ctx.fusion_stats) = stats_from_counters(&build.stats);
    Some((m, ctx))
}

/// Runs a pipeline spec over a clone of `src` with a fresh context
/// seeded `seed`, verifying *and semantically auditing* after every
/// pass ([`VerifyPolicy::AuditAfterEach`]) — stricter than the legacy
/// entry points, which only verified structural well-formedness right
/// after the obfuscation transform: every pass must now also preserve
/// the module's observable-behavior summary (reachable external calls,
/// global read/write/escape sets, exported signatures), so a
/// structurally valid miscompile fails loudly *before* the `O2+lto`
/// re-optimization could reshape the evidence. Returns the built
/// module and the context (Table-2 statistics).
///
/// With an [`artifact_store`] configured, builds are memoized in it
/// (see [`run_spec_in`]).
///
/// # Panics
/// Panics when the spec does not parse or the pipeline produces invalid
/// IR — both are harness bugs, surfaced loudly.
pub fn run_spec(src: &Module, spec: &str, seed: u64) -> (Module, PassCtx) {
    run_spec_in(artifact_store().as_deref(), src, spec, seed)
}

/// [`run_spec`] against an explicit store (or none).
///
/// With a store, a non-empty pipeline's build is memoized under
/// `(src content fingerprint, pipeline fingerprint, seed,
/// BUILD_MEMO_VERSION)`: a hit returns the recorded module and Table-2
/// counters without running a pass; a miss builds, then records the
/// build and its [`khaos_pass::PipelineReport`] (keyed by
/// `(pipeline fingerprint, seed, program name)`). A hit writes no
/// report: the miss that recorded the build wrote it. A hit's context
/// carries the recorded counters and an unspent RNG stream, so callers
/// read only its statistics. Without a store every call builds.
///
/// # Panics
/// As [`run_spec`].
pub fn run_spec_in(
    store: Option<&Store>,
    src: &Module,
    spec: &str,
    seed: u64,
) -> (Module, PassCtx) {
    let pipeline = Pipeline::parse(spec).unwrap_or_else(|e| panic!("spec `{spec}`: {e}"));
    // The identity pipeline costs a clone: memoizing it would cost more.
    let mut memo = None;
    if let Some(store) = store.filter(|_| !pipeline.is_empty()) {
        // The span covers the key too: the source fingerprint is part of
        // what a lookup costs.
        let span = khaos_obs::span("memo:build_load");
        let key = BuildKey {
            source: src.content_fingerprint(),
            pipeline: pipeline.fingerprint(),
            seed,
            version: BUILD_MEMO_VERSION,
        };
        let hit = load_build(store, &key);
        drop(span);
        if let Some(hit) = hit {
            build_memo_obs().hits.inc();
            return hit;
        }
        build_memo_obs().misses.inc();
        memo = Some((store, key));
    }
    let mut m = src.clone();
    let mut ctx = PassCtx::new(seed).with_verify(VerifyPolicy::AuditAfterEach);
    let report = pipeline
        .run(&mut m, &mut ctx)
        .unwrap_or_else(|e| panic!("pipeline `{spec}` on {}: {e}", src.name));
    if let Some(store) = store {
        let _ = store.put_report(&stored_report(&src.name, &report));
    }
    if let Some((store, key)) = &memo {
        let _span = khaos_obs::span("memo:build_store");
        let build = StoredBuild {
            module: printer::print_module(&m),
            stats: stats_counters(&ctx.fission_stats, &ctx.fusion_stats).to_vec(),
        };
        let _ = store.put_build(key, &build);
    }
    (m, ctx)
}

/// Optimizes a freshly-generated module at the paper's baseline level
/// (`O2` with LTO).
pub fn build_baseline(src: &Module) -> Module {
    run_spec(src, "O2+lto", SEED).0
}

/// Builds at an explicit optimization level without LTO (Figure 9 axes).
pub fn build_at(src: &Module, level: OptLevel) -> Module {
    run_spec(src, level.name(), SEED).0
}

/// Applies a Khaos mode to an already-optimized module, followed by the
/// rest of the compiler pipeline (`O2 + LTO` again): Khaos schedules its
/// passes in the middle-end *before* the regular optimizations, so the
/// inliner runs over the restructured code — thinned `remFunc`s get
/// inlined into their callers and disappear (the paper's negative
/// overhead cases), while `sepFunc`s/`fusFunc`s are pinned `noinline`.
pub fn khaos_apply(baseline: &Module, mode: KhaosMode, seed: u64) -> (Module, PassCtx) {
    run_spec(baseline, &format!("{} | O2+lto", khaos_atom(mode)), seed)
}

/// Applies the N-way fusion extension (arity 2–4) at the same pipeline
/// position as [`khaos_apply`] (for the `ext-arity` sweep).
///
/// # Panics
/// Panics when the arity is outside `2..=4` or the transform produces
/// invalid IR (both are harness bugs, surfaced loudly).
pub fn khaos_apply_nway(baseline: &Module, arity: usize, seed: u64) -> (Module, PassCtx) {
    // `fusion_n`, not `fusion(arity=..)`: the sweep must hold the N-way
    // group-building driver fixed across arity 2..=4 (at arity 2 the
    // pairwise `fusion` atom is a different pairing algorithm).
    run_spec(baseline, &format!("fusion_n(arity={arity}) | O2+lto"), seed)
}

/// Applies an O-LLVM mode to an already-optimized module (same pipeline
/// position and post-pass optimization as Khaos).
pub fn obfuscate_ollvm(baseline: &Module, mode: OllvmMode, seed: u64) -> Module {
    run_spec(baseline, &format!("{} | O2+lto", ollvm_atom(mode)), seed).0
}

/// Builds the module for `config` from an optimized baseline.
pub fn build_config(baseline: &Module, config: BuildConfig) -> Module {
    run_spec(baseline, &config.spec(), SEED).0
}

/// Builds and lowers `config`, stamping the binary with the pipeline's
/// fingerprint as build provenance — the form the diffing drivers feed
/// to `khaos-diff`, whose embedding cache keys on the provenance-mixed
/// binary fingerprint.
pub fn build_binary(baseline: &Module, config: BuildConfig) -> Binary {
    lower_module(&build_config(baseline, config)).with_build_provenance(config.fingerprint())
}

/// What the run memo keeps of one run: its cycles and its behaviour.
#[derive(Clone, Copy, Debug, PartialEq)]
struct RunFacts {
    cycles: u64,
    /// A digest of everything the run printed.
    output: u64,
    exit_code: i64,
}

/// Runs `m` once per process: the facts are memoized by the module's
/// content fingerprint.
fn run_facts(m: &Module) -> RunFacts {
    static MEMO: OnceLock<Mutex<HashMap<u64, RunFacts>>> = OnceLock::new();
    static OBS: OnceLock<MemoObs> = OnceLock::new();
    let memo = MEMO.get_or_init(Default::default);
    let obs = OBS.get_or_init(|| MemoObs::new("vm"));
    let key = m.content_fingerprint();
    if let Some(&facts) = memo.lock().expect("run memo").get(&key) {
        obs.hits.inc();
        return facts;
    }
    obs.misses.inc();
    let r = run_vm(m);
    let mut output = DefaultHasher::new();
    r.output.hash(&mut output);
    let facts = RunFacts {
        cycles: r.cycles,
        output: output.finish(),
        exit_code: r.exit_code,
    };
    memo.lock().expect("run memo").insert(key, facts);
    facts
}

/// Simulated runtime of a module in cycles, memoized for the life of
/// the process by the module's content fingerprint: a module the
/// drivers already ran is not run again.
///
/// # Panics
/// Panics when the program faults — obfuscated programs must run.
pub fn measure_cycles(m: &Module) -> u64 {
    run_facts(m).cycles
}

/// Percentage overhead of `obf` relative to `base`, from memoized runs
/// of both ([`measure_cycles`]) — but only when `obf` behaves like
/// `base`: a figure never reports the overhead of a build that computes
/// something else.
///
/// # Panics
/// Panics, naming the program and the module, when `obf`'s output or
/// exit code differs from `base`'s, or when either faults.
pub fn checked_overhead(base: &Module, obf: &Module) -> f64 {
    let (b, o) = (run_facts(base), run_facts(obf));
    if (o.output, o.exit_code) != (b.output, b.exit_code) {
        panic!(
            "{}: module `{}` ({:016x}) diverges from its baseline: output digest \
             {:016x} vs {:016x}, exit code {} vs {}",
            base.name,
            obf.name,
            obf.content_fingerprint(),
            o.output,
            b.output,
            o.exit_code,
            b.exit_code
        );
    }
    overhead_pct(b.cycles, o.cycles)
}

/// Simulated runtime of a module in cycles, always run on the VM (the
/// computation [`measure_cycles`] memoizes).
///
/// # Panics
/// As [`measure_cycles`].
pub fn run_cycles(m: &Module) -> u64 {
    run_vm(m).cycles
}

/// One VM run in the harness's configuration.
fn run_vm(m: &Module) -> RunResult {
    let _span = khaos_obs::span("vm:run");
    let cfg = RunConfig {
        inputs: vec![3, 7, 11],
        ..RunConfig::default()
    };
    run_with_config(m, cfg).unwrap_or_else(|e| panic!("{} failed to run: {e}", m.name))
}

/// Order-preserving parallel fan-out over experiment items (programs,
/// build configs, tool grids). Each item's work runs on a worker from
/// the `khaos-par` pool; results come back in input order so the
/// experiment drivers print rows deterministically. `KHAOS_THREADS=1`
/// forces sequential execution.
pub fn par_fan_out<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    khaos_par::par_map_slice(items, f)
}

/// Builds and measures the `O2+LTO` baseline of every program in
/// parallel, returning `(optimized module, baseline cycles)` pairs in
/// input order. Experiment drivers that sweep many configurations over
/// the same programs hoist this out of their config loops.
pub fn prepare_baselines(programs: &[Module]) -> Vec<(Module, u64)> {
    par_fan_out(programs, |src| {
        let base = build_baseline(src);
        let cycles = measure_cycles(&base);
        (base, cycles)
    })
}

/// Percentage overhead of `obf` relative to `base`.
pub fn overhead_pct(base: u64, obf: u64) -> f64 {
    (obf as f64 / base as f64 - 1.0) * 100.0
}

/// Geometric mean of `(1 + overhead_i)`, expressed again as a percentage
/// overhead — the paper's GEOMEAN columns.
pub fn geomean_ratio(overheads_pct: &[f64]) -> f64 {
    if overheads_pct.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = overheads_pct
        .iter()
        .map(|o| ((o / 100.0) + 1.0).max(1e-6).ln())
        .sum();
    ((log_sum / overheads_pct.len() as f64).exp() - 1.0) * 100.0
}

/// Plain geometric mean of positive values (similarity scores etc.).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-9).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_workloads::coreutils_program;

    #[test]
    fn geomean_ratio_matches_hand_calc() {
        // 10% and 21% -> sqrt(1.1*1.21) = 1.15369 -> 15.37%
        let g = geomean_ratio(&[10.0, 21.0]);
        assert!((g - 15.369).abs() < 0.01, "{g}");
        assert_eq!(geomean_ratio(&[]), 0.0);
    }

    #[test]
    fn negative_overheads_supported() {
        let g = geomean_ratio(&[-10.0, 10.0]);
        assert!(g < 0.5 && g > -1.5, "{g}");
    }

    #[test]
    fn overhead_pct_signs() {
        assert!((overhead_pct(100, 107) - 7.0).abs() < 1e-9);
        assert!((overhead_pct(100, 93) + 7.0).abs() < 1e-9);
    }

    /// `main` prints `printed`, runs `pad` multiplies and returns `exit`.
    fn printing(printed: i64, exit: i64, pad: usize) -> Module {
        use khaos_ir::builder::FunctionBuilder;
        use khaos_ir::{BinOp, ExtFunc, Operand, Type};
        let mut m = Module::new("prog");
        let print = m.declare_external(ExtFunc {
            name: "print_i64".into(),
            params: vec![Type::I64],
            ret_ty: Type::Void,
            variadic: false,
        });
        let mut f = FunctionBuilder::new("main", Type::I64);
        let one = Operand::const_int(Type::I64, 1);
        for _ in 0..pad {
            f.bin(BinOp::Mul, Type::I64, one, one);
        }
        f.call_ext(
            print,
            Type::Void,
            vec![Operand::const_int(Type::I64, printed)],
        );
        f.ret(Some(Operand::const_int(Type::I64, exit)));
        m.push_function(f.finish());
        m
    }

    #[test]
    fn checked_overhead_compares_behaviour() {
        let base = printing(7, 0, 0);
        let slower = printing(7, 0, 10);
        let oh = checked_overhead(&base, &slower);
        assert!(oh > 0.0);
        assert_eq!(oh, overhead_pct(run_cycles(&base), run_cycles(&slower)));
        let diverging = |obf: &Module| {
            std::panic::catch_unwind(|| checked_overhead(&base, obf))
                .expect_err("a diverging build has no overhead")
                .downcast::<String>()
                .expect("message")
        };
        let msg = diverging(&printing(8, 0, 10));
        assert!(msg.starts_with("prog: module `prog`"), "{msg}");
        assert!(msg.contains("diverges from its baseline"), "{msg}");
        let msg = diverging(&printing(7, 3, 10));
        assert!(msg.ends_with("exit code 3 vs 0"), "{msg}");
    }

    #[test]
    fn build_config_names_and_specs() {
        assert_eq!(BuildConfig::Khaos(KhaosMode::FuFiOri).name(), "FuFi.ori");
        assert_eq!(BuildConfig::figure8_set().len(), 8);
        assert_eq!(
            BuildConfig::Khaos(KhaosMode::FuFiOri).spec(),
            "fufi_ori | O2+lto"
        );
        assert_eq!(
            BuildConfig::Ollvm(OllvmMode::Fla(0.1)).spec(),
            "fla(ratio=0.1) | O2+lto"
        );
        assert_eq!(BuildConfig::Baseline.spec(), "");
        // Specs in the table all parse.
        for cfg in BuildConfig::figure8_set() {
            cfg.pipeline();
        }
    }

    #[test]
    fn distinct_configs_distinct_fingerprints() {
        let mut seen = std::collections::HashMap::new();
        let mut all = BuildConfig::figure8_set();
        all.push(BuildConfig::Baseline);
        all.push(BuildConfig::Ollvm(OllvmMode::Fla(1.0)));
        for cfg in all {
            if let Some(other) = seen.insert(cfg.fingerprint(), cfg) {
                panic!("{:?} and {:?} share a fingerprint", cfg, other);
            }
        }
    }

    #[test]
    fn pipeline_measures_deterministically() {
        let src = coreutils_program("cat", 6);
        let base = build_baseline(&src);
        assert_eq!(run_cycles(&base), run_cycles(&base));
        assert_eq!(measure_cycles(&base), run_cycles(&base));
        let (obf, _) = khaos_apply(&base, KhaosMode::FuFiOri, SEED);
        let _ = measure_cycles(&obf); // must not fault
    }

    #[test]
    fn build_binary_stamps_provenance() {
        let src = coreutils_program("ls", 1);
        let base = build_baseline(&src);
        let cfg = BuildConfig::Khaos(KhaosMode::Fission);
        let bin = build_binary(&base, cfg);
        assert_eq!(bin.build_provenance, cfg.fingerprint());
        let other = build_binary(&base, BuildConfig::Ollvm(OllvmMode::Sub(1.0)));
        assert_ne!(bin.build_provenance, other.build_provenance);
    }
}
