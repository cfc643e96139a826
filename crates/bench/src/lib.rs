//! # khaos-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§4).
//! Each `figN`/`tableN` function prints the same rows/series the paper
//! reports; ROADMAP.md, open item 5, tracks recording the measured
//! numbers next to the paper's. The `experiments` binary dispatches to
//! these functions.

pub mod coordinator;
pub mod experiments;
pub mod grid;
pub mod harness;

pub use coordinator::{run_elastic, ElasticSummary, WorkUnit};
pub use harness::{
    artifact_store, build_at, build_baseline, build_binary, build_config, checked_overhead,
    geomean, geomean_ratio, khaos_apply, khaos_apply_nway, khaos_atom, measure_cycles,
    obfuscate_ollvm, ollvm_atom, overhead_pct, par_fan_out, persist_metrics, persist_metrics_to,
    prepare_baselines, run_cycles, run_spec, run_spec_in, stored_report, BuildConfig,
    BUILD_MEMO_VERSION, SEED,
};
