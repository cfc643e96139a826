//! The per-figure / per-table experiment drivers.
//!
//! Every function prints the same rows or series the paper's artifact
//! reports. See `EXPERIMENTS.md` at the repository root for paper-vs-
//! measured notes.

use crate::coordinator::{run_elastic, run_elastic_with, ElasticSummary, WorkUnit};
use crate::harness::{
    active_shard, artifact_store, build_at, build_baseline, build_binary, build_config, geomean,
    geomean_ratio, khaos_apply, khaos_atom, measure_cycles, overhead_pct, par_fan_out,
    persist_metrics_to, run_spec, stats_counters, stats_from_counters, BuildConfig, ShardSpec,
    SEED, STATS_COUNTERS,
};
use khaos_binary::{histogram_distance, lower_module, opcode_histogram};
use khaos_bintuner::BinTuner;
use khaos_core::{FissionStats, FusionStats, KhaosMode};
use khaos_diff::{
    binary_similarity, deepbindiff_precision_at_1, escape_profile, precision_at_1, Asm2Vec,
    BinDiff, DeepBinDiff, Differ, Safe, VulSeeker,
};
use khaos_ir::Module;
use khaos_ollvm::OllvmMode;
use khaos_opt::OptLevel;
use khaos_store::{ReportKey, Store};
use khaos_workloads::{coreutils, spec2006, spec2017, tiii, TIII_CVES};

/// Scope knob: `--quick` trims the program sets so a laptop run finishes
/// in seconds; the default covers the full suites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Trimmed program sets.
    Quick,
    /// The full suites (T-I: 47 programs, T-II: 108, T-III: 5).
    Full,
}

fn t1_programs(scope: Scope) -> Vec<Module> {
    let mut v = spec2006();
    v.extend(spec2017());
    if scope == Scope::Quick {
        v.truncate(6);
    }
    v
}

fn t2_programs(scope: Scope) -> Vec<Module> {
    let mut v = coreutils();
    if scope == Scope::Quick {
        v.truncate(8);
    }
    v
}

/// Every program a `--quick` target builds, once each, in a fixed
/// order: the trimmed T-I, T-II and T-III sets and the Figure-9
/// programs (the Table-2 and ablation sets are prefixes of T-I).
pub fn quick_programs() -> Vec<Module> {
    let mut v = t1_programs(Scope::Quick);
    v.extend(t2_programs(Scope::Quick));
    v.extend(fig10_programs(Scope::Quick));
    for m in fig9_programs(Scope::Quick) {
        if !v.iter().any(|have| have.name == m.name) {
            v.push(m);
        }
    }
    v
}

/// Applies the active shard to a flattened work list, announcing the
/// partial coverage; un-sharded runs pass through untouched. Sharded
/// figure runs print their shard's rows only — aggregate rows
/// (GEOMEAN/averages) then cover the shard, not the suite, which the
/// note makes explicit.
fn shard_select<T>(shard: ShardSpec, what: &str, items: Vec<T>) -> Vec<T> {
    if shard.is_full() {
        return items;
    }
    let total = items.len();
    let owned = shard.select(items);
    println!(
        "# shard {shard}: measuring {} of {total} {what} (aggregates cover this shard only)",
        owned.len()
    );
    owned
}

/// **Figure 6** — runtime overhead of the five Khaos modes on the SPEC
/// CPU 2006/2017 stand-ins, per program plus geometric means.
pub fn fig6(scope: Scope) {
    println!("# Figure 6: runtime overhead (%) of Khaos modes, baseline O2+LTO");
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "program", "Fission", "Fusion", "FuFi.sep", "FuFi.ori", "FuFi.all"
    );
    let mut per_mode: Vec<Vec<f64>> = vec![Vec::new(); KhaosMode::ALL.len()];
    let programs = shard_select(active_shard(), "T-I programs", t1_programs(scope));
    // One worker per program: baseline + the five mode builds.
    let rows = par_fan_out(&programs, |src| {
        let base = build_baseline(src);
        let base_cycles = measure_cycles(&base);
        let ohs: Vec<f64> = KhaosMode::ALL
            .iter()
            .map(|mode| {
                let (obf, _) = khaos_apply(&base, *mode, SEED);
                overhead_pct(base_cycles, measure_cycles(&obf))
            })
            .collect();
        (src.name.clone(), ohs)
    });
    for (name, ohs) in rows {
        let mut row = format!("{name:<20}");
        for (k, oh) in ohs.into_iter().enumerate() {
            per_mode[k].push(oh);
            row.push_str(&format!(" {oh:>8.1}%"));
        }
        println!("{row}");
    }
    let mut row = format!("{:<20}", "GEOMEAN");
    for ohs in &per_mode {
        row.push_str(&format!(" {:>8.1}%", geomean_ratio(ohs)));
    }
    println!("{row}");
}

/// The nine configurations of Figure 7, in row order (O-LLVM's
/// Sub/Bog/Fla at 100%, Fla-10 at 10%, then the five Khaos modes).
pub fn fig7_configs() -> Vec<(String, BuildConfig)> {
    vec![
        ("Sub".into(), BuildConfig::Ollvm(OllvmMode::Sub(1.0))),
        ("Bog".into(), BuildConfig::Ollvm(OllvmMode::Bog(1.0))),
        ("Fla".into(), BuildConfig::Ollvm(OllvmMode::Fla(1.0))),
        ("Fla-10".into(), BuildConfig::Ollvm(OllvmMode::Fla(0.1))),
        ("Fission".into(), BuildConfig::Khaos(KhaosMode::Fission)),
        ("Fusion".into(), BuildConfig::Khaos(KhaosMode::Fusion)),
        ("FuFi.sep".into(), BuildConfig::Khaos(KhaosMode::FuFiSep)),
        ("FuFi.ori".into(), BuildConfig::Khaos(KhaosMode::FuFiOri)),
        ("FuFi.all".into(), BuildConfig::Khaos(KhaosMode::FuFiAll)),
    ]
}

/// The suites of Figure 7 (its GEOMEAN columns), trimmed under
/// `--quick`.
fn fig7_suites(scope: Scope) -> Vec<(&'static str, Vec<Module>)> {
    if scope == Scope::Quick {
        vec![("SPEC(quick)", t1_programs(scope))]
    } else {
        vec![("SPEC CPU 2006", spec2006()), ("SPEC CPU 2017", spec2017())]
    }
}

/// The `khaos-store` report subject of one Figure-7 cell.
pub fn fig7_subject(suite: &str, program: &str, config: &str) -> String {
    format!("fig7/{suite}/{program}/{config}")
}

/// One measured Figure-7 cell: the runtime overhead of `program`
/// (member of `suite`) built under `config`.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig7Cell {
    /// Suite the program belongs to (Figure-7 column group).
    pub suite: &'static str,
    /// Program name.
    pub program: String,
    /// Configuration display name (Figure-7 row).
    pub config: String,
    /// Configuration pipeline fingerprint (the report keyspace).
    pub pipeline: u64,
    /// Runtime overhead (%) against the `O2+LTO` baseline.
    pub overhead: f64,
}

impl Fig7Cell {
    /// The cell's store subject.
    pub fn subject(&self) -> String {
        fig7_subject(self.suite, &self.program, &self.config)
    }
}

/// The identity of one expected Figure-7 cell (no measurement).
#[derive(Clone, Debug, PartialEq)]
pub struct Fig7CellKey {
    /// Suite the program belongs to.
    pub suite: &'static str,
    /// Program name.
    pub program: String,
    /// Configuration display name.
    pub config: String,
    /// Configuration pipeline fingerprint.
    pub pipeline: u64,
}

impl Fig7CellKey {
    /// The cell's store subject.
    pub fn subject(&self) -> String {
        fig7_subject(self.suite, &self.program, &self.config)
    }
}

/// Every cell of the Figure-7 grid in canonical order (configs outer,
/// then suites, then programs) — the completeness contract
/// [`fig7_merge`] enforces.
pub fn fig7_expected(scope: Scope) -> Vec<Fig7CellKey> {
    let configs = fig7_configs();
    let suites = fig7_suites(scope);
    let mut out = Vec::new();
    for (config, cfg) in &configs {
        for (suite, programs) in &suites {
            for program in programs {
                out.push(Fig7CellKey {
                    suite,
                    program: program.name.clone(),
                    config: config.clone(),
                    pipeline: cfg.fingerprint(),
                });
            }
        }
    }
    out
}

/// Measures `shard`'s share of the Figure-7 grid, returning its cells
/// in canonical grid order and persisting each into `store` (when
/// given) under the cell's `ReportKey`. Like [`fig10_cells`], every
/// cell is a deterministic function of `(program, config, seed)`, so
/// shards computed by different processes merge bit-identically.
pub fn fig7_cells(scope: Scope, shard: ShardSpec, store: Option<&Store>) -> Vec<Fig7Cell> {
    let configs = fig7_configs();
    let suites = fig7_suites(scope);
    let mut grid: Vec<(usize, usize, usize)> = Vec::new();
    for ci in 0..configs.len() {
        for (si, (_, programs)) in suites.iter().enumerate() {
            for pi in 0..programs.len() {
                grid.push((ci, si, pi));
            }
        }
    }
    let grid = shard.select(grid);
    // Baselines are shared by all nine configuration rows touching a
    // program: build each distinct program of the owned cells once.
    let needed: Vec<(usize, usize)> = {
        let mut v: Vec<(usize, usize)> = grid.iter().map(|&(_, si, pi)| (si, pi)).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let prepared: Vec<(Module, u64)> = par_fan_out(&needed, |&(si, pi)| {
        let base = build_baseline(&suites[si].1[pi]);
        let cycles = measure_cycles(&base);
        (base, cycles)
    });
    par_fan_out(&grid, |&(ci, si, pi)| {
        let slot = needed
            .binary_search(&(si, pi))
            .expect("(si, pi) collected from grid");
        let (base, base_cycles) = &prepared[slot];
        let (cfg_name, cfg) = &configs[ci];
        let obf = build_config(base, *cfg);
        let cell = Fig7Cell {
            suite: suites[si].0,
            program: base.name.clone(),
            config: cfg_name.clone(),
            pipeline: cfg.fingerprint(),
            overhead: overhead_pct(*base_cycles, measure_cycles(&obf)),
        };
        if let Some(store) = store {
            persist_metrics_to(
                store,
                &cell.subject(),
                cell.pipeline,
                &[("overhead%", cell.overhead)],
            );
        }
        cell
    })
}

/// Prints the Figure-7 table (config rows, per-suite geometric means
/// plus the overall GEOMEAN) from a complete cell grid.
fn fig7_print_table(cells: &[Fig7Cell]) {
    let suites = uniq(cells.iter().map(|c| c.suite));
    let configs = uniq(cells.iter().map(|c| c.config.as_str()));
    print!("{:<14}", "config");
    for sname in &suites {
        print!(" {sname:>15}");
    }
    println!(" {:>10}", "GEOMEAN");
    for config in &configs {
        let mut all = Vec::new();
        print!("{config:<14}");
        for suite in &suites {
            let ohs: Vec<f64> = cells
                .iter()
                .filter(|c| c.config == *config && c.suite == *suite)
                .map(|c| c.overhead)
                .collect();
            all.extend_from_slice(&ohs);
            print!(" {:>14.1}%", geomean_ratio(&ohs));
        }
        println!(" {:>9.1}%", geomean_ratio(&all));
    }
}

/// **Figure 7** — overhead comparison against O-LLVM (Sub/Bog/Fla at
/// 100%, Fla-10 at 10%) with geometric means per suite. Honours the
/// active shard like [`fig10`]: a sharded run measures only its share
/// of the `config × suite × program` grid, persists the cells into
/// `KHAOS_STORE`, and prints them row-wise; `experiments fig7-merge
/// <DIR...>` reassembles the full table.
pub fn fig7(scope: Scope) {
    println!("# Figure 7: runtime overhead (%) — O-LLVM vs Khaos (GEOMEAN)");
    let shard = active_shard();
    let store = artifact_store();
    if !shard.is_full() && store.is_none() {
        println!(
            "# WARNING: sharded run without KHAOS_STORE — cells will be printed but \
             not persisted, so fig7-merge cannot reassemble this shard"
        );
    }
    let cells = fig7_cells(scope, shard, store.as_deref());
    if shard.is_full() {
        fig7_print_table(&cells);
        return;
    }
    println!(
        "# shard {shard}: {} of {} cells (merge with `experiments fig7-merge <store-dirs>`)",
        cells.len(),
        fig7_expected(scope).len()
    );
    println!(
        "{:<14} {:<16} {:<10} {:>10}",
        "suite", "program", "config", "overhead"
    );
    for c in &cells {
        println!(
            "{:<14} {:<16} {:<10} {:>9.1}%",
            c.suite, c.program, c.config, c.overhead
        );
    }
}

/// Reassembles the complete Figure-7 grid from any union of shard
/// stores, or lists every missing cell precisely.
pub fn fig7_merge(scope: Scope, stores: &[&Store]) -> Result<Vec<Fig7Cell>, Vec<String>> {
    let expected = fig7_expected(scope);
    let pairs: Vec<(String, u64)> = expected.iter().map(|k| (k.subject(), k.pipeline)).collect();
    let values = merge_grid(&["overhead%"], &pairs, stores)?;
    Ok(expected
        .into_iter()
        .zip(values)
        .map(|(k, v)| Fig7Cell {
            suite: k.suite,
            program: k.program,
            config: k.config,
            pipeline: k.pipeline,
            overhead: v[0],
        })
        .collect())
}

/// `experiments fig7-merge DIR...` — reassembles and prints the full
/// Figure-7 table from a union of shard stores, or lists every missing
/// cell and fails. Returns whether the grid was complete.
pub fn fig7_report(scope: Scope, store_dirs: &[String]) -> bool {
    let expected = fig7_expected(scope);
    merged_report(
        "Figure 7",
        scope,
        expected.len(),
        store_dirs,
        fig7_merge,
        fig7_print_table,
    )
}

/// **Figure 7, elastic** — the grid as a leased work queue in the
/// shared `KHAOS_STORE` (see [`crate::coordinator`]). Each unit is one
/// cell and re-derives its baseline, so any worker can own any cell;
/// the store's report and embedding tiers absorb most of the repeat
/// cost. Returns `false` (without working) when no store is
/// configured.
pub fn fig7_elastic(scope: Scope) -> bool {
    let Some(store) = artifact_store() else {
        eprintln!("experiments: --elastic needs KHAOS_STORE (the shared store is the work queue)");
        return false;
    };
    println!("# Figure 7: runtime overhead (%) — O-LLVM vs Khaos (GEOMEAN)");
    println!("# elastic worker over {}", store.root().display());
    let configs = fig7_configs();
    let suites = fig7_suites(scope);
    let mut grid: Vec<(usize, usize, usize)> = Vec::new();
    for ci in 0..configs.len() {
        for (si, (_, programs)) in suites.iter().enumerate() {
            for pi in 0..programs.len() {
                grid.push((ci, si, pi));
            }
        }
    }
    let units: Vec<WorkUnit> = grid
        .iter()
        .map(|&(ci, si, pi)| {
            let (cfg_name, cfg) = &configs[ci];
            let subject = fig7_subject(suites[si].0, &suites[si].1[pi].name, cfg_name);
            WorkUnit {
                label: subject.clone(),
                lease: (subject.clone(), cfg.fingerprint()),
                outputs: vec![(subject, cfg.fingerprint())],
            }
        })
        .collect();
    let summary = run_elastic(&store, "fig7", &units, |i| {
        let (ci, si, pi) = grid[i];
        let (cfg_name, cfg) = &configs[ci];
        let src = &suites[si].1[pi];
        let base = build_baseline(src);
        let base_cycles = measure_cycles(&base);
        let obf = build_config(&base, *cfg);
        persist_metrics_to(
            &store,
            &fig7_subject(suites[si].0, &src.name, cfg_name),
            cfg.fingerprint(),
            &[("overhead%", overhead_pct(base_cycles, measure_cycles(&obf)))],
        );
    });
    print_elastic_summary("fig7", &summary);
    elastic_epilogue(fig7_merge(scope, &[&store]), |cells| {
        fig7_print_table(cells)
    })
}

/// **Figure 8** — Precision@1 of the five diffing tools against the eight
/// obfuscation configurations (obfuscated vs un-obfuscated, un-stripped).
pub fn fig8(scope: Scope) {
    println!("# Figure 8: diffing accuracy vs obfuscation (T-I + T-II)");
    println!("#   BinDiff column = normalized whole-binary similarity;");
    println!("#   learning tools = Precision@1 with relaxed pairing (paper 4.2)");
    let configs = BuildConfig::figure8_set();
    let mut programs = t1_programs(scope);
    programs.extend(t2_programs(scope));
    let programs = shard_select(active_shard(), "T-I + T-II programs", programs);

    print!("{:<10}", "config");
    for t in ["BinDiff", "VulSeeker", "Asm2Vec", "SAFE", "DeepBinDiff"] {
        print!(" {t:>11}");
    }
    println!();

    // Baselines (and their lowered binaries) are shared by all eight
    // configurations; the embedding cache then reuses the baseline-side
    // embeddings across every config row.
    let prepared: Vec<_> = par_fan_out(&programs, |src| {
        let base = build_baseline(src);
        let base_bin = lower_module(&base);
        (base, base_bin)
    });
    for cfg in configs {
        let per_program = par_fan_out(&prepared, |(base, base_bin)| {
            let obf_bin = build_binary(base, cfg);
            [
                binary_similarity(&BinDiff::default(), base_bin, &obf_bin),
                precision_at_1(&VulSeeker::default(), base_bin, &obf_bin),
                precision_at_1(&Asm2Vec::default(), base_bin, &obf_bin),
                precision_at_1(&Safe::default(), base_bin, &obf_bin),
                deepbindiff_precision_at_1(&DeepBinDiff::default(), base_bin, &obf_bin),
            ]
        });
        print!("{:<10}", cfg.name());
        for t in 0..5 {
            let avg: f64 =
                per_program.iter().map(|s| s[t]).sum::<f64>() / per_program.len().max(1) as f64;
            print!(" {avg:>11.3}");
        }
        println!();
    }
}

/// The SPECint 2006 + SPECspeed 2017 subset plotted in Figure 9.
fn fig9_names() -> Vec<&'static str> {
    vec![
        "400.perlbench",
        "401.bzip2",
        "429.mcf",
        "445.gobmk",
        "456.hmmer",
        "458.sjeng",
        "462.libquantum",
        "464.h264ref",
        "473.astar",
        "483.xalancbmk",
        "600.perlbench_s",
        "605.mcf_s",
        "620.omnetpp_s",
        "623.xalancbmk_s",
        "625.x264_s",
        "631.deepsjeng_s",
        "641.leela_s",
        "657.xz_s",
    ]
}

/// The T-I programs of Figure 9, trimmed under `--quick`.
fn fig9_programs(scope: Scope) -> Vec<Module> {
    let names = fig9_names();
    let mut programs: Vec<Module> = spec2006()
        .into_iter()
        .chain(spec2017())
        .filter(|m| names.contains(&m.name.as_str()))
        .collect();
    if scope == Scope::Quick {
        programs.truncate(4);
    }
    programs
}

/// The `khaos-store` report subject of one Figure-9 cell (one cell per
/// program: the whole BinTuner-vs-Khaos row).
pub fn fig9_subject(program: &str) -> String {
    format!("fig9/{program}")
}

/// The stored metric names of one Figure-9 cell, in row order.
const FIG9_METRICS: [&str; 9] = [
    "bt/o0", "bt/o1", "bt/o2", "bt/o3", "kh/o0", "kh/o1", "kh/o2", "kh/o3", "bt-ovh%",
];

/// The fingerprint keying Figure-9 cells: the Khaos side of the
/// comparison (`FuFi.all | O2+lto`) — the BinTuner search has no
/// pipeline spec of its own.
fn fig9_pipeline() -> u64 {
    BuildConfig::Khaos(KhaosMode::FuFiAll).fingerprint()
}

/// One measured Figure-9 cell: BinDiff similarity of the BinTuner and
/// Khaos (`FuFi.all`) builds of `program` against its `O0`–`O3`
/// reference builds, plus BinTuner's runtime overhead.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig9Cell {
    /// Program name.
    pub program: String,
    /// Report keyspace fingerprint ([`Fig9CellKey::pipeline`]).
    pub pipeline: u64,
    /// BinTuner-build similarity vs `O0..O3`.
    pub bt: [f64; 4],
    /// Khaos-build similarity vs `O0..O3`.
    pub kh: [f64; 4],
    /// BinTuner runtime overhead (%) vs the `O2+LTO` baseline.
    pub bt_overhead: f64,
}

impl Fig9Cell {
    /// The cell's store subject.
    pub fn subject(&self) -> String {
        fig9_subject(&self.program)
    }
}

/// The identity of one expected Figure-9 cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig9CellKey {
    /// Program name.
    pub program: String,
    /// Report keyspace fingerprint.
    pub pipeline: u64,
}

impl Fig9CellKey {
    /// The cell's store subject.
    pub fn subject(&self) -> String {
        fig9_subject(&self.program)
    }
}

/// Every cell of the Figure-9 grid in canonical (program) order.
pub fn fig9_expected(scope: Scope) -> Vec<Fig9CellKey> {
    fig9_programs(scope)
        .iter()
        .map(|m| Fig9CellKey {
            program: m.name.clone(),
            pipeline: fig9_pipeline(),
        })
        .collect()
}

/// Measures `shard`'s share of the Figure-9 grid (one cell per
/// program), persisting each cell into `store` when given. Cells are
/// deterministic functions of `(program, seed)`, so shards merge
/// bit-identically.
pub fn fig9_cells(scope: Scope, shard: ShardSpec, store: Option<&Store>) -> Vec<Fig9Cell> {
    let programs = shard.select(fig9_programs(scope));
    let differ = BinDiff::default();
    // Fan out per program: each worker runs the BinTuner search, the
    // Khaos build, and the eight whole-binary comparisons.
    par_fan_out(&programs, |src| {
        let refs: Vec<_> = OptLevel::ALL
            .iter()
            .map(|l| lower_module(&build_at(src, *l)))
            .collect();

        let tuned = BinTuner {
            budget: 16,
            seed: SEED,
        }
        .tune(src);
        let baseline = build_baseline(src);
        let base_cycles = measure_cycles(&baseline);
        let bt_overhead = overhead_pct(base_cycles, measure_cycles(&tuned.module));

        let (khaos, _) = khaos_apply(&baseline, KhaosMode::FuFiAll, SEED);
        let khaos_bin = lower_module(&khaos);

        let bt: Vec<f64> = refs
            .iter()
            .map(|r| binary_similarity(&differ, r, &tuned.binary))
            .collect();
        let kh: Vec<f64> = refs
            .iter()
            .map(|r| binary_similarity(&differ, r, &khaos_bin))
            .collect();
        let cell = Fig9Cell {
            program: src.name.clone(),
            pipeline: fig9_pipeline(),
            bt: [bt[0], bt[1], bt[2], bt[3]],
            kh: [kh[0], kh[1], kh[2], kh[3]],
            bt_overhead,
        };
        if let Some(store) = store {
            persist_metrics_to(store, &cell.subject(), cell.pipeline, &fig9_metrics(&cell));
        }
        cell
    })
}

/// The cell's stored metric pairs, in [`FIG9_METRICS`] order.
fn fig9_metrics(cell: &Fig9Cell) -> Vec<(&'static str, f64)> {
    let values = [
        cell.bt[0],
        cell.bt[1],
        cell.bt[2],
        cell.bt[3],
        cell.kh[0],
        cell.kh[1],
        cell.kh[2],
        cell.kh[3],
        cell.bt_overhead,
    ];
    FIG9_METRICS.iter().copied().zip(values).collect()
}

fn fig9_row(cell: &Fig9Cell) -> String {
    let mut row = format!("{:<18}", cell.program);
    for s in cell.bt {
        row.push_str(&format!(" {s:>8.3}"));
    }
    row.push_str("  ");
    for s in cell.kh {
        row.push_str(&format!(" {s:>8.3}"));
    }
    row.push_str(&format!(" {:>9.1}%", cell.bt_overhead));
    row
}

fn fig9_print_header() {
    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>8}   {:>8} {:>8} {:>8} {:>8} {:>10}",
        "program",
        "BT/O0",
        "BT/O1",
        "BT/O2",
        "BT/O3",
        "KH/O0",
        "KH/O1",
        "KH/O2",
        "KH/O3",
        "BT-ovh%"
    );
}

/// Prints the Figure-9 table (per-program rows plus the GEOMEAN row)
/// from a complete cell grid.
fn fig9_print_table(cells: &[Fig9Cell]) {
    fig9_print_header();
    let mut bt_cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let mut kh_cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let mut bt_overheads = Vec::new();
    for cell in cells {
        bt_overheads.push(cell.bt_overhead);
        for k in 0..4 {
            bt_cols[k].push(cell.bt[k]);
            kh_cols[k].push(cell.kh[k]);
        }
        println!("{}", fig9_row(cell));
    }
    let mut row = format!("{:<18}", "GEOMEAN");
    for c in &bt_cols {
        row.push_str(&format!(" {:>8.3}", geomean(c)));
    }
    row.push_str("  ");
    for c in &kh_cols {
        row.push_str(&format!(" {:>8.3}", geomean(c)));
    }
    row.push_str(&format!(" {:>9.1}%", geomean_ratio(&bt_overheads)));
    println!("{row}");
    println!("# paper: Khaos scores well below BinTuner at every level; BinTuner overhead 30.35%");
}

/// **Figure 9** — BinDiff similarity of BinTuner and Khaos builds against
/// `O0`–`O3` reference builds, plus BinTuner's runtime overhead against
/// the paper's `O2+LTO` Khaos baseline (paper reports 30.35%). Honours
/// the active shard like [`fig10`]; `experiments fig9-merge <DIR...>`
/// reassembles the full table from shard stores.
pub fn fig9(scope: Scope) {
    println!("# Figure 9: BinDiff similarity — BinTuner vs Khaos (FuFi.all)");
    let shard = active_shard();
    let store = artifact_store();
    if !shard.is_full() && store.is_none() {
        println!(
            "# WARNING: sharded run without KHAOS_STORE — cells will be printed but \
             not persisted, so fig9-merge cannot reassemble this shard"
        );
    }
    let cells = fig9_cells(scope, shard, store.as_deref());
    if shard.is_full() {
        fig9_print_table(&cells);
        return;
    }
    println!(
        "# shard {shard}: {} of {} cells (merge with `experiments fig9-merge <store-dirs>`)",
        cells.len(),
        fig9_expected(scope).len()
    );
    fig9_print_header();
    for cell in &cells {
        println!("{}", fig9_row(cell));
    }
}

/// Reassembles the complete Figure-9 grid from any union of shard
/// stores, or lists every missing cell precisely.
pub fn fig9_merge(scope: Scope, stores: &[&Store]) -> Result<Vec<Fig9Cell>, Vec<String>> {
    let expected = fig9_expected(scope);
    let pairs: Vec<(String, u64)> = expected.iter().map(|k| (k.subject(), k.pipeline)).collect();
    let values = merge_grid(&FIG9_METRICS, &pairs, stores)?;
    Ok(expected
        .into_iter()
        .zip(values)
        .map(|(k, v)| Fig9Cell {
            program: k.program,
            pipeline: k.pipeline,
            bt: [v[0], v[1], v[2], v[3]],
            kh: [v[4], v[5], v[6], v[7]],
            bt_overhead: v[8],
        })
        .collect())
}

/// `experiments fig9-merge DIR...` — reassembles and prints the full
/// Figure-9 table from a union of shard stores, or lists every missing
/// cell and fails. Returns whether the grid was complete.
pub fn fig9_report(scope: Scope, store_dirs: &[String]) -> bool {
    let expected = fig9_expected(scope);
    merged_report(
        "Figure 9",
        scope,
        expected.len(),
        store_dirs,
        fig9_merge,
        fig9_print_table,
    )
}

/// **Figure 9, elastic** — one work unit per program on the shared
/// store's leased work queue (see [`crate::coordinator`]). Returns
/// `false` (without working) when no store is configured.
pub fn fig9_elastic(scope: Scope) -> bool {
    let Some(store) = artifact_store() else {
        eprintln!("experiments: --elastic needs KHAOS_STORE (the shared store is the work queue)");
        return false;
    };
    println!("# Figure 9: BinDiff similarity — BinTuner vs Khaos (FuFi.all)");
    println!("# elastic worker over {}", store.root().display());
    let programs = fig9_programs(scope);
    let units: Vec<WorkUnit> = programs
        .iter()
        .map(|m| {
            let subject = fig9_subject(&m.name);
            WorkUnit {
                label: subject.clone(),
                lease: (subject.clone(), fig9_pipeline()),
                outputs: vec![(subject, fig9_pipeline())],
            }
        })
        .collect();
    let differ = BinDiff::default();
    let summary = run_elastic(&store, "fig9", &units, |i| {
        let src = &programs[i];
        let refs: Vec<_> = OptLevel::ALL
            .iter()
            .map(|l| lower_module(&build_at(src, *l)))
            .collect();
        let tuned = BinTuner {
            budget: 16,
            seed: SEED,
        }
        .tune(src);
        let baseline = build_baseline(src);
        let base_cycles = measure_cycles(&baseline);
        let bt_overhead = overhead_pct(base_cycles, measure_cycles(&tuned.module));
        let (khaos, _) = khaos_apply(&baseline, KhaosMode::FuFiAll, SEED);
        let khaos_bin = lower_module(&khaos);
        let bt: Vec<f64> = refs
            .iter()
            .map(|r| binary_similarity(&differ, r, &tuned.binary))
            .collect();
        let kh: Vec<f64> = refs
            .iter()
            .map(|r| binary_similarity(&differ, r, &khaos_bin))
            .collect();
        let cell = Fig9Cell {
            program: src.name.clone(),
            pipeline: fig9_pipeline(),
            bt: [bt[0], bt[1], bt[2], bt[3]],
            kh: [kh[0], kh[1], kh[2], kh[3]],
            bt_overhead,
        };
        persist_metrics_to(&store, &cell.subject(), cell.pipeline, &fig9_metrics(&cell));
    });
    print_elastic_summary("fig9", &summary);
    elastic_epilogue(fig9_merge(scope, &[&store]), |cells| {
        fig9_print_table(cells)
    })
}

/// The escape thresholds of Figure 10 (the paper's `escape@{1,10,50}`).
pub const FIG10_KS: [usize; 3] = [1, 10, 50];

/// The six obfuscation configurations of Figure 10, in row order
/// (Fla at 100% here, as in the paper).
pub fn fig10_configs() -> Vec<(String, BuildConfig)> {
    vec![
        ("Sub".into(), BuildConfig::Ollvm(OllvmMode::Sub(1.0))),
        ("Bog".into(), BuildConfig::Ollvm(OllvmMode::Bog(1.0))),
        ("Fla".into(), BuildConfig::Ollvm(OllvmMode::Fla(1.0))),
        ("FuFi.sep".into(), BuildConfig::Khaos(KhaosMode::FuFiSep)),
        ("FuFi.ori".into(), BuildConfig::Khaos(KhaosMode::FuFiOri)),
        ("FuFi.all".into(), BuildConfig::Khaos(KhaosMode::FuFiAll)),
    ]
}

/// The three learning-based tools Figure 10 evaluates, in column order.
fn fig10_tools() -> Vec<(&'static str, Box<dyn Differ + Sync>)> {
    vec![
        ("VulSeeker", Box::new(VulSeeker::default())),
        ("Asm2Vec", Box::new(Asm2Vec::default())),
        ("SAFE", Box::new(Safe::default())),
    ]
}

/// The T-III programs of Figure 10; `--quick` trims the suite so the
/// sharding end-to-end tests stay cheap.
fn fig10_programs(scope: Scope) -> Vec<Module> {
    let mut v = tiii();
    if scope == Scope::Quick {
        v.truncate(2);
    }
    v
}

/// The `khaos-store` report subject of one Figure-10 cell — together
/// with the config pipeline's fingerprint and [`SEED`] this is the
/// cell's complete `ReportKey`, so any process that knows the grid can
/// query (or check for) the cell without recomputing anything.
pub fn fig10_subject(program: &str, config: &str, tool: &str) -> String {
    format!("fig10/{program}/{config}/{tool}")
}

/// One measured Figure-10 cell: the escape profile of `tool` on
/// `program` built under `config`.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig10Cell {
    /// Program name (T-III member).
    pub program: String,
    /// Configuration display name (Figure-10 row).
    pub config: String,
    /// Differ name (Figure-10 column).
    pub tool: &'static str,
    /// `Pipeline::fingerprint()` of the configuration's build spec —
    /// the report keyspace the cell persists under.
    pub pipeline: u64,
    /// `escape@{1,10,50}` ([`FIG10_KS`]).
    pub escape: [f64; 3],
}

impl Fig10Cell {
    /// The cell's store subject (same form as [`Fig10CellKey::subject`]).
    pub fn subject(&self) -> String {
        fig10_subject(&self.program, &self.config, self.tool)
    }
}

/// The identity of one expected Figure-10 cell (no measurement) — what
/// the merge layer checks a union of shard stores against.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig10CellKey {
    /// Program name.
    pub program: String,
    /// Configuration display name.
    pub config: String,
    /// Differ name.
    pub tool: &'static str,
    /// Configuration pipeline fingerprint.
    pub pipeline: u64,
}

impl Fig10CellKey {
    /// The cell's store subject.
    pub fn subject(&self) -> String {
        fig10_subject(&self.program, &self.config, self.tool)
    }
}

/// Every cell of the Figure-10 grid in canonical order (the flattened
/// `config × program` grid of [`fig10_cells`], tools innermost) —
/// the completeness contract [`fig10_merge`] enforces.
pub fn fig10_expected(scope: Scope) -> Vec<Fig10CellKey> {
    let configs = fig10_configs();
    let tools = fig10_tools();
    let programs = fig10_programs(scope);
    let mut out = Vec::new();
    for (config, cfg) in &configs {
        for program in &programs {
            for (tool, _) in &tools {
                out.push(Fig10CellKey {
                    program: program.name.clone(),
                    config: config.clone(),
                    tool,
                    pipeline: cfg.fingerprint(),
                });
            }
        }
    }
    out
}

/// Measures `shard`'s share of the Figure-10 grid, returning its cells
/// in canonical grid order and persisting each into `store` (when
/// given) under the cell's `ReportKey`.
///
/// The shard partitions the **flattened `config × program` grid** —
/// the expensive unit is one obfuscated build, shared by all three
/// tools, so tools stay inside the cell. Every cell is a deterministic
/// function of `(program, config, seed)` alone: any shard of any
/// process computes bit-identical values for the cells it owns, which
/// is what lets [`fig10_merge`] reassemble a grid from machines that
/// never shared memory (pinned by `tests/shard_e2e.rs`).
pub fn fig10_cells(scope: Scope, shard: ShardSpec, store: Option<&Store>) -> Vec<Fig10Cell> {
    let configs = fig10_configs();
    let tools = fig10_tools();
    let programs = fig10_programs(scope);

    // One flat (config × program) grid: a single fan-out level keeps
    // concurrency at ~core count instead of multiplying config workers
    // by program workers — and gives the shard its index space. The
    // shard is applied *before* the baseline builds so a shard only
    // pays for the programs its cells actually touch.
    let grid: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|ci| (0..programs.len()).map(move |pi| (ci, pi)))
        .collect();
    let grid = shard.select(grid);
    // Baselines are shared by every config row touching the program;
    // build each distinct program of the owned cells exactly once.
    // (Baselines are deterministic per program, so building a subset
    // yields the same binaries the full run would — cell values stay
    // shard-independent.)
    let needed: Vec<usize> = {
        let mut v: Vec<usize> = grid.iter().map(|&(_, pi)| pi).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let prepared: Vec<_> = par_fan_out(&needed, |&pi| {
        let base = build_baseline(&programs[pi]);
        (lower_module(&base), base)
    });
    let cells: Vec<Vec<Fig10Cell>> = par_fan_out(&grid, |&(ci, pi)| {
        let slot = needed.binary_search(&pi).expect("pi collected from grid");
        let (base_bin, base) = &prepared[slot];
        let (cfg_name, cfg) = &configs[ci];
        let obf_bin = build_binary(base, *cfg);
        tools
            .iter()
            .map(|(tool_name, tool)| {
                let profile = escape_profile(tool.as_ref(), base_bin, &obf_bin, &FIG10_KS);
                let cell = Fig10Cell {
                    program: base_bin.name.clone(),
                    config: cfg_name.clone(),
                    tool: tool_name,
                    pipeline: cfg.fingerprint(),
                    escape: [profile[0], profile[1], profile[2]],
                };
                // Durable per-cell result, keyed by the build pipeline's
                // fingerprint (no-op without a store).
                if let Some(store) = store {
                    persist_metrics_to(
                        store,
                        &cell.subject(),
                        cell.pipeline,
                        &[
                            ("escape@1", cell.escape[0]),
                            ("escape@10", cell.escape[1]),
                            ("escape@50", cell.escape[2]),
                        ],
                    );
                }
                cell
            })
            .collect()
    });
    cells.into_iter().flatten().collect()
}

/// First-seen-order dedup — the row/column orders of the printed
/// tables, derived from the cells themselves.
fn uniq<T: PartialEq>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut v = Vec::new();
    for x in items {
        if !v.contains(&x) {
            v.push(x);
        }
    }
    v
}

/// Prints the Figure-10 tables (one per threshold, config rows × tool
/// columns, averaged over programs) from a complete cell grid. The
/// header names the grid's actual dimensions — a merge run at a
/// different scope than the shards (e.g. `--quick fig10-merge` over
/// full-scope stores) is then visibly a truncated grid, not silently a
/// smaller Figure 10.
fn fig10_print_tables(cells: &[Fig10Cell]) {
    let programs = uniq(cells.iter().map(|c| c.program.as_str()));
    println!(
        "# grid: {} cells over {} program(s): {}",
        cells.len(),
        programs.len(),
        programs.join(", ")
    );
    let configs = uniq(cells.iter().map(|c| c.config.as_str()));
    let tools = uniq(cells.iter().map(|c| c.tool));
    for (ki, k) in FIG10_KS.iter().enumerate() {
        println!("\n## escape@{k}");
        print!("{:<10}", "config");
        for t in &tools {
            print!(" {t:>10}");
        }
        println!();
        for config in &configs {
            print!("{config:<10}");
            for tool in &tools {
                let scores: Vec<f64> = cells
                    .iter()
                    .filter(|c| c.config == *config && c.tool == *tool)
                    .map(|c| c.escape[ki])
                    .collect();
                let avg = scores.iter().sum::<f64>() / scores.len().max(1) as f64;
                print!(" {avg:>10.2}");
            }
            println!();
        }
    }
}

/// **Figure 10** — escape@1/10/50 of the T-III vulnerable functions under
/// each obfuscation. Honours the active shard (`KHAOS_SHARD` /
/// `--shard i/n`): a sharded run measures only its share of the
/// `config × program` grid, persists the cells into `KHAOS_STORE`, and
/// prints them row-wise; `experiments fig10-merge <DIR...>` reassembles
/// the full tables from any union of shard stores.
pub fn fig10(scope: Scope) {
    println!("# Figure 10: escape ratio of vulnerable functions (T-III)");
    let shard = active_shard();
    let store = artifact_store();
    if !shard.is_full() && store.is_none() {
        println!(
            "# WARNING: sharded run without KHAOS_STORE — cells will be printed but \
             not persisted, so fig10-merge cannot reassemble this shard"
        );
    }
    let cells = fig10_cells(scope, shard, store.as_deref());
    if shard.is_full() {
        fig10_print_tables(&cells);
        return;
    }
    println!(
        "# shard {shard}: {} of {} cells (merge with `experiments fig10-merge <store-dirs>`)",
        cells.len(),
        fig10_expected(scope).len()
    );
    println!(
        "{:<16} {:<10} {:<10} {:>9} {:>9} {:>9}",
        "program", "config", "tool", "escape@1", "escape@10", "escape@50"
    );
    for c in &cells {
        println!(
            "{:<16} {:<10} {:<10} {:>9.2} {:>9.2} {:>9.2}",
            c.program, c.config, c.tool, c.escape[0], c.escape[1], c.escape[2]
        );
    }
}

/// Reassembles the complete Figure-10 grid from any union of shard
/// stores (earlier stores win on duplicate cells, though duplicates are
/// bit-identical by determinism). Returns the cells in canonical grid
/// order, or — when any expected cell is missing from every store — an
/// `Err` listing each missing cell precisely (subject + pipeline
/// fingerprint), so an operator can see exactly which shard never ran
/// or never persisted.
pub fn fig10_merge(scope: Scope, stores: &[&Store]) -> Result<Vec<Fig10Cell>, Vec<String>> {
    fig10_merge_expected(&fig10_expected(scope), stores)
}

/// Looks up every expected `(subject, pipeline)` cell across a union
/// of stores, returning each cell's metric values (in `metrics` order)
/// in expected order — or, when any cell is missing from every store,
/// an `Err` listing each missing cell precisely (subject + pipeline
/// fingerprint), so an operator can see exactly which shard never ran
/// or never persisted. Every `figN_merge`/`table2_merge` is this one
/// contract over its own grid.
fn merge_grid(
    metrics: &[&str],
    expected: &[(String, u64)],
    stores: &[&Store],
) -> Result<Vec<Vec<f64>>, Vec<String>> {
    let mut cells = Vec::new();
    let mut missing = Vec::new();
    for (subject, pipeline) in expected {
        let report_key = ReportKey {
            pipeline: *pipeline,
            seed: SEED,
            subject,
        };
        // A store I/O failure is not "the shard never ran" — keep the
        // distinction so the operator fixes the store instead of
        // re-running an expensive shard sweep. (Corrupt records decode
        // to `Ok(None)` by design; `khaos-store verify` names those.)
        let mut found = None;
        let mut read_errors = Vec::new();
        for s in stores {
            match s.get_report(&report_key) {
                Ok(Some(r)) => {
                    found = Some(r);
                    break;
                }
                Ok(None) => {}
                Err(e) => read_errors.push(format!("{}: {e}", s.root().display())),
            }
        }
        let Some(report) = found else {
            missing.push(if read_errors.is_empty() {
                format!("{subject} (pipeline {pipeline:016x}, seed {:#x})", SEED)
            } else {
                // Name every failing store, not just the last — the
                // operator should fix them all in one pass.
                format!(
                    "{subject} (store read error — cell may exist: {})",
                    read_errors.join("; ")
                )
            });
            continue;
        };
        let values: Option<Vec<f64>> = metrics
            .iter()
            .map(|name| {
                report
                    .metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
            })
            .collect();
        match values {
            Some(v) => cells.push(v),
            None => missing.push(format!(
                "{subject} (record present but missing {} metrics)",
                metrics.join("/")
            )),
        }
    }
    if missing.is_empty() {
        Ok(cells)
    } else {
        Err(missing)
    }
}

/// [`fig10_merge`] against an already-computed expected grid (the
/// merge CLI computes the grid once and reuses it for its header and
/// missing-cell accounting — regenerating it re-synthesizes the whole
/// T-III suite).
fn fig10_merge_expected(
    expected: &[Fig10CellKey],
    stores: &[&Store],
) -> Result<Vec<Fig10Cell>, Vec<String>> {
    let pairs: Vec<(String, u64)> = expected.iter().map(|k| (k.subject(), k.pipeline)).collect();
    let values = merge_grid(&["escape@1", "escape@10", "escape@50"], &pairs, stores)?;
    Ok(expected
        .iter()
        .zip(values)
        .map(|(k, v)| Fig10Cell {
            program: k.program.clone(),
            config: k.config.clone(),
            tool: k.tool,
            pipeline: k.pipeline,
            escape: [v[0], v[1], v[2]],
        })
        .collect())
}

/// Shared driver of the `figN-merge`/`table2-merge` CLI targets: opens
/// every store (a typo'd path must be an error, not an empty store
/// whose every cell reads as missing), runs the figure's merge, and
/// prints the merged table or the precise missing-cell listing.
/// Returns whether the grid was complete.
fn merged_report<T>(
    what: &str,
    scope: Scope,
    expected_len: usize,
    store_dirs: &[String],
    merge: impl FnOnce(Scope, &[&Store]) -> Result<Vec<T>, Vec<String>>,
    print: impl FnOnce(&[T]),
) -> bool {
    println!("# {what} (merged from {} store(s))", store_dirs.len());
    println!(
        "# scope: {scope:?} — expecting {expected_len} cells; match the shards' --quick \
         flag, or a full-scope store merges into a silently smaller grid"
    );
    let mut stores = Vec::new();
    for dir in store_dirs {
        match Store::open_existing(dir) {
            Ok(s) => stores.push(s),
            Err(e) => {
                println!("# cannot open store `{dir}`: {e}");
                return false;
            }
        }
    }
    let refs: Vec<&Store> = stores.iter().collect();
    match merge(scope, &refs) {
        Ok(cells) => {
            print(&cells);
            true
        }
        Err(missing) => {
            println!(
                "# INCOMPLETE GRID: {} of {expected_len} cells missing:",
                missing.len()
            );
            for m in &missing {
                println!("#   missing {m}");
            }
            false
        }
    }
}

/// Prints one worker's elastic-loop accounting (stderr, like the
/// steal lines — stdout stays the figure's table).
fn print_elastic_summary(what: &str, s: &ElasticSummary) {
    eprintln!(
        "# elastic {what}: {} unit(s) — {} computed here, {} already done, \
         {} stale lease(s) stolen, {} round(s)",
        s.units, s.computed, s.already_done, s.stolen, s.rounds
    );
}

/// After an elastic run every unit's records exist, so the merge can
/// only fail on a scope mismatch (records persisted under a different
/// `--quick` grid) — still reported precisely rather than silently.
fn elastic_epilogue<T>(merge: Result<Vec<T>, Vec<String>>, print: impl FnOnce(&[T])) -> bool {
    match merge {
        Ok(cells) => {
            print(&cells);
            true
        }
        Err(missing) => {
            println!("# INCOMPLETE GRID: {} cells missing:", missing.len());
            for m in &missing {
                println!("#   missing {m}");
            }
            false
        }
    }
}

/// `experiments fig10-merge DIR...` — reassembles and prints the full
/// Figure-10 tables from a union of shard stores, or lists every
/// missing cell and fails. Returns whether the grid was complete.
pub fn fig10_report(scope: Scope, store_dirs: &[String]) -> bool {
    // One grid generation serves the header, the merge and the
    // missing-cell accounting.
    let expected = fig10_expected(scope);
    merged_report(
        "Figure 10",
        scope,
        expected.len(),
        store_dirs,
        |_, refs| fig10_merge_expected(&expected, refs),
        fig10_print_tables,
    )
}

/// **Figure 10, elastic** — the `config × program` grid as a leased
/// work queue in the shared `KHAOS_STORE` (see [`crate::coordinator`]).
/// One work unit is one obfuscated build shared by all three tool
/// columns — the same grain as the static path, so a redone unit
/// recomputes exactly the records a dead worker owed. Any number of
/// workers run this concurrently; each prints the complete merged
/// tables once the grid's records all exist. Returns `false` (without
/// working) when no store is configured.
pub fn fig10_elastic(scope: Scope) -> bool {
    let Some(store) = artifact_store() else {
        eprintln!("experiments: --elastic needs KHAOS_STORE (the shared store is the work queue)");
        return false;
    };
    println!("# Figure 10: escape ratio of vulnerable functions (T-III)");
    println!("# elastic worker over {}", store.root().display());
    let summary = fig10_elastic_sweep(scope, &store, Store::lease_horizon());
    print_elastic_summary("fig10", &summary);
    elastic_epilogue(fig10_merge(scope, &[&store]), |cells| {
        fig10_print_tables(cells)
    })
}

/// One worker's pass over the Figure-10 work queue at an explicit
/// lease `horizon` (tests inject a tiny horizon to exercise stealing
/// without touching the process-global `KHAOS_LEASE_MS`). Returns
/// once every unit's records exist in `store`.
pub fn fig10_elastic_sweep(
    scope: Scope,
    store: &Store,
    horizon: std::time::Duration,
) -> ElasticSummary {
    let configs = fig10_configs();
    let tools = fig10_tools();
    let programs = fig10_programs(scope);
    let grid: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|ci| (0..programs.len()).map(move |pi| (ci, pi)))
        .collect();
    let units: Vec<WorkUnit> = grid
        .iter()
        .map(|&(ci, pi)| {
            let (cfg_name, cfg) = &configs[ci];
            let program = &programs[pi].name;
            WorkUnit {
                label: format!("fig10/{program}/{cfg_name}"),
                lease: (
                    fig10_subject(program, cfg_name, tools[0].0),
                    cfg.fingerprint(),
                ),
                outputs: tools
                    .iter()
                    .map(|(t, _)| (fig10_subject(program, cfg_name, t), cfg.fingerprint()))
                    .collect(),
            }
        })
        .collect();
    run_elastic_with(store, "fig10", &units, horizon, |i| {
        let (ci, pi) = grid[i];
        let (cfg_name, cfg) = &configs[ci];
        let src = &programs[pi];
        let base = build_baseline(src);
        let base_bin = lower_module(&base);
        let obf_bin = build_binary(&base, *cfg);
        for (tool_name, tool) in &tools {
            let profile = escape_profile(tool.as_ref(), &base_bin, &obf_bin, &FIG10_KS);
            persist_metrics_to(
                store,
                &fig10_subject(&src.name, cfg_name, tool_name),
                cfg.fingerprint(),
                &[
                    ("escape@1", profile[0]),
                    ("escape@10", profile[1]),
                    ("escape@50", profile[2]),
                ],
            );
        }
    })
}

/// **Figure 11** — normalized opcode-histogram distance of every
/// configuration against the baseline build.
pub fn fig11(scope: Scope) {
    println!("# Figure 11: opcode histogram distance (normalized per suite)");
    let mut configs: Vec<(String, Option<BuildConfig>)> = vec![
        ("Sub".into(), Some(BuildConfig::Ollvm(OllvmMode::Sub(1.0)))),
        ("Bog".into(), Some(BuildConfig::Ollvm(OllvmMode::Bog(1.0)))),
        (
            "Fla-10".into(),
            Some(BuildConfig::Ollvm(OllvmMode::Fla(0.1))),
        ),
        ("BinTuner".into(), None), // handled specially
    ];
    configs.extend(
        KhaosMode::ALL
            .iter()
            .map(|m| (m.name().to_string(), Some(BuildConfig::Khaos(*m)))),
    );
    let programs = shard_select(active_shard(), "T-I programs", t1_programs(scope));

    // Fan out per program; each worker builds every configuration.
    let rows = par_fan_out(&programs, |src| {
        let base = build_baseline(src);
        let base_hist = opcode_histogram(&lower_module(&base));
        let ds: Vec<f64> = configs
            .iter()
            .map(|(_, cfg)| {
                let obf_bin = match cfg {
                    Some(c) => build_binary(&base, *c),
                    None => {
                        BinTuner {
                            budget: 8,
                            seed: SEED,
                        }
                        .tune(src)
                        .binary
                    }
                };
                histogram_distance(&base_hist, &opcode_histogram(&obf_bin))
            })
            .collect();
        (src.name.clone(), ds)
    });
    // distances[config][program]
    let mut distances: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let mut names: Vec<String> = Vec::new();
    for (name, ds) in rows {
        names.push(name);
        for (ci, d) in ds.into_iter().enumerate() {
            distances[ci].push(d);
        }
    }
    // Normalize by the max distance over everything (the paper's scheme).
    let max = distances
        .iter()
        .flat_map(|v| v.iter())
        .cloned()
        .fold(1e-9f64, f64::max);
    print!("{:<20}", "program");
    for (n, _) in &configs {
        print!(" {n:>9}");
    }
    println!();
    for (pi, pname) in names.iter().enumerate() {
        print!("{pname:<20}");
        for d in &distances {
            print!(" {:>9.3}", d[pi] / max);
        }
        println!();
    }
    print!("{:<20}", "GEOMEAN");
    for d in &distances {
        let norm: Vec<f64> = d.iter().map(|x| x / max).collect();
        print!(" {:>9.3}", geomean(&norm));
    }
    println!();
}

/// **Table 1** — the diffing-tool characteristics summary.
pub fn table1() {
    println!("# Table 1: chosen diffing works");
    println!(
        "{:<12} {:<12} {:<7} {:<7} {:<7} {:<10}",
        "diffing", "granularity", "symbol", "time", "memory", "call-graph"
    );
    println!(
        "{:<12} {:<12} {:<7} {:<7} {:<7} {:<10}",
        "", "", "relying", "heavy", "heavy", "lacking"
    );
    for (name, gran, sym, time, mem, cg) in [
        ("BinDiff", "function", "Y", "N", "N", "N"),
        ("VulSeeker", "function", "N", "Y", "Y", "Y"),
        ("Asm2Vec", "function", "N", "N", "N", "Y"),
        ("SAFE", "function", "N", "N", "N", "Y"),
        ("DeepBinDiff", "basic block", "N", "Y", "Y", "N"),
    ] {
        println!("{name:<12} {gran:<12} {sym:<7} {time:<7} {mem:<7} {cg:<10}");
    }
}

/// The suites of Table 2 (its rows), trimmed under `--quick`.
fn table2_suites(scope: Scope) -> Vec<(&'static str, Vec<Module>)> {
    if scope == Scope::Quick {
        vec![("SPEC2006(q)", {
            let mut v = spec2006();
            v.truncate(4);
            v
        })]
    } else {
        vec![
            ("SPEC CPU 2006", spec2006()),
            ("SPEC CPU 2017", spec2017()),
            ("CoreUtils", coreutils()),
        ]
    }
}

/// The `khaos-store` report subject of one Table-2 cell (one cell per
/// program: its raw fission + fusion counters).
pub fn table2_subject(suite: &str, program: &str) -> String {
    format!("table2/{suite}/{program}")
}

/// The fingerprint keying Table-2 cells (the fission build's pipeline;
/// one cell covers both primitive builds).
fn table2_pipeline() -> u64 {
    BuildConfig::Khaos(KhaosMode::Fission).fingerprint()
}

/// One measured Table-2 cell: the fission/fusion counters of one
/// program (fission stats from a pure-fission build, fusion stats from
/// a pure-fusion build — the paper measures the primitives
/// individually, "without the combination").
#[derive(Clone, Debug, PartialEq)]
pub struct Table2Cell {
    /// Suite the program belongs to (Table-2 row).
    pub suite: &'static str,
    /// Program name.
    pub program: String,
    /// Report keyspace fingerprint.
    pub pipeline: u64,
    /// Fission counters of the pure-fission build.
    pub fission: FissionStats,
    /// Fusion counters of the pure-fusion build.
    pub fusion: FusionStats,
}

impl Table2Cell {
    /// The cell's store subject.
    pub fn subject(&self) -> String {
        table2_subject(self.suite, &self.program)
    }
}

/// The identity of one expected Table-2 cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Table2CellKey {
    /// Suite the program belongs to.
    pub suite: &'static str,
    /// Program name.
    pub program: String,
    /// Report keyspace fingerprint.
    pub pipeline: u64,
}

impl Table2CellKey {
    /// The cell's store subject.
    pub fn subject(&self) -> String {
        table2_subject(self.suite, &self.program)
    }
}

/// Every cell of the Table-2 grid in canonical (suite, program) order.
pub fn table2_expected(scope: Scope) -> Vec<Table2CellKey> {
    let suites = table2_suites(scope);
    let mut out = Vec::new();
    for (suite, programs) in &suites {
        for program in programs {
            out.push(Table2CellKey {
                suite,
                program: program.name.clone(),
                pipeline: table2_pipeline(),
            });
        }
    }
    out
}

/// The cell's stored metric pairs: the raw counters in
/// [`STATS_COUNTERS`] order, *not* the derived ratios — ratios don't
/// merge, counters do (sum per suite), which is what keeps the merged
/// table bit-identical to a single-process run.
fn table2_metrics(cell: &Table2Cell) -> Vec<(&'static str, f64)> {
    STATS_COUNTERS
        .into_iter()
        .zip(stats_counters(&cell.fission, &cell.fusion))
        .collect()
}

/// Measures `shard`'s share of the Table-2 grid (one cell per
/// program), persisting each cell into `store` when given. Cells are
/// deterministic functions of `(program, seed)`, so shards merge
/// bit-identically.
pub fn table2_cells(scope: Scope, shard: ShardSpec, store: Option<&Store>) -> Vec<Table2Cell> {
    let suites = table2_suites(scope);
    let mut grid: Vec<(usize, usize)> = Vec::new();
    for (si, (_, programs)) in suites.iter().enumerate() {
        for pi in 0..programs.len() {
            grid.push((si, pi));
        }
    }
    let grid = shard.select(grid);
    par_fan_out(&grid, |&(si, pi)| {
        let src = &suites[si].1[pi];
        let base = build_baseline(src);
        let (_, fi_ctx) = khaos_apply(&base, KhaosMode::Fission, SEED);
        let (_, fu_ctx) = khaos_apply(&base, KhaosMode::Fusion, SEED);
        let cell = Table2Cell {
            suite: suites[si].0,
            program: src.name.clone(),
            pipeline: table2_pipeline(),
            fission: fi_ctx.fission_stats,
            fusion: fu_ctx.fusion_stats,
        };
        if let Some(store) = store {
            persist_metrics_to(
                store,
                &cell.subject(),
                cell.pipeline,
                &table2_metrics(&cell),
            );
        }
        cell
    })
}

/// Prints the Table-2 rows (per-suite aggregates) from a complete cell
/// grid. Per-suite counters are summed in canonical program order, so
/// the derived ratios match a single-process run bit for bit.
fn table2_print_table(cells: &[Table2Cell]) {
    println!(
        "{:<16} {:>12} {:>8} {:>8} {:>13} {:>8} {:>8}",
        "suite", "FissionRatio", "#BB", "RR", "FusionRatio", "#RP", "#HBB"
    );
    for suite in uniq(cells.iter().map(|c| c.suite)) {
        let mut fi = FissionStats::default();
        let mut fu = FusionStats::default();
        for c in cells.iter().filter(|c| c.suite == suite) {
            fi.merge(&c.fission);
            fu.merge(&c.fusion);
        }
        println!(
            "{:<16} {:>11.0}% {:>8.2} {:>7.0}% {:>12.0}% {:>8.2} {:>8.2}",
            suite,
            fi.ratio() * 100.0,
            fi.avg_blocks(),
            fi.reduced_ratio() * 100.0,
            fu.ratio() * 100.0,
            fu.avg_reduced_params(),
            fu.avg_innocuous(),
        );
    }
    println!("# paper: Fission 116-152%, #BB 5.3-6.5, RR 34-44%; Fusion 97-99%, #RP 1.2-1.5, #HBB 1.0-1.9");
}

/// **Table 2** — fission/fusion internal statistics per suite. Honours
/// the active shard like [`fig10`]; `experiments table2-merge <DIR...>`
/// reassembles the full table from shard stores.
pub fn table2(scope: Scope) {
    println!("# Table 2: statistics of the fission and the fusion");
    let shard = active_shard();
    let store = artifact_store();
    if !shard.is_full() && store.is_none() {
        println!(
            "# WARNING: sharded run without KHAOS_STORE — cells will be printed but \
             not persisted, so table2-merge cannot reassemble this shard"
        );
    }
    let cells = table2_cells(scope, shard, store.as_deref());
    if shard.is_full() {
        table2_print_table(&cells);
        return;
    }
    println!(
        "# shard {shard}: {} of {} cells (merge with `experiments table2-merge <store-dirs>`)",
        cells.len(),
        table2_expected(scope).len()
    );
    println!(
        "{:<16} {:<16} {:>9} {:>9} {:>9} {:>9}",
        "suite", "program", "sepFuncs", "sepBBs", "fusFuncs", "remParams"
    );
    for c in &cells {
        println!(
            "{:<16} {:<16} {:>9} {:>9} {:>9} {:>9}",
            c.suite,
            c.program,
            c.fission.sep_funcs,
            c.fission.sep_blocks,
            c.fusion.fus_funcs,
            c.fusion.params_removed
        );
    }
}

/// Reassembles the complete Table-2 grid from any union of shard
/// stores, or lists every missing cell precisely.
pub fn table2_merge(scope: Scope, stores: &[&Store]) -> Result<Vec<Table2Cell>, Vec<String>> {
    let expected = table2_expected(scope);
    let pairs: Vec<(String, u64)> = expected.iter().map(|k| (k.subject(), k.pipeline)).collect();
    let values = merge_grid(&STATS_COUNTERS, &pairs, stores)?;
    Ok(expected
        .into_iter()
        .zip(values)
        .map(|(k, v)| {
            let (fission, fusion) = stats_from_counters(&v);
            Table2Cell {
                suite: k.suite,
                program: k.program,
                pipeline: k.pipeline,
                fission,
                fusion,
            }
        })
        .collect())
}

/// `experiments table2-merge DIR...` — reassembles and prints the full
/// Table 2 from a union of shard stores, or lists every missing cell
/// and fails. Returns whether the grid was complete.
pub fn table2_report(scope: Scope, store_dirs: &[String]) -> bool {
    let expected = table2_expected(scope);
    println!("# Table 2: statistics of the fission and the fusion");
    merged_report(
        "Table 2",
        scope,
        expected.len(),
        store_dirs,
        table2_merge,
        table2_print_table,
    )
}

/// **Table 2, elastic** — one work unit per program on the shared
/// store's leased work queue (see [`crate::coordinator`]). Returns
/// `false` (without working) when no store is configured.
pub fn table2_elastic(scope: Scope) -> bool {
    let Some(store) = artifact_store() else {
        eprintln!("experiments: --elastic needs KHAOS_STORE (the shared store is the work queue)");
        return false;
    };
    println!("# Table 2: statistics of the fission and the fusion");
    println!("# elastic worker over {}", store.root().display());
    let suites = table2_suites(scope);
    let mut grid: Vec<(usize, usize)> = Vec::new();
    for (si, (_, programs)) in suites.iter().enumerate() {
        for pi in 0..programs.len() {
            grid.push((si, pi));
        }
    }
    let units: Vec<WorkUnit> = grid
        .iter()
        .map(|&(si, pi)| {
            let subject = table2_subject(suites[si].0, &suites[si].1[pi].name);
            WorkUnit {
                label: subject.clone(),
                lease: (subject.clone(), table2_pipeline()),
                outputs: vec![(subject, table2_pipeline())],
            }
        })
        .collect();
    let summary = run_elastic(&store, "table2", &units, |i| {
        let (si, pi) = grid[i];
        let src = &suites[si].1[pi];
        let base = build_baseline(src);
        let (_, fi_ctx) = khaos_apply(&base, KhaosMode::Fission, SEED);
        let (_, fu_ctx) = khaos_apply(&base, KhaosMode::Fusion, SEED);
        let cell = Table2Cell {
            suite: suites[si].0,
            program: src.name.clone(),
            pipeline: table2_pipeline(),
            fission: fi_ctx.fission_stats,
            fusion: fu_ctx.fusion_stats,
        };
        persist_metrics_to(
            &store,
            &cell.subject(),
            cell.pipeline,
            &table2_metrics(&cell),
        );
    });
    print_elastic_summary("table2", &summary);
    elastic_epilogue(table2_merge(scope, &[&store]), |cells| {
        table2_print_table(cells)
    })
}

/// **Table 3** — the CVE inventory of the T-III suite.
pub fn table3() {
    println!("# Table 3: vulnerable functions of Test Suite III");
    println!("{:<16} {:<28} CVE", "program", "function");
    let mut total = 0;
    for (prog, funcs) in TIII_CVES {
        for (f, cve) in *funcs {
            println!("{prog:<16} {f:<28} {cve}");
            total += 1;
        }
    }
    println!("total vulnerable functions: {total}");
}

/// Ablation: the data-flow reduction, parameter compression and deep
/// fusion switches called out in DESIGN.md.
pub fn ablations(scope: Scope) {
    use khaos_core::KhaosOptions;
    println!("# Ablations: Khaos design-choice switches");
    let programs = {
        let mut v = t1_programs(Scope::Quick);
        if scope == Scope::Quick {
            v.truncate(3);
        }
        v
    };

    let run = |name: &str, options: KhaosOptions, mode: KhaosMode| {
        let mut ohs = Vec::new();
        let mut fi = FissionStats::default();
        let mut fu = FusionStats::default();
        let pipeline = khaos_pass::Pipeline::parse(khaos_atom(mode)).expect("ablation spec");
        let results = par_fan_out(&programs, |src| {
            let base = build_baseline(src);
            let base_cycles = measure_cycles(&base);
            let mut m = base.clone();
            let mut ctx = khaos_pass::PassCtx::with_options(SEED, options.clone());
            pipeline.run(&mut m, &mut ctx).expect("ablation build");
            let oh = overhead_pct(base_cycles, measure_cycles(&m));
            (oh, ctx.fission_stats, ctx.fusion_stats)
        });
        for (oh, fis, fus) in &results {
            ohs.push(*oh);
            fi.merge(fis);
            fu.merge(fus);
        }
        println!(
            "{:<34} overhead {:>7.1}%  paramsReduced {:>4}  #RP {:>5.2}  deepPairs {:>4}",
            name,
            geomean_ratio(&ohs),
            fi.params_reduced,
            fu.avg_reduced_params(),
            fu.deep_fused_pairs,
        );
    };

    run(
        "Fission (default)",
        KhaosOptions::default(),
        KhaosMode::Fission,
    );
    run(
        "Fission w/o data-flow reduction",
        KhaosOptions {
            data_flow_reduction: false,
            ..Default::default()
        },
        KhaosMode::Fission,
    );
    run(
        "Fission naive regions (min_value 0)",
        KhaosOptions {
            fission_min_value: 0.0,
            fission_max_regions: 64,
            ..Default::default()
        },
        KhaosMode::Fission,
    );
    run(
        "Fusion (default)",
        KhaosOptions::default(),
        KhaosMode::Fusion,
    );
    run(
        "Fusion w/o param compression",
        KhaosOptions {
            parameter_compression: false,
            ..Default::default()
        },
        KhaosMode::Fusion,
    );
    run(
        "Fusion w/o deep fusion",
        KhaosOptions {
            deep_fusion: false,
            ..Default::default()
        },
        KhaosMode::Fusion,
    );
}

/// **Extension E10** — N-way fusion arity sweep (`ext-arity`).
///
/// Paper §3.3 fixes the fusion arity at two "to balance the performance
/// overhead and the obfuscation effect" and §A.1's tag-bit budget caps
/// the general form at four constituents. This sweep measures the
/// trade-off the paper asserts: overhead and anti-diffing effect as the
/// arity grows.
pub fn ext_arity(scope: Scope) {
    use crate::harness::khaos_apply_nway;
    println!("# Extension: N-way fusion arity sweep (fusion-only builds)");
    println!(
        "{:<8} {:>10} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "arity", "overhead", "BinDiff", "Asm2Vec", "SAFE", "DataFlow", "fus/funcs"
    );
    let programs = t1_programs(scope);
    for arity in 2..=4usize {
        let mut ohs = Vec::new();
        let mut bindiff = Vec::new();
        let mut asm2vec = Vec::new();
        let mut safe = Vec::new();
        let mut dataflow = Vec::new();
        let mut fus_funcs = 0usize;
        let mut eligible = 0usize;
        let results = par_fan_out(&programs, |src| {
            let base = build_baseline(src);
            let base_cycles = measure_cycles(&base);
            let base_bin = lower_module(&base);
            let (obf, ctx) = khaos_apply_nway(&base, arity, SEED);
            let oh = overhead_pct(base_cycles, measure_cycles(&obf));
            let obf_bin = lower_module(&obf);
            (
                oh,
                [
                    binary_similarity(&BinDiff::default(), &base_bin, &obf_bin),
                    precision_at_1(&Asm2Vec::default(), &base_bin, &obf_bin),
                    precision_at_1(&Safe::default(), &base_bin, &obf_bin),
                    precision_at_1(&khaos_diff::DataFlowDiff::default(), &base_bin, &obf_bin),
                ],
                ctx.fusion_stats.fus_funcs,
                ctx.fusion_stats.eligible_funcs,
            )
        });
        for (oh, scores, fus, elig) in results {
            ohs.push(oh);
            bindiff.push(scores[0]);
            asm2vec.push(scores[1]);
            safe.push(scores[2]);
            dataflow.push(scores[3]);
            fus_funcs += fus;
            eligible += elig;
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        println!(
            "{:<8} {:>9.1}% {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>5}/{:<4}",
            arity,
            geomean_ratio(&ohs),
            avg(&bindiff),
            avg(&asm2vec),
            avg(&safe),
            avg(&dataflow),
            fus_funcs,
            eligible,
        );
    }
    println!("# expectation: overhead grows with arity; diffing accuracy falls;");
    println!("# fus/funcs shrinks (each fusFunc swallows more functions)");

    // Same sweep at the paper's obfuscation-effect-first operating point:
    // fission first, then N-way fusion over sepFuncs + untouched originals
    // (the arity-k analogue of FuFi.all).
    println!("\n## FuFi.all at arity k (fission + N-way fusion)");
    println!(
        "{:<8} {:>10} {:>9} {:>9} {:>9}",
        "arity", "overhead", "BinDiff", "Asm2Vec", "SAFE"
    );
    let programs = t1_programs(if scope == Scope::Quick {
        Scope::Quick
    } else {
        Scope::Full
    });
    for arity in 2..=4usize {
        let results = par_fan_out(&programs, |src| {
            let base = build_baseline(src);
            let base_cycles = measure_cycles(&base);
            let base_bin = lower_module(&base);
            let (m, _) = run_spec(&base, &format!("fufi_n(arity={arity}) | O2+lto"), SEED);
            let oh = overhead_pct(base_cycles, measure_cycles(&m));
            let obf_bin = lower_module(&m);
            (
                oh,
                binary_similarity(&BinDiff::default(), &base_bin, &obf_bin),
                precision_at_1(&Asm2Vec::default(), &base_bin, &obf_bin),
                precision_at_1(&Safe::default(), &base_bin, &obf_bin),
            )
        });
        let ohs: Vec<f64> = results.iter().map(|r| r.0).collect();
        let bindiff: Vec<f64> = results.iter().map(|r| r.1).collect();
        let asm2vec: Vec<f64> = results.iter().map(|r| r.2).collect();
        let safe: Vec<f64> = results.iter().map(|r| r.3).collect();
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        println!(
            "{:<8} {:>9.1}% {:>9.3} {:>9.3} {:>9.3}",
            arity,
            geomean_ratio(&ohs),
            avg(&bindiff),
            avg(&asm2vec),
            avg(&safe),
        );
    }
}

/// **Extension E11** — the data-flow-representation differ (`ext-dataflow`).
///
/// Paper §5: *"we predict the potential of data flow representation can
/// be further tapped."* [`khaos_diff::DataFlowDiff`] embeds def-use-chain
/// features only; this experiment reruns the Figure-8 protocol with it
/// alongside the control-flow-reliant tools.
pub fn ext_dataflow(scope: Scope) {
    println!("# Extension: data-flow diffing (paper section-5 prediction)");
    println!("#   Precision@1, relaxed pairing — higher = more Khaos-resistant");
    let configs = BuildConfig::figure8_set();
    let mut programs = t1_programs(scope);
    programs.extend(t2_programs(scope));

    let tools: Vec<(&str, Box<dyn Differ + Sync>)> = vec![
        ("VulSeeker", Box::new(VulSeeker::default())),
        ("Asm2Vec", Box::new(Asm2Vec::default())),
        ("SAFE", Box::new(Safe::default())),
        ("DF/intra", Box::new(khaos_diff::DataFlowDiff::intra_only())),
        ("DataFlow", Box::new(khaos_diff::DataFlowDiff::default())),
    ];
    print!("{:<10}", "config");
    for (t, _) in &tools {
        print!(" {t:>11}");
    }
    println!();
    let prepared: Vec<_> = par_fan_out(&programs, |src| {
        let base = build_baseline(src);
        (lower_module(&base), base)
    });
    for cfg in configs {
        let per_program = par_fan_out(&prepared, |(base_bin, base)| {
            let obf_bin = build_binary(base, cfg);
            tools
                .iter()
                .map(|(_, tool)| precision_at_1(tool.as_ref(), base_bin, &obf_bin))
                .collect::<Vec<f64>>()
        });
        print!("{:<10}", cfg.name());
        for k in 0..tools.len() {
            let avg: f64 =
                per_program.iter().map(|s| s[k]).sum::<f64>() / per_program.len().max(1) as f64;
            print!(" {avg:>11.3}");
        }
        println!();
    }
    println!("# reading: DataFlow is near-immune to intra-procedural obfuscation");
    println!("# (Fla-10 row) and beats the call-graph tool (VulSeeker) under every");
    println!("# Khaos mode; sequence embeddings still edge it out after fission —");
    println!("# see EXPERIMENTS.md E11 for the honest verdict on the section-5 claim");
}

/// **Extension E12** — stripped-binary diffing (`ext-stripped`).
///
/// The paper highlights that BinDiff's resilience comes from symbol
/// names on un-stripped binaries (§4.2, Table 1). Real embedded firmware
/// is stripped; this experiment reruns BinDiff with stripped targets to
/// quantify how much of its accuracy is the symbol table.
pub fn ext_stripped(scope: Scope) {
    println!("# Extension: BinDiff with stripped targets (symbols removed)");
    println!(
        "{:<10} {:>13} {:>13} {:>11} {:>11}",
        "config", "sim/unstrip", "sim/strip", "P@1/unstrip", "P@1/strip"
    );
    let configs: Vec<BuildConfig> = vec![
        BuildConfig::Ollvm(OllvmMode::Sub(1.0)),
        BuildConfig::Ollvm(OllvmMode::Fla(0.1)),
        BuildConfig::Khaos(KhaosMode::Fission),
        BuildConfig::Khaos(KhaosMode::Fusion),
        BuildConfig::Khaos(KhaosMode::FuFiAll),
    ];
    let programs = t1_programs(scope);
    for cfg in configs {
        let tool = BinDiff::default();
        let results = par_fan_out(&programs, |src| {
            let base = build_baseline(src);
            let base_bin = lower_module(&base);
            let obf_bin = build_binary(&base, cfg);
            let mut stripped = obf_bin.clone();
            stripped.strip();
            [
                binary_similarity(&tool, &base_bin, &obf_bin),
                binary_similarity(&tool, &base_bin, &stripped),
                precision_at_1(&tool, &base_bin, &obf_bin),
                precision_at_1(&tool, &base_bin, &stripped),
            ]
        });
        let sim_u: Vec<f64> = results.iter().map(|r| r[0]).collect();
        let sim_s: Vec<f64> = results.iter().map(|r| r[1]).collect();
        let p_u: Vec<f64> = results.iter().map(|r| r[2]).collect();
        let p_s: Vec<f64> = results.iter().map(|r| r[3]).collect();
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        println!(
            "{:<10} {:>13.3} {:>13.3} {:>11.3} {:>11.3}",
            cfg.name(),
            avg(&sim_u),
            avg(&sim_s),
            avg(&p_u),
            avg(&p_s)
        );
    }
    println!("# expectation: stripping costs BinDiff accuracy everywhere, and");
    println!("# under Khaos the structural fallback has nothing left to hold onto");
}
