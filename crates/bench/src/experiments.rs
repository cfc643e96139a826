//! The per-figure / per-table experiment drivers.
//!
//! Every function prints the same rows or series the paper's artifact
//! reports. See `EXPERIMENTS.md` at the repository root for paper-vs-
//! measured notes. Figure 7, Figure 9, Figure 10 and Table 2 are
//! [`Grid`]s ([`Fig7`], [`Fig9`], [`Fig10`], [`Table2`]): besides the
//! plain drivers here, [`grid::run`] runs them as elastic workers or
//! decodes them from stores.

use crate::coordinator::WorkUnit;
use crate::grid::{self, Grid, Mode};
use crate::harness::{
    build_at, build_baseline, build_binary, build_config, geomean, geomean_ratio, khaos_apply,
    khaos_atom, measure_cycles, overhead_pct, par_fan_out, run_spec, stats_counters,
    stats_from_counters, BuildConfig, SEED, STATS_COUNTERS,
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

/// **Figure 6** — runtime overhead of the five Khaos modes on the SPEC
/// CPU 2006/2017 stand-ins, per program plus geometric means.
pub fn fig6(scope: Scope) {
    println!("# Figure 6: runtime overhead (%) of Khaos modes, baseline O2+LTO");
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "program", "Fission", "Fusion", "FuFi.sep", "FuFi.ori", "FuFi.all"
    );
    let mut per_mode: Vec<Vec<f64>> = vec![Vec::new(); KhaosMode::ALL.len()];
    let programs = t1_programs(scope);
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

/// Flattens suites into `(suite, program)` pairs, in suite order.
fn in_suites(suites: Vec<(&'static str, Vec<Module>)>) -> Vec<(&'static str, Module)> {
    suites
        .into_iter()
        .flat_map(|(suite, programs)| programs.into_iter().map(move |m| (suite, m)))
        .collect()
}

/// First-seen-order dedup: the row/column orders of the printed tables.
fn uniq<T: PartialEq>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut v = Vec::new();
    for x in items {
        if !v.contains(&x) {
            v.push(x);
        }
    }
    v
}

/// **Figure 7** as a [`Grid`]: one unit per program, one cell per
/// configuration, holding the runtime overhead (%) of the program built
/// under it against its `O2+LTO` baseline. Cells persist as
/// `fig7/<suite>/<program>/<config>` under the configuration's
/// pipeline fingerprint.
pub struct Fig7 {
    programs: Vec<(&'static str, Module)>,
    configs: Vec<(String, BuildConfig)>,
}

impl Fig7 {
    /// The Figure-7 grid at `scope`.
    pub fn new(scope: Scope) -> Fig7 {
        Fig7 {
            programs: in_suites(fig7_suites(scope)),
            configs: fig7_configs(),
        }
    }
}

impl Grid for Fig7 {
    fn name(&self) -> &'static str {
        "Figure 7"
    }

    fn title(&self) -> &'static str {
        "# Figure 7: runtime overhead (%) — O-LLVM vs Khaos (GEOMEAN)"
    }

    fn metrics(&self) -> &'static [&'static str] {
        &["overhead%"]
    }

    fn units(&self) -> Vec<WorkUnit> {
        let configs: Vec<(&str, u64)> = self
            .configs
            .iter()
            .map(|(name, cfg)| (name.as_str(), cfg.fingerprint()))
            .collect();
        self.programs
            .iter()
            .map(|(suite, src)| WorkUnit {
                label: format!("fig7/{suite}/{}", src.name),
                outputs: configs
                    .iter()
                    .map(|(config, fp)| (format!("fig7/{suite}/{}/{config}", src.name), *fp))
                    .collect(),
            })
            .collect()
    }

    fn compute(&self, unit: usize) -> Vec<Vec<f64>> {
        let base = build_baseline(&self.programs[unit].1);
        let base_cycles = measure_cycles(&base);
        self.configs
            .iter()
            .map(|(_, cfg)| {
                let obf = build_config(&base, *cfg);
                vec![overhead_pct(base_cycles, measure_cycles(&obf))]
            })
            .collect()
    }

    /// Config rows, per-suite geometric means plus the overall GEOMEAN.
    fn print(&self, cells: &[Vec<f64>]) {
        let rows: Vec<(&str, &[Vec<f64>])> = self
            .programs
            .iter()
            .map(|(suite, _)| *suite)
            .zip(cells.chunks(self.configs.len()))
            .collect();
        let suites = uniq(rows.iter().map(|(suite, _)| *suite));
        print!("{:<14}", "config");
        for sname in &suites {
            print!(" {sname:>15}");
        }
        println!(" {:>10}", "GEOMEAN");
        for (ci, (config, _)) in self.configs.iter().enumerate() {
            let mut all = Vec::new();
            print!("{config:<14}");
            for suite in &suites {
                let ohs: Vec<f64> = rows
                    .iter()
                    .filter(|(s, _)| s == suite)
                    .map(|(_, row)| row[ci][0])
                    .collect();
                all.extend_from_slice(&ohs);
                print!(" {:>14.1}%", geomean_ratio(&ohs));
            }
            println!(" {:>9.1}%", geomean_ratio(&all));
        }
    }
}

/// **Figure 7** — overhead comparison against O-LLVM (Sub/Bog/Fla at
/// 100%, Fla-10 at 10%) with geometric means per suite.
pub fn fig7(scope: Scope) {
    grid::run(&Fig7::new(scope), scope, Mode::Plain);
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

/// The metric names of one Figure-9 cell, in row order.
const FIG9_METRICS: [&str; 9] = [
    "bt/o0", "bt/o1", "bt/o2", "bt/o3", "kh/o0", "kh/o1", "kh/o2", "kh/o3", "bt-ovh%",
];

/// **Figure 9** as a [`Grid`]: one unit and one cell per program,
/// holding the BinDiff similarity of its BinTuner and Khaos
/// (`FuFi.all`) builds against its `O0`–`O3` builds, plus BinTuner's
/// runtime overhead against the `O2+LTO` baseline. Cells persist as
/// `fig9/<program>` under the Khaos build's pipeline fingerprint (the
/// BinTuner search has no pipeline spec of its own).
pub struct Fig9 {
    programs: Vec<Module>,
}

impl Fig9 {
    /// The Figure-9 grid at `scope`.
    pub fn new(scope: Scope) -> Fig9 {
        Fig9 {
            programs: fig9_programs(scope),
        }
    }
}

impl Grid for Fig9 {
    fn name(&self) -> &'static str {
        "Figure 9"
    }

    fn title(&self) -> &'static str {
        "# Figure 9: BinDiff similarity — BinTuner vs Khaos (FuFi.all)"
    }

    fn metrics(&self) -> &'static [&'static str] {
        &FIG9_METRICS
    }

    fn units(&self) -> Vec<WorkUnit> {
        let pipeline = BuildConfig::Khaos(KhaosMode::FuFiAll).fingerprint();
        self.programs
            .iter()
            .map(|m| {
                let subject = format!("fig9/{}", m.name);
                WorkUnit {
                    label: subject.clone(),
                    outputs: vec![(subject, pipeline)],
                }
            })
            .collect()
    }

    fn compute(&self, unit: usize) -> Vec<Vec<f64>> {
        let src = &self.programs[unit];
        let differ = BinDiff::default();
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
        let mut row: Vec<f64> = refs
            .iter()
            .map(|r| binary_similarity(&differ, r, &tuned.binary))
            .collect();
        row.extend(
            refs.iter()
                .map(|r| binary_similarity(&differ, r, &khaos_bin)),
        );
        row.push(bt_overhead);
        vec![row]
    }

    /// Per-program rows plus the GEOMEAN row.
    fn print(&self, cells: &[Vec<f64>]) {
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
        let line = |label: &str, similarity: &[f64], overhead: f64| {
            let mut row = format!("{label:<18}");
            for (k, s) in similarity.iter().enumerate() {
                if k == 4 {
                    row.push_str("  ");
                }
                row.push_str(&format!(" {s:>8.3}"));
            }
            println!("{row} {overhead:>9.1}%");
        };
        for (m, row) in self.programs.iter().zip(cells) {
            line(&m.name, &row[..8], row[8]);
        }
        let column = |k: usize| -> Vec<f64> { cells.iter().map(|row| row[k]).collect() };
        let means: Vec<f64> = (0..8).map(|k| geomean(&column(k))).collect();
        line("GEOMEAN", &means, geomean_ratio(&column(8)));
        println!(
            "# paper: Khaos scores well below BinTuner at every level; BinTuner overhead 30.35%"
        );
    }
}

/// **Figure 9** — BinDiff similarity of BinTuner and Khaos builds against
/// `O0`–`O3` reference builds, plus BinTuner's runtime overhead against
/// the paper's `O2+LTO` Khaos baseline (paper reports 30.35%).
pub fn fig9(scope: Scope) {
    grid::run(&Fig9::new(scope), scope, Mode::Plain);
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
/// grid end-to-end tests stay cheap.
fn fig10_programs(scope: Scope) -> Vec<Module> {
    let mut v = tiii();
    if scope == Scope::Quick {
        v.truncate(2);
    }
    v
}

/// **Figure 10** as a [`Grid`]: one unit per T-III program, one cell
/// per `(config, tool)`, holding the tool's `escape@{1,10,50}`
/// ([`FIG10_KS`]) on the program built under the configuration. The
/// expensive part of a cell is the build, shared by the three tool
/// cells of a configuration. Cells persist as
/// `fig10/<program>/<config>/<tool>` under the configuration's
/// pipeline fingerprint.
pub struct Fig10 {
    programs: Vec<Module>,
    configs: Vec<(String, BuildConfig)>,
    tools: Vec<(&'static str, Box<dyn Differ + Sync>)>,
}

impl Fig10 {
    /// The Figure-10 grid at `scope`.
    pub fn new(scope: Scope) -> Fig10 {
        Fig10 {
            programs: fig10_programs(scope),
            configs: fig10_configs(),
            tools: fig10_tools(),
        }
    }
}

impl Grid for Fig10 {
    fn name(&self) -> &'static str {
        "Figure 10"
    }

    fn title(&self) -> &'static str {
        "# Figure 10: escape ratio of vulnerable functions (T-III)"
    }

    fn metrics(&self) -> &'static [&'static str] {
        &["escape@1", "escape@10", "escape@50"]
    }

    fn units(&self) -> Vec<WorkUnit> {
        let configs: Vec<(&str, u64)> = self
            .configs
            .iter()
            .map(|(name, cfg)| (name.as_str(), cfg.fingerprint()))
            .collect();
        self.programs
            .iter()
            .map(|m| WorkUnit {
                label: format!("fig10/{}", m.name),
                outputs: configs
                    .iter()
                    .flat_map(|(config, fp)| {
                        self.tools.iter().map(move |(tool, _)| {
                            (format!("fig10/{}/{config}/{tool}", m.name), *fp)
                        })
                    })
                    .collect(),
            })
            .collect()
    }

    fn compute(&self, unit: usize) -> Vec<Vec<f64>> {
        let base = build_baseline(&self.programs[unit]);
        let base_bin = lower_module(&base);
        let mut rows = Vec::new();
        for (_, cfg) in &self.configs {
            let obf_bin = build_binary(&base, *cfg);
            for (_, tool) in &self.tools {
                rows.push(escape_profile(
                    tool.as_ref(),
                    &base_bin,
                    &obf_bin,
                    &FIG10_KS,
                ));
            }
        }
        rows
    }

    /// One table per threshold: config rows × tool columns, averaged
    /// over programs. The header names the grid's programs, so a merge
    /// at another scope than its workers' is visibly a different grid.
    fn print(&self, cells: &[Vec<f64>]) {
        let programs: Vec<&str> = self.programs.iter().map(|m| m.name.as_str()).collect();
        println!(
            "# grid: {} cells over {} program(s): {}",
            cells.len(),
            programs.len(),
            programs.join(", ")
        );
        let tools = self.tools.len();
        let units: Vec<&[Vec<f64>]> = cells.chunks(self.configs.len() * tools).collect();
        for (ki, k) in FIG10_KS.iter().enumerate() {
            println!("\n## escape@{k}");
            print!("{:<10}", "config");
            for (t, _) in &self.tools {
                print!(" {t:>10}");
            }
            println!();
            for (ci, (config, _)) in self.configs.iter().enumerate() {
                print!("{config:<10}");
                for ti in 0..tools {
                    let scores: Vec<f64> = units.iter().map(|u| u[ci * tools + ti][ki]).collect();
                    let avg = scores.iter().sum::<f64>() / scores.len().max(1) as f64;
                    print!(" {avg:>10.2}");
                }
                println!();
            }
        }
    }
}

/// **Figure 10** — escape@1/10/50 of the T-III vulnerable functions under
/// each obfuscation.
pub fn fig10(scope: Scope) {
    grid::run(&Fig10::new(scope), scope, Mode::Plain);
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
    let programs = t1_programs(scope);

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

/// **Table 2** as a [`Grid`]: one unit and one cell per program,
/// holding the fission counters of its pure-fission build and the
/// fusion counters of its pure-fusion build (the paper measures the
/// primitives individually, "without the combination"). Cells persist
/// as `table2/<suite>/<program>` under the fission build's pipeline
/// fingerprint, as the raw counters in [`STATS_COUNTERS`] order, not
/// the derived ratios: counters sum per suite and ratios do not, which
/// keeps a merged table bit-identical to a single-process run.
pub struct Table2 {
    programs: Vec<(&'static str, Module)>,
}

impl Table2 {
    /// The Table-2 grid at `scope`.
    pub fn new(scope: Scope) -> Table2 {
        Table2 {
            programs: in_suites(table2_suites(scope)),
        }
    }
}

impl Grid for Table2 {
    fn name(&self) -> &'static str {
        "Table 2"
    }

    fn title(&self) -> &'static str {
        "# Table 2: statistics of the fission and the fusion"
    }

    fn title_on_merge(&self) -> bool {
        true
    }

    fn metrics(&self) -> &'static [&'static str] {
        &STATS_COUNTERS
    }

    fn units(&self) -> Vec<WorkUnit> {
        let pipeline = BuildConfig::Khaos(KhaosMode::Fission).fingerprint();
        self.programs
            .iter()
            .map(|(suite, m)| {
                let subject = format!("table2/{suite}/{}", m.name);
                WorkUnit {
                    label: subject.clone(),
                    outputs: vec![(subject, pipeline)],
                }
            })
            .collect()
    }

    fn compute(&self, unit: usize) -> Vec<Vec<f64>> {
        let base = build_baseline(&self.programs[unit].1);
        let (_, fi_ctx) = khaos_apply(&base, KhaosMode::Fission, SEED);
        let (_, fu_ctx) = khaos_apply(&base, KhaosMode::Fusion, SEED);
        vec![stats_counters(&fi_ctx.fission_stats, &fu_ctx.fusion_stats).to_vec()]
    }

    /// Per-suite aggregates, summed in canonical program order.
    fn print(&self, cells: &[Vec<f64>]) {
        println!(
            "{:<16} {:>12} {:>8} {:>8} {:>13} {:>8} {:>8}",
            "suite", "FissionRatio", "#BB", "RR", "FusionRatio", "#RP", "#HBB"
        );
        for suite in uniq(self.programs.iter().map(|(suite, _)| *suite)) {
            let mut fi = FissionStats::default();
            let mut fu = FusionStats::default();
            for (row, _) in cells
                .iter()
                .zip(&self.programs)
                .filter(|(_, (s, _))| *s == suite)
            {
                let (cell_fi, cell_fu) = stats_from_counters(row);
                fi.merge(&cell_fi);
                fu.merge(&cell_fu);
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
}

/// **Table 2** — fission/fusion internal statistics per suite.
pub fn table2(scope: Scope) {
    grid::run(&Table2::new(scope), scope, Mode::Plain);
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
