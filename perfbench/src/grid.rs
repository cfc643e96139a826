//! `build-grid` — build and measure each program once per
//! configuration, with no repeats.
//!
//! **Why.** It times `workloads`/`pass`/`ir`/`binary`/`vm` from
//! outside on builds that are all distinct: a build memo has nothing to
//! reuse here, so the prediction for one is *no change*. It also
//! exposes the VM, which no span covers.
//!
//! **Set-up** (`setup_s`, median of [`SETUP_REPS`]): generate T-I ∪
//! T-II (`workloads.generate_s`), run every unoptimized source once in
//! the VM — the differential reference (`vm.reference_s`) — and draw
//! the programs.
//!
//! **What the seed selects.** The programs are sorted by the reference
//! run's interpreter steps (the VM dominates a build's time) and cut
//! into pairs of neighbours; the seed picks one program of each pair.
//! So the draw is half of the pool with nearly the same cost whatever
//! the seed, which keeps the seed's share of the run-to-run spread
//! small.
//!
//! **Timed phase.** One pass over the draw, one client, closed loop:
//! about 20 s on one core of a 2-core x86-64 host, so it is sized to
//! `run_seconds` rather than bounded by `--seconds` (a second pass
//! would have to rebuild a program or change the cost mix). For each
//! program, ten *measured builds* — `O2+lto` on the source, and each
//! Fig. 7 config on that baseline — each being `Pipeline::run` under
//! `VerifyPolicy::AuditAfterEach` (as `run_spec` does), `lower_module`,
//! and a VM run whose output and exit code must equal the reference's.
//!
//! **Layer metric → end-to-end metric it should move**
//! - `pass.opt_s`, `pass.khaos_s`, `pass.ollvm_s`, `ir.verify_audit_s`
//!   → `items_per_s`, `item_p50_ms`, `wall_s`, `cpu_s`
//! - `binary.lower_s`, `vm.run_s` → `items_per_s`, `item_p50_ms`
//! - `workloads.generate_s`, `vm.reference_s` → `setup_s`
//! - `pass.runs`, `pass.ir_insts_out`, `vm.steps`,
//!   `workloads.functions`, `grid.code_size_insts` are work counts: they
//!   change only when the work itself changes.

use crate::{
    cpu_seconds, median, peak_rss_mb, secs, Fault, Layers, Report, RunArgs, Size, SplitMix,
};
use khaos_bench::experiments::fig7_configs;
use khaos_bench::{geomean_ratio, overhead_pct, BuildConfig, SEED};
use khaos_binary::lower_module;
use khaos_ir::Module;
use khaos_pass::{PassCtx, Pipeline, PipelineReport, VerifyPolicy};
use khaos_vm::{run_with_config, RunConfig, RunResult};
use std::collections::HashSet;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 2;

/// The spec of the baseline build every config is applied on top of.
const BASELINE: &str = "O2+lto";

/// The layer metric a pass's time is charged to, by its spec atom.
pub fn pass_layer(atom: &str) -> &'static str {
    match atom.split('(').next().unwrap_or(atom) {
        "fission" | "fusion" | "fusion_n" | "fufi_sep" | "fufi_ori" | "fufi_all" | "fufi_n" => {
            "pass.khaos_s"
        }
        "sub" | "bog" | "fla" => "pass.ollvm_s",
        _ => "pass.opt_s",
    }
}

/// Charges a pipeline report to the pass layers, and its remainder
/// (verification and audit) to `ir.verify_audit_s`.
pub fn charge_report(layers: &mut Layers, report: &mut Report, r: &PipelineReport) {
    let mut in_passes = 0.0;
    for p in &r.passes {
        let s = p.duration.as_secs_f64();
        in_passes += s;
        layers.add(pass_layer(&p.pass), s);
    }
    layers.add(
        "ir.verify_audit_s",
        (r.total.as_secs_f64() - in_passes).max(0.0),
    );
    report.add("pass.runs", 1.0);
    if let Some(last) = r.passes.last() {
        report.add("pass.ir_insts_out", last.after.insts as f64);
    }
}

/// Runs `spec` over a clone of `src` exactly as the harness's
/// `run_spec` does (fresh context seeded [`SEED`], verify + audit
/// after every pass), without touching any store.
pub fn build(src: &Module, spec: &str) -> (Module, PipelineReport) {
    let pipeline = Pipeline::parse(spec).unwrap_or_else(|e| panic!("spec `{spec}`: {e}"));
    let mut m = src.clone();
    let mut ctx = PassCtx::new(SEED).with_verify(VerifyPolicy::AuditAfterEach);
    let _span = khaos_obs::span("bench:pipeline");
    let report = pipeline
        .run(&mut m, &mut ctx)
        .unwrap_or_else(|e| panic!("pipeline `{spec}` on {}: {e}", src.name));
    (m, report)
}

/// The VM configuration of every run (the harness's `measure_cycles`).
fn vm_config() -> RunConfig {
    RunConfig {
        inputs: vec![3, 7, 11],
        ..RunConfig::default()
    }
}

fn run_vm(m: &Module) -> RunResult {
    run_with_config(m, vm_config()).unwrap_or_else(|e| panic!("{} failed to run: {e}", m.name))
}

/// The program pool: T-I ∪ T-II (four T-II programs when tiny).
fn generate(size: Size) -> Vec<Module> {
    match size {
        Size::Full => {
            let mut v = khaos_workloads::spec2006();
            v.extend(khaos_workloads::spec2017());
            v.extend(khaos_workloads::coreutils());
            v
        }
        Size::Tiny => ["cat", "ls", "echo", "wc"]
            .iter()
            .enumerate()
            .map(|(i, n)| khaos_workloads::coreutils_program(n, i as u64))
            .collect(),
    }
}

/// The drawn programs as pool indices (see the module docs). `cost[i]`
/// orders the programs — the reference run's interpreter steps, since
/// the VM dominates a build's time.
pub fn draw(pool: &[Module], cost: &[u64], seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pool.len()).collect();
    // Costliest first, so the program an odd pool drops is the
    // cheapest; name breaks ties so the order is total.
    order.sort_by(|&a, &b| {
        cost[b]
            .cmp(&cost[a])
            .then_with(|| pool[a].name.cmp(&pool[b].name))
    });
    let mut rng = SplitMix::new(seed);
    order
        .chunks_exact(2)
        .map(|pair| pair[rng.below(2)])
        .collect()
}

/// Runs the workload into `report`.
pub fn run(args: &RunArgs, report: &mut Report) {
    args.install_trace("build-grid");
    let (mut setups, mut gens, mut refs) = (Vec::new(), Vec::new(), Vec::new());
    let mut drawn = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let mut layers = Layers::default();
        let pool = layers.time("workloads.generate_s", || generate(args.size));
        let reference: Vec<RunResult> = pool
            .iter()
            .map(|src| layers.time("vm.reference_s", || run_vm(src)))
            .collect();
        let cost: Vec<u64> = reference.iter().map(|r| r.steps).collect();
        let programs = draw(&pool, &cost, args.seed);
        setups.push(secs(start));
        gens.push(layers.get("workloads.generate_s"));
        refs.push(layers.get("vm.reference_s"));
        drawn = Some((pool, reference, programs));
    }
    let (pool, mut reference, programs) = drawn.expect("at least one set-up");
    report.set("setup_s", median(&setups));
    report.set("workloads.generate_s", median(&gens));
    report.set("vm.reference_s", median(&refs));
    report.set(
        "workloads.functions",
        programs
            .iter()
            .map(|&i| pool[i].functions.len() as f64)
            .sum(),
    );
    if args.fault == Fault::Reference {
        reference[programs[0]].output.push(1);
    }

    let configs: Vec<(String, BuildConfig)> = match args.size {
        Size::Full => fig7_configs(),
        Size::Tiny => fig7_configs().into_iter().step_by(4).collect(),
    };
    let mut layers = Layers::default();
    let mut latencies_ms = Vec::new();
    let mut khaos_overheads = Vec::new();
    let mut distinct = HashSet::new();
    let (started, cpu0) = (Instant::now(), cpu_seconds());
    for &pi in &programs {
        let (src, reference) = (&pool[pi], &reference[pi]);
        let mut measured = |input: &Module, spec: &str, label: &str| {
            let t = Instant::now();
            let (built, r) = build(input, spec);
            charge_report(&mut layers, report, &r);
            let bin = layers.time("binary.lower_s", || lower_module(&built));
            let res = layers.time("vm.run_s", || run_vm(&built));
            report.check(
                res.output == reference.output && res.exit_code == reference.exit_code,
                || {
                    format!(
                        "{} `{label}`: VM output/exit differ from the source run",
                        src.name
                    )
                },
            );
            latencies_ms.push(secs(t) * 1e3);
            report.add("vm.steps", res.steps as f64);
            report.add("grid.code_size_insts", bin.inst_count() as f64);
            distinct.insert((src.name.clone(), label.to_string()));
            (built, res.cycles)
        };
        let (base, base_cycles) = measured(src, BASELINE, BASELINE);
        for (name, cfg) in &configs {
            let (_, cycles) = measured(&base, &cfg.spec(), name);
            if matches!(cfg, BuildConfig::Khaos(_)) {
                khaos_overheads.push(overhead_pct(base_cycles, cycles));
            }
        }
    }
    let (wall, cpu) = (secs(started), cpu_seconds() - cpu0);

    report.set("wall_s", wall);
    report.set("cpu_s", cpu);
    report.set("items_per_s", latencies_ms.len() as f64 / wall);
    report.set("item_p50_ms", median(&latencies_ms));
    report.set("peak_rss_mb", peak_rss_mb());
    report.set_item_tail(&latencies_ms);
    report.set("grid.obf_overhead_pct", geomean_ratio(&khaos_overheads));
    let runs = report.get("pass.runs").unwrap_or(0.0);
    report.set(
        "pass.useful_build_ratio",
        distinct.len() as f64 / runs.max(1.0),
    );
    layers.into_report(report);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_take_one_of_each_pair_and_are_seeded() {
        let pool = generate(Size::Tiny);
        let cost = [5, 1, 4, 2];
        let mut seen = HashSet::new();
        for seed in 0..16 {
            let d = draw(&pool, &cost, seed);
            assert_eq!(d, draw(&pool, &cost, seed));
            // Pairs {0, 2} and {3, 1}: one of each, costliest pair first.
            assert!(
                d.len() == 2 && [0, 2].contains(&d[0]) && [3, 1].contains(&d[1]),
                "{d:?}"
            );
            seen.extend(d);
        }
        assert_eq!(seen.len(), 4, "every program is drawn by some seed");
    }

    #[test]
    fn passes_are_charged_by_atom() {
        assert_eq!(pass_layer("fufi_ori"), "pass.khaos_s");
        assert_eq!(pass_layer("fla(ratio=0.1)"), "pass.ollvm_s");
        assert_eq!(pass_layer("O2+lto"), "pass.opt_s");
    }
}
