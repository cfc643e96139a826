//! Criterion bench for Khaos's design-choice ablations: data-flow
//! reduction, region selection policy, parameter compression and deep
//! fusion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use khaos_bench::{build_baseline, khaos_atom, run_cycles, SEED};
use khaos_core::{KhaosMode, KhaosOptions};
use khaos_pass::{PassCtx, Pipeline};
use khaos_workloads::spec2006;

fn apply_with(base: &khaos_ir::Module, mode: KhaosMode, options: KhaosOptions) -> khaos_ir::Module {
    let mut m = base.clone();
    let mut ctx = PassCtx::with_options(SEED, options);
    Pipeline::parse(khaos_atom(mode))
        .expect("ablation spec")
        .run(&mut m, &mut ctx)
        .expect("ablation build");
    m
}

fn bench_ablation(c: &mut Criterion) {
    let src = spec2006().swap_remove(3);
    let base = build_baseline(&src);
    let mut group = c.benchmark_group("ablation_mcf");
    group.sample_size(10);

    let variants: Vec<(&str, KhaosMode, KhaosOptions)> = vec![
        (
            "fission_default",
            KhaosMode::Fission,
            KhaosOptions::default(),
        ),
        (
            "fission_no_dfr",
            KhaosMode::Fission,
            KhaosOptions {
                data_flow_reduction: false,
                ..Default::default()
            },
        ),
        (
            "fission_naive_regions",
            KhaosMode::Fission,
            KhaosOptions {
                fission_min_value: 0.0,
                fission_max_regions: 64,
                ..Default::default()
            },
        ),
        ("fusion_default", KhaosMode::Fusion, KhaosOptions::default()),
        (
            "fusion_no_compress",
            KhaosMode::Fusion,
            KhaosOptions {
                parameter_compression: false,
                ..Default::default()
            },
        ),
        (
            "fusion_no_deep",
            KhaosMode::Fusion,
            KhaosOptions {
                deep_fusion: false,
                ..Default::default()
            },
        ),
    ];
    for (name, mode, options) in variants {
        let obf = apply_with(&base, mode, options);
        group.bench_with_input(BenchmarkId::new("run", name), &obf, |b, m| {
            b.iter(|| run_cycles(m))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
