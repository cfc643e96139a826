//! Criterion bench behind Figures 6/7: obfuscation + simulated execution
//! cost of each build configuration on a representative program. The
//! timed calls bypass the harness memos (`run_cycles`, and `run_spec_in`
//! with no store), so every iteration runs the VM or the pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use khaos_bench::{build_baseline, build_config, run_cycles, run_spec_in, BuildConfig, SEED};
use khaos_core::KhaosMode;
use khaos_ollvm::OllvmMode;
use khaos_workloads::spec2006;

fn bench_overhead(c: &mut Criterion) {
    let src = spec2006().swap_remove(3); // 429.mcf
    let base = build_baseline(&src);
    let mut group = c.benchmark_group("overhead_mcf");
    group.sample_size(10);

    group.bench_function("baseline_run", |b| b.iter(|| run_cycles(&base)));
    for cfg in [
        BuildConfig::Ollvm(OllvmMode::Sub(1.0)),
        BuildConfig::Ollvm(OllvmMode::Fla(0.1)),
        BuildConfig::Khaos(KhaosMode::Fission),
        BuildConfig::Khaos(KhaosMode::Fusion),
        BuildConfig::Khaos(KhaosMode::FuFiAll),
    ] {
        let obf = build_config(&base, cfg);
        group.bench_with_input(BenchmarkId::new("run", cfg.name()), &obf, |b, m| {
            b.iter(|| run_cycles(m))
        });
        group.bench_with_input(BenchmarkId::new("obfuscate", cfg.name()), &base, |b, m| {
            b.iter(|| run_spec_in(None, m, &cfg.spec(), SEED).0)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
