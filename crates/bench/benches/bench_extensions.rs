//! Criterion bench for the extension features: the N-way fusion arity
//! sweep (runtime cost of higher-arity fused binaries) and the
//! data-flow differ's matching throughput against the paper tools.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use khaos_bench::{build_baseline, khaos_apply_nway, run_cycles, SEED};
use khaos_binary::lower_module;
use khaos_diff::{Asm2Vec, DataFlowDiff, Differ, Safe};
use khaos_workloads::spec2006;

/// Simulated runtime of arity-2/3/4 fused builds (extension E10: the
/// overhead side of the paper's §3.3 arity trade-off).
fn bench_nway_overhead(c: &mut Criterion) {
    let src = spec2006().swap_remove(3); // 429.mcf
    let base = build_baseline(&src);
    let mut group = c.benchmark_group("nway_overhead_mcf");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("run", "baseline"), &base, |b, m| {
        b.iter(|| run_cycles(m))
    });
    for arity in 2..=4usize {
        let (obf, _) = khaos_apply_nway(&base, arity, SEED);
        group.bench_with_input(
            BenchmarkId::new("run", format!("arity{arity}")),
            &obf,
            |b, m| b.iter(|| run_cycles(m)),
        );
    }
    group.finish();
}

/// Transform cost of the N-way driver itself (obfuscation is a build
/// step; it must stay cheap).
fn bench_nway_transform(c: &mut Criterion) {
    let src = spec2006().swap_remove(3);
    let base = build_baseline(&src);
    let mut group = c.benchmark_group("nway_transform_mcf");
    group.sample_size(10);
    for arity in 2..=4usize {
        group.bench_with_input(
            BenchmarkId::new("fuse", format!("arity{arity}")),
            &base,
            |b, m| b.iter(|| khaos_apply_nway(m, arity, SEED)),
        );
    }
    group.finish();
}

/// Matching throughput of the data-flow differ vs the learned-model
/// stand-ins (extension E11; §5 notes smaller granularity costs more —
/// the data-flow representation must stay tractable to be useful).
fn bench_dataflow_matching(c: &mut Criterion) {
    let src = spec2006().swap_remove(3);
    let base = build_baseline(&src);
    let bin = lower_module(&base);
    let mut group = c.benchmark_group("differ_matching_mcf");
    group.sample_size(10);
    let tools: Vec<(&str, Box<dyn Differ>)> = vec![
        ("asm2vec", Box::new(Asm2Vec::default())),
        ("safe", Box::new(Safe::default())),
        ("dataflow_intra", Box::new(DataFlowDiff::intra_only())),
        ("dataflow", Box::new(DataFlowDiff::default())),
    ];
    for (name, tool) in tools {
        group.bench_with_input(BenchmarkId::new("match", name), &bin, |b, bin| {
            b.iter(|| tool.similarity_matrix(bin, bin))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_nway_overhead,
    bench_nway_transform,
    bench_dataflow_matching
);
criterion_main!(benches);
