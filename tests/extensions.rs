//! Integration tests for the extension features: N-way fusion
//! (paper §3.3's "any number of functions" generalization), the
//! data-flow differ (§5's prediction) and stripped-binary diffing.

use khaos::binary::lower_module;
use khaos::diff::{precision_at_1, BinDiff, DataFlowDiff};
use khaos::obfuscate::{fufi_n, fusion, fusion_n, KhaosContext, KhaosError, KhaosMode};
use khaos::opt::{optimize, OptOptions};
use khaos::vm::{run_to_completion, RunResult};
use khaos::workloads;
use khaos_ir::Module;

fn baseline(m: &Module) -> RunResult {
    run_to_completion(m, &[3, 7]).unwrap_or_else(|e| panic!("{} baseline: {e}", m.name))
}

fn sample_programs() -> Vec<Module> {
    vec![
        workloads::spec2006().swap_remove(3),  // 429.mcf
        workloads::spec2006().swap_remove(12), // 462.libquantum
        workloads::coreutils_program("wc", 21),
        workloads::tiii().swap_remove(0), // jerryscript
    ]
}

#[test]
fn nway_fusion_preserves_behaviour_at_every_arity() {
    for src in sample_programs() {
        let mut opt = src.clone();
        optimize(&mut opt, &OptOptions::baseline());
        let want = baseline(&opt);

        for arity in 2..=4usize {
            let mut m = opt.clone();
            let mut ctx = KhaosContext::new(0xAB + arity as u64);
            fusion_n(&mut m, &mut ctx, arity)
                .unwrap_or_else(|e| panic!("{} arity {arity}: {e}", src.name));
            khaos_ir::verify::assert_valid(&m);
            // The full compiler pipeline reruns after obfuscation, as in
            // the paper's middle-end scheduling.
            optimize(&mut m, &OptOptions::baseline());
            khaos_ir::verify::assert_valid(&m);
            let got = run_to_completion(&m, &[3, 7])
                .unwrap_or_else(|e| panic!("{} arity {arity}: {e}", src.name));
            assert_eq!(
                want.output, got.output,
                "{} arity {arity}: output",
                src.name
            );
            assert_eq!(
                want.exit_code, got.exit_code,
                "{} arity {arity}: exit",
                src.name
            );
        }
    }
}

#[test]
fn fufi_n_preserves_behaviour_and_mixes_provenance() {
    for src in sample_programs().into_iter().take(2) {
        let mut opt = src.clone();
        optimize(&mut opt, &OptOptions::baseline());
        let want = baseline(&opt);

        for arity in [3usize, 4] {
            let mut m = opt.clone();
            let mut ctx = KhaosContext::new(0xF00 + arity as u64);
            fufi_n(&mut m, &mut ctx, arity)
                .unwrap_or_else(|e| panic!("{} fufi_n {arity}: {e}", src.name));
            assert!(ctx.fission_stats.sep_funcs > 0, "{}: fission ran", src.name);
            assert!(ctx.fusion_stats.fus_funcs > 0, "{}: fusion ran", src.name);
            optimize(&mut m, &OptOptions::baseline());
            let got = run_to_completion(&m, &[3, 7])
                .unwrap_or_else(|e| panic!("{} fufi_n {arity}: {e}", src.name));
            assert_eq!(want.output, got.output, "{} fufi_n {arity}", src.name);
        }
    }
}

#[test]
fn nway_rejects_out_of_budget_arities() {
    let mut m = workloads::coreutils_program("true", 1);
    let mut ctx = KhaosContext::new(1);
    assert_eq!(
        fusion_n(&mut m, &mut ctx, 1),
        Err(KhaosError::UnsupportedArity(1))
    );
    assert_eq!(
        fusion_n(&mut m, &mut ctx, 5),
        Err(KhaosError::UnsupportedArity(5))
    );
    // The error formats usefully.
    let msg = KhaosError::UnsupportedArity(5).to_string();
    assert!(msg.contains('5') && msg.contains("2..=4"), "{msg}");
}

#[test]
fn higher_arity_aggregates_into_fewer_functions() {
    let src = workloads::spec2006().swap_remove(5); // 445.gobmk: many funcs
    let mut opt = src;
    optimize(&mut opt, &OptOptions::baseline());

    let mut counts = Vec::new();
    for arity in 2..=4usize {
        let mut m = opt.clone();
        let mut ctx = KhaosContext::new(7);
        fusion_n(&mut m, &mut ctx, arity).unwrap();
        counts.push((m.functions.len(), ctx.fusion_stats.fus_funcs));
    }
    // More constituents per fusFunc => fewer fused functions and a
    // smaller module overall.
    assert!(
        counts[2].1 < counts[0].1,
        "arity 4 forms fewer fusFuncs: {counts:?}"
    );
    assert!(
        counts[2].0 <= counts[0].0,
        "arity 4 leaves fewer functions: {counts:?}"
    );
}

#[test]
fn nway_arity_two_consistent_with_pair_fusion_effect() {
    // Both drivers must aggregate a comparable share of functions.
    let src = workloads::coreutils_program("sort", 77);
    let mut opt = src;
    optimize(&mut opt, &OptOptions::baseline());

    let mut pair = opt.clone();
    let mut pair_ctx = KhaosContext::new(3);
    fusion(&mut pair, &mut pair_ctx).unwrap();

    let mut nway = opt.clone();
    let mut nway_ctx = KhaosContext::new(3);
    fusion_n(&mut nway, &mut nway_ctx, 2).unwrap();

    assert_eq!(
        pair_ctx.fusion_stats.eligible_funcs,
        nway_ctx.fusion_stats.eligible_funcs
    );
    let pr = pair_ctx.fusion_stats.ratio();
    let nr = nway_ctx.fusion_stats.ratio();
    assert!(
        (pr - nr).abs() < 0.25,
        "aggregation ratios comparable: pair {pr} vs nway {nr}"
    );
}

#[test]
fn dataflow_differ_survives_instruction_substitution_better_than_khaos() {
    // The tool embeds computation structure: intra-procedural obfuscation
    // (class-preserving substitution) must hurt it far less than moving
    // code across functions does.
    let src = workloads::spec2006().swap_remove(3);
    let mut opt = src;
    optimize(&mut opt, &OptOptions::baseline());
    let base_bin = lower_module(&opt);
    let tool = DataFlowDiff::default();

    // Khaos FuFi.all.
    let mut khaos = opt.clone();
    let mut ctx = KhaosContext::new(11);
    KhaosMode::FuFiAll.apply(&mut khaos, &mut ctx).unwrap();
    optimize(&mut khaos, &OptOptions::baseline());
    let khaos_p = precision_at_1(&tool, &base_bin, &lower_module(&khaos));

    // O-LLVM Fla at 10% (intra-procedural).
    let mut fla = opt.clone();
    khaos::ollvm::OllvmMode::Fla(0.1).apply(&mut fla, 11);
    optimize(&mut fla, &OptOptions::baseline());
    let fla_p = precision_at_1(&tool, &base_bin, &lower_module(&fla));

    assert!(
        fla_p > khaos_p + 0.2,
        "data-flow features resist intra-procedural obfuscation ({fla_p:.2}) \
         but not inter-procedural restructuring ({khaos_p:.2})"
    );
}

#[test]
fn dataflow_propagation_never_hurts_self_matching() {
    let src = workloads::coreutils_program("ls", 40);
    let mut opt = src;
    optimize(&mut opt, &OptOptions::baseline());
    let bin = lower_module(&opt);
    for tool in [DataFlowDiff::intra_only(), DataFlowDiff::default()] {
        let p = precision_at_1(&tool, &bin, &bin);
        assert!(p > 0.95, "{}: self precision {p}", tool.callee_weight);
    }
}

#[test]
fn stripping_degrades_bindiff_under_khaos() {
    let src = workloads::spec2006().swap_remove(7); // 450.soplex
    let mut opt = src;
    optimize(&mut opt, &OptOptions::baseline());
    let base_bin = lower_module(&opt);

    let mut obf = opt.clone();
    let mut ctx = KhaosContext::new(23);
    KhaosMode::FuFiAll.apply(&mut obf, &mut ctx).unwrap();
    optimize(&mut obf, &OptOptions::baseline());
    let obf_bin = lower_module(&obf);
    let mut stripped = obf_bin.clone();
    stripped.strip();

    let tool = BinDiff::default();
    let p_unstripped = precision_at_1(&tool, &base_bin, &obf_bin);
    let p_stripped = precision_at_1(&tool, &base_bin, &stripped);
    assert!(
        p_stripped < p_unstripped,
        "symbol names prop up BinDiff: stripped {p_stripped} vs un-stripped {p_unstripped}"
    );
}

#[test]
fn extended_differs_includes_dataflow_tool() {
    let tools = khaos::diff::extended_differs();
    assert_eq!(tools.len(), 5);
    assert_eq!(tools.last().unwrap().name(), "DataFlowDiff");
    // Every tool still self-matches on a real workload binary.
    let src = workloads::coreutils_program("echo", 14);
    let mut opt = src;
    optimize(&mut opt, &OptOptions::baseline());
    let bin = lower_module(&opt);
    for tool in &tools {
        let m = tool.similarity_matrix(&bin, &bin);
        assert_eq!(m.len(), bin.functions.len(), "{}", tool.name());
    }
}

#[test]
fn nway_tagged_pointers_survive_the_full_pipeline() {
    // T-III programs exercise function-pointer tables; N-way fusion plus
    // the follow-up optimizer must keep indirect dispatch working.
    let src = workloads::tiii().swap_remove(2); // busybox (applet table)
    let mut opt = src.clone();
    optimize(&mut opt, &OptOptions::baseline());
    let want = baseline(&opt);

    for arity in [3usize, 4] {
        let mut m = opt.clone();
        let mut ctx = KhaosContext::new(0x5EED + arity as u64);
        fusion_n(&mut m, &mut ctx, arity).unwrap();
        optimize(&mut m, &OptOptions::baseline());
        let got = run_to_completion(&m, &[3, 7])
            .unwrap_or_else(|e| panic!("{} arity {arity}: {e}", src.name));
        assert_eq!(want.output, got.output, "busybox arity {arity}");
    }
}
