//! End-to-end diffing-evaluation tests: the metrics must behave sanely on
//! real pipeline outputs, and the headline orderings of the paper must
//! hold on representative programs.

use khaos::binary::lower_module;
use khaos::diff::{
    binary_similarity, deepbindiff_precision_at_1, escape_profile, precision_at_1, Asm2Vec,
    BinDiff, DeepBinDiff, Differ, Safe, VulSeeker,
};
use khaos::obfuscate::{KhaosContext, KhaosMode};
use khaos::ollvm::OllvmMode;
use khaos::opt::{optimize, OptOptions};
use khaos::workloads;
use khaos_ir::Module;

fn baseline(mut m: Module) -> Module {
    optimize(&mut m, &OptOptions::baseline());
    m
}

fn khaos_build(base: &Module, mode: KhaosMode) -> Module {
    let mut m = base.clone();
    let mut ctx = KhaosContext::new(7);
    mode.apply(&mut m, &mut ctx).expect("khaos");
    optimize(&mut m, &OptOptions::baseline());
    m
}

fn ollvm_build(base: &Module, mode: OllvmMode) -> Module {
    let mut m = base.clone();
    mode.apply(&mut m, 7);
    optimize(&mut m, &OptOptions::baseline());
    m
}

#[test]
fn all_tools_are_perfect_on_self_diff() {
    let base = baseline(workloads::coreutils_program("cp", 14));
    let bin = lower_module(&base);
    let tools: Vec<Box<dyn Differ>> = vec![
        Box::new(BinDiff::default()),
        Box::new(VulSeeker::default()),
        Box::new(Asm2Vec::default()),
        Box::new(Safe::default()),
    ];
    for t in &tools {
        let p = precision_at_1(t.as_ref(), &bin, &bin);
        assert!(p > 0.99, "{} self-diff P@1 = {p}", t.name());
    }
    assert!(binary_similarity(&BinDiff::default(), &bin, &bin) > 0.99);
    assert!(deepbindiff_precision_at_1(&DeepBinDiff::default(), &bin, &bin) > 0.99);
}

#[test]
fn khaos_beats_ollvm_against_learning_tools() {
    let base = baseline(workloads::spec2006().swap_remove(6)); // 445.gobmk
    let base_bin = lower_module(&base);

    let fufi_bin = lower_module(&khaos_build(&base, KhaosMode::FuFiAll));
    let sub_bin = lower_module(&ollvm_build(&base, OllvmMode::Sub(1.0)));
    let fla_bin = lower_module(&ollvm_build(&base, OllvmMode::Fla(0.1)));

    for tool in [
        Box::new(VulSeeker::default()) as Box<dyn Differ>,
        Box::new(Safe::default()),
    ] {
        let khaos_p = precision_at_1(tool.as_ref(), &base_bin, &fufi_bin);
        let sub_p = precision_at_1(tool.as_ref(), &base_bin, &sub_bin);
        let fla_p = precision_at_1(tool.as_ref(), &base_bin, &fla_bin);
        assert!(
            khaos_p < sub_p && khaos_p < fla_p,
            "{}: FuFi.all ({khaos_p:.3}) must beat Sub ({sub_p:.3}) and Fla-10 ({fla_p:.3})",
            tool.name()
        );
    }
}

#[test]
fn vulseeker_is_most_sensitive_to_call_graph_changes() {
    // The paper's Table 1: VulSeeker relies on the call graph, so the
    // inter-procedural modes hit it hardest among the function-level
    // tools.
    let base = baseline(workloads::spec2006().swap_remove(3));
    let base_bin = lower_module(&base);
    let obf_bin = lower_module(&khaos_build(&base, KhaosMode::FuFiAll));
    let vs = precision_at_1(&VulSeeker::default(), &base_bin, &obf_bin);
    let a2v = precision_at_1(&Asm2Vec::default(), &base_bin, &obf_bin);
    assert!(
        vs < a2v,
        "VulSeeker ({vs:.3}) should fall below Asm2Vec ({a2v:.3})"
    );
}

#[test]
fn bindiff_profits_from_unstripped_names() {
    let base = baseline(workloads::spec2006().swap_remove(3));
    let base_bin = lower_module(&base);
    let obf_bin = lower_module(&khaos_build(&base, KhaosMode::Fission));

    let with_names = precision_at_1(&BinDiff::default(), &base_bin, &obf_bin);
    let mut stripped = obf_bin.clone();
    stripped.strip();
    let without = precision_at_1(&BinDiff::default(), &base_bin, &stripped);
    assert!(
        with_names >= without,
        "names must help BinDiff: {with_names:.3} vs stripped {without:.3}"
    );
}

#[test]
fn escape_ratio_increases_with_khaos_vs_sub() {
    let base = baseline(workloads::tiii().swap_remove(4)); // libcurl
    let base_bin = lower_module(&base);
    let fufi_bin = lower_module(&khaos_build(&base, KhaosMode::FuFiAll));
    let sub_bin = lower_module(&ollvm_build(&base, OllvmMode::Sub(1.0)));
    let tool = VulSeeker::default();
    let khaos_escape = escape_profile(&tool, &base_bin, &fufi_bin, &[10])[0];
    let sub_escape = escape_profile(&tool, &base_bin, &sub_bin, &[10])[0];
    assert!(
        khaos_escape >= sub_escape,
        "FuFi.all escape@10 ({khaos_escape:.2}) must be >= Sub ({sub_escape:.2})"
    );
    assert!(
        khaos_escape > 0.5,
        "most vulnerable functions escape the top-10"
    );
}

#[test]
fn opcode_histograms_shift_most_under_fufi() {
    use khaos::binary::{histogram_distance, opcode_histogram};
    let base = baseline(workloads::spec2006().swap_remove(3));
    let h0 = opcode_histogram(&lower_module(&base));
    let d_fusion = histogram_distance(
        &h0,
        &opcode_histogram(&lower_module(&khaos_build(&base, KhaosMode::Fusion))),
    );
    let d_fufi = histogram_distance(
        &h0,
        &opcode_histogram(&lower_module(&khaos_build(&base, KhaosMode::FuFiAll))),
    );
    assert!(
        d_fufi > d_fusion,
        "FuFi.all distance ({d_fufi:.1}) must exceed plain Fusion ({d_fusion:.1})"
    );
}

#[test]
fn stripped_binaries_still_diffable_structurally() {
    let base = baseline(workloads::coreutils_program("sort", 2));
    let mut bin = lower_module(&base);
    bin.strip();
    assert!(bin.functions.iter().all(|f| f.name.is_none()));
    // Structural self-similarity survives stripping.
    let p = precision_at_1(&BinDiff { ignore_names: true }, &bin, &bin);
    assert!(p > 0.9, "structural matching should survive stripping: {p}");
}
