//! End-to-end pipeline integration tests: every obfuscation configuration
//! must preserve the observable behaviour of optimized workload programs,
//! and the whole chain down to the binary must stay well-formed.

use khaos::obfuscate::{KhaosContext, KhaosMode};
use khaos::ollvm::OllvmMode;
use khaos::opt::{optimize, OptOptions};
use khaos::vm::{run_to_completion, RunResult};
use khaos::workloads;
use khaos_ir::Module;

fn baseline(m: &Module) -> RunResult {
    run_to_completion(m, &[3, 7]).unwrap_or_else(|e| panic!("{} baseline: {e}", m.name))
}

fn assert_same_behaviour(name: &str, cfg: &str, want: &RunResult, m: &Module) {
    let got = run_to_completion(m, &[3, 7]).unwrap_or_else(|e| panic!("{name} under {cfg}: {e}"));
    assert_eq!(
        want.output, got.output,
        "{name} under {cfg}: output diverged"
    );
    assert_eq!(
        want.exit_code, got.exit_code,
        "{name} under {cfg}: exit code diverged"
    );
}

/// A small cross-section of the suites, kept quick for CI.
fn sample_programs() -> Vec<Module> {
    vec![
        workloads::spec2006().swap_remove(3),  // 429.mcf
        workloads::spec2006().swap_remove(14), // 470.lbm
        workloads::coreutils_program("cat", 6),
        workloads::coreutils_program("sort", 77),
        workloads::tiii().swap_remove(1), // quickjs (setjmp + EH)
    ]
}

#[test]
fn khaos_modes_preserve_behaviour_on_optimized_workloads() {
    for src in sample_programs() {
        let mut opt = src.clone();
        optimize(&mut opt, &OptOptions::baseline());
        khaos_ir::verify::assert_valid(&opt);
        let want = baseline(&opt);

        for mode in KhaosMode::ALL {
            let mut m = opt.clone();
            let mut ctx = KhaosContext::new(0xBEEF);
            mode.apply(&mut m, &mut ctx)
                .unwrap_or_else(|e| panic!("{} {}: {e}", src.name, mode.name()));
            khaos_ir::verify::assert_valid(&m);
            assert_same_behaviour(&src.name, mode.name(), &want, &m);
        }
    }
}

#[test]
fn ollvm_modes_preserve_behaviour_on_optimized_workloads() {
    for src in sample_programs() {
        let mut opt = src.clone();
        optimize(&mut opt, &OptOptions::baseline());
        let want = baseline(&opt);

        for mode in [
            OllvmMode::Sub(1.0),
            OllvmMode::Bog(1.0),
            OllvmMode::Fla(0.1),
            OllvmMode::Fla(1.0),
        ] {
            let mut m = opt.clone();
            mode.apply(&mut m, 0xCAFE);
            khaos_ir::verify::assert_valid(&m);
            assert_same_behaviour(&src.name, &mode.name(), &want, &m);
        }
    }
}

#[test]
fn obfuscated_modules_lower_to_binaries() {
    let src = workloads::coreutils_program("ls", 1);
    let mut opt = src.clone();
    optimize(&mut opt, &OptOptions::baseline());
    for mode in KhaosMode::ALL {
        let mut m = opt.clone();
        let mut ctx = KhaosContext::new(1);
        mode.apply(&mut m, &mut ctx).unwrap();
        let bin = khaos::binary::lower_module(&m);
        assert!(bin.inst_count() > 0);
        assert_eq!(bin.functions.len(), m.functions.len());
    }
}

#[test]
fn fission_fusion_change_function_counts_as_expected() {
    let src = workloads::spec2006().swap_remove(3); // 429.mcf
    let mut opt = src;
    optimize(&mut opt, &OptOptions::baseline());
    let before = opt.functions.len();

    let mut fissioned = opt.clone();
    let mut ctx = KhaosContext::new(2);
    KhaosMode::Fission.apply(&mut fissioned, &mut ctx).unwrap();
    assert!(
        fissioned.functions.len() > before,
        "fission adds sepFuncs ({before} -> {})",
        fissioned.functions.len()
    );
    assert!(ctx.fission_stats.sep_funcs > 0);

    let mut fused = opt.clone();
    let mut ctx = KhaosContext::new(2);
    KhaosMode::Fusion.apply(&mut fused, &mut ctx).unwrap();
    assert!(
        fused.functions.len() < before,
        "fusion merges pairs ({before} -> {})",
        fused.functions.len()
    );
    assert!(ctx.fusion_stats.fus_funcs > 0);
    assert!(
        ctx.fusion_stats.ratio() > 0.5,
        "most eligible functions aggregate"
    );
}

#[test]
fn obfuscation_reduces_bindiff_precision() {
    use khaos::diff::{precision_at_1, Asm2Vec};

    let src = workloads::spec2006().swap_remove(3);
    let mut opt = src;
    optimize(&mut opt, &OptOptions::baseline());
    let base_bin = khaos::binary::lower_module(&opt);

    let mut obf = opt.clone();
    let mut ctx = KhaosContext::new(3);
    KhaosMode::FuFiAll.apply(&mut obf, &mut ctx).unwrap();
    let obf_bin = khaos::binary::lower_module(&obf);

    let tool = Asm2Vec::default();
    let self_p = precision_at_1(&tool, &base_bin, &base_bin);
    let obf_p = precision_at_1(&tool, &base_bin, &obf_bin);
    assert!(self_p > 0.99);
    assert!(
        obf_p < self_p * 0.75,
        "FuFi.all must significantly reduce Asm2Vec precision: {obf_p} vs {self_p}"
    );
}
