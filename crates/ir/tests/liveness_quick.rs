//! `Liveness` against the generic framework's `LiveVariables` on real
//! obfuscated code: every function of the `--quick` programs (the
//! trimmed T-I, T-II and T-III suites and the Figure-9 programs) built
//! `O2+lto` and then obfuscated by `fufi_all` or by `fla`. These inputs
//! have functions over many words of locals, unreachable blocks and
//! landing pads; the unit test `live_variables_matches_liveness` covers
//! hand-built cases of each.

use khaos_ir::analysis::dataflow::{solve, LiveVariables};
use khaos_ir::{Cfg, Function, Liveness};

mod common;

fn functions_after(atom: &str) -> Vec<Function> {
    let pipeline = khaos_pass::Pipeline::parse(&format!("O2+lto | {atom}")).expect("spec parses");
    let mut out = Vec::new();
    for mut m in common::quick_programs() {
        let mut ctx = khaos_pass::PassCtx::new(0xC60_2023);
        pipeline.run(&mut m, &mut ctx).expect("pipeline runs");
        out.extend(m.functions);
    }
    out
}

#[test]
fn live_variables_matches_liveness_on_obfuscated_quick_programs() {
    for atom in ["fufi_all", "fla"] {
        let fns = functions_after(atom);
        let mut wide = 0;
        for f in &fns {
            let cfg = Cfg::compute(f);
            let lv = Liveness::compute(f, &cfg);
            let sol = solve(&LiveVariables, f, &cfg);
            for (b, _) in f.iter_blocks() {
                assert_eq!(
                    &sol.block_in[b.index()],
                    lv.live_in(b),
                    "{atom}: in {b} of {}",
                    f.name
                );
                assert_eq!(
                    &sol.block_out[b.index()],
                    lv.live_out(b),
                    "{atom}: out {b} of {}",
                    f.name
                );
            }
            wide += usize::from(f.locals.len() > 64);
        }
        assert!(
            wide > 0,
            "{atom}: no function spans several words of locals"
        );
    }
}
