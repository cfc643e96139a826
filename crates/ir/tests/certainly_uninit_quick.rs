//! The verifier's may-defined solve, `certainly_uninit_uses`, against the
//! reaching-defs reference it replaced, on real code: every function of
//! the `--quick` programs (the trimmed T-I, T-II and T-III suites and the
//! Figure-9 programs), raw, built `O2+lto`, and after each Figure-7
//! obfuscation atom both before and after the closing `O2+lto`. These
//! inputs have functions over many words of locals, unreachable blocks,
//! landing pads and fission's never-defined call arguments; the unit test
//! `certainly_uninit_matches_reference_on_hand_built_cases` covers
//! hand-built cases of each.

// The reference names this crate's modules by `crate::` paths; these
// imports make the same paths resolve at this test's root.
use khaos_ir::{analysis, function, ids, inst};

#[allow(dead_code)]
#[path = "../src/analysis/dataflow/reference.rs"]
mod reference;

use khaos_ir::analysis::dataflow::certainly_uninit_uses;
use khaos_ir::{Cfg, Module};

mod common;

/// Asserts the solve equals the reference on every function of `m`;
/// returns how many uses were flagged and how many functions span
/// several words of locals.
fn check(m: &Module, what: &str) -> (usize, usize) {
    let (mut flagged, mut wide) = (0, 0);
    for f in &m.functions {
        let cfg = Cfg::compute(f);
        let got = certainly_uninit_uses(f, &cfg);
        assert_eq!(
            got,
            reference::certainly_uninit_uses(f, &cfg),
            "{what}: certainly_uninit_uses differs from the reference on {}",
            f.name
        );
        flagged += got.len();
        wide += usize::from(f.locals.len() > 64);
    }
    (flagged, wide)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "builds every --quick program under ten pipelines: run with --release"
)]
fn certainly_uninit_matches_reference_on_quick_programs() {
    let (mut flagged, mut wide) = (0, 0);
    common::for_each_build(|what, m| {
        let (f, w) = check(m, what);
        flagged += f;
        wide += w;
    });
    assert!(wide > 0, "no function spans several words of locals");
    assert!(
        flagged > 0,
        "no use was flagged: the sweep compares only empty results"
    );
}
