//! The flat `Cfg` and `Liveness` against the per-block references they
//! replaced, on real code: every function of the `--quick` programs (the
//! trimmed T-I, T-II and T-III suites and the Figure-9 programs), raw,
//! built `O2+lto`, and after each Figure-7 obfuscation atom both before
//! and after the closing `O2+lto`. Each block's predecessors (in order),
//! the reverse postorder and its index, and all four liveness rows must
//! be equal. The unit tests `repeated_edges_and_self_loops_match_the_reference`
//! and `flat_cfg_and_liveness_match_the_references` cover hand-built
//! cases.

// The references name this crate's modules by `crate::` paths; these
// imports make the same paths resolve at this test's root.
use khaos_ir::{analysis, function, ids, inst};

#[path = "../src/analysis/cfg/reference.rs"]
mod cfg_reference;

#[path = "../src/analysis/liveness/reference.rs"]
mod liveness_reference;

mod common;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "builds every --quick program under nineteen pipelines: run with --release"
)]
fn flat_analyses_match_the_references_on_quick_programs() {
    let (mut functions, mut wide) = (0, 0);
    common::for_each_build(|what, m| {
        for f in &m.functions {
            cfg_reference::assert_matches(f, what);
            liveness_reference::assert_matches(f, what);
            functions += 1;
            wide += usize::from(f.locals.len() > 64);
        }
    });
    assert!(functions > 0, "no function was compared");
    assert!(wide > 0, "no function spans several words of locals");
}
