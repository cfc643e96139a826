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

fn quick_programs() -> Vec<Module> {
    let mut t1 = khaos_workloads::spec2006();
    t1.extend(khaos_workloads::spec2017());
    let fig9 = ["400.perlbench", "401.bzip2", "429.mcf", "445.gobmk"];
    let mut programs: Vec<Module> = t1.iter().take(6).cloned().collect();
    for m in t1.into_iter().filter(|m| fig9.contains(&m.name.as_str())) {
        if !programs.iter().any(|p| p.name == m.name) {
            programs.push(m);
        }
    }
    programs.extend(khaos_workloads::coreutils().into_iter().take(8));
    programs.extend(khaos_workloads::tiii().into_iter().take(2));
    programs
}

/// The obfuscation atoms of Figure 7's nine configurations.
const FIG7_ATOMS: [&str; 9] = [
    "sub",
    "bog",
    "fla",
    "fla(ratio=0.1)",
    "fission",
    "fusion",
    "fufi_sep",
    "fufi_ori",
    "fufi_all",
];

fn run(spec: &str, m: &mut Module) {
    let pipeline = khaos_pass::Pipeline::parse(spec).expect("spec parses");
    let mut ctx = khaos_pass::PassCtx::new(0xC60_2023);
    pipeline
        .run(m, &mut ctx)
        .unwrap_or_else(|e| panic!("{spec} on {}: {e}", m.name));
}

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
    let mut tally = |(f, w): (usize, usize)| {
        flagged += f;
        wide += w;
    };
    for src in quick_programs() {
        tally(check(&src, &format!("{}/raw", src.name)));
        let mut base = src.clone();
        run("O2+lto", &mut base);
        tally(check(&base, &format!("{}/O2+lto", src.name)));
        for atom in FIG7_ATOMS {
            let mut obf = base.clone();
            run(atom, &mut obf);
            tally(check(&obf, &format!("{}/{atom}", src.name)));
            run("O2+lto", &mut obf);
            tally(check(&obf, &format!("{}/{atom} | O2+lto", src.name)));
        }
    }
    assert!(wide > 0, "no function spans several words of locals");
    assert!(
        flagged > 0,
        "no use was flagged: the sweep compares only empty results"
    );
}
