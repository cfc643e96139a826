//! BinTuner's searches are pinned: for every `--quick` Figure 9 search
//! (budget 16) and Figure 11 search (budget 8), the winning spec, the
//! f64 bits of its similarity against `-O0`, the evaluations spent, the
//! winner's module content fingerprint and its binary fingerprint.
//!
//! A search is a pure function of its source, budget and seed, whatever
//! the inliner's or DFE's implementation and whatever other searches
//! ran before it in the process. A rewrite of either pass, or of how the
//! search reuses candidate scores, must pass these pins unedited. The
//! Figure 11 searches run after the Figure 9 ones, as in `--quick all`.
//! When a pin fails on purpose, the failure prints the new table.
//!
//! The searches build about a hundred candidates, so they run in
//! release builds only:
//! `cargo test --release -p khaos-bench --test bintuner_pins`.

use khaos_bench::experiments::{fig9_programs, t1_programs, Scope};
use khaos_bench::{par_fan_out, SEED};
use khaos_bintuner::BinTuner;
use khaos_ir::Module;

/// One search's pin: label, spec, similarity bits, evaluations, module
/// content fingerprint, binary fingerprint.
type Pin = (String, String, u64, usize, u64, u64);

fn searches(figure: &str, programs: &[Module], budget: usize) -> Vec<Pin> {
    par_fan_out(programs, |src| {
        let r = BinTuner { budget, seed: SEED }.tune(src);
        (
            format!("{figure} {}", src.name),
            r.spec,
            r.similarity_vs_o0.to_bits(),
            r.evaluations,
            r.module.content_fingerprint(),
            r.binary.fingerprint(),
        )
    })
}

/// The pins captured before the one-pass inliner, the peeling DFE and
/// the candidate memo.
const PINNED: [(&str, &str, u64, usize, u64, u64); 10] = [
    (
        "fig9 400.perlbench",
        "constprop | dce | inline(threshold=160,exported=true) | constprop | dce | inline(threshold=160,exported=true) | dfe",
        0x3fb2218b3cef00f1,
        16,
        0x0fc01b55c326f5bb,
        0xc2e232c6c0f8e97e,
    ),
    (
        "fig9 401.bzip2",
        "constprop | simplifycfg | inline(threshold=160) | constprop | simplifycfg | inline(threshold=160) | constprop | simplifycfg | inline(threshold=160)",
        0x3f900854100283ff,
        16,
        0xa0c03c2f8a65bcfd,
        0x49340957c3d085af,
    ),
    (
        "fig9 429.mcf",
        "dce | simplifycfg | inline(threshold=160,exported=true) | dfe",
        0x3fc20602cbeac5de,
        16,
        0xb7217d3e334af8b9,
        0xa619dd85fafa0f9c,
    ),
    (
        "fig9 445.gobmk",
        "cse | simplifycfg | inline(threshold=160,exported=true) | cse | simplifycfg | inline(threshold=160,exported=true) | cse | simplifycfg | inline(threshold=160,exported=true) | dfe",
        0x3f86a20cd9380a6f,
        16,
        0x8119b9d3f1267211,
        0x3ff7883281eb1a90,
    ),
    (
        "fig11 400.perlbench",
        "dce | simplifycfg | inline(threshold=160,exported=true) | dce | simplifycfg | inline(threshold=160,exported=true) | dfe",
        0x3fb26305d95b9115,
        8,
        0x88a230bcb19e6167,
        0x82902822aca82b57,
    ),
    (
        "fig11 401.bzip2",
        "simplifycfg | inline(threshold=160) | simplifycfg | inline(threshold=160) | simplifycfg | inline(threshold=160)",
        0x3f9056356f2ab32e,
        8,
        0x1b03e0c44c536871,
        0xe934513c146037c9,
    ),
    (
        "fig11 403.gcc",
        "cse | simplifycfg | inline(threshold=160,exported=true) | cse | simplifycfg | inline(threshold=160,exported=true) | cse | simplifycfg | inline(threshold=160,exported=true) | dfe",
        0x3f92faf4d4e0cd67,
        8,
        0x383b6bd55ef301c1,
        0x6b37c0ec34404f2a,
    ),
    (
        "fig11 429.mcf",
        "dce | simplifycfg | inline(threshold=160,exported=true) | dfe",
        0x3fc20602cbeac5de,
        8,
        0xb7217d3e334af8b9,
        0xa619dd85fafa0f9c,
    ),
    (
        "fig11 433.milc",
        "dce | simplifycfg | inline(threshold=160,exported=true) | dce | simplifycfg | inline(threshold=160,exported=true) | dfe",
        0x3fb74cc3ee6a7663,
        8,
        0x181fef996db37da3,
        0x81fec06512f2c691,
    ),
    (
        "fig11 444.namd",
        "simplifycfg | inline(threshold=160,exported=true) | simplifycfg | inline(threshold=160,exported=true) | simplifycfg | inline(threshold=160,exported=true) | dfe",
        0x3f887e7724342fd7,
        8,
        0xdb32b8a3bdfde63a,
        0xb6b528f83192bd5c,
    ),
];

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "ten BinTuner searches over the --quick programs: run with --release"
)]
fn bintuner_searches_are_pinned() {
    let mut have = searches("fig9", &fig9_programs(Scope::Quick), 16);
    have.extend(searches("fig11", &t1_programs(Scope::Quick), 8));
    let want: Vec<Pin> = PINNED
        .iter()
        .map(|(l, s, b, e, m, f)| (l.to_string(), s.to_string(), *b, *e, *m, *f))
        .collect();
    let table: String = have
        .iter()
        .map(|(l, s, b, e, m, f)| {
            format!("    (\n        \"{l}\",\n        \"{s}\",\n        {b:#018x},\n        {e},\n        {m:#018x},\n        {f:#018x},\n    ),\n")
        })
        .collect();
    assert_eq!(
        have,
        want,
        "BinTuner search results changed; new table ({} rows):\n{table}",
        have.len()
    );
}
