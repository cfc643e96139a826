//! The similarity matrices are pinned bit for bit: every matrix the
//! `--quick` Figure 8 and Figure 10 drivers rank in, for all five
//! tools, plus DeepBinDiff's Precision@1 and Figure 10's escape
//! profiles.
//!
//! Figure 8 scores BinDiff, VulSeeker, Asm2Vec and SAFE through
//! `EmbeddingCache::matrix_for`, and DeepBinDiff through the raw
//! (unclamped) block-level matrix its judgment takes the first maximum
//! of. Figure 10 ranks VulSeeker, Asm2Vec and SAFE. The dot kernels may
//! get faster, and DeepBinDiff's judgment may stop materializing its
//! matrix, but no score bit may move: a kernel that reassociates one
//! sum would pass every 1e-12 equivalence check and still move the
//! figures. These pins were captured before the row-batched kernel and
//! must pass unedited under every `KHAOS_SIMD` tier. When a pin fails
//! on purpose, the failure prints the new table to paste.
//!
//! The sweep builds every `--quick` Figure 8 and Figure 10 pair, so it
//! runs in release builds only:
//! `cargo test --release -p khaos-bench --test matrix_pins`.

use khaos_bench::experiments::{fig10_configs, t1_programs, t2_programs, Scope, FIG10_KS};
use khaos_bench::{build_baseline, build_binary, par_fan_out, BuildConfig};
use khaos_binary::{lower_module, Binary};
use khaos_diff::{
    deepbindiff_precision_at_1, escape_profile_with, Asm2Vec, BinDiff, DeepBinDiff, Differ,
    EmbeddingCache, Safe, SimilarityMatrix, VulSeeker,
};
use khaos_ir::Module;

/// FNV-1a, fed word by word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
}

/// FNV-1a over the shape, then every cell's f64 bits, row-major.
fn matrix_digest(m: &SimilarityMatrix) -> u64 {
    let mut h = Fnv::new();
    h.u64(m.rows() as u64);
    h.u64(m.cols() as u64);
    for x in m.as_flat() {
        h.u64(x.to_bits());
    }
    h.0
}

/// FNV-1a over a list of f64 bits.
fn bits_digest(xs: &[f64]) -> u64 {
    let mut h = Fnv::new();
    h.u64(xs.len() as u64);
    for x in xs {
        h.u64(x.to_bits());
    }
    h.0
}

fn fig8_tools() -> Vec<Box<dyn Differ + Sync>> {
    vec![
        Box::new(BinDiff::default()),
        Box::new(VulSeeker::default()),
        Box::new(Asm2Vec::default()),
        Box::new(Safe::default()),
    ]
}

fn fig10_tools() -> Vec<Box<dyn Differ + Sync>> {
    vec![
        Box::new(VulSeeker::default()),
        Box::new(Asm2Vec::default()),
        Box::new(Safe::default()),
    ]
}

/// One pair's Figure 8 digests: the four function-level matrices, the
/// DeepBinDiff block matrix, then DeepBinDiff's Precision@1 bits.
fn fig8_pair(base: &Binary, obf: &Binary, cache: &EmbeddingCache) -> Vec<u64> {
    let mut v: Vec<u64> = fig8_tools()
        .iter()
        .map(|tool| matrix_digest(&cache.matrix_for(tool.as_ref(), base, obf)))
        .collect();
    let deep = DeepBinDiff::default();
    let qe = deep.cached_block_embeddings(base, cache);
    let te = deep.cached_block_embeddings(obf, cache);
    v.push(matrix_digest(&SimilarityMatrix::from_embeddings_signed(
        &qe, &te,
    )));
    v.push(deepbindiff_precision_at_1(&deep, base, obf).to_bits());
    v
}

/// One pair's Figure 10 digests: the three tools' matrices, then their
/// escape profiles at [`FIG10_KS`] (ranked without a resident matrix,
/// through a cache that never held one).
fn fig10_pair(base: &Binary, obf: &Binary, cache: &EmbeddingCache) -> Vec<u64> {
    let mut v = Vec::new();
    let mut escapes = Vec::new();
    for tool in fig10_tools() {
        escapes.extend(escape_profile_with(
            tool.as_ref(),
            base,
            obf,
            &FIG10_KS,
            &EmbeddingCache::new(8),
        ));
        v.push(matrix_digest(&cache.matrix_for(tool.as_ref(), base, obf)));
    }
    v.push(bits_digest(&escapes));
    v
}

/// Per program, per config: the pair digests of `pair`.
fn sweep(
    programs: &[Module],
    configs: &[BuildConfig],
    pair: fn(&Binary, &Binary, &EmbeddingCache) -> Vec<u64>,
) -> Vec<Vec<Vec<u64>>> {
    par_fan_out(programs, |src| {
        let base = build_baseline(src);
        let base_bin = lower_module(&base);
        configs
            .iter()
            .map(|config| {
                let cache = EmbeddingCache::new(64);
                pair(&base_bin, &build_binary(&base, *config), &cache)
            })
            .collect()
    })
}

/// Per config, then per label: FNV-1a over every program's digest, in
/// program order.
fn fold(
    figure: &str,
    configs: &[String],
    labels: &[&str],
    per_program: &[Vec<Vec<u64>>],
) -> Vec<(String, u64)> {
    let mut table = Vec::new();
    for (ci, config) in configs.iter().enumerate() {
        for (li, label) in labels.iter().enumerate() {
            let mut h = Fnv::new();
            for p in per_program {
                h.u64(p[ci][li]);
            }
            table.push((format!("{figure} {config} {label}"), h.0));
        }
    }
    table
}

fn pin_table() -> Vec<(String, u64)> {
    let mut fig8_programs = t1_programs(Scope::Quick);
    fig8_programs.extend(t2_programs(Scope::Quick));
    let fig8_configs = BuildConfig::figure8_set();
    let fig8_names: Vec<String> = fig8_configs.iter().map(|c| c.name()).collect();
    let mut table = fold(
        "fig8",
        &fig8_names,
        &[
            "BinDiff",
            "VulSeeker",
            "Asm2Vec",
            "SAFE",
            "DeepBinDiff",
            "DeepBinDiff P@1",
        ],
        &sweep(&fig8_programs, &fig8_configs, fig8_pair),
    );
    let (fig10_names, fig10_builds): (Vec<String>, Vec<BuildConfig>) =
        fig10_configs().into_iter().unzip();
    let mut fig10_programs = khaos_workloads::tiii();
    fig10_programs.truncate(2);
    table.extend(fold(
        "fig10",
        &fig10_names,
        &["VulSeeker", "Asm2Vec", "SAFE", "escape"],
        &sweep(&fig10_programs, &fig10_builds, fig10_pair),
    ));
    table
}

/// The digests of every matrix above, captured before the row-batched
/// dot kernel.
const PINNED: [(&str, u64); 72] = [
    ("fig8 Sub BinDiff", 0xa6ed7ba8778efc48),
    ("fig8 Sub VulSeeker", 0x4a39a268d5cd2bde),
    ("fig8 Sub Asm2Vec", 0x4eb29f1957fb2219),
    ("fig8 Sub SAFE", 0xa48d35dbe5b1d67b),
    ("fig8 Sub DeepBinDiff", 0x1756035312a49a6f),
    ("fig8 Sub DeepBinDiff P@1", 0x7345441104631b01),
    ("fig8 Bog BinDiff", 0x2c782c1ff51b2b26),
    ("fig8 Bog VulSeeker", 0xf34091c53f590336),
    ("fig8 Bog Asm2Vec", 0xf36a5028c84cb893),
    ("fig8 Bog SAFE", 0xc4e53a8fb45bb5ae),
    ("fig8 Bog DeepBinDiff", 0xd1d58044124aa442),
    ("fig8 Bog DeepBinDiff P@1", 0x3eda473db1b6c391),
    ("fig8 Fla-10 BinDiff", 0x87488c99cbf84d70),
    ("fig8 Fla-10 VulSeeker", 0xc40c38829116f840),
    ("fig8 Fla-10 Asm2Vec", 0x7fc9000d7bf88bc9),
    ("fig8 Fla-10 SAFE", 0x6567ae2c03b12e3b),
    ("fig8 Fla-10 DeepBinDiff", 0x802fa8e7c0f9c9d4),
    ("fig8 Fla-10 DeepBinDiff P@1", 0x3874ef9e8f857057),
    ("fig8 Fission BinDiff", 0xbf5e1a32785b6e71),
    ("fig8 Fission VulSeeker", 0x0bc3503fc2b63459),
    ("fig8 Fission Asm2Vec", 0x7041ccd78d7a0505),
    ("fig8 Fission SAFE", 0x94e987ce64c30953),
    ("fig8 Fission DeepBinDiff", 0x8eacf0177050cd5e),
    ("fig8 Fission DeepBinDiff P@1", 0x501245377f79168b),
    ("fig8 Fusion BinDiff", 0x1900ee96b91592e5),
    ("fig8 Fusion VulSeeker", 0x4ace4622a451e25e),
    ("fig8 Fusion Asm2Vec", 0xc6ab4a68717d1c61),
    ("fig8 Fusion SAFE", 0x808d2cf98b625fb8),
    ("fig8 Fusion DeepBinDiff", 0xd181c360a1f6ca3e),
    ("fig8 Fusion DeepBinDiff P@1", 0xe7ba0ea432f53fb9),
    ("fig8 FuFi.sep BinDiff", 0x3425f603dc0f5607),
    ("fig8 FuFi.sep VulSeeker", 0xf6938d0573a71518),
    ("fig8 FuFi.sep Asm2Vec", 0x862cc17c74a85c5b),
    ("fig8 FuFi.sep SAFE", 0xbc5c567e3b98e3c2),
    ("fig8 FuFi.sep DeepBinDiff", 0x073b084929ff0241),
    ("fig8 FuFi.sep DeepBinDiff P@1", 0x44accfe142ad67cb),
    ("fig8 FuFi.ori BinDiff", 0xa4a442f15485988f),
    ("fig8 FuFi.ori VulSeeker", 0xdfdf24af4ef07737),
    ("fig8 FuFi.ori Asm2Vec", 0x1f6bd6dad5581868),
    ("fig8 FuFi.ori SAFE", 0xaaedad0eeb21cb11),
    ("fig8 FuFi.ori DeepBinDiff", 0x94c7acdd845574bf),
    ("fig8 FuFi.ori DeepBinDiff P@1", 0xad270dbb7e2468f9),
    ("fig8 FuFi.all BinDiff", 0x9024905d3a72d3a1),
    ("fig8 FuFi.all VulSeeker", 0xb23ec79fe5fd13fc),
    ("fig8 FuFi.all Asm2Vec", 0xa80c0d5e9adb05bf),
    ("fig8 FuFi.all SAFE", 0xdfb014ff8a7479b8),
    ("fig8 FuFi.all DeepBinDiff", 0x4525bfe38c085f5f),
    ("fig8 FuFi.all DeepBinDiff P@1", 0xcd7eaf97c11f8b98),
    ("fig10 Sub VulSeeker", 0xc3c24e23db18e023),
    ("fig10 Sub Asm2Vec", 0x911fa78f323f2f14),
    ("fig10 Sub SAFE", 0xd6d1a1c995939416),
    ("fig10 Sub escape", 0xb8a5e9be573d2b87),
    ("fig10 Bog VulSeeker", 0xebf3294c1d0c3aaa),
    ("fig10 Bog Asm2Vec", 0x423ad7a85fa70938),
    ("fig10 Bog SAFE", 0xfd53cd50c0a8fb8c),
    ("fig10 Bog escape", 0x04c8196c3c8bc03c),
    ("fig10 Fla VulSeeker", 0x2e40376ccec6fb1e),
    ("fig10 Fla Asm2Vec", 0xc71c7ed858caac71),
    ("fig10 Fla SAFE", 0xa02ab2d078bd996c),
    ("fig10 Fla escape", 0xed7639ae34b244ed),
    ("fig10 FuFi.sep VulSeeker", 0xc4207fb9031619e9),
    ("fig10 FuFi.sep Asm2Vec", 0x8c2472b14865a6b7),
    ("fig10 FuFi.sep SAFE", 0x385dfb4a8bd861a2),
    ("fig10 FuFi.sep escape", 0xc41bdcb0b718559c),
    ("fig10 FuFi.ori VulSeeker", 0xb22d043a868065ea),
    ("fig10 FuFi.ori Asm2Vec", 0x9cb507ec9258a3be),
    ("fig10 FuFi.ori SAFE", 0xc9d1630961005858),
    ("fig10 FuFi.ori escape", 0xfedd4389f9df6a3f),
    ("fig10 FuFi.all VulSeeker", 0xd0529e4f4d95b295),
    ("fig10 FuFi.all Asm2Vec", 0xb917340351f5041c),
    ("fig10 FuFi.all SAFE", 0x08bcb3069ba52740),
    ("fig10 FuFi.all escape", 0xa00d842272421b28),
];

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "every --quick Figure 8 and Figure 10 pair: run with --release"
)]
fn matrices_are_pinned() {
    let have = pin_table();
    let want: Vec<(String, u64)> = PINNED.iter().map(|(l, d)| (l.to_string(), *d)).collect();
    let table: String = have
        .iter()
        .map(|(l, d)| format!("    (\"{l}\", {d:#018x}),\n"))
        .collect();
    assert!(
        have == want,
        "a similarity matrix changed: every ranked figure moves with it; the new pins are\n{table}"
    );
}
