//! The embedders are pinned bit for bit: every table the ranking
//! metrics read — each `extended_differs()` tool's function embeddings,
//! DeepBinDiff's block embeddings and DataFlowDiff's callee-propagated
//! `#prop` view — over every `--quick` program at `O2+lto` and under
//! every Figure 7 and Figure 10 configuration.
//!
//! The embedding cache keys on the binary fingerprint and the tool's
//! configuration fingerprint, not on the embedder's code, so a change
//! that moves any embedding bit while leaving both fingerprints alone
//! would let warm stores serve stale tables. A rewrite of an embedder
//! for speed must pass these pins unedited. When a pin fails on
//! purpose, the failure prints the new table to paste.
//!
//! The sweep builds every `--quick` program under ten configurations,
//! so it runs in release builds only:
//! `cargo test --release -p khaos-bench --test embedding_pins`.

use khaos_bench::experiments::{fig10_configs, fig7_configs, quick_programs};
use khaos_bench::{build_baseline, build_binary, par_fan_out, BuildConfig};
use khaos_binary::Binary;
use khaos_diff::{extended_differs, DataFlowDiff, DeepBinDiff, Differ, EmbeddingCache};

/// The baseline, then every Figure 7 and Figure 10 configuration once
/// (Figure 10's six are a subset of Figure 7's nine), in row order.
fn configs() -> Vec<(String, BuildConfig)> {
    let mut v = vec![("O2+lto".to_string(), BuildConfig::Baseline)];
    for (name, config) in fig7_configs().into_iter().chain(fig10_configs()) {
        if !v.iter().any(|(_, have)| have.spec() == config.spec()) {
            v.push((name, config));
        }
    }
    v
}

/// FNV-1a over the row count, then every row's length and f64 bits,
/// all little-endian.
fn table_digest(rows: &[Vec<f64>]) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend((rows.len() as u64).to_le_bytes());
    for row in rows {
        bytes.extend((row.len() as u64).to_le_bytes());
        for x in row {
            bytes.extend(x.to_bits().to_le_bytes());
        }
    }
    khaos_store::fnv1a(&bytes)
}

/// The table labels, in the order [`binary_digests`] emits them.
fn labels() -> Vec<String> {
    let mut v: Vec<String> = extended_differs()
        .iter()
        .map(|d| d.name().to_string())
        .collect();
    v.push("DataFlowDiff#prop".into());
    v.push("DeepBinDiff".into());
    v
}

/// One digest per label for one binary.
fn binary_digests(bin: &Binary) -> Vec<u64> {
    let mut v: Vec<u64> = extended_differs()
        .iter()
        .map(|d| table_digest(&d.embed(bin)))
        .collect();
    // The `#prop` view as ranking reads it: derived from the cached raw
    // rows by the batched path, then fetched back under its own key.
    let dataflow = DataFlowDiff::default();
    let cache = EmbeddingCache::new(4);
    let fp = bin.fingerprint();
    dataflow.batched_similarity(bin, bin, &cache);
    let prop = cache.get_or_embed(
        ("DataFlowDiff#prop", dataflow.config_fingerprint(), fp),
        || panic!("the batched path caches the #prop view"),
    );
    let prop_rows: Vec<Vec<f64>> = (0..prop.len()).map(|i| prop.row(i).to_vec()).collect();
    v.push(table_digest(&prop_rows));
    let blocks: Vec<Vec<f64>> = DeepBinDiff::default()
        .embed_blocks(bin)
        .into_iter()
        .map(|(_, row)| row)
        .collect();
    v.push(table_digest(&blocks));
    v
}

/// Per config, then per label: FNV-1a over the digests (little-endian)
/// of every `--quick` program's table, in program order.
fn pin_table() -> Vec<(String, u64)> {
    let programs = quick_programs();
    let configs = configs();
    // Per program, per config: the label digests.
    let per_program: Vec<Vec<Vec<u64>>> = par_fan_out(&programs, |src| {
        let base = build_baseline(src);
        configs
            .iter()
            .map(|(_, config)| binary_digests(&build_binary(&base, *config)))
            .collect()
    });
    let labels = labels();
    let mut table = Vec::new();
    for (ci, (config, _)) in configs.iter().enumerate() {
        for (li, label) in labels.iter().enumerate() {
            let bytes: Vec<u8> = per_program
                .iter()
                .flat_map(|p| p[ci][li].to_le_bytes())
                .collect();
            table.push((format!("{config} {label}"), khaos_store::fnv1a(&bytes)));
        }
    }
    table
}

/// The digests of every table above, captured before the embedders'
/// interned-token rewrite.
const PINNED: [(&str, u64); 70] = [
    ("O2+lto BinDiff", 0xe32eab91d1504b83),
    ("O2+lto VulSeeker", 0x54aa7eb0ee4c3a4c),
    ("O2+lto Asm2Vec", 0x0861b8c91732db66),
    ("O2+lto SAFE", 0x36e0745e5ab7d978),
    ("O2+lto DataFlowDiff", 0x6c0865ca4e562276),
    ("O2+lto DataFlowDiff#prop", 0xa164d4cebe930fc6),
    ("O2+lto DeepBinDiff", 0xbd4c1d129e42e582),
    ("Sub BinDiff", 0x2d015b6dddee338a),
    ("Sub VulSeeker", 0x127d27d0d87064e6),
    ("Sub Asm2Vec", 0xe218bce5711ddeba),
    ("Sub SAFE", 0x1c91ce846014021f),
    ("Sub DataFlowDiff", 0x2cad56c9e9808585),
    ("Sub DataFlowDiff#prop", 0x25487b16b435b4f2),
    ("Sub DeepBinDiff", 0x2f20c64cd0a7e62b),
    ("Bog BinDiff", 0x3da43b39f91b53a2),
    ("Bog VulSeeker", 0x694d585b6ac69a4f),
    ("Bog Asm2Vec", 0x7285ce8ab1ce84fe),
    ("Bog SAFE", 0xe76629760df1bdf7),
    ("Bog DataFlowDiff", 0x8e0ac7c886e9a224),
    ("Bog DataFlowDiff#prop", 0xc8b3f89857d397d4),
    ("Bog DeepBinDiff", 0x86feb2252a52b325),
    ("Fla BinDiff", 0x0c1cbeef73d17430),
    ("Fla VulSeeker", 0x0a0a37973bacc9a6),
    ("Fla Asm2Vec", 0x92659a5c71429257),
    ("Fla SAFE", 0x3a553b588127bbf0),
    ("Fla DataFlowDiff", 0xe5b354939ef94c06),
    ("Fla DataFlowDiff#prop", 0xc6becbaaae5c082c),
    ("Fla DeepBinDiff", 0x823b7bbe29470dcb),
    ("Fla-10 BinDiff", 0xb62ca17182b6f27c),
    ("Fla-10 VulSeeker", 0x3460e72010be022b),
    ("Fla-10 Asm2Vec", 0xf6f75453e7828902),
    ("Fla-10 SAFE", 0x9ae5fd2e94193eee),
    ("Fla-10 DataFlowDiff", 0x5767d58512356206),
    ("Fla-10 DataFlowDiff#prop", 0xa45d8723fc9ef446),
    ("Fla-10 DeepBinDiff", 0xad8bdbadeaf3d913),
    ("Fission BinDiff", 0x12d59156caa29f37),
    ("Fission VulSeeker", 0x0af19df2034dc9eb),
    ("Fission Asm2Vec", 0x9564475d78756a43),
    ("Fission SAFE", 0x4ef5f05f64f31a75),
    ("Fission DataFlowDiff", 0x8a5ca1309be27ce4),
    ("Fission DataFlowDiff#prop", 0xddd2cb269ce91849),
    ("Fission DeepBinDiff", 0x05a0532736d73d24),
    ("Fusion BinDiff", 0x85e070af0e030dc7),
    ("Fusion VulSeeker", 0x931d9293d533f173),
    ("Fusion Asm2Vec", 0xc3f0900dd6129c54),
    ("Fusion SAFE", 0x6975fadb9eac4d00),
    ("Fusion DataFlowDiff", 0x9102dc555a82b1af),
    ("Fusion DataFlowDiff#prop", 0x9e7c2eec891ab18e),
    ("Fusion DeepBinDiff", 0xb9b915bd63390c03),
    ("FuFi.sep BinDiff", 0xa9edb523e85e9e95),
    ("FuFi.sep VulSeeker", 0xdf744ee047fde7ec),
    ("FuFi.sep Asm2Vec", 0xbdc80db1aa15eabf),
    ("FuFi.sep SAFE", 0xf251e9b29182612a),
    ("FuFi.sep DataFlowDiff", 0x0e8e0d0666921922),
    ("FuFi.sep DataFlowDiff#prop", 0x37e9f75f7870226c),
    ("FuFi.sep DeepBinDiff", 0x2a3e2ef5b81f7ccc),
    ("FuFi.ori BinDiff", 0x1cfd892ed77aa03f),
    ("FuFi.ori VulSeeker", 0x597ebe2932686ec6),
    ("FuFi.ori Asm2Vec", 0x8946baf4b84c05b0),
    ("FuFi.ori SAFE", 0x975639ae025a95e3),
    ("FuFi.ori DataFlowDiff", 0x1d1ed93e70b2a615),
    ("FuFi.ori DataFlowDiff#prop", 0x9e40dd17e4798261),
    ("FuFi.ori DeepBinDiff", 0xdd46583c97f38952),
    ("FuFi.all BinDiff", 0x19087f2667512675),
    ("FuFi.all VulSeeker", 0x15c0ecde73dedd35),
    ("FuFi.all Asm2Vec", 0xe38e2e5d0438ecde),
    ("FuFi.all SAFE", 0x541409a83235c73c),
    ("FuFi.all DataFlowDiff", 0x1d4264437855d44c),
    ("FuFi.all DataFlowDiff#prop", 0xdfb348f79280c8e6),
    ("FuFi.all DeepBinDiff", 0x4e41270f41df912b),
];

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "every --quick program under ten configurations: run with --release"
)]
fn embeddings_are_pinned() {
    let have = pin_table();
    let want: Vec<(String, u64)> = PINNED.iter().map(|(l, d)| (l.to_string(), *d)).collect();
    let table: String = have
        .iter()
        .map(|(l, d)| format!("    (\"{l}\", {d:#018x}),\n"))
        .collect();
    assert!(
        have == want,
        "an embedding changed: every ranked figure moves with it; the new pins are\n{table}"
    );
}
