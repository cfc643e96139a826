//! Criterion bench for the batched similarity engine: the seed
//! (per-pair cosine, matrix-per-query) `escape@k` path against the
//! batched path (cached normalized embeddings, one flat matrix, `O(T)`
//! rank queries) on a 200-function binary pair.
//!
//! Writes `BENCH_similarity.json` at the repository root with the
//! baseline-vs-batched timings so future PRs can track the perf
//! trajectory. The acceptance bar for this engine is a ≥10× speedup on
//! `escape@k`; the JSON records the measured factor per tool, plus a
//! `kernels` section (which SIMD dispatch won, per-kernel ns/dot and
//! speedup over the naive scalar loop, with a hard forced-scalar-vs-
//! dispatched ranked-bit-equivalence gate) and a `quantized` section
//! (int8 shortlist scan cost per candidate, bytes per function, and
//! the recall-1.0-after-exact-re-rank gate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use khaos_bench::{build_baseline, khaos_apply, SEED};
use khaos_binary::{lower_module, Binary};
use khaos_core::KhaosMode;
use khaos_diff::engine::{dot_scalar, stream_top_k, EmbedScorer, FunctionEmbeddings};
use khaos_diff::kernels::{self, KernelKind};
use khaos_diff::{
    escape_at_k, escape_profile_with, stream_top_k_quantized, Asm2Vec, BinDiff, DataFlowDiff,
    Differ, EmbeddingCache, QuantizedEmbeddings, Safe, VulSeeker, QUANT_SHORTLIST_FACTOR,
};
use khaos_pass::{PassCtx, Pipeline, VerifyPolicy};
use khaos_workloads::{generate, ProgramProfile};
use std::sync::Arc;

/// A 200-function baseline/obfuscated pair with every tenth function
/// annotated vulnerable (the Figure-10 shape at T-I scale). The
/// generator profile is oversized because `O2+LTO` inlines and strips a
/// large share of the generated workers; the assert pins the scale the
/// speedup claim is made at.
fn build_pair() -> (Binary, Binary) {
    let profile = ProgramProfile {
        name: "bench_sim".into(),
        functions: 460,
        constructs: 3,
        ..ProgramProfile::default()
    };
    let src = generate(&profile);
    let base = build_baseline(&src);
    let (obf, _) = khaos_apply(&base, KhaosMode::FuFiAll, SEED);
    let mut base_bin = lower_module(&base);
    assert!(
        base_bin.functions.len() >= 200,
        "bench pair must be >= 200 functions, got {}",
        base_bin.functions.len()
    );
    for f in base_bin.functions.iter_mut().step_by(10) {
        f.provenance.annotations.push("vulnerable".into());
    }
    (base_bin, lower_module(&obf))
}

// The measured baseline is `khaos_diff::reference` — the frozen seed
// implementation (full matrix rebuild per vulnerable query), shared
// with the equivalence suite so bench and tests pin the same
// semantics.
use khaos_diff::reference::reference_escape_at_k as seed_escape_at_k;

/// The frozen **seed data layout**: one heap `Vec<MOperand>` per
/// instruction, plus the seed fingerprint/embedding algorithms walking
/// it verbatim (per-n-gram `format!`, per-instruction pointer chase).
/// The operand-pool refactor removed this layout from the tree; the
/// bench keeps a faithful copy as the measured baseline for the
/// cold fingerprint+embed comparison recorded in
/// `BENCH_similarity.json`. Faithfulness is asserted, not assumed:
/// the nested fingerprint must equal `Binary::fingerprint()` and the
/// nested embeddings must equal the pooled tools' output exactly.
mod seed_layout {
    use khaos_binary::{Binary, MOperand, Opcode, SymRef};
    use khaos_diff::{add_token, opcode_class, operand_class, EMB_DIM};

    pub struct NestedInst {
        pub opcode: Opcode,
        pub operands: Vec<MOperand>,
    }

    pub struct NestedBlock {
        pub insts: Vec<NestedInst>,
        pub succs: Vec<u32>,
        pub calls: Vec<SymRef>,
    }

    pub struct NestedFunction {
        pub name: Option<String>,
        pub exported: bool,
        pub blocks: Vec<NestedBlock>,
    }

    pub struct NestedBinary {
        pub name: String,
        pub build_provenance: u64,
        pub stripped: bool,
        pub functions: Vec<NestedFunction>,
        pub relocations: Vec<khaos_binary::Reloc>,
        pub externals: Vec<String>,
    }

    /// Re-nests a pooled binary into the seed layout (one operand
    /// `Vec` per instruction).
    pub fn from_binary(b: &Binary) -> NestedBinary {
        NestedBinary {
            name: b.name.clone(),
            build_provenance: b.build_provenance,
            stripped: b.stripped,
            functions: b
                .functions
                .iter()
                .map(|f| NestedFunction {
                    name: f.name.clone(),
                    exported: f.exported,
                    blocks: f
                        .blocks
                        .iter()
                        .map(|blk| NestedBlock {
                            insts: blk
                                .insts
                                .iter()
                                .map(|i| NestedInst {
                                    opcode: i.opcode,
                                    operands: i.operands(&f.operand_pool).to_vec(),
                                })
                                .collect(),
                            succs: blk.succs.clone(),
                            calls: blk.calls.clone(),
                        })
                        .collect(),
                })
                .collect(),
            relocations: b.relocations.clone(),
            externals: b.externals.iter().map(|e| e.name.clone()).collect(),
        }
    }

    // --- the seed `Binary::fingerprint`, verbatim over the nested layout ---

    struct Mix {
        lanes: [u64; 4],
        next: usize,
    }

    impl Mix {
        fn new() -> Self {
            Mix {
                lanes: [
                    0x243f6a8885a308d3,
                    0x13198a2e03707344,
                    0xa4093822299f31d0,
                    0x082efa98ec4e6c89,
                ],
                next: 0,
            }
        }

        #[inline]
        fn u64(&mut self, v: u64) {
            let lane = &mut self.lanes[self.next & 3];
            let mut x = *lane ^ v;
            x = x.wrapping_mul(0x9e3779b97f4a7c15);
            x ^= x >> 29;
            *lane = x;
            self.next = self.next.wrapping_add(1);
        }

        fn bytes(&mut self, bs: &[u8]) {
            let mut chunks = bs.chunks_exact(8);
            for c in &mut chunks {
                self.u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
            }
            let mut tail = [0u8; 8];
            tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
            self.u64(u64::from_le_bytes(tail));
            self.u64(bs.len() as u64);
        }

        fn finish(&self) -> u64 {
            let mut x = 0u64;
            for (k, lane) in self.lanes.iter().enumerate() {
                x ^= lane.rotate_left(17 * k as u32);
                x = x.wrapping_mul(0xff51afd7ed558ccd);
                x ^= x >> 33;
            }
            x
        }
    }

    /// Seed fingerprint over the nested layout; must equal
    /// `Binary::fingerprint()` of the pooled original.
    pub fn fingerprint(b: &NestedBinary) -> u64 {
        let mut h = Mix::new();
        h.bytes(b.name.as_bytes());
        h.u64(b.build_provenance);
        h.u64(b.stripped as u64);
        h.u64(b.functions.len() as u64);
        for f in &b.functions {
            match &f.name {
                Some(n) => {
                    h.u64(1);
                    h.bytes(n.as_bytes());
                }
                None => h.u64(0),
            }
            h.u64(f.exported as u64);
            h.u64(f.blocks.len() as u64);
            for blk in &f.blocks {
                h.u64(
                    (blk.insts.len() as u64)
                        | ((blk.succs.len() as u64) << 21)
                        | ((blk.calls.len() as u64) << 42),
                );
                let mut acc: u64 = 0xcbf29ce484222325;
                for i in &blk.insts {
                    let mut w = i.opcode as u64;
                    for (k, o) in i.operands.iter().enumerate() {
                        let enc = match o {
                            MOperand::Reg(r) => (1 << 56) | *r as u64,
                            MOperand::FReg(r) => (2 << 56) | *r as u64,
                            MOperand::Imm(v) => (3 << 56) ^ *v as u64,
                            MOperand::Mem { base, offset } => {
                                (4 << 56) | ((*base as u64) << 32) ^ (*offset as u32 as u64)
                            }
                            MOperand::Sym(SymRef::Func(i)) => (5 << 56) | *i as u64,
                            MOperand::Sym(SymRef::Global(i)) => (6 << 56) | *i as u64,
                            MOperand::Sym(SymRef::Ext(i)) => (7 << 56) | *i as u64,
                            MOperand::Label(l) => (8 << 56) | *l as u64,
                        };
                        w ^= enc.rotate_left(7 + 13 * k as u32);
                    }
                    acc = (acc ^ w).wrapping_mul(0x100000001b3);
                }
                h.u64(acc);
                for pair in blk.succs.chunks(2) {
                    let hi = pair.get(1).map(|s| (*s as u64) << 32).unwrap_or(1 << 63);
                    h.u64(pair[0] as u64 | hi);
                }
                for c in &blk.calls {
                    h.u64(match c {
                        SymRef::Func(i) => (1 << 32) | *i as u64,
                        SymRef::Global(i) => (2 << 32) | *i as u64,
                        SymRef::Ext(i) => (3 << 32) | *i as u64,
                    });
                }
            }
        }
        h.u64(b.relocations.len() as u64);
        for r in &b.relocations {
            h.u64(((r.func as u64) << 32) ^ r.addend as u64);
        }
        h.u64(b.externals.len() as u64);
        for e in &b.externals {
            h.bytes(e.as_bytes());
        }
        h.finish()
    }

    // --- the seed Asm2Vec / SAFE embeds, verbatim over the nested layout ---

    fn inst_class_token(i: &NestedInst) -> String {
        let mut s = String::from(opcode_class(i.opcode));
        for (k, o) in i.operands.iter().enumerate() {
            s.push(if k == 0 { ' ' } else { ',' });
            s.push_str(operand_class(o));
        }
        s
    }

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// Seed Asm2Vec embedding: per-walk token sequences, n-grams
    /// materialized with `format!` (the allocation cost the pooled path
    /// removed).
    pub fn asm2vec_embed(b: &NestedBinary, walks: u32, walk_len: u32, seed: u64) -> Vec<Vec<f64>> {
        b.functions
            .iter()
            .map(|f| {
                let mut v = vec![0.0; EMB_DIM];
                if f.blocks.is_empty() {
                    return v;
                }
                let per_block: Vec<Vec<String>> = f
                    .blocks
                    .iter()
                    .map(|blk| blk.insts.iter().map(inst_class_token).collect())
                    .collect();
                let mut rng = seed ^ 0x9e3779b97f4a7c15;
                for w in 0..walks {
                    let mut cur = if f.blocks.len() > 1 {
                        (w as usize) % f.blocks.len()
                    } else {
                        0
                    };
                    let mut sequence: Vec<&str> = Vec::new();
                    for _ in 0..walk_len {
                        for t in &per_block[cur] {
                            sequence.push(t);
                        }
                        let succs = &f.blocks[cur].succs;
                        if succs.is_empty() {
                            break;
                        }
                        cur = succs[(xorshift(&mut rng) % succs.len() as u64) as usize] as usize;
                        if cur >= f.blocks.len() {
                            break;
                        }
                    }
                    for i in 0..sequence.len() {
                        add_token(&mut v, sequence[i], 1.0);
                        if i + 1 < sequence.len() {
                            let bg = format!("{}|{}", sequence[i], sequence[i + 1]);
                            add_token(&mut v, &bg, 0.5);
                        }
                        if i + 2 < sequence.len() {
                            let tg =
                                format!("{}|{}|{}", sequence[i], sequence[i + 1], sequence[i + 2]);
                            add_token(&mut v, &tg, 0.25);
                        }
                    }
                }
                let n: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                if n > 0.0 {
                    for x in &mut v {
                        *x /= n;
                    }
                }
                v
            })
            .collect()
    }

    /// Seed SAFE embedding: positional tokens materialized with
    /// `format!` per token occurrence.
    pub fn safe_embed(b: &NestedBinary, position_period: usize) -> Vec<Vec<f64>> {
        use std::collections::HashMap;
        let mut df: HashMap<String, f64> = HashMap::new();
        let streams: Vec<Vec<String>> = b
            .functions
            .iter()
            .map(|f| {
                f.blocks
                    .iter()
                    .flat_map(|blk| blk.insts.iter().map(inst_class_token))
                    .collect()
            })
            .collect();
        for s in &streams {
            for t in s {
                *df.entry(t.clone()).or_insert(0.0) += 1.0;
            }
        }
        let total: f64 = df.values().sum::<f64>().max(1.0);
        streams
            .iter()
            .map(|s| {
                let mut v = vec![0.0; EMB_DIM];
                let n = s.len().max(1) as f64;
                for (i, t) in s.iter().enumerate() {
                    let attention = (total / (1.0 + df[t])).ln().max(0.1);
                    let phase = (i / position_period) % 4;
                    let positional = format!("{t}#p{phase}");
                    add_token(&mut v, t, attention / n);
                    add_token(&mut v, &positional, 0.5 * attention / n);
                }
                let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                if norm > 0.0 {
                    for x in &mut v {
                        *x /= norm;
                    }
                }
                v
            })
            .collect()
    }
}

/// Mean-of-`iters` wall clock via the shared [`khaos_obs::timer`]
/// stopwatch — the one timing idiom the pass reports and the serve
/// dispatcher use too.
fn time_ns<F: FnMut() -> f64>(iters: u32, mut f: F) -> (f64, f64) {
    let mut value = 0.0;
    let (ns, ()) = khaos_obs::timer::time_ns(|| {
        for _ in 0..iters {
            value = criterion::black_box(f());
        }
    });
    (ns as f64 / iters as f64, value)
}

/// Best-of-`rounds` timing: the minimum single-round wall clock plus
/// the last value. A speedup ratio of two best-of measurements is
/// robust to scheduler noise in a way a ratio of averages is not —
/// each side sheds its own worst rounds.
fn time_ns_best<F: FnMut() -> f64>(rounds: u32, mut f: F) -> (f64, f64) {
    khaos_obs::timer::best_of_ns(rounds, || criterion::black_box(f()))
}

fn json_escape_entry(tool: &str, seed_ns: f64, cold_ns: f64, warm_ns: f64, equal: bool) -> String {
    format!(
        "    {{\"tool\": \"{tool}\", \"seed_escape_ns\": {seed_ns:.0}, \
         \"batched_cold_ns\": {cold_ns:.0}, \"batched_warm_ns\": {warm_ns:.0}, \
         \"speedup\": {:.2}, \"values_equal\": {equal}}}",
        seed_ns / cold_ns
    )
}

fn bench_similarity(c: &mut Criterion) {
    let (base_bin, obf_bin) = build_pair();
    let tools: Vec<Box<dyn Differ>> = vec![
        Box::new(BinDiff::default()),
        Box::new(VulSeeker::default()),
        Box::new(Asm2Vec::default()),
        Box::new(Safe::default()),
        Box::new(DataFlowDiff::default()),
    ];

    // Criterion-style per-tool comparison of one full matrix build.
    {
        let mut group = c.benchmark_group("similarity_matrix_200fn");
        group.sample_size(5);
        for tool in &tools {
            group.bench_with_input(BenchmarkId::new("per_pair", tool.name()), tool, |b, t| {
                b.iter(|| t.similarity_matrix(&base_bin, &obf_bin))
            });
            group.bench_with_input(
                BenchmarkId::new("batched_cold", tool.name()),
                tool,
                |b, t| {
                    b.iter(|| {
                        // Fresh cache: embeds both sides, then one flat build.
                        let cache = EmbeddingCache::new(4);
                        t.batched_similarity(&base_bin, &obf_bin, &cache)
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new("batched_warm", tool.name()),
                tool,
                |b, t| {
                    b.iter(|| t.batched_similarity(&base_bin, &obf_bin, EmbeddingCache::global()))
                },
            );
        }
        group.finish();
    }

    // The acceptance measurement: the Figure-10 escape protocol —
    // escape@{1,10,50} over ~20 vulnerable functions — seed path vs
    // batched path, per tool. The seed fig10 driver called
    // `escape_at_k` once per threshold, each call rebuilding the
    // matrix per vulnerable query; the engine's `escape_profile`
    // answers all three thresholds from one rank pass. The headline
    // "cold" number uses a **fresh cache per call** — every iteration
    // pays embedding + fingerprinting + ranking in full (on an unseen
    // pair the rank-only path streams per-query rows and never builds
    // the Q×T matrix), so the speedup reflects the engine itself, not
    // process-global cache hits. The warm number (shared global cache,
    // the wrapper default, i.e. what fig10 actually pays beyond its
    // first call) is reported alongside.
    const KS: [usize; 3] = [1, 10, 50];
    let mut entries = Vec::new();
    let mut worst_speedup = f64::INFINITY;
    println!(
        "\n# escape@{{1,10,50}}, 200-function pair, {} tools",
        tools.len()
    );
    println!(
        "{:<14} {:>16} {:>15} {:>15} {:>9} {:>7}",
        "tool", "seed", "batched/cold", "batched/warm", "speedup", "equal"
    );
    for tool in &tools {
        let (cold_ns, cold_v) = time_ns(3, || {
            let cache = EmbeddingCache::new(4);
            escape_profile_with(tool.as_ref(), &base_bin, &obf_bin, &KS, &cache)
                .iter()
                .sum()
        });
        let (warm_ns, warm_v) = time_ns(5, || {
            KS.iter()
                .map(|&k| escape_at_k(tool.as_ref(), &base_bin, &obf_bin, k))
                .sum()
        });
        let (seed_ns, seed_v) = time_ns(1, || {
            KS.iter()
                .map(|&k| seed_escape_at_k(tool.as_ref(), &base_bin, &obf_bin, k))
                .sum()
        });
        let equal = (seed_v - cold_v).abs() < 1e-12 && (seed_v - warm_v).abs() < 1e-12;
        let speedup = seed_ns / cold_ns;
        worst_speedup = worst_speedup.min(speedup);
        println!(
            "{:<14} {:>13.2} ms {:>12.2} ms {:>12.2} ms {:>8.1}x {:>7}",
            tool.name(),
            seed_ns / 1e6,
            cold_ns / 1e6,
            warm_ns / 1e6,
            speedup,
            equal
        );
        assert!(
            equal,
            "{}: batched escape@{{1,10,50}} diverged from seed path",
            tool.name()
        );
        entries.push(json_escape_entry(
            tool.name(),
            seed_ns,
            cold_ns,
            warm_ns,
            equal,
        ));
    }
    println!("# worst cold speedup: {worst_speedup:.1}x (acceptance bar: >= 10x)");

    // -----------------------------------------------------------------
    // Layout comparison: cold fingerprint+embed over the frozen seed
    // (nested operand `Vec`s, `format!` n-grams) vs the flat operand
    // pool + streamed token hashing, on the same pair. Faithfulness of
    // the nested baseline is asserted before timing: same digests, same
    // embeddings, bit for bit.
    // -----------------------------------------------------------------
    let nested_base = seed_layout::from_binary(&base_bin);
    let nested_obf = seed_layout::from_binary(&obf_bin);
    let a2v = Asm2Vec::default();
    let safe = Safe::default();
    let digests_equal = seed_layout::fingerprint(&nested_base) == base_bin.fingerprint()
        && seed_layout::fingerprint(&nested_obf) == obf_bin.fingerprint();
    assert!(
        digests_equal,
        "nested baseline diverged from Binary::fingerprint"
    );
    let embeddings_equal =
        seed_layout::asm2vec_embed(&nested_base, a2v.walks, a2v.walk_len, a2v.seed)
            == a2v.embed(&base_bin)
            && seed_layout::safe_embed(&nested_obf, safe.position_period) == safe.embed(&obf_bin);
    assert!(embeddings_equal, "nested baseline embeddings diverged");

    let (layout_seed_ns, _) = time_ns(5, || {
        let mut acc = 0.0;
        for nb in [&nested_base, &nested_obf] {
            acc += (seed_layout::fingerprint(nb) & 0xff) as f64;
            acc += seed_layout::asm2vec_embed(nb, a2v.walks, a2v.walk_len, a2v.seed)[0][0];
            acc += seed_layout::safe_embed(nb, safe.position_period)[0][0];
        }
        acc
    });
    // `Binary::fingerprint` keeps its digest once computed, and the
    // digest check above already hashed `base_bin` and `obf_bin`. A
    // clone starts without the digest, so each timed iteration gets its
    // own fresh pair (cloned before timing) and hashes like the seed side.
    let fresh: Vec<_> = (0..5)
        .map(|_| [base_bin.clone(), obf_bin.clone()])
        .collect();
    let mut next_fresh = fresh.iter();
    let (layout_pooled_ns, _) = time_ns(5, || {
        let pair = next_fresh
            .next()
            .expect("one fresh pair per timed iteration");
        let mut acc = 0.0;
        for b in pair {
            acc += (b.fingerprint() & 0xff) as f64;
            acc += a2v.embed(b)[0][0];
            acc += safe.embed(b)[0][0];
        }
        acc
    });
    let layout_speedup = layout_seed_ns / layout_pooled_ns;
    println!(
        "# layout: cold fingerprint+embed {:.2} ms (seed nested) -> {:.2} ms (operand pool), {:.2}x (bar: >= 2x)",
        layout_seed_ns / 1e6,
        layout_pooled_ns / 1e6,
        layout_speedup
    );
    assert!(
        layout_speedup >= 2.0,
        "operand-pool layout regression: cold fingerprint+embed only {layout_speedup:.2}x \
         over the seed nested layout (bar: >= 2x)"
    );

    // Rank-only streaming path: escape@{1,10,50} with embeddings warm
    // but no matrix — the memory-flat path for 1000+-function binaries.
    // One untimed call warms the embedding cache so the measurement is
    // rank work only, as labeled.
    let stream_cache = EmbeddingCache::new(8);
    let _ = khaos_diff::escape_profile_streaming(&a2v, &base_bin, &obf_bin, &KS, &stream_cache);
    let (streaming_ns, _) = time_ns(5, || {
        khaos_diff::escape_profile_streaming(&a2v, &base_bin, &obf_bin, &KS, &stream_cache)
            .iter()
            .sum()
    });
    let stream_matrices = stream_cache.stats().matrix_entries;
    assert_eq!(
        stream_matrices, 0,
        "streaming escape must not build a matrix"
    );
    println!(
        "# streaming: rank-only escape@{{1,10,50}} {:.3} ms, matrices built: {stream_matrices}",
        streaming_ns / 1e6
    );

    // -----------------------------------------------------------------
    // Parallel streaming rank path: the same rank-only escape with
    // EVERY query function vulnerable (the widest row fan-out the pair
    // offers), multi-threaded vs KHAOS_THREADS=1. The ranked output is
    // hard-asserted bit-identical between the two — indices and score
    // bits — at a forced thread count of 7, so the equivalence claim is
    // exercised even on single-core machines; the ≥2× wall-clock bar is
    // enforced wherever the hardware can physically parallelize.
    // -----------------------------------------------------------------
    let mut all_vuln = base_bin.clone();
    for f in all_vuln.functions.iter_mut() {
        f.provenance.annotations.push("vulnerable".into());
    }
    let par_cache = EmbeddingCache::new(8);
    let _ = khaos_diff::escape_profile_streaming(&a2v, &all_vuln, &obf_bin, &KS, &par_cache);
    let queries: Vec<usize> = (0..all_vuln.functions.len()).collect();

    // An operator-provided KHAOS_THREADS cap is restored after every
    // forced setting below — the bench must not erase an explicit
    // constraint for the rest of the process.
    let prior_threads = std::env::var("KHAOS_THREADS").ok();
    let restore_threads = || match &prior_threads {
        Some(v) => std::env::set_var("KHAOS_THREADS", v),
        None => std::env::remove_var("KHAOS_THREADS"),
    };

    // Bit-equivalence first (KHAOS_THREADS=1 vs a forced 7 workers).
    let ranked_at = |threads: &str| {
        std::env::set_var("KHAOS_THREADS", threads);
        let scorer = a2v.row_scorer(&all_vuln, &obf_bin, &par_cache);
        let ranked = khaos_diff::par_stream_top_k_rows(scorer.as_ref(), &queries, 50);
        let escape =
            khaos_diff::escape_profile_streaming(&a2v, &all_vuln, &obf_bin, &KS, &par_cache);
        restore_threads();
        (ranked, escape)
    };
    let (seq_ranked, seq_escape) = ranked_at("1");
    let (par_ranked, par_escape) = ranked_at("7");
    let mut ranked_bits_equal = seq_ranked.len() == par_ranked.len();
    for (ra, rb) in seq_ranked.iter().zip(&par_ranked) {
        ranked_bits_equal &= ra.len() == rb.len()
            && ra
                .iter()
                .zip(rb)
                .all(|(&(ja, sa), &(jb, sb))| ja == jb && sa.to_bits() == sb.to_bits());
    }
    ranked_bits_equal &= seq_escape
        .iter()
        .zip(&par_escape)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        ranked_bits_equal,
        "parallel streaming rank output diverged from KHAOS_THREADS=1 — \
         ranked indices/score bits must be thread-count-independent"
    );

    // Then the wall-clock comparison: forced single thread vs the
    // worker count the process would otherwise use (the operator's
    // KHAOS_THREADS cap when set, machine parallelism otherwise).
    std::env::set_var("KHAOS_THREADS", "1");
    let (par_seq_ns, seq_v) = time_ns(5, || {
        khaos_diff::escape_profile_streaming(&a2v, &all_vuln, &obf_bin, &KS, &par_cache)
            .iter()
            .sum()
    });
    restore_threads();
    let threads = khaos_par::max_threads();
    let (par_mt_ns, par_v) = time_ns(5, || {
        khaos_diff::escape_profile_streaming(&a2v, &all_vuln, &obf_bin, &KS, &par_cache)
            .iter()
            .sum()
    });
    assert_eq!(
        seq_v.to_bits(),
        par_v.to_bits(),
        "timed escape values must agree between thread counts"
    );
    let par_speedup = par_seq_ns / par_mt_ns;
    println!(
        "# parallel streaming: {} rows, escape@{{1,10,50}} {:.3} ms (1 thread) -> {:.3} ms \
         ({threads} threads), {par_speedup:.2}x (bar: >= 2x on multi-core), bit-equal: {ranked_bits_equal}",
        queries.len(),
        par_seq_ns / 1e6,
        par_mt_ns / 1e6,
    );
    // The ≥2× bar binds only where the hardware has real headroom: a
    // one-core container cannot honestly speed up wall-clock, and a
    // loaded 4-vCPU CI runner measures too noisily over 5 iterations to
    // gate on — the bit-equivalence assert above is the correctness
    // gate everywhere; the wall-clock bar is a perf-regression tripwire
    // for hosts with ≥8 workers.
    if threads >= 8 {
        assert!(
            par_speedup >= 2.0,
            "parallel streaming regression: only {par_speedup:.2}x over KHAOS_THREADS=1 \
             with {threads} workers (bar: >= 2x)"
        );
    } else {
        println!(
            "# parallel streaming: {threads} worker(s) — wall-clock bar not binding \
             (needs >= 8 workers); ranked bit-equivalence is the gate here"
        );
    }

    // -----------------------------------------------------------------
    // Runtime-dispatched dot kernels: per-kernel ns/dot on real
    // embedding rows vs the naive scalar loop, plus a hard bitwise
    // equivalence gate — the dispatched ranked output (forced scalar vs
    // whatever dispatch picked) must match bit for bit, mirroring the
    // KHAOS_THREADS gate above.
    // -----------------------------------------------------------------
    let qe = Arc::new(FunctionEmbeddings::from_rows(a2v.embed(&base_bin)));
    let te = Arc::new(FunctionEmbeddings::from_rows(a2v.embed(&obf_bin)));
    let n_dots = (qe.len() * te.len()) as f64;
    let scan_f64 = |dot: &dyn Fn(&[f64], &[f64]) -> f64| {
        let mut acc = 0.0;
        for i in 0..qe.len() {
            let q = qe.row(i);
            for j in 0..te.len() {
                acc += dot(q, te.row(j));
            }
        }
        acc
    };
    let (naive_total_ns, _naive_v) = time_ns(3, || scan_f64(&dot_scalar));
    let naive_dot_ns = naive_total_ns / n_dots;
    // The bitwise reference is the *blocked* scalar kernel — the naive
    // sequential sum above rounds differently and is only the speedup
    // baseline; every dispatched kernel replicates the blocked
    // reduction exactly.
    let blocked_ref = scan_f64(&|a, b| {
        kernels::table_for(KernelKind::Scalar)
            .expect("scalar table")
            .dot(a, b)
    });
    let active = kernels::active();
    let available = kernels::available();
    let mut kernel_entries = Vec::new();
    let mut best_speedup = 0.0f64;
    println!(
        "# kernels: dispatch picked {} of [{}], naive dot_scalar {naive_dot_ns:.1} ns/dot (dim {})",
        active.name(),
        available
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", "),
        qe.dim()
    );
    for kind in &available {
        let table = kernels::table_for(*kind).expect("available kernel has a table");
        let (total_ns, v) = time_ns(3, || scan_f64(&|a, b| table.dot(a, b)));
        assert_eq!(
            v.to_bits(),
            blocked_ref.to_bits(),
            "{}: every dispatched kernel must reproduce the blocked scalar \
             reduction bit for bit; the timed totals diverged",
            kind.name()
        );
        let ns_per_dot = total_ns / n_dots;
        let speedup = naive_dot_ns / ns_per_dot;
        if *kind != KernelKind::Scalar {
            best_speedup = best_speedup.max(speedup);
        }
        println!(
            "#   {:<7} {ns_per_dot:>7.1} ns/dot  {speedup:>5.2}x vs dot_scalar",
            kind.name()
        );
        kernel_entries.push(format!(
            "      {{\"kind\": \"{}\", \"ns_per_dot\": {ns_per_dot:.1}, \
             \"speedup_vs_dot_scalar\": {speedup:.2}}}",
            kind.name()
        ));
    }
    if available.contains(&KernelKind::Avx2) {
        assert!(
            best_speedup >= 1.5,
            "SIMD kernel regression: best dispatched f64 dot only {best_speedup:.2}x \
             over dot_scalar on an AVX2-capable host (bar: >= 1.5x)"
        );
    }

    // Forced-scalar vs dispatched ranked output, bit for bit.
    let kernel_ranked_at = |kind: Option<KernelKind>| {
        kernels::force_kernel(kind);
        let scorer = a2v.row_scorer(&all_vuln, &obf_bin, &par_cache);
        let ranked = khaos_diff::par_stream_top_k_rows(scorer.as_ref(), &queries, 50);
        let escape =
            khaos_diff::escape_profile_streaming(&a2v, &all_vuln, &obf_bin, &KS, &par_cache);
        kernels::force_kernel(None);
        (ranked, escape)
    };
    let (scalar_ranked, scalar_escape) = kernel_ranked_at(Some(KernelKind::Scalar));
    let (auto_ranked, auto_escape) = kernel_ranked_at(None);
    let mut kernel_bits_equal = scalar_ranked.len() == auto_ranked.len();
    for (ra, rb) in scalar_ranked.iter().zip(&auto_ranked) {
        kernel_bits_equal &= ra.len() == rb.len()
            && ra
                .iter()
                .zip(rb)
                .all(|(&(ja, sa), &(jb, sb))| ja == jb && sa.to_bits() == sb.to_bits());
    }
    kernel_bits_equal &= scalar_escape
        .iter()
        .zip(&auto_escape)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        kernel_bits_equal,
        "dispatched kernel ranked output diverged from forced-scalar — \
         ranked indices/score bits must be dispatch-independent"
    );
    println!(
        "# kernels: forced-scalar vs dispatched ({}) ranked output bit-equal: {kernel_bits_equal}",
        active.name()
    );

    // -----------------------------------------------------------------
    // Quantized shortlist tier: int8 candidate scan vs the exact f64
    // scan, per candidate, plus the recall gate — shortlist + exact
    // re-rank must reproduce the exact top-k bit for bit at the fig10
    // thresholds.
    // -----------------------------------------------------------------
    let qq = QuantizedEmbeddings::from_embeddings(&qe);
    let tq = QuantizedEmbeddings::from_embeddings(&te);
    let (approx_total_ns, _) = time_ns(3, || {
        let mut acc = 0.0;
        for i in 0..qq.len() {
            qq.approx_scan(i, &tq, |_, s| acc += s);
        }
        acc
    });
    let (disp_total_ns, _) = time_ns(3, || scan_f64(&khaos_diff::dot));
    let approx_ns = approx_total_ns / n_dots;
    let disp_ns = disp_total_ns / n_dots;
    let quant_speedup_scalar = naive_dot_ns / approx_ns;
    let quant_speedup_disp = disp_ns / approx_ns;
    println!(
        "# quantized: approx scan {approx_ns:.1} ns/candidate vs f64 scalar {naive_dot_ns:.1} \
         ({quant_speedup_scalar:.2}x, bar: >= 4x with SIMD) / dispatched {disp_ns:.1} \
         ({quant_speedup_disp:.2}x); {} bytes/function vs {} f64",
        qq.bytes_per_function(),
        qe.dim() * 8
    );
    if available.contains(&KernelKind::Avx2) {
        assert!(
            quant_speedup_scalar >= 4.0,
            "quantized scan regression: int8 candidate scan only {quant_speedup_scalar:.2}x \
             over the scalar f64 scan on a SIMD host (bar: >= 4x)"
        );
    }
    // Recall + bit-identity of the re-ranked shortlist at the fig10
    // thresholds, over every query row.
    let exact_scorer = EmbedScorer::new(Arc::clone(&qe), Arc::clone(&te), true);
    let mut recalls = Vec::new();
    let mut rerank_bits_equal = true;
    for &k in &KS {
        let mut hit = 0usize;
        let mut want = 0usize;
        for qi in 0..qe.len() {
            let exact = stream_top_k(&exact_scorer, qi, k);
            let approx = stream_top_k_quantized(
                &qq,
                &tq,
                &exact_scorer,
                qi,
                k,
                QUANT_SHORTLIST_FACTOR,
                true,
            );
            rerank_bits_equal &= approx.len() == exact.len()
                && approx
                    .iter()
                    .zip(&exact)
                    .all(|(&(ja, sa), &(jb, sb))| ja == jb && sa.to_bits() == sb.to_bits());
            want += exact.len();
            let exact_set: std::collections::HashSet<usize> =
                exact.iter().map(|&(j, _)| j).collect();
            hit += approx.iter().filter(|(j, _)| exact_set.contains(j)).count();
        }
        recalls.push(hit as f64 / want.max(1) as f64);
    }
    assert!(
        rerank_bits_equal && recalls.iter().all(|&r| r == 1.0),
        "quantized shortlist (factor {QUANT_SHORTLIST_FACTOR}) failed the recall gate: \
         recall@{{1,10,50}} = {recalls:?}, rerank bit-equal: {rerank_bits_equal}"
    );
    println!(
        "# quantized: shortlist factor {QUANT_SHORTLIST_FACTOR}, recall@{{1,10,50}} = \
         [{:.2}, {:.2}, {:.2}], re-ranked output bit-equal: {rerank_bits_equal}",
        recalls[0], recalls[1], recalls[2]
    );

    // -----------------------------------------------------------------
    // Corpus-scale IVF index tier: a 10k-function corpus, queried
    // through the coarse quantizer + certified int8 shortlist + exact
    // re-rank, against the brute-force exact scan. Three gates:
    // recall@{1,10,50} must be exactly 1.0 at the default nprobe,
    // the fig10-pair index must reproduce the exact ranking bit for
    // bit, and escape@k answered through the index must equal the
    // streaming escape protocol. The ≥5× per-query speedup bar binds
    // on SIMD hosts (the int8 scan is where the arithmetic savings
    // come from; a scalar host only saves the margin window).
    // -----------------------------------------------------------------
    use khaos_index::{IndexParams, IvfIndex, RowMeta};

    const CORPUS_ROWS: usize = 10_000;
    const CORPUS_DIM: usize = 64;
    let corpus_rows: Vec<Vec<f64>> = (0..CORPUS_ROWS)
        .map(|i| {
            let cluster = i % 96;
            (0..CORPUS_DIM)
                .map(|d| {
                    let base = (((cluster * 131 + d * 17) % 255) as f64 / 127.5) - 1.0;
                    let h = (i as u64 ^ 0xC60_2023)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .rotate_left((d % 61) as u32);
                    base + ((h as f64 / u64::MAX as f64) - 0.5) * 0.5
                })
                .collect()
        })
        .collect();
    let corpus_meta: Vec<RowMeta> = (0..CORPUS_ROWS)
        .map(|i| RowMeta {
            binary: (i / 64) as u64,
            function: (i % 64) as u32,
            name: String::new(),
        })
        .collect();
    let corpus = Arc::new(FunctionEmbeddings::from_rows(corpus_rows));
    let big_idx = IvfIndex::build(
        "bench",
        0,
        Arc::clone(&corpus),
        corpus_meta,
        &IndexParams::default(),
    );
    assert!(
        big_idx.default_nprobe() < big_idx.nlist(),
        "the 10k corpus must exercise a partial probe (nprobe {} of nlist {})",
        big_idx.default_nprobe(),
        big_idx.nlist()
    );

    // Queries: perturbed corpus rows — near the data manifold, never
    // exact duplicates.
    let index_queries: Vec<Vec<f64>> = (0..64usize)
        .map(|qi| {
            let row = big_idx.exact_rows().row((qi * 157) % CORPUS_ROWS);
            row.iter()
                .enumerate()
                .map(|(d, &v)| {
                    let h = (qi as u64)
                        .wrapping_mul(0x2545_F491_4F6C_DD1D)
                        .rotate_left((d % 59) as u32);
                    v + ((h as f64 / u64::MAX as f64) - 0.5) * 0.02
                })
                .collect()
        })
        .collect();
    let query_emb = FunctionEmbeddings::from_rows(index_queries.clone());
    let query_rows: Vec<usize> = (0..query_emb.len()).collect();

    // The recall gate: exactly 1.0 at every fig10 threshold, default
    // nprobe.
    let mut index_recalls = Vec::new();
    for &k in &KS {
        let r = big_idx.recall_at(&query_emb, &query_rows, k, 0);
        assert_eq!(
            r,
            1.0,
            "index recall@{k} = {r} at default nprobe {} (nlist {}) on the {CORPUS_ROWS}-row corpus",
            big_idx.default_nprobe(),
            big_idx.nlist()
        );
        index_recalls.push(r);
    }

    // Per-query wall clock: brute-force exact scan vs the index at its
    // default nprobe, same queries, same k, best-of-rounds on both
    // sides so a noisy scheduler round cannot sink the ratio.
    const INDEX_K: usize = 50;
    let (brute_total_ns, brute_v) = time_ns_best(4, || {
        let mut acc = 0.0;
        for q in &index_queries {
            acc += big_idx.brute_top_k(q, INDEX_K)[0].1;
        }
        acc
    });
    let (index_total_ns, index_v) = time_ns_best(4, || {
        let mut acc = 0.0;
        for q in &index_queries {
            acc += big_idx.query(q, INDEX_K)[0].1;
        }
        acc
    });
    assert_eq!(
        brute_v.to_bits(),
        index_v.to_bits(),
        "index top-1 scores diverged from brute force on the timed queries"
    );
    let brute_query_ns = brute_total_ns / index_queries.len() as f64;
    let index_query_ns = index_total_ns / index_queries.len() as f64;
    let index_speedup = brute_query_ns / index_query_ns;
    println!(
        "# index: {CORPUS_ROWS} rows dim {CORPUS_DIM}, nlist {} nprobe {}, top-{INDEX_K} \
         {:.0} ns/query brute -> {:.0} ns/query indexed, {index_speedup:.2}x \
         (bar: >= 5x on SIMD hosts), recall@{{1,10,50}} = [{:.2}, {:.2}, {:.2}]",
        big_idx.nlist(),
        big_idx.default_nprobe(),
        brute_query_ns,
        index_query_ns,
        index_recalls[0],
        index_recalls[1],
        index_recalls[2]
    );
    if available.contains(&KernelKind::Avx2) {
        assert!(
            index_speedup >= 5.0,
            "index tier regression: only {index_speedup:.2}x over the brute-force scan \
             at {CORPUS_ROWS} rows on a SIMD host (bar: >= 5x)"
        );
    }

    // Bit-identity on the fig10 pair: an index over the obfuscated
    // binary's embeddings must reproduce the exact ranking bit for bit
    // (the pair corpus is small enough that the default nprobe covers
    // every cell — the certified-shortlist contract then guarantees
    // equality, not approximation).
    let pair_meta: Vec<RowMeta> = (0..te.len())
        .map(|j| RowMeta {
            binary: obf_bin.fingerprint(),
            function: j as u32,
            name: obf_bin.functions[j].name.clone().unwrap_or_default(),
        })
        .collect();
    let pair_idx = IvfIndex::build(
        a2v.name(),
        a2v.config_fingerprint(),
        Arc::clone(&te),
        pair_meta,
        &IndexParams::default(),
    );
    let mut pair_bits_equal = true;
    for qi in 0..qe.len() {
        for &k in &KS {
            let exact = pair_idx.brute_top_k(qe.row(qi), k);
            let indexed = pair_idx.query(qe.row(qi), k);
            pair_bits_equal &= indexed.len() == exact.len()
                && indexed
                    .iter()
                    .zip(&exact)
                    .all(|(&(ja, sa), &(jb, sb))| ja == jb && sa.to_bits() == sb.to_bits());
        }
    }
    assert!(
        pair_bits_equal,
        "fig10-pair index ranking diverged from the brute-force scan"
    );

    // escape@k as a client of the index: identical escape fractions to
    // the streaming protocol, bit for bit.
    let vuln_rows: Vec<usize> = base_bin
        .functions
        .iter()
        .enumerate()
        .filter(|(_, f)| f.provenance.annotations.iter().any(|a| a == "vulnerable"))
        .map(|(i, _)| i)
        .collect();
    let index_escape = pair_idx.escape_profile(&qe, &vuln_rows, &KS, 0, &|qi, meta| {
        khaos_diff::origins_match(
            &base_bin.functions[qi].provenance,
            &obf_bin.functions[meta.function as usize].provenance,
        )
    });
    let stream_escape =
        khaos_diff::escape_profile_streaming(&a2v, &base_bin, &obf_bin, &KS, &stream_cache);
    let escape_via_index_equal = index_escape
        .iter()
        .zip(&stream_escape)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        escape_via_index_equal,
        "escape@k through the index ({index_escape:?}) diverged from the streaming \
         protocol ({stream_escape:?})"
    );
    println!(
        "# index: fig10 pair ranking bit-equal: {pair_bits_equal}, escape@{{1,10,50}} via \
         index == streaming: {escape_via_index_equal} ({index_escape:?})"
    );
    let index_json = format!(
        "  \"index\": {{\"what\": \"IVF coarse quantizer + certified int8 shortlist + exact \
         re-rank vs brute-force scan, {CORPUS_ROWS}-row corpus, top-{INDEX_K} per query\", \
         \"rows\": {CORPUS_ROWS}, \"dim\": {CORPUS_DIM}, \"nlist\": {}, \"nprobe\": {}, \
         \"brute_ns_per_query\": {brute_query_ns:.0}, \"index_ns_per_query\": {index_query_ns:.0}, \
         \"speedup\": {index_speedup:.2}, \
         \"recall_at_1\": {:.2}, \"recall_at_10\": {:.2}, \"recall_at_50\": {:.2}, \
         \"fig10_pair_bits_equal\": {pair_bits_equal}, \
         \"escape_via_index_equals_streaming\": {escape_via_index_equal}}}",
        big_idx.nlist(),
        big_idx.default_nprobe(),
        index_recalls[0],
        index_recalls[1],
        index_recalls[2],
    );

    // -----------------------------------------------------------------
    // Semantic-audit overhead on the fig10 build path: the same
    // baseline + FuFiAll builds that produced the bench pair, run with
    // structural verification only (`AfterEach`, the pre-auditor
    // policy) vs verification + behavior audit (`AuditAfterEach`, what
    // `run_spec` now uses). The acceptance bar is < 15% wall-clock
    // added by the audit.
    // -----------------------------------------------------------------
    let audit_src = generate(&ProgramProfile {
        name: "bench_sim".into(),
        functions: 460,
        constructs: 3,
        ..ProgramProfile::default()
    });
    let build_with = |policy: VerifyPolicy| {
        let mut m = audit_src.clone();
        let mut ctx = PassCtx::new(SEED).with_verify(policy);
        Pipeline::parse("O2+lto")
            .expect("baseline spec")
            .run(&mut m, &mut ctx)
            .expect("baseline build");
        let mut ctx = PassCtx::new(SEED).with_verify(policy);
        Pipeline::parse("fufi_all | O2+lto")
            .expect("obfuscation spec")
            .run(&mut m, &mut ctx)
            .expect("obfuscated build");
        m.inst_count() as f64
    };
    // Interleaved best-of-rounds: on a shared host the scheduler
    // drifts on a timescale comparable to one build, so timing every
    // verify-only round before every audit round turns that drift
    // into a systematic bias on the overhead ratio. Alternating the
    // two policies makes both sides sample the same conditions; each
    // side then keeps its own best round, like the index ratio above.
    let mut verify_ns = f64::INFINITY;
    let mut audit_ns = f64::INFINITY;
    let mut verify_v = 0.0;
    let mut audit_v = 0.0;
    for _ in 0..4 {
        let (v_ns, v) = time_ns_best(1, || build_with(VerifyPolicy::AfterEach));
        let (a_ns, a) = time_ns_best(1, || build_with(VerifyPolicy::AuditAfterEach));
        verify_ns = verify_ns.min(v_ns);
        audit_ns = audit_ns.min(a_ns);
        verify_v = v;
        audit_v = a;
    }
    assert_eq!(
        verify_v.to_bits(),
        audit_v.to_bits(),
        "the audit policy must not change what gets built"
    );
    let audit_overhead_pct = (audit_ns / verify_ns - 1.0) * 100.0;
    println!(
        "# audit: fig10 build path {:.2} ms (verify only) -> {:.2} ms (verify + audit), \
         {audit_overhead_pct:.1}% overhead (bar: < 15%)",
        verify_ns / 1e6,
        audit_ns / 1e6
    );
    assert!(
        audit_overhead_pct < 15.0,
        "semantic audit overhead regression: AuditAfterEach adds {audit_overhead_pct:.1}% \
         to the fig10 build path (bar: < 15%)"
    );
    let audit_json = format!(
        "  \"audit\": {{\"what\": \"fig10 build path (O2+lto baseline + fufi_all | O2+lto), \
         VerifyPolicy::AfterEach vs VerifyPolicy::AuditAfterEach\", \
         \"verify_only_ns\": {verify_ns:.0}, \"verify_plus_audit_ns\": {audit_ns:.0}, \
         \"overhead_pct\": {audit_overhead_pct:.1}, \"bar_pct\": 15.0}}"
    );

    // -----------------------------------------------------------------
    // Observability overhead on the fig10 build+query path: one round
    // = the verify-only fig10 build plus the 64 indexed top-50 corpus
    // queries, the same workloads timed above. The traced side is
    // measured end-to-end with a real span tree exported to a scratch
    // sink. The compiled-in-but-disabled cost is far too small to
    // resolve end-to-end, so it is bounded from above instead: ns per
    // disabled span site (microbenched) x span sites per round, as a
    // fraction of the untraced round. Bars: < 2% disabled, < 10%
    // tracing — and tracing must not change a single ranked bit.
    // -----------------------------------------------------------------
    let was_tracing = khaos_obs::trace::enabled();
    khaos_obs::trace::set_enabled(false);

    // Per-site cost of a disabled span: create + drop, nothing else.
    const SPAN_SPINS: u32 = 200_000;
    let (disabled_spin_ns, _) = time_ns_best(4, || {
        for _ in 0..SPAN_SPINS {
            criterion::black_box(khaos_obs::span("probe"));
        }
        0.0
    });
    let disabled_span_ns = disabled_spin_ns / SPAN_SPINS as f64;

    // One fig10 round. Non-move closure over shared refs: Copy, so
    // the same closure times both the untraced and the traced side.
    let fig10_round = || {
        let mut acc = build_with(VerifyPolicy::AfterEach);
        for q in &index_queries {
            acc += big_idx.query(q, INDEX_K)[0].1;
        }
        acc
    };
    let trace_path =
        std::env::temp_dir().join(format!("khaos-bench-obs-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&trace_path);
    khaos_obs::trace::install(&trace_path).expect("install bench trace sink");
    // One warm traced round pins the (deterministic) span count.
    let _ = criterion::black_box(fig10_round());
    let spans_per_round = std::fs::read_to_string(&trace_path)
        .expect("bench trace file")
        .lines()
        .count() as f64;
    assert!(
        spans_per_round > 0.0,
        "the fig10 build+query round must produce spans when tracing is on"
    );

    // Interleaved best-of-rounds, same reasoning as the audit ratio
    // above: alternating the tracer state per round makes both sides
    // sample the same scheduler conditions, so drift on the timescale
    // of one round cannot masquerade as tracing overhead.
    let mut untraced_ns = f64::INFINITY;
    let mut traced_ns = f64::INFINITY;
    let mut untraced_v = 0.0;
    let mut traced_v = 0.0;
    for _ in 0..4 {
        khaos_obs::trace::set_enabled(false);
        let (u_ns, u) = time_ns_best(1, fig10_round);
        khaos_obs::trace::set_enabled(true);
        let (t_ns, t) = time_ns_best(1, fig10_round);
        untraced_ns = untraced_ns.min(u_ns);
        traced_ns = traced_ns.min(t_ns);
        untraced_v = u;
        traced_v = t;
    }
    khaos_obs::trace::set_enabled(false);

    let obs_bits_equal = untraced_v.to_bits() == traced_v.to_bits();
    assert!(
        obs_bits_equal,
        "tracing changed the fig10 build+query result bits: {untraced_v} vs {traced_v}"
    );
    let disabled_overhead_pct = disabled_span_ns * spans_per_round / untraced_ns * 100.0;
    let traced_overhead_pct = (traced_ns / untraced_ns - 1.0) * 100.0;
    println!(
        "# obs: fig10 build+query round {:.2} ms untraced -> {:.2} ms traced \
         ({} spans/round), {traced_overhead_pct:.1}% traced overhead (bar: < 10%); \
         disabled span {disabled_span_ns:.1} ns -> {disabled_overhead_pct:.4}% bound \
         (bar: < 2%)",
        untraced_ns / 1e6,
        traced_ns / 1e6,
        spans_per_round as u64
    );
    assert!(
        disabled_overhead_pct < 2.0,
        "disabled-tracer overhead regression: {disabled_span_ns:.1} ns/span x \
         {spans_per_round} spans = {disabled_overhead_pct:.4}% of the fig10 round \
         (bar: < 2%)"
    );
    assert!(
        traced_overhead_pct < 10.0,
        "tracing overhead regression: exporting the span tree adds \
         {traced_overhead_pct:.1}% to the fig10 build+query round (bar: < 10%)"
    );
    let obs_json = format!(
        "  \"obs\": {{\"what\": \"tracing overhead on the fig10 build+query path (verify-only \
         build + {} indexed top-{INDEX_K} queries); disabled cost is a per-span microbench \
         upper bound\", \"untraced_round_ns\": {untraced_ns:.0}, \
         \"traced_round_ns\": {traced_ns:.0}, \"spans_per_round\": {spans_per_round:.0}, \
         \"disabled_span_ns\": {disabled_span_ns:.2}, \
         \"disabled_overhead_pct\": {disabled_overhead_pct:.4}, \"disabled_bar_pct\": 2.0, \
         \"traced_overhead_pct\": {traced_overhead_pct:.1}, \"traced_bar_pct\": 10.0, \
         \"bits_equal_traced_vs_untraced\": {obs_bits_equal}}}",
        index_queries.len(),
    );
    // Restore the ambient tracer state. The scratch sink stays
    // installed (the original env sink cannot be re-pointed), but the
    // bench opens no further spans; the scratch file is removed.
    khaos_obs::trace::set_enabled(was_tracing);
    let _ = std::fs::remove_file(&trace_path);

    let kernels_json = format!(
        "  \"kernels\": {{\"what\": \"runtime-dispatched f64 dot on real {}-dim embedding rows, \
         {} dots per pass\", \"active\": \"{}\", \"available\": [{}], \
         \"dot_scalar_ns\": {naive_dot_ns:.1}, \"per_kernel\": [\n{}\n    ], \
         \"ranked_bits_equal_scalar_vs_dispatched\": {kernel_bits_equal}}}",
        qe.dim(),
        n_dots as u64,
        active.name(),
        available
            .iter()
            .map(|k| format!("\"{}\"", k.name()))
            .collect::<Vec<_>>()
            .join(", "),
        kernel_entries.join(",\n"),
    );
    let quant_json = format!(
        "  \"quantized\": {{\"what\": \"int8 shortlist scan vs exact f64 scan, per candidate, \
         + recall of shortlist factor {QUANT_SHORTLIST_FACTOR} after exact re-rank\", \
         \"approx_scan_ns_per_candidate\": {approx_ns:.1}, \
         \"f64_scalar_scan_ns_per_candidate\": {naive_dot_ns:.1}, \
         \"f64_dispatched_scan_ns_per_candidate\": {disp_ns:.1}, \
         \"speedup_vs_scalar_scan\": {quant_speedup_scalar:.2}, \
         \"speedup_vs_dispatched_scan\": {quant_speedup_disp:.2}, \
         \"bytes_per_function\": {}, \"f64_bytes_per_function\": {}, \
         \"recall_at_1\": {:.2}, \"recall_at_10\": {:.2}, \"recall_at_50\": {:.2}, \
         \"rerank_bits_equal\": {rerank_bits_equal}}}",
        qq.bytes_per_function(),
        qe.dim() * 8,
        recalls[0],
        recalls[1],
        recalls[2],
    );

    let json = format!(
        "{{\n  \"bench\": \"escape_profile_fig10\",\n  \"functions\": {},\n  \"vulnerable\": {},\n  \
         \"ks\": [1, 10, 50],\n  \"worst_speedup\": {:.2},\n  \"tools\": [\n{}\n  ],\n  \
         \"layout\": {{\"what\": \"cold fingerprint+embed (Asm2Vec+SAFE), both binaries\", \
         \"seed_nested_ns\": {:.0}, \"pooled_flat_ns\": {:.0}, \"speedup\": {:.2}, \
         \"digests_equal\": {digests_equal}, \"embeddings_equal\": {embeddings_equal}}},\n  \
         \"streaming\": {{\"what\": \"rank-only escape@{{1,10,50}}, warm embeddings, no matrix\", \
         \"escape_ns\": {:.0}, \"matrix_entries_after\": {stream_matrices}}},\n  \
         \"parallel_streaming\": {{\"what\": \"row-parallel rank-only escape@{{1,10,50}}, all {} \
         functions vulnerable, multi-thread vs KHAOS_THREADS=1\", \"threads\": {threads}, \
         \"single_thread_ns\": {:.0}, \"multi_thread_ns\": {:.0}, \"speedup\": {par_speedup:.2}, \
         \"ranked_bits_equal\": {ranked_bits_equal}}},\n{kernels_json},\n{quant_json},\n{index_json},\n{audit_json},\n{obs_json}\n}}\n",
        base_bin.functions.len(),
        base_bin
            .functions
            .iter()
            .filter(|f| f.provenance.annotations.iter().any(|a| a == "vulnerable"))
            .count(),
        worst_speedup,
        entries.join(",\n"),
        layout_seed_ns,
        layout_pooled_ns,
        layout_speedup,
        streaming_ns,
        queries.len(),
        par_seq_ns,
        par_mt_ns,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_similarity.json");
    std::fs::write(path, json).expect("write BENCH_similarity.json");
    println!("# wrote {path}");
}

criterion_group!(benches, bench_similarity);
criterion_main!(benches);
