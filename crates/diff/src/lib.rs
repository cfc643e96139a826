//! # khaos-diff — binary diffing techniques and evaluation metrics
//!
//! From-scratch reproductions of the five binary diffing techniques the
//! paper evaluates Khaos against (Table 1), each capturing the feature
//! family and granularity of the original:
//!
//! | tool | granularity | distinguishing reliance |
//! |------|-------------|--------------------------|
//! | [`BinDiff`]      | function | symbol names + CFG fingerprints |
//! | [`VulSeeker`]    | function | numeric semantic features + **call graph** propagation |
//! | [`Asm2Vec`]      | function | token embeddings over CFG random walks |
//! | [`Safe`]         | function | position-weighted instruction-sequence embedding |
//! | [`DeepBinDiff`]  | basic block | block tokens + ICFG (CFG ∪ call graph) context |
//!
//! The evaluation metrics implement the paper's §4.2 protocol: relaxed
//! pairing success through provenance ground truth ([`origins_match`]),
//! `Precision@1` ([`precision_at_1`]), whole-binary BinDiff similarity
//! ([`binary_similarity`]) and `escape@k` ([`escape_profile`]).
//!
//! ## The batched similarity engine
//!
//! All metric entry points run on the [`engine`]'s batched path:
//!
//! * the tools walk `khaos-binary`'s **flat operand-pool layout**
//!   (instruction operands live in one contiguous
//!   `BinFunction::operand_pool` slice per function, reached through
//!   [`khaos_binary::MInst::operands`]) — cold fingerprint+embed is
//!   bandwidth-bound, not allocator-bound;
//! * the token embedders (Asm2Vec, SAFE, DeepBinDiff) intern each
//!   instruction's exact class key to a dense id once per `embed` call
//!   (the `tokens` module's `TokenTable`), so each distinct token's
//!   text is built and hashed once, not at every occurrence; whatever
//!   they derive from a token — Asm2Vec's bigram and trigram states,
//!   resumed from their prefix's [`TokenHasher`] state, SAFE's
//!   attention and phase states — is memoized per id. DataFlowDiff
//!   reads its fixed 15×15 def-use edge tokens from tables hashed once
//!   per process. Every embedding is bit-identical to hashing each
//!   occurrence's string (pinned by
//!   `crates/bench/tests/embedding_pins.rs`);
//! * embeddings live in [`FunctionEmbeddings`] — one flat row-major
//!   buffer, **L2-normalized once at construction**, so cosine is a
//!   pure dot product in the inner loop (no per-pair `sqrt`/norms),
//!   computed through the [`kernels`] dispatch layer — explicit
//!   AVX-512/AVX2 `std::arch` kernels selected once at runtime
//!   (`KHAOS_SIMD` overrides), every variant **bit-identical** to the
//!   portable 8-wide [`dot_blocked`] kernel (naive-scalar-reference
//!   equivalence pinned at 1e-12);
//! * an **int8 quantized tier** ([`QuantizedEmbeddings`], ~7× smaller
//!   rows, integer-exact `dot_i8` kernels) is the candidate scan of the
//!   `khaos-index` IVF index;
//! * embeddings are memoized in the process-wide [`EmbeddingCache`],
//!   keyed by `(tool name, tool config fingerprint,`
//!   [`khaos_binary::Binary::fingerprint`]`)`, so a sweep scoring many
//!   metrics over the same pair embeds each side exactly once.
//!
//! **One scorer, one rank path.** A tool defines its scores once, as
//! the [`RowScore`] its [`Differ::row_scorer`] returns; everything else
//! derives from it. [`Differ::batched_similarity`] materializes it as a
//! [`SimilarityMatrix`] (flat storage, parallel rows), which
//! [`EmbeddingCache::matrix_for`] memoizes per pair for the metrics
//! that read every cell ([`precision_at_1`], [`binary_similarity`]).
//! Rank metrics go through one driver, [`par_stream_ranks`], over a
//! scorer: [`escape_profile`] ranks in a resident matrix when some
//! other metric already built one (a matrix is a [`RowScore`] too) and
//! streams the tool's scorer otherwise, one `O(T)` row per query and no
//! `Q×T` allocation; [`escape_profile_streaming`] always streams.
//! Ranked retrieval is [`stream_top_k`] over a scorer. The legacy
//! per-pair [`Differ::similarity_matrix`] and the seed metrics in
//! [`mod@reference`] are kept unchanged as the *reference
//! implementations*: the matrix and the rank drivers are pinned to
//! them by `tests/batched_engine.rs`.

mod asm2vec;
mod bindiff;
mod dataflow;
mod deepbindiff;
pub mod engine;
pub mod kernels;
mod metrics;
pub mod quant;
pub mod reference;
mod safe;
mod tokens;
mod vector;
mod vulseeker;

pub use asm2vec::Asm2Vec;
pub use bindiff::{binary_similarity, binary_similarity_with, BinDiff};
pub use dataflow::DataFlowDiff;
pub use deepbindiff::{deepbindiff_precision_at_1, DeepBinDiff};
pub use engine::{
    dot_blocked, par_stream_ranks, stream_top_k, CacheStats, EmbeddingCache, FunctionEmbeddings,
    RowScore, SimilarityMatrix, StreamingTopK,
};
pub use kernels::{dot, dot_i8, KernelKind};
pub use metrics::{
    escape_profile, escape_profile_streaming, escape_profile_with, origins_match, precision_at_1,
    precision_at_1_with,
};
pub use quant::QuantizedEmbeddings;
pub use safe::Safe;
pub use tokens::{opcode_class, operand_class};
pub use vector::{
    add_token, add_token_parts, cosine, hash_sign, hash_sign_parts, hash_token, hash_token_parts,
    Dim, TokenHasher, EMB_DIM,
};
pub use vulseeker::VulSeeker;

use khaos_binary::Binary;

/// A function-granularity binary diffing technique.
///
/// Implementations compute a per-function embedding; similarity defaults
/// to cosine. [`BinDiff`] overrides the scores to use symbol names, as
/// the real tool does on un-stripped binaries.
///
/// A tool's scores are defined once, by [`Differ::row_scorer`]; the
/// metrics layer ranks through it and [`Differ::batched_similarity`]
/// materializes it. [`Differ::similarity_matrix`] is the legacy
/// per-pair reference path.
pub trait Differ {
    /// Tool name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Per-function embeddings for a binary.
    fn embed(&self, bin: &Binary) -> Vec<Vec<f64>>;

    /// Fingerprint of the tool's configuration, distinguishing cache
    /// entries of differently-parameterized instances of the same tool.
    /// Tools with knobs must override this to hash every knob.
    fn config_fingerprint(&self) -> u64 {
        0
    }

    /// Similarity matrix: `matrix[i][j]` is the similarity in `[0, 1]`
    /// between function `i` of `query` and function `j` of `target`.
    ///
    /// This is the legacy per-pair reference path (quadratic in
    /// redundant norm work); use [`Differ::batched_similarity`] in
    /// anything performance-sensitive.
    fn similarity_matrix(&self, query: &Binary, target: &Binary) -> Vec<Vec<f64>> {
        let qa = self.embed(query);
        let tb = self.embed(target);
        qa.iter()
            .map(|q| tb.iter().map(|t| cosine(q, t).max(0.0)).collect())
            .collect()
    }

    /// The tool's scores for the pair — the single definition of what
    /// it scores. Scores any `(qi, j)` cell or whole query row on
    /// demand, holding nothing beyond cached embeddings (fetched
    /// through `cache`) or per-function fingerprints, so rank-only
    /// metrics ([`escape_profile`]) never materialize the `Q×T`
    /// matrix. Must match [`Differ::similarity_matrix`] to 1e-12
    /// (pinned by `tests/batched_engine.rs`). The default is the
    /// clamped cosine of the tool's normalized embeddings.
    fn row_scorer<'a>(
        &'a self,
        query: &'a Binary,
        target: &'a Binary,
        cache: &EmbeddingCache,
    ) -> Box<dyn RowScore + 'a> {
        Box::new(engine::EmbedScorer::new(
            cache.embeddings_of(self, query),
            cache.embeddings_of(self, target),
            true,
        ))
    }

    /// The pair's full similarity matrix: [`Differ::row_scorer`]
    /// materialized with parallel rows. [`EmbeddingCache::matrix_for`]
    /// memoizes it per pair.
    fn batched_similarity(
        &self,
        query: &Binary,
        target: &Binary,
        cache: &EmbeddingCache,
    ) -> SimilarityMatrix {
        SimilarityMatrix::from_scorer(&*self.row_scorer(query, target, cache))
    }
}

/// All five tools boxed, in the paper's presentation order.
pub fn all_differs() -> Vec<Box<dyn Differ>> {
    vec![
        Box::new(BinDiff::default()),
        Box::new(VulSeeker::default()),
        Box::new(Asm2Vec::default()),
        Box::new(Safe::default()),
    ]
}

/// The paper's function-granularity tools plus [`DataFlowDiff`], the
/// data-flow-representation tool the paper's §5 outlook predicts.
pub fn extended_differs() -> Vec<Box<dyn Differ>> {
    let mut v = all_differs();
    v.push(Box::new(DataFlowDiff::default()));
    v
}

#[cfg(test)]
pub(crate) mod testutil {
    use khaos_binary::lower_module;
    use khaos_binary::Binary;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::{BinOp, CmpPred, Module, Operand, Type};

    /// A small module with three distinguishable functions.
    pub fn small_module(name: &str) -> Module {
        let mut m = Module::new(name);
        // alpha: loopy accumulator
        let mut a = FunctionBuilder::new("alpha", Type::I64);
        let p = a.add_param(Type::I64);
        let i = a.new_local(Type::I64);
        let acc = a.new_local(Type::I64);
        let h = a.new_block();
        let body = a.new_block();
        let exit = a.new_block();
        a.copy_to(i, Operand::const_int(Type::I64, 0));
        a.copy_to(acc, Operand::const_int(Type::I64, 0));
        a.jump(h);
        a.switch_to(h);
        let c = a.cmp(
            CmpPred::Slt,
            Type::I64,
            Operand::local(i),
            Operand::local(p),
        );
        a.branch(Operand::local(c), body, exit);
        a.switch_to(body);
        let na = a.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(acc),
            Operand::local(i),
        );
        a.copy_to(acc, Operand::local(na));
        let ni = a.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(i),
            Operand::const_int(Type::I64, 1),
        );
        a.copy_to(i, Operand::local(ni));
        a.jump(h);
        a.switch_to(exit);
        a.ret(Some(Operand::local(acc)));
        let alpha = m.push_function(a.finish());

        // beta: branchy bit-twiddler
        let mut b = FunctionBuilder::new("beta", Type::I64);
        let q = b.add_param(Type::I64);
        let t = b.new_block();
        let e = b.new_block();
        let x = b.bin(
            BinOp::Xor,
            Type::I64,
            Operand::local(q),
            Operand::const_int(Type::I64, 0xff),
        );
        let c2 = b.cmp(
            CmpPred::Sgt,
            Type::I64,
            Operand::local(x),
            Operand::const_int(Type::I64, 64),
        );
        b.branch(Operand::local(c2), t, e);
        b.switch_to(t);
        let s = b.bin(
            BinOp::Shl,
            Type::I64,
            Operand::local(x),
            Operand::const_int(Type::I64, 2),
        );
        b.ret(Some(Operand::local(s)));
        b.switch_to(e);
        let r = b.bin(
            BinOp::And,
            Type::I64,
            Operand::local(x),
            Operand::const_int(Type::I64, 31),
        );
        b.ret(Some(Operand::local(r)));
        let beta = m.push_function(b.finish());

        // main calls both.
        let mut mn = FunctionBuilder::new("main", Type::I64);
        let r1 = mn
            .call(alpha, Type::I64, vec![Operand::const_int(Type::I64, 9)])
            .unwrap();
        let r2 = mn.call(beta, Type::I64, vec![Operand::local(r1)]).unwrap();
        mn.ret(Some(Operand::local(r2)));
        m.push_function(mn.finish());
        khaos_ir::verify::assert_valid(&m);
        m
    }

    pub fn small_binary(name: &str) -> Binary {
        lower_module(&small_module(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::small_binary;

    #[test]
    fn self_similarity_is_maximal_for_all_tools() {
        let b = small_binary("x");
        for tool in all_differs() {
            let m = tool.similarity_matrix(&b, &b);
            for (i, row) in m.iter().enumerate() {
                let best = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap();
                assert_eq!(
                    best.0,
                    i,
                    "{}: function {i} should match itself",
                    tool.name()
                );
                assert!(*best.1 > 0.99, "{}: self-similarity ~1.0", tool.name());
            }
        }
    }
}
