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
//! ([`binary_similarity`]) and `escape@k` ([`escape_at_k`]).
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
//!   rows, integer-exact `dot_i8` kernels) generates shortlists that
//!   [`stream_top_k_quantized`] re-ranks exactly, bit-identical to the
//!   f64 streaming path at recall 1.0;
//! * each binary pair yields one [`SimilarityMatrix`] (flat storage,
//!   parallel row construction via `khaos-par`, `top_k` by partial
//!   selection, `O(T)` rank queries) shared by every metric that needs
//!   it;
//! * **rank-only queries never materialize that matrix**: `escape@k`
//!   and the `*_streaming` rank metrics run on a per-tool [`RowScore`]
//!   scorer — one `O(T)` row of similarities at a time (or `O(k)` via
//!   [`StreamingTopK`] for ranked retrieval), off the same cached
//!   embeddings, so 1000+-function binaries rank memory-flat;
//! * embeddings are memoized in the process-wide [`EmbeddingCache`],
//!   keyed by `(tool name, tool config fingerprint,`
//!   [`khaos_binary::Binary::fingerprint`]`)`, so a sweep scoring many
//!   metrics over the same pair embeds each side exactly once.
//!
//! **When to use which API:** existing `Differ`-taking signatures
//! ([`precision_at_1`], [`escape_at_k`], [`rank_of_true_match`],
//! [`binary_similarity`]) are thin wrappers over the batched engine and
//! remain the convenient entry points; [`escape_profile`] answers
//! `escape@k` at several `k` from one rank pass, reusing a cached
//! matrix when some other metric already built one and streaming
//! otherwise. Reach for [`Differ::batched_similarity`] plus the matrix
//! accessors when several metrics need one pair, and for
//! [`Differ::row_scorer`] / [`engine::stream_top_k`] /
//! [`escape_profile_streaming`] / [`rank_of_true_match_streaming`] when
//! ranks are all you need and the matrix should never be allocated. The
//! legacy per-pair [`Differ::similarity_matrix`] default is kept
//! unchanged as the *reference implementation*; the equivalence of all
//! paths — per-pair vs batched matrix vs streaming — to 1e-12 is
//! pinned by `engine` unit tests and the `batched_engine` integration
//! suite.

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
    dot_blocked, par_stream_ranks, par_stream_top_k_rows, stream_top_k, stream_top_k_blocks,
    CacheStats, EmbeddingCache, FunctionEmbeddings, RowScore, SimilarityMatrix, StreamingTopK,
};
pub use kernels::{dot, dot_i8, KernelKind};
pub use metrics::{
    escape_at_k, escape_profile, escape_profile_streaming, escape_profile_with, origins_match,
    precision_at_1, precision_at_1_with, rank_of_true_match, rank_of_true_match_in,
    rank_of_true_match_streaming, ranks_of_true_match_streaming,
};
pub use quant::{
    stream_top_k_quantized, QuantizedEmbeddings, QUANT_SHORTLIST_FACTOR, QUANT_SHORTLIST_MIN,
};
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
/// to cosine. [`BinDiff`] overrides the matrix to use symbol names, as the
/// real tool does on un-stripped binaries.
///
/// [`Differ::similarity_matrix`] is the legacy per-pair reference path;
/// the metrics layer runs on [`Differ::batched_similarity`], which
/// normalizes embeddings once, caches them per binary, and builds the
/// flat matrix with parallel rows.
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

    /// Batched similarity matrix: embeddings are fetched through
    /// `cache` (embedding each side at most once per process for
    /// deterministic tools), normalized once, and combined with
    /// parallel dot-product rows. Matches
    /// [`Differ::similarity_matrix`] to 1e-12.
    fn batched_similarity(
        &self,
        query: &Binary,
        target: &Binary,
        cache: &EmbeddingCache,
    ) -> SimilarityMatrix {
        self.batched_similarity_keyed(
            query,
            target,
            cache,
            query.fingerprint(),
            target.fingerprint(),
        )
    }

    /// As [`Differ::batched_similarity`], with the two binaries'
    /// fingerprints supplied by the caller. [`EmbeddingCache::matrix_for`]
    /// already fingerprints both sides for its own key and passes the
    /// values through here — fingerprinting is a whole-binary pass,
    /// expensive enough that paying it twice per lookup is measurable.
    /// Tools overriding the batched path should override **this**
    /// method (and ignore the fingerprints if they don't use `cache`).
    fn batched_similarity_keyed(
        &self,
        query: &Binary,
        target: &Binary,
        cache: &EmbeddingCache,
        query_fingerprint: u64,
        target_fingerprint: u64,
    ) -> SimilarityMatrix {
        let cfg = self.config_fingerprint();
        let qe = cache.get_or_embed((self.name(), cfg, query_fingerprint), || self.embed(query));
        let te = cache.get_or_embed((self.name(), cfg, target_fingerprint), || {
            self.embed(target)
        });
        SimilarityMatrix::from_embeddings(&qe, &te)
    }

    /// A streaming row scorer for the pair: scores any `(qi, j)` cell
    /// on demand, holding `O(1)` state beyond the cached embeddings —
    /// the rank-only metrics ([`escape_profile`],
    /// [`rank_of_true_match_streaming`], [`engine::stream_top_k`]) run
    /// on this instead of materializing the `Q×T`
    /// [`SimilarityMatrix`]. Must score exactly what
    /// [`Differ::batched_similarity_keyed`]'s matrix holds (pinned by
    /// `tests/batched_engine.rs`); tools overriding the batched matrix
    /// must override this too.
    fn row_scorer_keyed<'a>(
        &'a self,
        query: &'a Binary,
        target: &'a Binary,
        cache: &EmbeddingCache,
        query_fingerprint: u64,
        target_fingerprint: u64,
    ) -> Box<dyn engine::RowScore + 'a> {
        let cfg = self.config_fingerprint();
        let qe = cache.get_or_embed((self.name(), cfg, query_fingerprint), || self.embed(query));
        let te = cache.get_or_embed((self.name(), cfg, target_fingerprint), || {
            self.embed(target)
        });
        let _ = (query, target);
        Box::new(engine::EmbedScorer::new(qe, te, true))
    }

    /// As [`Differ::row_scorer_keyed`], fingerprinting both sides
    /// itself.
    fn row_scorer<'a>(
        &'a self,
        query: &'a Binary,
        target: &'a Binary,
        cache: &EmbeddingCache,
    ) -> Box<dyn engine::RowScore + 'a> {
        self.row_scorer_keyed(
            query,
            target,
            cache,
            query.fingerprint(),
            target.fingerprint(),
        )
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
