//! The batched similarity engine.
//!
//! The paper's §4.2 protocol (`Precision@1`, `escape@k`, whole-binary
//! similarity) is the hot loop of every figure this repo reproduces,
//! and it is a textbook one-to-many function-search workload: embed
//! both binaries once, then answer many ranked queries against the same
//! candidate pool. This module provides the batched primitives the
//! metrics layer runs on:
//!
//! * [`FunctionEmbeddings`] — per-function embeddings in a single flat
//!   row-major buffer, **L2-normalized at construction**. The
//!   normalization invariant makes cosine similarity a pure dot
//!   product: no per-pair norms, no per-pair `sqrt`.
//! * [`SimilarityMatrix`] — the full query×target similarity matrix in
//!   flat storage, built once per binary pair with parallel rows
//!   (`khaos-par`), with `O(T)` ranked retrieval ([`SimilarityMatrix::top_k`]
//!   via partial selection, [`SimilarityMatrix::argmax_row`]) instead
//!   of full sorts.
//! * [`EmbeddingCache`] — a bounded, thread-safe cache keyed by
//!   `(tool name, tool configuration, binary fingerprint)` so
//!   `precision_at_1`, `rank_of_true_match`, `escape_at_k` and
//!   `binary_similarity` share embeddings instead of each re-embedding
//!   the same binaries from scratch. With a persistent `khaos-store`
//!   attached (the `KHAOS_STORE` environment variable for the global
//!   instance), lookups tier **memory → disk → compute** and artifacts
//!   survive the process — cross-process sweeps and CI runs warm-start,
//!   served bit-identical to a fresh computation.
//! * the **streaming rank layer** — [`RowScore`] (per-tool cell
//!   scorers over cached embeddings), [`StreamingTopK`]
//!   (`O(k)`-memory ranked selection) and the
//!   [`stream_top_k`]/[`stream_rank_of_first_match`] drivers. Rank-only
//!   metrics use these to answer `top_k`, `rank_of_true_match` and
//!   `escape_profile` without ever allocating the `Q×T` matrix.
//!
//! # Dot-product dispatch
//!
//! Every dot in this module — the matrix build, [`EmbedScorer`], the
//! streaming top-k scans — goes through the checked entry points
//! [`crate::kernels::dot`] and, for a whole query row against every
//! target row, `kernels::dot_rows`, which dispatch to an explicit
//! `std::arch` kernel chosen once per process: AVX-512, AVX2 or the
//! portable 8-wide blocked kernel ([`dot_blocked`] delegates to the
//! same implementation). The choice comes from
//! `is_x86_feature_detected!` cached in a `OnceLock`, and the
//! **`KHAOS_SIMD={auto,scalar,avx2,avx512}`** environment variable
//! overrides it so every variant runs on one host (CI runs tier-1
//! under `scalar` and `auto`). All f64 variants are **bit-identical**
//! — they compute the same blocked reduction, deliberately without
//! FMA — so ranked artifacts never depend on the dispatch choice; see
//! [`crate::kernels`] for the full contract. The int8 quantized tier
//! ([`crate::quant::QuantizedEmbeddings`],
//! [`crate::quant::stream_top_k_quantized`]) sits on the same
//! dispatch via its integer-exact `dot_i8` kernels.
//!
//! The legacy per-pair path ([`crate::Differ::similarity_matrix`],
//! [`crate::cosine`]) is kept intact as the reference implementation;
//! equivalence of every path — per-pair, batched matrix, streaming —
//! to 1e-12 is asserted by this module's tests and
//! `tests/batched_engine.rs` at the workspace root.

use khaos_binary::Binary;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Per-function embeddings in flat row-major storage, each row
/// L2-normalized at construction (all-zero rows stay all-zero).
///
/// With every row unit-length, `cosine(a, b) == dot(a, b)` — the
/// per-pair square roots and norm recomputations of the legacy
/// [`crate::cosine`] path disappear from the inner loop.
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionEmbeddings {
    n: usize,
    dim: usize,
    data: Vec<f64>,
}

impl FunctionEmbeddings {
    /// Flattens and normalizes per-function embedding rows.
    ///
    /// # Panics
    /// Panics when rows have inconsistent dimensionality.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let n = rows.len();
        let dim = rows.first().map(Vec::len).unwrap_or(0);
        let mut data = Vec::with_capacity(n * dim);
        for row in &rows {
            assert_eq!(row.len(), dim, "ragged embedding rows");
            data.extend_from_slice(row);
        }
        let mut e = FunctionEmbeddings { n, dim, data };
        e.normalize_rows();
        e
    }

    fn normalize_rows(&mut self) {
        if self.dim == 0 {
            return;
        }
        for row in self.data.chunks_mut(self.dim) {
            let norm: f64 = row.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 0.0 {
                for x in row {
                    *x /= norm;
                }
            }
        }
    }

    /// Number of functions (rows).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The normalized embedding of function `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole flat row-major buffer — the exact bytes the disk tier
    /// persists (`khaos-store` round-trips raw f64 bits).
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Rewraps a flat buffer of **already normalized** rows without
    /// renormalizing — the disk-tier load path. Renormalizing here
    /// would divide by a norm of ~1.0 and could perturb low bits, which
    /// would break the pinned guarantee that disk-served embeddings are
    /// bit-identical to freshly computed ones.
    ///
    /// # Panics
    /// Panics when `data.len() != n * dim`.
    pub fn from_flat_normalized(n: usize, dim: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * dim, "flat embedding shape mismatch");
        FunctionEmbeddings { n, dim, data }
    }
}

/// Descending score comparison for ranked selection: standard IEEE
/// comparison when the pair is ordered — so `-0.0` ties `+0.0` and
/// falls through to the lower-index tie-break, exactly the seed's
/// `partial_cmp` semantics — with a [`f64::total_cmp`] fallback when a
/// NaN is involved, so a NaN produced by a buggy scorer degrades to a
/// deterministic rank (positive NaN above `+inf`, negative NaN below
/// `-inf`) instead of panicking mid-rank. This is a valid total
/// ordering: the only pairs `total_cmp` would order differently are
/// `±0.0`, and those are already handled as equal by the ordered arm.
#[inline]
pub(crate) fn cmp_scores_desc(a: f64, b: f64) -> std::cmp::Ordering {
    b.partial_cmp(&a).unwrap_or_else(|| b.total_cmp(&a))
}

/// Naive scalar dot product: the reference semantics the blocked
/// kernel is pinned against (1e-12) by `tests/batched_engine.rs`.
#[inline]
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot over mismatched dimensions");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// 8-wide blocked dot product with a scalar tail — the portable
/// kernel, now shared with the SIMD dispatch layer (this is exactly
/// [`crate::kernels`]' `Scalar` variant, and the AVX2/AVX-512 kernels
/// replicate its reduction bit-for-bit).
///
/// Eight independent accumulators let the CPU overlap the FP adds
/// (the scalar loop serializes on one accumulator's add latency);
/// rows come from the flat row-major [`FunctionEmbeddings`] buffer, so
/// the loads stream. Reassociation changes the rounding order, which is
/// why equivalence to [`dot_scalar`] is pinned at 1e-12, not bitwise.
///
/// Like [`crate::cosine`], the blocked entry point debug-asserts equal
/// lengths — `zip` would otherwise silently truncate to the shorter
/// side and quietly skew every similarity built on top.
#[inline]
pub fn dot_blocked(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot over mismatched dimensions");
    crate::kernels::raw::dot_blocked(a, b)
}

/// A query×target similarity matrix in flat row-major storage, built
/// once per binary pair.
#[derive(Clone, Debug, PartialEq)]
pub struct SimilarityMatrix {
    q: usize,
    t: usize,
    data: Vec<f64>,
}

impl SimilarityMatrix {
    /// Builds the matrix from normalized embeddings; similarities are
    /// clamped into `[0, 1]`, mirroring the legacy
    /// [`crate::Differ::similarity_matrix`] default. Rows are computed
    /// in parallel.
    pub fn from_embeddings(qe: &FunctionEmbeddings, te: &FunctionEmbeddings) -> Self {
        Self::build(qe, te, true)
    }

    /// As [`SimilarityMatrix::from_embeddings`] but without the clamp
    /// at zero — raw cosine in `[-1, 1]`, used by the block-granularity
    /// DeepBinDiff judgment whose legacy path never clamped.
    pub fn from_embeddings_signed(qe: &FunctionEmbeddings, te: &FunctionEmbeddings) -> Self {
        Self::build(qe, te, false)
    }

    fn build(qe: &FunctionEmbeddings, te: &FunctionEmbeddings, clamp: bool) -> Self {
        // An empty side has dimensionality 0 by construction; the
        // matrix is then a degenerate q×0 / 0×t shape (rank queries
        // return `None`, exactly as the legacy path behaved), so the
        // dimension invariant only binds when both sides have rows.
        if !qe.is_empty() && !te.is_empty() {
            assert_eq!(
                qe.dim(),
                te.dim(),
                "query and target embeddings must share a dimensionality"
            );
        }
        let (q, t) = (qe.len(), te.len());
        let mut data = vec![0.0f64; q * t];
        if t > 0 && q > 0 {
            let targets = te.as_flat();
            khaos_par::par_chunks_mut(&mut data, t, |i, row| {
                crate::kernels::dot_rows(qe.row(i), targets, row);
                if clamp {
                    for s in row.iter_mut() {
                        *s = s.max(0.0);
                    }
                }
            });
        }
        SimilarityMatrix { q, t, data }
    }

    /// Wraps an already-computed flat matrix (used by tools whose
    /// similarity is not an embedding dot product, e.g. BinDiff's
    /// symbol matching).
    ///
    /// # Panics
    /// Panics when `data.len() != q * t`.
    pub fn from_flat(q: usize, t: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), q * t, "flat matrix shape mismatch");
        SimilarityMatrix { q, t, data }
    }

    /// Number of query rows.
    pub fn rows(&self) -> usize {
        self.q
    }

    /// Number of target columns.
    pub fn cols(&self) -> usize {
        self.t
    }

    /// Row view for query function `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.t..(i + 1) * self.t]
    }

    /// Similarity between query `i` and target `j`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.t + j]
    }

    /// Index of the best candidate for query `i`; the **first** maximum
    /// wins on ties (lowest index), matching the legacy argmax loops.
    /// `None` when there are no candidates.
    pub fn argmax_row(&self, i: usize) -> Option<usize> {
        argmax(self.row(i))
    }

    /// The `k` best candidates for query `i` in ranked order
    /// (descending similarity, ties broken by lower index — the exact
    /// order [`crate::rank_of_true_match`] ranks in), found by partial
    /// selection instead of a full sort: `O(T + k log k)` rather than
    /// `O(T log T)`.
    ///
    /// Scores are ordered by the NaN-total [`cmp_scores_desc`]
    /// ordering, so a NaN produced by a buggy scorer degrades
    /// deterministically (positive NaN ranks above `+inf`, negative NaN
    /// below `-inf`) instead of panicking mid-rank, while ordered
    /// scores keep the seed's exact tie-break (`-0.0` ties `+0.0`).
    pub fn top_k(&self, i: usize, k: usize) -> Vec<(usize, f64)> {
        let row = self.row(i);
        let k = k.min(row.len());
        if k == 0 {
            return Vec::new();
        }
        let rank_order = |&a: &usize, &b: &usize| cmp_scores_desc(row[a], row[b]).then(a.cmp(&b));
        let mut idx: Vec<usize> = (0..row.len()).collect();
        if k < idx.len() {
            idx.select_nth_unstable_by(k - 1, rank_order);
            idx.truncate(k);
        }
        idx.sort_unstable_by(rank_order);
        idx.into_iter().map(|j| (j, row[j])).collect()
    }

    /// 1-based rank of the best-ranked target accepted by `is_match`,
    /// under the same ordering as [`SimilarityMatrix::top_k`], or
    /// `None` when no target matches. Runs in `O(T)` — no sort.
    pub fn rank_of_first_match(
        &self,
        i: usize,
        is_match: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        rank_of_first_match_in_row(self.row(i), is_match)
    }

    /// Elementwise maximum with a same-shaped matrix (the best-of-two-
    /// views matching of `DataFlowDiff`).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn merge_max(&mut self, other: &SimilarityMatrix) {
        assert_eq!(
            (self.q, self.t),
            (other.q, other.t),
            "matrix shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            if *b > *a {
                *a = *b;
            }
        }
    }

    /// Copies into the legacy nested-`Vec` representation.
    pub fn to_nested(&self) -> Vec<Vec<f64>> {
        (0..self.q).map(|i| self.row(i).to_vec()).collect()
    }

    /// The whole flat row-major buffer — what the disk tier persists.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }
}

/// Index of the **first** maximum of a similarity row (the scan keeps a
/// candidate only when it beats the best so far, starting from
/// `f64::MIN`), or `None` for an empty row. Shared by
/// [`SimilarityMatrix::argmax_row`] and DeepBinDiff's streamed
/// judgment, so both pick the same candidate.
pub(crate) fn argmax(row: &[f64]) -> Option<usize> {
    if row.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut best_s = f64::MIN;
    for (j, &s) in row.iter().enumerate() {
        if s > best_s {
            best_s = s;
            best = j;
        }
    }
    Some(best)
}

/// 1-based rank of the best-ranked candidate accepted by `is_match`
/// in one similarity row (descending similarity, ties broken by lower
/// index), or `None` when nothing matches. Shared by the matrix path
/// ([`SimilarityMatrix::rank_of_first_match`]) and the streaming path
/// ([`stream_rank_of_first_match`]), so both rank under one pinned
/// tie-break.
pub fn rank_of_first_match_in_row(
    row: &[f64],
    mut is_match: impl FnMut(usize) -> bool,
) -> Option<usize> {
    // The matching candidate that sorts earliest: maximum
    // similarity, ties broken by lower index (first win).
    let mut best: Option<(f64, usize)> = None;
    for (j, &s) in row.iter().enumerate() {
        if is_match(j) && best.map(|(bs, _)| s > bs).unwrap_or(true) {
            best = Some((s, j));
        }
    }
    let (ms, mj) = best?;
    let ahead = row
        .iter()
        .enumerate()
        .filter(|&(j, &s)| s > ms || (s == ms && j < mj))
        .count();
    Some(ahead + 1)
}

/// Bounded top-`k` selection over a stream of `(index, score)`
/// candidates, keeping the same ranked order as
/// [`SimilarityMatrix::top_k`] (descending score, ties broken by lower
/// index) in `O(k)` memory — the selection half of the rank-only path
/// that never materializes a similarity matrix.
///
/// Internally a binary min-heap under the rank order: the root is the
/// *worst* retained candidate, so each offer is `O(1)` when it does not
/// make the cut and `O(log k)` when it does.
#[derive(Clone, Debug)]
pub struct StreamingTopK {
    k: usize,
    heap: Vec<(f64, usize)>,
}

/// `a` ranks strictly worse than `b`: lower score, or equal score with
/// higher index — under the same NaN-total [`cmp_scores_desc`] order
/// the ranked sorts use, so the candidates [`StreamingTopK`] *retains*
/// under capacity pressure match [`SimilarityMatrix::top_k`] even when
/// a buggy scorer emits NaN.
#[inline]
fn ranks_worse(a: (f64, usize), b: (f64, usize)) -> bool {
    cmp_scores_desc(a.0, b.0).then(a.1.cmp(&b.1)) == std::cmp::Ordering::Greater
}

impl StreamingTopK {
    /// A selector retaining the `k` best candidates.
    pub fn new(k: usize) -> Self {
        StreamingTopK {
            k,
            heap: Vec::with_capacity(k.min(1024)),
        }
    }

    /// Number of candidates currently retained.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been retained (also when `k == 0`).
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offers one candidate.
    pub fn offer(&mut self, index: usize, score: f64) {
        if self.k == 0 {
            return;
        }
        let cand = (score, index);
        if self.heap.len() < self.k {
            self.heap.push(cand);
            // Sift up.
            let mut i = self.heap.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if ranks_worse(self.heap[i], self.heap[parent]) {
                    self.heap.swap(i, parent);
                    i = parent;
                } else {
                    break;
                }
            }
            return;
        }
        if !ranks_worse(cand, self.heap[0]) {
            // Strictly better than the worst retained: replace + sift down.
            self.heap[0] = cand;
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut worst = i;
                if l < self.heap.len() && ranks_worse(self.heap[l], self.heap[worst]) {
                    worst = l;
                }
                if r < self.heap.len() && ranks_worse(self.heap[r], self.heap[worst]) {
                    worst = r;
                }
                if worst == i {
                    break;
                }
                self.heap.swap(i, worst);
                i = worst;
            }
        }
    }

    /// The retained candidates in ranked order (descending score, ties
    /// by lower index) — exactly the order [`SimilarityMatrix::top_k`]
    /// returns. NaN scores sort under the same NaN-total ordering as
    /// `top_k` ([`cmp_scores_desc`]): deterministic, never a panic.
    pub fn into_ranked(self) -> Vec<(usize, f64)> {
        let mut v: Vec<(usize, f64)> = self.heap.into_iter().map(|(s, j)| (j, s)).collect();
        v.sort_unstable_by(|a, b| cmp_scores_desc(a.1, b.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Absorbs every candidate retained by `other`, keeping this
    /// selector's capacity `k` — the combining step of the parallel
    /// streaming path, where each worker selects over a disjoint block
    /// of candidate indices and the blocks are merged afterwards.
    ///
    /// The retained *set* is offer-order-independent: retention
    /// decisions compare candidates under the total
    /// `(score descending, index ascending)` order ([`cmp_scores_desc`]
    /// then index), so the survivors of any merge sequence are exactly
    /// the true top `k` of the union — including the documented
    /// tie-breaks (`-0.0` ties `+0.0` and falls to the lower index; NaN
    /// ranks deterministically). [`StreamingTopK::into_ranked`] then
    /// sorts the survivors, so merged output is bit-identical to a
    /// single sequential scan (pinned by this module's tests and the
    /// `batched_engine` suite).
    pub fn merge(&mut self, other: StreamingTopK) {
        for (s, j) in other.heap {
            self.offer(j, s);
        }
    }
}

/// One side of the rank-only streaming path: similarity of a query
/// function against target candidates, computed cell by cell instead of
/// as a materialized `Q×T` matrix. Implementations must score exactly
/// what the tool's batched [`SimilarityMatrix`] would hold at `(qi, j)`
/// (the streaming/matrix equivalence is pinned by
/// `tests/batched_engine.rs`).
///
/// Scorers are `Sync`: scoring is a pure read of the pair's cached
/// embeddings/fingerprints, and the parallel rank drivers
/// ([`par_stream_top_k_rows`], [`par_stream_ranks`]) share one scorer
/// across `khaos-par` workers — each query row is independent, so the
/// streaming metrics parallelize across rows without any per-row setup.
pub trait RowScore: Sync {
    /// Number of query functions.
    fn rows(&self) -> usize;
    /// Number of target candidates.
    fn cols(&self) -> usize;
    /// Similarity of query `qi` vs target `j`.
    fn score(&self, qi: usize, j: usize) -> f64;

    /// Writes query `qi`'s full similarity row into `out` (reused
    /// scratch, `O(T)` — the only buffer the rank path ever allocates).
    fn fill_row(&self, qi: usize, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.cols());
        for j in 0..self.cols() {
            out.push(self.score(qi, j));
        }
    }
}

/// The default [`RowScore`]: blocked dot products over two normalized
/// embedding tables, clamped at zero exactly like
/// [`SimilarityMatrix::from_embeddings`].
pub struct EmbedScorer {
    qe: Arc<FunctionEmbeddings>,
    te: Arc<FunctionEmbeddings>,
    clamp: bool,
}

impl EmbedScorer {
    /// Builds the scorer; panics when both sides are non-empty with
    /// mismatched dimensionalities (mirroring the matrix constructor).
    pub fn new(qe: Arc<FunctionEmbeddings>, te: Arc<FunctionEmbeddings>, clamp: bool) -> Self {
        if !qe.is_empty() && !te.is_empty() {
            assert_eq!(
                qe.dim(),
                te.dim(),
                "query and target embeddings must share a dimensionality"
            );
        }
        EmbedScorer { qe, te, clamp }
    }
}

impl RowScore for EmbedScorer {
    fn rows(&self) -> usize {
        self.qe.len()
    }
    fn cols(&self) -> usize {
        self.te.len()
    }
    #[inline]
    fn score(&self, qi: usize, j: usize) -> f64 {
        let s = crate::kernels::dot(self.qe.row(qi), self.te.row(j));
        if self.clamp {
            s.max(0.0)
        } else {
            s
        }
    }
}

/// Candidate-count threshold below which [`stream_top_k`] scans
/// sequentially: a few thousand dot products finish faster than a
/// thread spawn, and the blocked path's result is identical anyway.
const STREAM_PAR_MIN_COLS: usize = 8192;

/// Streaming [`SimilarityMatrix::top_k`]: the `k` best candidates for
/// query `qi` in ranked order, computed in `O(k)` extra memory per
/// worker from a [`RowScore`] — no matrix, no full row.
///
/// On wide candidate pools the scan parallelizes over contiguous
/// column blocks ([`stream_top_k_blocks`]); output is bit-identical to
/// the sequential scan at any `KHAOS_THREADS` (and inside a `khaos-par`
/// worker — the row-parallel drivers — the nested fan-out degrades to
/// sequential).
pub fn stream_top_k(scorer: &dyn RowScore, qi: usize, k: usize) -> Vec<(usize, f64)> {
    let _span = khaos_obs::span("stream_top_k");
    let cols = scorer.cols();
    if cols < STREAM_PAR_MIN_COLS {
        let mut sel = StreamingTopK::new(k);
        for j in 0..cols {
            sel.offer(j, scorer.score(qi, j));
        }
        return sel.into_ranked();
    }
    stream_top_k_blocks(
        scorer,
        qi,
        k,
        cols.div_ceil(khaos_par::max_threads() * 4).max(1),
    )
}

/// [`stream_top_k`] with an explicit column block size: workers select
/// each block's top `k` independently ([`StreamingTopK`] per block) and
/// the per-block selectors are merged ([`StreamingTopK::merge`]) —
/// the retained set equals the true top `k` of the whole row under the
/// pinned total order, so the ranked result is **bit-identical** to the
/// sequential scan for every block size and thread count (pinned by
/// this module's tests and `tests/batched_engine.rs`).
pub fn stream_top_k_blocks(
    scorer: &dyn RowScore,
    qi: usize,
    k: usize,
    block: usize,
) -> Vec<(usize, f64)> {
    assert!(block > 0, "block size must be positive");
    let cols = scorer.cols();
    let n_blocks = cols.div_ceil(block);
    let mut sel = StreamingTopK::new(k);
    for part in khaos_par::par_map(n_blocks, |b| {
        let mut part = StreamingTopK::new(k);
        for j in b * block..((b + 1) * block).min(cols) {
            part.offer(j, scorer.score(qi, j));
        }
        part
    }) {
        sel.merge(part);
    }
    sel.into_ranked()
}

/// Row-parallel [`stream_top_k`]: ranks many query rows concurrently
/// (each row is an independent scan — the §4.2 fan-out axis the paper's
/// protocol exposes), returning one ranked candidate list per entry of
/// `rows`, in input order. Bit-identical to calling [`stream_top_k`]
/// sequentially per row at any `KHAOS_THREADS`.
pub fn par_stream_top_k_rows(
    scorer: &dyn RowScore,
    rows: &[usize],
    k: usize,
) -> Vec<Vec<(usize, f64)>> {
    khaos_par::par_map(rows.len(), |i| stream_top_k(scorer, rows[i], k))
}

/// Row-parallel [`stream_rank_of_first_match`]: computes the 1-based
/// rank of the first `is_match(qi, j)`-accepted candidate for every
/// query in `rows`, in input order. Each `khaos-par` worker reuses one
/// `O(T)` scratch row ([`khaos_par::par_map_with`]), so memory stays
/// `O(threads × T)` for arbitrarily many queries. Bit-identical to the
/// sequential loop at any `KHAOS_THREADS` (pinned by
/// `tests/batched_engine.rs`).
pub fn par_stream_ranks(
    scorer: &dyn RowScore,
    rows: &[usize],
    is_match: impl Fn(usize, usize) -> bool + Sync,
) -> Vec<Option<usize>> {
    khaos_par::par_map_with(rows.len(), Vec::new, |scratch, i| {
        let qi = rows[i];
        stream_rank_of_first_match(scorer, qi, scratch, |j| is_match(qi, j))
    })
}

/// Streaming [`SimilarityMatrix::rank_of_first_match`]: computes one
/// similarity row into `scratch` (reused across queries) and ranks in
/// it — `O(T)` memory for arbitrarily many queries, instead of the
/// `O(Q×T)` matrix.
pub fn stream_rank_of_first_match(
    scorer: &dyn RowScore,
    qi: usize,
    scratch: &mut Vec<f64>,
    is_match: impl FnMut(usize) -> bool,
) -> Option<usize> {
    scorer.fill_row(qi, scratch);
    rank_of_first_match_in_row(scratch, is_match)
}

/// Cache key: tool identity (name + configuration fingerprint) and
/// binary fingerprint.
type CacheKey = (&'static str, u64, u64);

/// Hit/miss counters of an [`EmbeddingCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the in-memory tier.
    pub hits: u64,
    /// Lookups the memory tier could not answer (served by disk or
    /// computed).
    pub misses: u64,
    /// Embedding tables currently resident.
    pub entries: usize,
    /// Similarity matrices currently resident. The rank-only metric
    /// path (`escape_profile` on an unseen pair, the streaming rank
    /// helpers) must never grow this — asserted by
    /// `tests/batched_engine.rs`.
    pub matrix_entries: usize,
    /// Memory misses answered by the disk tier (an attached
    /// `khaos-store`). Disk-served artifacts are bit-identical to
    /// freshly computed ones — pinned by `crates/store` tests and
    /// `tests/store_e2e.rs`.
    pub disk_hits: u64,
    /// Memory misses the disk tier could not answer either (the
    /// artifact was then computed). Zero when no store is attached.
    pub disk_misses: u64,
    /// Records successfully written to the disk tier.
    pub disk_writes: u64,
    /// Embedding tables actually computed by calling the tool's
    /// `embed` — the recomputation counter a warm-start sweep asserts
    /// to be zero on its second run.
    pub embeds_computed: u64,
}

/// Matrix cache key: tool identity plus both binaries' fingerprints.
type MatrixKey = (&'static str, u64, u64, u64);

/// Pre-resolved `khaos-obs` global-registry handles mirroring
/// [`CacheStats`]: every cache instance increments these alongside its
/// internal counters (one relaxed atomic add per event), so the
/// process-wide registry (`KHAOS_METRICS`) exports cache-tier
/// effectiveness, aggregated across instances, without any extra lock
/// traffic. The per-instance [`EmbeddingCache::stats`]
/// numbers remain the exact source of truth for one cache.
struct CacheObs {
    hits: Arc<khaos_obs::Counter>,
    misses: Arc<khaos_obs::Counter>,
    disk_hits: Arc<khaos_obs::Counter>,
    disk_misses: Arc<khaos_obs::Counter>,
    disk_writes: Arc<khaos_obs::Counter>,
    embeds_computed: Arc<khaos_obs::Counter>,
    entries: Arc<khaos_obs::Gauge>,
    matrix_entries: Arc<khaos_obs::Gauge>,
}

fn cache_obs() -> &'static CacheObs {
    static OBS: OnceLock<CacheObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = khaos_obs::Registry::global();
        CacheObs {
            hits: r.counter("diff.cache.hits"),
            misses: r.counter("diff.cache.misses"),
            disk_hits: r.counter("diff.cache.disk_hits"),
            disk_misses: r.counter("diff.cache.disk_misses"),
            disk_writes: r.counter("diff.cache.disk_writes"),
            embeds_computed: r.counter("diff.cache.embeds_computed"),
            entries: r.gauge("diff.cache.entries"),
            matrix_entries: r.gauge("diff.cache.matrix_entries"),
        }
    })
}

/// Shared FIFO insert-with-eviction for the cache's two bounded maps.
/// Re-inserting an existing key replaces the value without touching
/// the eviction order.
fn insert_bounded<K: std::hash::Hash + Eq + Copy, V>(
    map: &mut HashMap<K, Arc<V>>,
    order: &mut std::collections::VecDeque<K>,
    capacity: usize,
    key: K,
    value: Arc<V>,
) {
    if !map.contains_key(&key) {
        while map.len() >= capacity {
            match order.pop_front() {
                Some(old) => {
                    map.remove(&old);
                }
                None => break,
            }
        }
        order.push_back(key);
    }
    map.insert(key, value);
}

struct CacheInner {
    map: HashMap<CacheKey, Arc<FunctionEmbeddings>>,
    /// Insertion order for FIFO eviction.
    order: std::collections::VecDeque<CacheKey>,
    matrices: HashMap<MatrixKey, Arc<SimilarityMatrix>>,
    matrix_order: std::collections::VecDeque<MatrixKey>,
    /// The disk tier, when attached (memory → disk → compute).
    store: Option<Arc<khaos_store::Store>>,
    hits: u64,
    misses: u64,
    disk_hits: u64,
    disk_misses: u64,
    disk_writes: u64,
    embeds_computed: u64,
}

/// A bounded, thread-safe embedding cache keyed by
/// `(tool name, tool configuration fingerprint, binary fingerprint)`.
///
/// All metric entry points share one process-wide instance
/// ([`EmbeddingCache::global`]), so a Figure-8 sweep that scores five
/// tools × four metrics over the same binary pair embeds each
/// `(tool, binary)` combination exactly once. Entries are evicted FIFO
/// past the capacity bound.
///
/// ## The disk tier
///
/// With a `khaos-store` attached ([`EmbeddingCache::attach_store`], or
/// the `KHAOS_STORE` environment variable for the global instance),
/// lookups go **memory → disk → compute**: a memory miss first tries
/// the persistent store, and freshly computed artifacts are written
/// back, so sweeps warm-start across processes and CI runs. The tier an
/// artifact is served from is unobservable in the values: disk records
/// round-trip raw f64 bits and the load path never renormalizes, so
/// memory-served, disk-served and recomputed results are
/// **bit-identical** (pinned by `crates/store/tests/roundtrip.rs` and
/// `tests/store_e2e.rs`). Disk I/O errors degrade to cache misses —
/// a broken disk never fails a metric call.
pub struct EmbeddingCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl EmbeddingCache {
    /// A cache holding at most `capacity` embedding tables (and the
    /// same number of similarity matrices).
    pub fn new(capacity: usize) -> Self {
        EmbeddingCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                order: std::collections::VecDeque::new(),
                matrices: HashMap::new(),
                matrix_order: std::collections::VecDeque::new(),
                store: None,
                hits: 0,
                misses: 0,
                disk_hits: 0,
                disk_misses: 0,
                disk_writes: 0,
                embeds_computed: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// The process-wide cache the metric wrappers use. When the
    /// `KHAOS_STORE` environment variable names a directory, the
    /// persistent store there is attached as the disk tier.
    pub fn global() -> &'static EmbeddingCache {
        static GLOBAL: OnceLock<EmbeddingCache> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cache = EmbeddingCache::new(256);
            if let Some(store) = khaos_store::Store::from_env() {
                cache.attach_store(store);
            }
            cache
        })
    }

    /// Attaches a persistent store as the disk tier (replacing any
    /// previous one). Existing in-memory entries are kept; they will be
    /// written through lazily as they are recomputed, not eagerly.
    pub fn attach_store(&self, store: Arc<khaos_store::Store>) {
        self.inner.lock().expect("embedding cache poisoned").store = Some(store);
    }

    /// The attached disk tier, if any.
    pub fn store(&self) -> Option<Arc<khaos_store::Store>> {
        self.inner
            .lock()
            .expect("embedding cache poisoned")
            .store
            .clone()
    }

    /// Looks up the embeddings for `key`: memory, then the attached
    /// disk store, then `embed`.
    ///
    /// The disk probe and the embedding both run outside the lock:
    /// concurrent metric calls on different binaries never serialize on
    /// each other's embedding work (a racing duplicate insert is
    /// tolerated — last write wins, both values are identical by
    /// determinism of the tools).
    pub fn get_or_embed(
        &self,
        key: CacheKey,
        embed: impl FnOnce() -> Vec<Vec<f64>>,
    ) -> Arc<FunctionEmbeddings> {
        let store;
        {
            let mut inner = self.inner.lock().expect("embedding cache poisoned");
            if let Some(hit) = inner.map.get(&key) {
                let hit = Arc::clone(hit);
                inner.hits += 1;
                cache_obs().hits.inc();
                return hit;
            }
            inner.misses += 1;
            cache_obs().misses.inc();
            store = inner.store.clone();
        }
        let disk_key = khaos_store::EmbKey {
            tool: key.0,
            config: key.1,
            binary: key.2,
        };
        if let Some(store) = &store {
            if let Ok(Some(table)) = store.get_embeddings(&disk_key) {
                let value = Arc::new(FunctionEmbeddings::from_flat_normalized(
                    table.rows as usize,
                    table.dim as usize,
                    table.data,
                ));
                let mut inner = self.inner.lock().expect("embedding cache poisoned");
                inner.disk_hits += 1;
                cache_obs().disk_hits.inc();
                let CacheInner { map, order, .. } = &mut *inner;
                insert_bounded(map, order, self.capacity, key, Arc::clone(&value));
                cache_obs().entries.set(map.len() as i64);
                return value;
            }
        }
        let value = {
            let _span = khaos_obs::span_with(|| format!("embed:{}", key.0));
            Arc::new(FunctionEmbeddings::from_rows(embed()))
        };
        let wrote = store.as_ref().is_some_and(|store| {
            store
                .put_embeddings(
                    &disk_key,
                    khaos_store::TableView::new(value.len(), value.dim(), value.as_flat()),
                )
                .is_ok()
        });
        let mut inner = self.inner.lock().expect("embedding cache poisoned");
        inner.embeds_computed += 1;
        cache_obs().embeds_computed.inc();
        if store.is_some() {
            inner.disk_misses += 1;
            inner.disk_writes += wrote as u64;
            cache_obs().disk_misses.inc();
            cache_obs().disk_writes.add(wrote as u64);
        }
        let CacheInner { map, order, .. } = &mut *inner;
        insert_bounded(map, order, self.capacity, key, Arc::clone(&value));
        cache_obs().entries.set(map.len() as i64);
        value
    }

    /// The similarity matrix for a `(tool, query, target)` triple,
    /// computed at most once per cache residency — the "matrix produced
    /// once per binary pair" half of the engine. All metric wrappers
    /// route through this, so `precision_at_1` + `escape@k` +
    /// `binary_similarity` over the same pair share one matrix. With a
    /// disk tier attached, matrices persist and reload across processes
    /// exactly like embedding tables (bit-identical, flat buffer in and
    /// out).
    pub fn matrix_for(
        &self,
        tool: &dyn crate::Differ,
        query: &Binary,
        target: &Binary,
    ) -> Arc<SimilarityMatrix> {
        let key: MatrixKey = (
            tool.name(),
            tool.config_fingerprint(),
            query.fingerprint(),
            target.fingerprint(),
        );
        let store;
        {
            let mut inner = self.inner.lock().expect("embedding cache poisoned");
            if let Some(hit) = inner.matrices.get(&key) {
                let hit = Arc::clone(hit);
                inner.hits += 1;
                cache_obs().hits.inc();
                return hit;
            }
            inner.misses += 1;
            cache_obs().misses.inc();
            store = inner.store.clone();
        }
        let disk_key = khaos_store::MatKey {
            tool: key.0,
            config: key.1,
            query: key.2,
            target: key.3,
        };
        if let Some(store) = &store {
            if let Ok(Some(table)) = store.get_matrix(&disk_key) {
                let value = Arc::new(SimilarityMatrix::from_flat(
                    table.rows as usize,
                    table.dim as usize,
                    table.data,
                ));
                let mut inner = self.inner.lock().expect("embedding cache poisoned");
                inner.disk_hits += 1;
                cache_obs().disk_hits.inc();
                let CacheInner {
                    matrices,
                    matrix_order,
                    ..
                } = &mut *inner;
                insert_bounded(
                    matrices,
                    matrix_order,
                    self.capacity,
                    key,
                    Arc::clone(&value),
                );
                cache_obs().matrix_entries.set(matrices.len() as i64);
                return value;
            }
        }
        // Built outside the lock; embeddings come from this same cache,
        // reusing the fingerprints already computed for the matrix key.
        let value = {
            let _span = khaos_obs::span_with(|| format!("matrix:{}", key.0));
            Arc::new(tool.batched_similarity_keyed(query, target, self, key.2, key.3))
        };
        let wrote = store.as_ref().is_some_and(|store| {
            store
                .put_matrix(
                    &disk_key,
                    khaos_store::TableView::new(value.rows(), value.cols(), value.as_flat()),
                )
                .is_ok()
        });
        let mut inner = self.inner.lock().expect("embedding cache poisoned");
        if store.is_some() {
            inner.disk_misses += 1;
            inner.disk_writes += wrote as u64;
            cache_obs().disk_misses.inc();
            cache_obs().disk_writes.add(wrote as u64);
        }
        let CacheInner {
            matrices,
            matrix_order,
            ..
        } = &mut *inner;
        insert_bounded(
            matrices,
            matrix_order,
            self.capacity,
            key,
            Arc::clone(&value),
        );
        cache_obs().matrix_entries.set(matrices.len() as i64);
        value
    }

    /// The similarity matrix for a `(tool, query, target)` triple **if
    /// it is already resident in memory** — never builds one and never
    /// probes the disk tier (the rank-only path must stay free of both
    /// `Q×T` allocation and disk I/O; streaming off cached embeddings
    /// is cheaper than deserializing a full matrix it would use once).
    /// The rank-only metric path uses this to reuse a matrix some
    /// earlier metric already paid for, falling back to the streaming
    /// scorer (which never allocates `Q×T`) when nothing is cached. A
    /// hit counts in [`EmbeddingCache::stats`]; a miss is not charged
    /// (nothing is embedded or built on this path).
    pub fn peek_matrix(
        &self,
        tool: &dyn crate::Differ,
        query_fingerprint: u64,
        target_fingerprint: u64,
    ) -> Option<Arc<SimilarityMatrix>> {
        let key: MatrixKey = (
            tool.name(),
            tool.config_fingerprint(),
            query_fingerprint,
            target_fingerprint,
        );
        let mut inner = self.inner.lock().expect("embedding cache poisoned");
        let hit = inner.matrices.get(&key).map(Arc::clone);
        if hit.is_some() {
            inner.hits += 1;
            cache_obs().hits.inc();
        }
        hit
    }

    /// Cache effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("embedding cache poisoned");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
            matrix_entries: inner.matrices.len(),
            disk_hits: inner.disk_hits,
            disk_misses: inner.disk_misses,
            disk_writes: inner.disk_writes,
            embeds_computed: inner.embeds_computed,
        }
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("embedding cache poisoned");
        inner.map.clear();
        inner.order.clear();
        inner.matrices.clear();
        inner.matrix_order.clear();
    }

    /// The cache key for a differ/binary combination.
    pub fn key(name: &'static str, config_fingerprint: u64, bin: &Binary) -> CacheKey {
        (name, config_fingerprint, bin.fingerprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_binary;
    use crate::vector::cosine;
    use crate::Differ;

    #[test]
    fn rows_are_unit_or_zero() {
        let e =
            FunctionEmbeddings::from_rows(vec![vec![3.0, 4.0], vec![0.0, 0.0], vec![-2.0, 0.0]]);
        assert_eq!(e.len(), 3);
        assert_eq!(e.dim(), 2);
        let norm = |r: &[f64]| r.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm(e.row(0)) - 1.0).abs() < 1e-15);
        assert_eq!(norm(e.row(1)), 0.0);
        assert!((norm(e.row(2)) - 1.0).abs() < 1e-15);
        assert_eq!(e.row(2), &[-1.0, 0.0]);
    }

    /// The length debug-assert of [`crate::cosine`] fires in the
    /// blocked kernel entry point too — mismatched dimensions must not
    /// silently truncate in either path.
    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "dot over mismatched dimensions")
    )]
    fn blocked_dot_asserts_equal_lengths() {
        if !cfg!(debug_assertions) {
            // Release builds compile the assert out; nothing to check.
            return;
        }
        let _ = dot_blocked(&[1.0, 2.0, 3.0], &[1.0, 2.0]);
    }

    /// Same guard on the scalar reference kernel.
    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "dot over mismatched dimensions")
    )]
    fn scalar_dot_asserts_equal_lengths() {
        if !cfg!(debug_assertions) {
            return;
        }
        let _ = dot_scalar(&[1.0; 9], &[1.0; 8]);
    }

    #[test]
    fn streaming_top_k_is_deterministic_on_ties() {
        // Pinned tie-break: equal scores rank by lower index, exactly
        // like SimilarityMatrix::top_k.
        let row = [0.5, 0.9, 0.5, 0.9, 0.1, 0.9, 0.0];
        let mut sel = StreamingTopK::new(4);
        for (j, &s) in row.iter().enumerate() {
            sel.offer(j, s);
        }
        let got: Vec<usize> = sel.into_ranked().into_iter().map(|(j, _)| j).collect();
        assert_eq!(got, vec![1, 3, 5, 0]);
        // k = 0 retains nothing.
        let mut empty = StreamingTopK::new(0);
        empty.offer(0, 1.0);
        assert!(empty.is_empty());
        assert!(empty.into_ranked().is_empty());
    }

    /// Satellite regression for the parallel path's combining step:
    /// merging per-block heaps must preserve the documented tie-break —
    /// `-0.0` ties `+0.0`, equal scores rank by lower index — even when
    /// the duplicates straddle the merge boundary, and must equal a
    /// single sequential scan bit for bit.
    #[test]
    fn streaming_top_k_merge_preserves_tie_break_across_boundaries() {
        // Duplicate scores placed so every tie spans the block split:
        // 0.9 at {1, 6}, 0.5 at {2, 5}, and a -0.0/+0.0 pair at {3, 4}.
        let row = [0.1, 0.9, 0.5, -0.0, 0.0, 0.5, 0.9, -1.0];
        for split in 0..=row.len() {
            for k in 0..=row.len() + 1 {
                // Sequential reference.
                let mut seq = StreamingTopK::new(k);
                for (j, &s) in row.iter().enumerate() {
                    seq.offer(j, s);
                }
                let want = seq.into_ranked();
                // Two per-block selectors merged at `split`.
                let mut left = StreamingTopK::new(k);
                for (j, &s) in row.iter().enumerate().take(split) {
                    left.offer(j, s);
                }
                let mut right = StreamingTopK::new(k);
                for (j, &s) in row.iter().enumerate().skip(split) {
                    right.offer(j, s);
                }
                left.merge(right);
                let got = left.into_ranked();
                assert_eq!(got.len(), want.len(), "split={split} k={k}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.0, w.0, "split={split} k={k}: index order diverged");
                    assert_eq!(
                        g.1.to_bits(),
                        w.1.to_bits(),
                        "split={split} k={k}: score bits diverged (±0.0 must survive merge)"
                    );
                }
            }
        }
        // The ±0.0 tie itself: +0.0 at index 4 must NOT outrank -0.0 at
        // index 3 (they compare equal; the lower index wins), and each
        // keeps its own sign bit through the merge.
        let mut a = StreamingTopK::new(2);
        a.offer(3, -0.0);
        let mut b = StreamingTopK::new(2);
        b.offer(4, 0.0);
        a.merge(b);
        let ranked = a.into_ranked();
        assert_eq!(ranked[0].0, 3);
        assert_eq!(ranked[0].1.to_bits(), (-0.0f64).to_bits());
        assert_eq!(ranked[1].0, 4);
        assert_eq!(ranked[1].1.to_bits(), 0.0f64.to_bits());
    }

    /// The block-parallel scan is bit-identical to the sequential one
    /// for every block size, including NaN rows (the NaN-total order
    /// governs retention in every block).
    #[test]
    fn stream_top_k_blocks_matches_sequential_for_all_block_sizes() {
        let row = vec![0.5, f64::NAN, 0.9, 0.5, -0.0, 0.0, -f64::NAN, 0.7, 0.9];
        let m = SimilarityMatrix::from_flat(1, row.len(), row.clone());
        struct MatScorer(SimilarityMatrix);
        impl RowScore for MatScorer {
            fn rows(&self) -> usize {
                self.0.rows()
            }
            fn cols(&self) -> usize {
                self.0.cols()
            }
            fn score(&self, qi: usize, j: usize) -> f64 {
                self.0.get(qi, j)
            }
        }
        let scorer = MatScorer(m.clone());
        for k in 0..=row.len() + 1 {
            let want = stream_top_k(&scorer, 0, k);
            for block in 1..=row.len() + 1 {
                let got = stream_top_k_blocks(&scorer, 0, k, block);
                assert_eq!(got.len(), want.len(), "k={k} block={block}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(
                        (g.0, g.1.to_bits()),
                        (w.0, w.1.to_bits()),
                        "k={k} block={block}"
                    );
                }
            }
            // And both agree with the matrix's partial selection.
            let matrix: Vec<usize> = m.top_k(0, k).into_iter().map(|(j, _)| j).collect();
            let streamed: Vec<usize> = want.iter().map(|&(j, _)| j).collect();
            assert_eq!(streamed, matrix, "k={k}");
        }
    }

    #[test]
    fn matrix_matches_per_pair_cosine() {
        let rows_a = vec![
            vec![1.0, 2.0, 3.0],
            vec![0.0, 0.0, 0.0],
            vec![-1.0, 0.5, 2.0],
        ];
        let rows_b = vec![vec![2.0, 4.0, 6.0], vec![1.0, -1.0, 0.0]];
        let qe = FunctionEmbeddings::from_rows(rows_a.clone());
        let te = FunctionEmbeddings::from_rows(rows_b.clone());
        let m = SimilarityMatrix::from_embeddings(&qe, &te);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        for (i, ra) in rows_a.iter().enumerate() {
            for (j, rb) in rows_b.iter().enumerate() {
                let want = cosine(ra, rb).max(0.0);
                assert!(
                    (m.get(i, j) - want).abs() <= 1e-12,
                    "({i},{j}): {} vs {}",
                    m.get(i, j),
                    want
                );
            }
        }
    }

    #[test]
    fn signed_matrix_keeps_negative_cosines() {
        let qe = FunctionEmbeddings::from_rows(vec![vec![1.0, 0.0]]);
        let te = FunctionEmbeddings::from_rows(vec![vec![-1.0, 0.0]]);
        assert_eq!(SimilarityMatrix::from_embeddings(&qe, &te).get(0, 0), 0.0);
        assert!((SimilarityMatrix::from_embeddings_signed(&qe, &te).get(0, 0) + 1.0).abs() < 1e-15);
    }

    #[test]
    fn top_k_agrees_with_full_sort_including_ties() {
        // Row engineered with duplicates: ties must break by lower index.
        let row = vec![0.5, 0.9, 0.5, 0.9, 0.1, 0.9, 0.0];
        let m = SimilarityMatrix::from_flat(1, row.len(), row.clone());
        let mut full: Vec<usize> = (0..row.len()).collect();
        full.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).unwrap().then(a.cmp(&b)));
        for k in 0..=row.len() + 2 {
            let got: Vec<usize> = m.top_k(0, k).into_iter().map(|(j, _)| j).collect();
            let want: Vec<usize> = full.iter().copied().take(k).collect();
            assert_eq!(got, want, "k={k}");
        }
        // Sanity on the tie order itself.
        assert_eq!(
            m.top_k(0, 4)
                .into_iter()
                .map(|(j, _)| j)
                .collect::<Vec<_>>(),
            vec![1, 3, 5, 0]
        );
    }

    #[test]
    fn rank_of_first_match_equals_sorted_position() {
        let row = vec![0.5, 0.9, 0.5, 0.9, 0.1, 0.9, 0.0];
        let m = SimilarityMatrix::from_flat(1, row.len(), row.clone());
        let mut order: Vec<usize> = (0..row.len()).collect();
        order.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).unwrap().then(a.cmp(&b)));
        // For every single-candidate predicate, the O(T) rank must equal
        // the full-sort position.
        for target in 0..row.len() {
            let want = order.iter().position(|&j| j == target).unwrap() + 1;
            assert_eq!(
                m.rank_of_first_match(0, |j| j == target),
                Some(want),
                "target {target}"
            );
        }
        // Multi-candidate predicate: the earliest-sorted match counts.
        assert_eq!(m.rank_of_first_match(0, |j| j == 0 || j == 3), Some(2));
        assert_eq!(m.rank_of_first_match(0, |_| false), None);
    }

    #[test]
    fn empty_sides_yield_degenerate_matrices_not_panics() {
        let some = FunctionEmbeddings::from_rows(vec![vec![1.0, 0.0], vec![0.5, 0.5]]);
        let none = FunctionEmbeddings::from_rows(vec![]);
        let m = SimilarityMatrix::from_embeddings(&some, &none);
        assert_eq!((m.rows(), m.cols()), (2, 0));
        assert_eq!(m.rank_of_first_match(0, |_| true), None);
        assert!(m.top_k(0, 5).is_empty());
        let m = SimilarityMatrix::from_embeddings(&none, &some);
        assert_eq!((m.rows(), m.cols()), (0, 2));
    }

    #[test]
    fn escape_is_total_when_target_binary_is_empty() {
        // The legacy path returned rank None -> escape 1.0 for an
        // empty candidate pool; the batched path must not panic.
        let mut marked = small_binary("e");
        marked.functions[0]
            .provenance
            .annotations
            .push("vulnerable".into());
        let mut empty = small_binary("e2");
        empty.functions.clear();
        let tool = crate::Safe::default();
        assert_eq!(crate::escape_at_k(&tool, &marked, &empty, 10), 1.0);
        assert_eq!(crate::rank_of_true_match(&tool, &marked, &empty, 0), None);
    }

    #[test]
    fn argmax_first_max_wins() {
        let m = SimilarityMatrix::from_flat(1, 4, vec![0.3, 0.7, 0.7, 0.2]);
        assert_eq!(m.argmax_row(0), Some(1));
        let empty = SimilarityMatrix::from_flat(1, 0, vec![]);
        assert_eq!(empty.argmax_row(0), None);
    }

    #[test]
    fn cache_hits_and_evicts() {
        let cache = EmbeddingCache::new(2);
        let bin = small_binary("c");
        let tool = crate::Safe::default();
        let k1 = EmbeddingCache::key(tool.name(), tool.config_fingerprint(), &bin);
        let a = cache.get_or_embed(k1, || tool.embed(&bin));
        let b = cache.get_or_embed(k1, || panic!("must be cached"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        // Two more keys evict the first (capacity 2, FIFO).
        cache.get_or_embed(("x", 0, 1), || vec![vec![1.0]]);
        cache.get_or_embed(("x", 0, 2), || vec![vec![1.0]]);
        assert_eq!(cache.stats().entries, 2);
        cache.get_or_embed(k1, || tool.embed(&bin));
        assert_eq!(
            cache.stats().misses,
            4,
            "first key was evicted and re-embedded"
        );
    }

    #[test]
    fn top_k_and_streaming_degrade_deterministically_on_nan() {
        // A NaN score must not panic mid-rank; under the NaN-total
        // order a positive NaN ranks above +inf, deterministically,
        // and a negative NaN below -inf.
        let row = vec![0.5, f64::NAN, 0.9, 0.5, -f64::NAN, 0.7];
        let m = SimilarityMatrix::from_flat(1, row.len(), row.clone());
        let want = vec![1usize, 2, 5, 0, 3, 4];
        let got: Vec<usize> = m.top_k(0, row.len()).into_iter().map(|(j, _)| j).collect();
        assert_eq!(got, want);
        // StreamingTopK matches the matrix ranking at every k —
        // including under capacity pressure (k < len), where the
        // retention decision itself must honour the NaN-total order,
        // not just the final sort.
        for k in 0..=row.len() {
            let mut sel = StreamingTopK::new(k);
            for (j, &s) in row.iter().enumerate() {
                sel.offer(j, s);
            }
            let ranked: Vec<usize> = sel.into_ranked().into_iter().map(|(j, _)| j).collect();
            let matrix: Vec<usize> = m.top_k(0, k).into_iter().map(|(j, _)| j).collect();
            assert_eq!(ranked, matrix, "k={k}");
            assert_eq!(ranked, want[..k], "k={k}");
        }
    }

    #[test]
    fn fifo_eviction_order_under_capacity_pressure() {
        // Capacity 2; keys arrive 1, 2, 3, so 1 must be the evictee
        // (oldest insertion), then touching 2 must NOT save it from
        // being evicted by 4 — the order is insertion, not recency.
        let cache = EmbeddingCache::new(2);
        let (k1, k2, k3, k4) = (("t", 0, 1), ("t", 0, 2), ("t", 0, 3), ("t", 0, 4));
        let embed = || vec![vec![1.0, 2.0]];
        cache.get_or_embed(k1, embed);
        cache.get_or_embed(k2, embed);
        cache.get_or_embed(k3, embed); // evicts k1
        cache.get_or_embed(k2, || panic!("k2 must still be resident"));
        cache.get_or_embed(k4, embed); // evicts k2 despite the recent hit
        cache.get_or_embed(k3, || panic!("k3 must still be resident"));
        cache.get_or_embed(k4, || panic!("k4 must still be resident"));
        let mut evicted = false;
        cache.get_or_embed(k2, || {
            evicted = true;
            vec![vec![1.0, 2.0]]
        });
        assert!(evicted, "k2 was evicted FIFO despite being hit after k3");
    }

    #[test]
    fn cache_stats_stay_consistent_across_evictions() {
        let cache = EmbeddingCache::new(2);
        let embed = || vec![vec![3.0, 4.0]];
        for round in 0..3u64 {
            for b in 0..4u64 {
                cache.get_or_embed(("t", 0, b), embed);
            }
            let s = cache.stats();
            assert!(s.entries <= 2, "entries bounded by capacity: {s:?}");
            assert_eq!(
                s.hits + s.misses,
                (round + 1) * 4,
                "every lookup is either a hit or a miss: {s:?}"
            );
            // No disk tier attached: disk counters must stay zero and
            // every miss must have computed.
            assert_eq!((s.disk_hits, s.disk_misses, s.disk_writes), (0, 0, 0));
            assert_eq!(s.embeds_computed, s.misses, "{s:?}");
        }
        // Capacity 2 over a 4-key working set, FIFO: every lookup
        // misses (the working set never fits).
        assert_eq!(cache.stats().misses, 12);
        // Re-inserting a resident key must not inflate `entries`.
        cache.get_or_embed(("t", 0, 3), || panic!("resident"));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn disk_tier_round_trips_bit_identical_and_counts() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "khaos-engine-disk-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(khaos_store::Store::open(&dir).expect("store opens"));

        let bin = small_binary("disk");
        let tool = crate::Safe::default();
        let key = EmbeddingCache::key(tool.name(), tool.config_fingerprint(), &bin);

        // Process 1: cold — computes and writes through.
        let first = EmbeddingCache::new(8);
        first.attach_store(Arc::clone(&store));
        let computed = first.get_or_embed(key, || tool.embed(&bin));
        let s = first.stats();
        assert_eq!((s.disk_hits, s.disk_misses, s.disk_writes), (0, 1, 1));
        assert_eq!(s.embeds_computed, 1);

        // "Process 2": a fresh cache over the same store — disk hit,
        // nothing recomputed, bits identical.
        let second = EmbeddingCache::new(8);
        second.attach_store(Arc::clone(&store));
        let loaded = second.get_or_embed(key, || panic!("must come from disk"));
        let s = second.stats();
        assert_eq!((s.disk_hits, s.disk_misses), (1, 0));
        assert_eq!(s.embeds_computed, 0);
        assert_eq!(
            (loaded.len(), loaded.dim()),
            (computed.len(), computed.dim())
        );
        for (a, b) in loaded.as_flat().iter().zip(computed.as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits(), "disk round trip is bit-exact");
        }

        // Matrices take the same tiered path.
        let m1 = first.matrix_for(&tool, &bin, &bin);
        let third = EmbeddingCache::new(8);
        third.attach_store(Arc::clone(&store));
        let m2 = third.matrix_for(&tool, &bin, &bin);
        assert_eq!(third.stats().disk_hits, 1, "matrix served from disk");
        assert_eq!(third.stats().embeds_computed, 0);
        for (a, b) in m2.as_flat().iter().zip(m1.as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        std::fs::remove_dir_all(&dir).expect("scratch dir removed");
    }

    #[test]
    fn fingerprint_distinguishes_observable_changes_only() {
        let a = small_binary("f");
        let mut renamed = a.clone();
        renamed.functions[0].name = Some("other".into());
        assert_ne!(a.fingerprint(), renamed.fingerprint());
        let mut annotated = a.clone();
        annotated.functions[0]
            .provenance
            .annotations
            .push("vulnerable".into());
        assert_eq!(
            a.fingerprint(),
            annotated.fingerprint(),
            "ground truth is invisible to tools"
        );
    }
}
