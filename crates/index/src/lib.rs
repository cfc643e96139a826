//! # khaos-index — IVF corpus index over embedding rows
//!
//! The engine answers "rank T targets for Q queries" exactly, one pair
//! at a time. Corpus search — one query function against every indexed
//! function across thousands of binaries — needs an index. This crate
//! builds an IVF (inverted-file) index over the L2-normalized
//! embedding rows the rest of the workspace already produces:
//!
//! 1. **Coarse quantizer** — a deterministic, seeded spherical k-means
//!    partitions the corpus into `nlist` cells (centroids are
//!    L2-normalized, assignment is by maximum dot product, ties break
//!    to the lower centroid index). Same seed, same corpus → the same
//!    cells on every machine, thread count, and SIMD dispatch (every
//!    dot runs through `khaos_diff::kernels`, which is pinned
//!    bit-identical across kernels).
//! 2. **Probe** — a query scores all `nlist` centroids exactly and
//!    probes the `nprobe` best cells (selected by the engine's pinned
//!    `(score desc, index asc)` order via `StreamingTopK`).
//! 3. **Certified quantized shortlist** — the probed cells' members
//!    are scanned in the resident int8 tier (`QuantizedEmbeddings`,
//!    `dim + 16` bytes/row), stored **cell-major**: each cell's rows
//!    are contiguous, so a probe streams memory sequentially instead
//!    of gathering rows from all over the corpus. The shortlist is
//!    *certified*, not a fixed-size cut: the index stores each row's
//!    quantization residual norm `‖x − x̂‖₂`, which bounds the
//!    approximation error of any dot against that row (`|⟨x,y⟩ −
//!    ⟨x̂,ŷ⟩| ≤ ‖Δx‖·‖y‖ + ‖x̂‖·‖Δy‖`; corpus rows are unit-norm), so
//!    every candidate leaves the scan with certified *upper and lower*
//!    bounds on its exact score. Cells are visited in descending
//!    centroid-score order while the k-th best lower bound seen so far
//!    rises; a whole cell whose geometric bound
//!    (`q·t ≤ q·c + ‖q‖·‖t − c‖`, via the stored per-cell max member
//!    radius) cannot reach it is skipped without scanning a row.
//! 4. **Windowed exact re-rank** — every candidate whose upper bound
//!    reaches the k-th best certified lower bound is re-scored with
//!    exact f64 dots (`khaos_diff::kernels::dot`, clamped at zero
//!    exactly like `EmbedScorer`); everything below that bar is
//!    provably outside the top-`k` of the probed set. The window
//!    adapts: corpora with near-duplicate rows (SPEC binaries share
//!    many functions, with score gaps below int8 resolution) re-score
//!    all the near-ties, while well-separated corpora re-score barely
//!    more than `k` rows. Output ranks under the engine's pinned
//!    total order.
//!
//! ## The nprobe/recall contract
//!
//! Because the shortlist is certified, stage 2 is the **only** place a
//! true top-`k` candidate can be lost: recall below 1.0 can only come
//! from unprobed cells. Consequences, pinned by
//! `crates/index/tests/recall.rs`:
//!
//! * at `nprobe = nlist` the ranked output is **bit-identical** to a
//!   brute-force [`khaos_diff::stream_top_k`] over the same corpus —
//!   the re-rank scores with the same kernel, clamps the same way,
//!   and sorts under the same total order;
//! * recall is monotone in `nprobe`: the probed candidate set only
//!   grows (a `StreamingTopK(n+1)` selection contains the
//!   `StreamingTopK(n)` one) and the result is always the exact
//!   top-`k` *of the probed set*.
//!
//! The **default** `nprobe` is scale-aware: below
//! [`SMALL_CORPUS_EXACT`] rows every cell is probed (an index over a
//! few hundred rows cannot beat a brute scan anyway, so the default
//! buys exactness), above it a fixed fraction of cells is probed (the
//! regime where the int8 cell scan wins big; the `index` section of
//! `BENCH_similarity.json` holds the ≥5× bar at ≥10k rows with recall
//! still hard-asserted at 1.0).
//!
//! ## Index segments on disk
//!
//! [`IvfIndex::save`] persists one segment as **three** `khaos-store`
//! records sharing the corpus fingerprint: the f64 table (`emb/`,
//! kind 1, original row order), the int8 tier (`qnt/`, kind 4, stored
//! in the resident cell-major order — the layout is a pure function
//! of the assignments, so the loader re-derives the position↔row map
//! exactly), and the new kind-5 `idx/` record carrying centroids,
//! assignments, per-row provenance and the build parameters. Kind 5 was added to format v2 **without** a
//! version bump (additive; older readers diagnose it by name — see
//! `khaos-store`'s docs). [`IvfIndex::load`] rebuilds the index
//! bit-identically: the store round-trips raw f64/i8 bits and the
//! load path never renormalizes.

use khaos_diff::engine::{EmbedScorer, FunctionEmbeddings, StreamingTopK};
use khaos_diff::kernels;
use khaos_diff::quant::QuantizedEmbeddings;
use khaos_store::{EmbKey, IndexKey, IndexTable, Store, StoredRowMeta, TableView};
use std::io;
use std::sync::{Arc, OnceLock};

/// Global-registry handles for the probe-path telemetry, resolved once
/// per process. Counters aggregate across every index in the process;
/// per-query batching keeps the hot scan loops free of atomics.
struct IndexObs {
    queries: Arc<khaos_obs::Counter>,
    cells_probed: Arc<khaos_obs::Counter>,
    cells_skipped: Arc<khaos_obs::Counter>,
    candidates_scanned: Arc<khaos_obs::Counter>,
    rerank_scored: Arc<khaos_obs::Counter>,
    rerank_pruned: Arc<khaos_obs::Counter>,
    shortlist_rows: Arc<khaos_obs::Histogram>,
}

fn index_obs() -> &'static IndexObs {
    static OBS: OnceLock<IndexObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = khaos_obs::Registry::global();
        IndexObs {
            queries: r.counter("index.queries"),
            cells_probed: r.counter("index.cells_probed"),
            cells_skipped: r.counter("index.cells_skipped"),
            candidates_scanned: r.counter("index.candidates_scanned"),
            rerank_scored: r.counter("index.rerank_scored"),
            rerank_pruned: r.counter("index.rerank_pruned"),
            shortlist_rows: r.histogram("index.shortlist_rows"),
        }
    })
}

/// Below this corpus size the automatic `nprobe` probes **every**
/// cell: a brute scan over so few rows is already fast, so the default
/// spends nothing and keeps recall exactly 1.0 by construction.
pub const SMALL_CORPUS_EXACT: usize = 4096;

/// Denominator of the large-corpus probe fraction: by default
/// `nprobe = ceil(nlist / AUTO_PROBE_DENOM)` once the corpus clears
/// [`SMALL_CORPUS_EXACT`] rows. An eighth of the cells scans an
/// eighth of the corpus in the int8 tier — the `index` section of
/// `BENCH_similarity.json` holds both the ≥5× bar and recall 1.0
/// there; callers who need a guarantee rather than a measurement pass
/// an explicit `nprobe` (at `nlist`, exactness is certified).
pub const AUTO_PROBE_DENOM: usize = 8;

/// Seed of every index build that does not choose its own (the same
/// experiment seed the bench harness uses).
pub const DEFAULT_SEED: u64 = 0xC60_2023;

/// Hard cap on k-means refinement sweeps; assignment convergence
/// usually stops the loop much earlier.
pub const KMEANS_MAX_ITERS: usize = 25;

/// Where one corpus row came from: enough provenance to name the
/// function that matched without reloading any binary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowMeta {
    /// `Binary::fingerprint` of the source binary.
    pub binary: u64,
    /// Function index inside that binary.
    pub function: u32,
    /// Function symbol name (empty when anonymous).
    pub name: String,
}

/// Build-time knobs of an [`IvfIndex`]. `0` means "choose
/// automatically" for `nlist` and `nprobe`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexParams {
    /// Number of coarse cells; `0` → `ceil(sqrt(rows))`.
    pub nlist: usize,
    /// Default cells probed per query; `0` → scale-aware automatic
    /// (see [`auto_nprobe`]).
    pub nprobe: usize,
    /// k-means seed (determinism: same seed + corpus → same index).
    pub seed: u64,
}

impl Default for IndexParams {
    fn default() -> Self {
        IndexParams {
            nlist: 0,
            nprobe: 0,
            seed: DEFAULT_SEED,
        }
    }
}

/// Automatic cell count: `ceil(sqrt(rows))`, clamped to `[1, rows]`.
pub fn auto_nlist(rows: usize) -> usize {
    if rows == 0 {
        return 0;
    }
    // Integer sqrt via f64 is exact for every corpus size we can hold
    // in memory (rows < 2^52).
    let r = (rows as f64).sqrt().ceil() as usize;
    r.clamp(1, rows)
}

/// Automatic default probe width (see the crate docs): every cell
/// below [`SMALL_CORPUS_EXACT`] rows, `ceil(nlist / AUTO_PROBE_DENOM)`
/// above it.
pub fn auto_nprobe(nlist: usize, rows: usize) -> usize {
    if rows < SMALL_CORPUS_EXACT {
        nlist.max(1)
    } else {
        nlist.div_ceil(AUTO_PROBE_DENOM).max(1)
    }
}

/// Fingerprint of an indexed corpus: FNV-1a over the tool, config,
/// dimensionality and every row's provenance — the `corpus` component
/// of the store key, and the link between an `idx/` segment and its
/// `emb`/`qnt` tables. The bytes hashed are the store's record
/// primitives: little-endian integers, and strings as a little-endian
/// u32 length followed by their bytes.
pub fn corpus_fingerprint(tool: &str, config: u64, dim: usize, meta: &[RowMeta]) -> u64 {
    let mut b = Vec::new();
    let put_str = |b: &mut Vec<u8>, s: &str| {
        b.extend_from_slice(&(s.len() as u32).to_le_bytes());
        b.extend_from_slice(s.as_bytes());
    };
    put_str(&mut b, tool);
    b.extend_from_slice(&config.to_le_bytes());
    b.extend_from_slice(&(dim as u64).to_le_bytes());
    b.extend_from_slice(&(meta.len() as u64).to_le_bytes());
    for m in meta {
        b.extend_from_slice(&m.binary.to_le_bytes());
        b.extend_from_slice(&m.function.to_le_bytes());
        put_str(&mut b, &m.name);
    }
    khaos_store::fnv1a(&b)
}

/// An IVF index over one embedding corpus: coarse cells + resident
/// int8 tier + the exact f64 rows for re-ranking. Cheap to share
/// behind an `Arc`; queries take `&self`.
pub struct IvfIndex {
    tool: String,
    config: u64,
    corpus: u64,
    seed: u64,
    nprobe: usize,
    /// `nlist × dim` L2-normalized centroid rows.
    centroids: Vec<f64>,
    nlist: usize,
    /// Per-corpus-row winning cell.
    assignments: Vec<u32>,
    /// Resident-order permutation: quant position → original corpus
    /// row. Cells are laid out back to back (ascending cell index,
    /// members ascending), so probing a cell is one contiguous scan.
    perm: Vec<u32>,
    /// Cell `c` occupies `perm[cell_start[c]..cell_start[c + 1]]`.
    cell_start: Vec<usize>,
    /// Exact rows (re-rank tier), original corpus order.
    exact: Arc<FunctionEmbeddings>,
    /// int8 codes in **resident cell-major order** (`perm`): the
    /// shortlist tier streams each probed cell sequentially instead of
    /// gathering rows from all over the corpus.
    quant: QuantizedEmbeddings,
    /// Quantization residual norms `‖x − x̂‖₂` in resident order — the
    /// certified shortlist's error-bound ingredient.
    residuals: Vec<f64>,
    /// Per-cell max member distance `‖t − c‖₂` to the cell centroid:
    /// the geometric ingredient of the certified cell skip
    /// (`q·t ≤ q·c + ‖q‖·radius`). Re-derived from the exact rows on
    /// load, like the layout.
    cell_radii: Vec<f64>,
    meta: Vec<RowMeta>,
}

/// Max member distance `‖t − c‖₂` per cell, fixed-order sums (build
/// and load re-derive identical radii from identical rows). A maximum
/// is order-independent over finite f64s, and embeddings are finite.
fn cell_radii(
    exact: &FunctionEmbeddings,
    centroids: &[f64],
    assignments: &[u32],
    nlist: usize,
) -> Vec<f64> {
    let dim = exact.dim();
    let mut radii = vec![0.0f64; nlist];
    for (row, &cell) in assignments.iter().enumerate() {
        let cell = cell as usize;
        let t = exact.row(row);
        let c = &centroids[cell * dim..(cell + 1) * dim];
        let d2: f64 = t.iter().zip(c).map(|(&a, &b)| (a - b) * (a - b)).sum();
        let r = d2.sqrt();
        if r > radii[cell] {
            radii[cell] = r;
        }
    }
    radii
}

/// `‖x − x̂‖₂` of every quantized row: the exact L2 distance between
/// quant row `p` and exact row `perm[p]` (fixed-order sums, so the
/// same tables give the same residuals everywhere — build and load
/// agree bit for bit). Pass the identity permutation when the tables
/// share an order.
fn residual_norms(
    exact: &FunctionEmbeddings,
    quant: &QuantizedEmbeddings,
    perm: &[u32],
) -> Vec<f64> {
    let dim = exact.dim();
    (0..quant.len())
        .map(|i| {
            let x = exact.row(perm[i] as usize);
            let s = quant.scales()[i];
            let o = quant.offsets()[i];
            let codes = &quant.codes()[i * dim..(i + 1) * dim];
            x.iter()
                .zip(codes)
                .map(|(&v, &q)| {
                    let d = v - (s * q as f64 + o);
                    d * d
                })
                .sum::<f64>()
                .sqrt()
        })
        .collect()
}

/// Cell-major resident layout from per-row assignments: `perm`
/// concatenates each cell's members (ascending cell index, members
/// ascending — fully determined by `assignments`, so build and load
/// derive the identical layout), and `cell_start[c]..cell_start[c+1]`
/// is cell `c`'s contiguous slice of it.
fn resident_layout(assignments: &[u32], nlist: usize) -> (Vec<u32>, Vec<usize>) {
    let mut cells = vec![Vec::new(); nlist];
    for (row, &cell) in assignments.iter().enumerate() {
        cells[cell as usize].push(row as u32);
    }
    let mut perm = Vec::with_capacity(assignments.len());
    let mut cell_start = Vec::with_capacity(nlist + 1);
    cell_start.push(0);
    for members in &cells {
        perm.extend_from_slice(members);
        cell_start.push(perm.len());
    }
    (perm, cell_start)
}

/// Quantizes the corpus and reorders the rows into resident order.
/// Quantization is strictly per-row, so reordering the quantized parts
/// equals quantizing a reordered corpus, bit for bit.
fn resident_quant(exact: &FunctionEmbeddings, perm: &[u32]) -> QuantizedEmbeddings {
    let original = QuantizedEmbeddings::from_embeddings(exact);
    let dim = exact.dim();
    let mut data = Vec::with_capacity(perm.len() * dim);
    let mut scales = Vec::with_capacity(perm.len());
    let mut offsets = Vec::with_capacity(perm.len());
    for &r in perm {
        let r = r as usize;
        data.extend_from_slice(&original.codes()[r * dim..(r + 1) * dim]);
        scales.push(original.scales()[r]);
        offsets.push(original.offsets()[r]);
    }
    QuantizedEmbeddings::from_parts(perm.len(), dim, data, scales, offsets)
}

/// Total-order f64 wrapper for the k-th-best-lower-bound min-heap in
/// the windowed re-rank (bounds are finite and non-negative;
/// `total_cmp` keeps the heap deterministic regardless).
#[derive(PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Absolute slack added to every certified margin, covering f64
/// rounding in the hoisted `approx_dot` expression (score magnitudes
/// are ≤ 1, so rounding noise is ~1e-13; 1e-9 dominates it with room).
const MARGIN_SLACK: f64 = 1e-9;

impl IvfIndex {
    /// Builds an index over `exact` (one provenance entry per row).
    /// Deterministic: the same `(corpus, params)` produce the same
    /// cells, centroids and query results on every machine, thread
    /// count and SIMD dispatch.
    ///
    /// # Panics
    /// Panics when `meta.len() != exact.len()`.
    pub fn build(
        tool: &str,
        config: u64,
        exact: Arc<FunctionEmbeddings>,
        meta: Vec<RowMeta>,
        params: &IndexParams,
    ) -> IvfIndex {
        assert_eq!(
            exact.len(),
            meta.len(),
            "one provenance entry per corpus row"
        );
        let rows = exact.len();
        let nlist = match params.nlist {
            0 => auto_nlist(rows),
            n => n.clamp(1, rows.max(1)),
        };
        let nlist = if rows == 0 { 0 } else { nlist };
        let (centroids, assignments) = kmeans(&exact, nlist, params.seed);
        let (perm, cell_start) = resident_layout(&assignments, nlist);
        let quant = resident_quant(&exact, &perm);
        let residuals = residual_norms(&exact, &quant, &perm);
        let cell_radii = cell_radii(&exact, &centroids, &assignments, nlist);
        let nprobe = match params.nprobe {
            0 => auto_nprobe(nlist, rows),
            n => n.clamp(1, nlist.max(1)),
        };
        IvfIndex {
            tool: tool.to_string(),
            config,
            corpus: corpus_fingerprint(tool, config, exact.dim(), &meta),
            seed: params.seed,
            nprobe,
            centroids,
            nlist,
            assignments,
            perm,
            cell_start,
            exact,
            quant,
            residuals,
            cell_radii,
            meta,
        }
    }

    /// Corpus fingerprint (the store-key component).
    pub fn corpus(&self) -> u64 {
        self.corpus
    }

    /// Corpus row count.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// True when the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.exact.dim()
    }

    /// Number of coarse cells.
    pub fn nlist(&self) -> usize {
        self.nlist
    }

    /// Default probe width (what [`IvfIndex::query`] uses).
    pub fn default_nprobe(&self) -> usize {
        self.nprobe
    }

    /// The exact f64 corpus rows (what brute-force comparisons score).
    pub fn exact_rows(&self) -> &Arc<FunctionEmbeddings> {
        &self.exact
    }

    /// Ranked top-`k` for an L2-normalized query row at the default
    /// probe width. See [`IvfIndex::query_with`].
    pub fn query(&self, q: &[f64], k: usize) -> Vec<(usize, f64)> {
        self.query_with(q, k, self.nprobe)
    }

    /// Ranked top-`k` corpus rows for an L2-normalized query vector,
    /// probing `nprobe` cells (`0` → the index default): exact
    /// centroid scores pick the cells, the int8 tier shortlists their
    /// members, exact f64 dots re-rank the shortlist under the pinned
    /// `(score desc, index asc)` order. Scores are clamped at zero
    /// exactly like `EmbedScorer`, so whenever the shortlist covers
    /// the true top-`k`, the result is **bit-identical** to
    /// `stream_top_k` over the same corpus.
    pub fn query_with(&self, q: &[f64], k: usize, nprobe: usize) -> Vec<(usize, f64)> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        assert_eq!(q.len(), self.dim(), "query dimensionality mismatch");
        let nprobe = match nprobe {
            0 => self.nprobe,
            n => n,
        }
        .min(self.nlist);
        let _span = khaos_obs::span("index:query");

        // Stage 1: exact centroid scores → the nprobe best cells.
        let probe_span = khaos_obs::span("index:probe");
        let mut probe = StreamingTopK::new(nprobe);
        for c in 0..self.nlist {
            let row = &self.centroids[c * self.dim()..(c + 1) * self.dim()];
            probe.offer(c, kernels::dot(q, row));
        }
        let probed = probe.into_ranked();
        drop(probe_span);
        let candidates: usize = probed
            .iter()
            .map(|&(c, _)| self.cell_start[c + 1] - self.cell_start[c])
            .sum::<usize>();
        if candidates == 0 {
            return Vec::new();
        }

        // Stage 2: certified int8 shortlist over the probed cells'
        // members. The query row is quantized through the same
        // constructor as the corpus; scores are clamped like the exact
        // scorer. A candidate's exact score lies within ±margin of its
        // approx score (margin = ‖Δq‖·‖t‖ + ‖q̂‖·‖Δt‖ + slack, with
        // ‖t‖ = 1 and ‖q̂‖ ≤ ‖q‖ + ‖Δq‖).
        let scan_span = khaos_obs::span("index:scan");
        let mut cells_skipped: u64 = 0;
        let qe = FunctionEmbeddings::from_flat_normalized(1, self.dim(), q.to_vec());
        let qq = QuantizedEmbeddings::from_embeddings(&qe);
        let e_q = residual_norms(&qe, &qq, &[0])[0];
        // Candidates are resident *positions* — each probed cell is one
        // contiguous slice of the quant tier, and the scan callback
        // does nothing but record `(s, p)` so the int8 scan stays
        // tight. `‖q‖` enters both certificates explicitly, so they
        // hold for any query vector, normalized or not.
        let qnorm = kernels::dot(q, q).max(0.0).sqrt();
        let margin = |p: usize| e_q + (qnorm + e_q) * self.residuals[p] + MARGIN_SLACK;
        let mut cand: Vec<(f64, u32)> = Vec::with_capacity(candidates);
        let mut qdots: Vec<i32> = Vec::new();
        // `low` tracks the k best certified *lower* bounds
        // (`max(0, s - margin)`) over everything scanned so far; `bar`
        // is the k-th best — any candidate (or whole cell) that cannot
        // reach it is outside the top-k. Cells arrive in descending
        // centroid-score order, so `bar` is established by the best
        // cells first and the tail gets skipped wholesale.
        let mut low: std::collections::BinaryHeap<std::cmp::Reverse<OrdF64>> =
            std::collections::BinaryHeap::with_capacity(k + 1);
        let mut bar = f64::NEG_INFINITY;
        for &(c, sc) in &probed {
            // Certified cell skip: every member `t` of cell `c` has
            // `q·t = q·c + q·(t − c) ≤ sc + ‖q‖·radius`, so once `k`
            // lower bounds clear that, no member can enter the top-k
            // and the cell's scan is skipped entirely.
            if low.len() == k && sc + qnorm * self.cell_radii[c] + MARGIN_SLACK < bar {
                cells_skipped += 1;
                continue;
            }
            let seg = cand.len();
            qq.approx_scan_block(
                0,
                &self.quant,
                self.cell_start[c]..self.cell_start[c + 1],
                &mut qdots,
                |p, s| cand.push((s, p as u32)),
            );
            // Most candidates fail the peek test in one comparison.
            for &(s, p) in &cand[seg..] {
                let lower = (s - margin(p as usize)).max(0.0);
                if low.len() < k {
                    low.push(std::cmp::Reverse(OrdF64(lower)));
                } else if lower > low.peek().expect("k > 0").0 .0 {
                    low.push(std::cmp::Reverse(OrdF64(lower)));
                    low.pop();
                }
            }
            if low.len() == k {
                bar = low.peek().expect("k > 0").0 .0;
            }
        }
        drop(scan_span);

        // Stage 3: windowed exact re-rank. `bar` is the k-th largest
        // certified lower bound, so at least `k` candidates have exact
        // scores `>= bar`; a candidate with `upper < bar` has
        // `exact <= upper < bar` — strictly below `k` other exact
        // scores — and provably cannot enter the top-k under any
        // tie-break. Everything else is re-scored against the exact
        // tier in resident-position order (deterministic; no candidate
        // heap, just one branch per candidate) and offered under the
        // engine's pinned total order on *original* row indices, so
        // the ranked output is bit-identical to the brute-force scan
        // whenever the shortlist covers the true top-k.
        let rerank_span = khaos_obs::span("index:rerank");
        let table = kernels::active_table();
        let mut top = StreamingTopK::new(k);
        let mut scored: u64 = 0;
        for &(s, p) in &cand {
            let p = p as usize;
            if s.max(0.0) + margin(p) < bar {
                continue;
            }
            scored += 1;
            let j = self.perm[p] as usize;
            top.offer(j, table.dot(q, self.exact.row(j)).max(0.0));
        }
        let ranked = top.into_ranked();
        drop(rerank_span);

        let obs = index_obs();
        obs.queries.inc();
        obs.cells_probed.add(probed.len() as u64);
        obs.cells_skipped.add(cells_skipped);
        obs.candidates_scanned.add(cand.len() as u64);
        obs.rerank_scored.add(scored);
        obs.rerank_pruned.add(cand.len() as u64 - scored);
        obs.shortlist_rows.record(cand.len() as u64);
        ranked
    }

    /// Brute-force exact comparator: the true top-`k` by sequential
    /// scan over every corpus row — the same scores, clamp and total
    /// order as `stream_top_k` with an `EmbedScorer` over this corpus
    /// (bit-identical at any corpus size; the tests pin it).
    pub fn brute_top_k(&self, q: &[f64], k: usize) -> Vec<(usize, f64)> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        assert_eq!(q.len(), self.dim(), "query dimensionality mismatch");
        let mut top = StreamingTopK::new(k);
        for j in 0..self.len() {
            top.offer(j, kernels::dot(q, self.exact.row(j)).max(0.0));
        }
        top.into_ranked()
    }

    /// Mean recall@`k` of the index against the exact scan over the
    /// given query rows at probe width `nprobe` (`0` → default):
    /// `|index ∩ exact| / |exact|`, averaged. `1.0` when there are no
    /// queries.
    pub fn recall_at(
        &self,
        queries: &FunctionEmbeddings,
        rows: &[usize],
        k: usize,
        nprobe: usize,
    ) -> f64 {
        if rows.is_empty() {
            return 1.0;
        }
        let per_row = khaos_par::par_map(rows.len(), |i| {
            let q = queries.row(rows[i]);
            let exact = self.brute_top_k(q, k);
            if exact.is_empty() {
                return 1.0;
            }
            let approx = self.query_with(q, k, nprobe);
            let hit = exact
                .iter()
                .filter(|(j, _)| approx.iter().any(|(a, _)| a == j))
                .count();
            hit as f64 / exact.len() as f64
        });
        per_row.iter().sum::<f64>() / rows.len() as f64
    }

    /// `escape@k` as a client of the index: for each query row, rank
    /// the top `max(ks)` corpus rows and take the 1-based position of
    /// the first row accepted by `is_match`; a query whose match is
    /// absent from the ranking (or has no match at all) escapes at
    /// every threshold. Whenever the ranked lists are the true top-`K`
    /// (the bit-identity contract), the profile equals the streaming
    /// escape protocol's on the same corpus — pinned by the tests and
    /// the bench.
    pub fn escape_profile(
        &self,
        queries: &FunctionEmbeddings,
        rows: &[usize],
        ks: &[usize],
        nprobe: usize,
        is_match: &(dyn Fn(usize, &RowMeta) -> bool + Sync),
    ) -> Vec<f64> {
        if rows.is_empty() {
            return vec![0.0; ks.len()];
        }
        let cap = ks.iter().copied().max().unwrap_or(1).max(1);
        let ranks: Vec<Option<usize>> = khaos_par::par_map(rows.len(), |i| {
            let ranked = self.query_with(queries.row(rows[i]), cap, nprobe);
            ranked
                .iter()
                .position(|&(j, _)| is_match(rows[i], &self.meta[j]))
                .map(|p| p + 1)
        });
        ks.iter()
            .map(|&k| {
                let escaped = ranks
                    .iter()
                    .filter(|r| match r {
                        Some(r) => *r > k,
                        None => true,
                    })
                    .count();
                escaped as f64 / ranks.len() as f64
            })
            .collect()
    }

    /// The persistent form of the coarse structure (centroids,
    /// assignments, provenance, parameters) — the kind-5 payload.
    pub fn to_table(&self) -> IndexTable {
        IndexTable {
            rows: self.len() as u64,
            dim: self.dim() as u64,
            nlist: self.nlist as u64,
            nprobe: self.nprobe as u32,
            seed: self.seed,
            centroids: self.centroids.clone(),
            assignments: self.assignments.clone(),
            meta: self
                .meta
                .iter()
                .map(|m| StoredRowMeta {
                    binary: m.binary,
                    function: m.function,
                    name: m.name.clone(),
                })
                .collect(),
        }
    }

    /// Persists the full segment: the exact f64 table (`emb/`), the
    /// int8 tier (`qnt/`) — both keyed by the corpus fingerprint in
    /// the `binary` slot — and the kind-5 `idx/` record.
    pub fn save(&self, store: &Store) -> io::Result<()> {
        let key = EmbKey {
            tool: &self.tool,
            config: self.config,
            binary: self.corpus,
        };
        store.put_embeddings(
            &key,
            TableView::new(self.len(), self.dim(), self.exact.as_flat()),
        )?;
        store.put_quantized(
            &key,
            khaos_store::QuantView::new(
                self.len(),
                self.dim(),
                self.quant.scales(),
                self.quant.offsets(),
                self.quant.codes(),
            ),
        )?;
        store.put_index(
            &IndexKey {
                tool: &self.tool,
                config: self.config,
                corpus: self.corpus,
            },
            &self.to_table(),
        )
    }

    /// Loads one segment back (`Ok(None)` when any of its three
    /// records is missing; `InvalidData` when they disagree with each
    /// other — unlike a plain cache miss, a *torn* segment must be
    /// named). The rebuilt index is bit-identical to the saved one:
    /// f64 and i8 payloads round-trip raw bits and nothing is
    /// renormalized on load.
    pub fn load(
        store: &Store,
        tool: &str,
        config: u64,
        corpus: u64,
    ) -> io::Result<Option<IvfIndex>> {
        let Some(table) = store.get_index(&IndexKey {
            tool,
            config,
            corpus,
        })?
        else {
            return Ok(None);
        };
        let torn = |what: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "index segment {tool} cfg={config:016x} corpus={corpus:016x}: {what} \
                     (torn segment: idx/emb/qnt records disagree)"
                ),
            )
        };
        let key = EmbKey {
            tool,
            config,
            binary: corpus,
        };
        let flat = store
            .get_embeddings(&key)?
            .ok_or_else(|| torn("exact f64 table missing"))?;
        let qt = store
            .get_quantized(&key)?
            .ok_or_else(|| torn("quantized table missing"))?;
        if (flat.rows, flat.dim) != (table.rows, table.dim)
            || (qt.rows, qt.dim) != (table.rows, table.dim)
        {
            return Err(torn("table shapes disagree"));
        }
        let rows = table.rows as usize;
        let dim = table.dim as usize;
        let nlist = table.nlist as usize;
        if table.centroids.len() != nlist * dim || table.assignments.len() != rows {
            return Err(torn("centroid/assignment shapes disagree"));
        }
        let exact = Arc::new(FunctionEmbeddings::from_flat_normalized(
            rows, dim, flat.data,
        ));
        // The qnt record is stored in resident cell-major order; the
        // layout is re-derived from the assignments, so positions line
        // up with the saved rows exactly.
        let (perm, cell_start) = resident_layout(&table.assignments, nlist);
        let quant = QuantizedEmbeddings::from_parts(rows, dim, qt.data, qt.scales, qt.offsets);
        let residuals = residual_norms(&exact, &quant, &perm);
        let cell_radii = cell_radii(&exact, &table.centroids, &table.assignments, nlist);
        Ok(Some(IvfIndex {
            tool: tool.to_string(),
            config,
            corpus,
            seed: table.seed,
            nprobe: (table.nprobe as usize).clamp(1, nlist.max(1)),
            centroids: table.centroids,
            nlist,
            assignments: table.assignments,
            perm,
            cell_start,
            exact,
            quant,
            residuals,
            cell_radii,
            meta: table
                .meta
                .into_iter()
                .map(|m| RowMeta {
                    binary: m.binary,
                    function: m.function,
                    name: m.name,
                })
                .collect(),
        }))
    }

    /// An [`EmbedScorer`] ranking the given queries against this
    /// corpus — the brute-force side of every recall/bit-identity
    /// comparison (`stream_top_k(&index.exact_scorer(qe), qi, k)`).
    pub fn exact_scorer(&self, queries: Arc<FunctionEmbeddings>) -> EmbedScorer {
        EmbedScorer::new(queries, Arc::clone(&self.exact), true)
    }
}

/// Deterministic seeded spherical k-means over L2-normalized rows.
/// Returns `(nlist × dim centroids, per-row assignments)`.
///
/// Determinism, in order of appearance: initial centroids are a
/// seed-rotated stride sample of the corpus (distinct rows, no RNG
/// stream to drift); assignment maximizes `kernels::dot` with ties to
/// the lower centroid index and parallelizes per row (order-preserving
/// `par_map`, each row independent); centroid updates accumulate
/// member rows in ascending row order on one thread and re-normalize
/// with a sequential sum of squares. Every float op is fixed-order, so
/// the same seed and corpus give the same index everywhere.
fn kmeans(e: &FunctionEmbeddings, nlist: usize, seed: u64) -> (Vec<f64>, Vec<u32>) {
    let rows = e.len();
    let dim = e.dim();
    if rows == 0 || nlist == 0 {
        return (Vec::new(), Vec::new());
    }
    // Seed-rotated stride init: distinct row indices spread across the
    // corpus. floor(i·rows/nlist) is strictly increasing for
    // nlist ≤ rows, and the rotation keeps distinctness mod rows.
    let offset = (seed as usize) % rows;
    let mut centroids = Vec::with_capacity(nlist * dim);
    for i in 0..nlist {
        let row = (offset + i * rows / nlist) % rows;
        centroids.extend_from_slice(e.row(row));
    }
    let mut assignments = vec![0u32; rows];
    for _ in 0..KMEANS_MAX_ITERS {
        // Assignment: best centroid by dot, ties to the lower index.
        let next: Vec<u32> = khaos_par::par_map(rows, |r| {
            let q = e.row(r);
            let mut best = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for c in 0..nlist {
                let s = kernels::dot(q, &centroids[c * dim..(c + 1) * dim]);
                if s > best_score {
                    best = c;
                    best_score = s;
                }
            }
            best as u32
        });
        let converged = next == assignments;
        assignments = next;
        if converged {
            break;
        }
        // Update: mean of members (ascending row order), re-normalized
        // onto the sphere. Empty cells keep their previous centroid.
        let mut sums = vec![0.0f64; nlist * dim];
        let mut counts = vec![0u64; nlist];
        for (r, &cell) in assignments.iter().enumerate() {
            let c = cell as usize;
            counts[c] += 1;
            let row = e.row(r);
            let sum = &mut sums[c * dim..(c + 1) * dim];
            for (s, v) in sum.iter_mut().zip(row) {
                *s += v;
            }
        }
        for c in 0..nlist {
            if counts[c] == 0 {
                continue;
            }
            let sum = &mut sums[c * dim..(c + 1) * dim];
            let inv = 1.0 / counts[c] as f64;
            for s in sum.iter_mut() {
                *s *= inv;
            }
            let norm = sum.iter().map(|v| v * v).sum::<f64>().sqrt();
            let dst = &mut centroids[c * dim..(c + 1) * dim];
            if norm > 0.0 {
                for (d, s) in dst.iter_mut().zip(sum.iter()) {
                    *d = s / norm;
                }
            } else {
                dst.copy_from_slice(sum);
            }
        }
    }
    (centroids, assignments)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small deterministic synthetic corpus: `n` unit rows of
    /// dimension `dim`, loosely clustered so k-means has structure.
    fn synth(n: usize, dim: usize, salt: u64) -> (Arc<FunctionEmbeddings>, Vec<RowMeta>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let cluster = i % 7;
                (0..dim)
                    .map(|d| {
                        let base = ((cluster * 31 + d) as f64).sin();
                        let jitter = (((i as u64 ^ salt).wrapping_mul(0x9E3779B97F4A7C15)
                            >> (d % 23)) as f64
                            / u64::MAX as f64
                            - 0.5)
                            * 0.2;
                        base + jitter
                    })
                    .collect()
            })
            .collect();
        let meta = (0..n)
            .map(|i| RowMeta {
                binary: 0xB0 + (i / 16) as u64,
                function: (i % 16) as u32,
                name: format!("f{i}"),
            })
            .collect();
        (Arc::new(FunctionEmbeddings::from_rows(rows)), meta)
    }

    #[test]
    fn build_is_deterministic() {
        let (e, meta) = synth(300, 24, 1);
        let a = IvfIndex::build(
            "t",
            1,
            Arc::clone(&e),
            meta.clone(),
            &IndexParams::default(),
        );
        let b = IvfIndex::build("t", 1, e, meta, &IndexParams::default());
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(
            a.centroids.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.centroids.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(a.corpus(), b.corpus());
    }

    #[test]
    fn full_probe_is_bit_identical_to_brute_force() {
        let (e, meta) = synth(257, 24, 2);
        let idx = IvfIndex::build("t", 1, Arc::clone(&e), meta, &IndexParams::default());
        // Default nprobe on a small corpus probes every cell; with a
        // covering shortlist the ranked output must equal the exact
        // scan bit for bit.
        for qi in [0usize, 13, 101, 256] {
            let q = e.row(qi);
            let got = idx.query_with(q, 10, idx.nlist());
            let want = idx.brute_top_k(q, 10);
            assert_eq!(got.len(), want.len());
            for ((gj, gs), (wj, ws)) in got.iter().zip(&want) {
                assert_eq!(gj, wj, "query {qi}");
                assert_eq!(gs.to_bits(), ws.to_bits(), "query {qi}");
            }
        }
    }

    #[test]
    fn empty_and_degenerate_corpora() {
        let (e, meta) = (
            Arc::new(FunctionEmbeddings::from_rows(Vec::new())),
            Vec::new(),
        );
        let idx = IvfIndex::build("t", 1, e, meta, &IndexParams::default());
        assert!(idx.is_empty());
        assert_eq!(idx.nlist(), 0);
        let (e1, m1) = synth(1, 8, 3);
        let one = IvfIndex::build("t", 1, Arc::clone(&e1), m1, &IndexParams::default());
        assert_eq!(one.nlist(), 1);
        assert_eq!(one.query(e1.row(0), 5), one.brute_top_k(e1.row(0), 5));
    }

    #[test]
    fn corpus_fingerprint_is_pinned() {
        // The `corpus` component of every stored segment's key: a
        // change here orphans every saved index.
        let meta = [
            RowMeta {
                binary: 0xB0,
                function: 3,
                name: "main".into(),
            },
            RowMeta {
                binary: 0xB1,
                function: 0,
                name: String::new(),
            },
        ];
        assert_eq!(
            corpus_fingerprint("VulSeeker", 7, 64, &meta),
            0x9320_25a6_6b2e_0a5a
        );
    }

    #[test]
    fn store_round_trip_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("khaos-index-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let (e, meta) = synth(120, 16, 4);
        let idx = IvfIndex::build(
            "VulSeeker",
            7,
            Arc::clone(&e),
            meta,
            &IndexParams::default(),
        );
        idx.save(&store).unwrap();
        let back = IvfIndex::load(&store, "VulSeeker", 7, idx.corpus())
            .unwrap()
            .expect("segment present");
        assert_eq!(back.assignments, idx.assignments);
        assert_eq!(back.nlist(), idx.nlist());
        assert_eq!(back.default_nprobe(), idx.default_nprobe());
        for qi in 0..e.len() {
            let a = idx.query(e.row(qi), 10);
            let b = back.query(e.row(qi), 10);
            assert_eq!(a.len(), b.len());
            for ((aj, as_), (bj, bs)) in a.iter().zip(&b) {
                assert_eq!(aj, bj);
                assert_eq!(as_.to_bits(), bs.to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
