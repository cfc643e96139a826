//! The int8 scalar-quantized embedding tier.
//!
//! A normalized embedding row costs `dim × 8` bytes in f64. Production
//! vector search (the corpus-index scenario in ROADMAP item 1) keeps a
//! quantized copy instead: [`QuantizedEmbeddings`] stores each row as
//! `dim` i8 codes plus a per-row `(scale, offset)` affine pair —
//! `x̂ = q · scale + offset` — so a function costs `dim + 16` bytes
//! (~7.1× smaller at the 128-dim rows used here, the "8× more
//! functions per GB" layout).
//!
//! The quantized tier is a *candidate generator*, never a scorer of
//! record: the `khaos-index` IVF index scans approximate dots over the
//! i8 codes (via the dispatched [`crate::kernels::dot_i8`],
//! [`QuantizedEmbeddings::approx_scan_block`]) to shortlist candidates,
//! then re-ranks the shortlist with exact f64 scores under the pinned
//! `(score desc, index asc)` order, so its ranked output is
//! bit-identical to the exact scan whenever the shortlist covers the
//! true top-k.
//!
//! Quantization is deterministic (round-to-nearest on finite inputs,
//! exact for constant rows) and the i8 dot is integer-exact, so the
//! approximate scan itself is bit-identical across SIMD dispatch
//! choices, thread counts and cache tiers — the same invariant the
//! f64 path keeps.

use crate::engine::FunctionEmbeddings;
use crate::kernels;

/// Per-function embeddings quantized to one i8 code per dimension
/// with a per-row affine `(scale, offset)` pair.
///
/// Codes live in `[-127, 127]` (the symmetric range; `-128` is never
/// emitted so negation is always exact), with
/// `scale = (max - min) / 254` and `offset = min + 127 · scale` per
/// row. Degenerate rows (`max == min`, including all-zero rows) store
/// `scale = 0` and decode exactly. The per-row code sums are cached so
/// an approximate dot needs only the integer code dot:
///
/// `dot̂(i, j) = sᵢsⱼ · Σqᵢqⱼ + sᵢoⱼ · Σqᵢ + sⱼoᵢ · Σqⱼ + d·oᵢoⱼ`
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedEmbeddings {
    n: usize,
    dim: usize,
    data: Vec<i8>,
    scales: Vec<f64>,
    offsets: Vec<f64>,
    /// Per-row Σq, cached for the offset-correction terms.
    qsums: Vec<i64>,
}

impl QuantizedEmbeddings {
    /// Quantizes normalized embeddings row by row.
    pub fn from_embeddings(e: &FunctionEmbeddings) -> Self {
        let (n, dim) = (e.len(), e.dim());
        let mut data = Vec::with_capacity(n * dim);
        let mut scales = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(n);
        for i in 0..n {
            let row = e.row(i);
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &x in row {
                lo = lo.min(x);
                hi = hi.max(x);
            }
            // `lo`/`hi` are never NaN (f64::min/max skip NaN inputs),
            // so `hi <= lo` covers constant, empty and all-NaN rows.
            if hi <= lo {
                // Constant (or empty) row: decode is exactly `offset`.
                let offset = if dim == 0 || !lo.is_finite() { 0.0 } else { lo };
                scales.push(0.0);
                offsets.push(offset);
                data.extend(std::iter::repeat_n(0i8, dim));
                continue;
            }
            let scale = (hi - lo) / 254.0;
            let offset = lo + 127.0 * scale;
            scales.push(scale);
            offsets.push(offset);
            for &x in row {
                let q = ((x - lo) / scale).round() - 127.0;
                data.push(q.clamp(-127.0, 127.0) as i8);
            }
        }
        Self::from_parts(n, dim, data, scales, offsets)
    }

    /// Rewraps raw quantized parts — the disk-tier load path. Code
    /// sums are integer-derived, so recomputing them here cannot
    /// perturb anything: a store round trip is bit-identical.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn from_parts(
        n: usize,
        dim: usize,
        data: Vec<i8>,
        scales: Vec<f64>,
        offsets: Vec<f64>,
    ) -> Self {
        assert_eq!(data.len(), n * dim, "quantized code shape mismatch");
        assert_eq!(scales.len(), n, "one scale per row");
        assert_eq!(offsets.len(), n, "one offset per row");
        let qsums = data
            .chunks(dim.max(1))
            .map(|row| row.iter().map(|&q| q as i64).sum())
            .take(n)
            .collect::<Vec<i64>>();
        let qsums = if dim == 0 { vec![0; n] } else { qsums };
        QuantizedEmbeddings {
            n,
            dim,
            data,
            scales,
            offsets,
            qsums,
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

    /// The i8 codes of row `i`.
    pub fn row_codes(&self, i: usize) -> &[i8] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole flat code buffer (store I/O).
    pub fn codes(&self) -> &[i8] {
        &self.data
    }

    /// Per-row scales (store I/O).
    pub fn scales(&self) -> &[f64] {
        &self.scales
    }

    /// Per-row offsets (store I/O).
    pub fn offsets(&self) -> &[f64] {
        &self.offsets
    }

    /// Bytes one function costs in this tier (codes + scale + offset),
    /// vs. `dim × 8` for the f64 row.
    pub fn bytes_per_function(&self) -> usize {
        self.dim + 16
    }

    /// Decodes row `i` back to f64 — lossy by at most `scale/2` per
    /// element (the proptest gate in `tests/batched_engine.rs`).
    pub fn decode_row(&self, i: usize) -> Vec<f64> {
        let (s, o) = (self.scales[i], self.offsets[i]);
        self.row_codes(i)
            .iter()
            .map(|&q| q as f64 * s + o)
            .collect()
    }

    /// Approximate dot between row `i` of `self` and row `j` of
    /// `other`, expanded from the integer code dot plus the cached
    /// code sums. Deterministic and dispatch-independent: the code dot
    /// is integer-exact and the f64 correction is a fixed expression.
    #[inline]
    pub fn approx_dot(&self, i: usize, other: &QuantizedEmbeddings, j: usize) -> f64 {
        debug_assert_eq!(self.dim, other.dim, "dot over mismatched dimensions");
        let qdot = kernels::dot_i8(self.row_codes(i), other.row_codes(j)) as f64;
        let (si, oi, sum_i) = (self.scales[i], self.offsets[i], self.qsums[i] as f64);
        let (sj, oj, sum_j) = (other.scales[j], other.offsets[j], other.qsums[j] as f64);
        si * sj * qdot + si * oj * sum_i + sj * oi * sum_j + self.dim as f64 * oi * oj
    }

    /// Calls `f(j, score)` with the approximate score of query row `i`
    /// against **every** row of `other`, in index order — the
    /// shortlist scan, with the kernel table and the row-`i` affine
    /// terms hoisted out of the inner loop. Scores are bit-identical
    /// to per-call [`Self::approx_dot`] (same expression, same order;
    /// only the dispatch lookup is amortized).
    #[inline]
    pub fn approx_scan(
        &self,
        i: usize,
        other: &QuantizedEmbeddings,
        mut f: impl FnMut(usize, f64),
    ) {
        debug_assert_eq!(self.dim, other.dim, "dot over mismatched dimensions");
        let table = kernels::active_table();
        let qi = self.row_codes(i);
        let (si, oi, sum_i) = (self.scales[i], self.offsets[i], self.qsums[i] as f64);
        let dim_f = self.dim as f64;
        for j in 0..other.len() {
            let qdot = table.dot_i8(qi, other.row_codes(j)) as f64;
            let (sj, oj, sum_j) = (other.scales[j], other.offsets[j], other.qsums[j] as f64);
            f(
                j,
                si * sj * qdot + si * oj * sum_i + sj * oi * sum_j + dim_f * oi * oj,
            );
        }
    }

    /// [`Self::approx_scan`] restricted to the given candidate rows of
    /// `other` — the IVF cell scan (`khaos-index` probes a subset of
    /// cells, not the whole corpus). Scores are the same fixed
    /// expression as [`Self::approx_dot`], so a subset scan over all
    /// rows is bit-identical to the full scan.
    #[inline]
    pub fn approx_scan_subset(
        &self,
        i: usize,
        other: &QuantizedEmbeddings,
        candidates: impl IntoIterator<Item = usize>,
        mut f: impl FnMut(usize, f64),
    ) {
        debug_assert_eq!(self.dim, other.dim, "dot over mismatched dimensions");
        let table = kernels::active_table();
        let qi = self.row_codes(i);
        let (si, oi, sum_i) = (self.scales[i], self.offsets[i], self.qsums[i] as f64);
        let dim_f = self.dim as f64;
        for j in candidates {
            let qdot = table.dot_i8(qi, other.row_codes(j)) as f64;
            let (sj, oj, sum_j) = (other.scales[j], other.offsets[j], other.qsums[j] as f64);
            f(
                j,
                si * sj * qdot + si * oj * sum_i + sj * oi * sum_j + dim_f * oi * oj,
            );
        }
    }

    /// [`Self::approx_scan_subset`] specialized to one **contiguous**
    /// row block of `other` — the IVF cell scan, where every probed
    /// cell is one packed slice of the quant tier. All the block's
    /// integer dots go through a single dispatched
    /// [`kernels::KernelTable::scan_i8`] call (`qdots` is caller
    /// scratch, cleared and resized here so repeated cell scans reuse
    /// one allocation), and each score is then the same fixed
    /// expression as [`Self::approx_dot`] in the same order — the
    /// block scan is bit-identical to the per-row scans.
    pub fn approx_scan_block(
        &self,
        i: usize,
        other: &QuantizedEmbeddings,
        rows: std::ops::Range<usize>,
        qdots: &mut Vec<i32>,
        mut f: impl FnMut(usize, f64),
    ) {
        debug_assert_eq!(self.dim, other.dim, "dot over mismatched dimensions");
        let table = kernels::active_table();
        let qi = self.row_codes(i);
        let (si, oi, sum_i) = (self.scales[i], self.offsets[i], self.qsums[i] as f64);
        let dim_f = self.dim as f64;
        qdots.clear();
        qdots.resize(rows.len(), 0);
        table.scan_i8(
            qi,
            &other.data[rows.start * self.dim..rows.end * self.dim],
            qdots,
        );
        for (off, &qdot) in qdots.iter().enumerate() {
            let j = rows.start + off;
            let qdot = qdot as f64;
            let (sj, oj, sum_j) = (other.scales[j], other.offsets[j], other.qsums[j] as f64);
            f(
                j,
                si * sj * qdot + si * oj * sum_i + sj * oi * sum_j + dim_f * oi * oj,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_rows(seed: u64, n: usize, dim: usize) -> Vec<Vec<f64>> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        (s >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn round_trip_error_stays_within_half_scale() {
        let e = FunctionEmbeddings::from_rows(rand_rows(5, 13, 37));
        let q = QuantizedEmbeddings::from_embeddings(&e);
        for i in 0..e.len() {
            let back = q.decode_row(i);
            let bound = q.scales()[i] * 0.5 * (1.0 + 1e-9) + 1e-15;
            for (x, y) in e.row(i).iter().zip(&back) {
                assert!(
                    (x - y).abs() <= bound,
                    "row {i}: |{x} - {y}| > scale/2 = {bound}"
                );
            }
        }
    }

    #[test]
    fn constant_and_empty_rows_decode_exactly() {
        let e = FunctionEmbeddings::from_rows(vec![vec![0.0; 16], vec![3.0; 16]]);
        let q = QuantizedEmbeddings::from_embeddings(&e);
        for i in 0..2 {
            assert_eq!(q.scales()[i], 0.0);
            assert_eq!(q.decode_row(i), e.row(i), "row {i} must be lossless");
        }
        let empty = QuantizedEmbeddings::from_embeddings(&FunctionEmbeddings::from_rows(vec![]));
        assert!(empty.is_empty());
        assert_eq!(empty.bytes_per_function(), 16);
    }

    #[test]
    fn approx_dot_is_bit_identical_across_kernel_variants() {
        let e = FunctionEmbeddings::from_rows(rand_rows(9, 6, 128));
        let q = QuantizedEmbeddings::from_embeddings(&e);
        // The integer code dot is exact under any kernel, and the f64
        // correction terms don't depend on dispatch — pin it directly
        // against every available table.
        for kind in crate::kernels::available() {
            let table = crate::kernels::table_for(kind).unwrap();
            for i in 0..q.len() {
                for j in 0..q.len() {
                    let qdot = table.dot_i8(q.row_codes(i), q.row_codes(j));
                    let reference = crate::kernels::table_for(crate::kernels::KernelKind::Scalar)
                        .unwrap()
                        .dot_i8(q.row_codes(i), q.row_codes(j));
                    assert_eq!(qdot, reference, "{} ({i},{j})", kind.name());
                }
            }
        }
    }

    #[test]
    fn store_shaped_parts_round_trip_identically() {
        let e = FunctionEmbeddings::from_rows(rand_rows(41, 5, 48));
        let q = QuantizedEmbeddings::from_embeddings(&e);
        let back = QuantizedEmbeddings::from_parts(
            q.len(),
            q.dim(),
            q.codes().to_vec(),
            q.scales().to_vec(),
            q.offsets().to_vec(),
        );
        assert_eq!(q, back, "parts round trip rebuilds the same tier");
    }
}
