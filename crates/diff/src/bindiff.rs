//! A BinDiff-like matcher.
//!
//! Mirrors the industry tool's documented behaviour: on un-stripped
//! binaries, symbol names anchor matches (the paper notes BinDiff's
//! scores stay high for exactly this reason); structural fingerprints —
//! basic-block count, edge count, call-site count, degree in the call
//! graph — refine the rest.

use crate::engine::EmbeddingCache;
use crate::{Differ, SimilarityMatrix};
use khaos_binary::{BinFunction, Binary};

/// BinDiff stand-in. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct BinDiff {
    /// Ignore symbol names even when present (stripped-mode diffing).
    pub ignore_names: bool,
}

fn fingerprint(f: &BinFunction) -> [f64; 4] {
    [
        f.blocks.len() as f64,
        f.edge_count() as f64,
        f.call_count() as f64,
        f.inst_count() as f64,
    ]
}

fn structural_similarity(a: &[f64; 4], b: &[f64; 4]) -> f64 {
    // Ratio-based closeness per feature, averaged.
    let mut s = 0.0;
    for k in 0..4 {
        let (x, y) = (a[k], b[k]);
        let m = x.max(y);
        s += if m == 0.0 { 1.0 } else { x.min(y) / m };
    }
    s / 4.0
}

/// Name similarity: exact match, or shared long prefix (BinDiff's
/// name-hash matching collapses to this for C symbols).
fn name_similarity(a: &BinFunction, b: &BinFunction) -> Option<f64> {
    let (na, nb) = (a.name.as_deref()?, b.name.as_deref()?);
    if na == nb {
        return Some(1.0);
    }
    let common = na
        .bytes()
        .zip(nb.bytes())
        .take_while(|(x, y)| x == y)
        .count();
    let denom = na.len().max(nb.len());
    if common >= 5 && denom > 0 {
        Some(common as f64 / denom as f64)
    } else {
        Some(0.0)
    }
}

impl BinDiff {
    /// One similarity cell: structural closeness fused with name
    /// similarity when names are available and honoured.
    fn pair_similarity(
        &self,
        fa: &BinFunction,
        qf: &[f64; 4],
        fb: &BinFunction,
        tf: &[f64; 4],
    ) -> f64 {
        let structural = structural_similarity(qf, tf);
        match (self.ignore_names, name_similarity(fa, fb)) {
            (false, Some(ns)) => 0.5 * ns + 0.5 * structural,
            _ => structural * 0.8, // name info unavailable
        }
    }
}

impl Differ for BinDiff {
    fn name(&self) -> &'static str {
        "BinDiff"
    }

    fn config_fingerprint(&self) -> u64 {
        self.ignore_names as u64
    }

    fn embed(&self, bin: &Binary) -> Vec<Vec<f64>> {
        bin.functions
            .iter()
            .map(|f| fingerprint(f).to_vec())
            .collect()
    }

    fn similarity_matrix(&self, query: &Binary, target: &Binary) -> Vec<Vec<f64>> {
        let qf: Vec<[f64; 4]> = query.functions.iter().map(fingerprint).collect();
        let tf: Vec<[f64; 4]> = target.functions.iter().map(fingerprint).collect();
        query
            .functions
            .iter()
            .enumerate()
            .map(|(i, fa)| {
                target
                    .functions
                    .iter()
                    .enumerate()
                    .map(|(j, fb)| self.pair_similarity(fa, &qf[i], fb, &tf[j]))
                    .collect()
            })
            .collect()
    }

    /// BinDiff's similarity is symbol + structural-fingerprint matching,
    /// not an embedding dot product, so the batched path computes the
    /// flat matrix directly (parallel rows) rather than going through
    /// the embedding cache; the per-function fingerprints it needs are
    /// four counters — cheaper to recompute than to cache.
    fn batched_similarity_keyed(
        &self,
        query: &Binary,
        target: &Binary,
        _cache: &EmbeddingCache,
        _query_fingerprint: u64,
        _target_fingerprint: u64,
    ) -> SimilarityMatrix {
        let qf: Vec<[f64; 4]> = query.functions.iter().map(fingerprint).collect();
        let tf: Vec<[f64; 4]> = target.functions.iter().map(fingerprint).collect();
        let (q, t) = (query.functions.len(), target.functions.len());
        let mut data = vec![0.0f64; q * t];
        if t > 0 {
            khaos_par::par_chunks_mut(&mut data, t, |i, row| {
                let fa = &query.functions[i];
                for (j, slot) in row.iter_mut().enumerate() {
                    *slot = self.pair_similarity(fa, &qf[i], &target.functions[j], &tf[j]);
                }
            });
        }
        SimilarityMatrix::from_flat(q, t, data)
    }

    /// Streaming scorer matching the batched matrix cell for cell: one
    /// `pair_similarity` evaluation per query/candidate, over the same
    /// precomputed four-counter fingerprints.
    fn row_scorer_keyed<'a>(
        &'a self,
        query: &'a Binary,
        target: &'a Binary,
        _cache: &EmbeddingCache,
        _query_fingerprint: u64,
        _target_fingerprint: u64,
    ) -> Box<dyn crate::engine::RowScore + 'a> {
        Box::new(BinDiffScorer {
            tool: self,
            query,
            target,
            qf: query.functions.iter().map(fingerprint).collect(),
            tf: target.functions.iter().map(fingerprint).collect(),
        })
    }
}

/// [`crate::engine::RowScore`] over BinDiff's symbol + structural
/// matching.
struct BinDiffScorer<'a> {
    tool: &'a BinDiff,
    query: &'a Binary,
    target: &'a Binary,
    qf: Vec<[f64; 4]>,
    tf: Vec<[f64; 4]>,
}

impl crate::engine::RowScore for BinDiffScorer<'_> {
    fn rows(&self) -> usize {
        self.query.functions.len()
    }
    fn cols(&self) -> usize {
        self.target.functions.len()
    }
    fn score(&self, qi: usize, j: usize) -> f64 {
        self.tool.pair_similarity(
            &self.query.functions[qi],
            &self.qf[qi],
            &self.target.functions[j],
            &self.tf[j],
        )
    }
}

/// The whole-binary similarity score in `[0, 1]` that Figure 9 plots.
///
/// As in the real tool, functions are matched **one-to-one** (greedy on
/// descending similarity) and the score is the similarity-weighted
/// fraction of *matched code* over the larger binary — so code that only
/// exists on one side (`sepFunc`s after fission, dead originals after
/// fusion) pulls the score down.
pub fn binary_similarity(tool: &dyn Differ, query: &Binary, target: &Binary) -> f64 {
    binary_similarity_with(tool, query, target, EmbeddingCache::global())
}

/// [`binary_similarity`] against an explicit embedding cache.
pub fn binary_similarity_with(
    tool: &dyn Differ,
    query: &Binary,
    target: &Binary,
    cache: &EmbeddingCache,
) -> f64 {
    if query.functions.is_empty() || target.functions.is_empty() {
        return 0.0;
    }
    let matrix = cache.matrix_for(tool, query, target);
    let _span = khaos_obs::span("diff:bindiff_match");
    let mut edges: Vec<(f64, usize, usize)> = Vec::new();
    for i in 0..matrix.rows() {
        for (j, s) in matrix.row(i).iter().enumerate() {
            if *s > 0.0 {
                edges.push((*s, i, j));
            }
        }
    }
    edges.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("finite")
            .then((a.1, a.2).cmp(&(b.1, b.2)))
    });
    let mut q_used = vec![false; query.functions.len()];
    let mut t_used = vec![false; target.functions.len()];
    let mut matched = 0.0;
    for (s, i, j) in edges {
        if q_used[i] || t_used[j] {
            continue;
        }
        q_used[i] = true;
        t_used[j] = true;
        let wq = query.functions[i].inst_count() as f64;
        let wt = target.functions[j].inst_count() as f64;
        matched += s * wq.min(wt);
    }
    let total_q: usize = query.functions.iter().map(|f| f.inst_count()).sum();
    let total_t: usize = target.functions.iter().map(|f| f.inst_count()).sum();
    matched / (total_q.max(total_t).max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_binary;

    #[test]
    fn names_dominate_when_present() {
        let a = small_binary("a");
        let b = a.clone();
        let tool = BinDiff::default();
        let m = tool.similarity_matrix(&a, &b);
        // alpha vs alpha has name 1.0 + identical structure.
        assert!(m[0][0] > 0.99);
        // alpha vs beta differs.
        assert!(m[0][1] < m[0][0]);
    }

    #[test]
    fn stripped_mode_falls_back_to_structure() {
        let a = small_binary("a");
        let mut b = a.clone();
        b.strip();
        let tool = BinDiff::default();
        let m = tool.similarity_matrix(&a, &b);
        // Still matches structurally, but capped below 1.
        assert!(m[0][0] > 0.7);
        assert!(m[0][0] <= 0.8 + 1e-9);
    }

    #[test]
    fn whole_binary_score_self_is_high() {
        let a = small_binary("a");
        let tool = BinDiff::default();
        let s = binary_similarity(&tool, &a, &a);
        assert!(s > 0.99, "self-similarity ~1, got {s}");
    }

    #[test]
    fn structural_similarity_ratios() {
        let x = [4.0, 6.0, 1.0, 40.0];
        let y = [8.0, 6.0, 1.0, 40.0];
        let s = structural_similarity(&x, &y);
        assert!((s - (0.5 + 1.0 + 1.0 + 1.0) / 4.0).abs() < 1e-12);
    }
}
