//! Evaluation metrics — the paper's §4.2 protocol.
//!
//! Every metric is a client of the tool's scorer
//! ([`Differ::row_scorer`], the single definition of its scores).
//! `Precision@1` reads every cell, so it takes the pair's matrix from
//! [`EmbeddingCache::matrix_for`] (built once per pair, shared with
//! `binary_similarity`). Rank metrics go through the one driver,
//! [`par_stream_ranks`]: a resident matrix when some earlier metric
//! paid for one, the scorer's rows otherwise — never a `Q×T`
//! allocation of their own. The seed implementation rebuilt the full
//! matrix per call — `escape@k` even rebuilt it per vulnerable query
//! function — which made the §4.2 inner loop quadratic in redundant
//! work.

use crate::engine::{par_stream_ranks, EmbeddingCache, RowScore};
use crate::Differ;
use khaos_binary::{BinProvenance, Binary};

/// Indices of the query binary's `vulnerable`-annotated functions —
/// the Figure-10 query set.
fn vulnerable_indices(bin: &Binary) -> Vec<usize> {
    bin.functions
        .iter()
        .enumerate()
        .filter(|(_, f)| f.provenance.annotations.iter().any(|a| a == "vulnerable"))
        .map(|(i, _)| i)
        .collect()
}

/// The relaxed pairing-success judgment: a query (pre-obfuscation)
/// function pairs successfully with a candidate when their origin sets
/// intersect — an `oriFunc` matches any of its `sepFunc`s, its `remFunc`,
/// or any `fusFunc` it participates in.
pub fn origins_match(query: &BinProvenance, candidate: &BinProvenance) -> bool {
    query
        .origins
        .iter()
        .any(|o| candidate.origins.iter().any(|c| c == o))
}

/// `Precision@1`: the ratio of query functions whose top-ranked candidate
/// is a true (relaxed) match.
pub fn precision_at_1(tool: &dyn Differ, baseline: &Binary, obf: &Binary) -> f64 {
    precision_at_1_with(tool, baseline, obf, EmbeddingCache::global())
}

/// [`precision_at_1`] against an explicit embedding cache.
pub fn precision_at_1_with(
    tool: &dyn Differ,
    baseline: &Binary,
    obf: &Binary,
    cache: &EmbeddingCache,
) -> f64 {
    if baseline.functions.is_empty() || obf.functions.is_empty() {
        return 0.0;
    }
    let matrix = cache.matrix_for(tool, baseline, obf);
    let mut hits = 0usize;
    for i in 0..matrix.rows() {
        let best = matrix
            .argmax_row(i)
            .expect("non-empty target checked above");
        if origins_match(
            &baseline.functions[i].provenance,
            &obf.functions[best].provenance,
        ) {
            hits += 1;
        }
    }
    hits as f64 / baseline.functions.len() as f64
}

/// `escape@k` at each threshold of `ks` over the vulnerable functions
/// of the baseline binary: the fraction whose true match ranks *worse*
/// than `k` (higher = better hiding), all thresholds from one rank pass.
/// Functions are "vulnerable" when annotated as such; without any, every
/// threshold reads 0.
pub fn escape_profile(
    tool: &dyn Differ,
    baseline: &Binary,
    obf: &Binary,
    ks: &[usize],
) -> Vec<f64> {
    escape_profile_with(tool, baseline, obf, ks, EmbeddingCache::global())
}

/// [`escape_profile`] against an explicit embedding cache.
///
/// Rank-only: when the pair's similarity matrix is already resident
/// (some earlier metric paid for it), ranks are read from it; when it
/// is not, they stream off the tool's [`crate::RowScore`] — one `O(T)`
/// row per vulnerable query, cached embeddings, and **no `Q×T` matrix
/// allocation ever** (on large binaries with few vulnerable functions
/// this is also far less scoring work than a matrix build). Either way
/// the rows rank **in parallel** through [`par_stream_ranks`],
/// bit-identical to the sequential scan at any `KHAOS_THREADS`.
pub fn escape_profile_with(
    tool: &dyn Differ,
    baseline: &Binary,
    obf: &Binary,
    ks: &[usize],
    cache: &EmbeddingCache,
) -> Vec<f64> {
    let vulnerable = vulnerable_indices(baseline);
    if vulnerable.is_empty() {
        return vec![0.0; ks.len()];
    }
    let ranks = match cache.peek_matrix(tool, baseline, obf) {
        Some(matrix) => true_match_ranks(matrix.as_ref(), baseline, obf, &vulnerable),
        None => {
            let scorer = tool.row_scorer(baseline, obf, cache);
            true_match_ranks(scorer.as_ref(), baseline, obf, &vulnerable)
        }
    };
    escape_from_ranks(&ranks, ks)
}

/// [`escape_profile`] forced onto the tool's scorer: never touches a
/// cached matrix, never builds one. The memory guarantee is
/// unconditional (`O(threads × T)` scratch regardless of how many
/// thresholds or queries), at the cost of re-scoring even when a matrix
/// is resident.
pub fn escape_profile_streaming(
    tool: &dyn Differ,
    baseline: &Binary,
    obf: &Binary,
    ks: &[usize],
    cache: &EmbeddingCache,
) -> Vec<f64> {
    let vulnerable = vulnerable_indices(baseline);
    if vulnerable.is_empty() {
        return vec![0.0; ks.len()];
    }
    let scorer = tool.row_scorer(baseline, obf, cache);
    escape_from_ranks(
        &true_match_ranks(scorer.as_ref(), baseline, obf, &vulnerable),
        ks,
    )
}

/// 1-based rank of each query's first true match in `scorer`'s rows
/// (`None` when no candidate matches at all).
fn true_match_ranks(
    scorer: &dyn RowScore,
    baseline: &Binary,
    obf: &Binary,
    queries: &[usize],
) -> Vec<Option<usize>> {
    par_stream_ranks(scorer, queries, |qi, j| {
        origins_match(
            &baseline.functions[qi].provenance,
            &obf.functions[j].provenance,
        )
    })
}

/// Escape fractions at each threshold from per-query ranks (`None` =
/// the query has no true match anywhere, which always escapes).
fn escape_from_ranks(ranks: &[Option<usize>], ks: &[usize]) -> Vec<f64> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_binary;
    use crate::{Asm2Vec, BinDiff, Safe, VulSeeker};
    use khaos_binary::BinProvenance;

    fn prov(origins: &[&str]) -> BinProvenance {
        BinProvenance {
            origins: origins.iter().map(|s| s.to_string()).collect(),
            annotations: vec![],
        }
    }

    #[test]
    fn relaxed_matching_rules() {
        let ori = prov(&["cal_file"]);
        let sep = prov(&["cal_file"]); // sepFunc keeps the origin
        let fused = prov(&["log", "cal_file"]);
        let other = prov(&["memcpy"]);
        assert!(origins_match(&ori, &sep));
        assert!(
            origins_match(&ori, &fused),
            "fusFunc matches either constituent"
        );
        assert!(!origins_match(&ori, &other));
    }

    #[test]
    fn identity_diff_gives_perfect_precision() {
        let b = small_binary("m");
        for tool in [
            Box::new(BinDiff::default()) as Box<dyn Differ>,
            Box::new(VulSeeker::default()),
            Box::new(Asm2Vec::default()),
            Box::new(Safe::default()),
        ] {
            let p = precision_at_1(tool.as_ref(), &b, &b);
            assert!(p > 0.99, "{}: {p}", tool.name());
        }
    }

    #[test]
    fn rank_of_true_match_is_one_on_identity() {
        let b = small_binary("m");
        let tool = Asm2Vec::default();
        let queries: Vec<usize> = (0..b.functions.len()).collect();
        let cache = EmbeddingCache::new(4);
        let scorer = tool.row_scorer(&b, &b, &cache);
        let ranks = true_match_ranks(scorer.as_ref(), &b, &b, &queries);
        assert_eq!(ranks, vec![Some(1); queries.len()]);
    }

    #[test]
    fn escape_requires_vulnerable_annotations() {
        let b = small_binary("m");
        let tool = Asm2Vec::default();
        // No annotations: degenerate 0.0.
        assert_eq!(escape_profile(&tool, &b, &b, &[1]), vec![0.0]);
        // Mark alpha vulnerable: identity diff ranks it first => no escape.
        let mut marked = b.clone();
        marked.functions[0]
            .provenance
            .annotations
            .push("vulnerable".into());
        assert_eq!(escape_profile(&tool, &marked, &b, &[1]), vec![0.0]);
    }

    #[test]
    fn escape_when_function_disappears() {
        let b = small_binary("m");
        let mut marked = b.clone();
        marked.functions[0]
            .provenance
            .annotations
            .push("vulnerable".into());
        // Obfuscated binary whose provenance no longer mentions alpha.
        let mut hidden = b.clone();
        for f in &mut hidden.functions {
            f.provenance.origins = vec!["unrelated".into()];
        }
        let tool = Asm2Vec::default();
        assert_eq!(escape_profile(&tool, &marked, &hidden, &[50]), vec![1.0]);
    }
}
