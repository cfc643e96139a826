//! The matrix builders that [`SimilarityMatrix::from_scorer`] replaced,
//! kept verbatim as the oracle the parent module's unit tests compare
//! `Differ::batched_similarity` against bit for bit: the flat
//! embedding build, the elementwise `merge_max`, and the hand-written
//! BinDiff and DataFlowDiff matrix builders.

use super::{EmbeddingCache, FunctionEmbeddings, SimilarityMatrix};
use crate::{BinDiff, DataFlowDiff, Differ};
use khaos_binary::Binary;

/// The old `SimilarityMatrix::build`: one `dot_rows` call per query
/// row, clamped at zero when `clamp`.
pub(crate) fn build(
    qe: &FunctionEmbeddings,
    te: &FunctionEmbeddings,
    clamp: bool,
) -> SimilarityMatrix {
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

/// The old `SimilarityMatrix::merge_max`: elementwise maximum, keeping
/// `a`'s value unless `b`'s is strictly greater.
pub(crate) fn merge_max(a: &mut SimilarityMatrix, b: &SimilarityMatrix) {
    assert_eq!((a.q, a.t), (b.q, b.t), "matrix shape mismatch");
    for (x, y) in a.data.iter_mut().zip(&b.data) {
        if *y > *x {
            *x = *y;
        }
    }
}

/// The old default `Differ` matrix builder: both sides' cached
/// embeddings, one clamped build.
pub(crate) fn embedding_matrix(
    tool: &dyn Differ,
    query: &Binary,
    target: &Binary,
    cache: &EmbeddingCache,
) -> SimilarityMatrix {
    let cfg = tool.config_fingerprint();
    let qe = cache.get_or_embed((tool.name(), cfg, query.fingerprint()), || {
        tool.embed(query)
    });
    let te = cache.get_or_embed((tool.name(), cfg, target.fingerprint()), || {
        tool.embed(target)
    });
    build(&qe, &te, true)
}

/// BinDiff's old matrix builder: `pair_similarity` cell by cell,
/// rows in parallel.
pub(crate) fn bindiff_matrix(tool: &BinDiff, query: &Binary, target: &Binary) -> SimilarityMatrix {
    use crate::bindiff::fingerprint;
    let qf: Vec<[f64; 4]> = query.functions.iter().map(fingerprint).collect();
    let tf: Vec<[f64; 4]> = target.functions.iter().map(fingerprint).collect();
    let (q, t) = (query.functions.len(), target.functions.len());
    let mut data = vec![0.0f64; q * t];
    if t > 0 {
        khaos_par::par_chunks_mut(&mut data, t, |i, row| {
            let fa = &query.functions[i];
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = tool.pair_similarity(fa, &qf[i], &target.functions[j], &tf[j]);
            }
        });
    }
    SimilarityMatrix::from_flat(q, t, data)
}

/// DataFlowDiff's old matrix builder: the raw-view matrix,
/// `merge_max`ed with the callee-propagated view's.
pub(crate) fn dataflow_matrix(
    tool: &DataFlowDiff,
    query: &Binary,
    target: &Binary,
    cache: &EmbeddingCache,
) -> SimilarityMatrix {
    let cfg = tool.config_fingerprint();
    let qe = cache.get_or_embed((tool.name(), cfg, query.fingerprint()), || {
        tool.embed(query)
    });
    let te = cache.get_or_embed((tool.name(), cfg, target.fingerprint()), || {
        tool.embed(target)
    });
    let mut m = build(&qe, &te, true);
    if tool.callee_weight != 0.0 {
        let tp = tool.propagated_target(cache, &te, target);
        merge_max(&mut m, &build(&qe, &tp, true));
    }
    m
}
