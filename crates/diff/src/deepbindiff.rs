//! A DeepBinDiff-like differ.
//!
//! DeepBinDiff matches at **basic-block** granularity: block token
//! features are fused with inter-procedural CFG context (the ICFG: CFG
//! edges plus call edges) through unsupervised graph embedding. The
//! deterministic stand-in embeds each block from its own tokens plus
//! decaying contributions of its 1- and 2-hop ICFG neighbourhood — so,
//! as the paper observes, the embedding *encodes the control-flow graph
//! and the call graph*, both of which Khaos rewrites.

use crate::engine::{argmax, EmbeddingCache, FunctionEmbeddings};
use crate::tokens::TokenTable;
use crate::vector::EMB_DIM;
use khaos_binary::{Binary, SymRef};

/// DeepBinDiff stand-in. See the module docs.
#[derive(Clone, Debug)]
pub struct DeepBinDiff {
    /// Neighbourhood decay per hop.
    pub decay: f64,
}

impl Default for DeepBinDiff {
    fn default() -> Self {
        DeepBinDiff { decay: 0.5 }
    }
}

/// Identifies a block globally: (function index, block index).
pub type BlockId = (usize, usize);

impl DeepBinDiff {
    /// Embeds every block of the binary over the ICFG.
    pub fn embed_blocks(&self, bin: &Binary) -> Vec<(BlockId, Vec<f64>)> {
        // Global block numbering.
        let mut ids: Vec<BlockId> = Vec::new();
        let mut index_of = std::collections::HashMap::new();
        for (fi, f) in bin.functions.iter().enumerate() {
            for bi in 0..f.blocks.len() {
                index_of.insert((fi, bi), ids.len());
                ids.push((fi, bi));
            }
        }
        // ICFG adjacency: CFG successors + call edges to callee entries
        // (and back, making it symmetric for propagation).
        let n = ids.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let push_edge = |a: usize, b: usize, adj: &mut Vec<Vec<usize>>| {
            if a != b {
                if !adj[a].contains(&b) {
                    adj[a].push(b);
                }
                if !adj[b].contains(&a) {
                    adj[b].push(a);
                }
            }
        };
        for (fi, f) in bin.functions.iter().enumerate() {
            for (bi, blk) in f.blocks.iter().enumerate() {
                let me = index_of[&(fi, bi)];
                for s in &blk.succs {
                    if let Some(&t) = index_of.get(&(fi, *s as usize)) {
                        push_edge(me, t, &mut adj);
                    }
                }
                for c in &blk.calls {
                    if let SymRef::Func(tf) = c {
                        if let Some(&t) = index_of.get(&(*tf as usize, 0)) {
                            push_edge(me, t, &mut adj);
                        }
                    }
                }
            }
        }
        // Own token features, each token's hash state looked up by its
        // interned id (the weight-1 sums are exact integers).
        let mut table = TokenTable::mnemonics();
        let mut own: Vec<Vec<f64>> = Vec::with_capacity(n);
        for &(fi, bi) in &ids {
            let f = &bin.functions[fi];
            let mut v = vec![0.0; EMB_DIM];
            for inst in &f.blocks[bi].insts {
                let id = table.intern(inst, &f.operand_pool);
                table.hasher(id).add_to(&mut v, 1.0);
            }
            own.push(v);
        }
        // Two propagation hops with decay.
        let mut state = own.clone();
        for _ in 0..2 {
            let mut next = state.clone();
            for (i, neigh) in adj.iter().enumerate() {
                if neigh.is_empty() {
                    continue;
                }
                for &j in neigh {
                    for k in 0..EMB_DIM {
                        next[i][k] += self.decay * state[j][k] / neigh.len() as f64;
                    }
                }
            }
            state = next;
        }
        for v in &mut state {
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 0.0 {
                for x in v.iter_mut() {
                    *x /= norm;
                }
            }
        }
        ids.into_iter().zip(state).collect()
    }

    /// Tool name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        "DeepBinDiff"
    }

    /// Configuration fingerprint for the embedding cache.
    pub fn config_fingerprint(&self) -> u64 {
        self.decay.to_bits()
    }

    /// Global block ids in the order [`DeepBinDiff::embed_blocks`]
    /// emits them (function-major, then block index).
    pub fn block_ids(bin: &Binary) -> Vec<BlockId> {
        let mut ids = Vec::new();
        for (fi, f) in bin.functions.iter().enumerate() {
            for bi in 0..f.blocks.len() {
                ids.push((fi, bi));
            }
        }
        ids
    }

    /// Block embeddings as a cached, normalized flat table (rows in
    /// [`DeepBinDiff::block_ids`] order).
    pub fn cached_block_embeddings(
        &self,
        bin: &Binary,
        cache: &EmbeddingCache,
    ) -> std::sync::Arc<FunctionEmbeddings> {
        cache.get_or_embed(
            EmbeddingCache::key("DeepBinDiff", self.config_fingerprint(), bin),
            || self.embed_blocks(bin).into_iter().map(|(_, v)| v).collect(),
        )
    }
}

/// The paper's §4.2 judgment for DeepBinDiff: each *query block's* top-1
/// match counts as successful when the functions the two blocks belong to
/// correspond under the provenance ground truth — even if the blocks
/// themselves are not truly corresponding.
///
/// Each query row is scored against every target block into one reused
/// buffer (`kernels::dot_rows`), and only its first maximum is
/// kept: the `Q×T` block matrix is never built.
pub fn deepbindiff_precision_at_1(tool: &DeepBinDiff, baseline: &Binary, obf: &Binary) -> f64 {
    let _span = khaos_obs::span("diff:deepbindiff_p1");
    let cache = EmbeddingCache::global();
    let qe = tool.cached_block_embeddings(baseline, cache);
    let te = tool.cached_block_embeddings(obf, cache);
    if qe.is_empty() || te.is_empty() {
        return 0.0;
    }
    assert_eq!(
        qe.dim(),
        te.dim(),
        "query and target embeddings must share a dimensionality"
    );
    let q_ids = DeepBinDiff::block_ids(baseline);
    let t_ids = DeepBinDiff::block_ids(obf);
    // Raw (unclamped) cosine, as the legacy per-pair loop used; the
    // first maximum wins on ties, matching the `s > best` scan.
    let hits = khaos_par::par_map_with(
        q_ids.len(),
        || vec![0.0f64; te.len()],
        |row, qi| {
            crate::kernels::dot_rows(qe.row(qi), te.as_flat(), row);
            let best = argmax(row).expect("non-empty target");
            let qf = &baseline.functions[q_ids[qi].0];
            let tf = &obf.functions[t_ids[best].0];
            crate::metrics::origins_match(&qf.provenance, &tf.provenance)
        },
    );
    let success = hits.into_iter().filter(|&hit| hit).count();
    success as f64 / q_ids.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_binary;
    use crate::vector::cosine;

    #[test]
    fn self_diff_is_perfect() {
        let b = small_binary("d");
        let tool = DeepBinDiff::default();
        let p = deepbindiff_precision_at_1(&tool, &b, &b);
        assert!(p > 0.99, "self diffing precision {p}");
    }

    #[test]
    fn streamed_judgment_equals_the_matrix_judgment() {
        // The judgment as it was: the full signed block matrix, then
        // the first maximum of every row.
        let base = small_binary("d");
        let mut obf = small_binary("d");
        obf.functions.reverse();
        for (i, f) in obf.functions.iter_mut().enumerate() {
            for blk in &mut f.blocks {
                blk.calls.clear();
            }
            if i.is_multiple_of(2) {
                f.provenance.origins = vec!["elsewhere".into()];
            }
        }
        let tool = DeepBinDiff::default();
        let cache = EmbeddingCache::new(4);
        let qe = tool.cached_block_embeddings(&base, &cache);
        let te = tool.cached_block_embeddings(&obf, &cache);
        let matrix = crate::engine::SimilarityMatrix::from_embeddings_signed(&qe, &te);
        let (q_ids, t_ids) = (DeepBinDiff::block_ids(&base), DeepBinDiff::block_ids(&obf));
        let hits = (0..matrix.rows())
            .filter(|&qi| {
                let best = matrix.argmax_row(qi).expect("non-empty target");
                crate::metrics::origins_match(
                    &base.functions[q_ids[qi].0].provenance,
                    &obf.functions[t_ids[best].0].provenance,
                )
            })
            .count();
        let want = hits as f64 / q_ids.len() as f64;
        let got = deepbindiff_precision_at_1(&tool, &base, &obf);
        assert_eq!(got.to_bits(), want.to_bits());
        assert!(
            got > 0.0 && got < 1.0,
            "some blocks must hit, some miss: {got}"
        );
    }

    #[test]
    fn block_embeddings_cover_all_blocks() {
        let b = small_binary("d");
        let tool = DeepBinDiff::default();
        let e = tool.embed_blocks(&b);
        let total: usize = b.functions.iter().map(|f| f.blocks.len()).sum();
        assert_eq!(e.len(), total);
    }

    #[test]
    fn context_matters() {
        // The same block content embedded in different graph contexts
        // produces different vectors.
        let b = small_binary("d");
        let tool = DeepBinDiff::default();
        let e = tool.embed_blocks(&b);
        let mut cut = b.clone();
        for f in &mut cut.functions {
            for blk in &mut f.blocks {
                blk.calls.clear();
                blk.succs.clear();
            }
        }
        let e2 = tool.embed_blocks(&cut);
        let drift: f64 = e
            .iter()
            .zip(&e2)
            .map(|((_, a), (_, b))| cosine(a, b))
            .sum::<f64>()
            / e.len() as f64;
        assert!(drift < 0.9999, "removing ICFG edges must move embeddings");
    }
}
