//! A SAFE-like differ.
//!
//! SAFE embeds the *linear instruction sequence* with a self-attentive
//! RNN. The deterministic stand-in keeps the two properties that matter:
//! order sensitivity (positional weighting of token contributions) and
//! attention-style emphasis (rarer tokens weigh more than filler moves).

use crate::tokens::TokenTable;
use crate::vector::{TokenHasher, EMB_DIM};
use crate::Differ;
use khaos_binary::Binary;

/// SAFE stand-in. See the module docs.
#[derive(Clone, Debug)]
pub struct Safe {
    /// Positional encoding period (tokens per phase bucket).
    pub position_period: usize,
}

impl Default for Safe {
    fn default() -> Self {
        Safe {
            position_period: 24,
        }
    }
}

impl Differ for Safe {
    fn name(&self) -> &'static str {
        "SAFE"
    }

    fn config_fingerprint(&self) -> u64 {
        self.position_period as u64
    }

    fn embed(&self, bin: &Binary) -> Vec<Vec<f64>> {
        // Corpus-level token frequencies give the attention weights
        // (inverse-frequency emphasis, as learned attention tends to).
        // Everything that depends only on the token — its count, its
        // attention and the hash states of `t` and `"{t}#p{phase}"` — is
        // computed once per distinct id; per occurrence the adds and
        // their weight expressions are the seed's, in the seed's order
        // (SAFE's weights are not dyadic, so the order matters).
        let mut table = TokenTable::classes();
        let streams: Vec<Vec<u32>> = bin
            .functions
            .iter()
            .map(|f| {
                let mut ids = Vec::new();
                for b in &f.blocks {
                    table.intern_block(b, &f.operand_pool, &mut ids);
                }
                ids
            })
            .collect();
        let mut counts = vec![0.0f64; table.len()];
        for &id in streams.iter().flatten() {
            counts[id as usize] += 1.0;
        }
        // Integer-valued counts: the sum is exact in any order.
        let total: f64 = counts.iter().sum::<f64>().max(1.0);
        const PHASES: [&str; 4] = ["#p0", "#p1", "#p2", "#p3"];
        let per_id: Vec<(f64, TokenHasher, [TokenHasher; 4])> = counts
            .iter()
            .enumerate()
            .map(|(id, &count)| {
                let h = table.hasher(id as u32);
                let attention = (total / (1.0 + count)).ln().max(0.1);
                (attention, h, PHASES.map(|p| h.feed(p)))
            })
            .collect();

        streams
            .iter()
            .map(|s| {
                let mut v = vec![0.0; EMB_DIM];
                let n = s.len().max(1) as f64;
                for (i, &id) in s.iter().enumerate() {
                    let (attention, h, phased) = &per_id[id as usize];
                    // Position bucket: early/mid/late phases of the body.
                    let phase = (i / self.position_period) % 4;
                    h.add_to(&mut v, attention / n);
                    phased[phase].add_to(&mut v, 0.5 * attention / n);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_binary;
    use crate::vector::cosine;

    #[test]
    fn deterministic_and_self_similar() {
        let b = small_binary("s");
        let tool = Safe::default();
        let e1 = tool.embed(&b);
        let e2 = tool.embed(&b);
        assert_eq!(e1, e2);
        assert!((cosine(&e1[0], &e1[0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn order_matters() {
        let b = small_binary("s");
        let tool = Safe::default();
        let e = tool.embed(&b);
        // Reverse the blocks of alpha: the positional phases shift.
        let mut rev = b.clone();
        rev.functions[0].blocks.reverse();
        let er = tool.embed(&rev);
        assert!(
            cosine(&e[0], &er[0]) < 1.0 - 1e-6,
            "sequence order must influence the embedding"
        );
    }

    #[test]
    fn attention_emphasizes_rare_tokens() {
        let b = small_binary("s");
        let tool = Safe::default();
        let e = tool.embed(&b);
        // beta (bit-twiddling, rare shl/and mix) should not be confused
        // with alpha (loop adds).
        assert!(cosine(&e[0], &e[1]) < 0.99);
    }
}
