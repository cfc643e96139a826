//! An Asm2Vec-like differ.
//!
//! Asm2Vec learns PV-DM embeddings over random walks of the CFG with
//! operands normalized. We reproduce the pipeline deterministically:
//! seeded random walks over block successors generate token sequences;
//! unigrams, bigrams and trigrams are feature-hashed into a dense vector
//! (the stand-in for the learned paragraph vector); similarity is cosine.
//!
//! The design point the paper exploits: walks never leave the function,
//! so intra-procedural rewrites barely move the vector, while moving code
//! across functions (fission/fusion) changes the token distribution
//! wholesale.

use crate::tokens::{IdMap, TokenTable};
use crate::vector::{TokenHasher, EMB_DIM};
use crate::Differ;
use khaos_binary::{BinFunction, Binary};

/// Asm2Vec stand-in. See the module docs.
#[derive(Clone, Debug)]
pub struct Asm2Vec {
    /// Number of random walks per function.
    pub walks: u32,
    /// Maximum walk length in blocks.
    pub walk_len: u32,
    /// Walk RNG seed (deterministic embeddings).
    pub seed: u64,
}

impl Default for Asm2Vec {
    fn default() -> Self {
        Asm2Vec {
            walks: 8,
            walk_len: 16,
            seed: 0xA52,
        }
    }
}

/// Tiny xorshift so the crate does not need a rand dependency here.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A contribution in signed quarter-units at one dimension: the n-gram
/// weights 1, ½ and ¼ are 4, 2 and 1 quarters.
type Quarters = (usize, i64);

/// `weight_quarters` at `h`'s dimension, with `h`'s sign.
fn quarters(h: TokenHasher, weight_quarters: i64) -> Quarters {
    (h.dim(), weight_quarters * h.sign() as i64)
}

/// The n-gram contributions of one `embed` call, memoized per id
/// n-gram: a bigram's hash state resumes from its first token's with
/// `"|" + second` fed, a trigram's from its bigram's — bit-identical to
/// hashing the `"{a}|{b}|{c}"` strings.
#[derive(Default)]
struct NGrams {
    bigrams: IdMap<(u32, u32), (TokenHasher, Quarters)>,
    trigrams: IdMap<(u32, u32, u32), Quarters>,
}

impl NGrams {
    fn bigram(&mut self, table: &TokenTable, a: u32, b: u32) -> (TokenHasher, Quarters) {
        *self.bigrams.entry((a, b)).or_insert_with(|| {
            let h = table.hasher(a).feed("|").feed(table.text(b));
            (h, quarters(h, 2))
        })
    }

    /// The trigram `(a, b, c)`, resuming from `ab`, the bigram's state.
    fn trigram(&mut self, table: &TokenTable, ab: TokenHasher, a: u32, b: u32, c: u32) -> Quarters {
        *self
            .trigrams
            .entry((a, b, c))
            .or_insert_with(|| quarters(ab.feed("|").feed(table.text(c)), 1))
    }
}

fn embed_function(
    f: &BinFunction,
    tool: &Asm2Vec,
    table: &mut TokenTable,
    grams: &mut NGrams,
) -> Vec<f64> {
    let mut v = vec![0.0; EMB_DIM];
    if f.blocks.is_empty() {
        return v;
    }
    // Each block's token ids, flat, with block `b` at `ids[starts[b]..starts[b + 1]]`.
    let mut ids = Vec::new();
    let mut starts = vec![0];
    for b in &f.blocks {
        table.intern_block(b, &f.operand_pool, &mut ids);
        starts.push(ids.len());
    }
    // Every weight is a multiple of ¼ and every partial sum stays far
    // below 2^51 quarters, so the f64 sums the seed accumulated were
    // exact and order-free: counting quarters in integers and
    // converting once gives the same bits.
    let mut acc = [0i64; EMB_DIM];
    let mut rng = tool.seed ^ 0x9e3779b97f4a7c15;
    let mut sequence: Vec<u32> = Vec::new();
    for w in 0..tool.walks {
        // Walks start at the entry (like Asm2Vec's edge-sampled sequences)
        // and at rotating offsets for coverage.
        let mut cur = if f.blocks.len() > 1 {
            (w as usize) % f.blocks.len()
        } else {
            0
        };
        sequence.clear();
        for _ in 0..tool.walk_len {
            sequence.extend_from_slice(&ids[starts[cur]..starts[cur + 1]]);
            let succs = &f.blocks[cur].succs;
            if succs.is_empty() {
                break;
            }
            cur = succs[(xorshift(&mut rng) % succs.len() as u64) as usize] as usize;
            if cur >= f.blocks.len() {
                break;
            }
        }
        // n-gram accumulation (PV-DM context windows).
        for (i, &a) in sequence.iter().enumerate() {
            let (d, q) = quarters(table.hasher(a), 4);
            acc[d] += q;
            if let Some(&b) = sequence.get(i + 1) {
                let (ab, (d, q)) = grams.bigram(table, a, b);
                acc[d] += q;
                if let Some(&c) = sequence.get(i + 2) {
                    let (d, q) = grams.trigram(table, ab, a, b, c);
                    acc[d] += q;
                }
            }
        }
    }
    for (x, q) in v.iter_mut().zip(acc) {
        *x = q as f64 * 0.25;
    }
    // Length normalization so big functions do not dominate.
    let n: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if n > 0.0 {
        for x in &mut v {
            *x /= n;
        }
    }
    v
}

impl Differ for Asm2Vec {
    fn name(&self) -> &'static str {
        "Asm2Vec"
    }

    fn config_fingerprint(&self) -> u64 {
        (self.walks as u64)
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(self.walk_len as u64)
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(self.seed)
    }

    fn embed(&self, bin: &Binary) -> Vec<Vec<f64>> {
        let mut table = TokenTable::classes();
        let mut grams = NGrams::default();
        bin.functions
            .iter()
            .map(|f| embed_function(f, self, &mut table, &mut grams))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_binary;
    use crate::vector::cosine;

    #[test]
    fn embeddings_are_deterministic() {
        let b = small_binary("a");
        let tool = Asm2Vec::default();
        assert_eq!(tool.embed(&b), tool.embed(&b));
    }

    #[test]
    fn distinct_functions_distinct_embeddings() {
        let b = small_binary("a");
        let tool = Asm2Vec::default();
        let e = tool.embed(&b);
        assert!(cosine(&e[0], &e[1]) < 0.999, "alpha and beta differ");
    }

    #[test]
    fn register_renaming_is_invisible() {
        // Token normalization abstracts register ids: bump every register
        // number and the embedding must not move.
        let b = small_binary("a");
        let mut renamed = b.clone();
        for f in &mut renamed.functions {
            for o in &mut f.operand_pool {
                if let khaos_binary::MOperand::Reg(r) = o {
                    *o = khaos_binary::MOperand::Reg(r.wrapping_add(1));
                }
            }
        }
        let tool = Asm2Vec::default();
        let e1 = tool.embed(&b);
        let e2 = tool.embed(&renamed);
        for (a, b) in e1.iter().zip(&e2) {
            assert!((cosine(a, b) - 1.0).abs() < 1e-9);
        }
    }
}
