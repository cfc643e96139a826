//! Small dense-vector utilities shared by the embedding-based tools.

/// Embedding dimensionality used by the learned-model stand-ins.
pub const EMB_DIM: usize = 128;

/// Type alias for readability.
pub type Dim = usize;

/// FNV-1a hash of a token string, reduced to an embedding dimension.
pub fn hash_token(token: &str) -> Dim {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in token.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % EMB_DIM as u64) as usize
}

/// A second independent hash, used to pick the sign of a token's
/// contribution (feature hashing with signs reduces collisions' bias).
pub fn hash_sign(token: &str) -> f64 {
    let mut h: u64 = 0x9e3779b97f4a7c15;
    for b in token.as_bytes() {
        h = h.rotate_left(9) ^ (*b as u64);
        h = h.wrapping_mul(0xff51afd7ed558ccd);
    }
    if h & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

/// Adds `weight` at the hashed position of `token` (signed hashing).
pub fn add_token(vec: &mut [f64], token: &str, weight: f64) {
    let d = hash_token(token);
    vec[d] += weight * hash_sign(token);
}

/// [`hash_token`] of the concatenation of `parts`, streamed through a
/// [`TokenHasher`] — no intermediate `String`.
/// `hash_token_parts(&[a, "|", b]) == hash_token(&format!("{a}|{b}"))`,
/// bit for bit.
pub fn hash_token_parts(parts: &[&str]) -> Dim {
    parts
        .iter()
        .fold(TokenHasher::new(), |h, p| h.feed(p))
        .dim()
}

/// [`hash_sign`] of the concatenation of `parts` (streamed, identical
/// to hashing the concatenated string).
pub fn hash_sign_parts(parts: &[&str]) -> f64 {
    parts
        .iter()
        .fold(TokenHasher::new(), |h, p| h.feed(p))
        .sign()
}

/// [`add_token`] for a token given as concatenated fragments.
pub fn add_token_parts(vec: &mut [f64], parts: &[&str], weight: f64) {
    parts
        .iter()
        .fold(TokenHasher::new(), |h, p| h.feed(p))
        .add_to(vec, weight);
}

/// Resumable token-hash state: both the position ([`hash_token`]) and
/// sign ([`hash_sign`]) chains are byte-streaming, so the state after a
/// prefix can be cloned and extended with a suffix. The n-gram
/// embedders exploit this twice: per-token states are computed once per
/// interned token (the embedders' per-call token table), and a trigram
/// resumes from the bigram's state — only the `"|" + next` suffix is
/// hashed.
/// `TokenHasher::new().feed(a).feed(b)` is bit-identical to hashing the
/// concatenated string.
#[derive(Clone, Copy, Debug)]
pub struct TokenHasher {
    fnv: u64,
    sign: u64,
}

impl Default for TokenHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl TokenHasher {
    /// The state of the empty token.
    pub fn new() -> Self {
        TokenHasher {
            fnv: 0xcbf29ce484222325,
            sign: 0x9e3779b97f4a7c15,
        }
    }

    /// Extends the state with a fragment (builder style).
    pub fn feed(mut self, fragment: &str) -> Self {
        for b in fragment.as_bytes() {
            self.fnv ^= *b as u64;
            self.fnv = self.fnv.wrapping_mul(0x100000001b3);
            self.sign = self.sign.rotate_left(9) ^ (*b as u64);
            self.sign = self.sign.wrapping_mul(0xff51afd7ed558ccd);
        }
        self
    }

    /// The embedding dimension of the bytes fed so far.
    pub fn dim(&self) -> Dim {
        (self.fnv % EMB_DIM as u64) as usize
    }

    /// The sign of the bytes fed so far.
    pub fn sign(&self) -> f64 {
        if self.sign & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Adds `weight` at this state's dimension with its sign —
    /// [`add_token`] of the accumulated fragments.
    pub fn add_to(&self, vec: &mut [f64], weight: f64) {
        vec[self.dim()] += weight * self.sign();
    }
}

/// Cosine similarity; 0.0 when either vector is all-zero.
///
/// Both vectors must have the same length — `zip` would otherwise
/// silently truncate to the shorter one and quietly skew every
/// similarity built on top.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "cosine over mismatched dimensions");
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_stable_and_in_range() {
        let d1 = hash_token("mov r1, r2");
        let d2 = hash_token("mov r1, r2");
        assert_eq!(d1, d2);
        assert!(d1 < EMB_DIM);
        assert!(hash_sign("x") == 1.0 || hash_sign("x") == -1.0);
    }

    #[test]
    fn cosine_properties() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 4.0, 6.0];
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-12, "colinear = 1");
        let c = [0.0, 0.0, 0.0];
        assert_eq!(cosine(&a, &c), 0.0, "zero vector = 0");
        let d = [-1.0, -2.0, -3.0];
        assert!((cosine(&a, &d) + 1.0).abs() < 1e-12, "opposite = -1");
    }

    #[test]
    fn streamed_parts_match_concatenated_string() {
        let cases: [&[&str]; 4] = [
            &["mov reg,imm8"],
            &["alu reg,reg", "|", "jump loc"],
            &["a", "|", "b", "|", "c"],
            &["call fnsym", "#p3"],
        ];
        for parts in cases {
            let joined = parts.concat();
            assert_eq!(hash_token_parts(parts), hash_token(&joined), "{joined}");
            assert_eq!(hash_sign_parts(parts), hash_sign(&joined), "{joined}");
            let mut a = vec![0.0; EMB_DIM];
            let mut b = vec![0.0; EMB_DIM];
            add_token_parts(&mut a, parts, 0.5);
            add_token(&mut b, &joined, 0.5);
            assert_eq!(a, b, "{joined}");
            // The resumable state agrees fragment-by-fragment too.
            let h = parts.iter().fold(TokenHasher::new(), |h, p| h.feed(p));
            assert_eq!(h.dim(), hash_token(&joined), "{joined}");
            assert_eq!(h.sign(), hash_sign(&joined), "{joined}");
        }
    }

    #[test]
    fn add_token_accumulates() {
        let mut v = vec![0.0; EMB_DIM];
        add_token(&mut v, "add r1, r2", 2.0);
        add_token(&mut v, "add r1, r2", 3.0);
        let d = hash_token("add r1, r2");
        assert!((v[d].abs() - 5.0).abs() < 1e-12);
    }
}
