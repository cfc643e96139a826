//! Backward liveness analysis over locals.
//!
//! Fission uses liveness to compute the inputs and outputs of a separated
//! region (paper §3.2.2); the code generator uses it for register
//! allocation; dead-code elimination uses the def/use sets.
//!
//! ## Layout
//!
//! A function's four sets — `live_in`, `live_out`, `gen` and `def` — are
//! each one flat buffer of `blocks × words` 64-bit words, where `words`
//! is the number of words a [`LocalSet`] over the function's locals
//! takes. Block `b`'s set is row `b`, the words `b * words ..
//! (b + 1) * words`. Solving allocates those four buffers and one
//! scratch row, whatever the number of blocks. The accessors return a
//! borrowed [`LocalRow`], which reads like a `&LocalSet` and compares
//! equal to the [`LocalSet`] with the same members.
//! [`Liveness::block_sets_into`] computes one block's `gen` and `def`
//! into buffers the caller owns, so a pass that re-derives them per
//! block allocates nothing.
//!
//! ## Definitions
//!
//! A landing pad's bound local is a definition at the top of the pad
//! block. An invoke's destination is a definition of the invoking block,
//! after the invoke's own uses, on both outgoing edges: the analysis
//! does not split it into the normal edge, which defines it, and the
//! unwind edge, which does not.

use crate::analysis::cfg::Cfg;
use crate::function::{Block, Function};
use crate::ids::{BlockId, LocalId};
use crate::inst::Operand;
use std::fmt;

#[cfg(test)]
pub(crate) mod reference;

/// Word index and bit mask of `l` in a word-per-64-locals bitset.
#[inline]
fn bit(l: LocalId) -> (usize, u64) {
    (l.index() / 64, 1 << (l.index() % 64))
}

/// Fixed-size bitset over locals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalSet {
    bits: Vec<u64>,
}

impl LocalSet {
    /// An empty set sized for `n` locals.
    pub fn new(n: usize) -> Self {
        LocalSet {
            bits: vec![0; n.div_ceil(64)],
        }
    }

    /// The full set over `n` locals (every id below `n` is a member).
    /// Trailing bits of the last word are kept clear so `full(n)` equals
    /// the set built by inserting each local individually.
    pub fn full(n: usize) -> Self {
        let mut bits = vec![!0u64; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            if let Some(last) = bits.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        LocalSet { bits }
    }

    /// Intersects `other` into `self`; returns true if `self` changed.
    pub fn intersect_with(&mut self, other: &LocalSet) -> bool {
        let mut changed = false;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            let nv = *a & *b;
            if nv != *a {
                *a = nv;
                changed = true;
            }
        }
        changed
    }

    /// Inserts `l`; returns true if newly inserted.
    pub fn insert(&mut self, l: LocalId) -> bool {
        let (w, m) = bit(l);
        let had = self.bits[w] & m != 0;
        self.bits[w] |= m;
        !had
    }

    /// Removes `l`.
    pub fn remove(&mut self, l: LocalId) {
        let (w, m) = bit(l);
        self.bits[w] &= !m;
    }

    /// Membership test.
    pub fn contains(&self, l: LocalId) -> bool {
        self.row().contains(l)
    }

    /// Unions `other` into `self`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &LocalSet) -> bool {
        let mut changed = false;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            let nv = *a | *b;
            if nv != *a {
                *a = nv;
                changed = true;
            }
        }
        changed
    }

    /// Makes `self` a copy of `row`, reusing its buffer.
    pub fn copy_from(&mut self, row: LocalRow<'_>) {
        self.bits.clear();
        self.bits.extend_from_slice(row.words);
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = LocalId> + '_ {
        self.row().iter()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.row().len()
    }

    /// True if no members.
    pub fn is_empty(&self) -> bool {
        self.row().is_empty()
    }

    fn row(&self) -> LocalRow<'_> {
        LocalRow { words: &self.bits }
    }
}

/// A borrowed, read-only [`LocalSet`]: one row of a [`Liveness`] buffer.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LocalRow<'a> {
    words: &'a [u64],
}

impl<'a> LocalRow<'a> {
    /// Membership test.
    pub fn contains(&self, l: LocalId) -> bool {
        let (w, m) = bit(l);
        self.words.get(w).is_some_and(|x| x & m != 0)
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = LocalId> + 'a {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(LocalId::new(w * 64 + b))
            })
        })
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The backing words, 64 locals each (local `l` is bit `l % 64` of
    /// word `l / 64`).
    pub fn words(&self) -> &'a [u64] {
        self.words
    }
}

impl fmt::Debug for LocalRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalSet")
            .field("bits", &self.words)
            .finish()
    }
}

impl PartialEq<LocalRow<'_>> for &LocalSet {
    fn eq(&self, other: &LocalRow<'_>) -> bool {
        self.bits.as_slice() == other.words
    }
}

/// Per-block liveness facts, one flat `blocks × words` buffer per set.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Words per row.
    words: usize,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
    /// Locals read in the block before any redefinition (upward-exposed uses).
    gen: Vec<u64>,
    /// Locals defined in the block.
    def: Vec<u64>,
}

impl Liveness {
    /// Runs the classic backward dataflow to a fixed point.
    ///
    /// Blocks are swept in postorder, each computing `out = ∪ in[succ]`
    /// into one reused scratch row and then `in = gen | (out & !def)` a
    /// word at a time. Unreachable blocks are never swept: their
    /// `live_in` and `live_out` stay empty.
    pub fn compute(f: &Function, cfg: &Cfg) -> Self {
        let n = f.blocks.len();
        let w = f.locals.len().div_ceil(64);
        let mut gen = vec![0u64; n * w];
        let mut def = vec![0u64; n * w];
        for (b, block) in f.blocks.iter().enumerate() {
            let row = b * w..(b + 1) * w;
            Self::block_sets_into(block, &mut gen[row.clone()], &mut def[row]);
        }

        let mut live_in = vec![0u64; n * w];
        let mut live_out = vec![0u64; n * w];
        let mut out = vec![0u64; w];
        let mut changed = true;
        while changed {
            changed = false;
            // Postorder (reverse of RPO) converges fastest for backward flow.
            for &b in cfg.rpo().iter().rev() {
                let row = b.index() * w..(b.index() + 1) * w;
                out.fill(0);
                f.block(b).term.for_each_successor(|s| {
                    let succ = &live_in[s.index() * w..(s.index() + 1) * w];
                    for (o, x) in out.iter_mut().zip(succ) {
                        *o |= x;
                    }
                });
                if out[..] != live_out[row.clone()] {
                    live_out[row.clone()].copy_from_slice(&out);
                    changed = true;
                }
                let (g, d) = (&gen[row.clone()], &def[row.clone()]);
                for (i, slot) in live_in[row].iter_mut().enumerate() {
                    let nv = g[i] | (out[i] & !d[i]);
                    if nv != *slot {
                        *slot = nv;
                        changed = true;
                    }
                }
            }
        }
        Liveness {
            words: w,
            live_in,
            live_out,
            gen,
            def,
        }
    }

    /// Computes the upward-exposed uses (`gen`) and the definitions
    /// (`def`) of one block into the caller's buffers — the per-block
    /// sets [`Liveness::compute`] solves over. Both buffers are laid out
    /// as [`LocalRow::words`], one word per 64 of the function's locals,
    /// and are overwritten.
    ///
    /// # Panics
    /// Panics if a local of `block` is beyond the buffers.
    pub fn block_sets_into(block: &Block, gen: &mut [u64], def: &mut [u64]) {
        fn define(def: &mut [u64], l: LocalId) {
            let (w, m) = bit(l);
            def[w] |= m;
        }
        gen.fill(0);
        def.fill(0);
        let mut expose = |o: &Operand, def: &[u64]| {
            if let Some(l) = o.as_local() {
                let (w, m) = bit(l);
                if def[w] & m == 0 {
                    gen[w] |= m;
                }
            }
        };
        if let Some(d) = block.pad.as_ref().and_then(|pad| pad.dst) {
            define(def, d);
        }
        for inst in &block.insts {
            inst.for_each_use(|o| expose(o, def));
            if let Some(d) = inst.def() {
                define(def, d);
            }
        }
        block.term.for_each_use(|o| expose(o, def));
        if let Some(d) = block.term.def() {
            define(def, d);
        }
    }

    fn row<'a>(&self, buf: &'a [u64], b: BlockId) -> LocalRow<'a> {
        LocalRow {
            words: &buf[b.index() * self.words..(b.index() + 1) * self.words],
        }
    }

    /// Locals live on entry to `b`.
    pub fn live_in(&self, b: BlockId) -> LocalRow<'_> {
        self.row(&self.live_in, b)
    }

    /// Locals live on exit from `b`.
    pub fn live_out(&self, b: BlockId) -> LocalRow<'_> {
        self.row(&self.live_out, b)
    }

    /// Upward-exposed uses of `b`.
    pub fn gen_set(&self, b: BlockId) -> LocalRow<'_> {
        self.row(&self.gen, b)
    }

    /// Locals defined in `b`.
    pub fn def_set(&self, b: BlockId) -> LocalRow<'_> {
        self.row(&self.def, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, CmpPred, Operand};
    use crate::types::Type;

    #[test]
    fn localset_basics() {
        let mut s = LocalSet::new(100);
        assert!(s.is_empty());
        assert!(s.insert(LocalId(3)));
        assert!(!s.insert(LocalId(3)));
        assert!(s.insert(LocalId(70)));
        assert!(s.contains(LocalId(70)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![LocalId(3), LocalId(70)]);
        s.remove(LocalId(3));
        assert!(!s.contains(LocalId(3)));

        // Word edges: the lowest and highest bit of word 0, the lowest of word 1.
        let mut e = LocalSet::new(130);
        for l in [64, 0, 63] {
            e.insert(LocalId(l));
        }
        assert_eq!(
            e.iter().collect::<Vec<_>>(),
            vec![LocalId(0), LocalId(63), LocalId(64)]
        );
        assert_eq!(e.len(), 3);
        assert_eq!(LocalSet::full(130).iter().count(), 130);
        assert_eq!(LocalSet::full(130).iter().last(), Some(LocalId(129)));
    }

    #[test]
    fn param_live_through_loop() {
        // sum = 0; while (i > 0) { sum += i; i -= 1 } ; return sum
        let mut fb = FunctionBuilder::new("s", Type::I32);
        let i = fb.add_param(Type::I32);
        let sum = fb.new_local(Type::I32);
        let h = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.copy_to(sum, Operand::const_int(Type::I32, 0));
        fb.jump(h);
        fb.switch_to(h);
        let c = fb.cmp(
            CmpPred::Sgt,
            Type::I32,
            Operand::local(i),
            Operand::const_int(Type::I32, 0),
        );
        fb.branch(Operand::local(c), body, exit);
        fb.switch_to(body);
        let ns = fb.bin(
            BinOp::Add,
            Type::I32,
            Operand::local(sum),
            Operand::local(i),
        );
        fb.copy_to(sum, Operand::local(ns));
        let ni = fb.bin(
            BinOp::Sub,
            Type::I32,
            Operand::local(i),
            Operand::const_int(Type::I32, 1),
        );
        fb.copy_to(i, Operand::local(ni));
        fb.jump(h);
        fb.switch_to(exit);
        fb.ret(Some(Operand::local(sum)));
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let lv = Liveness::compute(&f, &cfg);

        let h = BlockId(1);
        let body = BlockId(2);
        let exit = BlockId(3);
        assert!(lv.live_in(h).contains(i));
        assert!(lv.live_in(h).contains(sum));
        assert!(lv.live_in(body).contains(i));
        assert!(lv.live_in(exit).contains(sum));
        assert!(!lv.live_in(exit).contains(i), "i is dead at exit");
        assert!(lv.live_out(body).contains(sum));
    }

    #[test]
    fn def_kills_liveness() {
        let mut fb = FunctionBuilder::new("k", Type::I32);
        let x = fb.new_local(Type::I32);
        let nxt = fb.new_block();
        fb.jump(nxt);
        fb.switch_to(nxt);
        fb.copy_to(x, Operand::const_int(Type::I32, 5));
        fb.ret(Some(Operand::local(x)));
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(
            !lv.live_in(BlockId(1)).contains(x),
            "x defined before use in block"
        );
        assert!(lv.def_set(BlockId(1)).contains(x));
        assert!(lv.gen_set(BlockId(1)).is_empty());
    }
}
