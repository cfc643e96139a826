//! Backward liveness analysis over locals.
//!
//! Fission uses liveness to compute the inputs and outputs of a separated
//! region (paper §3.2.2); the code generator uses it for register
//! allocation; dead-code elimination uses the def/use sets.

use crate::analysis::cfg::Cfg;
use crate::function::{Block, Function};
use crate::ids::{BlockId, LocalId};
use crate::inst::Operand;

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
        let (w, b) = (l.index() / 64, l.index() % 64);
        let had = self.bits[w] & (1 << b) != 0;
        self.bits[w] |= 1 << b;
        !had
    }

    /// Removes `l`.
    pub fn remove(&mut self, l: LocalId) {
        let (w, b) = (l.index() / 64, l.index() % 64);
        self.bits[w] &= !(1 << b);
    }

    /// Membership test.
    pub fn contains(&self, l: LocalId) -> bool {
        let (w, b) = (l.index() / 64, l.index() % 64);
        self.bits.get(w).is_some_and(|x| x & (1 << b) != 0)
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

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = LocalId> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
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
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no members.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }
}

/// Per-block liveness facts.
#[derive(Clone, Debug)]
pub struct Liveness {
    live_in: Vec<LocalSet>,
    live_out: Vec<LocalSet>,
    /// Locals read in the block before any redefinition (upward-exposed uses).
    gen: Vec<LocalSet>,
    /// Locals defined in the block.
    def: Vec<LocalSet>,
}

impl Liveness {
    /// Runs the classic backward dataflow to a fixed point.
    ///
    /// A landing pad's bound local counts as a definition at the top of the
    /// pad block. Invoke destinations are treated as defined on the normal
    /// edge only; for simplicity (and conservatively for liveness) we treat
    /// them as block-level defs of the invoking block.
    ///
    /// Blocks are swept in postorder, each computing `out = ∪ in[succ]`
    /// into one reused word buffer and then `in = gen | (out & !def)` a
    /// word at a time. Unreachable blocks are never swept: their sets stay
    /// empty.
    pub fn compute(f: &Function, cfg: &Cfg) -> Self {
        let n = f.blocks.len();
        let nl = f.locals.len();
        let (gen, def): (Vec<LocalSet>, Vec<LocalSet>) = f
            .blocks
            .iter()
            .map(|block| Self::block_sets(block, nl))
            .unzip();

        let mut live_in = vec![LocalSet::new(nl); n];
        let mut live_out = vec![LocalSet::new(nl); n];
        let mut out = vec![0u64; nl.div_ceil(64)];
        let mut changed = true;
        while changed {
            changed = false;
            // Postorder (reverse of RPO) converges fastest for backward flow.
            for &b in cfg.rpo().iter().rev() {
                let bi = b.index();
                out.fill(0);
                f.block(b).term.for_each_successor(|s| {
                    for (o, w) in out.iter_mut().zip(&live_in[s.index()].bits) {
                        *o |= w;
                    }
                });
                if out != live_out[bi].bits {
                    live_out[bi].bits.copy_from_slice(&out);
                    changed = true;
                }
                let (g, d) = (&gen[bi].bits, &def[bi].bits);
                for (i, slot) in live_in[bi].bits.iter_mut().enumerate() {
                    let nv = g[i] | (out[i] & !d[i]);
                    if nv != *slot {
                        *slot = nv;
                        changed = true;
                    }
                }
            }
        }
        Liveness {
            live_in,
            live_out,
            gen,
            def,
        }
    }

    /// The upward-exposed uses (`gen`) and the definitions (`def`) of one
    /// block of a function with `num_locals` locals — the per-block sets
    /// [`Liveness::compute`] solves over.
    pub fn block_sets(block: &Block, num_locals: usize) -> (LocalSet, LocalSet) {
        let mut gen = LocalSet::new(num_locals);
        let mut def = LocalSet::new(num_locals);
        if let Some(d) = block.pad.as_ref().and_then(|pad| pad.dst) {
            def.insert(d);
        }
        let mut expose = |o: &Operand, def: &LocalSet| {
            if let Some(l) = o.as_local() {
                if !def.contains(l) {
                    gen.insert(l);
                }
            }
        };
        for inst in &block.insts {
            inst.for_each_use(|o| expose(o, &def));
            if let Some(d) = inst.def() {
                def.insert(d);
            }
        }
        block.term.for_each_use(|o| expose(o, &def));
        if let Some(d) = block.term.def() {
            def.insert(d);
        }
        (gen, def)
    }

    /// Locals live on entry to `b`.
    pub fn live_in(&self, b: BlockId) -> &LocalSet {
        &self.live_in[b.index()]
    }

    /// Locals live on exit from `b`.
    pub fn live_out(&self, b: BlockId) -> &LocalSet {
        &self.live_out[b.index()]
    }

    /// Upward-exposed uses of `b`.
    pub fn gen_set(&self, b: BlockId) -> &LocalSet {
        &self.gen[b.index()]
    }

    /// Locals defined in `b`.
    pub fn def_set(&self, b: BlockId) -> &LocalSet {
        &self.def[b.index()]
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
