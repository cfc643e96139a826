//! Liveness as it was before the flat layout: four [`LocalSet`]s per
//! block. It is the test oracle that
//! [`Liveness`](crate::analysis::liveness::Liveness) must match row for
//! row (`live_in`, `live_out`, `gen` and `def` of every block).
//!
//! Compiled only into tests: this crate's unit tests, and
//! `tests/flat_analyses_quick.rs`, which includes this file by path and
//! re-exports the crate's modules at its root so the `crate::` paths
//! below resolve there too.

use crate::analysis::cfg::Cfg;
use crate::analysis::liveness::LocalSet;
use crate::function::{Block, Function};
use crate::ids::BlockId;
use crate::inst::Operand;

/// Per-block liveness facts, one set each.
pub struct Liveness {
    live_in: Vec<LocalSet>,
    live_out: Vec<LocalSet>,
    gen: Vec<LocalSet>,
    def: Vec<LocalSet>,
}

impl Liveness {
    /// Runs the backward dataflow to a fixed point, sweeping reachable
    /// blocks in postorder.
    pub fn compute(f: &Function, cfg: &Cfg) -> Self {
        let n = f.blocks.len();
        let nl = f.locals.len();
        let (gen, def): (Vec<LocalSet>, Vec<LocalSet>) =
            f.blocks.iter().map(|block| block_sets(block, nl)).unzip();

        let mut live_in = vec![LocalSet::new(nl); n];
        let mut live_out = vec![LocalSet::new(nl); n];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo().iter().rev() {
                let bi = b.index();
                let mut out = LocalSet::new(nl);
                f.block(b).term.for_each_successor(|s| {
                    out.union_with(&live_in[s.index()]);
                });
                if out != live_out[bi] {
                    live_out[bi] = out.clone();
                    changed = true;
                }
                let mut new_in = out;
                for d in def[bi].iter() {
                    new_in.remove(d);
                }
                new_in.union_with(&gen[bi]);
                if new_in != live_in[bi] {
                    live_in[bi] = new_in;
                    changed = true;
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

/// The upward-exposed uses and the definitions of one block.
fn block_sets(block: &Block, num_locals: usize) -> (LocalSet, LocalSet) {
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

/// Asserts that [`crate::analysis::liveness::Liveness`] equals this
/// reference on `f`: the `live_in`, `live_out`, `gen` and `def` rows of
/// every block, unreachable ones included.
pub fn assert_matches(f: &Function, what: &str) {
    let cfg = Cfg::compute(f);
    let flat = crate::analysis::liveness::Liveness::compute(f, &cfg);
    let old = Liveness::compute(f, &cfg);
    for (b, _) in f.iter_blocks() {
        let name = &f.name;
        assert_eq!(old.live_in(b), flat.live_in(b), "{what}: in {b} of {name}");
        assert_eq!(
            old.live_out(b),
            flat.live_out(b),
            "{what}: out {b} of {name}"
        );
        assert_eq!(old.gen_set(b), flat.gen_set(b), "{what}: gen {b} of {name}");
        assert_eq!(old.def_set(b), flat.def_set(b), "{what}: def {b} of {name}");
    }
}
