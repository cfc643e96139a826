//! The verifier's def-before-use check as it was before the
//! word-parallel may-defined solve: reaching definitions over numbered
//! def sites (one bit per site, an `nlocals × sites` kill matrix per
//! function) behind a dominance fast path. It is the test oracle that
//! [`certainly_uninit_uses`](crate::analysis::dataflow::certainly_uninit_uses)
//! must match use for use.
//!
//! Compiled only into tests: this crate's unit tests, and
//! `tests/certainly_uninit_quick.rs`, which includes this file by path
//! and re-exports the crate's modules at its root so the `crate::` paths
//! below resolve there too.

use crate::analysis::cfg::Cfg;
use crate::analysis::dataflow::{
    solve, use_before_init, Analysis, Direction, Solution, UseBeforeInit,
};
use crate::analysis::dom::DomTree;
use crate::analysis::liveness::LocalSet;
use crate::function::Function;
use crate::ids::{BlockId, LocalId};
use crate::inst::Term;

/// The dominance-checked def-before-use pass.
///
/// Fast path: a use is accepted when an assignment appears earlier in the
/// same block, or when some block containing an assignment *strictly
/// dominates* the use's block ([`DomTree`]) — every entry path then
/// executes the def before the use. Only when a use survives that check is
/// the [`DefiniteInit`] dataflow consulted: its intersection join also
/// accepts the legal non-SSA diamond (a local assigned on *every* incoming
/// path with no single dominating definition, the shape `mem2reg`
/// produces at joins). Uses failing both checks are returned.
pub fn def_before_use_violations(f: &Function, cfg: &Cfg) -> Vec<UseBeforeInit> {
    if dominance_covers_all_uses(f, cfg) {
        return Vec::new();
    }
    use_before_init(f, cfg)
}

/// True if every use in the reachable region is covered by a same-block
/// earlier def or a strictly dominating def block (the cheap sound filter
/// of [`def_before_use_violations`]).
pub fn dominance_covers_all_uses(f: &Function, cfg: &Cfg) -> bool {
    let nl = f.locals.len();
    // def_blocks[l]: blocks whose execution guarantees l is assigned on
    // exit — including the normal successor of a defining invoke.
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); nl];
    for &b in cfg.rpo() {
        let block = f.block(b);
        if let Some(pad) = &block.pad {
            if let Some(d) = pad.dst {
                def_blocks[d.index()].push(b);
            }
        }
        for inst in &block.insts {
            if let Some(d) = inst.def() {
                if def_blocks[d.index()].last() != Some(&b) {
                    def_blocks[d.index()].push(b);
                }
            }
        }
        if let Term::Invoke {
            dst: Some(d),
            normal,
            ..
        } = &block.term
        {
            def_blocks[d.index()].push(*normal);
        }
    }
    let dom = DomTree::compute(f, cfg);
    let params = {
        let mut s = LocalSet::new(nl);
        for p in f.params() {
            s.insert(p);
        }
        s
    };
    let dominated = |l: LocalId, b: BlockId, assigned_here: &LocalSet| {
        params.contains(l)
            || assigned_here.contains(l)
            || def_blocks[l.index()]
                .iter()
                .any(|&d| d != b && dom.dominates(d, b))
    };
    for &b in cfg.rpo() {
        let block = f.block(b);
        let mut assigned = LocalSet::new(nl);
        if let Some(pad) = &block.pad {
            if let Some(d) = pad.dst {
                assigned.insert(d);
            }
        }
        let mut ok = true;
        for inst in &block.insts {
            inst.for_each_use(|o| {
                if let Some(l) = o.as_local() {
                    if !dominated(l, b, &assigned) {
                        ok = false;
                    }
                }
            });
            if let Some(d) = inst.def() {
                assigned.insert(d);
            }
        }
        block.term.for_each_use(|o| {
            if let Some(l) = o.as_local() {
                if !dominated(l, b, &assigned) {
                    ok = false;
                }
            }
        });
        if !ok {
            return false;
        }
    }
    true
}

/// The verifier's certainly-uninitialized uses as they were computed
/// before the may-defined solve: [`ReachingDefs`] behind the same
/// dominance fast path as [`def_before_use_violations`]. Must equal
/// [`certainly_uninit_uses`](crate::analysis::dataflow::certainly_uninit_uses)
/// on every function.
pub fn certainly_uninit_uses(f: &Function, cfg: &Cfg) -> Vec<UseBeforeInit> {
    if dominance_covers_all_uses(f, cfg) {
        return Vec::new();
    }
    let (rd, sol) = ReachingDefs::compute(f, cfg);
    let nl = f.locals.len();
    let mut out = Vec::new();
    for &b in cfg.rpo() {
        // reached[l] = some def of l reaches the current point.
        let mut reached = LocalSet::new(nl);
        for s in rd.resolve(&sol.block_in[b.index()]) {
            reached.insert(s.local);
        }
        let block = f.block(b);
        if let Some(pad) = &block.pad {
            if let Some(d) = pad.dst {
                reached.insert(d);
            }
        }
        for (i, inst) in block.insts.iter().enumerate() {
            inst.for_each_use(|o| {
                if let Some(l) = o.as_local() {
                    if !reached.contains(l) {
                        out.push(UseBeforeInit {
                            block: b,
                            inst: Some(i),
                            local: l,
                        });
                    }
                }
            });
            if let Some(d) = inst.def() {
                reached.insert(d);
            }
        }
        block.term.for_each_use(|o| {
            if let Some(l) = o.as_local() {
                if !reached.contains(l) {
                    out.push(UseBeforeInit {
                        block: b,
                        inst: None,
                        local: l,
                    });
                }
            }
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Reaching definitions.
// ---------------------------------------------------------------------------

/// Where a definition site sits within its block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DefPos {
    /// A parameter (site attached to the entry block's boundary).
    Param,
    /// A landing pad's exception binding (top of the pad block).
    PadBind,
    /// The instruction at this index.
    Inst(u32),
    /// An invoke result (materializes on the normal edge out of `block`).
    InvokeResult,
}

/// One definition site of a local.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DefSite {
    /// The local defined.
    pub local: LocalId,
    /// The block holding the definition.
    pub block: BlockId,
    /// The position within the block.
    pub pos: DefPos,
}

/// A bitset over [`DefSite`] indices (the [`ReachingDefs`] state).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteSet {
    bits: Vec<u64>,
}

impl SiteSet {
    /// An empty set sized for `n` sites.
    pub fn new(n: usize) -> Self {
        SiteSet {
            bits: vec![0; n.div_ceil(64)],
        }
    }

    /// Inserts site `i`.
    pub fn insert(&mut self, i: u32) {
        self.bits[i as usize / 64] |= 1 << (i % 64);
    }

    /// Unions `other` into `self`.
    pub fn union_with(&mut self, other: &SiteSet) {
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= *b;
        }
    }

    /// Removes every site present in `other`.
    pub fn subtract(&mut self, other: &SiteSet) {
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= !*b;
        }
    }

    /// Iterates member indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            (0..64u32).filter_map(move |b| {
                if word & (1u64 << b) != 0 {
                    Some(w as u32 * 64 + b)
                } else {
                    None
                }
            })
        })
    }
}

/// Forward may-analysis: which definition sites of each local can reach a
/// program point. Construct with [`ReachingDefs::new`] (the instance
/// pre-numbers every site), solve via [`solve`] or the
/// [`ReachingDefs::compute`] convenience.
pub struct ReachingDefs {
    sites: Vec<DefSite>,
    /// Per local: all of its sites (the kill set of a new definition).
    kill: Vec<SiteSet>,
    /// Per block: site indices in execution order (pad bind, then insts).
    block_events: Vec<Vec<u32>>,
    /// Per block: the invoke-result site, if the terminator defines one.
    term_site: Vec<Option<u32>>,
    param_sites: Vec<u32>,
}

impl ReachingDefs {
    /// Numbers every definition site of `f`.
    pub fn new(f: &Function) -> Self {
        let mut sites = Vec::new();
        let mut param_sites = Vec::new();
        for p in f.params() {
            param_sites.push(sites.len() as u32);
            sites.push(DefSite {
                local: p,
                block: f.entry(),
                pos: DefPos::Param,
            });
        }
        let mut block_events = vec![Vec::new(); f.blocks.len()];
        let mut term_site = vec![None; f.blocks.len()];
        for (b, block) in f.iter_blocks() {
            if let Some(pad) = &block.pad {
                if let Some(d) = pad.dst {
                    block_events[b.index()].push(sites.len() as u32);
                    sites.push(DefSite {
                        local: d,
                        block: b,
                        pos: DefPos::PadBind,
                    });
                }
            }
            for (i, inst) in block.insts.iter().enumerate() {
                if let Some(d) = inst.def() {
                    block_events[b.index()].push(sites.len() as u32);
                    sites.push(DefSite {
                        local: d,
                        block: b,
                        pos: DefPos::Inst(i as u32),
                    });
                }
            }
            if let Some(d) = block.term.def() {
                term_site[b.index()] = Some(sites.len() as u32);
                sites.push(DefSite {
                    local: d,
                    block: b,
                    pos: DefPos::InvokeResult,
                });
            }
        }
        let mut kill = vec![SiteSet::new(sites.len()); f.locals.len()];
        for (i, s) in sites.iter().enumerate() {
            kill[s.local.index()].insert(i as u32);
        }
        ReachingDefs {
            sites,
            kill,
            block_events,
            term_site,
            param_sites,
        }
    }

    /// Solves reaching definitions for `f` and returns the instance
    /// (site table) alongside the per-block solution.
    pub fn compute(f: &Function, cfg: &Cfg) -> (Self, Solution<SiteSet>) {
        let a = Self::new(f);
        let sol = solve(&a, f, cfg);
        (a, sol)
    }

    /// The sites of `set` resolved against the site table.
    pub fn resolve<'a>(&'a self, set: &'a SiteSet) -> impl Iterator<Item = &'a DefSite> + 'a {
        set.iter().map(|i| &self.sites[i as usize])
    }
}

impl Analysis for ReachingDefs {
    type State = SiteSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, _f: &Function) -> SiteSet {
        let mut s = SiteSet::new(self.sites.len());
        for &i in &self.param_sites {
            s.insert(i);
        }
        s
    }

    fn top(&self, _f: &Function) -> SiteSet {
        SiteSet::new(self.sites.len())
    }

    fn join(&self, into: &mut SiteSet, other: &SiteSet) {
        into.union_with(other);
    }

    fn transfer(&self, _f: &Function, b: BlockId, state: &mut SiteSet) {
        for &i in &self.block_events[b.index()] {
            let l = self.sites[i as usize].local;
            state.subtract(&self.kill[l.index()]);
            state.insert(i);
        }
    }

    fn edge(&self, f: &Function, from: BlockId, to: BlockId, state: &mut SiteSet) {
        if let Some(i) = self.term_site[from.index()] {
            if let Term::Invoke { normal, .. } = &f.block(from).term {
                if *normal == to {
                    let l = self.sites[i as usize].local;
                    state.subtract(&self.kill[l.index()]);
                    state.insert(i);
                }
            }
        }
    }
}
