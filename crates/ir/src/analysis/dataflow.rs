//! A generic monotone dataflow framework over the CFG.
//!
//! The framework solves forward and backward dataflow problems with a
//! worklist seeded in reverse postorder (the order that converges fastest
//! for reducible flow graphs in either direction). An analysis supplies a
//! lattice — a [`Analysis::State`] with a [`Analysis::join`], a
//! [`Analysis::top`] element and a [`Analysis::boundary`] value — plus a
//! per-block [`Analysis::transfer`] function and an optional per-edge
//! refinement ([`Analysis::edge`], used for facts that hold on one CFG
//! edge only, such as an invoke result existing only on the normal edge).
//!
//! **Lattice contract.** `join` must be commutative, associative and
//! idempotent; `transfer` and `edge` must be monotone with respect to the
//! join order; and the state space must have finite height. Under that
//! contract [`solve`] terminates at the unique least (for may-problems) or
//! greatest (for must-problems, where `top` is the full set and `join` is
//! intersection) fixpoint. All states here are bitsets over locals or def
//! sites, so height is bounded by the function size and every solve is a
//! handful of passes in practice ([`Solution::iterations`] records the
//! exact block-visit count).
//!
//! On top of the framework this module provides the concrete instances the
//! semantic auditor ([`crate::audit`]), the verifier and `khaos-lint`
//! share: [`ReachingDefs`], [`DefiniteInit`] (use-before-initialization),
//! [`LiveVariables`] (the framework form of [`crate::Liveness`]),
//! [`dead_assignments`], [`unreachable_blocks`]/[`executable_blocks`], and
//! the dominance-checked def-before-use pass
//! ([`def_before_use_violations`]) built on [`crate::DomTree`].

use crate::analysis::cfg::Cfg;
use crate::analysis::dom::DomTree;
use crate::analysis::liveness::LocalSet;
use crate::function::Function;
use crate::ids::{BlockId, LocalId};
use crate::inst::{Operand, Term};
use std::collections::VecDeque;

/// Which way facts propagate through the CFG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from predecessors to successors (entry seeds the solve).
    Forward,
    /// Facts flow from successors to predecessors (exits seed the solve).
    Backward,
}

/// One monotone dataflow problem (see the module docs for the lattice
/// contract).
pub trait Analysis {
    /// The lattice element attached to each block boundary.
    type State: Clone + PartialEq;

    /// The propagation direction.
    fn direction(&self) -> Direction;

    /// The state at the flow boundary: function entry for forward
    /// problems, every exit block for backward problems.
    fn boundary(&self, f: &Function) -> Self::State;

    /// The optimistic initial state of interior blocks (the lattice top:
    /// the full set for intersection joins, the empty set for unions).
    fn top(&self, f: &Function) -> Self::State;

    /// Merges `other` into `into` (the lattice join).
    fn join(&self, into: &mut Self::State, other: &Self::State);

    /// Applies block `b`'s effect to `state` in place (in state → out
    /// state for forward problems, out state → in state for backward).
    fn transfer(&self, f: &Function, b: BlockId, state: &mut Self::State);

    /// Refines the state crossing the CFG edge `from → to` (applied to a
    /// copy of the source state before joining, in both directions).
    /// Default: no refinement.
    fn edge(&self, _f: &Function, _from: BlockId, _to: BlockId, _state: &mut Self::State) {}
}

/// The fixpoint of a dataflow solve: per-block in/out states.
///
/// Unreachable blocks keep their [`Analysis::top`] state — callers that
/// walk results should restrict themselves to [`Cfg::rpo`].
#[derive(Clone, Debug)]
pub struct Solution<S> {
    /// State at each block's entry.
    pub block_in: Vec<S>,
    /// State at each block's exit.
    pub block_out: Vec<S>,
    /// Number of block visits the worklist performed before converging.
    pub iterations: usize,
}

/// Runs `a` over `f` to its fixpoint with a worklist seeded in reverse
/// postorder (forward) or postorder (backward).
pub fn solve<A: Analysis>(a: &A, f: &Function, cfg: &Cfg) -> Solution<A::State> {
    match a.direction() {
        Direction::Forward => solve_forward(a, f, cfg),
        Direction::Backward => solve_backward(a, f, cfg),
    }
}

fn solve_forward<A: Analysis>(a: &A, f: &Function, cfg: &Cfg) -> Solution<A::State> {
    let n = f.blocks.len();
    let mut block_in: Vec<A::State> = (0..n).map(|_| a.top(f)).collect();
    let mut block_out: Vec<A::State> = (0..n).map(|_| a.top(f)).collect();
    let mut queue: VecDeque<BlockId> = cfg.rpo().iter().copied().collect();
    let mut queued = vec![false; n];
    for &b in cfg.rpo() {
        queued[b.index()] = true;
    }
    let mut iterations = 0;
    while let Some(b) = queue.pop_front() {
        queued[b.index()] = false;
        iterations += 1;
        let bi = b.index();
        let mut acc: Option<A::State> = if b == f.entry() {
            Some(a.boundary(f))
        } else {
            None
        };
        for &p in cfg.preds(b) {
            if !cfg.is_reachable(p) {
                continue;
            }
            let mut s = block_out[p.index()].clone();
            a.edge(f, p, b, &mut s);
            match &mut acc {
                None => acc = Some(s),
                Some(x) => a.join(x, &s),
            }
        }
        let inn = acc.unwrap_or_else(|| a.boundary(f));
        let mut out = inn.clone();
        a.transfer(f, b, &mut out);
        block_in[bi] = inn;
        if out != block_out[bi] {
            block_out[bi] = out;
            f.block(b).term.for_each_successor(|s| {
                if cfg.is_reachable(s) && !queued[s.index()] {
                    queued[s.index()] = true;
                    queue.push_back(s);
                }
            });
        }
    }
    Solution {
        block_in,
        block_out,
        iterations,
    }
}

fn solve_backward<A: Analysis>(a: &A, f: &Function, cfg: &Cfg) -> Solution<A::State> {
    let n = f.blocks.len();
    let mut block_in: Vec<A::State> = (0..n).map(|_| a.top(f)).collect();
    let mut block_out: Vec<A::State> = (0..n).map(|_| a.top(f)).collect();
    let mut queue: VecDeque<BlockId> = cfg.rpo().iter().rev().copied().collect();
    let mut queued = vec![false; n];
    for &b in cfg.rpo() {
        queued[b.index()] = true;
    }
    let mut iterations = 0;
    while let Some(b) = queue.pop_front() {
        queued[b.index()] = false;
        iterations += 1;
        let bi = b.index();
        let mut acc: Option<A::State> = None;
        f.block(b).term.for_each_successor(|s| {
            let mut st = block_in[s.index()].clone();
            a.edge(f, b, s, &mut st);
            match &mut acc {
                None => acc = Some(st),
                Some(x) => a.join(x, &st),
            }
        });
        let out = acc.unwrap_or_else(|| a.boundary(f));
        let mut inn = out.clone();
        a.transfer(f, b, &mut inn);
        block_out[bi] = out;
        if inn != block_in[bi] {
            block_in[bi] = inn;
            for &p in cfg.preds(b) {
                if cfg.is_reachable(p) && !queued[p.index()] {
                    queued[p.index()] = true;
                    queue.push_back(p);
                }
            }
        }
    }
    Solution {
        block_in,
        block_out,
        iterations,
    }
}

// ---------------------------------------------------------------------------
// Definite assignment (use-before-initialization).
// ---------------------------------------------------------------------------

/// Forward must-analysis: the set of locals definitely assigned on every
/// path from the entry. Parameters are assigned at the boundary; a landing
/// pad's binding is assigned at the pad's top; an invoke result is
/// assigned on the normal edge only (the [`Analysis::edge`] hook).
pub struct DefiniteInit;

impl Analysis for DefiniteInit {
    type State = LocalSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, f: &Function) -> LocalSet {
        let mut s = LocalSet::new(f.locals.len());
        for p in f.params() {
            s.insert(p);
        }
        s
    }

    fn top(&self, f: &Function) -> LocalSet {
        LocalSet::full(f.locals.len())
    }

    fn join(&self, into: &mut LocalSet, other: &LocalSet) {
        into.intersect_with(other);
    }

    fn transfer(&self, f: &Function, b: BlockId, state: &mut LocalSet) {
        let block = f.block(b);
        if let Some(pad) = &block.pad {
            if let Some(d) = pad.dst {
                state.insert(d);
            }
        }
        for inst in &block.insts {
            if let Some(d) = inst.def() {
                state.insert(d);
            }
        }
    }

    fn edge(&self, f: &Function, from: BlockId, to: BlockId, state: &mut LocalSet) {
        if let Term::Invoke {
            dst: Some(d),
            normal,
            ..
        } = &f.block(from).term
        {
            if *normal == to {
                state.insert(*d);
            }
        }
    }
}

/// A read of a local that some entry path reaches before any assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UseBeforeInit {
    /// Block containing the use.
    pub block: BlockId,
    /// Instruction index within the block, or `None` for the terminator.
    pub inst: Option<usize>,
    /// The local read.
    pub local: LocalId,
}

/// Every use of a possibly-uninitialized local in the reachable region,
/// judged by the [`DefiniteInit`] must-analysis.
pub fn use_before_init(f: &Function, cfg: &Cfg) -> Vec<UseBeforeInit> {
    let sol = solve(&DefiniteInit, f, cfg);
    let mut out = Vec::new();
    for &b in cfg.rpo() {
        let mut assigned = sol.block_in[b.index()].clone();
        let block = f.block(b);
        if let Some(pad) = &block.pad {
            if let Some(d) = pad.dst {
                assigned.insert(d);
            }
        }
        for (i, inst) in block.insts.iter().enumerate() {
            inst.for_each_use(|o| {
                if let Some(l) = o.as_local() {
                    if !assigned.contains(l) {
                        out.push(UseBeforeInit {
                            block: b,
                            inst: Some(i),
                            local: l,
                        });
                    }
                }
            });
            if let Some(d) = inst.def() {
                assigned.insert(d);
            }
        }
        block.term.for_each_use(|o| {
            if let Some(l) = o.as_local() {
                if !assigned.contains(l) {
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

/// The dominance-checked def-before-use pass the verifier runs.
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
fn dominance_covers_all_uses(f: &Function, cfg: &Cfg) -> bool {
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

/// Uses that **no** definition reaches on **any** path — certainly
/// uninitialized, as opposed to the maybe-uninitialized uses
/// [`use_before_init`] reports.
///
/// The distinction matters under control-flow-merging obfuscation: deep
/// fusion interleaves blocks of two function bodies and re-dispatches on
/// the ctrl parameter, so a def on the ctrl=0 path stops dominating uses
/// that are dynamically ctrl=0-only. Those uses are maybe-uninit to the
/// path-insensitive must-analysis yet correct at run time. A use with an
/// *empty* reaching-def set has no such excuse: the defining code was
/// dropped or orphaned. Built on [`ReachingDefs`], with the same
/// dominance fast path as [`def_before_use_violations`].
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

    /// Membership test.
    pub fn contains(&self, i: u32) -> bool {
        self.bits
            .get(i as usize / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
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

    /// The numbered sites, indexable by the bits of a [`SiteSet`].
    pub fn sites(&self) -> &[DefSite] {
        &self.sites
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

// ---------------------------------------------------------------------------
// Live variables (the framework form of `Liveness`) and dead stores.
// ---------------------------------------------------------------------------

/// Backward may-analysis: locals whose current value may still be read.
/// Equivalent to [`crate::Liveness`] (pinned by a test there); exists as a
/// framework instance so backward problems have a reference
/// implementation.
pub struct LiveVariables;

impl Analysis for LiveVariables {
    type State = LocalSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self, f: &Function) -> LocalSet {
        LocalSet::new(f.locals.len())
    }

    fn top(&self, f: &Function) -> LocalSet {
        LocalSet::new(f.locals.len())
    }

    fn join(&self, into: &mut LocalSet, other: &LocalSet) {
        into.union_with(other);
    }

    fn transfer(&self, f: &Function, b: BlockId, state: &mut LocalSet) {
        let block = f.block(b);
        if let Some(d) = block.term.def() {
            state.remove(d);
        }
        block.term.for_each_use(|o| {
            if let Some(l) = o.as_local() {
                state.insert(l);
            }
        });
        for inst in block.insts.iter().rev() {
            if let Some(d) = inst.def() {
                state.remove(d);
            }
            inst.for_each_use(|o| {
                if let Some(l) = o.as_local() {
                    state.insert(l);
                }
            });
        }
        if let Some(pad) = &block.pad {
            if let Some(d) = pad.dst {
                state.remove(d);
            }
        }
    }
}

/// An assignment whose value no path ever reads before redefinition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadAssignment {
    /// Block containing the assignment.
    pub block: BlockId,
    /// Instruction index within the block.
    pub inst: usize,
    /// The local assigned.
    pub local: LocalId,
    /// True when deleting the instruction is safe (pure, no side effects);
    /// false for dead call results and other effectful definitions.
    pub removable: bool,
}

/// Dead-store analysis over locals: every reachable assignment whose value
/// is never read before the local is reassigned or the function exits.
pub fn dead_assignments(f: &Function, cfg: &Cfg) -> Vec<DeadAssignment> {
    let sol = solve(&LiveVariables, f, cfg);
    let mut out = Vec::new();
    for &b in cfg.rpo() {
        let block = f.block(b);
        let mut live = sol.block_out[b.index()].clone();
        if let Some(d) = block.term.def() {
            live.remove(d);
        }
        block.term.for_each_use(|o| {
            if let Some(l) = o.as_local() {
                live.insert(l);
            }
        });
        for (i, inst) in block.insts.iter().enumerate().rev() {
            if let Some(d) = inst.def() {
                if !live.contains(d) {
                    out.push(DeadAssignment {
                        block: b,
                        inst: i,
                        local: d,
                        removable: inst.is_pure(),
                    });
                }
                live.remove(d);
            }
            inst.for_each_use(|o| {
                if let Some(l) = o.as_local() {
                    live.insert(l);
                }
            });
        }
    }
    out.sort_by_key(|d| (d.block.index(), d.inst));
    out
}

// ---------------------------------------------------------------------------
// Reachability: structurally unreachable and statically executable blocks.
// ---------------------------------------------------------------------------

/// Blocks no CFG path from the entry reaches (candidates for removal;
/// `simplifycfg` deletes them).
pub fn unreachable_blocks(f: &Function, cfg: &Cfg) -> Vec<BlockId> {
    f.iter_blocks()
        .map(|(b, _)| b)
        .filter(|&b| !cfg.is_reachable(b))
        .collect()
}

/// Per-block flag: can any execution reach this block, following only
/// *feasible* edges — a branch or switch on a constant takes exactly its
/// decided edge. This is the reachability notion the semantic auditor
/// compares under: it is stable when a pass folds a constant branch and
/// prunes the dead arm, because the arm was already infeasible here.
pub fn executable_blocks(f: &Function) -> Vec<bool> {
    let mut exec = vec![false; f.blocks.len()];
    let mut stack = vec![f.entry()];
    exec[f.entry().index()] = true;
    while let Some(b) = stack.pop() {
        let visit = |t: BlockId, exec: &mut Vec<bool>, stack: &mut Vec<BlockId>| {
            if !exec[t.index()] {
                exec[t.index()] = true;
                stack.push(t);
            }
        };
        match &f.block(b).term {
            Term::Branch {
                cond: Operand::Const(c),
                then_bb,
                else_bb,
            } => match c.normalized() {
                Some(0) => visit(*else_bb, &mut exec, &mut stack),
                Some(_) => visit(*then_bb, &mut exec, &mut stack),
                None => {
                    visit(*then_bb, &mut exec, &mut stack);
                    visit(*else_bb, &mut exec, &mut stack);
                }
            },
            Term::Switch {
                value: Operand::Const(c),
                cases,
                default,
                ..
            } => match c.normalized() {
                Some(v) => {
                    let t = cases
                        .iter()
                        .find(|(k, _)| *k == v)
                        .map(|(_, t)| *t)
                        .unwrap_or(*default);
                    visit(t, &mut exec, &mut stack);
                }
                None => {
                    for (_, t) in cases {
                        visit(*t, &mut exec, &mut stack);
                    }
                    visit(*default, &mut exec, &mut stack);
                }
            },
            t => t.for_each_successor(|s| visit(s, &mut exec, &mut stack)),
        }
    }
    exec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::liveness::Liveness;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Callee, CmpPred};
    use crate::types::Type;

    /// `x` assigned in both arms of a diamond, used at the join: the
    /// legal non-SSA shape with no single dominating def.
    fn diamond_assign() -> Function {
        let mut fb = FunctionBuilder::new("d", Type::I64);
        let p = fb.add_param(Type::I64);
        let x = fb.new_local(Type::I64);
        let t = fb.new_block();
        let e = fb.new_block();
        let j = fb.new_block();
        let c = fb.cmp(
            CmpPred::Sgt,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 0),
        );
        fb.branch(Operand::local(c), t, e);
        fb.switch_to(t);
        fb.copy_to(x, Operand::const_int(Type::I64, 1));
        fb.jump(j);
        fb.switch_to(e);
        fb.copy_to(x, Operand::const_int(Type::I64, 2));
        fb.jump(j);
        fb.switch_to(j);
        fb.ret(Some(Operand::local(x)));
        fb.finish()
    }

    /// `x` assigned in only one arm, used at the join: maybe-uninit.
    /// Returns the function and `x`.
    fn half_diamond_assign() -> (Function, LocalId) {
        let mut fb = FunctionBuilder::new("h", Type::I64);
        let p = fb.add_param(Type::I64);
        let x = fb.new_local(Type::I64);
        let t = fb.new_block();
        let e = fb.new_block();
        let j = fb.new_block();
        let c = fb.cmp(
            CmpPred::Sgt,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 0),
        );
        fb.branch(Operand::local(c), t, e);
        fb.switch_to(t);
        fb.copy_to(x, Operand::const_int(Type::I64, 1));
        fb.jump(j);
        fb.switch_to(e);
        fb.jump(j);
        fb.switch_to(j);
        fb.ret(Some(Operand::local(x)));
        (fb.finish(), x)
    }

    #[test]
    fn definite_init_accepts_the_diamond() {
        let f = diamond_assign();
        let cfg = Cfg::compute(&f);
        assert!(use_before_init(&f, &cfg).is_empty());
        assert!(def_before_use_violations(&f, &cfg).is_empty());
    }

    #[test]
    fn definite_init_flags_the_half_diamond() {
        let (f, x) = half_diamond_assign();
        let cfg = Cfg::compute(&f);
        let v = use_before_init(&f, &cfg);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].local, x);
        assert_eq!(v[0].inst, None, "the use is the ret terminator");
        assert_eq!(def_before_use_violations(&f, &cfg), v);
    }

    #[test]
    fn dominating_def_fast_path_accepts_straight_line() {
        let mut fb = FunctionBuilder::new("s", Type::I64);
        let p = fb.add_param(Type::I64);
        let r = fb.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 1),
        );
        fb.ret(Some(Operand::local(r)));
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        assert!(dominance_covers_all_uses(&f, &cfg));
        assert!(def_before_use_violations(&f, &cfg).is_empty());
    }

    /// A loop over more than one word of locals (each iteration's sum of
    /// 70 products, half of them dead), an invoke whose landing pad binds
    /// the exception, and a block no edge reaches.
    fn wide_loop_with_pad_and_unreachable() -> Function {
        let mut fb = FunctionBuilder::new("w", Type::I64);
        let p = fb.add_param(Type::I64);
        let acc = fb.new_local(Type::I64);
        let (h, body, call, exit) = (
            fb.new_block(),
            fb.new_block(),
            fb.new_block(),
            fb.new_block(),
        );
        let exc = fb.new_local(Type::I64);
        let pad = fb.new_pad_block(Some(exc));
        let dead = fb.new_block();
        fb.copy_to(acc, Operand::const_int(Type::I64, 0));
        fb.jump(h);
        fb.switch_to(h);
        let c = fb.cmp(
            CmpPred::Slt,
            Type::I64,
            Operand::local(acc),
            Operand::local(p),
        );
        fb.branch(Operand::local(c), body, call);
        fb.switch_to(body);
        let mut sum = acc;
        for i in 0..70 {
            let v = fb.bin(
                BinOp::Mul,
                Type::I64,
                Operand::local(acc),
                Operand::const_int(Type::I64, i),
            );
            if i % 2 == 0 {
                sum = fb.bin(
                    BinOp::Add,
                    Type::I64,
                    Operand::local(sum),
                    Operand::local(v),
                );
            }
        }
        fb.copy_to(acc, Operand::local(sum));
        fb.jump(h);
        fb.switch_to(call);
        let r = fb
            .invoke(
                Callee::Indirect(Operand::local(p)),
                Type::I64,
                vec![Operand::local(acc)],
                exit,
                pad,
            )
            .expect("non-void invoke binds a result");
        fb.switch_to(exit);
        fb.ret(Some(Operand::local(r)));
        fb.switch_to(pad);
        fb.ret(Some(Operand::local(exc)));
        fb.switch_to(dead);
        let u = fb.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(sum),
            Operand::local(exc),
        );
        fb.ret(Some(Operand::local(u)));
        let f = fb.finish();
        assert!(f.locals.len() > 64);
        f
    }

    #[test]
    fn live_variables_matches_liveness() {
        // `tests/liveness_quick.rs` runs the same check over the `--quick`
        // programs after `fufi_all` and after `fla`.
        for f in &[
            diamond_assign(),
            half_diamond_assign().0,
            wide_loop_with_pad_and_unreachable(),
        ] {
            let cfg = Cfg::compute(f);
            let lv = Liveness::compute(f, &cfg);
            let sol = solve(&LiveVariables, f, &cfg);
            // Unreachable blocks too: neither side sweeps them.
            for (b, _) in f.iter_blocks() {
                assert_eq!(
                    &sol.block_in[b.index()],
                    lv.live_in(b),
                    "in {b} of {}",
                    f.name
                );
                assert_eq!(
                    &sol.block_out[b.index()],
                    lv.live_out(b),
                    "out {b} of {}",
                    f.name
                );
            }
        }
    }

    #[test]
    fn reaching_defs_merge_at_join() {
        let f = diamond_assign();
        let cfg = Cfg::compute(&f);
        let (rd, sol) = ReachingDefs::compute(&f, &cfg);
        let x = LocalId(1);
        // Both arm defs of x reach the join block's entry.
        let join = BlockId(3);
        let reaching: Vec<_> = rd
            .resolve(&sol.block_in[join.index()])
            .filter(|s| s.local == x)
            .map(|s| s.block)
            .collect();
        assert_eq!(reaching, vec![BlockId(1), BlockId(2)]);
        // The param def site reaches everywhere.
        let p = LocalId(0);
        assert!(rd
            .resolve(&sol.block_in[join.index()])
            .any(|s| s.local == p && s.pos == DefPos::Param));
    }

    #[test]
    fn reaching_defs_kill_in_block() {
        let mut fb = FunctionBuilder::new("k", Type::I64);
        let x = fb.new_local(Type::I64);
        fb.copy_to(x, Operand::const_int(Type::I64, 1));
        fb.copy_to(x, Operand::const_int(Type::I64, 2));
        fb.ret(Some(Operand::local(x)));
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let (rd, sol) = ReachingDefs::compute(&f, &cfg);
        let out: Vec<_> = rd.resolve(&sol.block_out[0]).collect();
        assert_eq!(out.len(), 1, "second copy kills the first");
        assert_eq!(out[0].pos, DefPos::Inst(1));
    }

    #[test]
    fn dead_assignment_detected_and_killed_overwrite() {
        let mut fb = FunctionBuilder::new("ds", Type::I64);
        let x = fb.new_local(Type::I64);
        let y = fb.new_local(Type::I64);
        fb.copy_to(x, Operand::const_int(Type::I64, 1)); // dead: overwritten
        fb.copy_to(x, Operand::const_int(Type::I64, 2));
        fb.copy_to(y, Operand::const_int(Type::I64, 3)); // dead: never read
        fb.ret(Some(Operand::local(x)));
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let dead = dead_assignments(&f, &cfg);
        assert_eq!(dead.len(), 2, "{dead:?}");
        assert_eq!((dead[0].inst, dead[0].local), (0, x));
        assert_eq!((dead[1].inst, dead[1].local), (2, y));
        assert!(dead.iter().all(|d| d.removable));
    }

    #[test]
    fn executable_blocks_prune_const_branches() {
        let mut fb = FunctionBuilder::new("cb", Type::I64);
        let t = fb.new_block();
        let e = fb.new_block();
        fb.branch(Operand::const_bool(true), t, e);
        fb.switch_to(t);
        fb.ret(Some(Operand::const_int(Type::I64, 1)));
        fb.switch_to(e);
        fb.ret(Some(Operand::const_int(Type::I64, 2)));
        let f = fb.finish();
        let exec = executable_blocks(&f);
        assert_eq!(exec, vec![true, true, false]);
        // The structural notion still sees both arms.
        let cfg = Cfg::compute(&f);
        assert!(cfg.is_reachable(BlockId(2)));
        assert!(unreachable_blocks(&f, &cfg).is_empty());
    }

    #[test]
    fn invoke_result_assigned_on_normal_edge_only() {
        let mut m = crate::module::Module::new("inv");
        let mut callee = FunctionBuilder::new("callee", Type::I64);
        callee.ret(Some(Operand::const_int(Type::I64, 7)));
        let cid = m.push_function(callee.finish());
        let mut fb = FunctionBuilder::new("f", Type::I64);
        let normal = fb.new_block();
        let pad = fb.new_pad_block(None);
        let r = fb
            .invoke(Callee::Direct(cid), Type::I64, vec![], normal, pad)
            .unwrap();
        fb.switch_to(normal);
        fb.ret(Some(Operand::local(r)));
        fb.switch_to(pad);
        // Using the invoke result on the unwind path is a violation.
        fb.ret(Some(Operand::local(r)));
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let v = use_before_init(&f, &cfg);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].block, BlockId(2));
        assert_eq!(def_before_use_violations(&f, &cfg), v);
    }

    #[test]
    fn solver_iteration_count_is_reported() {
        let f = diamond_assign();
        let cfg = Cfg::compute(&f);
        let sol = solve(&DefiniteInit, &f, &cfg);
        assert!(sol.iterations >= cfg.reachable_count());
    }

    #[test]
    fn loop_carried_assignment_is_not_definite() {
        // entry -> header; header branches to body or exit; body assigns x
        // and loops; exit reads x. x is unassigned on the first header
        // visit, so the exit read is maybe-uninit.
        let mut fb = FunctionBuilder::new("lp", Type::I64);
        let p = fb.add_param(Type::I64);
        let x = fb.new_local(Type::I64);
        let h = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.jump(h);
        fb.switch_to(h);
        let c = fb.cmp(
            CmpPred::Sgt,
            Type::I64,
            Operand::local(p),
            Operand::const_int(Type::I64, 0),
        );
        fb.branch(Operand::local(c), body, exit);
        fb.switch_to(body);
        fb.copy_to(x, Operand::const_int(Type::I64, 9));
        fb.jump(h);
        fb.switch_to(exit);
        fb.ret(Some(Operand::local(x)));
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let v = use_before_init(&f, &cfg);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].local, x);
    }
}
