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
//! intersection) fixpoint. All states here are bitsets over locals, so
//! height is bounded by the function size and every solve is a handful of
//! passes in practice ([`Solution::iterations`] records the exact
//! block-visit count).
//!
//! On top of the framework this module provides the concrete instances the
//! semantic auditor ([`crate::audit`]) and `khaos-lint` share:
//! [`DefiniteInit`] (use-before-initialization), [`LiveVariables`] (the
//! framework form of [`crate::Liveness`]), [`dead_assignments`], and
//! [`unreachable_blocks`]/[`executable_blocks`]. The verifier's
//! def-before-use check, [`certainly_uninit_uses`], is one word-parallel
//! may-defined solve over locals outside the framework, in the style of
//! [`crate::Liveness::compute`]; the reaching-definitions pass it replaced
//! is kept in the `reference` module as its test oracle.

use crate::analysis::cfg::Cfg;
use crate::analysis::liveness::LocalSet;
use crate::function::Function;
use crate::ids::{BlockId, LocalId};
use crate::inst::{Operand, Term};
use std::collections::VecDeque;

#[cfg(test)]
mod reference;

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

/// Uses that **no** definition reaches on **any** path — certainly
/// uninitialized, as opposed to the maybe-uninitialized uses
/// [`use_before_init`] reports. The verifier flags the ones in address
/// positions.
///
/// The distinction matters under control-flow-merging obfuscation: deep
/// fusion interleaves blocks of two function bodies and re-dispatches on
/// the ctrl parameter, so a def on the ctrl=0 path stops dominating uses
/// that are dynamically ctrl=0-only. Those uses are maybe-uninit to the
/// path-insensitive must-analysis yet correct at run time. A use no def
/// reaches has no such excuse: the defining code was dropped or orphaned.
///
/// "Some def of `l` reaches this point" is the same fact as "`l` may be
/// defined here", so this is one forward union solve over locals, a word
/// at a time: `out[b] = in[b] | defs[b]`, where `defs[b]` holds the
/// locals `b`'s pad binding and instructions assign, and `in[b]` is the
/// union of `out[p]` over the reachable predecessors `p`, plus an
/// invoke's result on its normal edge only, plus the parameters at the
/// entry. Reachable blocks are swept in reverse postorder until nothing
/// changes; unreachable blocks keep an empty `out`. The walk then
/// reports uses block by block in reverse postorder, in instruction
/// order, terminator last.
pub fn certainly_uninit_uses(f: &Function, cfg: &Cfg) -> Vec<UseBeforeInit> {
    let w = f.locals.len().div_ceil(64);
    let set = |words: &mut [u64], l: LocalId| words[l.index() / 64] |= 1 << (l.index() % 64);
    let has = |words: &[u64], l: LocalId| {
        words
            .get(l.index() / 64)
            .is_some_and(|x| x & (1 << (l.index() % 64)) != 0)
    };
    let mut params = vec![0u64; w];
    for p in f.params() {
        set(&mut params, p);
    }
    let mut defs = vec![0u64; f.blocks.len() * w];
    for &b in cfg.rpo() {
        let d = &mut defs[b.index() * w..][..w];
        let block = f.block(b);
        if let Some(l) = block.pad.as_ref().and_then(|pad| pad.dst) {
            set(d, l);
        }
        for inst in &block.insts {
            if let Some(l) = inst.def() {
                set(d, l);
            }
        }
    }
    // `inn` becomes the may-defined set on entry to `b`, given the
    // current `out` of every block.
    let gather = |b: BlockId, out: &[u64], inn: &mut [u64]| {
        if b == f.entry() {
            inn.copy_from_slice(&params);
        } else {
            inn.fill(0);
        }
        for &p in cfg.preds(b) {
            if !cfg.is_reachable(p) {
                continue;
            }
            for (a, x) in inn.iter_mut().zip(&out[p.index() * w..][..w]) {
                *a |= x;
            }
            if let Term::Invoke {
                dst: Some(d),
                normal,
                ..
            } = &f.block(p).term
            {
                if *normal == b {
                    set(inn, *d);
                }
            }
        }
    };

    let mut out = vec![0u64; f.blocks.len() * w];
    let mut inn = vec![0u64; w];
    let mut changed = true;
    while changed {
        changed = false;
        for &b in cfg.rpo() {
            gather(b, &out, &mut inn);
            let (o, d) = (&mut out[b.index() * w..][..w], &defs[b.index() * w..][..w]);
            for i in 0..w {
                let nv = inn[i] | d[i];
                if nv != o[i] {
                    o[i] = nv;
                    changed = true;
                }
            }
        }
    }

    let mut flagged = Vec::new();
    for &b in cfg.rpo() {
        // `inn` tracks the locals some def reaches at the current point.
        gather(b, &out, &mut inn);
        let block = f.block(b);
        if let Some(l) = block.pad.as_ref().and_then(|pad| pad.dst) {
            set(&mut inn, l);
        }
        for (i, inst) in block.insts.iter().enumerate() {
            inst.for_each_use(|o| {
                if let Some(l) = o.as_local() {
                    if !has(&inn, l) {
                        flagged.push(UseBeforeInit {
                            block: b,
                            inst: Some(i),
                            local: l,
                        });
                    }
                }
            });
            if let Some(l) = inst.def() {
                set(&mut inn, l);
            }
        }
        block.term.for_each_use(|o| {
            if let Some(l) = o.as_local() {
                if !has(&inn, l) {
                    flagged.push(UseBeforeInit {
                        block: b,
                        inst: None,
                        local: l,
                    });
                }
            }
        });
    }
    flagged
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
    use super::reference::{
        self, def_before_use_violations, dominance_covers_all_uses, DefPos, ReachingDefs,
    };
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

    /// The may-defined solve against the reaching-defs reference; returns
    /// the flagged uses.
    fn certainly_uninit_matches_reference(f: &Function) -> Vec<UseBeforeInit> {
        let cfg = Cfg::compute(f);
        let got = certainly_uninit_uses(f, &cfg);
        assert_eq!(
            got,
            reference::certainly_uninit_uses(f, &cfg),
            "certainly_uninit_uses differs from the reference on {}",
            f.name
        );
        got
    }

    /// bb0 is the loop header: it reads `x`, which only bb1 (the latch)
    /// assigns, and bb2 reads `y`, which nothing assigns.
    fn entry_is_loop_header() -> (Function, LocalId) {
        let mut fb = FunctionBuilder::new("eh", Type::I64);
        let p = fb.add_param(Type::I64);
        let x = fb.new_local(Type::I64);
        let y = fb.new_local(Type::I64);
        let (latch, exit) = (fb.new_block(), fb.new_block());
        let c = fb.cmp(
            CmpPred::Slt,
            Type::I64,
            Operand::local(x),
            Operand::local(p),
        );
        fb.branch(Operand::local(c), latch, exit);
        fb.switch_to(latch);
        fb.copy_to(x, Operand::const_int(Type::I64, 1));
        fb.jump(BlockId(0));
        fb.switch_to(exit);
        let r = fb.bin(BinOp::Add, Type::I64, Operand::local(x), Operand::local(y));
        fb.ret(Some(Operand::local(r)));
        (fb.finish(), y)
    }

    /// 100 locals `xs`, each assigned in its own arm of a switch and all
    /// read at the join; only an unreachable block assigns `xs[90]`.
    fn wide_switch_with_orphaned_def() -> (Function, LocalId) {
        let mut fb = FunctionBuilder::new("ws", Type::I64);
        let p = fb.add_param(Type::I64);
        let xs: Vec<LocalId> = (0..100).map(|_| fb.new_local(Type::I64)).collect();
        let join = fb.new_block();
        let arms: Vec<BlockId> = xs.iter().map(|_| fb.new_block()).collect();
        let dead = fb.new_block();
        let cases = arms
            .iter()
            .enumerate()
            .map(|(k, &a)| (k as i64, a))
            .collect();
        fb.switch(Type::I64, Operand::local(p), cases, join);
        for (k, &a) in arms.iter().enumerate() {
            fb.switch_to(a);
            if k != 90 {
                fb.copy_to(xs[k], Operand::const_int(Type::I64, k as i64));
            }
            fb.jump(join);
        }
        fb.switch_to(dead);
        fb.copy_to(xs[90], Operand::const_int(Type::I64, 90));
        fb.jump(join);
        fb.switch_to(join);
        let mut sum = p;
        for &x in &xs {
            sum = fb.bin(
                BinOp::Add,
                Type::I64,
                Operand::local(sum),
                Operand::local(x),
            );
        }
        fb.ret(Some(Operand::local(sum)));
        (fb.finish(), xs[90])
    }

    /// bb0 branches to bb1 or straight to bb2; bb1 invokes with normal
    /// successor bb2, so bb2 has two in-edges and the result `r` reaches
    /// it on one. bb4 is unreachable and invokes with the same normal
    /// successor: its result `q` reaches nothing. bb2 reads both; the pad
    /// bb3 binds `e` and reads `r`, which no def reaches there.
    fn invoke_normal_shared_with_branch() -> (Function, LocalId, LocalId) {
        let mut fb = FunctionBuilder::new("inv2", Type::I64);
        let p = fb.add_param(Type::Ptr);
        let (call, join) = (fb.new_block(), fb.new_block());
        let e = fb.new_local(Type::I64);
        let pad = fb.new_pad_block(Some(e));
        let dead = fb.new_block();
        fb.branch(Operand::const_bool(true), call, join);
        fb.switch_to(call);
        let target = Callee::Indirect(Operand::local(p));
        let r = fb
            .invoke(target.clone(), Type::I64, vec![], join, pad)
            .expect("non-void invoke binds a result");
        fb.switch_to(dead);
        let q = fb
            .invoke(target, Type::I64, vec![], join, pad)
            .expect("non-void invoke binds a result");
        fb.switch_to(join);
        let s = fb.bin(BinOp::Add, Type::I64, Operand::local(r), Operand::local(q));
        fb.ret(Some(Operand::local(s)));
        fb.switch_to(pad);
        let t = fb.bin(BinOp::Add, Type::I64, Operand::local(e), Operand::local(r));
        fb.ret(Some(Operand::local(t)));
        (fb.finish(), r, q)
    }

    #[test]
    fn certainly_uninit_matches_reference_on_hand_built_cases() {
        for f in &[
            diamond_assign(),
            half_diamond_assign().0,
            wide_loop_with_pad_and_unreachable(),
        ] {
            assert!(
                certainly_uninit_matches_reference(f).is_empty(),
                "{}",
                f.name
            );
        }

        let (f, y) = entry_is_loop_header();
        let v = certainly_uninit_matches_reference(&f);
        assert_eq!(
            v,
            vec![UseBeforeInit {
                block: BlockId(2),
                inst: Some(0),
                local: y,
            }],
            "the back edge carries x into the entry; nothing assigns y"
        );

        let (f, orphan) = wide_switch_with_orphaned_def();
        assert!(f.locals.len() > 64);
        let v = certainly_uninit_matches_reference(&f);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].local, orphan);

        let (f, r, q) = invoke_normal_shared_with_branch();
        let mut flagged: Vec<(BlockId, LocalId)> = certainly_uninit_matches_reference(&f)
            .iter()
            .map(|u| (u.block, u.local))
            .collect();
        flagged.sort_by_key(|&(b, _)| b.index());
        assert_eq!(flagged, vec![(BlockId(2), q), (BlockId(3), r)]);
    }
}
