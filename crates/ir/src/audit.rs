//! Semantic audit: observable-behavior summaries and the before/after
//! check (`VerifyPolicy::AuditAfterEach`) that every pipeline can run.
//!
//! [`verify_module`](crate::verify::verify_module) proves a module is
//! *well-formed*; it cannot tell that a pass silently dropped a store,
//! rewired a call, or orphaned an effectful block. This module adds that
//! layer: [`ModuleSummary::compute`] distills a module's observable
//! behavior — per audit root (exported functions and `main`), the
//! call-graph-reachable external-call set, global read/write/escape sets,
//! and signature/linkage facts — and [`ModuleSummary::diff`] compares the
//! summaries taken before and after a transformation, reporting each
//! violation as a structured [`AuditDiagnostic`].
//!
//! **Comparison direction.** Summaries are *may*-behavior over
//! statically-executable code ([`executable_blocks`]), and the legal
//! transforms in this repo only ever grow that approximation: fusion
//! merges two bodies behind a ctrl dispatch (each caller now may-reaches
//! both effect domains), bogus control flow adds junk clones of real
//! effects plus writes to fresh opaque globals. A transform is therefore
//! flagged when an effect *disappears* — every before-effect must still
//! be present after — while new effects are tolerated. All three
//! miscompile classes the auditor is tested against (dropped stores,
//! retargeted calls, orphaned blocks) manifest as missing effects, so the
//! one-sided check loses no detection power. Exported signatures are
//! compared exactly in both directions: the linker surface may not drift.
//!
//! **Comparison granularity.** Effect lanes are compared on the *module*
//! closure; only signature/linkage facts are compared per root. Per-root
//! effect attribution is legitimately non-monotone under the optimizer:
//! the inliner specializes a callee body with one root's constant
//! arguments (a fused function's ctrl dispatch is the canonical case),
//! constant propagation folds the now-decidable guard, and the guarded
//! effect becomes statically dead for that root while remaining live
//! elsewhere — observed on every workload suite. The module closure is
//! stable under every legal pass (an effect leaves it only when *no*
//! root can reach it, which legal passes never cause) and still catches
//! the mutation classes, each of which removes an effect's last
//! reachable occurrence. The per-root [`ModuleSummary::roots`] map stays
//! available for reporting (`khaos-lint` prints it); it just is not a
//! pass/fail criterion.

use crate::analysis::dataflow::executable_blocks;
use crate::function::Linkage;
use crate::inst::{Callee, Inst, Operand, Term};
use crate::module::{GInit, Module};
use crate::types::Type;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

pub mod mutation;

/// Which audited fact a diagnostic violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditKind {
    /// Exported function set / signature / linkage drift.
    Interface,
    /// A reachable external call disappeared.
    ExtCalls,
    /// A reachable global read disappeared.
    GlobalReads,
    /// A reachable global write disappeared.
    GlobalWrites,
    /// A reachable global-address escape disappeared.
    GlobalEscapes,
}

impl fmt::Display for AuditKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AuditKind::Interface => "interface",
            AuditKind::ExtCalls => "ext-calls",
            AuditKind::GlobalReads => "global-reads",
            AuditKind::GlobalWrites => "global-writes",
            AuditKind::GlobalEscapes => "global-escapes",
        };
        f.write_str(s)
    }
}

/// One audited-behavior violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditDiagnostic {
    /// The audit root the violation was observed from (`None` =
    /// module-wide root).
    pub function: Option<String>,
    /// The violated fact class.
    pub kind: AuditKind,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for AuditDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.function {
            Some(func) => write!(f, "[{}] root {func}: {}", self.kind, self.detail),
            None => write!(f, "[{}] module: {}", self.kind, self.detail),
        }
    }
}

impl std::error::Error for AuditDiagnostic {}

/// The observable effects reachable from one audit root.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EffectSet {
    /// Names of external functions that may be called.
    pub ext_calls: BTreeSet<String>,
    /// Names of globals that may be read.
    pub global_reads: BTreeSet<String>,
    /// Names of globals that may be written.
    pub global_writes: BTreeSet<String>,
    /// Names of globals whose address may escape (stored to memory,
    /// passed to an external or indirect callee, or returned by a root).
    pub global_escapes: BTreeSet<String>,
}

impl EffectSet {
    fn union_with(&mut self, o: &EffectSet) {
        self.ext_calls.extend(o.ext_calls.iter().cloned());
        self.global_reads.extend(o.global_reads.iter().cloned());
        self.global_writes.extend(o.global_writes.iter().cloned());
        self.global_escapes.extend(o.global_escapes.iter().cloned());
    }

    /// Elements of `self` absent from `other` (the dropped effects), as
    /// (kind, name) pairs.
    fn missing_from(&self, other: &EffectSet) -> Vec<(AuditKind, String)> {
        let mut out = Vec::new();
        let lanes = [
            (AuditKind::ExtCalls, &self.ext_calls, &other.ext_calls),
            (
                AuditKind::GlobalReads,
                &self.global_reads,
                &other.global_reads,
            ),
            (
                AuditKind::GlobalWrites,
                &self.global_writes,
                &other.global_writes,
            ),
            (
                AuditKind::GlobalEscapes,
                &self.global_escapes,
                &other.global_escapes,
            ),
        ];
        for (kind, mine, theirs) in lanes {
            for name in mine.difference(theirs) {
                out.push((kind, name.clone()));
            }
        }
        out
    }
}

/// Linker-surface facts of one exported function (or `main`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SigFacts {
    /// Parameter types.
    pub params: Vec<Type>,
    /// Return type.
    pub ret_ty: Type,
    /// Variadic flag.
    pub variadic: bool,
    /// True when the function is `Linkage::Exported` (false only for a
    /// non-exported `main`).
    pub exported: bool,
}

/// A module's audited observable behavior.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuleSummary {
    /// Signature facts per audit root, keyed by function name.
    pub sigs: BTreeMap<String, SigFacts>,
    /// Reachable effects per audit root, keyed by function name.
    pub roots: BTreeMap<String, EffectSet>,
    /// Effects reachable from the module-wide pseudo-root: every audit
    /// root plus every address-taken function.
    pub module_effects: EffectSet,
    /// Names of the module's globals.
    pub global_names: BTreeSet<String>,
}

/// Per-function facts shared by the summary and the mutation generators.
pub(crate) struct FnFacts {
    /// Intra-function effects over executable blocks.
    pub effects: EffectSet,
    /// Directly-called function indices (executable call/invoke sites).
    pub callees: BTreeSet<usize>,
    /// True when an executable indirect call/invoke exists.
    pub has_indirect_call: bool,
    /// Per-local set of global ids the local may point to.
    pub ptr: Vec<BTreeSet<usize>>,
    /// Per-block static executability ([`executable_blocks`]).
    pub exec: Vec<bool>,
    /// Function indices whose address is taken here (executable code).
    pub taken: BTreeSet<usize>,
}

pub(crate) struct ModuleFacts {
    pub fns: Vec<FnFacts>,
    /// Address-taken functions: executable `FuncAddr` sites plus
    /// `GInit::FuncPtr` initializers.
    pub address_taken: BTreeSet<usize>,
    /// Audit-root function indices (exported or named `main`).
    pub root_fns: Vec<usize>,
}

fn operand_globals<'a>(ptr: &'a [BTreeSet<usize>], o: &Operand) -> Option<&'a BTreeSet<usize>> {
    o.as_local()
        .map(|l| &ptr[l.index()])
        .filter(|s| !s.is_empty())
}

impl ModuleFacts {
    pub(crate) fn compute(m: &Module) -> ModuleFacts {
        let n = m.functions.len();
        let exec: Vec<Vec<bool>> = m.functions.iter().map(executable_blocks).collect();
        let mut ptr: Vec<Vec<BTreeSet<usize>>> = m
            .functions
            .iter()
            .map(|f| vec![BTreeSet::new(); f.locals.len()])
            .collect();
        let mut ret_globals: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];

        // Flow-insensitive global-pointer propagation to a module-wide
        // fixpoint. Interprocedural flow covers both directions fission
        // and inline move pointers: direct-call arguments seed callee
        // parameters, direct-call results receive the callee's return
        // set. Loads never yield global pointers (no initializer form
        // stores a global's address), so the chains stay register-level.
        let mut changed = true;
        while changed {
            changed = false;
            for (fi, f) in m.functions.iter().enumerate() {
                // (callee, param index, globals) updates applied after the
                // scan of this function, so `ptr[fi]` can be borrowed.
                let mut pending: Vec<(usize, usize, BTreeSet<usize>)> = Vec::new();
                let mut pending_ret: BTreeSet<usize> = BTreeSet::new();
                let pf = &mut ptr[fi];
                let flow = |dst: crate::ids::LocalId,
                            srcs: &[&Operand],
                            pf: &mut Vec<BTreeSet<usize>>,
                            changed: &mut bool| {
                    let mut add: BTreeSet<usize> = BTreeSet::new();
                    for s in srcs {
                        if let Some(g) = operand_globals(pf, s) {
                            add.extend(g.iter().copied());
                        }
                    }
                    for g in add {
                        if pf[dst.index()].insert(g) {
                            *changed = true;
                        }
                    }
                };
                let call_flow = |dst: Option<crate::ids::LocalId>,
                                 callee: &Callee,
                                 args: &[Operand],
                                 pf: &mut Vec<BTreeSet<usize>>,
                                 pending: &mut Vec<(usize, usize, BTreeSet<usize>)>,
                                 changed: &mut bool| {
                    if let Callee::Direct(c) = callee {
                        let ci = c.index();
                        let pc = m.functions[ci].param_count as usize;
                        for (k, a) in args.iter().enumerate().take(pc) {
                            if let Some(g) = operand_globals(pf, a) {
                                pending.push((ci, k, g.clone()));
                            }
                        }
                        if let Some(d) = dst {
                            for g in ret_globals[ci].clone() {
                                if pf[d.index()].insert(g) {
                                    *changed = true;
                                }
                            }
                        }
                    }
                };
                for (bi, block) in f.blocks.iter().enumerate() {
                    if !exec[fi][bi] {
                        continue;
                    }
                    for inst in &block.insts {
                        match inst {
                            Inst::GlobalAddr { dst, global }
                                if pf[dst.index()].insert(global.index()) =>
                            {
                                changed = true;
                            }
                            Inst::Copy { dst, src, .. } => flow(*dst, &[src], pf, &mut changed),
                            Inst::Cast { dst, src, .. } => flow(*dst, &[src], pf, &mut changed),
                            Inst::PtrAdd { dst, base, .. } => flow(*dst, &[base], pf, &mut changed),
                            Inst::Select {
                                dst,
                                on_true,
                                on_false,
                                ..
                            } => flow(*dst, &[on_true, on_false], pf, &mut changed),
                            Inst::Call { dst, callee, args } => {
                                call_flow(*dst, callee, args, pf, &mut pending, &mut changed)
                            }
                            _ => {}
                        }
                    }
                    match &block.term {
                        Term::Invoke {
                            dst, callee, args, ..
                        } => call_flow(*dst, callee, args, pf, &mut pending, &mut changed),
                        Term::Ret(Some(v)) => {
                            if let Some(g) = operand_globals(pf, v) {
                                pending_ret.extend(g.iter().copied());
                            }
                        }
                        _ => {}
                    }
                }
                for g in pending_ret {
                    if ret_globals[fi].insert(g) {
                        changed = true;
                    }
                }
                for (ci, k, gs) in pending {
                    for g in gs {
                        if ptr[ci][k].insert(g) {
                            changed = true;
                        }
                    }
                }
            }
        }

        // Effect collection over the converged pointer sets.
        let gname = |g: usize| m.globals[g].name.clone();
        // Each function's pointer sets and executability move into its
        // facts once its effects are collected.
        let mut fns: Vec<FnFacts> = Vec::with_capacity(n);
        for ((f, pf), ex) in m.functions.iter().zip(ptr).zip(exec) {
            let mut fx = FnFacts {
                effects: EffectSet::default(),
                callees: BTreeSet::new(),
                has_indirect_call: false,
                ptr: Vec::new(),
                exec: Vec::new(),
                taken: BTreeSet::new(),
            };
            let is_root = f.linkage == Linkage::Exported || f.name == "main";
            let escape = |o: &Operand, fx: &mut FnFacts| {
                if let Some(g) = operand_globals(&pf, o) {
                    fx.effects
                        .global_escapes
                        .extend(g.iter().map(|&x| gname(x)));
                }
            };
            for (block, &executable) in f.blocks.iter().zip(&ex) {
                if !executable {
                    continue;
                }
                let call_site = |callee: &Callee, args: &[Operand], fx: &mut FnFacts| match callee {
                    Callee::Direct(c) => {
                        fx.callees.insert(c.index());
                    }
                    Callee::Ext(e) => {
                        fx.effects
                            .ext_calls
                            .insert(m.externals[e.index()].name.clone());
                        for a in args {
                            escape(a, fx);
                        }
                    }
                    Callee::Indirect(p) => {
                        fx.has_indirect_call = true;
                        escape(p, fx);
                        for a in args {
                            escape(a, fx);
                        }
                    }
                };
                for inst in &block.insts {
                    match inst {
                        Inst::Load { addr, .. } => {
                            if let Some(g) = operand_globals(&pf, addr) {
                                fx.effects.global_reads.extend(g.iter().map(|&x| gname(x)));
                            }
                        }
                        Inst::Store { addr, value, .. } => {
                            if let Some(g) = operand_globals(&pf, addr) {
                                fx.effects.global_writes.extend(g.iter().map(|&x| gname(x)));
                            }
                            escape(value, &mut fx);
                        }
                        Inst::FuncAddr { func, .. } => {
                            fx.taken.insert(func.index());
                        }
                        Inst::Call { callee, args, .. } => call_site(callee, args, &mut fx),
                        _ => {}
                    }
                }
                match &block.term {
                    Term::Invoke { callee, args, .. } => call_site(callee, args, &mut fx),
                    Term::Ret(Some(v)) if is_root => escape(v, &mut fx),
                    _ => {}
                }
            }
            fx.ptr = pf;
            fx.exec = ex;
            fns.push(fx);
        }

        let mut address_taken: BTreeSet<usize> = BTreeSet::new();
        for fx in &fns {
            address_taken.extend(fx.taken.iter().copied());
        }
        for g in &m.globals {
            for init in &g.init {
                if let GInit::FuncPtr { func, .. } = init {
                    address_taken.insert(func.index());
                }
            }
        }
        let root_fns: Vec<usize> = m
            .functions
            .iter()
            .enumerate()
            .filter(|(_, f)| f.linkage == Linkage::Exported || f.name == "main")
            .map(|(i, _)| i)
            .collect();
        ModuleFacts {
            fns,
            address_taken,
            root_fns,
        }
    }

    /// Effects of the direct-call closure seeded from `start`; when the
    /// closure contains an indirect call the address-taken set joins the
    /// frontier (an indirect site may target any of them).
    pub(crate) fn closure_effects(&self, start: impl IntoIterator<Item = usize>) -> EffectSet {
        let mut eff = EffectSet::default();
        for fi in self.closure(start) {
            eff.union_with(&self.fns[fi].effects);
        }
        eff
    }

    /// Function indices in the call closure of `start` (see
    /// [`Self::closure_effects`] for the indirect-call rule).
    pub(crate) fn closure(&self, start: impl IntoIterator<Item = usize>) -> BTreeSet<usize> {
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        let mut queue: Vec<usize> = start.into_iter().collect();
        let mut indirect_seen = false;
        while let Some(fi) = queue.pop() {
            if !visited.insert(fi) {
                continue;
            }
            let fx = &self.fns[fi];
            queue.extend(fx.callees.iter().copied());
            if fx.has_indirect_call && !indirect_seen {
                indirect_seen = true;
                queue.extend(self.address_taken.iter().copied());
            }
        }
        visited
    }

    /// Functions reachable from the module pseudo-root (audit roots plus
    /// address-taken functions).
    pub(crate) fn reachable_from_roots(&self) -> BTreeSet<usize> {
        let seeds: Vec<usize> = self
            .root_fns
            .iter()
            .chain(self.address_taken.iter())
            .copied()
            .collect();
        self.closure(seeds)
    }
}

impl ModuleSummary {
    /// Computes the audited summary of `m`.
    pub fn compute(m: &Module) -> ModuleSummary {
        let facts = ModuleFacts::compute(m);
        let mut sigs = BTreeMap::new();
        let mut roots = BTreeMap::new();
        for &fi in &facts.root_fns {
            let f = &m.functions[fi];
            sigs.insert(
                f.name.clone(),
                SigFacts {
                    params: f.param_types().to_vec(),
                    ret_ty: f.ret_ty,
                    variadic: f.variadic,
                    exported: f.linkage == Linkage::Exported,
                },
            );
            roots.insert(f.name.clone(), facts.closure_effects([fi]));
        }
        let seeds: Vec<usize> = facts
            .root_fns
            .iter()
            .chain(facts.address_taken.iter())
            .copied()
            .collect();
        let module_effects = facts.closure_effects(seeds);
        let global_names = m.globals.iter().map(|g| g.name.clone()).collect();
        ModuleSummary {
            sigs,
            roots,
            module_effects,
            global_names,
        }
    }

    /// Compares a pre-transform summary against a post-transform one;
    /// every returned diagnostic is an observable-behavior violation.
    pub fn diff(before: &ModuleSummary, after: &ModuleSummary) -> Vec<AuditDiagnostic> {
        let mut out = Vec::new();
        for (name, sig) in &before.sigs {
            match after.sigs.get(name) {
                None => out.push(AuditDiagnostic {
                    function: Some(name.clone()),
                    kind: AuditKind::Interface,
                    detail: "audit root disappeared".to_string(),
                }),
                Some(s) if s != sig => out.push(AuditDiagnostic {
                    function: Some(name.clone()),
                    kind: AuditKind::Interface,
                    detail: format!("signature changed: {sig:?} -> {s:?}"),
                }),
                Some(_) => {}
            }
        }
        for name in after.sigs.keys() {
            if !before.sigs.contains_key(name) {
                out.push(AuditDiagnostic {
                    function: Some(name.clone()),
                    kind: AuditKind::Interface,
                    detail: "new audit root appeared".to_string(),
                });
            }
        }
        for (kind, dropped) in before.module_effects.missing_from(&after.module_effects) {
            out.push(AuditDiagnostic {
                function: None,
                kind,
                detail: format!("reachable effect on `{dropped}` disappeared"),
            });
        }
        out
    }
}

/// Convenience for pipeline wiring: summarize `after`, diff it against
/// `before`, and hand back the new summary so it can serve as the next
/// stage's before-summary without recomputation.
pub fn audit_step(before: &ModuleSummary, after: &Module) -> (ModuleSummary, Vec<AuditDiagnostic>) {
    let summary = ModuleSummary::compute(after);
    let diags = ModuleSummary::diff(before, &summary);
    (summary, diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Linkage;
    use crate::module::{ExtFunc, Global};
    use crate::types::Type;

    /// main -> helper; helper reads and writes @counter and calls
    /// ext print_i64.
    fn sample() -> Module {
        let mut m = Module::new("audit_sample");
        let counter = m.push_global(Global::zeroed("counter", 8));
        let print = m.declare_external(ExtFunc {
            name: "print_i64".to_string(),
            params: vec![Type::I64],
            ret_ty: Type::Void,
            variadic: false,
        });

        let mut h = FunctionBuilder::new("helper", Type::I64);
        let p = h.add_param(Type::I64);
        let addr = h.globaladdr(counter);
        let old = h.load(Type::I64, Operand::local(addr));
        let sum = h.bin(
            crate::inst::BinOp::Add,
            Type::I64,
            Operand::local(old),
            Operand::local(p),
        );
        h.store(Type::I64, Operand::local(sum), Operand::local(addr));
        h.call_ext(print, Type::Void, vec![Operand::local(sum)]);
        h.ret(Some(Operand::local(sum)));
        let helper = m.push_function(h.finish());

        let mut f = FunctionBuilder::new("main", Type::I64);
        let r = f
            .call(helper, Type::I64, vec![Operand::const_int(Type::I64, 5)])
            .unwrap();
        f.ret(Some(Operand::local(r)));
        let mut mainf = f.finish();
        mainf.linkage = Linkage::Exported;
        m.push_function(mainf);
        m
    }

    #[test]
    fn summary_sees_transitive_effects() {
        let m = sample();
        let s = ModuleSummary::compute(&m);
        let main = &s.roots["main"];
        assert!(main.ext_calls.contains("print_i64"));
        assert!(main.global_reads.contains("counter"));
        assert!(main.global_writes.contains("counter"));
        assert!(s.module_effects.global_writes.contains("counter"));
    }

    #[test]
    fn identity_diff_is_clean() {
        let m = sample();
        let s = ModuleSummary::compute(&m);
        assert!(ModuleSummary::diff(&s, &s).is_empty());
    }

    #[test]
    fn added_effects_are_tolerated() {
        let m = sample();
        let before = ModuleSummary::compute(&m);
        let mut grown = m.clone();
        // A pass adds a fresh opaque global and a write to it (bogus
        // control flow's shape): tolerated.
        let opq = grown.push_global(Global::zeroed("__opq_state_1", 8));
        let helper = grown.function_by_name("helper").unwrap().0;
        let f = grown.function_mut(helper);
        let a = f.new_local(Type::Ptr);
        f.blocks[0].insts.insert(
            0,
            Inst::GlobalAddr {
                dst: a,
                global: opq,
            },
        );
        f.blocks[0].insts.insert(
            1,
            Inst::Store {
                ty: Type::I64,
                addr: Operand::local(a),
                value: Operand::const_int(Type::I64, 1),
            },
        );
        let after = ModuleSummary::compute(&grown);
        assert!(ModuleSummary::diff(&before, &after).is_empty());
    }

    #[test]
    fn dropped_store_is_flagged() {
        let m = sample();
        let before = ModuleSummary::compute(&m);
        let mut bad = m.clone();
        let helper = bad.function_by_name("helper").unwrap().0;
        let f = bad.function_mut(helper);
        let idx = f.blocks[0]
            .insts
            .iter()
            .position(|i| matches!(i, Inst::Store { .. }))
            .expect("store present");
        f.blocks[0].insts.remove(idx);
        let after = ModuleSummary::compute(&bad);
        let d = ModuleSummary::diff(&before, &after);
        assert!(
            d.iter().any(|x| x.kind == AuditKind::GlobalWrites),
            "dropped store must be flagged: {d:?}"
        );
    }

    #[test]
    fn dropped_ext_call_is_flagged() {
        let m = sample();
        let before = ModuleSummary::compute(&m);
        let mut bad = m.clone();
        let helper = bad.function_by_name("helper").unwrap().0;
        let f = bad.function_mut(helper);
        let idx = f.blocks[0]
            .insts
            .iter()
            .position(|i| {
                matches!(
                    i,
                    Inst::Call {
                        callee: Callee::Ext(_),
                        ..
                    }
                )
            })
            .expect("ext call present");
        f.blocks[0].insts.remove(idx);
        let after = ModuleSummary::compute(&bad);
        let d = ModuleSummary::diff(&before, &after);
        assert!(d.iter().any(|x| x.kind == AuditKind::ExtCalls), "{d:?}");
    }

    #[test]
    fn signature_drift_is_flagged() {
        let m = sample();
        let before = ModuleSummary::compute(&m);
        let mut bad = m.clone();
        let main = bad.function_by_name("main").unwrap().0;
        bad.function_mut(main).linkage = Linkage::Internal;
        // `main` stays a root by name, but its linkage fact changed.
        let after = ModuleSummary::compute(&bad);
        let d = ModuleSummary::diff(&before, &after);
        assert!(d.iter().any(|x| x.kind == AuditKind::Interface), "{d:?}");
    }

    #[test]
    fn indirect_calls_pull_in_address_taken_effects() {
        let mut m = Module::new("indirect");
        let g = m.push_global(Global::zeroed("state", 8));
        let mut t = FunctionBuilder::new("target", Type::Void);
        let a = t.globaladdr(g);
        t.store(
            Type::I64,
            Operand::const_int(Type::I64, 7),
            Operand::local(a),
        );
        t.ret(None);
        let target = m.push_function(t.finish());

        let mut f = FunctionBuilder::new("main", Type::Void);
        let fp = f.funcaddr(target);
        f.call_indirect(Operand::local(fp), Type::Void, vec![]);
        f.ret(None);
        m.push_function(f.finish());

        let s = ModuleSummary::compute(&m);
        assert!(
            s.roots["main"].global_writes.contains("state"),
            "indirect closure must include address-taken target"
        );
    }

    #[test]
    fn escapes_via_ext_and_memory_are_recorded() {
        let mut m = Module::new("esc");
        let g = m.push_global(Global::zeroed("buf", 16));
        let sink = m.declare_external(ExtFunc {
            name: "sink".to_string(),
            params: vec![Type::Ptr],
            ret_ty: Type::Void,
            variadic: false,
        });
        let mut f = FunctionBuilder::new("main", Type::Void);
        let a = f.globaladdr(g);
        f.call_ext(sink, Type::Void, vec![Operand::local(a)]);
        f.ret(None);
        m.push_function(f.finish());
        let s = ModuleSummary::compute(&m);
        assert!(s.roots["main"].global_escapes.contains("buf"));
    }

    #[test]
    fn unexecutable_arm_effects_are_ignored() {
        // br true -> live arm; the dead arm's store must not be summarized,
        // so constant-branch folding plus unreachable-block removal stays
        // audit-clean.
        let mut m = Module::new("deadarm");
        let g = m.push_global(Global::zeroed("dead_g", 8));
        let mut f = FunctionBuilder::new("main", Type::Void);
        let live = f.new_block();
        let dead = f.new_block();
        f.branch(Operand::const_bool(true), live, dead);
        f.switch_to(live);
        f.ret(None);
        f.switch_to(dead);
        let a = f.globaladdr(g);
        f.store(
            Type::I64,
            Operand::const_int(Type::I64, 1),
            Operand::local(a),
        );
        f.ret(None);
        m.push_function(f.finish());
        let s = ModuleSummary::compute(&m);
        assert!(s.module_effects.global_writes.is_empty());
    }

    #[test]
    fn interprocedural_pointer_args_attribute_effects() {
        // main passes &g to writer(p); writer stores through p. The write
        // must attribute to g — the shape fission produces when a region
        // receives live-in pointers as parameters.
        let mut m = Module::new("interproc");
        let g = m.push_global(Global::zeroed("shared", 8));
        let mut w = FunctionBuilder::new("writer", Type::Void);
        let p = w.add_param(Type::Ptr);
        w.store(
            Type::I64,
            Operand::const_int(Type::I64, 3),
            Operand::local(p),
        );
        w.ret(None);
        let writer = m.push_function(w.finish());
        let mut f = FunctionBuilder::new("main", Type::Void);
        let a = f.globaladdr(g);
        f.call(writer, Type::Void, vec![Operand::local(a)]);
        f.ret(None);
        m.push_function(f.finish());
        let s = ModuleSummary::compute(&m);
        assert!(s.roots["main"].global_writes.contains("shared"), "{s:?}");
    }
}
