//! The fusion primitive (paper §3.3): aggregate pairs of functions into
//! `fusFunc`s.

mod callsites;
mod deep;
mod merge;
pub mod nway;

pub use callsites::{TagScheme, NWAY_SCHEME, PAIR_SCHEME};
pub use merge::{fuse_pair, FusedInfo};
pub use nway::{fuse_group, NwayInfo, MAX_ARITY};

use crate::KhaosContext;
use khaos_ir::{CallGraph, Callee, FuncId, Function, Module, ProvKind, Term, Type};
use rand::seq::SliceRandom;

/// Runs fusion over the functions of `m` selected by `filter`.
///
/// Selection constraints (paper §3.3.1):
/// 1. no variadic functions,
/// 2. compatible return types (void pairs with anything),
/// 3. no direct calling relationship between the two,
///    and, as an optimization, pairs whose combined parameter count fits
///    the six register slots are preferred (§3.3.2).
pub fn run(m: &mut Module, ctx: &mut KhaosContext, filter: impl Fn(&Function) -> bool) {
    let cg = CallGraph::compute(m);
    let has_indirect_invoke = module_has_indirect_invoke(m);

    let mut eligible: Vec<FuncId> = m
        .iter_functions()
        .filter(|(_, f)| {
            filter(f)
                && !f.variadic
                && f.name != "main"
                && !matches!(f.provenance.kind, ProvKind::Trampoline | ProvKind::Fused)
        })
        .map(|(id, _)| id)
        .collect();
    ctx.fusion_stats.eligible_funcs += eligible.len();
    eligible.shuffle(&mut ctx.rng);

    // Greedy pairing: two passes when register-args are preferred — first
    // only accept partners keeping params within the register budget, then
    // pair the leftovers arbitrarily.
    let mut pairs: Vec<(FuncId, FuncId)> = Vec::new();
    let mut remaining = eligible;
    let passes: &[bool] = if ctx.options.prefer_register_args {
        &[true, false]
    } else {
        &[false]
    };
    for &require_reg in passes {
        let mut next_remaining = Vec::new();
        while let Some(a) = remaining.first().copied() {
            remaining.remove(0);
            let partner = remaining.iter().position(|&b| {
                compatible_pair(m, &cg, a, b) && (!require_reg || fits_register_budget(m, a, b))
            });
            match partner {
                Some(j) => {
                    let b = remaining.remove(j);
                    pairs.push((a, b));
                }
                None => next_remaining.push(a),
            }
        }
        remaining = next_remaining;
    }

    let mut any_tags = false;
    for (a, b) in pairs {
        let info = fuse_pair(m, a, b, &cg, has_indirect_invoke, ctx);
        any_tags |= info.used_tags;
        if ctx.options.deep_fusion {
            deep::run(m, &info, ctx);
        }
        ctx.fusion_stats.fused_funcs += 2;
        ctx.fusion_stats.fus_funcs += 1;
    }

    if any_tags {
        callsites::rewrite_indirect_sites(m, ctx);
    }

    // Dead originals were stubbed by `fuse_pair`; sweep them.
    khaos_opt::dfe::run_module(m);
}

fn module_has_indirect_invoke(m: &Module) -> bool {
    m.functions.iter().any(|f| {
        f.blocks.iter().any(|b| {
            matches!(
                &b.term,
                Term::Invoke {
                    callee: Callee::Indirect(_),
                    ..
                }
            )
        })
    })
}

/// Return-type and call-graph compatibility (constraints 2 and 3).
fn compatible_pair(m: &Module, cg: &CallGraph, a: FuncId, b: FuncId) -> bool {
    let fa = m.function(a);
    let fb = m.function(b);
    let ret_ok =
        fa.ret_ty == Type::Void || fb.ret_ty == Type::Void || fa.ret_ty.compatible(fb.ret_ty);
    ret_ok && !cg.directly_related(a, b)
}

fn fits_register_budget(m: &Module, a: FuncId, b: FuncId) -> bool {
    // ctrl + merged params must fit in 6 register slots; the positional
    // merge needs at most max(na, nb) slots (na+nb when nothing merges).
    let na = m.function(a).param_count as usize;
    let nb = m.function(b).param_count as usize;
    na.max(nb) < 6
}

/// True when the first `min(na, nb)` parameters are pairwise compatible —
/// the precondition for the positional calling convention that tagged
/// indirect calls rely on.
pub(crate) fn prefix_compatible(fa: &Function, fb: &Function) -> bool {
    fa.param_types()
        .iter()
        .zip(fb.param_types())
        .all(|(x, y)| x.compatible(*y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::Operand;

    #[test]
    fn prefix_compatibility() {
        let mut a = FunctionBuilder::new("a", Type::I32);
        a.add_param(Type::I32);
        a.add_param(Type::F32);
        let a = a.finish();
        let mut b = FunctionBuilder::new("b", Type::I32);
        b.add_param(Type::I64);
        let b = b.finish();
        assert!(prefix_compatible(&a, &b), "i32/i64 prefix merges");
        let mut c = FunctionBuilder::new("c", Type::I32);
        c.add_param(Type::F64);
        let c = c.finish();
        assert!(!prefix_compatible(&a, &c), "i32 vs f64 at position 0");
    }

    #[test]
    fn direct_callers_not_paired() {
        let mut m = Module::new("t");
        let mut callee = FunctionBuilder::new("x", Type::Void);
        callee.ret(None);
        let x = m.push_function(callee.finish());
        let mut caller = FunctionBuilder::new("y", Type::Void);
        caller.call(x, Type::Void, vec![]);
        caller.ret(None);
        let y = m.push_function(caller.finish());
        let cg = CallGraph::compute(&m);
        assert!(!compatible_pair(&m, &cg, x, y));
    }

    #[test]
    fn incompatible_returns_not_paired() {
        let mut m = Module::new("t");
        let mut fa = FunctionBuilder::new("x", Type::I32);
        fa.ret(Some(Operand::const_int(Type::I32, 0)));
        let x = m.push_function(fa.finish());
        let mut fb = FunctionBuilder::new("y", Type::F64);
        fb.ret(Some(Operand::const_float(Type::F64, 0.0)));
        let y = m.push_function(fb.finish());
        let cg = CallGraph::compute(&m);
        assert!(
            !compatible_pair(&m, &cg, x, y),
            "int/float returns lose precision"
        );
    }

    #[test]
    fn void_pairs_with_anything() {
        let mut m = Module::new("t");
        let mut fa = FunctionBuilder::new("x", Type::Void);
        fa.ret(None);
        let x = m.push_function(fa.finish());
        let mut fb = FunctionBuilder::new("y", Type::F64);
        fb.ret(Some(Operand::const_float(Type::F64, 0.0)));
        let y = m.push_function(fb.finish());
        let cg = CallGraph::compute(&m);
        assert!(compatible_pair(&m, &cg, x, y));
    }
}
