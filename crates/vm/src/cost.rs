//! The cycle cost model.

use khaos_ir::{BinOp, Inst};

/// Relative cycle costs charged by the interpreter.
///
/// The absolute numbers are synthetic; what matters for reproducing the
/// paper's overhead *shape* is the relative weight of call overhead,
/// argument passing (registers vs. stack) and memory traffic against plain
/// ALU work — those are the costs fission and fusion add or remove.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Plain ALU operation.
    pub alu: u64,
    /// Integer multiply.
    pub mul: u64,
    /// Integer divide / remainder.
    pub div: u64,
    /// Float divide.
    pub fdiv: u64,
    /// Load or store.
    pub mem: u64,
    /// Alloca (stack pointer bump).
    pub alloca: u64,
    /// Direct call (prologue + epilogue + branch overhead).
    pub call: u64,
    /// Indirect call extra (branch-target misprediction).
    pub indirect_extra: u64,
    /// Per-argument move into a register slot.
    pub arg_reg: u64,
    /// Per-argument push beyond the 6 register slots (stack traffic).
    pub arg_stack: u64,
    /// External (libc) call.
    pub ext_call: u64,
    /// Correctly-predicted branch / jump / switch dispatch.
    pub branch: u64,
    /// Mispredicted branch or switch target (pipeline flush). The VM keeps
    /// a 1-entry history per branch site: stable directions (loops,
    /// opaque predicates) are cheap, erratic dispatch (flattened
    /// functions) pays this — which is exactly where Fla's 279% comes
    /// from on real hardware.
    pub branch_miss: u64,
    /// Extra cost per switch case (the cmp/jcc scan of lowered switches).
    pub switch_case: u64,
    /// Invoke setup (EH tables, same branchy cost as a call plus a bit).
    pub invoke_extra: u64,
    /// Return.
    pub ret: u64,
}

/// Number of integer argument slots passed in registers (x86-64 SysV).
pub const REG_ARG_SLOTS: usize = 6;

impl Default for CostModel {
    /// Weights approximate a modern out-of-order core: plain ALU work is
    /// almost free (hidden by superscalar issue), while memory traffic,
    /// calls, argument spills and unpredictable dispatch dominate — the
    /// costs the paper's overhead numbers are made of.
    fn default() -> Self {
        CostModel {
            alu: 1,
            mul: 2,
            div: 24,
            fdiv: 16,
            mem: 6,
            alloca: 2,
            call: 24,
            indirect_extra: 10,
            arg_reg: 1,
            arg_stack: 6,
            ext_call: 20,
            branch: 1,
            branch_miss: 16,
            switch_case: 1,
            invoke_extra: 6,
            ret: 8,
        }
    }
}

impl CostModel {
    /// True for plain register ops a dual-issue core pairs up: the VM
    /// charges every *second* consecutive one nothing, which is how
    /// instruction-substitution chains stay cheap on real machines.
    pub fn is_pairable_alu(inst: &Inst) -> bool {
        match inst {
            Inst::Bin { op, .. } => !matches!(
                op,
                BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem | BinOp::FDiv
            ),
            Inst::Un { .. }
            | Inst::Cmp { .. }
            | Inst::Select { .. }
            | Inst::Copy { .. }
            | Inst::Cast { .. }
            | Inst::PtrAdd { .. } => true,
            _ => false,
        }
    }

    /// Cost of a non-call instruction.
    pub fn inst_cost(&self, inst: &Inst) -> u64 {
        match inst {
            Inst::Bin { op, .. } => match op {
                BinOp::Mul => self.mul,
                BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem => self.div,
                BinOp::FDiv => self.fdiv,
                BinOp::FMul => self.mul,
                _ => self.alu,
            },
            Inst::Un { .. }
            | Inst::Cmp { .. }
            | Inst::Select { .. }
            | Inst::Copy { .. }
            | Inst::Cast { .. }
            | Inst::PtrAdd { .. }
            | Inst::FuncAddr { .. }
            | Inst::GlobalAddr { .. } => self.alu,
            Inst::Load { .. } | Inst::Store { .. } => self.mem,
            Inst::Alloca { .. } => self.alloca,
            // Calls are charged separately by the machine (arg traffic).
            Inst::Call { .. } => 0,
        }
    }

    /// Cost of passing `n` arguments in a call.
    pub fn arg_cost(&self, n: usize) -> u64 {
        let reg = n.min(REG_ARG_SLOTS) as u64;
        let stack = n.saturating_sub(REG_ARG_SLOTS) as u64;
        reg * self.arg_reg + stack * self.arg_stack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::{LocalId, Operand, Type};

    #[test]
    fn division_dominates_alu() {
        let cm = CostModel::default();
        let div = Inst::Bin {
            op: BinOp::SDiv,
            ty: Type::I32,
            dst: LocalId(0),
            lhs: Operand::const_int(Type::I32, 6),
            rhs: Operand::const_int(Type::I32, 3),
        };
        let add = Inst::Bin {
            op: BinOp::Add,
            ty: Type::I32,
            dst: LocalId(0),
            lhs: Operand::const_int(Type::I32, 6),
            rhs: Operand::const_int(Type::I32, 3),
        };
        assert!(cm.inst_cost(&div) > 10 * cm.inst_cost(&add));
    }

    #[test]
    fn stack_args_cost_more() {
        let cm = CostModel::default();
        // 6 register args vs 8 args (2 on the stack).
        let six = cm.arg_cost(6);
        let eight = cm.arg_cost(8);
        assert_eq!(six, 6 * cm.arg_reg);
        assert_eq!(eight, 6 * cm.arg_reg + 2 * cm.arg_stack);
        assert!(eight > six + 2, "stack args are strictly more expensive");
    }

    #[test]
    fn calls_charged_by_machine_not_inst() {
        let cm = CostModel::default();
        let call = Inst::Call {
            dst: None,
            callee: khaos_ir::Callee::Ext(khaos_ir::ExtId(0)),
            args: vec![],
        };
        assert_eq!(cm.inst_cost(&call), 0);
    }
}
