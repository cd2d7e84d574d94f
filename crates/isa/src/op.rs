//! Instruction set: operation classes, instruction encoding and block
//! terminators.

use crate::types::{BlockId, BranchId, Reg, StreamId};

/// Operation class of an instruction.
///
/// Classes map one-to-one onto the functional-unit pools of the simulated
/// core (Table 3 of the paper: 8 integer ALUs, 2 integer multipliers,
/// 2 memory ports, 8 FP ALUs, 1 FP multiplier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Multi-cycle integer multiply/divide.
    IntMult,
    /// Memory load through a memory port.
    Load,
    /// Memory store through a memory port.
    Store,
    /// Floating-point add/compare class.
    FpAlu,
    /// Floating-point multiply/divide class.
    FpMult,
    /// Conditional branch (always the last instruction of its block).
    Branch,
    /// Unconditional direct jump (always the last instruction of its block).
    Jump,
    /// No-operation (used for padding).
    Nop,
}

impl OpClass {
    /// Whether the instruction flows through the load/store queue.
    #[must_use]
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Whether the instruction is a control-flow instruction.
    #[must_use]
    pub fn is_control(self) -> bool {
        matches!(self, OpClass::Branch | OpClass::Jump)
    }

    /// All operation classes, for exhaustive iteration in tests and stats.
    #[must_use]
    pub fn all() -> [OpClass; 9] {
        [
            OpClass::IntAlu,
            OpClass::IntMult,
            OpClass::Load,
            OpClass::Store,
            OpClass::FpAlu,
            OpClass::FpMult,
            OpClass::Branch,
            OpClass::Jump,
            OpClass::Nop,
        ]
    }
}

/// A static instruction.
///
/// The program counter is implicit: `block.start_pc + 4 * index`. Branch and
/// jump instructions additionally carry control-flow data in the block's
/// [`Terminator`]; loads and stores carry the id of their address-stream
/// model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Operation class.
    pub op: OpClass,
    /// Destination register, if the op writes one.
    pub dest: Option<Reg>,
    /// First source register.
    pub src1: Option<Reg>,
    /// Second source register.
    pub src2: Option<Reg>,
    /// Address-stream model for loads/stores.
    pub stream: Option<StreamId>,
}

impl Instr {
    /// A no-op instruction.
    #[must_use]
    pub fn nop() -> Instr {
        Instr { op: OpClass::Nop, dest: None, src1: None, src2: None, stream: None }
    }

    /// An integer ALU instruction `dest <- src1 op src2`.
    #[must_use]
    pub fn alu(dest: Reg, src1: Reg, src2: Reg) -> Instr {
        Instr {
            op: OpClass::IntAlu,
            dest: Some(dest),
            src1: Some(src1),
            src2: Some(src2),
            stream: None,
        }
    }

    /// A load `dest <- mem[stream]` with base register `src1`.
    #[must_use]
    pub fn load(dest: Reg, base: Reg, stream: StreamId) -> Instr {
        Instr {
            op: OpClass::Load,
            dest: Some(dest),
            src1: Some(base),
            src2: None,
            stream: Some(stream),
        }
    }

    /// A store `mem[stream] <- src2` with base register `src1`.
    #[must_use]
    pub fn store(base: Reg, value: Reg, stream: StreamId) -> Instr {
        Instr {
            op: OpClass::Store,
            dest: None,
            src1: Some(base),
            src2: Some(value),
            stream: Some(stream),
        }
    }

    /// A conditional branch testing `src1` (and optionally `src2`).
    #[must_use]
    pub fn branch(src1: Reg, src2: Option<Reg>) -> Instr {
        Instr { op: OpClass::Branch, dest: None, src1: Some(src1), src2, stream: None }
    }

    /// An unconditional direct jump.
    #[must_use]
    pub fn jump() -> Instr {
        Instr { op: OpClass::Jump, dest: None, src1: None, src2: None, stream: None }
    }
}

/// Control flow at the end of a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Execution falls through to the given block (no control instruction).
    Fallthrough(BlockId),
    /// The block ends with an unconditional [`OpClass::Jump`] to the target.
    Jump(BlockId),
    /// The block ends with a conditional [`OpClass::Branch`].
    Branch {
        /// Static branch id keying the behaviour model and predictor state.
        branch: BranchId,
        /// Successor when the branch is taken.
        taken: BlockId,
        /// Successor when the branch is not taken.
        not_taken: BlockId,
    },
}

impl Terminator {
    /// Successor block for the given branch outcome.
    ///
    /// For `Fallthrough` and `Jump` the outcome is ignored.
    #[must_use]
    pub fn successor(&self, taken: bool) -> BlockId {
        match *self {
            Terminator::Fallthrough(b) | Terminator::Jump(b) => b,
            Terminator::Branch { taken: t, not_taken: nt, .. } => {
                if taken {
                    t
                } else {
                    nt
                }
            }
        }
    }

    /// The conditional branch id, if this terminator is a branch.
    #[must_use]
    pub fn branch_id(&self) -> Option<BranchId> {
        match *self {
            Terminator::Branch { branch, .. } => Some(branch),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opclass_predicates() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::IntAlu.is_mem());
        assert!(OpClass::Branch.is_control());
        assert!(OpClass::Jump.is_control());
        assert!(!OpClass::Nop.is_control());
        assert_eq!(OpClass::all().len(), 9);
    }

    #[test]
    fn constructors_set_expected_fields() {
        let a = Instr::alu(Reg(1), Reg(2), Reg(3));
        assert_eq!(a.op, OpClass::IntAlu);
        assert_eq!(a.dest, Some(Reg(1)));
        assert_eq!((a.src1, a.src2), (Some(Reg(2)), Some(Reg(3))));

        let l = Instr::load(Reg(4), Reg(5), StreamId(0));
        assert_eq!(l.op, OpClass::Load);
        assert_eq!(l.stream, Some(StreamId(0)));

        let s = Instr::store(Reg(5), Reg(6), StreamId(1));
        assert!(s.dest.is_none());
        assert_eq!((s.src1, s.src2), (Some(Reg(5)), Some(Reg(6))));

        let b = Instr::branch(Reg(7), None);
        assert_eq!(b.op, OpClass::Branch);
        assert_eq!((b.src1, b.src2), (Some(Reg(7)), None));

        assert_eq!(Instr::jump().op, OpClass::Jump);
        assert_eq!((Instr::nop().src1, Instr::nop().src2), (None, None));
    }

    #[test]
    fn terminator_successor() {
        let t =
            Terminator::Branch { branch: BranchId(0), taken: BlockId(5), not_taken: BlockId(6) };
        assert_eq!(t.successor(true), BlockId(5));
        assert_eq!(t.successor(false), BlockId(6));
        assert_eq!(t.branch_id(), Some(BranchId(0)));

        let j = Terminator::Jump(BlockId(9));
        assert_eq!(j.successor(true), BlockId(9));
        assert_eq!(j.successor(false), BlockId(9));
        assert_eq!(j.branch_id(), None);

        let f = Terminator::Fallthrough(BlockId(1));
        assert_eq!(f.successor(false), BlockId(1));
    }
}
