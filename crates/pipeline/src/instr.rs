//! Dynamic (in-flight) instruction records.

use st_bpred::{Confidence, GlobalHistory};
use st_isa::{BranchId, OpClass, Pc, Reg};
use st_power::EnergyLedger;

/// Global dynamic sequence number: assigned at fetch, strictly increasing,
/// never reused. Squashes are expressed as "discard everything younger than
/// seq". Program order = seq order for all in-flight instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNum(pub u64);

impl std::fmt::Display for SeqNum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A dynamic instruction, created at fetch and carried through the pipeline.
#[derive(Debug, Clone)]
pub struct DynInstr {
    /// Dynamic sequence number.
    pub seq: SeqNum,
    /// Instruction address.
    pub pc: Pc,
    /// Operation class.
    pub op: OpClass,
    /// Destination register.
    pub dest: Option<Reg>,
    /// First source register.
    pub src1: Option<Reg>,
    /// Second source register.
    pub src2: Option<Reg>,
    /// Whether the instruction was fetched down a wrong path. Wrong-path
    /// instructions never commit; their ledgers settle as wasted energy.
    pub wrong_path: bool,

    /// Static branch id, for conditional branches.
    pub branch: Option<BranchId>,
    /// Effective predicted direction (after BTB-miss demotion to
    /// not-taken), for conditional branches.
    pub pred_taken: bool,
    /// The PC fetch continued at after this instruction.
    pub pred_next: Pc,
    /// Resolved direction: architectural truth on the correct path, the
    /// model's speculative outcome on a wrong path.
    pub true_taken: bool,
    /// Resolved next PC.
    pub true_next: Pc,
    /// Confidence assigned at prediction time, for conditional branches.
    pub confidence: Option<Confidence>,
    /// Global-history checkpoint taken *before* this branch's speculative
    /// history push (restored on squash).
    pub hist_checkpoint: Option<GlobalHistory>,
    /// History value used for the prediction (for trainer calls).
    pub hist_at_predict: u64,

    /// Effective address for loads/stores.
    pub mem_addr: Option<u64>,

    /// Energy attributed to this instruction so far.
    pub ledger: EnergyLedger,
}

impl DynInstr {
    /// Whether this is a conditional branch.
    #[must_use]
    pub fn is_cond_branch(&self) -> bool {
        self.op == OpClass::Branch
    }

    /// Whether the branch was (or will be found) mispredicted: effective
    /// prediction differs from resolution in direction or target.
    #[must_use]
    pub fn mispredicted(&self) -> bool {
        self.is_cond_branch()
            && (self.pred_taken != self.true_taken || self.pred_next != self.true_next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank(op: OpClass) -> DynInstr {
        DynInstr {
            seq: SeqNum(1),
            pc: Pc(0x40_0000),
            op,
            dest: None,
            src1: Some(Reg(1)),
            src2: None,
            wrong_path: false,
            branch: None,
            pred_taken: false,
            pred_next: Pc(0x40_0004),
            true_taken: false,
            true_next: Pc(0x40_0004),
            confidence: None,
            hist_checkpoint: None,
            hist_at_predict: 0,
            mem_addr: None,
            ledger: EnergyLedger::default(),
        }
    }

    #[test]
    fn body_size_matches_the_documented_slab_payload() {
        // The slab and IFQ docs quote this size.
        assert_eq!(std::mem::size_of::<DynInstr>(), 144);
    }

    #[test]
    fn seqnum_orders() {
        assert!(SeqNum(1) < SeqNum(2));
        assert_eq!(SeqNum(7).to_string(), "#7");
    }

    #[test]
    fn mispredict_detection() {
        let mut b = blank(OpClass::Branch);
        assert!(!b.mispredicted(), "agreeing direction and target");
        b.true_taken = true;
        b.true_next = Pc(0x40_1000);
        assert!(b.mispredicted(), "direction differs");
        b.pred_taken = true;
        b.pred_next = Pc(0x40_2000);
        assert!(b.mispredicted(), "target differs");
        b.pred_next = Pc(0x40_1000);
        assert!(!b.mispredicted());
        // Non-branches never count as mispredicted.
        let a = blank(OpClass::IntAlu);
        assert!(!a.mispredicted());
    }
}
