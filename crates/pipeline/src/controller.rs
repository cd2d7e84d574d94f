//! The hook through which throttling mechanisms steer the pipeline.
//!
//! The pipeline is mechanism; policies live in `st-core`. Each cycle the
//! core asks its [`SpeculationController`] how many instructions fetch and
//! decode may process and whether newly dispatched instructions must carry
//! a no-select tag; its oracle mode is read once, when the core is built.
//! In return the controller receives every branch prediction (with its
//! confidence estimate), resolution and squash.

use st_bpred::Confidence;
use st_isa::Pc;

use crate::instr::SeqNum;

/// Oracle modes corresponding to the paper's §3 potential study (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OracleMode {
    /// No oracle: normal speculation.
    #[default]
    None,
    /// Oracle fetch: never fetch a wrong-path instruction (fetch stalls at
    /// a misprediction until it resolves).
    Fetch,
    /// Oracle decode: fetch speculates normally but wrong-path instructions
    /// are never decoded/renamed.
    Decode,
    /// Oracle select: wrong-path instructions are fetched and decoded but
    /// never selected for issue.
    Select,
}

/// A conditional-branch prediction event delivered to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchEvent {
    /// Dynamic sequence number of the branch.
    pub seq: SeqNum,
    /// Branch PC.
    pub pc: Pc,
    /// Confidence level assigned by the estimator.
    pub confidence: Confidence,
    /// Whether the branch itself lies on a wrong path (the hardware does
    /// not know this; it is exposed for oracle controllers and stats only).
    pub wrong_path: bool,
}

/// Per-cycle throttling decisions and event sink.
///
/// Implementations must be deterministic: the same event/cycle sequence
/// must produce the same allowances, or A/B experiment comparisons break.
pub trait SpeculationController: std::fmt::Debug + Send {
    /// Instructions fetch may deliver this cycle (0 stalls fetch). `width`
    /// is the configured fetch width; return values above it are clamped.
    fn fetch_allowance(&mut self, cycle: u64, width: u32) -> u32 {
        let _ = cycle;
        width
    }

    /// Instructions decode/rename may accept this cycle.
    fn decode_allowance(&mut self, cycle: u64, width: u32) -> u32 {
        let _ = cycle;
        width
    }

    /// If selection throttling is active, the trigger branch whose
    /// unresolved status blocks selection of newly dispatched instructions.
    fn no_select_trigger(&self) -> Option<SeqNum> {
        None
    }

    /// Oldest active decode-throttling trigger. Instructions with sequence
    /// numbers at or below this are *not* control-dependent on any trigger
    /// and bypass the decode gate — in particular the trigger branch
    /// itself, which must decode and execute for the throttle to ever be
    /// released (otherwise a decode stall deadlocks the pipeline).
    fn decode_bypass_horizon(&self) -> Option<SeqNum> {
        None
    }

    /// Active oracle mode (the §3 experiments). Constant for the
    /// controller's lifetime: the core reads it once, when it is built,
    /// and never asks again.
    fn oracle(&self) -> OracleMode {
        OracleMode::None
    }

    /// A conditional branch was fetched and predicted.
    fn on_branch_predicted(&mut self, event: &BranchEvent) {
        let _ = event;
    }

    /// A conditional branch resolved (`mispredicted` covers direction or
    /// target mismatches).
    fn on_branch_resolved(&mut self, seq: SeqNum, mispredicted: bool) {
        let _ = (seq, mispredicted);
    }

    /// Everything younger than `seq` was squashed; forget any trigger state
    /// belonging to squashed branches.
    fn on_squash(&mut self, seq: SeqNum) {
        let _ = seq;
    }

    /// Controller name for reports.
    fn name(&self) -> &str;
}

/// The unthrottled baseline: full bandwidth every cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullController;

impl SpeculationController for NullController {
    fn name(&self) -> &str {
        "baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_controller_never_throttles() {
        let mut c = NullController;
        for cycle in 0..32 {
            assert_eq!(c.fetch_allowance(cycle, 8), 8);
            assert_eq!(c.decode_allowance(cycle, 8), 8);
        }
        assert_eq!(c.no_select_trigger(), None);
        assert_eq!(c.oracle(), OracleMode::None);
        assert_eq!(c.name(), "baseline");
        // Event sinks are no-ops.
        c.on_branch_predicted(&BranchEvent {
            seq: SeqNum(1),
            pc: Pc(0),
            confidence: Confidence::Low,
            wrong_path: false,
        });
        c.on_branch_resolved(SeqNum(1), true);
        c.on_squash(SeqNum(1));
    }

    #[test]
    fn oracle_mode_default_is_none() {
        assert_eq!(OracleMode::default(), OracleMode::None);
    }
}
