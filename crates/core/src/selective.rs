//! The Selective Throttling controller (§4 of the paper).

use st_pipeline::{BranchEvent, SeqNum, SpeculationController};

use crate::throttle::{BandwidthLevel, ThrottleAction, ThrottlePolicy};

/// Confidence-driven selective throttling.
///
/// Every conditional branch whose confidence level maps to a non-trivial
/// [`ThrottleAction`] becomes a *trigger*. While any trigger is unresolved,
/// the active restriction is the element-wise most restrictive merge of all
/// live triggers — which realises the paper's escalation rule: "after
/// initiating a power-aware heuristic, if a later branch is labeled as VLC
/// or LC before the first branch is resolved, a more restrictive heuristic
/// can be initiated but not a less restrictive one".
///
/// Selection throttling is delegated to the pipeline: this controller
/// reports the youngest live trigger whose action carries `no_select`;
/// instructions dispatched while it is live get the no-select bit of
/// Figure 2 and stay unselectable until the trigger branch resolves.
#[derive(Debug)]
pub struct SelectiveThrottleController {
    policy: ThrottlePolicy,
    /// Live triggers in dispatch order (seq ascending).
    triggers: Vec<(SeqNum, ThrottleAction)>,
    /// Cached merge of all live trigger actions.
    effective: ThrottleAction,
    name: String,
}

impl SelectiveThrottleController {
    /// Creates a controller for the given policy.
    #[must_use]
    pub fn new(policy: ThrottlePolicy) -> SelectiveThrottleController {
        SelectiveThrottleController::named("selective", policy)
    }

    /// Creates a controller with an explicit report name (experiment ids
    /// like "C2" use this).
    #[must_use]
    pub fn named(name: impl Into<String>, policy: ThrottlePolicy) -> SelectiveThrottleController {
        SelectiveThrottleController {
            policy,
            triggers: Vec::new(),
            effective: ThrottleAction::NONE,
            name: name.into(),
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> &ThrottlePolicy {
        &self.policy
    }

    /// Number of currently live triggers (for tests/diagnostics).
    #[must_use]
    pub fn live_triggers(&self) -> usize {
        self.triggers.len()
    }

    /// The currently effective (merged) action.
    #[must_use]
    pub fn effective_action(&self) -> ThrottleAction {
        self.effective
    }

    fn remerge(&mut self) {
        self.effective = self
            .triggers
            .iter()
            .fold(ThrottleAction::NONE, |acc, (_, a)| acc.merge_restrictive(*a));
    }
}

impl SpeculationController for SelectiveThrottleController {
    fn fetch_allowance(&mut self, cycle: u64, width: u32) -> u32 {
        self.effective.fetch.allowance(cycle, width)
    }

    fn decode_allowance(&mut self, cycle: u64, width: u32) -> u32 {
        self.effective.decode.allowance(cycle, width)
    }

    fn no_select_trigger(&self) -> Option<SeqNum> {
        self.triggers.iter().rev().find(|(_, a)| a.no_select).map(|(s, _)| *s)
    }

    fn decode_bypass_horizon(&self) -> Option<SeqNum> {
        // Instructions not younger than the oldest decode-throttling
        // trigger are control-independent of every active decode trigger.
        self.triggers.iter().find(|(_, a)| a.decode != BandwidthLevel::Full).map(|(s, _)| *s)
    }

    fn on_branch_predicted(&mut self, event: &BranchEvent) {
        let action = self.policy.action(event.confidence);
        if action.is_none() {
            return;
        }
        debug_assert!(
            self.triggers.last().is_none_or(|(s, _)| *s < event.seq),
            "branch events must arrive in fetch order"
        );
        self.triggers.push((event.seq, action));
        self.effective = self.effective.merge_restrictive(action);
    }

    fn on_branch_resolved(&mut self, seq: SeqNum, _mispredicted: bool) {
        if let Some(pos) = self.triggers.iter().position(|(s, _)| *s == seq) {
            self.triggers.remove(pos);
            self.remerge();
        }
    }

    fn on_squash(&mut self, seq: SeqNum) {
        let before = self.triggers.len();
        self.triggers.retain(|(s, _)| *s <= seq);
        if self.triggers.len() != before {
            self.remerge();
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentKind;
    use st_bpred::Confidence;
    use st_isa::Pc;

    fn event(seq: u64, confidence: Confidence) -> BranchEvent {
        BranchEvent { seq: SeqNum(seq), pc: Pc(0x40_0000), confidence, wrong_path: false }
    }

    /// A controller running C2's policy, the paper's best configuration
    /// (`VLC: fetch=0, LC: fetch/4 + noselect`).
    fn controller() -> SelectiveThrottleController {
        let ExperimentKind::Throttle(policy) = crate::experiments::c2().kind else {
            unreachable!("C2 is a throttling experiment")
        };
        SelectiveThrottleController::new(policy)
    }

    #[test]
    fn no_trigger_means_full_bandwidth() {
        let mut c = controller();
        for cycle in 0..8 {
            assert_eq!(c.fetch_allowance(cycle, 8), 8);
            assert_eq!(c.decode_allowance(cycle, 8), 8);
        }
        assert_eq!(c.no_select_trigger(), None);
    }

    #[test]
    fn high_confidence_does_not_trigger() {
        let mut c = controller();
        c.on_branch_predicted(&event(1, Confidence::VeryHigh));
        c.on_branch_predicted(&event(2, Confidence::High));
        assert_eq!(c.live_triggers(), 0);
        assert_eq!(c.fetch_allowance(1, 8), 8);
    }

    #[test]
    fn lc_trigger_quarters_fetch_and_tags_no_select() {
        let mut c = controller();
        c.on_branch_predicted(&event(5, Confidence::Low));
        assert_eq!(c.fetch_allowance(0, 8), 8);
        assert_eq!(c.fetch_allowance(1, 8), 0);
        assert_eq!(c.fetch_allowance(2, 8), 0);
        assert_eq!(c.fetch_allowance(3, 8), 0);
        assert_eq!(c.fetch_allowance(4, 8), 8);
        assert_eq!(c.no_select_trigger(), Some(SeqNum(5)));
        // Decode unaffected by C2's policy.
        assert_eq!(c.decode_allowance(1, 8), 8);
    }

    #[test]
    fn vlc_trigger_stalls_fetch() {
        let mut c = controller();
        c.on_branch_predicted(&event(5, Confidence::VeryLow));
        for cycle in 0..8 {
            assert_eq!(c.fetch_allowance(cycle, 8), 0);
        }
        assert_eq!(c.no_select_trigger(), None, "C2 puts no-select on LC only");
    }

    #[test]
    fn escalation_tightens_but_never_loosens() {
        let mut c = controller();
        c.on_branch_predicted(&event(1, Confidence::Low)); // fetch/4
        c.on_branch_predicted(&event(2, Confidence::VeryLow)); // fetch=0
        assert_eq!(c.fetch_allowance(0, 8), 0, "escalated to stall");
        // A later, weaker trigger must not relax the restriction.
        c.on_branch_predicted(&event(3, Confidence::Low));
        assert_eq!(c.fetch_allowance(4, 8), 0);
        // Resolving the VLC trigger falls back to the LC restriction.
        c.on_branch_resolved(SeqNum(2), false);
        assert_eq!(c.fetch_allowance(0, 8), 8);
        assert_eq!(c.fetch_allowance(1, 8), 0);
    }

    #[test]
    fn resolution_releases_trigger() {
        let mut c = controller();
        c.on_branch_predicted(&event(1, Confidence::Low));
        assert_eq!(c.live_triggers(), 1);
        c.on_branch_resolved(SeqNum(1), true);
        assert_eq!(c.live_triggers(), 0);
        assert_eq!(c.fetch_allowance(1, 8), 8);
        // Resolving an untracked branch is a no-op.
        c.on_branch_resolved(SeqNum(99), false);
    }

    #[test]
    fn squash_drops_younger_triggers() {
        let mut c = controller();
        c.on_branch_predicted(&event(1, Confidence::Low));
        c.on_branch_predicted(&event(5, Confidence::VeryLow));
        c.on_branch_predicted(&event(9, Confidence::VeryLow));
        c.on_squash(SeqNum(4));
        assert_eq!(c.live_triggers(), 1);
        assert_eq!(c.effective_action().fetch, BandwidthLevel::Quarter);
    }

    #[test]
    fn no_select_reports_youngest_tagging_trigger() {
        let mut c = controller();
        c.on_branch_predicted(&event(1, Confidence::Low));
        c.on_branch_predicted(&event(2, Confidence::VeryLow)); // no no_select
        c.on_branch_predicted(&event(3, Confidence::Low));
        assert_eq!(c.no_select_trigger(), Some(SeqNum(3)));
        c.on_branch_resolved(SeqNum(3), false);
        assert_eq!(c.no_select_trigger(), Some(SeqNum(1)));
    }

    #[test]
    fn null_policy_is_transparent() {
        let mut c = SelectiveThrottleController::new(ThrottlePolicy::low_only(
            ThrottleAction::NONE,
            ThrottleAction::NONE,
        ));
        c.on_branch_predicted(&event(1, Confidence::VeryLow));
        assert_eq!(c.live_triggers(), 0);
        assert_eq!(c.fetch_allowance(3, 8), 8);
    }
}
