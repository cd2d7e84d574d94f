//! Throttling actions and confidence-indexed policies (§4.1–§4.2).

use st_bpred::Confidence;

/// A front-end bandwidth level, from least to most restrictive.
///
/// Bandwidth reduction is implemented exactly as §4.1 describes: "limiting
/// the fetch and decode bandwidth is achieved by alternating full activity
/// cycles with stalled cycles" — `Half` delivers the full width every
/// second cycle, `Quarter` every fourth, `Stall` never.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum BandwidthLevel {
    /// Full bandwidth (no throttling).
    #[default]
    Full,
    /// Half bandwidth: active one cycle in two.
    Half,
    /// Quarter bandwidth: active one cycle in four.
    Quarter,
    /// Stalled until the trigger resolves.
    Stall,
}

impl BandwidthLevel {
    /// Restrictiveness rank (0 = Full … 3 = Stall).
    #[must_use]
    pub fn rank(self) -> u8 {
        match self {
            BandwidthLevel::Full => 0,
            BandwidthLevel::Half => 1,
            BandwidthLevel::Quarter => 2,
            BandwidthLevel::Stall => 3,
        }
    }

    /// The more restrictive of two levels.
    #[must_use]
    pub fn max(self, other: BandwidthLevel) -> BandwidthLevel {
        if self.rank() >= other.rank() {
            self
        } else {
            other
        }
    }

    /// Instructions allowed in `cycle` at stage width `width`.
    #[must_use]
    pub fn allowance(self, cycle: u64, width: u32) -> u32 {
        match self {
            BandwidthLevel::Full => width,
            BandwidthLevel::Half => {
                if cycle.is_multiple_of(2) {
                    width
                } else {
                    0
                }
            }
            BandwidthLevel::Quarter => {
                if cycle.is_multiple_of(4) {
                    width
                } else {
                    0
                }
            }
            BandwidthLevel::Stall => 0,
        }
    }
}

impl std::fmt::Display for BandwidthLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BandwidthLevel::Full => "/1",
            BandwidthLevel::Half => "/2",
            BandwidthLevel::Quarter => "/4",
            BandwidthLevel::Stall => "=0",
        };
        f.write_str(s)
    }
}

/// The heuristic bundle a confidence level triggers (§4.1): fetch
/// throttling, decode throttling and/or selection throttling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThrottleAction {
    /// Fetch bandwidth while the trigger is unresolved.
    pub fetch: BandwidthLevel,
    /// Decode bandwidth while the trigger is unresolved.
    pub decode: BandwidthLevel,
    /// Whether instructions control-dependent on the trigger get the
    /// no-select bit (selection throttling, Figure 2).
    pub no_select: bool,
}

impl ThrottleAction {
    /// The identity action (no throttling).
    pub const NONE: ThrottleAction = ThrottleAction {
        fetch: BandwidthLevel::Full,
        decode: BandwidthLevel::Full,
        no_select: false,
    };

    /// Fetch-only throttling.
    #[must_use]
    pub fn fetch(level: BandwidthLevel) -> ThrottleAction {
        ThrottleAction { fetch: level, ..ThrottleAction::NONE }
    }

    /// Fetch + decode throttling.
    #[must_use]
    pub fn fetch_decode(fetch: BandwidthLevel, decode: BandwidthLevel) -> ThrottleAction {
        ThrottleAction { fetch, decode, no_select: false }
    }

    /// Adds selection throttling to this action.
    #[must_use]
    pub fn with_no_select(self) -> ThrottleAction {
        ThrottleAction { no_select: true, ..self }
    }

    /// Whether the action does nothing.
    #[must_use]
    pub fn is_none(&self) -> bool {
        *self == ThrottleAction::NONE
    }

    /// Element-wise most-restrictive merge (the escalation rule of §4.2:
    /// a later trigger may tighten but never loosen the restriction).
    #[must_use]
    pub fn merge_restrictive(self, other: ThrottleAction) -> ThrottleAction {
        ThrottleAction {
            fetch: self.fetch.max(other.fetch),
            decode: self.decode.max(other.decode),
            no_select: self.no_select || other.no_select,
        }
    }
}

impl std::fmt::Display for ThrottleAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_none() {
            return f.write_str("-");
        }
        let mut parts = Vec::new();
        if self.fetch != BandwidthLevel::Full {
            parts.push(format!("fetch{}", self.fetch));
        }
        if self.decode != BandwidthLevel::Full {
            parts.push(format!("decode{}", self.decode));
        }
        if self.no_select {
            parts.push("noselect".to_string());
        }
        f.write_str(&parts.join("+"))
    }
}

/// A complete policy: one action per confidence level (§4.2's four-state
/// categorisation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThrottlePolicy {
    /// Action for very-high-confidence branches (always `NONE` in the
    /// paper, kept configurable for ablations).
    pub vhc: ThrottleAction,
    /// Action for high-confidence branches.
    pub hc: ThrottleAction,
    /// Action for low-confidence branches.
    pub lc: ThrottleAction,
    /// Action for very-low-confidence branches.
    pub vlc: ThrottleAction,
}

impl ThrottlePolicy {
    /// A policy that throttles only LC and VLC branches, as every
    /// experiment in the paper does.
    #[must_use]
    pub fn low_only(lc: ThrottleAction, vlc: ThrottleAction) -> ThrottlePolicy {
        ThrottlePolicy { vhc: ThrottleAction::NONE, hc: ThrottleAction::NONE, lc, vlc }
    }

    /// The action for a confidence level.
    #[must_use]
    pub fn action(&self, confidence: Confidence) -> ThrottleAction {
        match confidence {
            Confidence::VeryHigh => self.vhc,
            Confidence::High => self.hc,
            Confidence::Low => self.lc,
            Confidence::VeryLow => self.vlc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_ordering_and_merge() {
        use BandwidthLevel::*;
        assert!(Full.rank() < Half.rank());
        assert!(Half.rank() < Quarter.rank());
        assert!(Quarter.rank() < Stall.rank());
        assert_eq!(Half.max(Quarter), Quarter);
        assert_eq!(Stall.max(Full), Stall);
        assert_eq!(Full.max(Full), Full);
    }

    #[test]
    fn duty_cycle_allowances() {
        use BandwidthLevel::*;
        // Over 8 consecutive cycles: Full=8 active, Half=4, Quarter=2, Stall=0.
        for (level, expected) in [(Full, 64), (Half, 32), (Quarter, 16), (Stall, 0)] {
            let granted: u32 = (0..8).map(|c| level.allowance(c, 8)).sum();
            assert_eq!(granted, expected, "{level:?}");
        }
    }

    #[test]
    fn half_alternates_full_and_zero() {
        let l = BandwidthLevel::Half;
        assert_eq!(l.allowance(0, 8), 8);
        assert_eq!(l.allowance(1, 8), 0);
        assert_eq!(l.allowance(2, 8), 8);
    }

    #[test]
    fn action_merge_is_elementwise_max() {
        let a = ThrottleAction::fetch(BandwidthLevel::Quarter);
        let b = ThrottleAction::fetch_decode(BandwidthLevel::Half, BandwidthLevel::Half)
            .with_no_select();
        let m = a.merge_restrictive(b);
        assert_eq!(m.fetch, BandwidthLevel::Quarter);
        assert_eq!(m.decode, BandwidthLevel::Half);
        assert!(m.no_select);
        // Merge never loosens.
        let m2 = m.merge_restrictive(ThrottleAction::NONE);
        assert_eq!(m2, m);
    }

    #[test]
    fn action_display() {
        assert_eq!(ThrottleAction::NONE.to_string(), "-");
        assert_eq!(ThrottleAction::fetch(BandwidthLevel::Stall).to_string(), "fetch=0");
        let c2 = ThrottleAction::fetch(BandwidthLevel::Quarter).with_no_select();
        assert_eq!(c2.to_string(), "fetch/4+noselect");
    }

    #[test]
    fn policy_lookup() {
        let p = ThrottlePolicy::low_only(
            ThrottleAction::fetch(BandwidthLevel::Quarter),
            ThrottleAction::fetch(BandwidthLevel::Stall),
        );
        assert!(p.action(Confidence::VeryHigh).is_none());
        assert!(p.action(Confidence::High).is_none());
        assert_eq!(p.action(Confidence::Low).fetch, BandwidthLevel::Quarter);
        assert_eq!(p.action(Confidence::VeryLow).fetch, BandwidthLevel::Stall);
    }
}
