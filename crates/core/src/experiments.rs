//! The paper's experiment matrix.
//!
//! Every named configuration of the evaluation section is defined here so
//! that benches, examples and tests agree on what, e.g., "C2" means:
//!
//! * **Figure 3** (fetch throttling): [`a1`]–[`a6`] plus Pipeline Gating
//!   [`a7`];
//! * **Figure 4** (decode throttling; VLC always stalls fetch):
//!   [`b1`]–[`b8`] plus gating [`b9`];
//! * **Figure 5** (selection throttling): [`c1`]–[`c6`] plus gating [`c7`];
//! * **Figure 1** (oracle potential study): [`oracle_fetch`],
//!   [`oracle_decode`], [`oracle_select`].

use st_bpred::{ConfidenceEstimator, JrsEstimator, SaturatingConfig, SaturatingEstimator};
use st_pipeline::{OracleMode, SpeculationController};

use crate::gating::PipelineGatingController;
use crate::oracle::OracleController;
use crate::selective::SelectiveThrottleController;
use crate::throttle::{BandwidthLevel, ThrottleAction, ThrottlePolicy};

/// What kind of machine an experiment runs.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentKind {
    /// Unthrottled baseline.
    Baseline,
    /// Selective throttling with the given policy.
    Throttle(ThrottlePolicy),
    /// Pipeline Gating with the given gating threshold (JRS estimator).
    Gating {
        /// Fetch gates while this many low-confidence branches are
        /// unresolved.
        threshold: u32,
    },
    /// One of the §3 oracle modes.
    Oracle(OracleMode),
}

/// A named experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Paper id ("A5", "C2", …).
    pub id: &'static str,
    /// The label the paper's figure legend uses.
    pub label: &'static str,
    /// Machine configuration.
    pub kind: ExperimentKind,
}

impl Experiment {
    /// Instantiates the experiment's speculation controller.
    #[must_use]
    pub fn make_controller(&self) -> Box<dyn SpeculationController> {
        match &self.kind {
            ExperimentKind::Baseline => Box::new(st_pipeline::NullController),
            ExperimentKind::Throttle(policy) => {
                Box::new(SelectiveThrottleController::named(self.id, policy.clone()))
            }
            ExperimentKind::Gating { threshold } => {
                Box::new(PipelineGatingController::new(*threshold))
            }
            ExperimentKind::Oracle(mode) => Box::new(OracleController::new(*mode)),
        }
    }

    /// Returns this experiment with the Pipeline-Gating threshold replaced.
    ///
    /// Only meaningful for [`ExperimentKind::Gating`] experiments; anything
    /// else is returned unchanged (throttling and oracle machines have no
    /// gating threshold to vary).
    #[must_use]
    pub fn with_gating_threshold(mut self, threshold: u32) -> Experiment {
        if let ExperimentKind::Gating { threshold: t } = &mut self.kind {
            *t = threshold;
        }
        self
    }

    /// The Pipeline-Gating threshold, when this is a gating experiment.
    #[must_use]
    pub fn gating_threshold(&self) -> Option<u32> {
        match self.kind {
            ExperimentKind::Gating { threshold } => Some(threshold),
            _ => None,
        }
    }

    /// The confidence estimator this experiment runs at the given
    /// hardware budget: JRS (MDC threshold 12) for Pipeline Gating, the
    /// paper-default BPRU-style four-level estimator for everything else.
    #[must_use]
    pub fn estimator_spec(&self, bytes: usize) -> EstimatorSpec {
        match self.kind {
            ExperimentKind::Gating { .. } => EstimatorSpec::Jrs { bytes },
            _ => EstimatorSpec::Saturating(SaturatingConfig {
                bytes,
                ..SaturatingConfig::paper_default()
            }),
        }
    }

    /// Instantiates [`Experiment::estimator_spec`] at the given budget.
    #[must_use]
    pub fn make_estimator(&self, bytes: usize) -> Box<dyn ConfidenceEstimator> {
        self.estimator_spec(bytes).build()
    }
}

/// A confidence estimator spelled out: its design and configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorSpec {
    /// A BPRU-style saturating estimator.
    Saturating(SaturatingConfig),
    /// A JRS (resetting-counter, MDC threshold 12) estimator.
    Jrs {
        /// Hardware budget in bytes.
        bytes: usize,
    },
}

impl EstimatorSpec {
    /// Instantiates the estimator.
    #[must_use]
    pub fn build(&self) -> Box<dyn ConfidenceEstimator> {
        match *self {
            EstimatorSpec::Saturating(cfg) => Box::new(SaturatingEstimator::new(cfg)),
            EstimatorSpec::Jrs { bytes } => Box::new(JrsEstimator::with_table_bytes(bytes)),
        }
    }
}

fn throttle(
    id: &'static str,
    label: &'static str,
    lc: ThrottleAction,
    vlc: ThrottleAction,
) -> Experiment {
    Experiment { id, label, kind: ExperimentKind::Throttle(ThrottlePolicy::low_only(lc, vlc)) }
}

use BandwidthLevel::{Half, Quarter, Stall};

/// The unthrottled baseline machine.
#[must_use]
pub fn baseline() -> Experiment {
    Experiment { id: "BASE", label: "no throttling", kind: ExperimentKind::Baseline }
}

/// Pipeline Gating at an arbitrary threshold (the paper's comparison
/// machine uses threshold 2; [`a7`]/[`b9`]/[`c7`] are that point under
/// their figure-specific ids).
#[must_use]
pub fn gating(threshold: u32) -> Experiment {
    a7().with_gating_threshold(threshold)
}

// ---------------------------------------------------------------------
// Figure 3: fetch throttling.
// ---------------------------------------------------------------------

/// A1) `LC: fetch/2, VLC: fetch/2`.
#[must_use]
pub fn a1() -> Experiment {
    throttle(
        "A1",
        "LC: fetch/2, VLC: fetch/2",
        ThrottleAction::fetch(Half),
        ThrottleAction::fetch(Half),
    )
}

/// A2) `LC: fetch/2, VLC: fetch/4`.
#[must_use]
pub fn a2() -> Experiment {
    throttle(
        "A2",
        "LC: fetch/2, VLC: fetch/4",
        ThrottleAction::fetch(Half),
        ThrottleAction::fetch(Quarter),
    )
}

/// A3) `LC: fetch/2, VLC: fetch=0`.
#[must_use]
pub fn a3() -> Experiment {
    throttle(
        "A3",
        "LC: fetch/2, VLC: fetch=0",
        ThrottleAction::fetch(Half),
        ThrottleAction::fetch(Stall),
    )
}

/// A4) `LC: fetch/4, VLC: fetch/4`.
#[must_use]
pub fn a4() -> Experiment {
    throttle(
        "A4",
        "LC: fetch/4, VLC: fetch/4",
        ThrottleAction::fetch(Quarter),
        ThrottleAction::fetch(Quarter),
    )
}

/// A5) `LC: fetch/4, VLC: fetch=0` — the best pure fetch-throttling point.
#[must_use]
pub fn a5() -> Experiment {
    throttle(
        "A5",
        "LC: fetch/4, VLC: fetch=0",
        ThrottleAction::fetch(Quarter),
        ThrottleAction::fetch(Stall),
    )
}

/// A6) `LC: fetch=0, VLC: fetch=0` (Pipeline Gating without the threshold).
#[must_use]
pub fn a6() -> Experiment {
    throttle(
        "A6",
        "LC: fetch=0, VLC: fetch=0",
        ThrottleAction::fetch(Stall),
        ThrottleAction::fetch(Stall),
    )
}

/// A7) Pipeline Gating (JRS, MDC 12, gating threshold 2).
#[must_use]
pub fn a7() -> Experiment {
    Experiment {
        id: "A7",
        label: "Pipeline Gating (JRS)",
        kind: ExperimentKind::Gating { threshold: 2 },
    }
}

/// All Figure 3 experiments in paper order.
#[must_use]
pub fn group_a() -> Vec<Experiment> {
    vec![a1(), a2(), a3(), a4(), a5(), a6(), a7()]
}

// ---------------------------------------------------------------------
// Figure 4: decode throttling. VLC always stalls fetch.
// ---------------------------------------------------------------------

fn vlc_stall() -> ThrottleAction {
    ThrottleAction::fetch(Stall)
}

/// B1) `LC: fetch/1 + decode/2`.
#[must_use]
pub fn b1() -> Experiment {
    throttle(
        "B1",
        "LC: fetch/1+decode/2",
        ThrottleAction::fetch_decode(BandwidthLevel::Full, Half),
        vlc_stall(),
    )
}

/// B2) `LC: fetch/1 + decode/4`.
#[must_use]
pub fn b2() -> Experiment {
    throttle(
        "B2",
        "LC: fetch/1+decode/4",
        ThrottleAction::fetch_decode(BandwidthLevel::Full, Quarter),
        vlc_stall(),
    )
}

/// B3) `LC: fetch/1 + decode=0`.
#[must_use]
pub fn b3() -> Experiment {
    throttle(
        "B3",
        "LC: fetch/1+decode=0",
        ThrottleAction::fetch_decode(BandwidthLevel::Full, Stall),
        vlc_stall(),
    )
}

/// B4) `LC: fetch/2 + decode/2`.
#[must_use]
pub fn b4() -> Experiment {
    throttle("B4", "LC: fetch/2+decode/2", ThrottleAction::fetch_decode(Half, Half), vlc_stall())
}

/// B5) `LC: fetch/2 + decode/4`.
#[must_use]
pub fn b5() -> Experiment {
    throttle("B5", "LC: fetch/2+decode/4", ThrottleAction::fetch_decode(Half, Quarter), vlc_stall())
}

/// B6) `LC: fetch/2 + decode=0`.
#[must_use]
pub fn b6() -> Experiment {
    throttle("B6", "LC: fetch/2+decode=0", ThrottleAction::fetch_decode(Half, Stall), vlc_stall())
}

/// B7) `LC: fetch/4 + decode/4`.
#[must_use]
pub fn b7() -> Experiment {
    throttle(
        "B7",
        "LC: fetch/4+decode/4",
        ThrottleAction::fetch_decode(Quarter, Quarter),
        vlc_stall(),
    )
}

/// B8) `LC: fetch/4 + decode=0`.
#[must_use]
pub fn b8() -> Experiment {
    throttle(
        "B8",
        "LC: fetch/4+decode=0",
        ThrottleAction::fetch_decode(Quarter, Stall),
        vlc_stall(),
    )
}

/// B9) Pipeline Gating (comparison row of Figure 4).
#[must_use]
pub fn b9() -> Experiment {
    Experiment {
        id: "B9",
        label: "Pipeline Gating (JRS)",
        kind: ExperimentKind::Gating { threshold: 2 },
    }
}

/// All Figure 4 experiments in paper order.
#[must_use]
pub fn group_b() -> Vec<Experiment> {
    vec![b1(), b2(), b3(), b4(), b5(), b6(), b7(), b8(), b9()]
}

// ---------------------------------------------------------------------
// Figure 5: selection throttling. VLC always stalls fetch.
// ---------------------------------------------------------------------

/// C1) `VLC: fetch=0, LC: fetch/4` (= A5).
#[must_use]
pub fn c1() -> Experiment {
    throttle("C1", "VLC: fet=0, LC: fet/4", ThrottleAction::fetch(Quarter), vlc_stall())
}

/// C2) `VLC: fetch=0, LC: fetch/4 + noselect` — the paper's best overall
/// configuration (13.5 % energy savings, 8.5 % E-D improvement).
#[must_use]
pub fn c2() -> Experiment {
    throttle(
        "C2",
        "VLC: fet=0, LC: fet/4+noselect",
        ThrottleAction::fetch(Quarter).with_no_select(),
        vlc_stall(),
    )
}

/// C3) `VLC: fetch=0, LC: fetch/2 + decode/4` (= B5).
#[must_use]
pub fn c3() -> Experiment {
    throttle(
        "C3",
        "VLC: fet=0, LC: fet/2+dec/4",
        ThrottleAction::fetch_decode(Half, Quarter),
        vlc_stall(),
    )
}

/// C4) C3 plus selection throttling.
#[must_use]
pub fn c4() -> Experiment {
    throttle(
        "C4",
        "VLC: fet=0, LC: fet/2+dec/4+noselect",
        ThrottleAction::fetch_decode(Half, Quarter).with_no_select(),
        vlc_stall(),
    )
}

/// C5) `VLC: fetch=0, LC: fetch/4 + decode/4` (= B7).
#[must_use]
pub fn c5() -> Experiment {
    throttle(
        "C5",
        "VLC: fet=0, LC: fet/4+dec/4",
        ThrottleAction::fetch_decode(Quarter, Quarter),
        vlc_stall(),
    )
}

/// C6) C5 plus selection throttling.
#[must_use]
pub fn c6() -> Experiment {
    throttle(
        "C6",
        "VLC: fet=0, LC: fet/4+dec/4+noselect",
        ThrottleAction::fetch_decode(Quarter, Quarter).with_no_select(),
        vlc_stall(),
    )
}

/// C7) Pipeline Gating (comparison row of Figure 5).
#[must_use]
pub fn c7() -> Experiment {
    Experiment {
        id: "C7",
        label: "Pipeline Gating (JRS)",
        kind: ExperimentKind::Gating { threshold: 2 },
    }
}

/// All Figure 5 experiments in paper order.
#[must_use]
pub fn group_c() -> Vec<Experiment> {
    vec![c1(), c2(), c3(), c4(), c5(), c6(), c7()]
}

// ---------------------------------------------------------------------
// Figure 1: oracle potential study.
// ---------------------------------------------------------------------

/// Oracle fetch: only correct-path instructions are fetched.
#[must_use]
pub fn oracle_fetch() -> Experiment {
    Experiment { id: "OF", label: "oracle fetch", kind: ExperimentKind::Oracle(OracleMode::Fetch) }
}

/// Oracle decode: realistic fetch, correct-path-only decode.
#[must_use]
pub fn oracle_decode() -> Experiment {
    Experiment {
        id: "OD",
        label: "oracle decode",
        kind: ExperimentKind::Oracle(OracleMode::Decode),
    }
}

/// Oracle select: realistic fetch and decode, correct-path-only selection.
#[must_use]
pub fn oracle_select() -> Experiment {
    Experiment {
        id: "OS",
        label: "oracle select",
        kind: ExperimentKind::Oracle(OracleMode::Select),
    }
}

/// All Figure 1 experiments in paper order.
#[must_use]
pub fn oracles() -> Vec<Experiment> {
    vec![oracle_fetch(), oracle_decode(), oracle_select()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_have_paper_cardinality() {
        assert_eq!(group_a().len(), 7);
        assert_eq!(group_b().len(), 9);
        assert_eq!(group_c().len(), 7);
        assert_eq!(oracles().len(), 3);
    }

    #[test]
    fn ids_are_unique_within_groups() {
        for group in [group_a(), group_b(), group_c(), oracles()] {
            let mut ids: Vec<_> = group.iter().map(|e| e.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), group.len());
        }
    }

    #[test]
    fn c1_matches_a5_policy() {
        let (a, c) = (a5(), c1());
        match (&a.kind, &c.kind) {
            (ExperimentKind::Throttle(pa), ExperimentKind::Throttle(pc)) => assert_eq!(pa, pc),
            _ => panic!("A5/C1 must be throttle experiments"),
        }
    }

    #[test]
    fn c2_adds_no_select_to_c1() {
        let (c1e, c2e) = (c1(), c2());
        let (ExperimentKind::Throttle(p1), ExperimentKind::Throttle(p2)) = (&c1e.kind, &c2e.kind)
        else {
            panic!("throttle experiments expected")
        };
        assert!(!p1.lc.no_select);
        assert!(p2.lc.no_select);
        assert_eq!(p1.lc.fetch, p2.lc.fetch);
        assert_eq!(p1.vlc, p2.vlc);
    }

    #[test]
    fn gating_threshold_is_parameterisable() {
        assert_eq!(a7().gating_threshold(), Some(2));
        assert_eq!(gating(4).gating_threshold(), Some(4));
        assert_eq!(gating(4).id, a7().id, "threshold variants keep the paper id");
        assert_eq!(c7().with_gating_threshold(1).gating_threshold(), Some(1));
        // Non-gating experiments have no threshold and ignore the setter.
        assert_eq!(c2().gating_threshold(), None);
        assert_eq!(c2().with_gating_threshold(9), c2());
        assert_eq!(baseline().with_gating_threshold(9), baseline());
    }

    #[test]
    fn gating_uses_jrs_estimator_others_use_saturating() {
        assert_eq!(a7().make_estimator(8 * 1024).name(), "jrs");
        assert_eq!(c2().make_estimator(8 * 1024).name(), "bpru-sat");
        assert_eq!(baseline().make_estimator(8 * 1024).name(), "bpru-sat");
        assert_eq!(a7().estimator_spec(4096), EstimatorSpec::Jrs { bytes: 4096 });
        assert_eq!(
            c2().estimator_spec(4096),
            EstimatorSpec::Saturating(SaturatingConfig {
                bytes: 4096,
                ..SaturatingConfig::paper_default()
            })
        );
    }

    #[test]
    fn controllers_instantiate() {
        for e in group_a().into_iter().chain(group_b()).chain(group_c()).chain(oracles()) {
            let c = e.make_controller();
            assert!(!c.name().is_empty());
        }
        assert_eq!(baseline().make_controller().name(), "baseline");
    }

    #[test]
    fn b_and_c_experiments_always_stall_fetch_on_vlc() {
        for e in group_b().into_iter().chain(group_c()) {
            if let ExperimentKind::Throttle(p) = &e.kind {
                assert_eq!(p.vlc.fetch, BandwidthLevel::Stall, "{}", e.id);
            }
        }
    }
}
