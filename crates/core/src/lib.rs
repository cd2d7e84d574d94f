//! # st-core — Selective Throttling
//!
//! The primary contribution of *"Power-Aware Control Speculation through
//! Selective Throttling"* (Aragón, González & González, HPCA-9 2003),
//! built on the `st-pipeline` cycle simulator:
//!
//! * **[`ThrottlePolicy`]** maps each of the four confidence levels
//!   (VHC/HC/LC/VLC) to a [`ThrottleAction`] — a fetch bandwidth level, a
//!   decode bandwidth level and a no-select flag;
//! * **[`SelectiveThrottleController`]** applies the policy: every
//!   low-confidence branch *triggers* its action until it resolves, with
//!   the paper's escalation rule (a later branch may tighten but never
//!   loosen the active restriction);
//! * **[`PipelineGatingController`]** reproduces the Manne/Klauser/Grunwald
//!   Pipeline Gating baseline (stall fetch while more than `threshold`
//!   low-confidence branches are unresolved, JRS estimator);
//! * **[`OracleController`]** implements the §3 potential study (oracle
//!   fetch / decode / select);
//! * **[`experiments`]** names every configuration of the evaluation:
//!   A1–A7 (Figure 3), B1–B9 (Figure 4), C1–C7 (Figure 5) and the oracle
//!   modes (Figure 1);
//! * **[`Simulator`]** is the high-level facade: workload + experiment +
//!   pipeline config → [`SimReport`], plus [`Comparison`] for the paper's
//!   speedup / power / energy / E-D metrics.
//!
//! ## Example
//!
//! ```
//! use st_core::{experiments, Simulator};
//! use st_isa::WorkloadSpec;
//!
//! let workload = WorkloadSpec::builder("demo").seed(7).blocks(256).build();
//! let baseline = Simulator::builder()
//!     .workload(workload.clone())
//!     .max_instructions(10_000)
//!     .build()
//!     .run();
//! let throttled = Simulator::builder()
//!     .workload(workload)
//!     .max_instructions(10_000)
//!     .experiment(experiments::c2())
//!     .build()
//!     .run();
//! let cmp = st_core::compare(&baseline, &throttled);
//! assert!(cmp.energy_savings_pct > -100.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod gating;
pub mod oracle;
pub mod selective;
pub mod simulator;
pub mod throttle;

pub use experiments::{EstimatorSpec, Experiment, ExperimentKind};
pub use gating::PipelineGatingController;
pub use oracle::OracleController;
pub use selective::SelectiveThrottleController;
pub use simulator::{
    average_comparison, compare, Comparison, SimReport, Simulator, SimulatorBuilder,
};
pub use throttle::{BandwidthLevel, ThrottleAction, ThrottlePolicy};
