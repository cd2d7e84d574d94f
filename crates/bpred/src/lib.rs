//! # st-bpred — branch prediction and confidence estimation
//!
//! The branch direction predictor, branch target buffer and the two branch
//! *confidence estimators* of the Selective Throttling paper (Aragón,
//! González & González, HPCA-9 2003):
//!
//! * [`Gshare`] — the paper's underlying predictor (McFarling), with
//!   speculatively-updated global history managed by the pipeline through
//!   [`GlobalHistory`] checkpoints;
//! * [`Btb`] — 1024-entry 2-way branch target buffer (Table 3);
//! * [`Estimator`] — the machine's confidence estimator, one of two
//!   designs:
//!   * [`SaturatingEstimator`] — the paper's BPRU-style estimator: a
//!     tagged table of 3-bit up/down counters binned into the four
//!     confidence levels (counter 0-1 ⇒ VHC, 2-3 ⇒ HC, 4-5 ⇒ LC, 6-7 ⇒
//!     VLC, §4.3), with the weak-predictor-counter fallback on a table
//!     miss;
//!   * [`JrsEstimator`] — the Jacobsen/Rotenberg/Smith resetting-counter
//!     estimator used by the Pipeline Gating baseline (MDC threshold 12);
//! * SPEC / PVN accounting ([`ConfidenceStats`]) as defined by Grunwald et
//!   al.: SPEC = fraction of mispredictions labelled low-confidence,
//!   PVN = fraction of low-confidence labels that are mispredictions.
//!
//! ## Example
//!
//! ```
//! use st_bpred::{Gshare, GlobalHistory};
//! use st_isa::Pc;
//!
//! let mut predictor = Gshare::with_table_bytes(8 * 1024);
//! let mut history = GlobalHistory::new(predictor.history_bits());
//! let pred = predictor.predict(Pc(0x400000), history.value());
//! predictor.update(Pc(0x400000), history.value(), true);
//! history.push(true);
//! assert!(pred.taken, "counters start weakly taken");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod btb;
pub mod confidence;
pub mod counter;
pub mod direction;
pub mod history;
pub mod metrics;

pub use btb::Btb;
pub use confidence::{Confidence, Estimator, JrsEstimator, SaturatingConfig, SaturatingEstimator};
pub use counter::SatCounter;
pub use direction::{Gshare, Prediction};
pub use history::GlobalHistory;
pub use metrics::{ConfidenceStats, PredictorStats};
