//! # st-pipeline — cycle-level out-of-order superscalar core
//!
//! The timing substrate of the Selective Throttling reproduction: an
//! execution-driven, cycle-level model of the Table 3 processor —
//! 8-wide fetch/issue/commit, 128-entry register update unit (RUU),
//! 64-entry load/store queue, the Table 3 functional-unit pool, a
//! parameterisable-depth in-order front end (6–28 stages, Figure 6) and a
//! gshare front end with speculative history repair.
//!
//! Two properties matter for the paper and drive the design:
//!
//! 1. **Wrong-path instructions are first-class.** Fetch follows the
//!    *predicted* path through real static code; on a misprediction the
//!    machine keeps fetching, renaming, issuing and executing wrong-path
//!    instructions (polluting the I-cache and burning energy) until the
//!    branch resolves and squashes them. Wrong-path branches resolve with
//!    plausible outcomes and can redirect fetch deeper into the wrong path,
//!    as in SimpleScalar.
//! 2. **Every activity event is attributed.** Each pipeline event (fetch
//!    slot, prediction, rename, window write, wakeup, selection, ALU op,
//!    cache access, result-bus transfer) increments the cc3 activity model
//!    of [`st_power`] *and* charges the owning instruction's energy ledger,
//!    so squashed instructions carry their wasted energy to the accounting
//!    the paper's Table 1 and Figure 1 are built on.
//!
//! Throttling mechanisms plug in through [`SpeculationController`]:
//! the pipeline reports branch events (with confidence estimates) and asks
//! the controller for per-cycle fetch/decode allowances, no-select tags
//! (§4.1's selection throttling — the no-select bit of Figure 2) and
//! oracle modes (§3's oracle fetch/decode/select experiments).
//!
//! Internally the core is organised as a thin cycle loop ([`core`])
//! over front-end (`frontend`: fetch, dispatch) and back-end
//! (`backend`: issue, writeback, commit) stage modules, backed by
//! flat-array/bitset microarchitectural state (slot-stable RUU/LSQ
//! rings, dependant-mask wakeup, request-line bitsets, an event wheel
//! and pooled rename checkpoints in `hotstate`) — see the README's
//! "Architecture & hot path" section.
//! The representation is tuned for simulation speed; observable
//! behaviour is pinned bit-for-bit by `st-sweep`'s golden tests.
//!
//! ## Example
//!
//! ```
//! use st_pipeline::{Core, CoreBuilder, PipelineConfig};
//! use st_isa::WorkloadSpec;
//!
//! let program = WorkloadSpec::builder("demo").seed(1).blocks(128).build().generate();
//! let mut core = CoreBuilder::new(program).build();
//! let result = core.run(5_000);
//! assert!(result.perf.committed >= 5_000);
//! assert!(result.perf.ipc() > 0.1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
pub mod config;
pub mod controller;
pub mod core;
mod frontend;
mod hotstate;
pub mod instr;
pub mod stats;

pub use crate::core::{Core, CoreBuilder, SimResult};
pub use config::{FuConfig, PipelineConfig};
pub use controller::{BranchEvent, NullController, OracleMode, SpeculationController};
pub use instr::{DynInstr, SeqNum};
pub use stats::{MemSummary, PerfStats};
