//! The cycle-level out-of-order core: machine state and the cycle loop.
//!
//! One [`Core`] owns a program, its architectural [`Walker`], the branch
//! prediction front end, the memory hierarchy, the power model and a
//! [`SpeculationController`]. [`Core::run`] advances cycle by cycle until a
//! commit budget is reached, processing stages in reverse order each cycle
//! (commit → writeback → issue → dispatch → fetch) so that same-cycle
//! structural interactions resolve like hardware.
//!
//! The stages live in sibling modules — `frontend` (fetch, dispatch) and
//! `backend` (issue, writeback, commit) — on top of the flat-array/bitset
//! state of `hotstate`:
//!
//! * the RUU and LSQ are slot-stable ring buffers (`hotstate::Ring`);
//!   in-flight structures refer to entries by physical slot, never by
//!   scanning;
//! * register wakeup is a dependant bitmask per producer
//!   (`hotstate::DepMatrix`): one finishing writer wakes its waiters by
//!   draining one mask row instead of walking the window;
//! * selection requests are a bitset (`hotstate::Bits`) iterated in
//!   program order, so issue touches only entries whose request lines are
//!   raised instead of every window slot. Each entry mirrors what
//!   selection reads (op, wrong-path flag, no-select tag), so a visit
//!   stays inside the window;
//! * an entry names its producers and its no-select trigger branch by
//!   sequence number *and* RUU slot (`InFlight`), so "is it still in
//!   flight?" is one slot read, never a search of the window;
//! * completion events sit in an `hotstate::EventWheel` rather than an
//!   ordered tree map;
//! * conditional-branch rename checkpoints are pooled
//!   (`hotstate::CheckpointPool`) instead of boxed per branch.
//!
//! ## Wrong-path machinery
//!
//! Fetch follows predicted paths through the static code. While fetch is on
//! the *correct* path every fetched instruction consumes the next [`Walker`]
//! record, which carries the branch's true outcome and the memory
//! instruction's architectural address. When the effective prediction of a
//! correct-path branch disagrees with its true outcome, fetch silently
//! diverges: younger instructions are flagged `wrong_path`, drawn from the
//! static image (with speculative outcomes/addresses that do not perturb
//! architectural state). When the diverging branch resolves, everything
//! younger squashes, rename/history checkpoints are restored, and fetch
//! redirects to the stored architectural continuation — at which point the
//! walker resumes. Wrong-path branches resolve with their speculative
//! outcome and can redirect fetch *within* the wrong path, nesting further
//! squashes, exactly as an execution-driven simulator behaves.

use std::collections::VecDeque;
use std::sync::Arc;

use st_bpred::{
    Btb, ConfidenceStats, Estimator, GlobalHistory, Gshare, PredictorStats, SaturatingEstimator,
};
use st_isa::{OpClass, Pc, Program, Reg, Walker};
use st_mem::MemoryHierarchy;
use st_power::{
    CycleActivity, EnergyAccount, EnergyReport, PowerConfig, PowerModel, Unit, UNIT_COUNT,
};

use crate::config::PipelineConfig;
use crate::controller::{NullController, OracleMode, SpeculationController};
use crate::hotstate::{
    Bits, CheckpointPool, Completion, DepMatrix, EventWheel, FuPool, InstrSlab, RenameTable, Ring,
};
use crate::instr::{DynInstr, SeqNum};
use crate::stats::{MemSummary, PerfStats};

/// Instruction waiting between fetch and rename (models the in-order
/// front-end latency). Holds a handle into the instruction slab — the
/// 144 B body stays slot-resident from fetch to retirement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IfqSlot {
    /// Slab handle of the instruction body.
    pub(crate) h: u32,
    pub(crate) ready_at: u64,
}

/// Sentinel for "no LSQ entry" in [`RuuEntry::lsq_slot`].
pub(crate) const NO_LSQ_SLOT: u32 = u32::MAX;

/// Sentinel for "never found blocked" in [`RuuEntry::blocked_at`].
pub(crate) const NOT_BLOCKED: u64 = u64::MAX;

/// An instruction named by its sequence number and the RUU slot it was
/// dispatched into.
///
/// A slot is stable while its entry lives and sequence numbers are never
/// reused, so `ruu[slot].seq == seq` holds exactly while the instruction
/// is in flight: the same answer a search of the window by `seq` gives,
/// at the cost of one slot read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InFlight {
    pub(crate) seq: SeqNum,
    pub(crate) slot: u32,
}

/// Register update unit (instruction window + reorder buffer) entry.
///
/// Scheduling state only: the instruction body lives in the slab behind
/// `h` and is mutated in place. `seq`, `op` and `wrong_path` are
/// mirrored here because selection reads them every cycle an entry
/// requests: one window read instead of a slab dereference.
#[derive(Debug)]
pub(crate) struct RuuEntry {
    /// Slab handle of the instruction body.
    pub(crate) h: u32,
    /// Mirror of the body's sequence number.
    pub(crate) seq: SeqNum,
    /// Mirror of the body's operation class.
    pub(crate) op: OpClass,
    /// Mirror of the body's wrong-path flag.
    pub(crate) wrong_path: bool,
    /// Selection-throttling tag: the entry may not be *selected* while
    /// this trigger branch is unresolved (Figure 2's no-select bit).
    /// Wakeup is unaffected.
    pub(crate) no_select: Option<InFlight>,
    /// Cycles this entry raised its request line, whose window events
    /// are charged to its ledger when it commits or squashes.
    pub(crate) requests: u32,
    /// For a load found blocked behind an older store with an unknown
    /// address: [`Core::stores_addressed`] at that check, else
    /// [`NOT_BLOCKED`].
    pub(crate) blocked_at: u64,
    /// Unresolved producers per source operand.
    pub(crate) src_wait: [Option<InFlight>; 2],
    /// Number of unresolved producers (0 = operands ready).
    pub(crate) wait_count: u8,
    pub(crate) issued: bool,
    pub(crate) completed: bool,
    /// Pool index of the rename-map snapshot taken when a conditional
    /// branch dispatches; restored if the branch mispredicts.
    pub(crate) rename_checkpoint: Option<u32>,
    /// LSQ slot of this instruction's load/store entry, [`NO_LSQ_SLOT`]
    /// for non-memory ops.
    pub(crate) lsq_slot: u32,
}

/// Sentinel for "no previous store" in [`LsqEntry::prev_store_slot`].
pub(crate) const NO_STORE_SLOT: u32 = u32::MAX;

/// Load/store queue entry (kept in program order).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LsqEntry {
    pub(crate) seq: SeqNum,
    pub(crate) is_store: bool,
    pub(crate) addr: u64,
    pub(crate) issued: bool,
    /// Physical LSQ slot of the youngest store older than this entry at
    /// insertion time (validated against slot reuse before use).
    pub(crate) prev_store_slot: u32,
}

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Performance counters.
    pub perf: PerfStats,
    /// Energy accounting (power, energy, E·D, per-unit shares and waste).
    pub energy: EnergyReport,
    /// Committed-branch prediction accuracy (direction only — the quantity
    /// Table 2 reports for gshare).
    pub bpred: PredictorStats,
    /// Confidence-estimator quality over committed branches (SPEC/PVN).
    pub conf: ConfidenceStats,
    /// Cache/TLB behaviour.
    pub mem: MemSummary,
}

impl SimResult {
    /// Committed IPC (convenience).
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.perf.ipc()
    }
}

/// Builder for [`Core`] (C-BUILDER): program is mandatory, everything else
/// defaults to the paper's configuration. The direction predictor is
/// always a gshare of [`PipelineConfig::predictor_bytes`]; the estimator
/// defaults to the BPRU-style one of
/// [`PipelineConfig::estimator_bytes`].
pub struct CoreBuilder {
    program: Arc<Program>,
    config: PipelineConfig,
    estimator: Option<Estimator>,
    controller: Option<Box<dyn SpeculationController>>,
    power: PowerConfig,
}

impl std::fmt::Debug for CoreBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreBuilder").field("program", &self.program.name()).finish_non_exhaustive()
    }
}

impl CoreBuilder {
    /// Starts building a core for `program`. Pass an `Arc<Program>` to
    /// let several cores (one after another or at once) run one generated
    /// program without copying it.
    #[must_use]
    pub fn new(program: impl Into<Arc<Program>>) -> CoreBuilder {
        CoreBuilder {
            program: program.into(),
            config: PipelineConfig::paper_default(),
            estimator: None,
            controller: None,
            power: PowerConfig::paper_default(),
        }
    }

    /// Sets the pipeline configuration.
    #[must_use]
    pub fn config(mut self, config: PipelineConfig) -> CoreBuilder {
        self.config = config;
        self
    }

    /// Replaces the default BPRU-style confidence estimator.
    #[must_use]
    pub fn estimator(mut self, e: Estimator) -> CoreBuilder {
        self.estimator = Some(e);
        self
    }

    /// Installs a speculation controller (default: unthrottled baseline).
    #[must_use]
    pub fn controller(mut self, c: Box<dyn SpeculationController>) -> CoreBuilder {
        self.controller = Some(c);
        self
    }

    /// Sets the power-model configuration.
    #[must_use]
    pub fn power(mut self, p: PowerConfig) -> CoreBuilder {
        self.power = p;
        self
    }

    /// Builds the core.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline configuration is inconsistent
    /// (see [`PipelineConfig::validate`]).
    #[must_use]
    pub fn build(self) -> Core {
        self.config.validate();
        let predictor = Gshare::with_table_bytes(self.config.predictor_bytes);
        let estimator = self.estimator.unwrap_or_else(|| {
            Estimator::Saturating(SaturatingEstimator::with_table_bytes(
                self.config.estimator_bytes,
            ))
        });
        let controller = self.controller.unwrap_or_else(|| Box::new(NullController));
        let walker = Walker::new(&self.program);
        let fetch_pc = self.program.block(self.program.entry()).start_pc;
        let ghr = GlobalHistory::new(predictor.history_bits());
        let fu = &self.config.fu;
        let ruu: Ring<RuuEntry> = Ring::with_capacity(self.config.ruu_size);
        let ruu_cap = ruu.capacity();
        let lsq: Ring<LsqEntry> = Ring::with_capacity(self.config.lsq_size);
        let lsq_cap = lsq.capacity();
        // The wheel horizon comfortably covers the longest modelled
        // completion: TLB refill + memory + execute stretch; anything an
        // exotic axis pushes beyond it lands in the overflow map.
        let mem = &self.config.mem;
        let max_latency = u64::from(mem.tlb_miss_latency)
            + u64::from(mem.l1d.hit_latency)
            + u64::from(mem.l2.hit_latency)
            + u64::from(mem.memory_latency)
            + u64::from(self.config.exec_extra_latency)
            + u64::from(self.config.fu.fp_mult.1)
            + 8;
        let power = PowerModel::new(self.power);
        // Per-event energies are constant per run: cache them flat so the
        // hot loop reads an array instead of calling through the model.
        let mut ev = [0.0; UNIT_COUNT];
        for u in Unit::all() {
            ev[u.index()] = power.event_energy(u);
        }
        let line_bytes = u64::from(self.config.mem.l1i.line_bytes as u32);
        let icache_share =
            power.event_energy(Unit::ICache) / (line_bytes / st_isa::INSTR_BYTES) as f64;
        let idle = CycleActivity::default();
        let idle_energy = power.per_unit_energy(&idle);
        let oracle = controller.oracle();
        Core {
            mem: MemoryHierarchy::new(self.config.mem.clone()),
            power,
            ev,
            icache_share,
            btb: Btb::paper_default(),
            predictor,
            estimator,
            controller,
            oracle,
            walker,
            ghr,
            fetch_pc,
            on_correct_path: true,
            fetch_stall_until: 0,
            line_shift: (self.config.mem.l1i.line_bytes as u64).trailing_zeros(),
            slab: InstrSlab::with_capacity(self.config.ifq_size + self.config.ruu_size),
            ifq: VecDeque::new(),
            ruu,
            ruu_request: Bits::new(ruu_cap),
            ruu_deps: DepMatrix::new(ruu_cap),
            lsq,
            lsq_unissued_stores: Bits::new(lsq_cap),
            lsq_last_store: NO_STORE_SLOT,
            stores_addressed: 0,
            rename: RenameTable::new(),
            checkpoints: CheckpointPool::default(),
            int_alu: FuPool::new(fu.int_alu.0, fu.int_alu.1, true),
            int_mult: FuPool::new(fu.int_mult.0, fu.int_mult.1, false),
            mem_ports: FuPool::new(fu.mem_ports.0, fu.mem_ports.1, true),
            fp_alu: FuPool::new(fu.fp_alu.0, fu.fp_alu.1, true),
            fp_mult: FuPool::new(fu.fp_mult.0, fu.fp_mult.1, false),
            wheel: EventWheel::new(max_latency as usize),
            finishing: Vec::new(),
            cycle: 0,
            next_seq: 0,
            activity: idle,
            last_activity: idle,
            last_energy: idle_energy,
            account: EnergyAccount::new(),
            perf: PerfStats::default(),
            bstats: PredictorStats::default(),
            cstats: ConfidenceStats::default(),
            commit_trace: None,
            config: self.config,
            program: self.program,
        }
    }
}

/// The simulated processor.
pub struct Core {
    pub(crate) program: Arc<Program>,
    pub(crate) config: PipelineConfig,

    pub(crate) predictor: Gshare,
    pub(crate) estimator: Estimator,
    pub(crate) controller: Box<dyn SpeculationController>,
    /// The controller's oracle mode, constant per run and read once.
    pub(crate) oracle: OracleMode,
    pub(crate) btb: Btb,
    pub(crate) mem: MemoryHierarchy,
    pub(crate) power: PowerModel,
    /// Cached per-event energies (`power.event_energy(u)` per unit).
    pub(crate) ev: [f64; UNIT_COUNT],
    /// Per-instruction share of one I-cache line access's energy.
    pub(crate) icache_share: f64,

    pub(crate) walker: Walker,
    pub(crate) ghr: GlobalHistory,

    // Front end.
    pub(crate) fetch_pc: Pc,
    pub(crate) on_correct_path: bool,
    pub(crate) fetch_stall_until: u64,
    /// log2 of the L1I line size (fetch groups share a line access).
    pub(crate) line_shift: u32,
    /// Slot-resident instruction bodies (IFQ/RUU move handles into here).
    pub(crate) slab: InstrSlab,
    pub(crate) ifq: VecDeque<IfqSlot>,

    // Back end: slot-stable window + scoreboard.
    pub(crate) ruu: Ring<RuuEntry>,
    /// Raised request lines: dispatched, not yet issued, operands ready.
    pub(crate) ruu_request: Bits,
    /// Wakeup matrix: row = producer slot, bits = waiting slots.
    pub(crate) ruu_deps: DepMatrix,
    pub(crate) lsq: Ring<LsqEntry>,
    /// LSQ slots holding stores whose address is not yet computed.
    pub(crate) lsq_unissued_stores: Bits,
    /// Physical LSQ slot of the youngest live store ([`NO_STORE_SLOT`] if
    /// none was ever pushed; validated against reuse before use).
    pub(crate) lsq_last_store: u32,
    /// Store addresses computed so far. A load blocked behind an unknown
    /// older store address stays blocked until this count moves.
    pub(crate) stores_addressed: u64,
    pub(crate) rename: RenameTable,
    pub(crate) checkpoints: CheckpointPool,
    pub(crate) int_alu: FuPool,
    pub(crate) int_mult: FuPool,
    pub(crate) mem_ports: FuPool,
    pub(crate) fp_alu: FuPool,
    pub(crate) fp_mult: FuPool,
    /// Completion cycle → instructions finishing then.
    pub(crate) wheel: EventWheel,
    /// Reused buffer for the per-cycle finishing list.
    pub(crate) finishing: Vec<Completion>,

    // Bookkeeping.
    pub(crate) cycle: u64,
    pub(crate) next_seq: u64,
    pub(crate) activity: CycleActivity,
    /// The last cycle's activity whose energy was computed, and that
    /// energy per unit.
    pub(crate) last_activity: CycleActivity,
    pub(crate) last_energy: [f64; UNIT_COUNT],
    pub(crate) account: EnergyAccount,
    pub(crate) perf: PerfStats,
    pub(crate) bstats: PredictorStats,
    pub(crate) cstats: ConfidenceStats,
    /// When present, commit PCs are appended here (testing/verification).
    pub(crate) commit_trace: Option<Vec<Pc>>,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("program", &self.program.name())
            .field("cycle", &self.cycle)
            .field("committed", &self.perf.committed)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// The pipeline configuration.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Current cycle count.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Enables commit-trace collection (used by verification tests).
    pub fn enable_commit_trace(&mut self) {
        self.commit_trace = Some(Vec::new());
    }

    /// The collected commit trace, if enabled.
    #[must_use]
    pub fn commit_trace(&self) -> Option<&[Pc]> {
        self.commit_trace.as_deref()
    }

    /// Runs until at least `max_commits` instructions have committed and
    /// returns the accumulated result.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline stops making forward progress (a simulator
    /// bug, not a recoverable condition).
    pub fn run(&mut self, max_commits: u64) -> SimResult {
        let target = self.perf.committed + max_commits;
        let mut last_commit = self.perf.committed;
        let mut stall_watchdog = 0u64;
        while self.perf.committed < target {
            self.step();
            if self.perf.committed == last_commit {
                stall_watchdog += 1;
                assert!(
                    stall_watchdog < 100_000,
                    "pipeline deadlock at cycle {} (committed {})",
                    self.cycle,
                    self.perf.committed
                );
            } else {
                last_commit = self.perf.committed;
                stall_watchdog = 0;
            }
        }
        self.result()
    }

    /// Builds a result snapshot from the current accumulated state.
    #[must_use]
    pub fn result(&self) -> SimResult {
        SimResult {
            perf: self.perf,
            energy: EnergyReport::from_account(
                &self.account,
                self.perf.committed,
                self.power.config().frequency_hz,
            ),
            bpred: self.bstats,
            conf: self.cstats,
            mem: MemSummary {
                l1i_miss_rate: self.mem.l1i_stats().miss_rate(),
                l1d_miss_rate: self.mem.l1d_stats().miss_rate(),
                l2_miss_rate: self.mem.l2_stats().miss_rate(),
                tlb_miss_rate: self.mem.tlb_miss_rate(),
            },
        }
    }

    /// Advances the machine one cycle.
    pub fn step(&mut self) {
        self.commit();
        self.writeback();
        self.issue();
        self.dispatch();
        self.fetch();
        self.end_cycle();
    }

    /// End-of-cycle bookkeeping: power accumulation and the cycle count.
    ///
    /// A cycle's energy is a function of its activity alone, and stalled
    /// stretches repeat one activity exactly, so the per-unit energies
    /// are recomputed only when the activity differs from the last
    /// cycle's. The account still receives every cycle's 11 additions in
    /// unit order.
    pub(crate) fn end_cycle(&mut self) {
        if self.activity != self.last_activity {
            self.last_energy = self.power.per_unit_energy(&self.activity);
            self.last_activity = self.activity;
        }
        self.account.add_cycle(&self.last_energy);
        self.activity.clear();
        self.cycle += 1;
        self.perf.cycles = self.cycle;
    }

    /// Physical RUU slot holding sequence number `seq`, if in flight.
    /// Binary search: ring order is dispatch order is seq order.
    pub(crate) fn find_ruu(&self, seq: SeqNum) -> Option<usize> {
        self.ruu.find_by_key(seq, |e| e.seq)
    }

    /// The window entry of `r`, if it is still in flight.
    pub(crate) fn in_flight(&self, r: InFlight) -> Option<&RuuEntry> {
        let live = self.ruu.get(r.slot as usize).filter(|e| e.seq == r.seq);
        debug_assert_eq!(
            live.map(|_| r.slot as usize),
            self.find_ruu(r.seq),
            "slot check disagrees with the window search for {}",
            r.seq
        );
        live
    }

    /// Charges the window events of the `requests` cycles an entry raised
    /// its request line to its ledger, before the ledger settles. Every
    /// window charge is the same `ev[Window]`, so the `f32` sum depends
    /// only on how many there are, not on when they were added.
    pub(crate) fn charge_requests(&mut self, h: u32, requests: u32) {
        let window_event = self.ev[Unit::Window.index()];
        let ledger = &mut self.slab.get_mut(h).ledger;
        for _ in 0..requests {
            ledger.charge(Unit::Window, window_event);
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new_dyn(
        &mut self,
        pc: Pc,
        op: OpClass,
        dest: Option<Reg>,
        src1: Option<Reg>,
        src2: Option<Reg>,
        wrong_path: bool,
        true_taken: Option<bool>,
        true_next: Pc,
        branch: Option<st_isa::BranchId>,
        mem_addr: Option<u64>,
    ) -> DynInstr {
        let seq = SeqNum(self.next_seq);
        self.next_seq += 1;
        DynInstr {
            seq,
            pc,
            op,
            dest,
            src1,
            src2,
            wrong_path,
            branch,
            pred_taken: false,
            pred_next: true_next,
            true_taken: true_taken.unwrap_or(false),
            true_next,
            confidence: None,
            hist_checkpoint: None,
            hist_at_predict: 0,
            mem_addr,
            ledger: st_power::EnergyLedger::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::OracleMode;
    use st_isa::WorkloadSpec;

    fn program(seed: u64) -> Program {
        WorkloadSpec::builder("pipe-test").seed(seed).blocks(256).build().generate()
    }

    fn run_default(seed: u64, n: u64) -> SimResult {
        CoreBuilder::new(program(seed)).build().run(n)
    }

    #[test]
    fn baseline_commits_and_has_sane_ipc() {
        let r = run_default(1, 10_000);
        assert!(r.perf.committed >= 10_000);
        let ipc = r.ipc();
        assert!(ipc > 0.3 && ipc <= 8.0, "ipc {ipc}");
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = run_default(2, 8_000);
        let b = run_default(2, 8_000);
        assert_eq!(a.perf, b.perf);
        assert_eq!(a.bpred, b.bpred);
        assert!((a.energy.energy - b.energy.energy).abs() < 1e-15);
    }

    #[test]
    fn committed_stream_matches_architectural_walk() {
        let p = program(3);
        let mut core = CoreBuilder::new(p.clone()).build();
        core.enable_commit_trace();
        core.run(5_000);
        let trace = core.commit_trace().expect("trace enabled");
        let mut walker = Walker::new(&p);
        for (i, &pc) in trace.iter().enumerate() {
            let arch = walker.next_instr(&p);
            assert_eq!(arch.pc, pc, "commit {i} diverged from architectural path");
        }
    }

    #[test]
    fn wrong_path_instructions_are_fetched_and_squashed() {
        let r = run_default(4, 20_000);
        assert!(r.perf.wrong_path_fetched > 0, "mispredictions must pull in wrong paths");
        assert!(r.perf.squashed > 0);
        assert!(r.perf.recoveries > 0);
        assert!(r.perf.mispredict_rate() > 0.0);
        // Wasted energy accounting must see the squashes.
        assert!(r.energy.wasted_frac() > 0.0);
    }

    #[test]
    fn oracle_fetch_never_fetches_wrong_path() {
        #[derive(Debug)]
        struct OracleFetch;
        impl SpeculationController for OracleFetch {
            fn oracle(&self) -> OracleMode {
                OracleMode::Fetch
            }
            fn name(&self) -> &str {
                "oracle-fetch"
            }
        }
        let mut core = CoreBuilder::new(program(5)).controller(Box::new(OracleFetch)).build();
        let r = core.run(10_000);
        assert_eq!(r.perf.wrong_path_fetched, 0);
        assert_eq!(r.perf.squashed, 0);
        // Branches still resolve as mispredicted (stats must be recorded).
        assert!(r.perf.mispredicts_committed > 0);
    }

    #[test]
    fn oracle_fetch_is_faster_and_cheaper_than_baseline() {
        #[derive(Debug)]
        struct OracleFetch;
        impl SpeculationController for OracleFetch {
            fn oracle(&self) -> OracleMode {
                OracleMode::Fetch
            }
            fn name(&self) -> &str {
                "oracle-fetch"
            }
        }
        let base = run_default(6, 20_000);
        let mut core = CoreBuilder::new(program(6)).controller(Box::new(OracleFetch)).build();
        let oracle = core.run(20_000);
        assert!(oracle.energy.energy < base.energy.energy, "oracle fetch must save energy");
        assert!(
            oracle.perf.cycles <= base.perf.cycles + base.perf.cycles / 20,
            "oracle fetch should not be slower (base {}, oracle {})",
            base.perf.cycles,
            oracle.perf.cycles
        );
    }

    #[test]
    fn gated_fetch_still_makes_progress() {
        #[derive(Debug)]
        struct HalfFetch;
        impl SpeculationController for HalfFetch {
            fn fetch_allowance(&mut self, cycle: u64, width: u32) -> u32 {
                if cycle.is_multiple_of(2) {
                    width
                } else {
                    0
                }
            }
            fn name(&self) -> &str {
                "half-fetch"
            }
        }
        let mut core = CoreBuilder::new(program(7)).controller(Box::new(HalfFetch)).build();
        let r = core.run(8_000);
        assert!(r.perf.committed >= 8_000);
        assert!(r.perf.fetch_gated_cycles > 0);
    }

    #[test]
    fn deeper_pipelines_waste_more_energy() {
        let shallow =
            CoreBuilder::new(program(8)).config(PipelineConfig::with_depth(6)).build().run(15_000);
        let deep =
            CoreBuilder::new(program(8)).config(PipelineConfig::with_depth(28)).build().run(15_000);
        assert!(
            deep.energy.wasted_frac() > shallow.energy.wasted_frac(),
            "deep {} vs shallow {}",
            deep.energy.wasted_frac(),
            shallow.energy.wasted_frac()
        );
        assert!(deep.perf.cycles > shallow.perf.cycles, "deep pipelines pay more per squash");
    }

    #[test]
    fn ruu_lsq_never_overflow_and_ipc_bounded() {
        let mut core = CoreBuilder::new(program(9)).build();
        for _ in 0..5_000 {
            core.step();
            assert!(core.ruu.len() <= core.config.ruu_size);
            assert!(core.lsq.len() <= core.config.lsq_size);
            assert!(core.ifq.len() <= core.config.ifq_size);
        }
    }

    #[test]
    fn result_snapshot_is_consistent() {
        let r = run_default(10, 5_000);
        assert_eq!(r.perf.cycles, r.energy.cycles);
        assert!(r.energy.avg_power() > 0.0);
        assert!(r.energy.avg_power() < 56.4, "cannot exceed peak power");
        assert!(r.mem.l1i_miss_rate >= 0.0 && r.mem.l1i_miss_rate <= 1.0);
        // Attributed energy cannot exceed total energy.
        let attributed: f64 = r.energy.wasted_per_unit.iter().sum::<f64>();
        assert!(attributed <= r.energy.energy);
    }

    #[test]
    fn scoreboard_invariants_hold_under_load() {
        // The request bitset and wait counts must stay consistent with the
        // entry flags across squashes and wrap-around.
        let mut core = CoreBuilder::new(program(11)).build();
        for _ in 0..3_000 {
            core.step();
            for (slot, e) in core.ruu.iter() {
                if e.issued {
                    assert_eq!(e.wait_count, 0, "issued entries cannot wait");
                }
                assert_eq!(
                    e.wait_count as usize,
                    e.src_wait.iter().filter(|w| w.is_some()).count(),
                    "wait_count mirrors src_wait at slot {slot}"
                );
            }
        }
        assert!(core.perf.committed > 0);
    }
}
