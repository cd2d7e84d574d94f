//! Architectural (oracle) execution of a program.
//!
//! The [`Walker`] produces the *committed* instruction stream of a program
//! in program order: the stream an ideal processor would retire. The cycle
//! simulator's fetch engine consumes walker records while it is on the
//! correct path; each record carries the branch's true outcome and the
//! memory instruction's architectural address, so mispredictions are
//! detectable at resolution and correct-path redirects are exact.
//!
//! While the fetch engine is on a *wrong* path the walker is simply not
//! advanced; the non-consuming helpers ([`Walker::speculative_branch_outcome`],
//! [`Walker::peek_mem_addr`]) supply plausible outcomes/addresses for
//! wrong-path instructions without perturbing architectural state.

use crate::behavior::BranchState;
use crate::op::{Instr, OpClass, Terminator};
use crate::program::Program;
use crate::types::{BlockId, BranchId, Pc, StreamId};

/// One architectural (correct-path) dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchInstr {
    /// Zero-based position in the committed stream.
    pub index: u64,
    /// Instruction address.
    pub pc: Pc,
    /// The static instruction.
    pub instr: Instr,
    /// Containing block.
    pub block: BlockId,
    /// True outcome, for conditional branches.
    pub taken: Option<bool>,
    /// Architectural next PC (branch/jump target or sequential successor).
    pub next_pc: Pc,
    /// Architectural effective address, for loads and stores.
    pub mem_addr: Option<u64>,
    /// Static branch id, for conditional branches.
    pub branch: Option<BranchId>,
}

/// Oracle walker over a program's committed path.
#[derive(Debug, Clone)]
pub struct Walker {
    cur_block: BlockId,
    idx: usize,
    branch_states: Vec<BranchState>,
    stream_counts: Vec<u64>,
    emitted: u64,
}

impl Walker {
    /// Starts a walker at the program's entry block.
    #[must_use]
    pub fn new(program: &Program) -> Walker {
        Walker {
            cur_block: program.entry(),
            idx: 0,
            branch_states: vec![BranchState::default(); program.branch_count()],
            stream_counts: vec![0; program.stream_count()],
            emitted: 0,
        }
    }

    /// Number of architectural instructions emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Produces the next committed-path instruction and advances.
    ///
    /// The walker never terminates: generated programs are strongly
    /// connected, and run length is chosen by the simulator (the paper
    /// similarly fixes dynamic instruction budgets per benchmark).
    pub fn next_instr(&mut self, program: &Program) -> ArchInstr {
        let block_id = self.cur_block;
        let block = program.block(block_id);
        let idx = self.idx;
        let instr = block.instrs[idx];
        let pc = block.pc_at(idx);
        let is_last = idx + 1 == block.len();

        let mut taken = None;
        let mut branch = None;
        let next_pc;
        if is_last {
            let next_block = match block.terminator {
                Terminator::Fallthrough(next) => next,
                Terminator::Jump(next) => next,
                Terminator::Branch { branch: id, .. } => {
                    let model = program.branch_model(id);
                    let outcome = model.next_outcome(&mut self.branch_states[id.index()]);
                    taken = Some(outcome);
                    branch = Some(id);
                    block.terminator.successor(outcome)
                }
            };
            next_pc = program.block(next_block).start_pc;
            self.cur_block = next_block;
            self.idx = 0;
        } else {
            next_pc = pc.next();
            self.idx += 1;
        }

        let mem_addr = if instr.op.is_mem() {
            let sid = instr.stream.expect("memory instruction carries a stream");
            let n = self.stream_counts[sid.index()];
            self.stream_counts[sid.index()] += 1;
            Some(program.stream(sid).address(n))
        } else {
            None
        };

        let index = self.emitted;
        self.emitted += 1;
        ArchInstr { index, pc, instr, block: block_id, taken, next_pc, mem_addr, branch }
    }

    /// A plausible outcome for a wrong-path execution of `branch`.
    ///
    /// Pure with respect to architectural state; `salt` should vary per
    /// wrong-path instance (e.g. the pipeline sequence number).
    #[must_use]
    pub fn speculative_branch_outcome(
        &self,
        program: &Program,
        branch: BranchId,
        salt: u64,
    ) -> bool {
        let model = program.branch_model(branch);
        model.speculative_outcome(&self.branch_states[branch.index()], salt)
    }

    /// The address a wrong-path instance of `stream` would access: the
    /// address of its *next* architectural occurrence. Non-consuming.
    #[must_use]
    pub fn peek_mem_addr(&self, program: &Program, stream: StreamId) -> u64 {
        program.stream(stream).address(self.stream_counts[stream.index()])
    }

    /// A plausible address for a *wrong-path* instance of `stream`.
    ///
    /// Wrong-path loads must not be perfect prefetches of the next
    /// architectural access (they would then *help* the correct path, the
    /// opposite of the cache-pollution effect §3 of the paper observes).
    /// Down a wrong path the producing registers hold stale or wrong
    /// values, so half of wrong-path accesses land at a random spot in the
    /// stream's shared heap region (pure pollution) and the rest displace a
    /// few occurrences into the stream's own future. Non-consuming and
    /// deterministic in `salt`.
    #[must_use]
    pub fn wrong_path_mem_addr(&self, program: &Program, stream: StreamId, salt: u64) -> u64 {
        let spec = program.stream(stream);
        let h = crate::hash::mix2(salt, 0x776d_656d);
        if h & 1 == 1 {
            // Garbage-register access: uniform in the shared heap region.
            let slots = (spec.region_size / crate::memstream::ACCESS_BYTES).max(1);
            let slot = (h >> 1) % slots;
            spec.region_base + slot * crate::memstream::ACCESS_BYTES
        } else {
            let n = self.stream_counts[stream.index()];
            let offset = 8 + ((h >> 1) & 0x37);
            spec.address(n + offset)
        }
    }

    /// Runs the walker forward `n` instructions, returning how many
    /// conditional branches were seen (convenience for warm-up and tests).
    pub fn skip(&mut self, program: &Program, n: u64) -> u64 {
        let mut branches = 0;
        for _ in 0..n {
            if self.next_instr(program).instr.op == OpClass::Branch {
                branches += 1;
            }
        }
        branches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{BranchBehavior, BranchModel};
    use crate::generate::WorkloadSpec;
    use crate::op::Instr;
    use crate::program::{BasicBlock, CODE_BASE};
    use crate::types::{Reg, INSTR_BYTES};

    /// B0: [alu, branch(loop trip 3)] taken->B0, nt->B1; B1: [jump] -> B0.
    fn loop_program() -> Program {
        let b0 = BasicBlock {
            start_pc: Pc(CODE_BASE),
            instrs: vec![Instr::alu(Reg(1), Reg(2), Reg(3)), Instr::branch(Reg(1), None)],
            terminator: Terminator::Branch {
                branch: BranchId(0),
                taken: BlockId(0),
                not_taken: BlockId(1),
            },
        };
        let b1 = BasicBlock {
            start_pc: Pc(CODE_BASE + 2 * INSTR_BYTES),
            instrs: vec![Instr::jump()],
            terminator: Terminator::Jump(BlockId(0)),
        };
        Program::new(
            "loop",
            vec![b0, b1],
            vec![BranchModel::new(BranchBehavior::Loop { trip: 3 }, 1)],
            vec![],
            BlockId(0),
        )
        .unwrap()
    }

    #[test]
    fn walker_follows_loop_control_flow() {
        let p = loop_program();
        let mut w = Walker::new(&p);
        // Expected committed stream: (alu, br T) x2, (alu, br N), jump, repeat.
        let kinds: Vec<_> = (0..14).map(|_| w.next_instr(&p)).collect();
        let ops: Vec<_> = kinds.iter().map(|a| a.instr.op).collect();
        assert_eq!(
            ops,
            vec![
                OpClass::IntAlu,
                OpClass::Branch,
                OpClass::IntAlu,
                OpClass::Branch,
                OpClass::IntAlu,
                OpClass::Branch,
                OpClass::Jump,
                OpClass::IntAlu,
                OpClass::Branch,
                OpClass::IntAlu,
                OpClass::Branch,
                OpClass::IntAlu,
                OpClass::Branch,
                OpClass::Jump,
            ]
        );
        let outcomes: Vec<_> = kinds.iter().filter_map(|a| a.taken).collect();
        assert_eq!(outcomes, vec![true, true, false, true, true, false]);
    }

    #[test]
    fn next_pc_matches_control_flow() {
        let p = loop_program();
        let mut w = Walker::new(&p);
        let a0 = w.next_instr(&p); // alu
        assert_eq!(a0.next_pc, a0.pc.next());
        let b0 = w.next_instr(&p); // taken branch -> B0
        assert_eq!(b0.next_pc, Pc(CODE_BASE));
        w.next_instr(&p); // alu
        w.next_instr(&p); // taken branch
        w.next_instr(&p); // alu
        let bn = w.next_instr(&p); // not-taken -> B1
        assert_eq!(bn.taken, Some(false));
        assert_eq!(bn.next_pc, Pc(CODE_BASE + 2 * INSTR_BYTES));
        let j = w.next_instr(&p); // jump -> B0
        assert_eq!(j.next_pc, Pc(CODE_BASE));
        assert_eq!(j.taken, None);
    }

    #[test]
    fn indices_are_sequential() {
        let p = loop_program();
        let mut w = Walker::new(&p);
        for i in 0..20 {
            assert_eq!(w.next_instr(&p).index, i);
        }
        assert_eq!(w.emitted(), 20);
    }

    #[test]
    fn walker_is_deterministic_on_generated_programs() {
        let p = WorkloadSpec::builder("w").seed(9).blocks(200).build().generate();
        let mut w1 = Walker::new(&p);
        let mut w2 = Walker::new(&p);
        for _ in 0..5_000 {
            assert_eq!(w1.next_instr(&p), w2.next_instr(&p));
        }
    }

    #[test]
    fn peek_mem_addr_matches_next_consumed_address() {
        let p = WorkloadSpec::builder("w").seed(5).blocks(200).build().generate();
        let mut w = Walker::new(&p);
        for _ in 0..10_000 {
            // Peek every stream the next instruction could touch, then check
            // that consuming yields the peeked address.
            let snapshot = w.clone();
            let a = w.next_instr(&p);
            if let (Some(sid), Some(addr)) = (a.instr.stream, a.mem_addr) {
                assert_eq!(snapshot.peek_mem_addr(&p, sid), addr);
            }
        }
    }

    #[test]
    fn speculative_outcome_does_not_disturb_walk() {
        let p = WorkloadSpec::builder("w").seed(6).blocks(200).build().generate();
        let mut w1 = Walker::new(&p);
        let mut w2 = Walker::new(&p);
        for i in 0..5_000u64 {
            // Interleave speculative queries on w1 only.
            if p.branch_count() > 0 {
                let _ = w1.speculative_branch_outcome(&p, BranchId(0), i);
            }
            assert_eq!(w1.next_instr(&p), w2.next_instr(&p));
        }
    }

    #[test]
    fn skip_counts_branches() {
        let p = loop_program();
        let mut w = Walker::new(&p);
        // One loop iteration of the trip-3 loop: alu br alu br alu br jump.
        let branches = w.skip(&p, 7);
        assert_eq!(branches, 3);
    }
}
