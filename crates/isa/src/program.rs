//! Static program representation: basic blocks laid out in a code address
//! space, plus the per-branch and per-memory-instruction models.

use std::fmt;

use crate::behavior::BranchModel;
use crate::memstream::MemStreamSpec;
use crate::op::{Instr, OpClass, Terminator};
use crate::types::{BlockId, BranchId, Pc, StreamId, INSTR_BYTES};

/// Base address of the code segment in the synthetic address space.
pub const CODE_BASE: u64 = 0x0040_0000;

/// A basic block: a run of instructions ending (optionally) in a control
/// instruction described by the [`Terminator`].
#[derive(Debug, Clone)]
pub struct BasicBlock {
    /// Address of the first instruction.
    pub start_pc: Pc,
    /// The instructions, in program order. For `Jump`/`Branch` terminators
    /// the last instruction has the corresponding [`OpClass`].
    pub instrs: Vec<Instr>,
    /// Control flow out of the block.
    pub terminator: Terminator,
}

impl BasicBlock {
    /// Number of instructions in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the block holds no instructions (never true for generated
    /// programs, but kept for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// PC of the instruction at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    #[must_use]
    pub fn pc_at(&self, idx: usize) -> Pc {
        assert!(idx < self.instrs.len(), "instruction index {idx} out of block");
        self.start_pc.offset(idx as u64)
    }

    /// PC one past the last instruction (the fall-through address).
    #[must_use]
    pub fn end_pc(&self) -> Pc {
        self.start_pc.offset(self.instrs.len() as u64)
    }
}

/// Validation errors for hand-built programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A block referenced a successor that does not exist.
    DanglingSuccessor {
        /// Offending block.
        block: BlockId,
        /// Missing successor.
        successor: BlockId,
    },
    /// A block's terminator kind disagrees with its last instruction.
    TerminatorMismatch {
        /// Offending block.
        block: BlockId,
    },
    /// A branch terminator references an out-of-range [`BranchId`].
    UnknownBranch {
        /// Offending block.
        block: BlockId,
        /// The branch id.
        branch: BranchId,
    },
    /// A memory instruction references an out-of-range [`StreamId`].
    UnknownStream {
        /// Offending block.
        block: BlockId,
        /// The stream id.
        stream: StreamId,
    },
    /// The program has no blocks.
    Empty,
    /// A block has no instructions.
    EmptyBlock {
        /// Offending block.
        block: BlockId,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::DanglingSuccessor { block, successor } => {
                write!(f, "block {block} references missing successor {successor}")
            }
            ProgramError::TerminatorMismatch { block } => {
                write!(f, "block {block} terminator disagrees with its last instruction")
            }
            ProgramError::UnknownBranch { block, branch } => {
                write!(f, "block {block} references unknown branch {branch}")
            }
            ProgramError::UnknownStream { block, stream } => {
                write!(f, "block {block} references unknown memory stream {stream}")
            }
            ProgramError::Empty => write!(f, "program has no blocks"),
            ProgramError::EmptyBlock { block } => write!(f, "block {block} has no instructions"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A complete synthetic program.
///
/// Blocks are laid out contiguously from [`CODE_BASE`]; `Program` provides
/// the PC→instruction lookups the fetch engine uses to walk *any* path
/// (correct or wrong) through the static code.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    blocks: Vec<BasicBlock>,
    /// Re-biased in place by [`crate::RebiasableProgram`].
    pub(crate) branches: Vec<BranchModel>,
    streams: Vec<MemStreamSpec>,
    entry: BlockId,
    /// Sorted block start addresses for PC lookup.
    starts: Vec<u64>,
    /// Base address of `pc_block`.
    pc_base: u64,
    /// Flat instruction-slot → owning-block table (`u32::MAX` = hole):
    /// index `(addr - pc_base) / INSTR_BYTES`. Makes the fetch engine's
    /// per-instruction [`Program::block_of`]/[`Program::instr_at`] O(1)
    /// instead of a binary search; empty when the address span is too
    /// sparse to tabulate (falls back to the search).
    pc_block: Vec<u32>,
}

impl Program {
    /// Assembles a program from parts, validating cross-references.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if any block references a missing
    /// successor/branch/stream, a terminator disagrees with its block's last
    /// instruction, or the program or any block is empty.
    pub fn new(
        name: impl Into<String>,
        blocks: Vec<BasicBlock>,
        branches: Vec<BranchModel>,
        streams: Vec<MemStreamSpec>,
        entry: BlockId,
    ) -> Result<Program, ProgramError> {
        if blocks.is_empty() {
            return Err(ProgramError::Empty);
        }
        let n = blocks.len() as u32;
        for (i, b) in blocks.iter().enumerate() {
            let id = BlockId(i as u32);
            if b.instrs.is_empty() {
                return Err(ProgramError::EmptyBlock { block: id });
            }
            let last = b.instrs.last().expect("non-empty");
            match b.terminator {
                Terminator::Fallthrough(s) => {
                    if s.0 >= n {
                        return Err(ProgramError::DanglingSuccessor { block: id, successor: s });
                    }
                    if last.op.is_control() {
                        return Err(ProgramError::TerminatorMismatch { block: id });
                    }
                }
                Terminator::Jump(s) => {
                    if s.0 >= n {
                        return Err(ProgramError::DanglingSuccessor { block: id, successor: s });
                    }
                    if last.op != OpClass::Jump {
                        return Err(ProgramError::TerminatorMismatch { block: id });
                    }
                }
                Terminator::Branch { branch, taken, not_taken } => {
                    for s in [taken, not_taken] {
                        if s.0 >= n {
                            return Err(ProgramError::DanglingSuccessor {
                                block: id,
                                successor: s,
                            });
                        }
                    }
                    if last.op != OpClass::Branch {
                        return Err(ProgramError::TerminatorMismatch { block: id });
                    }
                    if branch.index() >= branches.len() {
                        return Err(ProgramError::UnknownBranch { block: id, branch });
                    }
                }
            }
            for ins in &b.instrs {
                if let Some(s) = ins.stream {
                    if s.index() >= streams.len() {
                        return Err(ProgramError::UnknownStream { block: id, stream: s });
                    }
                }
            }
        }
        if entry.0 >= n {
            return Err(ProgramError::DanglingSuccessor { block: entry, successor: entry });
        }
        let starts: Vec<u64> = blocks.iter().map(|b| b.start_pc.addr()).collect();
        let (pc_base, pc_block) = build_pc_table(&blocks);
        Ok(Program {
            name: name.into(),
            blocks,
            branches,
            streams,
            entry,
            starts,
            pc_base,
            pc_block,
        })
    }

    /// Workload name this program was generated from.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Entry block.
    #[must_use]
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// All basic blocks.
    #[must_use]
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Behaviour model of a static branch.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn branch_model(&self, id: BranchId) -> &BranchModel {
        &self.branches[id.index()]
    }

    /// Number of static conditional branches.
    #[must_use]
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// Address-stream model of a static memory instruction.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn stream(&self, id: StreamId) -> &MemStreamSpec {
        &self.streams[id.index()]
    }

    /// Number of static memory streams.
    #[must_use]
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Total static instruction count.
    #[must_use]
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(BasicBlock::len).sum()
    }

    /// Code footprint in bytes (first to last instruction).
    #[must_use]
    pub fn code_bytes(&self) -> u64 {
        self.instr_count() as u64 * INSTR_BYTES
    }

    /// Locates the block containing `pc`, or `None` if `pc` is outside the
    /// code segment.
    #[must_use]
    pub fn block_of(&self, pc: Pc) -> Option<BlockId> {
        let a = pc.addr();
        if !self.pc_block.is_empty() {
            let slot = a.checked_sub(self.pc_base)? / INSTR_BYTES;
            return match self.pc_block.get(slot as usize) {
                Some(&id) if id != u32::MAX => Some(BlockId(id)),
                _ => None,
            };
        }
        let idx = match self.starts.binary_search(&a) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let b = &self.blocks[idx];
        if a < b.end_pc().addr() {
            Some(BlockId(idx as u32))
        } else {
            None
        }
    }

    /// The static instruction at `pc`, with its block and index, or `None`
    /// if `pc` does not name an instruction.
    #[must_use]
    pub fn instr_at(&self, pc: Pc) -> Option<(BlockId, usize, &Instr)> {
        let block_id = self.block_of(pc)?;
        let b = self.block(block_id);
        let off = pc.addr() - b.start_pc.addr();
        if !off.is_multiple_of(INSTR_BYTES) {
            return None;
        }
        let idx = (off / INSTR_BYTES) as usize;
        b.instrs.get(idx).map(|i| (block_id, idx, i))
    }
}

/// Builds the flat instruction-slot → block table, or an empty table when
/// the program's address span is too sparse to be worth tabulating.
fn build_pc_table(blocks: &[BasicBlock]) -> (u64, Vec<u32>) {
    let base = blocks.iter().map(|b| b.start_pc.addr()).min().unwrap_or(0);
    let end = blocks.iter().map(|b| b.end_pc().addr()).max().unwrap_or(0);
    let slots = (end - base) / INSTR_BYTES;
    // 16 MiB of table is far beyond any generated program; a manual
    // program with exotic addresses keeps the binary-search path.
    if slots > 4 << 20 {
        return (base, Vec::new());
    }
    let mut table = vec![u32::MAX; slots as usize];
    for (i, b) in blocks.iter().enumerate() {
        let first = (b.start_pc.addr() - base) / INSTR_BYTES;
        for k in 0..b.len() as u64 {
            table[(first + k) as usize] = i as u32;
        }
    }
    (base, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{BranchBehavior, BranchModel};
    use crate::types::Reg;

    fn tiny_program() -> Program {
        // B0: alu; branch -> taken B0 / not-taken B1
        // B1: jump -> B0
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
            "tiny",
            vec![b0, b1],
            vec![BranchModel::new(BranchBehavior::Loop { trip: 3 }, 1)],
            vec![],
            BlockId(0),
        )
        .expect("valid program")
    }

    #[test]
    fn program_lookup_by_pc() {
        let p = tiny_program();
        assert_eq!(p.block_of(Pc(CODE_BASE)), Some(BlockId(0)));
        assert_eq!(p.block_of(Pc(CODE_BASE + 4)), Some(BlockId(0)));
        assert_eq!(p.block_of(Pc(CODE_BASE + 8)), Some(BlockId(1)));
        assert_eq!(p.block_of(Pc(CODE_BASE + 12)), None);
        assert_eq!(p.block_of(Pc(0)), None);

        let (b, i, ins) = p.instr_at(Pc(CODE_BASE + 4)).expect("exists");
        assert_eq!((b, i), (BlockId(0), 1));
        assert_eq!(ins.op, OpClass::Branch);
        assert!(p.instr_at(Pc(CODE_BASE + 2)).is_none(), "misaligned pc");
    }

    #[test]
    fn program_counts() {
        let p = tiny_program();
        assert_eq!(p.instr_count(), 3);
        assert_eq!(p.branch_count(), 1);
        assert_eq!(p.stream_count(), 0);
        assert_eq!(p.code_bytes(), 12);
        assert_eq!(p.name(), "tiny");
        assert_eq!(p.entry(), BlockId(0));
    }

    #[test]
    fn validation_catches_dangling_successor() {
        let b0 = BasicBlock {
            start_pc: Pc(CODE_BASE),
            instrs: vec![Instr::jump()],
            terminator: Terminator::Jump(BlockId(5)),
        };
        let err = Program::new("bad", vec![b0], vec![], vec![], BlockId(0)).unwrap_err();
        assert!(matches!(err, ProgramError::DanglingSuccessor { .. }));
        assert!(err.to_string().contains("missing successor"));
    }

    #[test]
    fn validation_catches_terminator_mismatch() {
        let b0 = BasicBlock {
            start_pc: Pc(CODE_BASE),
            instrs: vec![Instr::alu(Reg(1), Reg(2), Reg(3))],
            terminator: Terminator::Jump(BlockId(0)),
        };
        let err = Program::new("bad", vec![b0], vec![], vec![], BlockId(0)).unwrap_err();
        assert!(matches!(err, ProgramError::TerminatorMismatch { .. }));
    }

    #[test]
    fn validation_catches_unknown_branch_and_stream() {
        let b0 = BasicBlock {
            start_pc: Pc(CODE_BASE),
            instrs: vec![Instr::branch(Reg(1), None)],
            terminator: Terminator::Branch {
                branch: BranchId(0),
                taken: BlockId(0),
                not_taken: BlockId(0),
            },
        };
        let err = Program::new("bad", vec![b0.clone()], vec![], vec![], BlockId(0)).unwrap_err();
        assert!(matches!(err, ProgramError::UnknownBranch { .. }));

        let b1 = BasicBlock {
            start_pc: Pc(CODE_BASE),
            instrs: vec![Instr::load(Reg(1), Reg(2), StreamId(3))],
            terminator: Terminator::Fallthrough(BlockId(0)),
        };
        let err = Program::new("bad", vec![b1], vec![], vec![], BlockId(0)).unwrap_err();
        assert!(matches!(err, ProgramError::UnknownStream { .. }));
    }

    #[test]
    fn validation_catches_empty() {
        let err = Program::new("bad", vec![], vec![], vec![], BlockId(0)).unwrap_err();
        assert_eq!(err, ProgramError::Empty);
    }
}
