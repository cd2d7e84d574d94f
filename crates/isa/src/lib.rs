//! # st-isa — synthetic ISA, programs and architectural execution
//!
//! This crate is the lowest substrate of the Selective Throttling
//! reproduction (Aragón, González & González, HPCA-9 2003). The paper runs
//! SPECint95/2000 Alpha binaries under SimpleScalar; we do not have those
//! binaries, so this crate provides the closest synthetic equivalent that
//! exercises the same code paths:
//!
//! * a small RISC-like instruction set ([`OpClass`], [`Instr`], [`Reg`]),
//! * static programs laid out as basic blocks in a code address space
//!   ([`Program`], [`BasicBlock`], [`Terminator`]),
//! * per-branch *behaviour models* ([`BranchBehavior`]) that generate
//!   deterministic outcome sequences with controllable predictability,
//! * per-memory-instruction *address stream models* ([`MemStreamSpec`]) with
//!   controllable locality,
//! * a deterministic [`ProgramGenerator`] that turns a [`WorkloadSpec`] into
//!   a program, and
//! * an architectural [`Walker`] that produces the committed instruction
//!   stream in program order and supports the wrong-path queries the
//!   out-of-order core needs (speculative branch outcomes, non-consuming
//!   address peeks).
//!
//! Everything is deterministic given the workload seed: two runs of the same
//! configuration produce bit-identical instruction streams, which is what
//! makes the paper's A/B experiment comparisons meaningful.
//!
//! ## Example
//!
//! ```
//! use st_isa::{ProgramGenerator, WorkloadSpec, Walker};
//!
//! let spec = WorkloadSpec::builder("demo").seed(42).blocks(64).build();
//! let program = ProgramGenerator::new(&spec).generate();
//! let mut walker = Walker::new(&program);
//! let first = walker.next_instr(&program);
//! assert_eq!(first.index, 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod behavior;
pub mod generate;
pub mod hash;
pub mod memstream;
pub mod op;
pub mod program;
pub mod types;
pub mod walker;

pub use behavior::{BranchBehavior, BranchModel, BranchState};
pub use generate::{
    BranchMix, PhaseSpec, ProgramGenerator, RebiasableProgram, WorkloadSpec, WorkloadSpecBuilder,
};
pub use memstream::MemStreamSpec;
pub use op::{Instr, OpClass, Terminator};
pub use program::{BasicBlock, Program, ProgramError};
pub use types::{BlockId, BranchId, Pc, Reg, StreamId, INSTR_BYTES};
pub use walker::{ArchInstr, Walker};
