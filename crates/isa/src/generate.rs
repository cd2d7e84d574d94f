//! Deterministic synthetic-program generation.
//!
//! A [`WorkloadSpec`] captures, in a dozen statistical knobs, everything
//! about a SPECint-style integer workload that matters to this paper's
//! experiments: control-flow predictability (branch-behaviour mix and bias
//! spread), basic-block geometry (branch density), data-dependence density
//! (ILP), memory locality (D-cache miss rate) and static code size (I-cache
//! behaviour). [`ProgramGenerator`] expands a spec into a concrete
//! [`Program`] using a seeded RNG, so the same spec always yields the same
//! program.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::behavior::{BranchBehavior, BranchModel};
use crate::memstream::MemStreamSpec;
use crate::op::{Instr, OpClass, Terminator};
use crate::program::{BasicBlock, Program, CODE_BASE};
use crate::types::{BlockId, BranchId, Pc, Reg, StreamId};

/// Base address of the data segment used by generated memory streams.
pub const DATA_BASE: u64 = 0x1000_0000;

/// Base address of the shared random-access "heap" region.
pub const HEAP_BASE: u64 = 0x4000_0000;

/// Relative weights of the branch-behaviour categories in a workload.
///
/// Weights need not sum to 1; they are normalised during generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchMix {
    /// Loop back-edges (highly predictable).
    pub loops: f64,
    /// Periodic patterns (predictable with enough history).
    pub patterns: f64,
    /// Biased Bernoulli branches (the hard ones).
    pub biased: f64,
    /// Sticky Markov branches (moderately predictable).
    pub markov: f64,
    /// Strictly alternating branches.
    pub alternating: f64,
}

impl BranchMix {
    /// A mix typical of integer codes: mostly loops and patterns with a
    /// minority of hard data-dependent branches.
    #[must_use]
    pub fn typical() -> BranchMix {
        BranchMix { loops: 0.35, patterns: 0.25, biased: 0.25, markov: 0.10, alternating: 0.05 }
    }

    fn normalized(&self) -> [f64; 5] {
        let w = [self.loops, self.patterns, self.biased, self.markov, self.alternating];
        let sum: f64 = w.iter().sum();
        if sum <= 0.0 {
            [0.2; 5]
        } else {
            [w[0] / sum, w[1] / sum, w[2] / sum, w[3] / sum, w[4] / sum]
        }
    }
}

impl Default for BranchMix {
    fn default() -> Self {
        BranchMix::typical()
    }
}

/// One phase of a phase-changing workload.
///
/// A phase overrides the control-flow knobs of its [`WorkloadSpec`] for a
/// contiguous share of the static code (JIT-like warm-up → steady-state
/// behaviour) or, with `phase_cycles > 1`, for interleaved bands of it
/// (interference mixes). Phase selection is a pure function of a kernel's
/// position in the program — it consumes no randomness — so adding or
/// re-weighting phases never perturbs draws inside a kernel, and a spec
/// with no phases generates exactly the same program it always did.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Relative share of kernels this phase covers (normalised).
    pub weight: f64,
    /// Branch-behaviour mix inside the phase.
    pub mix: BranchMix,
    /// Multiplier on the spec's `hard_bias_spread`; the effective spread
    /// is clamped to `[0, 0.5]`. Keeping phase spreads *relative* to the
    /// global knob is what lets `calibrate_hardness` tune a phased
    /// workload with a single monotone parameter.
    pub spread_scale: f64,
    /// Loop trip-count range inside the phase.
    pub loop_trip: (u32, u32),
    /// Pattern-length range inside the phase.
    pub pattern_len: (u8, u8),
    /// Markov stay-probability range inside the phase.
    pub markov_stay: (f64, f64),
    /// Memory-instruction fraction inside the phase.
    pub mem_frac: f64,
    /// Memory-stream random-jump probability inside the phase.
    pub locality_jump: f64,
    /// Conditional-branch block fraction inside the phase.
    pub branch_frac: f64,
}

impl PhaseSpec {
    /// A phase that mirrors the spec's own knobs (weight 1, scale 1).
    /// Start from this and override the knobs that differ.
    #[must_use]
    pub fn of(spec: &WorkloadSpec) -> PhaseSpec {
        PhaseSpec {
            weight: 1.0,
            mix: spec.mix,
            spread_scale: 1.0,
            loop_trip: spec.loop_trip,
            pattern_len: spec.pattern_len,
            markov_stay: spec.markov_stay,
            mem_frac: spec.mem_frac,
            locality_jump: spec.locality_jump,
            branch_frac: spec.branch_frac,
        }
    }
}

/// Statistical description of a synthetic workload.
///
/// Build one with [`WorkloadSpec::builder`]. All fields are public for
/// inspection; construction goes through the builder so defaults stay
/// coherent.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name (used in reports).
    pub name: String,
    /// Master seed; every random decision derives from it.
    pub seed: u64,
    /// Number of basic blocks (static code size knob).
    pub n_blocks: u32,
    /// Mean instructions per block, including the terminator.
    pub mean_block_len: f64,
    /// Fraction of blocks ending in a conditional branch.
    pub branch_frac: f64,
    /// Fraction of blocks ending in an unconditional jump.
    pub jump_frac: f64,
    /// Branch-behaviour category weights.
    pub mix: BranchMix,
    /// Bias of `Biased` branches: `p_taken` is drawn uniformly from
    /// `0.5 ± hard_bias_spread`. Smaller spread ⇒ harder branches.
    pub hard_bias_spread: f64,
    /// Loop trip counts are drawn uniformly from this inclusive range.
    pub loop_trip: (u32, u32),
    /// Pattern lengths are drawn uniformly from this inclusive range.
    pub pattern_len: (u8, u8),
    /// Markov stay-probability range.
    pub markov_stay: (f64, f64),
    /// Fraction of non-terminator instructions that are loads/stores.
    pub mem_frac: f64,
    /// Fraction of memory instructions that are stores.
    pub store_frac: f64,
    /// Fraction of ALU-class instructions that are integer multiplies.
    pub mult_frac: f64,
    /// Fraction of ALU-class instructions that are floating point.
    pub fp_frac: f64,
    /// Probability that a source register reads a recently-written register
    /// (data-dependence density; higher ⇒ less ILP).
    pub dep_near: f64,
    /// Per-access probability that a memory stream jumps to a random heap
    /// location (D-cache locality knob).
    pub locality_jump: f64,
    /// Sequential footprint in bytes of each memory stream.
    pub stream_footprint: u64,
    /// Size in bytes of the shared random heap region.
    pub region_size: u64,
    /// Maximum distance (in blocks) of a branch taken-target from its
    /// block; bounds I-cache dispersion.
    pub target_window: u32,
    /// Trip-count range of kernel outer loops (how long execution stays in
    /// one hot kernel before moving on).
    pub outer_trip: (u32, u32),
    /// Probability that a conditional branch tests the result of an
    /// immediately preceding load (lengthening its resolution latency, as
    /// compare-on-load branches do in real codes).
    pub branch_on_load: f64,
    /// Phases of a phase-changing workload. Empty means the spec's own
    /// knobs apply uniformly (the classic single-phase behaviour).
    pub phases: Vec<PhaseSpec>,
    /// How many times the phase sequence repeats across the static code:
    /// `1` gives contiguous phase regions (JIT-like warm-up then
    /// steady-state); larger values interleave the phases in bands
    /// (interference mixes). Ignored when `phases` is empty.
    pub phase_cycles: u32,
}

impl WorkloadSpec {
    /// Starts building a spec with the given name and sensible defaults.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> WorkloadSpecBuilder {
        WorkloadSpecBuilder {
            spec: WorkloadSpec {
                name: name.into(),
                seed: 0xC0FFEE,
                n_blocks: 2048,
                mean_block_len: 7.0,
                branch_frac: 0.72,
                jump_frac: 0.08,
                mix: BranchMix::typical(),
                hard_bias_spread: 0.2,
                loop_trip: (3, 24),
                pattern_len: (2, 8),
                markov_stay: (0.75, 0.95),
                mem_frac: 0.30,
                store_frac: 0.35,
                mult_frac: 0.04,
                fp_frac: 0.02,
                dep_near: 0.55,
                locality_jump: 0.04,
                stream_footprint: 16 * 1024,
                region_size: 8 << 20,
                target_window: 96,
                outer_trip: (8, 48),
                branch_on_load: 0.35,
                phases: Vec::new(),
                phase_cycles: 1,
            },
        }
    }

    /// Generates the program for this spec (convenience for
    /// [`ProgramGenerator::generate`]).
    #[must_use]
    pub fn generate(&self) -> Program {
        ProgramGenerator::new(self).generate()
    }
}

/// Builder for [`WorkloadSpec`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct WorkloadSpecBuilder {
    spec: WorkloadSpec,
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        #[must_use]
        pub fn $name(mut self, v: $ty) -> Self {
            self.spec.$name = v;
            self
        }
    };
}

impl WorkloadSpecBuilder {
    setter!(
        /// Sets the master seed.
        seed: u64
    );
    setter!(
        /// Sets the mean block length.
        mean_block_len: f64
    );
    setter!(
        /// Sets the conditional-branch block fraction.
        branch_frac: f64
    );
    setter!(
        /// Sets the unconditional-jump block fraction.
        jump_frac: f64
    );
    setter!(
        /// Sets the branch-behaviour mix.
        mix: BranchMix
    );
    setter!(
        /// Sets the biased-branch bias spread.
        hard_bias_spread: f64
    );
    setter!(
        /// Sets the loop trip-count range.
        loop_trip: (u32, u32)
    );
    setter!(
        /// Sets the pattern-length range.
        pattern_len: (u8, u8)
    );
    setter!(
        /// Sets the Markov stay-probability range.
        markov_stay: (f64, f64)
    );
    setter!(
        /// Sets the memory-instruction fraction.
        mem_frac: f64
    );
    setter!(
        /// Sets the store fraction of memory instructions.
        store_frac: f64
    );
    setter!(
        /// Sets the integer-multiply fraction.
        mult_frac: f64
    );
    setter!(
        /// Sets the floating-point fraction.
        fp_frac: f64
    );
    setter!(
        /// Sets the data-dependence density.
        dep_near: f64
    );
    setter!(
        /// Sets the memory-stream random-jump probability.
        locality_jump: f64
    );
    setter!(
        /// Sets the per-stream sequential footprint (bytes).
        stream_footprint: u64
    );
    setter!(
        /// Sets the shared heap region size (bytes).
        region_size: u64
    );
    setter!(
        /// Sets the branch target window (blocks).
        target_window: u32
    );
    setter!(
        /// Sets the kernel outer-loop trip range.
        outer_trip: (u32, u32)
    );
    setter!(
        /// Sets the probability that a branch tests a just-loaded value.
        branch_on_load: f64
    );
    setter!(
        /// Sets the phases of a phase-changing workload.
        phases: Vec<PhaseSpec>
    );
    setter!(
        /// Sets how many times the phase sequence repeats across the code.
        phase_cycles: u32
    );

    /// Sets the number of basic blocks.
    #[must_use]
    pub fn blocks(mut self, n: u32) -> Self {
        self.spec.n_blocks = n;
        self
    }

    /// Finalises the spec.
    ///
    /// # Panics
    ///
    /// Panics if fractions are outside `[0, 1]` or the block count is zero —
    /// these are programming errors in experiment definitions, not runtime
    /// conditions.
    #[must_use]
    pub fn build(self) -> WorkloadSpec {
        let s = &self.spec;
        assert!(s.n_blocks > 0, "workload must have at least one block");
        assert!(s.mean_block_len >= 1.0, "mean block length must be >= 1");
        for (name, v) in [
            ("branch_frac", s.branch_frac),
            ("jump_frac", s.jump_frac),
            ("mem_frac", s.mem_frac),
            ("store_frac", s.store_frac),
            ("mult_frac", s.mult_frac),
            ("fp_frac", s.fp_frac),
            ("dep_near", s.dep_near),
            ("locality_jump", s.locality_jump),
            ("hard_bias_spread", s.hard_bias_spread),
            ("branch_on_load", s.branch_on_load),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} = {v} outside [0,1]");
        }
        assert!(s.branch_frac + s.jump_frac <= 1.0, "branch_frac + jump_frac must not exceed 1");
        assert!(s.phase_cycles >= 1, "phase_cycles must be >= 1");
        for (i, p) in s.phases.iter().enumerate() {
            assert!(
                p.weight.is_finite() && p.weight > 0.0,
                "phase {i} weight = {} must be positive",
                p.weight
            );
            assert!(
                p.spread_scale.is_finite() && p.spread_scale > 0.0,
                "phase {i} spread_scale = {} must be positive",
                p.spread_scale
            );
            for (name, v) in [
                ("mem_frac", p.mem_frac),
                ("locality_jump", p.locality_jump),
                ("branch_frac", p.branch_frac),
                ("markov_stay.0", p.markov_stay.0),
                ("markov_stay.1", p.markov_stay.1),
            ] {
                assert!((0.0..=1.0).contains(&v), "phase {i} {name} = {v} outside [0,1]");
            }
            assert!(
                p.branch_frac + s.jump_frac <= 1.0,
                "phase {i} branch_frac + jump_frac must not exceed 1"
            );
        }
        self.spec
    }
}

/// The control-flow knobs in effect for one kernel: the spec's own values
/// for single-phase workloads, or a phase's overrides. Resolved once per
/// kernel from the kernel's position in the code — never from the RNG —
/// so phased and unphased generation draw identically per kernel.
#[derive(Debug, Clone)]
struct Knobs {
    mix_w: [f64; 5],
    p_inner: f64,
    branch_frac: f64,
    /// `None` for the spec's own knobs, a phase's `spread_scale` for its
    /// own; [`BiasedDraw::p_taken`] turns it into the bias spread.
    spread_scale: Option<f64>,
    loop_trip: (u32, u32),
    pattern_len: (u8, u8),
    markov_stay: (f64, f64),
    mem_frac: f64,
    locality_jump: f64,
}

impl Knobs {
    fn base(s: &WorkloadSpec) -> Knobs {
        let w = s.mix.normalized();
        Knobs {
            mix_w: w,
            p_inner: w[0].clamp(0.0, 0.9),
            branch_frac: s.branch_frac,
            spread_scale: None,
            loop_trip: s.loop_trip,
            pattern_len: s.pattern_len,
            markov_stay: s.markov_stay,
            mem_frac: s.mem_frac,
            locality_jump: s.locality_jump,
        }
    }

    fn phase(p: &PhaseSpec) -> Knobs {
        let w = p.mix.normalized();
        Knobs {
            mix_w: w,
            p_inner: w[0].clamp(0.0, 0.9),
            branch_frac: p.branch_frac,
            spread_scale: Some(p.spread_scale),
            loop_trip: p.loop_trip,
            pattern_len: p.pattern_len,
            markov_stay: p.markov_stay,
            mem_frac: p.mem_frac,
            locality_jump: p.locality_jump,
        }
    }
}

/// One `Biased` hammock branch as generated: the uniform draw its bias
/// came from and the knob set that scaled it.
#[derive(Debug, Clone, Copy)]
struct BiasedDraw {
    branch: BranchId,
    /// The one `[0, 1)` draw `gen_range` makes for a float.
    u: f64,
    /// The knob set's [`Knobs::spread_scale`].
    spread_scale: Option<f64>,
}

impl BiasedDraw {
    /// The branch's `p_taken` when the spec's `hard_bias_spread` is
    /// `hard_bias_spread`: `0.5 + rng.gen_range(-s..=s)` with this draw,
    /// where `s` is the spread itself, or a phase's scaled spread clamped
    /// to `[0, 0.5]`. Generation and [`RebiasableProgram::rebias`] both
    /// call this, so a re-biased program is the one generated at its
    /// spread.
    fn p_taken(&self, hard_bias_spread: f64) -> f64 {
        let s = match self.spread_scale {
            None => hard_bias_spread,
            Some(scale) => (hard_bias_spread * scale).clamp(0.0, 0.5),
        };
        // `gen_range(lo..=hi)` on `f64` is `lo + u * (hi - lo)`.
        0.5 + (-s + self.u * (s - -s))
    }
}

/// A generated program that moves to another `hard_bias_spread` in place.
///
/// The spread reaches only the `p_taken` of `Biased` hammock branches,
/// each one uniform draw scaled by its knob set's spread. The sampler
/// draws exactly one word per float whatever the range, so every other
/// draw, and every other byte of the program, is the same at any spread.
/// [`RebiasableProgram::rebias`] rewrites just those biases, which lets
/// a calibration bisect on one generated program.
#[derive(Debug, Clone)]
pub struct RebiasableProgram {
    program: Program,
    biased: Vec<BiasedDraw>,
}

impl RebiasableProgram {
    /// The program at the spread it was generated or last re-biased at.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Sets every `Biased` branch to the bias it is generated with when
    /// the spec's `hard_bias_spread` is `hard_bias_spread`: the program
    /// then equals that spec's [`WorkloadSpec::generate`].
    pub fn rebias(&mut self, hard_bias_spread: f64) {
        for draw in &self.biased {
            let p_taken = draw.p_taken(hard_bias_spread);
            self.program.branches[draw.branch.index()].behavior =
                BranchBehavior::Biased { p_taken };
        }
    }
}

/// Expands a [`WorkloadSpec`] into a concrete [`Program`].
#[derive(Debug)]
pub struct ProgramGenerator<'a> {
    spec: &'a WorkloadSpec,
    base: Knobs,
    /// `(cumulative normalised weight, knobs)` per phase, in spec order.
    phased: Vec<(f64, Knobs)>,
}

impl<'a> ProgramGenerator<'a> {
    /// Creates a generator for the given spec.
    #[must_use]
    pub fn new(spec: &'a WorkloadSpec) -> ProgramGenerator<'a> {
        let base = Knobs::base(spec);
        let total: f64 = spec.phases.iter().map(|p| p.weight).sum();
        let mut cum = 0.0;
        let phased = spec
            .phases
            .iter()
            .map(|p| {
                cum += p.weight / total.max(1e-12);
                (cum, Knobs::phase(p))
            })
            .collect();
        ProgramGenerator { spec, base, phased }
    }

    /// Knobs for a kernel starting at fraction `frac_done` of the code.
    /// Pure in its argument: phase selection never touches the RNG.
    fn knobs_at(&self, frac_done: f64) -> &Knobs {
        if self.phased.is_empty() {
            return &self.base;
        }
        let t = (frac_done.clamp(0.0, 1.0) * f64::from(self.spec.phase_cycles.max(1))).fract();
        for (cum, k) in &self.phased {
            if t < *cum {
                return k;
            }
        }
        &self.phased.last().expect("phased is non-empty").1
    }

    /// Generates the program. Deterministic in `spec.seed`.
    ///
    /// ## Program shape
    ///
    /// The program is a chain of **kernels** — small hot loop nests of 3–7
    /// basic blocks — mirroring how integer codes concentrate their dynamic
    /// instruction stream in compact loops (the 90/10 rule). Each kernel:
    ///
    /// * has an *outer loop* back-edge over the whole kernel with a trip
    ///   count from `outer_trip` (execution stays inside the kernel for
    ///   that many iterations before falling through to the next kernel);
    /// * may contain an *inner loop* over its last body block(s);
    /// * gives each body block, with probability `branch_frac`, a forward
    ///   *hammock* branch (if/else shape) whose behaviour is drawn from the
    ///   non-loop part of the [`BranchMix`];
    /// * is occasionally followed by an unconditional jump to a random
    ///   kernel (`jump_frac`), dispersing I-cache locality.
    ///
    /// Keeping the hammocks forward and the back-edges structural makes
    /// block execution frequencies stable under parameter changes, and the
    /// small kernel bodies keep global branch history coherent enough for
    /// a gshare predictor to train — both properties the workload
    /// calibration in `st-workloads` depends on.
    #[must_use]
    pub fn generate(&self) -> Program {
        self.generate_rebiasable().program
    }

    /// [`Self::generate`], keeping the draws of the program's `Biased`
    /// branches so [`RebiasableProgram::rebias`] can move it to another
    /// `hard_bias_spread` without generating again.
    #[must_use]
    pub fn generate_rebiasable(&self) -> RebiasableProgram {
        let s = self.spec;
        let mut rng = StdRng::seed_from_u64(s.seed);
        let n = s.n_blocks as usize;

        let mut blocks: Vec<BasicBlock> = Vec::with_capacity(n);
        let mut branches: Vec<BranchModel> = Vec::new();
        let mut biased: Vec<BiasedDraw> = Vec::new();
        let mut streams: Vec<MemStreamSpec> = Vec::new();
        // Ring of recently written registers for dependence generation.
        let mut recent: Vec<Reg> = Vec::with_capacity(8);
        let mut pc = Pc(CODE_BASE);
        let mut kernel_starts: Vec<u32> = Vec::new();

        let push_block =
            |blocks: &mut Vec<BasicBlock>, pc: &mut Pc, instrs: Vec<Instr>, term: Terminator| {
                let start_pc = *pc;
                *pc = pc.offset(instrs.len() as u64);
                blocks.push(BasicBlock { start_pc, instrs, terminator: term });
            };

        while blocks.len() + 14 < n {
            let kernel_start = blocks.len() as u32;
            kernel_starts.push(kernel_start);
            // The whole kernel generates under one phase's knobs; phase
            // choice depends only on position, never on the RNG.
            let k = self.knobs_at(kernel_start as f64 / n as f64);
            let slots = rng.gen_range(2..=5usize);

            for _ in 0..slots {
                let i = blocks.len();
                let len = self.block_len(&mut rng);
                let mut instrs: Vec<Instr> = (0..len - 1)
                    .map(|_| self.gen_body_instr(&mut rng, &mut recent, &mut streams, k))
                    .collect();
                let roll: f64 = rng.gen();
                if roll < k.p_inner {
                    // Self-loop slot: the block iterates on itself `trip`
                    // times. Self-loops keep loop bodies free of other
                    // branches, so their history signature is clean and
                    // block execution frequencies stay stable.
                    let trip =
                        rng.gen_range(k.loop_trip.0..=k.loop_trip.1.max(k.loop_trip.0)).max(1);
                    let id = BranchId(branches.len() as u32);
                    branches.push(BranchModel::new(BranchBehavior::Loop { trip }, rng.gen()));
                    instrs.extend(self.gen_branch_seq(&mut rng, &mut recent, &mut streams, k));
                    let term = Terminator::Branch {
                        branch: id,
                        taken: BlockId(i as u32),
                        not_taken: BlockId((i + 1) as u32),
                    };
                    push_block(&mut blocks, &mut pc, instrs, term);
                } else if roll < k.p_inner + (1.0 - k.p_inner) * k.branch_frac {
                    // Hammock slot: an if/else diamond. The taken edge
                    // skips only the plain "else" block, so a skip never
                    // shadows another branch (occurrence shares stay
                    // stable) while fetch still truly diverges on a
                    // misprediction.
                    let id = BranchId(branches.len() as u32);
                    let behavior = self.gen_hammock(&mut rng, k, id, &mut biased);
                    branches.push(BranchModel::new(behavior, rng.gen()));
                    instrs.extend(self.gen_branch_seq(&mut rng, &mut recent, &mut streams, k));
                    let term = Terminator::Branch {
                        branch: id,
                        taken: BlockId((i + 2) as u32),
                        not_taken: BlockId((i + 1) as u32),
                    };
                    push_block(&mut blocks, &mut pc, instrs, term);
                    // The else block.
                    let else_len = self.block_len(&mut rng);
                    let else_instrs: Vec<Instr> = (0..else_len)
                        .map(|_| self.gen_body_instr(&mut rng, &mut recent, &mut streams, k))
                        .collect();
                    let term = Terminator::Fallthrough(BlockId((i + 2) as u32));
                    push_block(&mut blocks, &mut pc, else_instrs, term);
                } else {
                    // Plain straight-line slot.
                    instrs.push(self.gen_body_instr(&mut rng, &mut recent, &mut streams, k));
                    push_block(
                        &mut blocks,
                        &mut pc,
                        instrs,
                        Terminator::Fallthrough(BlockId((i + 1) as u32)),
                    );
                }
            }

            // Closing block: the kernel's outer loop.
            {
                let i = blocks.len();
                let len = self.block_len(&mut rng);
                let mut instrs: Vec<Instr> = (0..len - 1)
                    .map(|_| self.gen_body_instr(&mut rng, &mut recent, &mut streams, k))
                    .collect();
                let trip = rng
                    .gen_range(s.outer_trip.0.max(1)..=s.outer_trip.1.max(s.outer_trip.0).max(1));
                let id = BranchId(branches.len() as u32);
                branches.push(BranchModel::new(BranchBehavior::Loop { trip }, rng.gen()));
                instrs.extend(self.gen_branch_seq(&mut rng, &mut recent, &mut streams, k));
                let term = Terminator::Branch {
                    branch: id,
                    taken: BlockId(kernel_start),
                    not_taken: BlockId((i + 1) as u32),
                };
                push_block(&mut blocks, &mut pc, instrs, term);
            }

            // Occasional cross-kernel jump (long-range control flow that
            // disperses the I-cache footprint).
            if rng.gen_bool(s.jump_frac.clamp(0.0, 1.0)) {
                let i = blocks.len();
                let instrs = vec![
                    self.gen_body_instr(&mut rng, &mut recent, &mut streams, k),
                    Instr::jump(),
                ];
                let term = Terminator::Jump(BlockId((i + 1) as u32));
                push_block(&mut blocks, &mut pc, instrs, term);
            }
        }

        // Pad with straight-line blocks, then close the code segment with
        // a jump back to the entry so sequential fetch never runs off the
        // end of the image. Cold padding always uses the spec's own knobs.
        let k = &self.base;
        while blocks.len() < n - 1 {
            let i = blocks.len();
            let instrs = vec![
                self.gen_body_instr(&mut rng, &mut recent, &mut streams, k),
                self.gen_body_instr(&mut rng, &mut recent, &mut streams, k),
            ];
            push_block(
                &mut blocks,
                &mut pc,
                instrs,
                Terminator::Fallthrough(BlockId((i + 1) as u32)),
            );
        }
        let instrs =
            vec![self.gen_body_instr(&mut rng, &mut recent, &mut streams, k), Instr::jump()];
        push_block(&mut blocks, &mut pc, instrs, Terminator::Jump(BlockId(0)));

        let program = Program::new(s.name.clone(), blocks, branches, streams, BlockId(0))
            .expect("generator produces valid programs");
        RebiasableProgram { program, biased }
    }

    /// Body-block length (instructions including the terminator slot).
    fn block_len(&self, rng: &mut StdRng) -> usize {
        let max = (2.0 * self.spec.mean_block_len - 2.0).max(2.0) as usize;
        rng.gen_range(2..=max.max(2))
    }

    /// Behaviour of hammock (non-loop) branch `id`, drawn from the
    /// non-loop portion of the mix. A `Biased` draw is also recorded in
    /// `biased`.
    fn gen_hammock(
        &self,
        rng: &mut StdRng,
        k: &Knobs,
        id: BranchId,
        biased: &mut Vec<BiasedDraw>,
    ) -> BranchBehavior {
        let w = k.mix_w;
        let total = (w[1] + w[2] + w[3] + w[4]).max(1e-9);
        let r: f64 = rng.gen::<f64>() * total;
        if r < w[1] {
            let len = rng.gen_range(k.pattern_len.0..=k.pattern_len.1.max(k.pattern_len.0)).max(1);
            BranchBehavior::Pattern { bits: rng.gen::<u64>(), len }
        } else if r < w[1] + w[2] {
            let draw = BiasedDraw { branch: id, u: rng.gen(), spread_scale: k.spread_scale };
            biased.push(draw);
            BranchBehavior::Biased { p_taken: draw.p_taken(self.spec.hard_bias_spread) }
        } else if r < w[1] + w[2] + w[3] {
            let (lo, hi) = k.markov_stay;
            BranchBehavior::Markov {
                p_tt: rng.gen_range(lo..=hi.max(lo)),
                p_nn: rng.gen_range(lo..=hi.max(lo)),
            }
        } else {
            BranchBehavior::Alternating
        }
    }

    /// Emits a conditional-branch instruction, optionally preceded by the
    /// load producing its test value (`branch_on_load`). Returns the
    /// instructions to append to the block.
    fn gen_branch_seq(
        &self,
        rng: &mut StdRng,
        recent: &mut [Reg],
        streams: &mut Vec<MemStreamSpec>,
        k: &Knobs,
    ) -> Vec<Instr> {
        if rng.gen_bool(self.spec.branch_on_load.clamp(0.0, 1.0)) {
            let dest = Reg(rng.gen_range(0..Reg::COUNT as u8));
            let base = *recent.last().unwrap_or(&Reg(1));
            let sid = StreamId(streams.len() as u32);
            streams.push(self.gen_stream(rng, sid, k));
            vec![Instr::load(dest, base, sid), Instr::branch(dest, None)]
        } else {
            let src = *recent.last().unwrap_or(&Reg(1));
            vec![Instr::branch(src, None)]
        }
    }

    fn gen_body_instr(
        &self,
        rng: &mut StdRng,
        recent: &mut Vec<Reg>,
        streams: &mut Vec<MemStreamSpec>,
        k: &Knobs,
    ) -> Instr {
        let s = self.spec;
        let pick_src = |rng: &mut StdRng, recent: &[Reg]| -> Reg {
            if !recent.is_empty() && rng.gen_bool(s.dep_near) {
                recent[rng.gen_range(0..recent.len())]
            } else {
                Reg(rng.gen_range(0..Reg::COUNT as u8))
            }
        };
        let push_recent = |recent: &mut Vec<Reg>, r: Reg| {
            if recent.len() == 8 {
                recent.remove(0);
            }
            recent.push(r);
        };

        if rng.gen_bool(k.mem_frac) {
            let sid = StreamId(streams.len() as u32);
            streams.push(self.gen_stream(rng, sid, k));
            if rng.gen_bool(s.store_frac) {
                let base = pick_src(rng, recent);
                let val = pick_src(rng, recent);
                Instr::store(base, val, sid)
            } else {
                let dest = Reg(rng.gen_range(0..Reg::COUNT as u8));
                let base = pick_src(rng, recent);
                push_recent(recent, dest);
                Instr::load(dest, base, sid)
            }
        } else {
            let dest = Reg(rng.gen_range(0..Reg::COUNT as u8));
            let s1 = pick_src(rng, recent);
            let s2 = pick_src(rng, recent);
            push_recent(recent, dest);
            let r: f64 = rng.gen();
            let op = if r < s.fp_frac {
                if rng.gen_bool(0.25) {
                    OpClass::FpMult
                } else {
                    OpClass::FpAlu
                }
            } else if r < s.fp_frac + s.mult_frac {
                OpClass::IntMult
            } else {
                OpClass::IntAlu
            };
            Instr { op, dest: Some(dest), src1: Some(s1), src2: Some(s2), stream: None }
        }
    }

    fn gen_stream(&self, rng: &mut StdRng, sid: StreamId, k: &Knobs) -> MemStreamSpec {
        let s = self.spec;
        let fp = s.stream_footprint.max(64);
        MemStreamSpec {
            base: DATA_BASE + u64::from(sid.0) * fp,
            stride: if rng.gen_bool(0.7) { 8 } else { 8 * rng.gen_range(2..=8) },
            footprint: fp,
            p_jump: k.locality_jump,
            region_base: HEAP_BASE,
            region_size: s.region_size.max(4096),
            seed: rng.gen(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Terminator;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec::builder("gen-test").seed(7).blocks(256).build()
    }

    #[test]
    fn generation_is_deterministic() {
        let s = small_spec();
        let p1 = s.generate();
        let p2 = s.generate();
        assert_eq!(p1.instr_count(), p2.instr_count());
        assert_eq!(p1.branch_count(), p2.branch_count());
        for (a, b) in p1.blocks().iter().zip(p2.blocks()) {
            assert_eq!(a.instrs, b.instrs);
            assert_eq!(a.terminator, b.terminator);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p1 = WorkloadSpec::builder("a").seed(1).blocks(128).build().generate();
        let p2 = WorkloadSpec::builder("a").seed(2).blocks(128).build().generate();
        let same = p1
            .blocks()
            .iter()
            .zip(p2.blocks())
            .all(|(a, b)| a.instrs == b.instrs && a.terminator == b.terminator);
        assert!(!same);
    }

    #[test]
    fn block_count_and_contiguous_layout() {
        let p = small_spec().generate();
        assert_eq!(p.blocks().len(), 256);
        let mut expect = Pc(CODE_BASE);
        for b in p.blocks() {
            assert_eq!(b.start_pc, expect);
            expect = b.end_pc();
        }
    }

    #[test]
    fn branch_fraction_steers_branch_density() {
        let sparse =
            WorkloadSpec::builder("bf").seed(3).blocks(2000).branch_frac(0.2).build().generate();
        let dense =
            WorkloadSpec::builder("bf").seed(3).blocks(2000).branch_frac(0.9).build().generate();
        let count = |p: &Program| {
            p.blocks().iter().filter(|b| matches!(b.terminator, Terminator::Branch { .. })).count()
                as f64
                / p.blocks().len() as f64
        };
        let (lo, hi) = (count(&sparse), count(&dense));
        assert!(hi > lo + 0.08, "branch_frac must steer density: {lo} vs {hi}");
        // Every kernel keeps its structural outer loop, so even the sparse
        // program stays branchy enough to exercise the predictor.
        assert!(lo > 0.1 && hi < 0.98);
    }

    #[test]
    fn kernels_form_loop_nests() {
        let p = WorkloadSpec::builder("nest").seed(9).blocks(512).build().generate();
        let mut back_edges = 0;
        for (i, b) in p.blocks().iter().enumerate() {
            if let Terminator::Branch { branch, taken, .. } = b.terminator {
                if taken.index() <= i {
                    back_edges += 1;
                    assert!(
                        matches!(p.branch_model(branch).behavior(), BranchBehavior::Loop { .. }),
                        "backward edges must be loop branches (block {i})"
                    );
                    assert!(i - taken.index() <= 16, "back edges stay within the kernel");
                }
            }
        }
        assert!(back_edges >= 50, "kernel structure produces many loops: {back_edges}");
    }

    #[test]
    fn mem_fraction_is_respected() {
        let p = small_spec().generate();
        let mems = p.blocks().iter().flat_map(|b| &b.instrs).filter(|i| i.op.is_mem()).count();
        // mem_frac applies to body instructions only; terminators dilute it.
        let frac = mems as f64 / p.instr_count() as f64;
        assert!(frac > 0.15 && frac < 0.40, "mem fraction {frac}");
        assert_eq!(p.stream_count(), mems, "one stream per static mem instruction");
    }

    #[test]
    fn loop_branches_point_backwards() {
        let p = small_spec().generate();
        for b in p.blocks() {
            if let Terminator::Branch { branch, taken, .. } = b.terminator {
                if matches!(p.branch_model(branch).behavior(), BranchBehavior::Loop { .. }) {
                    let own = p.block_of(b.start_pc).unwrap();
                    assert!(taken.0 <= own.0, "loop target {taken} after block {own}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn builder_rejects_bad_fraction() {
        let _ = WorkloadSpec::builder("bad").mem_frac(1.5).build();
    }

    fn programs_equal(a: &Program, b: &Program) -> bool {
        a.blocks().len() == b.blocks().len()
            && a.blocks()
                .iter()
                .zip(b.blocks())
                .all(|(x, y)| x.instrs == y.instrs && x.terminator == y.terminator)
    }

    #[test]
    fn uniform_phases_are_invisible() {
        // Phases whose knobs mirror the spec's own must generate the exact
        // program the unphased spec does: phase selection consumes no
        // randomness, so identical knobs mean identical draws.
        let plain = WorkloadSpec::builder("phase-id").seed(11).blocks(512).build();
        let mut phase = PhaseSpec::of(&plain);
        phase.weight = 3.0;
        let phased = WorkloadSpec::builder("phase-id")
            .seed(11)
            .blocks(512)
            .phases(vec![phase.clone(), phase])
            .phase_cycles(5)
            .build();
        assert!(programs_equal(&plain.generate(), &phased.generate()));
    }

    #[test]
    fn contiguous_phases_split_behavior_by_region() {
        // Phase A: pure loop branches. Phase B: pure biased branches.
        // With phase_cycles = 1 the first half of the code must carry the
        // loopy behaviour and the second half the biased one.
        let base = WorkloadSpec::builder("phase-2").seed(13).blocks(1024).build();
        let mut easy = PhaseSpec::of(&base);
        easy.mix =
            BranchMix { loops: 0.2, patterns: 0.8, biased: 0.0, markov: 0.0, alternating: 0.0 };
        let mut hard = easy.clone();
        hard.mix =
            BranchMix { loops: 0.2, patterns: 0.0, biased: 0.8, markov: 0.0, alternating: 0.0 };
        let spec =
            WorkloadSpec::builder("phase-2").seed(13).blocks(1024).phases(vec![easy, hard]).build();
        let p = spec.generate();
        let biased_in = |lo: usize, hi: usize| {
            p.blocks()[lo..hi]
                .iter()
                .filter(|b| match b.terminator {
                    Terminator::Branch { branch, .. } => {
                        matches!(p.branch_model(branch).behavior(), BranchBehavior::Biased { .. })
                    }
                    _ => false,
                })
                .count()
        };
        let half = p.blocks().len() / 2;
        let (first, second) = (biased_in(0, half), biased_in(half, p.blocks().len()));
        assert_eq!(first, 0, "no biased branches may appear in the easy phase");
        assert!(second > 20, "the hard phase must be biased-dominated: {second}");
    }

    #[test]
    fn phase_cycles_interleave_phases() {
        // With many cycles both halves of the code see both phases.
        let base = WorkloadSpec::builder("phase-i").seed(17).blocks(1024).build();
        let mut easy = PhaseSpec::of(&base);
        easy.mix =
            BranchMix { loops: 0.2, patterns: 0.8, biased: 0.0, markov: 0.0, alternating: 0.0 };
        let mut hard = easy.clone();
        hard.mix =
            BranchMix { loops: 0.2, patterns: 0.0, biased: 0.8, markov: 0.0, alternating: 0.0 };
        let spec = WorkloadSpec::builder("phase-i")
            .seed(17)
            .blocks(1024)
            .phases(vec![easy, hard])
            .phase_cycles(8)
            .build();
        let p = spec.generate();
        let count = |lo: usize, hi: usize, want_biased: bool| {
            p.blocks()[lo..hi]
                .iter()
                .filter(|b| match b.terminator {
                    Terminator::Branch { branch, .. } => {
                        let biased = matches!(
                            p.branch_model(branch).behavior(),
                            BranchBehavior::Biased { .. }
                        );
                        let pattern = matches!(
                            p.branch_model(branch).behavior(),
                            BranchBehavior::Pattern { .. }
                        );
                        if want_biased {
                            biased
                        } else {
                            pattern
                        }
                    }
                    _ => false,
                })
                .count()
        };
        let half = p.blocks().len() / 2;
        for (lo, hi) in [(0, half), (half, p.blocks().len())] {
            assert!(count(lo, hi, true) > 5, "biased branches in blocks {lo}..{hi}");
            assert!(count(lo, hi, false) > 5, "pattern branches in blocks {lo}..{hi}");
        }
    }

    #[test]
    fn phase_spread_scale_rides_the_global_spread_knob() {
        // The phase's effective spread is hard_bias_spread × scale, so
        // narrowing the global knob hardens every phase — the property
        // calibration relies on.
        let base = WorkloadSpec::builder("phase-s").seed(19).blocks(512).build();
        let mut phase = PhaseSpec::of(&base);
        phase.mix =
            BranchMix { loops: 0.2, patterns: 0.0, biased: 0.8, markov: 0.0, alternating: 0.0 };
        phase.spread_scale = 0.5;
        let build = |spread: f64| {
            WorkloadSpec::builder("phase-s")
                .seed(19)
                .blocks(512)
                .hard_bias_spread(spread)
                .phases(vec![phase.clone()])
                .build()
                .generate()
        };
        let spread_of = |p: &Program| {
            let mut worst: f64 = 0.0;
            for b in p.blocks() {
                if let Terminator::Branch { branch, .. } = b.terminator {
                    if let BranchBehavior::Biased { p_taken } = p.branch_model(branch).behavior() {
                        worst = worst.max((p_taken - 0.5).abs());
                    }
                }
            }
            worst
        };
        let wide = spread_of(&build(0.4));
        let narrow = spread_of(&build(0.1));
        assert!(wide > 0.1 && wide <= 0.2 + 1e-9, "0.4 × 0.5 caps biases at 0.2: {wide}");
        assert!(narrow <= 0.05 + 1e-9, "0.1 × 0.5 caps biases at 0.05: {narrow}");
    }

    #[test]
    fn a_biased_draw_replays_gen_range_bit_for_bit() {
        // `BiasedDraw::p_taken` re-derives `0.5 + gen_range(-s..=s)` from
        // the draw alone; pin it to the sampler at random words, spreads
        // and phase scales (some past the 0.5 clamp).
        let mut rng = StdRng::seed_from_u64(23);
        for i in 0..10_000 {
            let word: u64 = rng.gen();
            let spread: f64 = rng.gen_range(0.0..=1.0);
            let spread_scale = (i % 2 == 1).then(|| rng.gen_range(0.1..=2.0));
            let s = spread_scale.map_or(spread, |scale| (spread * scale).clamp(0.0, 0.5));
            let sampled = 0.5 + StdRng::seed_from_u64(word).gen_range(-s..=s);
            let u = StdRng::seed_from_u64(word).gen();
            let draw = BiasedDraw { branch: BranchId(0), u, spread_scale };
            assert_eq!(draw.p_taken(spread).to_bits(), sampled.to_bits(), "spread {spread}");
        }
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn builder_rejects_nonpositive_phase_weight() {
        let base = WorkloadSpec::builder("bad-phase").build();
        let mut phase = PhaseSpec::of(&base);
        phase.weight = 0.0;
        let _ = WorkloadSpec::builder("bad-phase").phases(vec![phase]).build();
    }

    #[test]
    #[should_panic(expected = "phase_cycles")]
    fn builder_rejects_zero_phase_cycles() {
        let base = WorkloadSpec::builder("bad-cycles").build();
        let phase = PhaseSpec::of(&base);
        let _ = WorkloadSpec::builder("bad-cycles").phases(vec![phase]).phase_cycles(0).build();
    }

    #[test]
    #[should_panic(expected = "must not exceed 1")]
    fn builder_rejects_overcommitted_terminators() {
        let _ = WorkloadSpec::builder("bad").branch_frac(0.8).jump_frac(0.4).build();
    }
}
