//! Calibration: measuring and tuning a workload's gshare misprediction
//! rate so profiles can be anchored to the paper's Table 2.

use st_bpred::{DirectionPredictor, GlobalHistory, Gshare};
use st_isa::{BranchState, Program, ProgramGenerator, WorkloadSpec};

/// Measures the misprediction rate an in-order gshare of `table_bytes`
/// sees on the workload's committed instruction stream: the first
/// `instructions / 2` architectural instructions warm the predictor
/// uncounted, and the `instructions` after them are measured (see
/// [`measure_gshare_miss_rate_warm`]).
///
/// This is the measurement the profile constants were calibrated against.
/// It deliberately excludes pipeline effects (speculative history repair,
/// wrong-path fetches): Table 2 characterises the *benchmark*, not the
/// machine.
#[must_use]
pub fn measure_gshare_miss_rate(spec: &WorkloadSpec, instructions: u64, table_bytes: usize) -> f64 {
    measure_gshare_miss_rate_warm(spec, instructions / 2, instructions, table_bytes)
}

/// Like [`measure_gshare_miss_rate`], but with an explicit warm-up: the
/// first `warmup` instructions train the predictor without being counted.
/// Table 2 characterises steady-state benchmark behaviour (the paper runs
/// hundreds of millions of instructions), so cold-start transients are
/// excluded from the calibration measurement.
///
/// The probe steps the committed path a block at a time rather than an
/// instruction at a time. It is exact: program validation puts every
/// conditional branch last in its block, and a branch's outcome depends
/// only on its own [`BranchState`], so no other instruction (nor any
/// memory address) can influence what gshare sees. The branch ending a
/// block that starts at stream index `i` sits at index `i + len - 1`; it
/// is walked iff that index is below `warmup + instructions`, and
/// counted iff it is also at least `warmup`.
#[must_use]
pub fn measure_gshare_miss_rate_warm(
    spec: &WorkloadSpec,
    warmup: u64,
    instructions: u64,
    table_bytes: usize,
) -> f64 {
    gshare_miss_rate(&spec.generate(), warmup, instructions, table_bytes)
}

/// The probe behind [`measure_gshare_miss_rate_warm`], over an already
/// generated program.
fn gshare_miss_rate(program: &Program, warmup: u64, instructions: u64, table_bytes: usize) -> f64 {
    let mut states = vec![BranchState::default(); program.branch_count()];
    let mut gshare = Gshare::with_table_bytes(table_bytes);
    let mut history = GlobalHistory::new(gshare.history_bits());
    let mut branches = 0u64;
    let mut misses = 0u64;
    let end = warmup + instructions;
    let mut block_id = program.entry();
    // Stream index of the current block's first instruction.
    let mut start = 0u64;
    loop {
        let block = program.block(block_id);
        let len = block.len() as u64;
        if start + len > end {
            break;
        }
        let mut taken = false;
        if let Some(branch) = block.terminator.branch_id() {
            taken = program.branch_model(branch).next_outcome(&mut states[branch.index()]);
            let pc = block.pc_at(block.len() - 1);
            let pred = gshare.predict(pc, history.value());
            if start + len > warmup {
                branches += 1;
                if pred.taken != taken {
                    misses += 1;
                }
            }
            gshare.update(pc, history.value(), taken, pred.taken);
            history.push(taken);
        }
        block_id = block.terminator.successor(taken);
        start += len;
    }
    if branches == 0 {
        0.0
    } else {
        misses as f64 / branches as f64
    }
}

/// Result of a calibration search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// The `hard_bias_spread` value that hits the target.
    pub spread: f64,
    /// The measured miss rate at that spread.
    pub achieved: f64,
}

/// Finds the `hard_bias_spread` that makes the workload's 8 KB-gshare miss
/// rate match `target` (bisection, all other spec fields held fixed).
///
/// The spread knob is *structure-stable*: changing it alters only the bias
/// values of the hard branches, not which branches exist or where they
/// point, so the miss rate responds monotonically (smaller spread ⇒ biases
/// closer to 50/50 ⇒ more misses). The search therefore generates the
/// program once and [re-biases](st_isa::RebiasableProgram::rebias) it at
/// each midpoint; every probe measures exactly the program
/// `spec.generate()` builds at that spread, as
/// [`measure_gshare_miss_rate`] would. This is the search used to derive
/// the constants in [`crate::profiles`]; it is exposed so the calibration
/// is reproducible.
#[must_use]
pub fn calibrate_hardness(
    base: &WorkloadSpec,
    target: f64,
    instructions: u64,
    iterations: u32,
) -> Calibration {
    let mut lo = 0.02f64; // hardest sensible spread
    let mut hi = 0.50f64; // easiest
    let mut best = Calibration { spread: base.hard_bias_spread, achieved: f64::NAN };
    let mut program = ProgramGenerator::new(base).generate_rebiasable();
    for _ in 0..iterations {
        let mid = 0.5 * (lo + hi);
        program.rebias(mid);
        let rate = gshare_miss_rate(program.program(), instructions / 2, instructions, 8 * 1024);
        best = Calibration { spread: mid, achieved: rate };
        if rate > target {
            lo = mid; // too hard: widen the bias spread
        } else {
            hi = mid;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use st_isa::{BranchBehavior, BranchId, BranchMix, OpClass, Walker};

    /// The instruction-by-instruction walk the block-stepping probe
    /// replaced, kept as the reference it must match bit for bit.
    fn reference_miss_rate(
        program: &Program,
        warmup: u64,
        instructions: u64,
        table_bytes: usize,
    ) -> f64 {
        let mut walker = Walker::new(program);
        let mut gshare = Gshare::with_table_bytes(table_bytes);
        let mut history = GlobalHistory::new(gshare.history_bits());
        let mut branches = 0u64;
        let mut misses = 0u64;
        for i in 0..warmup + instructions {
            let arch = walker.next_instr(program);
            if arch.instr.op != OpClass::Branch {
                continue;
            }
            let taken = arch.taken.expect("branches carry outcomes");
            let pred = gshare.predict(arch.pc, history.value());
            if i >= warmup {
                branches += 1;
                if pred.taken != taken {
                    misses += 1;
                }
            }
            gshare.update(arch.pc, history.value(), taken, pred.taken);
            history.push(taken);
        }
        if branches == 0 {
            0.0
        } else {
            misses as f64 / branches as f64
        }
    }

    /// The first committed-stream index at or after `from` that is not
    /// the first instruction of its block.
    fn mid_block_index(program: &Program, from: u64) -> u64 {
        let mut walker = Walker::new(program);
        loop {
            let arch = walker.next_instr(program);
            if arch.index >= from && arch.pc != program.block(arch.block).start_pc {
                return arch.index;
            }
        }
    }

    #[test]
    fn block_stepping_probe_matches_the_instruction_walk() {
        let mut specs: Vec<WorkloadSpec> = crate::all().into_iter().map(|i| i.spec).collect();
        for f in crate::families() {
            specs.extend([0, 1].map(|seed| (f.base)(seed)));
        }
        let mut probes = 0;
        for base in &specs {
            for spread in [0.02, 0.1, 0.26, 0.5] {
                let mut spec = base.clone();
                spec.hard_bias_spread = spread;
                let program = spec.generate();
                // Warm-up and budget ends that split a block.
                let warm = mid_block_index(&program, 997);
                let end = mid_block_index(&program, warm + 4_001);
                let cases = [
                    (18_000, 36_000, 8 * 1024),
                    (warm, end - warm, 8 * 1024),
                    (warm, end - warm, 1),
                    (0, end, 8 * 1024),
                    (warm, 0, 8 * 1024),
                    (0, 0, 8 * 1024),
                ];
                for (warmup, instructions, table) in cases {
                    let fast = gshare_miss_rate(&program, warmup, instructions, table);
                    let walked = reference_miss_rate(&program, warmup, instructions, table);
                    assert_eq!(
                        fast.to_bits(),
                        walked.to_bits(),
                        "{} at spread {spread}: warmup {warmup}, {instructions} instructions, \
                         {table}-byte table: {fast} vs {walked}",
                        spec.name
                    );
                    probes += 1;
                }
            }
        }
        assert_eq!(probes, 16 * 4 * 6);
    }

    /// Asserts `a` and `b` are one program: equal blocks, streams and
    /// layout, and branch models with bit-equal parameters.
    fn assert_same_program(a: &Program, b: &Program, what: &str) {
        // Debug prints every float in its shortest round-trip form, so
        // equal text means bit-equal fields (no generated float is NaN).
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
        for i in 0..a.branch_count() {
            let id = BranchId(i as u32);
            if let (BranchBehavior::Biased { p_taken: p }, BranchBehavior::Biased { p_taken: q }) =
                (a.branch_model(id).behavior(), b.branch_model(id).behavior())
            {
                assert_eq!(p.to_bits(), q.to_bits(), "{what}: branch {i}");
            }
        }
    }

    #[test]
    fn a_rebiased_program_is_the_one_generated_at_its_spread() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut spreads = vec![0.02, 0.5];
        spreads.extend((0..4).map(|_| rng.gen_range(0.0..=1.0)));
        spreads.push(0.02);
        let mut biased_seen = 0;
        for f in crate::families() {
            for seed in [0, 38, 5_000_017, rng.gen::<u64>()] {
                let base = (f.base)(seed);
                let mut program = ProgramGenerator::new(&base).generate_rebiasable();
                assert_same_program(program.program(), &base.generate(), &base.name);
                for &spread in &spreads {
                    program.rebias(spread);
                    let mut spec = base.clone();
                    spec.hard_bias_spread = spread;
                    let what = format!("{} re-biased to {spread}", base.name);
                    assert_same_program(program.program(), &spec.generate(), &what);
                }
                biased_seen += (0..program.program().branch_count())
                    .filter(|&i| {
                        let model = program.program().branch_model(BranchId(i as u32));
                        matches!(model.behavior(), BranchBehavior::Biased { .. })
                    })
                    .count();
            }
        }
        assert!(biased_seen > 500, "only {biased_seen} biased branches re-biased");
        // jit's compiled phase scales the spread by 1.6, so at 0.5 its
        // biases reach the phase clamp.
        let jit = crate::generate::family("jit").expect("jit family");
        assert!((jit.base)(0).phases.iter().any(|p| 0.5 * p.spread_scale > 0.5));
    }

    #[test]
    fn measurement_is_deterministic() {
        let spec = WorkloadSpec::builder("cal").seed(1).blocks(512).build();
        let a = measure_gshare_miss_rate(&spec, 30_000, 8 * 1024);
        let b = measure_gshare_miss_rate(&spec, 30_000, 8 * 1024);
        assert_eq!(a, b);
        assert!(a > 0.0 && a < 0.5, "rate {a}");
    }

    #[test]
    fn more_biased_branches_means_more_misses() {
        let easy = WorkloadSpec::builder("easy")
            .seed(2)
            .blocks(512)
            .loop_trip((4, 10))
            .mix(BranchMix {
                loops: 1.0,
                patterns: 0.3,
                biased: 0.0,
                markov: 0.0,
                alternating: 0.0,
            })
            .build();
        let hard = WorkloadSpec::builder("hard")
            .seed(2)
            .blocks(512)
            .loop_trip((4, 10))
            .mix(BranchMix {
                loops: 0.2,
                patterns: 0.1,
                biased: 2.0,
                markov: 0.0,
                alternating: 0.0,
            })
            .hard_bias_spread(0.1)
            .build();
        let easy_rate = measure_gshare_miss_rate(&easy, 100_000, 8 * 1024);
        let hard_rate = measure_gshare_miss_rate(&hard, 100_000, 8 * 1024);
        assert!(hard_rate > easy_rate + 0.05, "hard {hard_rate} vs easy {easy_rate}");
        assert!(easy_rate < 0.08, "loop/pattern branches are predictable: {easy_rate}");
    }

    #[test]
    fn bigger_tables_predict_better() {
        let spec = WorkloadSpec::builder("size").seed(3).blocks(1024).loop_trip((4, 10)).build();
        let small = measure_gshare_miss_rate_warm(&spec, 400_000, 400_000, 512);
        let large = measure_gshare_miss_rate_warm(&spec, 400_000, 400_000, 64 * 1024);
        assert!(large < small, "64 KB {large} must beat 0.5 KB {small}");
    }

    #[test]
    fn calibration_converges_to_target() {
        // Pick a target inside the spec's own reachable envelope so the
        // test is robust to generator evolution.
        let base = WorkloadSpec::builder("cal-target")
            .seed(4)
            .blocks(512)
            .mix(BranchMix {
                loops: 0.3,
                patterns: 0.1,
                biased: 0.8,
                markov: 0.0,
                alternating: 0.0,
            })
            .build();
        let mut easiest = base.clone();
        easiest.hard_bias_spread = 0.5;
        let mut hardest = base.clone();
        hardest.hard_bias_spread = 0.02;
        let lo = measure_gshare_miss_rate(&easiest, 100_000, 8 * 1024);
        let hi = measure_gshare_miss_rate(&hardest, 100_000, 8 * 1024);
        assert!(hi > lo, "spread must modulate difficulty ({lo}..{hi})");
        let target = 0.5 * (lo + hi);
        let cal = calibrate_hardness(&base, target, 100_000, 10);
        assert!(
            (cal.achieved - target).abs() < 0.25 * (hi - lo) + 0.01,
            "calibrated to {} for target {target} (spread {}, envelope {lo}..{hi})",
            cal.achieved,
            cal.spread
        );
    }

    #[test]
    fn zero_instructions_measures_a_zero_rate_without_dividing() {
        // No instructions retired means no branches observed; the
        // measurement must define 0/0 as 0.0, not NaN or a panic.
        let spec = WorkloadSpec::builder("zero").seed(6).blocks(256).build();
        let rate = measure_gshare_miss_rate(&spec, 0, 8 * 1024);
        assert_eq!(rate, 0.0);
        let warm = measure_gshare_miss_rate_warm(&spec, 1_000, 0, 8 * 1024);
        assert_eq!(warm, 0.0, "warm-up-only runs count no branches");
    }

    #[test]
    fn calibration_with_zero_instructions_still_bisects() {
        // Every probe measures 0.0 misses, so the search walks toward
        // the hard end but must return a finite spread inside the
        // bisection envelope rather than panicking.
        let base = WorkloadSpec::builder("zero-cal").seed(7).blocks(256).build();
        let cal = calibrate_hardness(&base, 0.05, 0, 6);
        assert_eq!(cal.achieved, 0.0);
        assert!((0.02..=0.50).contains(&cal.spread), "spread {}", cal.spread);
    }

    #[test]
    fn calibration_with_zero_iterations_reports_the_base_spread() {
        // No probes run: the result is the untouched base spread with an
        // explicitly unknown (NaN) achieved rate, not a stale number.
        let base = WorkloadSpec::builder("zero-iter").seed(8).blocks(256).build();
        let cal = calibrate_hardness(&base, 0.05, 10_000, 0);
        assert_eq!(cal.spread, base.hard_bias_spread);
        assert!(cal.achieved.is_nan(), "achieved {}", cal.achieved);
    }

    #[test]
    fn table_below_one_set_still_yields_a_sane_rate() {
        // table_bytes = 1 is below one full set (4 counters/byte is the
        // smallest table the predictor accepts); the rate must stay a
        // finite probability even in this degenerate configuration.
        let spec = WorkloadSpec::builder("tiny-table").seed(9).blocks(512).build();
        let rate = measure_gshare_miss_rate(&spec, 30_000, 1);
        assert!(rate.is_finite() && (0.0..=1.0).contains(&rate), "rate {rate}");
        let sized = measure_gshare_miss_rate(&spec, 30_000, 8 * 1024);
        assert!(rate >= sized, "1-byte table {rate} cannot beat 8 KB {sized}");
    }

    #[test]
    fn narrower_spread_is_harder() {
        // A biased-dominated mix so the spread knob has dynamic leverage.
        let mut easy = WorkloadSpec::builder("spread")
            .seed(5)
            .blocks(512)
            .loop_trip((8, 16))
            .mix(BranchMix {
                loops: 0.15,
                patterns: 0.1,
                biased: 2.0,
                markov: 0.0,
                alternating: 0.0,
            })
            .build();
        easy.hard_bias_spread = 0.45;
        let mut hard = easy.clone();
        hard.hard_bias_spread = 0.05;
        let easy_rate = measure_gshare_miss_rate(&easy, 200_000, 8 * 1024);
        let hard_rate = measure_gshare_miss_rate(&hard, 200_000, 8 * 1024);
        assert!(hard_rate > easy_rate + 0.01, "hard {hard_rate} vs easy {easy_rate}");
    }
}
