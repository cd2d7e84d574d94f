//! The eight benchmark profiles.
//!
//! Each function returns the [`WorkloadSpec`] of one synthetic stand-in.
//! The loop-trip ranges, behaviour mixes and bias spreads were tuned
//! against the Table 2 gshare miss rates (8 KB table, 400 K instruction
//! warm-up, 800 K measured) and then frozen; the
//! `profiles_hit_paper_miss_rates` test keeps them honest. Loop trips are
//! the dominant knob: trips inside the history window predict almost
//! perfectly, trips beyond it mispredict roughly once per completion.

use st_isa::{BranchMix, WorkloadSpec};

/// A workload profile plus its paper-reported characteristics (Table 2).
#[derive(Debug, Clone)]
pub struct WorkloadInfo {
    /// SPEC suite the original benchmark belongs to.
    pub suite: &'static str,
    /// Table 2 misprediction rate for an 8 KB gshare.
    pub paper_miss_rate: f64,
    /// Simulated instruction count in the paper, in millions.
    pub paper_instructions_m: u64,
    /// Dynamic conditional branches in the paper, in millions.
    pub paper_branches_m: u64,
    /// The synthetic stand-in.
    pub spec: WorkloadSpec,
}

/// compress (SPECint95): small hot kernel, data-dependent branches on the
/// input stream. Paper miss rate 10.2 %.
#[must_use]
pub fn compress() -> WorkloadSpec {
    WorkloadSpec::builder("compress")
        .seed(0x636f_6d70)
        .blocks(1200)
        .mean_block_len(7.0)
        .mix(BranchMix {
            loops: 0.35,
            patterns: 0.20,
            biased: 0.36,
            markov: 0.05,
            alternating: 0.0,
        })
        .loop_trip((3, 9))
        .outer_trip((8, 32))
        .markov_stay((0.90, 0.97))
        .pattern_len((2, 6))
        .hard_bias_spread(0.26)
        .mem_frac(0.30)
        .locality_jump(0.030)
        .build()
}

/// gcc (SPECint95): very large static code, branchy, moderately hard.
/// Paper miss rate 9.2 %.
#[must_use]
pub fn gcc() -> WorkloadSpec {
    WorkloadSpec::builder("gcc")
        .seed(0x6763_6300)
        .blocks(12_000)
        .mean_block_len(6.0)
        .branch_frac(0.76)
        .jump_frac(0.10)
        .mix(BranchMix {
            loops: 0.32,
            patterns: 0.25,
            biased: 0.18,
            markov: 0.05,
            alternating: 0.0,
        })
        .loop_trip((3, 9))
        .outer_trip((8, 32))
        .markov_stay((0.90, 0.97))
        .pattern_len((2, 6))
        .hard_bias_spread(0.28)
        .mem_frac(0.26)
        .locality_jump(0.045)
        .build()
}

/// go (SPECint95): large code, notoriously unpredictable control (board
/// evaluation). Paper miss rate 19.7 % — the hardest of the suite.
#[must_use]
pub fn go() -> WorkloadSpec {
    WorkloadSpec::builder("go")
        .seed(0x676f_0000)
        .blocks(10_000)
        .mean_block_len(6.5)
        .branch_frac(0.74)
        .mix(BranchMix {
            loops: 0.20,
            patterns: 0.15,
            biased: 0.58,
            markov: 0.06,
            alternating: 0.0,
        })
        .loop_trip((3, 9))
        .outer_trip((8, 32))
        .markov_stay((0.90, 0.97))
        .pattern_len((2, 6))
        .hard_bias_spread(0.2)
        .mem_frac(0.27)
        .locality_jump(0.050)
        .build()
}

/// bzip2 (SPECint2000): compact compression loops, memory heavy.
/// Paper miss rate 8.0 %.
#[must_use]
pub fn bzip2() -> WorkloadSpec {
    WorkloadSpec::builder("bzip2")
        .seed(0x627a_6970)
        .blocks(1500)
        .mean_block_len(8.0)
        .mix(BranchMix {
            loops: 0.40,
            patterns: 0.25,
            biased: 0.24,
            markov: 0.05,
            alternating: 0.0,
        })
        .loop_trip((3, 9))
        .outer_trip((8, 32))
        .markov_stay((0.90, 0.97))
        .pattern_len((2, 6))
        .hard_bias_spread(0.28)
        .mem_frac(0.34)
        .locality_jump(0.020)
        .build()
}

/// crafty (SPECint2000): chess search, medium code, fairly predictable.
/// Paper miss rate 7.7 %.
#[must_use]
pub fn crafty() -> WorkloadSpec {
    WorkloadSpec::builder("crafty")
        .seed(0x6372_6166)
        .blocks(4000)
        .mean_block_len(7.0)
        .mix(BranchMix {
            loops: 0.38,
            patterns: 0.30,
            biased: 0.09,
            markov: 0.05,
            alternating: 0.0,
        })
        .loop_trip((3, 9))
        .outer_trip((8, 32))
        .markov_stay((0.90, 0.97))
        .pattern_len((2, 6))
        .hard_bias_spread(0.3)
        .mem_frac(0.28)
        .locality_jump(0.035)
        .build()
}

/// gzip (SPECint2000): small loopy kernel. Paper miss rate 8.8 %.
#[must_use]
pub fn gzip() -> WorkloadSpec {
    WorkloadSpec::builder("gzip")
        .seed(0x677a_6970)
        .blocks(1500)
        .mean_block_len(8.0)
        .mix(BranchMix {
            loops: 0.38,
            patterns: 0.24,
            biased: 0.34,
            markov: 0.05,
            alternating: 0.0,
        })
        .loop_trip((3, 9))
        .outer_trip((8, 32))
        .markov_stay((0.90, 0.97))
        .pattern_len((2, 6))
        .hard_bias_spread(0.28)
        .mem_frac(0.32)
        .locality_jump(0.025)
        .build()
}

/// parser (SPECint2000): dictionary parsing, the most predictable of the
/// eight. Paper miss rate 6.8 %.
#[must_use]
pub fn parser() -> WorkloadSpec {
    WorkloadSpec::builder("parser")
        .seed(0x7061_7273)
        .blocks(3000)
        .mean_block_len(7.0)
        .mix(BranchMix {
            loops: 0.42,
            patterns: 0.30,
            biased: 0.05,
            markov: 0.05,
            alternating: 0.0,
        })
        .loop_trip((3, 9))
        .outer_trip((8, 32))
        .markov_stay((0.90, 0.97))
        .pattern_len((2, 6))
        .hard_bias_spread(0.3)
        .mem_frac(0.29)
        .locality_jump(0.030)
        .build()
}

/// twolf (SPECint2000): place-and-route, mixed behaviour.
/// Paper miss rate 11.2 %.
#[must_use]
pub fn twolf() -> WorkloadSpec {
    WorkloadSpec::builder("twolf")
        .seed(0x7477_6f6c)
        .blocks(3000)
        .mean_block_len(6.5)
        .mix(BranchMix {
            loops: 0.30,
            patterns: 0.20,
            biased: 0.30,
            markov: 0.05,
            alternating: 0.0,
        })
        .loop_trip((3, 9))
        .outer_trip((8, 32))
        .markov_stay((0.90, 0.97))
        .pattern_len((2, 6))
        .hard_bias_spread(0.24)
        .mem_frac(0.28)
        .locality_jump(0.040)
        .build()
}

/// All eight workloads with their paper-reported characteristics, in the
/// paper's order (SPECint95 first).
#[must_use]
pub fn all() -> Vec<WorkloadInfo> {
    vec![
        WorkloadInfo {
            suite: "SPECint95",
            paper_miss_rate: 0.102,
            paper_instructions_m: 2231,
            paper_branches_m: 170,
            spec: compress(),
        },
        WorkloadInfo {
            suite: "SPECint95",
            paper_miss_rate: 0.092,
            paper_instructions_m: 145,
            paper_branches_m: 19,
            spec: gcc(),
        },
        WorkloadInfo {
            suite: "SPECint95",
            paper_miss_rate: 0.197,
            paper_instructions_m: 146,
            paper_branches_m: 15,
            spec: go(),
        },
        WorkloadInfo {
            suite: "SPECint2000",
            paper_miss_rate: 0.080,
            paper_instructions_m: 500,
            paper_branches_m: 43,
            spec: bzip2(),
        },
        WorkloadInfo {
            suite: "SPECint2000",
            paper_miss_rate: 0.077,
            paper_instructions_m: 437,
            paper_branches_m: 38,
            spec: crafty(),
        },
        WorkloadInfo {
            suite: "SPECint2000",
            paper_miss_rate: 0.088,
            paper_instructions_m: 500,
            paper_branches_m: 52,
            spec: gzip(),
        },
        WorkloadInfo {
            suite: "SPECint2000",
            paper_miss_rate: 0.068,
            paper_instructions_m: 500,
            paper_branches_m: 64,
            spec: parser(),
        },
        WorkloadInfo {
            suite: "SPECint2000",
            paper_miss_rate: 0.112,
            paper_instructions_m: 258,
            paper_branches_m: 21,
            spec: twolf(),
        },
    ]
}

/// Looks a workload spec up by name: one of the eight benchmark names,
/// or a generative `gen:<family>:<seed>` member (resolved — and
/// calibrated — by [`crate::generate`]).
#[must_use]
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    match name {
        "compress" => Some(compress()),
        "gcc" => Some(gcc()),
        "go" => Some(go()),
        "bzip2" => Some(bzip2()),
        "crafty" => Some(crafty()),
        "gzip" => Some(gzip()),
        "parser" => Some(parser()),
        "twolf" => Some(twolf()),
        name => crate::generate::resolve(name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::measure_gshare_miss_rate_warm;

    #[test]
    fn all_profiles_present_and_named() {
        let infos = all();
        assert_eq!(infos.len(), 8);
        let names = ["compress", "gcc", "go", "bzip2", "crafty", "gzip", "parser", "twolf"];
        for (info, name) in infos.iter().zip(names) {
            assert_eq!(info.spec.name, name);
            assert!(by_name(name).is_some());
        }
        assert!(by_name("mcf").is_none());
    }

    #[test]
    fn profiles_hit_paper_miss_rates() {
        // Calibration used a 400 K warm-up + 800 K measurement; a scaled
        // version keeps debug-build runtime sane.
        for info in all() {
            let measured = measure_gshare_miss_rate_warm(&info.spec, 200_000, 400_000, 8 * 1024);
            let target = info.paper_miss_rate;
            assert!(
                (measured - target).abs() < 0.025,
                "{}: measured {measured:.3}, paper {target:.3}",
                info.spec.name
            );
        }
    }

    #[test]
    fn go_is_hardest_and_easy_benches_stay_easy() {
        let rates: Vec<(String, f64)> = all()
            .into_iter()
            .map(|i| {
                (
                    i.spec.name.clone(),
                    measure_gshare_miss_rate_warm(&i.spec, 200_000, 400_000, 8 * 1024),
                )
            })
            .collect();
        let rate = |n: &str| rates.iter().find(|(name, _)| name == n).unwrap().1;
        let go = rate("go");
        for (name, r) in &rates {
            if name != "go" {
                assert!(go > *r + 0.05, "go ({go:.3}) must clearly exceed {name} ({r:.3})");
            }
        }
        // The paper's easy/hard split must survive: parser, crafty and
        // bzip2 all sit below compress, twolf and go.
        for easy in ["parser", "crafty", "bzip2"] {
            for hard in ["compress", "twolf", "go"] {
                assert!(
                    rate(easy) < rate(hard),
                    "{easy} ({:.3}) must undercut {hard} ({:.3})",
                    rate(easy),
                    rate(hard)
                );
            }
        }
    }

    #[test]
    fn code_footprints_match_character() {
        assert!(gcc().n_blocks > 4 * compress().n_blocks, "gcc has much larger code");
        assert!(go().n_blocks > 4 * gzip().n_blocks);
    }
}
