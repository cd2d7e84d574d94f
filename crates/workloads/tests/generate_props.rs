//! Property tests for the generative workload suite: name round-trip,
//! derivation determinism and calibration convergence.

use proptest::prelude::*;
use st_workloads::generate::{self, derive, families, family, member_name, parse_name};
use st_workloads::{by_name, Family};

fn programs_equal(a: &st_isa::Program, b: &st_isa::Program) -> bool {
    a.blocks().len() == b.blocks().len()
        && a.blocks()
            .iter()
            .zip(b.blocks())
            .all(|(x, y)| x.instrs == y.instrs && x.terminator == y.terminator)
        && a.branch_count() == b.branch_count()
        && a.stream_count() == b.stream_count()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Every `gen:<family>:<seed>` name resolves through `by_name` to a
    /// spec that carries the same name back (the round-trip sweeps,
    /// shards and the fleet rely on when they re-resolve by name).
    #[test]
    fn gen_names_round_trip_through_by_name(fam_idx in 0usize..4, seed in 0u64..1_000_000) {
        let f = &families()[fam_idx];
        let name = member_name(f, seed);
        let spec = by_name(&name).expect("generative names resolve");
        prop_assert_eq!(&spec.name, &name);
        let (parsed, parsed_seed) = parse_name(&spec.name).expect("name parses back");
        prop_assert_eq!(parsed.name, f.name);
        prop_assert_eq!(parsed_seed, seed);
    }

    /// Malformed generative names never resolve (and never panic).
    #[test]
    fn malformed_gen_names_resolve_to_none(fam_idx in 0usize..4, junk in 0u64..1_000_000) {
        let f = &families()[fam_idx];
        for name in [
            format!("gen:nosuch{junk}:{junk}"),      // unknown family
            format!("gen:{}:{junk}x", f.name),       // trailing garbage in the seed
            format!("gen:{}:{junk}:{junk}", f.name), // extra component
            format!("Gen:{}:{junk}", f.name),        // the prefix is case-sensitive
        ] {
            prop_assert!(parse_name(&name).is_none(), "{name} must not parse");
            prop_assert!(by_name(&name).is_none(), "{name} must not resolve");
        }
    }
}

/// Two independent (memo-free) derivations of the same member must
/// build byte-identical specs *and* byte-identical programs — the
/// determinism that makes fingerprints, the result cache, program reuse,
/// shard plans and fleet partitioning safe for generated workloads.
#[test]
fn identical_seeds_derive_byte_identical_programs() {
    for f in families() {
        for seed in [0u64, 1, 17] {
            let (a, cal_a) = derive(f, seed);
            let (b, cal_b) = derive(f, seed);
            assert_eq!(a, b, "{}:{seed}: spec derivation must be pure", f.name);
            assert_eq!(cal_a, cal_b);
            assert!(
                programs_equal(&a.generate(), &b.generate()),
                "{}:{seed}: generated programs must be byte-identical",
                f.name
            );
        }
    }
}

/// Different seeds draw different members (the axis would be pointless
/// otherwise).
#[test]
fn different_seeds_derive_different_programs() {
    for f in families() {
        let (a, _) = derive(f, 0);
        let (b, _) = derive(f, 1);
        assert!(
            !programs_equal(&a.generate(), &b.generate()),
            "{}: seeds 0 and 1 must differ",
            f.name
        );
    }
}

fn assert_within_tolerance(f: &Family, seed: u64) {
    let (spec, cal) = derive(f, seed);
    let realized =
        st_workloads::measure_gshare_miss_rate(&spec, generate::CAL_INSTRUCTIONS, 8 * 1024);
    assert_eq!(realized, cal.achieved, "realized rate is the calibration measurement");
    assert!(
        (realized - f.target_miss).abs() <= f.tolerance,
        "gen:{}:{seed}: realized {realized:.4} vs target {:.3} ± {:.3} (spread {:.4})",
        f.name,
        f.target_miss,
        f.tolerance,
        cal.spread
    );
}

/// `calibrate_hardness` converges within each family's declared
/// tolerance for a sampled set of seeds.
#[test]
fn calibration_converges_within_family_tolerance() {
    for f in families() {
        for seed in [0, 1, 2, 3, 5, 8, 13] {
            assert_within_tolerance(f, seed);
        }
    }
}

/// Bit-exact calibration results, `(family, seed, spread bits, achieved
/// bits)`. Any change to a family's knob draws, the bisection or the
/// gshare probe moves these. `spec2006:5`, `server:8` and `mix:23` enter
/// one biased-share correction round and `jit:38` enters two.
const CALIBRATION_GOLDEN: [(&str, u64, u64, u64); 16] = [
    ("spec2006", 0, 0x3fd1_c7ae_147a_e148, 0x3fc6_5cb9_72e5_cb97),
    ("spec2006", 1, 0x3fd6_75c2_8f5c_28f6, 0x3fc6_45eb_b350_120b),
    ("spec2006", 2, 0x3f95_70a3_d70a_3d70, 0x3fc5_a64b_e728_b62b),
    ("spec2006", 5, 0x3fdf_f0a3_d70a_3d70, 0x3fc6_bde5_fbed_f2ba),
    ("server", 0, 0x3fdc_d1eb_851e_b852, 0x3fd0_0939_a85c_4094),
    ("server", 1, 0x3f95_70a3_d70a_3d70, 0x3fce_8c74_1bb7_56b5),
    ("server", 2, 0x3fdc_3851_eb85_1eb8, 0x3fd0_046a_5648_ab77),
    ("server", 8, 0x3fd5_8000_0000_0000, 0x3fcf_f6d5_5142_5d01),
    ("jit", 0, 0x3fbe_51eb_851e_b852, 0x3fc1_4ff5_8f11_14ff),
    ("jit", 1, 0x3fd7_8a3d_70a3_d70a, 0x3fc1_520b_f8f5_157b),
    ("jit", 2, 0x3f95_70a3_d70a_3d70, 0x3fc0_d4d9_f0f6_2acd),
    ("jit", 38, 0x3f95_70a3_d70a_3d70, 0x3fc0_5def_8708_521c),
    ("mix", 0, 0x3fdf_f0a3_d70a_3d70, 0x3fc8_1ed8_74ed_1489),
    ("mix", 1, 0x3fde_6147_ae14_7ae1, 0x3fc7_085b_176c_1b30),
    ("mix", 2, 0x3fdf_1999_9999_999a, 0x3fc7_01ee_1a51_c3fe),
    ("mix", 23, 0x3fd5_23d7_0a3d_70a4, 0x3fc7_1009_9d00_6a7c),
];

/// Every family's calibration is pinned to the last bit, correction
/// rounds included, so a shifted member fails here rather than only in
/// a sweep golden that may not cover its family.
#[test]
fn calibration_matches_golden_bits() {
    for (name, seed, spread, achieved) in CALIBRATION_GOLDEN {
        let (_, cal) = derive(family(name).expect("registered family"), seed);
        assert_eq!(
            (cal.spread.to_bits(), cal.achieved.to_bits()),
            (spread, achieved),
            "gen:{name}:{seed} calibrated to spread {} achieved {}",
            cal.spread,
            cal.achieved
        );
    }
}

/// The family registry itself stays sane: unique names, positive
/// tolerances, resolvable bare names.
#[test]
fn family_registry_is_coherent() {
    let mut names: Vec<_> = families().iter().map(|f| f.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), families().len(), "family names must be unique");
    for f in families() {
        assert!(f.tolerance > 0.0 && f.tolerance < 0.1);
        assert!(f.target_miss > 0.0 && f.target_miss < 0.5);
        assert!(family(f.name).is_some());
        assert!(by_name(&format!("gen:{}", f.name)).is_some(), "bare family name resolves");
    }
    assert!(family("go").is_none(), "fixed profiles are not families");
    let _ = generate::markdown_table();
}
