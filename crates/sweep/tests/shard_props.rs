//! Property tests for the sharding contract: for **any** spec and
//! **any** shard count, the merged union of the shard documents is
//! byte-identical to the unsharded `st run` output — and `st merge`
//! rejects anything that is not exactly that union (tampered bytes,
//! missing points, mixed-up sweeps, arbitrary bytes, out-of-range
//! integers) without ever panicking or aborting.

use std::sync::OnceLock;

use proptest::prelude::*;
use st_sweep::shard::{self, ShardPlan};
use st_sweep::{AxisValue, SweepEngine, SweepSpec};

/// Builds a small but shape-diverse spec from raw draws: 1–2 workloads,
/// one experiment, an optional swept axis, baselines on or off, and a
/// tiny instruction budget so a case simulates in milliseconds.
fn spec_from_draws(
    workload_mask: u8,
    experiment_pick: u8,
    axis_pick: u8,
    baseline: bool,
    instr: u64,
) -> SweepSpec {
    let mut spec = SweepSpec::new("prop");
    spec.baseline = baseline;
    let workloads = ["go", "gcc"];
    for (i, w) in workloads.iter().enumerate() {
        if workload_mask & (1 << i) != 0 {
            spec.workloads.push((*w).to_string());
        }
    }
    if spec.workloads.is_empty() {
        spec.workloads.push("go".to_string());
    }
    spec.experiments = vec![["C2", "A7", "OF"][experiment_pick as usize % 3].to_string()];
    match axis_pick % 3 {
        0 => {}
        1 => spec
            .set_axis("ruu_size", vec![AxisValue::Int(16), AxisValue::Int(32)])
            .expect("in-domain"),
        _ => spec
            .set_axis("gating_threshold", vec![AxisValue::Int(1), AxisValue::Int(3)])
            .expect("in-domain"),
    }
    spec.set_axis("instructions", vec![AxisValue::Int(instr)]).expect("in-domain");
    spec
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn merged_union_is_byte_identical_to_the_unsharded_run(
        workload_mask in 1u8..=3,
        experiment_pick in 0u8..3,
        axis_pick in 0u8..3,
        baseline in any::<bool>(),
        instr in 200u64..500,
        n in 1usize..=4,
    ) {
        let spec = spec_from_draws(workload_mask, experiment_pick, axis_pick, baseline, instr);
        let points = spec.points().expect("grid expands");
        let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
        let reports = SweepEngine::new(1).run(&jobs);
        let canonical = st_sweep::emit::sweep_jsonl(&points, &reports);

        let plan = ShardPlan::for_points(&points, n).expect("plan");
        let docs: Vec<String> =
            (0..n).map(|s| shard::shard_document(&spec, &points, &reports, &plan, s)).collect();
        let merged = shard::merge(&docs).expect("merge succeeds");
        prop_assert_eq!(&merged.jsonl, &canonical, "n = {}", n);
        prop_assert_eq!(merged.stats.points, points.len());

        // Shard documents also merge in any order (the canonical output
        // is position-keyed, not file-order-keyed).
        if n > 1 {
            let reversed: Vec<String> = docs.iter().rev().cloned().collect();
            let remerged = shard::merge(&reversed).expect("reversed merge succeeds");
            prop_assert_eq!(&remerged.jsonl, &canonical);
        }

        // The spec embedded in the headers round-trips to the same grid.
        let back = SweepSpec::parse(&spec.to_json()).expect("canonical spec parses");
        prop_assert_eq!(back.points().expect("back grid"), points);
    }

    #[test]
    fn merge_rejects_any_single_byte_report_tamper(
        instr in 200u64..400,
        victim_byte in 0usize..40,
    ) {
        let spec = spec_from_draws(1, 0, 0, true, instr);
        let points = spec.points().expect("grid expands");
        let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
        let reports = SweepEngine::new(1).run(&jobs);
        let plan = ShardPlan::for_points(&points, 2).expect("plan");
        let docs: Vec<String> =
            (0..2).map(|s| shard::shard_document(&spec, &points, &reports, &plan, s)).collect();

        // Flip one digit somewhere in shard 0's first record's report
        // payload; whatever digit the draw lands on, the merge must
        // notice the bytes no longer hash to the record's claim.
        let line = docs[0].lines().nth(1).expect("a point record");
        let payload_at = line.find(",\"report\":").expect("report member") + ",\"report\":".len();
        let digit_positions: Vec<usize> = line
            .char_indices()
            .skip(payload_at)
            .filter(|(_, c)| c.is_ascii_digit())
            .map(|(i, _)| i)
            .collect();
        let at = digit_positions[victim_byte % digit_positions.len()];
        let old = line.as_bytes()[at];
        let new = if old == b'9' { b'8' } else { old + 1 };
        let mut tampered_line = line.to_string();
        // SAFETY-free byte swap via String ranges: both are ASCII digits.
        tampered_line.replace_range(at..=at, std::str::from_utf8(&[new]).unwrap());
        let tampered_doc = docs[0].replace(line, &tampered_line);
        prop_assert!(tampered_doc != docs[0], "tamper must change the document");

        let e = shard::merge(&[tampered_doc, docs[1].clone()]).expect_err("tamper detected");
        prop_assert!(
            e.0.contains("modified after it was written") || e.0.contains("does not parse"),
            "unexpected error: {}",
            e.0
        );
    }
}

/// Shard files from different sweeps (or spec revisions) must never
/// merge, even when grid sizes happen to match.
#[test]
fn merge_rejects_mixed_sweeps_and_spec_revisions() {
    let a = spec_from_draws(1, 0, 0, true, 300);
    let mut b = a.clone();
    b.set_axis("instructions", vec![AxisValue::Int(301)]).expect("rebind");

    let run = |spec: &SweepSpec| {
        let points = spec.points().expect("grid");
        let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
        let reports = SweepEngine::new(1).run(&jobs);
        let plan = ShardPlan::for_points(&points, 2).expect("plan");
        (0..2)
            .map(|s| shard::shard_document(spec, &points, &reports, &plan, s))
            .collect::<Vec<String>>()
    };
    let docs_a = run(&a);
    let docs_b = run(&b);
    // Same grid size, same shard count — but a different spec, caught by
    // the header comparison before any record is trusted.
    let e = shard::merge(&[docs_a[0].clone(), docs_b[1].clone()]).expect_err("mixed sweeps");
    assert!(e.0.contains("different sweep"), "{e}");
}

/// A valid 2-shard document set over an 8-point grid, and the canonical
/// JSONL its merge must reproduce; built once and shared by every case.
fn two_shard_set() -> &'static (Vec<String>, String) {
    static SET: OnceLock<(Vec<String>, String)> = OnceLock::new();
    SET.get_or_init(|| {
        let spec = spec_from_draws(3, 0, 1, true, 300);
        let points = spec.points().expect("grid expands");
        let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
        let reports = SweepEngine::new(1).run(&jobs);
        let plan = ShardPlan::for_points(&points, 2).expect("plan");
        let docs =
            (0..2).map(|s| shard::shard_document(&spec, &points, &reports, &plan, s)).collect();
        (docs, st_sweep::emit::sweep_jsonl(&points, &reports))
    })
}

/// Replaces the integer after `"key":` in `line` with `token`.
fn replace_int(line: &str, key: &str, token: &str) -> String {
    let pattern = format!("\"{key}\":");
    let at = line.find(&pattern).expect("key present") + pattern.len();
    let digits = line[at..].bytes().take_while(u8::is_ascii_digit).count();
    format!("{}{token}{}", &line[..at], &line[at + digits..])
}

/// A number token: any u64, a small one (which can leave the document
/// valid), or a float far outside every integer range.
fn number_token() -> impl Strategy<Value = String> {
    prop_oneof![
        any::<u64>().prop_map(|n| n.to_string()),
        (0u64..4).prop_map(|n| n.to_string()),
        (1u32..=400).prop_map(|e| format!("1e{e}")),
        (0u64..1000, 1u32..=400).prop_map(|(m, e)| format!("{m}.5e{e}")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_merge(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        copies in 1usize..=3,
        after_a_valid_header in any::<bool>(),
    ) {
        let garbage = String::from_utf8_lossy(&bytes).into_owned();
        let doc = if after_a_valid_header {
            let header = two_shard_set().0[0].lines().next().expect("header");
            format!("{header}\n{garbage}")
        } else {
            garbage
        };
        let docs = vec![doc; copies];
        prop_assert!(shard::merge(&docs).is_err());
    }

    #[test]
    fn a_mutated_integer_merges_canonically_or_not_at_all(
        target in 0usize..5,
        doc in 0usize..2,
        every_header in any::<bool>(),
        record in 0usize..4,
        token in number_token(),
    ) {
        let (docs, canonical) = two_shard_set();
        // A `seq` changes in one record; a header field changes in one
        // document, or in every one so the set stays self-consistent.
        let key = ["v", "shard", "of", "points", "seq"][target];
        let line = if key == "seq" { 1 + record } else { 0 };
        let mut docs = docs.clone();
        for (d, text) in docs.iter_mut().enumerate() {
            if d == doc || (every_header && key != "seq") {
                let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
                lines[line] = replace_int(&lines[line], key, &token);
                *text = lines.join("\n") + "\n";
            }
        }
        if let Ok(merged) = shard::merge(&docs) {
            prop_assert_eq!(&merged.jsonl, canonical, "merged a mutated set to other bytes");
        }
    }
}
