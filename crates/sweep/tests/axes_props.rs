//! Property tests over the axis registry's three contracts:
//!
//! 1. **Fingerprint sensitivity** — a job's content-hash fingerprint
//!    changes exactly when an axis binding changes value, for every
//!    registered axis (this is what makes "baseline + bindings" a sound
//!    cache key);
//! 2. **Legacy equivalence** — the deprecated spec keys (`depths`,
//!    `predictor_kb`, `estimator_kb`, `instructions`) expand to job
//!    lists identical to their `axis.*` spellings;
//! 3. **Parse round-trip** — every registered axis binds through both
//!    TOML and JSON spellings and the parsed values echo back exactly;
//! 4. **Admitted values simulate** — every value an axis's domain admits
//!    builds a machine that runs, so a bad value is a spec error, never
//!    a panic mid-sweep.

use proptest::prelude::*;
use st_sweep::axes::{self, Axis, AxisDomain, AxisValue};
use st_sweep::{JobSpec, SweepSpec};

/// A job where every axis matters: the A7 experiment gives the
/// `gating_threshold` axis something to act on; all other axes are
/// experiment-independent.
fn base_job() -> JobSpec {
    JobSpec::new(st_isa::WorkloadSpec::builder("axes-prop").seed(7).blocks(64).build(), 5_000)
        .with_experiment(st_core::experiments::a7())
}

/// Maps two raw draws to two *distinct* in-domain values for `axis`.
fn two_distinct_values(axis: &Axis, a: u64, b: u64) -> (AxisValue, AxisValue) {
    match axis.domain {
        AxisDomain::Int { min, max } => {
            let span = max - min + 1;
            let v1 = min + a % span;
            let mut v2 = min + b % span;
            if v2 == v1 {
                v2 = min + (v1 - min + 1) % span;
            }
            (AxisValue::Int(v1), AxisValue::Int(v2))
        }
        AxisDomain::PowersOfTwo { min, max } => {
            // Draw two distinct exponents.
            let (lo, span) = (min.ilog2(), max.ilog2() - min.ilog2() + 1);
            let e1 = (a % u64::from(span)) as u32;
            let mut e2 = (b % u64::from(span)) as u32;
            if e2 == e1 {
                e2 = (e1 + 1) % span;
            }
            (AxisValue::Int(1 << (lo + e1)), AxisValue::Int(1 << (lo + e2)))
        }
        AxisDomain::Float { min, max } => {
            // A 1000-point grid over the domain: distinct grid indices
            // give distinct floats for every registered float domain.
            let grid = 1_000u64;
            let (k1, mut k2) = (a % grid, b % grid);
            if k2 == k1 {
                k2 = (k1 + 1) % grid;
            }
            let at = |k: u64| min + (max - min) * k as f64 / grid as f64;
            (AxisValue::Float(at(k1)), AxisValue::Float(at(k2)))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn fingerprint_changes_iff_an_axis_binding_changes(
        idx in 0usize..axes::registry().len(),
        a in 0u64..1_000_000_000,
        b in 0u64..1_000_000_000,
    ) {
        let axis = &axes::registry()[idx];
        // `workload_seed` only acts on generative workloads, and each new
        // seed pays a calibration; draw from a tiny seed set so the
        // process-wide memo bounds the cost.
        let job = || -> JobSpec {
            if axis.name == "workload_seed" {
                JobSpec::new(st_workloads::by_name("gen:jit:0").expect("generative"), 5_000)
                    .with_experiment(st_core::experiments::a7())
            } else {
                base_job()
            }
        };
        let (a, b) = if axis.name == "workload_seed" { (a % 4, b % 4) } else { (a, b) };
        let (v1, v2) = two_distinct_values(axis, a, b);

        let mut j1 = job();
        axis.apply(&mut j1, &v1).expect("in-domain value applies");
        let mut j1_again = job();
        axis.apply(&mut j1_again, &v1).expect("in-domain value applies");
        let mut j2 = job();
        axis.apply(&mut j2, &v2).expect("in-domain value applies");

        // Same binding => same fingerprint; different value => different.
        prop_assert_eq!(j1.fingerprint(), j1_again.fingerprint());
        prop_assert!(
            j1.fingerprint() != j2.fingerprint(),
            "axis `{}`: {} vs {} must fingerprint apart",
            axis.name,
            v1,
            v2
        );
    }

    #[test]
    fn legacy_keys_expand_to_identical_job_lists(
        d0 in 6u64..=28,
        d1 in 6u64..=28,
        p0 in 0u32..=6,
        p1 in 0u32..=6,
        e0 in 0u32..=6,
        n in 1_000u64..=100_000,
    ) {
        // The KB axes admit powers of two: draw exponents.
        let (p0, p1, e0) = (1u64 << p0, 1u64 << p1, 1u64 << e0);
        let legacy = SweepSpec::parse(&format!(
            "name = \"s\"\nworkloads = [\"go\"]\nexperiments = [\"C2\", \"A7\"]\n\
             depths = [{d0}, {d1}]\npredictor_kb = [{p0}, {p1}]\nestimator_kb = [{e0}]\n\
             instructions = {n}\n"
        ))
        .expect("legacy spec parses");
        let modern = SweepSpec::parse(&format!(
            "name = \"s\"\nworkloads = [\"go\"]\nexperiments = [\"C2\", \"A7\"]\n\
             [axis]\ndepth = [{d0}, {d1}]\npredictor_kb = [{p0}, {p1}]\nestimator_kb = [{e0}]\n\
             instructions = {n}\n"
        ))
        .expect("axis spec parses");
        let legacy_jobs = legacy.jobs().expect("legacy grid expands");
        let modern_jobs = modern.jobs().expect("axis grid expands");
        prop_assert_eq!(&legacy_jobs, &modern_jobs);
        // And the grids really swept what was asked.
        // 2 depths x 2 predictor budgets x 1 estimator budget x (BASE+C2+A7).
        prop_assert_eq!(legacy_jobs.len(), 12);
        prop_assert!(legacy_jobs.iter().all(|j| j.instructions == n));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 160, ..ProptestConfig::default() })]

    #[test]
    fn every_admitted_value_simulates(
        idx in 0usize..axes::registry().len(),
        a in 0u64..1_000_000_000,
    ) {
        let axis = &axes::registry()[idx];
        let (mut value, _) = two_distinct_values(axis, a, a);
        if axis.name == "instructions" {
            // Any admitted budget, kept short.
            value = AxisValue::Int(1 + a % 300);
        }
        prop_assert!(axis.validate(&value).is_ok(), "`{}` admits {}", axis.name, value);
        for experiment in [st_core::experiments::c2(), st_core::experiments::a7()] {
            let mut job = JobSpec::new(
                st_isa::WorkloadSpec::builder("axes-admitted").seed(3).blocks(32).build(),
                300,
            )
            .with_experiment(experiment);
            axis.apply(&mut job, &value).expect("an admitted value applies");
            let report = job.run();
            prop_assert!(report.perf.committed >= job.instructions, "`{}` = {}", axis.name, value);
        }
    }
}

#[test]
fn every_axis_round_trips_through_toml_and_json() {
    for axis in axes::registry() {
        let canonical = axis.default.canonical();
        // `workload_seed` refuses to bind without a generative workload in
        // the spec; every other axis exercises the default workload list.
        let (toml_wl, json_wl) = if axis.name == "workload_seed" {
            ("workloads = [\"gen:jit:0\"]\n", "\"workloads\": [\"gen:jit:0\"], ")
        } else {
            ("", "")
        };
        let toml = format!("name = \"t\"\n{toml_wl}\n[axis]\n{} = [{canonical}]\n", axis.name);
        let from_toml = SweepSpec::parse(&toml)
            .unwrap_or_else(|e| panic!("TOML binding for `{}` failed: {e}", axis.name));
        assert_eq!(
            from_toml.axis_values(axis.name),
            Some(&[axis.default][..]),
            "TOML round-trip for `{}`",
            axis.name
        );

        let json = format!("{{ \"name\": \"t\", {json_wl}\"axis.{}\": [{canonical}] }}", axis.name);
        let from_json = SweepSpec::parse(&json)
            .unwrap_or_else(|e| panic!("JSON binding for `{}` failed: {e}", axis.name));
        assert_eq!(
            from_json.axis_values(axis.name),
            Some(&[axis.default][..]),
            "JSON round-trip for `{}`",
            axis.name
        );

        // Both spellings expand to the same single-point grid.
        assert_eq!(
            from_toml.jobs().expect("toml grid"),
            from_json.jobs().expect("json grid"),
            "`{}` grids diverge between formats",
            axis.name
        );
    }
}

#[test]
fn dotted_toml_and_sectioned_toml_agree() {
    let dotted = SweepSpec::parse("name = \"x\"\naxis.ruu_size = [32, 64]\n").expect("dotted");
    let sectioned =
        SweepSpec::parse("name = \"x\"\n\n[axis]\nruu_size = [32, 64]\n").expect("sectioned");
    assert_eq!(dotted, sectioned);
}
