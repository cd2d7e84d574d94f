//! Integration tests for the sweep engine's two core guarantees:
//!
//! 1. **Determinism** — results are bit-identical for 1 vs N worker
//!    threads (fixed per-job seeds; assembly by submission order);
//! 2. **Memoisation** — a configuration point repeated across sweeps is
//!    simulated once and served from the content-hashed cache after.

use st_sweep::{JobSpec, SweepEngine, SweepSpec};

const N: u64 = 3_000;

/// A mixed grid exercising throttling, gating and oracle controllers
/// over two workloads, with a duplicated point thrown in.
fn mixed_grid() -> Vec<JobSpec> {
    let experiments = [
        st_core::experiments::baseline(),
        st_core::experiments::a5(),
        st_core::experiments::a7(),
        st_core::experiments::c2(),
        st_core::experiments::oracle_fetch(),
    ];
    let mut jobs = Vec::new();
    for name in ["go", "parser"] {
        let spec = st_workloads::by_name(name).expect("known workload");
        for e in &experiments {
            jobs.push(JobSpec::new(spec.clone(), N).with_experiment(e.clone()));
        }
    }
    // A duplicate of an earlier point: must dedup, not re-simulate.
    jobs.push(jobs[3].clone());
    jobs
}

#[test]
fn results_are_bit_identical_for_one_vs_many_threads() {
    let jobs = mixed_grid();
    let serial = SweepEngine::new(1).run(&jobs);
    let parallel = SweepEngine::new(8).run(&jobs);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        // SimReport's PartialEq covers every counter and energy figure,
        // so this is bit-identity of the whole result, not a summary.
        assert_eq!(**s, **p, "job {i} diverged between 1 and 8 threads");
    }
}

#[test]
fn repeated_points_across_sweeps_hit_the_cache() {
    let engine = SweepEngine::new(4);
    let jobs = mixed_grid();
    let first = engine.run(&jobs);
    let after_first = engine.stats();
    assert_eq!(
        after_first.simulated,
        jobs.len() as u64 - 1,
        "the duplicated point must be deduped within the batch"
    );
    assert_eq!(after_first.cache.hits, 1);

    // A second sweep whose grid overlaps the first on the C2 and BASE
    // points: only the genuinely new A1 points may simulate.
    let mut second = Vec::new();
    for name in ["go", "parser"] {
        let spec = st_workloads::by_name(name).expect("known workload");
        for e in [
            st_core::experiments::baseline(),
            st_core::experiments::c2(),
            st_core::experiments::a1(),
        ] {
            second.push(JobSpec::new(spec.clone(), N).with_experiment(e));
        }
    }
    let out = engine.run(&second);
    let after_second = engine.stats();
    assert_eq!(after_second.simulated - after_first.simulated, 2, "only the two A1 points are new");
    assert!(
        after_second.cache.hits >= after_first.cache.hits + 4,
        "the four overlapping points must be cache hits"
    );
    assert!(after_second.cache.hit_rate() > 0.0);

    // Cached results are the same objects the first sweep produced.
    assert_eq!(*out[0], *first[0], "go BASE served from cache");
    assert_eq!(*out[1], *first[3], "go C2 served from cache");
}

#[test]
fn axis_spec_runs_end_to_end_and_reuses_the_persistent_cache() {
    // The acceptance grid: ruu_size x fetch_width x gating_threshold,
    // bound purely through `axis.*` keys — no code knows these knobs.
    let spec = SweepSpec::parse(
        r#"
        name = "it-axes"
        workloads = ["go"]
        experiments = ["C2", "A7"]

        [axis]
        ruu_size = [32, 64]
        fetch_width = [4, 8]
        gating_threshold = [1, 3]
        instructions = 2_000
        "#,
    )
    .expect("valid axis spec");
    let points = spec.points().expect("grid");
    // 2 ruu x 2 widths x 2 thresholds x (BASE + C2 + A7) = 24 points.
    assert_eq!(points.len(), 24);
    let jobs: Vec<JobSpec> = points.iter().map(|p| p.job.clone()).collect();
    assert!(jobs.iter().any(|j| j.config.ruu_size == 32 && j.config.fetch_width == 4));
    assert!(jobs.iter().any(|j| j.experiment.gating_threshold() == Some(3)));

    let dir = std::env::temp_dir().join(format!("st-it-axes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let first = SweepEngine::with_result_store(4, &dir);
    let out1 = first.run(&jobs);
    // gating_threshold only distinguishes A7 points: BASE and C2 dedup
    // across the two threshold values (8 + 8 + 16 points -> 16 unique).
    assert_eq!(first.stats().simulated, 16);

    // A fresh engine (new process, conceptually) serves the whole grid
    // from disk, bit-identically.
    let second = SweepEngine::with_result_store(4, &dir);
    assert_eq!(second.stats().loaded, 16);
    let out2 = second.run(&jobs);
    assert_eq!(second.stats().simulated, 0, "fully served from the persistent cache");
    assert!(second.stats().cache.hit_rate() > 0.9, "acceptance: >90% hits on the second run");
    assert_eq!(out1, out2, "disk round-trip must be bit-exact");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn declarative_spec_runs_end_to_end() {
    let spec = SweepSpec::parse(
        r#"
        name = "it-depth"
        workloads = ["go"]
        experiments = ["C2"]
        depths = [6, 14]
        instructions = 2_000
        "#,
    )
    .expect("valid spec");
    let jobs = spec.jobs().expect("grid");
    assert_eq!(jobs.len(), 4, "2 depths x (BASE + C2)");
    let engine = SweepEngine::new(2);
    let reports = engine.run(&jobs);
    // Baseline and C2 at the same depth compare cleanly.
    let cmp = st_core::compare(&reports[0], &reports[1]);
    assert!(cmp.speedup > 0.5 && cmp.speedup <= 1.05);
    // The deeper pipeline burns more cycles at the same commit count.
    assert!(reports[2].perf.cycles > 0);
    assert_eq!(reports[0].experiment, "BASE");
    assert_eq!(reports[1].experiment, "C2");
}
