//! `paper-repro`: the grid `st repro` runs — every figure and table of
//! the paper over the eight fixed profiles at the 200k-instruction
//! default — from an empty results directory, on one engine with the
//! result store on. Nearly all of its time is the cycle loop.

use std::path::Path;

use st_sweep::figures::{FigureCtx, ALL_FIGURES};
use st_sweep::{JobSpec, SweepEngine};

use crate::metrics::{Outcome, Values};
use crate::sim::{self, Point};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{host, Args, THREADS};

/// `st repro`'s default instruction budget per point.
const INSTRUCTIONS: u64 = 200_000;

/// Extra set-ups timed after each figure; set-up time is the median of
/// these and the run's own. One set-up takes a few milliseconds on one
/// thread, and a burst of host load or a quiet spell can move a whole
/// burst of consecutive samples by a third; spread across the run, the
/// samples see what the figures see.
const SETUPS_PER_FIGURE: usize = 20;

/// Points re-run solo to check the engine: a few untraced, and in the
/// traced run enough for a p90 with ten samples beyond it.
const SOLO_CHECKED: usize = 4;
const SOLO_TIMED: usize = 100;

/// What `st repro` does before a batch's first point runs: open the
/// engine over `results`, then expand the batch and fingerprint every
/// job of it against the cache (the engine's first phase). The batch
/// here is the Figure 3–5 panels. Opening an empty store alone takes a
/// few microseconds and moves by a fifth between identical processes,
/// so set-up is timed over the expansion too.
fn set_up(results: &Path) -> (SweepEngine, Vec<JobSpec>) {
    let engine = SweepEngine::with_result_store(THREADS, results).with_lanes(1);
    let jobs = panel_jobs();
    let fingerprints: Vec<u64> = jobs.iter().map(JobSpec::fingerprint).collect();
    std::hint::black_box(fingerprints);
    (engine, jobs)
}

/// The Figure 3–5 panels' points (eight profiles × BASE and groups A,
/// B and C at the paper machine): a subset of the grid every figure
/// shares, which carries the paper's quoted averages.
fn panel_jobs() -> Vec<JobSpec> {
    use st_core::experiments as ex;
    let experiments: Vec<_> =
        ex::group_a().into_iter().chain(ex::group_b()).chain(ex::group_c()).collect();
    let mut jobs = Vec::new();
    for info in st_workloads::all() {
        let base = JobSpec::new(info.spec, INSTRUCTIONS);
        jobs.extend(experiments.iter().map(|e| base.clone().with_experiment(e.clone())));
        jobs.push(base);
    }
    jobs
}

pub fn run(args: &Args, scratch: &Path, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut e2e, mut layer) = (Values::new(), Values::new());

    // The workload's time and CPU are summed over its own phases (the
    // set-up, then each figure), leaving out the extra set-up samples.
    let results = scratch.join("results");
    let cpu0 = host::cpu_seconds()?;
    let ((engine, jobs), setup_s) = tracer.span("setup", None, None, |_| set_up(&results));
    let mut cpu_s = host::cpu_seconds()? - cpu0;
    let mut ctx = FigureCtx::from_env(&engine);
    ctx.instructions = INSTRUCTIONS;
    ctx.out_dir = results.clone();
    let mut setups = vec![setup_s];
    let (mut work_s, mut work_cpu_s) = (0.0, 0.0);
    for (name, figure) in ALL_FIGURES {
        let cpu0 = host::cpu_seconds()?;
        work_s += tracer.span(name, None, None, |_| figure(&ctx)).1;
        work_cpu_s += host::cpu_seconds()? - cpu0;
        for _ in 0..SETUPS_PER_FIGURE {
            let dir = scratch.join(format!("setup-{}", setups.len()));
            let ((extra, _), secs) = tracer.span("setup", None, None, |_| set_up(&dir));
            drop(extra);
            setups.push(secs);
        }
    }
    let total_s = setup_s + work_s;
    cpu_s += work_cpu_s;
    let rss = host::peak_rss_mib(None)?;

    let stats = engine.stats();
    let delivered = stats.cache.hits + stats.cache.misses;
    e2e.insert("total_s", total_s);
    e2e.insert("setup_s", median(&setups).expect("set-ups ran"));
    e2e.insert("points_per_s", delivered as f64 / total_s);
    e2e.insert("cpu_s", cpu_s);
    e2e.insert("peak_rss_mib", rss);

    // The panels' reports, served by the same engine: every one must be
    // a cache hit, or the figures did not run the grid they claim.
    let reports = engine.run(&jobs);
    out.check(engine.stats().simulated == stats.simulated, || {
        "panel points were not in the figures' grid".to_string()
    });
    let points: Vec<Point> = jobs.into_iter().zip(reports).collect();
    sim::check_invariants(&points, &mut out);
    sim::simulated_metrics(&points, &mut e2e, &mut layer);
    e2e.insert("calib_gap_pp", sim::profile_calib_gap_pp(THREADS));

    let n = if tracer.enabled() { SOLO_TIMED } else { SOLO_CHECKED };
    let sample = sim::pick_sample(&points, n, args.seed);
    tracer.span("solo", None, None, |id| {
        sim::solo_check(&sample, THREADS, tracer, id, &mut out, &mut layer);
    });

    layer.insert("engine.run_s", work_s);
    layer.insert("engine.idle_frac", 1.0 - work_cpu_s / (THREADS as f64 * work_s));
    layer.insert("engine.simulated", stats.simulated as f64);
    layer.insert("engine.cache_hits", stats.cache.hits as f64);
    layer.insert("store.hit_rate", stats.cache.hits as f64 / delivered.max(1) as f64);
    crate::fingerprint_metrics(points.iter().map(|(job, _)| job), tracer, &mut layer);
    crate::store_metrics(std::slice::from_ref(&results), tracer, &mut layer);
    out.end_to_end = e2e;
    out.per_layer = layer;
    Ok(out)
}
