//! Simulated metrics, report invariants and the solo re-run check.
//!
//! The simulator is deterministic, so every number computed here from
//! reports repeats exactly between runs of one commit (for one seed).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use st_core::{average_comparison, compare, Comparison, SimReport, Simulator};
use st_sweep::{EstimatorChoice, JobSpec};

use crate::metrics::{Outcome, Values};
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;

/// One delivered point: the job and the report the program returned.
pub type Point = (JobSpec, Arc<SimReport>);

/// Checks the invariants every report must keep: the budget was
/// committed, per-unit energy sums to the total, and no statistic is
/// NaN or infinite.
pub fn invariants(job: &JobSpec, r: &SimReport) -> Result<(), String> {
    let who = || format!("{}/{} at {}", r.workload, r.experiment, job.instructions);
    if r.perf.committed < job.instructions {
        return Err(format!("{}: committed {} < budget", who(), r.perf.committed));
    }
    let sum: f64 = r.energy.per_unit.iter().sum();
    if (sum - r.energy.energy).abs() > 1e-9 * r.energy.energy.abs().max(1e-30) {
        return Err(format!("{}: per-unit energy {sum} != total {}", who(), r.energy.energy));
    }
    let stats = [
        r.ipc(),
        r.energy.energy,
        r.energy.avg_power(),
        r.energy.wasted_frac(),
        r.bpred.miss_rate(),
        r.conf.spec(),
        r.conf.pvn(),
        r.mem.l1i_miss_rate,
        r.mem.l1d_miss_rate,
        r.mem.l2_miss_rate,
        r.mem.tlb_miss_rate,
    ];
    if stats.iter().any(|v| !v.is_finite())
        || r.energy.wasted_per_unit.iter().any(|v| !v.is_finite())
    {
        return Err(format!("{}: non-finite statistic", who()));
    }
    Ok(())
}

/// Checks every point's invariants into `out`.
pub fn check_invariants(points: &[Point], out: &mut Outcome) {
    for (job, report) in points {
        let verdict = invariants(job, report);
        out.check(verdict.is_ok(), || verdict.unwrap_err());
    }
}

/// Each point's comparison against the baseline point of the same
/// configuration (same job with the BASE experiment), by experiment id.
fn comparisons(points: &[Point]) -> BTreeMap<String, Vec<Comparison>> {
    let by_fp: HashMap<u64, &Arc<SimReport>> =
        points.iter().map(|(job, r)| (job.fingerprint(), r)).collect();
    let mut out: BTreeMap<String, Vec<Comparison>> = BTreeMap::new();
    for (job, report) in points {
        if report.experiment == "BASE" {
            continue;
        }
        let base_fp = job.clone().with_experiment(st_core::experiments::baseline()).fingerprint();
        if let Some(base) = by_fp.get(&base_fp) {
            out.entry(report.experiment.clone()).or_default().push(compare(base, report));
        }
    }
    out
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values.into_iter().fold((0.0, 0u64), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The simulated end-to-end metrics (except `calib_gap_pp`) and the
/// modelled per-layer metrics of the delivered points.
///
/// * `sim_ipc`: geometric-mean IPC of the BASE points;
/// * `c2_*`: mean C2-vs-BASE comparison over C2 points;
/// * `paper_gap_pp`: mean |measured − published| average energy savings
///   over the experiments of `figures::paper_averages()` the run holds;
/// * predictor, pipeline-throttling and power statistics: means over the
///   BASE points, except confidence quality and gating, which are
///   measured where they act, on the C2 points.
pub fn simulated_metrics(points: &[Point], e2e: &mut Values, layer: &mut Values) {
    let base: Vec<&SimReport> =
        points.iter().map(|(_, r)| r.as_ref()).filter(|r| r.experiment == "BASE").collect();
    let c2: Vec<&SimReport> =
        points.iter().map(|(_, r)| r.as_ref()).filter(|r| r.experiment == "C2").collect();
    let cmps = comparisons(points);
    let c2_avg = average_comparison(cmps.get("C2").map_or(&[][..], Vec::as_slice));
    let paper = st_sweep::figures::paper_averages();
    let gaps = cmps.iter().filter_map(|(id, list)| {
        let p = paper.get(id.as_str())?;
        Some((average_comparison(list).energy_savings_pct - p.energy).abs())
    });

    e2e.insert("sim_ipc", mean(base.iter().map(|r| r.ipc().ln())).exp());
    e2e.insert("c2_energy_savings_pct", c2_avg.energy_savings_pct);
    e2e.insert("c2_ed_improvement_pct", c2_avg.ed_improvement_pct);
    e2e.insert("paper_gap_pp", mean(gaps));

    let frac = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    layer.insert("bpred.mispredict_rate", mean(base.iter().map(|r| r.bpred.miss_rate())));
    layer.insert("bpred.conf_spec", mean(c2.iter().map(|r| r.conf.spec())));
    layer.insert("bpred.conf_pvn", mean(c2.iter().map(|r| r.conf.pvn())));
    layer.insert(
        "pipeline.wrong_path_fetch_frac",
        mean(base.iter().map(|r| r.perf.wrong_path_fetch_frac())),
    );
    layer.insert(
        "pipeline.fetch_gated_frac",
        mean(c2.iter().map(|r| frac(r.perf.fetch_gated_cycles, r.perf.cycles))),
    );
    layer.insert(
        "pipeline.decode_gated_frac",
        mean(c2.iter().map(|r| frac(r.perf.decode_gated_cycles, r.perf.cycles))),
    );
    layer.insert(
        "pipeline.selection_blocked_per_kinstr",
        mean(c2.iter().map(|r| 1000.0 * frac(r.perf.selection_blocked, r.perf.committed))),
    );
    layer.insert("mem.l1i_miss_rate", mean(base.iter().map(|r| r.mem.l1i_miss_rate)));
    layer.insert("mem.l1d_miss_rate", mean(base.iter().map(|r| r.mem.l1d_miss_rate)));
    layer.insert("mem.l2_miss_rate", mean(base.iter().map(|r| r.mem.l2_miss_rate)));
    layer.insert("power.wasted_frac", mean(base.iter().map(|r| r.energy.wasted_frac())));
    layer.insert("power.avg_w", mean(base.iter().map(|r| r.energy.avg_power())));
}

/// Mean |measured − paper| gshare-8KB miss rate of the fixed profiles,
/// in percentage points, measured as `st repro`'s Table 2 measures it.
pub fn profile_calib_gap_pp(threads: usize) -> f64 {
    let infos = st_workloads::all();
    let next = AtomicUsize::new(0);
    let gaps = Mutex::new(vec![0.0; infos.len()]);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(info) = infos.get(i) else { break };
                let measured =
                    st_workloads::measure_gshare_miss_rate_warm(&info.spec, 400_000, 800_000, 8192);
                gaps.lock().expect("gap list poisoned")[i] =
                    100.0 * (measured - info.paper_miss_rate).abs();
            });
        }
    });
    // Summed in profile order, so the result repeats to the last bit.
    mean(gaps.into_inner().expect("gap list poisoned"))
}

/// Re-runs `sample` outside the engine and requires every report to
/// equal the engine's. Untraced, each point runs through
/// `JobSpec::run`. Traced, the benchmark calls the layers one by one
/// (program generation, simulator build, cycle loop) inside spans, and
/// the per-layer `isa.*` and `core.*` metrics come from those spans.
pub fn solo_check(
    sample: &[Point],
    threads: usize,
    tracer: &Tracer,
    parent: Option<u64>,
    out: &mut Outcome,
    layer: &mut Values,
) {
    let next = AtomicUsize::new(0);
    let verdicts = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while let Some((job, engine_report)) =
                    sample.get(next.fetch_add(1, Ordering::Relaxed))
                {
                    let solo = if tracer.enabled() && job.estimator == EstimatorChoice::Experiment {
                        layered_run(job, tracer, parent)
                    } else {
                        job.run()
                    };
                    let same = solo == **engine_report;
                    let what =
                        format!("{}/{} at {}", solo.workload, solo.experiment, job.instructions);
                    verdicts.lock().expect("verdicts poisoned").push((same, what));
                }
            });
        }
    });
    for (same, what) in verdicts.into_inner().expect("verdicts poisoned") {
        out.check(same, || format!("{what}: engine report differs from a solo run"));
    }

    let ms = |name| -> Vec<f64> { tracer.durations(name).iter().map(|s| s * 1e3).collect() };
    let (generate, build, run) = (ms("isa.generate"), ms("core.build"), ms("core.run"));
    let run_secs: f64 = run.iter().sum::<f64>() / 1e3;
    // Only the points run layer by layer have `core.run` spans.
    let (instr, cycles) = sample
        .iter()
        .filter(|(job, _)| job.estimator == EstimatorChoice::Experiment)
        .fold((0u64, 0u64), |(i, c), (_, r)| (i + r.perf.committed, c + r.perf.cycles));
    let per_s = |n: u64| if run_secs > 0.0 { n as f64 / run_secs / 1e6 } else { 0.0 };
    layer.insert("isa.generate_ms_p50", median(&generate).unwrap_or(0.0));
    layer.insert("isa.generate_ms_p90", tail_percentile(&generate, 0.9).unwrap_or(0.0));
    layer.insert("isa.programs", generate.len() as f64);
    layer.insert("core.build_ms_p50", median(&build).unwrap_or(0.0));
    layer.insert("core.run_ms_p50", median(&run).unwrap_or(0.0));
    layer.insert("core.run_ms_p90", tail_percentile(&run, 0.9).unwrap_or(0.0));
    layer.insert("core.samples", run.len() as f64);
    layer.insert("core.minstr_per_s", if run.is_empty() { 0.0 } else { per_s(instr) });
    layer.insert("core.mcycles_per_s", if run.is_empty() { 0.0 } else { per_s(cycles) });
}

/// `JobSpec::run` for an experiment-chosen estimator, one layer at a
/// time, each inside its own span.
fn layered_run(job: &JobSpec, tracer: &Tracer, parent: Option<u64>) -> SimReport {
    let (program, _) = tracer.span("isa.generate", parent, None, |_| job.workload.generate());
    let (sim, _) = tracer.span("core.build", parent, None, |_| {
        Simulator::builder()
            .program(program)
            .config(job.config.clone())
            .power(job.power.clone())
            .experiment(job.experiment.clone())
            .max_instructions(job.instructions)
            .build()
    });
    tracer.span("core.run", parent, None, |_| sim.run()).0
}

/// Every `stride`-th point from a seed-chosen offset, at most `n`.
pub fn pick_sample(points: &[Point], n: usize, seed: u64) -> Vec<Point> {
    if points.is_empty() || n == 0 {
        return Vec::new();
    }
    let stride = (points.len() / n).max(1);
    let offset = (crate::mix64(seed) % stride as u64) as usize;
    points.iter().skip(offset).step_by(stride).take(n).cloned().collect()
}
