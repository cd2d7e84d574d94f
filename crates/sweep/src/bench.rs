//! `st bench` — steady-state microbenchmarks of the simulator core.
//!
//! Where `BENCH_sweep.json`'s repro section records wall-clock per
//! *figure* (dominated by the sweep engine's batching and caching), this
//! module measures the hot loop itself: each point builds one core, runs
//! a warm-up budget to fill the caches/predictors, then times a
//! measurement budget and reports **simulated instructions per second**
//! at steady state. That is the number the flat-array/bitset core work
//! optimises, and the one CI tracks across commits.
//!
//! The suite doubles as a determinism gate: one probe point is simulated
//! twice from scratch and round-tripped through the result store; any
//! bit drift between the fresh runs or across the disk round-trip fails
//! the bench (`st bench` exits non-zero), which is what the CI step
//! relies on.

use std::sync::Arc;
use std::time::Instant;

use st_core::{Experiment, SimReport, Simulator};

use crate::job::JobSpec;
use crate::logstore::LogStore;
use crate::spec::experiment_by_id;

/// One measured (workload × experiment) point.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// Workload name.
    pub workload: String,
    /// Experiment id.
    pub experiment: String,
    /// Instructions in the measured (post-warm-up) segment.
    pub instructions: u64,
    /// Wall-clock seconds for the measured segment.
    pub seconds: f64,
    /// Steady-state simulated instructions per second.
    pub instr_per_sec: f64,
    /// Simulated cycles per second over the measured segment.
    pub cycles_per_sec: f64,
    /// Committed IPC of the whole run so far (sanity anchor).
    pub ipc: f64,
}

/// Result of one bench invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Per-point measurements, in configuration order.
    pub points: Vec<BenchPoint>,
    /// Total wall-clock spent measuring (excludes warm-up).
    pub total_seconds: f64,
    /// Geometric mean of `instr_per_sec` across points.
    pub geomean_instr_per_sec: f64,
    /// Whether the determinism probe passed (fresh rerun and result-store
    /// round-trip both bit-identical).
    pub deterministic: bool,
    /// Human-readable determinism failure, when `!deterministic`.
    pub determinism_error: Option<String>,
}

/// Bench configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchConfig {
    /// Workload names to measure.
    pub workloads: Vec<String>,
    /// Experiment ids to measure.
    pub experiments: Vec<String>,
    /// Warm-up instructions per point (excluded from timing).
    pub warmup: u64,
    /// Measured instructions per point.
    pub measure: u64,
    /// Budget of the determinism probe point.
    pub determinism_budget: u64,
}

impl BenchConfig {
    /// The full suite: every paper workload through the baseline, the
    /// headline selective-throttling configuration (C2) and Pipeline
    /// Gating (A7).
    #[must_use]
    pub fn full() -> BenchConfig {
        BenchConfig {
            workloads: st_workloads::all().into_iter().map(|i| i.spec.name).collect(),
            experiments: vec!["BASE".into(), "C2".into(), "A7".into()],
            warmup: 20_000,
            measure: 200_000,
            determinism_budget: 5_000,
        }
    }

    /// The CI smoke suite: two workloads, two experiments, small budgets.
    #[must_use]
    pub fn smoke() -> BenchConfig {
        BenchConfig {
            workloads: vec!["go".into(), "gcc".into()],
            experiments: vec!["BASE".into(), "C2".into()],
            warmup: 2_000,
            measure: 20_000,
            determinism_budget: 2_000,
        }
    }

    /// Overrides the measured budget (warm-up scales to 10%).
    #[must_use]
    pub fn with_measure(mut self, instructions: u64) -> BenchConfig {
        self.measure = instructions.max(1);
        self.warmup = (instructions / 10).max(1);
        self
    }
}

/// Runs the bench suite.
///
/// # Errors
///
/// Returns an error for unknown workload/experiment names. A failed
/// determinism probe is *not* an `Err` — it is reported in the result so
/// the caller can both print measurements and exit non-zero.
pub fn run(config: &BenchConfig) -> Result<BenchResult, String> {
    let mut points = Vec::new();
    let mut total_seconds = 0.0;
    let mut log_sum = 0.0;
    for workload in &config.workloads {
        let spec = st_workloads::by_name(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?;
        for experiment in &config.experiments {
            let exp = experiment_by_id(experiment)
                .ok_or_else(|| format!("unknown experiment `{experiment}`"))?;
            let mut sim = Simulator::builder()
                .workload(spec.clone())
                .experiment(exp)
                .max_instructions(config.warmup)
                .build();
            // Warm up: caches, predictor tables and window occupancy reach
            // steady state before the clock starts.
            let _ = sim.run_for(config.warmup);
            let cycles_before = sim.cycles();
            let start = Instant::now();
            let result = sim.run_for(config.measure);
            let seconds = start.elapsed().as_secs_f64().max(1e-9);
            let cycles = result.perf.cycles - cycles_before;
            let instr_per_sec = config.measure as f64 / seconds;
            total_seconds += seconds;
            log_sum += instr_per_sec.ln();
            points.push(BenchPoint {
                workload: workload.clone(),
                experiment: experiment.clone(),
                instructions: config.measure,
                seconds,
                instr_per_sec,
                cycles_per_sec: cycles as f64 / seconds,
                ipc: result.perf.ipc(),
            });
        }
    }
    let geomean_instr_per_sec =
        if points.is_empty() { 0.0 } else { (log_sum / points.len() as f64).exp() };
    let determinism_error = determinism_probe(config.determinism_budget).err();
    Ok(BenchResult {
        points,
        total_seconds,
        geomean_instr_per_sec,
        deterministic: determinism_error.is_none(),
        determinism_error,
    })
}

/// Configuration of the lane bench (`st bench --lanes N`).
#[derive(Debug, Clone, PartialEq)]
pub struct LaneBenchConfig {
    /// Workload names; each contributes one lane group.
    pub workloads: Vec<String>,
    /// Experiment ids assigned to lanes round-robin.
    pub experiments: Vec<String>,
    /// Lane width: points per workload, stepped in lockstep.
    pub lanes: usize,
    /// Instruction budget per point. Lane batching pays off most on
    /// short points, where per-point setup (program generation, core
    /// construction) rivals simulation time — exactly the dense-grid
    /// regime ad-hoc `st run` sweeps live in — so this is deliberately
    /// smaller than the hot-loop bench's steady-state budget.
    pub instructions: u64,
}

impl LaneBenchConfig {
    /// The full suite: every paper workload, lanes cycling through
    /// BASE/C2/A7/OF (the golden-test experiment set).
    #[must_use]
    pub fn full(lanes: usize) -> LaneBenchConfig {
        LaneBenchConfig {
            workloads: st_workloads::all().into_iter().map(|i| i.spec.name).collect(),
            experiments: vec!["BASE".into(), "C2".into(), "A7".into(), "OF".into()],
            lanes: lanes.max(1),
            instructions: 3_000,
        }
    }

    /// The CI smoke suite: two workloads, small budgets.
    #[must_use]
    pub fn smoke(lanes: usize) -> LaneBenchConfig {
        LaneBenchConfig {
            workloads: vec!["go".into(), "gcc".into()],
            instructions: 2_000,
            ..LaneBenchConfig::full(lanes)
        }
    }
}

/// One workload's lane-vs-solo measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneBenchPoint {
    /// Workload name.
    pub workload: String,
    /// Sweep points in the group (= lane width).
    pub points: u64,
    /// Seconds to run every point solo (generate + build + run each).
    pub solo_seconds: f64,
    /// Seconds to run the same points as one lane group (generate once,
    /// build each, lockstep run).
    pub lane_seconds: f64,
    /// End-to-end simulated instructions per second, solo.
    pub solo_instr_per_sec: f64,
    /// End-to-end simulated instructions per second, lanes.
    pub lane_instr_per_sec: f64,
    /// `lane_instr_per_sec / solo_instr_per_sec`.
    pub speedup: f64,
}

/// Result of one lane bench: per-workload points plus geomeans, and the
/// outcome of the built-in determinism gate (lane reports byte-compared
/// against the solo reports of the same grid).
#[derive(Debug, Clone, PartialEq)]
pub struct LaneBenchResult {
    /// Lane width measured.
    pub lanes: u64,
    /// Instruction budget per point.
    pub instructions: u64,
    /// Per-workload measurements, in configuration order.
    pub points: Vec<LaneBenchPoint>,
    /// Total wall-clock seconds across both timed passes.
    pub total_seconds: f64,
    /// Geomean solo instructions/sec across workloads.
    pub geomean_solo_instr_per_sec: f64,
    /// Geomean lane instructions/sec across workloads.
    pub geomean_lane_instr_per_sec: f64,
    /// `geomean_lane / geomean_solo` — the headline lane payoff.
    pub speedup: f64,
    /// Whether every lane report was bit-identical to its solo twin.
    pub identical: bool,
    /// Human-readable mismatch description, when `!identical`.
    pub mismatch: Option<String>,
}

/// Runs the lane bench: for each workload, simulates `lanes` points
/// (experiments round-robin) first solo — generate + build + run per
/// point, the `--lanes 1` schedule — then as one lockstep lane group
/// sharing a single generated program, and compares both wall-clock and
/// report bytes. The byte comparison doubles as the CI lane-determinism
/// gate: any divergence is reported in the result and `st bench` exits
/// non-zero.
///
/// # Errors
///
/// Returns an error for unknown workload/experiment names or an empty
/// experiment list. A report mismatch is *not* an `Err` — it is recorded
/// in the result so the caller can still print the measurements.
pub fn run_lane_bench(config: &LaneBenchConfig) -> Result<LaneBenchResult, String> {
    if config.experiments.is_empty() {
        return Err("lane bench needs at least one experiment".into());
    }
    let lanes = config.lanes.max(1);
    let mut points = Vec::new();
    let mut mismatch = None;
    let mut solo_log_sum = 0.0;
    let mut lane_log_sum = 0.0;
    let mut total_seconds = 0.0;
    for workload in &config.workloads {
        let spec = st_workloads::by_name(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?;
        let exps: Vec<Experiment> = (0..lanes)
            .map(|i| {
                let id = &config.experiments[i % config.experiments.len()];
                experiment_by_id(id).ok_or_else(|| format!("unknown experiment `{id}`"))
            })
            .collect::<Result<_, String>>()?;

        // Solo pass: the --lanes 1 schedule. Each point pays its own
        // program generation and core construction.
        let solo_start = Instant::now();
        let solo_reports: Vec<SimReport> = exps
            .iter()
            .map(|e| {
                Simulator::builder()
                    .workload(spec.clone())
                    .experiment(e.clone())
                    .max_instructions(config.instructions)
                    .build()
                    .run()
            })
            .collect();
        let solo_seconds = solo_start.elapsed().as_secs_f64().max(1e-9);

        // Lane pass: one generation, shared image, lockstep stepping.
        let lane_start = Instant::now();
        let program = Arc::new(spec.generate());
        let sims: Vec<Simulator> = exps
            .iter()
            .map(|e| {
                Simulator::builder()
                    .program_shared(Arc::clone(&program))
                    .experiment(e.clone())
                    .max_instructions(config.instructions)
                    .build()
            })
            .collect();
        let lane_reports = Simulator::run_lanes(sims);
        let lane_seconds = lane_start.elapsed().as_secs_f64().max(1e-9);

        if mismatch.is_none() && lane_reports != solo_reports {
            let lane = lane_reports
                .iter()
                .zip(&solo_reports)
                .position(|(l, s)| l != s)
                .unwrap_or_default();
            mismatch = Some(format!(
                "workload `{workload}`: lane {lane} ({}) diverged from its solo run",
                exps[lane].id
            ));
        }

        let simulated = lanes as f64 * config.instructions as f64;
        let solo_instr_per_sec = simulated / solo_seconds;
        let lane_instr_per_sec = simulated / lane_seconds;
        solo_log_sum += solo_instr_per_sec.ln();
        lane_log_sum += lane_instr_per_sec.ln();
        total_seconds += solo_seconds + lane_seconds;
        points.push(LaneBenchPoint {
            workload: workload.clone(),
            points: lanes as u64,
            solo_seconds,
            lane_seconds,
            solo_instr_per_sec,
            lane_instr_per_sec,
            speedup: lane_instr_per_sec / solo_instr_per_sec,
        });
    }
    let n = points.len().max(1) as f64;
    let geomean_solo_instr_per_sec = if points.is_empty() { 0.0 } else { (solo_log_sum / n).exp() };
    let geomean_lane_instr_per_sec = if points.is_empty() { 0.0 } else { (lane_log_sum / n).exp() };
    Ok(LaneBenchResult {
        lanes: lanes as u64,
        instructions: config.instructions,
        points,
        total_seconds,
        geomean_solo_instr_per_sec,
        geomean_lane_instr_per_sec,
        speedup: geomean_lane_instr_per_sec / geomean_solo_instr_per_sec.max(1e-9),
        identical: mismatch.is_none(),
        mismatch,
    })
}

/// Result of one `st bench --store` invocation: how fast the segment
/// log absorbs a bulk append and how fast a cold reopen (the one
/// sequential startup pass) decodes it back.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreBenchResult {
    /// Synthetic entries written and reloaded.
    pub entries: u64,
    /// On-disk bytes after the bulk append.
    pub file_bytes: u64,
    /// Segment files after the bulk append.
    pub segments: u64,
    /// Seconds spent appending every entry.
    pub write_seconds: f64,
    /// Seconds for the cold reopen-and-decode pass.
    pub load_seconds: f64,
}

/// Times the segment-log result store: appends `entries` synthetic
/// reports (one real simulation, then per-entry field perturbation so
/// every payload is distinct), drops the store, and cold-reopens it
/// with [`LogStore::open_loading`] — the same single sequential pass
/// `st repro` startup performs.
///
/// # Errors
///
/// Returns an error if the scratch directory cannot be prepared, an
/// append fails, or the reload disagrees with what was written.
pub fn run_store_bench(entries: u64) -> Result<StoreBenchResult, String> {
    let spec = st_workloads::by_name("go").ok_or("store-bench workload `go` missing")?;
    let mut report = JobSpec::new(spec, 400).run();
    let dir = std::env::temp_dir().join(format!("st-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = (|| {
        let store = LogStore::open(&dir);
        let write_start = Instant::now();
        for i in 0..entries {
            // Perturb one field per entry: payloads stay realistic in
            // size and shape but are pairwise distinct, so the load
            // pass cannot shortcut on identical bytes.
            report.perf.cycles = report.perf.cycles.wrapping_add(1);
            store.store(i + 1, &report).map_err(|e| format!("append {i} failed: {e}"))?;
        }
        let write_seconds = write_start.elapsed().as_secs_f64().max(1e-9);
        let stats = store.stats();
        drop(store);
        let load_start = Instant::now();
        let (reloaded, loaded) = LogStore::open_loading(&dir);
        let load_seconds = load_start.elapsed().as_secs_f64().max(1e-9);
        drop(reloaded);
        if loaded.len() as u64 != entries {
            return Err(format!("cold load found {} of {entries} entries", loaded.len()));
        }
        Ok(StoreBenchResult {
            entries,
            file_bytes: stats.file_bytes,
            segments: stats.segments,
            write_seconds,
            load_seconds,
        })
    })();
    // Clean up on every path so a failed run cannot poison a later
    // same-PID invocation.
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// Simulates one probe point twice from scratch and round-trips it
/// through the result store (store, drop, cold reopen); any bit drift
/// is an error.
fn determinism_probe(budget: u64) -> Result<(), String> {
    let spec = st_workloads::by_name("go").ok_or("probe workload `go` missing")?;
    let job = JobSpec::new(spec, budget)
        .with_experiment(experiment_by_id("C2").ok_or("probe experiment `C2` missing")?);
    let fresh = job.run();
    let rerun = job.run();
    if fresh != rerun {
        return Err("fresh rerun diverged from first simulation".to_string());
    }
    let dir = std::env::temp_dir().join(format!("st-bench-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fp = job.fingerprint();
    let stored = LogStore::open(&dir).store(fp, &fresh);
    let (_, loaded) = LogStore::open_loading(&dir);
    // Clean up on every path, not just success, so a failing probe does
    // not leave a stale directory a later same-PID run could read.
    let _ = std::fs::remove_dir_all(&dir);
    stored.map_err(|e| format!("cannot write probe store entry: {e}"))?;
    match loaded.as_slice() {
        [(f, r)] if *f == fp && *r == fresh => Ok(()),
        [(f, _)] if *f == fp => Err("result-store round-trip altered the report".to_string()),
        _ => Err("probe store entry unreadable after store".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_measures_and_probes() {
        let mut cfg = BenchConfig::smoke();
        cfg.workloads.truncate(1);
        cfg.experiments.truncate(1);
        cfg = cfg.with_measure(2_000);
        let r = run(&cfg).expect("bench runs");
        assert_eq!(r.points.len(), 1);
        let p = &r.points[0];
        assert_eq!(p.workload, "go");
        assert!(p.instr_per_sec > 0.0);
        assert!(p.cycles_per_sec > 0.0);
        assert!(p.ipc > 0.0);
        assert!(r.geomean_instr_per_sec > 0.0);
        assert!(r.deterministic, "determinism probe: {:?}", r.determinism_error);
    }

    #[test]
    fn unknown_names_are_reported() {
        let mut cfg = BenchConfig::smoke().with_measure(100);
        cfg.workloads = vec!["nope".into()];
        assert!(run(&cfg).unwrap_err().contains("nope"));
        let mut cfg = BenchConfig::smoke().with_measure(100);
        cfg.experiments = vec!["ZZ".into()];
        assert!(run(&cfg).unwrap_err().contains("ZZ"));
    }

    #[test]
    fn with_measure_scales_warmup() {
        let cfg = BenchConfig::full().with_measure(50_000);
        assert_eq!(cfg.measure, 50_000);
        assert_eq!(cfg.warmup, 5_000);
    }

    #[test]
    fn lane_bench_measures_and_stays_identical() {
        let mut cfg = LaneBenchConfig::smoke(4);
        cfg.workloads.truncate(1);
        cfg.instructions = 1_000;
        let r = run_lane_bench(&cfg).expect("lane bench runs");
        assert_eq!(r.lanes, 4);
        assert_eq!(r.points.len(), 1);
        let p = &r.points[0];
        assert_eq!(p.workload, "go");
        assert_eq!(p.points, 4);
        assert!(p.solo_instr_per_sec > 0.0);
        assert!(p.lane_instr_per_sec > 0.0);
        assert!(r.geomean_lane_instr_per_sec > 0.0);
        assert!(r.speedup > 0.0);
        assert!(r.identical, "lane determinism gate: {:?}", r.mismatch);
    }

    #[test]
    fn lane_bench_rejects_unknown_names() {
        let mut cfg = LaneBenchConfig::smoke(2);
        cfg.workloads = vec!["nope".into()];
        assert!(run_lane_bench(&cfg).unwrap_err().contains("nope"));
        let mut cfg = LaneBenchConfig::smoke(2);
        cfg.experiments = vec!["ZZ".into()];
        assert!(run_lane_bench(&cfg).unwrap_err().contains("ZZ"));
        cfg.experiments.clear();
        assert!(run_lane_bench(&cfg).unwrap_err().contains("at least one experiment"));
    }

    #[test]
    fn store_bench_round_trips_a_small_population() {
        let r = run_store_bench(50).expect("store bench runs");
        assert_eq!(r.entries, 50);
        assert!(r.file_bytes > 0);
        assert!(r.segments > 0);
        assert!(r.write_seconds > 0.0);
        assert!(r.load_seconds > 0.0);
    }
}
