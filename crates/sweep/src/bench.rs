//! `st bench` — steady-state microbenchmarks of the simulator core.
//!
//! Where the repository benchmark (`perfbench`) times whole commands end
//! to end, this module measures the hot loop itself: each point builds
//! one core, runs a warm-up budget to fill the caches/predictors, then
//! times a measurement budget and reports **simulated instructions per
//! second** at steady state.
//!
//! The suite doubles as a determinism gate: one probe point is simulated
//! twice from scratch and round-tripped through the result store; any
//! bit drift between the fresh runs or across the disk round-trip fails
//! the bench (`st bench` exits non-zero), which is what the CI step
//! relies on.

use std::time::Instant;

use st_core::Simulator;

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
    /// Why the determinism probe failed (a fresh rerun or the
    /// result-store round-trip was not bit-identical); `None` when it
    /// passed.
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
                seconds,
                instr_per_sec,
                cycles_per_sec: cycles as f64 / seconds,
                ipc: result.perf.ipc(),
            });
        }
    }
    let geomean_instr_per_sec =
        if points.is_empty() { 0.0 } else { (log_sum / points.len() as f64).exp() };
    Ok(BenchResult {
        points,
        total_seconds,
        geomean_instr_per_sec,
        determinism_error: determinism_probe(config.determinism_budget).err(),
    })
}

/// Result of one `st bench --store` invocation: how fast the segment
/// log absorbs a bulk append, how fast a cold reopen (the one
/// sequential index pass `st repro` startup performs) takes, and how
/// fast every entry then reads back through [`LogStore::load`].
#[derive(Debug, Clone, PartialEq)]
pub struct StoreBenchResult {
    /// Synthetic entries written and read back.
    pub entries: u64,
    /// On-disk bytes after the bulk append.
    pub file_bytes: u64,
    /// Segment files after the bulk append.
    pub segments: u64,
    /// Seconds spent appending every entry.
    pub write_seconds: f64,
    /// Seconds for the cold reopen, which builds the index only.
    pub open_seconds: f64,
    /// Seconds spent reading every entry back, one [`LogStore::load`]
    /// each.
    pub read_seconds: f64,
}

/// Times the segment-log result store: appends `entries` synthetic
/// reports (one real simulation, then per-entry field perturbation so
/// every payload is distinct), drops the store, cold-reopens it with
/// [`LogStore::open`], and reads every entry back with
/// [`LogStore::load`].
///
/// # Errors
///
/// Returns an error if the scratch directory cannot be prepared, an
/// append fails, or an entry reads back other than it was written.
pub fn run_store_bench(entries: u64) -> Result<StoreBenchResult, String> {
    let spec = st_workloads::by_name("go").ok_or("store-bench workload `go` missing")?;
    let mut report = JobSpec::new(spec, 400).run();
    // Entry `fp` perturbs one field by `fp`: payloads stay realistic in
    // size and shape but are pairwise distinct, so reading them back
    // cannot shortcut on identical bytes.
    let cycles = report.perf.cycles;
    let dir = std::env::temp_dir().join(format!("st-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = (|| {
        let store = LogStore::open(&dir);
        let write_start = Instant::now();
        for fp in 1..=entries {
            report.perf.cycles = cycles.wrapping_add(fp);
            store.store(fp, &report).map_err(|e| format!("append {fp} failed: {e}"))?;
        }
        let write_seconds = write_start.elapsed().as_secs_f64().max(1e-9);
        let stats = store.stats();
        drop(store);
        let open_start = Instant::now();
        let reopened = LogStore::open(&dir);
        let open_seconds = open_start.elapsed().as_secs_f64().max(1e-9);
        let found = reopened.stats().entries;
        if found != entries {
            return Err(format!("cold open found {found} of {entries} entries"));
        }
        let read_start = Instant::now();
        for fp in 1..=entries {
            report.perf.cycles = cycles.wrapping_add(fp);
            if reopened.load(fp).as_ref() != Some(&report) {
                return Err(format!("entry {fp} read back other than it was written"));
            }
        }
        let read_seconds = read_start.elapsed().as_secs_f64().max(1e-9);
        Ok(StoreBenchResult {
            entries,
            file_bytes: stats.file_bytes,
            segments: stats.segments,
            write_seconds,
            open_seconds,
            read_seconds,
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
    let loaded = LogStore::open(&dir).load(fp);
    // Clean up on every path, not just success, so a failing probe does
    // not leave a stale directory a later same-PID run could read.
    let _ = std::fs::remove_dir_all(&dir);
    stored.map_err(|e| format!("cannot write probe store entry: {e}"))?;
    match loaded {
        Some(r) if r == fresh => Ok(()),
        Some(_) => Err("result-store round-trip altered the report".to_string()),
        None => Err("probe store entry unreadable after store".to_string()),
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
        assert_eq!(r.determinism_error, None, "determinism probe");
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
    fn store_bench_round_trips_a_small_population() {
        let r = run_store_bench(50).expect("store bench runs");
        assert_eq!(r.entries, 50);
        assert!(r.file_bytes > 0);
        assert!(r.segments > 0);
        assert!(r.write_seconds > 0.0);
        assert!(r.open_seconds > 0.0);
        assert!(r.read_seconds > 0.0);
    }
}
