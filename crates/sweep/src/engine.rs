//! The deterministic parallel executor.
//!
//! [`SweepEngine::run`] takes a batch of [`JobSpec`]s and returns their
//! reports *in submission order*. Internally it:
//!
//! 1. fingerprints every job and answers what it can from the
//!    [`ResultCache`];
//! 2. dedups identical points submitted in the same batch;
//! 3. shards the remaining unique points across a worker pool (a shared
//!    atomic work index over a fixed job list — no channels, no locks on
//!    the hot path). The list is ordered by workload, and each worker
//!    keeps the last program it generated and reuses it while the next
//!    point's workload compares equal, so a batch generates each
//!    workload's program about once per worker rather than once per
//!    point. A worker writes each report to the cache and the result
//!    store as soon as it finishes it, so a process killed mid-batch
//!    keeps every point it completed;
//! 4. reassembles results by submission index.
//!
//! Every simulation is a pure function of its [`JobSpec`] (the workload
//! seed fixes the program; the pipeline is cycle-deterministic), so the
//! thread count and OS scheduling cannot influence any result bit —
//! `--threads 1` and `--threads N` produce identical output, which the
//! integration tests assert.

use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use st_core::SimReport;
use st_isa::{Program, WorkloadSpec};

use crate::cache::{CacheStats, ResultCache};
use crate::job::{fnv1a64, JobSpec};
use crate::logstore::{LoadStats, LogStore};

/// Aggregate execution counters of an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Simulations actually executed (cache misses).
    pub simulated: u64,
    /// Entries preloaded from the on-disk result store.
    pub loaded: u64,
    /// Cache counters (hits include batch-level dedup).
    pub cache: CacheStats,
}

/// A parallel, cache-aware sweep executor.
#[derive(Debug)]
pub struct SweepEngine {
    threads: usize,
    cache: ResultCache,
    simulated: AtomicU64,
    loaded: u64,
    load_stats: LoadStats,
    store: Option<LogStore>,
}

impl SweepEngine {
    /// An engine with an explicit worker count (`0` = auto-detect the
    /// available hardware parallelism).
    #[must_use]
    pub fn new(threads: usize) -> SweepEngine {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(4)
        } else {
            threads
        };
        SweepEngine {
            threads,
            cache: ResultCache::new(),
            simulated: AtomicU64::new(0),
            loaded: 0,
            load_stats: LoadStats::default(),
            store: None,
        }
    }

    /// Does nothing and returns the engine unchanged. It remains only so
    /// the benchmark package (`perfbench`), which still calls it, keeps
    /// compiling; it goes once those calls do.
    #[doc(hidden)]
    #[must_use]
    pub fn with_lanes(self, _: usize) -> SweepEngine {
        self
    }

    /// An engine sized to the available hardware parallelism.
    #[must_use]
    pub fn auto() -> SweepEngine {
        SweepEngine::new(0)
    }

    /// An engine backed by the result store under `out_dir` (the
    /// segment log at `<out>/.store/`, see [`LogStore::dir_under`]).
    /// Every live entry is preloaded in one sequential pass and every
    /// freshly simulated point is written through, so repeated
    /// invocations reuse points across processes.
    #[must_use]
    pub fn with_result_store(threads: usize, out_dir: impl AsRef<Path>) -> SweepEngine {
        let (store, entries) = LogStore::open_loading(LogStore::dir_under(out_dir.as_ref()));
        let mut engine = SweepEngine::new(threads);
        engine.loaded = engine.cache.preload(entries.into_iter().map(|(fp, r)| (fp, Arc::new(r))));
        engine.load_stats = store.load_stats();
        engine.store = Some(store);
        engine
    }

    /// The result store this engine writes through to, if any.
    #[must_use]
    pub fn result_store(&self) -> Option<&LogStore> {
        self.store.as_ref()
    }

    /// What the startup load of the result store found (corrupt entries
    /// skipped, torn tails truncated, …). All zeros without a store.
    #[must_use]
    pub fn load_stats(&self) -> LoadStats {
        self.load_stats
    }

    /// Worker-pool size.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execution counters so far.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            simulated: self.simulated.load(Ordering::Relaxed),
            loaded: self.loaded,
            cache: self.cache.stats(),
        }
    }

    /// Runs a batch of jobs, returning reports in submission order.
    ///
    /// Results are bit-identical regardless of the worker count: each job
    /// is a pure function of its spec, and assembly is by submission
    /// index, not completion order. Each freshly simulated report is
    /// written to the cache and through to the result store the moment
    /// its worker finishes it, so a run killed partway resumes from
    /// every point it completed.
    ///
    /// # Panics
    ///
    /// Panics if a simulation thread panics (a simulator bug, not a usage
    /// error).
    #[must_use]
    pub fn run(&self, jobs: &[JobSpec]) -> Vec<Arc<SimReport>> {
        // Phase 1: resolve against the cache and dedup within the batch.
        // `slots[i]` is either a finished report or an index into `fresh`.
        enum Slot {
            Done(Arc<SimReport>),
            Fresh(usize),
        }
        let mut fresh: Vec<(u64, &JobSpec)> = Vec::new();
        let mut fresh_index: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::new();
        let slots: Vec<Slot> = jobs
            .iter()
            .map(|job| {
                let fp = job.fingerprint();
                if let Some(hit) = match fresh_index.get(&fp) {
                    // A duplicate of a point already scheduled in this
                    // batch: count it as a hit, don't re-consult the map.
                    Some(&idx) => {
                        self.cache.count_dedup_hit();
                        return Slot::Fresh(idx);
                    }
                    None => self.cache.get(fp),
                } {
                    return Slot::Done(hit);
                }
                let idx = fresh.len();
                fresh.push((fp, job));
                fresh_index.insert(fp, idx);
                Slot::Fresh(idx)
            })
            .collect();

        // Phase 2: shard the unique misses across the worker pool. Workers
        // pull from one atomic index over the misses ordered by workload,
        // and each keeps the last program it generated, reusing it while
        // the next point's workload compares equal. A worker holds at most
        // one program, freed on the thread that built it, and publishes
        // each report as soon as it has it.
        let order = workload_order(&fresh);
        let results: Vec<OnceLock<Arc<SimReport>>> =
            (0..fresh.len()).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let work = || {
            let mut last: Option<(&WorkloadSpec, Arc<Program>)> = None;
            while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                let (fp, job) = fresh[i];
                if last.as_ref().is_none_or(|(workload, _)| **workload != job.workload) {
                    drop(last.take());
                    last = Some((&job.workload, Arc::new(generate(&job.workload))));
                }
                let program = Arc::clone(&last.as_ref().expect("generated above").1);
                let report = Arc::new(job.run_on(program));
                self.publish(fp, &report);
                results[i].set(report).expect("slot set once");
            }
        };
        let workers = self.threads.min(fresh.len());
        if workers <= 1 {
            work();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(work);
                }
            });
        }

        // Phase 3: assemble in submission order.
        let finished: Vec<Arc<SimReport>> = results
            .into_iter()
            .map(|cell| cell.into_inner().expect("worker filled every slot"))
            .collect();
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(r) => r,
                Slot::Fresh(i) => Arc::clone(&finished[i]),
            })
            .collect()
    }

    /// Counts one fresh simulation and writes its report to the cache
    /// and through to the result store, if any. A failed store write
    /// only warns: the report is still served from the cache.
    fn publish(&self, fp: u64, report: &Arc<SimReport>) {
        self.simulated.fetch_add(1, Ordering::Relaxed);
        self.cache.insert(fp, Arc::clone(report));
        if let Some(store) = &self.store {
            if let Err(e) = store.store(fp, report) {
                eprintln!(
                    "warning: could not persist {fp:016x} under {}: {e}",
                    store.dir().display()
                );
            }
        }
    }

    /// Runs a single job through the cache (and the result-store
    /// write-through, when configured).
    ///
    /// Convenience for streaming callers — the sweep service emits each
    /// point as it completes rather than batching a whole grid — with
    /// the same determinism and memoisation as [`SweepEngine::run`].
    /// All engine methods take `&self` and are safe to call from many
    /// threads at once (the service does); note that two *concurrent*
    /// `run_one` calls for the same not-yet-cached fingerprint will both
    /// simulate it — callers that overlap requests de-duplicate in
    /// flight (see
    /// [`SweepService::compute`](crate::service::SweepService::compute)).
    #[must_use]
    pub fn run_one(&self, job: &JobSpec) -> Arc<SimReport> {
        self.run(std::slice::from_ref(job)).pop().expect("one report per job")
    }
}

/// Indices into `fresh`, grouped by workload with the groups in
/// first-seen order and each group in submission order, so a worker's
/// consecutive pulls mostly share a program. The grouping key is a hash;
/// reuse itself is decided by comparing workloads, so a collision costs
/// a regeneration, never a wrong result.
fn workload_order(fresh: &[(u64, &JobSpec)]) -> Vec<usize> {
    let mut groups: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut keyed: Vec<(usize, usize)> = fresh
        .iter()
        .enumerate()
        .map(|(i, (_, job))| {
            let key = fnv1a64(format!("{:?}", job.workload).as_bytes());
            let first_seen = groups.len();
            (*groups.entry(key).or_insert(first_seen), i)
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Generates `workload`'s program.
fn generate(workload: &WorkloadSpec) -> Program {
    #[cfg(test)]
    tests::record_generation(workload);
    workload.generate()
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;
    use std::thread::ThreadId;

    use super::*;

    /// Every program the engine has generated in this process, with the
    /// thread that generated it.
    static GENERATED: Mutex<Vec<(WorkloadSpec, ThreadId)>> = Mutex::new(Vec::new());

    pub(super) fn record_generation(workload: &WorkloadSpec) {
        GENERATED.lock().unwrap().push((workload.clone(), std::thread::current().id()));
    }

    /// The programs generated on the calling thread, in order. A
    /// one-thread engine runs its batch on the caller, so a test sees
    /// exactly its own generations.
    fn generated_here() -> Vec<WorkloadSpec> {
        let me = std::thread::current().id();
        GENERATED.lock().unwrap().iter().filter(|(_, t)| *t == me).map(|(w, _)| w.clone()).collect()
    }

    fn job(seed: u64) -> JobSpec {
        JobSpec::new(WorkloadSpec::builder("engine-test").seed(seed).blocks(64).build(), 1_000)
    }

    /// Each job run on its own through [`JobSpec::run`].
    fn solo_runs(jobs: &[JobSpec]) -> Vec<Arc<SimReport>> {
        jobs.iter().map(|j| Arc::new(j.run())).collect()
    }

    #[test]
    fn batch_dedup_simulates_once() {
        let engine = SweepEngine::new(2);
        let jobs = vec![job(1), job(1), job(1)];
        let out = engine.run(&jobs);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[1], out[2]);
        let stats = engine.stats();
        assert_eq!(stats.simulated, 1);
        assert_eq!(stats.cache.hits, 2);
    }

    #[test]
    fn persistent_cache_survives_engine_restarts() {
        let out = std::env::temp_dir().join(format!("st-engine-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);

        let first = SweepEngine::with_result_store(2, &out);
        assert_eq!(first.stats().loaded, 0, "cold start");
        let out1 = first.run(&[job(7), job(8)]);
        assert_eq!(first.stats().simulated, 2);
        assert!(LogStore::dir_under(&out).join("seg-0.log").is_file(), "written to the log");
        assert!(!out.join(".cache").exists(), "no legacy JSON directory");

        // A brand-new engine (a new process, conceptually) preloads both
        // points and serves them without simulating.
        let second = SweepEngine::with_result_store(2, &out);
        assert_eq!(second.stats().loaded, 2);
        let out2 = second.run(&[job(7), job(8)]);
        let stats = second.stats();
        assert_eq!(stats.simulated, 0, "everything came from disk");
        assert_eq!(stats.cache.hits, 2);
        assert_eq!(out1, out2, "disk round-trip is bit-exact");

        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn result_store_serves_a_migrated_segment_store_identically() {
        let out = std::env::temp_dir().join(format!("st-engine-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);

        // Seed the segment log...
        let first = SweepEngine::with_result_store(2, &out);
        let out1 = first.run(&[job(17), job(18)]);
        assert_eq!(first.stats().simulated, 2);

        // ...migrate every live record into a fresh segment (compaction
        // deletes the old one), and a new engine preloads bit-identical
        // reports from it.
        let compacted = first.result_store().expect("store").compact().expect("compact");
        assert_eq!(compacted.live_records, 2);
        drop(first);
        assert!(!LogStore::dir_under(&out).join("seg-0.log").exists(), "old segment swept");
        let second = SweepEngine::with_result_store(2, &out);
        assert_eq!(second.stats().loaded, 2);
        let out2 = second.run(&[job(17), job(18)]);
        assert_eq!(second.stats().simulated, 0, "everything came from the segment log");
        assert_eq!(out1, out2, "migration is observationally invisible");

        // Write-through appends to the log and survives another restart.
        let _ = second.run(&[job(19)]);
        let third = SweepEngine::with_result_store(2, &out);
        assert_eq!(third.stats().loaded, 3);

        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn thread_counts_produce_identical_reports() {
        // A mixed grid: two workloads × three experiments, plus one
        // odd-budget point, which shares its workload's program because
        // the budget does not shape the program.
        let mut jobs: Vec<JobSpec> = Vec::new();
        for seed in [41, 42] {
            for e in [
                st_core::experiments::baseline(),
                st_core::experiments::c2(),
                st_core::experiments::a7(),
            ] {
                jobs.push(job(seed).with_experiment(e));
            }
        }
        jobs.push(JobSpec::new(
            WorkloadSpec::builder("engine-test").seed(41).blocks(64).build(),
            1_500,
        ));
        let solo = solo_runs(&jobs);
        for threads in [1, 2, 3] {
            let engine = SweepEngine::new(threads);
            assert_eq!(engine.run(&jobs), solo, "threads={threads} must match per-point runs");
            assert_eq!(engine.stats().simulated, jobs.len() as u64);
        }
    }

    #[test]
    fn interleaved_workloads_generate_each_program_once() {
        // Submitted A,B,A,B,A,B; at one thread the batch runs grouped by
        // workload, so each program is generated once and reused twice.
        let (a, b) = (job(61), job(62));
        let jobs: Vec<JobSpec> = [
            st_core::experiments::baseline(),
            st_core::experiments::c2(),
            st_core::experiments::a7(),
        ]
        .into_iter()
        .flat_map(|e| [a.clone().with_experiment(e.clone()), b.clone().with_experiment(e)])
        .collect();
        let out = SweepEngine::new(1).run(&jobs);
        assert_eq!(generated_here(), vec![a.workload, b.workload], "2 programs, not 6");
        assert_eq!(out, solo_runs(&jobs));
    }

    #[test]
    fn generated_members_never_share_a_program() {
        // Two seeds of one family are different workloads: each gets its
        // own program, while one member's points share theirs.
        let wl0 = st_workloads::by_name("gen:jit:0").expect("generative member");
        let wl1 = st_workloads::by_name("gen:jit:1").expect("generative member");
        let jobs = vec![
            JobSpec::new(wl0.clone(), 2_000),
            JobSpec::new(wl1.clone(), 2_000),
            JobSpec::new(wl0.clone(), 2_000).with_experiment(st_core::experiments::a7()),
            JobSpec::new(wl1.clone(), 2_000).with_experiment(st_core::experiments::c2()),
        ];
        let out = SweepEngine::new(1).run(&jobs);
        assert_eq!(generated_here(), vec![wl0, wl1], "one program per member");
        assert_eq!(out, solo_runs(&jobs), "reports must equal solo runs");
    }

    #[test]
    fn each_batch_regenerates_its_programs() {
        let engine = SweepEngine::new(1);
        let _ = engine.run(&[job(63), job(64)]);
        let _ = engine.run(&[job(63).with_experiment(st_core::experiments::c2())]);
        assert_eq!(
            generated_here(),
            vec![job(63).workload, job(64).workload, job(63).workload],
            "no program outlives its batch"
        );
    }

    #[test]
    fn cross_batch_caching() {
        let engine = SweepEngine::new(1);
        let _ = engine.run(&[job(5)]);
        assert_eq!(engine.stats().simulated, 1);
        let _ = engine.run(&[job(5)]);
        let stats = engine.stats();
        assert_eq!(stats.simulated, 1, "second batch must be served from cache");
        assert_eq!(stats.cache.hits, 1);
    }
}
