//! The deterministic parallel executor.
//!
//! [`SweepEngine::run`] takes a batch of [`JobSpec`]s and returns their
//! reports *in submission order*. A job's fingerprint is the identity of
//! its report, labels included; its simulation key is the identity of
//! the machine it simulates (see [`crate::job`]). Internally the engine:
//!
//! 1. fingerprints every job and answers what it can from the
//!    [`ResultCache`], deduping identical points submitted in the same
//!    batch;
//! 2. keys every remaining miss by the machine it simulates. The first
//!    job in submission order with a given key is the *twin* that gets
//!    simulated; each later job whose machine compares equal to the
//!    twin's is an *alias* of it. An alias whose machine this engine
//!    already simulated in an earlier batch is served at once;
//! 3. shards the twins across a worker pool (a shared atomic work index
//!    over a fixed job list — no channels, no locks on the hot path).
//!    The list is ordered by workload, and each worker keeps the last
//!    program it generated and reuses it while the next point's
//!    workload compares equal, so a batch generates each workload's
//!    program about once per worker rather than once per point. A
//!    worker publishes each report, and then each of its aliases'
//!    relabelled reports, to the cache and the result store as soon as
//!    it finishes the simulation, so a process killed mid-batch keeps
//!    every point it completed;
//! 4. reassembles results by submission index.
//!
//! An alias's report is its twin's under the alias's own experiment id
//! and label, cached and stored under the alias's own fingerprint, so
//! every output byte is the same as if it had been simulated.
//!
//! Every simulation is a pure function of its [`JobSpec`] (the workload
//! seed fixes the program; the pipeline is cycle-deterministic), so the
//! thread count and OS scheduling cannot influence any result bit —
//! `--threads 1` and `--threads N` produce identical output, which the
//! integration tests assert. Twins are chosen in submission order, so
//! which jobs are simulated does not depend on the thread count either.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use st_core::SimReport;
use st_isa::{Program, WorkloadSpec};

use crate::cache::{CacheStats, ResultCache};
use crate::job::{fnv1a64, JobSpec};
use crate::logstore::{LoadStats, LogStore};

/// Aggregate execution counters of an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Simulations actually executed.
    pub simulated: u64,
    /// Cache misses served without a simulation of their own: each is
    /// the report of another job that simulates the same machine, under
    /// this job's experiment id and label. `simulated + aliased` is the
    /// number of cache misses.
    pub aliased: u64,
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
    /// Every machine this engine simulated, by simulation key: the job
    /// that ran it and its report.
    twins: Mutex<HashMap<u64, (JobSpec, Arc<SimReport>)>>,
    simulated: AtomicU64,
    aliased: AtomicU64,
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
            twins: Mutex::new(HashMap::new()),
            simulated: AtomicU64::new(0),
            aliased: AtomicU64::new(0),
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
            aliased: self.aliased.load(Ordering::Relaxed),
            loaded: self.loaded,
            cache: self.cache.stats(),
        }
    }

    /// Runs a batch of jobs, returning reports in submission order.
    ///
    /// Results are bit-identical regardless of the worker count: each job
    /// is a pure function of its spec, and assembly is by submission
    /// index, not completion order. Each machine is simulated once: a
    /// job that simulates the same machine as an earlier one, in this
    /// batch or an earlier one, gets that report relabelled. Each fresh
    /// report is written to the cache and through to the result store
    /// the moment its worker finishes it, so a run killed partway
    /// resumes from every point it completed.
    ///
    /// # Panics
    ///
    /// Panics if a simulation thread panics (a simulator bug, not a usage
    /// error).
    #[must_use]
    pub fn run(&self, jobs: &[JobSpec]) -> Vec<Arc<SimReport>> {
        // Phase 1: resolve against the cache, dedup within the batch, and
        // group the misses by machine. `slots[i]` is either a finished
        // report or an index into `fresh`, the distinct missed points in
        // submission order. A point in `fresh` is either a twin, listed
        // in `twins` and simulated, or an alias listed under its twin in
        // `aliases`.
        enum Slot {
            Done(Arc<SimReport>),
            Fresh(usize),
        }
        let mut fresh: Vec<(u64, u64, &JobSpec)> = Vec::new();
        let mut fresh_index: HashMap<u64, usize> = HashMap::new();
        let mut twin_index: HashMap<u64, usize> = HashMap::new();
        let mut twins: Vec<usize> = Vec::new();
        let mut aliases: Vec<Vec<usize>> = Vec::new();
        let slots: Vec<Slot> = jobs
            .iter()
            .map(|job| {
                let fp = job.fingerprint();
                if let Some(&idx) = fresh_index.get(&fp) {
                    // A duplicate of a point already scheduled in this
                    // batch: count it as a hit, don't re-consult the map.
                    self.cache.count_dedup_hit();
                    return Slot::Fresh(idx);
                }
                if let Some(hit) = self.cache.get(fp) {
                    return Slot::Done(hit);
                }
                let key = job.simulation_key();
                if let Some(twin) = self.simulated_twin(key, job) {
                    let report = Arc::new(job.report_from(&twin));
                    self.publish_alias(fp, &report);
                    return Slot::Done(report);
                }
                let idx = fresh.len();
                fresh.push((fp, key, job));
                fresh_index.insert(fp, idx);
                aliases.push(Vec::new());
                match twin_index.get(&key) {
                    Some(&twin) if fresh[twin].2.same_machine(job) => aliases[twin].push(idx),
                    _ => {
                        // A new machine, or a key collision with another
                        // machine: either way this point is simulated.
                        twin_index.entry(key).or_insert(idx);
                        twins.push(idx);
                    }
                }
                Slot::Fresh(idx)
            })
            .collect();

        // Phase 2: shard the twins across the worker pool. Workers pull
        // from one atomic index over the twins ordered by workload, and
        // each keeps the last program it generated, reusing it while the
        // next point's workload compares equal. A worker holds at most
        // one program, freed on the thread that built it, and publishes
        // each report, then its aliases' reports, as soon as it has it.
        let order = workload_order(twins.iter().map(|&i| (i, fresh[i].2)));
        let results: Vec<OnceLock<Arc<SimReport>>> =
            (0..fresh.len()).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let work = || {
            let mut last: Option<(&WorkloadSpec, Arc<Program>)> = None;
            while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                let (fp, key, job) = fresh[i];
                if last.as_ref().is_none_or(|(workload, _)| **workload != job.workload) {
                    drop(last.take());
                    last = Some((&job.workload, Arc::new(generate(&job.workload))));
                }
                let program = Arc::clone(&last.as_ref().expect("generated above").1);
                let report = Arc::new(job.run_on(program));
                self.simulated.fetch_add(1, Ordering::Relaxed);
                self.publish(fp, &report);
                self.twins
                    .lock()
                    .expect("twin map poisoned")
                    .entry(key)
                    .or_insert_with(|| (job.clone(), Arc::clone(&report)));
                for &a in &aliases[i] {
                    let (alias_fp, _, alias) = fresh[a];
                    let relabelled = Arc::new(alias.report_from(&report));
                    self.publish_alias(alias_fp, &relabelled);
                    results[a].set(relabelled).expect("slot set once");
                }
                results[i].set(report).expect("slot set once");
            }
        };
        let workers = self.threads.min(twins.len());
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

    /// The report of the machine `job` simulates, if this engine already
    /// simulated it under key `key`. The machines are compared field by
    /// field, so a key collision is a miss, never a wrong report.
    fn simulated_twin(&self, key: u64, job: &JobSpec) -> Option<Arc<SimReport>> {
        let twins = self.twins.lock().expect("twin map poisoned");
        twins.get(&key).filter(|(twin, _)| twin.same_machine(job)).map(|(_, r)| Arc::clone(r))
    }

    /// Counts one alias and publishes its relabelled report.
    fn publish_alias(&self, fp: u64, report: &Arc<SimReport>) {
        self.aliased.fetch_add(1, Ordering::Relaxed);
        self.publish(fp, report);
    }

    /// Writes a fresh report to the cache and through to the result
    /// store, if any. A failed store write only warns: the report is
    /// still served from the cache.
    fn publish(&self, fp: u64, report: &Arc<SimReport>) {
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
    /// `run_one` calls for the same not-yet-simulated machine will both
    /// simulate it — callers that overlap requests de-duplicate in
    /// flight by simulation key (see
    /// [`SweepService::compute`](crate::service::SweepService::compute)).
    #[must_use]
    pub fn run_one(&self, job: &JobSpec) -> Arc<SimReport> {
        self.run(std::slice::from_ref(job)).pop().expect("one report per job")
    }
}

/// The indices of `jobs`, given in submission order, grouped by
/// workload with the groups in first-seen order and each group in
/// submission order, so a worker's consecutive pulls mostly share a
/// program. The grouping key is a hash; reuse itself is decided by
/// comparing workloads, so a collision costs a regeneration, never a
/// wrong result.
fn workload_order<'a>(jobs: impl Iterator<Item = (usize, &'a JobSpec)>) -> Vec<usize> {
    let mut groups: HashMap<u64, usize> = HashMap::new();
    let mut keyed: Vec<(usize, usize)> = jobs
        .map(|(i, job)| {
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
    use std::collections::HashSet;
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
    fn aliases_share_their_twins_run_and_keep_their_own_labels() {
        // Pipeline Gating as A7, B9 and C7, and A5's policy as C1, with
        // a repeated B9: two machines, five fingerprints.
        use st_core::experiments::{a5, a7, b9, c1, c7};
        let jobs: Vec<JobSpec> =
            [a7(), a5(), b9(), c1(), c7(), b9()].map(|e| job(71).with_experiment(e)).to_vec();
        let solo = solo_runs(&jobs);
        for threads in [1, 2, 3] {
            let engine = SweepEngine::new(threads);
            let out = engine.run(&jobs);
            assert_eq!(out, solo, "threads={threads}: each alias equals its own run");
            let ids: Vec<&str> = out.iter().map(|r| r.experiment.as_str()).collect();
            assert_eq!(ids, ["A7", "A5", "B9", "C1", "C7", "B9"]);
            let stats = engine.stats();
            assert_eq!((stats.simulated, stats.aliased), (2, 3), "threads={threads}");
            assert_eq!((stats.cache.hits, stats.cache.misses), (1, 5), "an alias is a miss");
        }
    }

    #[test]
    fn an_alias_in_a_later_batch_simulates_nothing() {
        let engine = SweepEngine::new(1);
        let a5 = job(72).with_experiment(st_core::experiments::a5());
        let c1 = job(72).with_experiment(st_core::experiments::c1());
        let _ = engine.run(std::slice::from_ref(&a5));
        let out = engine.run(std::slice::from_ref(&c1));
        assert_eq!(*out[0], c1.run(), "the relabelled report is C1's own");
        assert_eq!(generated_here(), vec![a5.workload], "the second batch ran nothing");
        let stats = engine.stats();
        assert_eq!((stats.simulated, stats.aliased, stats.cache.misses), (1, 1, 2));
        // The alias was cached under its own fingerprint.
        let _ = engine.run(std::slice::from_ref(&c1));
        let stats = engine.stats();
        assert_eq!((stats.simulated, stats.aliased, stats.cache.hits), (1, 1, 1));
    }

    #[test]
    fn an_explicit_estimator_and_the_experiments_own_share_one_run() {
        use crate::job::EstimatorChoice;
        let bytes = job(73).config.estimator_bytes;
        let bpru =
            st_bpred::SaturatingConfig { bytes, ..st_bpred::SaturatingConfig::paper_default() };
        let gating = job(73).with_experiment(st_core::experiments::a7());
        let jobs = vec![
            job(73),
            job(73).with_estimator(EstimatorChoice::Saturating(bpru)),
            gating.clone(),
            gating.with_estimator(EstimatorChoice::Jrs { bytes }),
        ];
        let fingerprints: HashSet<u64> = jobs.iter().map(JobSpec::fingerprint).collect();
        assert_eq!(fingerprints.len(), 4, "the spelled-out choice is another report identity");
        let engine = SweepEngine::new(1);
        assert_eq!(engine.run(&jobs), solo_runs(&jobs));
        let stats = engine.stats();
        assert_eq!((stats.simulated, stats.aliased), (2, 2));
    }

    #[test]
    fn different_machines_never_share_a_run() {
        use st_core::experiments::{a5, a7, baseline, c2};
        let base = job(74).with_experiment(c2());
        let with = |change: &dyn Fn(&mut JobSpec)| {
            let mut j = base.clone();
            change(&mut j);
            j
        };
        let jobs = vec![
            base.clone(),
            // The experiment's kind (under C2's id and label here).
            with(&|j| j.experiment.kind = a5().kind),
            with(&|j| j.experiment = baseline()),
            with(&|j| j.experiment = a7()),
            with(&|j| j.experiment = a7().with_gating_threshold(3)),
            // Every pipeline-config field.
            with(&|j| j.config.depth += 1),
            with(&|j| j.config.fetch_width = 4),
            with(&|j| j.config.max_taken_per_cycle += 1),
            with(&|j| j.config.decode_width = 4),
            with(&|j| j.config.issue_width = 4),
            with(&|j| j.config.commit_width = 4),
            with(&|j| j.config.front_latency += 1),
            with(&|j| j.config.exec_extra_latency += 1),
            with(&|j| j.config.extra_mispredict_penalty += 1),
            with(&|j| j.config.ruu_size /= 2),
            with(&|j| j.config.lsq_size /= 2),
            with(&|j| j.config.ifq_size /= 2),
            with(&|j| j.config.fu.int_alu.0 -= 1),
            with(&|j| j.config.mem.memory_latency += 1),
            with(&|j| j.config.predictor_bytes *= 2),
            with(&|j| j.config.estimator_bytes /= 2),
            with(&|j| j.config.jump_btb_miss_bubble += 1),
            // Every power-config field.
            with(&|j| j.power.total_watts *= 2.0),
            with(&|j| j.power.frequency_hz *= 2.0),
            with(&|j| j.power.shares[0] *= 2.0),
            with(&|j| j.power.ports[0] += 1.0),
            with(&|j| j.power.gating = st_power::ClockGating::None),
            // The estimator, the budget and the workload.
            with(&|j| j.estimator = crate::job::EstimatorChoice::Jrs { bytes: 1024 }),
            with(&|j| j.instructions += 1),
            with(&|j| j.workload.seed += 1),
        ];
        let keys: HashSet<u64> = jobs.iter().map(JobSpec::simulation_key).collect();
        assert_eq!(keys.len(), jobs.len(), "every machine has a key of its own");
        for (i, a) in jobs.iter().enumerate() {
            for b in &jobs[i + 1..] {
                assert!(!a.same_machine(b), "{a:?} and {b:?} are different machines");
            }
        }
        let engine = SweepEngine::new(2);
        assert_eq!(engine.run(&jobs), solo_runs(&jobs));
        let stats = engine.stats();
        assert_eq!((stats.simulated, stats.aliased), (jobs.len() as u64, 0));
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
