//! The deterministic parallel executor.
//!
//! [`SweepEngine::run`] takes a batch of [`JobSpec`]s and returns their
//! reports *in submission order*. [`SweepEngine::run_each`] hands each
//! report to a callback the moment it exists and can be stopped partway;
//! `run` is `run_each` over a workload-grouped schedule. A job's
//! fingerprint is the identity of its report, labels included; its
//! simulation key is the identity of the machine it simulates (see
//! [`crate::job`]). Internally the engine:
//!
//! 1. fingerprints every job and answers what it can from the reports
//!    it holds or, failing that, from its result store, deduping
//!    identical points submitted in the same batch. The engine holds
//!    every report it simulated, relabelled or read, in one map by
//!    fingerprint; a stored report is read from disk the first time a
//!    job asks for it, never at open;
//! 2. keys every remaining miss by the machine it simulates. The first
//!    job in submission order with a given key is the *twin*; each
//!    later job whose machine compares equal to the twin's is an
//!    *alias* of it;
//! 3. shards the twins across a worker pool (a shared atomic work index
//!    over a fixed job list, in the caller's [`Schedule`]). Before it
//!    simulates a twin, a worker claims the machine in the engine's
//!    machine table, which holds every machine simulated or being
//!    simulated, by any batch. A machine already there is not
//!    simulated again: the worker waits for that run, if it has not
//!    ended, and relabels its report. A simulation takes one of
//!    `threads` permits, so concurrent batches together run at most
//!    `threads` at once. Each worker keeps the last program it
//!    generated and reuses it while the next point's workload compares
//!    equal, so a batch grouped by workload generates each workload's
//!    program about once per worker rather than once per point. A
//!    worker publishes each report, and then each of its aliases'
//!    relabelled reports, to the engine's map and the result store as
//!    soon as it has it, so a process killed mid-batch keeps every
//!    point it completed;
//! 4. hands every report to the caller as soon as it exists; `run`
//!    reassembles them by submission index.
//!
//! An alias's report is its twin's under the alias's own experiment id
//! and label, held and stored under the alias's own fingerprint, so
//! every output byte is the same as if it had been simulated.
//!
//! Every simulation is a pure function of its [`JobSpec`] (the workload
//! seed fixes the program; the pipeline is cycle-deterministic), so the
//! thread count and OS scheduling cannot influence any result bit —
//! `--threads 1` and `--threads N` produce identical output, which the
//! integration tests assert. Twins are chosen in submission order, so
//! which jobs one batch simulates does not depend on the thread count
//! either.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use st_core::SimReport;
use st_isa::{Program, WorkloadSpec};

use crate::job::{fnv1a64, JobSpec};
use crate::logstore::LogStore;

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
    /// Live entries the on-disk result store held when the engine
    /// opened it (0 without a store).
    pub loaded: u64,
    /// Lookup counters.
    pub cache: CacheStats,
}

/// How an engine's jobs found their reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Jobs answered without a fresh report: held in memory, read from
    /// the result store, or a duplicate of a point earlier in the same
    /// batch.
    pub hits: u64,
    /// Jobs that needed a fresh report, simulated or relabelled.
    pub misses: u64,
    /// Reports held in memory.
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of lookups answered without simulating, in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The order in which [`SweepEngine::run_each`] takes a batch's
/// simulations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Grouped by workload, the groups in first-seen order, so a
    /// worker's consecutive points mostly share a program.
    ByWorkload,
    /// In submission order, so the first jobs' reports come first.
    AsGiven,
}

/// A machine this engine has simulated or is simulating: the job that
/// runs it and, once that run ends, its report (`None` if the
/// simulation panicked, so that every batch that asks for the machine
/// panics too, instead of waiting forever).
#[derive(Debug)]
struct Machine {
    job: JobSpec,
    report: OnceLock<Option<Arc<SimReport>>>,
}

/// Simulations under way across every batch of an engine.
#[derive(Debug, Default)]
struct Simulations {
    /// Holding a permit.
    running: usize,
    /// Waiting for one.
    waiting: usize,
}

/// A parallel, cache-aware sweep executor.
#[derive(Debug)]
pub struct SweepEngine {
    threads: usize,
    /// Every report this engine simulated, relabelled or read from its
    /// result store, by fingerprint.
    reports: Mutex<HashMap<u64, Arc<SimReport>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Every machine this engine simulated or is simulating, by
    /// simulation key.
    machines: Mutex<HashMap<u64, Arc<Machine>>>,
    /// At most `threads` simulations run at once, whatever the number
    /// of concurrent batches.
    simulations: Mutex<Simulations>,
    permit_freed: Condvar,
    simulated: AtomicU64,
    aliased: AtomicU64,
    loaded: u64,
    store: Option<LogStore>,
    #[cfg(test)]
    gauge: tests::Gauge,
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
            reports: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            machines: Mutex::new(HashMap::new()),
            simulations: Mutex::default(),
            permit_freed: Condvar::new(),
            simulated: AtomicU64::new(0),
            aliased: AtomicU64::new(0),
            loaded: 0,
            store: None,
            #[cfg(test)]
            gauge: tests::Gauge::default(),
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
    /// Opening builds the store's index only; a stored report is read
    /// the first time a job asks for it, and every freshly simulated
    /// point is written through, so repeated invocations reuse points
    /// across processes.
    #[must_use]
    pub fn with_result_store(threads: usize, out_dir: impl AsRef<Path>) -> SweepEngine {
        let store = LogStore::open(LogStore::dir_under(out_dir.as_ref()));
        let mut engine = SweepEngine::new(threads);
        engine.loaded = store.load_stats().entries;
        engine.store = Some(store);
        engine
    }

    /// The result store this engine writes through to, if any.
    #[must_use]
    pub fn result_store(&self) -> Option<&LogStore> {
        self.store.as_ref()
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
            cache: CacheStats {
                hits: self.hits.load(Ordering::Relaxed),
                misses: self.misses.load(Ordering::Relaxed),
                entries: self.reports.lock().expect("report map poisoned").len() as u64,
            },
        }
    }

    /// Simulations running or waiting for a permit to run, across every
    /// batch under way; 0 when the engine is idle.
    #[must_use]
    pub fn simulations_in_flight(&self) -> usize {
        let sims = self.simulations.lock().expect("permit count poisoned");
        sims.running + sims.waiting
    }

    /// Runs a batch of jobs, returning reports in submission order.
    ///
    /// Results are bit-identical regardless of the worker count: each job
    /// is a pure function of its spec, and assembly is by submission
    /// index, not completion order. Each machine is simulated once: a
    /// job that simulates the same machine as an earlier one, in this
    /// batch, an earlier one or a concurrent one, gets that report
    /// relabelled. Each fresh report is held and written through to the
    /// result store the moment its worker finishes it, so a run
    /// killed partway resumes from every point it completed.
    ///
    /// # Panics
    ///
    /// Panics if a simulation panics (a simulator bug, not a usage
    /// error).
    #[must_use]
    pub fn run(&self, jobs: &[JobSpec]) -> Vec<Arc<SimReport>> {
        let reports: Vec<OnceLock<Arc<SimReport>>> = jobs.iter().map(|_| OnceLock::new()).collect();
        let jobs: Vec<&JobSpec> = jobs.iter().collect();
        self.run_each(&jobs, Schedule::ByWorkload, |i, report| {
            reports[i].set(report).expect("one report per job");
            true
        });
        reports.into_iter().map(|cell| cell.into_inner().expect("every job reported")).collect()
    }

    /// Runs a batch of jobs and hands `each(index, report)` every job's
    /// report the moment it exists: a hit at once, on the calling
    /// thread, and a fresh point on the worker that finishes it, its
    /// aliases' right after. The workers take the batch's simulations in
    /// `schedule` order.
    ///
    /// When `each` returns `false`, no worker starts another simulation,
    /// and the call returns once those under way end; jobs not reported
    /// by then never are. Otherwise every job is reported once, and
    /// [`SweepEngine::run`]'s guarantees hold: determinism, one
    /// simulation per machine, write-through.
    ///
    /// # Panics
    ///
    /// Panics if a simulation panics, in this batch or in a concurrent
    /// one whose run of a machine this batch waits for (a simulator bug,
    /// not a usage error).
    pub fn run_each<F>(&self, jobs: &[&JobSpec], schedule: Schedule, each: F)
    where
        F: Fn(usize, Arc<SimReport>) -> bool + Sync,
    {
        /// One distinct missed point: its fingerprint, simulation key and
        /// job, the batch indices it answers, and its aliases if it is a
        /// twin.
        struct Miss<'a> {
            fp: u64,
            key: u64,
            job: &'a JobSpec,
            at: Vec<usize>,
            aliases: Vec<usize>,
        }
        let stopped = AtomicBool::new(false);
        let deliver = |at: &[usize], report: &Arc<SimReport>| {
            for &i in at {
                if !each(i, Arc::clone(report)) {
                    stopped.store(true, Ordering::Relaxed);
                }
            }
        };

        // Phase 1: look every job up, dedup within the batch, and group
        // the misses by machine. A miss is either a twin, listed in
        // `twins` and simulated, or an alias listed under its twin.
        let mut misses: Vec<Miss<'_>> = Vec::new();
        let mut miss_index: HashMap<u64, usize> = HashMap::new();
        let mut twin_index: HashMap<u64, usize> = HashMap::new();
        let mut twins: Vec<usize> = Vec::new();
        for (i, &job) in jobs.iter().enumerate() {
            if stopped.load(Ordering::Relaxed) {
                return;
            }
            let fp = job.fingerprint();
            if let Some(&m) = miss_index.get(&fp) {
                // A duplicate of a point already scheduled in this
                // batch: count it as a hit, don't look it up again.
                self.hits.fetch_add(1, Ordering::Relaxed);
                misses[m].at.push(i);
                continue;
            }
            if let Some(hit) = self.lookup(fp) {
                deliver(&[i], &hit);
                continue;
            }
            let key = job.simulation_key();
            let m = misses.len();
            misses.push(Miss { fp, key, job, at: vec![i], aliases: Vec::new() });
            miss_index.insert(fp, m);
            match twin_index.get(&key) {
                Some(&twin) if misses[twin].job.same_machine(job) => misses[twin].aliases.push(m),
                _ => {
                    // A new machine, or a key collision with another
                    // machine: either way this point is a twin.
                    twin_index.entry(key).or_insert(m);
                    twins.push(m);
                }
            }
        }

        // Phase 2: the worker pool pulls the twins from one atomic index
        // and reports each twin, then its aliases, as soon as it has the
        // twin's report.
        let order = match schedule {
            Schedule::ByWorkload => workload_order(twins.iter().map(|&t| (t, misses[t].job))),
            Schedule::AsGiven => twins,
        };
        let next = AtomicUsize::new(0);
        let work = || {
            let mut last: Option<(&WorkloadSpec, Arc<Program>)> = None;
            while !stopped.load(Ordering::Relaxed) {
                let Some(&t) = order.get(next.fetch_add(1, Ordering::Relaxed)) else { break };
                let twin = &misses[t];
                let report = self.machine_report(twin.fp, twin.key, twin.job, &mut last);
                deliver(&twin.at, &report);
                for alias in twin.aliases.iter().map(|&a| &misses[a]) {
                    let relabelled = Arc::new(alias.job.report_from(&report));
                    self.publish_alias(alias.fp, &relabelled);
                    deliver(&alias.at, &relabelled);
                }
            }
        };
        // Two or more workers are all threads of their own while the
        // caller waits: with the caller as one of two workers, perfbench
        // paper-repro's peak RSS rose from 21 to 26 MiB (2-vCPU host).
        let workers = self.threads.min(order.len());
        if workers <= 1 {
            work();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(work);
                }
            });
        }
    }

    /// The report of twin `job`'s machine, published under `fp`. The
    /// first batch to reach the machine claims it in the machine table
    /// and simulates it; any other waits for that run, if it has not
    /// ended, and relabels it. A key collision with another machine gets
    /// a private claim, never shared.
    fn machine_report<'a>(
        &self,
        fp: u64,
        key: u64,
        job: &'a JobSpec,
        last: &mut Option<(&'a WorkloadSpec, Arc<Program>)>,
    ) -> Arc<SimReport> {
        let (machine, claimed) = {
            let mut machines = self.machines.lock().expect("machine table poisoned");
            match machines.get(&key) {
                Some(held) if held.job.same_machine(job) => (Arc::clone(held), false),
                held => {
                    let machine = Arc::new(Machine { job: job.clone(), report: OnceLock::new() });
                    if held.is_none() {
                        machines.insert(key, Arc::clone(&machine));
                    }
                    (machine, true)
                }
            }
        };
        if claimed {
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| self.simulate(job, last)));
            let report = match run {
                Ok(report) => Arc::new(report),
                Err(panic) => {
                    // Wake the machine's waiters, now and later: they
                    // panic too, rather than wait forever.
                    let _ = machine.report.set(None);
                    std::panic::resume_unwind(panic)
                }
            };
            self.simulated.fetch_add(1, Ordering::Relaxed);
            self.publish(fp, &report);
            machine.report.set(Some(Arc::clone(&report))).expect("only the claimant sets it");
            return report;
        }
        let Some(twin) = machine.report.wait() else {
            panic!("the simulation of machine {key:016x} panicked (simulator bug)")
        };
        let report = Arc::new(job.report_from(twin));
        self.publish_alias(fp, &report);
        report
    }

    /// Simulates `job` under a permit. The worker's `last` program is
    /// reused when its workload compares equal, else replaced by a fresh
    /// one: a worker holds at most one program, freed on the thread that
    /// built it.
    fn simulate<'a>(
        &self,
        job: &'a JobSpec,
        last: &mut Option<(&'a WorkloadSpec, Arc<Program>)>,
    ) -> SimReport {
        let _permit = self.permit();
        if last.as_ref().is_none_or(|(workload, _)| **workload != job.workload) {
            drop(last.take());
            *last = Some((&job.workload, Arc::new(generate(&job.workload))));
        }
        let program = Arc::clone(&last.as_ref().expect("generated above").1);
        #[cfg(test)]
        let _running = self.gauge.enter();
        job.run_on(program)
    }

    /// Waits for one of the `threads` simulation permits.
    fn permit(&self) -> Permit<'_> {
        let mut sims = self.simulations.lock().expect("permit count poisoned");
        sims.waiting += 1;
        while sims.running == self.threads {
            sims = self.permit_freed.wait(sims).expect("permit count poisoned");
        }
        sims.waiting -= 1;
        sims.running += 1;
        Permit(self)
    }

    /// The report of `fp`, counted as a hit: the one held in memory, or
    /// else the one the result store reads back, held from then on.
    /// `None`, counted as a miss, when neither has one.
    fn lookup(&self, fp: u64) -> Option<Arc<SimReport>> {
        let held = self.reports.lock().expect("report map poisoned").get(&fp).cloned();
        let found = held.or_else(|| {
            let read = Arc::new(self.store.as_ref()?.load(fp)?);
            let mut reports = self.reports.lock().expect("report map poisoned");
            Some(Arc::clone(reports.entry(fp).or_insert(read)))
        });
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Counts one alias and publishes its relabelled report.
    fn publish_alias(&self, fp: u64, report: &Arc<SimReport>) {
        self.aliased.fetch_add(1, Ordering::Relaxed);
        self.publish(fp, report);
    }

    /// Holds a fresh report and writes it through to the result store,
    /// if any, unless the engine already holds the fingerprint: a point
    /// that two concurrent batches both missed is written once. A
    /// failed store write only warns: the report is still served from
    /// memory.
    fn publish(&self, fp: u64, report: &Arc<SimReport>) {
        {
            let mut reports = self.reports.lock().expect("report map poisoned");
            if reports.contains_key(&fp) {
                return;
            }
            reports.insert(fp, Arc::clone(report));
        }
        if let Some(store) = &self.store {
            if let Err(e) = store.store(fp, report) {
                eprintln!(
                    "warning: could not persist {fp:016x} under {}: {e}",
                    store.dir().display()
                );
            }
        }
    }

    /// Runs a single job through the engine's reports (and the
    /// result store, when configured), with the same determinism and
    /// memoisation as [`SweepEngine::run`].
    #[must_use]
    pub fn run_one(&self, job: &JobSpec) -> Arc<SimReport> {
        self.run(std::slice::from_ref(job)).pop().expect("one report per job")
    }
}

/// A simulation permit, returned on drop.
struct Permit<'a>(&'a SweepEngine);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        if let Ok(mut sims) = self.0.simulations.lock() {
            sims.running -= 1;
        }
        self.0.permit_freed.notify_one();
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
pub(crate) mod tests {
    use std::collections::HashSet;
    use std::sync::{Barrier, Mutex};
    use std::thread::ThreadId;

    use super::*;
    use crate::persist::report_to_json;

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

    /// How many times any engine in this process, on any thread, has
    /// generated `workload`'s program.
    pub(crate) fn generations_of(workload: &WorkloadSpec) -> usize {
        GENERATED.lock().unwrap().iter().filter(|(w, _)| w == workload).count()
    }

    /// Counts the simulations an engine runs at once, independently of
    /// its permits, and keeps the largest count seen.
    #[derive(Debug, Default)]
    pub(super) struct Gauge {
        now: AtomicUsize,
        peak: AtomicUsize,
    }

    impl Gauge {
        /// Counts one simulation until the returned guard drops.
        pub(super) fn enter(&self) -> impl Drop + '_ {
            struct Leave<'a>(&'a Gauge);
            impl Drop for Leave<'_> {
                fn drop(&mut self) {
                    self.0.now.fetch_sub(1, Ordering::SeqCst);
                }
            }
            let now = self.now.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            Leave(self)
        }
    }

    /// Runs `batches` on `engine` at once, each on its own thread, all
    /// released together, and returns their reports.
    fn run_concurrently(engine: &SweepEngine, batches: &[&[JobSpec]]) -> Vec<Vec<Arc<SimReport>>> {
        let start = Barrier::new(batches.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = batches
                .iter()
                .map(|&batch| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        engine.run(batch)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("batch thread")).collect()
        })
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

        // A brand-new engine (a new process, conceptually) reads both
        // points from disk and serves them without simulating.
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
        // deletes the old one), and a new engine reads bit-identical
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
    fn a_warm_engine_reads_only_the_report_it_is_asked_for() {
        let out = std::env::temp_dir().join(format!("st-engine-lazy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let jobs: Vec<JobSpec> = (21..25).map(job).collect();
        let cold = SweepEngine::with_result_store(1, &out).run(&jobs);

        let warm = SweepEngine::with_result_store(1, &out);
        assert_eq!(warm.stats().loaded, 4, "every live entry counts at open");
        assert_eq!(warm.stats().cache.entries, 0, "none is read at open");
        let report = warm.run_one(&jobs[2]);
        assert_eq!(report, cold[2]);
        assert_eq!(report_to_json(&report), report_to_json(&cold[2]), "bit-identical");
        let stats = warm.stats();
        assert_eq!((stats.simulated, stats.aliased), (0, 0), "served from disk");
        assert_eq!((stats.cache.hits, stats.cache.misses), (1, 0), "a read is a hit");
        assert!((stats.cache.hit_rate() - 1.0).abs() < 1e-12);
        assert_eq!(stats.cache.entries, 1, "only the report asked for is held");
        assert_eq!(stats.loaded, 4);

        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn a_stored_frame_that_does_not_decode_is_simulated_again() {
        let out =
            std::env::temp_dir().join(format!("st-engine-undecodable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let point = job(26);
        let fp = point.fingerprint();
        // A checksum-valid frame whose payload is not a report.
        LogStore::open(LogStore::dir_under(&out))
            .store_payload(fp, b"{\"kind\":\"report\"}")
            .expect("append");

        let engine = SweepEngine::with_result_store(1, &out);
        assert_eq!(engine.stats().loaded, 1);
        let report = engine.run_one(&point);
        assert_eq!(*report, point.run(), "the stored frame is not served");
        let stats = engine.stats();
        assert_eq!((stats.simulated, stats.cache.hits, stats.cache.misses), (1, 0, 1));
        drop(engine);

        // The fresh frame superseded the undecodable one.
        let store = LogStore::open(LogStore::dir_under(&out));
        assert_eq!((store.load_stats().entries, store.load_stats().superseded), (1, 1));
        assert_eq!(store.load(fp).as_ref(), Some(&*report));
        drop(store);
        let warm = SweepEngine::with_result_store(1, &out);
        assert_eq!(warm.run_one(&point), report);
        assert_eq!(warm.stats().simulated, 0, "served from the new frame");

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

    #[test]
    fn a_point_computed_while_its_twin_runs_waits_and_is_relabelled() {
        // Two concurrent batches reach one machine under two labels: the
        // first to claim it simulates it, the other waits and relabels.
        let engine = SweepEngine::new(2);
        let go = st_workloads::by_name("go").expect("paper workload");
        let a5 = JobSpec::new(go.clone(), 20_000).with_experiment(st_core::experiments::a5());
        let c1 = JobSpec::new(go, 20_000).with_experiment(st_core::experiments::c1());
        let out =
            run_concurrently(&engine, &[std::slice::from_ref(&a5), std::slice::from_ref(&c1)]);
        assert_eq!(*out[0][0], a5.run());
        assert_eq!(*out[1][0], c1.run());
        let stats = engine.stats();
        assert_eq!((stats.simulated, stats.aliased), (1, 1), "one machine, two labels");
    }

    #[test]
    fn concurrent_batches_share_the_engines_permits() {
        // Each batch has a worker of its own, but a one-thread engine
        // has one permit, so its simulations run one at a time.
        use st_core::experiments::{a7, b3, baseline, c2};
        let engine = SweepEngine::new(1);
        let go = st_workloads::by_name("go").expect("paper workload");
        let jobs: Vec<JobSpec> = [baseline(), c2(), a7(), b3()]
            .map(|e| JobSpec::new(go.clone(), 5_000).with_experiment(e))
            .to_vec();
        let out = run_concurrently(&engine, &[&jobs[..2], &jobs[2..]]);
        assert_eq!(out.concat(), solo_runs(&jobs));
        assert_eq!(engine.stats().simulated, 4);
        assert_eq!(engine.gauge.peak.load(Ordering::SeqCst), 1, "never two simulations at once");
        assert_eq!(engine.simulations_in_flight(), 0, "none in flight once idle");
    }

    #[test]
    fn run_each_works_and_reports_in_schedule_order() {
        // Workloads interleaved w1, w2, w1, w2. As given, a one-thread
        // engine simulates and reports them in that order, generating a
        // program for each; grouped by workload, it reuses each program.
        let (w1, w2) = (job(91), job(92));
        let c2 = st_core::experiments::c2;
        let jobs =
            [w1.clone(), w2.clone(), w1.clone().with_experiment(c2()), w2.with_experiment(c2())];
        let refs: Vec<&JobSpec> = jobs.iter().collect();
        let solo = solo_runs(&jobs);
        let (p1, p2) = (jobs[0].workload.clone(), jobs[1].workload.clone());
        for (schedule, order, programs) in [
            (Schedule::AsGiven, [0, 1, 2, 3], vec![p1.clone(), p2.clone(), p1.clone(), p2.clone()]),
            (Schedule::ByWorkload, [0, 2, 1, 3], vec![p1.clone(), p2.clone()]),
        ] {
            let before = generated_here().len();
            let reported = Mutex::new(Vec::new());
            SweepEngine::new(1).run_each(&refs, schedule, |i, report| {
                reported.lock().unwrap().push((i, report));
                true
            });
            let reported = reported.into_inner().unwrap();
            let indices: Vec<usize> = reported.iter().map(|(i, _)| *i).collect();
            assert_eq!(indices, order, "{schedule:?}");
            assert_eq!(generated_here()[before..], programs, "{schedule:?}");
            for (i, report) in &reported {
                assert_eq!(*report, solo[*i], "{schedule:?}: job {i}");
            }
        }
    }

    #[test]
    fn run_each_stops_when_told() {
        let engine = SweepEngine::new(1);
        let jobs = [job(93), job(94), job(95)];
        let refs: Vec<&JobSpec> = jobs.iter().collect();
        let reported = AtomicUsize::new(0);
        engine.run_each(&refs, Schedule::AsGiven, |_, _| {
            reported.fetch_add(1, Ordering::SeqCst);
            false
        });
        assert_eq!(reported.into_inner(), 1, "nothing is reported after the stop");
        assert_eq!(engine.stats().simulated, 1, "nothing is simulated after the stop");
    }
}
