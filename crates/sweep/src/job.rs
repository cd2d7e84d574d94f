//! The unit of work of a sweep: one fully-specified simulation point.
//!
//! A [`JobSpec`] pins down *everything* that can influence a simulation's
//! result — workload spec (including its RNG seed), experiment, pipeline
//! and power configuration, confidence-estimator override and instruction
//! budget. Two hashes identify a job:
//!
//! * [`JobSpec::fingerprint`] is the identity of a *report*. It hashes
//!   every field, the experiment's id and label included, and because
//!   the simulator is deterministic, equal fingerprints give
//!   bit-identical reports. The result cache, the result store, shard
//!   documents and comparison pairing are keyed on it.
//! * [`JobSpec::simulation_key`] is the identity of a *machine*: it
//!   hashes only what the simulator reads. The paper re-plots shared
//!   bars under new names (Pipeline Gating is A7, B9 and C7), so jobs
//!   with different fingerprints can share a key. Their reports differ
//!   only in the experiment id and label, which lets the engine simulate
//!   one of them and relabel its report for the others.

use std::sync::Arc;

use st_bpred::SaturatingConfig;
use st_core::{EstimatorSpec, Experiment, ExperimentKind, SimReport, Simulator};
use st_isa::{Program, WorkloadSpec};
use st_pipeline::PipelineConfig;
use st_power::PowerConfig;

/// Which confidence estimator a job runs.
///
/// Almost every experiment uses [`EstimatorChoice::Experiment`] (the
/// experiment picks, see [`Experiment::estimator_spec`]); the estimator
/// ablations and §4.3 quality study override it.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimatorChoice {
    /// Let the experiment choose (JRS for gating, BPRU-style otherwise),
    /// sized by the pipeline config's `estimator_bytes`.
    Experiment,
    /// A BPRU-style saturating estimator with an explicit configuration.
    Saturating(SaturatingConfig),
    /// A JRS (resetting-counter) estimator with an explicit byte budget.
    Jrs {
        /// Hardware budget in bytes.
        bytes: usize,
    },
}

impl EstimatorChoice {
    /// The estimator this choice runs under `experiment` and `config`.
    fn resolve(&self, experiment: &Experiment, config: &PipelineConfig) -> EstimatorSpec {
        match self {
            EstimatorChoice::Experiment => experiment.estimator_spec(config.estimator_bytes),
            EstimatorChoice::Saturating(cfg) => EstimatorSpec::Saturating(*cfg),
            EstimatorChoice::Jrs { bytes } => EstimatorSpec::Jrs { bytes: *bytes },
        }
    }
}

/// What the simulator reads of a [`JobSpec`]: the workload, the
/// experiment's kind, the pipeline and power configs, the resolved
/// estimator and the instruction budget.
type Machine<'a> =
    (&'a WorkloadSpec, &'a ExperimentKind, &'a PipelineConfig, &'a PowerConfig, EstimatorSpec, u64);

/// One fully-specified simulation point.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Workload to generate and run (its seed fixes the program and all
    /// of its branch/memory behaviour).
    pub workload: WorkloadSpec,
    /// Experiment configuration (throttling policy / gating / oracle).
    pub experiment: Experiment,
    /// Pipeline configuration.
    pub config: PipelineConfig,
    /// Power-model configuration.
    pub power: PowerConfig,
    /// Confidence-estimator override.
    pub estimator: EstimatorChoice,
    /// Dynamic instruction budget.
    pub instructions: u64,
}

impl JobSpec {
    /// A baseline job at the paper's default machine configuration.
    #[must_use]
    pub fn new(workload: WorkloadSpec, instructions: u64) -> JobSpec {
        JobSpec {
            workload,
            experiment: st_core::experiments::baseline(),
            config: PipelineConfig::paper_default(),
            power: PowerConfig::paper_default(),
            estimator: EstimatorChoice::Experiment,
            instructions,
        }
    }

    /// Replaces the experiment.
    #[must_use]
    pub fn with_experiment(mut self, experiment: Experiment) -> JobSpec {
        self.experiment = experiment;
        self
    }

    /// Replaces the pipeline configuration.
    #[must_use]
    pub fn with_config(mut self, config: PipelineConfig) -> JobSpec {
        self.config = config;
        self
    }

    /// Replaces the power configuration.
    #[must_use]
    pub fn with_power(mut self, power: PowerConfig) -> JobSpec {
        self.power = power;
        self
    }

    /// Replaces the estimator choice.
    #[must_use]
    pub fn with_estimator(mut self, estimator: EstimatorChoice) -> JobSpec {
        self.estimator = estimator;
        self
    }

    /// Content hash of the simulation point: the identity of its report.
    ///
    /// Hashes the canonical (`Debug`) encoding of every field, the
    /// experiment's id and label and the unresolved estimator choice
    /// included. The simulator is deterministic, so equal fingerprints
    /// imply bit-identical [`SimReport`]s; the engine relies on this to
    /// dedup repeated points across figures and sweeps.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let canonical = format!(
            "workload={:?};experiment={:?};config={:?};power={:?};estimator={:?};instr={}",
            self.workload,
            self.experiment,
            self.config,
            self.power,
            self.estimator,
            self.instructions,
        );
        fnv1a64(canonical.as_bytes())
    }

    /// [`JobSpec::fingerprint`] in its canonical text form: 16 lowercase
    /// hex digits, zero-padded — the spelling used by shard records.
    #[must_use]
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }

    /// Content hash of the machine this job simulates: the identity of
    /// its simulation.
    ///
    /// Hashes exactly what [`JobSpec::run`] hands the simulator: the
    /// workload, the experiment's kind (not its id or label), the
    /// pipeline and power configs, the estimator with
    /// [`EstimatorChoice::Experiment`] resolved, and the instruction
    /// budget. Jobs whose machines compare equal run bit-identical
    /// simulations, and their reports differ only in the experiment id
    /// and label.
    #[must_use]
    pub fn simulation_key(&self) -> u64 {
        fnv1a64(format!("{:?}", self.machine()).as_bytes())
    }

    /// Whether `other` simulates the same machine, compared field by
    /// field over what [`JobSpec::simulation_key`] hashes. A key match
    /// alone may be a hash collision.
    pub(crate) fn same_machine(&self, other: &JobSpec) -> bool {
        self.machine() == other.machine()
    }

    /// Everything the simulator reads of this job. The key hashes it and
    /// [`JobSpec::same_machine`] compares it, so the two cannot disagree.
    fn machine(&self) -> Machine<'_> {
        (
            &self.workload,
            &self.experiment.kind,
            &self.config,
            &self.power,
            self.resolved_estimator(),
            self.instructions,
        )
    }

    /// The estimator the simulator runs for this job.
    fn resolved_estimator(&self) -> EstimatorSpec {
        self.estimator.resolve(&self.experiment, &self.config)
    }

    /// This job's report, given the report of a job that simulates the
    /// same machine ([`JobSpec::same_machine`]): the twin's report under
    /// this job's experiment id and label.
    ///
    /// Bit-identical to [`JobSpec::run`]: the simulator reads the
    /// experiment only through its kind (the controller's name is never
    /// read back), so the id and label reach the report only as its
    /// `experiment` and `label` strings.
    pub(crate) fn report_from(&self, twin: &SimReport) -> SimReport {
        SimReport {
            experiment: self.experiment.id.to_string(),
            label: self.experiment.label.to_string(),
            ..twin.clone()
        }
    }

    /// Runs the simulation point to completion (synchronously, on the
    /// calling thread).
    #[must_use]
    pub fn run(&self) -> SimReport {
        self.run_on(Arc::new(self.workload.generate()))
    }

    /// Runs the point over `program`, which must be the program its
    /// workload generates. The engine uses this to reuse one program
    /// across consecutive points of a workload.
    pub(crate) fn run_on(&self, program: Arc<Program>) -> SimReport {
        Simulator::builder()
            .program(program)
            .config(self.config.clone())
            .power(self.power.clone())
            .experiment(self.experiment.clone())
            .max_instructions(self.instructions)
            .build_with_estimator(self.resolved_estimator().build())
            .run()
    }
}

/// 64-bit FNV-1a over a byte string.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> WorkloadSpec {
        WorkloadSpec::builder("job-test").seed(seed).blocks(128).build()
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = JobSpec::new(spec(1), 5_000);
        let b = JobSpec::new(spec(1), 5_000);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), JobSpec::new(spec(2), 5_000).fingerprint());
        assert_ne!(a.fingerprint(), JobSpec::new(spec(1), 6_000).fingerprint());
        let c2 = JobSpec::new(spec(1), 5_000).with_experiment(st_core::experiments::c2());
        assert_ne!(a.fingerprint(), c2.fingerprint());
        let jrs = JobSpec::new(spec(1), 5_000).with_estimator(EstimatorChoice::Jrs { bytes: 1024 });
        assert_ne!(a.fingerprint(), jrs.fingerprint());
    }

    #[test]
    fn job_runs_and_tags_report() {
        let r = JobSpec::new(spec(3), 2_000).run();
        assert_eq!(r.experiment, "BASE");
        assert!(r.perf.committed >= 2_000);
    }

    #[test]
    fn run_on_a_shared_program_matches_run() {
        let program = Arc::new(spec(5).generate());
        for e in [
            st_core::experiments::baseline(),
            st_core::experiments::c2(),
            st_core::experiments::a7(),
        ] {
            let job = JobSpec::new(spec(5), 3_000).with_experiment(e);
            assert_eq!(job.run_on(Arc::clone(&program)), job.run(), "{}", job.experiment.id);
        }
    }
}
