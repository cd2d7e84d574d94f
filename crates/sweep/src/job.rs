//! The unit of work of a sweep: one fully-specified simulation point.
//!
//! A [`JobSpec`] pins down *everything* that can influence a simulation's
//! result — workload spec (including its RNG seed), experiment, pipeline
//! and power configuration, confidence-estimator override and instruction
//! budget. Because the simulator is deterministic given these inputs, a
//! job's [`JobSpec::fingerprint`] is a content hash of the result itself:
//! two jobs with equal fingerprints produce bit-identical reports, which
//! is what lets the engine memoise across figures and sweeps.

use std::sync::Arc;

use st_bpred::{JrsEstimator, SaturatingConfig, SaturatingEstimator};
use st_core::{Experiment, SimReport, Simulator};
use st_isa::{Program, WorkloadSpec};
use st_pipeline::PipelineConfig;
use st_power::PowerConfig;

/// Which confidence estimator a job runs.
///
/// Almost every experiment uses [`EstimatorChoice::Experiment`] (the
/// experiment picks JRS for gating, BPRU-style otherwise); the estimator
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

    /// Content hash of the simulation point.
    ///
    /// Hashes the canonical (`Debug`) encoding of every input that can
    /// influence the result. The simulator is deterministic, so equal
    /// fingerprints imply bit-identical [`SimReport`]s; the engine relies
    /// on this to dedup repeated points across figures and sweeps.
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
        let builder = Simulator::builder()
            .program(program)
            .config(self.config.clone())
            .power(self.power.clone())
            .experiment(self.experiment.clone())
            .max_instructions(self.instructions);
        let sim = match &self.estimator {
            EstimatorChoice::Experiment => builder.build(),
            EstimatorChoice::Saturating(cfg) => {
                builder.build_with_estimator(Box::new(SaturatingEstimator::new(*cfg)))
            }
            EstimatorChoice::Jrs { bytes } => {
                builder.build_with_estimator(Box::new(JrsEstimator::with_table_bytes(*bytes)))
            }
        };
        sim.run()
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
