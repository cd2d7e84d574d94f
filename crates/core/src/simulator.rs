//! High-level simulation facade and the paper's comparison metrics.

use std::sync::Arc;

use st_bpred::{ConfidenceStats, PredictorStats};
use st_isa::{Program, WorkloadSpec};
use st_pipeline::{Core, CoreBuilder, MemSummary, PerfStats, PipelineConfig};
use st_power::{savings_pct, EnergyReport, PowerConfig};

use crate::experiments::{self, Experiment};

/// Result of one simulation run, tagged with what produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Workload name.
    pub workload: String,
    /// Experiment id ("BASE", "A5", "C2", …).
    pub experiment: String,
    /// Experiment legend label.
    pub label: String,
    /// Performance counters.
    pub perf: PerfStats,
    /// Energy accounting.
    pub energy: EnergyReport,
    /// Committed-branch direction-prediction accuracy.
    pub bpred: PredictorStats,
    /// Confidence quality (SPEC/PVN) over committed branches.
    pub conf: ConfidenceStats,
    /// Cache/TLB summary.
    pub mem: MemSummary,
}

impl SimReport {
    /// Committed IPC.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.perf.ipc()
    }
}

/// Builder for [`Simulator`] (C-BUILDER).
#[derive(Debug)]
pub struct SimulatorBuilder {
    workload: Option<WorkloadSpec>,
    program: Option<Arc<Program>>,
    config: PipelineConfig,
    power: PowerConfig,
    experiment: Experiment,
    max_instructions: u64,
}

impl SimulatorBuilder {
    /// Sets the workload whose program will be generated and simulated.
    #[must_use]
    pub fn workload(mut self, spec: WorkloadSpec) -> SimulatorBuilder {
        self.workload = Some(spec);
        self
    }

    /// Uses a pre-built program instead of generating one from a workload
    /// spec (takes precedence over [`SimulatorBuilder::workload`]). Pass
    /// an `Arc<Program>` to run one generated program under several
    /// simulators without copying it.
    #[must_use]
    pub fn program(mut self, program: impl Into<Arc<Program>>) -> SimulatorBuilder {
        self.program = Some(program.into());
        self
    }

    /// Sets the pipeline configuration (default: the paper's Table 3,
    /// 14 stages).
    #[must_use]
    pub fn config(mut self, config: PipelineConfig) -> SimulatorBuilder {
        self.config = config;
        self
    }

    /// Sets the power-model configuration (default: Table 1 shares, cc3).
    #[must_use]
    pub fn power(mut self, power: PowerConfig) -> SimulatorBuilder {
        self.power = power;
        self
    }

    /// Selects the experiment (default: unthrottled baseline).
    #[must_use]
    pub fn experiment(mut self, experiment: Experiment) -> SimulatorBuilder {
        self.experiment = experiment;
        self
    }

    /// Sets the dynamic instruction budget (default 100 000).
    #[must_use]
    pub fn max_instructions(mut self, n: u64) -> SimulatorBuilder {
        self.max_instructions = n;
        self
    }

    /// Builds the simulator.
    ///
    /// # Panics
    ///
    /// Panics if neither a workload nor a program was supplied, or the
    /// pipeline configuration is invalid.
    #[must_use]
    pub fn build(self) -> Simulator {
        let estimator = self.experiment.make_estimator(self.config.estimator_bytes);
        self.build_with_estimator(estimator)
    }

    /// Builds the simulator with an explicit confidence estimator
    /// (estimator ablation studies; normally the experiment chooses).
    ///
    /// # Panics
    ///
    /// Panics if neither a workload nor a program was supplied, or the
    /// pipeline configuration is invalid.
    #[must_use]
    pub fn build_with_estimator(
        self,
        estimator: Box<dyn st_bpred::ConfidenceEstimator>,
    ) -> Simulator {
        let program = match (self.program, &self.workload) {
            (Some(p), _) => p,
            (None, Some(w)) => Arc::new(w.generate()),
            (None, None) => panic!("SimulatorBuilder needs a workload or a program"),
        };
        let workload_name = program.name().to_string();
        let controller = self.experiment.make_controller();
        let core = CoreBuilder::shared(program)
            .config(self.config)
            .power(self.power)
            .estimator(estimator)
            .controller(controller)
            .build();
        Simulator {
            core,
            max_instructions: self.max_instructions,
            workload_name,
            experiment_id: self.experiment.id.to_string(),
            experiment_label: self.experiment.label.to_string(),
        }
    }
}

/// A configured, ready-to-run simulation.
#[derive(Debug)]
pub struct Simulator {
    core: Core,
    max_instructions: u64,
    workload_name: String,
    experiment_id: String,
    experiment_label: String,
}

impl Simulator {
    /// Starts building a simulator.
    #[must_use]
    pub fn builder() -> SimulatorBuilder {
        SimulatorBuilder {
            workload: None,
            program: None,
            config: PipelineConfig::paper_default(),
            power: PowerConfig::paper_default(),
            experiment: experiments::baseline(),
            max_instructions: 100_000,
        }
    }

    /// Runs `instructions` *more* committed instructions and returns the
    /// accumulated result snapshot. Incremental: repeated calls extend the
    /// same machine state, which is how `st bench` separates cache/
    /// predictor warm-up from its measured steady-state segment.
    pub fn run_for(&mut self, instructions: u64) -> st_pipeline::core::SimResult {
        self.core.run(instructions)
    }

    /// Simulated cycles so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.core.cycle()
    }

    /// Runs the simulation to its instruction budget.
    #[must_use]
    pub fn run(mut self) -> SimReport {
        let r = self.core.run(self.max_instructions);
        SimReport {
            workload: self.workload_name,
            experiment: self.experiment_id,
            label: self.experiment_label,
            perf: r.perf,
            energy: r.energy,
            bpred: r.bpred,
            conf: r.conf,
            mem: r.mem,
        }
    }

    /// Access to the underlying core (diagnostics; prefer [`Simulator::run`]).
    #[must_use]
    pub fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }
}

/// The paper's four comparison metrics between a baseline run and a
/// throttled/oracle run of the *same workload and instruction budget*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Relative performance (`baseline cycles / variant cycles`); 1.0 means
    /// unchanged, below 1.0 is a slowdown. This is the "Speedup" axis of
    /// Figures 3–5.
    pub speedup: f64,
    /// Average-power saving in percent.
    pub power_savings_pct: f64,
    /// Energy saving in percent.
    pub energy_savings_pct: f64,
    /// Energy-delay improvement in percent.
    pub ed_improvement_pct: f64,
    /// Energy-delay² improvement in percent.
    pub ed2_improvement_pct: f64,
}

/// Computes the paper's comparison metrics.
///
/// # Panics
///
/// Panics (debug builds) if the two reports ran different workloads —
/// cross-workload comparisons are experiment bugs.
#[must_use]
pub fn compare(baseline: &SimReport, variant: &SimReport) -> Comparison {
    debug_assert_eq!(baseline.workload, variant.workload, "cross-workload comparison");
    Comparison {
        speedup: baseline.perf.cycles as f64 / variant.perf.cycles.max(1) as f64,
        power_savings_pct: savings_pct(baseline.energy.avg_power(), variant.energy.avg_power()),
        energy_savings_pct: savings_pct(baseline.energy.energy, variant.energy.energy),
        ed_improvement_pct: savings_pct(
            baseline.energy.energy_delay(),
            variant.energy.energy_delay(),
        ),
        ed2_improvement_pct: savings_pct(
            baseline.energy.energy_delay2(),
            variant.energy.energy_delay2(),
        ),
    }
}

/// Arithmetic mean of comparisons (the paper reports per-benchmark bars
/// plus an "Average" bar computed this way).
#[must_use]
pub fn average_comparison(comparisons: &[Comparison]) -> Comparison {
    let n = comparisons.len().max(1) as f64;
    let mut acc = Comparison {
        speedup: 0.0,
        power_savings_pct: 0.0,
        energy_savings_pct: 0.0,
        ed_improvement_pct: 0.0,
        ed2_improvement_pct: 0.0,
    };
    for c in comparisons {
        acc.speedup += c.speedup;
        acc.power_savings_pct += c.power_savings_pct;
        acc.energy_savings_pct += c.energy_savings_pct;
        acc.ed_improvement_pct += c.ed_improvement_pct;
        acc.ed2_improvement_pct += c.ed2_improvement_pct;
    }
    Comparison {
        speedup: acc.speedup / n,
        power_savings_pct: acc.power_savings_pct / n,
        energy_savings_pct: acc.energy_savings_pct / n,
        ed_improvement_pct: acc.ed_improvement_pct / n,
        ed2_improvement_pct: acc.ed2_improvement_pct / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments;

    fn workload(seed: u64) -> WorkloadSpec {
        WorkloadSpec::builder("sim-test").seed(seed).blocks(256).build()
    }

    fn run(seed: u64, e: Experiment, n: u64) -> SimReport {
        Simulator::builder()
            .workload(workload(seed))
            .experiment(e)
            .max_instructions(n)
            .build()
            .run()
    }

    #[test]
    fn baseline_run_produces_tagged_report() {
        let r = run(1, experiments::baseline(), 5_000);
        assert_eq!(r.workload, "sim-test");
        assert_eq!(r.experiment, "BASE");
        assert!(r.perf.committed >= 5_000);
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn throttled_run_saves_energy_vs_baseline() {
        let base = run(2, experiments::baseline(), 20_000);
        let c2 = run(2, experiments::c2(), 20_000);
        let cmp = compare(&base, &c2);
        assert!(cmp.energy_savings_pct > 0.0, "C2 must save energy: {cmp:?}");
        assert!(cmp.speedup <= 1.02, "throttling cannot speed things up materially");
        assert!(cmp.speedup > 0.7, "C2 must not devastate performance: {cmp:?}");
    }

    #[test]
    fn gating_run_gates() {
        let r = run(3, experiments::a7(), 10_000);
        assert!(r.perf.fetch_gated_cycles > 0, "pipeline gating must gate");
    }

    #[test]
    fn selection_throttling_blocks_selections() {
        let r = run(4, experiments::c2(), 10_000);
        assert!(r.perf.selection_blocked > 0, "no-select must block selections");
    }

    #[test]
    fn oracle_modes_order_energy_sensibly() {
        let base = run(5, experiments::baseline(), 15_000);
        let of = run(5, experiments::oracle_fetch(), 15_000);
        let od = run(5, experiments::oracle_decode(), 15_000);
        let os = run(5, experiments::oracle_select(), 15_000);
        let e_of = compare(&base, &of).energy_savings_pct;
        let e_od = compare(&base, &od).energy_savings_pct;
        let e_os = compare(&base, &os).energy_savings_pct;
        assert!(e_of > e_od, "oracle fetch saves more than oracle decode ({e_of} vs {e_od})");
        assert!(e_od > e_os, "oracle decode saves more than oracle select ({e_od} vs {e_os})");
        assert!(e_os > 0.0, "oracle select still saves energy ({e_os})");
    }

    #[test]
    fn comparison_math() {
        let base = run(6, experiments::baseline(), 5_000);
        let same = compare(&base, &base);
        assert!((same.speedup - 1.0).abs() < 1e-12);
        assert!(same.energy_savings_pct.abs() < 1e-9);
        assert!(same.ed_improvement_pct.abs() < 1e-9);
    }

    #[test]
    fn average_comparison_averages() {
        let a = Comparison {
            speedup: 1.0,
            power_savings_pct: 10.0,
            energy_savings_pct: 10.0,
            ed_improvement_pct: 10.0,
            ed2_improvement_pct: 10.0,
        };
        let b = Comparison {
            speedup: 0.9,
            power_savings_pct: 20.0,
            energy_savings_pct: 30.0,
            ed_improvement_pct: 0.0,
            ed2_improvement_pct: -10.0,
        };
        let avg = average_comparison(&[a, b]);
        assert!((avg.speedup - 0.95).abs() < 1e-12);
        assert!((avg.power_savings_pct - 15.0).abs() < 1e-12);
        assert!((avg.energy_savings_pct - 20.0).abs() < 1e-12);
        assert!((avg.ed_improvement_pct - 5.0).abs() < 1e-12);
        assert!((avg.ed2_improvement_pct - 0.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "needs a workload or a program")]
    fn builder_requires_input() {
        let _ = Simulator::builder().build();
    }

    #[test]
    fn shared_program_matches_generated_runs() {
        // One program under four simulators, with divergent budgets,
        // reports exactly what a per-run generation does.
        let program = Arc::new(workload(7).generate());
        for (e, n) in [
            (experiments::baseline(), 8_000),
            (experiments::c2(), 3_000),
            (experiments::a7(), 8_000),
            (experiments::oracle_fetch(), 1_000),
        ] {
            let shared = Simulator::builder()
                .program(Arc::clone(&program))
                .experiment(e.clone())
                .max_instructions(n)
                .build()
                .run();
            assert_eq!(shared, run(7, e, n));
        }
    }
}
