//! Run-level energy reporting and the paper's comparison metrics.
//!
//! §5.1 of the paper defines the evaluation metrics: IPC, average
//! instantaneous power (W), energy (J), and the energy-delay product (J·s),
//! with E·D preferred for high-performance systems and plain energy for
//! battery-bound systems.

use crate::account::EnergyAccount;
use crate::unit::{Unit, UNIT_COUNT};

/// Summary of one simulation's power/energy behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Clock frequency used to convert cycles to seconds.
    pub frequency_hz: f64,
    /// Total energy (J).
    pub energy: f64,
    /// Per-unit energy (J).
    pub per_unit: [f64; UNIT_COUNT],
    /// Per-unit wasted energy including prorated overheads (J).
    pub wasted_per_unit: [f64; UNIT_COUNT],
}

impl EnergyReport {
    /// Builds a report from an account.
    #[must_use]
    pub fn from_account(
        account: &EnergyAccount,
        committed: u64,
        frequency_hz: f64,
    ) -> EnergyReport {
        let mut wasted = [0.0; UNIT_COUNT];
        for u in Unit::all() {
            wasted[u.index()] = account.wasted_energy_incl_overhead(u);
        }
        EnergyReport {
            cycles: account.cycles,
            committed,
            frequency_hz,
            energy: account.total_energy(),
            per_unit: account.per_unit,
            wasted_per_unit: wasted,
        }
    }

    /// Execution time in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / self.frequency_hz
    }

    /// Committed instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Average instantaneous power in watts.
    #[must_use]
    pub fn avg_power(&self) -> f64 {
        let s = self.seconds();
        if s == 0.0 {
            0.0
        } else {
            self.energy / s
        }
    }

    /// Energy-delay product (J·s).
    #[must_use]
    pub fn energy_delay(&self) -> f64 {
        self.energy * self.seconds()
    }

    /// Energy-delay² product (J·s²), a common deep-pipeline metric.
    #[must_use]
    pub fn energy_delay2(&self) -> f64 {
        self.energy * self.seconds() * self.seconds()
    }

    /// Fraction of total energy wasted by mis-speculated instructions.
    #[must_use]
    pub fn wasted_frac(&self) -> f64 {
        if self.energy == 0.0 {
            0.0
        } else {
            self.wasted_per_unit.iter().sum::<f64>() / self.energy
        }
    }

    /// Share of total energy spent in `unit`.
    #[must_use]
    pub fn unit_share(&self, unit: Unit) -> f64 {
        if self.energy == 0.0 {
            0.0
        } else {
            self.per_unit[unit.index()] / self.energy
        }
    }

    /// Fraction of *total* energy wasted by mis-speculation in `unit`
    /// (Table 1 column 2 semantics: per-unit waste over overall energy).
    #[must_use]
    pub fn unit_wasted_of_total(&self, unit: Unit) -> f64 {
        if self.energy == 0.0 {
            0.0
        } else {
            self.wasted_per_unit[unit.index()] / self.energy
        }
    }
}

/// Percentage saving of `new` relative to `baseline` (positive = improved,
/// i.e. `new` is smaller). The paper reports all power/energy/E-D results
/// this way.
#[must_use]
pub fn savings_pct(baseline: f64, new: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (1.0 - new / baseline) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::{EnergyAccount, EnergyLedger, InstrFate};
    use crate::model::{CycleActivity, PowerConfig, PowerModel};

    fn sample_report() -> EnergyReport {
        let model = PowerModel::new(PowerConfig::paper_default());
        let mut acc = EnergyAccount::new();
        let mut a = CycleActivity::default();
        a.add(Unit::Alu, 4);
        a.add(Unit::ICache, 1);
        for _ in 0..1000 {
            acc.add_cycle(&model.per_unit_energy(&a));
        }
        let mut l = EnergyLedger::default();
        l.charge(Unit::Alu, model.event_energy(Unit::Alu));
        for i in 0..100 {
            acc.settle(&l, if i % 4 == 0 { InstrFate::Squashed } else { InstrFate::Committed });
        }
        EnergyReport::from_account(&acc, 800, 1.2e9)
    }

    #[test]
    fn basic_metrics() {
        let r = sample_report();
        assert_eq!(r.cycles, 1000);
        assert!((r.ipc() - 0.8).abs() < 1e-12);
        assert!(r.seconds() > 0.0);
        assert!(r.avg_power() > 0.0 && r.avg_power() < 56.4);
        assert!(r.energy_delay() > 0.0);
        assert!(r.energy_delay2() < r.energy_delay(), "seconds < 1");
    }

    #[test]
    fn power_is_energy_over_time() {
        let r = sample_report();
        assert!((r.avg_power() - r.energy / r.seconds()).abs() < 1e-12);
    }

    #[test]
    fn wasted_fraction_reflects_squash_rate() {
        let r = sample_report();
        // 25% of attributed ALU energy squashed; waste fraction must be
        // positive but well below 100%.
        assert!(r.wasted_frac() > 0.0 && r.wasted_frac() < 0.5);
        assert!(r.unit_wasted_of_total(Unit::Alu) > 0.0);
        assert_eq!(r.unit_wasted_of_total(Unit::Lsq), 0.0);
    }

    #[test]
    fn unit_shares_sum_to_one() {
        let r = sample_report();
        let sum: f64 = Unit::all().iter().map(|&u| r.unit_share(u)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn savings_pct_signs() {
        assert!((savings_pct(10.0, 9.0) - 10.0).abs() < 1e-12);
        assert!(savings_pct(10.0, 11.0) < 0.0);
        assert_eq!(savings_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn empty_report_is_finite() {
        let acc = EnergyAccount::new();
        let r = EnergyReport::from_account(&acc, 0, 1.2e9);
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.avg_power(), 0.0);
        assert_eq!(r.wasted_frac(), 0.0);
    }
}
