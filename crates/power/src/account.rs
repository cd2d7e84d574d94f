//! Energy accumulation and per-instruction attribution.
//!
//! Every in-flight dynamic instruction carries an [`EnergyLedger`] that the
//! pipeline charges with the marginal energy of each activity event the
//! instruction causes (fetch slot, rename slot, window write, ALU op, …).
//! At commit the ledger is credited to the *useful* account; at squash, to
//! the *wasted* account. This reproduces the measurement behind the paper's
//! Table 1 column 2 and the oracle experiments of §3.

use crate::unit::{Unit, UNIT_COUNT};

/// Final fate of a dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrFate {
    /// The instruction committed (its energy was useful work).
    Committed,
    /// The instruction was squashed (its energy was wasted).
    Squashed,
}

/// Per-instruction energy ledger (joules per unit).
///
/// Stored per in-flight instruction; `f32` keeps it at 44 bytes. Ledger
/// values are tiny (nanojoules), far inside `f32` precision.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyLedger {
    joules: [f32; UNIT_COUNT],
}

impl EnergyLedger {
    /// Charges `joules` on `unit` to this instruction.
    pub fn charge(&mut self, unit: Unit, joules: f64) {
        self.joules[unit.index()] += joules as f32;
    }

    /// Total joules attributed to this instruction.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.joules.iter().map(|&j| f64::from(j)).sum()
    }

    /// Joules attributed on one unit.
    #[must_use]
    pub fn on(&self, unit: Unit) -> f64 {
        f64::from(self.joules[unit.index()])
    }

    /// Resets the ledger (for pooled/recycled instruction slots).
    pub fn clear(&mut self) {
        self.joules = [0.0; UNIT_COUNT];
    }
}

/// Whole-run energy account.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyAccount {
    /// Simulated cycles integrated.
    pub cycles: u64,
    /// Total energy per unit (attributed + idle floors + clock).
    pub per_unit: [f64; UNIT_COUNT],
    /// Energy attributed to instructions that committed.
    pub useful: [f64; UNIT_COUNT],
    /// Energy attributed to instructions that squashed.
    pub wasted: [f64; UNIT_COUNT],
}

impl EnergyAccount {
    /// Creates an empty account.
    #[must_use]
    pub fn new() -> EnergyAccount {
        EnergyAccount::default()
    }

    /// Integrates one cycle's per-unit energy
    /// ([`crate::PowerModel::per_unit_energy`]).
    pub fn add_cycle(&mut self, per_unit: &[f64; UNIT_COUNT]) {
        self.cycles += 1;
        for (acc, e) in self.per_unit.iter_mut().zip(per_unit.iter()) {
            *acc += e;
        }
    }

    /// Settles an instruction's ledger into the useful or wasted account.
    pub fn settle(&mut self, ledger: &EnergyLedger, fate: InstrFate) {
        let target = match fate {
            InstrFate::Committed => &mut self.useful,
            InstrFate::Squashed => &mut self.wasted,
        };
        for u in Unit::all() {
            target[u.index()] += ledger.on(u);
        }
    }

    /// Total energy in joules.
    #[must_use]
    pub fn total_energy(&self) -> f64 {
        self.per_unit.iter().sum()
    }

    /// Total attributed (useful + wasted) energy.
    #[must_use]
    pub fn attributed(&self) -> f64 {
        self.useful.iter().sum::<f64>() + self.wasted.iter().sum::<f64>()
    }

    /// Fraction of *attributed* energy that was wasted, per unit. Returns 0
    /// for units with no attributed energy (e.g. the clock).
    #[must_use]
    pub fn wasted_frac_attributed(&self, unit: Unit) -> f64 {
        let u = self.useful[unit.index()];
        let w = self.wasted[unit.index()];
        if u + w == 0.0 {
            0.0
        } else {
            w / (u + w)
        }
    }

    /// Global wasted fraction of attributed energy.
    #[must_use]
    pub fn wasted_frac_global(&self) -> f64 {
        let w: f64 = self.wasted.iter().sum();
        let a = self.attributed();
        if a == 0.0 {
            0.0
        } else {
            w / a
        }
    }

    /// Estimated total energy wasted by mis-speculated instructions on
    /// `unit`, including the unit's pro-rata share of unattributable energy
    /// (idle floor; for the clock, the global attributed split is used).
    /// This is the quantity behind Table 1 column 2.
    #[must_use]
    pub fn wasted_energy_incl_overhead(&self, unit: Unit) -> f64 {
        let frac = if unit == Unit::Clock {
            self.wasted_frac_global()
        } else {
            self.wasted_frac_attributed(unit)
        };
        self.per_unit[unit.index()] * frac
    }

    /// Total wasted energy across units, including prorated overheads.
    #[must_use]
    pub fn total_wasted_incl_overhead(&self) -> f64 {
        Unit::all().iter().map(|&u| self.wasted_energy_incl_overhead(u)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CycleActivity, PowerConfig, PowerModel};

    #[test]
    fn ledger_charge_and_total() {
        let mut l = EnergyLedger::default();
        l.charge(Unit::Alu, 1e-9);
        l.charge(Unit::Alu, 1e-9);
        l.charge(Unit::ICache, 3e-9);
        assert!((l.on(Unit::Alu) - 2e-9).abs() < 1e-15);
        assert!((l.total() - 5e-9).abs() < 1e-15);
        l.clear();
        assert_eq!(l.total(), 0.0);
    }

    #[test]
    fn settle_routes_by_fate() {
        let mut acc = EnergyAccount::new();
        let mut l = EnergyLedger::default();
        l.charge(Unit::Window, 4e-9);
        acc.settle(&l, InstrFate::Committed);
        acc.settle(&l, InstrFate::Squashed);
        acc.settle(&l, InstrFate::Squashed);
        assert!((acc.useful[Unit::Window.index()] - 4e-9).abs() < 1e-15);
        assert!((acc.wasted[Unit::Window.index()] - 8e-9).abs() < 1e-15);
        assert!((acc.wasted_frac_attributed(Unit::Window) - 2.0 / 3.0).abs() < 1e-9);
        assert!((acc.wasted_frac_global() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn add_cycle_integrates_model_energy() {
        let model = PowerModel::new(PowerConfig::paper_default());
        let mut acc = EnergyAccount::new();
        let mut a = CycleActivity::default();
        a.add(Unit::Alu, 4);
        let e = model.cycle_energy(&a);
        acc.add_cycle(&e.per_unit);
        acc.add_cycle(&e.per_unit);
        assert_eq!(acc.cycles, 2);
        assert!((acc.total_energy() - 2.0 * e.total).abs() < 1e-18);
    }

    #[test]
    fn wasted_including_overhead_prorates_clock_globally() {
        let mut acc = EnergyAccount::new();
        acc.per_unit[Unit::Clock.index()] = 10.0;
        acc.per_unit[Unit::Alu.index()] = 5.0;
        let mut l = EnergyLedger::default();
        l.charge(Unit::Alu, 1.0);
        acc.settle(&l, InstrFate::Committed);
        acc.settle(&l, InstrFate::Squashed); // 50% wasted globally and on alu
        let clock_wasted = acc.wasted_energy_incl_overhead(Unit::Clock);
        assert!((clock_wasted - 5.0).abs() < 1e-12);
        let alu_wasted = acc.wasted_energy_incl_overhead(Unit::Alu);
        assert!((alu_wasted - 2.5).abs() < 1e-12);
        assert!((acc.total_wasted_incl_overhead() - 7.5).abs() < 1e-12);
    }

    #[test]
    fn empty_account_is_all_zero() {
        let acc = EnergyAccount::new();
        assert_eq!(acc.total_energy(), 0.0);
        assert_eq!(acc.wasted_frac_global(), 0.0);
        assert_eq!(acc.wasted_frac_attributed(Unit::Alu), 0.0);
    }
}
