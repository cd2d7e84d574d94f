//! The cc3 power model: per-cycle energy from per-unit activity.

use crate::unit::{Unit, UNIT_COUNT};

/// Clock-gating style, after Wattch's `-power:gating` options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClockGating {
    /// No gating: every unit burns its maximum power every cycle (Wattch
    /// cc0). Used as an ablation.
    None,
    /// Wattch cc3: power scales linearly with port usage; inactive or
    /// partially used units still dissipate `idle_frac` of their maximum.
    /// The paper uses `idle_frac = 0.1`.
    Cc3 {
        /// Fraction of maximum power an idle unit still dissipates.
        idle_frac: f64,
    },
}

impl ClockGating {
    /// The paper's configuration (cc3, 10 % idle floor).
    #[must_use]
    pub fn paper_default() -> ClockGating {
        ClockGating::Cc3 { idle_frac: 0.1 }
    }
}

/// Static configuration of the power model.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerConfig {
    /// Peak total power in watts (Table 1: 56.4 W overall).
    pub total_watts: f64,
    /// Clock frequency in Hz (Table 3: 1200 MHz).
    pub frequency_hz: f64,
    /// Per-unit share of `total_watts` (Table 1 column 1); should sum to 1.
    pub shares: [f64; UNIT_COUNT],
    /// Maximum activity events per cycle per unit, used to normalise usage
    /// (events beyond the port count saturate at full power).
    pub ports: [f64; UNIT_COUNT],
    /// Gating style.
    pub gating: ClockGating,
}

impl PowerConfig {
    /// Table 1 shares on the Table 3 machine, with port counts matching the
    /// 8-wide pipeline (Table 3: 8 int ALU, 2 mem ports, 8-wide decode /
    /// issue / commit).
    #[must_use]
    pub fn paper_default() -> PowerConfig {
        let mut shares = [0.0; UNIT_COUNT];
        shares[Unit::ICache.index()] = 0.100;
        shares[Unit::Bpred.index()] = 0.038;
        shares[Unit::Regfile.index()] = 0.016;
        shares[Unit::Rename.index()] = 0.011;
        shares[Unit::Window.index()] = 0.182;
        shares[Unit::Lsq.index()] = 0.019;
        shares[Unit::Alu.index()] = 0.087;
        shares[Unit::DCache.index()] = 0.106;
        shares[Unit::DCache2.index()] = 0.007;
        shares[Unit::ResultBus.index()] = 0.095;
        shares[Unit::Clock.index()] = 0.338;
        // Table 1's printed percentages sum to 99.9%; normalise so the unit
        // shares partition the 56.4 W budget exactly.
        let sum: f64 = shares.iter().sum();
        for s in &mut shares {
            *s /= sum;
        }

        let mut ports = [1.0; UNIT_COUNT];
        ports[Unit::ICache.index()] = 2.0; // up to two line fetches (2 taken branches)
        ports[Unit::Bpred.index()] = 2.0; // two branch predictions per cycle
        ports[Unit::Regfile.index()] = 24.0; // 16 decode reads + 8 commit writes
        ports[Unit::Rename.index()] = 8.0; // 8-wide rename
        ports[Unit::Window.index()] = 24.0; // 8 insert + 8 issue + 8 writeback
        ports[Unit::Lsq.index()] = 4.0; // 2 insert + 2 issue
        ports[Unit::Alu.index()] = 8.0; // FU pool
        ports[Unit::DCache.index()] = 2.0; // 2 memory ports
        ports[Unit::DCache2.index()] = 1.0;
        ports[Unit::ResultBus.index()] = 8.0; // 8 results per cycle
        ports[Unit::Clock.index()] = 1.0; // virtual: usage computed, not counted

        PowerConfig {
            total_watts: 56.4,
            frequency_hz: 1.2e9,
            shares,
            ports,
            gating: ClockGating::paper_default(),
        }
    }

    /// Sets the peak power budget in watts.
    #[must_use]
    pub fn with_total_watts(mut self, watts: f64) -> PowerConfig {
        self.total_watts = watts;
        self
    }

    /// Sets the cc3 idle floor (fraction of maximum power an idle unit
    /// still dissipates). Switches cc0 configurations to cc3.
    #[must_use]
    pub fn with_idle_frac(mut self, idle_frac: f64) -> PowerConfig {
        self.gating = ClockGating::Cc3 { idle_frac };
        self
    }

    /// Maximum energy one unit can spend in one cycle (joules).
    #[must_use]
    pub fn max_cycle_energy(&self, unit: Unit) -> f64 {
        self.total_watts * self.shares[unit.index()] / self.frequency_hz
    }
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig::paper_default()
    }
}

/// Activity event counts for one cycle, per unit. The clock entry is
/// ignored as input (its usage is derived from the other units).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleActivity {
    counts: [u32; UNIT_COUNT],
}

impl CycleActivity {
    /// Adds `n` activity events to `unit`.
    pub fn add(&mut self, unit: Unit, n: u32) {
        self.counts[unit.index()] += n;
    }

    /// Event count for `unit` this cycle.
    #[must_use]
    pub fn count(&self, unit: Unit) -> u32 {
        self.counts[unit.index()]
    }

    /// Clears all counts (reuse the allocation across cycles).
    pub fn clear(&mut self) {
        self.counts = [0; UNIT_COUNT];
    }
}

/// Energy spent in one cycle, total and per unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleEnergy {
    /// Total joules this cycle.
    pub total: f64,
    /// Per-unit joules this cycle.
    pub per_unit: [f64; UNIT_COUNT],
}

/// Event counts below this bound read a unit's cycle energy and
/// share-weighted usage from a table; larger counts (a huge window's
/// writeback burst) evaluate the formula.
const TABLE_COUNTS: usize = 64;

/// The compiled power model.
///
/// All per-unit constants of the cc3 formula (peak cycle energy, active
/// scale, clamped port counts) are precomputed at construction. So is the
/// formula's per-unit result for every event count below 64: a unit's
/// cycle energy and its share-weighted usage depend only on its own
/// count, and the table holds exactly the values the formula returns for
/// each count, so a cycle that reads the table adds the same f64 values
/// in the same order as one that evaluates the formula, and results are
/// bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    config: PowerConfig,
    /// Marginal energy of one activity event, per unit (constant under the
    /// linear cc3 model; zero under cc0 where activity does not matter).
    event_energy: [f64; UNIT_COUNT],
    /// Per-cycle idle-floor energy per unit.
    idle_energy: [f64; UNIT_COUNT],
    /// `max_cycle_energy(u)` per unit.
    max_energy: [f64; UNIT_COUNT],
    /// `max_cycle_energy(u) * (1 - idle_frac)` per unit (cc3 active part).
    active_scale: [f64; UNIT_COUNT],
    /// `ports[u].max(1.0)` per unit.
    ports_clamped: [f64; UNIT_COUNT],
    /// Sum of non-clock shares (the clock-usage weight denominator),
    /// accumulated in `Unit::all()` order exactly as the per-cycle loop
    /// used to, so the precomputed value is bit-identical.
    weight_sum: f64,
    /// `(cycle energy, share × usage)` per unit and event count below
    /// `TABLE_COUNTS`, at `unit.index() * TABLE_COUNTS + count`. The
    /// clock's rows are unused: its energy follows the other units.
    table: Vec<(f64, f64)>,
}

impl PowerModel {
    /// Compiles a configuration into per-event and idle energies.
    #[must_use]
    pub fn new(config: PowerConfig) -> PowerModel {
        let mut event_energy = [0.0; UNIT_COUNT];
        let mut idle_energy = [0.0; UNIT_COUNT];
        let mut max_energy = [0.0; UNIT_COUNT];
        let mut active_scale = [0.0; UNIT_COUNT];
        let mut ports_clamped = [1.0; UNIT_COUNT];
        for u in Unit::all() {
            let emax = config.max_cycle_energy(u);
            max_energy[u.index()] = emax;
            ports_clamped[u.index()] = config.ports[u.index()].max(1.0);
            match config.gating {
                ClockGating::None => {
                    event_energy[u.index()] = 0.0;
                    idle_energy[u.index()] = emax;
                }
                ClockGating::Cc3 { idle_frac } => {
                    event_energy[u.index()] =
                        emax * (1.0 - idle_frac) / config.ports[u.index()].max(1.0);
                    idle_energy[u.index()] = emax * idle_frac;
                    active_scale[u.index()] = emax * (1.0 - idle_frac);
                }
            }
        }
        let mut weight_sum = 0.0;
        for u in Unit::all() {
            if u != Unit::Clock {
                weight_sum += config.shares[u.index()];
            }
        }
        let mut model = PowerModel {
            config,
            event_energy,
            idle_energy,
            max_energy,
            active_scale,
            ports_clamped,
            weight_sum,
            table: Vec::new(),
        };
        model.table = Unit::all()
            .into_iter()
            .flat_map(|u| (0..TABLE_COUNTS as u32).map(move |count| (u, count)))
            .map(|(u, count)| model.unit_cycle(u, count))
            .collect();
        model
    }

    /// The underlying configuration.
    #[must_use]
    pub fn config(&self) -> &PowerConfig {
        &self.config
    }

    /// Marginal energy (joules) of one activity event on `unit`; this is
    /// what the pipeline charges to the owning instruction's ledger.
    #[must_use]
    pub fn event_energy(&self, unit: Unit) -> f64 {
        self.event_energy[unit.index()]
    }

    /// Usage fraction of a unit given its event count this cycle.
    ///
    /// Fast paths: an idle unit is exactly `0.0` and a saturated one
    /// exactly `1.0` — the same values `(count/ports).min(1.0)` produces
    /// (port counts exceed any integer count strictly below them by at
    /// least 1, so the quotient cannot round up to 1.0) — leaving the
    /// division for genuinely partial usage only.
    fn usage(&self, unit: Unit, count: u32) -> f64 {
        if count == 0 {
            return 0.0;
        }
        let ports = self.ports_clamped[unit.index()];
        let count = f64::from(count);
        if count >= ports {
            return 1.0;
        }
        (count / ports).min(1.0)
    }

    /// One non-clock unit's cycle energy and share-weighted usage at
    /// `count` events: the formula behind the table.
    fn unit_cycle(&self, unit: Unit, count: u32) -> (f64, f64) {
        let usage = self.usage(unit, count);
        let weighted = self.config.shares[unit.index()] * usage;
        let energy = match self.config.gating {
            ClockGating::Cc3 { .. } => {
                self.idle_energy[unit.index()] + self.active_scale[unit.index()] * usage
            }
            ClockGating::None => self.idle_energy[unit.index()],
        };
        (energy, weighted)
    }

    /// The per-unit cycle energies for one cycle's activity.
    ///
    /// The clock unit's usage is the share-weighted mean usage of all other
    /// units, reflecting that under cc3 the clock tree's load is the sum of
    /// the clocked (ungated) regions.
    #[must_use]
    pub fn per_unit_energy(&self, activity: &CycleActivity) -> [f64; UNIT_COUNT] {
        let mut per_unit = [0.0; UNIT_COUNT];
        let mut weighted_usage = 0.0;
        for u in Unit::all() {
            if u == Unit::Clock {
                continue;
            }
            let count = activity.count(u);
            let (energy, weighted) = if (count as usize) < TABLE_COUNTS {
                self.table[u.index() * TABLE_COUNTS + count as usize]
            } else {
                self.unit_cycle(u, count)
            };
            weighted_usage += weighted;
            per_unit[u.index()] = energy;
        }
        let clock_usage =
            if self.weight_sum > 0.0 { weighted_usage / self.weight_sum } else { 0.0 };
        per_unit[Unit::Clock.index()] = match self.config.gating {
            ClockGating::None => self.idle_energy[Unit::Clock.index()],
            ClockGating::Cc3 { idle_frac } => {
                self.max_energy[Unit::Clock.index()] * (idle_frac + (1.0 - idle_frac) * clock_usage)
            }
        };
        per_unit
    }

    /// Energy spent this cycle under the configured gating style.
    #[must_use]
    pub fn cycle_energy(&self, activity: &CycleActivity) -> CycleEnergy {
        let per_unit = self.per_unit_energy(activity);
        CycleEnergy { total: per_unit.iter().sum(), per_unit }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::new(PowerConfig::paper_default())
    }

    #[test]
    fn shares_sum_to_one() {
        let c = PowerConfig::paper_default();
        let sum: f64 = c.shares.iter().sum();
        assert!((sum - 0.999).abs() < 0.01, "shares sum {sum}");
    }

    #[test]
    fn idle_cycle_costs_ten_percent() {
        let m = model();
        let idle = m.cycle_energy(&CycleActivity::default());
        let peak_cycle = 56.4 / 1.2e9;
        assert!((idle.total / peak_cycle - 0.1).abs() < 1e-6, "idle fraction");
    }

    #[test]
    fn full_activity_reaches_peak() {
        let m = model();
        let mut a = CycleActivity::default();
        for u in Unit::all() {
            a.add(u, 100); // saturate every port
        }
        let e = m.cycle_energy(&a);
        let peak_cycle = 56.4 / 1.2e9;
        assert!((e.total - peak_cycle).abs() / peak_cycle < 1e-9, "full usage = peak");
    }

    #[test]
    fn energy_scales_linearly_with_usage() {
        let m = model();
        let mut a1 = CycleActivity::default();
        a1.add(Unit::Alu, 2);
        let mut a2 = CycleActivity::default();
        a2.add(Unit::Alu, 4);
        let idle = m.cycle_energy(&CycleActivity::default()).total;
        let e1 = m.cycle_energy(&a1).total - idle;
        let e2 = m.cycle_energy(&a2).total - idle;
        assert!((e2 / e1 - 2.0).abs() < 1e-9, "ratio {}", e2 / e1);
    }

    #[test]
    fn usage_saturates_at_port_count() {
        let m = model();
        let mut a1 = CycleActivity::default();
        a1.add(Unit::DCache, 2);
        let mut a2 = CycleActivity::default();
        a2.add(Unit::DCache, 20);
        let e1 = m.cycle_energy(&a1).per_unit[Unit::DCache.index()];
        let e2 = m.cycle_energy(&a2).per_unit[Unit::DCache.index()];
        assert!((e1 - e2).abs() < 1e-18, "saturated at 2 ports");
    }

    #[test]
    fn event_energy_matches_marginal_cycle_energy() {
        let m = model();
        let idle = m.cycle_energy(&CycleActivity::default()).total;
        let mut a = CycleActivity::default();
        a.add(Unit::Rename, 1);
        let marginal = m.cycle_energy(&a).per_unit[Unit::Rename.index()]
            - m.cycle_energy(&CycleActivity::default()).per_unit[Unit::Rename.index()];
        assert!((marginal - m.event_energy(Unit::Rename)).abs() < 1e-18);
        // Clock also rises with activity.
        assert!(m.cycle_energy(&a).total - idle > marginal);
    }

    #[test]
    fn cc0_ignores_activity() {
        let cfg = PowerConfig { gating: ClockGating::None, ..PowerConfig::paper_default() };
        let m = PowerModel::new(cfg);
        let idle = m.cycle_energy(&CycleActivity::default()).total;
        let mut a = CycleActivity::default();
        a.add(Unit::Alu, 8);
        let busy = m.cycle_energy(&a).total;
        assert!((idle - busy).abs() < 1e-18);
        let peak_cycle = 56.4 / 1.2e9;
        assert!((idle - peak_cycle).abs() / peak_cycle < 1e-9);
        assert_eq!(m.event_energy(Unit::Alu), 0.0);
    }

    #[test]
    fn knob_setters_rescale_the_model() {
        let cfg = PowerConfig::paper_default().with_total_watts(28.2).with_idle_frac(0.2);
        assert_eq!(cfg.total_watts, 28.2);
        assert_eq!(cfg.gating, ClockGating::Cc3 { idle_frac: 0.2 });
        let m = PowerModel::new(cfg);
        let idle = m.cycle_energy(&CycleActivity::default());
        let peak_cycle = 28.2 / 1.2e9;
        assert!((idle.total / peak_cycle - 0.2).abs() < 1e-6, "idle floor follows the knob");
        // cc0 flips back to cc3 through the setter.
        let cc0 = PowerConfig { gating: ClockGating::None, ..PowerConfig::paper_default() };
        assert_eq!(cc0.with_idle_frac(0.1).gating, ClockGating::paper_default());
    }

    #[test]
    fn activity_add_and_clear() {
        let mut a = CycleActivity::default();
        a.add(Unit::Lsq, 3);
        a.add(Unit::Lsq, 1);
        assert_eq!(a.count(Unit::Lsq), 4);
        a.clear();
        assert_eq!(a, CycleActivity::default());
    }

    /// The per-cycle formula the table replaced, evaluated in full for
    /// every unit and every cycle.
    fn formula_per_unit(m: &PowerModel, activity: &CycleActivity) -> [f64; UNIT_COUNT] {
        let mut per_unit = [0.0; UNIT_COUNT];
        let mut weighted_usage = 0.0;
        let cc3 = matches!(m.config.gating, ClockGating::Cc3 { .. });
        for u in Unit::all() {
            if u == Unit::Clock {
                continue;
            }
            let usage = m.usage(u, activity.count(u));
            let share = m.config.shares[u.index()];
            weighted_usage += share * usage;
            per_unit[u.index()] = if cc3 {
                m.idle_energy[u.index()] + m.active_scale[u.index()] * usage
            } else {
                m.idle_energy[u.index()]
            };
        }
        let clock_usage = if m.weight_sum > 0.0 { weighted_usage / m.weight_sum } else { 0.0 };
        per_unit[Unit::Clock.index()] = match m.config.gating {
            ClockGating::None => m.idle_energy[Unit::Clock.index()],
            ClockGating::Cc3 { idle_frac } => {
                m.max_energy[Unit::Clock.index()] * (idle_frac + (1.0 - idle_frac) * clock_usage)
            }
        };
        per_unit
    }

    #[test]
    fn table_and_memo_match_the_formula_bit_for_bit() {
        let bits = |a: &[f64; UNIT_COUNT]| a.map(f64::to_bits);
        let mut fractional = PowerConfig::paper_default();
        for (i, p) in fractional.ports.iter_mut().enumerate() {
            *p = [0.5, 1.5, 2.75, 7.3, 23.9][i % 5];
        }
        let mut huge = PowerConfig::paper_default();
        huge.ports = [1e9; UNIT_COUNT];
        for base in [PowerConfig::paper_default(), fractional, huge] {
            for gating in [ClockGating::paper_default(), ClockGating::None] {
                let m = PowerModel::new(PowerConfig { gating, ..base.clone() });
                // One unit busy at each count up to and past the table,
                // then every unit busy at once, with the counts staggered.
                let mut activities = Vec::new();
                for count in 0..=TABLE_COUNTS as u32 {
                    for u in Unit::all() {
                        let mut a = CycleActivity::default();
                        a.add(u, count);
                        activities.push(a);
                    }
                    let mut a = CycleActivity::default();
                    for u in Unit::all() {
                        a.add(u, (count + 7 * u.index() as u32) % (TABLE_COUNTS as u32 + 6));
                    }
                    activities.push(a);
                    activities.push(a); // a repeat, as a stalled cycle
                }
                // The memo of `Core::end_cycle`: recompute on change only.
                let mut memo_account = crate::EnergyAccount::new();
                let mut formula_account = crate::EnergyAccount::new();
                let mut last = CycleActivity::default();
                let mut last_energy = m.per_unit_energy(&last);
                for a in &activities {
                    let formula = formula_per_unit(&m, a);
                    assert_eq!(bits(&m.per_unit_energy(a)), bits(&formula), "{gating:?} {a:?}");
                    if *a != last {
                        last_energy = m.per_unit_energy(a);
                        last = *a;
                    }
                    memo_account.add_cycle(&last_energy);
                    formula_account.add_cycle(&formula);
                }
                assert_eq!(bits(&memo_account.per_unit), bits(&formula_account.per_unit));
            }
        }
    }

    #[test]
    fn clock_usage_tracks_other_units() {
        let m = model();
        let mut a = CycleActivity::default();
        for u in Unit::all() {
            if u != Unit::Clock {
                a.add(u, 100);
            }
        }
        let e = m.cycle_energy(&a);
        let clock_max = m.config().max_cycle_energy(Unit::Clock);
        assert!((e.per_unit[Unit::Clock.index()] - clock_max).abs() < 1e-18);
    }
}
