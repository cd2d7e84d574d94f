//! Branch direction predictors.
//!
//! [`Gshare`] is the paper's underlying predictor (8 KB by default,
//! sensitivity-swept from 4 KB to 32 KB in Figure 7). [`Bimodal`],
//! [`Combining`] and [`StaticTaken`] provide baselines and ablations.

use st_isa::Pc;

use crate::counter::SatCounter;

/// Outcome of a direction prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Whether the supplying counter was in a weak state. The paper's §4.3
    /// fallback rule maps weak counters to low confidence when the
    /// confidence table misses.
    pub weak: bool,
}

/// A dynamic branch direction predictor.
///
/// Implementations are table-based and cheap to query. The *global history*
/// is owned by the pipeline (it must be speculatively updated and repaired
/// on squash), so both `predict` and `update` receive the history value that
/// was live at prediction time.
pub trait DirectionPredictor: std::fmt::Debug + Send {
    /// Predicts the direction of the branch at `pc` under `history`.
    fn predict(&self, pc: Pc, history: u64) -> Prediction;

    /// Trains the predictor with the resolved outcome. `predicted_taken` is
    /// the direction that was predicted for this instance (needed by
    /// chooser-based predictors).
    fn update(&mut self, pc: Pc, history: u64, taken: bool, predicted_taken: bool);

    /// Number of global-history bits the predictor consumes.
    fn history_bits(&self) -> u8;

    /// Hardware budget of the prediction tables in bytes.
    fn table_bytes(&self) -> usize;

    /// Human-readable name for reports.
    fn name(&self) -> &str;
}

fn index_bits(entries: usize) -> u8 {
    debug_assert!(entries.is_power_of_two());
    entries.trailing_zeros() as u8
}

/// gshare (McFarling 1993): a table of 2-bit counters indexed by
/// `PC ⊕ global history`.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<SatCounter>,
    mask: u64,
    hist_bits: u8,
}

impl Gshare {
    /// Default cap on the global-history length. Capping history below the
    /// index width (and XOR-folding the PC over the full index) trades a
    /// little correlation reach for far less context dilution; it also
    /// gives the monotone accuracy-vs-size scaling the paper's Figure 7
    /// relies on.
    pub const DEFAULT_HISTORY_CAP: u8 = 12;

    /// Creates a gshare predictor with `entries` 2-bit counters and the
    /// default history cap.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or is zero.
    #[must_use]
    pub fn new(entries: usize) -> Gshare {
        Gshare::with_history_limit(entries, Gshare::DEFAULT_HISTORY_CAP)
    }

    /// Creates a gshare predictor with an explicit history-length cap.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or is zero.
    #[must_use]
    pub fn with_history_limit(entries: usize, history_cap: u8) -> Gshare {
        assert!(entries.is_power_of_two() && entries > 0, "entries must be a power of two");
        // Counters start weakly taken (SimpleScalar's bimod/gshare init):
        // integer branch streams are taken-heavy, so this halves the
        // cold-context tax of large, sparsely trained tables.
        Gshare {
            table: vec![SatCounter::with_value(2, 2); entries],
            mask: entries as u64 - 1,
            hist_bits: index_bits(entries).min(history_cap),
        }
    }

    /// Creates a gshare predictor with a `bytes` hardware budget
    /// (4 counters per byte). The paper's default is 8 KB ⇒ 32 K entries.
    ///
    /// # Panics
    ///
    /// Panics if `bytes * 4` is not a power of two or is zero.
    #[must_use]
    pub fn with_table_bytes(bytes: usize) -> Gshare {
        Gshare::new(bytes * 4)
    }

    fn index(&self, pc: Pc, history: u64) -> usize {
        (((pc.addr() >> 2) ^ history) & self.mask) as usize
    }
}

impl DirectionPredictor for Gshare {
    fn predict(&self, pc: Pc, history: u64) -> Prediction {
        let c = &self.table[self.index(pc, history)];
        Prediction { taken: c.taken(), weak: c.is_weak() }
    }

    fn update(&mut self, pc: Pc, history: u64, taken: bool, _predicted_taken: bool) {
        let idx = self.index(pc, history);
        self.table[idx].train(taken);
    }

    fn history_bits(&self) -> u8 {
        self.hist_bits
    }

    fn table_bytes(&self) -> usize {
        self.table.len() / 4
    }

    fn name(&self) -> &str {
        "gshare"
    }
}

/// Bimodal predictor: 2-bit counters indexed by PC alone.
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<SatCounter>,
    mask: u64,
}

impl Bimodal {
    /// Creates a bimodal predictor with `entries` 2-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or is zero.
    #[must_use]
    pub fn new(entries: usize) -> Bimodal {
        assert!(entries.is_power_of_two() && entries > 0, "entries must be a power of two");
        Bimodal { table: vec![SatCounter::with_value(2, 2); entries], mask: entries as u64 - 1 }
    }

    /// Creates a bimodal predictor with a `bytes` budget (4 counters/byte).
    #[must_use]
    pub fn with_table_bytes(bytes: usize) -> Bimodal {
        Bimodal::new(bytes * 4)
    }

    fn index(&self, pc: Pc) -> usize {
        ((pc.addr() >> 2) & self.mask) as usize
    }
}

impl DirectionPredictor for Bimodal {
    fn predict(&self, pc: Pc, _history: u64) -> Prediction {
        let c = &self.table[self.index(pc)];
        Prediction { taken: c.taken(), weak: c.is_weak() }
    }

    fn update(&mut self, pc: Pc, _history: u64, taken: bool, _predicted_taken: bool) {
        let idx = self.index(pc);
        self.table[idx].train(taken);
    }

    fn history_bits(&self) -> u8 {
        0
    }

    fn table_bytes(&self) -> usize {
        self.table.len() / 4
    }

    fn name(&self) -> &str {
        "bimodal"
    }
}

/// McFarling's combining predictor: gshare + bimodal with a 2-bit chooser.
#[derive(Debug, Clone)]
pub struct Combining {
    gshare: Gshare,
    bimodal: Bimodal,
    chooser: Vec<SatCounter>,
    mask: u64,
}

impl Combining {
    /// Creates a combining predictor; each component gets `component_entries`
    /// counters and the chooser the same number.
    ///
    /// # Panics
    ///
    /// Panics if `component_entries` is not a power of two or is zero.
    #[must_use]
    pub fn new(component_entries: usize) -> Combining {
        assert!(
            component_entries.is_power_of_two() && component_entries > 0,
            "entries must be a power of two"
        );
        Combining {
            gshare: Gshare::new(component_entries),
            bimodal: Bimodal::new(component_entries),
            chooser: vec![SatCounter::new(2); component_entries],
            mask: component_entries as u64 - 1,
        }
    }

    fn chooser_index(&self, pc: Pc) -> usize {
        ((pc.addr() >> 2) & self.mask) as usize
    }

    /// Whether the chooser currently prefers gshare for this PC.
    #[must_use]
    pub fn prefers_gshare(&self, pc: Pc) -> bool {
        self.chooser[self.chooser_index(pc)].taken()
    }
}

impl DirectionPredictor for Combining {
    fn predict(&self, pc: Pc, history: u64) -> Prediction {
        if self.prefers_gshare(pc) {
            self.gshare.predict(pc, history)
        } else {
            self.bimodal.predict(pc, history)
        }
    }

    fn update(&mut self, pc: Pc, history: u64, taken: bool, predicted_taken: bool) {
        let g = self.gshare.predict(pc, history).taken;
        let b = self.bimodal.predict(pc, history).taken;
        if g != b {
            let idx = self.chooser_index(pc);
            // Train the chooser toward the component that was right.
            self.chooser[idx].train(g == taken);
        }
        self.gshare.update(pc, history, taken, predicted_taken);
        self.bimodal.update(pc, history, taken, predicted_taken);
    }

    fn history_bits(&self) -> u8 {
        self.gshare.history_bits()
    }

    fn table_bytes(&self) -> usize {
        self.gshare.table_bytes() + self.bimodal.table_bytes() + self.chooser.len() / 4
    }

    fn name(&self) -> &str {
        "combining"
    }
}

/// Degenerate always-taken predictor (testing / worst-case baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticTaken;

impl DirectionPredictor for StaticTaken {
    fn predict(&self, _pc: Pc, _history: u64) -> Prediction {
        Prediction { taken: true, weak: false }
    }

    fn update(&mut self, _pc: Pc, _history: u64, _taken: bool, _predicted_taken: bool) {}

    fn history_bits(&self) -> u8 {
        0
    }

    fn table_bytes(&self) -> usize {
        0
    }

    fn name(&self) -> &str {
        "static-taken"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gshare_sizes() {
        let g = Gshare::with_table_bytes(8 * 1024);
        assert_eq!(g.table_bytes(), 8 * 1024);
        assert_eq!(g.history_bits(), 12, "capped history");
        let g = Gshare::with_table_bytes(64 * 1024);
        assert_eq!(g.history_bits(), 12, "capped history");
        let g = Gshare::with_history_limit(32 * 1024, 15);
        assert_eq!(g.history_bits(), 15);
        let g = Gshare::with_history_limit(256, 15);
        assert_eq!(g.history_bits(), 8, "index width still bounds history");
    }

    #[test]
    fn gshare_learns_a_biased_branch() {
        let mut g = Gshare::new(1024);
        let pc = Pc(0x40_0000);
        for _ in 0..10 {
            let p = g.predict(pc, 0);
            g.update(pc, 0, true, p.taken);
        }
        assert!(g.predict(pc, 0).taken);
        assert!(!g.predict(pc, 0).weak);
    }

    #[test]
    fn gshare_distinguishes_histories() {
        let mut g = Gshare::new(1024);
        let pc = Pc(0x40_0000);
        // Outcome = parity of history bit 0: taken after history 1.
        for _ in 0..32 {
            g.update(pc, 0b01, true, false);
            g.update(pc, 0b10, false, false);
        }
        assert!(g.predict(pc, 0b01).taken);
        assert!(!g.predict(pc, 0b10).taken);
    }

    #[test]
    fn bimodal_ignores_history() {
        let mut b = Bimodal::new(256);
        let pc = Pc(0x40_0100);
        for _ in 0..4 {
            b.update(pc, 0xdead, true, false);
        }
        assert!(b.predict(pc, 0).taken);
        assert!(b.predict(pc, 0xffff).taken);
        assert_eq!(b.history_bits(), 0);
    }

    #[test]
    fn combining_learns_to_choose_gshare_for_history_branch() {
        let mut c = Combining::new(4096);
        let pc = Pc(0x40_0200);
        // Alternating outcome: gshare (with history) can track it, bimodal
        // cannot. The chooser should drift toward gshare.
        let mut hist = 0u64;
        for i in 0..4000u64 {
            let taken = i % 2 == 0;
            let p = c.predict(pc, hist);
            c.update(pc, hist, taken, p.taken);
            hist = ((hist << 1) | u64::from(taken)) & ((1 << c.history_bits()) - 1);
        }
        assert!(c.prefers_gshare(pc));
        // And the end-to-end prediction should now be accurate.
        let mut correct = 0;
        for i in 0..1000u64 {
            let taken = i % 2 == 0;
            let p = c.predict(pc, hist);
            if p.taken == taken {
                correct += 1;
            }
            c.update(pc, hist, taken, p.taken);
            hist = ((hist << 1) | u64::from(taken)) & ((1 << c.history_bits()) - 1);
        }
        assert!(correct > 950, "combining accuracy {correct}/1000");
    }

    #[test]
    fn static_taken_is_constant() {
        let mut s = StaticTaken;
        assert!(s.predict(Pc(0), 0).taken);
        s.update(Pc(0), 0, false, true);
        assert!(s.predict(Pc(0), 99).taken);
        assert_eq!(s.table_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn gshare_rejects_non_power_of_two() {
        let _ = Gshare::new(1000);
    }

    #[test]
    fn predictors_are_object_safe() {
        let preds: Vec<Box<dyn DirectionPredictor>> = vec![
            Box::new(Gshare::new(64)),
            Box::new(Bimodal::new(64)),
            Box::new(Combining::new(64)),
            Box::new(StaticTaken),
        ];
        for p in &preds {
            let _ = p.predict(Pc(0x40_0000), 0);
            assert!(!p.name().is_empty());
        }
    }
}
