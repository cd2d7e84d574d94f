//! The branch direction predictor.
//!
//! [`Gshare`] is the paper's underlying predictor (8 KB by default,
//! sensitivity-swept from 4 KB to 64 KB in Figure 7).

use st_isa::Pc;

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

/// gshare (McFarling 1993): a table of 2-bit counters indexed by
/// `PC ⊕ global history`.
///
/// Each counter is one byte holding 0..=3, with the rules of a 2-bit
/// [`SatCounter`](crate::SatCounter): it saturates at 0 and 3, 2 and 3 predict taken, and 1
/// and 2 are the weak states. A `SatCounter` also stores its width, so
/// this halves the host table (32 KB for the paper's 8 KB budget).
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<u8>,
    mask: u64,
    hist_bits: u8,
}

impl Gshare {
    /// Cap on the global-history length. Capping history below the index
    /// width (and XOR-folding the PC over the full index) trades
    /// correlation reach for less context dilution. Every table of 1 KB
    /// or more then hashes the same 12 history bits, so a larger table
    /// only separates more PCs. The cap does not give Figure 7's
    /// accuracy-vs-size scaling: the eight profiles measure bit-equal miss
    /// rates at 4, 8 and 64 KB (ROADMAP, "Figure 7 is flat").
    pub const DEFAULT_HISTORY_CAP: u8 = 12;

    /// Creates a gshare predictor with `entries` 2-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or is zero.
    #[must_use]
    pub fn new(entries: usize) -> Gshare {
        assert!(entries.is_power_of_two() && entries > 0, "entries must be a power of two");
        // Counters start weakly taken (SimpleScalar's bimod/gshare init):
        // integer branch streams are taken-heavy, so this halves the
        // cold-context tax of large, sparsely trained tables.
        Gshare {
            table: vec![2; entries],
            mask: entries as u64 - 1,
            hist_bits: (entries.trailing_zeros() as u8).min(Gshare::DEFAULT_HISTORY_CAP),
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

    /// Predicts the direction of the branch at `pc` under the global
    /// `history` live at prediction time (the pipeline owns the history:
    /// it is updated speculatively and repaired on squash).
    #[inline]
    #[must_use]
    pub fn predict(&self, pc: Pc, history: u64) -> Prediction {
        let c = self.table[self.index(pc, history)];
        Prediction { taken: c >= 2, weak: c == 1 || c == 2 }
    }

    /// Trains the counter the prediction under `history` read with the
    /// resolved outcome.
    #[inline]
    pub fn update(&mut self, pc: Pc, history: u64, taken: bool) {
        let idx = self.index(pc, history);
        let c = &mut self.table[idx];
        *c = if taken { (*c + 1).min(3) } else { c.saturating_sub(1) };
    }

    /// Number of global-history bits the predictor consumes.
    #[must_use]
    pub fn history_bits(&self) -> u8 {
        self.hist_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::SatCounter;
    use st_isa::hash::mix2;

    #[test]
    fn gshare_sizes() {
        let g = Gshare::with_table_bytes(8 * 1024);
        assert_eq!(g.history_bits(), 12, "capped history");
        let g = Gshare::with_table_bytes(64 * 1024);
        assert_eq!(g.history_bits(), 12, "capped history");
        let g = Gshare::new(256);
        assert_eq!(g.history_bits(), 8, "index width still bounds history");
    }

    /// gshare as it was with a 2-bit [`SatCounter`] per entry: the
    /// reference the one-byte table must match.
    struct SatGshare {
        table: Vec<SatCounter>,
        mask: u64,
    }

    impl SatGshare {
        fn with_table_bytes(bytes: usize) -> SatGshare {
            let entries = bytes * 4;
            SatGshare {
                table: vec![SatCounter::with_value(2, 2); entries],
                mask: entries as u64 - 1,
            }
        }

        fn index(&self, pc: Pc, history: u64) -> usize {
            (((pc.addr() >> 2) ^ history) & self.mask) as usize
        }

        fn predict(&self, pc: Pc, history: u64) -> Prediction {
            let c = &self.table[self.index(pc, history)];
            Prediction { taken: c.taken(), weak: c.is_weak() }
        }

        fn update(&mut self, pc: Pc, history: u64, taken: bool) {
            let idx = self.index(pc, history);
            self.table[idx].train(taken);
        }
    }

    #[test]
    fn one_byte_counters_predict_like_sat_counters() {
        for bytes in [1, 8 * 1024, 64 * 1024] {
            let mut fast = Gshare::with_table_bytes(bytes);
            let mut reference = SatGshare::with_table_bytes(bytes);
            let mask = (1u64 << fast.history_bits()) - 1;
            let mut history = 0u64;
            for i in 0..200_000u64 {
                let h = mix2(bytes as u64, i);
                // A few hundred hot branches, so counters saturate both ways.
                let pc = Pc(0x40_0000 + 4 * (h % 300));
                let predicted = fast.predict(pc, history);
                assert_eq!(predicted, reference.predict(pc, history), "{bytes} B, step {i}");
                // Mostly biased by PC, sometimes flipped.
                let taken = (pc.addr() >> 2).is_multiple_of(3) != (h >> 40).is_multiple_of(5);
                fast.update(pc, history, taken);
                reference.update(pc, history, taken);
                history = ((history << 1) | u64::from(taken)) & mask;
            }
        }
    }

    #[test]
    fn gshare_learns_a_biased_branch() {
        let mut g = Gshare::new(1024);
        let pc = Pc(0x40_0000);
        for _ in 0..10 {
            g.update(pc, 0, true);
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
            g.update(pc, 0b01, true);
            g.update(pc, 0b10, false);
        }
        assert!(g.predict(pc, 0b01).taken);
        assert!(!g.predict(pc, 0b10).taken);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn gshare_rejects_non_power_of_two() {
        let _ = Gshare::new(1000);
    }
}
