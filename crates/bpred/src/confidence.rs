//! Branch confidence estimation.
//!
//! Selective Throttling's categorisation (§4.2 of the paper) refines the
//! conventional high/low confidence split into **four** levels so that the
//! aggressiveness of the throttling heuristic can be matched to how likely
//! the prediction is to be wrong:
//!
//! | level | meaning | counter values (3-bit, §4.3) |
//! |---|---|---|
//! | VHC | very-high confidence | 0–1 |
//! | HC  | high confidence      | 2–3 |
//! | LC  | low confidence       | 4–5 |
//! | VLC | very-low confidence  | 6–7 |
//!
//! Two estimators are provided: [`JrsEstimator`] (resetting miss-distance
//! counters, used by the Pipeline Gating baseline) and
//! [`SaturatingEstimator`], the BPRU-style tagged table the paper uses for
//! Selective Throttling. The paper's BPRU derives its signal from a value
//! predictor; we train the same 3-bit up/down counters on per-context
//! misprediction history instead (see DESIGN.md §2), and reproduce the §4.3
//! fallback: on a table miss, a *weak* underlying-predictor counter means
//! low confidence.

use st_isa::Pc;

use crate::counter::SatCounter;
use crate::direction::Prediction;

/// Four-level branch confidence (ordered by increasing distrust).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Confidence {
    /// Very-high confidence: the prediction is almost certainly right.
    VeryHigh,
    /// High confidence.
    High,
    /// Low confidence: the prediction is suspect.
    Low,
    /// Very-low confidence: the prediction is likely wrong.
    VeryLow,
}

impl Confidence {
    /// Whether this level is one of the two low-confidence levels (the
    /// levels that trigger throttling heuristics).
    #[must_use]
    pub fn is_low(self) -> bool {
        matches!(self, Confidence::Low | Confidence::VeryLow)
    }

    /// Restrictiveness rank (0 = VHC … 3 = VLC); used by the escalation
    /// rule ("a more restrictive heuristic can be initiated but not a less
    /// restrictive one").
    #[must_use]
    pub fn rank(self) -> u8 {
        match self {
            Confidence::VeryHigh => 0,
            Confidence::High => 1,
            Confidence::Low => 2,
            Confidence::VeryLow => 3,
        }
    }

    /// All levels in increasing-distrust order.
    #[must_use]
    pub fn all() -> [Confidence; 4] {
        [Confidence::VeryHigh, Confidence::High, Confidence::Low, Confidence::VeryLow]
    }

    /// Bins a 3-bit counter value per §4.3 of the paper.
    #[must_use]
    pub fn from_counter3(value: u8) -> Confidence {
        match value {
            0..=1 => Confidence::VeryHigh,
            2..=3 => Confidence::High,
            4..=5 => Confidence::Low,
            _ => Confidence::VeryLow,
        }
    }
}

impl std::fmt::Display for Confidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Confidence::VeryHigh => "VHC",
            Confidence::High => "HC",
            Confidence::Low => "LC",
            Confidence::VeryLow => "VLC",
        };
        f.write_str(s)
    }
}

/// A branch confidence estimator.
///
/// Like the direction predictors, estimators receive the prediction-time
/// global history; `estimate` is read-only and `update` is called at branch
/// resolution with whether the direction prediction was correct.
pub trait ConfidenceEstimator: std::fmt::Debug + Send {
    /// Confidence in the prediction `pred` for the branch at `pc`.
    fn estimate(&self, pc: Pc, history: u64, pred: Prediction) -> Confidence;

    /// Trains the estimator with the resolved prediction correctness.
    fn update(&mut self, pc: Pc, history: u64, pred: Prediction, correct: bool);

    /// Hardware budget in bytes.
    fn table_bytes(&self) -> usize;

    /// Human-readable name for reports.
    fn name(&self) -> &str;
}

/// Jacobsen/Rotenberg/Smith estimator: a table of resetting counters
/// ("miss distance counters"). A prediction is high-confidence when the
/// counter has reached the MDC threshold.
///
/// The paper's Pipeline Gating baseline uses an 8 KB JRS table with an MDC
/// threshold of 12 (4-bit counters). JRS is inherently two-level: it emits
/// only [`Confidence::High`] and [`Confidence::Low`].
#[derive(Debug, Clone)]
pub struct JrsEstimator {
    table: Vec<SatCounter>,
    mask: u64,
    threshold: u8,
    use_history: bool,
}

impl JrsEstimator {
    /// Creates a JRS estimator with `entries` 4-bit counters and the given
    /// high-confidence threshold, indexed by PC alone (the "1-level" JRS
    /// variant; see [`JrsEstimator::with_history_indexing`] for the
    /// gshare-style variant).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two, or `threshold` does not
    /// fit a 4-bit counter.
    #[must_use]
    pub fn new(entries: usize, threshold: u8) -> JrsEstimator {
        assert!(entries.is_power_of_two() && entries > 0, "entries must be a power of two");
        assert!(threshold <= 15, "threshold {threshold} exceeds 4-bit counter");
        JrsEstimator {
            table: vec![SatCounter::with_value(4, 0); entries],
            mask: entries as u64 - 1,
            threshold,
            use_history: false,
        }
    }

    /// Switches the estimator to gshare-style `PC ⊕ history` indexing
    /// (JRS's "both" variant).
    #[must_use]
    pub fn with_history_indexing(mut self) -> JrsEstimator {
        self.use_history = true;
        self
    }

    /// The paper's configuration: `bytes` of 4-bit counters (2 per byte)
    /// with MDC threshold 12, PC-indexed. 8 KB ⇒ 16 K entries.
    ///
    /// # Panics
    ///
    /// Panics if `bytes * 2` is not a power of two.
    #[must_use]
    pub fn with_table_bytes(bytes: usize) -> JrsEstimator {
        JrsEstimator::new(bytes * 2, 12)
    }

    fn index(&self, pc: Pc, history: u64) -> usize {
        let h = if self.use_history { history } else { 0 };
        (((pc.addr() >> 2) ^ h) & self.mask) as usize
    }
}

impl ConfidenceEstimator for JrsEstimator {
    fn estimate(&self, pc: Pc, history: u64, _pred: Prediction) -> Confidence {
        if self.table[self.index(pc, history)].value() >= self.threshold {
            Confidence::High
        } else {
            Confidence::Low
        }
    }

    fn update(&mut self, pc: Pc, history: u64, _pred: Prediction, correct: bool) {
        let idx = self.index(pc, history);
        if correct {
            self.table[idx].inc(1);
        } else {
            self.table[idx].reset();
        }
    }

    fn table_bytes(&self) -> usize {
        self.table.len() / 2
    }

    fn name(&self) -> &str {
        "jrs"
    }
}

/// Configuration of the [`SaturatingEstimator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaturatingConfig {
    /// Hardware budget in bytes (2 bytes per entry: tag + counter + LRU).
    pub bytes: usize,
    /// Set associativity of the tagged table.
    pub ways: usize,
    /// Counter increment on a misprediction (toward low confidence).
    pub inc_on_miss: u8,
    /// Counter decrement on a correct prediction.
    pub dec_on_correct: u8,
    /// Initial counter value when an entry is allocated (allocation happens
    /// on a misprediction that misses in the table).
    pub init_on_alloc: u8,
    /// Whether the index mixes global history with the PC (context
    /// sensitivity, as in the BPRU which tracks per-context confidence).
    pub use_history: bool,
    /// Whether a weak underlying-predictor counter escalates the estimate
    /// even when the table hits (merging the §4.3 fallback signal instead
    /// of reserving it for table misses).
    pub merge_weak: bool,
}

impl SaturatingConfig {
    /// The configuration calibrated to reproduce the paper's §4.3 quality
    /// metrics (SPEC ≈ 60 %, PVN ≈ 45 % over the eight workloads) at the
    /// default 8 KB budget.
    #[must_use]
    pub fn paper_default() -> SaturatingConfig {
        SaturatingConfig {
            bytes: 8 * 1024,
            ways: 4,
            inc_on_miss: 2,
            dec_on_correct: 2,
            init_on_alloc: 5,
            // Per-branch tracking: with synthetic (history-fragmented)
            // contexts, PC-indexed counters concentrate low-confidence
            // labels on genuinely hard branches, reproducing the paper's
            // SPEC ≈ 60 % / PVN ≈ 45 % operating point.
            use_history: false,
            // Keeping table hits authoritative (no weak-counter merge)
            // trades a little misprediction coverage for label precision,
            // which is what preserves the paper's E-D advantage over
            // Pipeline Gating.
            merge_weak: false,
        }
    }
}

impl Default for SaturatingConfig {
    fn default() -> Self {
        SaturatingConfig::paper_default()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SatEntry {
    valid: bool,
    tag: u16,
    ctr: u8,
    lru: u64,
}

/// BPRU-style four-level confidence estimator: a tagged set-associative
/// table of 3-bit up/down saturating counters binned per §4.3.
///
/// On a table miss the §4.3 fallback applies: a weak underlying-predictor
/// counter yields [`Confidence::Low`], a strong one [`Confidence::High`].
/// Entries are allocated when a branch mispredicts, so the table
/// concentrates its budget on problem branches (raising SPEC, the paper's
/// stated goal for the modified BPRU).
#[derive(Debug, Clone)]
pub struct SaturatingEstimator {
    cfg: SaturatingConfig,
    sets: usize,
    entries: Vec<SatEntry>,
    tick: u64,
}

impl SaturatingEstimator {
    /// Creates an estimator from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields a non-power-of-two set count or
    /// zero ways.
    #[must_use]
    pub fn new(cfg: SaturatingConfig) -> SaturatingEstimator {
        let total = (cfg.bytes / 2).max(1);
        assert!(cfg.ways > 0, "ways must be positive");
        let sets = (total / cfg.ways).max(1);
        assert!(sets.is_power_of_two(), "sets ({sets}) must be a power of two");
        SaturatingEstimator {
            cfg,
            sets,
            entries: vec![SatEntry::default(); sets * cfg.ways],
            tick: 0,
        }
    }

    /// Creates the paper-default estimator at a given byte budget.
    #[must_use]
    pub fn with_table_bytes(bytes: usize) -> SaturatingEstimator {
        SaturatingEstimator::new(SaturatingConfig { bytes, ..SaturatingConfig::paper_default() })
    }

    fn key(&self, pc: Pc, history: u64) -> (usize, u16) {
        let h = if self.cfg.use_history { history } else { 0 };
        let v = (pc.addr() >> 2) ^ h.rotate_left(7);
        let set = (v as usize) & (self.sets - 1);
        let tag = ((v >> self.sets.trailing_zeros()) & 0x3fff) as u16;
        (set, tag)
    }

    fn find(&self, set: usize, tag: u16) -> Option<usize> {
        let base = set * self.cfg.ways;
        (base..base + self.cfg.ways).find(|&i| self.entries[i].valid && self.entries[i].tag == tag)
    }
}

impl ConfidenceEstimator for SaturatingEstimator {
    fn estimate(&self, pc: Pc, history: u64, pred: Prediction) -> Confidence {
        let (set, tag) = self.key(pc, history);
        let table = self.find(set, tag).map(|i| Confidence::from_counter3(self.entries[i].ctr));
        match table {
            // Merging: a weak underlying counter escalates a hit to at
            // least LC; a strong counter leaves the table estimate alone.
            Some(t) if self.cfg.merge_weak && pred.weak => t.max(Confidence::Low),
            Some(t) => t,
            // §4.3 fallback on a miss: weak ⇒ LC, strong ⇒ HC.
            None if pred.weak => Confidence::Low,
            None => Confidence::High,
        }
    }

    fn update(&mut self, pc: Pc, history: u64, _pred: Prediction, correct: bool) {
        self.tick += 1;
        let (set, tag) = self.key(pc, history);
        if let Some(i) = self.find(set, tag) {
            let e = &mut self.entries[i];
            e.lru = self.tick;
            if correct {
                e.ctr = e.ctr.saturating_sub(self.cfg.dec_on_correct);
            } else {
                e.ctr = (e.ctr + self.cfg.inc_on_miss).min(7);
            }
        } else if !correct {
            // Allocate on misprediction: replace the LRU way.
            let base = set * self.cfg.ways;
            let victim = (base..base + self.cfg.ways)
                .min_by_key(|&i| if self.entries[i].valid { self.entries[i].lru } else { 0 })
                .expect("ways > 0");
            self.entries[victim] =
                SatEntry { valid: true, tag, ctr: self.cfg.init_on_alloc.min(7), lru: self.tick };
        }
    }

    fn table_bytes(&self) -> usize {
        self.entries.len() * 2
    }

    fn name(&self) -> &str {
        "bpru-sat"
    }
}

/// Estimator that labels everything very-low confidence (stress testing:
/// maximal throttling).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysLow;

impl ConfidenceEstimator for AlwaysLow {
    fn estimate(&self, _pc: Pc, _history: u64, _pred: Prediction) -> Confidence {
        Confidence::VeryLow
    }
    fn update(&mut self, _pc: Pc, _history: u64, _pred: Prediction, _correct: bool) {}
    fn table_bytes(&self) -> usize {
        0
    }
    fn name(&self) -> &str {
        "always-low"
    }
}

/// Estimator that labels everything very-high confidence (throttling never
/// triggers; must behave identically to the unthrottled baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysHigh;

impl ConfidenceEstimator for AlwaysHigh {
    fn estimate(&self, _pc: Pc, _history: u64, _pred: Prediction) -> Confidence {
        Confidence::VeryHigh
    }
    fn update(&mut self, _pc: Pc, _history: u64, _pred: Prediction, _correct: bool) {}
    fn table_bytes(&self) -> usize {
        0
    }
    fn name(&self) -> &str {
        "always-high"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STRONG: Prediction = Prediction { taken: true, weak: false };
    const WEAK: Prediction = Prediction { taken: true, weak: true };

    #[test]
    fn confidence_ordering_and_rank() {
        assert!(Confidence::VeryHigh < Confidence::High);
        assert!(Confidence::High < Confidence::Low);
        assert!(Confidence::Low < Confidence::VeryLow);
        assert_eq!(Confidence::VeryLow.rank(), 3);
        assert!(Confidence::Low.is_low());
        assert!(Confidence::VeryLow.is_low());
        assert!(!Confidence::High.is_low());
        assert_eq!(Confidence::all().len(), 4);
    }

    #[test]
    fn counter3_binning_matches_paper() {
        assert_eq!(Confidence::from_counter3(0), Confidence::VeryHigh);
        assert_eq!(Confidence::from_counter3(1), Confidence::VeryHigh);
        assert_eq!(Confidence::from_counter3(2), Confidence::High);
        assert_eq!(Confidence::from_counter3(3), Confidence::High);
        assert_eq!(Confidence::from_counter3(4), Confidence::Low);
        assert_eq!(Confidence::from_counter3(5), Confidence::Low);
        assert_eq!(Confidence::from_counter3(6), Confidence::VeryLow);
        assert_eq!(Confidence::from_counter3(7), Confidence::VeryLow);
    }

    #[test]
    fn jrs_counts_up_to_high_confidence() {
        let mut jrs = JrsEstimator::new(1024, 12);
        let pc = Pc(0x40_0000);
        assert_eq!(jrs.estimate(pc, 0, STRONG), Confidence::Low);
        for _ in 0..12 {
            jrs.update(pc, 0, STRONG, true);
        }
        assert_eq!(jrs.estimate(pc, 0, STRONG), Confidence::High);
    }

    #[test]
    fn jrs_resets_on_misprediction() {
        let mut jrs = JrsEstimator::new(1024, 12);
        let pc = Pc(0x40_0000);
        for _ in 0..15 {
            jrs.update(pc, 0, STRONG, true);
        }
        assert_eq!(jrs.estimate(pc, 0, STRONG), Confidence::High);
        jrs.update(pc, 0, STRONG, false);
        assert_eq!(jrs.estimate(pc, 0, STRONG), Confidence::Low);
    }

    #[test]
    fn jrs_paper_budget() {
        let jrs = JrsEstimator::with_table_bytes(8 * 1024);
        assert_eq!(jrs.table_bytes(), 8 * 1024);
        assert_eq!(jrs.name(), "jrs");
    }

    #[test]
    fn saturating_fallback_uses_predictor_weakness() {
        let est = SaturatingEstimator::with_table_bytes(8 * 1024);
        let pc = Pc(0x40_0000);
        assert_eq!(est.estimate(pc, 0, WEAK), Confidence::Low);
        assert_eq!(est.estimate(pc, 0, STRONG), Confidence::High);
    }

    #[test]
    fn saturating_allocates_on_miss_and_escalates() {
        let mut est = SaturatingEstimator::with_table_bytes(8 * 1024);
        let pc = Pc(0x40_0000);
        // First misprediction allocates at init_on_alloc = 5 -> LC.
        est.update(pc, 0, STRONG, false);
        assert_eq!(est.estimate(pc, 0, STRONG), Confidence::Low);
        // Another misprediction escalates to 7 -> VLC.
        est.update(pc, 0, STRONG, false);
        assert_eq!(est.estimate(pc, 0, STRONG), Confidence::VeryLow);
    }

    #[test]
    fn saturating_decays_to_very_high_on_corrects() {
        let mut est = SaturatingEstimator::with_table_bytes(8 * 1024);
        let pc = Pc(0x40_0000);
        est.update(pc, 0, STRONG, false); // ctr = 5
        for _ in 0..4 {
            est.update(pc, 0, STRONG, true);
        }
        assert_eq!(est.estimate(pc, 0, STRONG), Confidence::VeryHigh);
    }

    #[test]
    fn saturating_correct_prediction_never_allocates() {
        let mut est = SaturatingEstimator::with_table_bytes(8 * 1024);
        let pc = Pc(0x40_0000);
        for _ in 0..100 {
            est.update(pc, 0, STRONG, true);
        }
        // Still a table miss: fallback governs.
        assert_eq!(est.estimate(pc, 0, WEAK), Confidence::Low);
    }

    #[test]
    fn saturating_distinguishes_contexts_when_history_enabled() {
        let cfg = SaturatingConfig { use_history: true, ..SaturatingConfig::paper_default() };
        let mut est = SaturatingEstimator::new(cfg);
        let pc = Pc(0x40_0000);
        est.update(pc, 0b1010, STRONG, false);
        est.update(pc, 0b1010, STRONG, false);
        assert_eq!(est.estimate(pc, 0b1010, STRONG), Confidence::VeryLow);
        // A different history context is unaffected.
        assert_eq!(est.estimate(pc, 0b0101, STRONG), Confidence::High);
    }

    #[test]
    fn saturating_without_history_is_context_blind() {
        let cfg = SaturatingConfig { use_history: false, ..SaturatingConfig::paper_default() };
        let mut est = SaturatingEstimator::new(cfg);
        let pc = Pc(0x40_0000);
        est.update(pc, 0b1010, STRONG, false);
        est.update(pc, 0b1111, STRONG, false);
        assert_eq!(est.estimate(pc, 0, STRONG), Confidence::VeryLow);
    }

    #[test]
    fn trivial_estimators() {
        let mut low = AlwaysLow;
        let mut high = AlwaysHigh;
        assert_eq!(low.estimate(Pc(0), 0, STRONG), Confidence::VeryLow);
        assert_eq!(high.estimate(Pc(0), 0, STRONG), Confidence::VeryHigh);
        low.update(Pc(0), 0, STRONG, false);
        high.update(Pc(0), 0, STRONG, false);
        assert_eq!(low.table_bytes(), 0);
    }

    #[test]
    fn estimators_are_object_safe() {
        let ests: Vec<Box<dyn ConfidenceEstimator>> = vec![
            Box::new(JrsEstimator::with_table_bytes(1024)),
            Box::new(SaturatingEstimator::with_table_bytes(1024)),
            Box::new(AlwaysLow),
            Box::new(AlwaysHigh),
        ];
        for e in &ests {
            let _ = e.estimate(Pc(0x40_0000), 0, STRONG);
            assert!(!e.name().is_empty());
        }
    }
}
