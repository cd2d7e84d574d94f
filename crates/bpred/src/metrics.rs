//! Prediction-quality metrics.
//!
//! [`PredictorStats`] tracks direction-prediction accuracy.
//! [`ConfidenceStats`] tracks the two confidence-quality metrics the paper
//! adopts from Grunwald et al.:
//!
//! * **SPEC** — fraction of *incorrect* predictions that were labelled low
//!   confidence (coverage of mispredictions);
//! * **PVN** — fraction of *low-confidence* labels that turned out to be
//!   mispredictions (precision of the low label).
//!
//! §4.3 reports SPEC ≈ 60 %, PVN ≈ 45 % for the modified BPRU estimator and
//! SPEC ≈ 90 %, PVN ≈ 24 % for JRS; `st repro`'s `conf_metrics` table
//! reproduces that comparison.

use crate::confidence::Confidence;

/// Direction-prediction accuracy accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Number of conditional-branch predictions made.
    pub predictions: u64,
    /// Number of those that were wrong.
    pub mispredictions: u64,
}

impl PredictorStats {
    /// Records one resolved prediction.
    pub fn record(&mut self, correct: bool) {
        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
        }
    }

    /// Misprediction rate in `[0, 1]`; 0 when nothing was recorded.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }

    /// Prediction accuracy in `[0, 1]`.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        1.0 - self.miss_rate()
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &PredictorStats) {
        self.predictions += other.predictions;
        self.mispredictions += other.mispredictions;
    }
}

/// Confidence-quality accounting (SPEC / PVN), including the per-level
/// breakdown used to sanity-check the four-level categorisation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfidenceStats {
    /// `counts[rank][0]` = correct predictions at that confidence level,
    /// `counts[rank][1]` = mispredictions at that level.
    pub counts: [[u64; 2]; 4],
}

impl ConfidenceStats {
    /// Records one resolved branch: its estimated confidence and whether
    /// the direction prediction was correct.
    pub fn record(&mut self, confidence: Confidence, correct: bool) {
        self.counts[confidence.rank() as usize][usize::from(!correct)] += 1;
    }

    /// Total branches recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c[0] + c[1]).sum()
    }

    /// Total mispredictions recorded.
    #[must_use]
    pub fn mispredictions(&self) -> u64 {
        self.counts.iter().map(|c| c[1]).sum()
    }

    /// Branches labelled low confidence (LC or VLC).
    #[must_use]
    pub fn low_labeled(&self) -> u64 {
        self.counts[2][0] + self.counts[2][1] + self.counts[3][0] + self.counts[3][1]
    }

    /// SPEC: fraction of mispredictions labelled low confidence.
    #[must_use]
    pub fn spec(&self) -> f64 {
        let miss = self.mispredictions();
        if miss == 0 {
            return 0.0;
        }
        (self.counts[2][1] + self.counts[3][1]) as f64 / miss as f64
    }

    /// PVN: fraction of low-confidence labels that were mispredictions.
    #[must_use]
    pub fn pvn(&self) -> f64 {
        let low = self.low_labeled();
        if low == 0 {
            return 0.0;
        }
        (self.counts[2][1] + self.counts[3][1]) as f64 / low as f64
    }

    /// Misprediction rate among branches labelled at `level` (the paper's
    /// premise is that this rises monotonically from VHC to VLC).
    #[must_use]
    pub fn miss_rate_at(&self, level: Confidence) -> f64 {
        let c = self.counts[level.rank() as usize];
        let total = c[0] + c[1];
        if total == 0 {
            0.0
        } else {
            c[1] as f64 / total as f64
        }
    }

    /// Fraction of all branches labelled at `level`.
    #[must_use]
    pub fn label_frac(&self, level: Confidence) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let c = self.counts[level.rank() as usize];
        (c[0] + c[1]) as f64 / total as f64
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &ConfidenceStats) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            a[0] += b[0];
            a[1] += b[1];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_stats_rates() {
        let mut s = PredictorStats::default();
        for i in 0..10 {
            s.record(i % 5 != 0); // 2 of 10 wrong
        }
        assert_eq!(s.predictions, 10);
        assert_eq!(s.mispredictions, 2);
        assert!((s.miss_rate() - 0.2).abs() < 1e-12);
        assert!((s.accuracy() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = PredictorStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        let c = ConfidenceStats::default();
        assert_eq!(c.spec(), 0.0);
        assert_eq!(c.pvn(), 0.0);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn spec_and_pvn_from_known_mix() {
        let mut c = ConfidenceStats::default();
        // 10 mispredictions: 6 labelled low, 4 labelled high -> SPEC = 0.6.
        for _ in 0..6 {
            c.record(Confidence::Low, false);
        }
        for _ in 0..4 {
            c.record(Confidence::High, false);
        }
        // Low labels: 6 wrong + 9 correct -> PVN = 6/15 = 0.4.
        for _ in 0..9 {
            c.record(Confidence::VeryLow, true);
        }
        for _ in 0..80 {
            c.record(Confidence::VeryHigh, true);
        }
        assert!((c.spec() - 0.6).abs() < 1e-12);
        assert!((c.pvn() - 0.4).abs() < 1e-12);
        assert_eq!(c.total(), 99);
        assert_eq!(c.mispredictions(), 10);
        assert_eq!(c.low_labeled(), 15);
    }

    #[test]
    fn per_level_rates() {
        let mut c = ConfidenceStats::default();
        c.record(Confidence::VeryHigh, true);
        c.record(Confidence::VeryHigh, true);
        c.record(Confidence::VeryHigh, false);
        c.record(Confidence::VeryLow, false);
        assert!((c.miss_rate_at(Confidence::VeryHigh) - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.miss_rate_at(Confidence::VeryLow) - 1.0).abs() < 1e-12);
        assert_eq!(c.miss_rate_at(Confidence::High), 0.0);
        assert!((c.label_frac(Confidence::VeryHigh) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ConfidenceStats::default();
        a.record(Confidence::Low, false);
        let mut b = ConfidenceStats::default();
        b.record(Confidence::Low, true);
        a.merge(&b);
        assert_eq!(a.low_labeled(), 2);
        let mut p = PredictorStats::default();
        p.record(false);
        let mut q = PredictorStats::default();
        q.record(true);
        p.merge(&q);
        assert_eq!(p.predictions, 2);
        assert_eq!(p.mispredictions, 1);
    }
}
