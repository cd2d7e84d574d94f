//! Branch behaviour models.
//!
//! Each static conditional branch in a synthetic program carries a behaviour
//! model that generates its architectural outcome sequence. The mix of
//! models in a program determines how predictable the branch stream is for a
//! history-based predictor such as gshare, which is the knob the
//! workload-calibration layer turns to reproduce the paper's Table 2
//! misprediction rates.
//!
//! Outcome sequences are deterministic: stochastic models derive each
//! outcome from a hash of `(program seed, branch id, occurrence index)`, so
//! the n-th dynamic execution of a branch always resolves the same way
//! regardless of what the processor front end speculated in between.
//!
//! Wrong-path execution needs branch outcomes too (a branch fetched down a
//! wrong path still *resolves* in an out-of-order core, possibly redirecting
//! fetch deeper into the wrong path — exactly as in SimpleScalar). Those use
//! [`BranchModel::speculative_outcome`], which never consumes architectural
//! state.

use crate::hash::{bernoulli, mix3};

/// Statistical/structural model of one static branch's outcome sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BranchBehavior {
    /// Classic loop back-edge: taken `trip - 1` consecutive times, then
    /// not-taken once, repeating. Highly predictable for `trip` ≫ 1.
    Loop {
        /// Loop trip count; must be ≥ 1.
        trip: u32,
    },
    /// Periodic outcome pattern of `len` bits (LSB first). Predictable by a
    /// history-based predictor once the pattern fits in its history.
    Pattern {
        /// Pattern bits, bit `i` = outcome of occurrence `i mod len`.
        bits: u64,
        /// Period length in bits (1..=64).
        len: u8,
    },
    /// Independent Bernoulli outcomes: taken with probability `p_taken`.
    /// Fundamentally unpredictable beyond its bias — the "hard branch" class
    /// that drives misprediction rates.
    Biased {
        /// Probability that the branch is taken.
        p_taken: f64,
    },
    /// Two-state Markov chain: the outcome tends to repeat. `p_tt` is the
    /// probability of staying taken, `p_nn` of staying not-taken.
    /// Moderately predictable (last-outcome correlation).
    Markov {
        /// P(taken | previous taken).
        p_tt: f64,
        /// P(not-taken | previous not-taken).
        p_nn: f64,
    },
    /// Strictly alternating outcomes (T, N, T, N, ...).
    Alternating,
}

impl BranchBehavior {
    /// Long-run fraction of taken outcomes for this model.
    #[must_use]
    pub fn taken_rate(&self) -> f64 {
        match *self {
            BranchBehavior::Loop { trip } => (trip.max(1) as f64 - 1.0) / trip.max(1) as f64,
            BranchBehavior::Pattern { bits, len } => {
                let len = len.clamp(1, 64);
                let mask = if len == 64 { u64::MAX } else { (1u64 << len) - 1 };
                (bits & mask).count_ones() as f64 / f64::from(len)
            }
            BranchBehavior::Biased { p_taken } => p_taken,
            BranchBehavior::Markov { p_tt, p_nn } => {
                // Stationary distribution of the 2-state chain.
                let a = 1.0 - p_tt; // T -> N
                let b = 1.0 - p_nn; // N -> T
                if a + b == 0.0 {
                    0.5
                } else {
                    b / (a + b)
                }
            }
            BranchBehavior::Alternating => 0.5,
        }
    }

    /// Theoretical floor of mispredictions per occurrence for an ideal
    /// predictor (useful in calibration): deterministic models go to zero,
    /// stochastic models are bounded by their entropy.
    #[must_use]
    pub fn intrinsic_miss_floor(&self) -> f64 {
        match *self {
            BranchBehavior::Loop { .. }
            | BranchBehavior::Pattern { .. }
            | BranchBehavior::Alternating => 0.0,
            BranchBehavior::Biased { p_taken } => p_taken.min(1.0 - p_taken),
            BranchBehavior::Markov { p_tt, p_nn } => {
                // Best static-per-state guess: predict "repeat".
                let stat_t = self.taken_rate();
                stat_t * (1.0 - p_tt).min(p_tt) + (1.0 - stat_t) * (1.0 - p_nn).min(p_nn)
            }
        }
    }
}

/// Mutable architectural state of one static branch.
///
/// A state starts at [`BranchState::default`] and advances only through
/// [`BranchModel::next_outcome`] of one model, which keeps the invariant
/// `phase == count % period`: the period is the trip count of a `Loop`
/// model (at least 1), the clamped length of a `Pattern` (1..=64), and 1
/// (so `phase == 0`) for every other model. The phase lets loop and
/// pattern outcomes skip the 64-bit division [`BranchModel::outcome_at`]
/// spends on `count`; the fields are private so nothing else can break
/// the invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BranchState {
    count: u64,
    last_taken: bool,
    phase: u32,
}

impl BranchState {
    /// Number of architectural (committed-path) occurrences so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Outcome of the most recent architectural occurrence.
    #[must_use]
    pub fn last_taken(&self) -> bool {
        self.last_taken
    }
}

/// A behaviour model bound to a per-branch seed: the object the walker and
/// the wrong-path machinery query for outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchModel {
    pub(crate) behavior: BranchBehavior,
    seed: u64,
}

impl BranchModel {
    /// Creates a model with the given behaviour and deterministic seed.
    #[must_use]
    pub fn new(behavior: BranchBehavior, seed: u64) -> BranchModel {
        BranchModel { behavior, seed }
    }

    /// The underlying behaviour.
    #[must_use]
    pub fn behavior(&self) -> &BranchBehavior {
        &self.behavior
    }

    /// Architectural outcome of the next occurrence; advances `state`.
    /// Equal to `outcome_at(state.count(), state.last_taken())`.
    pub fn next_outcome(&self, state: &mut BranchState) -> bool {
        let taken = self.current_outcome(state);
        state.count += 1;
        state.last_taken = taken;
        state.phase += 1;
        if state.phase == self.period() {
            state.phase = 0;
        }
        taken
    }

    /// The length of the cycle `BranchState::phase` counts through.
    fn period(&self) -> u32 {
        match self.behavior {
            BranchBehavior::Loop { trip } => trip.max(1),
            BranchBehavior::Pattern { len, .. } => u32::from(len.clamp(1, 64)),
            _ => 1,
        }
    }

    /// [`Self::outcome_at`] for the occurrence `state` is at, with loop
    /// and pattern positions read from the state's phase.
    fn current_outcome(&self, state: &BranchState) -> bool {
        debug_assert!(state.phase < self.period(), "state advanced by another model");
        match self.behavior {
            BranchBehavior::Loop { trip } => state.phase != trip.max(1) - 1,
            BranchBehavior::Pattern { bits, .. } => (bits >> state.phase) & 1 == 1,
            _ => self.outcome_at(state.count, state.last_taken),
        }
    }

    /// Outcome the branch *would* produce at occurrence `n` given the
    /// previous outcome `last` — pure, does not advance anything. The
    /// reference the phase-driven [`Self::next_outcome`] matches.
    #[must_use]
    pub fn outcome_at(&self, n: u64, last: bool) -> bool {
        match self.behavior {
            BranchBehavior::Loop { trip } => {
                let trip = u64::from(trip.max(1));
                n % trip != trip - 1
            }
            BranchBehavior::Pattern { bits, len } => {
                let len = u64::from(len.clamp(1, 64));
                (bits >> (n % len)) & 1 == 1
            }
            BranchBehavior::Biased { p_taken } => bernoulli(mix3(self.seed, n, 0x5eed), p_taken),
            BranchBehavior::Markov { p_tt, p_nn } => {
                let h = mix3(self.seed, n, 0x3a4b);
                if last {
                    bernoulli(h, p_tt)
                } else {
                    !bernoulli(h, p_nn)
                }
            }
            BranchBehavior::Alternating => n.is_multiple_of(2),
        }
    }

    /// A plausible outcome for a *wrong-path* execution of this branch.
    ///
    /// Does not consume architectural state; `salt` (e.g. the dynamic
    /// sequence number of the wrong-path instance) decorrelates repeated
    /// wrong-path visits. The distribution matches the model's steady-state
    /// taken rate, so wrong-path control flow is statistically similar to
    /// right-path control flow — which is what the power model needs.
    #[must_use]
    pub fn speculative_outcome(&self, state: &BranchState, salt: u64) -> bool {
        match self.behavior {
            // Deterministic models: the wrong path would most plausibly see
            // the outcome the branch would produce "next".
            BranchBehavior::Loop { .. }
            | BranchBehavior::Pattern { .. }
            | BranchBehavior::Alternating => self.current_outcome(state),
            _ => {
                let h = mix3(self.seed ^ WRONG_PATH_SALT, state.count, salt);
                bernoulli(h, self.behavior.taken_rate())
            }
        }
    }
}

/// Salt decorrelating wrong-path outcome draws from architectural ones.
const WRONG_PATH_SALT: u64 = 0x7770_6174_6800; // "wpath\0"

#[cfg(test)]
mod tests {
    use super::*;

    fn run(model: &BranchModel, n: usize) -> Vec<bool> {
        let mut st = BranchState::default();
        (0..n).map(|_| model.next_outcome(&mut st)).collect()
    }

    #[test]
    fn loop_model_is_periodic() {
        let m = BranchModel::new(BranchBehavior::Loop { trip: 4 }, 1);
        let seq = run(&m, 12);
        assert_eq!(
            seq,
            vec![true, true, true, false, true, true, true, false, true, true, true, false]
        );
    }

    #[test]
    fn loop_trip_one_is_never_taken() {
        let m = BranchModel::new(BranchBehavior::Loop { trip: 1 }, 1);
        assert!(run(&m, 5).iter().all(|&t| !t));
    }

    #[test]
    fn pattern_model_repeats_bits() {
        // Pattern 0b0110, len 4 -> N T T N N T T N ...
        let m = BranchModel::new(BranchBehavior::Pattern { bits: 0b0110, len: 4 }, 1);
        let seq = run(&m, 8);
        assert_eq!(seq, vec![false, true, true, false, false, true, true, false]);
    }

    #[test]
    fn alternating_model() {
        let m = BranchModel::new(BranchBehavior::Alternating, 1);
        assert_eq!(run(&m, 4), vec![true, false, true, false]);
    }

    #[test]
    fn biased_model_matches_rate() {
        let m = BranchModel::new(BranchBehavior::Biased { p_taken: 0.7 }, 42);
        let seq = run(&m, 50_000);
        let rate = seq.iter().filter(|&&t| t).count() as f64 / seq.len() as f64;
        assert!((rate - 0.7).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn biased_model_is_deterministic_per_seed() {
        let a = BranchModel::new(BranchBehavior::Biased { p_taken: 0.5 }, 42);
        let b = BranchModel::new(BranchBehavior::Biased { p_taken: 0.5 }, 42);
        assert_eq!(run(&a, 100), run(&b, 100));
        let c = BranchModel::new(BranchBehavior::Biased { p_taken: 0.5 }, 43);
        assert_ne!(run(&a, 100), run(&c, 100));
    }

    #[test]
    fn markov_model_is_sticky() {
        let m = BranchModel::new(BranchBehavior::Markov { p_tt: 0.95, p_nn: 0.95 }, 7);
        let seq = run(&m, 20_000);
        let repeats = seq.windows(2).filter(|w| w[0] == w[1]).count();
        let rate = repeats as f64 / (seq.len() - 1) as f64;
        assert!(rate > 0.9, "repeat rate {rate}");
    }

    #[test]
    fn taken_rates() {
        assert!((BranchBehavior::Loop { trip: 4 }.taken_rate() - 0.75).abs() < 1e-12);
        assert!(
            (BranchBehavior::Pattern { bits: 0b0110, len: 4 }.taken_rate() - 0.5).abs() < 1e-12
        );
        assert!((BranchBehavior::Biased { p_taken: 0.3 }.taken_rate() - 0.3).abs() < 1e-12);
        assert!((BranchBehavior::Alternating.taken_rate() - 0.5).abs() < 1e-12);
        let m = BranchBehavior::Markov { p_tt: 0.9, p_nn: 0.9 };
        assert!((m.taken_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn intrinsic_miss_floor() {
        assert_eq!(BranchBehavior::Loop { trip: 8 }.intrinsic_miss_floor(), 0.0);
        assert!(
            (BranchBehavior::Biased { p_taken: 0.8 }.intrinsic_miss_floor() - 0.2).abs() < 1e-12
        );
        assert_eq!(BranchBehavior::Alternating.intrinsic_miss_floor(), 0.0);
    }

    #[test]
    fn speculative_outcome_does_not_advance_state() {
        let m = BranchModel::new(BranchBehavior::Biased { p_taken: 0.5 }, 11);
        let mut st = BranchState::default();
        let _ = m.next_outcome(&mut st);
        let snapshot = st;
        let _ = m.speculative_outcome(&st, 1);
        let _ = m.speculative_outcome(&st, 2);
        assert_eq!(st, snapshot);
    }

    /// `speculative_outcome` as it was before states kept a phase: the
    /// reference the phase-driven version must match.
    fn reference_speculative(m: &BranchModel, st: &BranchState, salt: u64) -> bool {
        match m.behavior {
            BranchBehavior::Loop { .. }
            | BranchBehavior::Pattern { .. }
            | BranchBehavior::Alternating => m.outcome_at(st.count, st.last_taken),
            _ => {
                let h = mix3(m.seed ^ WRONG_PATH_SALT, st.count, salt);
                bernoulli(h, m.behavior.taken_rate())
            }
        }
    }

    /// Steps `st` through `n` occurrences, checking each against the pure
    /// reference `outcome_at` and the reference speculative outcome.
    fn check_against_reference(m: &BranchModel, st: &mut BranchState, n: u64) {
        for _ in 0..n {
            let (count, last) = (st.count, st.last_taken);
            for salt in [0, count, u64::MAX] {
                assert_eq!(
                    m.speculative_outcome(st, salt),
                    reference_speculative(m, st, salt),
                    "{:?}: speculative outcome at occurrence {count}",
                    m.behavior
                );
            }
            assert_eq!(
                m.next_outcome(st),
                m.outcome_at(count, last),
                "{:?}: occurrence {count}",
                m.behavior
            );
            assert_eq!(st.count, count + 1);
            assert_eq!(u64::from(st.phase), st.count % u64::from(m.period()), "{:?}", m.behavior);
        }
    }

    #[test]
    fn phase_driven_outcomes_match_the_pure_reference() {
        let bits = 0x9e37_79b9_7f4a_7c15;
        let mut models: Vec<BranchModel> = [0, 1, 2, 7, u32::MAX]
            .map(|trip| BranchModel::new(BranchBehavior::Loop { trip }, 3))
            .into();
        models.extend(
            [0, 1, 2, 63, 64, 255]
                .map(|len| BranchModel::new(BranchBehavior::Pattern { bits, len }, 5)),
        );
        models.extend([
            BranchModel::new(BranchBehavior::Biased { p_taken: 0.3 }, 7),
            BranchModel::new(BranchBehavior::Markov { p_tt: 0.9, p_nn: 0.8 }, 9),
            BranchModel::new(BranchBehavior::Alternating, 11),
        ]);
        for m in &models {
            // Several periods from the start (every period but the loop's
            // u32::MAX trip is at most 64).
            let mut st = BranchState::default();
            check_against_reference(m, &mut st, 5 * 64 + 3);
            // Across the end of a period: a state the invariant allows,
            // two periods in and (periods allowing) four occurrences
            // before the wrap.
            let period = u64::from(m.period());
            let count = 2 * period + period.saturating_sub(4);
            let mut st = BranchState {
                count,
                last_taken: m.outcome_at(count - 1, false),
                phase: (count % period) as u32,
            };
            check_against_reference(m, &mut st, 9);
        }
    }

    #[test]
    fn speculative_outcome_deterministic_models_predict_next() {
        let m = BranchModel::new(BranchBehavior::Loop { trip: 3 }, 1);
        let mut st = BranchState::default();
        // After two taken outcomes the next architectural outcome is not-taken.
        assert!(m.next_outcome(&mut st));
        assert!(m.next_outcome(&mut st));
        assert!(!m.speculative_outcome(&st, 123));
    }
}
