//! Order statistics and the metric-name grammar.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it; below that the percentile is the largest
//! sample or close to it, and one outlier moves it.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (`0 < q <= 1`), and how
/// many samples lie beyond it. `None` for an empty slice.
fn nearest_rank(samples: &[f64], q: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Rank ceil(q * n), 1-based; the epsilon keeps 0.9 * 100 at rank 90.
    let rank = ((q * n as f64) - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    Some((sorted[rank - 1], n - rank))
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]) })
}

/// The `q`-quantile of `samples` when at least [`MIN_BEYOND`] samples
/// lie beyond it, else `None`.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    nearest_rank(samples, q).and_then(|(v, beyond)| (beyond >= MIN_BEYOND).then_some(v))
}

/// The smallest sample count for which [`tail_percentile`] reports `q`.
pub fn samples_needed(q: f64) -> usize {
    (1..).find(|&n| nearest_rank(&vec![0.0; n], q).is_some_and(|(_, b)| b >= MIN_BEYOND)).unwrap()
}

/// Whether `name` is a valid metric or workload name: 1–64 characters
/// of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is a valid unit: 1–16 characters of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&samples[..99], 0.9), None);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.5), 20);
    }

    #[test]
    fn tail_percentile_counts_beyond_strictly() {
        for n in [20usize, 57, 100, 101, 250, 1000] {
            let samples: Vec<f64> = (0..n).map(|i| (i * 7 % n) as f64).collect();
            for q in [0.5, 0.9, 0.95] {
                if let Some(v) = tail_percentile(&samples, q) {
                    let beyond = samples.iter().filter(|&&s| s > v).count();
                    assert!(beyond >= MIN_BEYOND, "n={n} q={q}: {beyond} beyond {v}");
                }
            }
        }
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let a: Vec<f64> = (0..200).map(|i| f64::from(i) * 0.5).collect();
        let mut b = a.clone();
        b.reverse();
        assert_eq!(tail_percentile(&a, 0.9), tail_percentile(&b, 0.9));
    }

    #[test]
    fn name_grammar() {
        for ok in ["total_s", "core.run_ms_p90", "paper-repro", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_lead", ".lead", "has space", "slash/ed", "pct%", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn unit_grammar() {
        for ok in ["s", "ms", "1/s", "%", "points/s", "Minstr/s", "instr/cycle", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "µs", "seventeen-letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
