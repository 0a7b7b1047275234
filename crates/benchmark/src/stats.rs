//! Order statistics for repetition samples and latency samples.

use serde::{Deserialize, Serialize};

/// Linear-interpolated quantile of an ascending slice, `q ∈ [0, 1]`.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty() && (0.0..=1.0).contains(&q));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples`.
///
/// # Panics
/// Panics on an empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    quantile_sorted(&sorted(samples), 0.5)
}

/// A metric's reported value with the quartiles and count of the
/// repetition samples behind it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// The reported value: the median of the samples.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub samples: usize,
}

impl Summary {
    /// Summarizes `samples`.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of no samples");
        let s = sorted(samples);
        Summary {
            value: quantile_sorted(&s, 0.5),
            q1: quantile_sorted(&s, 0.25),
            q3: quantile_sorted(&s, 0.75),
            samples: s.len(),
        }
    }

    /// A value that was computed once, not sampled (counts, virtual times).
    pub fn exact(value: f64) -> Self {
        Summary {
            value,
            q1: value,
            q3: value,
            samples: 1,
        }
    }

    /// Interquartile range as a share of the value (0 for a zero value).
    pub fn iqr_frac(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

/// The `q`-quantile of latency samples, or `None` when fewer than ten
/// samples lie beyond it — a tail that thin is noise, not a percentile.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    if (samples.len() as f64 * (1.0 - q)).floor() < 10.0 {
        return None;
    }
    Some(quantile_sorted(&sorted(samples), q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.value, s.q1, s.q3, s.samples), (3.0, 2.0, 4.0, 5));
        assert!((s.iqr_frac() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(Summary::exact(7.0).iqr_frac(), 0.0);
        assert_eq!(Summary::of(&[0.0, 0.0]).iqr_frac(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.99), None);
        let p95 = tail(&xs, 0.95).unwrap();
        assert!((p95 - 190.05).abs() < 1e-9, "{p95}");
        assert_eq!(tail(&xs[..199], 0.95), None);
    }
}
