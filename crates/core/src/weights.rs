//! Aggregation weight generation.
//!
//! Constant partial reduce averages the group's models uniformly
//! (Algorithm 2 line 7: weight `1/P`). Dynamic partial reduce (§3.3)
//! penalizes stale members using bias-corrected exponential-moving-average
//! weights: with relative iteration numbers
//! `k̂_i = max_j k_j − k_i + 1 ∈ [1, k̂_max]`, Eq. 9 assigns relative
//! iteration `r` the mass
//!
//! ```text
//! β(r) = (1 − α) · α^{r−1} / (1 − α^{k̂_max})
//! ```
//!
//! so fresher models (`r = 1`) weigh the most and Σ_r β(r) = 1. Two
//! paper-specified adjustments complete the scheme:
//!
//! * workers sharing a relative iteration number split its mass equally;
//! * relative iteration numbers in `[1, k̂_max]` held by *no* member still
//!   carry mass — the paper's conservative approximation routes it to the
//!   initial (most stale) model, i.e. the `k̂_max` holders
//!   ([`GapPolicy::Initial`]).
//!
//! Every row a reduce applies comes from this module: the three
//! generators below are the only producers of a [`WeightRow`]. So every
//! synchronization matrix is doubly stochastic in CON, as Theorem 1
//! assumes, and column-stochastic in DYN, where a non-uniform row makes
//! `W_k` asymmetric ([`crate::matrix`]).

use std::ops::Deref;

use serde::{Deserialize, Serialize};

/// One group's aggregation weights, aligned with its members: non-negative
/// and summing to 1. Only [`constant_weights`], [`dynamic_weights`] and
/// [`singleton_weights`] build one, so a row reaching a reduce is a row
/// Eq. 9 or Algorithm 2 prescribes. It reads as a `[f32]`; [`into_vec`]
/// gives the bare vector up where the row leaves the process (a control
/// frame) or is narrated (a trace event).
///
/// A hand-built row is refused at compile time:
///
/// ```compile_fail,E0423
/// let row = partial_reduce::weights::WeightRow(vec![0.5, 0.5]);
/// ```
///
/// [`into_vec`]: WeightRow::into_vec
#[derive(Debug, Clone, PartialEq)]
pub struct WeightRow(Vec<f32>);

impl WeightRow {
    /// The bare weights, for a frame or a trace event.
    pub fn into_vec(self) -> Vec<f32> {
        self.0
    }
}

impl Deref for WeightRow {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.0
    }
}

/// What to do with EMA mass assigned to relative iteration numbers that no
/// group member holds (§3.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum GapPolicy {
    /// Route gap mass to the most stale member(s) — the paper's
    /// "conservative approximation of using the initial model x₁".
    #[default]
    Initial,
}

/// Uniform weights `1/P` for constant partial reduce.
///
/// # Panics
/// Panics if `p == 0`.
pub fn constant_weights(p: usize) -> WeightRow {
    assert!(p > 0, "group must be non-empty");
    WeightRow(vec![1.0 / p as f32; p])
}

/// The weight row of a singleton "group": the drain protocol's
/// self-assignment keeps the worker's own model with full mass. Trivially
/// doubly stochastic; routed through here so every row in the system
/// comes from this module.
pub fn singleton_weights() -> WeightRow {
    WeightRow(vec![1.0])
}

/// Staleness-aware weights for dynamic partial reduce.
///
/// `iterations[i]` is member `i`'s current iteration number as reported in
/// its ready signal; `alpha ∈ (0, 1)` is the EMA decay. Returns one weight
/// per member, aligned with `iterations`, summing to 1 (up to float error).
///
/// # Panics
/// Panics if `iterations` is empty or `alpha` is outside `(0, 1)`.
pub fn dynamic_weights(iterations: &[u64], alpha: f64, gap_policy: GapPolicy) -> WeightRow {
    assert!(!iterations.is_empty(), "group must be non-empty");
    assert!(
        alpha > 0.0 && alpha < 1.0,
        "EMA decay must lie in (0, 1), got {alpha}"
    );
    let p = iterations.len();
    let k_max = iterations.iter().copied().max().unwrap_or(0);

    // Relative iteration numbers k̂_i ∈ [1, k̂_max].
    let rel: Vec<u64> = iterations.iter().map(|&k| k_max - k + 1).collect();
    let rel_max = rel.iter().copied().max().unwrap_or(1);

    // All members at the same iteration: degenerate to constant weights
    // (also avoids 0/0 when α^1 cancellation would apply).
    if rel_max == 1 {
        return constant_weights(p);
    }

    // β(r) per Eq. 9 with k replaced by k̂_max.
    let denom = 1.0 - alpha.powi(rel_max as i32);
    let beta = |r: u64| -> f64 { (1.0 - alpha) * alpha.powi((r - 1) as i32) / denom };

    // Owners per relative iteration number.
    let mut weights = vec![0.0f64; p];
    for r in 1..=rel_max {
        let owners: Vec<usize> = (0..p).filter(|&i| rel[i] == r).collect();
        let mass = beta(r);
        if !owners.is_empty() {
            let share = mass / owners.len() as f64;
            for i in owners {
                weights[i] += share;
            }
            continue;
        }
        // Gap: route per policy. The stalest relative number always has an
        // owner (the min-iteration member), so recipients are never empty.
        let recipients: Vec<usize> = match gap_policy {
            GapPolicy::Initial => (0..p).filter(|&i| rel[i] == rel_max).collect(),
        };
        debug_assert!(!recipients.is_empty());
        let share = mass / recipients.len() as f64;
        for i in recipients {
            weights[i] += share;
        }
    }
    WeightRow(weights.into_iter().map(|w| w as f32).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_sums_to_one(w: &[f32]) {
        let s: f32 = w.iter().sum();
        assert!((s - 1.0).abs() < 1e-5, "weights sum to {s}: {w:?}");
    }

    #[test]
    fn constant_weights_are_uniform() {
        let w = constant_weights(4);
        assert_eq!(*w, [0.25; 4]);
        assert_sums_to_one(&w);
    }

    #[test]
    fn equal_iterations_degenerate_to_constant() {
        let w = dynamic_weights(&[7, 7, 7], 0.5, GapPolicy::Initial);
        for v in w.iter() {
            assert!((v - 1.0 / 3.0).abs() < 1e-6);
        }
        assert_sums_to_one(&w);
    }

    #[test]
    fn fresher_members_weigh_more() {
        // k = [10, 9, 5]: rel = [1, 2, 6].
        let w = dynamic_weights(&[10, 9, 5], 0.5, GapPolicy::Initial);
        assert_sums_to_one(&w);
        assert!(w[0] > w[1], "{w:?}");
        assert!(w[1] > w[2], "{w:?}");
    }

    #[test]
    fn two_member_known_values() {
        // k = [2, 1]: rel = [1, 2], k̂max = 2, α = 0.5.
        // β(1) = 0.5/0.75 = 2/3, β(2) = 0.25/0.75 = 1/3.
        let w = dynamic_weights(&[2, 1], 0.5, GapPolicy::Initial);
        assert!((w[0] - 2.0 / 3.0).abs() < 1e-6);
        assert!((w[1] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn ties_split_equally() {
        // k = [9, 9, 8, 8]: rel = [1, 1, 2, 2], no gaps. α = 0.5:
        // β(1) = 2/3 split two ways, β(2) = 1/3 split two ways.
        let w = dynamic_weights(&[9, 9, 8, 8], 0.5, GapPolicy::Initial);
        assert_sums_to_one(&w);
        assert!((w[0] - w[1]).abs() < 1e-7);
        assert!((w[2] - w[3]).abs() < 1e-7);
        assert!((w[0] - 1.0 / 3.0).abs() < 1e-6);
        assert!((w[2] - 1.0 / 6.0).abs() < 1e-6);
        assert!(w[0] > w[2]);
    }

    #[test]
    fn initial_policy_collapses_to_one_minus_alpha_for_pairs() {
        // With one fresh and one very stale member, all gap mass routes to
        // the stale model: weights → [(1−α)/(1−α^k̂), ...rest]. This is the
        // paper's conservative approximation taken to its extreme.
        let w = dynamic_weights(&[1000, 1], 0.3, GapPolicy::Initial);
        assert_sums_to_one(&w);
        assert!((w[0] - 0.7).abs() < 1e-5);
        assert!((w[1] - 0.3).abs() < 1e-5);
    }

    #[test]
    fn gap_mass_goes_to_stalest_under_initial_policy() {
        // k = [10, 1]: rel = [1, 10]; gaps 2..9 exist.
        // Initial policy: member 1 receives β(2..=10).
        let w = dynamic_weights(&[10, 1], 0.5, GapPolicy::Initial);
        assert_sums_to_one(&w);
        // β(1) = 0.5 / (1 - 0.5^10) ≈ 0.5005; the rest goes to member 1.
        assert!((w[0] as f64 - 0.5 / (1.0 - 0.5f64.powi(10))).abs() < 1e-6);
        assert!(w[1] > 0.49 && w[1] < 0.5);
    }

    #[test]
    fn smaller_alpha_penalizes_staleness_harder() {
        let mild = dynamic_weights(&[10, 8], 0.9, GapPolicy::Initial);
        let harsh = dynamic_weights(&[10, 8], 0.2, GapPolicy::Initial);
        assert!(harsh[0] > mild[0]);
        assert!(harsh[1] < mild[1]);
    }

    #[test]
    fn weights_always_normalized_and_nonnegative() {
        let cases: Vec<Vec<u64>> = vec![
            vec![1],
            vec![100, 1],
            vec![3, 3, 3, 3, 3],
            vec![50, 49, 48, 10, 2],
            vec![7, 7, 1, 1],
        ];
        for c in cases {
            for alpha in [0.1, 0.5, 0.9] {
                let w = dynamic_weights(&c, alpha, GapPolicy::Initial);
                assert_sums_to_one(&w);
                assert!(w.iter().all(|&x| x >= 0.0), "{c:?} {alpha} {w:?}");
            }
        }
    }

    #[test]
    fn singleton_group_gets_full_weight() {
        let w = dynamic_weights(&[42], 0.5, GapPolicy::Initial);
        assert_eq!(*w, [1.0]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_group() {
        dynamic_weights(&[], 0.5, GapPolicy::Initial);
    }

    #[test]
    #[should_panic(expected = "(0, 1)")]
    fn rejects_bad_alpha() {
        dynamic_weights(&[1, 2], 1.0, GapPolicy::Initial);
    }
}
