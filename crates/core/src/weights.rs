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
/// The cost does not grow with the iteration gap, which the deployed
/// controller reads off remote workers: a member that is not the stalest
/// takes one term, and the stalest members' sum stops at the first term
/// too small to move it. The row is bit for bit the term-by-term sum's.
///
/// # Panics
/// Panics if `iterations` is empty or `alpha` is outside `(0, 1)`.
pub fn dynamic_weights(iterations: &[u64], alpha: f64, gap_policy: GapPolicy) -> WeightRow {
    assert!(!iterations.is_empty(), "group must be non-empty");
    assert!(
        alpha > 0.0 && alpha < 1.0,
        "EMA decay must lie in (0, 1), got {alpha}"
    );
    // The one policy; a second must be routed here before this compiles.
    let GapPolicy::Initial = gap_policy;
    let k_max = iterations.iter().copied().max().unwrap_or(0);
    // `k̂_i − 1` per member: how far it lags the freshest, the power of α
    // in its β, counted without overflow.
    let lags: Vec<u64> = iterations.iter().map(|&k| k_max - k).collect();
    let mut sorted = lags.clone();
    sorted.sort_unstable();
    let stalest = sorted.last().copied().unwrap_or(0);

    // All members at the same iteration: degenerate to constant weights
    // (also avoids 0/0 when α^1 cancellation would apply).
    if stalest == 0 {
        return constant_weights(iterations.len());
    }

    // β(r) per Eq. 9 with k replaced by k̂_max, split among r's ties.
    let power = |e: u64| i32::try_from(e).map_or_else(|_| alpha.powf(e as f64), |e| alpha.powi(e));
    let denom = 1.0 - power(stalest.saturating_add(1));
    let owners =
        |lag: u64| sorted.partition_point(|&g| g <= lag) - sorted.partition_point(|&g| g < lag);
    let share = |lag: u64, ties: usize| (1.0 - alpha) * power(lag) / denom / ties as f64;

    // Gaps: the paper's conservative approximation routes the mass of every
    // relative number no member holds to the stalest members, which hold
    // k̂_max themselves; the freshest member always holds r = 1.
    let stale_owners = owners(stalest);
    let mut stale_weight = 0.0f64;
    for lag in 0..=stalest {
        if lag < stalest && sorted.binary_search(&lag).is_ok() {
            continue;
        }
        let term = share(lag, stale_owners);
        // Under a quarter ulp of the sum; later terms are no larger, up to
        // rounding far below that factor 2, so none moves the sum.
        if stale_weight + 2.0 * term == stale_weight {
            break;
        }
        stale_weight += term;
    }
    let weight = |lag| {
        if lag == stalest {
            stale_weight
        } else {
            share(lag, owners(lag))
        }
    };
    WeightRow(lags.iter().map(|&lag| weight(lag) as f32).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Eq. 9 term by term, one pass per relative iteration number in
    /// `[1, k̂_max]` — the loop [`dynamic_weights`] is held to bit for bit.
    fn reference_dynamic_weights(iterations: &[u64], alpha: f64) -> WeightRow {
        let p = iterations.len();
        let k_max = iterations.iter().copied().max().unwrap_or(0);
        let rel: Vec<u64> = iterations.iter().map(|&k| k_max - k + 1).collect();
        let rel_max = rel.iter().copied().max().unwrap_or(1);
        if rel_max == 1 {
            return constant_weights(p);
        }
        let denom = 1.0 - alpha.powi(rel_max as i32);
        let beta = |r: u64| -> f64 { (1.0 - alpha) * alpha.powi((r - 1) as i32) / denom };
        let mut weights = vec![0.0f64; p];
        for r in 1..=rel_max {
            let mut owners: Vec<usize> = (0..p).filter(|&i| rel[i] == r).collect();
            if owners.is_empty() {
                owners = (0..p).filter(|&i| rel[i] == rel_max).collect();
            }
            let share = beta(r) / owners.len() as f64;
            for i in owners {
                weights[i] += share;
            }
        }
        WeightRow(weights.into_iter().map(|w| w as f32).collect())
    }

    proptest! {
        #[test]
        fn dynamic_weights_are_the_term_by_term_sum_bit_for_bit(
            raw in prop::collection::vec(0u64..4_000, 1..10),
            spread in 1u64..4_000,
            alpha in 0.001f64..0.999,
        ) {
            // A small spread makes ties and dense rows, a large one gaps.
            let iterations: Vec<u64> = raw.iter().map(|k| 1_000 + k % spread).collect();
            let bits = |row: WeightRow| -> Vec<u32> { row.iter().map(|w| w.to_bits()).collect() };
            prop_assert_eq!(
                bits(dynamic_weights(&iterations, alpha, GapPolicy::Initial)),
                bits(reference_dynamic_weights(&iterations, alpha)),
                "iterations {:?}, alpha {}", iterations, alpha
            );
        }
    }

    #[test]
    fn a_gap_past_two_to_the_31_costs_nothing_and_does_not_wrap() {
        let far = 1u64 << 40;
        let w = dynamic_weights(&[far, 1], 0.3, GapPolicy::Initial);
        assert_eq!(*w, *dynamic_weights(&[1_000, 1], 0.3, GapPolicy::Initial));
        // The middle member is 2^39 behind: its own β underflows to 0.
        let w = dynamic_weights(&[far, far / 2, 0, 0], 0.3, GapPolicy::Initial);
        assert_sums_to_one(&w);
        assert_eq!(w[1], 0.0);
        assert_eq!(w[2], w[3]);
        let w = dynamic_weights(&[u64::MAX, 0], 0.5, GapPolicy::Initial);
        assert_sums_to_one(&w);
    }

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
