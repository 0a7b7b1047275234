//! Synchronization matrices `W_k` (Eq. 3–4).
//!
//! The global view of one partial reduce is `X_{k+1} = (X_k − η G_k) W_k`,
//! where column `j` of `W_k` gives the mixing weights producing worker `j`'s
//! next model. For constant partial reduce over group `S` (Eq. 4):
//!
//! ```text
//! W_k(i,j) = 1/P  if i, j ∈ S,
//!            1    if i = j ∉ S,
//!            0    otherwise
//! ```
//!
//! which is symmetric and doubly stochastic (Assumption 2.1). The weighted
//! variant generalizes to dynamic weights (column-stochastic; symmetric only
//! when the weights are uniform).

use preduce_tensor::Tensor;

fn check_group(n: usize, group: &[usize]) {
    assert!(!group.is_empty(), "group must be non-empty");
    for &w in group {
        assert!(w < n, "worker {w} out of range (N = {n})");
    }
    let mut sorted = group.to_vec();
    sorted.sort_unstable();
    assert!(
        sorted.windows(2).all(|w| w[0] != w[1]),
        "group has duplicate members: {group:?}"
    );
}

/// The constant-partial-reduce synchronization matrix of Eq. 4 for a group
/// within a cluster of `n` workers.
///
/// # Panics
/// Panics if the group is empty, has duplicates, or references workers
/// outside `0..n`.
pub fn sync_matrix(n: usize, group: &[usize]) -> Tensor {
    check_group(n, group);
    weighted_sync_matrix(n, group, &crate::weights::constant_weights(group.len()))
}

/// The synchronization matrix for a weighted partial reduce: each member
/// `j ∈ S` replaces its model with `Σ_{i∈S} weights[i] · x_i`; outsiders
/// keep theirs. Every column sums to 1.
///
/// # Panics
/// Panics on an invalid group, weight-count mismatch, or weights that do
/// not sum to 1 (within 1e-4).
pub fn weighted_sync_matrix(n: usize, group: &[usize], weights: &[f32]) -> Tensor {
    check_group(n, group);
    assert_eq!(
        group.len(),
        weights.len(),
        "one weight per group member required"
    );
    let total: f32 = weights.iter().sum();
    assert!(
        (total - 1.0).abs() < 1e-4,
        "weights must sum to 1, got {total}"
    );

    let mut w = Tensor::zeros([n, n]);
    let in_group = {
        let mut mask = vec![false; n];
        for &m in group {
            mask[m] = true;
        }
        mask
    };
    for (i, &member) in in_group.iter().enumerate() {
        if !member {
            w.set(&[i, i], 1.0);
        }
    }
    for (pos, &i) in group.iter().enumerate() {
        for &j in group {
            // Column j (worker j's new model) takes weights[pos] of x_i.
            w.set(&[i, j], weights[pos]);
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks that a matrix is doubly stochastic within `tol`
    /// (rows and columns each sum to 1, entries non-negative).
    fn is_doubly_stochastic(w: &Tensor, tol: f32) -> bool {
        if w.shape().rank() != 2 || w.shape().dim(0) != w.shape().dim(1) {
            return false;
        }
        let n = w.shape().dim(0);
        for i in 0..n {
            let mut row = 0.0f32;
            let mut col = 0.0f32;
            for j in 0..n {
                let rij = w.at(&[i, j]);
                let cji = w.at(&[j, i]);
                if rij < -tol || cji < -tol {
                    return false;
                }
                row += rij;
                col += cji;
            }
            if (row - 1.0).abs() > tol || (col - 1.0).abs() > tol {
                return false;
            }
        }
        true
    }

    #[test]
    fn eq4_structure() {
        let w = sync_matrix(4, &[1, 3]);
        // Outsiders: identity.
        assert_eq!(w.at(&[0, 0]), 1.0);
        assert_eq!(w.at(&[2, 2]), 1.0);
        // Members: 1/P block.
        assert_eq!(w.at(&[1, 1]), 0.5);
        assert_eq!(w.at(&[1, 3]), 0.5);
        assert_eq!(w.at(&[3, 1]), 0.5);
        assert_eq!(w.at(&[3, 3]), 0.5);
        // Cross terms zero.
        assert_eq!(w.at(&[0, 1]), 0.0);
        assert_eq!(w.at(&[1, 0]), 0.0);
    }

    #[test]
    fn constant_matrix_is_doubly_stochastic_and_symmetric() {
        let w = sync_matrix(6, &[0, 2, 5]);
        assert!(is_doubly_stochastic(&w, 1e-6));
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(w.at(&[i, j]), w.at(&[j, i]));
            }
        }
    }

    #[test]
    fn full_group_is_uniform_matrix() {
        let w = sync_matrix(3, &[0, 1, 2]);
        for i in 0..3 {
            for j in 0..3 {
                assert!((w.at(&[i, j]) - 1.0 / 3.0).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn weighted_matrix_columns_sum_to_one() {
        let w = weighted_sync_matrix(4, &[0, 1, 2], &[0.5, 0.3, 0.2]);
        for j in 0..4 {
            let col: f32 = (0..4).map(|i| w.at(&[i, j])).sum();
            assert!((col - 1.0).abs() < 1e-6, "column {j} sums to {col}");
        }
        // Member column: worker 1's new model = 0.5 x0 + 0.3 x1 + 0.2 x2.
        assert_eq!(w.at(&[0, 1]), 0.5);
        assert_eq!(w.at(&[1, 1]), 0.3);
        assert_eq!(w.at(&[2, 1]), 0.2);
        assert_eq!(w.at(&[3, 1]), 0.0);
    }

    #[test]
    fn weighted_matrix_applies_mixing() {
        // X: each worker's (1-dim) model as a column of a 1×N matrix.
        let x = [10.0, 20.0, 30.0];
        let w = weighted_sync_matrix(3, &[0, 1], &[0.75, 0.25]);
        let mut x_next = [0.0f32; 3];
        preduce_tensor::kernels::gemm(1, 3, 3, &x, w.as_slice(), &mut x_next);
        // Members 0,1 → 0.75·10 + 0.25·20 = 12.5; outsider keeps 30.
        assert_eq!(x_next, [12.5, 12.5, 30.0]);
    }

    #[test]
    fn non_doubly_stochastic_detected() {
        let w = weighted_sync_matrix(3, &[0, 1], &[0.9, 0.1]);
        // Column-stochastic but rows don't sum to 1 (0.9+0.9+0 ≠ 1).
        assert!(!is_doubly_stochastic(&w, 1e-6));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_members() {
        sync_matrix(4, &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_unnormalized_weights() {
        weighted_sync_matrix(3, &[0, 1], &[0.9, 0.9]);
    }
}
