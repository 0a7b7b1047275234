//! Nonlinearities and row-wise classification ops.

use crate::tensor::Tensor;

/// Elementwise ReLU of an owned tensor, computed in place.
pub fn relu(mut x: Tensor) -> Tensor {
    // An unconditional store of a select, not a conditional store: the
    // sign of a pre-activation is a coin flip, and this form vectorises
    // where the branch would mispredict every other element.
    for v in x.as_mut_slice() {
        *v = if *v < 0.0 { 0.0 } else { *v };
    }
    x
}

/// Backward pass of ReLU: masks the owned `grad` in place by the sign of
/// the forward *input* (or, equivalently, of the forward output: `relu(x)`
/// is positive exactly where `x` is).
///
/// # Panics
/// Panics if `input` and `grad` have different shapes.
pub fn relu_backward(input: &Tensor, mut grad: Tensor) -> Tensor {
    assert_eq!(
        input.shape(),
        grad.shape(),
        "relu_backward shape mismatch: {} vs {}",
        input.shape(),
        grad.shape()
    );
    for (g, &x) in grad.as_mut_slice().iter_mut().zip(input.as_slice()) {
        *g = if x <= 0.0 { 0.0 } else { *g };
    }
    grad
}

/// Row-wise numerically-stable softmax of a rank-2 tensor.
///
/// # Panics
/// Panics if `x` is not rank-2.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    assert_eq!(x.shape().rank(), 2, "softmax_rows requires rank-2 input");
    let (rows, cols) = (x.shape().dim(0), x.shape().dim(1));
    let mut out = x.clone();
    for r in 0..rows {
        let row = &mut out.as_mut_slice()[r * cols..(r + 1) * cols];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Row-wise numerically-stable log-softmax of a rank-2 tensor.
///
/// # Panics
/// Panics if `x` is not rank-2.
pub fn log_softmax_rows(x: &Tensor) -> Tensor {
    assert_eq!(
        x.shape().rank(),
        2,
        "log_softmax_rows requires rank-2 input"
    );
    let (rows, cols) = (x.shape().dim(0), x.shape().dim(1));
    let mut out = x.clone();
    for r in 0..rows {
        let row = &mut out.as_mut_slice()[r * cols..(r + 1) * cols];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let log_sum = row
            .iter()
            .map(|&v| ((v - max) as f64).exp())
            .sum::<f64>()
            .ln() as f32;
        for v in row.iter_mut() {
            *v = *v - max - log_sum;
        }
    }
    out
}

/// Index of the maximum entry in each row of a rank-2 tensor
/// (ties resolve to the lowest index).
///
/// # Panics
/// Panics if `x` is not rank-2 or has zero columns.
pub fn argmax_rows(x: &Tensor) -> Vec<usize> {
    assert_eq!(x.shape().rank(), 2, "argmax_rows requires rank-2 input");
    let (rows, cols) = (x.shape().dim(0), x.shape().dim(1));
    assert!(cols > 0, "argmax_rows requires at least one column");
    (0..rows)
        .map(|r| {
            let row = x.row(r);
            let mut best = 0;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_zeroes_negatives() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], [3]).unwrap();
        assert_eq!(relu(x).as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks_by_input_sign() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], [3]).unwrap();
        let g = Tensor::from_vec(vec![5.0, 5.0, 5.0], [3]).unwrap();
        assert_eq!(relu_backward(&x, g).as_slice(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], [2, 3]).unwrap();
        let s = softmax_rows(&x);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(s.row(r).iter().all(|&v| v > 0.0));
        }
        // Monotone: larger logit ⇒ larger probability.
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let x = Tensor::from_vec(vec![1000.0, 1001.0], [1, 2]).unwrap();
        let s = softmax_rows(&x);
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let x = Tensor::from_vec(vec![0.5, -0.25, 2.0], [1, 3]).unwrap();
        let s = softmax_rows(&x);
        let ls = log_softmax_rows(&x);
        for (a, b) in s.as_slice().iter().zip(ls.as_slice()) {
            assert!((a.ln() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn argmax_rows_picks_max_and_breaks_ties_low() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 2.0, 5.0, 5.0, 0.0], [2, 3]).unwrap();
        assert_eq!(argmax_rows(&x), vec![1, 0]);
    }
}
