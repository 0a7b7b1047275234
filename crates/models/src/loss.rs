//! The loss function. It sits outside the [`crate::Network`]: the trainer
//! calls `network.forward(x)` to obtain logits, then the loss's gradient
//! to feed `network.backward`; the scalar loss is for probes and tests.

use preduce_tensor::{log_softmax_rows, softmax_rows, Tensor};

/// The result of a loss evaluation: the mean loss over the batch plus the
/// gradient of that mean loss w.r.t. the network output.
#[derive(Debug, Clone)]
pub struct LossOutput {
    /// Mean loss over the batch.
    pub loss: f64,
    /// `[batch, out]` gradient of the mean loss w.r.t. the logits.
    pub grad: Tensor,
}

/// Softmax cross-entropy over class logits.
///
/// Returns the batch-mean negative log-likelihood and its gradient
/// `(softmax(logits) − onehot(labels)) / batch`, the bits of
/// [`softmax_cross_entropy_grad`].
///
/// # Panics
/// Panics if `logits` is not rank-2, the label count differs from the batch
/// size, or a label is out of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> LossOutput {
    let grad = softmax_cross_entropy_grad(logits, labels);
    let log_probs = log_softmax_rows(logits);
    let mut loss = 0.0f64;
    for (r, &y) in labels.iter().enumerate() {
        loss -= log_probs.row(r)[y] as f64;
    }
    loss /= labels.len() as f64;
    LossOutput { loss, grad }
}

/// The gradient of [`softmax_cross_entropy`] alone,
/// `(softmax(logits) − onehot(labels)) / batch`: what a training step
/// needs, without the loss's log-sum-exp.
///
/// # Panics
/// Panics if `logits` is not rank-2, the label count differs from the batch
/// size, or a label is out of range.
pub fn softmax_cross_entropy_grad(logits: &Tensor, labels: &[usize]) -> Tensor {
    assert_eq!(logits.shape().rank(), 2, "logits must be [batch, classes]");
    let (batch, classes) = (logits.shape().dim(0), logits.shape().dim(1));
    assert_eq!(batch, labels.len(), "batch/label count mismatch");
    assert!(
        labels.iter().all(|&y| y < classes),
        "label out of range for {classes} classes"
    );

    let mut grad = softmax_rows(logits);
    let scale = 1.0 / batch as f32;
    for (r, &y) in labels.iter().enumerate() {
        let row = grad.row_mut(r);
        row[y] -= 1.0;
        for v in row.iter_mut() {
            *v *= scale;
        }
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_classes() {
        let logits = Tensor::zeros([4, 10]);
        let out = softmax_cross_entropy(&logits, &[0, 1, 2, 3]);
        assert!((out.loss - (10.0f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![2.0, -1.0, 0.5, 0.0, 0.0, 3.0], [2, 3]).unwrap();
        let out = softmax_cross_entropy(&logits, &[0, 2]);
        for r in 0..2 {
            let s: f32 = out.grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![0.5, -0.2, 1.0, 0.0], [1, 4]).unwrap();
        let labels = [2usize];
        let out = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for i in 0..4 {
            let mut hi = logits.clone();
            hi.as_mut_slice()[i] += eps;
            let mut lo = logits.clone();
            lo.as_mut_slice()[i] -= eps;
            let numeric = (softmax_cross_entropy(&hi, &labels).loss
                - softmax_cross_entropy(&lo, &labels).loss)
                / (2.0 * eps as f64);
            let a = out.grad.as_slice()[i] as f64;
            assert!((a - numeric).abs() < 1e-4, "i={i}: {a} vs {numeric}");
        }
    }

    #[test]
    fn confident_correct_prediction_has_small_loss() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0], [1, 3]).unwrap();
        let out = softmax_cross_entropy(&logits, &[0]);
        assert!(out.loss < 1e-6);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn gradient_alone_rejects_bad_label() {
        softmax_cross_entropy_grad(&Tensor::zeros([1, 3]), &[3]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn cross_entropy_rejects_bad_label() {
        softmax_cross_entropy(&Tensor::zeros([1, 3]), &[3]);
    }
}
