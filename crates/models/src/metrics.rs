//! Classification metrics used by the convergence experiments.

use std::sync::atomic::{AtomicUsize, Ordering};

use preduce_data::Dataset;
use preduce_tensor::{argmax_rows, Tensor};

use crate::network::Network;

/// Fraction of rows whose argmax matches the label.
///
/// # Panics
/// Panics if `logits` is not rank-2 or the label count differs.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    assert_eq!(
        logits.shape().dim(0),
        labels.len(),
        "batch/label count mismatch"
    );
    if labels.is_empty() {
        return 0.0;
    }
    let preds = argmax_rows(logits);
    let correct = preds
        .iter()
        .zip(labels.iter())
        .filter(|(p, y)| p == y)
        .count();
    correct as f64 / labels.len() as f64
}

/// Evaluates test accuracy of `net` over `dataset`, batching to bound the
/// activation memory. Runs [`Network::infer`], so the network — its mode
/// included — is left as it was found (`&mut` only because callers have
/// always passed it so).
///
/// # Panics
/// Panics if `eval_batch == 0`.
pub fn evaluate_accuracy(net: &mut Network, dataset: &Dataset, eval_batch: usize) -> f64 {
    evaluate_accuracy_parallel(net, dataset, eval_batch, 1)
}

/// Data-parallel [`evaluate_accuracy`]: up to `threads` OS threads (the
/// caller's included) claim the dataset's evaluation batches one at a time,
/// all reading the one `net` (inference takes `&self` and caches nothing),
/// and their *integer* correct counts are summed. Integer addition is
/// associative, so the result is the same for any thread count and any
/// claiming order — safe for golden-pinned trajectories — and a thread
/// that is scheduled late delays nothing.
///
/// (The roadmap names rayon for this; the workspace is dependency-frozen,
/// so scoped `std::thread` does the same fork-join without a new crate.)
///
/// # Panics
/// Panics if `eval_batch == 0` or `threads == 0`.
pub fn evaluate_accuracy_parallel(
    net: &Network,
    dataset: &Dataset,
    eval_batch: usize,
    threads: usize,
) -> f64 {
    assert!(eval_batch > 0, "evaluation batch size must be positive");
    assert!(threads > 0, "thread count must be positive");
    let n = dataset.len();
    if n == 0 {
        return 0.0;
    }
    let num_batches = n.div_ceil(eval_batch);
    let next_batch = AtomicUsize::new(0);
    let claim_and_count = || {
        let mut correct = 0usize;
        loop {
            let start = next_batch.fetch_add(1, Ordering::Relaxed) * eval_batch;
            if start >= n {
                return correct;
            }
            let idx: Vec<usize> = (start..(start + eval_batch).min(n)).collect();
            let batch = dataset.gather(&idx);
            let preds = argmax_rows(&net.infer(&batch.features));
            correct += preds
                .iter()
                .zip(batch.labels.iter())
                .filter(|(p, y)| p == y)
                .count();
        }
    };
    let correct: usize = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads.min(num_batches))
            .map(|_| scope.spawn(claim_and_count))
            .collect();
        let own = claim_and_count();
        helpers
            .into_iter()
            .map(|h| h.join().expect("evaluation worker panicked"))
            .sum::<usize>()
            + own
    });
    correct as f64 / n as f64
}

/// Fraction of rows whose label appears among the `k` highest logits —
/// the top-k accuracy ImageNet evaluations report alongside top-1.
///
/// # Panics
/// Panics if `k == 0`, `logits` is not rank-2, or the label count differs.
pub fn topk_accuracy(logits: &Tensor, labels: &[usize], k: usize) -> f64 {
    assert!(k > 0, "k must be positive");
    assert_eq!(logits.shape().rank(), 2, "logits must be [batch, classes]");
    assert_eq!(
        logits.shape().dim(0),
        labels.len(),
        "batch/label count mismatch"
    );
    if labels.is_empty() {
        return 0.0;
    }
    let classes = logits.shape().dim(1);
    let k = k.min(classes);
    let mut correct = 0usize;
    for (r, &y) in labels.iter().enumerate() {
        let row = logits.row(r);
        let target = row[y];
        // Label is in the top k iff fewer than k entries strictly beat it
        // (ties resolve in the label's favor, matching argmax's
        // lowest-index rule only approximately; exact ties are measure-
        // zero for real logits).
        let beaten_by = row.iter().filter(|&&v| v > target).count();
        if beaten_by < k {
            correct += 1;
        }
    }
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NetworkSpec;

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(
            vec![
                1.0, 0.0, // -> 0
                0.0, 1.0, // -> 1
                1.0, 0.0, // -> 0
            ],
            [3, 2],
        )
        .unwrap();
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn accuracy_of_empty_is_zero() {
        let logits = Tensor::zeros([0, 3]);
        assert_eq!(accuracy(&logits, &[]), 0.0);
    }

    #[test]
    fn topk_contains_top1() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let logits = Tensor::from_vec(
            (0..60).map(|_| rng.gen_range(-3.0f32..3.0)).collect(),
            [6, 10],
        )
        .unwrap();
        let labels: Vec<usize> = (0..6).map(|i| i % 10).collect();
        let top1 = topk_accuracy(&logits, &labels, 1);
        let top5 = topk_accuracy(&logits, &labels, 5);
        let top10 = topk_accuracy(&logits, &labels, 10);
        assert!((top1 - accuracy(&logits, &labels)).abs() < 1e-12);
        assert!(top1 <= top5);
        assert!(top5 <= top10);
        assert_eq!(top10, 1.0); // k = classes covers everything
    }

    #[test]
    fn topk_known_values() {
        let logits = Tensor::from_vec(
            vec![
                5.0, 4.0, 3.0, 2.0, // label 2 is 3rd-best
            ],
            [1, 4],
        )
        .unwrap();
        assert_eq!(topk_accuracy(&logits, &[2], 2), 0.0);
        assert_eq!(topk_accuracy(&logits, &[2], 3), 1.0);
        // k larger than classes clamps.
        assert_eq!(topk_accuracy(&logits, &[3], 99), 1.0);
    }

    #[test]
    fn parallel_evaluation_is_exactly_sequential() {
        let net = NetworkSpec::mlp(4, &[8], 3).build(5);
        let features =
            Tensor::from_vec((0..168).map(|i| (i % 11) as f32 - 5.0).collect(), [42, 4]).unwrap();
        let labels = (0..42).map(|i| i % 3).collect::<Vec<_>>();
        let ds = Dataset::new(features, labels, 3);
        let sequential = evaluate_accuracy(&mut net.clone(), &ds, 5);
        for threads in [1, 2, 3, 8, 64] {
            let parallel = evaluate_accuracy_parallel(&net, &ds, 5, threads);
            assert_eq!(
                sequential.to_bits(),
                parallel.to_bits(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn evaluation_leaves_the_network_mode_alone() {
        use crate::spec::LayerSpec;
        let mut net = NetworkSpec {
            input_dim: 4,
            layers: vec![
                LayerSpec::Dropout { p_mille: 500 },
                LayerSpec::Dense {
                    in_features: 4,
                    out_features: 3,
                },
            ],
        }
        .build(2);
        let features =
            Tensor::from_vec((0..48).map(|i| (i % 9) as f32 - 4.0).collect(), [12, 4]).unwrap();
        let ds = Dataset::new(features.clone(), (0..12).map(|i| i % 3).collect(), 3);
        net.set_training(false);
        let before = net.forward(&features);
        evaluate_accuracy(&mut net, &ds, 5);
        // Still in evaluation mode: dropout stays off, same logits.
        let after = net.forward(&features);
        assert_eq!(crate::bits(&before), crate::bits(&after));
    }

    #[test]
    fn evaluate_accuracy_batches_consistently() {
        // Accuracy must not depend on the evaluation batch size.
        let mut net = NetworkSpec::mlp(4, &[8], 3).build(5);
        let features =
            Tensor::from_vec((0..40).map(|i| (i % 7) as f32 - 3.0).collect(), [10, 4]).unwrap();
        let labels = (0..10).map(|i| i % 3).collect::<Vec<_>>();
        let ds = Dataset::new(features, labels, 3);
        let a1 = evaluate_accuracy(&mut net, &ds, 3);
        let a2 = evaluate_accuracy(&mut net, &ds, 10);
        let a3 = evaluate_accuracy(&mut net, &ds, 1);
        assert!((a1 - a2).abs() < 1e-12);
        assert!((a1 - a3).abs() < 1e-12);
    }
}
