//! Test-set accuracy, the metric the convergence experiments report.

use std::sync::atomic::{AtomicUsize, Ordering};

use preduce_data::Dataset;
use preduce_tensor::argmax_rows;

use crate::network::Network;

/// Test accuracy of `net` over `dataset` — the fraction of rows whose
/// argmax logit is the label — batching to bound the activation memory.
///
/// Up to `threads` OS threads (the caller's included) claim the dataset's
/// evaluation batches one at a time, all reading the one `net` (inference
/// takes `&self` and keeps nothing), and their *integer* correct counts
/// are summed. Integer addition is associative, so the result is the same
/// for any thread count and any claiming order — safe for golden-pinned
/// trajectories — and a thread that is scheduled late delays nothing.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NetworkSpec;
    use preduce_tensor::Tensor;

    #[test]
    fn counts_rows_whose_argmax_is_the_label() {
        // Identity weights and zero bias make the logits the features.
        let mut net = NetworkSpec::mlp(2, &[], 2).build(0);
        net.set_param_vector(&Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0], [6]).unwrap());
        let features = Tensor::from_vec(
            vec![
                1.0, 0.0, // -> 0
                0.0, 1.0, // -> 1
                1.0, 0.0, // -> 0
            ],
            [3, 2],
        )
        .unwrap();
        let ds = Dataset::new(features, vec![0, 1, 1], 2);
        let acc = evaluate_accuracy_parallel(&net, &ds, 2, 1);
        assert!((acc - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_evaluation_is_exactly_sequential() {
        let net = NetworkSpec::mlp(4, &[8], 3).build(5);
        let features =
            Tensor::from_vec((0..168).map(|i| (i % 11) as f32 - 5.0).collect(), [42, 4]).unwrap();
        let labels = (0..42).map(|i| i % 3).collect::<Vec<_>>();
        let ds = Dataset::new(features, labels, 3);
        let sequential = evaluate_accuracy_parallel(&net, &ds, 5, 1);
        for threads in [2, 3, 8, 64] {
            let parallel = evaluate_accuracy_parallel(&net, &ds, 5, threads);
            assert_eq!(
                sequential.to_bits(),
                parallel.to_bits(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn evaluate_accuracy_batches_consistently() {
        // Accuracy must not depend on the evaluation batch size.
        let net = NetworkSpec::mlp(4, &[8], 3).build(5);
        let features =
            Tensor::from_vec((0..40).map(|i| (i % 7) as f32 - 3.0).collect(), [10, 4]).unwrap();
        let labels = (0..10).map(|i| i % 3).collect::<Vec<_>>();
        let ds = Dataset::new(features, labels, 3);
        let a1 = evaluate_accuracy_parallel(&net, &ds, 3, 1);
        let a2 = evaluate_accuracy_parallel(&net, &ds, 10, 1);
        let a3 = evaluate_accuracy_parallel(&net, &ds, 1, 1);
        assert!((a1 - a2).abs() < 1e-12);
        assert!((a1 - a3).abs() < 1e-12);
    }
}
