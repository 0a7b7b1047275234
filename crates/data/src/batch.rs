//! Minibatch sampling (Algorithm 2, line 2: "randomly sample a batch from
//! local data of the i-th worker").

use rand::seq::index::sample as index_sample;
use rand::Rng;

use crate::dataset::{Batch, Dataset};

/// Draws random minibatches from a dataset with the caller's RNG.
///
/// Sampling is *without replacement within a batch* and *with replacement
/// across batches*, matching the i.i.d. sampling model of the paper's
/// analysis (each worker's batch is an unbiased sample of its shard).
#[derive(Debug)]
pub struct BatchSampler {
    dataset: Dataset,
    batch_size: usize,
}

impl BatchSampler {
    /// Creates a sampler over `dataset` drawing `batch_size`-example batches.
    ///
    /// If `batch_size` exceeds the dataset size it is clamped to the dataset
    /// size (small shards at high worker counts).
    ///
    /// # Panics
    /// Panics if `batch_size == 0` or the dataset is empty.
    pub fn new(dataset: Dataset, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(!dataset.is_empty(), "cannot sample from an empty dataset");
        let batch_size = batch_size.min(dataset.len());
        BatchSampler {
            dataset,
            batch_size,
        }
    }

    /// The effective batch size (after clamping).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Draws a random minibatch with `rng`: the simulator's harness RNG,
    /// or the worker thread's or process's own, so the caller owns all
    /// randomness.
    pub fn next_batch_with<R: Rng + ?Sized>(&self, rng: &mut R) -> Batch {
        let idx = index_sample(rng, self.dataset.len(), self.batch_size).into_vec();
        self.dataset.gather(&idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preduce_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy(n: usize) -> Dataset {
        let features = Tensor::from_vec((0..n).map(|i| i as f32).collect(), [n, 1]).unwrap();
        Dataset::new(features, vec![0; n], 1)
    }

    #[test]
    fn batches_have_requested_size() {
        let s = BatchSampler::new(toy(100), 16);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..5 {
            assert_eq!(s.next_batch_with(&mut rng).len(), 16);
        }
    }

    #[test]
    fn batch_size_clamped_to_dataset() {
        let s = BatchSampler::new(toy(5), 16);
        assert_eq!(s.batch_size(), 5);
    }

    #[test]
    fn within_batch_sampling_is_without_replacement() {
        let s = BatchSampler::new(toy(32), 32);
        let b = s.next_batch_with(&mut StdRng::seed_from_u64(1));
        let mut vals: Vec<i64> = (0..32).map(|i| b.features.row(i)[0] as i64).collect();
        vals.sort_unstable();
        vals.dedup();
        assert_eq!(vals.len(), 32, "batch repeated an example");
    }

    #[test]
    fn external_rng_variant_is_pure() {
        let s = BatchSampler::new(toy(50), 8);
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        assert_eq!(
            s.next_batch_with(&mut r1).features.as_slice(),
            s.next_batch_with(&mut r2).features.as_slice()
        );
    }
}
