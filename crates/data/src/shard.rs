//! Data sharding across workers (§4 of the paper: each worker handles a
//! subset of the training data).

use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;

/// How examples are assigned to worker shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardStrategy {
    /// Contiguous blocks in dataset order. Matches a naive HDFS block split;
    /// shards can be class-skewed if the dataset is ordered.
    Contiguous,
    /// Round-robin assignment (`i % n_shards`).
    RoundRobin,
    /// A seeded global shuffle followed by contiguous blocks — the
    /// "shuffle the local data among workers" setup the paper's unbiasedness
    /// assumption (Assumption 1.2) relies on. This is the default used by the
    /// experiments, and the shard a worker keeps for the whole run: a
    /// restored worker resumes the same shard (DESIGN.md §14).
    Shuffled {
        /// Shuffle seed.
        seed: u64,
    },
    /// Sort by label, then contiguous blocks: maximally **non-IID** shards
    /// (each worker sees only a slice of the classes). Violates
    /// Assumption 1.2 on purpose — used to study what schedule isolation
    /// (frozen groups) costs when shards genuinely differ.
    ByLabel,
}

/// Splits `dataset` into `n_shards` near-equal shards.
///
/// Shard sizes differ by at most one example; every example is assigned to
/// exactly one shard.
///
/// # Panics
/// Panics if `n_shards == 0` or `n_shards > dataset.len()`.
pub fn shard_dataset(dataset: &Dataset, n_shards: usize, strategy: ShardStrategy) -> Vec<Dataset> {
    assert!(n_shards > 0, "need at least one shard");
    assert!(
        n_shards <= dataset.len(),
        "more shards ({n_shards}) than examples ({})",
        dataset.len()
    );

    let n = dataset.len();
    let order: Vec<usize> = match strategy {
        ShardStrategy::Contiguous => (0..n).collect(),
        ShardStrategy::RoundRobin => {
            // Sorting by (i % n_shards, i) groups round-robin assignments.
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by_key(|&i| (i % n_shards, i));
            idx
        }
        ShardStrategy::Shuffled { seed } => {
            let mut idx: Vec<usize> = (0..n).collect();
            idx.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
            idx
        }
        ShardStrategy::ByLabel => {
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by_key(|&i| (dataset.labels()[i], i));
            idx
        }
    };

    // Cut `order` into n_shards near-equal contiguous runs.
    let base = n / n_shards;
    let extra = n % n_shards;
    let mut shards = Vec::with_capacity(n_shards);
    let mut start = 0;
    for s in 0..n_shards {
        let size = base + usize::from(s < extra);
        shards.push(dataset.subset(&order[start..start + size]));
        start += size;
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use preduce_tensor::Tensor;

    fn toy(n: usize) -> Dataset {
        let features = Tensor::from_vec((0..n).map(|i| i as f32).collect(), [n, 1]).unwrap();
        let labels = (0..n).map(|i| i % 2).collect();
        Dataset::new(features, labels, 2)
    }

    #[test]
    fn contiguous_blocks() {
        let shards = shard_dataset(&toy(10), 3, ShardStrategy::Contiguous);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0].len(), 4); // 10 = 4 + 3 + 3
        assert_eq!(shards[1].len(), 3);
        assert_eq!(shards[2].len(), 3);
        assert_eq!(shards[0].features().row(0), &[0.0]);
        assert_eq!(shards[1].features().row(0), &[4.0]);
    }

    #[test]
    fn round_robin_interleaves() {
        let shards = shard_dataset(&toy(6), 2, ShardStrategy::RoundRobin);
        let vals: Vec<f32> = (0..3).map(|i| shards[0].features().row(i)[0]).collect();
        assert_eq!(vals, vec![0.0, 2.0, 4.0]);
    }

    #[test]
    fn shuffled_partitions_everything_exactly_once() {
        let ds = toy(11);
        let shards = shard_dataset(&ds, 4, ShardStrategy::Shuffled { seed: 9 });
        let mut seen: Vec<f32> = shards
            .iter()
            .flat_map(|s| (0..s.len()).map(|i| s.features().row(i)[0]))
            .collect();
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expected: Vec<f32> = (0..11).map(|i| i as f32).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn shuffled_is_seed_deterministic() {
        let ds = toy(20);
        let a = shard_dataset(&ds, 3, ShardStrategy::Shuffled { seed: 1 });
        let b = shard_dataset(&ds, 3, ShardStrategy::Shuffled { seed: 1 });
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.features(), y.features());
        }
    }

    #[test]
    fn sizes_differ_by_at_most_one() {
        let shards = shard_dataset(&toy(17), 5, ShardStrategy::Shuffled { seed: 0 });
        let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1);
        assert_eq!(sizes.iter().sum::<usize>(), 17);
    }

    #[test]
    #[should_panic(expected = "more shards")]
    fn rejects_too_many_shards() {
        shard_dataset(&toy(2), 3, ShardStrategy::Contiguous);
    }

    #[test]
    fn by_label_concentrates_classes() {
        // toy(10): labels alternate 0,1. ByLabel puts all 0s in the first
        // shard, all 1s in the second.
        let shards = shard_dataset(&toy(10), 2, ShardStrategy::ByLabel);
        assert!(shards[0].labels().iter().all(|&y| y == 0));
        assert!(shards[1].labels().iter().all(|&y| y == 1));
    }
}
