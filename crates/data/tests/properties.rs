//! Property-based tests for dataset generation, sharding, and sampling.

use preduce_data::{
    cifar10_like, shard_dataset, BatchSampler, Dataset, GaussianMixture, ShardStrategy, SynthConfig,
};
use preduce_tensor::Tensor;
use proptest::prelude::*;
use rand::SeedableRng;

fn indexed_dataset(n: usize) -> Dataset {
    // Feature value encodes the example index — lets properties check
    // coverage exactly.
    let features = Tensor::from_vec((0..n).map(|i| i as f32).collect(), [n, 1]).unwrap();
    Dataset::new(features, (0..n).map(|i| i % 3).collect(), 3)
}

/// FNV-1a over the feature bits, then the labels.
fn dataset_hash(ds: &Dataset) -> u64 {
    let feature_bytes = ds
        .features()
        .as_slice()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .map(u64::from);
    let labels = ds.labels().iter().map(|&y| y as u64);
    feature_bytes
        .chain(labels)
        .fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The cifar10-like dataset is the bits it was when the warp was one
/// whole-matrix GEMM into a second matrix followed by a `tanh` sweep (the
/// hashes were taken from that code): the sim goldens start from them.
#[test]
fn cifar10_like_generation_is_bit_stable() {
    let recorded = [
        (1, 0xf2a4_1349_0084_6f4b_u64),
        (2, 0x9440_0c12_7c89_4875),
        (3, 0x1ec0_e25a_12c4_4150),
    ];
    for (seed, hash) in recorded {
        let ds = cifar10_like().mixture(seed).generate();
        assert_eq!(dataset_hash(&ds), hash, "seed {seed}");
    }
}

proptest! {
    #[test]
    fn warp_is_the_same_bits_on_any_thread_count(
        seed in any::<u64>(),
        // Straddles the 64-row warp block: one partial block, several
        // blocks, a partial last block, fewer blocks than threads.
        samples in 1usize..400,
    ) {
        let mixture = GaussianMixture::new(SynthConfig {
            num_samples: samples,
            nonlinear_warp: true,
            seed,
            ..SynthConfig::default()
        });
        let draw = |threads| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
            mixture.sample_on(samples, &mut rng, threads)
        };
        let sequential = draw(1);
        for threads in [2, 3] {
            let parallel = draw(threads);
            prop_assert_eq!(dataset_hash(&parallel), dataset_hash(&sequential));
            prop_assert_eq!(parallel.labels(), sequential.labels());
        }
    }

    #[test]
    fn sharding_partitions_exactly(
        n in 4usize..200,
        shards in 1usize..8,
        seed in any::<u64>(),
        strategy_pick in 0u8..3,
    ) {
        prop_assume!(shards <= n);
        let strategy = match strategy_pick {
            0 => ShardStrategy::Contiguous,
            1 => ShardStrategy::RoundRobin,
            _ => ShardStrategy::Shuffled { seed },
        };
        let ds = indexed_dataset(n);
        let parts = shard_dataset(&ds, shards, strategy);
        prop_assert_eq!(parts.len(), shards);
        let mut seen: Vec<i64> = parts
            .iter()
            .flat_map(|s| {
                (0..s.len()).map(|i| s.features().row(i)[0] as i64)
            })
            .collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n as i64).collect::<Vec<_>>());
        // Near-equal sizes.
        let sizes: Vec<usize> = parts.iter().map(|s| s.len()).collect();
        prop_assert!(
            sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1
        );
    }

    #[test]
    fn batches_never_repeat_within(
        n in 8usize..100,
        batch in 1usize..16,
        seed in any::<u64>(),
    ) {
        let s = BatchSampler::new(indexed_dataset(n), batch);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..5 {
            let b = s.next_batch_with(&mut rng);
            let mut vals: Vec<i64> = (0..b.len())
                .map(|i| b.features.row(i)[0] as i64)
                .collect();
            vals.sort_unstable();
            let before = vals.len();
            vals.dedup();
            prop_assert_eq!(vals.len(), before, "duplicate inside batch");
        }
    }

    #[test]
    fn mixture_generation_is_seed_pure(
        seed in any::<u64>(),
        classes in 2usize..8,
    ) {
        let cfg = SynthConfig {
            num_classes: classes,
            num_samples: 64,
            seed,
            ..SynthConfig::default()
        };
        let a = GaussianMixture::new(cfg.clone()).generate();
        let b = GaussianMixture::new(cfg).generate();
        prop_assert_eq!(a.features(), b.features());
        prop_assert_eq!(a.labels(), b.labels());
        prop_assert!(a.labels().iter().all(|&y| y < classes));
    }

    #[test]
    fn label_noise_fraction_is_respected(
        noise_pct in 0u8..=100,
    ) {
        let frac = noise_pct as f64 / 100.0;
        let n = 4000;
        let ds = indexed_dataset(n);
        let before = ds.labels().to_vec();
        let noisy = ds.with_label_noise(
            frac,
            &mut rand::rngs::StdRng::seed_from_u64(1),
        );
        let changed = noisy
            .labels()
            .iter()
            .zip(&before)
            .filter(|(a, b)| a != b)
            .count() as f64
            / n as f64;
        // A resampled label matches the old one 1/3 of the time, so the
        // observed change rate is ≈ frac·(2/3).
        let expected = frac * 2.0 / 3.0;
        prop_assert!(
            (changed - expected).abs() < 0.06,
            "noise {frac}: changed {changed}, expected {expected}"
        );
        prop_assert!(noisy.labels().iter().all(|&y| y < 3));
    }

    #[test]
    fn split_test_is_a_partition(
        n in 10usize..100,
        test in 1usize..9,
    ) {
        prop_assume!(test < n);
        let (train, held) = indexed_dataset(n).split_test(test);
        prop_assert_eq!(train.len() + held.len(), n);
        prop_assert_eq!(held.len(), test);
        // Held-out examples are exactly the tail.
        prop_assert_eq!(held.features().row(0)[0], (n - test) as f32);
    }
}
