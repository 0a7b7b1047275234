//! Substrate-level integration: the mini-DL framework trains real tasks to
//! high accuracy, and model/data plumbing composes across crates.

use preduce::data::{shard_dataset, BatchSampler, GaussianMixture, ShardStrategy, SynthConfig};
use preduce::models::{
    evaluate_accuracy_parallel, softmax_cross_entropy, NetworkSpec, SgdConfig, SgdOptimizer,
};
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn mlp_learns_separable_task_to_high_accuracy() {
    let mixture = GaussianMixture::new(SynthConfig {
        num_classes: 4,
        feature_dim: 16,
        num_samples: 1200,
        center_norm: 4.0,
        noise_std: 0.6,
        nonlinear_warp: false,
        seed: 2,
    });
    let (train, test) = mixture.generate().split_test(200);

    let mut net = NetworkSpec::mlp(16, &[32], 4).build(0);
    let mut opt = SgdOptimizer::new(
        SgdConfig {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 1e-4,
            schedule: preduce::models::LrSchedule::Constant,
        },
        net.param_count(),
    );
    let sampler = BatchSampler::new(train, 32);
    let mut rng = StdRng::seed_from_u64(3);
    let mut params = net.param_vector();

    for _ in 0..400 {
        let batch = sampler.next_batch_with(&mut rng);
        net.set_param_vector(&params);
        net.zero_grads();
        let logits = net.forward(&batch.features);
        let loss = softmax_cross_entropy(&logits, &batch.labels);
        net.backward(&loss.grad);
        let grads = net.grad_vector();
        opt.step(&mut params, &grads);
    }
    net.set_param_vector(&params);
    let acc = evaluate_accuracy_parallel(&net, &test, 64, 1);
    assert!(acc > 0.95, "single-worker training reached only {acc}");
}

#[test]
fn sharded_data_covers_every_example_exactly_once() {
    let mixture = GaussianMixture::new(SynthConfig {
        num_samples: 1003, // deliberately not divisible
        ..SynthConfig::default()
    });
    let ds = mixture.generate();
    let shards = shard_dataset(&ds, 7, ShardStrategy::Shuffled { seed: 1 });
    assert_eq!(shards.iter().map(|s| s.len()).sum::<usize>(), 1003);
    let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
    assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
}

#[test]
fn identical_seeds_build_identical_workers_across_crates() {
    // The property Algorithm 2 depends on: every worker can independently
    // build the same initial replica from (spec, seed).
    let spec = preduce::models::zoo::resnet34().spec(64, 10);
    let a = spec.build(99).param_vector();
    let b = spec.build(99).param_vector();
    assert_eq!(a, b);

    let mut r1 = StdRng::seed_from_u64(1);
    let mut r2 = StdRng::seed_from_u64(1);
    use rand::Rng;
    assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
}
