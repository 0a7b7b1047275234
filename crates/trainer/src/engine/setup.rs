//! The single fleet-construction and evaluation path shared by both
//! substrates.
//!
//! Before the engine existed, `sim::SimHarness::new` and the threaded
//! module's `build_workers` each built the dataset, shards, and replicas —
//! two copies of the same seed derivations that could silently drift, and
//! two copies of the averaged-model evaluation. Both substrates now
//! construct their fleet here, so a sim run and a threaded run of the same
//! [`ExperimentConfig`] start from bit-identical replicas and shards and
//! are scored by the same evaluation routine.

use preduce_data::{shard_dataset, BatchSampler, Dataset, ShardStrategy};
use preduce_models::{evaluate_accuracy_parallel, Network};
use preduce_tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};

use crate::config::ExperimentConfig;
use crate::worker::{weighted_model_average, WorkerState};

/// Evaluation batch size for test-set accuracy.
pub const EVAL_BATCH: usize = 256;

/// The constructed worker fleet plus evaluation assets.
pub struct Fleet {
    /// Identically-initialized worker replicas, one per rank.
    pub workers: Vec<WorkerState>,
    /// Held-out test set (clean labels).
    pub test: Dataset,
    /// The shared-initialization network, keeping its parameters: it
    /// evaluates, and on the simulator every worker's update runs on it.
    pub reference: Network,
}

/// Builds the fleet for `config`: dataset generation, label noise,
/// disjoint shards, and identically-initialized replicas.
///
/// # Panics
/// Panics if the config is invalid.
pub fn build_fleet(config: &ExperimentConfig) -> Fleet {
    config.validate();
    let n = config.num_workers;

    let mixture = config.preset.mixture(config.seed);
    let full = mixture.generate();
    let (train, test) = full.split_test(config.preset.test_size);
    let train = train.with_label_noise(
        config.label_noise,
        &mut StdRng::seed_from_u64(config.seed ^ 0x1abe1),
    );
    let shards = shard_dataset(
        &train,
        n,
        config
            .shard_strategy
            .unwrap_or(ShardStrategy::Shuffled { seed: config.seed }),
    );

    let spec = config.model.spec(train.feature_dim(), train.num_classes());
    // The shards hold their own rows: the unsharded copy goes before the
    // replicas are allocated, not after.
    drop(train);
    let reference = spec.build(config.seed);

    let workers = shards
        .into_iter()
        .enumerate()
        .map(|(rank, shard)| {
            let sampler = BatchSampler::new(shard, config.math_batch_size);
            WorkerState::new(rank, reference.clone(), config.sgd, sampler)
        })
        .collect();

    Fleet {
        workers,
        test,
        reference,
    }
}

/// Seed for worker `rank`'s thread-local RNG on the threaded substrate.
pub fn worker_thread_seed(seed: u64, rank: usize) -> u64 {
    seed ^ (0xabcd << 8) ^ rank as u64
}

/// Uniform average of parameter vectors — the inference model of
/// Algorithm 2 line 8, which the simulator's convergence tracker and
/// [`evaluate_uniform_average`] both score.
///
/// # Panics
/// Panics if `params` is empty or lengths differ.
pub fn uniform_average<'a>(params: impl IntoIterator<Item = &'a Tensor>) -> Tensor {
    let refs: Vec<&Tensor> = params.into_iter().collect();
    let weights = partial_reduce::constant_weights(refs.len());
    weighted_model_average(&refs, &weights)
}

/// Threads used for data-parallel test evaluation. Capped so sim
/// campaigns that evaluate every round don't oversubscribe the host.
pub(crate) fn eval_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(8)
}

/// Test accuracy of the uniform-averaged model — the metric both
/// substrates report at the end of a run.
///
/// Evaluation batches fan out across threads; the per-thread correct
/// counts are integers, so the score is bit-identical to a sequential
/// evaluation regardless of thread count (golden-safe).
pub fn evaluate_uniform_average(
    config: &ExperimentConfig,
    test: &Dataset,
    params: &[Tensor],
) -> f64 {
    let spec = config.model.spec(test.feature_dim(), test.num_classes());
    let mut net = spec.build(config.seed);
    net.set_param_vector(&uniform_average(params));
    evaluate_accuracy_parallel(&net, test, EVAL_BATCH, eval_threads())
}

#[cfg(test)]
mod tests {
    use super::*;
    use preduce_data::cifar10_like;
    use preduce_models::zoo;

    fn config() -> ExperimentConfig {
        let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
        c.num_workers = 4;
        c
    }

    #[test]
    fn fleet_is_deterministic() {
        let a = build_fleet(&config());
        let b = build_fleet(&config());
        assert_eq!(a.workers.len(), 4);
        for (x, y) in a.workers.iter().zip(&b.workers) {
            assert_eq!(x.params, y.params);
            assert_eq!(x.rank, y.rank);
        }
        assert_eq!(a.test.len(), b.test.len());
    }

    #[test]
    fn fleet_replicas_share_initialization() {
        let fleet = build_fleet(&config());
        for w in &fleet.workers[1..] {
            assert_eq!(w.params, fleet.workers[0].params);
        }
        assert_eq!(fleet.reference.param_vector(), fleet.workers[0].params);
    }

    #[test]
    fn a_fleet_worker_keeps_the_only_parameter_copy() {
        let mut fleet = build_fleet(&config());
        let d = fleet.reference.param_count();
        for w in &fleet.workers {
            assert!(!w.net.holds_params(), "rank {}", w.rank);
            assert_eq!(w.net.param_count(), d);
            assert_eq!(w.params.len(), d);
        }
        // The two-step public path on the worker's network, as the frozen
        // compute probe drives it, gives the simulator's gradient: a
        // recorded gradient's `backprop` on the harness's one network.
        let mut w = fleet.workers.swap_remove(1);
        let batch = w.sampler.next_batch_with(&mut StdRng::seed_from_u64(3));
        w.net.set_param_vector(&w.params);
        w.net.zero_grads();
        let logits = w.net.forward(&batch.features);
        let loss = preduce_models::softmax_cross_entropy(&logits, &batch.labels);
        w.net.backward(&loss.grad);
        let probed = w.net.grad_vector();
        crate::worker::backprop(&mut fleet.reference, &w.params, &batch);
        let updated = fleet.reference.grad_vector();
        let bits = |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&probed), bits(&updated));
    }

    #[test]
    fn uniform_average_matches_manual() {
        let a = Tensor::from_vec(vec![1.0, 3.0], [2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], [2]).unwrap();
        let avg = uniform_average(&[a, b]);
        assert_eq!(avg.as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn worker_thread_seeds_are_distinct() {
        let seeds: std::collections::BTreeSet<u64> =
            (0..8).map(|r| worker_thread_seed(42, r)).collect();
        assert_eq!(seeds.len(), 8);
    }
}
