//! Per-worker training state: model replica, optimizer, data shard.

use partial_reduce::WeightRow;
use preduce_data::BatchSampler;
use preduce_models::{softmax_cross_entropy_grad, Network, SgdConfig, SgdOptimizer};
use preduce_tensor::Tensor;
use rand::Rng;

/// One worker's replica: flat parameters (the communication view), the
/// network (the compute view), optimizer state, and its data shard.
///
/// The worker's state is what Algorithm 2 gives it, its model and its
/// optimizer state: the flat vector [`WorkerState::params`] (the source of
/// truth, moved out of the network at construction) and the momentum
/// buffer. The network is layout plus scratch — the passes run on the
/// worker's vector where it lies, and write fresh gradients — so any
/// network of the same widths serves an update: threads and processes run
/// each worker on its own, the simulator lends its one network to each
/// worker in turn ([`SimHarness::with_worker`]). This mirrors how
/// collective libraries see a model (one contiguous buffer) and makes
/// model averaging a pure vector operation.
///
/// [`SimHarness::with_worker`]: crate::sim::SimHarness::with_worker
#[derive(Debug)]
pub struct WorkerState {
    /// Worker rank.
    pub rank: usize,
    /// Flat model parameters (source of truth).
    pub params: Tensor,
    /// The network used for forward/backward: its layer shapes and its
    /// gradient and activation buffers. It holds no parameters of its own
    /// unless [`Network::set_param_vector`] gives it some.
    pub net: Network,
    /// Local optimizer state (momentum buffer).
    pub opt: SgdOptimizer,
    /// Minibatch sampler over this worker's shard.
    pub sampler: BatchSampler,
    /// Local iteration counter `k_i` (dynamic partial reduce reports it).
    pub iteration: u64,
    /// Running count of local updates performed.
    pub updates_applied: u64,
}

impl WorkerState {
    /// Creates a worker from a pre-built (shared-initialization) network,
    /// moving the network's parameters into the worker.
    ///
    /// # Panics
    /// Panics if `net` holds no parameters of its own.
    pub fn new(rank: usize, mut net: Network, sgd: SgdConfig, sampler: BatchSampler) -> Self {
        let params = net.take_param_vector();
        let opt = SgdOptimizer::new(sgd, params.len());
        WorkerState {
            rank,
            params,
            net,
            opt,
            sampler,
            iteration: 0,
            updates_applied: 0,
        }
    }

    /// Backpropagates one batch drawn with `rng` at the current
    /// parameters, leaving the batch's gradient alone in the network's
    /// gradient buffer.
    fn backprop<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let batch = self.sampler.next_batch_with(rng);
        let params = self.params.as_slice();
        let logits = self.net.forward_on(params, &batch.features);
        let grad = softmax_cross_entropy_grad(&logits, &batch.labels);
        self.net.backward_fresh_on(params, &grad);
    }

    /// Computes a stochastic gradient at the current parameters using a
    /// batch drawn with `rng`. Returns the flat gradient; parameters are
    /// unchanged.
    pub fn gradient<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Tensor {
        self.backprop(rng);
        self.net.grad_vector()
    }

    /// Applies one SGD step with the given gradient and learning-rate
    /// scale (1.0 for plain SGD; staleness-aware baselines scale it).
    pub fn apply(&mut self, grad: &Tensor, lr_scale: f32) {
        self.opt.step_scaled(&mut self.params, grad, lr_scale);
        self.updates_applied += 1;
    }

    /// One complete local update (Algorithm 2 lines 2–4): gradient at the
    /// current parameters, then an SGD step. Increments the local
    /// iteration counter. The same bits as [`WorkerState::gradient`] then
    /// [`WorkerState::apply`], with the optimizer reading the gradient
    /// where the network accumulated it instead of from a copy.
    pub fn local_update<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.backprop(rng);
        self.opt
            .step_scaled(&mut self.params, self.net.grads(), 1.0);
        self.updates_applied += 1;
        self.iteration += 1;
    }

    /// Overwrites this worker's parameters (model average, PS pull…).
    ///
    /// # Panics
    /// Panics on a length mismatch.
    pub fn set_params(&mut self, params: &Tensor) {
        assert_eq!(params.len(), self.params.len(), "parameter length mismatch");
        self.params
            .as_mut_slice()
            .copy_from_slice(params.as_slice());
    }
}

/// The elementwise weighted average `Σ w_i · params_i` of several workers'
/// models — the aggregation step of a partial reduce, executed in-memory by
/// the simulator. Runs on the fused multi-accumulator kernel
/// ([`preduce_tensor::kernels::weighted_sum_acc`]), which visits models in
/// slice order per element and is therefore bit-identical to the axpy
/// chain it replaced (the sim goldens pin this).
///
/// The row is a [`WeightRow`], so it comes from `partial_reduce::weights`;
/// a literal row does not compile:
///
/// ```compile_fail,E0308
/// # use preduce_tensor::Tensor;
/// # use preduce_trainer::worker::weighted_model_average;
/// let (a, b) = (Tensor::zeros([2]), Tensor::zeros([2]));
/// let (models, p) = ([&a, &b], 2);
/// weighted_model_average(&models, &vec![1.0 / p as f32; p]);
/// ```
///
/// # Panics
/// Panics if inputs are empty, lengths differ, or weights don't match.
pub fn weighted_model_average(models: &[&Tensor], weights: &WeightRow) -> Tensor {
    assert!(!models.is_empty(), "cannot average zero models");
    assert_eq!(models.len(), weights.len(), "one weight per model required");
    let mut out = Tensor::zeros([models[0].len()]);
    let slices: Vec<&[f32]> = models.iter().map(|m| m.as_slice()).collect();
    preduce_tensor::kernels::weighted_sum_acc(out.as_mut_slice(), &slices, weights);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use preduce_data::{Dataset, GaussianMixture, SynthConfig};
    use preduce_models::{softmax_cross_entropy, NetworkSpec};
    use rand::SeedableRng;

    fn toy_dataset() -> Dataset {
        GaussianMixture::new(SynthConfig {
            num_classes: 3,
            feature_dim: 8,
            num_samples: 120,
            center_norm: 4.0,
            noise_std: 0.5,
            nonlinear_warp: false,
            seed: 1,
        })
        .generate()
    }

    fn worker() -> WorkerState {
        let net = NetworkSpec::mlp(8, &[16], 3).build(0);
        let sampler = BatchSampler::new(toy_dataset(), 16);
        WorkerState::new(0, net, SgdConfig::default(), sampler)
    }

    #[test]
    fn gradient_leaves_params_unchanged() {
        let mut w = worker();
        let before = w.params.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let g = w.gradient(&mut rng);
        assert_eq!(w.params, before);
        assert_eq!(g.len(), before.len());
        assert!(g.norm2() > 0.0);
        assert!(g.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn local_update_reduces_loss_over_time() {
        // The mean loss on one fixed batch, the whole toy set, at the
        // worker's current parameters.
        let fixed = toy_dataset();
        let loss = |w: &mut WorkerState| {
            let logits = w.net.forward_on(w.params.as_slice(), fixed.features());
            softmax_cross_entropy(&logits, fixed.labels()).loss
        };
        let mut w = worker();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let early = loss(&mut w);
        for _ in 0..121 {
            w.local_update(&mut rng);
        }
        let late = loss(&mut w);
        assert!(late < early, "loss did not improve: {early} -> {late}");
        assert_eq!(w.iteration, 121);
        assert_eq!(w.updates_applied, 121);
    }

    #[test]
    fn local_update_is_gradient_then_apply_bitwise() {
        let (mut fused, mut split) = (worker(), worker());
        let mut rng_fused = rand::rngs::StdRng::seed_from_u64(11);
        let mut rng_split = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..50 {
            fused.local_update(&mut rng_fused);
            let grad = split.gradient(&mut rng_split);
            split.apply(&grad, 1.0);
        }
        let bits = |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&fused.params), bits(&split.params));
        assert_eq!(bits(fused.opt.velocity()), bits(split.opt.velocity()));
        assert_eq!(fused.updates_applied, split.updates_applied);
    }

    #[test]
    fn updates_never_read_the_networks_own_parameters() {
        let bits = |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        let poison = |w: &mut WorkerState| {
            let d = w.params.len();
            w.net
                .set_param_vector(&Tensor::from_vec(vec![f32::NAN; d], [d]).unwrap());
        };
        let (mut twin, mut fused, mut split) = (worker(), worker(), worker());
        poison(&mut fused);
        poison(&mut split);
        let rngs = || rand::rngs::StdRng::seed_from_u64(5);
        let (mut rng_twin, mut rng_fused, mut rng_split) = (rngs(), rngs(), rngs());
        for _ in 0..20 {
            twin.local_update(&mut rng_twin);
            fused.local_update(&mut rng_fused);
            let grad = split.gradient(&mut rng_split);
            split.apply(&grad, 1.0);
            for (what, w) in [("local_update", &fused), ("gradient + apply", &split)] {
                assert_eq!(bits(&w.params), bits(&twin.params), "{what}: params");
                assert_eq!(
                    bits(w.opt.velocity()),
                    bits(twin.opt.velocity()),
                    "{what}: velocity"
                );
            }
        }
        assert!(twin.params.as_slice().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn weighted_average_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 6.0], [2]).unwrap();
        let avg = weighted_model_average(&[&a, &b], &partial_reduce::constant_weights(2));
        assert_eq!(avg.as_slice(), &[2.0, 4.0]);
        // Eq. 9 with α = 0.5 weighs the fresher model 2/3, the staler 1/3.
        let row = partial_reduce::dynamic_weights(&[2, 1], 0.5, partial_reduce::GapPolicy::Initial);
        let skew = weighted_model_average(&[&a, &b], &row);
        for (got, want) in skew.as_slice().iter().zip([5.0 / 3.0, 10.0 / 3.0]) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn set_params_replaces_model() {
        let mut w = worker();
        let zeros = Tensor::zeros([w.params.len()]);
        w.set_params(&zeros);
        assert_eq!(w.params.norm2(), 0.0);
    }
}
