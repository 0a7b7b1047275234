//! The virtual-time simulation harness.
//!
//! The strategy drivers themselves live in [`crate::engine::drivers`]
//! (one module per family; P-Reduce also runs on real threads); this
//! module keeps [`SimHarness`]: the worker replicas (real models, real
//! SGD math), the heterogeneity model (per-update compute times), the
//! network cost model, and a convergence tracker that periodically
//! evaluates the worker-averaged model on the held-out test set and stops
//! the run at the configured threshold — precisely the paper's protocol
//! (§5.1–5.2: run time and #updates to a fixed test accuracy; inference on
//! the average of all workers' models per Algorithm 2 line 8).
//!
//! The harness holds one [`Network`], the tracker's: it evaluates the
//! averaged model, and [`SimHarness::with_worker`] lends it to every
//! worker's local update and gradient, so a simulated worker holds only
//! its own state — parameters, momentum, shard — and the fleet shares one
//! gradient buffer.

use preduce_data::Dataset;
use preduce_models::{evaluate_accuracy_parallel, softmax_cross_entropy_grad, Network};
use preduce_simnet::{HeterogeneityModel, NetworkModel, SimTime};
use rand::{rngs::StdRng, SeedableRng};

use crate::config::ExperimentConfig;
use crate::engine::setup::{build_fleet, eval_threads, uniform_average, Fleet, EVAL_BATCH};
use crate::metrics::{RunResult, TracePoint};
use crate::worker::WorkerState;

/// Cap on retained per-update time samples (reservoir not needed: the
/// early-run distribution is representative because the heterogeneity
/// models are stationary).
const MAX_UPDATE_SAMPLES: usize = 4096;

/// Shared simulation state handed to every driver.
pub struct SimHarness {
    /// Worker replicas (identical initialization), each holding only its
    /// own state: their updates and gradients run on the harness's one
    /// network, through [`SimHarness::with_worker`].
    pub workers: Vec<WorkerState>,
    /// Per-worker compute-time model.
    pub hetero: Box<dyn HeterogeneityModel>,
    /// Communication cost model.
    pub network: NetworkModel,
    /// Simulated FLOPs per local update.
    pub update_flops: f64,
    /// Message bytes per model/gradient transfer.
    pub bytes: u64,
    /// The simulation's single RNG (batches, jitter, tie-breaking).
    pub rng: StdRng,
    /// Communication/computation overlap granted to static-topology
    /// collectives (All-Reduce, PS BSP).
    pub overlap_fraction: f64,
    /// Per-worker link slowdown (communication heterogeneity, Case 1).
    pub link_slowdown: Vec<f64>,
    tracker: ConvergenceTracker,
}

impl SimHarness {
    /// Builds the harness from an experiment configuration. The fleet
    /// (dataset, shards, identically-initialized replicas) comes from the
    /// shared [`build_fleet`] path, so a sim run and a threaded run of
    /// the same config start from the same state.
    ///
    /// # Panics
    /// Panics if the config is invalid.
    pub fn new(config: &ExperimentConfig) -> Self {
        let Fleet {
            workers,
            test,
            reference,
        } = build_fleet(config);
        let n = workers.len();
        let hetero = config.hetero.build(n, config.device_flops, config.jitter);

        SimHarness {
            workers,
            hetero,
            network: config.network,
            update_flops: config.update_flops(),
            bytes: config.message_bytes(),
            rng: StdRng::seed_from_u64(config.seed.wrapping_mul(0x9e3779b9)),
            overlap_fraction: config.overlap_fraction,
            link_slowdown: config.link_slowdown.clone().unwrap_or_else(|| vec![1.0; n]),
            tracker: ConvergenceTracker::new(config, reference, test),
        }
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs `f` on worker `w` and the simulation's RNG with the harness's
    /// one network lent to the worker: an O(1) swap in before the call
    /// and back after it. Every sim driver runs its local updates and
    /// gradients through here, so each runs on that one network while the
    /// worker's own, layout alone, stays idle; [`WorkerState`] keeps one
    /// update body on every substrate. The network is the convergence
    /// tracker's, which sets the averaged model before each evaluation,
    /// and an update reads only the worker's parameters and writes fresh
    /// gradients, so neither use sees the other.
    pub fn with_worker<T>(
        &mut self,
        w: usize,
        f: impl FnOnce(&mut WorkerState, &mut StdRng) -> T,
    ) -> T {
        let worker = &mut self.workers[w];
        std::mem::swap(&mut worker.net, &mut self.tracker.net);
        let out = f(worker, &mut self.rng);
        std::mem::swap(&mut worker.net, &mut self.tracker.net);
        out
    }

    /// Samples the compute time of one local update for `worker` at `now`.
    pub fn compute_time(&mut self, worker: usize, now: SimTime) -> f64 {
        self.hetero
            .compute_time(worker, self.update_flops, now, &mut self.rng)
    }

    /// The link-slowdown factor of a collective over `members`: gated by
    /// the slowest participant's link (a ring moves at its slowest hop).
    pub fn link_factor(&self, members: impl IntoIterator<Item = usize>) -> f64 {
        members
            .into_iter()
            .map(|w| self.link_slowdown[w])
            .fold(1.0, f64::max)
    }

    /// Ring all-reduce time for a specific member set, link-aware.
    pub fn group_ring_time(&self, members: &[usize]) -> f64 {
        self.network.ring_allreduce_time(members.len(), self.bytes)
            * self.link_factor(members.iter().copied())
    }

    /// Records one completed update at `now` that took `duration`;
    /// evaluates the averaged model when due. Returns `true` when the run
    /// should stop (threshold reached or cap hit).
    ///
    /// On `true` the driver stops at once and touches no worker again: if
    /// this call has just evaluated, [`SimHarness::finish_with_stats`]
    /// reports that accuracy instead of evaluating the same models twice.
    pub fn record_update(&mut self, now: SimTime, duration: f64) -> bool {
        self.tracker.record(now, duration, &self.workers)
    }

    /// Updates completed so far.
    pub fn updates(&self) -> u64 {
        self.tracker.updates
    }

    /// Finalizes the run into a [`RunResult`].
    pub fn finish(self, strategy_label: String, end: SimTime) -> RunResult {
        self.finish_with_stats(strategy_label, end, Default::default())
    }

    /// Finalizes the run, attaching driver-specific diagnostics. The final
    /// accuracy is the evaluation that stopped the run, or else a fresh one.
    pub fn finish_with_stats(
        mut self,
        strategy_label: String,
        end: SimTime,
        stats: std::collections::BTreeMap<String, f64>,
    ) -> RunResult {
        let final_accuracy = match self.tracker.stopped_on {
            Some(accuracy) => accuracy,
            None => self.tracker.evaluate(&self.workers),
        };
        let t = self.tracker;
        RunResult {
            strategy: strategy_label,
            run_time: end.seconds(),
            updates: t.updates,
            converged: t.converged,
            final_accuracy,
            trace: t.trace,
            per_update_samples: t.samples,
            stats,
        }
    }
}

/// Periodic evaluation of the worker-averaged model.
struct ConvergenceTracker {
    /// The harness's one network: set to the averaged model for each
    /// evaluation, lent to the workers between them.
    net: Network,
    test: Dataset,
    threshold: f64,
    eval_every: u64,
    max_updates: u64,
    track_grad_norm: bool,
    updates: u64,
    converged: bool,
    /// The accuracy of the evaluation in the last [`Self::record`] call,
    /// when that call stopped the run.
    stopped_on: Option<f64>,
    trace: Vec<TracePoint>,
    samples: Vec<f64>,
}

impl ConvergenceTracker {
    fn new(config: &ExperimentConfig, net: Network, test: Dataset) -> Self {
        ConvergenceTracker {
            net,
            test,
            threshold: config.threshold,
            eval_every: config.eval_every,
            max_updates: config.max_updates,
            track_grad_norm: config.track_grad_norm,
            updates: 0,
            converged: false,
            stopped_on: None,
            trace: Vec::new(),
            samples: Vec::new(),
        }
    }

    fn record(&mut self, now: SimTime, duration: f64, workers: &[WorkerState]) -> bool {
        self.updates += 1;
        self.stopped_on = None;
        if self.samples.len() < MAX_UPDATE_SAMPLES {
            self.samples.push(duration);
        }
        if self.updates.is_multiple_of(self.eval_every) {
            let acc = self.evaluate(workers);
            let grad_norm_sq = self.track_grad_norm.then(|| self.grad_norm_sq(workers));
            self.trace.push(TracePoint {
                time: now.seconds(),
                updates: self.updates,
                accuracy: acc,
                grad_norm_sq,
            });
            if acc >= self.threshold {
                self.converged = true;
            }
            if self.converged || self.updates >= self.max_updates {
                self.stopped_on = Some(acc);
                return true;
            }
        }
        self.updates >= self.max_updates
    }

    fn evaluate(&mut self, workers: &[WorkerState]) -> f64 {
        let avg = uniform_average(workers.iter().map(|w| &w.params));
        self.net.set_param_vector(&avg);
        // Data-parallel over eval batches; integer correct counts make the
        // score bit-identical to a sequential pass (golden-safe).
        evaluate_accuracy_parallel(&self.net, &self.test, EVAL_BATCH, eval_threads())
    }

    /// `‖∇F(u_k)‖²` of the averaged model over the whole held-out set.
    fn grad_norm_sq(&mut self, workers: &[WorkerState]) -> f64 {
        let avg = uniform_average(workers.iter().map(|w| &w.params));
        self.net.set_param_vector(&avg);
        self.net.zero_grads();
        // Accumulate gradients over the full set in eval batches; the
        // per-batch mean losses are reweighted to the global mean.
        let n = self.test.len();
        let mut start = 0usize;
        while start < n {
            let end = (start + EVAL_BATCH).min(n);
            let idx: Vec<usize> = (start..end).collect();
            let batch = self.test.gather(&idx);
            let logits = self.net.forward(&batch.features);
            let mut grad = softmax_cross_entropy_grad(&logits, &batch.labels);
            grad.scale((end - start) as f32 / n as f32);
            self.net.backward(&grad);
            start = end;
        }
        let g = self.net.grad_vector();
        let norm = g.norm2();
        norm * norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preduce_data::cifar10_like;
    use preduce_models::zoo;
    use preduce_tensor::Tensor;

    fn small_config() -> ExperimentConfig {
        let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
        c.num_workers = 4;
        c.max_updates = 64;
        c.eval_every = 16;
        c
    }

    #[test]
    fn harness_builds_identical_replicas() {
        let h = SimHarness::new(&small_config());
        assert_eq!(h.num_workers(), 4);
        for w in &h.workers[1..] {
            assert_eq!(w.params, h.workers[0].params);
        }
    }

    #[test]
    fn shards_are_disjoint_sizes() {
        let c = small_config();
        let h = SimHarness::new(&c);
        let total: usize = h.workers.iter().map(|w| w.sampler.dataset().len()).sum();
        assert_eq!(total, c.preset.config.num_samples - c.preset.test_size);
    }

    #[test]
    fn tracker_caps_updates() {
        let c = small_config();
        let mut h = SimHarness::new(&c);
        let mut stop = false;
        let mut count = 0;
        while !stop {
            count += 1;
            stop = h.record_update(SimTime::new(count as f64), 1.0);
            assert!(count <= 64, "cap not enforced");
        }
        assert_eq!(h.updates(), count);
    }

    #[test]
    fn finish_produces_consistent_result() {
        let c = small_config();
        let mut h = SimHarness::new(&c);
        for i in 1..=32u64 {
            h.record_update(SimTime::new(i as f64), 1.0);
        }
        let r = h.finish("test".into(), SimTime::new(32.0));
        assert_eq!(r.updates, 32);
        assert_eq!(r.trace.len(), 2); // evals at 16 and 32
        assert!((r.per_update_time() - 1.0).abs() < 1e-9);
        assert!(!r.converged);
        assert!(r.final_accuracy >= 0.0 && r.final_accuracy <= 1.0);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Fills `net`'s own parameters, its gradients and its kept
    /// activations with NaN, through its public passes.
    fn poison(net: &mut Network, features: usize) {
        net.set_param_vector(&Tensor::full([net.param_count()], f32::NAN));
        let x = Tensor::full([3, features], f32::NAN);
        let logits = net.forward(&x);
        net.backward(&Tensor::full(logits.shape().clone(), f32::NAN));
        net.forward(&x);
        assert!(net.grads().as_slice().iter().all(|g| g.is_nan()));
    }

    #[test]
    fn workers_updated_on_the_one_network_match_workers_on_their_own() {
        let mut c = small_config();
        c.num_workers = 8;
        // Each worker six times, interleaved.
        let order: Vec<usize> = (0..48).map(|i| (i * 5 + i / 8) % 8).collect();
        for split in [false, true] {
            let what = if split {
                "gradient + apply"
            } else {
                "local_update"
            };
            let step = |w: &mut WorkerState, rng: &mut StdRng| {
                if split {
                    let grad = w.gradient(rng);
                    w.apply(&grad, 1.0);
                    w.iteration += 1;
                } else {
                    w.local_update(rng);
                }
            };
            let (mut shared, mut own) = (SimHarness::new(&c), SimHarness::new(&c));
            let features = shared.tracker.test.feature_dim();
            for &w in &order {
                poison(&mut shared.tracker.net, features);
                shared.with_worker(w, step);
                step(&mut own.workers[w], &mut own.rng);
            }
            for (a, b) in shared.workers.iter().zip(&own.workers) {
                assert_eq!(bits(&a.params), bits(&b.params), "{what}: params");
                assert_eq!(
                    bits(a.opt.velocity()),
                    bits(b.opt.velocity()),
                    "{what}: velocity"
                );
                assert_eq!(a.iteration, b.iteration, "{what}: iteration");
                assert_eq!(a.iteration, 6, "{what}: iteration");
                // A lending worker's own network never ran.
                assert!(!a.net.holds_params() && a.net.grads().is_empty());
            }
            // The lent network still evaluates the averaged model.
            let (got, want) = (
                shared.tracker.evaluate(&shared.workers),
                own.tracker.evaluate(&own.workers),
            );
            assert_eq!(got.to_bits(), want.to_bits(), "{what}: accuracy");
        }
    }

    #[test]
    fn a_run_stopped_by_an_evaluation_is_not_evaluated_again() {
        let poison_params = |h: &mut SimHarness| {
            for w in &mut h.workers {
                w.params.as_mut_slice().fill(f32::NAN);
            }
        };
        let (mut converges, mut capped) = (small_config(), small_config());
        converges.threshold = 1e-9;
        // The cap falls on the evaluation at update 64.
        for c in [&converges, &capped] {
            let mut h = SimHarness::new(c);
            let mut i = 0u64;
            loop {
                i += 1;
                h.with_worker((i % 4) as usize, |w, rng| w.local_update(rng));
                if h.record_update(SimTime::new(i as f64), 1.0) {
                    break;
                }
            }
            // Outside the contract: a re-evaluation would see these.
            poison_params(&mut h);
            let r = h.finish("test".into(), SimTime::new(i as f64));
            let last = r.trace.last().map(|p| p.accuracy);
            assert_eq!(Some(r.final_accuracy), last, "updates {i}");
            assert_eq!(r.converged, c.threshold < 1e-6);
        }
        // A cap between evaluations is evaluated at the end.
        capped.max_updates = 40;
        let mut h = SimHarness::new(&capped);
        for i in 1..=40u64 {
            h.with_worker((i % 4) as usize, |w, rng| w.local_update(rng));
            let stop = h.record_update(SimTime::new(i as f64), 1.0);
            assert_eq!(stop, i == 40);
        }
        let want = h.tracker.evaluate(&h.workers);
        poison_params(&mut h);
        let r = h.finish("test".into(), SimTime::new(40.0));
        assert_eq!(r.trace.len(), 2);
        assert_ne!(r.final_accuracy.to_bits(), want.to_bits());
    }

    #[test]
    fn compute_time_positive_and_seeded() {
        let c = small_config();
        let mut h1 = SimHarness::new(&c);
        let mut h2 = SimHarness::new(&c);
        for w in 0..4 {
            let a = h1.compute_time(w, SimTime::ZERO);
            let b = h2.compute_time(w, SimTime::ZERO);
            assert!(a > 0.0);
            assert_eq!(a, b, "same seed must give same times");
        }
    }
}
