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

use preduce_data::Dataset;
use preduce_models::{evaluate_accuracy_parallel, softmax_cross_entropy, Network};
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
    /// Worker replicas (identical initialization).
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
    pub fn record_update(&mut self, now: SimTime, duration: f64) -> bool {
        self.tracker.record(now, duration, &mut self.workers)
    }

    /// Updates completed so far.
    pub fn updates(&self) -> u64 {
        self.tracker.updates
    }

    /// Finalizes the run into a [`RunResult`].
    pub fn finish(self, strategy_label: String, end: SimTime) -> RunResult {
        self.finish_with_stats(strategy_label, end, Default::default())
    }

    /// Finalizes the run, attaching driver-specific diagnostics.
    pub fn finish_with_stats(
        mut self,
        strategy_label: String,
        end: SimTime,
        stats: std::collections::BTreeMap<String, f64>,
    ) -> RunResult {
        let final_accuracy = self.tracker.evaluate(&self.workers);
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
    eval_net: Network,
    test: Dataset,
    threshold: f64,
    eval_every: u64,
    max_updates: u64,
    track_grad_norm: bool,
    updates: u64,
    converged: bool,
    trace: Vec<TracePoint>,
    samples: Vec<f64>,
}

impl ConvergenceTracker {
    fn new(config: &ExperimentConfig, eval_net: Network, test: Dataset) -> Self {
        ConvergenceTracker {
            eval_net,
            test,
            threshold: config.threshold,
            eval_every: config.eval_every,
            max_updates: config.max_updates,
            track_grad_norm: config.track_grad_norm,
            updates: 0,
            converged: false,
            trace: Vec::new(),
            samples: Vec::new(),
        }
    }

    fn record(&mut self, now: SimTime, duration: f64, workers: &mut [WorkerState]) -> bool {
        self.updates += 1;
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
                return true;
            }
        }
        self.updates >= self.max_updates
    }

    fn evaluate(&mut self, workers: &[WorkerState]) -> f64 {
        let avg = uniform_average(workers.iter().map(|w| &w.params));
        self.eval_net.set_param_vector(&avg);
        // Data-parallel over eval batches; integer correct counts make the
        // score bit-identical to a sequential pass (golden-safe).
        evaluate_accuracy_parallel(&self.eval_net, &self.test, EVAL_BATCH, eval_threads())
    }

    /// `‖∇F(u_k)‖²` of the averaged model over the whole held-out set.
    fn grad_norm_sq(&mut self, workers: &[WorkerState]) -> f64 {
        let avg = uniform_average(workers.iter().map(|w| &w.params));
        self.eval_net.set_param_vector(&avg);
        self.eval_net.zero_grads();
        // Accumulate gradients over the full set in eval batches; the
        // per-batch mean losses are reweighted to the global mean.
        let n = self.test.len();
        let mut start = 0usize;
        while start < n {
            let end = (start + EVAL_BATCH).min(n);
            let idx: Vec<usize> = (start..end).collect();
            let batch = self.test.gather(&idx);
            let logits = self.eval_net.forward(&batch.features);
            let mut loss = softmax_cross_entropy(&logits, &batch.labels);
            loss.grad.scale((end - start) as f32 / n as f32);
            self.eval_net.backward(&loss.grad);
            start = end;
        }
        let g = self.eval_net.grad_vector();
        let norm = g.norm2();
        norm * norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preduce_data::cifar10_like;
    use preduce_models::zoo;

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
