//! The two execution substrates: deterministic virtual time and real OS
//! threads.
//!
//! A substrate supplies the *scheduler* for a strategy's state machine —
//! how time advances and compute runs, how models are exchanged or
//! averaged within a group, how the controller is signaled, and how the
//! control plane is observed (via `TraceSink`). [`SimSubstrate`] hands the
//! driver a [`SimHarness`] whose event queue plays all of those roles
//! under virtual time; [`ThreadedSubstrate`] provides an SPMD scaffold
//! (one OS thread per worker, each with its partial reducer) over the
//! in-process fabric.

// Substrate dispatch indexes worker tables.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use partial_reduce::runtime::ControllerStats;
use partial_reduce::{NullSink, TraceSink};
use preduce_simnet::FaultPlan;
use preduce_tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};

use crate::config::ExperimentConfig;
use crate::elastic::ElasticOptions;
use crate::engine::setup::{evaluate_uniform_average, worker_thread_seed, Fleet};
use crate::sim::SimHarness;
use crate::worker::WorkerState;

/// Which substrate executes a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Deterministic virtual-time simulation.
    Sim,
    /// Real OS threads over in-process message passing; P-Reduce only.
    Threaded,
}

impl Backend {
    /// All backends, for CLI listings and exhaustive tests.
    pub const ALL: [Backend; 2] = [Backend::Sim, Backend::Threaded];
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(Backend::Sim),
            "threaded" => Ok(Backend::Threaded),
            other => Err(format!(
                "unknown backend `{other}` (expected `sim` or `threaded`)"
            )),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::Sim => "sim",
            Backend::Threaded => "threaded",
        })
    }
}

/// The virtual-time substrate: wraps the deterministic [`SimHarness`].
pub struct SimSubstrate {
    harness: SimHarness,
    sink: Arc<dyn TraceSink>,
    faults: FaultPlan,
    elastic: ElasticOptions,
}

impl SimSubstrate {
    /// Builds the simulator substrate for `config` (no tracing).
    ///
    /// # Panics
    /// Panics if the config is invalid.
    pub fn new(config: &ExperimentConfig) -> Self {
        SimSubstrate {
            harness: SimHarness::new(config),
            sink: Arc::new(NullSink),
            faults: FaultPlan::none(),
            elastic: ElasticOptions::none(),
        }
    }

    /// Replaces the trace sink.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Injects a fault plan (DESIGN.md §11): crashes, stalls, signal
    /// delays, and late joins applied deterministically in virtual time.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The fault plan this run executes under.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Sets the elasticity options (DESIGN.md §14): periodic snapshots
    /// and/or a warm start from an earlier checkpoint directory. Inert
    /// options leave the run bit-identical.
    #[must_use]
    pub fn with_elastic(mut self, elastic: ElasticOptions) -> Self {
        self.elastic = elastic;
        self
    }

    /// The elasticity options this run executes under.
    pub fn elastic(&self) -> &ElasticOptions {
        &self.elastic
    }

    /// Consumes the substrate into its scheduler handle and sink: a sim
    /// driver projection runs the harness event loop to completion.
    pub fn into_parts(self) -> (SimHarness, Arc<dyn TraceSink>) {
        (self.harness, self.sink)
    }

    /// Which backend this substrate is.
    pub fn backend(&self) -> Backend {
        Backend::Sim
    }

    /// Fleet size.
    pub fn num_workers(&self) -> usize {
        self.harness.num_workers()
    }

    /// The trace sink observing this run.
    pub fn sink(&self) -> Arc<dyn TraceSink> {
        self.sink.clone()
    }
}

/// Outcome of a threaded training run. Timing is wall-clock (and
/// therefore machine-dependent); the *trajectories* are what tests
/// assert on.
#[derive(Debug, Clone)]
pub struct ThreadedReport {
    /// Wall-clock seconds for the training loops (excludes evaluation).
    pub wall_seconds: f64,
    /// Test accuracy of the worker-averaged model.
    pub accuracy: f64,
    /// Per-worker iteration counts actually executed.
    pub iterations: Vec<u64>,
    /// Controller statistics (controller-backed runs only).
    pub controller: Option<ControllerStats>,
}

/// The real-concurrency substrate: one OS thread per worker, wall-clock
/// time, in-process message passing, and an optional controller thread.
pub struct ThreadedSubstrate {
    config: ExperimentConfig,
    iters: u64,
    delays: Vec<Duration>,
    sink: Arc<dyn TraceSink>,
    faults: FaultPlan,
    elastic: ElasticOptions,
}

impl ThreadedSubstrate {
    /// Builds the threaded substrate: each worker will run `iters` local
    /// iterations (real threads need a finite budget; the convergence
    /// tracker of the simulator has no wall-clock analogue).
    ///
    /// # Panics
    /// Panics if the config is invalid.
    pub fn new(config: &ExperimentConfig, iters: u64) -> Self {
        config.validate();
        ThreadedSubstrate {
            config: config.clone(),
            iters,
            delays: Vec::new(),
            sink: Arc::new(NullSink),
            faults: FaultPlan::none(),
            elastic: ElasticOptions::none(),
        }
    }

    /// Replaces the trace sink.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Injects a fault plan (DESIGN.md §11). Wall-clock analogue of
    /// [`SimSubstrate::with_faults`]: crashes become real fail-stops
    /// detected by the controller's liveness policy; stalls, signal
    /// delays, and late joins become real sleeps.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The fault plan this run executes under.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Sets the elasticity options (DESIGN.md §14): the same warm start
    /// and worker snapshots as on the simulator; threads are not
    /// resurrected mid-run (the `restore:` fault verb is sim-only).
    #[must_use]
    pub fn with_elastic(mut self, elastic: ElasticOptions) -> Self {
        self.elastic = elastic;
        self
    }

    /// The elasticity options this run executes under.
    pub fn elastic(&self) -> &ElasticOptions {
        &self.elastic
    }

    /// Injects controlled heterogeneity: `delays[rank]` is an artificial
    /// per-iteration sleep turning worker `rank` into a straggler. An
    /// empty slice injects none.
    ///
    /// # Panics
    /// Panics if `delays` is neither empty nor one entry per worker.
    #[must_use]
    pub fn with_delays(mut self, delays: &[Duration]) -> Self {
        assert!(
            delays.is_empty() || delays.len() == self.config.num_workers,
            "need one delay per worker (or none), got {} for {} workers",
            delays.len(),
            self.config.num_workers
        );
        self.delays = delays.to_vec();
        self
    }

    /// The experiment configuration this substrate runs.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Local iterations each worker will run.
    pub fn iters(&self) -> u64 {
        self.iters
    }

    /// Runs `body` as an SPMD program: one thread per worker of `fleet`,
    /// each handed its context (iteration budget, straggler delay, seeded
    /// RNG, fault plan), its [`WorkerState`], and one element of
    /// `resources` (the P-Reduce body's partial reducer). Reports
    /// the per-rank iteration counts, the wall-clock time of the training
    /// loops, and the accuracy of the uniform-averaged model on the
    /// fleet's test set (evaluated after, outside the clock). `controller`
    /// is `None`: a controller-backed caller fills it from its handle.
    ///
    /// # Panics
    /// Panics if a worker thread panics or `resources` is mis-sized.
    pub(crate) fn run_spmd<R, F>(&self, fleet: Fleet, resources: Vec<R>, body: F) -> ThreadedReport
    where
        R: Send + 'static,
        F: Fn(WorkerCtx, WorkerState, R) -> (Tensor, u64) + Send + Sync + 'static,
    {
        assert_eq!(
            fleet.workers.len(),
            resources.len(),
            "one resource per worker"
        );
        let body = Arc::new(body);
        let start = Instant::now();
        let threads: Vec<_> = fleet
            .workers
            .into_iter()
            .zip(resources)
            .map(|(w, r)| {
                let ctx = WorkerCtx {
                    iters: self.iters,
                    delay: self.delays.get(w.rank).copied().unwrap_or(Duration::ZERO),
                    rng: StdRng::seed_from_u64(worker_thread_seed(self.config.seed, w.rank)),
                    faults: self.faults.clone(),
                };
                let body = Arc::clone(&body);
                thread::spawn(move || body(ctx, w, r))
            })
            .collect();
        let mut params = Vec::new();
        let mut iterations = Vec::new();
        for t in threads {
            let (p, i) = match t.join() {
                Ok(v) => v,
                // Re-raise the worker's own panic so its message and
                // backtrace survive instead of a generic join error.
                Err(payload) => std::panic::resume_unwind(payload),
            };
            params.push(p);
            iterations.push(i);
        }
        let wall_seconds = start.elapsed().as_secs_f64();
        ThreadedReport {
            wall_seconds,
            accuracy: evaluate_uniform_average(&self.config, &fleet.test, &params),
            iterations,
            controller: None,
        }
    }

    /// Which backend this substrate is.
    pub fn backend(&self) -> Backend {
        Backend::Threaded
    }

    /// Fleet size.
    pub fn num_workers(&self) -> usize {
        self.config.num_workers
    }

    /// The trace sink observing this run.
    pub fn sink(&self) -> Arc<dyn TraceSink> {
        self.sink.clone()
    }
}

/// Unwraps a result inside an SPMD worker body. Worker closures run under
/// [`ThreadedSubstrate::run_spmd`], which joins every thread and re-raises
/// a worker panic on the driving thread — panicking here is the designed
/// channel through which a failed mid-run collective aborts the whole run.
pub(crate) fn must<T, E: fmt::Display>(what: &str, result: Result<T, E>) -> T {
    match result {
        Ok(v) => v,
        #[allow(
            clippy::panic,
            reason = "worker-thread failures propagate to the driver through run_spmd's join; a failed collective mid-run has no recovery path"
        )]
        Err(e) => panic!("{what}: {e}"),
    }
}

/// Per-thread context handed to an SPMD worker body.
pub(crate) struct WorkerCtx {
    /// Local iterations to run.
    pub iters: u64,
    /// Injected per-iteration straggler sleep.
    pub delay: Duration,
    /// This worker's private RNG (batch draws).
    pub rng: StdRng,
    /// The run's fault plan, which the P-Reduce body queries by rank.
    pub faults: FaultPlan,
}

#[cfg(test)]
mod tests {
    use super::*;
    use preduce_data::cifar10_like;
    use preduce_models::zoo;

    fn config(n: usize) -> ExperimentConfig {
        let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
        c.num_workers = n;
        c
    }

    #[test]
    fn backend_parse_and_display_roundtrip() {
        for b in Backend::ALL {
            assert_eq!(b.to_string().parse::<Backend>().unwrap(), b);
        }
        assert!("gpu".parse::<Backend>().is_err());
    }

    #[test]
    fn substrates_report_identity() {
        let c = config(3);
        let sim = SimSubstrate::new(&c);
        assert_eq!(sim.backend(), Backend::Sim);
        assert_eq!(sim.num_workers(), 3);
        let thr = ThreadedSubstrate::new(&c, 5);
        assert_eq!(thr.backend(), Backend::Threaded);
        assert_eq!(thr.num_workers(), 3);
        assert_eq!(thr.iters(), 5);
    }

    #[test]
    #[should_panic(expected = "need one delay per worker")]
    fn delays_must_match_fleet() {
        let _ = ThreadedSubstrate::new(&config(3), 1).with_delays(&[Duration::ZERO]);
    }

    #[test]
    fn spmd_scaffold_runs_every_worker_once() {
        let c = config(4);
        let fleet = crate::engine::setup::build_fleet(&c);
        let sub = ThreadedSubstrate::new(&c, 3);
        let out = sub.run_spmd(fleet, vec![(); 4], |mut ctx, mut w, ()| {
            for _ in 0..ctx.iters {
                w.local_update(&mut ctx.rng);
            }
            (w.params, w.iteration)
        });
        assert_eq!(out.iterations, vec![3; 4]);
        assert!((0.0..=1.0).contains(&out.accuracy));
        assert!(out.wall_seconds >= 0.0);
        assert!(out.controller.is_none());
    }
}
