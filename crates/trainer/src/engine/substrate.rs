//! The two execution substrates: deterministic virtual time and real OS
//! threads.
//!
//! A substrate supplies the *scheduler* for a strategy's state machine —
//! how time advances and compute runs, how models are exchanged or
//! averaged within a group, how the controller is signaled, and how the
//! control plane is observed (via `TraceSink`). [`SimSubstrate`] hands the
//! driver a [`SimHarness`] whose event queue plays all of those roles
//! under virtual time; [`ThreadedSubstrate`] holds what the threaded
//! P-Reduce driver runs on real OS threads (one per worker, each with its
//! partial reducer) over the in-process fabric.

// No unchecked indexing into worker tables.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use partial_reduce::runtime::ControllerStats;
use partial_reduce::{NullSink, TraceSink};
use preduce_simnet::{FaultKind, FaultPlan};

use crate::config::ExperimentConfig;
use crate::elastic::ElasticOptions;
use crate::engine::round::stall_sleep;
use crate::sim::SimHarness;

/// Which substrate executes a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Deterministic virtual-time simulation.
    Sim,
    /// Real OS threads over in-process message passing; P-Reduce only.
    Threaded,
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
    pub(crate) harness: SimHarness,
    pub(crate) sink: Arc<dyn TraceSink>,
    pub(crate) faults: FaultPlan,
    pub(crate) elastic: ElasticOptions,
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

    /// Sets the elasticity options (DESIGN.md §14): periodic snapshots
    /// and/or a warm start from an earlier checkpoint directory. Inert
    /// options leave the run bit-identical.
    #[must_use]
    pub fn with_elastic(mut self, elastic: ElasticOptions) -> Self {
        self.elastic = elastic;
        self
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
    /// Per-worker reduces that failed (degraded rounds), as in
    /// [`crate::engine::process::WorkerReport::degraded`].
    pub degraded: Vec<u64>,
    /// [`crate::replay::params_hash`] of each worker's final parameters,
    /// in rank order: what [`crate::replay::replay`] of the run's trace
    /// must reproduce.
    pub params_hashes: Vec<u64>,
    /// Controller statistics (controller-backed runs only).
    pub controller: Option<ControllerStats>,
}

/// The real-concurrency substrate: one OS thread per worker, wall-clock
/// time, in-process message passing, and a controller thread.
pub struct ThreadedSubstrate {
    pub(crate) config: ExperimentConfig,
    pub(crate) iters: u64,
    pub(crate) delays: Vec<Duration>,
    pub(crate) sink: Arc<dyn TraceSink>,
    pub(crate) faults: FaultPlan,
    pub(crate) elastic: ElasticOptions,
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

    /// Sets the elasticity options (DESIGN.md §14): the same warm start
    /// and worker snapshots as on the simulator; threads are not
    /// resurrected mid-run (the `restore:` fault verb is sim-only).
    #[must_use]
    pub fn with_elastic(mut self, elastic: ElasticOptions) -> Self {
        self.elastic = elastic;
        self
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

    /// The fault plan's rules on these threads: [`FaultPlan::check`],
    /// then each worker's largest stall sleep — its straggler delay, or a
    /// 1 ms step without one, times its largest stall factor — fits a
    /// [`Duration`].
    ///
    /// # Errors
    /// Names the rule the plan breaks.
    pub(crate) fn check_faults(&self) -> Result<(), String> {
        let n = self.config.num_workers;
        self.faults.check(n)?;
        for w in 0..n {
            let delay = self.delays.get(w).copied().unwrap_or(Duration::ZERO);
            let worst = self
                .faults
                .for_worker(w)
                .filter_map(|f| match f.kind {
                    FaultKind::Stall { from_iteration, .. } => {
                        Some(self.faults.stall_factor(w, from_iteration))
                    }
                    _ => None,
                })
                .fold(1.0, f64::max);
            stall_sleep(delay, worst).map_err(|e| {
                format!("worker {w}: a {worst}x stall of its {delay:?} straggler delay: {e}")
            })?;
        }
        Ok(())
    }
}

/// Unwraps a result whose failure has no recovery path: a missing or
/// corrupt checkpoint, a configuration error. The threaded driver joins
/// every worker thread and re-raises its panic on the driving thread, so
/// a worker's failed snapshot aborts the whole run.
pub(crate) fn must<T, E: fmt::Display>(what: &str, result: Result<T, E>) -> T {
    match result {
        Ok(v) => v,
        #[allow(
            clippy::panic,
            reason = "a missing or corrupt checkpoint has no recovery path; a worker thread's panic reaches the driver through its join"
        )]
        Err(e) => panic!("{what}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preduce_data::cifar10_like;
    use preduce_models::zoo;

    #[test]
    fn backend_parse_and_display_roundtrip() {
        for b in [Backend::Sim, Backend::Threaded] {
            assert_eq!(b.to_string().parse::<Backend>().unwrap(), b);
        }
        assert!("gpu".parse::<Backend>().is_err());
    }

    #[test]
    fn a_stall_of_a_straggler_delay_no_clock_holds_is_an_error() {
        let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
        c.num_workers = 2;
        // 1e19 one-millisecond steps fit a `Duration`; 1e19 two-second
        // delays do not.
        let plan = FaultPlan::none().stall(1, 1e19, 4);
        let sub = ThreadedSubstrate::new(&c, 1).with_faults(plan);
        assert_eq!(sub.check_faults(), Ok(()));
        let sub = sub.with_delays(&[Duration::ZERO, Duration::from_secs(2)]);
        let refused = sub.check_faults().unwrap_err();
        assert!(
            refused.starts_with("worker 1: a 10000000000000000000x stall of its 2s"),
            "{refused}"
        );
    }

    #[test]
    #[should_panic(expected = "need one delay per worker")]
    fn delays_must_match_fleet() {
        let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
        c.num_workers = 3;
        let _ = ThreadedSubstrate::new(&c, 1).with_delays(&[Duration::ZERO]);
    }
}
