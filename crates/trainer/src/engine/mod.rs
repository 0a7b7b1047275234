//! The substrate-agnostic execution engine.
//!
//! Each strategy is written **once** as a state machine
//! ([`drivers::Driver`]) and runs on the deterministic virtual-time
//! simulator ([`SimSubstrate`]); P-Reduce also runs on the real-thread
//! runtime ([`ThreadedSubstrate`]). [`run`] is the one entry point: pick
//! a [`Strategy`], a config, and a [`Backend`], and get a [`RunResult`]
//! either way — with the same trace vocabulary flowing to the given
//! [`TraceSink`] from both substrates.

// The engine drives real fleets on the threaded and process substrates:
// no panicking construct outside tests (DESIGN.md §10). The rest of
// `preduce-trainer` is the virtual-time experiment layer and stays out.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes_without_reason
    )
)]

pub mod drivers;
pub mod process;
mod round;
pub mod scale;
pub mod setup;
pub mod substrate;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use partial_reduce::TraceSink;
use preduce_simnet::FaultPlan;

pub use drivers::{driver_for, Driver};
pub use scale::{run_scale, sample_groups, ScaleConfig, ScaleReport};
pub use substrate::{Backend, SimSubstrate, ThreadedReport, ThreadedSubstrate};

use crate::config::ExperimentConfig;
use crate::elastic::ElasticOptions;
use crate::metrics::RunResult;
use crate::strategy::Strategy;
use partial_reduce::runtime::ControllerStats;

/// Iteration budget per worker for threaded runs when the config leaves
/// [`ExperimentConfig::threaded_iters`] unset: enough rounds for group
/// formation, fast-forwarding, and drain to all exercise, small enough to
/// stay sub-second per strategy on one machine.
pub const DEFAULT_THREADED_ITERS: u64 = 40;

/// Why a simulated run ended without a result.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A worker crashed after virtual time had passed what the failure
    /// detector's clock holds ([`Duration::MAX`], about 1.8e19 s): a
    /// fault plan's per-signal delays, each within the clock, add up
    /// over the rounds.
    DetectorClockOverflow {
        /// The virtual time of the crash, in seconds.
        seconds: f64,
    },
    /// A due `restore:W@U` found no snapshot it could load for its
    /// worker: none was written before the crash, or the file is
    /// unreadable or another rank's.
    RestoreFailed {
        /// The worker the verb restores.
        worker: usize,
        /// Why its snapshot could not be loaded.
        error: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DetectorClockOverflow { seconds } => write!(
                f,
                "a worker crashed at virtual time {seconds:.3e} s, past the failure \
                 detector's clock ({:.3e} s): the fault plan's delays outgrow the run",
                Duration::MAX.as_secs_f64()
            ),
            SimError::RestoreFailed { worker, error } => write!(
                f,
                "cannot restore worker {worker}: {error} (`restore:` reloads the snapshot \
                 the worker wrote before its crash)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// What an engine run produced: the cross-substrate [`RunResult`] plus the
/// threaded-only observables (per-rank iteration counts, controller
/// stats) when the backend provides them.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// The run's result in the common vocabulary of both substrates.
    pub result: RunResult,
    /// Per-rank final iteration counts (threaded backend only).
    pub iterations: Option<Vec<u64>>,
    /// Controller statistics (threaded backend only).
    pub controller: Option<ControllerStats>,
}

/// Runs `strategy` under `config` on the chosen backend, narrating the
/// control plane to `sink`.
///
/// On [`Backend::Sim`] the run finishes at the accuracy threshold or the
/// update cap and the result carries the full convergence trace. The
/// threaded backend runs P-Reduce only. On [`Backend::Threaded`] every
/// worker runs its iteration budget
/// ([`ExperimentConfig::threaded_iters`] or [`DEFAULT_THREADED_ITERS`]) on
/// a real OS thread; timing is wall-clock, `updates` counts the groups the
/// controller formed (one partial-reduce group operation each, as on the
/// simulator), the trace is empty (real runs are observed through `sink`,
/// not virtual checkpoints), and `converged` is always `false` because no
/// threshold gates the loop.
///
/// # Panics
/// Panics if the config is invalid, if a baseline strategy is run on
/// [`Backend::Threaded`], or if a worker/controller thread panics.
pub fn run(
    strategy: Strategy,
    config: &ExperimentConfig,
    backend: Backend,
    sink: Arc<dyn TraceSink>,
) -> EngineRun {
    // No crash, no detector: the run cannot outgrow its clock.
    substrate::must(
        "fault-free run",
        run_elastic(
            strategy,
            config,
            backend,
            sink,
            FaultPlan::none(),
            ElasticOptions::none(),
        ),
    )
}

/// Like [`run`], but the run executes under a [`FaultPlan`] (DESIGN.md
/// §11) and [`ElasticOptions`] (DESIGN.md §14).
///
/// The plan's crashes, stalls, delayed signals and late joins are applied
/// with the same semantics by both substrates. Fault plans are honored by
/// the P-Reduce drivers — the strategy whose controller is built to absorb
/// them. The baselines run on the simulator only, and there they ignore
/// the plan: a synchronous baseline would simply deadlock on a crashed
/// member (documented in EXPERIMENTS.md).
///
/// The elasticity options add periodic worker snapshots, a warm start
/// from an earlier checkpoint directory, and — on the simulator — the
/// `restore:W@U` fault verb that re-admits a crashed worker from its
/// snapshot mid-run. The empty plan with inert options is exactly
/// [`run`], bit for bit.
///
/// # Errors
/// [`SimError`] when the plan carries a simulated run somewhere its
/// failure detector cannot follow, or a due `restore:` finds no snapshot
/// it can load.
///
/// # Panics
/// Panics as [`run`] does, or if the elasticity options name an
/// unreadable/corrupt checkpoint to warm-start from (a configuration
/// error, surfaced loudly rather than trained through).
pub fn run_elastic(
    strategy: Strategy,
    config: &ExperimentConfig,
    backend: Backend,
    sink: Arc<dyn TraceSink>,
    faults: FaultPlan,
    elastic: ElasticOptions,
) -> Result<EngineRun, SimError> {
    let driver = driver_for(strategy);
    match backend {
        Backend::Sim => {
            let substrate = SimSubstrate::new(config)
                .with_sink(sink)
                .with_faults(faults)
                .with_elastic(elastic);
            Ok(EngineRun {
                result: driver.try_drive_sim(substrate)?,
                iterations: None,
                controller: None,
            })
        }
        Backend::Threaded => {
            let iters = config.threaded_iters.unwrap_or(DEFAULT_THREADED_ITERS);
            let substrate = ThreadedSubstrate::new(config, iters)
                .with_sink(sink)
                .with_faults(faults)
                .with_elastic(elastic);
            let report = driver.drive_threaded(&substrate);
            let updates = report.controller.map_or(0, |c| c.groups_formed);
            let mut stats = report
                .controller
                .as_ref()
                .map(controller_stats)
                .unwrap_or_default();
            let degraded: u64 = report.degraded.iter().sum();
            stats.insert("degraded".into(), degraded as f64);
            Ok(EngineRun {
                result: RunResult {
                    strategy: strategy.label(),
                    run_time: report.wall_seconds,
                    updates,
                    converged: false,
                    final_accuracy: report.accuracy,
                    trace: Vec::new(),
                    per_update_samples: Vec::new(),
                    stats,
                },
                iterations: Some(report.iterations),
                controller: report.controller,
            })
        }
    }
}

/// The controller's closing tallies as [`RunResult::stats`] entries,
/// named the same on both backends: `groups`, `repairs`, `deferrals`,
/// `singletons` and `evictions`.
pub(crate) fn controller_stats(c: &ControllerStats) -> BTreeMap<String, f64> {
    [
        ("groups", c.groups_formed),
        ("repairs", c.repairs),
        ("deferrals", c.deferrals),
        ("singletons", c.singletons),
        ("evictions", c.evictions),
    ]
    .into_iter()
    .map(|(name, count)| (name.to_string(), count as f64))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use partial_reduce::NullSink;
    use preduce_data::cifar10_like;
    use preduce_models::zoo;

    fn threaded(strategy: Strategy, n: usize, iters: u64) -> EngineRun {
        let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
        c.num_workers = n;
        c.threaded_iters = Some(iters);
        run(strategy, &c, Backend::Threaded, Arc::new(NullSink))
    }

    #[test]
    fn threaded_run_reports_in_common_vocabulary() {
        // P = N = 2 under CON: every round is the full pair, so no worker
        // is fast-forwarded, each runs exactly its budget, and each round
        // is one group.
        let con = Strategy::PReduce {
            p: 2,
            dynamic: false,
        };
        let run = threaded(con, 2, 3);
        assert_eq!(run.result.strategy, "P-Reduce CON (P=2)");
        assert_eq!(run.result.updates, 3); // one group per round
        assert_eq!(run.iterations.as_deref(), Some(&[3, 3][..]));
        assert!(run.result.trace.is_empty());
        assert!(!run.result.converged);
    }

    #[test]
    fn threaded_preduce_trains_and_terminates() {
        let con = Strategy::PReduce {
            p: 2,
            dynamic: false,
        };
        let r = threaded(con, 4, 15);
        let stats = r.controller.expect("controller stats");
        assert!(stats.groups_formed > 0);
        let accuracy = r.result.final_accuracy;
        assert!(accuracy > 0.1, "below chance: {accuracy}");
    }

    #[test]
    fn threaded_preduce_dynamic_mode() {
        let dynamic = Strategy::PReduce {
            p: 2,
            dynamic: true,
        };
        let r = threaded(dynamic, 3, 10);
        assert!(r.controller.expect("stats").groups_formed > 0);
        // Dynamic fast-forwarding means iteration counters can exceed the
        // loop count; they must never be below it.
        for &i in r.iterations.as_deref().expect("threaded iterations") {
            assert!(i >= 10);
        }
    }

    #[test]
    fn sim_run_matches_legacy_dispatch() {
        let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
        c.num_workers = 4;
        c.max_updates = 48;
        c.eval_every = 16;
        let engine = run(Strategy::AllReduce, &c, Backend::Sim, Arc::new(NullSink));
        let legacy = crate::experiment::run_experiment(Strategy::AllReduce, &c);
        assert_eq!(engine.result.run_time, legacy.run_time);
        assert_eq!(engine.result.updates, legacy.updates);
        assert_eq!(engine.result.final_accuracy, legacy.final_accuracy);
        assert!(engine.iterations.is_none());
    }
}
