//! Algorithm 2's worker body, written once for every substrate.
//!
//! [`WorkerStep`] is sans-I/O and owns everything keyed on a worker's
//! iteration: the plan's persistent faults, narrated once at `begin`; the
//! stall factor and signal delay of the coming update; the local update
//! and the once-per-life crash; the snapshot if due (DESIGN.md §14); the
//! controller's fast-forward rule (DYN adopts the group max, CON keeps its
//! own count), which the step is handed and never picks. The simulator
//! schedules virtual time around it (`drivers::preduce`). [`WorkerRounds`]
//! sleeps around it, and [`WorkerRounds::run_for`] is the one real-time
//! worker loop, with the deployed error policy: the threaded driver and
//! the process worker run their budgets through it and differ only in
//! transport. Neither starts a heartbeat: the controller's liveness
//! policy sets it when the reducer is built (`runtime::spawn`, or
//! `PartialReducer::from_parts` with the roster's period).

use std::sync::Arc;
use std::thread;
use std::time::{Duration, TryFromFloatSecsError};

use partial_reduce::runtime::{PartialReducer, ReduceError, ReduceOutcome};
use partial_reduce::{TraceEvent, TraceSink};
use preduce_simnet::{FaultKind, FaultPlan};
use rand::Rng;

use crate::elastic::{ElasticOptions, SnapshotWriter};
use crate::worker::WorkerState;

/// One wall-clock "compute step" a stall multiplies when the caller
/// injected no explicit straggler delay (real local updates are too fast
/// for a multiplicative stall to be observable otherwise).
const STALL_UNIT: Duration = Duration::from_millis(1);

/// One worker's iteration-keyed state: its share of the fault plan, its
/// snapshot writer and the controller's fast-forward rule.
pub(crate) struct WorkerStep {
    rank: usize,
    faults: FaultPlan,
    snapshots: SnapshotWriter,
    sink: Arc<dyn TraceSink>,
    adopt_group_max: bool,
    crashed: bool,
}

impl WorkerStep {
    /// Takes `w`'s share of `faults`, opens its snapshot writer and
    /// narrates its persistent faults (stall, signal delay, late join), one
    /// [`TraceEvent::FaultInjected`] per fault in plan order. A crash is
    /// narrated where it fires; a restore is recovery, narrated as
    /// [`TraceEvent::WorkerRestored`] by whoever runs it. `adopt_group_max`
    /// is the controller's rule,
    /// [`AggregationMode::adopts_group_max`](partial_reduce::AggregationMode::adopts_group_max).
    pub(crate) fn begin(
        w: &WorkerState,
        faults: &FaultPlan,
        elastic: &ElasticOptions,
        sink: Arc<dyn TraceSink>,
        adopt_group_max: bool,
    ) -> Self {
        let faults = FaultPlan {
            faults: faults.for_worker(w.rank).copied().collect(),
        };
        for spec in &faults.faults {
            let iteration = match spec.kind {
                FaultKind::Crash { .. } | FaultKind::Restore { .. } => continue,
                FaultKind::Stall { from_iteration, .. } => from_iteration,
                FaultKind::DelaySignals { .. } | FaultKind::LateJoin { .. } => 0,
            };
            narrate(&*sink, w.rank, spec.kind, iteration);
        }
        WorkerStep {
            rank: w.rank,
            snapshots: elastic.snapshot_writer(w, sink.clone()),
            faults,
            sink,
            adopt_group_max,
            crashed: false,
        }
    }

    /// How many seconds late the worker starts.
    pub(crate) fn start_delay(&self) -> f64 {
        self.faults.start_delay(self.rank)
    }

    /// The compute-time multiplier of the coming local update of a
    /// worker at local `iteration`.
    pub(crate) fn stall_factor(&self, iteration: u64) -> f64 {
        self.faults.stall_factor(self.rank, iteration + 1)
    }

    /// Seconds every ready signal of the worker arrives late.
    pub(crate) fn signal_delay(&self) -> f64 {
        self.faults.signal_delay(self.rank)
    }

    /// Lines 2–4 of Algorithm 2 on a worker of its own: the local update,
    /// then [`Self::updated`].
    pub(crate) fn update<R: Rng + ?Sized>(
        &mut self,
        w: &mut WorkerState,
        rng: &mut R,
    ) -> Option<u64> {
        w.local_update(rng);
        let w = &*w;
        self.updated(w.iteration, || w)
    }

    /// What follows the local update that brought the worker to
    /// `iteration`: the plan's crash — at most once per life, so a
    /// restored worker does not crash again when it passes the trigger —
    /// then the snapshot if one is due, of the worker `read` returns with
    /// its model current (the simulator's read point). Returns the
    /// iteration to signal, or `None` when the crash fired: no snapshot
    /// was written and no signal may be sent.
    pub(crate) fn updated<'w>(
        &mut self,
        iteration: u64,
        read: impl FnOnce() -> &'w WorkerState,
    ) -> Option<u64> {
        let crash_at = self.faults.crash_at(self.rank);
        if !self.crashed && crash_at.is_some_and(|at| at <= iteration) {
            self.crashed = true;
            let crash = FaultKind::Crash {
                at_iteration: iteration,
            };
            narrate(&*self.sink, self.rank, crash, iteration);
            return None;
        }
        self.snapshots.snapshot_if_due(iteration, read);
        Some(iteration)
    }

    /// The fast-forward rule once the group's reduce has run: in DYN the
    /// worker's local `iteration` adopts the group maximum `new_iteration`
    /// (§3.3.3), in CON it keeps its own count.
    pub(crate) fn reduced(&self, iteration: &mut u64, new_iteration: u64) {
        if self.adopt_group_max {
            *iteration = new_iteration;
        }
    }

    /// Whether the plan's crash has fired.
    pub(crate) fn crashed(&self) -> bool {
        self.crashed
    }
}

fn narrate(sink: &dyn TraceSink, worker: usize, kind: FaultKind, iteration: u64) {
    if sink.enabled() {
        sink.record(TraceEvent::FaultInjected {
            worker,
            fault: kind.label(),
            iteration,
        });
    }
}

/// The sleep a stall of `factor` adds to a round of a worker whose
/// straggler delay is `delay`: the delay — or, without one, a
/// [`STALL_UNIT`] step — times `factor − 1`.
///
/// # Errors
/// When the product does not fit a [`Duration`]: [`FaultPlan::check`]
/// bounds the factor, not the delay it multiplies.
pub(crate) fn stall_sleep(delay: Duration, factor: f64) -> Result<Duration, TryFromFloatSecsError> {
    let unit = if delay.is_zero() { STALL_UNIT } else { delay };
    Duration::try_from_secs_f64((factor - 1.0).max(0.0) * unit.as_secs_f64())
}

fn sleep_secs(seconds: f64) {
    if seconds > 0.0 {
        thread::sleep(Duration::from_secs_f64(seconds));
    }
}

/// How a round ended.
enum Round {
    /// The worker signalled and was averaged with its group.
    Reduced,
    /// The plan's crash fired: no signal was sent.
    Crashed,
}

/// One worker's real-time rounds: its [`WorkerStep`] and its straggler
/// delay.
pub(crate) struct WorkerRounds {
    step: WorkerStep,
    delay: Duration,
}

impl WorkerRounds {
    /// Builds `w`'s step and sleeps out its late join. A caller that
    /// heartbeats starts beating *before* this, so a late worker is never
    /// misjudged as dead.
    pub(crate) fn begin(
        w: &WorkerState,
        faults: &FaultPlan,
        delay: Duration,
        elastic: &ElasticOptions,
        sink: Arc<dyn TraceSink>,
        adopt_group_max: bool,
    ) -> Self {
        let step = WorkerStep::begin(w, faults, elastic, sink, adopt_group_max);
        sleep_secs(step.start_delay());
        WorkerRounds { step, delay }
    }

    /// One round: the straggler and stall sleep, the step's update, the
    /// signal delay, then [`PartialReducer::reduce`] and the fast-forward
    /// rule — applied on a failed group average too, since the assignment
    /// was received. On a failed reduce `w` keeps what the averager left in
    /// its parameters, and the error names the phase that failed.
    fn run<R: Rng + ?Sized>(
        &mut self,
        w: &mut WorkerState,
        rng: &mut R,
        reducer: &mut PartialReducer,
    ) -> Result<Round, ReduceError> {
        // Fits: the threaded driver refuses a plan whose product does not
        // (`ThreadedSubstrate::check_faults`), and a process runs no plan.
        let stall =
            stall_sleep(self.delay, self.step.stall_factor(w.iteration)).unwrap_or(Duration::MAX);
        thread::sleep(self.delay.saturating_add(stall));
        let Some(iteration) = self.step.update(w, rng) else {
            return Ok(Round::Crashed);
        };
        sleep_secs(self.step.signal_delay());
        let outcome = reducer.reduce(w.params.as_mut_slice(), iteration);
        match &outcome {
            Ok(ReduceOutcome { new_iteration, .. })
            | Err(ReduceError::Group { new_iteration, .. }) => {
                self.step.reduced(&mut w.iteration, *new_iteration)
            }
            Err(ReduceError::Control(_)) => {}
        }
        outcome.map(|_| Round::Reduced)
    }

    /// Runs up to `iters` rounds under the deployed error policy and
    /// returns how many degraded. A failed group average is a degraded
    /// round: the worker keeps what the averager left and signals again.
    /// A failed control exchange is one and ends the loop. The plan's
    /// crash fail-stops through [`PartialReducer::crash`] (no `Leaving`);
    /// otherwise the worker calls `finish` best-effort, since the
    /// controller also learns of a departure when the link closes.
    pub(crate) fn run_for<R: Rng + ?Sized>(
        mut self,
        w: &mut WorkerState,
        rng: &mut R,
        mut reducer: PartialReducer,
        iters: u64,
    ) -> u64 {
        let mut degraded = 0;
        for _ in 0..iters {
            match self.run(w, rng, &mut reducer) {
                Ok(Round::Reduced) => {}
                Ok(Round::Crashed) => {
                    reducer.crash();
                    return degraded;
                }
                Err(ReduceError::Group { .. }) => degraded += 1,
                Err(ReduceError::Control(_)) => {
                    degraded += 1;
                    break;
                }
            }
        }
        let _ = reducer.finish();
        degraded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::engine::setup::{build_fleet, worker_thread_seed};
    use partial_reduce::runtime::{serve_fleet, spawn, RuntimeOptions};
    use partial_reduce::{ControllerConfig, InvariantChecker, NullSink, RingSink};
    use preduce_comm::control::control_links;
    use preduce_comm::mesh::GroupAverager;
    use preduce_comm::CommError;
    use preduce_data::cifar10_like;
    use preduce_models::zoo;
    use rand::{rngs::StdRng, SeedableRng};

    /// A data plane whose first average fails the way a member's does when
    /// its group leader dies mid-reduce; every later average succeeds.
    struct LeaderDiesOnce(bool);

    impl GroupAverager for LeaderDiesOnce {
        fn group_weighted_average(
            &mut self,
            _: &[usize],
            _: u64,
            _: &mut [f32],
            _: &[f32],
        ) -> preduce_comm::Result<()> {
            if std::mem::take(&mut self.0) {
                return Err(CommError::Disconnected { peer: 0 });
            }
            Ok(())
        }
    }

    /// How a test drives one rank: its rounds, state, RNG and reducer in,
    /// what it observed out.
    type Drive<T> = fn(WorkerRounds, &mut WorkerState, &mut StdRng, PartialReducer) -> T;

    /// Two rounds one at a time, then `finish`: each round's outcome.
    fn two_rounds(
        mut rounds: WorkerRounds,
        w: &mut WorkerState,
        rng: &mut StdRng,
        mut r: PartialReducer,
    ) -> Vec<Result<Round, ReduceError>> {
        let outcomes = (0..2).map(|_| rounds.run(w, rng, &mut r)).collect();
        r.finish().unwrap();
        outcomes
    }

    /// What each rank of an N = P = 2 fleet under `plan` saw when rank 1's
    /// first group average fails, rank 0 starting at iteration `start`:
    /// what `drive` returned, each rank's final iteration, and the
    /// controller's trace.
    fn rank_1_loses_its_first_average<T: Send + 'static>(
        controller: ControllerConfig,
        start: u64,
        plan: &FaultPlan,
        drive: Drive<T>,
    ) -> (Vec<T>, Vec<u64>, Vec<TraceEvent>) {
        const N: usize = 2;
        let mut config = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
        config.num_workers = N;
        let adopt = controller.mode.adopts_group_max();
        let trace = Arc::new(RingSink::new(256));
        let (ctl, links) = control_links(N);
        let opts = RuntimeOptions {
            sink: trace.clone(),
            ..RuntimeOptions::default()
        };
        let server = thread::spawn(move || serve_fleet(controller, ctl, &[], opts));
        let workers: Vec<_> = build_fleet(&config)
            .workers
            .into_iter()
            .zip(links)
            .map(|(mut w, link)| {
                let plan = plan.clone();
                thread::spawn(move || {
                    if w.rank == 0 {
                        w.iteration = start;
                    }
                    let sink: Arc<dyn TraceSink> = Arc::new(NullSink);
                    let averager = Box::new(LeaderDiesOnce(w.rank == 1));
                    let r =
                        PartialReducer::from_parts(Box::new(link), averager, sink.clone(), None);
                    let elastic = ElasticOptions::none();
                    let rounds =
                        WorkerRounds::begin(&w, &plan, Duration::ZERO, &elastic, sink, adopt);
                    let mut rng = StdRng::seed_from_u64(w.rank as u64);
                    let seen = drive(rounds, &mut w, &mut rng, r);
                    (seen, w.iteration)
                })
            })
            .collect();
        let (seen, iterations) = workers.into_iter().map(|t| t.join().unwrap()).unzip();
        server.join().unwrap();
        (seen, iterations, trace.snapshot())
    }

    /// The ranks that announced their departure, in trace order.
    fn left(events: &[TraceEvent]) -> Vec<usize> {
        events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::WorkerLeft { worker, .. } => Some(*worker),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn the_loop_counts_a_failed_average_and_signals_again() {
        let (degraded, iterations, events) = rank_1_loses_its_first_average(
            ControllerConfig::constant(2, 2),
            0,
            &FaultPlan::none(),
            |rounds, w, rng, r| rounds.run_for(w, rng, r, 2),
        );
        assert_eq!(degraded, [0, 1]);
        assert_eq!(iterations, [2, 2]);
        // Rank 1 signalled again after its failed average, was averaged in
        // a second group, and both ranks left politely.
        let rank_1_signals: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SignalEnqueued {
                    worker: 1,
                    iteration,
                    ..
                } => Some(*iteration),
                _ => None,
            })
            .collect();
        assert_eq!(rank_1_signals, [1, 2]);
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.groups, 2);
        let mut departed = left(&events);
        departed.sort_unstable();
        assert_eq!(departed, [0, 1]);
    }

    #[test]
    fn a_control_failure_is_one_degraded_round_and_ends_the_loop() {
        let mut config = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
        config.num_workers = 2;
        let mut w = build_fleet(&config).workers.swap_remove(0);
        // No controller: the first ready signal fails.
        let (ctl, mut links) = control_links(2);
        drop(ctl);
        let sink: Arc<dyn TraceSink> = Arc::new(NullSink);
        let averager = Box::new(LeaderDiesOnce(false));
        let link = Box::new(links.swap_remove(0));
        let r = PartialReducer::from_parts(link, averager, sink.clone(), None);
        let (plan, elastic) = (FaultPlan::none(), ElasticOptions::none());
        let rounds = WorkerRounds::begin(&w, &plan, Duration::ZERO, &elastic, sink, false);
        let degraded = rounds.run_for(&mut w, &mut StdRng::seed_from_u64(0), r, 5);
        assert_eq!(degraded, 1);
        // One local update, then no further round.
        assert_eq!(w.iteration, 1);
    }

    #[test]
    fn a_crash_fail_stops_without_leaving() {
        // Rank 0 runs two rounds; rank 1 crashes in its third update, after
        // rank 0 has left, so no live peer waits on the dead one.
        let (degraded, iterations, events) = rank_1_loses_its_first_average(
            ControllerConfig::constant(2, 2),
            0,
            &FaultPlan::parse("crash:1@3").unwrap(),
            |rounds, w, rng, r| {
                let iters = if w.rank == 0 { 2 } else { 3 };
                rounds.run_for(w, rng, r, iters)
            },
        );
        assert_eq!(degraded, [0, 1]);
        assert_eq!(iterations, [2, 3]);
        // Only rank 0 announced its departure: the crashed rank sent no
        // `Leaving`, and never signalled its crash iteration.
        assert_eq!(left(&events), [0]);
        assert!(!events.iter().any(|e| matches!(
            e,
            TraceEvent::SignalEnqueued {
                worker: 1,
                iteration: 3,
                ..
            }
        )));
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn a_dead_group_peer_fails_the_group_phase_not_the_run() {
        let (outcomes, iterations, events) = rank_1_loses_its_first_average(
            ControllerConfig::constant(2, 2),
            0,
            &FaultPlan::none(),
            two_rounds,
        );
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.groups, 2);

        // Rank 1 lost its leader mid-average: a group failure, after which
        // the controller still answers and the next round reduces.
        assert!(matches!(
            outcomes[1][0],
            Err(ReduceError::Group {
                error: CommError::Disconnected { peer: 0 },
                ..
            })
        ));
        assert!(matches!(outcomes[1][1], Ok(Round::Reduced)));
        assert!(outcomes[0].iter().all(|o| matches!(o, Ok(Round::Reduced))));
        // CON members keep their own count.
        assert_eq!(iterations, [2, 2]);
    }

    #[test]
    fn a_degraded_dyn_round_still_fast_forwards() {
        // Rank 0 resumes at iteration 5, as after a warm start, so the
        // first group's maximum is 6. Rank 1's average fails, yet it must
        // adopt 6 like a member whose average landed: its next signal, 7,
        // then advances past the group it was assigned to.
        let (outcomes, iterations, events) = rank_1_loses_its_first_average(
            ControllerConfig::dynamic(2, 2),
            5,
            &FaultPlan::none(),
            two_rounds,
        );
        assert!(matches!(
            outcomes[1][0],
            Err(ReduceError::Group {
                new_iteration: 6,
                ..
            })
        ));
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.groups, 2);
        assert_eq!(iterations, [7, 7]);
    }

    #[test]
    fn round_applies_plan_and_cadence_in_order() {
        const N: usize = 4;
        const ITERS: usize = 8;
        let mut config = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
        config.num_workers = N;
        let plan = FaultPlan::parse("stall:0x3@2,crash:1@4").unwrap();
        let dir = std::env::temp_dir().join(format!("preduce-round-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let elastic = ElasticOptions::none().with_policy(&dir, 1);
        let sink = Arc::new(RingSink::new(8192));
        let fleet = build_fleet(&config);
        // No liveness policy and no heartbeats: eviction by silence is the
        // chaos suite's subject and runs on a wall-clock budget; here the
        // crashed worker departs politely, so no step depends on timing.
        let (handle, reducers) = spawn(
            ControllerConfig::constant(N, 2),
            RuntimeOptions {
                sink: sink.clone(),
                liveness: None,
            },
        );

        let threads: Vec<_> = fleet
            .workers
            .into_iter()
            .zip(reducers)
            .map(|(mut w, mut r)| {
                let (plan, elastic, sink) = (plan.clone(), elastic.clone(), sink.clone());
                let mut rng = StdRng::seed_from_u64(worker_thread_seed(config.seed, w.rank));
                thread::spawn(move || {
                    let mut rounds =
                        WorkerRounds::begin(&w, &plan, Duration::ZERO, &elastic, sink, false);
                    let mut reduced = 0;
                    while reduced < ITERS {
                        match rounds.run(&mut w, &mut rng, &mut r).unwrap() {
                            Round::Reduced => reduced += 1,
                            Round::Crashed => break,
                        }
                    }
                    r.finish().unwrap();
                    reduced
                })
            })
            .collect();
        let rounds_done: Vec<usize> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert!(handle.join().groups_formed > 0);
        assert!(rounds_done[1] < ITERS, "worker 1 never crashed");

        let events = sink.snapshot();
        assert_eq!(sink.dropped(), 0);
        let faults_of = |worker: usize, verb: &str| -> Vec<u64> {
            events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::FaultInjected {
                        worker: w,
                        fault,
                        iteration,
                    } if *w == worker && fault.starts_with(verb) => Some(*iteration),
                    _ => None,
                })
                .collect()
        };
        for (rank, &healthy_rounds) in rounds_done.iter().enumerate() {
            // The stall is narrated once, by its worker only, however
            // many rounds it slows down.
            let stalls = faults_of(rank, "stall");
            assert_eq!(stalls.len(), usize::from(rank == 0), "rank {rank}");
            // Cadence 1: one snapshot per healthy round, each written
            // before the round's signal can reach the controller.
            let taken = |iteration: u64| {
                events.iter().position(|e| {
                    *e == TraceEvent::SnapshotTaken {
                        worker: rank,
                        iteration,
                    }
                })
            };
            let snapshots = events
                .iter()
                .filter(
                    |e| matches!(e, TraceEvent::SnapshotTaken { worker, .. } if *worker == rank),
                )
                .count();
            assert_eq!(snapshots, healthy_rounds, "rank {rank}");
            for (at, e) in events.iter().enumerate() {
                if let TraceEvent::SignalEnqueued {
                    worker, iteration, ..
                } = e
                {
                    if *worker == rank {
                        let snap = taken(*iteration);
                        assert!(
                            snap.is_some_and(|s| s < at),
                            "rank {rank} signalled iteration {iteration} at {at}, snapshot at {snap:?}"
                        );
                    }
                }
            }
        }
        // A CON worker keeps its own count, so the crash fires at exactly
        // its iteration, and that iteration left neither a snapshot nor a
        // signal.
        let crashes = faults_of(1, "crash");
        assert_eq!(crashes, [4]);
        assert!(!events.iter().any(|e| matches!(
            e,
            TraceEvent::SignalEnqueued { worker: 1, iteration, .. }
            | TraceEvent::SnapshotTaken { worker: 1, iteration }
                if *iteration >= crashes[0]
        )));
        assert_eq!(faults_of(0, "stall"), [2]);
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
