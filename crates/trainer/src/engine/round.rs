//! The one real-time P-Reduce round: Algorithm 2's worker loop body —
//! local update, ready signal, group average, fast-forward — with the
//! fault plan (DESIGN.md §11) and the snapshot cadence (§14) applied on
//! the way. The threaded driver and the process worker both loop over
//! [`WorkerRounds::run`]; what differs between them — how a failed reduce
//! is handled, the heartbeat period, which plan and straggler delay they
//! hand in — stays in their own loops.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use partial_reduce::runtime::{PartialReducer, ReduceError};
use partial_reduce::{TraceEvent, TraceSink};
use preduce_simnet::{FaultKind, FaultPlan};
use rand::Rng;

use crate::elastic::{ElasticOptions, SnapshotWriter};
use crate::worker::WorkerState;

/// One wall-clock "compute step" a stall multiplies when the caller
/// injected no explicit straggler delay (real local updates are too fast
/// for a multiplicative stall to be observable otherwise).
const STALL_UNIT: Duration = Duration::from_millis(1);

/// How a round ended.
pub(crate) enum Round {
    /// The worker signalled, was averaged with its group, and adopted the
    /// group's iteration.
    Reduced,
    /// The plan's crash fired at this iteration boundary: no signal was
    /// sent and no snapshot written. The caller fail-stops — drops its
    /// reducer without `finish`, so the controller learns of the death
    /// only through silence.
    Crashed,
}

/// One worker's per-run round state: its share of the fault plan, its
/// straggler delay and its periodic-snapshot writer.
pub(crate) struct WorkerRounds {
    faults: FaultPlan,
    delay: Duration,
    snapshots: SnapshotWriter,
    sink: Arc<dyn TraceSink>,
    stall_narrated: bool,
}

impl WorkerRounds {
    /// Opens `w`'s snapshot writer, narrates the plan's persistent
    /// perturbations of `w` (late join, delayed signals) and sleeps out
    /// the late join. A caller that heartbeats starts beating *before*
    /// this, so a late worker is never misjudged as dead.
    pub(crate) fn begin(
        w: &WorkerState,
        faults: FaultPlan,
        delay: Duration,
        elastic: &ElasticOptions,
        sink: Arc<dyn TraceSink>,
    ) -> Self {
        let rounds = WorkerRounds {
            snapshots: elastic.snapshot_writer(w, sink.clone()),
            faults,
            delay,
            sink,
            stall_narrated: false,
        };
        let seconds = rounds.faults.start_delay(w.rank);
        if seconds > 0.0 {
            rounds.narrate(w.rank, FaultKind::LateJoin { seconds }, 0);
            thread::sleep(Duration::from_secs_f64(seconds));
        }
        let seconds = rounds.faults.signal_delay(w.rank);
        if seconds > 0.0 {
            rounds.narrate(w.rank, FaultKind::DelaySignals { seconds }, 0);
        }
        rounds
    }

    fn narrate(&self, worker: usize, kind: FaultKind, iteration: u64) {
        if self.sink.enabled() {
            self.sink.record(TraceEvent::FaultInjected {
                worker,
                fault: kind.label(),
                iteration,
            });
        }
    }

    /// One round: straggler and stall sleeps, the local update, the crash
    /// check, the snapshot if one is due, the signal delay, then
    /// [`PartialReducer::reduce`] and the fast-forward to the group's
    /// iteration. On a failed reduce `w` keeps what the averager left in
    /// its parameters and its own iteration count, and the error names
    /// the phase that failed.
    pub(crate) fn run<R: Rng + ?Sized>(
        &mut self,
        w: &mut WorkerState,
        rng: &mut R,
        reducer: &mut PartialReducer,
    ) -> Result<Round, ReduceError> {
        if !self.delay.is_zero() {
            thread::sleep(self.delay);
        }
        let from_iteration = w.iteration + 1;
        let factor = self.faults.stall_factor(w.rank, from_iteration);
        if factor > 1.0 {
            if !self.stall_narrated {
                self.stall_narrated = true;
                let stall = FaultKind::Stall {
                    factor,
                    from_iteration,
                };
                self.narrate(w.rank, stall, from_iteration);
            }
            let base = if self.delay.is_zero() {
                STALL_UNIT
            } else {
                self.delay
            };
            thread::sleep(base.mul_f64(factor - 1.0));
        }
        w.local_update(rng);
        if self
            .faults
            .crash_at(w.rank)
            .is_some_and(|at| w.iteration >= at)
        {
            let at_iteration = w.iteration;
            self.narrate(w.rank, FaultKind::Crash { at_iteration }, at_iteration);
            return Ok(Round::Crashed);
        }
        self.snapshots.snapshot_if_due(w);
        let seconds = self.faults.signal_delay(w.rank);
        if seconds > 0.0 {
            thread::sleep(Duration::from_secs_f64(seconds));
        }
        w.iteration = reducer
            .reduce(w.params.as_mut_slice(), w.iteration)?
            .new_iteration;
        Ok(Round::Reduced)
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

    #[test]
    fn a_dead_group_peer_fails_the_group_phase_not_the_run() {
        const N: usize = 2;
        let mut config = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
        config.num_workers = N;
        let (ctl, links) = control_links(N);
        let server = thread::spawn(move || {
            serve_fleet(
                ControllerConfig::constant(N, 2),
                ctl,
                &[],
                RuntimeOptions::default(),
            )
        });
        let workers: Vec<_> = build_fleet(&config)
            .workers
            .into_iter()
            .zip(links)
            .map(|(mut w, link)| {
                thread::spawn(move || {
                    let sink: Arc<dyn TraceSink> = Arc::new(NullSink);
                    let averager = Box::new(LeaderDiesOnce(w.rank == 1));
                    let mut r = PartialReducer::from_parts(Box::new(link), averager, sink.clone());
                    let elastic = ElasticOptions::none();
                    let mut rounds =
                        WorkerRounds::begin(&w, FaultPlan::none(), Duration::ZERO, &elastic, sink);
                    let mut rng = StdRng::seed_from_u64(w.rank as u64);
                    let outcomes: Vec<_> = (0..2)
                        .map(|_| rounds.run(&mut w, &mut rng, &mut r))
                        .collect();
                    r.finish().unwrap();
                    outcomes
                })
            })
            .collect();
        let outcomes: Vec<_> = workers.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(server.join().unwrap().groups_formed, 2);

        // Rank 1 lost its leader mid-average: a group failure, after which
        // the controller still answers and the next round reduces.
        assert!(matches!(
            outcomes[1][0],
            Err(ReduceError::Group(CommError::Disconnected { peer: 0 }))
        ));
        assert!(matches!(outcomes[1][1], Ok(Round::Reduced)));
        assert!(outcomes[0].iter().all(|o| matches!(o, Ok(Round::Reduced))));
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
                    let mut rounds = WorkerRounds::begin(&w, plan, Duration::ZERO, &elastic, sink);
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
        // The crashed iteration left neither a snapshot nor a signal.
        let crashes = faults_of(1, "crash");
        assert_eq!(crashes.len(), 1);
        assert!(crashes[0] >= 4);
        assert!(!events.iter().any(|e| matches!(
            e,
            TraceEvent::SignalEnqueued { worker: 1, iteration, .. }
            | TraceEvent::SnapshotTaken { worker: 1, iteration }
                if *iteration >= crashes[0]
        )));
        assert!(faults_of(0, "stall")[0] >= 2);
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
