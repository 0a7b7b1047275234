//! Chaos suite: every fault class from DESIGN.md §11, injected through
//! [`preduce_trainer::FaultPlan`], must leave P-Reduce convergent.
//!
//! Each test runs CON and DYN at N=8 / P=4 under a fault plan and
//! compares equal-budget accuracy against the fault-free golden computed
//! in the same process, then replays the trace: every planned fault must
//! be narrated as `FaultInjected`, evictions must be justified, and the
//! invariant checker must accept the whole stream. The threaded tests
//! exercise the liveness path on real threads (heartbeat silence →
//! eviction; heartbeats under stall → no false eviction). CI runs this
//! file single-threaded per test (`--test-threads=1`).

use std::collections::BTreeSet;
use std::sync::Arc;

use partial_reduce::{Controller, ControllerConfig, InvariantChecker, RingSink, TraceEvent};
use preduce_data::cifar10_like;
use preduce_models::zoo;
use preduce_trainer::engine::drivers::preduce::chaos_liveness;
use preduce_trainer::{
    engine, Backend, ElasticOptions, EngineRun, ExperimentConfig, FaultPlan, Strategy,
};

/// Accuracy tolerance vs the fault-free golden for perturbation-only
/// plans (stall / delay / late join): the update budget is identical, so
/// only group compositions and staleness shift.
const PERTURB_TOLERANCE: f64 = 0.15;

/// Tolerance for plans that lose a worker: the dead replica's stale
/// parameters stay in the final uniform average (Algorithm 2 line 8), so
/// a crash costs real accuracy — bounded, not zero.
const CRASH_TOLERANCE: f64 = 0.25;

fn sim_config() -> ExperimentConfig {
    let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
    c.num_workers = 8;
    c.threshold = 0.999; // unreachable: fixed-budget runs, equal updates
    c.max_updates = 300;
    c.eval_every = 100;
    c
}

/// Runs P-Reduce (P=4) on the simulator under `plan`, returning the run
/// and its full trace.
fn sim_run(dynamic: bool, plan: FaultPlan) -> (EngineRun, Vec<TraceEvent>) {
    let c = sim_config();
    let sink = Arc::new(RingSink::new(65536));
    let run = engine::run_elastic(
        Strategy::PReduce { p: 4, dynamic },
        &c,
        Backend::Sim,
        sink.clone(),
        plan,
        ElasticOptions::none(),
    )
    .expect("the run stays within the detector's clock");
    assert_eq!(sink.dropped(), 0, "trace overflowed the ring");
    (run, sink.snapshot())
}

/// The shared chaos contract: accuracy within `tolerance` of the
/// fault-free golden, every planned fault narrated, trace accepted by the
/// invariant checker.
fn assert_chaos_contract(
    label: &str,
    plan: &FaultPlan,
    golden_accuracy: f64,
    run: &EngineRun,
    events: &[TraceEvent],
    tolerance: f64,
) {
    let acc = run.result.final_accuracy;
    assert!(acc.is_finite(), "{label}: accuracy {acc}");
    assert!(
        (acc - golden_accuracy).abs() <= tolerance,
        "{label}: accuracy {acc:.3} drifted more than {tolerance} from \
         fault-free golden {golden_accuracy:.3}"
    );
    for f in &plan.faults {
        assert!(
            events.iter().any(|e| matches!(
                e,
                TraceEvent::FaultInjected { worker, .. } if *worker == f.worker
            )),
            "{label}: fault {f:?} never narrated as FaultInjected"
        );
    }
    let report = InvariantChecker::check(events);
    assert!(report.is_clean(), "{label}: {report}");
}

#[test]
fn crash_is_evicted_and_survivors_converge() {
    for dynamic in [false, true] {
        let label = if dynamic { "DYN crash" } else { "CON crash" };
        let (golden, _) = sim_run(dynamic, FaultPlan::none());
        let plan = FaultPlan::none().crash(3, 20);
        let (run, events) = sim_run(dynamic, plan.clone());
        assert_chaos_contract(
            label,
            &plan,
            golden.result.final_accuracy,
            &run,
            &events,
            CRASH_TOLERANCE,
        );
        // The crash resolves through the ordinary departure path: an
        // eviction followed by WorkerLeft, both for rank 3.
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::WorkerEvicted { worker: 3, .. })),
            "{label}: no eviction recorded"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::WorkerLeft { worker: 3, .. })),
            "{label}: eviction never resolved into a departure"
        );
    }
}

#[test]
fn stalled_worker_is_tolerated() {
    for dynamic in [false, true] {
        let label = if dynamic { "DYN stall" } else { "CON stall" };
        let (golden, _) = sim_run(dynamic, FaultPlan::none());
        let plan = FaultPlan::none().stall(5, 4.0, 10);
        let (run, events) = sim_run(dynamic, plan.clone());
        assert_chaos_contract(
            label,
            &plan,
            golden.result.final_accuracy,
            &run,
            &events,
            PERTURB_TOLERANCE,
        );
    }
}

#[test]
fn delayed_signals_preserve_fifo_and_convergence() {
    for dynamic in [false, true] {
        let label = if dynamic { "DYN delay" } else { "CON delay" };
        let (golden, _) = sim_run(dynamic, FaultPlan::none());
        let plan = FaultPlan::none().delay_signals(2, 0.05);
        let (run, events) = sim_run(dynamic, plan.clone());
        assert_chaos_contract(
            label,
            &plan,
            golden.result.final_accuracy,
            &run,
            &events,
            PERTURB_TOLERANCE,
        );
    }
}

#[test]
fn late_joiner_is_absorbed() {
    for dynamic in [false, true] {
        let label = if dynamic {
            "DYN latejoin"
        } else {
            "CON latejoin"
        };
        let (golden, _) = sim_run(dynamic, FaultPlan::none());
        let plan = FaultPlan::none().late_join(7, 2.0);
        let (run, events) = sim_run(dynamic, plan.clone());
        assert_chaos_contract(
            label,
            &plan,
            golden.result.final_accuracy,
            &run,
            &events,
            PERTURB_TOLERANCE,
        );
    }
}

#[test]
fn combined_plan_survives_everything_at_once() {
    // The EXPERIMENTS.md showcase plan: one of each fault class.
    for dynamic in [false, true] {
        let label = if dynamic {
            "DYN combined"
        } else {
            "CON combined"
        };
        let (golden, _) = sim_run(dynamic, FaultPlan::none());
        let plan = FaultPlan::none()
            .crash(3, 30)
            .stall(5, 4.0, 10)
            .delay_signals(2, 0.05)
            .late_join(7, 2.0);
        let (run, events) = sim_run(dynamic, plan.clone());
        assert_chaos_contract(
            label,
            &plan,
            golden.result.final_accuracy,
            &run,
            &events,
            CRASH_TOLERANCE,
        );
    }
}

#[test]
fn empty_plan_is_bit_identical_to_the_faultless_run() {
    // `run_elastic` with the empty plan must not perturb the golden
    // trajectory: stall ×1.0 and +0.0s delays are exact f64 identities.
    for dynamic in [false, true] {
        let c = sim_config();
        let base = engine::run(
            Strategy::PReduce { p: 4, dynamic },
            &c,
            Backend::Sim,
            Arc::new(partial_reduce::NullSink),
        );
        let (faulted, _) = sim_run(dynamic, FaultPlan::none());
        assert_eq!(base.result.final_accuracy, faulted.result.final_accuracy);
        assert_eq!(base.result.run_time, faulted.result.run_time);
        assert_eq!(base.result.updates, faulted.result.updates);
    }
}

#[test]
fn threaded_crash_is_evicted_by_liveness() {
    let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
    c.num_workers = 4;
    c.threaded_iters = Some(12);
    let plan = FaultPlan::none().crash(3, 4);
    let sink = Arc::new(RingSink::new(65536));
    let run = engine::run_elastic(
        Strategy::PReduce {
            p: 2,
            dynamic: false,
        },
        &c,
        Backend::Threaded,
        sink.clone(),
        plan,
        ElasticOptions::none(),
    )
    .expect("the run stays within the detector's clock");

    let stats = run.controller.expect("p-reduce reports controller stats");
    assert_eq!(stats.evictions, 1, "silent worker was not evicted");
    assert_eq!(run.result.stats.get("evictions"), Some(&1.0));
    // The crash is not a failed reduce: no live worker degraded a round.
    assert_eq!(run.result.stats.get("degraded"), Some(&0.0));
    assert!(run.result.final_accuracy.is_finite());

    let events = sink.snapshot();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::FaultInjected { worker: 3, .. })),
        "crash not narrated"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::WorkerEvicted { worker: 3, .. })),
        "no eviction in trace"
    );
    let report = InvariantChecker::check(&events);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn threaded_stall_keeps_heartbeating_and_is_not_evicted() {
    // A slow worker is not a dead worker: the heartbeat thread beats
    // through the stalled compute, so liveness must never fire.
    let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
    c.num_workers = 4;
    c.threaded_iters = Some(10);
    let plan = FaultPlan::none().stall(0, 20.0, 1);
    let sink = Arc::new(RingSink::new(65536));
    let run = engine::run_elastic(
        Strategy::PReduce {
            p: 2,
            dynamic: false,
        },
        &c,
        Backend::Threaded,
        sink.clone(),
        plan,
        ElasticOptions::none(),
    )
    .expect("the run stays within the detector's clock");

    let stats = run.controller.expect("p-reduce reports controller stats");
    assert_eq!(stats.evictions, 0, "stalled worker was falsely evicted");
    assert_eq!(run.result.stats.get("degraded"), Some(&0.0));
    let iters = run.iterations.expect("threaded runs report iterations");
    assert!(
        iters.iter().all(|&i| i >= 10),
        "a worker fell short of its budget: {iters:?}"
    );
    let events = sink.snapshot();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::FaultInjected { worker: 0, .. })),
        "stall not narrated"
    );
    let report = InvariantChecker::check(&events);
    assert!(report.is_clean(), "{report}");
}

/// Worker `w`'s last silence as the trace tells it: its `HeartbeatMissed`
/// counts from the last `1` on, then `None` for its eviction.
fn last_silence(events: &[TraceEvent], w: usize) -> Vec<Option<u64>> {
    let told: Vec<Option<u64>> = events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::HeartbeatMissed { worker, misses } if worker == w => Some(Some(misses)),
            TraceEvent::WorkerEvicted { worker, .. } if worker == w => Some(None),
            _ => None,
        })
        .collect();
    let from = told.iter().rposition(|&m| m == Some(1)).unwrap_or(0);
    told[from..].to_vec()
}

#[test]
fn one_plan_fires_at_the_same_iterations_on_sim_and_threads() {
    // Both substrates run the same worker step, so every fault of a CON
    // plan is narrated with the same label at the same local iteration on
    // each — the crash included. And one failure detector evicts the
    // crashed worker on both, under the same policy: misses `1..=K`, then
    // the eviction.
    let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
    c.num_workers = 4;
    c.threshold = 0.999;
    c.max_updates = 60;
    c.threaded_iters = Some(8);
    // The doomed worker joins late, so its first groups meet members
    // further on: a lifted count would move its crash.
    let plan = FaultPlan::none()
        .crash(1, 4)
        .stall(2, 4.0, 2)
        .delay_signals(3, 0.002)
        .late_join(1, 0.005);
    let faults_on = |backend: Backend| {
        let sink = Arc::new(RingSink::new(65536));
        let run = engine::run_elastic(
            Strategy::PReduce {
                p: 2,
                dynamic: false,
            },
            &c,
            backend,
            sink.clone(),
            plan.clone(),
            ElasticOptions::none(),
        )
        .expect("the run stays within the detector's clock");
        if backend == Backend::Threaded {
            assert_eq!(run.result.stats.get("degraded"), Some(&0.0));
        }
        assert_eq!(sink.dropped(), 0, "{backend:?}");
        let events = sink.snapshot();
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{backend:?}: {report}");
        let faults = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::FaultInjected {
                    worker,
                    fault,
                    iteration,
                } => Some((*worker, fault.clone(), *iteration)),
                _ => None,
            })
            .collect::<BTreeSet<_>>();
        (faults, last_silence(&events, 1))
    };
    let sim = faults_on(Backend::Sim);
    assert!(sim.0.contains(&(1, "crash@4".to_string(), 4)), "{sim:?}");
    assert_eq!(sim.0.len(), 4, "{sim:?}");
    let k = chaos_liveness().miss_threshold();
    let told: Vec<Option<u64>> = (1..=k).map(Some).chain([None]).collect();
    assert_eq!(sim.1, told, "sim");
    assert_eq!(faults_on(Backend::Threaded), sim);
}

#[test]
fn departure_during_in_flight_group_purges_and_reforms() {
    // Satellite (d): a worker leaves while a group is in flight and
    // another signal of its own is queued. The queued signal is purged
    // (`purged_signal: true`), a late signal is rejected, and the
    // survivor set re-forms without the departed rank.
    let sink = Arc::new(RingSink::new(4096));
    let mut ctl = Controller::with_sink(ControllerConfig::constant(4, 2), sink.clone());

    // Group 0: workers 0 and 1, in flight.
    assert!(ctl.push_ready(0, 1));
    assert!(ctl.push_ready(1, 1));
    let g0 = ctl.try_form_group().expect("group forms");
    assert_eq!(g0.group, vec![0, 1]);

    // While g0 is in flight, worker 3 signals and then departs with the
    // signal still queued; worker 2's lone signal cannot form a group.
    assert!(ctl.push_ready(3, 1));
    assert!(ctl.push_ready(2, 1));
    ctl.mark_left(3);
    assert!(
        ctl.try_form_group().is_none(),
        "purged signal must not be scheduled"
    );
    // A late signal racing the departure is rejected, never queued.
    assert!(!ctl.push_ready(3, 2));

    // g0 completes; the survivors re-form with worker 2, FIFO.
    assert!(ctl.push_ready(0, 2));
    let g1 = ctl.try_form_group().expect("survivors re-form");
    assert_eq!(g1.group, vec![2, 0]);
    assert!(ctl.push_ready(1, 2));
    assert!(
        ctl.try_form_group().is_none(),
        "only worker 1 is queued after the repair"
    );

    let events = sink.snapshot();
    assert!(
        events.iter().any(|e| matches!(
            e,
            TraceEvent::WorkerLeft {
                worker: 3,
                purged_signal: true,
                ..
            }
        )),
        "departure did not record the purge"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::SignalRejected { worker: 3, .. })),
        "late signal was not rejected"
    );
    let report = InvariantChecker::check(&events);
    assert!(report.is_clean(), "{report}");
}
