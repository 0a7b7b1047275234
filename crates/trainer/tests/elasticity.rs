//! Elasticity suite (DESIGN.md §14): checkpoint/restore under chaos.
//!
//! The headline test kills a worker mid-run and re-admits it from its
//! snapshot (`crash:3@20,restore:3@30`), proving the kill-and-replace
//! cycle loses no durable state: the trace narrates the snapshot and the
//! restore, the restored worker keeps its own shard; the invariant checker
//! accepts the whole stream (including the restored worker's rewound
//! iteration floor); and equal-budget accuracy stays within the crash
//! tolerance of the fault-free golden. The companion tests pin the
//! subsystem's inertness guarantee — a snapshot policy must not perturb
//! the training trajectory by a single bit — and the loud failure modes
//! for a restore verb with nowhere to restore from or on a substrate that
//! cannot execute it. CI runs this file
//! single-threaded (`--test-threads=1`, the `elasticity-smoke` job).

use std::path::PathBuf;
use std::sync::Arc;

use partial_reduce::{InvariantChecker, RingSink, TraceEvent};
use preduce_data::cifar10_like;
use preduce_models::zoo;
use preduce_trainer::{
    elastic, engine, Backend, ElasticOptions, EngineRun, ExperimentConfig, FaultPlan, Strategy,
};

/// Accuracy tolerance vs the fault-free golden for a kill-and-replace
/// run: the replica misses groups while dead but rejoins with durable
/// state, so the cost is bounded like a crash, not worse.
const RESTORE_TOLERANCE: f64 = 0.25;

fn sim_config() -> ExperimentConfig {
    let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
    c.num_workers = 8;
    c.threshold = 0.999; // unreachable: fixed-budget runs, equal updates
    c.max_updates = 300;
    c.eval_every = 100;
    c
}

/// A fresh scratch directory under the system temp dir; callers remove it.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("preduce-elasticity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs P-Reduce (P=4) on the simulator under `plan` and `elastic`,
/// returning the run and its full trace.
fn sim_run(
    dynamic: bool,
    plan: FaultPlan,
    elastic: ElasticOptions,
) -> (EngineRun, Vec<TraceEvent>) {
    let strategy = Strategy::PReduce { p: 4, dynamic };
    run_traced(&sim_config(), strategy, Backend::Sim, plan, elastic)
}

/// Runs `strategy` under `plan` and `elastic`, returning the run and its
/// full trace.
fn run_traced(
    c: &ExperimentConfig,
    strategy: Strategy,
    backend: Backend,
    plan: FaultPlan,
    elastic: ElasticOptions,
) -> (EngineRun, Vec<TraceEvent>) {
    let sink = Arc::new(RingSink::new(262_144));
    let run = engine::run_elastic(strategy, c, backend, sink.clone(), plan, elastic)
        .expect("the run stays within the detector's clock");
    assert_eq!(sink.dropped(), 0, "trace overflowed the ring");
    (run, sink.snapshot())
}

/// The iterations at which `SnapshotTaken` was narrated for `worker`.
fn snapshots_of(events: &[TraceEvent], worker: usize) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::SnapshotTaken {
                worker: w,
                iteration,
            } if *w == worker => Some(*iteration),
            _ => None,
        })
        .collect()
}

#[test]
fn kill_and_replace_recovers_without_data_loss() {
    for dynamic in [false, true] {
        let label = if dynamic {
            "DYN restore"
        } else {
            "CON restore"
        };
        let dir = scratch(if dynamic { "kr-dyn" } else { "kr-con" });
        let (golden, _) = sim_run(dynamic, FaultPlan::none(), ElasticOptions::none());

        // Cadence 1 so the doomed worker is guaranteed a durable snapshot
        // before the crash fires, whatever iteration numbers fast-forward
        // hands it.
        let plan = FaultPlan::none().crash(3, 20).restore(3, 30);
        let elastic = ElasticOptions::none().with_policy(&dir, 1);
        let (run, events) = sim_run(dynamic, plan, elastic);

        // Same fixed budget as the golden: the fleet as a whole lost no
        // updates to the crash.
        assert_eq!(
            run.result.updates, golden.result.updates,
            "{label}: update budget"
        );
        let acc = run.result.final_accuracy;
        assert!(
            (acc - golden.result.final_accuracy).abs() <= RESTORE_TOLERANCE,
            "{label}: accuracy {acc:.3} drifted more than {RESTORE_TOLERANCE} from \
             fault-free golden {:.3}",
            golden.result.final_accuracy
        );

        // The full elastic narrative: snapshot → crash/evict → restore.
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::SnapshotTaken { worker: 3, .. })),
            "{label}: worker 3 never snapshotted"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::WorkerEvicted { worker: 3, .. })),
            "{label}: crash was not evicted"
        );
        let restored = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::WorkerRestored {
                    worker: 3,
                    iteration,
                    active,
                } => Some((*iteration, *active)),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{label}: worker 3 never restored"));
        assert!(restored.0 >= 1, "{label}: restored from a blank snapshot");
        assert_eq!(restored.1, 8, "{label}: fleet not back to full strength");

        // The restored worker trains on: post-restore signals exist.
        let restore_idx = events
            .iter()
            .position(|e| matches!(e, TraceEvent::WorkerRestored { worker: 3, .. }))
            .unwrap();
        assert!(
            events[restore_idx..]
                .iter()
                .any(|e| matches!(e, TraceEvent::SignalEnqueued { worker: 3, .. })),
            "{label}: restored worker never signaled again"
        );

        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{label}: {report}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_restore_due_before_the_eviction_waits_for_it() {
    // The restore comes due one update after the crash, inside the
    // detector's silence budget: groups complete while the crashed worker
    // is silent but not yet evicted, and it is restored only once it has
    // been. The run neither panics nor narrates a restore of a worker
    // that never departed.
    let dir = scratch("early-restore");
    let plan = FaultPlan::none().crash(3, 20).restore(3, 21);
    let elastic = ElasticOptions::none().with_policy(&dir, 1);
    let strategy = Strategy::PReduce {
        p: 2,
        dynamic: false,
    };
    let (_, events) = run_traced(&sim_config(), strategy, Backend::Sim, plan, elastic);
    let at = |wanted: fn(&TraceEvent) -> bool| events.iter().position(wanted);
    let crashed = at(|e| matches!(e, TraceEvent::FaultInjected { worker: 3, .. }))
        .expect("worker 3 never crashed");
    let evicted = at(|e| matches!(e, TraceEvent::WorkerEvicted { worker: 3, .. }))
        .expect("worker 3 was never evicted");
    let restored = at(|e| matches!(e, TraceEvent::WorkerRestored { worker: 3, .. }))
        .expect("worker 3 was never restored");
    let completed_in_silence = events[crashed..evicted]
        .iter()
        .any(|e| matches!(e, TraceEvent::ReduceCompleted { .. }));
    assert!(
        completed_in_silence,
        "no group completed while worker 3 was silent"
    );
    assert!(
        evicted < restored,
        "restored at event {restored}, evicted at {evicted}"
    );
    let report = InvariantChecker::check(&events);
    assert!(report.is_clean(), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restored_worker_resumes_its_own_shard() {
    // No shard moves on any substrate (DESIGN.md §14): a worker rewound
    // in place — the simulator's `restore:` path — samples from exactly
    // the shard a fresh fleet cuts for its rank.
    use rand::SeedableRng;
    let bits =
        |t: &preduce_tensor::Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let c = sim_config();
    let rank = 3;
    let mut fleet = engine::setup::build_fleet(&c);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for _ in 0..5 {
        fleet.workers[rank].local_update(&mut rng);
    }
    let snap = elastic::worker_snapshot(&fleet.workers[rank]);
    for _ in 0..3 {
        fleet.workers[rank].local_update(&mut rng);
    }
    elastic::restore_worker(&mut fleet.workers[rank], snap).expect("restore");
    assert_eq!(fleet.workers[rank].iteration, 5);

    let fresh = engine::setup::build_fleet(&c);
    let got = fleet.workers[rank].sampler.dataset();
    let own = fresh.workers[rank].sampler.dataset();
    assert_eq!(bits(got.features()), bits(own.features()));
    assert_eq!(got.labels(), own.labels());
    let neighbour = fresh.workers[rank + 1].sampler.dataset();
    assert_ne!(bits(got.features()), bits(neighbour.features()));
}

#[test]
fn snapshot_policy_does_not_perturb_the_trajectory() {
    // Snapshots observe the run; they must never steer it. A run under an
    // aggressive snapshot policy is bit-identical to the bare run in every
    // training observable (only the trace gains SnapshotTaken events).
    let dir = scratch("inert");
    let (base, base_events) = sim_run(false, FaultPlan::none(), ElasticOptions::none());
    let (snapped, snap_events) = sim_run(
        false,
        FaultPlan::none(),
        ElasticOptions::none().with_policy(&dir, 1),
    );
    assert_eq!(base.result.final_accuracy, snapped.result.final_accuracy);
    assert_eq!(base.result.run_time, snapped.result.run_time);
    assert_eq!(base.result.updates, snapped.result.updates);
    assert_eq!(base.result.trace, snapped.result.trace);
    // The two traces agree exactly once snapshot narration is removed.
    let stripped: Vec<&TraceEvent> = snap_events
        .iter()
        .filter(|e| !matches!(e, TraceEvent::SnapshotTaken { .. }))
        .collect();
    let base_refs: Vec<&TraceEvent> = base_events.iter().collect();
    assert_eq!(base_refs, stripped, "snapshotting reordered the trace");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_start_resumes_from_durable_state() {
    // Phase 1 trains with snapshots; phase 2 warm-starts from them, on
    // each substrate. The restored fleet must begin past the snapshot
    // iterations — visible as a first-signal iteration floor in the trace.
    let mut threaded = sim_config();
    threaded.num_workers = 4;
    threaded.threaded_iters = Some(8);
    for (backend, c, p, every) in [
        (Backend::Sim, sim_config(), 4, 1),
        (Backend::Threaded, threaded, 2, 2),
    ] {
        let dir = scratch(&format!("{backend:?}-warm"));
        let strategy = Strategy::PReduce { p, dynamic: false };
        let snapshots = ElasticOptions::none().with_policy(&dir, every);
        let _ = run_traced(&c, strategy, backend, FaultPlan::none(), snapshots);
        let restore = ElasticOptions::none().with_restore(&dir);
        let (resumed, events) = run_traced(&c, strategy, backend, FaultPlan::none(), restore);
        assert!(resumed.result.final_accuracy.is_finite(), "{backend:?}");
        let first_signal = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::SignalEnqueued { iteration, .. } => Some(*iteration),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{backend:?}: no signals in resumed run"));
        assert!(
            first_signal > 1,
            "{backend:?}: warm start ignored the snapshots: first signal at iteration \
             {first_signal}"
        );
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{backend:?}: {report}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
#[should_panic(expected = "no checkpoint directory")]
fn restore_verb_without_a_store_fails_loudly() {
    let plan = FaultPlan::none().crash(3, 20).restore(3, 30);
    let _ = sim_run(false, plan, ElasticOptions::none());
}

#[test]
#[should_panic(expected = "only the simulator executes")]
fn restore_verb_on_the_threaded_backend_fails_loudly() {
    let mut c = sim_config();
    c.num_workers = 4;
    c.threaded_iters = Some(8);
    let strategy = Strategy::PReduce {
        p: 2,
        dynamic: false,
    };
    let plan = FaultPlan::none().crash(1, 4).restore(1, 8);
    let _ = run_traced(
        &c,
        strategy,
        Backend::Threaded,
        plan,
        ElasticOptions::none(),
    );
}

#[test]
fn fast_forwarded_workers_snapshot_on_every_cadence_crossing() {
    // DYN on a skewed fleet: fast-forward hands workers iteration numbers
    // that jump over multiples of K=4. Every crossing must snapshot.
    let dir = scratch("ff-cadence");
    let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 3);
    c.num_workers = 8;
    c.threshold = 0.999;
    c.max_updates = 200;
    c.eval_every = 100;
    let strategy = Strategy::PReduce {
        p: 3,
        dynamic: true,
    };
    let elastic = ElasticOptions::none().with_policy(&dir, 4);
    let (_, events) = run_traced(&c, strategy, Backend::Sim, FaultPlan::none(), elastic);
    let mut skipped_a_multiple = false;
    for w in 0..c.num_workers {
        // The worker's counts at each look: one per ready signal.
        let mut last = 0u64;
        let mut expected = Vec::new();
        for e in &events {
            if let TraceEvent::SignalEnqueued {
                worker, iteration, ..
            } = e
            {
                if *worker == w {
                    if iteration / 4 > last / 4 {
                        expected.push(*iteration);
                        skipped_a_multiple |= iteration % 4 != 0;
                    }
                    last = *iteration;
                }
            }
        }
        assert_eq!(snapshots_of(&events, w), expected, "worker {w}");
    }
    assert!(
        skipped_a_multiple,
        "no fast-forward jumped a multiple of 4: the run tests nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_checkpoint_dir_holds_one_file_per_worker_and_nothing_else() {
    // Only workers have durable state: whatever the substrate, a snapshot
    // policy leaves `worker-R.ckpt` for every rank and no other file.
    let mut threaded = sim_config();
    threaded.num_workers = 4;
    threaded.threaded_iters = Some(8);
    for (backend, c, p) in [
        (Backend::Sim, sim_config(), 4),
        (Backend::Threaded, threaded, 2),
    ] {
        let dir = scratch(&format!("{backend:?}-files"));
        let strategy = Strategy::PReduce { p, dynamic: false };
        let elastic = ElasticOptions::none().with_policy(&dir, 2);
        let (_, events) = run_traced(&c, strategy, backend, FaultPlan::none(), elastic);
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .expect("checkpoint dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        files.sort();
        let expected: Vec<String> = (0..c.num_workers)
            .map(|r| format!("worker-{r}.ckpt"))
            .collect();
        assert_eq!(files, expected, "{backend:?}");
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{backend:?}: {report}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
