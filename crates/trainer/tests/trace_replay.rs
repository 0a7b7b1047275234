//! End-to-end trace-driven testing: the threaded runtime trains a real
//! fleet under injected heterogeneity, narrates every control-plane
//! decision to a JSONL dump, and the invariant checker replays the dump
//! and asserts the paper's contracts — plus negative tests proving the
//! checker actually catches corrupted traces.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use partial_reduce::{read_jsonl, InvariantChecker, JsonlSink, RingSink, TraceEvent, TraceSink};
use preduce_data::cifar10_like;
use preduce_models::zoo;
use preduce_trainer::engine::{driver_for, ThreadedSubstrate};
use preduce_trainer::replay::replay;
use preduce_trainer::{ExperimentConfig, FaultPlan, Strategy};

fn config(n: usize) -> ExperimentConfig {
    let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
    c.num_workers = n;
    c
}

/// Four speed classes: ranks 0–3 fast … ranks 12–15 slowest. Enough skew
/// that groups regularly mix iteration numbers.
fn hetero_delays(n: usize) -> Vec<Duration> {
    (0..n)
        .map(|r| Duration::from_micros((r as u64 / 4) * 400))
        .collect()
}

fn trace_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("preduce-trace-replay");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Runs a traced N=16, P=4 threaded fleet, six rounds per worker, and
/// returns the replayed events and every worker's final iteration. The
/// trace read back from JSONL also recomputes every worker's final model
/// bit for bit.
fn run_and_read(dynamic: bool, name: &str) -> (Vec<TraceEvent>, Vec<u64>) {
    let n = 16;
    let path = trace_path(name);
    let sink = Arc::new(JsonlSink::create(&path).expect("create trace file"));
    let substrate = ThreadedSubstrate::new(&config(n), 6)
        .with_delays(&hetero_delays(n))
        .with_sink(sink.clone());
    let report = driver_for(Strategy::PReduce { p: 4, dynamic }).drive_threaded(&substrate);
    sink.flush();
    assert_eq!(sink.write_errors(), 0);
    assert!(report.controller.expect("stats").groups_formed > 0);

    let events = read_jsonl(&path).expect("trace reads back");
    let _ = std::fs::remove_file(&path);
    assert_eq!(replay(&config(n), &events), report.params_hashes);
    (events, report.iterations)
}

/// A traced threaded run of four workers, `iters` rounds each: its trace
/// and the workers' final-model hashes.
fn threaded_run(strategy: Strategy, iters: u64, faults: FaultPlan) -> (Vec<TraceEvent>, Vec<u64>) {
    let sink = Arc::new(RingSink::new(65_536));
    let substrate = ThreadedSubstrate::new(&config(4), iters)
        .with_faults(faults)
        .with_sink(sink.clone());
    let report = driver_for(strategy).drive_threaded(&substrate);
    assert_eq!(sink.dropped(), 0);
    (sink.snapshot(), report.params_hashes)
}

#[test]
fn threaded_models_are_their_trace_replayed() {
    // Every worker's final model is what the controller's decisions imply:
    // one local update per round, then the group's average in
    // group-position order, whichever member led it.
    for p in [2, 3] {
        for dynamic in [false, true] {
            let (events, hashes) =
                threaded_run(Strategy::PReduce { p, dynamic }, 12, FaultPlan::none());
            assert_eq!(replay(&config(4), &events), hashes, "P={p} dyn={dynamic}");
        }
    }
    // A stall changes only timing; a crash leaves its worker one local
    // update past its last group, and the survivors regroup without it.
    let pr = Strategy::PReduce {
        p: 2,
        dynamic: true,
    };
    for plan in ["stall:1x3@4", "crash:1@4"] {
        let (events, hashes) = threaded_run(pr, 12, FaultPlan::parse(plan).unwrap());
        assert_eq!(replay(&config(4), &events), hashes, "{plan}");
    }
}

#[test]
fn a_perturbed_decision_changes_the_replay() {
    let pr = Strategy::PReduce {
        p: 2,
        dynamic: false,
    };
    let (mut events, hashes) = threaded_run(pr, 6, FaultPlan::none());
    let Some(TraceEvent::GroupFormed { weights, .. }) = events
        .iter_mut()
        .find(|e| matches!(e, TraceEvent::GroupFormed { .. }))
    else {
        panic!("no group formed");
    };
    weights[0] += 1e-3;
    weights[1] -= 1e-3;
    assert_ne!(replay(&config(4), &events), hashes);
}

#[test]
fn threaded_con_hetero_trace_replays_clean() {
    let (events, iterations) = run_and_read(false, "con.jsonl");
    assert!(matches!(events[0], TraceEvent::RunStarted { .. }));
    assert!(matches!(
        events.last(),
        Some(TraceEvent::RunFinished { .. })
    ));
    // Worker-side completions are part of the stream, so the checker runs
    // its strict in-flight accounting.
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::ReduceCompleted { .. })));
    let report = InvariantChecker::check(&events);
    assert!(report.is_clean(), "{report}");
    assert!(report.groups > 0);
    // The skewed fleet mixes iteration numbers in its groups, yet a CON
    // member keeps its own count: every worker ends at its budget.
    assert_eq!(iterations, [6; 16]);
}

#[test]
fn threaded_dyn_hetero_trace_replays_clean() {
    // The checker recomputes every DYN weight row from Eq. 9 and compares
    // elementwise, so a clean replay *is* the staleness-weighting check.
    let (events, _) = run_and_read(true, "dyn.jsonl");
    let report = InvariantChecker::check(&events);
    assert!(report.is_clean(), "{report}");
    assert!(report.groups > 0);
}

#[test]
fn corrupted_duplicate_member_is_flagged() {
    let (mut events, _) = run_and_read(false, "dup.jsonl");
    let target = events
        .iter_mut()
        .find(|e| matches!(e, TraceEvent::GroupFormed { .. }))
        .expect("at least one group");
    if let TraceEvent::GroupFormed { members, .. } = target {
        members[1] = members[0];
    }
    let report = InvariantChecker::check(&events);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("duplicate members")),
        "{report}"
    );
}

#[test]
fn corrupted_weight_row_is_flagged() {
    let (mut events, _) = run_and_read(false, "weights.jsonl");
    let target = events
        .iter_mut()
        .find(|e| matches!(e, TraceEvent::GroupFormed { .. }))
        .expect("at least one group");
    if let TraceEvent::GroupFormed { weights, .. } = target {
        // Still sums to 1, but no longer the CON-mandated uniform row.
        weights[0] += 0.1;
        weights[1] -= 0.1;
    }
    let report = InvariantChecker::check(&events);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("mode-prescribed")),
        "{report}"
    );
}

/// The `TraceEvent` variants, named once: the list and the `match` that
/// classifies an event come from the same names, so a new variant does
/// not compile here until it is listed, and once listed it must be
/// emitted.
macro_rules! trace_event_variants {
    ($($variant:ident),+ $(,)?) => {
        const VARIANTS: &[&str] = &[$(stringify!($variant)),+];

        fn variant(event: &TraceEvent) -> &'static str {
            match event {
                $(TraceEvent::$variant { .. } => stringify!($variant)),+
            }
        }
    };
}

trace_event_variants!(
    RunStarted,
    SignalEnqueued,
    SignalRejected,
    GroupDeferred,
    GroupFormed,
    AssignmentSent,
    ReduceCompleted,
    WorkerLeft,
    PendingDrained,
    SingletonIssued,
    FaultInjected,
    ProcessJoined,
    ProcessDisconnected,
    HeartbeatMissed,
    WorkerEvicted,
    SnapshotTaken,
    WorkerRestored,
    RunFinished,
);

/// The sim substrate under a kill-and-replace plan with cadence-1
/// snapshots: faults, evictions, snapshots and a restore.
fn sim_kill_and_replace() -> Vec<TraceEvent> {
    use preduce_trainer::{engine, Backend, ElasticOptions};

    let dir = std::env::temp_dir().join(format!("preduce-every-variant-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut c = config(8);
    c.max_updates = 100;
    c.eval_every = 100;
    c.threshold = 0.999;
    let sink = Arc::new(RingSink::new(65_536));
    engine::run_elastic(
        Strategy::PReduce {
            p: 4,
            dynamic: true,
        },
        &c,
        Backend::Sim,
        sink.clone(),
        FaultPlan::none().crash(3, 20).restore(3, 30),
        ElasticOptions::none().with_policy(&dir, 1),
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(sink.dropped(), 0);
    sink.snapshot()
}

/// Threads under a crash plan: the controller thread narrates every
/// assignment it sends, evicts the crashed worker by heartbeat silence,
/// and drains the survivors out with singletons.
fn threaded_crash() -> Vec<TraceEvent> {
    use preduce_trainer::{engine, Backend, ElasticOptions};

    let mut c = config(4);
    c.threaded_iters = Some(12);
    let sink = Arc::new(RingSink::new(65_536));
    engine::run_elastic(
        Strategy::PReduce {
            p: 2,
            dynamic: false,
        },
        &c,
        Backend::Threaded,
        sink.clone(),
        FaultPlan::none().crash(3, 4),
        ElasticOptions::none(),
    );
    assert_eq!(sink.dropped(), 0);
    sink.snapshot()
}

/// `serve_fleet` over loopback TCP, as a multi-process controller runs it:
/// rank 1 drops its link at once, rank 0 stays silent until it is evicted
/// and then signals anyway, ranks 2 and 3 reduce until rank 0's late
/// signal is rejected, then leave one after the other.
fn tcp_fleet() -> Vec<TraceEvent> {
    use partial_reduce::runtime::{serve_fleet, LivenessPolicy, PartialReducer, RuntimeOptions};
    use partial_reduce::{ControllerConfig, RingSink};
    use preduce_comm::control::WorkerControlPlane;
    use preduce_comm::reactor::{accept_fleet, ReactorConfig};
    use preduce_comm::tcp::{bind_controller, RetryPolicy, TcpWorkerLink};
    use preduce_comm::CommWorld;
    use std::thread;

    const N: usize = 4;
    let sink = Arc::new(RingSink::new(65_536));
    let seen = {
        let sink = sink.clone();
        move |wanted: &dyn Fn(&TraceEvent) -> bool| sink.snapshot().iter().any(wanted)
    };
    let (listener, addr) = bind_controller("127.0.0.1:0");
    let dials: Vec<_> = (0..N)
        .map(|rank| {
            thread::spawn(move || {
                let data_addr = format!("inproc-{rank}");
                TcpWorkerLink::connect_fleet(addr, rank, data_addr, RetryPolicy::default())
                    .expect("join the fleet")
            })
        })
        .collect();
    let policy = LivenessPolicy::new(Duration::from_millis(25), 8);
    let reactor = ReactorConfig {
        heartbeat: Some(policy.beat_period()),
        ..ReactorConfig::default()
    };
    let (link, members) = accept_fleet(&listener, N, reactor).expect("accept");
    let joined: Vec<(usize, String)> = members.into_iter().map(|m| (m.rank, m.peer_addr)).collect();
    let opts = RuntimeOptions {
        sink: sink.clone(),
        liveness: Some(policy),
    };
    let server =
        thread::spawn(move || serve_fleet(ControllerConfig::constant(N, 2), link, &joined, opts));

    let links: Vec<_> = dials.into_iter().map(|d| d.join().expect("dial")).collect();
    let Ok([(mut silent, _), gone, two, three]) = <[_; N]>::try_from(links) else {
        panic!("one link per rank");
    };
    drop(gone);
    // Ranks 2 and 3 beat at the roster's period, as a worker process does;
    // rank 0 is a bare link and never beats.
    let reducers: Vec<PartialReducer> = [two, three]
        .into_iter()
        .zip(CommWorld::new(N).into_endpoints().into_iter().skip(2))
        .map(|((link, roster), endpoint)| {
            let (link, endpoint) = (Box::new(link), Box::new(endpoint));
            PartialReducer::from_parts(link, endpoint, sink.clone(), roster.heartbeat)
        })
        .collect();

    let silent = thread::spawn({
        let seen = seen.clone();
        move || {
            while !seen(&|e| matches!(e, TraceEvent::WorkerLeft { worker: 0, .. })) {
                thread::sleep(Duration::from_millis(5));
            }
            silent.send_ready(1).expect("late ready");
        }
    });
    let survivors: Vec<_> = reducers
        .into_iter()
        .zip([2usize, 3])
        .map(|(mut r, rank)| {
            let seen = seen.clone();
            thread::spawn(move || {
                let mut params = vec![rank as f32; 4];
                let mut iteration = 0;
                let mut round = |r: &mut PartialReducer, iteration: &mut u64| {
                    *iteration = r
                        .reduce(&mut params, *iteration + 1)
                        .expect("reduce")
                        .new_iteration;
                };
                if rank == 2 {
                    while !seen(&|e| matches!(e, TraceEvent::SignalRejected { worker: 0, .. })) {
                        round(&mut r, &mut iteration);
                    }
                } else {
                    while !seen(&|e| matches!(e, TraceEvent::WorkerLeft { worker: 2, .. })) {
                        round(&mut r, &mut iteration);
                    }
                    // Alone below P: answered by a singleton.
                    round(&mut r, &mut iteration);
                }
                r.finish().expect("finish");
            })
        })
        .collect();
    silent.join().expect("silent worker");
    for t in survivors {
        t.join().expect("survivor");
    }
    let stats = server.join().expect("serve_fleet");
    assert_eq!(stats.evictions, 2, "{stats:?}");
    sink.snapshot()
}

#[test]
fn every_trace_event_variant_is_emitted() {
    use std::collections::BTreeSet;

    let mut seen = BTreeSet::new();
    for (run, events) in [
        ("sim kill-and-replace", sim_kill_and_replace()),
        ("threaded crash", threaded_crash()),
        ("tcp fleet", tcp_fleet()),
    ] {
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{run}: {report}");
        seen.extend(events.iter().map(variant));
    }

    let missing: Vec<&str> = VARIANTS
        .iter()
        .copied()
        .filter(|v| !seen.contains(v))
        .collect();
    assert!(missing.is_empty(), "never emitted: {missing:?}");
}

#[test]
fn sim_and_threaded_traces_share_the_vocabulary() {
    // The same checker consumes the simulator's trace: run the virtual-time
    // harness traced and replay it with zero violations.
    use preduce_trainer::{engine, Backend};

    let mut c = config(16);
    c.max_updates = 200;
    c.eval_every = 100;
    c.threshold = 0.999;
    for dynamic in [false, true] {
        let sink = Arc::new(RingSink::new(65536));
        let strategy = Strategy::PReduce { p: 4, dynamic };
        let result = engine::run(strategy, &c, Backend::Sim, sink.clone()).result;
        assert!(result.updates > 0);
        assert_eq!(sink.dropped(), 0);
        let events = sink.snapshot();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::ReduceCompleted { .. })));
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "dynamic={dynamic}: {report}");
    }
}
