//! The multi-process projection: P-Reduce over a fleet of OS processes.
//!
//! The sim and threaded substrates both live inside one process; this
//! module is the third projection, where the controller and every worker
//! are separate processes connected only by sockets. The controller half
//! ([`run_controller`]) binds the TCP control plane, accepts the fleet,
//! and runs [`partial_reduce::runtime::serve_fleet`] — the
//! batch-ingesting serving loop, which polls the control sockets itself
//! on its own thread. The worker half ([`run_worker`]) rebuilds the *same*
//! deterministic fleet from the shared [`ExperimentConfig`] (every
//! process derives bit-identical replicas from the seed, so no model
//! state ever crosses the wire at startup), picks its own rank's replica,
//! and trains against the remote controller with the star-reduce data
//! mesh ([`preduce_comm::mesh::MeshEndpoint`]) carrying group averages.
//!
//! Relation to the other substrates (DESIGN.md §12): a worker process
//! runs the threaded projection's worker loop — the one real-time loop
//! and error policy in `engine::round`, over the worker step every
//! substrate shares; only the transports differ. Sim = virtual time +
//! in-memory averaging; threaded = real threads + in-process channel
//! control + in-process star average; process = real processes + TCP
//! control + TCP star-reduce data plane. The controller owns the
//! fast-forward rule (its mode) and the beat (its liveness policy's
//! `beat_period`, none when it does not watch): [`run_controller`] puts
//! both in the fleet roster and every worker process applies what it
//! received, as `runtime::spawn` applies them to threads.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use partial_reduce::runtime::{serve_fleet, ControllerStats, PartialReducer, RuntimeOptions};
use partial_reduce::{ControllerConfig, SinkObserver, TraceSink};
use preduce_comm::control::{ControlObserver, ObservedControlPlane};
use preduce_comm::mesh::MeshEndpoint;
use preduce_comm::reactor::{accept_fleet, ReactorConfig};
use preduce_comm::tcp::{try_bind_controller, RetryPolicy, TcpWorkerLink};
use preduce_comm::CommError;
use preduce_simnet::FaultPlan;
use rand::{rngs::StdRng, SeedableRng};

use crate::config::ExperimentConfig;
use crate::elastic::ElasticOptions;
use crate::engine::round::WorkerRounds;
use crate::engine::setup::{build_fleet, evaluate_uniform_average, worker_thread_seed};
use crate::replay::params_hash;

/// What the controller process reports at shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerReport {
    /// The controller's closing tallies (groups, repairs, deferrals,
    /// singletons, evictions).
    pub stats: ControllerStats,
    /// Fleet size served.
    pub workers: usize,
}

/// What a worker process reports at shutdown.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerReport {
    /// This worker's rank.
    pub rank: usize,
    /// Final local iteration count: `iters` under CON, at least that
    /// under DYN, whose members fast-forward.
    pub iterations: u64,
    /// Test accuracy of this worker's own final model.
    pub accuracy: f64,
    /// Reduces that failed and fell back to the local model (degraded
    /// mode — the run continues, it just skips that averaging round).
    pub degraded: u64,
    /// [`crate::replay::params_hash`] of this worker's final parameters:
    /// what [`crate::replay::replay`] of the controller's trace must
    /// reproduce for this rank.
    pub params_hash: u64,
}

/// Runs the controller half of a process fleet: binds `listen`, reports
/// the chosen address through `on_listen` (bind to port 0 and the real
/// port flows to whoever spawns the workers), accepts exactly
/// `controller.num_workers` process handshakes, sends each the roster
/// with the mode's fast-forward rule and the beat period of
/// `opts.liveness` (none without a policy), and serves P-Reduce until
/// every worker departs.
///
/// # Errors
/// [`CommError::BindFailed`] if `listen` cannot be bound; handshake
/// failures from the accept phase.
///
/// # Panics
/// Panics if the config is invalid.
pub fn run_controller(
    controller: ControllerConfig,
    listen: &str,
    opts: RuntimeOptions,
    on_listen: impl FnOnce(SocketAddr),
) -> Result<ControllerReport, CommError> {
    let observer = Arc::new(SinkObserver::new(opts.sink.clone()));
    run_observed_controller(controller, listen, opts, on_listen, observer)
}

/// [`run_controller`] with the control plane's traffic reported to
/// `observer` instead of narrated to `opts.sink`.
fn run_observed_controller(
    controller: ControllerConfig,
    listen: &str,
    opts: RuntimeOptions,
    on_listen: impl FnOnce(SocketAddr),
    observer: Arc<dyn ControlObserver>,
) -> Result<ControllerReport, CommError> {
    controller.validate();
    let n = controller.num_workers;
    let (listener, addr) = try_bind_controller(listen)?;
    on_listen(addr);
    let reactor = ReactorConfig {
        adopt_group_max: controller.mode.adopts_group_max(),
        heartbeat: opts.liveness.map(|policy| policy.beat_period()),
    };
    let (link, members) = accept_fleet(&listener, n, reactor)?;
    let joined: Vec<(usize, String)> = members
        .iter()
        .map(|m| (m.rank, m.peer_addr.clone()))
        .collect();
    let observed = ObservedControlPlane::new(link, observer);
    let stats = serve_fleet(controller, observed, &joined, opts);
    Ok(ControllerReport { stats, workers: n })
}

/// Runs one worker process: rebuilds the deterministic fleet for
/// `config`, takes rank `rank`'s replica, dials the controller at
/// `connect`, and performs `iters` local-update + partial-reduce rounds
/// under the fast-forward rule and the beat the controller's roster
/// names.
///
/// A failed reduce is a degraded round under the one worker loop's policy
/// (`engine::round`); either way the worker evaluates the model it holds.
///
/// # Errors
/// Fails with [`CommError::InvalidRank`] before anything is built if
/// `rank` is outside the configured fleet; if the controller handshake
/// or data-plane bring-up fails; or with
/// [`CommError::FleetSizeMismatch`] before training if the roster's fleet
/// is not the configured one.
pub fn run_worker(
    config: &ExperimentConfig,
    connect: SocketAddr,
    rank: usize,
    iters: u64,
    sink: Arc<dyn TraceSink>,
) -> Result<WorkerReport, CommError> {
    run_worker_elastic(config, connect, rank, iters, sink, ElasticOptions::none())
}

/// Like [`run_worker`], but under [`ElasticOptions`] (DESIGN.md §14): a
/// warm start from an earlier checkpoint directory before dialing the
/// controller, and periodic snapshots of this rank's durable state while
/// training. This is how a replacement process rejoins a fleet with the
/// dead rank's model instead of a fresh one. Inert options make this
/// exactly [`run_worker`].
///
/// # Errors
/// Fails as [`run_worker`] does.
///
/// # Panics
/// Panics if the options name an unreadable/corrupt checkpoint store — a
/// configuration error, surfaced loudly rather than trained through.
pub fn run_worker_elastic(
    config: &ExperimentConfig,
    connect: SocketAddr,
    rank: usize,
    iters: u64,
    sink: Arc<dyn TraceSink>,
    elastic: ElasticOptions,
) -> Result<WorkerReport, CommError> {
    let world = config.num_workers;
    if rank >= world {
        return Err(CommError::InvalidRank { rank, world });
    }
    let mut fleet = build_fleet(config);
    // The other ranks' replicas are dropped here: a process keeps its own.
    let mut worker = std::mem::take(&mut fleet.workers).swap_remove(rank);
    elastic.warm_start(&mut worker);

    let mut mesh = MeshEndpoint::bind(rank, "127.0.0.1:0")?;
    let data_addr = mesh.local_addr().to_string();
    let (link, roster) =
        TcpWorkerLink::connect_fleet(connect, rank, data_addr, RetryPolicy::default())?;
    if roster.data_addrs.len() != config.num_workers {
        return Err(CommError::FleetSizeMismatch {
            roster: roster.data_addrs.len(),
            configured: config.num_workers,
        });
    }
    mesh.set_roster(&roster.data_addrs)?;

    let (link, mesh) = (Box::new(link), Box::new(mesh));
    let reducer = PartialReducer::from_parts(link, mesh, sink.clone(), roster.heartbeat);

    // No fault plan and no straggler delay reach a process yet.
    let (plan, adopt) = (FaultPlan::none(), roster.adopt_group_max);
    let rounds = WorkerRounds::begin(&worker, &plan, Duration::ZERO, &elastic, sink, adopt);
    let mut rng = StdRng::seed_from_u64(worker_thread_seed(config.seed, rank));
    let degraded = rounds.run_for(&mut worker, &mut rng, reducer, iters);

    let accuracy = evaluate_uniform_average(config, &fleet.test, &[worker.params.clone()]);
    Ok(WorkerReport {
        rank,
        iterations: worker.iteration,
        accuracy,
        degraded,
        params_hash: params_hash(worker.params.as_slice()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use partial_reduce::runtime::LivenessPolicy;
    use partial_reduce::NullSink;
    use preduce_checkpoint::CheckpointStore;
    use preduce_comm::control::WorkerSignal;
    use preduce_data::cifar10_like;
    use preduce_models::zoo;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    fn tiny_config(n: usize) -> ExperimentConfig {
        let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
        c.num_workers = n;
        c
    }

    /// The full projection, in-process for testability: a controller on
    /// one thread, N "processes" on worker threads, real TCP on loopback
    /// for both planes. Workers run elastically (periodic snapshots).
    #[test]
    fn process_projection_converges_on_loopback() {
        let n = 4;
        let controller_cfg = crate::strategy::Strategy::preduce_controller_config(2, false, n);
        let dir = std::env::temp_dir().join(format!("preduce-elastic-proc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let (addr_tx, addr_rx) = std::sync::mpsc::channel::<SocketAddr>();
        let server = thread::spawn(move || {
            run_controller(
                controller_cfg,
                "127.0.0.1:0",
                RuntimeOptions::default(),
                |addr| {
                    let _ = addr_tx.send(addr);
                },
            )
        });
        let addr = addr_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("controller never reported its address");

        let workers: Vec<_> = (0..n)
            .map(|rank| {
                let config = tiny_config(n);
                let elastic = ElasticOptions::none().with_policy(&dir, 1);
                thread::spawn(move || {
                    run_worker_elastic(&config, addr, rank, 4, Arc::new(NullSink), elastic)
                })
            })
            .collect();
        let reports: Vec<WorkerReport> = workers
            .into_iter()
            .map(|t| t.join().unwrap().unwrap())
            .collect();
        let report = server.join().unwrap().unwrap();

        assert_eq!(report.workers, n);
        assert!(report.stats.groups_formed > 0, "{report:?}");
        for r in &reports {
            assert_eq!(r.degraded, 0, "clean run degraded: {r:?}");
            assert_eq!(r.iterations, 4, "a CON worker keeps its own count: {r:?}");
            assert!(r.accuracy > 0.0, "{r:?}");
        }

        // Every rank snapshotted, and a replacement process can
        // warm-start from what is on disk.
        let store = CheckpointStore::open(&dir).expect("open store");
        for rank in 0..n {
            assert!(store.has_worker(rank), "no snapshot for rank {rank}");
            let snap = store.load_worker(rank).expect("load");
            assert_eq!(snap.rank, rank);
            assert!(snap.iteration >= 1, "{snap:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Counts the heartbeats the controller receives.
    #[derive(Default)]
    struct BeatCounter(AtomicU64);

    impl ControlObserver for BeatCounter {
        fn on_signal(&self, signal: &WorkerSignal) {
            if matches!(signal, WorkerSignal::Heartbeat { .. }) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Runs two worker "processes" (threads, over loopback) against a
    /// controller under `liveness` and returns its report and the
    /// heartbeats it received.
    fn beats_received(liveness: Option<LivenessPolicy>) -> (ControllerReport, u64) {
        let n = 2;
        let beats = Arc::new(BeatCounter::default());
        let observer = beats.clone();
        let (addr_tx, addr_rx) = std::sync::mpsc::channel::<SocketAddr>();
        let server = thread::spawn(move || {
            let opts = RuntimeOptions {
                liveness,
                ..RuntimeOptions::default()
            };
            let on_listen = |addr| {
                let _ = addr_tx.send(addr);
            };
            let cfg = ControllerConfig::constant(n, 2);
            run_observed_controller(cfg, "127.0.0.1:0", opts, on_listen, observer)
        });
        let addr = addr_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        let workers: Vec<_> = (0..n)
            .map(|rank| {
                let config = tiny_config(n);
                thread::spawn(move || run_worker(&config, addr, rank, 20, Arc::new(NullSink)))
            })
            .collect();
        for w in workers {
            w.join().unwrap().unwrap();
        }
        let report = server.join().unwrap().unwrap();
        (report, beats.0.load(Ordering::Relaxed))
    }

    #[test]
    fn workers_beat_only_for_a_controller_that_watches() {
        let (report, beats) = beats_received(None);
        assert_eq!(beats, 0, "heartbeats sent to an unwatching controller");
        assert_eq!(report.stats.evictions, 0, "{report:?}");

        let policy = LivenessPolicy::new(Duration::from_millis(20), 50);
        let (report, beats) = beats_received(Some(policy));
        assert!(beats > 0, "no heartbeat reached a watching controller");
        assert_eq!(report.stats.evictions, 0, "{report:?}");
    }

    #[test]
    fn out_of_range_rank_is_rejected() {
        let config = tiny_config(2);
        // No controller needed: the rank check fires before the fleet
        // is built or the controller dialed.
        let err = run_worker(
            &config,
            "127.0.0.1:1".parse().unwrap(),
            7,
            4,
            Arc::new(NullSink),
        )
        .unwrap_err();
        assert_eq!(err, CommError::InvalidRank { rank: 7, world: 2 });
    }
}
