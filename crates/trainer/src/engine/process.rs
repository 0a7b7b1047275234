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
//! runs the threaded projection's round (`engine::round`); only the
//! transports and the reaction to a failed reduce differ. Sim = virtual
//! time + in-memory averaging; threaded = real threads + in-process ring
//! collectives + loopback TCP control; process = real processes + TCP
//! control + TCP star-reduce data plane.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use partial_reduce::runtime::{
    serve_fleet, ControllerStats, PartialReducer, ReduceError, RuntimeOptions,
};
use partial_reduce::{ControllerConfig, SinkObserver, TraceSink};
use preduce_comm::control::ObservedControlPlane;
use preduce_comm::mesh::MeshEndpoint;
use preduce_comm::reactor::{accept_fleet, ReactorConfig};
use preduce_comm::tcp::{bind_controller, RetryPolicy, TcpWorkerLink};
use preduce_comm::CommError;
use preduce_simnet::FaultPlan;
use rand::{rngs::StdRng, SeedableRng};

use crate::config::ExperimentConfig;
use crate::elastic::ElasticOptions;
use crate::engine::round::{Round, WorkerRounds};
use crate::engine::setup::{build_fleet, evaluate_uniform_average, worker_thread_seed};
use crate::replay::params_hash;

/// Heartbeat period for process workers: well under any sane liveness
/// budget, cheap on the wire (a heartbeat frame is ~40 bytes).
pub const PROCESS_HEARTBEAT: Duration = Duration::from_millis(50);

/// What the controller process reports at shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerReport {
    /// Serving-loop statistics (groups, repairs, singletons, evictions).
    pub stats: ControllerStats,
    /// Fleet size served.
    pub workers: usize,
}

/// What a worker process reports at shutdown.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerReport {
    /// This worker's rank.
    pub rank: usize,
    /// Final local iteration count (after fast-forwards).
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
/// `controller.num_workers` process handshakes, and serves P-Reduce
/// until every worker departs.
///
/// # Errors
/// Propagates handshake failures ([`CommError`]) from the accept phase.
///
/// # Panics
/// Panics if `listen` cannot be bound or the config is invalid — both
/// startup-only conditions, matching `bind_controller`'s contract.
pub fn run_controller(
    controller: ControllerConfig,
    listen: &str,
    opts: RuntimeOptions,
    on_listen: impl FnOnce(SocketAddr),
) -> Result<ControllerReport, CommError> {
    controller.validate();
    let n = controller.num_workers;
    let (listener, addr) = bind_controller(listen);
    on_listen(addr);
    let (link, members) = accept_fleet(&listener, n, ReactorConfig::default())?;
    let joined: Vec<(usize, String)> = members
        .iter()
        .map(|m| (m.rank, m.peer_addr.clone()))
        .collect();
    let observed = ObservedControlPlane::new(link, Arc::new(SinkObserver::new(opts.sink.clone())));
    let stats = serve_fleet(controller, observed, &joined, opts);
    Ok(ControllerReport { stats, workers: n })
}

/// Runs one worker process: rebuilds the deterministic fleet for
/// `config`, takes rank `rank`'s replica, dials the controller at
/// `connect`, and performs `iters` local-update + partial-reduce rounds.
///
/// A failed group average degrades to the local model (the worker keeps
/// its own parameters and re-signals next round); a failed control
/// exchange ends the run early. Either way the worker evaluates whatever
/// model it holds.
///
/// # Errors
/// Fails if the controller handshake or data-plane bring-up fails, or if
/// `rank` is outside the configured fleet.
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
    let fleet = build_fleet(config);
    let Some(mut worker) = fleet.workers.into_iter().nth(rank) else {
        return Err(CommError::InvalidGroup(format!(
            "rank {rank} outside the {}-worker fleet",
            config.num_workers
        )));
    };
    elastic.warm_start(&mut worker);

    let mut mesh = MeshEndpoint::bind(rank, "127.0.0.1:0")?;
    let data_addr = mesh.local_addr().to_string();
    let (link, roster) =
        TcpWorkerLink::connect_fleet(connect, rank, data_addr, RetryPolicy::default())?;
    mesh.set_roster(&roster.data_addrs)?;

    let mut reducer = PartialReducer::from_parts(Box::new(link), Box::new(mesh), sink.clone());
    reducer.start_heartbeat(PROCESS_HEARTBEAT);

    // No fault plan and no straggler delay reach a process yet.
    let mut rounds =
        WorkerRounds::begin(&worker, FaultPlan::none(), Duration::ZERO, &elastic, sink);
    let mut rng = StdRng::seed_from_u64(worker_thread_seed(config.seed, rank));
    let mut degraded = 0u64;
    let mut crashed = false;
    for _ in 0..iters {
        match rounds.run(&mut worker, &mut rng, &mut reducer) {
            Ok(Round::Reduced) => {}
            Ok(Round::Crashed) => {
                crashed = true;
                break;
            }
            Err(ReduceError::Control(_)) => {
                // The controller link failed: no more groups will form.
                degraded += 1;
                break;
            }
            Err(ReduceError::Group(_)) => {
                // Data-plane failure (a dying group member — even the
                // leader — or a timeout): keep what the mesh left in
                // place — per element the local value or the finished
                // average — and re-signal next round; the controller's
                // eviction path excludes the dead member from future
                // groups.
                degraded += 1;
            }
        }
    }
    if crashed {
        // Fail-stop: no Leaving; the controller sees the socket close.
        reducer.crash();
    } else {
        // Best-effort: the controller also tolerates learning of
        // departure from the socket closing.
        let _ = reducer.finish();
    }

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
    use partial_reduce::NullSink;
    use preduce_checkpoint::CheckpointStore;
    use preduce_data::cifar10_like;
    use preduce_models::zoo;
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
                // Cadence 1: fast-forward can skip arbitrary iteration
                // numbers, so any sparser cadence could miss every write.
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
            assert!(r.iterations >= 4, "no fast-forward below budget: {r:?}");
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

    #[test]
    fn out_of_range_rank_is_rejected() {
        let config = tiny_config(2);
        // No controller needed: the rank check fires before dialing.
        let err = run_worker(
            &config,
            "127.0.0.1:1".parse().unwrap(),
            7,
            4,
            Arc::new(NullSink),
        )
        .unwrap_err();
        assert!(matches!(err, CommError::InvalidGroup(_)), "{err:?}");
    }
}
