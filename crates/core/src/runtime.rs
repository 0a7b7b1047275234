//! The partial-reduce runtime: the paper's prototype (§4) — one controller
//! serving loop fed by a message queue, plus a per-worker reduce handle.
//!
//! [`serve_fleet`] is the only controller loop in the workspace; each
//! substrate reaches it through exactly one entry point. [`spawn`] mints
//! in-process channel links, starts the loop on a controller thread and
//! hands back one [`PartialReducer`] per worker. A multi-process
//! controller accepts its fleet itself and calls [`serve_fleet`] directly.
//!
//! A training thread calls [`PartialReducer::reduce`] where All-Reduce
//! training would call `all_reduce`: the call sends the ready signal,
//! blocks for the controller's group assignment, runs the weighted group
//! average among exactly the assigned group (folded on its leader), and
//! returns — without ever
//! synchronizing with workers outside the group. Groups formed from
//! disjoint workers proceed fully in parallel.
//!
//! Termination follows the cooperative protocol the paper's prototype
//! needs but leaves implicit: a finished worker announces
//! [`PartialReducer::finish`]; once fewer than `P` workers remain active the
//! controller answers every subsequent ready signal with a singleton group
//! (a local no-op), so stragglers drain without deadlock.
//!
//! The serving loop does transport work only; every membership decision —
//! an eviction, a below-quorum singleton, the run's closing tallies — is
//! the [`Controller`]'s.

// A bad index kills the serving loop.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use preduce_comm::collectives::TAG_STRIDE;
use preduce_comm::control::{
    control_links, ControlEvent, ControlPlane, ControllerLink, GroupAssignment,
    ObservedControlPlane, WorkerControlPlane, WorkerLink, WorkerSignal,
};
use preduce_comm::mesh::GroupAverager;
use preduce_comm::{CommError, CommWorld};

pub use crate::controller::ControllerStats;
use crate::controller::{Controller, ControllerConfig};
use crate::liveness::FailureDetector;
pub use crate::liveness::LivenessPolicy;
use crate::trace::{NullSink, SinkObserver, TraceEvent, TraceSink};

/// Spawn-time options shared by every transport.
pub struct RuntimeOptions {
    /// Trace sink receiving every control-plane decision.
    pub sink: Arc<dyn TraceSink>,
    /// Heartbeat-based failure detection ([`FailureDetector`]); `None`
    /// disables it (the controller then only learns of departures via
    /// `Leaving` and, on TCP, dropped connections).
    pub liveness: Option<LivenessPolicy>,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            sink: Arc::new(NullSink),
            liveness: None,
        }
    }
}

/// Handle to the running controller thread.
#[derive(Debug)]
pub struct ControllerHandle {
    join: JoinHandle<ControllerStats>,
}

impl ControllerHandle {
    /// Waits for the controller to finish (after every worker called
    /// [`PartialReducer::finish`]) and returns its statistics.
    ///
    /// # Panics
    /// Panics if the controller thread panicked.
    pub fn join(self) -> ControllerStats {
        match self.join.join() {
            Ok(stats) => stats,
            // Re-raise the controller's own panic rather than minting a
            // fresh one: the original message and backtrace survive.
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

/// The outcome of one partial reduce as seen by a member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReduceOutcome {
    /// The group this worker was averaged with (singleton during drain).
    pub group: Vec<usize>,
    /// The group's maximum iteration, which a member adopts in DYN
    /// (§3.3.3 fast-forward); in CON it keeps its own count.
    pub new_iteration: u64,
}

/// Why a [`PartialReducer::reduce`] failed, by the phase that failed —
/// the phase, not the [`CommError`] variant, says what the worker can do
/// next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReduceError {
    /// The ready signal or the assignment exchange with the controller
    /// failed: this worker can expect no further group.
    Control(CommError),
    /// The group average failed — a member died or is late. The
    /// controller is unaffected and the worker may signal again. The
    /// assignment's `new_iteration` still reaches the caller, so a DYN
    /// member fast-forwards on a degraded round too.
    Group {
        /// Why the average failed.
        error: CommError,
        /// The group maximum, as in [`ReduceOutcome::new_iteration`].
        new_iteration: u64,
    },
}

impl std::fmt::Display for ReduceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReduceError::Control(e) => write!(f, "control plane: {e}"),
            ReduceError::Group { error, .. } => write!(f, "group average: {error}"),
        }
    }
}

impl std::error::Error for ReduceError {}

/// How long [`PartialReducer::reduce`] waits for the controller's group
/// assignment.
const ASSIGNMENT_TIMEOUT: Duration = Duration::from_secs(30);

/// A worker's handle to the partial-reduce service. Transport-agnostic:
/// the control plane may be in-process channels ([`spawn`]) or the paper
/// prototype's TCP message queue ([`PartialReducer::from_parts`]).
pub struct PartialReducer {
    link: Box<dyn WorkerControlPlane>,
    averager: Box<dyn GroupAverager>,
    finished: bool,
    sink: Arc<dyn TraceSink>,
    /// Set to stop the background heartbeat thread, if one was started.
    stop_heartbeat: Option<Arc<AtomicBool>>,
}

impl std::fmt::Debug for PartialReducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PartialReducer(rank={})", self.link.rank())
    }
}

impl PartialReducer {
    /// Assembles a reducer from an explicit control link and data-plane
    /// averager — the multi-process deployment path, where both halves
    /// dial remote addresses instead of being minted by [`spawn`] in the
    /// controller's own process. With `heartbeat` set (the roster's
    /// period, [`LivenessPolicy::beat_period`] of the controller's
    /// policy) a background thread beats at that period until
    /// [`PartialReducer::finish`], [`PartialReducer::crash`], drop, or
    /// the control link dies.
    pub fn from_parts(
        link: Box<dyn WorkerControlPlane>,
        averager: Box<dyn GroupAverager>,
        sink: Arc<dyn TraceSink>,
        heartbeat: Option<Duration>,
    ) -> Self {
        let mut reducer = PartialReducer {
            link,
            averager,
            finished: false,
            sink,
            stop_heartbeat: None,
        };
        if let Some(period) = heartbeat {
            reducer.start_heartbeat(period);
        }
        reducer
    }

    /// This worker's rank.
    pub fn rank(&self) -> usize {
        self.link.rank()
    }

    /// Executes one partial reduce: `params` is averaged (with the
    /// controller's weights) across the assigned group, in place.
    ///
    /// `iteration` is this worker's current iteration count; the returned
    /// [`ReduceOutcome::new_iteration`] is the group maximum, which the
    /// caller adopts in DYN.
    ///
    /// # Errors
    /// [`ReduceError::Control`] if the ready signal or the assignment
    /// failed, [`ReduceError::Group`] if the group average did; after the
    /// latter `params` holds what the averager left (see
    /// [`GroupAverager`]).
    ///
    /// # Panics
    /// Panics if called after [`PartialReducer::finish`].
    pub fn reduce(
        &mut self,
        params: &mut [f32],
        iteration: u64,
    ) -> Result<ReduceOutcome, ReduceError> {
        assert!(!self.finished, "reduce() after finish()");
        self.link
            .send_ready(iteration)
            .map_err(ReduceError::Control)?;
        let GroupAssignment {
            group,
            weights,
            base_tag,
            new_iteration,
        } = self
            .link
            .recv_assignment(ASSIGNMENT_TIMEOUT)
            .map_err(ReduceError::Control)?;
        if group.len() > 1 {
            self.averager
                .group_weighted_average(&group, base_tag, params, &weights)
                .map_err(|error| ReduceError::Group {
                    error,
                    new_iteration,
                })?;
        }
        if self.sink.enabled() {
            self.sink.record(TraceEvent::ReduceCompleted {
                worker: self.link.rank(),
                members: group.clone(),
                new_iteration,
            });
        }
        Ok(ReduceOutcome {
            group,
            new_iteration,
        })
    }

    /// Announces that this worker will issue no further reduces.
    pub fn finish(&mut self) -> preduce_comm::Result<()> {
        self.stop_beating();
        if !self.finished {
            self.finished = true;
            self.link.send_leaving()?;
        }
        Ok(())
    }

    /// Starts the background thread sending [`WorkerSignal::Heartbeat`]
    /// every `period` so the controller's [`FailureDetector`] hears this
    /// worker while it computes. If the OS refuses the thread no beat
    /// runs, and the detector evicts the worker through the ordinary,
    /// narrated path.
    fn start_heartbeat(&mut self, period: Duration) {
        let mut beat = self.link.heartbeat_sender();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let spawned = thread::Builder::new()
            .name(format!("preduce-heartbeat-{}", self.link.rank()))
            .spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    if beat().is_err() {
                        break;
                    }
                    thread::sleep(period);
                }
            });
        if spawned.is_ok() {
            self.stop_heartbeat = Some(stop);
        }
    }

    /// Simulates a fail-stop (chaos-testing hook): the heartbeat stops
    /// and the handle drops **without** announcing departure, so the
    /// controller only learns of the death through heartbeat silence, by
    /// its [`FailureDetector`].
    pub fn crash(mut self) {
        self.stop_beating();
        self.finished = true;
    }

    fn stop_beating(&mut self) {
        if let Some(stop) = self.stop_heartbeat.take() {
            stop.store(true, Ordering::Relaxed);
        }
    }
}

impl Drop for PartialReducer {
    fn drop(&mut self) {
        self.stop_beating();
    }
}

/// Spawns the controller thread for `config` over in-process channels and
/// returns its handle plus one [`PartialReducer`] per worker. Every
/// control-plane decision — including each assignment delivery and each
/// worker's reduce completion — is narrated to `opts.sink`. Under
/// `opts.liveness` every reducer is already beating at the policy's
/// [`LivenessPolicy::beat_period`] when it is handed out.
///
/// A gossip coordinator (AD-PSGD style pairwise averaging) is just
/// `ControllerConfig::constant(n, 2)`: a pairwise model average **is** a
/// partial reduce with group size two.
///
/// # Panics
/// Panics if the config is invalid.
pub fn spawn(
    config: ControllerConfig,
    opts: RuntimeOptions,
) -> (ControllerHandle, Vec<PartialReducer>) {
    config.validate();
    let (ctl_link, worker_links) = control_links(config.num_workers);
    launch(config, opts, ctl_link, worker_links)
}

/// Starts the serving loop on its own thread over an already-minted
/// channel link pair and zips the worker links with in-process data-plane
/// endpoints. The [`Controller`] is built here, on the caller's thread,
/// before the loop's thread or any [`PartialReducer`] exists, so its
/// [`TraceEvent::RunStarted`] precedes whatever a worker narrates.
fn launch(
    config: ControllerConfig,
    opts: RuntimeOptions,
    ctl_link: ControllerLink,
    worker_links: Vec<WorkerLink>,
) -> (ControllerHandle, Vec<PartialReducer>) {
    let RuntimeOptions { sink, liveness } = opts;
    let heartbeat = liveness.map(|policy| policy.beat_period());
    let ctl_link = ObservedControlPlane::new(ctl_link, Arc::new(SinkObserver::new(sink.clone())));
    let endpoints = CommWorld::new(config.num_workers).into_endpoints();
    let controller = Controller::with_liveness(config, sink.clone(), liveness);
    #[allow(
        clippy::panic,
        reason = "startup-only: OS refusing to spawn the controller thread is unrecoverable before training begins"
    )]
    let join = thread::Builder::new()
        .name("preduce-controller".into())
        .spawn(move || serve(controller, ctl_link, &[], liveness))
        .unwrap_or_else(|e| panic!("failed to spawn controller thread: {e}"));

    let reducers = worker_links
        .into_iter()
        .zip(endpoints)
        .map(|(link, endpoint)| {
            PartialReducer::from_parts(Box::new(link), Box::new(endpoint), sink.clone(), heartbeat)
        })
        .collect();

    (ControllerHandle { join }, reducers)
}

/// Controller shutdown deadline: total control-plane silence tolerated
/// before the loop assumes every worker handle is gone.
const IDLE_DEADLINE: Duration = Duration::from_secs(60);

/// Most events taken from the control plane per receive. Bounds the time
/// the serving loop spends away from the failure detector during a storm.
const INGEST_BATCH: usize = 1024;

/// The controller *serving loop* — the only one in the workspace. Every
/// transport runs it: [`spawn`] starts it on a thread over links it mints
/// itself, and a multi-process controller calls
/// it directly after owning process bring-up (bind, accept, handshake; see
/// `preduce_comm::reactor::accept_fleet`), handing over the control plane
/// plus the fleet membership established at accept time (`joined`, empty
/// for in-process fleets).
///
/// The [`Controller`] is constructed first — narrating
/// [`TraceEvent::RunStarted`] — then one [`TraceEvent::ProcessJoined`] per
/// `joined` entry before any signal is consumed, so a replayed trace
/// proves the handshake preceded participation. Then, each pass of the
/// loop:
/// - ready signals are *always* ingested in batches
///   ([`ControlPlane::recv_events`] + [`Controller::ingest_ready`]) so a
///   signal storm costs one queue-scan per wakeup instead of one per
///   signal. Links are untrusted input on every transport: a rank `≥ N`
///   or a duplicate pending signal is dropped by `ingest_ready`, on both
///   sides of quorum, never scheduled and never a panic;
/// - a transport-reported [`ControlEvent::Disconnected`] (socket EOF or
///   error — proof of death, unlike mere silence) narrates
///   [`TraceEvent::ProcessDisconnected`] and the controller evicts
///   ([`Controller::evict`]) at once; channel links never emit it;
/// - with a [`LivenessPolicy`], every signal is a hearing for the
///   [`FailureDetector`], and each pass sweeps it on the loop's clock (time
///   since the loop started); it narrates the misses and evicts a worker
///   silent past the budget. The loop waits for events no longer than the
///   detector's next deadline;
/// - below quorum, each signal [`Controller::release_below_quorum`]
///   releases is answered with a singleton assignment.
///
/// Returns once every worker departed (voluntarily or by eviction), or
/// on terminal transport failure. A failed assignment *send* is not
/// terminal on any transport: on TCP it closes that worker's socket, so
/// the next receive reports its [`ControlEvent::Disconnected`]; on
/// channels the heartbeat silence follows. The loop keeps serving and
/// lets the disconnect or the detector evict through the ordinary route
/// (live members of an unannounced group time out, degrade, and
/// re-signal). Total control-plane silence past the idle deadline remains
/// the terminal backstop.
///
/// # Panics
/// Panics if the config is invalid.
pub fn serve_fleet<C: ControlPlane>(
    config: ControllerConfig,
    link: C,
    joined: &[(usize, String)],
    opts: RuntimeOptions,
) -> ControllerStats {
    let controller = Controller::with_liveness(config, opts.sink, opts.liveness);
    serve(controller, link, joined, opts.liveness)
}

/// [`serve_fleet`] over a controller that has already narrated its start.
fn serve<C: ControlPlane>(
    mut controller: Controller,
    mut link: C,
    joined: &[(usize, String)],
    liveness: Option<LivenessPolicy>,
) -> ControllerStats {
    let n = controller.config().num_workers;
    if controller.sink().enabled() {
        for (worker, addr) in joined {
            controller.sink().record(TraceEvent::ProcessJoined {
                worker: *worker,
                addr: addr.clone(),
            });
        }
    }
    let mut ready_batch: Vec<(usize, u64)> = Vec::new();

    let started = Instant::now();
    let mut detector = liveness.map(|policy| FailureDetector::new(policy, n));
    let mut last_activity = started;

    while controller.active() > 0 {
        // Wake for the detector's next miss, or the idle deadline.
        let recv_timeout = detector
            .as_ref()
            .and_then(FailureDetector::next_deadline)
            .map_or(IDLE_DEADLINE, |due| due.saturating_sub(started.elapsed()))
            .min(IDLE_DEADLINE);
        let events = match link.recv_events(INGEST_BATCH, recv_timeout) {
            Ok(events) => {
                last_activity = Instant::now();
                events
            }
            Err(CommError::Timeout { .. }) if last_activity.elapsed() < IDLE_DEADLINE => Vec::new(),
            Err(_) => break,
        };
        let now = started.elapsed();
        for event in events {
            match event {
                ControlEvent::Signal(WorkerSignal::Ready { worker, iteration }) => {
                    if let Some(detector) = detector.as_mut() {
                        detector.heard(worker, now);
                    }
                    ready_batch.push((worker, iteration));
                }
                ControlEvent::Signal(WorkerSignal::Leaving { worker }) => {
                    // Flush queued readys first: they arrived before the
                    // departure and must be scheduled under the old fleet.
                    ingest_and_drain(&mut controller, &mut link, &mut ready_batch);
                    if worker < n && !controller.has_left(worker) {
                        controller.mark_left(worker);
                        drain_groups(&mut controller, &mut link);
                    }
                }
                ControlEvent::Signal(WorkerSignal::Heartbeat { worker }) => {
                    if let Some(detector) = detector.as_mut() {
                        detector.heard(worker, now);
                    }
                }
                ControlEvent::Disconnected { worker } => {
                    ingest_and_drain(&mut controller, &mut link, &mut ready_batch);
                    // A socket closing after the worker already departed
                    // is the normal teardown of a finished peer — only a
                    // *live* worker's disconnect is a death.
                    if worker < n && !controller.has_left(worker) {
                        if controller.sink().enabled() {
                            controller
                                .sink()
                                .record(TraceEvent::ProcessDisconnected { worker });
                        }
                        controller.evict(worker);
                        drain_groups(&mut controller, &mut link);
                    }
                }
            }
        }
        ingest_and_drain(&mut controller, &mut link, &mut ready_batch);
        // Disconnects catch dead sockets; the detector catches channel
        // peers (which vanish silently) and hung-but-connected workers
        // whose kernel still answers keepalives.
        if let Some(detector) = detector.as_mut() {
            detector.sweep(now, &mut controller);
            drain_groups(&mut controller, &mut link);
        }
        // Fleet below P: stragglers keep making progress alone.
        for (worker, iteration) in controller.release_below_quorum() {
            let assignment = GroupAssignment {
                group: vec![worker],
                weights: crate::weights::singleton_weights().into_vec(),
                base_tag: 0,
                new_iteration: iteration,
            };
            // A failed singleton send means this peer just died; its
            // Disconnected event or the detector will evict it.
            let _ = link.send_assignment(worker, assignment);
        }
    }
    controller.close()
}

/// Ingests a batch of ready signals and forms every fillable group.
fn ingest_and_drain<C: ControlPlane>(
    controller: &mut Controller,
    link: &mut C,
    batch: &mut Vec<(usize, u64)>,
) {
    if batch.is_empty() {
        return;
    }
    let accepted = controller.ingest_ready(batch);
    batch.clear();
    if accepted > 0 {
        drain_groups(controller, link);
    }
}

/// Forms and announces groups until the queue cannot fill another one
/// (below quorum, at once). A failed announce (a member's peer just died)
/// ends this drain; the eviction that follows re-runs it.
fn drain_groups<C: ControlPlane>(controller: &mut Controller, link: &mut C) {
    while let Some(d) = controller.try_form_group() {
        let assignment = GroupAssignment {
            group: d.group,
            weights: d.weights.into_vec(),
            base_tag: d.sequence.wrapping_mul(TAG_STRIDE),
            new_iteration: d.new_iteration,
        };
        if link.announce(&assignment).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::AggregationMode;
    use crate::invariants::CheckingSink;
    use preduce_comm::reactor::{accept_fleet, ReactorConfig};
    use preduce_comm::tcp::{bind_controller, RetryPolicy, TcpWorkerLink};
    use std::sync::atomic::AtomicUsize;

    /// How a test mints a running fleet: [`spawn`] or
    /// [`spawn_process_style`].
    type Spawner = fn(ControllerConfig, RuntimeOptions) -> (ControllerHandle, Vec<PartialReducer>);

    /// The multi-process bring-up (`accept_fleet` handshake, then
    /// [`serve_fleet`] called directly on a bare `TcpControllerLink`)
    /// inside one process, with in-process data-plane endpoints.
    fn spawn_process_style(
        config: ControllerConfig,
        opts: RuntimeOptions,
    ) -> (ControllerHandle, Vec<PartialReducer>) {
        let n = config.num_workers;
        let (listener, addr) = bind_controller("127.0.0.1:0");
        let dials: Vec<_> = (0..n)
            .map(|rank| {
                thread::spawn(move || {
                    let data_addr = format!("inproc-{rank}");
                    TcpWorkerLink::connect_fleet(addr, rank, data_addr, RetryPolicy::default())
                        .unwrap()
                })
            })
            .collect();
        let reactor = ReactorConfig {
            heartbeat: opts.liveness.map(|policy| policy.beat_period()),
            ..ReactorConfig::default()
        };
        let (ctl_link, members) = accept_fleet(&listener, n, reactor).unwrap();
        let joined: Vec<(usize, String)> =
            members.into_iter().map(|m| (m.rank, m.peer_addr)).collect();
        let sink = opts.sink.clone();
        let join = thread::spawn(move || serve_fleet(config, ctl_link, &joined, opts));
        let reducers = dials
            .into_iter()
            .zip(CommWorld::new(n).into_endpoints())
            .map(|(dial, endpoint)| {
                let (link, roster) = dial.join().unwrap();
                let (link, endpoint) = (Box::new(link), Box::new(endpoint));
                PartialReducer::from_parts(link, endpoint, sink.clone(), roster.heartbeat)
            })
            .collect();
        (ControllerHandle { join }, reducers)
    }

    /// Runs the scripted fleet on already-minted reducers: worker `rank`
    /// starts with params = rank everywhere, and each of its `iters`
    /// iterations staggers by rank (so groups mix stale and fresh
    /// members), adds 1 to every parameter, and reduces, then applies the
    /// controller's fast-forward rule, `adopt_group_max`. Returns the
    /// final params per worker.
    fn drive_fleet(
        handle: ControllerHandle,
        reducers: Vec<PartialReducer>,
        iters: usize,
        dim: usize,
        adopt_group_max: bool,
    ) -> (Vec<Vec<f32>>, ControllerStats) {
        let threads: Vec<_> = reducers
            .into_iter()
            .enumerate()
            .map(|(rank, mut r)| {
                thread::spawn(move || {
                    let mut params = vec![rank as f32; dim];
                    let mut iteration = 0u64;
                    for _ in 0..iters {
                        thread::sleep(Duration::from_micros(50 * rank as u64));
                        for v in &mut params {
                            *v += 1.0;
                        }
                        iteration += 1;
                        let out = r.reduce(&mut params, iteration).unwrap();
                        if adopt_group_max {
                            iteration = out.new_iteration;
                        }
                    }
                    r.finish().unwrap();
                    params
                })
            })
            .collect();
        let results: Vec<Vec<f32>> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let stats = handle.join();
        (results, stats)
    }

    fn run_fleet(
        config: ControllerConfig,
        iters: usize,
        dim: usize,
        spawner: Spawner,
    ) -> (Vec<Vec<f32>>, ControllerStats) {
        let adopt = config.mode.adopts_group_max();
        let (handle, reducers) = spawner(config, RuntimeOptions::default());
        drive_fleet(handle, reducers, iters, dim, adopt)
    }

    /// Live-checks the trace and counts handshake narrations.
    #[derive(Default)]
    struct TableSink {
        checker: CheckingSink,
        joins: AtomicUsize,
    }

    impl TraceSink for TableSink {
        fn record(&self, event: TraceEvent) {
            if matches!(event, TraceEvent::ProcessJoined { .. }) {
                self.joins.fetch_add(1, Ordering::Relaxed);
            }
            self.checker.record(event);
        }
    }

    #[test]
    fn one_loop_serves_every_transport() {
        // The same scripted fleet (N=6, P=3, DYN) through each way of
        // reaching `serve_fleet`. Every reduce is answered by exactly one
        // assignment — a group of P or a drain singleton — so the
        // accounting P·groups + singletons = N·iters must agree across
        // transports; `joined` is only non-empty on the process path.
        const ITERS: usize = 12;
        let table: [(&str, Spawner, usize); 2] = [
            ("spawn", spawn, 0),
            ("accept_fleet + serve_fleet", spawn_process_style, 6),
        ];
        for (name, spawner, expect_joins) in table {
            let sink = Arc::new(TableSink::default());
            let opts = RuntimeOptions {
                sink: sink.clone(),
                ..RuntimeOptions::default()
            };
            let (handle, reducers) = spawner(ControllerConfig::dynamic(6, 3), opts);
            let (_, stats) = drive_fleet(handle, reducers, ITERS, 4, true);
            assert!(stats.groups_formed > 0, "{name}: {stats:?}");
            assert_eq!(
                3 * stats.groups_formed + stats.singletons,
                6 * ITERS as u64,
                "{name}: {stats:?}"
            );
            assert_eq!(stats.evictions, 0, "{name}: {stats:?}");
            let sink = Arc::try_unwrap(sink)
                .unwrap_or_else(|_| panic!("{name}: a fleet handle outlived the run"));
            assert_eq!(sink.joins.into_inner(), expect_joins, "{name}");
            let report = sink.checker.take_report();
            assert!(report.is_clean(), "{name}: {report}");
            assert_eq!(report.groups, stats.groups_formed, "{name}");
        }
    }

    #[test]
    fn run_started_is_narrated_before_the_constructor_returns() {
        // Workers narrate to the same sink from their own threads (a
        // cadence-1 snapshot, an injected fault) as soon as they hold a
        // reducer, and the checker wants `RunStarted` first — so it must
        // be in the sink before any reducer is handed out, not whenever
        // the controller thread gets scheduled.
        let sink = Arc::new(crate::trace::RingSink::new(64));
        let opts = RuntimeOptions {
            sink: sink.clone(),
            ..RuntimeOptions::default()
        };
        let (handle, reducers) = spawn(ControllerConfig::constant(2, 2), opts);
        let first = sink.snapshot().into_iter().next();
        assert!(
            matches!(first, Some(TraceEvent::RunStarted { .. })),
            "first event {first:?}"
        );
        for mut r in reducers {
            r.finish().unwrap();
        }
        handle.join();
    }

    #[test]
    fn out_of_range_rank_on_the_channel_path_is_dropped() {
        // One link more than the controller is configured for: rank N is
        // a malformed peer. Its signals must neither panic the loop, nor
        // join a group, nor count as a departure.
        let n = 4;
        let (ctl_link, mut worker_links) = control_links(n + 1);
        let mut rogue = worker_links.pop().unwrap();
        assert_eq!(rogue.rank(), n);
        let sink = Arc::new(TableSink::default());
        let opts = RuntimeOptions {
            sink: sink.clone(),
            ..RuntimeOptions::default()
        };
        let cfg = ControllerConfig::constant(n, 2);
        let (handle, reducers) = launch(cfg, opts, ctl_link, worker_links);
        rogue.send_ready(7).unwrap();
        rogue.send_leaving().unwrap();
        rogue.send_ready(8).unwrap();
        let (results, stats) = drive_fleet(handle, reducers, 10, 3, false);
        // Pairwise averaging conserves the fleet mean — (0+1+2+3)/4 = 1.5
        // plus 10 increments — only if no group ever included a phantom.
        let mean: f32 = results.iter().map(|r| r[0]).sum::<f32>() / n as f32;
        assert!((mean - 11.5).abs() < 1e-3, "fleet mean drifted: {mean}");
        assert_eq!(2 * stats.groups_formed + stats.singletons, 10 * n as u64);
        assert_eq!(stats.evictions, 0, "stats: {stats:?}");
        drop(rogue);
        let sink = Arc::try_unwrap(sink).unwrap_or_else(|_| panic!("sink still shared"));
        let report = sink.checker.take_report();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn a_duplicate_signal_below_quorum_gets_one_singleton() {
        // Workers 0 and 1 leave, so the fleet is below P = 2, then worker 2
        // signals iteration 1 twice — all of it in the loop's first batch.
        // The controller queues the first signal and skips the second, as
        // it skips a re-signal above quorum: one singleton answers it.
        let (ctl_link, mut links) = control_links(3);
        let mut w2 = links.pop().unwrap();
        for link in &mut links {
            link.send_leaving().unwrap();
        }
        w2.send_ready(1).unwrap();
        w2.send_ready(1).unwrap();
        let sink = Arc::new(TableSink::default());
        let opts = RuntimeOptions {
            sink: sink.clone(),
            ..RuntimeOptions::default()
        };
        let cfg = ControllerConfig::constant(3, 2);
        let server = thread::spawn(move || serve_fleet(cfg, ctl_link, &[], opts));
        let singleton = w2.recv_assignment(ASSIGNMENT_TIMEOUT).unwrap();
        assert_eq!((singleton.group, singleton.new_iteration), (vec![2], 1));
        let second = w2.recv_assignment(Duration::from_millis(200));
        assert!(second.is_err(), "a second singleton: {second:?}");
        w2.send_leaving().unwrap();
        let stats = server.join().unwrap();
        assert_eq!(stats.singletons, 1, "stats: {stats:?}");
        let sink = Arc::try_unwrap(sink).unwrap_or_else(|_| panic!("sink still shared"));
        let report = sink.checker.take_report();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn full_group_reduce_is_allreduce_on_both_transports() {
        // P = N: every reduce averages everyone, so all params equal the
        // global mean trajectory — over channels and over the TCP message
        // queue alike.
        for spawner in [spawn as Spawner, spawn_process_style] {
            let cfg = ControllerConfig::constant(4, 4);
            let (results, stats) = run_fleet(cfg, 3, 5, spawner);
            // After iter 1: params_i = i + 1 → mean = 2.5. After each later
            // iter everyone stays equal: +1 then average = same.
            for r in &results {
                for v in r {
                    assert!((v - 4.5).abs() < 1e-5, "{results:?}");
                }
            }
            assert_eq!(stats.groups_formed, 3);
        }
    }

    #[test]
    fn partial_groups_mix_models_toward_consensus() {
        let cfg = ControllerConfig::constant(6, 2);
        let (results, stats) = run_fleet(cfg, 50, 3, spawn);
        // Pairwise averaging preserves the fleet *mean* exactly: initial
        // mean (0+..+5)/6 = 2.5, plus 50 increments per worker = 52.5.
        // (Individual workers can deviate: they average at different
        // progress points, so a racer ends high and a laggard's partner
        // ends low.)
        let mean: f32 = results.iter().map(|r| r[0]).sum::<f32>() / 6.0;
        assert!((mean - 52.5).abs() < 1e-3, "fleet mean drifted: {mean}");
        // Sanity band: every worker made substantial progress (≫ its own
        // initial value) without running away (≪ initial + all increments
        // it could possibly absorb). Tight pointwise bounds don't exist —
        // averaging mixes values captured at different progress points.
        for r in &results {
            for v in r {
                assert!((20.0..=80.0).contains(v), "out of range: {v}");
            }
        }
        assert!(stats.groups_formed > 0);
        // The run ends with drain singletons for the last workers.
        assert!(stats.singletons <= 50 * 6);
    }

    #[test]
    fn dynamic_mode_runs_and_fast_forwards() {
        // α = 0.3 so the fresh member's weight (1 − α = 0.7) dominates
        // visibly (with α = 0.5 a fresh/stale pair weighs exactly 0.5/0.5
        // under the conservative gap policy).
        let cfg = ControllerConfig {
            num_workers: 3,
            group_size: 2,
            mode: AggregationMode::Dynamic {
                alpha: 0.3,
                gap_policy: crate::weights::GapPolicy::Initial,
            },
            history_window: None,
            frozen_avoidance: true,
        };
        let (handle, mut reducers) = spawn(cfg, RuntimeOptions::default());
        let r2 = reducers.pop().unwrap();
        let r1 = reducers.pop().unwrap();
        let r0 = reducers.pop().unwrap();

        let t1 = thread::spawn(move || {
            let mut r = r0;
            let mut params = vec![0.0f32; 4];
            // Report a high iteration count.
            let out = r.reduce(&mut params, 100).unwrap();
            r.finish().unwrap();
            out
        });
        let t2 = thread::spawn(move || {
            let mut r = r1;
            let mut params = vec![10.0f32; 4];
            let out = r.reduce(&mut params, 1).unwrap();
            r.finish().unwrap();
            (out, params)
        });
        let t3 = thread::spawn(move || {
            let mut r = r2;
            // Third worker never reduces; it just leaves so the controller
            // can shut down.
            r.finish().unwrap();
        });

        let out1 = t1.join().unwrap();
        let (out2, params2) = t2.join().unwrap();
        t3.join().unwrap();
        handle.join();

        // Both members fast-forward to iteration 100.
        assert_eq!(out1.new_iteration, 100);
        assert_eq!(out2.new_iteration, 100);
        // The stale worker (iteration 1) got down-weighted: the average
        // lies closer to worker 0's value (0) than the midpoint 5.
        assert!(params2[0] < 5.0, "stale model overweighted: {params2:?}");
    }

    #[test]
    fn drain_singletons_prevent_deadlock() {
        // Worker 0 runs many more iterations than the other; once worker 1
        // leaves, worker 0 must keep making progress alone.
        let cfg = ControllerConfig::constant(2, 2);
        let (handle, mut reducers) = spawn(cfg, RuntimeOptions::default());
        let r1 = reducers.pop().unwrap();
        let r0 = reducers.pop().unwrap();

        let t0 = thread::spawn(move || {
            let mut r = r0;
            let mut params = vec![0.0f32; 2];
            for i in 1..=10 {
                r.reduce(&mut params, i).unwrap();
            }
            r.finish().unwrap();
        });
        let t1 = thread::spawn(move || {
            let mut r = r1;
            let mut params = vec![1.0f32; 2];
            r.reduce(&mut params, 1).unwrap();
            r.finish().unwrap();
        });
        t0.join().unwrap();
        t1.join().unwrap();
        let stats = handle.join();
        assert!(stats.singletons >= 9, "stats: {stats:?}");
    }

    #[test]
    fn tcp_partial_groups_run_concurrently() {
        let cfg = ControllerConfig::constant(6, 2);
        let (results, stats) = run_fleet(cfg, 20, 3, spawn_process_style);
        // Mean conservation, as in the channel-transport test.
        let mean: f32 = results.iter().map(|r| r[0]).sum::<f32>() / 6.0;
        assert!((mean - 22.5).abs() < 1e-3, "fleet mean drifted: {mean}");
        assert!(stats.groups_formed > 0);
    }

    #[test]
    fn traced_fleet_satisfies_invariants() {
        use crate::invariants::InvariantChecker;
        use crate::trace::{RingSink, TraceEvent};

        let sink = Arc::new(RingSink::new(65536));
        let cfg = ControllerConfig::constant(6, 2);
        let opts = RuntimeOptions {
            sink: sink.clone(),
            ..RuntimeOptions::default()
        };
        let (handle, reducers) = spawn(cfg, opts);
        let (_, stats) = drive_fleet(handle, reducers, 20, 4, false);
        assert_eq!(sink.dropped(), 0, "ring overflowed; raise capacity");

        let events = sink.snapshot();
        // The full vocabulary shows up: controller decisions, transport
        // deliveries, worker completions, closing counters.
        assert!(matches!(events[0], TraceEvent::RunStarted { .. }));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::AssignmentSent { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::ReduceCompleted { .. })));
        assert!(matches!(
            events.last(),
            Some(TraceEvent::RunFinished { .. })
        ));

        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.groups, stats.groups_formed);
    }

    #[test]
    fn liveness_evicts_silent_worker_and_run_completes() {
        use crate::invariants::InvariantChecker;
        use crate::trace::RingSink;

        let sink = Arc::new(RingSink::new(65536));
        let cfg = ControllerConfig::constant(3, 2);
        let (handle, mut reducers) = spawn(
            cfg,
            RuntimeOptions {
                sink: sink.clone(),
                liveness: Some(LivenessPolicy::new(Duration::from_millis(50), 6)),
            },
        );
        let r2 = reducers.pop().unwrap();
        let r1 = reducers.pop().unwrap();
        let r0 = reducers.pop().unwrap();

        let crasher = thread::spawn(move || {
            let mut r = r2;
            let mut params = vec![2.0f32; 4];
            r.reduce(&mut params, 1).unwrap();
            // Fail-stop at the iteration boundary: no Leaving signal.
            r.crash();
        });
        let survivors: Vec<_> = [r0, r1]
            .into_iter()
            .enumerate()
            .map(|(rank, mut r)| {
                thread::spawn(move || {
                    let mut params = vec![rank as f32; 4];
                    // A CON member keeps its own count.
                    for iteration in 1..=30 {
                        thread::sleep(Duration::from_millis(5));
                        r.reduce(&mut params, iteration).unwrap();
                    }
                    r.finish().unwrap();
                })
            })
            .collect();

        crasher.join().unwrap();
        for t in survivors {
            t.join().unwrap();
        }
        let stats = handle.join();
        assert_eq!(stats.evictions, 1, "stats: {stats:?}");
        assert!(stats.groups_formed > 0);

        let events = sink.snapshot();
        let evicted_pos = events
            .iter()
            .position(|e| matches!(e, TraceEvent::WorkerEvicted { worker: 2, .. }))
            .expect("eviction traced");
        let misses: Vec<u64> = events[..evicted_pos]
            .iter()
            .filter_map(|e| match e {
                TraceEvent::HeartbeatMissed { worker: 2, misses } => Some(*misses),
                _ => None,
            })
            .collect();
        let last_silence = misses.iter().rposition(|&m| m == 1).expect("misses traced");
        assert_eq!(
            misses[last_silence..],
            [1, 2, 3, 4, 5, 6],
            "one miss per window"
        );
        assert!(
            matches!(
                events.get(evicted_pos + 1),
                Some(TraceEvent::WorkerLeft { worker: 2, .. })
            ),
            "eviction routes through the departure path: {:?}",
            events.get(evicted_pos + 1)
        );
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn tcp_liveness_flushes_stranded_signal_after_eviction() {
        // Worker 1 dies before ever signaling ready; worker 0's queued
        // signal can never form a pair. Eviction must shrink the fleet
        // below P and flush worker 0 as a singleton instead of leaving
        // it blocked.
        let cfg = ControllerConfig::constant(2, 2);
        let (handle, mut reducers) = spawn_process_style(
            cfg,
            RuntimeOptions {
                sink: Arc::new(NullSink),
                liveness: Some(LivenessPolicy::new(Duration::from_millis(50), 6)),
            },
        );
        let r1 = reducers.pop().unwrap();
        let mut r0 = reducers.pop().unwrap();

        // Fail-stop before the first signal: no Ready, no Leaving, and no
        // heartbeats ever arrive from rank 1. Only the failure detector can
        // notice this worker is gone.
        r1.crash();

        let mut params = vec![1.0f32; 3];
        let out = r0.reduce(&mut params, 1).unwrap();
        assert_eq!(out.group, vec![0], "flushed as a singleton");
        r0.finish().unwrap();
        let stats = handle.join();
        assert_eq!(stats.evictions, 1, "stats: {stats:?}");
        assert_eq!(stats.singletons, 1, "stats: {stats:?}");
    }

    #[test]
    fn spawn_beats_for_a_watched_fleet_before_the_first_reduce() {
        // Both workers idle for 4× the eviction budget before their first
        // reduce and nobody starts a heartbeat: the policy alone makes
        // `spawn`'s reducers beat, so neither is evicted.
        let sink = Arc::new(crate::trace::RingSink::new(4096));
        let policy = LivenessPolicy::new(Duration::from_millis(25), 8);
        let (handle, mut reducers) = spawn(
            ControllerConfig::constant(2, 2),
            RuntimeOptions {
                sink: sink.clone(),
                liveness: Some(policy),
            },
        );
        thread::sleep(4 * policy.eviction_after());
        let evicted = sink
            .snapshot()
            .into_iter()
            .find(|e| matches!(e, TraceEvent::WorkerEvicted { .. }));
        assert_eq!(evicted, None, "an idle but beating worker was evicted");
        let mut r1 = reducers.pop().unwrap();
        let mut r0 = reducers.pop().unwrap();
        let peer = thread::spawn(move || {
            let out = r1.reduce(&mut [1.0], 1).unwrap();
            r1.finish().unwrap();
            out
        });
        let out = r0.reduce(&mut [0.0], 1).unwrap();
        r0.finish().unwrap();
        assert_eq!(out.group.len(), 2, "{out:?}");
        assert_eq!(peer.join().unwrap(), out);
        let stats = handle.join();
        assert_eq!((stats.groups_formed, stats.evictions), (1, 0), "{stats:?}");
    }

    #[test]
    #[should_panic(expected = "at least 1 ms")]
    fn a_liveness_window_under_a_millisecond_is_refused() {
        let _ = LivenessPolicy::new(Duration::from_micros(999), 5);
    }

    #[test]
    fn reduce_after_finish_panics() {
        let cfg = ControllerConfig::constant(2, 2);
        let (handle, mut reducers) = spawn(cfg, RuntimeOptions::default());
        let mut r1 = reducers.pop().unwrap();
        let mut r0 = reducers.pop().unwrap();
        r0.finish().unwrap();
        r1.finish().unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = r0.reduce(&mut [0.0], 1);
        }));
        assert!(result.is_err());
        handle.join();
    }
}
