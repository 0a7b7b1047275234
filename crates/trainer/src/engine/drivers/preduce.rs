//! The partial-reduce drivers: Algorithm 2 under virtual time (reusing
//! the transport-independent [`partial_reduce::Controller`]) and on real
//! threads (the controller thread from [`partial_reduce::runtime`]).

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use partial_reduce::runtime::{spawn, LivenessPolicy, RuntimeOptions};
use partial_reduce::{
    AggregationMode, Controller, ControllerConfig, NullSink, TraceEvent, TraceSink, WeightRow,
};
use preduce_simnet::{EventQueue, FaultPlan, SimTime};
use preduce_tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};

use crate::elastic::{restore_worker, ElasticOptions};
use crate::engine::controller_stats;
use crate::engine::round::{WorkerRounds, WorkerStep};
use crate::engine::setup::{build_fleet, evaluate_uniform_average, worker_thread_seed};
use crate::engine::substrate::{must, ThreadedReport, ThreadedSubstrate};
use crate::metrics::RunResult;
use crate::replay::params_hash;
use crate::sim::SimHarness;
use crate::worker::weighted_model_average;

/// Event payloads for the P-Reduce event loop.
enum Event {
    /// A worker finished its local update and signals ready.
    Ready(usize),
    /// A partial-reduce group's collective completed.
    GroupDone {
        group: Vec<usize>,
        weights: WeightRow,
        new_iteration: u64,
    },
}

/// Runs partial reduce with the given controller configuration, untraced
/// and fault-free — the entry for callers that sweep a hand-built
/// [`ControllerConfig`] (ablations) rather than a catalog `Strategy`.
///
/// One *update* is one partial-reduce group operation (§3.1.2 counts each
/// partial reduce as one iteration), matching the paper's Table 1 metric.
///
/// # Panics
/// Panics if the controller config disagrees with the harness size.
pub fn run_preduce(h: SimHarness, cfg: ControllerConfig) -> RunResult {
    run_preduce_elastic(
        h,
        cfg,
        Arc::new(NullSink),
        FaultPlan::none(),
        ElasticOptions::none(),
    )
}

/// The virtual-time P-Reduce event loop. The run is narrated to `sink` in
/// the threaded runtime's vocabulary, one [`TraceEvent::ReduceCompleted`]
/// per member when a group's virtual collective lands, so the invariant
/// checker replays either harness identically.
///
/// Each worker's step (`engine::round`), the one every substrate runs,
/// applies the [`FaultPlan`] (DESIGN.md §11), the snapshot cadence (§14)
/// and the mode's fast-forward rule; this loop schedules virtual time
/// around it.
/// A stall multiplies the sampled compute time, a signal delay is added
/// to every ready signal, a late join postpones the first update. A crash
/// is detected at once: the controller evicts the worker
/// ([`Controller::evict`]) through the ordinary departure path. The
/// controller also closes the run ([`Controller::close`]).
/// `restore:W@U` re-admits a *departed* worker from its snapshot once the
/// run has recorded `U` updates; a verb whose worker never departs stays
/// pending. [`ElasticOptions`] add a warm start, loaded before anything
/// is scheduled or narrated. The empty plan and inert options leave the
/// run bit-for-bit unchanged.
///
/// # Panics
/// Panics if the controller config disagrees with the harness size, or
/// if the elasticity options name a missing/corrupt checkpoint (a
/// configuration error).
pub fn run_preduce_elastic(
    mut h: SimHarness,
    cfg: ControllerConfig,
    sink: Arc<dyn TraceSink>,
    faults: FaultPlan,
    elastic: ElasticOptions,
) -> RunResult {
    assert_eq!(
        cfg.num_workers,
        h.num_workers(),
        "controller config sized for a different fleet"
    );
    let p = cfg.group_size;
    let label = match cfg.mode {
        AggregationMode::Constant => format!("P-Reduce CON (P={p})"),
        AggregationMode::Dynamic { .. } => format!("P-Reduce DYN (P={p})"),
    };
    for w in &mut h.workers {
        elastic.warm_start(w);
    }
    // `restore:W@U` verbs, sorted by rank; each fires at most once.
    let mut pending_restores: Vec<(usize, u64)> = faults
        .restore_targets()
        .filter_map(|w| faults.restore_at(w).map(|at| (w, at)))
        .collect();
    pending_restores.sort_unstable();
    let restore_store = elastic.open_restore_store();
    assert!(
        pending_restores.is_empty() || restore_store.is_some(),
        "fault plan contains `restore:` but no checkpoint directory is \
         configured (set a snapshot policy or restore_from)"
    );

    let adopt = cfg.mode.adopts_group_max();
    let mut controller = Controller::with_sink(cfg, sink.clone());
    let mut steps: Vec<WorkerStep> = h
        .workers
        .iter()
        .map(|w| WorkerStep::begin(w, &faults, &elastic, sink.clone(), adopt))
        .collect();
    let signal = h.network.signal_time();

    let mut queue: EventQueue<Event> = EventQueue::new();
    // `last_free[w]`: when worker w last became free to compute (for the
    // per-update duration sample).
    let mut last_free = vec![SimTime::ZERO; h.num_workers()];
    let mut nonuniform_groups = 0u64;

    for (w, step) in steps.iter().enumerate() {
        let ct = h.compute_time(w, SimTime::ZERO) * step.stall_factor(&h.workers[w]);
        queue.schedule(
            SimTime::new(step.start_delay() + ct + step.signal_delay()),
            Event::Ready(w),
        );
    }

    let mut now = SimTime::ZERO;
    while let Some((t, ev)) = queue.pop() {
        now = t;
        match ev {
            Event::Ready(w) => {
                // Lines 2–4 of Algorithm 2: the local update completes as
                // the worker becomes ready.
                if let Some(iteration) = steps[w].update(&mut h.workers[w], &mut h.rng) {
                    controller.push_ready(w, iteration);
                } else {
                    // The crash's signal is never sent, and in virtual time
                    // the death is detected at once. A departure can
                    // unblock a frozen-avoidance deferral, so group
                    // formation still runs below.
                    controller.evict(w);
                }
                // The ready signal and group notification each cost one
                // network latency; then the group collective runs.
                while let Some(d) = controller.try_form_group() {
                    let w0 = d.weights[0];
                    if d.weights.iter().any(|&w| (w - w0).abs() > 1e-6) {
                        nonuniform_groups += 1;
                    }
                    // Link-aware: the group's ring runs at its slowest
                    // member's link speed.
                    let group_comm = h.group_ring_time(&d.group);
                    queue.schedule(
                        t + 2.0 * signal + group_comm,
                        Event::GroupDone {
                            group: d.group,
                            weights: d.weights,
                            new_iteration: d.new_iteration,
                        },
                    );
                }
            }
            Event::GroupDone {
                group,
                weights,
                new_iteration,
            } => {
                // Weighted model average among exactly the group (line 7).
                let avg = {
                    let models: Vec<&Tensor> =
                        group.iter().map(|&m| &h.workers[m].params).collect();
                    weighted_model_average(&models, &weights)
                };
                let mut dur_sum = 0.0;
                for &m in &group {
                    h.workers[m].set_params(&avg);
                    steps[m].reduced(&mut h.workers[m], new_iteration);
                    if controller.sink().enabled() {
                        controller.sink().record(TraceEvent::ReduceCompleted {
                            worker: m,
                            members: group.clone(),
                            new_iteration,
                        });
                    }
                    dur_sum += t - last_free[m];
                }
                let dur = dur_sum / group.len() as f64;
                if h.record_update(t, dur) {
                    break;
                }
                // `restore:W@U` verbs due at this update count re-admit
                // their departed workers from durable state. They and the
                // members start their next local update at once.
                let mut restored = Vec::new();
                if let Some(store) = &restore_store {
                    let updates = h.updates();
                    pending_restores.retain(|&(w, at)| {
                        let due = updates >= at && steps[w].crashed();
                        if due {
                            let snap = must("load worker snapshot", store.load_worker(w));
                            must("restore worker", restore_worker(&mut h.workers[w], snap));
                            controller.mark_restored(w, h.workers[w].iteration);
                            restored.push(w);
                        }
                        !due
                    });
                }
                for m in restored.into_iter().chain(group) {
                    last_free[m] = t;
                    let ct = h.compute_time(m, t) * steps[m].stall_factor(&h.workers[m]);
                    queue.schedule(t + ct + steps[m].signal_delay(), Event::Ready(m));
                }
            }
        }
    }
    let mut stats = controller_stats(&controller.close());
    stats.insert("nonuniform_groups".into(), nonuniform_groups as f64);
    h.finish_with_stats(label, now, stats)
}

// ---------------------------------------------------------------------------
// Threaded projection
// ---------------------------------------------------------------------------

/// Liveness policy for chaos runs: a worker silent for ~200 ms is dead.
/// Generous against scheduler jitter (each worker's heartbeat thread beats
/// every [`LivenessPolicy::beat_period`], 12.5 ms) yet quick enough for
/// tests and benches.
pub fn chaos_liveness() -> LivenessPolicy {
    LivenessPolicy::new(Duration::from_millis(25), 8)
}

/// Threaded partial reduce: every worker runs its iteration budget
/// through the one real-time worker loop (`engine::round`) against the
/// real controller thread, under the process worker's error policy — a
/// failed reduce is a degraded round, reported per rank, not a panic; the
/// drain protocol issues singleton assignments at shutdown so no worker
/// hangs. The report's `wall_seconds` runs from just before the first
/// worker thread spawns to just after the last join; the controller
/// spawn and join, the uniform-average evaluation and the parameter
/// hashes stay outside it.
///
/// When the substrate carries a [`FaultPlan`], the controller is spawned
/// with the chaos [`LivenessPolicy`], so `spawn` hands out reducers that
/// already beat, and the plan is applied for real: a crashed worker drops
/// its handle without a `Leaving` signal (the controller must notice via
/// heartbeat silence), stalls and signal delays become sleeps, and a late
/// joiner starts its loop late (beating from spawn so it is not misjudged
/// as dead).
///
/// # Panics
/// Panics if the controller config disagrees with the fleet size, if the
/// plan contains a `restore:` verb (simulator-only), or if a worker
/// thread or the controller panics.
pub(crate) fn threaded_preduce(
    sub: &ThreadedSubstrate,
    controller: ControllerConfig,
) -> ThreadedReport {
    let config = &sub.config;
    assert_eq!(
        controller.num_workers, config.num_workers,
        "controller config sized for a different fleet"
    );
    // Threads are not resurrected mid-run: the `restore:` verb is honored
    // by the simulator only, and dropping it would crash the worker for good.
    assert!(
        sub.faults.restore_targets().next().is_none(),
        "fault plan contains `restore:`, which only the simulator executes"
    );
    let mut fleet = build_fleet(config);
    for w in &mut fleet.workers {
        sub.elastic.warm_start(w);
    }
    let chaos = !sub.faults.is_empty();
    let adopt = controller.mode.adopts_group_max();
    let (handle, reducers) = spawn(
        controller,
        RuntimeOptions {
            sink: sub.sink.clone(),
            liveness: chaos.then(chaos_liveness),
        },
    );

    let start = Instant::now();
    let threads: Vec<_> = fleet
        .workers
        .into_iter()
        .zip(reducers)
        .map(|(mut w, r)| {
            let iters = sub.iters;
            let delay = sub.delays.get(w.rank).copied().unwrap_or(Duration::ZERO);
            let mut rng = StdRng::seed_from_u64(worker_thread_seed(config.seed, w.rank));
            let faults = sub.faults.clone();
            let elastic = sub.elastic.clone();
            let sink = sub.sink.clone();
            thread::spawn(move || {
                let rounds = WorkerRounds::begin(&w, &faults, delay, &elastic, sink, adopt);
                let degraded = rounds.run_for(&mut w, &mut rng, r, iters);
                (w.params, (w.iteration, degraded))
            })
        })
        .collect();
    let (params, (iterations, degraded)): (Vec<Tensor>, (Vec<u64>, Vec<u64>)) = threads
        .into_iter()
        .map(|t| match t.join() {
            Ok(v) => v,
            // Re-raise the worker's own panic so its message and backtrace
            // survive instead of a generic join error.
            Err(payload) => std::panic::resume_unwind(payload),
        })
        .unzip();
    let wall_seconds = start.elapsed().as_secs_f64();
    ThreadedReport {
        wall_seconds,
        accuracy: evaluate_uniform_average(config, &fleet.test, &params),
        iterations,
        degraded,
        params_hashes: params.iter().map(|p| params_hash(p.as_slice())).collect(),
        controller: Some(handle.join()),
    }
}
