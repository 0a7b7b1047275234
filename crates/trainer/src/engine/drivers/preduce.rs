//! The partial-reduce drivers: Algorithm 2 under virtual time (reusing
//! the transport-independent [`partial_reduce::Controller`]) and on real
//! threads (the controller thread from [`partial_reduce::runtime`]).

use std::sync::Arc;
use std::time::Duration;

use partial_reduce::runtime::{spawn, LivenessPolicy, RuntimeOptions};
use partial_reduce::{
    AggregationMode, Controller, ControllerConfig, NullSink, TraceEvent, TraceSink, WeightRow,
};
use preduce_simnet::{EventQueue, FaultKind, FaultPlan, SimTime};
use preduce_tensor::Tensor;

use crate::elastic::{restore_worker, ElasticOptions, SnapshotWriter};
use crate::engine::round::{Round, WorkerRounds};
use crate::engine::setup::build_fleet;
use crate::engine::substrate::{must, ThreadedReport, ThreadedSubstrate};
use crate::metrics::RunResult;
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
/// the same event vocabulary as the threaded runtime — the simulator
/// emits one [`TraceEvent::ReduceCompleted`] per member when a group's
/// virtual collective lands, so the invariant checker replays either
/// harness identically.
///
/// The [`FaultPlan`] (DESIGN.md §11) is applied deterministically in
/// virtual time:
///
/// * **Crash** fires at the doomed worker's iteration boundary: the
///   worker is evicted ([`TraceEvent::WorkerEvicted`], justified by the
///   preceding [`TraceEvent::FaultInjected`]) and routed through the
///   ordinary departure path, so queued-signal purging and scheduling
///   repair behave exactly as for a voluntary departure.
/// * **Stall** multiplies the worker's compute time from its start
///   iteration on.
/// * **DelaySignals** adds virtual latency to every ready signal.
/// * **LateJoin** postpones the worker's first local update.
///
/// The empty plan is bit-for-bit the fault-free run: every fault accessor
/// degrades to `+ 0.0` / `× 1.0`.
///
/// [`ElasticOptions`] (DESIGN.md §14) add:
///
/// * **Warm start** — `restore_from` loads every worker snapshot found
///   in the directory into the fleet before the run begins (no trace
///   events: those workers never departed in *this* trace).
/// * **Periodic snapshots** — the policy writes a worker snapshot each
///   time a worker's iteration count crosses the cadence (narrated as
///   [`TraceEvent::SnapshotTaken`]), and a controller roster/history
///   snapshot each time the groups-formed count does (`worker: None`).
/// * **Mid-run restore** — the `restore:W@U` fault verb re-admits a
///   *departed* worker from its snapshot once the run has recorded `U`
///   updates: model, momentum, and counters rewind to durable state
///   ([`TraceEvent::WorkerRestored`]) and the worker resumes its own
///   shard, which never moved. A restore verb for a worker that never
///   departs stays pending forever (deliberately: restores are keyed on
///   departure, not wall position).
///
/// Inert options leave the run bit-for-bit unchanged: snapshots never
/// touch the RNG or the event queue, and without a restore verb no
/// scheduling changes.
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
    let dynamic = matches!(cfg.mode, AggregationMode::Dynamic { .. });

    // Elastic glue (DESIGN.md §14): graft durable state onto the fleet
    // before anything is scheduled or narrated, then one snapshot writer
    // per worker and the controller's snapshot hook.
    for w in &mut h.workers {
        elastic.warm_start(w);
    }
    let mut snapshots: Vec<SnapshotWriter> = h
        .workers
        .iter()
        .map(|w| elastic.snapshot_writer(w, sink.clone()))
        .collect();
    let mut on_groups = elastic.controller_hook();
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

    let mut controller = Controller::with_sink(cfg, sink);

    // Persistent perturbations (stall/delay/latejoin) are narrated up
    // front; crashes are narrated at the iteration where they fire, and
    // restores are narrated as WorkerRestored when they land (a restore
    // is recovery, not a fault — narrating it as FaultInjected would
    // wrongly justify a later eviction).
    if controller.sink().enabled() {
        for spec in &faults.faults {
            if matches!(
                spec.kind,
                FaultKind::Crash { .. } | FaultKind::Restore { .. }
            ) {
                continue;
            }
            let iteration = match spec.kind {
                FaultKind::Stall { from_iteration, .. } => from_iteration,
                _ => 0,
            };
            controller.sink().record(TraceEvent::FaultInjected {
                worker: spec.worker,
                fault: spec.kind.label(),
                iteration,
            });
        }
    }

    let signal = h.network.signal_time();

    let mut queue: EventQueue<Event> = EventQueue::new();
    // `last_free[w]`: when worker w last became free to compute (for the
    // per-update duration sample).
    let mut last_free = vec![SimTime::ZERO; h.num_workers()];
    let mut nonuniform_groups = 0u64;
    let mut total_groups = 0u64;
    // A crash fires once per worker: a restored worker must not re-crash
    // when its iteration passes the trigger again.
    let mut crashed = vec![false; h.num_workers()];

    for w in 0..h.num_workers() {
        let ct = h.compute_time(w, SimTime::ZERO) * faults.stall_factor(w, 1);
        queue.schedule(
            SimTime::new(faults.start_delay(w) + ct + faults.signal_delay(w)),
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
                h.workers[w].local_update(&mut h.rng);
                let crash_now = !crashed[w]
                    && faults
                        .crash_at(w)
                        .is_some_and(|at| h.workers[w].iteration >= at);
                if crash_now {
                    crashed[w] = true;
                    // Fail-stop at the iteration boundary: the signal is
                    // never sent, and in virtual time the death is
                    // detected immediately (the threaded substrate pays
                    // real heartbeat silence instead). A departure can
                    // unblock a frozen-avoidance deferral, so group
                    // formation still runs below.
                    if controller.sink().enabled() {
                        controller.sink().record(TraceEvent::FaultInjected {
                            worker: w,
                            fault: FaultKind::Crash {
                                at_iteration: h.workers[w].iteration,
                            }
                            .label(),
                            iteration: h.workers[w].iteration,
                        });
                        controller.sink().record(TraceEvent::WorkerEvicted {
                            worker: w,
                            active: controller.active() - 1,
                        });
                    }
                    controller.mark_left(w);
                } else {
                    snapshots[w].snapshot_if_due(&h.workers[w]);
                    controller.push_ready(w, h.workers[w].iteration);
                }
                // The ready signal and group notification each cost one
                // network latency; then the group collective runs.
                while let Some(d) = controller.try_form_group() {
                    if let Some(hook) = on_groups.as_mut() {
                        hook(&controller);
                    }
                    total_groups += 1;
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
                    if dynamic {
                        // §3.3.3: members adopt the group max iteration.
                        h.workers[m].iteration = new_iteration;
                    }
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
                // their departed workers from durable state. A verb whose
                // worker has not departed yet stays pending.
                if let Some(rstore) = &restore_store {
                    let upd = h.updates();
                    let mut i = 0;
                    while i < pending_restores.len() {
                        let (w, at) = pending_restores[i];
                        if upd < at || !crashed[w] {
                            i += 1;
                            continue;
                        }
                        pending_restores.remove(i);
                        let snap = must("load worker snapshot", rstore.load_worker(w));
                        must("restore worker", restore_worker(&mut h.workers[w], &snap));
                        controller.mark_restored(w, snap.iteration);
                        last_free[w] = t;
                        let ct = h.compute_time(w, t)
                            * faults.stall_factor(w, h.workers[w].iteration + 1);
                        queue.schedule(t + ct + faults.signal_delay(w), Event::Ready(w));
                    }
                }
                // Members immediately start their next iteration (a
                // stalled member computes slower; a laggy control link
                // delays the resulting ready signal).
                for &m in &group {
                    last_free[m] = t;
                    let ct =
                        h.compute_time(m, t) * faults.stall_factor(m, h.workers[m].iteration + 1);
                    queue.schedule(t + ct + faults.signal_delay(m), Event::Ready(m));
                }
            }
        }
    }
    if controller.sink().enabled() {
        controller.sink().record(TraceEvent::RunFinished {
            groups_formed: controller.groups_formed(),
            repairs: controller.repairs(),
            deferrals: controller.deferrals(),
            singletons: 0,
        });
    }
    controller.sink().flush();
    let mut stats = std::collections::BTreeMap::new();
    stats.insert("groups".into(), total_groups as f64);
    stats.insert("nonuniform_groups".into(), nonuniform_groups as f64);
    stats.insert("repairs".into(), controller.repairs() as f64);
    stats.insert("deferrals".into(), controller.deferrals() as f64);
    h.finish_with_stats(label, now, stats)
}

// ---------------------------------------------------------------------------
// Threaded projection
// ---------------------------------------------------------------------------

/// Heartbeat period for chaos runs (fault plan present): well under the
/// eviction budget so healthy workers are never misjudged.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(10);

/// Liveness policy for chaos runs: a worker silent for ~200 ms is dead.
/// Generous against scheduler jitter (heartbeats arrive every 10 ms from
/// a dedicated thread) yet quick enough for tests and benches.
pub fn chaos_liveness() -> LivenessPolicy {
    LivenessPolicy::new(Duration::from_millis(25), 8)
}

/// Threaded partial reduce: every worker runs its iteration budget of
/// local update + `reduce` calls against the real controller thread; the
/// drain protocol issues singleton assignments at shutdown so no worker
/// hangs.
///
/// When the substrate carries a [`FaultPlan`], the controller is spawned
/// with the chaos [`LivenessPolicy`], every worker heartbeats, and the
/// plan is applied for real: a crashed worker drops its handle without a
/// `Leaving` signal (the controller must notice via heartbeat silence),
/// stalls and signal delays become sleeps, and a late joiner starts its
/// loop late (heartbeating from spawn so it is not misjudged as dead).
///
/// # Panics
/// Panics if the controller config disagrees with the fleet size, if the
/// plan contains a `restore:` verb (simulator-only), or if a worker
/// thread or the controller panics.
pub(crate) fn threaded_preduce(
    sub: &ThreadedSubstrate,
    controller: ControllerConfig,
) -> ThreadedReport {
    let config = sub.config();
    assert_eq!(
        controller.num_workers, config.num_workers,
        "controller config sized for a different fleet"
    );
    // Threads are not resurrected mid-run: the `restore:` verb is honored
    // by the simulator only, and dropping it would crash the worker for good.
    assert!(
        sub.faults().restore_targets().next().is_none(),
        "fault plan contains `restore:`, which only the simulator executes"
    );
    let mut fleet = build_fleet(config);
    let elastic = sub.elastic().clone();
    for w in &mut fleet.workers {
        elastic.warm_start(w);
    }
    let chaos = !sub.faults().is_empty();
    let (handle, reducers) = spawn(
        controller,
        RuntimeOptions {
            sink: sub.sink(),
            liveness: chaos.then(chaos_liveness),
            on_groups: elastic.controller_hook(),
        },
    );
    let sink = sub.sink();

    let report = sub.run_spmd(fleet, reducers, move |mut ctx, mut w, mut r| {
        if chaos {
            // Heartbeat from the very start — before any late-join sleep —
            // so a slow or late worker is never misjudged as dead.
            r.start_heartbeat(HEARTBEAT_EVERY);
        }
        let mut rounds = WorkerRounds::begin(&w, ctx.faults, ctx.delay, &elastic, sink.clone());
        for _ in 0..ctx.iters {
            // Fail fast: a failed collective mid-run has no recovery path
            // on this substrate.
            match must("partial reduce", rounds.run(&mut w, &mut ctx.rng, &mut r)) {
                Round::Reduced => {}
                Round::Crashed => {
                    // Fail-stop: no Leaving, no more heartbeats. The handle
                    // drops here; the controller detects the silence.
                    r.crash();
                    return (w.params, w.iteration);
                }
            }
        }
        must("finish", r.finish());
        (w.params, w.iteration)
    });
    ThreadedReport {
        controller: Some(handle.join()),
        ..report
    }
}
