//! The partial-reduce drivers: Algorithm 2 under virtual time (reusing
//! the transport-independent [`partial_reduce::Controller`]) and on real
//! threads (the controller thread from [`partial_reduce::runtime`]).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use partial_reduce::runtime::{spawn, LivenessPolicy, RuntimeOptions};
use partial_reduce::{
    AggregationMode, Controller, ControllerConfig, FailureDetector, NullSink, TraceEvent,
    TraceSink, WeightRow,
};
use preduce_simnet::{EventQueue, FaultPlan, SimTime};
use preduce_tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};

use crate::elastic::ElasticOptions;
use crate::engine::round::{WorkerRounds, WorkerStep};
use crate::engine::setup::{build_fleet, evaluate_uniform_average, worker_thread_seed};
use crate::engine::substrate::{must, ThreadedReport, ThreadedSubstrate};
use crate::engine::{controller_stats, SimError};
use crate::metrics::RunResult;
use crate::replay::params_hash;
use crate::sim::SimHarness;

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
    /// The failure detector's next deadline, exact: virtual time converts
    /// through `f64` seconds, the detector counts whole windows.
    Sweep(Duration),
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
    // No crash, no detector: the run cannot outgrow its clock.
    must(
        "fault-free P-Reduce run",
        run_preduce_elastic(
            h,
            cfg,
            Arc::new(NullSink),
            FaultPlan::none(),
            ElasticOptions::none(),
        ),
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
/// around it. It reads no model value: each local update and group
/// average is recorded with the harness ([`SimHarness::local_update`],
/// [`SimHarness::average`]), which runs them at its read points
/// (DESIGN.md §9).
/// A stall multiplies the sampled compute time, a signal delay is added
/// to every ready signal, a late join postpones the first update. A crash
/// silences the worker, and the run's [`FailureDetector`], fed virtual
/// time under [`chaos_liveness`] as the threaded chaos runs are, evicts
/// it ([`Controller::evict`]) at its K-th missed window: the misses are
/// narrated `1..=K`, as on threads. Every live worker is heard
/// continuously — its beat outlives a stall — so only a crash goes
/// silent, and the loop schedules a sweep at the detector's next deadline
/// only while a crashed worker awaits eviction. The controller also
/// closes the run ([`Controller::close`]). `restore:W@U` re-admits a
/// crashed worker from its snapshot once the run has recorded `U`
/// updates and the worker has been evicted; a verb whose worker never
/// departs stays pending. [`ElasticOptions`] add a warm start, loaded
/// before anything is scheduled or narrated. The empty plan and inert
/// options leave the run bit-for-bit unchanged.
///
/// # Errors
/// [`SimError::DetectorClockOverflow`] when a worker crashes after
/// virtual time has passed what the detector's clock holds: a plan's
/// per-signal delays, each within the clock, add up over the rounds.
///
/// # Panics
/// Panics if the controller config disagrees with the harness size, on a
/// plan [`FaultPlan::check`] refuses, or if the elasticity options name a
/// missing/corrupt checkpoint (a configuration error).
pub fn run_preduce_elastic(
    mut h: SimHarness,
    cfg: ControllerConfig,
    sink: Arc<dyn TraceSink>,
    faults: FaultPlan,
    elastic: ElasticOptions,
) -> Result<RunResult, SimError> {
    let (label, end, stats) = drive(&mut h, cfg, sink, faults, elastic)?;
    Ok(h.finish_with_stats(label, end, stats))
}

/// [`run_preduce_elastic`]'s event loop on a harness it leaves to the
/// caller to finish: the run's label, end time and statistics.
fn drive(
    h: &mut SimHarness,
    cfg: ControllerConfig,
    sink: Arc<dyn TraceSink>,
    faults: FaultPlan,
    elastic: ElasticOptions,
) -> Result<(String, SimTime, BTreeMap<String, f64>), SimError> {
    assert_eq!(
        cfg.num_workers,
        h.num_workers(),
        "controller config sized for a different fleet"
    );
    let planned = faults.check(h.num_workers());
    assert!(planned.is_ok(), "{planned:?}");
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
    let liveness = chaos_liveness();
    let mut detector = FailureDetector::new(liveness, cfg.num_workers);
    let mut controller = Controller::with_liveness(cfg, sink.clone(), Some(liveness));
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
    // Crashed workers the detector has yet to evict; a sweep is pending
    // while this is non-empty.
    let mut silent: Vec<usize> = Vec::new();

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
                // the worker becomes ready; the harness runs its math at
                // the next read point, a due snapshot's among them.
                let iteration = h.local_update(w);
                if let Some(iteration) = steps[w].updated(iteration, || h.worker(w)) {
                    controller.push_ready(w, iteration);
                } else {
                    // The crash's signal is never sent, and its beat
                    // stops: the worker was last heard now.
                    let at = Duration::try_from_secs_f64(t.seconds()).map_err(|_| {
                        SimError::DetectorClockOverflow {
                            seconds: t.seconds(),
                        }
                    })?;
                    detector.heard(w, at);
                    if silent.is_empty() {
                        hear_live(&mut detector, &controller, &silent, at);
                        schedule_sweep(&mut queue, &detector);
                    }
                    silent.push(w);
                }
                nonuniform_groups += form_groups(&mut controller, &mut queue, h, t + 2.0 * signal);
            }
            Event::Sweep(at) => {
                hear_live(&mut detector, &controller, &silent, at);
                detector.sweep(at, &mut controller);
                silent.retain(|&w| !controller.has_left(w));
                if !silent.is_empty() {
                    schedule_sweep(&mut queue, &detector);
                }
                // A departure can unblock a frozen-avoidance deferral.
                nonuniform_groups += form_groups(&mut controller, &mut queue, h, t + 2.0 * signal);
            }
            Event::GroupDone {
                group,
                weights,
                new_iteration,
            } => {
                // Weighted model average among exactly the group (line 7).
                h.average(group.clone(), weights);
                let mut dur_sum = 0.0;
                for &m in &group {
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
                        let due = updates >= at && steps[w].crashed() && controller.has_left(w);
                        if due {
                            let snap = must("load worker snapshot", store.load_worker(w));
                            must("restore worker", h.restore(w, snap));
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
    Ok((label, now, stats))
}

/// Forms every group the queue can fill; each group's collective starts
/// at `start`, after the ready signal and the group notification have
/// each cost one network latency. Returns how many of the groups carry
/// non-uniform weights.
fn form_groups(
    controller: &mut Controller,
    queue: &mut EventQueue<Event>,
    h: &SimHarness,
    start: SimTime,
) -> u64 {
    let mut nonuniform = 0;
    while let Some(d) = controller.try_form_group() {
        let w0 = d.weights[0];
        if d.weights.iter().any(|&w| (w - w0).abs() > 1e-6) {
            nonuniform += 1;
        }
        // Priced as a ring all-reduce over the group, gated by its slowest
        // member link. The deployed plane averages on a star instead,
        // which moves more bytes through its leader (ROADMAP item 16).
        let group_comm = h.group_ring_time(&d.group);
        queue.schedule(
            start + group_comm,
            Event::GroupDone {
                group: d.group,
                weights: d.weights,
                new_iteration: d.new_iteration,
            },
        );
    }
    nonuniform
}

/// Every worker still beating is heard at `at`: the fleet minus the
/// departed and the `silent` crashed (a restored worker beats again).
fn hear_live(
    detector: &mut FailureDetector,
    controller: &Controller,
    silent: &[usize],
    at: Duration,
) {
    for w in 0..controller.config().num_workers {
        if !controller.has_left(w) && !silent.contains(&w) {
            detector.heard(w, at);
        }
    }
}

/// Schedules a sweep at the detector's next deadline.
fn schedule_sweep(queue: &mut EventQueue<Event>, detector: &FailureDetector) {
    if let Some(at) = detector.next_deadline() {
        queue.schedule(SimTime::new(at.as_secs_f64()), Event::Sweep(at));
    }
}

// ---------------------------------------------------------------------------
// Threaded projection
// ---------------------------------------------------------------------------

/// Liveness policy for chaos runs and for the simulator's failure
/// detector: a worker silent for ~200 ms is dead. Generous against
/// scheduler jitter (each worker's heartbeat thread beats every
/// [`LivenessPolicy::beat_period`], 12.5 ms) yet quick enough for tests
/// and benches.
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
/// its handle without a `Leaving` signal, and the serving loop's
/// [`FailureDetector`] evicts it by its silence, under the same policy
/// and with the same narration as the simulator; stalls and signal
/// delays become sleeps, and a late joiner starts its loop late (beating
/// from spawn so it is not misjudged as dead).
///
/// # Panics
/// Panics if the controller config disagrees with the fleet size, on a
/// plan [`ThreadedSubstrate::check_faults`] refuses or one with a
/// `restore:` verb (simulator-only), or if a worker thread or the
/// controller panics.
pub(crate) fn threaded_preduce(
    sub: &ThreadedSubstrate,
    controller: ControllerConfig,
) -> ThreadedReport {
    let config = &sub.config;
    assert_eq!(
        controller.num_workers, config.num_workers,
        "controller config sized for a different fleet"
    );
    let planned = sub.check_faults();
    assert!(planned.is_ok(), "{planned:?}");
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

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::config::{ExperimentConfig, HeteroSpec};
    use partial_reduce::RingSink;
    use preduce_data::cifar10_like;
    use preduce_models::zoo;
    use proptest::prelude::*;

    /// The plans the property draws from, with the snapshot cadence each
    /// runs under: none; a crash restored from its snapshot, a late join
    /// and a signal delay; a stall, a signal delay and a crash among them,
    /// snapshotted.
    const PLANS: [(&str, Option<u64>); 3] = [
        ("", None),
        (
            "crash:1@3,restore:1@12,latejoin:4+0.2,delay:3+0.05",
            Some(1),
        ),
        ("crash:0@5,stall:1x3@2,delay:2+0.01", Some(3)),
    ];

    /// What a run leaves: its result, every worker's parameter and
    /// momentum bits, and its trace.
    type Outcome = (String, Vec<Vec<u32>>, Vec<TraceEvent>);

    /// Runs P-Reduce (P = 3) on a harness whose recorded math runs on
    /// `threads` threads.
    fn outcome(c: &ExperimentConfig, dynamic: bool, plan: usize, threads: usize) -> Outcome {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let (faults, cadence) = PLANS[plan];
        let dir = std::env::temp_dir().join(format!(
            "preduce-dataflow-{}-{}",
            std::process::id(),
            RUNS.fetch_add(1, Ordering::Relaxed)
        ));
        let elastic = match cadence {
            Some(every) => ElasticOptions::none().with_policy(&dir, every),
            None => ElasticOptions::none(),
        };
        let cfg = match dynamic {
            true => ControllerConfig::dynamic(c.num_workers, 3),
            false => ControllerConfig::constant(c.num_workers, 3),
        };
        let sink = Arc::new(RingSink::new(1 << 16));
        let mut h = SimHarness::with_threads(c, threads);
        let plan = FaultPlan::parse(faults).unwrap();
        let (label, end, stats) = drive(&mut h, cfg, sink.clone(), plan, elastic).unwrap();
        let bits = (0..h.num_workers())
            .map(|w| {
                let w = h.worker(w);
                let state = w
                    .params
                    .as_slice()
                    .iter()
                    .chain(w.opt.velocity().as_slice());
                state.map(|v| v.to_bits()).collect()
            })
            .collect();
        let result = h.finish_with_stats(label, end, stats);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(sink.dropped(), 0, "trace overflowed the ring");
        (format!("{result:?}"), bits, sink.snapshot())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn the_executor_gives_the_same_run_at_every_thread_count(
            dynamic in any::<bool>(),
            gpu_sharing in any::<bool>(),
            slow_link in any::<bool>(),
            grad_norm in any::<bool>(),
            plan in 0..PLANS.len(),
            seed in 1..1_000u64,
        ) {
            let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
            c.num_workers = 6;
            c.math_batch_size = 8;
            c.max_updates = 32;
            c.eval_every = 8;
            c.seed = seed;
            c.track_grad_norm = grad_norm;
            if gpu_sharing {
                c.hetero = HeteroSpec::GpuSharing { hl: 3 };
            }
            if slow_link {
                c.link_slowdown = Some(vec![1.0, 4.0, 1.0, 1.0, 2.0, 1.0]);
            }
            let one = outcome(&c, dynamic, plan, 1);
            for threads in [2, 4] {
                let many = outcome(&c, dynamic, plan, threads);
                prop_assert_eq!(&many.0, &one.0, "result at {} threads", threads);
                prop_assert!(many.1 == one.1, "worker state at {} threads", threads);
                prop_assert!(many.2 == one.2, "trace at {} threads", threads);
            }
        }
    }
}
