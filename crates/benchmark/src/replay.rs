//! Instrument (c): the scale workloads' loop, replayed on the benchmark's
//! own [`Controller`] with a span around every call into a layer.
//!
//! `run_scale` is a closed function: it reports totals, not where the time
//! went. The replay builds the same fleet, the same controller and the
//! same event queue from the same seed, makes the same calls in the same
//! order (so its decisions must equal `run_scale`'s, which the workload
//! checks), and times each call. It then feeds the recorded group stream
//! through the sync-graph structure, the weight generator and the
//! invariant checker on their own, to cost each in isolation.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use partial_reduce::controller::{AggregationMode, Controller, ControllerConfig};
use partial_reduce::spectral::rho_power;
use partial_reduce::{
    dynamic_weights, GapPolicy, StreamingChecker, TraceEvent, TraceSink, WindowedConnectivity,
};
use preduce_simnet::{standard_fleet, EventQueue, HeterogeneityModel, SimTime};
use preduce_trainer::ScaleConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::Outcome;

/// `run_scale`'s local work per iteration: 1 virtual second on the
/// presets' 1 GFLOP/s devices.
const ITERATION_FLOPS: f64 = 1e9;

/// Signals at the head of the replay whose every call gets its own span;
/// beyond it only totals are kept, or the span file would dwarf the run.
const SPAN_WINDOW: u64 = 4_096;

/// Keeps every event, unstamped: the replay times calls, not events.
#[derive(Debug, Default)]
struct CollectingSink(Mutex<Vec<TraceEvent>>);

impl TraceSink for CollectingSink {
    fn record(&self, event: TraceEvent) {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).push(event);
    }
}

/// Everything `run_scale` constructs before its clock starts.
pub struct Replay {
    fleet: Box<dyn HeterogeneityModel>,
    controller: Controller,
    sink: Arc<CollectingSink>,
    events: EventQueue<usize>,
    rng: StdRng,
    window: usize,
}

/// What the replay decided and how long its loop took.
#[derive(Debug, Clone, Copy)]
pub struct Replayed {
    /// Ready signals processed.
    pub signals: u64,
    /// Groups formed.
    pub groups: u64,
    /// Frozen-schedule repairs.
    pub repairs: u64,
    /// Frozen-avoidance deferrals.
    pub deferrals: u64,
    /// Wall seconds of the signal loop (as `ScaleReport::wall_seconds`).
    pub wall_s: f64,
}

impl Replayed {
    /// `(signals, groups, repairs, deferrals)`, to compare with `run_scale`.
    pub fn decisions(&self) -> (u64, u64, u64, u64) {
        (self.signals, self.groups, self.repairs, self.deferrals)
    }
}

/// Accumulated nanoseconds and calls of one layer boundary.
#[derive(Debug, Default, Clone, Copy)]
struct Cost {
    nanos: u64,
    calls: u64,
}

impl Cost {
    fn per_call(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.nanos as f64 / self.calls as f64
        }
    }
}

impl Replay {
    /// Builds fleet, controller and the first event of every worker.
    ///
    /// # Panics
    /// Panics on a preset `run_scale` would reject too.
    pub fn new(cfg: &ScaleConfig) -> Self {
        let n = cfg.num_workers;
        let mut fleet = standard_fleet(&cfg.hetero, n)
            .unwrap_or_else(|| panic!("unknown heterogeneity preset `{}`", cfg.hetero));
        let ccfg = ControllerConfig {
            num_workers: n,
            group_size: cfg.group_size,
            mode: if cfg.dynamic {
                AggregationMode::dynamic_default()
            } else {
                AggregationMode::Constant
            },
            history_window: None,
            frozen_avoidance: true,
        };
        ccfg.validate();
        let window = ccfg.effective_window();
        let sink = Arc::new(CollectingSink::default());
        let controller = Controller::with_sink(ccfg, sink.clone());
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut events = EventQueue::new();
        for w in 0..n {
            let dt = fleet.compute_time(w, ITERATION_FLOPS, SimTime::ZERO, &mut rng);
            events.schedule(SimTime::ZERO + dt, w);
        }
        Replay {
            fleet,
            controller,
            sink,
            events,
            rng,
            window,
        }
    }

    /// Replays `cfg.signals` ready signals, files the per-layer metrics
    /// and spans into `out`, and returns what was decided.
    pub fn run(mut self, cfg: &ScaleConfig, out: &mut Outcome) -> Replayed {
        let n = cfg.num_workers;
        let mut iter = vec![0u64; n];
        let mut sampled: Vec<Vec<usize>> = Vec::with_capacity(cfg.sample_cap);
        let mut groups: Vec<(Vec<usize>, Vec<u64>)> = Vec::new();
        let mut groups_seen = 0u64;
        let (mut push, mut form, mut queue, mut compute) = (
            Cost::default(),
            Cost::default(),
            Cost::default(),
            Cost::default(),
        );

        let started = Instant::now();
        let mut processed = 0u64;
        while processed < cfg.signals {
            let spanned = processed < SPAN_WINDOW;
            let t = Instant::now();
            let Some((now, worker)) = self.events.pop() else {
                break;
            };
            queue.nanos += t.elapsed().as_nanos() as u64;
            queue.calls += 1;

            iter[worker] += 1;
            let t = Instant::now();
            self.controller.push_ready(worker, iter[worker]);
            let end = Instant::now();
            push.nanos += (end - t).as_nanos() as u64;
            push.calls += 1;
            let parent = spanned.then(|| {
                out.spans.push(
                    "core.controller.push_ready",
                    out.spans.nanos_at(t),
                    out.spans.nanos_at(end),
                    None,
                    processed,
                )
            });
            processed += 1;

            loop {
                let t = Instant::now();
                let decision = self.controller.try_form_group();
                let end = Instant::now();
                form.nanos += (end - t).as_nanos() as u64;
                form.calls += 1;
                if spanned {
                    out.spans.push(
                        "core.controller.try_form_group",
                        out.spans.nanos_at(t),
                        out.spans.nanos_at(end),
                        parent,
                        processed - 1,
                    );
                }
                let Some(d) = decision else { break };
                groups_seen += 1;
                // `run_scale` draws from this generator for its reservoir
                // of group compositions; the replay must draw in step.
                if sampled.len() < cfg.sample_cap {
                    sampled.push(d.group.clone());
                } else {
                    let slot = self.rng.gen_range(0..groups_seen);
                    if (slot as usize) < cfg.sample_cap {
                        sampled[slot as usize] = d.group.clone();
                    }
                }
                let iterations: Vec<u64> = d.group.iter().map(|&m| iter[m]).collect();
                for &m in &d.group {
                    if cfg.dynamic {
                        iter[m] = d.new_iteration;
                    }
                    if cfg.emit_completions {
                        self.sink.record(TraceEvent::ReduceCompleted {
                            worker: m,
                            members: d.group.clone(),
                            new_iteration: d.new_iteration,
                        });
                    }
                    let t = Instant::now();
                    let dt = self
                        .fleet
                        .compute_time(m, ITERATION_FLOPS, now, &mut self.rng);
                    let mid = Instant::now();
                    self.events.schedule(now + (cfg.reduce_latency + dt), m);
                    compute.nanos += (mid - t).as_nanos() as u64;
                    compute.calls += 1;
                    queue.nanos += mid.elapsed().as_nanos() as u64;
                    queue.calls += 1;
                }
                groups.push((d.group, iterations));
            }
        }
        let wall_s = started.elapsed().as_secs_f64();

        let replayed = Replayed {
            signals: processed,
            groups: self.controller.groups_formed(),
            repairs: self.controller.repairs(),
            deferrals: self.controller.deferrals(),
            wall_s,
        };
        self.sink.record(TraceEvent::RunFinished {
            groups_formed: replayed.groups,
            repairs: replayed.repairs,
            deferrals: replayed.deferrals,
            singletons: 0,
        });
        let stats = self.controller.connectivity_stats();

        let layers = &mut out.layers;
        layers.insert("core.controller.push_ready_ns", push.per_call());
        layers.insert("core.controller.form_group_ns", form.per_call());
        layers.insert("core.controller.groups", replayed.groups as f64);
        layers.insert("core.controller.repairs", replayed.repairs as f64);
        layers.insert("core.controller.deferrals", replayed.deferrals as f64);
        let attempts = replayed.groups + replayed.deferrals;
        if attempts > 0 {
            layers.insert(
                "core.controller.deferral_ratio",
                replayed.deferrals as f64 / attempts as f64,
            );
        }
        layers.insert("core.graph.merges", stats.merges as f64);
        layers.insert("core.graph.rebuilds", stats.rebuilds as f64);
        layers.insert("core.graph.clean_evictions", stats.clean_evictions as f64);
        if replayed.groups > 0 {
            layers.insert(
                "core.graph.rebuilds_per_group",
                stats.rebuilds as f64 / replayed.groups as f64,
            );
        }
        layers.insert("simnet.event_queue_ns", queue.per_call());
        layers.insert("simnet.compute_time_ns", compute.per_call());

        // The group stream again, one layer at a time.
        let round = processed;
        let mut graph = WindowedConnectivity::new(n, self.window);
        // The structure as the group filter uses it: ask whether the
        // window's graph is connected, label the candidates' components
        // when it is not (which forces a stale structure to rebuild), then
        // record the group.
        let (graph_span, ()) = out.spans.time("core.graph.replay", None, round, || {
            for (group, _) in &groups {
                if graph.is_warm() && !graph.is_connected() {
                    for &w in group {
                        std::hint::black_box(graph.component_of(w));
                    }
                }
                graph.record(group);
            }
        });
        let (weights_span, ()) = out.spans.time("core.weights.replay", None, round, || {
            if cfg.dynamic {
                for (_, iterations) in &groups {
                    std::hint::black_box(dynamic_weights(iterations, 0.3, GapPolicy::Initial));
                }
            }
        });
        let events = std::mem::take(&mut *self.sink.0.lock().unwrap_or_else(|e| e.into_inner()));
        let mut checker = StreamingChecker::new();
        let (checker_span, ()) = out.spans.time("core.invariants.replay", None, round, || {
            for event in &events {
                checker.feed(event);
            }
        });
        let verdict = checker.finish();
        out.tally.fail(verdict.violations.len() as u64, || {
            format!("replay: {} invariant violations", verdict.violations.len())
        });
        let (rho_span, rho) = out.spans.time("core.spectral.rho_power", None, round, || {
            (!sampled.is_empty()).then(|| rho_power(n, &sampled, cfg.rho_iters, cfg.seed))
        });
        std::hint::black_box(rho);

        let spans = out.spans.spans();
        let nanos_of = |id: u32| spans[id as usize].nanos() as f64;
        let per_group = |nanos: f64| {
            if groups.is_empty() {
                0.0
            } else {
                nanos / groups.len() as f64
            }
        };
        out.layers
            .insert("core.graph.ns_per_group", per_group(nanos_of(graph_span)));
        out.layers.insert(
            "core.weights.ns_per_group",
            per_group(nanos_of(weights_span)),
        );
        out.layers
            .insert("core.invariants.events", events.len() as f64);
        if !events.is_empty() {
            out.layers.insert(
                "core.invariants.ns_per_event",
                nanos_of(checker_span) / events.len() as f64,
            );
        }
        out.layers
            .insert("core.spectral.rho_power_s", nanos_of(rho_span) * 1e-9);
        replayed
    }
}
