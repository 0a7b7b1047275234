//! The scale harness: signal-level simulation of N = 10³–10⁴ fleets.
//!
//! The convergence experiments simulate *training* — tensors, models,
//! gradient math — which caps them at tens of workers. The scale campaign
//! (DESIGN.md §15) asks a different question: does the **control plane**
//! itself hold up at fleet sizes three orders of magnitude beyond the
//! paper's testbed? Answering it needs no tensors at all: this harness
//! drives the real [`Controller`] with a discrete-event stream of ready
//! signals drawn from the standard heterogeneity presets
//! ([`preduce_simnet::standard_fleet`]), checks every emitted trace event
//! *live* through a streaming [`CheckingSink`] (bounded memory — no trace
//! is retained), and measures what the paper's theory says to measure:
//!
//! * **throughput** — controller-side signals/second of wall time;
//! * **group-formation latency** — virtual seconds a ready signal waits
//!   in the queue before its group forms (heterogeneity-induced);
//! * **spectral quality** — `ρ` of the *measured* schedule via
//!   matrix-free power iteration ([`rho_power`]) over a reservoir sample
//!   of formed groups, against the homogeneous closed form
//!   ([`rho_uniform`]) that anchors the Theorem 1 bound;
//! * **weight spread** — how far the Eq. 9 dynamic weights drift from
//!   uniform `1/P` under real staleness;
//! * **connectivity work** — the [`ConnectivityStats`] counters of the
//!   group filter and of the checker's replica of its window: union-find
//!   merges (replays included) and window reloads, how many queries
//!   the membership counts answered without either, and how many root
//!   arrays were built to label long lists.
//!
//! [`sample_groups`] (Fig. 4, `preduce spectral`) runs the same signal
//! loop with no trace and free reduces.
//!
//! Peak-memory budgets are asserted by the callers (the `scale`
//! integration test installs [`preduce_tensor::CountingAlloc`] as the
//! global allocator); the harness itself keeps O(N + T·P) state.

use std::sync::Arc;
use std::time::Instant;

use partial_reduce::controller::{Controller, ControllerConfig, GroupDecision};
use partial_reduce::graph::ConnectivityStats;
use partial_reduce::spectral::{rho_bar, rho_power, rho_uniform};
use partial_reduce::trace::{TraceEvent, TraceSink};
use partial_reduce::CheckingSink;
use preduce_simnet::{
    standard_fleet, EventQueue, HeterogeneityModel, Jitter, SimTime, UniformFleet,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::strategy::Strategy;

/// Local work per iteration, in FLOPs. With the presets' 1 GFLOP/s
/// devices this makes the homogeneous iteration time 1 virtual second —
/// latencies read directly as "iterations of waiting".
const ITERATION_FLOPS: f64 = 1e9;

/// Configuration of one scale run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Fleet size `N`.
    pub num_workers: usize,
    /// Group size `P`.
    pub group_size: usize,
    /// Ready signals to process before stopping.
    pub signals: u64,
    /// Heterogeneity preset (`uniform` | `gpu-sharing` | `markov`).
    pub hetero: String,
    /// Eq. 9 dynamic weights (`true`) or constant `1/P` (`false`).
    pub dynamic: bool,
    /// RNG seed for compute times and group sampling.
    pub seed: u64,
    /// Virtual seconds one partial reduce adds before a member resumes
    /// local compute.
    pub reduce_latency: f64,
    /// Record [`TraceEvent::ReduceCompleted`] per member, making the
    /// streaming checker's in-flight accounting strict.
    pub emit_completions: bool,
    /// Reservoir capacity of group compositions kept for the `ρ`
    /// estimate (bounds memory regardless of run length).
    pub sample_cap: usize,
    /// Power-iteration steps for the `ρ` estimate.
    pub rho_iters: usize,
}

impl ScaleConfig {
    /// A standard run: `signals` ready signals from an `N`-worker fleet
    /// under the given preset, groups of `P`, dynamic weights on.
    pub fn new(num_workers: usize, group_size: usize, signals: u64, hetero: &str) -> Self {
        ScaleConfig {
            num_workers,
            group_size,
            signals,
            hetero: hetero.to_string(),
            dynamic: true,
            seed: 0xC0FFEE,
            reduce_latency: 0.05,
            emit_completions: true,
            sample_cap: 2048,
            rho_iters: 200,
        }
    }

    /// The rules of a scale run, stated once: a standard preset, a
    /// signal, a finite reduce latency `>= 0`, a sample and power
    /// iteration, then the controller's rules.
    ///
    /// # Errors
    /// Names the first rule the configuration breaks.
    pub fn check(&self) -> Result<(), String> {
        let (preset, latency) = (&self.hetero, self.reduce_latency);
        if standard_fleet(preset, 1).is_none() {
            Err(format!(
                "unknown heterogeneity preset `{preset}` (expected uniform, gpu-sharing or markov)"
            ))
        } else if self.signals == 0 {
            Err("a scale run must process at least one signal".into())
        } else if !(latency.is_finite() && latency >= 0.0) {
            Err("reduce latency must be finite and non-negative".into())
        } else if self.sample_cap == 0 || self.rho_iters == 0 {
            Err("sample cap and rho_iters must be positive".into())
        } else {
            let (p, dynamic) = (self.group_size, self.dynamic);
            Strategy::PReduce { p, dynamic }.check_fleet(self.num_workers)
        }
    }
}

/// What one scale run measured.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleReport {
    /// Fleet size `N`.
    pub num_workers: usize,
    /// Group size `P`.
    pub group_size: usize,
    /// Heterogeneity preset.
    pub hetero: String,
    /// Ready signals processed.
    pub signals: u64,
    /// Groups formed.
    pub groups: u64,
    /// Frozen-schedule repairs.
    pub repairs: u64,
    /// Frozen-avoidance deferrals.
    pub deferrals: u64,
    /// Virtual seconds of fleet time simulated.
    pub sim_seconds: f64,
    /// Wall-clock seconds the simulation took.
    pub wall_seconds: f64,
    /// Controller-side throughput: signals per wall-clock second.
    pub signals_per_sec: f64,
    /// Mean virtual seconds between a signal and its group forming.
    pub formation_latency_mean: f64,
    /// Worst-case formation latency (virtual seconds).
    pub formation_latency_max: f64,
    /// Power-iteration estimate of `ρ` over the sampled schedule
    /// (`None` when no groups formed).
    pub rho_measured: Option<f64>,
    /// Closed-form `ρ` of the homogeneous uniform schedule — the
    /// Theorem 1 reference.
    pub rho_uniform_ref: f64,
    /// Error coefficient `ρ̄` of the measured schedule (`None` when
    /// `ρ ≥ 1`, i.e. the sample's graph is disconnected).
    pub rho_bar_measured: Option<f64>,
    /// Error coefficient of the uniform reference.
    pub rho_bar_uniform: Option<f64>,
    /// Mean per-group spread `max(w) − min(w)` of the Eq. 9 weights.
    pub weight_spread_mean: f64,
    /// Worst per-group weight spread.
    pub weight_spread_max: f64,
    /// Work counters of the group filter's windowed connectivity.
    pub connectivity: ConnectivityStats,
    /// Work counters of the streaming checker's replica of that window.
    pub checker_connectivity: ConnectivityStats,
    /// Trace events fed through the streaming checker.
    pub checker_events: usize,
    /// Invariant violations found (must be 0).
    pub checker_violations: usize,
}

/// Running mean/max without retaining samples.
#[derive(Debug, Clone, Copy, Default)]
struct RunningStat {
    count: u64,
    sum: f64,
    max: f64,
}

impl RunningStat {
    fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        if x > self.max {
            self.max = x;
        }
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Runs the signal-level scale simulation and reports the measurements.
///
/// # Panics
/// Panics on the first rule [`ScaleConfig::check`] names.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleReport {
    let checked = cfg.check();
    assert!(checked.is_ok(), "{checked:?}");
    let n = cfg.num_workers;
    let p = cfg.group_size;
    let mut fleet = standard_fleet(&cfg.hetero, n)
        .unwrap_or_else(|| Box::new(UniformFleet::new(n, 1e9, Jitter::None)));

    let ccfg = if cfg.dynamic {
        ControllerConfig::dynamic(n, p)
    } else {
        ControllerConfig::constant(n, p)
    };

    let sink = Arc::new(CheckingSink::new());
    let mut controller = Controller::with_sink(ccfg, sink.clone());
    let mut latency = RunningStat::default();
    let mut spread = RunningStat::default();
    // Reservoir sample of group compositions for the ρ estimate.
    let mut sampled: Vec<Vec<usize>> = Vec::with_capacity(cfg.sample_cap);

    let started = Instant::now();
    let (now, processed) = signal_loop(
        &mut *fleet,
        &mut controller,
        cfg.seed,
        cfg.reduce_latency,
        (cfg.signals, u64::MAX),
        |d, now, enqueued_at, rng| {
            let mut lo = f32::MAX;
            let mut hi = f32::MIN;
            for &wgt in d.weights.iter() {
                lo = lo.min(wgt);
                hi = hi.max(wgt);
            }
            spread.push(f64::from(hi - lo));
            // Reservoir sampling keeps each group with equal probability
            // while bounding memory at `sample_cap` compositions.
            if sampled.len() < cfg.sample_cap {
                sampled.push(d.group.clone());
            } else if let Some(slot) = sampled.get_mut(rng.gen_range(0..d.sequence + 1) as usize) {
                *slot = d.group.clone();
            }
            for &m in &d.group {
                latency.push(now - enqueued_at[m]);
                if cfg.emit_completions {
                    sink.record(TraceEvent::ReduceCompleted {
                        worker: m,
                        members: d.group.clone(),
                        new_iteration: d.new_iteration,
                    });
                }
            }
        },
    );
    let wall_seconds = started.elapsed().as_secs_f64();

    let connectivity = controller.connectivity_stats();
    let closing = controller.close();

    let rho_measured = if sampled.is_empty() {
        None
    } else {
        Some(rho_power(n, &sampled, cfg.rho_iters, cfg.seed))
    };
    let rho_ref = rho_uniform(n, p);
    let guard_bar = |rho: f64| {
        if (0.0..1.0).contains(&rho) {
            Some(rho_bar(rho))
        } else {
            None
        }
    };

    let report = sink.take_report();

    ScaleReport {
        num_workers: n,
        group_size: p,
        hetero: cfg.hetero.clone(),
        signals: processed,
        groups: closing.groups_formed,
        repairs: closing.repairs,
        deferrals: closing.deferrals,
        sim_seconds: now.seconds(),
        wall_seconds,
        signals_per_sec: if wall_seconds > 0.0 {
            processed as f64 / wall_seconds
        } else {
            0.0
        },
        formation_latency_mean: latency.mean(),
        formation_latency_max: latency.max,
        rho_measured,
        rho_uniform_ref: rho_ref,
        rho_bar_measured: rho_measured.and_then(guard_bar),
        rho_bar_uniform: guard_bar(rho_ref),
        weight_spread_mean: spread.mean(),
        weight_spread_max: spread.max,
        connectivity,
        checker_connectivity: report.connectivity,
        checker_events: report.events,
        checker_violations: report.violations.len(),
    }
}

/// The signal-level group sampler: runs the scale harness's signal loop
/// with no trace and free reduces until `rounds` groups have formed, and
/// returns them (the schedule `fleet`'s speeds induce under `config`, the
/// input of [`partial_reduce::expected_sync_matrix`]) with the
/// controller's repair count.
///
/// # Panics
/// Panics if `config` is invalid or sized for a different fleet.
pub fn sample_groups(
    mut fleet: Box<dyn HeterogeneityModel>,
    config: ControllerConfig,
    rounds: usize,
    seed: u64,
) -> (Vec<Vec<usize>>, u64) {
    assert_eq!(
        config.num_workers,
        fleet.num_workers(),
        "controller config sized for a different fleet"
    );
    let mut controller = Controller::new(config);
    let mut groups = Vec::with_capacity(rounds);
    let budget = (u64::MAX, rounds as u64);
    signal_loop(
        &mut *fleet,
        &mut controller,
        seed,
        0.0,
        budget,
        |d, _, _, _| {
            groups.push(d.group.clone());
        },
    );
    (groups, controller.repairs())
}

/// The one signal loop: fleet → ready signal → [`Controller::try_form_group`]
/// → members compute again, no tensors. A worker signals its own count
/// (adopting the group max in DYN) and resumes `reduce_latency` after its
/// group forms, plus its next compute time. `on_group` sees each group,
/// the time and each worker's last signal time before the members' draws
/// from the `seed`ed RNG. Stops at either `(signals, groups)` budget;
/// returns the last signal's time and the signals processed.
fn signal_loop(
    fleet: &mut dyn HeterogeneityModel,
    controller: &mut Controller,
    seed: u64,
    reduce_latency: f64,
    (max_signals, max_groups): (u64, u64),
    mut on_group: impl FnMut(&GroupDecision, SimTime, &[SimTime], &mut StdRng),
) -> (SimTime, u64) {
    let n = fleet.num_workers();
    let mut rng = StdRng::seed_from_u64(seed);
    let dynamic = controller.config().mode.adopts_group_max();
    let mut events: EventQueue<usize> = EventQueue::new();
    for w in 0..n {
        let dt = fleet.compute_time(w, ITERATION_FLOPS, SimTime::ZERO, &mut rng);
        events.schedule(SimTime::ZERO + dt, w);
    }
    let mut iter = vec![0u64; n];
    let mut enqueued_at = vec![SimTime::ZERO; n];
    let mut now = SimTime::ZERO;
    let mut processed = 0;
    while processed < max_signals && controller.groups_formed() < max_groups {
        let Some((at, worker)) = events.pop() else {
            // Unreachable (every group reschedules all of its members),
            // but a drained queue must end the loop, not wedge it.
            break;
        };
        now = at;
        iter[worker] += 1;
        controller.push_ready(worker, iter[worker]);
        enqueued_at[worker] = now;
        processed += 1;
        while let Some(d) = controller.try_form_group() {
            on_group(&d, now, &enqueued_at, &mut rng);
            for &m in &d.group {
                if dynamic {
                    iter[m] = d.new_iteration;
                }
                let dt = fleet.compute_time(m, ITERATION_FLOPS, now, &mut rng);
                events.schedule(now + (reduce_latency + dt), m);
            }
        }
    }
    (now, processed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_returns_the_requested_schedule() {
        let fleet = || Box::new(UniformFleet::new(6, 1e9, Jitter::LogNormal { sigma: 0.2 }));
        let cfg = ControllerConfig::constant(6, 3);
        let (groups, repairs) = sample_groups(fleet(), cfg.clone(), 500, 17);
        assert!((500..500 + 2).contains(&groups.len()), "{}", groups.len());
        assert!(groups.iter().all(|g| g.len() == 3));
        // Same seed, same schedule; the count is the controller's own.
        let (again, repairs_again) = sample_groups(fleet(), cfg, 500, 17);
        assert_eq!(groups, again);
        assert_eq!(repairs, repairs_again);
    }

    #[test]
    fn small_fleet_runs_clean() {
        let mut cfg = ScaleConfig::new(32, 4, 2_000, "uniform");
        cfg.sample_cap = 256;
        let r = run_scale(&cfg);
        assert_eq!(r.signals, 2_000);
        assert_eq!(r.checker_violations, 0, "invariants violated");
        assert!(r.groups > 0);
        assert!(r.checker_events > r.groups as usize);
        assert!(r.sim_seconds > 0.0);
        assert!(r.formation_latency_max >= r.formation_latency_mean);
        let rho = r.rho_measured.expect("groups formed, rho estimable");
        assert!((0.0..=1.0).contains(&rho), "rho = {rho}");
    }

    #[test]
    fn all_presets_run_clean_and_strict() {
        for preset in ["uniform", "gpu-sharing", "markov"] {
            let cfg = ScaleConfig::new(64, 4, 1_000, preset);
            let r = run_scale(&cfg);
            assert_eq!(r.checker_violations, 0, "{preset}: invariants violated");
            assert!(r.groups > 0, "{preset}: no groups formed");
        }
    }

    #[test]
    fn constant_mode_has_zero_weight_spread() {
        let mut cfg = ScaleConfig::new(16, 4, 500, "uniform");
        cfg.dynamic = false;
        let r = run_scale(&cfg);
        assert_eq!(r.weight_spread_max, 0.0);
        assert_eq!(r.weight_spread_mean, 0.0);
    }

    #[test]
    fn heterogeneity_induces_weight_spread() {
        // Under GPU sharing a quarter of the fleet runs ~4× slower, so
        // dynamic Eq. 9 weights must actually spread.
        let cfg = ScaleConfig::new(64, 4, 4_000, "gpu-sharing");
        let r = run_scale(&cfg);
        assert!(r.weight_spread_max > 0.0, "no spread under heterogeneity");
    }

    #[test]
    fn measured_rho_tracks_uniform_reference() {
        // A uniform fleet's measured schedule is close to the uniform
        // closed form (FIFO arrival under homogeneity ≈ random groups).
        let mut cfg = ScaleConfig::new(48, 4, 6_000, "uniform");
        cfg.rho_iters = 400;
        let r = run_scale(&cfg);
        let rho = r.rho_measured.expect("rho estimable");
        assert!(
            (rho - r.rho_uniform_ref).abs() < 0.2,
            "measured {rho} vs reference {}",
            r.rho_uniform_ref
        );
    }

    #[test]
    fn connectivity_counters_report_work() {
        // ROADMAP item 1's filter cost on a warm uniform run (T = 134,
        // warm after ~2 k of the 40 k signals): with arrival jitter about
        // a third of the fleet is absent from the window at any time, so
        // a queue of 16 almost always holds an absent worker and the
        // verdict needs no forest.
        let cfg = ScaleConfig::new(2_000, 16, 40_000, "uniform");
        let r = run_scale(&cfg);
        let c = r.connectivity;
        assert!(c.merges > 0, "no merges recorded");
        assert!(
            c.rebuilds * 20 <= r.groups,
            "{} rebuilds for {} groups",
            c.rebuilds,
            r.groups
        );
        assert!(
            c.membership_answers > r.groups / 2,
            "{} membership answers for {} groups",
            c.membership_answers,
            r.groups
        );
        // The checker's replica is asked the filter's question once per
        // repair: under GPU sharing most groups are repairs, and its
        // forest loads the window and merges.
        let r = run_scale(&ScaleConfig::new(400, 8, 4_000, "gpu-sharing"));
        let checker = r.checker_connectivity;
        assert!(r.repairs > 0, "no repairs to check");
        assert!(
            checker.merges > 0 && checker.rebuilds > 0,
            "checker replica: {checker:?}"
        );
        // Queries with no record in between share one catch-up: the first
        // loads the window, the rest neither reload nor merge.
        let mut conn = partial_reduce::WindowedConnectivity::new(4, 2);
        conn.record(&[0, 1]);
        conn.record(&[2, 3]);
        for w in 0..4 {
            assert!(!conn.is_connected());
            conn.component_of(w);
        }
        assert_eq!((conn.stats().rebuilds, conn.stats().merges), (1, 2));
        // In a wide window a record followed by a query replays: the
        // evicted group is taken back and the new one applied, no reload.
        let mut conn = partial_reduce::WindowedConnectivity::new(8, 64);
        for i in 0..200 {
            conn.record(&[i % 8, (i + 1) % 8]);
            conn.component_of(i % 8);
        }
        let stats = conn.stats();
        assert_eq!(stats.rebuilds, 1, "{stats:?}");
        assert!(stats.merges < 200 * 8, "{stats:?}");
    }

    #[test]
    #[should_panic(expected = "unknown heterogeneity preset")]
    fn unknown_preset_is_rejected() {
        run_scale(&ScaleConfig::new(8, 2, 10, "quantum"));
    }
}
