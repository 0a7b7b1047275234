//! The fixed catalogue: workload names, end-to-end metrics with their
//! directions and bounds, per-layer metrics, and the frozen size constants.
//!
//! `BENCHMARK.json` at the repository root restates the part of this the
//! gate reads; a test keeps the two in step.

use serde::{Deserialize, Serialize};

/// One named set of inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Workload {
    /// Virtual-time P-Reduce training to an accuracy threshold.
    SimHl3,
    /// Real threads, emulated device time, in-process transports.
    ThreadedHl2,
    /// Controller and workers over loopback TCP, as deployed.
    ProcessTcp,
    /// Full-fleet ready-signal waves against the TCP serving loop.
    StormTcp,
    /// Controller algorithm at N = 10⁴, homogeneous fleet.
    ScaleUniform,
    /// Controller algorithm at N = 4·10³ under GPU sharing.
    ScaleGpushare,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 6] = [
        Workload::SimHl3,
        Workload::ThreadedHl2,
        Workload::ProcessTcp,
        Workload::StormTcp,
        Workload::ScaleUniform,
        Workload::ScaleGpushare,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimHl3 => "sim-hl3",
            Workload::ThreadedHl2 => "threaded-hl2",
            Workload::ProcessTcp => "process-tcp",
            Workload::StormTcp => "storm-tcp",
            Workload::ScaleUniform => "scale-uniform",
            Workload::ScaleGpushare => "scale-gpushare",
        }
    }

    /// Why the workload exists, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SimHl3 => "paper headline: virtual time-to-accuracy under HL=3 GPU sharing; the only compute-bound path (models, tensor, data), no sockets, no sync-graph work",
            Workload::ThreadedHl2 => "only real-time heterogeneous run: 8 threads, two at half speed, channel control plane and in-process ring average; bypass case for every socket-side change",
            Workload::ProcessTcp => "deployed path end to end: JSON frames, reactor, serve_fleet, heartbeats, TCP mesh average; four closed-loop workers leave the reactor idle, so its nap is paid every round",
            Workload::StormTcp => "control-plane capacity: 64 sockets signal at once, reactor never idle, batched ingest, no model data; uses the transport the opposite way from process-tcp",
            Workload::ScaleUniform => "controller algorithm at N=10^4 with a warm window T=667: windowed connectivity does most of the work, FIFO fast path, almost no repairs",
            Workload::ScaleGpushare => "same group filter, N=4000 under GPU sharing: ~90% of groups are repairs with ~8 deferrals each, so the repair path dominates instead of the rebuild path",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the reference median by which the metric may worsen
    /// before `compare` calls it a regression.
    pub bound: f64,
    /// A value fixed by the seed (virtual time, counts): two runs of one
    /// seed must agree exactly.
    pub deterministic: bool,
    /// The workloads that report it.
    pub on: &'static [Workload],
}

use Workload::{ProcessTcp, ScaleGpushare, ScaleUniform, SimHl3, StormTcp, ThreadedHl2};

const EVERY: &[Workload] = &Workload::ALL;

impl EndToEnd {
    /// Reported by every workload, hence part of `BENCHMARK.json`, whose
    /// gate requires each of its metrics from each workload.
    pub fn universal(&self) -> bool {
        self.on.len() == Workload::ALL.len()
    }
}

/// The end-to-end metrics. A (metric, workload) pair outside `on` is
/// omitted from reports, never written as 0.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "rounds_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        deterministic: false,
        on: EVERY,
    },
    EndToEnd {
        name: "cpu_us_per_round",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        deterministic: false,
        on: EVERY,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        deterministic: false,
        on: EVERY,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        deterministic: false,
        on: EVERY,
    },
    EndToEnd {
        name: "wave_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        deterministic: false,
        on: &[StormTcp],
    },
    EndToEnd {
        name: "wave_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        deterministic: false,
        on: &[StormTcp],
    },
    EndToEnd {
        name: "tta_virtual_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.01,
        deterministic: true,
        on: &[SimHl3],
    },
    EndToEnd {
        name: "final_accuracy",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.05,
        deterministic: false,
        on: &[SimHl3, ThreadedHl2, ProcessTcp],
    },
    EndToEnd {
        name: "queue_wait_virtual_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.01,
        deterministic: true,
        on: &[ScaleUniform, ScaleGpushare],
    },
    EndToEnd {
        name: "rho_bar_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.01,
        deterministic: true,
        on: &[ScaleUniform, ScaleGpushare],
    },
];

/// The bound of `metric` on `workload`: `final_accuracy` on the
/// deterministic simulator is held to 1 %, on real threads to 5 %.
pub fn bound_on(metric: &EndToEnd, workload: Workload) -> f64 {
    if metric.name == "final_accuracy" && workload == SimHl3 {
        0.01
    } else {
        metric.bound
    }
}

/// Whether `metric` on `workload` must repeat exactly for one seed.
pub fn deterministic_on(metric: &EndToEnd, workload: Workload) -> bool {
    metric.deterministic || (metric.name == "final_accuracy" && workload == SimHl3)
}

/// A per-layer metric: one module's cost or count, measured from outside.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// `module.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The workloads whose traced pass measures it.
    pub on: &'static [Workload],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [Workload],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        on,
    }
}

const TRAINING: &[Workload] = &[SimHl3, ThreadedHl2, ProcessTcp];
const STAMPED: &[Workload] = &[ThreadedHl2, ProcessTcp, StormTcp];
const SOCKETS: &[Workload] = &[ProcessTcp, StormTcp];
const SCALE: &[Workload] = &[ScaleUniform, ScaleGpushare];
use Better::{Higher, Lower};

/// The per-layer metrics of the traced pass.
pub const LAYERS: &[Layer] = &[
    // Compute path, timed around direct calls at the workload's shapes.
    layer("tensor.gemm_nn_gflops", "GFLOP/s", Higher, TRAINING),
    layer("tensor.gemm_nt_gflops", "GFLOP/s", Higher, TRAINING),
    layer("tensor.gemm_tn_gflops", "GFLOP/s", Higher, TRAINING),
    layer("data.batch_us", "us", Lower, TRAINING),
    layer("models.fwd_bwd_us", "us", Lower, TRAINING),
    layer("models.sgd_apply_us", "us", Lower, TRAINING),
    layer("trainer.local_update_us", "us", Lower, TRAINING),
    layer("data.build_s", "s", Lower, TRAINING),
    layer("trainer.model_average_us", "us", Lower, &[SimHl3]),
    layer("trainer.eval_ms", "ms", Lower, &[SimHl3]),
    layer("trainer.eval_share", "fraction", Lower, &[SimHl3]),
    layer("trainer.self_share", "fraction", Lower, &[SimHl3]),
    layer(
        "trainer.tta_speedup_vs_allreduce",
        "ratio",
        Higher,
        &[SimHl3],
    ),
    layer(
        "trainer.single_worker_rounds_per_s",
        "1/s",
        Higher,
        &[SimHl3],
    ),
    // Runtime, from the stamped trace-event stream.
    layer("core.runtime.queue_wait_us_p50", "us", Lower, STAMPED),
    layer("core.runtime.queue_wait_us_p95", "us", Lower, STAMPED),
    layer("core.runtime.dispatch_us_p50", "us", Lower, STAMPED),
    layer("core.runtime.reduce_us_p50", "us", Lower, STAMPED),
    layer("core.runtime.reduce_us_p95", "us", Lower, STAMPED),
    layer("core.runtime.cycle_us_p50", "us", Lower, STAMPED),
    layer(
        "core.runtime.fast_rounds_per_s",
        "1/s",
        Higher,
        &[ThreadedHl2],
    ),
    layer("core.runtime.singletons", "count", Lower, STAMPED),
    layer("core.runtime.evictions", "count", Lower, STAMPED),
    layer("core.runtime.trace_events", "count", Lower, STAMPED),
    // Transports, timed around direct calls.
    layer("comm.frame.encode_ns", "ns", Lower, SOCKETS),
    layer("comm.frame.decode_ns", "ns", Lower, SOCKETS),
    layer("comm.frame.ready_bytes", "B", Lower, SOCKETS),
    layer("comm.frame.assignment_bytes", "B", Lower, SOCKETS),
    layer("comm.tcp.idle_round_us", "us", Lower, SOCKETS),
    layer("comm.control.idle_round_us", "us", Lower, SOCKETS),
    layer("comm.reactor.accept_fleet_ms", "ms", Lower, SOCKETS),
    layer("comm.collectives.average_ms", "ms", Lower, &[ThreadedHl2]),
    layer("tensor.weighted_sum_gbps", "GB/s", Higher, &[ThreadedHl2]),
    layer("comm.mesh.average_ms", "ms", Lower, &[ProcessTcp]),
    layer("comm.mesh.bytes_per_round", "B", Lower, &[ProcessTcp]),
    // Controller at scale, from the replay.
    layer("core.controller.push_ready_ns", "ns", Lower, SCALE),
    layer("core.controller.form_group_ns", "ns", Lower, SCALE),
    layer("core.controller.groups", "count", Higher, SCALE),
    layer("core.controller.repairs", "count", Lower, SCALE),
    layer("core.controller.deferrals", "count", Lower, SCALE),
    layer("core.controller.deferral_ratio", "fraction", Lower, SCALE),
    layer("core.graph.ns_per_group", "ns", Lower, SCALE),
    layer("core.graph.merges", "count", Lower, SCALE),
    layer("core.graph.rebuilds", "count", Lower, SCALE),
    layer("core.graph.rebuilds_per_group", "ratio", Lower, SCALE),
    layer("core.graph.clean_evictions", "count", Higher, SCALE),
    layer("core.weights.ns_per_group", "ns", Lower, SCALE),
    layer("core.invariants.ns_per_event", "ns", Lower, SCALE),
    layer("core.invariants.events", "count", Lower, SCALE),
    layer("core.spectral.rho_power_s", "s", Lower, SCALE),
    layer("simnet.event_queue_ns", "ns", Lower, SCALE),
    layer("simnet.compute_time_ns", "ns", Lower, SCALE),
    // Harness.
    layer("bench.trace_overhead_frac", "fraction", Lower, EVERY),
    layer("bench.cpu_util", "fraction", Lower, EVERY),
    layer("bench.rep_iqr_frac", "fraction", Lower, EVERY),
];

/// Frozen workload sizes. `FULL` is what the gate and `run` measure;
/// `SMOKE` exists so the crate's tests can drive every workload end to
/// end in seconds. Sizes are work, not time, so every count repeats
/// exactly for one seed; `FULL` makes one repetition last about two
/// seconds on the two-core reference box.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sizes {
    /// `sim-hl3`: seeds per repetition and model (ResNet-34 and VGG-19
    /// analogs each run every seed).
    pub sim_seeds_per_rep: u64,
    /// `sim-hl3`: update cap per run — six times what the slowest seed
    /// of the sweep's pool needs, so every run converges; a run that does
    /// not is a failed operation that still ends.
    pub sim_max_updates: u64,
    /// `threaded-hl2`: local iterations per worker and repetition.
    pub threaded_iters: u64,
    /// `process-tcp`: local iterations per worker and repetition.
    pub process_iters: u64,
    /// `storm-tcp`: fleet size N (a multiple of the group size 8).
    pub storm_fleet: usize,
    /// `storm-tcp`: waves per repetition.
    pub storm_waves: u64,
    /// `scale-uniform`: fleet size, group size, signals per repetition.
    pub scale_uniform: (usize, usize, u64),
    /// `scale-gpushare`: fleet size, group size, signals per repetition.
    pub scale_gpushare: (usize, usize, u64),
    /// Power-iteration steps of the ρ estimate in both scale workloads.
    pub scale_rho_iters: usize,
    /// Test accuracy `threaded-hl2` and `process-tcp` must clear after
    /// their iteration budget (10-class chance level is 0.1).
    pub accuracy_floor: f64,
}

impl Sizes {
    /// The measured sizes.
    pub const FULL: Sizes = Sizes {
        sim_seeds_per_rep: 3,
        sim_max_updates: 6_000,
        threaded_iters: 300,
        process_iters: 600,
        storm_fleet: 64,
        storm_waves: 2_000,
        scale_uniform: (10_000, 16, 200_000),
        scale_gpushare: (4_000, 8, 75_000),
        scale_rho_iters: 100,
        // The budget reaches about 0.85; timing noise cannot cross this.
        accuracy_floor: 0.60,
    };

    /// Sizes for the crate's own end-to-end test.
    pub const SMOKE: Sizes = Sizes {
        sim_seeds_per_rep: 1,
        sim_max_updates: 6_000,
        threaded_iters: 12,
        process_iters: 8,
        storm_fleet: 16,
        storm_waves: 5,
        scale_uniform: (400, 8, 4_000),
        scale_gpushare: (400, 8, 4_000),
        scale_rho_iters: 20,
        accuracy_floor: 0.15,
    };
}

/// Seconds of timed work one repetition is sized for.
pub const REP_SECONDS: u64 = 2;

/// Timed repetitions for a run of `seconds` (at least one).
pub fn reps_for(seconds: u64) -> usize {
    (seconds / REP_SECONDS).max(1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for name in Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(LAYERS.iter().map(|m| m.name))
        {
            assert!(well_formed(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{w:?}");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(LAYERS.iter().map(|m| m.unit))
        {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
        }
    }

    #[test]
    fn universal_metrics_cover_every_workload_and_bounds_are_in_range() {
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(!m.on.is_empty());
        }
        let named = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap();
        assert!(named("setup_s").universal());
        assert_eq!(bound_on(named("final_accuracy"), SimHl3), 0.01);
        assert_eq!(bound_on(named("final_accuracy"), ProcessTcp), 0.05);
        assert!(LAYERS.len() <= 128);
        assert_eq!(reps_for(10), 5);
        assert_eq!(reps_for(1), 1);
    }

    /// `BENCHMARK.json` restates this catalogue for the gate: same
    /// workloads, the universal end-to-end metrics with the same units,
    /// directions and bounds, and every per-layer metric.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let file: crate::report::BenchmarkFile = serde_json::from_str(&text).expect("schema");

        assert_eq!(file, crate::report::BenchmarkFile::from_catalogue());
        assert_eq!(file.paths, ["crates/benchmark"]);
        assert!((1..=60).contains(&file.run_seconds));
    }
}
