//! The six workloads. Each module restates its configuration, runs one
//! discarded warm-up and `ctx.reps` timed repetitions through public entry
//! points of the crates under measurement, checks the outputs, and files
//! its metrics into an [`Outcome`].

pub mod process_tcp;
pub mod scale;
pub mod sim_hl3;
pub mod storm_tcp;
pub mod threaded_hl2;

use preduce_data::cifar10_like;
use preduce_models::zoo::{CostProfile, ModelZooEntry};
use preduce_trainer::ExperimentConfig;

use crate::catalog::Workload;
use crate::harness::{Ctx, Outcome};

/// Runs `workload` under `ctx`.
pub fn run(workload: Workload, ctx: &Ctx) -> Outcome {
    match workload {
        Workload::SimHl3 => sim_hl3::run(ctx),
        Workload::ThreadedHl2 => threaded_hl2::run(ctx),
        Workload::ProcessTcp => process_tcp::run(ctx),
        Workload::StormTcp => storm_tcp::run(ctx),
        Workload::ScaleUniform | Workload::ScaleGpushare => scale::run(workload, ctx),
    }
}

/// The Table-1 statistical calibration (EXPERIMENTS.md), restated here so
/// the benchmark does not move when a bench binary's defaults do: math
/// batch 8, learning rate 0.03, 5 % training-label noise, evaluation every
/// 32 updates, threshold 0.84 on the cifar10-like preset.
pub fn table1_calibration(model: ModelZooEntry, hl: usize, seed: u64) -> ExperimentConfig {
    let mut c = ExperimentConfig::table1(model, cifar10_like(), hl);
    c.threshold = ACCURACY_THRESHOLD;
    c.math_batch_size = 8;
    c.sgd.lr = 0.03;
    c.label_noise = 0.05;
    c.eval_every = 32;
    c.seed = seed;
    c
}

/// The accuracy threshold of the cifar10-like preset.
pub const ACCURACY_THRESHOLD: f64 = 0.84;

/// The wide analog of the real-time workloads: two hidden layers of 256
/// (≈ 84 k parameters on the 64-feature preset), so the data plane moves
/// enough bytes per round to register next to the control plane.
pub fn wide_analog() -> ModelZooEntry {
    ModelZooEntry {
        name: "wide256".into(),
        hidden: vec![256, 256],
        // Only the virtual-time simulator reads the cost profile; the
        // real-time workloads that use this analog never do.
        profile: CostProfile {
            param_count: 20_000_000,
            flops_per_example: 1.2e9,
        },
    }
}

/// The configuration of the two real-time training workloads: the wide
/// analog under the Table-1 calibration, `n` workers. HL=1 keeps the
/// config's own (simulator-only) heterogeneity regime uniform; what
/// heterogeneity there is comes from injected device times.
pub fn wide_config(n: usize, seed: u64) -> ExperimentConfig {
    let mut c = table1_calibration(wide_analog(), 1, seed);
    c.num_workers = n;
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Sizes, END_TO_END, LAYERS};
    use crate::report::{GateLine, WorkloadReport};
    use std::collections::BTreeSet;

    /// Metrics whose value needs more samples than the smoke preset
    /// produces: a p95 is reported only with ten samples beyond it.
    const NEEDS_FULL_SIZE: &[&str] = &[
        "wave_p95_ms",
        "core.runtime.queue_wait_us_p95",
        "core.runtime.reduce_us_p95",
    ];

    /// All six workloads end to end at smoke size, both passes: every
    /// output check holds, each workload reports exactly the metrics the
    /// catalogue lists it under, and the gate's line carries every metric
    /// of `BENCHMARK.json`.
    #[test]
    fn smoke_preset_runs_every_workload_and_reports_its_catalogue() {
        for traced in [false, true] {
            let ctx = Ctx {
                seed: 7,
                reps: 2,
                sizes: Sizes::SMOKE,
                traced,
            };
            for workload in Workload::ALL {
                let outcome = run(workload, &ctx);
                assert!(
                    outcome.correct(),
                    "{} (traced: {traced}): {:?}",
                    workload.name(),
                    outcome.tally.failures
                );
                assert!(outcome.tally.attempted > 0);

                let report = WorkloadReport::of(&outcome);
                let expected: BTreeSet<&str> = END_TO_END
                    .iter()
                    .filter(|m| m.on.contains(&workload))
                    .map(|m| m.name)
                    .filter(|n| !NEEDS_FULL_SIZE.contains(n))
                    .collect();
                let got: BTreeSet<&str> = outcome
                    .end_to_end
                    .keys()
                    .copied()
                    .filter(|n| !NEEDS_FULL_SIZE.contains(n))
                    .collect();
                assert_eq!(got, expected, "{} end-to-end", workload.name());
                // A smoke repetition can be shorter than the CPU clock's
                // 10 ms tick, so its CPU reading may be 0.
                assert!(report
                    .end_to_end
                    .iter()
                    .all(|(name, m)| m.summary.value > 0.0 || name == "cpu_us_per_round"));

                let line = GateLine::of(&outcome, traced);
                if traced {
                    let expected: BTreeSet<&str> = LAYERS
                        .iter()
                        .filter(|m| m.on.contains(&workload))
                        .map(|m| m.name)
                        .filter(|n| !NEEDS_FULL_SIZE.contains(n))
                        .collect();
                    let got: BTreeSet<&str> = outcome
                        .layers
                        .keys()
                        .copied()
                        .filter(|n| !NEEDS_FULL_SIZE.contains(n))
                        .collect();
                    assert_eq!(got, expected, "{} per-layer", workload.name());
                    assert_eq!(line.metrics.len(), LAYERS.len());
                    assert!(!outcome.spans.spans().is_empty());
                } else {
                    let universal = END_TO_END.iter().filter(|m| m.universal()).count();
                    assert_eq!(line.metrics.len(), universal);
                    assert!(line
                        .metrics
                        .iter()
                        .all(|(name, m)| m.value > 0.0 || name == "cpu_us_per_round"));
                }
                assert!(line.correct && line.failed == 0 && line.attempted >= 1);
            }
        }
    }
}
