//! `sim-hl3`: P-Reduce (P=3, dynamic weights) on the deterministic
//! virtual-time simulator, N=8 under HL=3 GPU sharing, to the accuracy
//! threshold, for the ResNet-34 and VGG-19 analogs.

use std::sync::Arc;

use partial_reduce::{InvariantChecker, NullSink, TraceSink};
use preduce_models::zoo;
use preduce_trainer::engine::{driver_for, SimSubstrate};
use preduce_trainer::{ExperimentConfig, RunResult, Strategy};

use super::{table1_calibration, ACCURACY_THRESHOLD};
use crate::catalog::Workload;
use crate::harness::{timed, Ctx, Meter, Outcome};
use crate::probes;
use crate::stamping::rep_sink;
use crate::stats::{median, Summary};

/// Group size of the measured strategy.
const P: usize = 3;

fn strategy() -> Strategy {
    Strategy::PReduce {
        p: P,
        dynamic: true,
    }
}

/// The configuration of one simulated run.
pub fn config(model: zoo::ModelZooEntry, seed: u64, max_updates: u64) -> ExperimentConfig {
    let mut c = table1_calibration(model, 3, seed);
    c.max_updates = max_updates;
    c
}

/// Config seeds the sweep draws from: 1..=139 without the seeds on which
/// either analog needed more than 1 000 updates when the benchmark was
/// defined. The data generator draws some mixtures whose plateau sits at
/// or below the 0.84 threshold (12 and 92 never reach it on either
/// analog); on those a run measures the update cap, not training. The
/// kept seeds converge in 256–992 updates, well inside the cap.
const SEED_POOL: [u64; 120] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28,
    29, 30, 31, 32, 33, 34, 35, 36, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53,
    54, 55, 56, 57, 58, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 72, 73, 74, 76, 77, 78, 79, 80,
    81, 82, 84, 85, 86, 87, 88, 89, 90, 91, 93, 94, 95, 96, 97, 98, 99, 101, 102, 103, 104, 105,
    106, 107, 108, 109, 110, 111, 113, 114, 115, 116, 117, 118, 119, 120, 121, 122, 123, 124, 125,
    126, 127, 129, 130, 132,
];

/// The `k`-th config seed of repetition `rep`: the benchmark seed picks
/// where in the pool the sweep starts; repetitions take consecutive,
/// disjoint stretches from there.
fn sweep_seed(ctx: &Ctx, rep: usize, k: u64) -> u64 {
    let start = ctx.seed.wrapping_mul(7_919) % SEED_POOL.len() as u64;
    let offset = rep as u64 * ctx.sizes.sim_seeds_per_rep + k;
    SEED_POOL[((start + offset) % SEED_POOL.len() as u64) as usize]
}

struct SeedRun {
    setup_s: f64,
    wall_s: f64,
    result: RunResult,
}

fn run_one(cfg: &ExperimentConfig, sink: Arc<dyn TraceSink>) -> SeedRun {
    // `engine::run` is exactly these two calls; splitting them separates
    // fleet construction (set-up) from the simulated training.
    let (setup_s, substrate) = timed(|| SimSubstrate::new(cfg).with_sink(sink));
    let (wall_s, result) = timed(|| driver_for(strategy()).drive_sim(substrate));
    SeedRun {
        setup_s,
        wall_s,
        result,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(Workload::SimHl3);
    let models = [zoo::resnet34(), zoo::vgg19()];
    let mut meter = Meter::default();
    let mut setups = Vec::new();
    let mut tta_per_seed = Vec::new();
    let mut accuracies = Vec::new();
    let mut total_updates = 0u64;

    // Warm-up: repetition 0's first seed, kept to check that one seed run
    // twice gives a bit-identical trajectory.
    let warm_cfg = config(
        models[0].clone(),
        sweep_seed(ctx, 0, 0),
        ctx.sizes.sim_max_updates,
    );
    let warm = run_one(&warm_cfg, Arc::new(NullSink));

    for rep in 0..ctx.reps {
        let traced = ctx.rep_is_traced(rep);
        let clock = meter.start();
        // Each run's own rate, averaged: the two analogs cost differently
        // per round, and pooling rounds over wall time would let the mix
        // of update counts, which the seed decides, move the rate.
        let mut rates = Vec::new();
        let mut rounds = 0.0;
        for k in 0..ctx.sizes.sim_seeds_per_rep {
            let mut tta_sum = Some(0.0);
            for model in &models {
                let cfg = config(
                    model.clone(),
                    sweep_seed(ctx, rep, k),
                    ctx.sizes.sim_max_updates,
                );
                let (stamping, sink) = rep_sink(traced);
                let run = run_one(&cfg, sink);
                setups.push(run.setup_s);
                let run_rounds = (run.result.updates * P as u64) as f64;
                rates.push(run_rounds / run.wall_s);
                rounds += run_rounds;
                total_updates += run.result.updates;
                accuracies.push(run.result.final_accuracy);

                out.tally.attempt(1);
                let tta = run.result.time_to_accuracy(ACCURACY_THRESHOLD);
                out.tally.check(tta.is_some() && run.result.converged, || {
                    format!(
                        "{} seed {} missed {ACCURACY_THRESHOLD} within {} updates",
                        model.name, cfg.seed, cfg.max_updates
                    )
                });
                tta_sum = tta_sum.zip(tta).map(|(a, b)| a + b);

                if rep == 0 && k == 0 && model.name == models[0].name {
                    let same = run.result.run_time.to_bits() == warm.result.run_time.to_bits()
                        && run.result.updates == warm.result.updates;
                    out.tally.check(same, || {
                        format!(
                            "seed {} is not deterministic: run_time {} then {}",
                            cfg.seed, warm.result.run_time, run.result.run_time
                        )
                    });
                }
                if let Some(s) = stamping {
                    let events: Vec<_> = s.take().into_iter().map(|(_, e)| e).collect();
                    let report = InvariantChecker::check(&events);
                    out.tally.fail(report.violations.len() as u64, || {
                        format!(
                            "seed {}: {} invariant violations",
                            cfg.seed,
                            report.violations.len()
                        )
                    });
                }
            }
            // One sample per seed: virtual seconds to bring both analogs
            // to the threshold.
            tta_per_seed.extend(tta_sum);
        }
        let rate = rates.iter().sum::<f64>() / rates.len() as f64;
        meter.finish_rated(clock, rounds, rate, traced);
    }

    out.file_common(ctx, &meter, &setups);
    if !tta_per_seed.is_empty() {
        out.end_to_end
            .insert("tta_virtual_s", Summary::exact(median(&tta_per_seed)));
    }
    let mean_accuracy = accuracies.iter().sum::<f64>() / accuracies.len() as f64;
    out.end_to_end
        .insert("final_accuracy", Summary::exact(mean_accuracy));
    out.counts.insert("updates", total_updates);

    if ctx.traced {
        probes::compute(&warm_cfg, &mut out);
        probes::sim_references(&warm_cfg, strategy(), &warm.result, warm.wall_s, &mut out);
    }
    out
}
