//! `threaded-hl2`: P-Reduce (P=4, dynamic weights) on eight real threads,
//! six at 2 ms and two at 4 ms of emulated device time per iteration, over
//! the in-process control channels and ring average.

use std::sync::Arc;
use std::time::Duration;

use partial_reduce::{NullSink, TraceSink};
use preduce_trainer::engine::setup::build_fleet;
use preduce_trainer::engine::{driver_for, ThreadedSubstrate};
use preduce_trainer::Strategy;

use super::wide_config;
use crate::catalog::Workload;
use crate::harness::{timed, Ctx, Meter, Outcome};
use crate::probes;
use crate::stamping::{rep_sink, Stamped};
use crate::stats::{median, Summary};

/// Fleet size.
pub const N: usize = 8;
/// Ranks below this compute at [`FAST`], the rest at [`SLOW`]: two
/// workers sharing one device, HL=2.
pub const FAST_RANKS: usize = 6;
const FAST: Duration = Duration::from_millis(2);
const SLOW: Duration = Duration::from_millis(4);

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(Workload::ThreadedHl2);
    let cfg = wide_config(N, ctx.seed);
    let iters = ctx.sizes.threaded_iters;
    let delays: Vec<Duration> = (0..N)
        .map(|rank| if rank < FAST_RANKS { FAST } else { SLOW })
        .collect();
    let driver = driver_for(Strategy::PReduce {
        p: 4,
        dynamic: true,
    });

    // Set-up is what `drive_threaded` does before its clock starts:
    // dataset synthesis and the fleet build. Timed on direct calls.
    let setups: Vec<f64> = (0..3).map(|_| timed(|| build_fleet(&cfg)).0).collect();

    let mut meter = Meter::default();
    let mut accuracies = Vec::new();
    let mut stamped = Stamped::default();
    let mut fast_rates = Vec::new();

    let run_rep = |sink: Arc<dyn TraceSink>| {
        let substrate = ThreadedSubstrate::new(&cfg, iters)
            .with_sink(sink)
            .with_delays(&delays);
        driver.drive_threaded(&substrate)
    };
    let _warm_up = run_rep(Arc::new(NullSink));

    for rep in 0..ctx.reps {
        let traced = ctx.rep_is_traced(rep);
        let (stamping, sink) = rep_sink(traced);
        let clock = meter.start();
        let report = run_rep(sink);
        // Rounds are the fixed budget; fast-forwarding only raises the
        // iteration *numbers* workers end on.
        meter.finish(
            clock,
            (N as u64 * iters) as f64,
            report.wall_seconds,
            traced,
        );
        accuracies.push(report.accuracy);

        out.tally.attempt(N as u64 * iters);
        let short = report.iterations.iter().filter(|&&i| i < iters).count();
        out.tally.fail(short as u64, || {
            format!(
                "{short} workers ended below {iters} iterations: {:?}",
                report.iterations
            )
        });
        out.tally
            .check(report.accuracy >= ctx.sizes.accuracy_floor, || {
                format!(
                    "accuracy {} below the floor {}",
                    report.accuracy, ctx.sizes.accuracy_floor
                )
            });
        match report.controller {
            Some(stats) => out
                .tally
                .fail(stats.evictions, || format!("{} evictions", stats.evictions)),
            None => out.tally.fail(1, || "no controller statistics".into()),
        }

        if let Some(s) = stamping {
            let paired = stamped.absorb(&s, &mut out);
            fast_rates.push(paired.rounds_per_s_of(0..FAST_RANKS));
        }
    }

    out.file_common(ctx, &meter, &setups);
    out.end_to_end
        .insert("final_accuracy", Summary::of(&accuracies));

    if ctx.traced {
        stamped.file(&mut out);
        if !fast_rates.is_empty() {
            out.layers
                .insert("core.runtime.fast_rounds_per_s", median(&fast_rates));
        }
        let params = probes::compute(&cfg, &mut out);
        probes::collectives(params, &mut out);
    }
    out
}
