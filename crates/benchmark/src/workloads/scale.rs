//! `scale-uniform` and `scale-gpushare`: the controller algorithm alone,
//! driven by `run_scale`'s signal-level simulation at N = 10⁴ (homogeneous)
//! and N = 4·10³ (GPU sharing). No tensors, no sockets, one thread.

use preduce_trainer::{run_scale, ScaleConfig, ScaleReport};

use crate::catalog::Workload;
use crate::harness::{timed, Ctx, Meter, Outcome};
use crate::replay;
use crate::stats::Summary;

/// The configuration of one repetition.
pub fn config(workload: Workload, ctx: &Ctx) -> ScaleConfig {
    let ((n, p, signals), preset) = match workload {
        Workload::ScaleGpushare => (ctx.sizes.scale_gpushare, "gpu-sharing"),
        _ => (ctx.sizes.scale_uniform, "uniform"),
    };
    let mut cfg = ScaleConfig::new(n, p, signals, preset);
    cfg.rho_iters = ctx.sizes.scale_rho_iters;
    cfg.seed = ctx.seed.wrapping_mul(0x9e37_79b9).wrapping_add(0xC0FFEE);
    cfg
}

/// The counts a seed fixes: every repetition, and the replay, must
/// reproduce them exactly.
fn decisions(r: &ScaleReport) -> (u64, u64, u64, u64) {
    (r.signals, r.groups, r.repairs, r.deferrals)
}

/// Runs the workload.
pub fn run(workload: Workload, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(workload);
    let cfg = config(workload, ctx);
    let mut meter = Meter::default();

    // Set-up is what `run_scale` builds before its clock starts: the
    // fleet model, the controller with its window, the first event per
    // worker. Timed on the replay's identical construction.
    let setups: Vec<f64> = (0..9)
        .map(|_| timed(|| replay::Replay::new(&cfg)).0)
        .collect();

    let warm = run_scale(&cfg);
    let mut reference: Option<ScaleReport> = None;

    for rep in 0..ctx.reps {
        let traced = ctx.rep_is_traced(rep);
        let clock = meter.start();
        if traced {
            // The traced counterpart of `run_scale` is the replay: the
            // same loop on the benchmark's own controller, with spans.
            let replayed = replay::Replay::new(&cfg).run(&cfg, &mut out);
            meter.finish(clock, replayed.signals as f64, replayed.wall_s, true);
            out.tally.attempt(replayed.signals);
            out.tally
                .check(replayed.decisions() == decisions(&warm), || {
                    format!(
                        "replay decided {:?}, run_scale {:?} (signals, groups, repairs, deferrals)",
                        replayed.decisions(),
                        decisions(&warm)
                    )
                });
            continue;
        }
        let report = run_scale(&cfg);
        meter.finish(clock, report.signals as f64, report.wall_seconds, false);
        out.tally.attempt(report.signals);
        out.tally.check(report.signals == cfg.signals, || {
            format!("{} of {} signals processed", report.signals, cfg.signals)
        });
        out.tally.fail(report.checker_violations as u64, || {
            format!("{} invariant violations", report.checker_violations)
        });
        out.tally.check(decisions(&report) == decisions(&warm), || {
            format!(
                "decisions differ between two runs of one seed: {:?} then {:?}",
                decisions(&warm),
                decisions(&report)
            )
        });
        reference.get_or_insert(report);
    }

    let report = reference.unwrap_or(warm);
    out.file_common(ctx, &meter, &setups);
    out.end_to_end.insert(
        "queue_wait_virtual_s",
        Summary::exact(report.formation_latency_mean),
    );
    match report.rho_bar_measured.zip(report.rho_bar_uniform) {
        Some((measured, uniform)) if uniform > 0.0 => {
            out.end_to_end
                .insert("rho_bar_ratio", Summary::exact(measured / uniform));
        }
        _ => out.tally.fail(1, || {
            format!(
                "rho_bar not estimable: measured {:?}, uniform {:?}",
                report.rho_bar_measured, report.rho_bar_uniform
            )
        }),
    }
    out.counts.insert("signals", report.signals);
    out.counts.insert("groups", report.groups);
    out.counts.insert("repairs", report.repairs);
    out.counts.insert("deferrals", report.deferrals);
    out.counts.insert("merges", report.connectivity.merges);
    out.counts.insert("rebuilds", report.connectivity.rebuilds);
    out
}
