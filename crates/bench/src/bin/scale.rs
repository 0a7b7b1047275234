//! Scale-campaign bench: the control plane at N = 10³–10⁴ workers.
//!
//! Drives the signal-level scale harness ([`preduce_trainer::run_scale`])
//! across fleet sizes N ∈ {1 000, 4 000, 10 000} and the standard
//! heterogeneity presets, and writes `BENCH_scale.json` (to the current
//! directory — run from the workspace root) with, per run:
//!
//! * controller throughput (ready signals per wall-clock second) with
//!   every trace event checked live by the streaming invariant checker;
//! * group-formation latency in virtual fleet seconds (mean / max);
//! * the measured schedule's `ρ` (matrix-free power iteration over a
//!   reservoir sample of formed groups) against the homogeneous
//!   closed form `ρ_uniform`, plus both Theorem 1 error coefficients
//!   `ρ̄ = ρ/(1−ρ) + 2√ρ/(1−√ρ)²`;
//! * the Eq. 9 dynamic-weight spread heterogeneity induces;
//! * windowed union-find work counters (merges / rebuilds);
//! * peak heap bytes for the run, measured by [`CountingAlloc`]
//!   installed as this binary's global allocator.
//!
//! Run: `cargo run --release -p preduce-bench --bin scale`
//! (set `PREDUCE_QUICK=1` to drop to N = 1 000 and fewer signals)

use preduce_bench::configs::quick_mode;
use preduce_tensor::CountingAlloc;
use preduce_trainer::{run_scale, ScaleConfig, ScaleReport};
use serde::Serialize;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[derive(Serialize)]
struct ScaleRun {
    /// Heterogeneity preset the fleet ran under.
    preset: String,
    /// Peak heap bytes over the run (global-allocator high-water mark).
    peak_alloc_bytes: usize,
    #[serde(flatten)]
    report: ScaleReport,
}

#[derive(Serialize)]
struct ScaleBench {
    bench: &'static str,
    generated_by: &'static str,
    quick: bool,
    runs: usize,
    results: Vec<ScaleRun>,
}

fn one_run(n: usize, p: usize, signals: u64, preset: &str) -> ScaleRun {
    let mut cfg = ScaleConfig::new(n, p, signals, preset);
    cfg.rho_iters = 100;
    ALLOC.reset_peak();
    let report = run_scale(&cfg);
    let peak = ALLOC.peak_bytes();
    assert_eq!(
        report.checker_violations, 0,
        "invariant violations at N={n} preset={preset}"
    );
    println!(
        "  N={n:>6} P={p:<3} {preset:<12} {:>10.0} signals/s  latency {:.2}/{:.2}s  \
         rho {} (uniform {:.4})  spread {:.4}  rebuilds {}  peak {:.1} MiB",
        report.signals_per_sec,
        report.formation_latency_mean,
        report.formation_latency_max,
        report
            .rho_measured
            .map_or_else(|| "n/a".to_string(), |r| format!("{r:.4}")),
        report.rho_uniform_ref,
        report.weight_spread_max,
        report.connectivity.rebuilds,
        peak as f64 / (1 << 20) as f64
    );
    ScaleRun {
        preset: preset.to_string(),
        peak_alloc_bytes: peak,
        report,
    }
}

fn main() {
    let quick = quick_mode();
    // (N, P, signals): one full heterogeneity sweep at N = 1k, then the
    // uniform scaling ladder up to the 10k / million-signal headline.
    let grid: Vec<(usize, usize, u64, &str)> = if quick {
        vec![
            (1_000, 8, 20_000, "uniform"),
            (1_000, 8, 20_000, "gpu-sharing"),
            (1_000, 8, 20_000, "markov"),
        ]
    } else {
        vec![
            (1_000, 8, 100_000, "uniform"),
            (1_000, 8, 100_000, "gpu-sharing"),
            (1_000, 8, 100_000, "markov"),
            (4_000, 8, 400_000, "uniform"),
            (4_000, 8, 400_000, "gpu-sharing"),
            (10_000, 16, 1_000_000, "uniform"),
        ]
    };
    println!(
        "scale bench: {} runs up to N={} (quick mode = {quick})",
        grid.len(),
        grid.iter().map(|g| g.0).max().unwrap_or(0)
    );

    let results: Vec<ScaleRun> = grid
        .iter()
        .map(|&(n, p, signals, preset)| one_run(n, p, signals, preset))
        .collect();

    let out = ScaleBench {
        bench: "scale",
        generated_by: "cargo run --release -p preduce-bench --bin scale",
        quick,
        runs: results.len(),
        results,
    };
    let json = serde_json::to_string_pretty(&out).expect("bench report serializes");
    std::fs::write("BENCH_scale.json", json).expect("write BENCH_scale.json");
    println!("wrote BENCH_scale.json");
}
