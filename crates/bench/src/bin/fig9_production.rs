//! Figure 9: the production-cluster comparison (ResNet-34 analog on
//! cifar100-like, 16 workers, Markov-modulated heterogeneity).
//!
//! The paper reports P-Reduce ≈16.6× faster than All-Reduce per update and
//! ≈2× in total run time on Tencent's shared cluster. This binary prints
//! run time / #updates / per-update time plus per-update-time percentiles
//! (the distribution view motivating the figure).
//!
//! Run: `cargo run --release -p preduce-bench --bin fig9_production`

#![forbid(unsafe_code)]

use preduce_bench::configs::production_config;
use preduce_bench::output::{maybe_dump_json, print_run_row, TableWriter};
use preduce_trainer::{run_experiment, RunResult, Strategy};

fn main() {
    let config = production_config(16);
    println!(
        "Fig 9: production heterogeneity, resnet34 analog, cifar100-like, N = 16, threshold = {:.2}\n",
        config.threshold
    );

    let strategies = [
        Strategy::AllReduce,
        Strategy::PReduce {
            p: 4,
            dynamic: false,
        },
        Strategy::PReduce {
            p: 4,
            dynamic: true,
        },
    ];
    let mut results: Vec<RunResult> = Vec::new();
    for s in strategies {
        let r = run_experiment(s, &config);
        print_run_row(&r);
        results.push(r);
    }

    println!("\nper-update time distribution (seconds):");
    let t = TableWriter::new(&["method", "p10", "p50", "p90", "p99"], &[22, 9, 9, 9, 9]);
    for r in &results {
        let q = |x: f64| {
            r.per_update_percentile(x)
                .map(|v| format!("{v:.3}"))
                .unwrap_or_else(|| "-".into())
        };
        t.row(&[&r.strategy, &q(0.10), &q(0.50), &q(0.90), &q(0.99)]);
    }

    maybe_dump_json("fig9_production", &results);
    let ar = &results[0];
    let con = &results[1];
    println!(
        "\nspeedup of P-Reduce CON over All-Reduce: per-update {:.1}x, total run time {:.2}x",
        ar.per_update_time() / con.per_update_time(),
        ar.run_time / con.run_time,
    );
    println!("(paper: ~16.6x per-update, ~2x total)");
}
