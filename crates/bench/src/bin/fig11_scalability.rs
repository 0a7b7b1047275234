//! Figure 11: scalability on the ImageNet-scale analogs — run-time speedup
//! vs worker count for All-Reduce, PS BK (a quarter of the fleet as
//! backups), and P-Reduce (P = 4).
//!
//! Speedup is training throughput (useful examples/second) relative to a
//! single worker, measured over a fixed update budget under production
//! heterogeneity (which grows no easier as N rises — the paper's point:
//! more workers ⇒ more exposure to stragglers for synchronous methods).
//!
//! Run: `cargo run --release -p preduce-bench --bin fig11_scalability`

#![forbid(unsafe_code)]

use preduce_bench::configs::imagenet_config;
use preduce_bench::output::TableWriter;
use preduce_models::zoo::{self, ModelZooEntry};
use preduce_trainer::{run_experiment, ExperimentConfig, Strategy};

/// Useful local SGD steps contributing to training for one run.
fn useful_samples(s: Strategy, n: usize, updates: u64) -> f64 {
    match s {
        // One AR/BSP round = N batches.
        Strategy::AllReduce | Strategy::PsBsp => (updates * n as u64) as f64,
        // BK drops the backups' work.
        Strategy::PsBackup { backups } => (updates * (n - backups) as u64) as f64,
        // One P-Reduce group = P members' local updates.
        Strategy::PReduce { p, .. } => (updates * p as u64) as f64,
        // One PS push / gossip exchange = one batch.
        _ => updates as f64,
    }
}

fn throughput(s: Strategy, config: &ExperimentConfig) -> f64 {
    let r = run_experiment(s, config);
    useful_samples(s, config.num_workers, r.updates) / r.run_time
}

fn single_worker_rate(model: &ModelZooEntry, budget: u64) -> f64 {
    let mut c = imagenet_config(model.clone(), 1);
    c.threshold = 0.999;
    c.max_updates = budget;
    c.eval_every = budget; // a single evaluation at the end
                           // A lone worker: All-Reduce degenerates to sequential SGD (no comm).
    throughput(Strategy::AllReduce, &c)
}

fn main() {
    let budget: u64 = if preduce_bench::quick_mode() {
        300
    } else {
        1_500
    };
    let worker_counts = [4usize, 8, 16, 32];

    for model in [zoo::resnet18(), zoo::vgg16()] {
        println!("== Fig 11: {} analog speedup ==\n", model.name);
        let base = single_worker_rate(&model, budget);

        let t = TableWriter::new(
            &["N", "All-Reduce", "PS BK (N/4)", "P-Reduce (P=4)"],
            &[4, 12, 12, 15],
        );
        t.row(&["1", "1.00", "1.00", "1.00"]);
        for &n in &worker_counts {
            let mut c = imagenet_config(model.clone(), n);
            c.threshold = 0.999;
            c.max_updates = budget;
            c.eval_every = budget;
            let ar = throughput(Strategy::AllReduce, &c) / base;
            let bk = throughput(
                Strategy::PsBackup {
                    backups: (n / 4).max(1),
                },
                &c,
            ) / base;
            let pr = throughput(
                Strategy::PReduce {
                    p: 4,
                    dynamic: false,
                },
                &c,
            ) / base;
            t.row(&[
                &n.to_string(),
                &format!("{ar:.2}"),
                &format!("{bk:.2}"),
                &format!("{pr:.2}"),
            ]);
        }
        println!();
    }
    println!("(paper: AR and BK flatten with N; P-Reduce keeps scaling, and");
    println!(" the compute-bound resnet18 scales better than the");
    println!(" communication-bound vgg16.)");
}
