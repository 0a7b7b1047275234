//! Calibration probe: trains All-Reduce on each dataset preset and prints
//! the accuracy trajectory of the averaged model. Used to pick the
//! convergence thresholds recorded in EXPERIMENTS.md (the synthetic
//! presets' analog of the paper's 90%/70% CIFAR thresholds).
//!
//! Run: `cargo run --release -p preduce-bench --bin calibrate`

#![forbid(unsafe_code)]

use preduce_bench::configs::{imagenet_config, production_config, table1_config};
use preduce_models::zoo;
use preduce_trainer::{run_experiment, Strategy};

fn main() {
    let mut probes = vec![
        ("cifar10-like / resnet34", {
            let mut c = table1_config(zoo::resnet34(), 1);
            c.threshold = 0.999;
            c.max_updates = 1500;
            c.eval_every = 50;
            c
        }),
        ("cifar100-like / resnet34 (16w)", {
            let mut c = production_config(16);
            c.threshold = 0.999;
            c.max_updates = 4000;
            c.eval_every = 400;
            c
        }),
        ("imagenet-like / resnet18 (32w)", {
            let mut c = imagenet_config(zoo::resnet18(), 32);
            c.threshold = 0.999;
            c.max_updates = 2500;
            c.eval_every = 250;
            c
        }),
    ];

    let only: Option<usize> = std::env::var("PROBE").ok().and_then(|v| v.parse().ok());
    for (i, (name, config)) in probes.drain(..).enumerate() {
        if let Some(idx) = only {
            if i != idx {
                continue;
            }
        }
        println!("== {name} ==");
        let r = run_experiment(Strategy::AllReduce, &config);
        for p in &r.trace {
            println!(
                "  updates={:>6}  t={:>9.1}s  acc={:.4}",
                p.updates, p.time, p.accuracy
            );
        }
        println!("  final: {:.4}\n", r.final_accuracy);
    }
}
