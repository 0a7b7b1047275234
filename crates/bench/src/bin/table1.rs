//! Table 1: end-to-end comparison on the CIFAR10-like task.
//!
//! For each model (ResNet-34 / VGG-19 / DenseNet-121 analogs) and
//! heterogeneity level, runs every baseline plus P-Reduce CON/DYN at
//! P ∈ {3, 5} and prints run time, #updates, and per-update time — the
//! same three metrics as the paper's Table 1.
//!
//! Run: `cargo run --release -p preduce-bench --bin table1`
//! (set `PREDUCE_QUICK=1` for a reduced-scale smoke run)

#![forbid(unsafe_code)]

use preduce_bench::configs::{quick_mode, table1_config};
use preduce_bench::output::{maybe_dump_json, print_run_row};
use preduce_models::zoo;
use preduce_trainer::{run_experiment, Strategy};

fn main() {
    let models = [
        (zoo::resnet34(), vec![1usize, 3]),
        (zoo::vgg19(), vec![1, 3]),
        (zoo::densenet121(), vec![1, 2]),
    ];
    let quick = quick_mode();

    println!("Table 1: end-to-end comparison on cifar10-like (N = 8)");
    println!(
        "threshold = {:.2}, quick mode = {quick}\n",
        table1_config(zoo::resnet34(), 1).threshold
    );

    for (model, hls) in models {
        for hl in hls {
            println!("=== {}  (HL = {hl}) ===", model.name);
            let config = table1_config(model.clone(), hl);
            let lineup = Strategy::table1_lineup(config.num_workers);
            let mut results = Vec::new();
            for s in lineup {
                let r = run_experiment(s, &config);
                print_run_row(&r);
                results.push(r);
            }
            maybe_dump_json(&format!("table1_{}_hl{hl}", model.name), &results);
            println!();
        }
    }
}
