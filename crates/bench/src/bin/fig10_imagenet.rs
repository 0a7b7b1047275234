//! Figure 10: convergence on the ImageNet-scale analog workloads
//! (ResNet-18 and VGG-16), 32 workers, production heterogeneity.
//!
//! Prints `(time, accuracy)` curves for All-Reduce vs P-Reduce (P = 4) —
//! the paper's finding: P-Reduce reaches the same terminal accuracy with a
//! much faster time axis.
//!
//! Run: `cargo run --release -p preduce-bench --bin fig10_imagenet`

#![forbid(unsafe_code)]

use preduce_bench::configs::imagenet_config;
use preduce_bench::output::maybe_dump_json;
use preduce_models::zoo;
use preduce_trainer::{run_experiment, RunResult, Strategy};

fn print_series(r: &RunResult) {
    println!("# {}", r.strategy);
    for p in &r.trace {
        println!("{:.2}\t{:.4}", p.time, p.accuracy);
    }
    println!(
        "# final accuracy {:.4} after {:.1}s / {} updates\n",
        r.final_accuracy, r.run_time, r.updates
    );
}

fn main() {
    for model in [zoo::resnet18(), zoo::vgg16()] {
        println!(
            "== Fig 10: {} analog on imagenet-like, 32 workers ==\n",
            model.name
        );
        let base_config = imagenet_config(model, 32);
        // Equal *gradient* budgets per strategy: one AR round consumes 32
        // local gradients, one P-Reduce (P=4) group consumes 4, so the
        // update caps differ by N/P to trace comparable spans of work.
        let ar_rounds: u64 = if preduce_bench::quick_mode() {
            400
        } else {
            2_500
        };
        let mut results = Vec::new();
        for s in [
            Strategy::AllReduce,
            Strategy::PReduce {
                p: 4,
                dynamic: false,
            },
            Strategy::PReduce {
                p: 4,
                dynamic: true,
            },
        ] {
            let mut config = base_config.clone();
            config.threshold = 0.999; // run to the cap to trace the plateau
            config.max_updates = match s {
                Strategy::AllReduce => ar_rounds,
                _ => ar_rounds * 32 / 4,
            };
            config.eval_every = config.max_updates / 20;
            let r = run_experiment(s, &config);
            print_series(&r);
            results.push(r);
        }
        maybe_dump_json(&format!("fig10_{}", base_config.model.name), &results);
    }
}
