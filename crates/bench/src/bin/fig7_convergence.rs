//! Figure 7: convergence curves (test accuracy vs training time).
//!
//! (a) VGG-19 analog on cifar10-like, N = 8, HL = 3 — All-Reduce,
//!     Eager-Reduce, P-Reduce CON/DYN (P = 3).
//! (b) ResNet-34 analog on cifar100-like, 16 workers, production
//!     heterogeneity — All-Reduce vs P-Reduce CON/DYN.
//!
//! Prints `(time, accuracy)` series per method, ready for plotting.
//!
//! Run: `cargo run --release -p preduce-bench --bin fig7_convergence`

#![forbid(unsafe_code)]

use preduce_bench::configs::{production_config, table1_config};
use preduce_bench::output::maybe_dump_json;
use preduce_models::zoo;
use preduce_trainer::{run_experiment, RunResult, Strategy};

fn print_series(r: &RunResult) {
    println!("# {}", r.strategy);
    for p in &r.trace {
        println!("{:.2}\t{:.4}", p.time, p.accuracy);
    }
    println!();
}

fn main() {
    println!("== Fig 7(a): vgg19 analog, cifar10-like, HL = 3 ==\n");
    let mut config = table1_config(zoo::vgg19(), 3);
    // Curves should extend past the threshold crossing: keep evaluating on
    // a generous cap and do not stop at the threshold.
    config.threshold = 0.999;
    let ar_rounds: u64 = if preduce_bench::quick_mode() {
        400
    } else {
        1_000
    };
    let mut results = Vec::new();
    for s in [
        Strategy::AllReduce,
        Strategy::EagerReduce,
        Strategy::PReduce {
            p: 3,
            dynamic: false,
        },
        Strategy::PReduce {
            p: 3,
            dynamic: true,
        },
    ] {
        let mut config = config.clone();
        // Equal gradient budgets: an AR/ER round consumes N gradients, a
        // P-Reduce group consumes P.
        config.max_updates = match s {
            Strategy::PReduce { p, .. } => ar_rounds * 8 / p as u64,
            _ => ar_rounds,
        };
        config.eval_every = (config.max_updates / 25).max(1);
        let r = run_experiment(s, &config);
        print_series(&r);
        results.push(r);
    }
    maybe_dump_json("fig7a_vgg19_hl3", &results);

    println!(
        "== Fig 7(b): resnet34 analog, cifar100-like, 16 workers, production heterogeneity ==\n"
    );
    let base = production_config(16);
    let ar_rounds: u64 = if preduce_bench::quick_mode() {
        400
    } else {
        1_500
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
        let mut config = base.clone();
        config.threshold = 0.999;
        config.max_updates = match s {
            Strategy::PReduce { p, .. } => ar_rounds * 16 / p as u64,
            _ => ar_rounds,
        };
        config.eval_every = (config.max_updates / 25).max(1);
        let r = run_experiment(s, &config);
        print_series(&r);
        results.push(r);
    }
    maybe_dump_json("fig7b_production", &results);
}
