//! The prototype system live: real worker threads, a real controller
//! thread, and the partial-reduce primitive over the in-process
//! message-passing fabric — the same architecture as the paper's
//! PyTorch + Gloo prototype (§4), rebuilt in Rust. The TCP control
//! plane runs as separate processes: `preduce controller` and
//! `preduce worker` (README.md).
//!
//! Run: `cargo run --release --example threaded_training`

use preduce::data::cifar10_like;
use preduce::models::zoo;
use std::sync::Arc;

use preduce::partial_reduce::NullSink;
use preduce::trainer::engine::{self, Backend};
use preduce::trainer::{ExperimentConfig, Strategy};

fn main() {
    let mut config = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
    config.num_workers = 6;
    config.sgd.lr = 0.05;
    let iters = 150;
    config.threaded_iters = Some(iters);
    let threaded = |strategy| engine::run(strategy, &config, Backend::Threaded, Arc::new(NullSink));

    println!("6 worker threads x {iters} local updates each, resnet18 analog on cifar10-like\n");

    for dynamic in [false, true] {
        let r = threaded(Strategy::PReduce { p: 3, dynamic });
        let stats = r.controller.expect("controller stats");
        println!(
            "threaded {}: wall {:>6.2}s  accuracy {:.3}  groups {}  repairs {}  drain singletons {}",
            r.result.strategy,
            r.result.run_time,
            r.result.final_accuracy,
            stats.groups_formed,
            stats.repairs,
            stats.singletons
        );
    }

    println!("\nNeither run takes a global barrier: a slow thread (CPU");
    println!("scheduling noise) delays only its own group. The baselines");
    println!("run on the simulator (`preduce run --backend sim`).");
}
