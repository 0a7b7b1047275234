//! Table 1 lineup on the *threaded* backend: every strategy executed on
//! real OS threads over the message-passing runtime instead of the
//! virtual-time simulator.
//!
//! Wall-clock numbers here are smoke-level (one machine, tiny models) —
//! the point is that the same [`engine::drivers`] state machines run on a
//! second substrate, not that the absolute times mirror the paper. Run
//! time is real seconds, `#updates` is the sum of per-worker local
//! iterations, and there is no convergence trace (the threaded backend
//! runs a fixed `--iters` budget).
//!
//! Run: `cargo run --release -p preduce-bench --bin table1_threaded`
//! (set `PREDUCE_QUICK=1` for fewer local iterations)

#![forbid(unsafe_code)]

use std::sync::Arc;

use partial_reduce::NullSink;
use preduce_bench::configs::{quick_mode, table1_config};
use preduce_bench::output::{maybe_dump_json, print_run_row};
use preduce_models::zoo;
use preduce_trainer::{engine, Backend, Strategy};

fn main() {
    let quick = quick_mode();
    let iters: u64 = if quick { 8 } else { 40 };

    let mut config = table1_config(zoo::resnet18(), 1);
    config.threaded_iters = Some(iters);

    println!(
        "Table 1 lineup on the threaded backend (N = {}, {iters} local updates per worker)",
        config.num_workers
    );
    println!("quick mode = {quick}\n");

    let mut results = Vec::new();
    for s in Strategy::table1_lineup(config.num_workers) {
        let run = engine::run(s, &config, Backend::Threaded, Arc::new(NullSink));
        print_run_row(&run.result);
        results.push(run.result);
    }
    maybe_dump_json("table1_threaded", &results);
}
