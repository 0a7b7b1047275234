//! Figure 8: impact of the group size P (VGG-19 analog, HL = 1, constant
//! partial reduce).
//!
//! Sweeps P ∈ {2..8} and prints per-update time, #updates to the
//! threshold, and total run time — the paper's finding: per-update time
//! grows with P, #updates shrinks with P, and the product bottoms out at
//! intermediate P (they report minima at P = 3 and 5).
//!
//! Run: `cargo run --release -p preduce-bench --bin fig8_group_size`

#![forbid(unsafe_code)]

use preduce_bench::configs::table1_config;
use preduce_bench::output::TableWriter;
use preduce_models::zoo;
use preduce_trainer::{run_experiment, Strategy};

fn main() {
    let config = table1_config(zoo::vgg19(), 1);
    println!(
        "Fig 8: P-Reduce CON on vgg19 analog, HL = 1, N = {}, threshold = {:.2}\n",
        config.num_workers, config.threshold
    );

    let t = TableWriter::new(
        &[
            "P",
            "per-update (s)",
            "#updates",
            "run time (s)",
            "converged",
        ],
        &[3, 15, 9, 13, 9],
    );
    for p in 2..=config.num_workers {
        let r = run_experiment(Strategy::PReduce { p, dynamic: false }, &config);
        t.row(&[
            &p.to_string(),
            &format!("{:.3}", r.per_update_time()),
            &r.updates.to_string(),
            &format!("{:.1}", r.run_time),
            &r.converged.to_string(),
        ]);
    }
    println!("\n(All-Reduce is the P = N row.)");
}
