//! Sweep the heterogeneity level (how many of 8 workers share one GPU)
//! and watch each method's per-update time respond — the essence of
//! Table 1 in one picture.
//!
//! Run: `cargo run --release --example heterogeneity_sweep`

use preduce::data::cifar10_like;
use preduce::models::zoo;
use preduce::trainer::{run_experiment, ExperimentConfig, Strategy};

fn main() {
    let strategies = [
        Strategy::AllReduce,
        Strategy::PsBsp,
        Strategy::PsAsp,
        Strategy::PsBackup { backups: 3 },
        Strategy::PReduce {
            p: 3,
            dynamic: false,
        },
    ];

    println!("per-update time (seconds) vs heterogeneity level, resnet34 analog, N = 8");
    print!("{:<4}", "HL");
    for s in &strategies {
        print!("{:>20}", s.label());
    }
    println!();

    for hl in 1..=4usize {
        let mut config = ExperimentConfig::table1(zoo::resnet34(), cifar10_like(), hl);
        // Hardware-efficiency sweep: fixed update budget, no threshold.
        config.threshold = 0.999;
        config.max_updates = 600;
        config.eval_every = 600;

        print!("{hl:<4}");
        for s in &strategies {
            let r = run_experiment(*s, &config);
            print!("{:>20.3}", r.per_update_time());
        }
        println!();
    }

    println!("\nSynchronous methods (AR, BSP) degrade with HL because the barrier");
    println!("waits for the shared GPU; P-Reduce's group of 3 keeps its per-update");
    println!("time nearly flat. ASP is flat too — but pays in statistical");
    println!("efficiency (see `cargo run --release -p preduce-cli -- reproduce table1`).");
}
