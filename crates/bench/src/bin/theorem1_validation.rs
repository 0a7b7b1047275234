//! Empirical validation of Theorem 1's qualitative predictions.
//!
//! The bound (Eq. 8) on `(1/K)·Σ‖∇F(u_k)‖²` says, at a fixed effective
//! learning rate:
//!
//! 1. the SGD-error plateau scales like `ηLσ²/P` — **larger P ⇒ lower
//!    gradient-norm plateau** (more averaging per reduce);
//! 2. the network-error term scales with `ρ̄` — **more heterogeneity ⇒
//!    higher plateau** at the same P.
//!
//! This binary trains partial reduce on the cifar10-like task with
//! gradient-norm tracking and reports the plateau (mean of the last 25 %
//! of trace points) across P and across heterogeneity levels.
//!
//! Run: `cargo run --release -p preduce-bench --bin theorem1_validation`

#![forbid(unsafe_code)]

use preduce_bench::configs::table1_config;
use preduce_bench::output::TableWriter;
use preduce_models::zoo;
use preduce_trainer::{run_experiment, RunResult, Strategy};

fn plateau(r: &RunResult) -> f64 {
    let norms: Vec<f64> = r.trace.iter().filter_map(|p| p.grad_norm_sq).collect();
    assert!(!norms.is_empty(), "run did not track gradient norms");
    let tail = &norms[norms.len() - norms.len() / 4 - 1..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

fn main() {
    let budget_grads: u64 = if preduce_bench::quick_mode() {
        4_000
    } else {
        16_000
    };

    println!("Theorem 1 validation: gradient-norm plateau of the averaged model\n");

    // Prediction 1: plateau falls with P at fixed effective step size.
    println!("plateau vs P (homogeneous fleet, equal gradient budget):");
    let t = TableWriter::new(&["P", "mean ||grad F||^2 (tail)"], &[4, 26]);
    for p in [2usize, 4, 8] {
        let mut c = table1_config(zoo::resnet34(), 1);
        c.track_grad_norm = true;
        c.threshold = 0.999;
        c.max_updates = budget_grads / p as u64;
        c.eval_every = (c.max_updates / 24).max(1);
        // Keep η = Pγ/N fixed across P (Theorem 1's comparison): γ ∝ 1/P.
        c.sgd.lr = 0.08 / p as f32;
        let r = run_experiment(Strategy::PReduce { p, dynamic: false }, &c);
        t.row(&[&p.to_string(), &format!("{:.5}", plateau(&r))]);
    }

    // Prediction 2: Assumption 2.3 requires a spectral gap (rho < 1) AND
    // Assumption 1.2 requires unbiased shards. A frozen schedule
    // (rho = 1) on IID shards merely wastes resources (two independent
    // trainings of the same objective), but on *non-IID* shards —
    // label-sorted, each isolated pair seeing only half the classes —
    // updates never spread and the averaged model cannot solve the task.
    println!("\nfrozen vs repaired schedule under non-IID (label-sorted) shards:");
    println!("(P = 2, adversarial two-speed fleet; each frozen pair sees half the classes)\n");
    let t = TableWriter::new(
        &["schedule", "rho", "final accuracy", "||grad F||^2 (tail)"],
        &[22, 6, 15, 22],
    );
    for (label, frozen_avoidance, rho) in [
        ("frozen (rho = 1)", false, "1.00"),
        ("repaired (rho < 1)", true, "<1"),
    ] {
        let mut c = table1_config(zoo::resnet34(), 1);
        c.num_workers = 4;
        c.track_grad_norm = true;
        c.threshold = 0.999;
        c.max_updates = budget_grads / 2;
        c.eval_every = (c.max_updates / 24).max(1);
        c.jitter = preduce_simnet::Jitter::None;
        c.hetero = preduce_trainer::HeteroSpec::Speed {
            multipliers: vec![1.0, 1.0, 1.7, 1.7],
        };
        c.shard_strategy = Some(preduce_data::ShardStrategy::ByLabel);
        let harness = preduce_trainer::sim::SimHarness::new(&c);
        let ctl = partial_reduce::ControllerConfig {
            num_workers: 4,
            group_size: 2,
            mode: partial_reduce::AggregationMode::Constant,
            history_window: None,
            frozen_avoidance,
        };
        let r = preduce_trainer::engine::drivers::preduce::run_preduce(harness, ctl);
        t.row(&[
            label,
            rho,
            &format!("{:.3}", r.final_accuracy),
            &format!("{:.5}", plateau(&r)),
        ]);
    }

    println!("\n(Expected from Eq. 8 + Assumption 1.2: plateau decreasing in P;");
    println!(" with rho = 1 and biased shards the fleet splits into two models");
    println!(" that each know half the classes — low accuracy, high grad norm.)");
}
