//! Ablation studies for the design choices called out in DESIGN.md §5:
//!
//! 1. **Model averaging vs gradient aggregation** — P-Reduce CON vs
//!    Eager-Reduce under identical conditions (the paper's §5.2.2
//!    explanation of why ER fails).
//! 2. **Dynamic vs constant weights** across rising heterogeneity.
//! 3. **Group-frozen avoidance on/off** under an adversarial arrival
//!    pattern (two deterministic speed classes that FIFO-pair forever).
//! 4. **EMA decay α sensitivity** for dynamic partial reduce.
//!
//! Run: `cargo run --release -p preduce-bench --bin ablations`

#![forbid(unsafe_code)]

use partial_reduce::{
    expected_sync_matrix, spectral_gap, AggregationMode, ControllerConfig, GapPolicy,
};
use preduce_bench::configs::table1_config;
use preduce_bench::output::{print_run_row, TableWriter};
use preduce_models::zoo;
use preduce_trainer::engine::drivers::preduce::run_preduce;
use preduce_trainer::sim::SimHarness;
use preduce_trainer::{run_experiment, HeteroSpec, Strategy};

fn main() {
    ablation_model_vs_gradient();
    ablation_dynamic_weights();
    ablation_frozen_avoidance();
    ablation_alpha();
    ablation_overlap();
}

/// The paper's future-work discussion (§4): DDP-style overlap needs a
/// fixed communication world, so All-Reduce gets it and partial reduce
/// does not. Does P-Reduce's advantage survive a fully-overlapped AR?
fn ablation_overlap() {
    println!("== Ablation 5: granting All-Reduce comm/compute overlap (HL = 3) ==\n");
    let t = TableWriter::new(
        &["AR overlap", "AR run time", "P-Reduce CON (P=3)"],
        &[10, 12, 18],
    );
    for overlap in [0.0f64, 0.5, 1.0] {
        let mut config = table1_config(zoo::resnet34(), 3);
        config.overlap_fraction = overlap;
        let ar = run_experiment(Strategy::AllReduce, &config);
        let pr = run_experiment(
            Strategy::PReduce {
                p: 3,
                dynamic: false,
            },
            &config,
        );
        t.row(&[
            &format!("{:.0}%", overlap * 100.0),
            &format!("{:.1}s", ar.run_time),
            &format!("{:.1}s", pr.run_time),
        ]);
    }
    println!("\n(Even a perfectly-overlapped AR still pays the straggler barrier:");
    println!(" the advantage of partial reduce is waiting, not wire time.)\n");
}

fn ablation_model_vs_gradient() {
    println!("== Ablation 1: model averaging (P-Reduce) vs gradient aggregation (Eager-Reduce), HL = 3 ==\n");
    let config = table1_config(zoo::resnet34(), 3);
    for s in [
        Strategy::PReduce {
            p: 3,
            dynamic: false,
        },
        Strategy::EagerReduce,
    ] {
        let r = run_experiment(s, &config);
        print_run_row(&r);
    }
    println!();
}

fn ablation_dynamic_weights() {
    println!("== Ablation 2: constant vs dynamic weights as heterogeneity rises ==\n");
    let t = TableWriter::new(
        &["HL", "CON #updates", "DYN #updates", "CON time", "DYN time"],
        &[4, 13, 13, 10, 10],
    );
    for hl in [1usize, 2, 3, 4] {
        let config = table1_config(zoo::resnet34(), hl);
        let con = run_experiment(
            Strategy::PReduce {
                p: 3,
                dynamic: false,
            },
            &config,
        );
        let dyn_ = run_experiment(
            Strategy::PReduce {
                p: 3,
                dynamic: true,
            },
            &config,
        );
        t.row(&[
            &hl.to_string(),
            &con.updates.to_string(),
            &dyn_.updates.to_string(),
            &format!("{:.1}s", con.run_time),
            &format!("{:.1}s", dyn_.run_time),
        ]);
    }
    println!();
}

fn ablation_frozen_avoidance() {
    println!("== Ablation 3: group-frozen avoidance on/off ==\n");
    println!("Adversarial fleet: two deterministic speed classes (workers 0-1 fast, 2-3 at 1.7x),");
    println!("no jitter, P = 2: FIFO pairing freezes into (0,1)/(2,3) without the filter.\n");

    for frozen_avoidance in [false, true] {
        let mut config = table1_config(zoo::resnet34(), 1);
        config.num_workers = 4;
        config.jitter = preduce_simnet::Jitter::None;
        config.hetero = HeteroSpec::Speed {
            multipliers: vec![1.0, 1.0, 1.7, 1.7],
        };
        config.max_updates = config.max_updates.min(20_000);

        let harness = SimHarness::new(&config);
        let ctl = ControllerConfig {
            num_workers: 4,
            group_size: 2,
            mode: AggregationMode::Constant,
            history_window: None,
            frozen_avoidance,
        };
        let r = run_preduce(harness, ctl);
        // Recover the schedule's spectral gap by re-simulating the groups
        // is overkill here; report convergence + updates instead.
        println!(
            "frozen_avoidance={frozen_avoidance}: converged={} updates={} time={:.1}s acc={:.3}",
            r.converged, r.updates, r.run_time, r.final_accuracy
        );
    }

    // The spectral view of the same phenomenon.
    let frozen = expected_sync_matrix(4, &[vec![0, 1], vec![2, 3]]);
    let repaired = expected_sync_matrix(4, &[vec![0, 1], vec![2, 3], vec![0, 2], vec![1, 3]]);
    let rf = spectral_gap(&frozen).expect("symmetric");
    let rr = spectral_gap(&repaired).expect("symmetric");
    println!(
        "\nspectral view: frozen schedule rho = {:.3} (no gap: updates never spread);",
        rf.rho
    );
    println!(
        "               repaired schedule rho = {:.3} (rho_bar = {:.2})\n",
        rr.rho, rr.rho_bar
    );
}

fn ablation_alpha() {
    println!("== Ablation 4: EMA decay alpha for dynamic partial reduce (HL = 3) ==\n");
    let t = TableWriter::new(
        &["alpha", "#updates", "run time", "converged"],
        &[6, 9, 10, 9],
    );
    for alpha in [0.2f64, 0.5, 0.8] {
        let config = table1_config(zoo::resnet34(), 3);
        let harness = SimHarness::new(&config);
        let ctl = ControllerConfig {
            num_workers: config.num_workers,
            group_size: 3,
            mode: AggregationMode::Dynamic {
                alpha,
                gap_policy: GapPolicy::Initial,
            },
            history_window: None,
            frozen_avoidance: true,
        };
        let r = run_preduce(harness, ctl);
        t.row(&[
            &format!("{alpha:.1}"),
            &r.updates.to_string(),
            &format!("{:.1}s", r.run_time),
            &r.converged.to_string(),
        ]);
    }
    println!();
}
