//! Figure 4: the spectral gap ρ under homogeneous vs heterogeneous
//! environments (N = 3, P = 2).
//!
//! Three views are printed:
//!  1. the paper's illustrated group frequencies (closed form ρ = 0.5 and
//!     ρ = 0.625);
//!  2. an *empirical* schedule from simulating the FIFO controller on a
//!     jittered fleet — homogeneous and one-worker-2×-slower;
//!  3. the ρ-vs-P curve for the uniform (homogeneous) case at N = 8,
//!     showing ρ → 0 as P → N (All-Reduce).
//!
//! Run: `cargo run --release -p preduce-bench --bin fig4_spectral`

#![forbid(unsafe_code)]

use partial_reduce::{
    expected_sync_matrix, expected_sync_matrix_uniform, spectral_gap, ControllerConfig,
};
use preduce_simnet::{Jitter, SpeedFleet, UniformFleet};
use preduce_trainer::sample_groups;

fn main() {
    println!("Figure 4: spectral gap rho under different environments\n");

    // (1) The paper's illustrated frequencies.
    let homo = expected_sync_matrix(3, &[vec![0, 1], vec![0, 2], vec![1, 2]]);
    let r = spectral_gap(&homo).expect("symmetric");
    println!(
        "paper Fig.4(a)  homogeneous, uniform pairs:        rho = {:.4}  (paper: 0.5)",
        r.rho
    );
    let hetero = expected_sync_matrix(3, &[vec![0, 1], vec![0, 1], vec![0, 2], vec![1, 2]]);
    let r = spectral_gap(&hetero).expect("symmetric");
    println!(
        "paper Fig.4(b)  worker 3 twice as slow (1/2,1/4,1/4): rho = {:.4}  (paper: 0.625)\n",
        r.rho
    );

    // (2) Empirical schedules from the FIFO controller (seed 7).
    let pairs = ControllerConfig::constant(3, 2);
    let jitter = Jitter::LogNormal { sigma: 0.2 };
    let uniform = Box::new(UniformFleet::new(3, 1e9, jitter));
    let (groups, _) = sample_groups(uniform, pairs.clone(), 30_000, 7);
    let e_w = expected_sync_matrix(3, &groups);
    let r = spectral_gap(&e_w).expect("symmetric");
    println!(
        "simulated homogeneous fleet (jittered):            rho = {:.4}",
        r.rho
    );

    let slow = Box::new(SpeedFleet::new(vec![1.0, 1.0, 2.0], 1e9, jitter));
    let (groups, _) = sample_groups(slow, pairs, 30_000, 7);
    let e_w = expected_sync_matrix(3, &groups);
    let r = spectral_gap(&e_w).expect("symmetric");
    println!(
        "simulated heterogeneous fleet (worker 3 at 2x):    rho = {:.4}, rho_bar = {:.3}\n",
        r.rho, r.rho_bar
    );

    // (3) rho vs P for N = 8 under uniform grouping.
    println!("rho vs group size P (N = 8, uniform groups):");
    for p in 2..=8 {
        let w = expected_sync_matrix_uniform(8, p);
        let r = spectral_gap(&w).expect("symmetric");
        println!(
            "  P = {p}:  rho = {:.4}  rho_bar = {:>8.3}",
            r.rho, r.rho_bar
        );
    }
    println!("\n(P = N gives rho = 0: All-Reduce has no network error.)");
}
