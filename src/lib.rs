//! # preduce
//!
//! A full-system Rust reproduction of *Heterogeneity-Aware Distributed
//! Machine Learning Training via Partial Reduce* (SIGMOD '21).
//!
//! Partial reduce (P-Reduce) replaces the globally-synchronous All-Reduce
//! in data-parallel SGD with parallel-asynchronous partial model averages:
//! after each local update, a worker synchronizes with only `P − 1` other
//! *ready* workers chosen by a lightweight controller, and continues
//! immediately — no worker ever waits for a straggler, and convergence at
//! `O(1/√(PK))` is preserved.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`partial_reduce`] — the primitive: controller, constant/dynamic
//!   aggregation weights, sync-graph frozen avoidance, spectral-gap
//!   analysis, Theorem 1 calculator, and a threaded runtime.
//! * [`trainer`] — every baseline strategy of the paper's evaluation
//!   (All-Reduce, Eager-Reduce, AD-PSGD, PS BSP/ASP/HETE/BK) and the
//!   virtual-time experiment driver reproducing it.
//! * [`models`] — the mini deep-learning framework (a dense + ReLU
//!   network, backprop, SGD, model zoo with per-workload cost profiles).
//! * [`data`] — seeded synthetic classification presets standing in for
//!   CIFAR10/CIFAR100/ImageNet, sharding, batch sampling.
//! * [`simnet`] — the discrete-event heterogeneous-cluster simulator.
//! * [`comm`] — the threaded message-passing collective runtime.
//! * [`tensor`] — the dense `f32` tensor kernel.
//!
//! ## Quickstart
//!
//! ```
//! use preduce::trainer::{run_experiment, ExperimentConfig, Strategy};
//! use preduce::models::zoo;
//! use preduce::data::cifar10_like;
//!
//! // Partial reduce (P = 3, dynamic weights) on a heterogeneous fleet
//! // where 3 of 8 workers share one GPU.
//! let mut config = ExperimentConfig::table1(zoo::resnet34(), cifar10_like(), 3);
//! config.max_updates = 200;      // keep the doc test fast
//! config.eval_every = 100;
//! config.threshold = 0.99;
//! let result = run_experiment(Strategy::PReduce { p: 3, dynamic: true }, &config);
//! assert!(result.updates >= 200);
//! println!("{}: {} updates, {:.3}s/update", result.strategy,
//!          result.updates, result.per_update_time());
//! ```

#![forbid(unsafe_code)]
// The facade re-exports the control plane: no panicking construct
// outside tests (DESIGN.md §10).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes_without_reason
    )
)]

pub use partial_reduce;
pub use preduce_comm as comm;
pub use preduce_data as data;
pub use preduce_models as models;
pub use preduce_simnet as simnet;
pub use preduce_tensor as tensor;
pub use preduce_trainer as trainer;
