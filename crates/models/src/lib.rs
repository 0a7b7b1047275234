//! A minimal-but-real deep-learning framework: the substrate the paper gets
//! from PyTorch and we must build ourselves (repro note: "DL bindings thin").
//!
//! Provides:
//!
//! * one trainable architecture with exact backprop: a [`Network`] of dense
//!   layers with ReLU between them — what every zoo analog is (DESIGN.md
//!   §3), and the only thing a flag or config file can name;
//! * its serializable description, a [`ModelZooEntry`], and the
//!   [`NetworkSpec`] built from it, so every worker can construct an
//!   *identical* initial replica from a shared seed (Algorithm 2 requires
//!   all local models to start at the same point);
//! * flat parameter/gradient vectors ([`Network::param_vector`] /
//!   [`Network::set_param_vector`], [`Network::grads`]) — the unit of
//!   communication for all-reduce, parameter-server, and partial-reduce
//!   traffic, and the network's only layout: forward and backward run the
//!   `preduce_tensor::kernels` GEMMs on slices of them, or on a caller's
//!   own parameter vector ([`Network::forward_on`]), moved out of the
//!   network ([`Network::take_param_vector`]) so that the network is
//!   layout plus scratch, shareable between callers;
//! * [`SgdOptimizer`] (its step is `preduce_tensor::kernels::sgd_step`)
//!   with momentum and weight decay plus the paper's
//!   learning-rate schedules (§5.1: lr 0.1, momentum 0.9, wd 1e-4, ImageNet
//!   step decay ×0.1 every 20 epochs);
//! * a model zoo ([`zoo`]) of *analogs* of the paper's CNNs, each paired
//!   with a [`CostProfile`] preserving the original's relative compute
//!   intensity and communication volume (used by the cluster simulator).

#![forbid(unsafe_code)]

mod loss;
mod metrics;
mod network;
mod optimizer;
mod spec;
pub mod zoo;

pub use loss::{softmax_cross_entropy, softmax_cross_entropy_grad, LossOutput};
pub use metrics::evaluate_accuracy_parallel;
pub use network::Network;
pub use optimizer::{LrSchedule, SgdConfig, SgdOptimizer};
pub use spec::NetworkSpec;
pub use zoo::{CostProfile, ModelZooEntry};

/// Values as bit patterns, for the exact-equality tests.
#[cfg(test)]
pub(crate) fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}
