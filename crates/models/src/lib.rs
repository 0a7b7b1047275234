//! A minimal-but-real deep-learning framework: the substrate the paper gets
//! from PyTorch and we must build ourselves (repro note: "DL bindings thin").
//!
//! Provides:
//!
//! * trainable layers with exact backprop — [`Dense`], [`Conv2d`],
//!   [`MaxPool2d`], [`GlobalAvgPool`], ReLU/Tanh activations;
//! * a [`Network`] container built from a serializable [`NetworkSpec`], so
//!   every worker can construct an *identical* initial replica from a shared
//!   seed (Algorithm 2 requires all local models to start at the same point);
//! * flat parameter/gradient vectors ([`Network::param_vector`] /
//!   [`Network::set_param_vector`]) — the unit of communication for
//!   all-reduce, parameter-server, and partial-reduce traffic;
//! * [`SgdOptimizer`] with momentum and weight decay plus the paper's
//!   learning-rate schedules (§5.1: lr 0.1, momentum 0.9, wd 1e-4, ImageNet
//!   step decay ×0.1 every 20 epochs);
//! * a model zoo ([`zoo`]) of *analogs* of the paper's CNNs, each paired
//!   with a [`CostProfile`] preserving the original's relative compute
//!   intensity and communication volume (used by the cluster simulator).

#![forbid(unsafe_code)]

mod activation;
mod conv;
mod dense;
mod layer;
mod loss;
mod metrics;
mod network;
mod norm;
mod optimizer;
mod pool;
mod residual;
mod spec;
pub mod zoo;

pub use activation::{Relu, Tanh};
pub use conv::Conv2d;
pub use dense::Dense;
pub use layer::Layer;
pub use loss::{mse_loss, softmax_cross_entropy, LossOutput};
pub use metrics::{accuracy, evaluate_accuracy, evaluate_accuracy_parallel, topk_accuracy};
pub use network::Network;
pub use norm::{Dropout, LayerNorm};
pub use optimizer::{LrSchedule, SgdConfig, SgdOptimizer};
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use residual::Residual;
pub use spec::{LayerSpec, NetworkSpec};
pub use zoo::{CostProfile, ModelZooEntry};

/// A tensor's values as bit patterns, for the exact-equality tests.
#[cfg(test)]
pub(crate) fn bits(t: &preduce_tensor::Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}
