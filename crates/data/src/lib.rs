//! Synthetic datasets, data sharding, and minibatch sampling.
//!
//! The paper evaluates on CIFAR10, CIFAR100 and ImageNet. Those corpora (and
//! the GPU pipelines that make them tractable) are unavailable here, so this
//! crate provides seeded synthetic classification tasks with matching class
//! counts and tunable difficulty — see DESIGN.md §3 for why this preserves
//! the behaviour the experiments measure. The distributed-training algorithms
//! never inspect the data; they only need a learnable task on which
//! "#updates until a fixed test-accuracy threshold" is well defined.
//!
//! The crate also implements the paper's data-parallel plumbing: every worker
//! owns a *shard* of the training set (§4 "data sharding approach") and draws
//! i.i.d. minibatches from its shard (Algorithm 2, line 2).

#![forbid(unsafe_code)]

mod batch;
mod dataset;
mod presets;
mod shard;
mod synth;

pub use batch::BatchSampler;
pub use dataset::{Batch, Dataset};
pub use presets::{cifar100_like, cifar10_like, imagenet_like, DatasetPreset};
pub use shard::{shard_dataset, ShardStrategy};
pub use synth::{GaussianMixture, SynthConfig};
