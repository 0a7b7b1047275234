//! Model zoo: trainable *analogs* of the CNNs the paper evaluates, each
//! paired with a cost profile of the **original** architecture.
//!
//! The distributed-training experiments need two things from a model:
//!
//! 1. a real trainable network, so statistical efficiency (#updates to a
//!    test-accuracy threshold) is measured on genuine SGD dynamics — the
//!    analog MLPs below provide that at CPU scale; and
//! 2. compute/communication magnitudes, so the cluster simulator reproduces
//!    each model's *hardware* behaviour — the [`CostProfile`] carries the
//!    original model's parameter count (communication bytes) and per-example
//!    forward+backward FLOPs (compute time), preserving e.g. "VGG is
//!    communication-bound, ResNet is computation-bound" (§5.3.2).
//!
//! Cost numbers are per *workload variant*: the Table 1 models
//! (ResNet-34 / VGG-19 / DenseNet-121) carry their CIFAR-variant sizes
//! (32×32 inputs, 10-class heads), while the Fig. 10/11 models
//! (ResNet-18 / VGG-16) carry their full ImageNet sizes — matching how the
//! paper deploys each.

use serde::{Deserialize, Serialize};

use crate::spec::NetworkSpec;

/// Compute/communication magnitudes of an original (paper) model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostProfile {
    /// Parameter count of the original architecture (elements, not bytes).
    pub param_count: u64,
    /// Forward+backward FLOPs per example for the original architecture.
    pub flops_per_example: f64,
}

impl CostProfile {
    /// Gradient/model message size in bytes (f32 parameters).
    pub fn message_bytes(&self) -> u64 {
        self.param_count * 4
    }

    /// FLOPs for one minibatch of `batch_size` examples.
    pub fn batch_flops(&self, batch_size: usize) -> f64 {
        self.flops_per_example * batch_size as f64
    }
}

/// A zoo entry: a named analog architecture plus the original's costs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelZooEntry {
    /// Name matching the paper, e.g. `"resnet34"`.
    pub name: String,
    /// Hidden widths of the trainable analog MLP.
    pub hidden: Vec<usize>,
    /// Cost profile of the original architecture.
    pub profile: CostProfile,
}

impl ModelZooEntry {
    /// Builds the trainable analog spec for a given task shape.
    pub fn spec(&self, input_dim: usize, num_classes: usize) -> NetworkSpec {
        NetworkSpec::mlp(input_dim, &self.hidden, num_classes)
    }
}

/// ResNet-34 analog, CIFAR variant as in Table 1 (21.3 M params,
/// ~3.5 GFLOPs fwd+bwd per 32x32 image). Compute-heavy for its size.
pub fn resnet34() -> ModelZooEntry {
    ModelZooEntry {
        name: "resnet34".into(),
        hidden: vec![128, 64],
        profile: CostProfile {
            param_count: 21_300_000,
            flops_per_example: 3.5e9,
        },
    }
}

/// VGG-19 analog, CIFAR variant as in Table 1 (20.0 M params — the big
/// ImageNet fully-connected head shrinks to 10 classes — and only
/// ~1.2 GFLOPs fwd+bwd per 32x32 image). Low arithmetic intensity ⇒
/// communication-bound.
pub fn vgg19() -> ModelZooEntry {
    ModelZooEntry {
        name: "vgg19".into(),
        hidden: vec![192, 128],
        profile: CostProfile {
            param_count: 20_000_000,
            flops_per_example: 1.2e9,
        },
    }
}

/// DenseNet-121 analog, CIFAR variant as in Table 1 (7.0 M params; the
/// *effective* per-image cost is ~8 GFLOPs fwd+bwd — DenseNet's long
/// concatenation chain is memory-bound and sustains poor device
/// utilization, which is why the paper measures it as the slowest
/// per-update model despite its small size).
pub fn densenet121() -> ModelZooEntry {
    ModelZooEntry {
        name: "densenet121".into(),
        hidden: vec![96, 96, 64],
        profile: CostProfile {
            param_count: 7_000_000,
            flops_per_example: 8.0e9,
        },
    }
}

/// ResNet-18 analog (original: 11.7 M params, ~5.5 GFLOPs fwd+bwd per
/// image). The computation-intensive scalability workload of Fig. 11(a).
pub fn resnet18() -> ModelZooEntry {
    ModelZooEntry {
        name: "resnet18".into(),
        hidden: vec![96, 48],
        profile: CostProfile {
            param_count: 11_700_000,
            flops_per_example: 5.5e9,
        },
    }
}

/// VGG-16 analog (original: 138.4 M params, ~46.5 GFLOPs fwd+bwd per
/// image). The communication-intensive scalability workload of Fig. 11(b).
pub fn vgg16() -> ModelZooEntry {
    ModelZooEntry {
        name: "vgg16".into(),
        hidden: vec![160, 128],
        profile: CostProfile {
            param_count: 138_400_000,
            flops_per_example: 46.5e9,
        },
    }
}

/// Looks up a zoo entry by paper name.
pub fn by_name(name: &str) -> Option<ModelZooEntry> {
    match name {
        "resnet34" => Some(resnet34()),
        "vgg19" => Some(vgg19()),
        "densenet121" => Some(densenet121()),
        "resnet18" => Some(resnet18()),
        "vgg16" => Some(vgg16()),
        _ => None,
    }
}

/// All entries used in the paper's evaluation.
pub fn all() -> Vec<ModelZooEntry> {
    vec![resnet34(), vgg19(), densenet121(), resnet18(), vgg16()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_lookup() {
        assert_eq!(by_name("vgg19").unwrap().name, "vgg19");
        assert!(by_name("alexnet").is_none());
        assert_eq!(all().len(), 5);
    }

    #[test]
    fn relative_sizes_match_the_originals() {
        // CIFAR variants: ResNet-34 > VGG-19 > DenseNet-121 in parameters,
        // and VGG-19 is the most communication-bound (lowest intensity).
        // FLOPs per byte moved when the full model is synchronized once per
        // batch. Higher ⇒ scales better, the property Fig. 11 probes.
        let intensity =
            |e: ModelZooEntry| e.profile.batch_flops(256) / e.profile.message_bytes() as f64;
        let (v, r, d) = (vgg19(), resnet34(), densenet121());
        assert!(r.profile.param_count > v.profile.param_count);
        assert!(v.profile.param_count > 2 * d.profile.param_count);
        assert!(intensity(v.clone()) < intensity(r));
        assert!(intensity(v) < intensity(d));
        // ResNet-18 has higher arithmetic intensity than VGG-16 at the same
        // batch size: that's what makes it scale better in Fig. 11.
        assert!(intensity(resnet18()) > intensity(vgg16()));
    }

    #[test]
    fn specs_build_and_train_shape() {
        for e in all() {
            let mut net = e.spec(64, 10).build(0);
            let logits = net.forward(&preduce_tensor::Tensor::ones([2, 64]));
            assert_eq!(logits.shape().dims(), &[2, 10], "{}", e.name);
        }
    }

    #[test]
    fn message_bytes_are_4x_params() {
        let p = resnet18().profile;
        assert_eq!(p.message_bytes(), p.param_count * 4);
    }
}
