use preduce_tensor::Tensor;

use crate::layer::{backward_params_all, forward_all, infer_all, Layer};

/// A sequential feed-forward network.
///
/// The network is the unit of replication in distributed training: each
/// worker owns one, and all communication happens through the *flat
/// parameter vector* ([`Network::param_vector`] /
/// [`Network::set_param_vector`]) and *flat gradient vector*
/// ([`Network::grad_vector`]) — exactly the view a collective library like
/// Gloo or NCCL has of a model.
#[derive(Clone)]
pub struct Network {
    input_dim: usize,
    layers: Vec<Box<dyn Layer>>,
    param_count: usize,
    /// Which forward [`Network::forward`] runs (see
    /// [`Network::set_training`]).
    training: bool,
    /// Whether the layers hold the caches of a training forward that no
    /// backward has consumed yet.
    armed: bool,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Network(input_dim={}, layers=[", self.input_dim)?;
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", l.name())?;
        }
        write!(f, "], params={})", self.param_count)
    }
}

impl Network {
    /// Assembles a network from constructed layers.
    ///
    /// # Panics
    /// Panics if `input_dim == 0`.
    pub fn new(input_dim: usize, layers: Vec<Box<dyn Layer>>) -> Self {
        assert!(input_dim > 0, "network input dimension must be positive");
        let param_count = layers.iter().map(|l| l.param_count()).sum();
        Network {
            input_dim,
            layers,
            param_count,
            training: true,
            armed: false,
        }
    }

    /// Expected input feature count.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Total scalar parameter count `d` — the length of the flat vectors.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Runs the forward pass on `[batch, input_dim]`. In training mode
    /// (the default) the layers cache state for a subsequent
    /// [`Network::backward`]; in evaluation mode this is
    /// [`Network::infer`] and no backward may follow.
    ///
    /// # Panics
    /// Panics if `x` is not `[batch, input_dim]`.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.armed = self.training;
        if self.training {
            self.check_input(x);
            forward_all(&mut self.layers, x)
        } else {
            self.infer(x)
        }
    }

    /// The evaluation forward pass: dropout off, nothing cached, `&self` —
    /// one network serves any number of evaluation threads.
    ///
    /// # Panics
    /// Panics if `x` is not `[batch, input_dim]`.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        self.check_input(x);
        infer_all(&self.layers, x)
    }

    fn check_input(&self, x: &Tensor) {
        assert_eq!(
            x.shape().dim(1),
            self.input_dim,
            "network expects [batch, {}], got {}",
            self.input_dim,
            x.shape()
        );
    }

    /// Propagates `grad` (w.r.t. the network output) through all layers,
    /// accumulating parameter gradients. The gradient w.r.t. the network's
    /// *input* is never formed: nothing reads it.
    ///
    /// # Panics
    /// Panics unless the last [`Network::forward`] ran in training mode and
    /// no backward has consumed it since (an evaluation forward leaves no
    /// caches, and an older one's would be stale).
    pub fn backward(&mut self, grad: &Tensor) {
        assert!(
            std::mem::take(&mut self.armed),
            "Network::backward needs a training-mode forward first"
        );
        backward_params_all(&mut self.layers, grad);
    }

    /// Resets all accumulated gradients to zero.
    pub fn zero_grads(&mut self) {
        for l in &mut self.layers {
            l.zero_grads();
        }
    }

    /// Switches [`Network::forward`] between the training forward
    /// (caches for backward, dropout active) and the evaluation forward.
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    /// All parameters concatenated into one flat `[d]` tensor
    /// (layer order, then the per-layer parameter order).
    pub fn param_vector(&self) -> Tensor {
        let mut flat = Vec::with_capacity(self.param_count);
        for l in &self.layers {
            for p in l.params() {
                flat.extend_from_slice(p.as_slice());
            }
        }
        Tensor::from_vec(flat, [self.param_count.max(1)]).expect("param volume matches")
    }

    /// All accumulated gradients concatenated into one flat `[d]` tensor,
    /// matching the layout of [`Network::param_vector`].
    pub fn grad_vector(&self) -> Tensor {
        let mut flat = Vec::with_capacity(self.param_count);
        for g in self.grad_chunks() {
            flat.extend_from_slice(g);
        }
        Tensor::from_vec(flat, [self.param_count.max(1)]).expect("grad volume matches")
    }

    /// The accumulated gradients where they lie: the consecutive chunks of
    /// [`Network::grad_vector`], for a consumer that can walk them without
    /// the flat copy
    /// ([`SgdOptimizer::step_chunks`](crate::SgdOptimizer::step_chunks)).
    pub fn grad_chunks(&self) -> impl Iterator<Item = &[f32]> {
        self.layers
            .iter()
            .flat_map(|l| l.grads())
            .map(|g| g.as_slice())
    }

    /// Overwrites all parameters from a flat `[d]` tensor.
    ///
    /// # Panics
    /// Panics if `flat.len() != param_count()`.
    pub fn set_param_vector(&mut self, flat: &Tensor) {
        assert_eq!(
            flat.len(),
            self.param_count,
            "flat parameter vector has length {}, expected {}",
            flat.len(),
            self.param_count
        );
        let src = flat.as_slice();
        let mut off = 0;
        for l in &mut self.layers {
            for p in l.params_mut() {
                let n = p.len();
                p.as_mut_slice().copy_from_slice(&src[off..off + n]);
                off += n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;
    use crate::spec::NetworkSpec;

    #[test]
    fn param_vector_roundtrip() {
        let mut net = NetworkSpec::mlp(6, &[8, 4], 3).build(1);
        let v = net.param_vector();
        assert_eq!(v.len(), net.param_count());
        let mut scaled = v.clone();
        scaled.scale(0.5);
        net.set_param_vector(&scaled);
        assert_eq!(net.param_vector(), scaled);
    }

    #[test]
    fn forward_backward_produces_gradients() {
        let mut net = NetworkSpec::mlp(4, &[8], 2).build(0);
        let x = Tensor::ones([3, 4]);
        let y = net.forward(&x);
        assert_eq!(y.shape().dims(), &[3, 2]);
        net.backward(&Tensor::ones([3, 2]));
        let g = net.grad_vector();
        assert_eq!(g.len(), net.param_count());
        assert!(g.norm2() > 0.0, "no gradient signal");
        net.zero_grads();
        assert_eq!(net.grad_vector().norm2(), 0.0);
    }

    #[test]
    fn clone_is_independent() {
        let net = NetworkSpec::mlp(4, &[4], 2).build(0);
        let mut other = net.clone();
        let mut zeroed = other.param_vector();
        zeroed.fill_zero();
        other.set_param_vector(&zeroed);
        assert!(net.param_vector().norm2() > 0.0);
        assert_eq!(other.param_vector().norm2(), 0.0);
    }

    #[test]
    fn whole_network_gradient_check() {
        // Sum-of-logits loss; verify d(sum)/d(theta) numerically for a
        // sample of parameters across layers.
        let mut net = NetworkSpec::mlp(3, &[5], 2).build(7);
        let x = Tensor::from_vec(vec![0.2, -0.4, 1.0, 0.9, 0.1, -0.7], [2, 3]).unwrap();

        let y = net.forward(&x);
        net.zero_grads();
        net.backward(&Tensor::ones(y.shape().clone()));
        let analytic = net.grad_vector();

        let base = net.param_vector();
        let eps = 1e-3f32;
        let d = net.param_count();
        for idx in (0..d).step_by(d / 10 + 1) {
            let mut hi = base.clone();
            hi.as_mut_slice()[idx] += eps;
            net.set_param_vector(&hi);
            let f_hi: f64 = net.forward(&x).sum();
            let mut lo = base.clone();
            lo.as_mut_slice()[idx] -= eps;
            net.set_param_vector(&lo);
            let f_lo: f64 = net.forward(&x).sum();
            let numeric = ((f_hi - f_lo) / (2.0 * eps as f64)) as f32;
            let a = analytic.as_slice()[idx];
            assert!(
                (a - numeric).abs() < 1e-2,
                "param {idx}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    /// One spec per layer kind `NetworkSpec` can build. Dropout has
    /// probability zero, so its training forward is the identity too.
    fn every_layer_kind() -> Vec<NetworkSpec> {
        use crate::spec::LayerSpec::*;
        let dense = |in_features, out_features| Dense {
            in_features,
            out_features,
        };
        vec![
            NetworkSpec::mlp(16, &[12, 8], 3),
            NetworkSpec::residual_mlp(16, 8, 2, 3),
            NetworkSpec {
                input_dim: 16,
                layers: vec![
                    Residual {
                        layers: vec![dense(16, 16), Tanh],
                    },
                    Dropout { p_mille: 0 },
                    LayerNorm { features: 16 },
                    dense(16, 3),
                ],
            },
            NetworkSpec {
                input_dim: 16,
                layers: vec![
                    Conv2d {
                        in_c: 1,
                        in_h: 4,
                        in_w: 4,
                        out_c: 3,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                    Relu,
                    MaxPool2d {
                        channels: 3,
                        in_h: 4,
                        in_w: 4,
                        window: 2,
                    },
                    GlobalAvgPool {
                        channels: 3,
                        in_h: 2,
                        in_w: 2,
                    },
                    dense(3, 3),
                ],
            },
        ]
    }

    fn input(rows: usize) -> Tensor {
        let data = (0..rows * 16)
            .map(|i| ((i * 37 % 23) as f32 - 11.0) / 7.0)
            .collect();
        Tensor::from_vec(data, [rows, 16]).unwrap()
    }

    #[test]
    fn evaluation_forward_matches_training_forward_and_disarms_backward() {
        for spec in every_layer_kind() {
            let mut net = spec.build(3);
            let x = input(5);
            let trained = net.forward(&x);
            assert_eq!(bits(&net.infer(&x)), bits(&trained), "{spec:?}");
            net.set_training(false);
            let evaluated = net.forward(&x);
            assert_eq!(bits(&evaluated), bits(&trained), "{spec:?}");
            // The training forward above left caches behind; a backward
            // now must refuse rather than read them.
            let grad = Tensor::ones(evaluated.shape().clone());
            let refused =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.backward(&grad)));
            assert!(refused.is_err(), "backward ran after an evaluation forward");
        }
    }

    #[test]
    fn backward_matches_full_per_layer_backward_bitwise() {
        for spec in every_layer_kind() {
            let mut net = spec.build(4);
            let mut reference = net.clone();
            let x = input(7);
            let y = net.forward(&x);
            reference.forward(&x);
            let grad = Tensor::from_vec(
                (0..y.len()).map(|i| (i % 5) as f32 * 0.25 - 0.5).collect(),
                y.shape().clone(),
            )
            .unwrap();
            net.backward(&grad);
            // Every layer's full backward, input gradient of the first
            // layer included, in reverse order.
            let mut g = grad;
            for layer in reference.layers.iter_mut().rev() {
                g = layer.backward(&g);
            }
            assert_eq!(
                bits(&net.grad_vector()),
                bits(&reference.grad_vector()),
                "{spec:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "expects [batch, 4]")]
    fn forward_rejects_wrong_width() {
        let mut net = NetworkSpec::mlp(4, &[], 2).build(0);
        net.forward(&Tensor::ones([1, 5]));
    }
}
