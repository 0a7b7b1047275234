use preduce_tensor::{relu, relu_backward, Tensor};

use crate::dense::Dense;

/// A feed-forward classifier: dense layers with a ReLU between each
/// consecutive pair (none after the last, whose outputs are the logits).
///
/// The network is the unit of replication in distributed training: each
/// worker owns one, and all communication happens through the *flat
/// parameter vector* ([`Network::param_vector`] /
/// [`Network::set_param_vector`]) and *flat gradient vector*
/// ([`Network::grad_vector`]) — exactly the view a collective library like
/// Gloo or NCCL has of a model. Both are laid out layer by layer, each
/// layer's row-major `[in, out]` weight matrix followed by its bias.
#[derive(Clone)]
pub struct Network {
    layers: Vec<Dense>,
    param_count: usize,
    /// The input of every layer in the last [`Network::forward`], first
    /// layer first; empty once a backward has consumed them.
    inputs: Vec<Tensor>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Network({}", self.layers[0].in_features())?;
        for l in &self.layers {
            write!(f, " -> {}", l.out_features())?;
        }
        write!(f, ", params={})", self.param_count)
    }
}

impl Network {
    /// Stacks `layers`, the last of which is the classifier.
    pub(crate) fn new(layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty(), "a network needs a classifier layer");
        let param_count = layers.iter().map(Dense::param_count).sum();
        Network {
            layers,
            param_count,
            inputs: Vec::new(),
        }
    }

    /// Total scalar parameter count `d` — the length of the flat vectors.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Runs the forward pass on `[batch, features]`, keeping each layer's
    /// input for a subsequent [`Network::backward`].
    ///
    /// # Panics
    /// Panics if `x` is not `[batch, features]` for the spec's `input_dim`.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.inputs.clear();
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut y = layer.forward(&h);
            if i + 1 < self.layers.len() {
                y = relu(y);
            }
            self.inputs.push(std::mem::replace(&mut h, y));
        }
        h
    }

    /// The evaluation forward pass: the same values as
    /// [`Network::forward`], nothing kept, `&self` — one network serves
    /// any number of evaluation threads.
    ///
    /// # Panics
    /// Panics if `x` is not `[batch, features]` for the spec's `input_dim`.
    pub(crate) fn infer(&self, x: &Tensor) -> Tensor {
        let (last, hidden) = self
            .layers
            .split_last()
            .expect("a network has a classifier layer");
        let mut h: Option<Tensor> = None;
        for layer in hidden {
            h = Some(relu(layer.forward(h.as_ref().unwrap_or(x))));
        }
        last.forward(h.as_ref().unwrap_or(x))
    }

    /// Propagates `grad` (w.r.t. the network output) through all layers,
    /// accumulating parameter gradients. The gradient w.r.t. the network's
    /// *input* is never formed: nothing reads it.
    ///
    /// # Panics
    /// Panics unless a [`Network::forward`] ran and no backward has
    /// consumed it since (an evaluation forward keeps nothing, and an
    /// older forward's inputs would be stale).
    pub fn backward(&mut self, grad: &Tensor) {
        assert_eq!(
            self.inputs.len(),
            self.layers.len(),
            "Network::backward needs a forward first"
        );
        let mut carried: Option<Tensor> = None;
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let input = self.inputs.pop().expect("one input per layer");
            let g = carried.as_ref().unwrap_or(grad);
            layer.accumulate(&input, g);
            if i > 0 {
                // `input` is the output of the ReLU in front of this
                // layer, positive exactly where that ReLU's own input was:
                // it is the mask.
                carried = Some(relu_backward(&input, layer.input_grad(g)));
            }
        }
    }

    /// Resets all accumulated gradients to zero.
    pub fn zero_grads(&mut self) {
        for l in &mut self.layers {
            l.zero_grads();
        }
    }

    /// All parameters concatenated into one flat `[d]` tensor.
    pub fn param_vector(&self) -> Tensor {
        let mut flat = Vec::with_capacity(self.param_count);
        for l in &self.layers {
            flat.extend_from_slice(l.weight.as_slice());
            flat.extend_from_slice(l.bias.as_slice());
        }
        Tensor::from_vec(flat, [self.param_count]).expect("param volume matches")
    }

    /// All accumulated gradients concatenated into one flat `[d]` tensor,
    /// matching the layout of [`Network::param_vector`].
    pub fn grad_vector(&self) -> Tensor {
        let mut flat = Vec::with_capacity(self.param_count);
        for g in self.grad_chunks() {
            flat.extend_from_slice(g);
        }
        Tensor::from_vec(flat, [self.param_count]).expect("grad volume matches")
    }

    /// The accumulated gradients where they lie: the consecutive chunks of
    /// [`Network::grad_vector`], for a consumer that can walk them without
    /// the flat copy
    /// ([`SgdOptimizer::step_chunks`](crate::SgdOptimizer::step_chunks)).
    pub fn grad_chunks(&self) -> impl Iterator<Item = &[f32]> {
        self.layers
            .iter()
            .flat_map(|l| [l.grad_weight.as_slice(), l.grad_bias.as_slice()])
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
        let mut rest = flat.as_slice();
        for l in &mut self.layers {
            for p in [&mut l.weight, &mut l.bias] {
                let (head, tail) = rest.split_at(p.len());
                p.as_mut_slice().copy_from_slice(head);
                rest = tail;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;
    use crate::loss::softmax_cross_entropy;
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

    fn input(rows: usize) -> Tensor {
        let data = (0..rows * 16)
            .map(|i| ((i * 37 % 23) as f32 - 11.0) / 7.0)
            .collect();
        Tensor::from_vec(data, [rows, 16]).unwrap()
    }

    fn fnv1a64(values: &Tensor) -> u64 {
        values
            .as_slice()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// The flat layout (W₀ row-major, b₀, W₁, b₁, …), the He-normal draw
    /// order and the accumulation order, pinned as FNV-1a-64 over the bit
    /// patterns. The constants were printed by this code at the last
    /// commit whose `Network` was a stack of boxed layer trait objects: a
    /// checkpoint or golden written there reads the same here.
    #[test]
    fn layout_fingerprint_is_the_recorded_one() {
        let mut net = NetworkSpec::mlp(16, &[12, 8], 3).build(1);
        assert_eq!(fnv1a64(&net.param_vector()), 0x7512_cdd4_1f66_d38b);
        net.zero_grads();
        let logits = net.forward(&input(5));
        let loss = softmax_cross_entropy(&logits, &[0, 2, 1, 1, 0]);
        net.backward(&loss.grad);
        assert_eq!(fnv1a64(&net.grad_vector()), 0x9e31_8668_ee69_e5a5);
    }

    #[test]
    fn evaluation_forward_matches_training_forward() {
        for hidden in [&[][..], &[12], &[12, 8]] {
            let mut net = NetworkSpec::mlp(16, hidden, 3).build(3);
            let x = input(5);
            assert_eq!(bits(&net.infer(&x)), bits(&net.forward(&x)), "{hidden:?}");
        }
    }

    #[test]
    fn backward_consumes_exactly_one_forward() {
        let mut net = NetworkSpec::mlp(16, &[12], 3).build(3);
        let grad = Tensor::ones([5, 3]);
        let refused = |net: &mut Network| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.backward(&grad))).is_err()
        };
        assert!(refused(&mut net), "backward ran with no forward at all");
        // An evaluation forward keeps nothing to run a backward on.
        net.infer(&input(5));
        assert!(
            refused(&mut net),
            "backward ran after an evaluation forward"
        );
        net.forward(&input(5));
        net.backward(&grad);
        assert!(refused(&mut net), "a second backward reused stale inputs");
    }

    #[test]
    #[should_panic(expected = "expects [batch, 4]")]
    fn forward_rejects_wrong_width() {
        let mut net = NetworkSpec::mlp(4, &[], 2).build(0);
        net.forward(&Tensor::ones([1, 5]));
    }
}
