use std::ops::Range;

use preduce_tensor::{he_normal, kernels, relu, relu_backward, Tensor};
use rand::Rng;

/// A feed-forward classifier: dense layers `y = x · W + b` with a ReLU
/// between each consecutive pair (none after the last, whose outputs are
/// the logits).
///
/// The network is the unit of replication in distributed training: each
/// worker owns one, and all communication happens through the *flat
/// parameter vector* ([`Network::param_vector`] /
/// [`Network::set_param_vector`]) and *flat gradient vector*
/// ([`Network::grad_vector`]) — exactly the view a collective library like
/// Gloo or NCCL has of a model. Those two vectors are the network's only
/// layout, and the passes run the kernels on slices of them: layer by
/// layer, each layer's row-major `[in, out]` weight matrix followed by its
/// bias.
///
/// A trainer that keeps the parameters in a vector of its own moves them
/// out ([`Network::take_param_vector`]) and runs the training passes on
/// that vector ([`Network::forward_on`], [`Network::backward_fresh_on`]).
/// Such a network is layout plus scratch: [`Network::param_count`] comes
/// from the layer widths, the gradient buffer is sized by the first
/// backward or [`Network::zero_grads`], and the network holds parameters
/// of its own again only after [`Network::set_param_vector`] — the path
/// evaluation and the two-step public passes ([`Network::forward`],
/// [`Network::backward`]) take. Any number of trainers with the same
/// widths can share one such network, one update at a time: an update
/// reads only the parameters it lends and writes every gradient fresh.
#[derive(Clone)]
pub struct Network {
    /// The input width, then each layer's output width.
    widths: Vec<usize>,
    /// `d`: the summed length of the layers between the widths.
    param_count: usize,
    /// The network's own parameters: from construction until
    /// [`Network::take_param_vector`], and from the next
    /// [`Network::set_param_vector`] on.
    params: Option<Tensor>,
    /// The accumulated gradients, laid out like the parameters; empty
    /// until the first backward or [`Network::zero_grads`] sizes it.
    grads: Tensor,
    /// Whether `grads` is all `+0.0`: set by [`Network::zero_grads`],
    /// cleared by the next backward (which touches every layer).
    grads_zeroed: bool,
    /// The input of every layer in the last training forward
    /// ([`Network::forward`] or [`Network::forward_on`]), first layer
    /// first; empty once a backward has consumed them.
    inputs: Vec<Tensor>,
}

/// Parameters of the dense layer between two consecutive widths: its
/// `[in, out]` weights and its bias.
fn layer_len(w: &[usize]) -> usize {
    (w[0] + 1) * w[1]
}

const NO_PARAMS: &str = "the network holds no parameters of its own: set_param_vector first";

/// The network's own parameters.
///
/// # Panics
/// Panics if they were moved out and not set since.
fn own(params: &Option<Tensor>) -> &Tensor {
    params.as_ref().expect(NO_PARAMS)
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Network({}", self.widths[0])?;
        for w in &self.widths[1..] {
            write!(f, " -> {w}")?;
        }
        write!(f, ", params={})", self.param_count())
    }
}

impl Network {
    /// Dense layers between consecutive `widths` (the input's first, the
    /// classes' last), each with He-normal weights drawn from `rng` in
    /// layer order and a zero bias.
    ///
    /// # Panics
    /// Panics if any width is zero.
    pub(crate) fn new<R: Rng + ?Sized>(widths: Vec<usize>, rng: &mut R) -> Self {
        let d = widths.windows(2).map(layer_len).sum();
        let mut params = Vec::with_capacity(d);
        for w in widths.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            assert!(fan_in > 0 && fan_out > 0, "zero-sized dense layer");
            params.extend_from_slice(he_normal(rng, [fan_in, fan_out], fan_in).as_slice());
            params.resize(params.len() + fan_out, 0.0);
        }
        Network {
            widths,
            param_count: d,
            params: Some(Tensor::from_vec(params, [d]).expect("param volume matches")),
            grads: Tensor::zeros([0]),
            grads_zeroed: true,
            inputs: Vec::new(),
        }
    }

    /// Total scalar parameter count `d` — the length of the flat vectors.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Whether the network holds parameters of its own: it does from
    /// construction until [`Network::take_param_vector`], and again after
    /// [`Network::set_param_vector`].
    pub fn holds_params(&self) -> bool {
        self.params.is_some()
    }

    fn depth(&self) -> usize {
        self.widths.len() - 1
    }

    /// Layer `l`'s fan-in and fan-out, and where its weights and its bias
    /// lie in the flat vectors.
    fn layer(&self, l: usize) -> (usize, usize, Range<usize>, Range<usize>) {
        let at: usize = self.widths[..=l].windows(2).map(layer_len).sum();
        let (fan_in, fan_out) = (self.widths[l], self.widths[l + 1]);
        let bias = at + fan_in * fan_out;
        (fan_in, fan_out, at..bias, bias..bias + fan_out)
    }

    /// Layer `l` on `[batch, fan_in]` activations: `x · W + b` with `W`
    /// and `b` read from the flat `params`, then the ReLU unless `l` is the
    /// classifier.
    fn layer_forward(&self, params: &[f32], l: usize, x: &Tensor) -> Tensor {
        let (fan_in, fan_out, weights, bias) = self.layer(l);
        assert_eq!(
            x.shape().dim(1),
            fan_in,
            "dense layer expects [batch, {fan_in}], got {}",
            x.shape()
        );
        let batch = x.shape().dim(0);
        let (w, b) = (&params[weights], &params[bias]);
        let mut y = Tensor::zeros([batch, fan_out]);
        kernels::gemm(batch, fan_in, fan_out, x.as_slice(), w, y.as_mut_slice());
        kernels::add_bias_rows(y.as_mut_slice(), batch, fan_out, b);
        if l + 1 < self.depth() {
            relu(y)
        } else {
            y
        }
    }

    /// Runs the forward pass on `[batch, features]`, keeping each layer's
    /// input for a subsequent [`Network::backward`].
    ///
    /// # Panics
    /// Panics if `x` is not `[batch, features]` for the spec's `input_dim`,
    /// or the network holds no parameters of its own.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.forward_pass(None, x)
    }

    /// [`Network::forward`] on `params`, a flat vector laid out like
    /// [`Network::param_vector`], instead of the network's own — the same
    /// bits as [`Network::set_param_vector`]`(params)` then
    /// [`Network::forward`], without the copy.
    ///
    /// # Panics
    /// Panics if `params` is not `param_count()` long, or `x` is not
    /// `[batch, features]` for the spec's `input_dim`.
    pub fn forward_on(&mut self, params: &[f32], x: &Tensor) -> Tensor {
        self.check_len(params);
        self.forward_pass(Some(params), x)
    }

    /// The training forward pass on `lent` parameters, or else the
    /// network's own, keeping each layer's input for the backward.
    fn forward_pass(&mut self, lent: Option<&[f32]>, x: &Tensor) -> Tensor {
        let params = lent.unwrap_or_else(|| own(&self.params).as_slice());
        self.inputs.clear();
        let mut h = x.clone();
        for l in 0..self.depth() {
            let y = self.layer_forward(params, l, &h);
            self.inputs.push(std::mem::replace(&mut h, y));
        }
        h
    }

    /// The evaluation forward pass: the same values as
    /// [`Network::forward`], nothing kept, `&self` — one network serves
    /// any number of evaluation threads.
    ///
    /// # Panics
    /// Panics if `x` is not `[batch, features]` for the spec's `input_dim`,
    /// or the network holds no parameters of its own.
    pub(crate) fn infer(&self, x: &Tensor) -> Tensor {
        let params = own(&self.params).as_slice();
        (1..self.depth()).fold(self.layer_forward(params, 0, x), |h, l| {
            self.layer_forward(params, l, &h)
        })
    }

    /// Propagates `grad` (w.r.t. the network output) through all layers,
    /// accumulating parameter gradients. The gradient w.r.t. the network's
    /// *input* is never formed: nothing reads it.
    ///
    /// # Panics
    /// Panics unless a [`Network::forward`] ran and no backward has
    /// consumed it since (an evaluation forward keeps nothing, and an
    /// older forward's inputs would be stale), or if the network holds no
    /// parameters of its own.
    pub fn backward(&mut self, grad: &Tensor) {
        let fresh = std::mem::take(&mut self.grads_zeroed);
        self.backward_pass(None, grad, fresh);
    }

    /// The backward of a [`Network::forward_on`] at the same `params`,
    /// writing fresh gradients: [`Network::grads`] then holds this pass's
    /// gradient alone — the bits [`Network::zero_grads`] then
    /// [`Network::backward`] leave — whatever it held before, and nothing
    /// is filled with zeros first.
    ///
    /// # Panics
    /// Panics if `params` is not `param_count()` long, or unless a forward
    /// ran and no backward has consumed it since.
    pub fn backward_fresh_on(&mut self, params: &[f32], grad: &Tensor) {
        self.check_len(params);
        self.grads_zeroed = false;
        self.backward_pass(Some(params), grad, true);
    }

    /// The backward on `lent` parameters, or else the network's own. A
    /// `fresh` pass overwrites every gradient; otherwise it adds to them.
    fn backward_pass(&mut self, lent: Option<&[f32]>, grad: &Tensor, fresh: bool) {
        assert_eq!(
            self.inputs.len(),
            self.depth(),
            "Network::backward needs a forward first"
        );
        let params = lent.unwrap_or_else(|| own(&self.params).as_slice());
        if self.grads.len() != self.param_count {
            self.grads = Tensor::zeros([self.param_count]);
        }
        let mut carried: Option<Tensor> = None;
        for l in (0..self.depth()).rev() {
            let (fan_in, fan_out, weights, bias) = self.layer(l);
            let input = self.inputs.pop().expect("one input per layer");
            let g = carried.as_ref().unwrap_or(grad);
            let (batch, x, dy) = (g.shape().dim(0), input.as_slice(), g.as_slice());
            let grads = self.grads.as_mut_slice();
            // dW += xᵀ · g, the product formed from zero and then added.
            // Fresh, that is the product itself (`0 + x` is `x`, and a sum
            // that starts at `+0.0` is never `-0.0`), so the kernel writes
            // it in place without reading what was there; only an
            // accumulating pass needs the temporary. The bias sums start
            // at `+0.0` the same way.
            let dw = &mut grads[weights.clone()];
            if fresh {
                kernels::gemm_at_b_fresh(batch, fan_in, fan_out, x, dy, dw);
                grads[bias.clone()].fill(0.0);
            } else {
                let mut product = vec![0.0; dw.len()];
                kernels::gemm_at_b(batch, fan_in, fan_out, x, dy, &mut product);
                dw.iter_mut().zip(product).for_each(|(acc, p)| *acc += p);
            }
            // db += column sums of g
            kernels::col_sums_acc(&mut grads[bias], dy, batch, fan_out);
            if l > 0 {
                // `input` is the output of the ReLU in front of this
                // layer, positive exactly where that ReLU's own input was:
                // it is the mask.
                let mut dx = Tensor::zeros([batch, fan_in]);
                let w = &params[weights];
                kernels::gemm_a_bt(batch, fan_out, fan_in, dy, w, dx.as_mut_slice());
                carried = Some(relu_backward(&input, dx));
            }
        }
    }

    /// Resets all accumulated gradients to zero, sizing the buffer if no
    /// backward has yet.
    pub fn zero_grads(&mut self) {
        if self.grads.len() == self.param_count {
            self.grads.fill_zero();
        } else {
            self.grads = Tensor::zeros([self.param_count]);
        }
        self.grads_zeroed = true;
    }

    /// A copy of the flat `[d]` parameter vector.
    ///
    /// # Panics
    /// Panics if the network holds no parameters of its own.
    pub fn param_vector(&self) -> Tensor {
        own(&self.params).clone()
    }

    /// Moves the network's own parameters out, leaving layout and
    /// scratch: for a trainer that keeps the parameters itself and lends
    /// them to [`Network::forward_on`] and [`Network::backward_fresh_on`].
    ///
    /// # Panics
    /// Panics if the network holds no parameters of its own.
    pub fn take_param_vector(&mut self) -> Tensor {
        self.params.take().expect(NO_PARAMS)
    }

    /// The accumulated gradients, laid out like [`Network::param_vector`];
    /// empty until the first backward or [`Network::zero_grads`].
    pub fn grads(&self) -> &Tensor {
        &self.grads
    }

    /// A copy of [`Network::grads`].
    pub fn grad_vector(&self) -> Tensor {
        self.grads.clone()
    }

    /// Overwrites all parameters from a flat `[d]` tensor — allocating
    /// the network's own buffer if it holds none.
    ///
    /// # Panics
    /// Panics if `flat.len() != param_count()`.
    pub fn set_param_vector(&mut self, flat: &Tensor) {
        self.check_len(flat.as_slice());
        match &mut self.params {
            Some(params) => params.as_mut_slice().copy_from_slice(flat.as_slice()),
            None => self.params = Some(flat.clone()),
        }
    }

    fn check_len(&self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count(),
            "flat parameter vector has length {}, expected {}",
            flat.len(),
            self.param_count()
        );
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
    fn forward_is_x_times_w_plus_b() {
        let mut net = NetworkSpec::mlp(2, &[], 3).build(0);
        let wb = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.1, 0.2, 0.3];
        net.set_param_vector(&Tensor::from_vec(wb, [9]).unwrap());
        let y = net.forward(&Tensor::ones([1, 2]));
        // y = [1+4, 2+5, 3+6] + b = [5.1, 7.2, 9.3]
        for (a, b) in y.as_slice().iter().zip([5.1f32, 7.2, 9.3]) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
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
    fn bias_gradient_accumulates_until_zeroed() {
        // One [2, 2] layer: the bias gradient is grads[4..6].
        let mut net = NetworkSpec::mlp(2, &[], 2).build(0);
        let mut pass = |rows: usize| {
            net.forward(&Tensor::ones([rows, 2]));
            net.backward(&Tensor::ones([rows, 2]));
            net.grads().as_slice()[4..].to_vec()
        };
        // db = column sums = 3 for each output.
        assert_eq!(pass(3), [3.0, 3.0]);
        assert_eq!(pass(1), [4.0, 4.0]);
        net.zero_grads();
        assert_eq!(net.grads().as_slice()[4..], [0.0, 0.0]);
    }

    #[test]
    fn second_backward_adds_a_product_formed_from_zero() {
        // Without `zero_grads` in between, G becomes G + XᵀdY with the
        // product accumulated from zero and then added — not continued
        // from G, which rounds differently. After `zero_grads` one
        // backward leaves the product itself.
        let mut net = NetworkSpec::mlp(5, &[], 3).build(0);
        let batch = |seed: usize, cols: usize| {
            let data = (0..4 * cols)
                .map(|i| ((i * 31 + seed * 17) % 13) as f32 / 3.0 - 2.0)
                .collect();
            Tensor::from_vec(data, [4, cols]).unwrap()
        };
        let backward = |net: &mut Network, pass: usize| {
            let (x, dy) = (batch(pass, 5), batch(pass + 7, 3));
            net.forward(&x);
            net.backward(&dy);
            let mut product = vec![0.0f32; 15];
            kernels::gemm_at_b_reference(4, 5, 3, x.as_slice(), dy.as_slice(), &mut product);
            (bits(&net.grads().as_slice()[..15]), product)
        };
        let mut expected = vec![0.0f32; 15];
        for pass in 0..3 {
            let (got, product) = backward(&mut net, pass);
            for (e, p) in expected.iter_mut().zip(product) {
                *e += p;
            }
            assert_eq!(got, bits(&expected), "pass {pass}");
        }
        net.zero_grads();
        let (got, product) = backward(&mut net, 3);
        assert_eq!(got, bits(&product));
    }

    #[test]
    fn passes_on_a_lent_vector_match_the_copied_ones_bitwise() {
        // `forward_on` + `backward_fresh_on` never read the network's own
        // parameters (NaN here) nor its stale gradients (an accumulated
        // pass here), and give the bits of copy, zero, forward, backward.
        let spec = NetworkSpec::mlp(16, &[12, 8], 3);
        let mut copied = spec.build(1);
        let params = copied.param_vector();
        let mut lent = spec.build(2);
        lent.forward(&input(4));
        lent.backward(&Tensor::ones([4, 3]));
        lent.set_param_vector(
            &Tensor::from_vec(vec![f32::NAN; params.len()], [params.len()]).unwrap(),
        );
        for rows in [5, 3] {
            copied.set_param_vector(&params);
            copied.zero_grads();
            let want = copied.forward(&input(rows));
            let loss = softmax_cross_entropy(&want, &vec![1; rows]);
            copied.backward(&loss.grad);
            let got = lent.forward_on(params.as_slice(), &input(rows));
            lent.backward_fresh_on(params.as_slice(), &loss.grad);
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{rows} rows");
            assert_eq!(
                bits(lent.grads().as_slice()),
                bits(copied.grads().as_slice())
            );
        }
        lent.zero_grads();
        assert!(lent.grads().as_slice().iter().all(|g| g.to_bits() == 0));
    }

    #[test]
    fn a_network_without_its_own_parameters_is_layout_and_scratch() {
        let spec = NetworkSpec::mlp(16, &[12, 8], 3);
        let mut net = spec.build(1);
        let d = net.param_count();
        assert!(net.grads().is_empty(), "gradients sized before a backward");
        let params = net.take_param_vector();
        assert_eq!(params.len(), d);
        assert_eq!(net.param_count(), d, "the count comes from the widths");
        assert!(!net.holds_params());
        // The passes on a lent vector run, and size the gradient buffer.
        net.forward_on(params.as_slice(), &input(4));
        net.backward_fresh_on(params.as_slice(), &Tensor::ones([4, 3]));
        assert_eq!(net.grads().len(), d);
        // The passes on its own parameters refuse until they are set.
        let mut copy = net.clone();
        let own_forward = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            copy.forward(&input(4));
        }));
        assert!(own_forward.is_err(), "forward ran on no parameters");
        net.set_param_vector(&params);
        assert!(net.holds_params());
        assert_eq!(net.param_vector(), params);
        // `zero_grads` sizes the buffer too.
        let mut zeroed = spec.build(1);
        zeroed.zero_grads();
        assert_eq!(bits(zeroed.grads().as_slice()), vec![0; d]);
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
            assert_eq!(
                bits(net.infer(&x).as_slice()),
                bits(net.forward(&x).as_slice()),
                "{hidden:?}"
            );
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
