use preduce_tensor::{he_normal, kernels, matmul, matmul_a_bt, matmul_at_b, Tensor};
use rand::Rng;

/// A fully-connected layer: `y = x · W + b` with `W: [in, out]`, `b: [out]`.
///
/// The layer owns its parameters and gradient accumulators; the forward
/// input its weight gradient needs is kept by the [`Network`](crate::Network)
/// and handed back to [`Dense::accumulate`], which *adds* into the stored
/// gradients (call [`Dense::zero_grads`] between optimizer steps).
#[derive(Debug, Clone)]
pub(crate) struct Dense {
    pub(crate) weight: Tensor,
    pub(crate) bias: Tensor,
    pub(crate) grad_weight: Tensor,
    pub(crate) grad_bias: Tensor,
    /// Whether `grad_weight` is all `+0.0`: set by [`Dense::zero_grads`],
    /// cleared by the first [`Dense::accumulate`] after it.
    grad_weight_zeroed: bool,
    in_features: usize,
    out_features: usize,
}

impl Dense {
    /// Creates a dense layer with He-normal weights and zero bias.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub(crate) fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_features: usize,
        out_features: usize,
    ) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "zero-sized dense layer"
        );
        Dense {
            weight: he_normal(rng, [in_features, out_features], in_features),
            bias: Tensor::zeros([out_features]),
            grad_weight: Tensor::zeros([in_features, out_features]),
            grad_bias: Tensor::zeros([out_features]),
            grad_weight_zeroed: true,
            in_features,
            out_features,
        }
    }

    /// Input feature count.
    pub(crate) fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub(crate) fn out_features(&self) -> usize {
        self.out_features
    }

    /// Number of scalar parameters: `in · out + out`.
    pub(crate) fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// `x · W + b` for a `[batch, in_features]` activation tensor.
    ///
    /// # Panics
    /// Panics if `x` is not `[batch, in_features]`.
    pub(crate) fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(
            x.shape().dim(1),
            self.in_features,
            "dense layer expects [batch, {}], got {}",
            self.in_features,
            x.shape()
        );
        let mut y = matmul(x, &self.weight);
        let batch = y.shape().dim(0);
        kernels::add_bias_rows(
            y.as_mut_slice(),
            batch,
            self.out_features,
            self.bias.as_slice(),
        );
        y
    }

    /// The gradient w.r.t. the layer's input, `g · Wᵀ`, given the gradient
    /// `grad` w.r.t. its output.
    pub(crate) fn input_grad(&self, grad: &Tensor) -> Tensor {
        matmul_a_bt(grad, &self.weight)
    }

    /// Adds to `grad_weight` and `grad_bias` the contribution of one
    /// forward `input` and the gradient `grad` w.r.t. the output it
    /// produced.
    pub(crate) fn accumulate(&mut self, input: &Tensor, grad: &Tensor) {
        let batch = grad.shape().dim(0);
        // dW += xᵀ · g, the product formed from zero and then added. Into
        // a zeroed accumulator that is the product itself (`0 + x` is `x`,
        // and a sum that starts at `+0.0` is never `-0.0`), so the kernel
        // writes it in place; only an accumulating call needs the
        // temporary.
        if std::mem::take(&mut self.grad_weight_zeroed) {
            kernels::gemm_at_b(
                batch,
                self.in_features,
                self.out_features,
                input.as_slice(),
                grad.as_slice(),
                self.grad_weight.as_mut_slice(),
            );
        } else {
            self.grad_weight.add_assign(&matmul_at_b(input, grad));
        }
        // db += column sums of g
        kernels::col_sums_acc(
            self.grad_bias.as_mut_slice(),
            grad.as_slice(),
            batch,
            self.out_features,
        );
    }

    /// Resets the accumulated gradients to zero.
    pub(crate) fn zero_grads(&mut self) {
        self.grad_weight.fill_zero();
        self.grad_bias.fill_zero();
        self.grad_weight_zeroed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0)
    }

    #[test]
    fn forward_matches_manual_computation() {
        let mut l = Dense::new(&mut rng(), 2, 3);
        // Overwrite params with known values.
        l.weight
            .as_mut_slice()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        l.bias.as_mut_slice().copy_from_slice(&[0.1, 0.2, 0.3]);
        let x = Tensor::from_vec(vec![1.0, 1.0], [1, 2]).unwrap();
        let y = l.forward(&x);
        // y = [1+4, 2+5, 3+6] + b = [5.1, 7.2, 9.3]
        let expect = [5.1f32, 7.2, 9.3];
        for (a, b) in y.as_slice().iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn bias_gradient_accumulates_until_zeroed() {
        let mut l = Dense::new(&mut rng(), 2, 2);
        // db = column sums = 3 for each output.
        l.accumulate(&Tensor::ones([3, 2]), &Tensor::ones([3, 2]));
        assert_eq!(l.grad_bias.as_slice(), &[3.0, 3.0]);
        l.accumulate(&Tensor::ones([1, 2]), &Tensor::ones([1, 2]));
        assert_eq!(l.grad_bias.as_slice(), &[4.0, 4.0]);
        l.zero_grads();
        assert_eq!(l.grad_bias.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn second_accumulate_adds_a_product_formed_from_zero() {
        // Without `zero_grads` in between, G becomes G + XᵀdY with the
        // product accumulated from zero and then added — not continued
        // from G, which rounds differently.
        let mut l = Dense::new(&mut rng(), 5, 3);
        let batch = |seed: usize, cols: usize| {
            let data = (0..4 * cols)
                .map(|i| ((i * 31 + seed * 17) % 13) as f32 / 3.0 - 2.0)
                .collect();
            Tensor::from_vec(data, [4, cols]).unwrap()
        };
        let mut expected = Tensor::zeros([5, 3]);
        for pass in 0..3 {
            let (x, dy) = (batch(pass, 5), batch(pass + 7, 3));
            l.accumulate(&x, &dy);
            expected.add_assign(&matmul_at_b(&x, &dy));
        }
        assert_eq!(crate::bits(&l.grad_weight), crate::bits(&expected));
    }

    #[test]
    fn param_count_is_w_plus_b() {
        let l = Dense::new(&mut rng(), 4, 5);
        assert_eq!(l.param_count(), 4 * 5 + 5);
    }

    #[test]
    fn finite_difference_gradient_check() {
        // Loss = sum(forward(x)); check dL/dW numerically.
        let mut l = Dense::new(&mut rng(), 3, 2);
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5], [2, 3]).unwrap();

        let y = l.forward(&x);
        l.accumulate(&x, &Tensor::ones(y.shape().clone()));
        let analytic = l.grad_weight.clone();

        let eps = 1e-3f32;
        for idx in 0..l.weight.len() {
            let orig = l.weight.as_slice()[idx];
            l.weight.as_mut_slice()[idx] = orig + eps;
            let y_hi: f64 = l.forward(&x).sum();
            l.weight.as_mut_slice()[idx] = orig - eps;
            let y_lo: f64 = l.forward(&x).sum();
            l.weight.as_mut_slice()[idx] = orig;
            let numeric = ((y_hi - y_lo) / (2.0 * eps as f64)) as f32;
            let a = analytic.as_slice()[idx];
            assert!(
                (a - numeric).abs() < 1e-2,
                "param {idx}: analytic {a} vs numeric {numeric}"
            );
        }
    }
}
