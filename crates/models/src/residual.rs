//! Residual blocks: `y = x + f(x)` for a dimension-preserving inner stack.
//!
//! Gives the model zoo architecturally-honest ResNet analogs (skip
//! connections genuinely change optimization dynamics) while remaining a
//! plain [`Layer`], so distributed strategies need no special handling.

use preduce_tensor::Tensor;

use crate::layer::{backward_all, backward_params_all, forward_all, infer_all, Layer};

/// A residual block wrapping an inner layer stack.
pub struct Residual {
    inner: Vec<Box<dyn Layer>>,
}

impl Clone for Residual {
    fn clone(&self) -> Self {
        Residual {
            inner: self.inner.clone(),
        }
    }
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Residual({} inner layers)", self.inner.len())
    }
}

impl Residual {
    /// Wraps `inner` in a skip connection. The inner stack must preserve
    /// the feature dimension (validated at spec level and again at
    /// runtime by the addition).
    ///
    /// # Panics
    /// Panics if `inner` is empty.
    pub fn new(inner: Vec<Box<dyn Layer>>) -> Self {
        assert!(!inner.is_empty(), "empty residual block");
        Residual { inner }
    }
}

/// `f(x) + x`, checking that the inner stack preserved the shape.
fn add_skip(mut h: Tensor, x: &Tensor) -> Tensor {
    assert_eq!(
        h.shape(),
        x.shape(),
        "residual inner stack changed shape: {} -> {}",
        x.shape(),
        h.shape()
    );
    h.add_assign(x);
    h
}

impl Layer for Residual {
    fn name(&self) -> &'static str {
        "residual"
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        add_skip(forward_all(&mut self.inner, x), x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        add_skip(infer_all(&self.inner, x), x)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut g = backward_all(&mut self.inner, grad);
        // Skip path adds the incoming gradient directly.
        g.add_assign(grad);
        g
    }

    fn backward_params(&mut self, grad: &Tensor) {
        backward_params_all(&mut self.inner, grad);
    }

    fn params(&self) -> Vec<&Tensor> {
        self.inner.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.inner.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    fn grads(&self) -> Vec<&Tensor> {
        self.inner.iter().flat_map(|l| l.grads()).collect()
    }

    fn zero_grads(&mut self) {
        for l in &mut self.inner {
            l.zero_grads();
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::dense::Dense;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    fn block(d: usize) -> Residual {
        Residual::new(vec![
            Box::new(Dense::new(&mut rng(), d, d)),
            Box::new(Relu::new()),
            Box::new(Dense::new(&mut rng(), d, d)),
        ])
    }

    #[test]
    fn forward_adds_skip_path() {
        // Zero the inner weights: block becomes the identity.
        let mut b = block(4);
        for p in b.params_mut() {
            p.fill_zero();
        }
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5], [1, 4]).unwrap();
        assert_eq!(b.forward(&x), x);
    }

    #[test]
    fn param_plumbing_covers_inner_layers() {
        let b = block(4);
        // Two dense layers: 2 weights + 2 biases.
        assert_eq!(b.params().len(), 4);
        assert_eq!(b.param_count(), 2 * (4 * 4 + 4));
    }

    #[test]
    fn gradient_check_through_skip() {
        let mut b = block(3);
        let mut x = Tensor::from_vec(vec![0.4, -0.9, 1.2, 0.1, 0.8, -0.3], [2, 3]).unwrap();
        let y = b.forward(&x);
        b.zero_grads();
        let dx = b.backward(&Tensor::ones(y.shape().clone()));

        let eps = 1e-3f32;
        for i in 0..6 {
            let orig = x.as_slice()[i];
            x.as_mut_slice()[i] = orig + eps;
            let hi: f64 = b.forward(&x).sum();
            x.as_mut_slice()[i] = orig - eps;
            let lo: f64 = b.forward(&x).sum();
            x.as_mut_slice()[i] = orig;
            let numeric = ((hi - lo) / (2.0 * eps as f64)) as f32;
            assert!(
                (dx.as_slice()[i] - numeric).abs() < 1e-2,
                "dx[{i}]: {} vs {numeric}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "changed shape")]
    fn rejects_dimension_changing_inner_stack() {
        let mut b = Residual::new(vec![Box::new(Dense::new(&mut rng(), 4, 2))]);
        b.forward(&Tensor::ones([1, 4]));
    }
}
