//! Layer normalization and dropout — the regularization layers modern
//! architectures lean on. LayerNorm is chosen over BatchNorm deliberately:
//! it keeps no running statistics, so model *averaging* (the heart of
//! partial reduce) stays a pure parameter-vector operation.

use preduce_tensor::Tensor;
use rand::{Rng, SeedableRng};

use crate::layer::Layer;

/// Per-row layer normalization with learned gain and bias:
/// `y = (x − μ_row)/√(σ²_row + ε) · γ + β`.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    features: usize,
    eps: f32,
    /// Cached normalized input and per-row inverse std from the forward.
    cache: Option<(Tensor, Vec<f32>)>,
}

impl LayerNorm {
    /// Creates a layer-norm over `features`-wide rows (γ = 1, β = 0).
    ///
    /// # Panics
    /// Panics if `features == 0`.
    pub fn new(features: usize) -> Self {
        assert!(features > 0, "zero-width layer norm");
        LayerNorm {
            gamma: Tensor::ones([features]),
            beta: Tensor::zeros([features]),
            grad_gamma: Tensor::zeros([features]),
            grad_beta: Tensor::zeros([features]),
            features,
            eps: 1e-5,
            cache: None,
        }
    }

    /// The normalized rows `(x − μ)/√(σ² + ε)` and each row's inverse std.
    fn normalize(&self, x: &Tensor) -> (Tensor, Vec<f32>) {
        assert_eq!(
            x.shape().dim(1),
            self.features,
            "layernorm expects [batch, {}], got {}",
            self.features,
            x.shape()
        );
        let (batch, d) = (x.shape().dim(0), self.features);
        let mut normalized = x.clone();
        let mut inv_std = Vec::with_capacity(batch);
        for r in 0..batch {
            let row = normalized.row_mut(r);
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let istd = 1.0 / (var + self.eps).sqrt();
            for v in row.iter_mut() {
                *v = (*v - mean) * istd;
            }
            inv_std.push(istd);
        }
        (normalized, inv_std)
    }

    /// `x̂ · γ + β`, row by row.
    fn affine(&self, mut y: Tensor) -> Tensor {
        for r in 0..y.shape().dim(0) {
            let row = y.row_mut(r);
            for (j, v) in row.iter_mut().enumerate() {
                *v = *v * self.gamma.as_slice()[j] + self.beta.as_slice()[j];
            }
        }
        y
    }
}

impl Layer for LayerNorm {
    fn name(&self) -> &'static str {
        "layernorm"
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (normalized, inv_std) = self.normalize(x);
        let y = self.affine(normalized.clone());
        self.cache = Some((normalized, inv_std));
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.affine(self.normalize(x).0)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (normalized, inv_std) = self
            .cache
            .take()
            .expect("LayerNorm::backward called before forward");
        let (batch, d) = (grad.shape().dim(0), self.features);

        // Parameter gradients.
        for r in 0..batch {
            let g = grad.row(r);
            let xn = normalized.row(r);
            for j in 0..d {
                self.grad_gamma.as_mut_slice()[j] += g[j] * xn[j];
                self.grad_beta.as_mut_slice()[j] += g[j];
            }
        }

        // Input gradient: with ĝ = g ⊙ γ,
        // dx = istd · (ĝ − mean(ĝ) − x̂ · mean(ĝ ⊙ x̂)).
        let mut dx = Tensor::zeros([batch, d]);
        for (r, &istd) in inv_std.iter().enumerate().take(batch) {
            let g = grad.row(r);
            let xn = normalized.row(r);
            let gam = self.gamma.as_slice();
            let mut sum_g = 0.0f32;
            let mut sum_gx = 0.0f32;
            for j in 0..d {
                let gh = g[j] * gam[j];
                sum_g += gh;
                sum_gx += gh * xn[j];
            }
            let mean_g = sum_g / d as f32;
            let mean_gx = sum_gx / d as f32;
            let out = dx.row_mut(r);
            for j in 0..d {
                let gh = g[j] * gam[j];
                out[j] = istd * (gh - mean_g - xn[j] * mean_gx);
            }
        }
        dx
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_gamma, &self.grad_beta]
    }

    fn zero_grads(&mut self) {
        self.grad_gamma.fill_zero();
        self.grad_beta.fill_zero();
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Inverted dropout: the training forward zeroes each activation with
/// probability `p` and scales survivors by `1/(1−p)`; the evaluation
/// forward ([`Layer::infer`]) is the identity.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: rand::rngs::StdRng,
    mask: Option<Vec<bool>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`, seeded for
    /// reproducibility.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        Dropout {
            p,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        x.clone()
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        if self.p == 0.0 {
            self.mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut y = x.clone();
        let mask: Vec<bool> = y
            .as_mut_slice()
            .iter_mut()
            .map(|v| {
                if self.rng.gen::<f32>() < self.p {
                    *v = 0.0;
                    false
                } else {
                    *v *= scale;
                    true
                }
            })
            .collect();
        self.mask = Some(mask);
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        match self.mask.take() {
            None => grad.clone(),
            Some(mask) => {
                let scale = 1.0 / (1.0 - self.p);
                let mut dx = grad.clone();
                for (v, keep) in dx.as_mut_slice().iter_mut().zip(mask) {
                    *v = if keep { *v * scale } else { 0.0 };
                }
                dx
            }
        }
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn zero_grads(&mut self) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layernorm_rows_have_zero_mean_unit_var() {
        let mut ln = LayerNorm::new(8);
        let x = Tensor::from_vec((0..16).map(|i| (i * i) as f32).collect(), [2, 8]).unwrap();
        let y = ln.forward(&x);
        for r in 0..2 {
            let row = y.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn layernorm_gradient_check() {
        let mut ln = LayerNorm::new(5);
        // Non-trivial gamma/beta.
        ln.params_mut()[0]
            .as_mut_slice()
            .copy_from_slice(&[0.5, 1.5, -1.0, 2.0, 1.0]);
        ln.params_mut()[1]
            .as_mut_slice()
            .copy_from_slice(&[0.1, -0.2, 0.3, 0.0, -0.1]);
        let mut x = Tensor::from_vec(
            vec![0.5, -1.0, 2.0, 0.3, -0.7, 1.1, 0.9, -0.4, 0.0, 1.7],
            [2, 5],
        )
        .unwrap();

        // Loss = weighted sum of outputs (weights to break symmetry).
        let w: Vec<f32> = (0..10).map(|i| 0.1 * (i as f32 + 1.0)).collect();
        let loss = |ln: &mut LayerNorm, x: &Tensor| -> f64 {
            ln.forward(x)
                .as_slice()
                .iter()
                .zip(&w)
                .map(|(&y, &wi)| (y * wi) as f64)
                .sum()
        };

        let _ = loss(&mut ln, &x);
        let grad = Tensor::from_vec(w.clone(), [2, 5]).unwrap();
        ln.zero_grads();
        let y = ln.forward(&x);
        let _ = y;
        let dx = ln.backward(&grad);
        let dgamma = ln.grads()[0].clone();

        let eps = 1e-3f32;
        // Input gradient.
        for i in 0..10 {
            let orig = x.as_slice()[i];
            x.as_mut_slice()[i] = orig + eps;
            let hi = loss(&mut ln, &x);
            x.as_mut_slice()[i] = orig - eps;
            let lo = loss(&mut ln, &x);
            x.as_mut_slice()[i] = orig;
            let numeric = ((hi - lo) / (2.0 * eps as f64)) as f32;
            assert!(
                (dx.as_slice()[i] - numeric).abs() < 1e-2,
                "dx[{i}]: {} vs {numeric}",
                dx.as_slice()[i]
            );
        }
        // Gamma gradient.
        for j in 0..5 {
            let orig = ln.params()[0].as_slice()[j];
            ln.params_mut()[0].as_mut_slice()[j] = orig + eps;
            let hi = loss(&mut ln, &x);
            ln.params_mut()[0].as_mut_slice()[j] = orig - eps;
            let lo = loss(&mut ln, &x);
            ln.params_mut()[0].as_mut_slice()[j] = orig;
            let numeric = ((hi - lo) / (2.0 * eps as f64)) as f32;
            assert!(
                (dgamma.as_slice()[j] - numeric).abs() < 1e-2,
                "dgamma[{j}]: {} vs {numeric}",
                dgamma.as_slice()[j]
            );
        }
    }

    #[test]
    fn dropout_eval_mode_is_identity() {
        let d = Dropout::new(0.5, 0);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]).unwrap();
        assert_eq!(d.infer(&x), x);
    }

    #[test]
    fn dropout_preserves_expectation() {
        let mut d = Dropout::new(0.3, 7);
        let x = Tensor::ones([1, 20_000]);
        let y = d.forward(&x);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.03, "mean {mean}");
        // Dropped fraction near p.
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count() as f64 / 20_000.0;
        assert!((zeros - 0.3).abs() < 0.02, "dropped {zeros}");
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones([1, 100]);
        let y = d.forward(&x);
        let g = Tensor::ones([1, 100]);
        let dx = d.backward(&g);
        // Gradient flows exactly where the forward pass kept activations.
        for (yi, di) in y.as_slice().iter().zip(dx.as_slice()) {
            assert_eq!(*yi == 0.0, *di == 0.0);
        }
    }

    #[test]
    fn zero_probability_dropout_is_identity_in_training() {
        let mut d = Dropout::new(0.0, 0);
        let x = Tensor::from_vec(vec![5.0, -2.0], [1, 2]).unwrap();
        assert_eq!(d.forward(&x), x);
    }
}
