//! 2-D convolution via im2col + GEMM.
//!
//! Activations flow through the network as rank-2 `[batch, features]`
//! tensors; convolutional layers interpret each row in channel-major order
//! (`offset = c·H·W + y·W + x`) using the spatial metadata carried by the
//! layer itself. This keeps a single activation type throughout while still
//! supporting genuine CNN analogs in the model zoo.

use preduce_tensor::{he_normal, kernels, matmul, matmul_a_bt, matmul_at_b, Tensor};
use rand::Rng;

use crate::layer::Layer;

/// A 2-D convolution layer (`stride`, symmetric zero `padding`).
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_c: usize,
    in_h: usize,
    in_w: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// `[out_c, in_c * kernel * kernel]`.
    weight: Tensor,
    /// `[out_c]`.
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    /// Cached `[batch * positions, K]` im2col matrix from the forward pass.
    col: Option<Tensor>,
    /// Batch size of the cached forward pass.
    batch: usize,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal weights and zero bias.
    ///
    /// # Panics
    /// Panics if any dimension is zero, `stride == 0`, or the configured
    /// geometry yields an empty output.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_c: usize,
        in_h: usize,
        in_w: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(
            in_c > 0 && in_h > 0 && in_w > 0 && out_c > 0 && kernel > 0,
            "zero-sized conv dimension"
        );
        assert!(stride > 0, "stride must be positive");
        let (oh, ow) = out_hw(in_h, in_w, kernel, stride, padding);
        assert!(oh > 0 && ow > 0, "conv output is empty for this geometry");
        let fan_in = in_c * kernel * kernel;
        Conv2d {
            in_c,
            in_h,
            in_w,
            out_c,
            kernel,
            stride,
            padding,
            weight: he_normal(rng, [out_c, fan_in], fan_in),
            bias: Tensor::zeros([out_c]),
            grad_weight: Tensor::zeros([out_c, fan_in]),
            grad_bias: Tensor::zeros([out_c]),
            col: None,
            batch: 0,
        }
    }

    /// Output spatial dimensions `(out_h, out_w)`.
    pub fn output_hw(&self) -> (usize, usize) {
        out_hw(self.in_h, self.in_w, self.kernel, self.stride, self.padding)
    }

    /// Output feature count (`out_c · out_h · out_w`).
    pub fn output_features(&self) -> usize {
        let (oh, ow) = self.output_hw();
        self.out_c * oh * ow
    }

    /// Input feature count (`in_c · in_h · in_w`).
    pub fn input_features(&self) -> usize {
        self.in_c * self.in_h * self.in_w
    }

    fn positions(&self) -> usize {
        let (oh, ow) = self.output_hw();
        oh * ow
    }

    /// Builds the `[batch * positions, K]` im2col matrix for `x`.
    fn im2col(&self, x: &Tensor) -> Tensor {
        let (oh, ow) = self.output_hw();
        let positions = oh * ow;
        let k = self.kernel;
        let kk = self.in_c * k * k;
        let batch = x.shape().dim(0);
        let mut col = vec![0.0f32; batch * positions * kk];
        let xs = x.as_slice();
        let row_len = self.input_features();

        for b in 0..batch {
            let xrow = &xs[b * row_len..(b + 1) * row_len];
            for oy in 0..oh {
                for ox in 0..ow {
                    let pos = oy * ow + ox;
                    let base = (b * positions + pos) * kk;
                    for c in 0..self.in_c {
                        for ky in 0..k {
                            let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                            if iy < 0 || iy >= self.in_h as isize {
                                continue; // zero padding
                            }
                            for kx in 0..k {
                                let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                                if ix < 0 || ix >= self.in_w as isize {
                                    continue;
                                }
                                col[base + c * k * k + ky * k + kx] =
                                    xrow[c * self.in_h * self.in_w
                                        + iy as usize * self.in_w
                                        + ix as usize];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(col, [batch * positions, kk]).expect("im2col volume matches")
    }

    /// Scatter-adds a `[batch * positions, K]` gradient back to input layout.
    fn col2im(&self, dcol: &Tensor, batch: usize) -> Tensor {
        let (oh, ow) = self.output_hw();
        let positions = oh * ow;
        let k = self.kernel;
        let kk = self.in_c * k * k;
        let row_len = self.input_features();
        let mut dx = vec![0.0f32; batch * row_len];
        let ds = dcol.as_slice();

        for b in 0..batch {
            let dxrow = &mut dx[b * row_len..(b + 1) * row_len];
            for oy in 0..oh {
                for ox in 0..ow {
                    let pos = oy * ow + ox;
                    let base = (b * positions + pos) * kk;
                    for c in 0..self.in_c {
                        for ky in 0..k {
                            let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                            if iy < 0 || iy >= self.in_h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                                if ix < 0 || ix >= self.in_w as isize {
                                    continue;
                                }
                                dxrow[c * self.in_h * self.in_w
                                    + iy as usize * self.in_w
                                    + ix as usize] += ds[base + c * k * k + ky * k + kx];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(dx, [batch, row_len]).expect("col2im volume matches")
    }

    /// The `[batch, out_c · positions]` output and the im2col matrix it
    /// was computed from.
    fn convolve(&self, x: &Tensor) -> (Tensor, Tensor) {
        assert_eq!(
            x.shape().dim(1),
            self.input_features(),
            "conv2d expects [batch, {}], got {}",
            self.input_features(),
            x.shape()
        );
        let batch = x.shape().dim(0);
        let positions = self.positions();
        let col = self.im2col(x);

        // [batch*positions, out_c]
        let out = matmul_a_bt(&col, &self.weight);

        // Rearrange to channel-major [batch, out_c * positions] and add bias.
        let mut y = vec![0.0f32; batch * self.out_c * positions];
        let os = out.as_slice();
        for b in 0..batch {
            for pos in 0..positions {
                let src = (b * positions + pos) * self.out_c;
                for c in 0..self.out_c {
                    y[b * self.out_c * positions + c * positions + pos] =
                        os[src + c] + self.bias.as_slice()[c];
                }
            }
        }
        let y = Tensor::from_vec(y, [batch, self.out_c * positions])
            .expect("conv output volume matches");
        (y, col)
    }

    /// Accumulates the weight and bias gradients from the cached im2col
    /// matrix; returns `grad` rearranged to `[batch · positions, out_c]`.
    fn accumulate(&mut self, grad: &Tensor) -> Tensor {
        let col = self
            .col
            .take()
            .expect("Conv2d::backward called before forward");
        let batch = self.batch;
        let positions = self.positions();
        assert_eq!(
            grad.shape().dims(),
            &[batch, self.out_c * positions],
            "conv2d backward grad shape mismatch"
        );

        // Rearrange grad to [batch*positions, out_c].
        let gs = grad.as_slice();
        let mut gmat = vec![0.0f32; batch * positions * self.out_c];
        for b in 0..batch {
            for c in 0..self.out_c {
                for pos in 0..positions {
                    gmat[(b * positions + pos) * self.out_c + c] =
                        gs[b * self.out_c * positions + c * positions + pos];
                }
            }
        }
        let gmat =
            Tensor::from_vec(gmat, [batch * positions, self.out_c]).expect("gmat volume matches");

        // dW += gmatᵀ · col : [out_c, K]
        self.grad_weight.add_assign(&matmul_at_b(&gmat, &col));
        // db += column sums of gmat.
        kernels::col_sums_acc(
            self.grad_bias.as_mut_slice(),
            gmat.as_slice(),
            batch * positions,
            self.out_c,
        );
        gmat
    }
}

fn out_hw(
    in_h: usize,
    in_w: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> (usize, usize) {
    let oh = (in_h + 2 * padding).saturating_sub(kernel) / stride + 1;
    let ow = (in_w + 2 * padding).saturating_sub(kernel) / stride + 1;
    (oh, ow)
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (y, col) = self.convolve(x);
        self.col = Some(col);
        self.batch = x.shape().dim(0);
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.convolve(x).0
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let gmat = self.accumulate(grad);
        // dcol = gmat · W : [batch*positions, K], then scatter back.
        let dcol = matmul(&gmat, &self.weight);
        self.col2im(&dcol, self.batch)
    }

    fn backward_params(&mut self, grad: &Tensor) {
        self.accumulate(grad);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn zero_grads(&mut self) {
        self.grad_weight.fill_zero();
        self.grad_bias.fill_zero();
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
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
    fn output_geometry() {
        let c = Conv2d::new(&mut rng(), 3, 8, 8, 4, 3, 1, 1);
        assert_eq!(c.output_hw(), (8, 8)); // "same" padding
        let c = Conv2d::new(&mut rng(), 3, 8, 8, 4, 3, 2, 1);
        assert_eq!(c.output_hw(), (4, 4));
        let c = Conv2d::new(&mut rng(), 1, 5, 5, 1, 3, 1, 0);
        assert_eq!(c.output_hw(), (3, 3));
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        // 1 channel, 1x1 kernel with weight 1: output == input.
        let mut c = Conv2d::new(&mut rng(), 1, 3, 3, 1, 1, 1, 0);
        c.params_mut()[0].as_mut_slice()[0] = 1.0;
        let x = Tensor::from_vec((0..9).map(|i| i as f32).collect(), [1, 9]).unwrap();
        let y = c.forward(&x);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_3x3_valid_convolution() {
        // Single 2x2 kernel of ones over a 3x3 input: each output is the sum
        // of a 2x2 window.
        let mut c = Conv2d::new(&mut rng(), 1, 3, 3, 1, 2, 1, 0);
        for w in c.params_mut()[0].as_mut_slice() {
            *w = 1.0;
        }
        let x =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], [1, 9]).unwrap();
        let y = c.forward(&x);
        // Windows: [1,2,4,5]=12  [2,3,5,6]=16  [4,5,7,8]=24  [5,6,8,9]=28
        assert_eq!(y.as_slice(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let mut c = Conv2d::new(&mut rng(), 1, 2, 2, 2, 1, 1, 0);
        for w in c.params_mut()[0].as_mut_slice() {
            *w = 0.0;
        }
        c.params_mut()[1]
            .as_mut_slice()
            .copy_from_slice(&[1.5, -2.5]);
        let y = c.forward(&Tensor::zeros([1, 4]));
        assert_eq!(y.as_slice()[..4], [1.5; 4]);
        assert_eq!(y.as_slice()[4..], [-2.5; 4]);
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut c = Conv2d::new(&mut rng(), 2, 4, 4, 3, 3, 1, 1);
        let mut xr = rng();
        use rand::Rng;
        let x = Tensor::from_vec(
            (0..2 * 2 * 16)
                .map(|_| xr.gen_range(-1.0f32..1.0))
                .collect(),
            [2, 32],
        )
        .unwrap();

        let y = c.forward(&x);
        let ones = Tensor::ones(y.shape().clone());
        let _ = c.backward(&ones);
        let analytic = c.grads()[0].clone();

        let eps = 1e-2f32;
        // Spot-check a handful of weights.
        for idx in [0usize, 5, 17, 30, 50] {
            let orig = c.params()[0].as_slice()[idx];
            c.params_mut()[0].as_mut_slice()[idx] = orig + eps;
            let hi: f64 = c.forward(&x).sum();
            c.params_mut()[0].as_mut_slice()[idx] = orig - eps;
            let lo: f64 = c.forward(&x).sum();
            c.params_mut()[0].as_mut_slice()[idx] = orig;
            let numeric = ((hi - lo) / (2.0 * eps as f64)) as f32;
            let a = analytic.as_slice()[idx];
            assert!(
                (a - numeric).abs() < 0.05 * numeric.abs().max(1.0),
                "w[{idx}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut c = Conv2d::new(&mut rng(), 1, 3, 3, 2, 2, 1, 0);
        let mut x = Tensor::from_vec((0..9).map(|i| 0.1 * i as f32).collect(), [1, 9]).unwrap();
        let y = c.forward(&x);
        let dx = c.backward(&Tensor::ones(y.shape().clone()));

        let eps = 1e-2f32;
        for idx in 0..9 {
            let orig = x.as_slice()[idx];
            x.as_mut_slice()[idx] = orig + eps;
            let hi: f64 = c.forward(&x).sum();
            x.as_mut_slice()[idx] = orig - eps;
            let lo: f64 = c.forward(&x).sum();
            x.as_mut_slice()[idx] = orig;
            let numeric = ((hi - lo) / (2.0 * eps as f64)) as f32;
            let a = dx.as_slice()[idx];
            assert!(
                (a - numeric).abs() < 1e-2,
                "x[{idx}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn param_count() {
        let c = Conv2d::new(&mut rng(), 3, 8, 8, 16, 3, 1, 1);
        assert_eq!(c.param_count(), 16 * 3 * 9 + 16);
    }
}
