//! Spatial pooling layers (channel-major `[batch, c·h·w]` activations, like
//! [`crate::Conv2d`]).

use preduce_tensor::Tensor;

use crate::layer::Layer;

/// Max pooling with a square window and equal stride.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    channels: usize,
    in_h: usize,
    in_w: usize,
    window: usize,
    /// Argmax input offsets from the forward pass, one per output element.
    argmax: Option<Vec<usize>>,
    batch: usize,
}

impl MaxPool2d {
    /// Creates a max-pool layer with `window`×`window` windows and stride
    /// equal to `window` (the common non-overlapping configuration).
    ///
    /// # Panics
    /// Panics if the window is zero or larger than the input.
    pub fn new(channels: usize, in_h: usize, in_w: usize, window: usize) -> Self {
        assert!(window > 0, "pool window must be positive");
        assert!(
            window <= in_h && window <= in_w,
            "pool window {window} exceeds input {in_h}x{in_w}"
        );
        MaxPool2d {
            channels,
            in_h,
            in_w,
            window,
            argmax: None,
            batch: 0,
        }
    }

    /// Output spatial dimensions.
    pub fn output_hw(&self) -> (usize, usize) {
        (self.in_h / self.window, self.in_w / self.window)
    }

    /// Output feature count.
    pub fn output_features(&self) -> usize {
        let (oh, ow) = self.output_hw();
        self.channels * oh * ow
    }

    /// Input feature count.
    pub fn input_features(&self) -> usize {
        self.channels * self.in_h * self.in_w
    }

    /// The pooled output and, per output element, the input offset of its
    /// maximum.
    fn pool(&self, x: &Tensor) -> (Tensor, Vec<usize>) {
        assert_eq!(
            x.shape().dim(1),
            self.input_features(),
            "maxpool expects [batch, {}], got {}",
            self.input_features(),
            x.shape()
        );
        let batch = x.shape().dim(0);
        let (oh, ow) = self.output_hw();
        let w = self.window;
        let xs = x.as_slice();
        let in_row = self.input_features();
        let out_row = self.output_features();

        let mut y = vec![f32::NEG_INFINITY; batch * out_row];
        let mut argmax = vec![0usize; batch * out_row];
        for b in 0..batch {
            for c in 0..self.channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let out_idx = b * out_row + c * oh * ow + oy * ow + ox;
                        for ky in 0..w {
                            for kx in 0..w {
                                let iy = oy * w + ky;
                                let ix = ox * w + kx;
                                let in_idx =
                                    b * in_row + c * self.in_h * self.in_w + iy * self.in_w + ix;
                                if xs[in_idx] > y[out_idx] {
                                    y[out_idx] = xs[in_idx];
                                    argmax[out_idx] = in_idx;
                                }
                            }
                        }
                    }
                }
            }
        }
        let y = Tensor::from_vec(y, [batch, out_row]).expect("pool volume matches");
        (y, argmax)
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (y, argmax) = self.pool(x);
        self.argmax = Some(argmax);
        self.batch = x.shape().dim(0);
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.pool(x).0
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let argmax = self
            .argmax
            .take()
            .expect("MaxPool2d::backward called before forward");
        let mut dx = Tensor::zeros([self.batch, self.input_features()]);
        let dxs = dx.as_mut_slice();
        for (g, &src) in grad.as_slice().iter().zip(argmax.iter()) {
            dxs[src] += g;
        }
        dx
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

/// Global average pooling: collapses each channel's spatial map to its mean,
/// producing `[batch, channels]`.
#[derive(Debug, Clone)]
pub struct GlobalAvgPool {
    channels: usize,
    spatial: usize,
    batch: usize,
}

impl GlobalAvgPool {
    /// Creates a global-average-pool layer over `h·w`-sized channel maps.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(channels: usize, in_h: usize, in_w: usize) -> Self {
        assert!(channels > 0 && in_h > 0 && in_w > 0, "zero-sized pool");
        GlobalAvgPool {
            channels,
            spatial: in_h * in_w,
            batch: 0,
        }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &'static str {
        "globalavgpool"
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.batch = x.shape().dim(0);
        self.infer(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let in_row = self.channels * self.spatial;
        assert_eq!(
            x.shape().dim(1),
            in_row,
            "globalavgpool expects [batch, {in_row}], got {}",
            x.shape()
        );
        let batch = x.shape().dim(0);
        let xs = x.as_slice();
        let mut y = vec![0.0f32; batch * self.channels];
        for b in 0..batch {
            for c in 0..self.channels {
                let base = b * in_row + c * self.spatial;
                let sum: f32 = xs[base..base + self.spatial].iter().sum();
                y[b * self.channels + c] = sum / self.spatial as f32;
            }
        }
        Tensor::from_vec(y, [batch, self.channels]).expect("volume matches")
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let in_row = self.channels * self.spatial;
        let mut dx = Tensor::zeros([self.batch, in_row]);
        let gs = grad.as_slice();
        let dxs = dx.as_mut_slice();
        let scale = 1.0 / self.spatial as f32;
        for b in 0..self.batch {
            for c in 0..self.channels {
                let g = gs[b * self.channels + c] * scale;
                let base = b * in_row + c * self.spatial;
                for v in &mut dxs[base..base + self.spatial] {
                    *v = g;
                }
            }
        }
        dx
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
    fn maxpool_picks_window_maxima() {
        let mut p = MaxPool2d::new(1, 4, 4, 2);
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), [1, 16]).unwrap();
        let y = p.forward(&x);
        // Windows: max of {0,1,4,5}=5 {2,3,6,7}=7 {8,9,12,13}=13 {10,11,14,15}=15
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut p = MaxPool2d::new(1, 2, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 9.0, 3.0, 2.0], [1, 4]).unwrap();
        let _ = p.forward(&x);
        let dx = p.backward(&Tensor::from_vec(vec![5.0], [1, 1]).unwrap());
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_multi_channel_independent() {
        let mut p = MaxPool2d::new(2, 2, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 40.0, 30.0, 20.0, 10.0], [1, 8]).unwrap();
        assert_eq!(p.forward(&x).as_slice(), &[4.0, 40.0]);
    }

    #[test]
    fn global_avg_pool_means() {
        let mut p = GlobalAvgPool::new(2, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0], [1, 8]).unwrap();
        assert_eq!(p.forward(&x).as_slice(), &[2.5, 10.0]);
    }

    #[test]
    fn global_avg_pool_backward_spreads_evenly() {
        let mut p = GlobalAvgPool::new(1, 2, 2);
        let _ = p.forward(&Tensor::ones([1, 4]));
        let dx = p.backward(&Tensor::from_vec(vec![8.0], [1, 1]).unwrap());
        assert_eq!(dx.as_slice(), &[2.0; 4]);
    }

    #[test]
    fn pool_gradient_conserves_mass() {
        let mut p = MaxPool2d::new(1, 4, 4, 2);
        let x = Tensor::from_vec((0..16).map(|i| (i * 7 % 13) as f32).collect(), [1, 16]).unwrap();
        let y = p.forward(&x);
        let g = Tensor::ones(y.shape().clone());
        let dx = p.backward(&g);
        assert_eq!(dx.sum(), g.sum());
    }
}
