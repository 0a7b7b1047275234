use preduce_tensor::{relu, relu_backward, Tensor};

use crate::layer::Layer;

/// Elementwise ReLU activation layer.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.input = Some(x.clone());
        relu(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        relu(x)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let input = self
            .input
            .take()
            .expect("Relu::backward called before forward");
        relu_backward(&input, grad)
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

/// Elementwise tanh activation layer.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    /// Cached forward *output* (tanh' = 1 - tanh²).
    output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Tanh::default()
    }
}

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "tanh"
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = self.infer(x);
        self.output = Some(y.clone());
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let mut y = x.clone();
        for v in y.as_mut_slice() {
            *v = v.tanh();
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let y = self
            .output
            .take()
            .expect("Tanh::backward called before forward");
        let mut out = grad.clone();
        for (g, &t) in out.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *g *= 1.0 - t * t;
        }
        out
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
    fn relu_forward_backward() {
        let mut l = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, 3.0], [1, 2]).unwrap();
        let y = l.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 3.0]);
        let dx = l.backward(&Tensor::ones([1, 2]));
        assert_eq!(dx.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn tanh_gradient_matches_finite_difference() {
        let mut l = Tanh::new();
        let x = Tensor::from_vec(vec![0.3, -1.2, 2.0], [1, 3]).unwrap();
        let _ = l.forward(&x);
        let dx = l.backward(&Tensor::ones([1, 3]));
        let eps = 1e-3f64;
        for i in 0..3 {
            let xi = x.as_slice()[i] as f64;
            let numeric = ((xi + eps).tanh() - (xi - eps).tanh()) / (2.0 * eps);
            assert!((dx.as_slice()[i] as f64 - numeric).abs() < 1e-4, "i={i}");
        }
    }

    #[test]
    fn activations_have_no_params() {
        assert_eq!(Relu::new().param_count(), 0);
        assert_eq!(Tanh::new().param_count(), 0);
    }
}
