use preduce_tensor::Tensor;

/// A trainable (or stateless) network layer.
///
/// Layers own their parameters and gradient accumulators and cache whatever
/// forward-pass state their backward pass needs. `forward` then `backward`
/// must be called in matched pairs; `backward` *accumulates* into the stored
/// gradients so gradient accumulation across micro-batches works naturally
/// (call [`Layer::zero_grads`] between optimizer steps). [`Layer::infer`] is
/// the same arithmetic for a pass no backward will follow: it takes `&self`
/// and stores nothing, so one network serves any number of evaluation
/// threads.
pub trait Layer: Send + Sync {
    /// Short human-readable layer name (for debugging and spec display).
    fn name(&self) -> &'static str;

    /// The training forward pass on a `[batch, in_features]` activation
    /// tensor, returning `[batch, out_features]` and caching what
    /// [`Layer::backward`] needs. Train-only behaviour (dropout) applies.
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// The evaluation forward pass: the same values as [`Layer::forward`]
    /// with train-only behaviour off (dropout is the identity), nothing
    /// cached.
    fn infer(&self, x: &Tensor) -> Tensor;

    /// Propagates `grad` (w.r.t. this layer's output) backward, accumulating
    /// parameter gradients and returning the gradient w.r.t. the input.
    ///
    /// # Panics
    /// Implementations panic if called before `forward`.
    fn backward(&mut self, grad: &Tensor) -> Tensor;

    /// [`Layer::backward`] without the input gradient — what a network's
    /// first layer needs, since nothing reads the gradient of the data.
    /// The default forms it and drops it; layers whose input gradient costs
    /// a GEMM override.
    ///
    /// # Panics
    /// Implementations panic if called before `forward`.
    fn backward_params(&mut self, grad: &Tensor) {
        self.backward(grad);
    }

    /// Immutable views of the layer's parameter tensors (possibly empty).
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable views of the layer's parameter tensors (same order as
    /// [`Layer::params`]).
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Immutable views of the accumulated gradients (same order/shapes as
    /// [`Layer::params`]).
    fn grads(&self) -> Vec<&Tensor>;

    /// Resets all accumulated gradients to zero.
    fn zero_grads(&mut self);

    /// Total number of scalar parameters in this layer.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Clones the layer (parameters and gradients included) behind a box.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Runs `x` through `layers` in order with the training forward.
pub(crate) fn forward_all(layers: &mut [Box<dyn Layer>], x: &Tensor) -> Tensor {
    let Some((first, rest)) = layers.split_first_mut() else {
        return x.clone();
    };
    rest.iter_mut()
        .fold(first.forward(x), |h, layer| layer.forward(&h))
}

/// Runs `x` through `layers` in order with the evaluation forward.
pub(crate) fn infer_all(layers: &[Box<dyn Layer>], x: &Tensor) -> Tensor {
    let Some((first, rest)) = layers.split_first() else {
        return x.clone();
    };
    rest.iter().fold(first.infer(x), |h, layer| layer.infer(&h))
}

/// Propagates `grad` through `layers` last to first, returning the gradient
/// w.r.t. the stack's input.
pub(crate) fn backward_all(layers: &mut [Box<dyn Layer>], grad: &Tensor) -> Tensor {
    let Some((last, rest)) = layers.split_last_mut() else {
        return grad.clone();
    };
    rest.iter_mut()
        .rev()
        .fold(last.backward(grad), |g, layer| layer.backward(&g))
}

/// [`backward_all`] for a stack whose input gradient nobody reads: the
/// first layer only accumulates its parameter gradients.
pub(crate) fn backward_params_all(layers: &mut [Box<dyn Layer>], grad: &Tensor) {
    match layers.split_first_mut() {
        None => {}
        Some((first, [])) => first.backward_params(grad),
        Some((first, rest)) => first.backward_params(&backward_all(rest, grad)),
    }
}
