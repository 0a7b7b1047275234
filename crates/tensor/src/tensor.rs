use crate::error::TensorError;
use crate::shape::Shape;

/// An owned, dense, row-major `f32` tensor.
///
/// This is the single numeric container used across the workspace: model
/// parameters, gradients, activations, synthetic datasets, and the
/// synchronization matrices of the paper's analysis are all `Tensor`s.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a data buffer and shape.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![0.0; shape.volume()],
            shape,
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![value; shape.volume()],
            shape,
        }
    }

    /// Creates a one-filled tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying buffer (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.shape.offset(idx);
        self.data[off] = value;
    }

    /// Row `r` of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not rank-2 or `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.shape.rank(), 2, "row() requires a rank-2 tensor");
        let cols = self.shape.dim(1);
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable row `r` of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not rank-2 or `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.shape.rank(), 2, "row_mut() requires a rank-2 tensor");
        let cols = self.shape.dim(1);
        &mut self.data[r * cols..(r + 1) * cols]
    }

    fn assert_same_shape(&self, other: &Tensor, op: &'static str) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch in `{op}`: {} vs {}",
            self.shape, other.shape
        );
    }

    /// `self += other`, elementwise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other, "add_assign");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self *= scalar`.
    pub fn scale(&mut self, scalar: f32) {
        crate::kernels::scale(&mut self.data, scalar);
    }

    /// `self += alpha * other` (the BLAS `axpy` kernel — the workhorse of
    /// every SGD update and model average in the workspace).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        self.assert_same_shape(other, "axpy");
        crate::kernels::axpy(&mut self.data, alpha, &other.data);
    }

    /// Fills the tensor with zeros in place.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Euclidean norm (f64 accumulator for stability).
    pub fn norm2(&self) -> f64 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Maximum absolute element; 0 for an empty tensor.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        assert_eq!(t.len(), 6);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(matches!(
            Tensor::from_vec(vec![1.0; 5], [2, 3]),
            Err(TensorError::LengthMismatch {
                expected: 6,
                actual: 5
            })
        ));
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros([3]).as_slice(), &[0.0; 3]);
        assert_eq!(Tensor::ones([2]).as_slice(), &[1.0; 2]);
        assert_eq!(Tensor::full([2], 7.5).as_slice(), &[7.5, 7.5]);
    }

    #[test]
    fn set_and_at_roundtrip() {
        let mut t = Tensor::zeros([2, 2]);
        t.set(&[1, 0], 9.0);
        assert_eq!(t.at(&[1, 0]), 9.0);
        assert_eq!(t.at(&[0, 1]), 0.0);
    }

    #[test]
    fn elementwise_arithmetic() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], [2]).unwrap();
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[11.0, 22.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[5.5, 11.0]);
    }

    #[test]
    fn axpy_matches_definition() {
        let mut y = Tensor::from_vec(vec![1.0, 1.0], [2]).unwrap();
        let x = Tensor::from_vec(vec![2.0, 3.0], [2]).unwrap();
        y.axpy(-0.5, &x);
        assert_eq!(y.as_slice(), &[0.0, -0.5]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_assign_panics_on_mismatch() {
        let mut a = Tensor::zeros([2]);
        a.add_assign(&Tensor::zeros([3]));
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![3.0, -4.0], [2]).unwrap();
        assert_eq!(t.sum(), -1.0);
        assert!((t.norm2() - 5.0).abs() < 1e-9);
        assert_eq!(t.max_abs(), 4.0);
    }
}
