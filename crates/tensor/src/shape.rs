use std::fmt;

/// The shape of a dense row-major tensor: an ordered list of axis lengths.
///
/// Shapes in this workspace are small (rank ≤ 2: flat parameter vectors
/// are `[d]`, minibatch activations and weight matrices `[rows, cols]`),
/// so a `Vec<usize>` is plenty and keeps the API simple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from axis lengths.
    ///
    /// Zero-length axes are permitted (an empty tensor), but an empty *rank*
    /// (no axes at all) is not — scalars are represented as `[1]`.
    ///
    /// # Panics
    /// Panics if `dims` is empty.
    pub fn of(dims: impl Into<Vec<usize>>) -> Self {
        let dims = dims.into();
        assert!(
            !dims.is_empty(),
            "rank-0 shapes are not supported; use [1] for scalars"
        );
        Shape(dims)
    }

    /// Total number of elements (product of axis lengths).
    pub fn volume(&self) -> usize {
        self.0.iter().product()
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Axis lengths as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Length of axis `i`.
    ///
    /// # Panics
    /// Panics if `i >= rank()`.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Linear row-major offset of a multi-dimensional index.
    ///
    /// # Panics
    /// Panics if `idx` has the wrong rank or any coordinate is out of bounds.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.rank(), "index rank mismatch");
        let mut off = 0;
        let mut stride = 1;
        for (i, (&d, &x)) in self.0.iter().zip(idx.iter()).enumerate().rev() {
            assert!(x < d, "index {x} out of bounds for axis {i} (len {d})");
            off += x * stride;
            stride *= d;
        }
        off
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::of(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::of(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::of(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_rank() {
        let s = Shape::of([2, 3, 4]);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dims(), &[2, 3, 4]);
        assert_eq!(s.dim(1), 3);
    }

    #[test]
    #[should_panic(expected = "rank-0 shapes are not supported")]
    fn rank0_rejected() {
        Shape::of(Vec::<usize>::new());
    }

    #[test]
    fn zero_axis_allowed() {
        let s = Shape::of([0, 4]);
        assert_eq!(s.volume(), 0);
    }

    #[test]
    fn offset_is_row_major() {
        let s = Shape::of([2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
        assert_eq!(s.offset(&[0, 1, 2]), 6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_checks_bounds() {
        Shape::of([2, 3]).offset(&[2, 0]);
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::of([2, 3]).to_string(), "[2, 3]");
    }
}
