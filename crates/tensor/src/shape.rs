use std::fmt;

/// Most axes a [`Shape`] holds.
const MAX_RANK: usize = 4;

/// The shape of a dense row-major tensor: an ordered list of axis lengths.
///
/// Shapes in this workspace are small (flat parameter vectors are `[d]`,
/// minibatch activations and weight matrices `[rows, cols]`), so the axes
/// live inline, at most four of them: a [`crate::Tensor`] costs one
/// allocation, its data. Axes past the rank are always zero, so the
/// derived equality and hash see the axes alone.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// Creates a shape from axis lengths.
    ///
    /// Zero-length axes are permitted (an empty tensor), but an empty *rank*
    /// (no axes at all) is not — scalars are represented as `[1]`.
    ///
    /// # Panics
    /// Panics if `dims` is empty or has more than four axes.
    pub fn of(dims: impl AsRef<[usize]>) -> Self {
        let dims = dims.as_ref();
        assert!(
            !dims.is_empty(),
            "rank-0 shapes are not supported; use [1] for scalars"
        );
        assert!(
            dims.len() <= MAX_RANK,
            "rank-{} shapes are not supported; at most {MAX_RANK} axes",
            dims.len()
        );
        let mut inline = [0; MAX_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        Shape {
            dims: inline,
            rank: dims.len() as u8,
        }
    }

    /// Total number of elements (product of axis lengths).
    pub fn volume(&self) -> usize {
        self.dims().iter().product()
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        usize::from(self.rank)
    }

    /// Axis lengths as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank()]
    }

    /// Length of axis `i`.
    ///
    /// # Panics
    /// Panics if `i >= rank()`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims()[i]
    }

    /// Linear row-major offset of a multi-dimensional index.
    ///
    /// # Panics
    /// Panics if `idx` has the wrong rank or any coordinate is out of bounds.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.rank(), "index rank mismatch");
        let mut off = 0;
        let mut stride = 1;
        for (i, (&d, &x)) in self.dims().iter().zip(idx.iter()).enumerate().rev() {
            assert!(x < d, "index {x} out of bounds for axis {i} (len {d})");
            off += x * stride;
            stride *= d;
        }
        off
    }
}

/// Prints `Shape([2, 3])`: the axes alone, not the inline storage.
impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Shape").field(&self.dims()).finish()
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
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
        Shape::of(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::of(dims)
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
    #[should_panic(expected = "rank-5 shapes are not supported")]
    fn rank5_rejected() {
        Shape::of([1; 5]);
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::of([2, 3]).to_string(), "[2, 3]");
    }

    #[test]
    fn debug_format_is_the_tuple_struct() {
        assert_eq!(format!("{:?}", Shape::of([2, 3, 4])), "Shape([2, 3, 4])");
        assert_eq!(format!("{:?}", Shape::of([7])), "Shape([7])");
        assert_eq!(
            format!("{:#?}", Shape::of([2, 3])),
            "Shape(\n    [\n        2,\n        3,\n    ],\n)"
        );
    }

    #[test]
    fn equality_and_hash_see_the_axes_alone() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |s: &Shape| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        let (a, b) = (Shape::of(vec![2, 3]), Shape::from([2, 3]));
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(Shape::of([2, 3]), Shape::of([2, 3, 1]));
        assert_ne!(Shape::of([6]), Shape::of([6, 1]));
    }
}
