use std::fmt;

/// Errors produced by fallible tensor constructors and operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// The number of elements implied by a shape does not match the data
    /// buffer handed to a constructor.
    LengthMismatch {
        /// Elements implied by the requested shape.
        expected: usize,
        /// Elements actually provided.
        actual: usize,
    },
    /// The Jacobi eigensolver did not reach the requested off-diagonal norm
    /// within its sweep budget.
    EigNoConvergence {
        /// Remaining off-diagonal Frobenius norm.
        off_diagonal: f64,
        /// Sweeps performed.
        sweeps: usize,
    },
    /// A matrix that must be square (e.g. for the eigensolver) is not.
    NotSquare {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => write!(
                f,
                "data length {actual} does not match shape volume {expected}"
            ),
            TensorError::EigNoConvergence {
                off_diagonal,
                sweeps,
            } => write!(
                f,
                "Jacobi eigensolver failed to converge after {sweeps} sweeps \
                 (off-diagonal norm {off_diagonal:.3e})"
            ),
            TensorError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square: {rows}x{cols}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = TensorError::LengthMismatch {
            expected: 6,
            actual: 5,
        };
        assert!(e.to_string().contains('6'));
        assert!(e.to_string().contains('5'));

        let e = TensorError::NotSquare { rows: 2, cols: 3 };
        assert!(e.to_string().contains("2x3"));
    }
}
