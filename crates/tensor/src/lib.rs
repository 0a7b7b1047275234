//! Dense `f32` tensor kernel for the `preduce` workspace.
//!
//! This crate provides the minimal-but-complete numerical substrate that the
//! rest of the reproduction is built on: an owned dense tensor type with
//! row-major layout, the linear-algebra kernels needed for feed-forward
//! network training (GEMM variants, ReLU, reductions, softmax), He-normal
//! initialization, and a Jacobi eigensolver for the symmetric
//! synchronization matrices used in the paper's spectral-gap analysis
//! (Assumption 2, Eq. 6).
//!
//! Design notes:
//!
//! * Everything is `f32`. Distributed deep-learning traffic is
//!   single-precision in practice and the paper's cost model counts 4-byte
//!   parameters.
//! * Shape mismatches on the core arithmetic ops are programmer errors and
//!   panic with a descriptive message (the same contract as `ndarray`);
//!   [`Tensor::from_vec`] and the eigensolver, whose inputs a caller
//!   computes, return [`TensorError`].
//! * Hot-path numerics live in the [`kernels`] module: blocked GEMM,
//!   fused weighted-sum, and axpy/scale kernels with runtime SIMD dispatch
//!   and a *canonical accumulation order*, each paired with a scalar
//!   reference implementation proven bit-identical by property tests. The
//!   sim goldens elsewhere in the workspace rely on that bit-stability.
//!   The kernels take row-major slices, not tensors: the network runs them
//!   on slices of its flat parameter and gradient vectors, so there is no
//!   tensor-level matrix product.
//! * [`sys`] is not numerics: it is the safe `poll(2)` wrapper the TCP
//!   controller in `preduce-comm` waits on, kept here with the
//!   workspace's other `unsafe`.

// The one crate without `#![forbid(unsafe_code)]`: the counting allocator,
// the SIMD dispatch and the `poll(2)` call need `unsafe`, and every use
// states its invariant (DESIGN.md §10).
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

pub mod alloc;
mod eig;
mod error;
mod init;
pub mod kernels;
mod ops;
mod shape;
#[cfg(unix)]
pub mod sys;
mod tensor;

pub use alloc::CountingAlloc;
pub use eig::{symmetric_eigenvalues, JacobiOptions};
pub use error::TensorError;
pub use init::he_normal;
pub use ops::{argmax_rows, log_softmax_rows, relu, relu_backward, softmax_rows};
pub use shape::Shape;
pub use tensor::Tensor;

/// Result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
