//! GEMM variants used by the dense layers.
//!
//! Three entry points cover every use in backprop without materializing
//! transposes:
//!
//! * [`matmul`]       — `C = A · B`          (forward pass)
//! * [`matmul_a_bt`]  — `C = A · Bᵀ`         (input gradients)
//! * [`matmul_at_b`]  — `C = Aᵀ · B`         (weight gradients)
//!
//! All three are thin rank-2 wrappers over the blocked, SIMD-dispatched
//! kernels in [`crate::kernels`], which carry the canonical accumulation
//! order (per output element, `p = 0..k` into one accumulator) that the
//! engine's bit-identical sim goldens rely on. The old scalar loops live
//! on as `kernels::*_reference` and are proven bit-equal by the property
//! tests in `tests/properties.rs`.

use crate::kernels;
use crate::shape::Shape;
use crate::tensor::Tensor;

fn matrix_dims(t: &Tensor, op: &'static str) -> (usize, usize) {
    assert_eq!(
        t.shape().rank(),
        2,
        "`{op}` requires rank-2 tensors, got {}",
        t.shape()
    );
    (t.shape().dim(0), t.shape().dim(1))
}

/// `C = A · B` for rank-2 tensors.
///
/// # Panics
/// Panics if the operands are not rank-2 or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = matrix_dims(a, "matmul");
    let (k2, n) = matrix_dims(b, "matmul");
    assert_eq!(
        k,
        k2,
        "matmul inner-dimension mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut c = Tensor::zeros(Shape::of([m, n]));
    kernels::gemm(m, k, n, a.as_slice(), b.as_slice(), c.as_mut_slice());
    c
}

/// `C = A · Bᵀ` for rank-2 tensors (`A: m×k`, `B: n×k`, `C: m×n`).
///
/// # Panics
/// Panics if the operands are not rank-2 or the shared dimension disagrees.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = matrix_dims(a, "matmul_a_bt");
    let (n, k2) = matrix_dims(b, "matmul_a_bt");
    assert_eq!(
        k,
        k2,
        "matmul_a_bt shared-dimension mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut c = Tensor::zeros(Shape::of([m, n]));
    kernels::gemm_a_bt(m, k, n, a.as_slice(), b.as_slice(), c.as_mut_slice());
    c
}

/// `C = Aᵀ · B` for rank-2 tensors (`A: k×m`, `B: k×n`, `C: m×n`).
///
/// # Panics
/// Panics if the operands are not rank-2 or the shared dimension disagrees.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = matrix_dims(a, "matmul_at_b");
    let (k2, n) = matrix_dims(b, "matmul_at_b");
    assert_eq!(
        k,
        k2,
        "matmul_at_b shared-dimension mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut c = Tensor::zeros(Shape::of([m, n]));
    kernels::gemm_at_b(k, m, n, a.as_slice(), b.as_slice(), c.as_mut_slice());
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: [usize; 2]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn matmul_small_known() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = t(&[1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], [2, 2]);
        assert_eq!(matmul(&a, &b).as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = t(&[1.0, 0.0, 2.0, 0.0, 1.0, 1.0], [2, 3]);
        let b = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3, 2]);
        // row0 = 1*(1,2) + 2*(5,6) = (11,14); row1 = (3,4)+(5,6) = (8,10)
        assert_eq!(matmul(&a, &b).as_slice(), &[11.0, 14.0, 8.0, 10.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], [2, 2]);
        let eye = t(&[1.0, 0.0, 0.0, 1.0], [2, 2]);
        assert_eq!(matmul(&a, &eye), a);
        assert_eq!(matmul(&eye, &a), a);
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = t(&[1.0, 0.0, 1.0, 2.0, 1.0, 0.0], [2, 3]);
        // B^T is 3x2; A·B^T is 2x2.
        let expected = t(&[4.0, 4.0, 10.0, 13.0], [2, 2]);
        assert_eq!(matmul_a_bt(&a, &b), expected);
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], [2, 2]); // A^T = [1 3; 2 4]
        let b = t(&[1.0, 0.0, 0.0, 1.0], [2, 2]);
        let expected = t(&[1.0, 3.0, 2.0, 4.0], [2, 2]);
        assert_eq!(matmul_at_b(&a, &b), expected);
    }

    #[test]
    fn variants_agree_on_random_matrices() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let (m, k, n) = (5, 7, 4);
        let a = Tensor::from_vec(
            (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            [m, k],
        )
        .unwrap();
        let b = Tensor::from_vec(
            (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            [k, n],
        )
        .unwrap();
        let c = matmul(&a, &b);

        // Build explicit transposes and compare.
        let mut at = Tensor::zeros([k, m]);
        for i in 0..m {
            for p in 0..k {
                at.set(&[p, i], a.at(&[i, p]));
            }
        }
        let mut bt = Tensor::zeros([n, k]);
        for p in 0..k {
            for j in 0..n {
                bt.set(&[j, p], b.at(&[p, j]));
            }
        }
        let c2 = matmul_at_b(&at, &b);
        let c3 = matmul_a_bt(&a, &bt);
        for ((x, y), z) in c
            .as_slice()
            .iter()
            .zip(c2.as_slice().iter())
            .zip(c3.as_slice().iter())
        {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            assert!((x - z).abs() < 1e-4, "{x} vs {z}");
        }
    }

    #[test]
    #[should_panic(expected = "inner-dimension mismatch")]
    fn matmul_panics_on_bad_dims() {
        matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([2, 3]));
    }

    #[test]
    #[should_panic(expected = "rank-2")]
    fn matmul_panics_on_rank1() {
        matmul(&Tensor::zeros([6]), &Tensor::zeros([2, 3]));
    }
}
