//! Property-based tests for the tensor kernel, including the
//! bit-equivalence contract between the blocked/SIMD kernels and their
//! scalar reference paths (the canonical accumulation order of
//! DESIGN.md §13 that the sim goldens depend on).

use preduce_tensor::{
    kernels, relu, softmax_rows, symmetric_eigenvalues, JacobiOptions, Shape, Tensor,
};
use proptest::prelude::*;

fn assert_bits_eq(a: &[f32], b: &[f32]) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        prop_assert!(
            x.to_bits() == y.to_bits(),
            "element {} differs bitwise: {} vs {}",
            i,
            x,
            y
        );
    }
    Ok(())
}

fn finite_f32() -> impl Strategy<Value = f32> {
    (-100.0f32..100.0).prop_map(|x| x)
}

fn tensor_strategy(max_len: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_len).prop_flat_map(|n| {
        prop::collection::vec(finite_f32(), n).prop_map(move |v| Tensor::from_vec(v, [n]).unwrap())
    })
}

fn tensor_pair(max_len: usize) -> impl Strategy<Value = (Tensor, Tensor)> {
    (1..=max_len).prop_flat_map(|n| {
        (
            prop::collection::vec(finite_f32(), n),
            prop::collection::vec(finite_f32(), n),
        )
            .prop_map(move |(a, b)| {
                (
                    Tensor::from_vec(a, [n]).unwrap(),
                    Tensor::from_vec(b, [n]).unwrap(),
                )
            })
    })
}

proptest! {
    #[test]
    fn axpy_matches_scalar_loop((mut y, x) in tensor_pair(64), alpha in -2.0f32..2.0) {
        let expected: Vec<f32> = y
            .as_slice()
            .iter()
            .zip(x.as_slice())
            .map(|(&yi, &xi)| yi + alpha * xi)
            .collect();
        y.axpy(alpha, &x);
        prop_assert_eq!(y.as_slice(), expected.as_slice());
    }

    #[test]
    fn scale_then_inverse_scale_is_identity(mut t in tensor_strategy(64), s in 0.1f32..10.0) {
        let orig = t.clone();
        t.scale(s);
        t.scale(1.0 / s);
        for (x, y) in t.as_slice().iter().zip(orig.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-3f32.max(y.abs() * 1e-4));
        }
    }

    #[test]
    fn norm2_is_nonnegative_and_zero_only_for_zero(t in tensor_strategy(64)) {
        let n = t.norm2();
        prop_assert!(n >= 0.0);
        if t.as_slice().iter().all(|&x| x == 0.0) {
            prop_assert_eq!(n, 0.0);
        }
    }

    #[test]
    fn relu_is_idempotent(t in tensor_strategy(64)) {
        let once = relu(t);
        let twice = relu(once.clone());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn softmax_rows_are_distributions(
        rows in 1usize..5,
        cols in 1usize..8,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let t = Tensor::from_vec(data, [rows, cols]).unwrap();
        let s = softmax_rows(&t);
        for r in 0..rows {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn matmul_distributes_over_addition(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (m, k, n) = (3, 4, 2);
        let mut draw = |len: usize| -> Vec<f32> {
            (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
        };
        let (a, b, c) = (draw(m * k), draw(k * n), draw(k * n));
        let b_plus_c: Vec<f32> = b.iter().zip(&c).map(|(x, y)| x + y).collect();
        let mut lhs = vec![0.0f32; m * n];
        kernels::gemm(m, k, n, &a, &b_plus_c, &mut lhs);
        let (mut ab, mut ac) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
        kernels::gemm(m, k, n, &a, &b, &mut ab);
        kernels::gemm(m, k, n, &a, &c, &mut ac);
        for ((x, y), z) in lhs.iter().zip(&ab).zip(&ac) {
            prop_assert!((x - (y + z)).abs() < 1e-4);
        }
    }

    #[test]
    fn transpose_variants_consistent(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (m, k) = (4, 3);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        // (A · Aᵀ) must be symmetric with nonnegative diagonal.
        let mut g = vec![0.0f32; m * m];
        kernels::gemm_a_bt(m, k, m, &a, &a, &mut g);
        for i in 0..m {
            prop_assert!(g[i * m + i] >= -1e-6);
            for j in 0..m {
                prop_assert!((g[i * m + j] - g[j * m + i]).abs() < 1e-5);
            }
        }
        // (Aᵀ · A) likewise, in the other dimension.
        let mut h = vec![0.0f32; k * k];
        kernels::gemm_at_b(m, k, k, &a, &a, &mut h);
        for i in 0..k {
            prop_assert!(h[i * k + i] >= -1e-6);
        }
    }

    #[test]
    fn eigenvalues_of_symmetric_psd_are_nonneg(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 5;
        let a: Vec<f32> = (0..n * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        // A·Aᵀ is symmetric PSD.
        let mut g = Tensor::zeros([n, n]);
        kernels::gemm_a_bt(n, n, n, &a, &a, g.as_mut_slice());
        let e = symmetric_eigenvalues(&g, JacobiOptions::default()).unwrap();
        prop_assert!(e.iter().all(|&x| x > -1e-5));
        prop_assert!(e.windows(2).all(|w| w[0] >= w[1]));
    }

    // ---- kernel-layer bit-equivalence (DESIGN.md §13) ----------------
    //
    // Dimensions deliberately straddle the kernel block sizes
    // (BLOCK_N=128, BLOCK_K=128) so partial edge tiles, full tiles, and
    // multi-panel contractions are all exercised, and `C` starts from
    // random values: the kernels are `C +=`. The contract is exact
    // bitwise equality, not approximate: the blocked/SIMD path must follow
    // the same canonical accumulation order as the scalar reference.

    #[test]
    fn blocked_gemm_matches_reference_bitwise(
        m in 1usize..70,
        k in 1usize..300,
        n in 1usize..140,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut c_opt: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut c_ref = c_opt.clone();
        kernels::gemm(m, k, n, &a, &b, &mut c_opt);
        kernels::gemm_reference(m, k, n, &a, &b, &mut c_ref);
        assert_bits_eq(&c_opt, &c_ref)?;
    }

    #[test]
    fn blocked_gemm_a_bt_matches_reference_bitwise(
        m in 1usize..70,
        k in 1usize..300,
        n in 1usize..140,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut c_opt: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut c_ref = c_opt.clone();
        kernels::gemm_a_bt(m, k, n, &a, &b, &mut c_opt);
        kernels::gemm_a_bt_reference(m, k, n, &a, &b, &mut c_ref);
        assert_bits_eq(&c_opt, &c_ref)?;
    }

    #[test]
    fn blocked_gemm_at_b_matches_reference_bitwise(
        k in 1usize..300,
        m in 1usize..70,
        n in 1usize..140,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..k * m).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut c_opt: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut c_ref = c_opt.clone();
        kernels::gemm_at_b(k, m, n, &a, &b, &mut c_opt);
        kernels::gemm_at_b_reference(k, m, n, &a, &b, &mut c_ref);
        assert_bits_eq(&c_opt, &c_ref)?;
    }

    #[test]
    fn kernels_match_reference_bitwise_at_the_shapes_that_run(seed in any::<u64>()) {
        // The analogs' layers at batch 8 (the 10-class classifier is all
        // column tail), the wide analog, and the evaluation batches
        // (2000 = 7·256 + 208), in the three layouts a dense layer uses:
        // forward, input gradient, weight gradient.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut draw = |len: usize| -> Vec<f32> {
            (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
        };
        for (batch, fan_in, fan_out) in [
            (8, 64, 10),
            (8, 128, 10),
            (8, 192, 128),
            (8, 256, 256),
            (208, 64, 10),
            (256, 128, 64),
        ] {
            let (x, w, dy) = (draw(batch * fan_in), draw(fan_in * fan_out), draw(batch * fan_out));
            let y0 = draw(batch * fan_out);
            let (mut y, mut y_ref) = (y0.clone(), y0);
            kernels::gemm(batch, fan_in, fan_out, &x, &w, &mut y);
            kernels::gemm_reference(batch, fan_in, fan_out, &x, &w, &mut y_ref);
            assert_bits_eq(&y, &y_ref)?;

            let dx0 = draw(batch * fan_in);
            let (mut dx, mut dx_ref) = (dx0.clone(), dx0);
            kernels::gemm_a_bt(batch, fan_out, fan_in, &dy, &w, &mut dx);
            kernels::gemm_a_bt_reference(batch, fan_out, fan_in, &dy, &w, &mut dx_ref);
            assert_bits_eq(&dx, &dx_ref)?;

            let dw0 = draw(fan_in * fan_out);
            let (mut dw, mut dw_ref) = (dw0.clone(), dw0);
            kernels::gemm_at_b(batch, fan_in, fan_out, &x, &dy, &mut dw);
            kernels::gemm_at_b_reference(batch, fan_in, fan_out, &x, &dy, &mut dw_ref);
            assert_bits_eq(&dw, &dw_ref)?;
        }
    }

    #[test]
    fn fused_weighted_sum_matches_axpy_chain_bitwise(
        models in 1usize..9,
        // Straddles VEC_BLOCK = 4096 so both the full-block and tail paths run.
        len in 1usize..10_000,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<Vec<f32>> = (0..models)
            .map(|_| (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
        let weights: Vec<f32> = (0..models).map(|_| rng.gen_range(0.0f32..1.0)).collect();
        let mut fused = vec![0.0f32; len];
        let mut chain = vec![0.0f32; len];
        kernels::weighted_sum_acc(&mut fused, &refs, &weights);
        kernels::weighted_sum_reference(&mut chain, &refs, &weights);
        assert_bits_eq(&fused, &chain)?;
    }

    #[test]
    fn fresh_gemm_at_b_matches_reference_bitwise(
        k in 1usize..300,
        m in 1usize..70,
        n in 1usize..140,
        seed in any::<u64>(),
    ) {
        // `C` starts as NaN: a fresh product must never read it.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..k * m).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let (mut c_opt, mut c_ref) = (vec![f32::NAN; m * n], vec![f32::NAN; m * n]);
        kernels::gemm_at_b_fresh(k, m, n, &a, &b, &mut c_opt);
        kernels::gemm_at_b_fresh_reference(k, m, n, &a, &b, &mut c_ref);
        assert_bits_eq(&c_opt, &c_ref)?;
        let mut zeroed = vec![0.0f32; m * n];
        kernels::gemm_at_b(k, m, n, &a, &b, &mut zeroed);
        assert_bits_eq(&c_opt, &zeroed)?;
    }

    #[test]
    fn sgd_step_matches_reference_bitwise(
        len in 1usize..10_000,
        lr in 0.0f32..1.0,
        momentum in 0.0f32..1.0,
        weight_decay in 0.0f32..1e-2,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut draw = |len: usize| -> Vec<f32> {
            (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
        };
        let (p0, v0, g) = (draw(len), draw(len), draw(len));
        let (mut p, mut v) = (p0.clone(), v0.clone());
        let (mut p_ref, mut v_ref) = (p0, v0);
        kernels::sgd_step(&mut p, &mut v, &g, lr, momentum, weight_decay);
        kernels::sgd_step_reference(&mut p_ref, &mut v_ref, &g, lr, momentum, weight_decay);
        assert_bits_eq(&p, &p_ref)?;
        assert_bits_eq(&v, &v_ref)?;
    }

    #[test]
    fn wire_fold_matches_reference_bitwise(
        (y, x) in tensor_pair(300),
        own in -2.0f32..2.0,
        alpha in -2.0f32..2.0,
    ) {
        // The TCP leader's fold: its own slice seeded from zero, then a
        // member's little-endian bytes added.
        let bytes: Vec<u8> = x.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
        let (mut got, mut want) = (y.as_slice().to_vec(), y.as_slice().to_vec());
        kernels::scale_from_zero(&mut got, own);
        kernels::scale_from_zero_reference(&mut want, own);
        assert_bits_eq(&got, &want)?;
        kernels::axpy_le_bytes(&mut got, alpha, &bytes);
        kernels::axpy_le_bytes_reference(&mut want, alpha, &bytes);
        assert_bits_eq(&got, &want)?;
    }

    #[test]
    fn shape_offset_bijective(dims in prop::collection::vec(1usize..5, 1..4)) {
        let shape = Shape::of(dims.clone());
        let mut seen = std::collections::HashSet::new();
        let mut idx = vec![0usize; dims.len()];
        loop {
            let off = shape.offset(&idx);
            prop_assert!(off < shape.volume());
            prop_assert!(seen.insert(off), "offset collision");
            // Odometer increment.
            let mut axis = dims.len();
            loop {
                if axis == 0 { break; }
                axis -= 1;
                idx[axis] += 1;
                if idx[axis] < dims[axis] { break; }
                idx[axis] = 0;
                if axis == 0 {
                    prop_assert_eq!(seen.len(), shape.volume());
                    return Ok(());
                }
            }
            if idx.iter().all(|&x| x == 0) { break; }
        }
        prop_assert_eq!(seen.len(), shape.volume());
    }
}
