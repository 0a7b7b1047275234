//! Property-based tests for the mini-DL framework: parameter plumbing,
//! gradient correctness on random architectures, and loss identities.

use preduce_models::{softmax_cross_entropy, NetworkSpec, SgdConfig, SgdOptimizer};
use preduce_tensor::Tensor;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn mlp_strategy() -> impl Strategy<Value = NetworkSpec> {
    (
        1usize..8,                               // input dim
        prop::collection::vec(1usize..12, 0..3), // hidden widths
        2usize..6,                               // classes
    )
        .prop_map(|(d, hidden, c)| NetworkSpec::mlp(d, &hidden, c))
}

proptest! {
    #[test]
    fn param_vector_roundtrips_for_any_mlp(
        spec in mlp_strategy(),
        seed in any::<u64>(),
    ) {
        let mut net = spec.build(seed);
        let v = net.param_vector();
        prop_assert_eq!(v.len(), net.param_count());
        let mut perturbed = v.clone();
        for (i, x) in perturbed.as_mut_slice().iter_mut().enumerate() {
            *x += (i % 7) as f32 * 0.01;
        }
        net.set_param_vector(&perturbed);
        prop_assert_eq!(net.param_vector(), perturbed);
    }

    #[test]
    fn same_seed_same_network_different_seed_different(
        spec in mlp_strategy(),
        seed in any::<u64>(),
    ) {
        let a = spec.build(seed).param_vector();
        let b = spec.build(seed).param_vector();
        prop_assert_eq!(&a, &b);
        let c = spec.build(seed.wrapping_add(1)).param_vector();
        // Different seeds must differ unless the net is pathologically
        // tiny; tolerate equality only for ≤2 params (bias-only nets).
        if a.len() > 2 {
            prop_assert_ne!(&a, &c);
        }
    }

    #[test]
    fn gradient_check_random_architectures(
        spec in mlp_strategy(),
        seed in any::<u64>(),
    ) {
        let mut net = spec.build(seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xf00d);
        let batch = 3usize;
        let d = spec.input_dim;
        let x = Tensor::from_vec(
            (0..batch * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            [batch, d],
        )
        .unwrap();
        let labels: Vec<usize> = (0..batch)
            .map(|_| rng.gen_range(0..spec.num_classes))
            .collect();

        // Analytic gradient of the mean cross-entropy.
        net.zero_grads();
        let logits = net.forward(&x);
        let loss = softmax_cross_entropy(&logits, &labels);
        net.backward(&loss.grad);
        let analytic = net.grad_vector();

        // Numeric spot-check. Finite differences can cross ReLU kinks on
        // individual coordinates, so require a majority of probes to
        // agree rather than every single one.
        let base = net.param_vector();
        let eps = 1e-3f32;
        let total = net.param_count();
        let probes = [0, total / 3, total / 2, 2 * total / 3, total - 1];
        let mut agree = 0;
        for &idx in &probes {
            let mut hi = base.clone();
            hi.as_mut_slice()[idx] += eps;
            net.set_param_vector(&hi);
            let f_hi =
                softmax_cross_entropy(&net.forward(&x), &labels).loss;
            let mut lo = base.clone();
            lo.as_mut_slice()[idx] -= eps;
            net.set_param_vector(&lo);
            let f_lo =
                softmax_cross_entropy(&net.forward(&x), &labels).loss;
            let numeric = ((f_hi - f_lo) / (2.0 * eps as f64)) as f32;
            let a = analytic.as_slice()[idx];
            if (a - numeric).abs() < 2e-2_f32.max(numeric.abs() * 0.15) {
                agree += 1;
            }
        }
        // Simple majority: tiny random nets can have a dead-ReLU probe or
        // a kink crossing on up to two coordinates; systematic backprop
        // bugs fail *all* probes.
        prop_assert!(
            agree >= 3,
            "only {agree}/{} gradient probes agreed",
            probes.len()
        );
    }

    #[test]
    fn cross_entropy_bounded_below_by_zero(
        seed in any::<u64>(),
        batch in 1usize..6,
        classes in 2usize..8,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let logits = Tensor::from_vec(
            (0..batch * classes)
                .map(|_| rng.gen_range(-10.0f32..10.0))
                .collect(),
            [batch, classes],
        )
        .unwrap();
        let labels: Vec<usize> =
            (0..batch).map(|_| rng.gen_range(0..classes)).collect();
        let out = softmax_cross_entropy(&logits, &labels);
        prop_assert!(out.loss >= 0.0);
        prop_assert!(out.loss.is_finite());
        // Gradient rows sum to ~0 (softmax minus one-hot).
        for r in 0..batch {
            let s: f32 = out.grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn sgd_with_zero_lr_is_identity(
        spec in mlp_strategy(),
        seed in any::<u64>(),
    ) {
        let net = spec.build(seed);
        let mut params = net.param_vector();
        let before = params.clone();
        let mut opt = SgdOptimizer::new(
            SgdConfig {
                lr: 0.0,
                momentum: 0.9,
                weight_decay: 0.1,
                schedule: preduce_models::LrSchedule::Constant,
            },
            params.len(),
        );
        let grad = Tensor::full([params.len()], 1.0);
        opt.step(&mut params, &grad);
        prop_assert_eq!(params, before);
    }
}
