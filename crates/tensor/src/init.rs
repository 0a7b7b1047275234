//! Random weight initialization.
//!
//! Every worker in the paper starts from the *same* model replica
//! (Algorithm 2 requires identical initialization), so the initializer takes
//! an explicit RNG: the trainer seeds one RNG, initializes once, and clones
//! the resulting tensors to every worker.

use rand::Rng;
use rand_distr::{Distribution, Normal};

use crate::shape::Shape;
use crate::tensor::Tensor;

/// He/Kaiming normal initialization: `N(0, sqrt(2 / fan_in))`. Suitable for
/// ReLU layers.
///
/// # Panics
/// Panics if `fan_in == 0`.
pub fn he_normal<R: Rng + ?Sized>(rng: &mut R, shape: impl Into<Shape>, fan_in: usize) -> Tensor {
    assert!(fan_in > 0, "he_normal requires nonzero fan_in");
    let shape = shape.into();
    let std = (2.0 / fan_in as f32).sqrt();
    let normal = Normal::new(0.0, std).expect("std is finite and positive");
    let data = (0..shape.volume()).map(|_| normal.sample(rng)).collect();
    Tensor::from_vec(data, shape).expect("volume matches by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn he_normal_std_close_to_formula() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let t = he_normal(&mut rng, [20000], 8);
        let mean = t.sum() / t.len() as f64;
        let var = t
            .as_slice()
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / t.len() as f64;
        let expected = 2.0 / 8.0;
        assert!((var - expected).abs() < 0.02, "var={var}");
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = he_normal(&mut rand::rngs::StdRng::seed_from_u64(42), [16], 4);
        let b = he_normal(&mut rand::rngs::StdRng::seed_from_u64(42), [16], 4);
        assert_eq!(a, b);
    }
}
