//! Offline stand-in for `rand_distr` 0.4: the normal family this repository
//! samples from (see `../rand`).

#![forbid(unsafe_code)]

use std::fmt;

pub use rand::distributions::{Distribution, Standard};
use rand::Rng;

/// Floats the normal family is defined over.
pub trait Float: Copy + PartialOrd + fmt::Debug {
    /// Converts from `f64` (rounding for `f32`).
    fn from_f64(x: f64) -> Self;
    /// Widens to `f64`.
    fn to_f64(self) -> f64;
}

impl Float for f32 {
    fn from_f64(x: f64) -> f32 {
        x as f32
    }
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
}

impl Float for f64 {
    fn from_f64(x: f64) -> f64 {
        x
    }
    fn to_f64(self) -> f64 {
        self
    }
}

/// One standard-normal draw (Marsaglia's polar method; the second value
/// of each pair is discarded so the sampler needs no state).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * rng.gen::<f64>() - 1.0;
        let v = 2.0 * rng.gen::<f64>() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// The standard normal distribution `N(0, 1)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StandardNormal;

impl<F: Float> Distribution<F> for StandardNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> F {
        F::from_f64(standard_normal(rng))
    }
}

/// Why a normal-family distribution could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormalError {
    /// The mean is not finite.
    MeanTooSmall,
    /// The standard deviation is negative or not finite.
    BadVariance,
}

impl fmt::Display for NormalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NormalError::MeanTooSmall => "mean is not finite",
            NormalError::BadVariance => "standard deviation is negative or not finite",
        })
    }
}

impl std::error::Error for NormalError {}

/// The normal distribution `N(mean, std_dev²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal<F: Float> {
    mean: F,
    std_dev: F,
}

impl<F: Float> Normal<F> {
    /// Builds `N(mean, std_dev²)`.
    ///
    /// # Errors
    /// Fails if `std_dev` is negative or either parameter is not finite.
    pub fn new(mean: F, std_dev: F) -> Result<Self, NormalError> {
        if !mean.to_f64().is_finite() {
            return Err(NormalError::MeanTooSmall);
        }
        let sd = std_dev.to_f64();
        if !sd.is_finite() || sd < 0.0 {
            return Err(NormalError::BadVariance);
        }
        Ok(Normal { mean, std_dev })
    }

    /// The mean.
    pub fn mean(&self) -> F {
        self.mean
    }

    /// The standard deviation.
    pub fn std_dev(&self) -> F {
        self.std_dev
    }
}

impl<F: Float> Distribution<F> for Normal<F> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> F {
        F::from_f64(self.mean.to_f64() + self.std_dev.to_f64() * standard_normal(rng))
    }
}

/// The log-normal distribution `exp(N(mu, sigma²))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal<F: Float> {
    norm: Normal<F>,
}

impl<F: Float> LogNormal<F> {
    /// Builds `exp(N(mu, sigma²))`.
    ///
    /// # Errors
    /// Fails as [`Normal::new`] does.
    pub fn new(mu: F, sigma: F) -> Result<Self, NormalError> {
        Normal::new(mu, sigma).map(|norm| LogNormal { norm })
    }
}

impl<F: Float> Distribution<F> for LogNormal<F> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> F {
        let z: F = self.norm.sample(rng);
        F::from_f64(z.to_f64().exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn normal_moments_are_close() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = Normal::new(2.0f64, 3.0).unwrap();
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn lognormal_median_is_exp_mu_and_rejects_bad_sigma() {
        let mut rng = StdRng::seed_from_u64(6);
        let d = LogNormal::new(0.0f64, 0.2).unwrap();
        let mut xs: Vec<f64> = (0..100_001).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(f64::total_cmp);
        assert!((xs[50_000] - 1.0).abs() < 0.01, "median {}", xs[50_000]);
        assert!(xs[0] > 0.0);
        assert_eq!(LogNormal::new(0.0f32, -1.0), Err(NormalError::BadVariance));
    }
}
