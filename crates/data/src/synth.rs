//! Seeded Gaussian-mixture classification task generator.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal, StandardNormal};

use preduce_tensor::{kernels, Tensor};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

use crate::dataset::Dataset;

/// Configuration of a synthetic Gaussian-mixture classification task.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Number of classes.
    pub num_classes: usize,
    /// Feature dimensionality.
    pub feature_dim: usize,
    /// Total number of examples to generate.
    pub num_samples: usize,
    /// Distance of every class center from the origin. Larger ⇒ easier.
    pub center_norm: f32,
    /// Standard deviation of the per-class isotropic noise. Larger ⇒ harder.
    pub noise_std: f32,
    /// When true, features pass through a fixed random nonlinear map
    /// (`tanh` of a random projection) so linear models cannot solve the
    /// task and hidden layers earn their keep.
    pub nonlinear_warp: bool,
    /// RNG seed; the same config + seed always yields the same dataset.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            num_classes: 10,
            feature_dim: 32,
            num_samples: 4000,
            center_norm: 3.0,
            noise_std: 1.0,
            nonlinear_warp: false,
            seed: 0,
        }
    }
}

/// A sampled Gaussian mixture: class centers plus generation parameters.
///
/// Keeping the generator around (rather than only the realized dataset) lets
/// tests draw fresh i.i.d. evaluation sets from the same distribution.
#[derive(Debug, Clone)]
pub struct GaussianMixture {
    config: SynthConfig,
    /// `[num_classes, feature_dim]` class centers.
    centers: Tensor,
    /// Optional fixed random warp matrix `[feature_dim, feature_dim]`.
    warp: Option<Tensor>,
}

impl GaussianMixture {
    /// Samples class centers (uniformly on the sphere of radius
    /// `center_norm`) and the optional warp from the config's seed.
    ///
    /// # Panics
    /// Panics if the config has zero classes, dimensions, or samples.
    pub fn new(config: SynthConfig) -> Self {
        assert!(config.num_classes > 0, "need at least one class");
        assert!(config.feature_dim > 0, "need at least one feature");
        assert!(config.num_samples > 0, "need at least one sample");
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);

        let d = config.feature_dim;
        let mut centers = Vec::with_capacity(config.num_classes * d);
        for _ in 0..config.num_classes {
            // Direction uniform on the sphere: normalize a standard normal.
            let v: Vec<f32> = (0..d).map(|_| StandardNormal.sample(&mut rng)).collect();
            let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
            centers.extend(v.into_iter().map(|x| x / norm * config.center_norm));
        }
        let centers =
            Tensor::from_vec(centers, [config.num_classes, d]).expect("center volume matches");

        let warp = config.nonlinear_warp.then(|| {
            let scale = (1.0 / d as f32).sqrt();
            let data = (0..d * d).map(|_| rng.gen_range(-scale..scale)).collect();
            Tensor::from_vec(data, [d, d]).expect("warp volume matches")
        });

        GaussianMixture {
            config,
            centers,
            warp,
        }
    }

    /// The generation config.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// Class centers, `[num_classes, feature_dim]`.
    pub fn centers(&self) -> &Tensor {
        &self.centers
    }

    /// Realizes the configured dataset (balanced classes, shuffled order).
    pub fn generate(&self) -> Dataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed ^ 0x9e3779b9);
        self.sample(self.config.num_samples, &mut rng)
    }

    /// Draws `n` fresh examples from the mixture using `rng`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Dataset {
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        self.sample_on(n, rng, threads.min(8))
    }

    /// [`GaussianMixture::sample`] with the nonlinear warp spread over at
    /// most `threads` threads. The draws from `rng` are sequential and the
    /// warp maps each row on its own, so the dataset is the same bits for
    /// every thread count.
    ///
    /// # Panics
    /// Panics if `n == 0` or `threads == 0`.
    pub fn sample_on<R: Rng + ?Sized>(&self, n: usize, rng: &mut R, threads: usize) -> Dataset {
        assert!(n > 0, "cannot sample an empty dataset");
        assert!(threads > 0, "thread count must be positive");
        let d = self.config.feature_dim;
        let c = self.config.num_classes;
        let noise = Normal::new(0.0f32, self.config.noise_std.max(1e-12)).expect("std positive");

        // Balanced class assignment, then shuffled.
        let mut labels: Vec<usize> = (0..n).map(|i| i % c).collect();
        labels.shuffle(rng);

        let mut data = Vec::with_capacity(n * d);
        for &y in &labels {
            let center = self.centers.row(y);
            for &cx in center {
                data.push(cx + noise.sample(rng));
            }
        }
        if let Some(warp) = &self.warp {
            warp_rows(&mut data, d, warp.as_slice(), threads);
        }
        let features = Tensor::from_vec(data, [n, d]).expect("volume matches");
        Dataset::new(features, labels, c)
    }
}

/// Rows warped per GEMM call: the block's product (64 × d floats) stays in
/// L1/L2 between the multiply and the `tanh` that consumes it.
const WARP_BLOCK_ROWS: usize = 64;

/// `row ← tanh(row · warp)` for every `d`-wide row of `data`, in place: a
/// block of rows at a time through a block-sized product buffer. Up to
/// `threads` threads (the caller's included) claim blocks as they finish
/// the last one, so a helper that is scheduled late delays nothing.
fn warp_rows(data: &mut [f32], d: usize, warp: &[f32], threads: usize) {
    let block_len = WARP_BLOCK_ROWS * d;
    let helpers = threads.min(data.len().div_ceil(block_len)) - 1;
    let blocks = Mutex::new(data.chunks_mut(block_len));
    let claim_and_warp = || {
        let mut product = vec![0.0f32; block_len];
        loop {
            let claimed = blocks.lock().expect("no claimant panics").next();
            let Some(block) = claimed else { break };
            let product = &mut product[..block.len()];
            product.fill(0.0);
            kernels::gemm(block.len() / d, d, d, block, warp, product);
            for (x, &y) in block.iter_mut().zip(product.iter()) {
                *x = y.tanh();
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            scope.spawn(claim_and_warp);
        }
        claim_and_warp();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        let cfg = SynthConfig {
            num_samples: 100,
            ..SynthConfig::default()
        };
        let a = GaussianMixture::new(cfg.clone()).generate();
        let b = GaussianMixture::new(cfg).generate();
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.features(), b.features());
    }

    #[test]
    fn different_seeds_differ() {
        let base = SynthConfig {
            num_samples: 100,
            ..SynthConfig::default()
        };
        let a = GaussianMixture::new(base.clone()).generate();
        let b = GaussianMixture::new(SynthConfig { seed: 1, ..base }).generate();
        assert_ne!(a.features(), b.features());
    }

    #[test]
    fn classes_are_balanced() {
        let cfg = SynthConfig {
            num_classes: 4,
            num_samples: 400,
            ..SynthConfig::default()
        };
        let d = GaussianMixture::new(cfg).generate();
        let mut counts = [0usize; 4];
        for &y in d.labels() {
            counts[y] += 1;
        }
        assert_eq!(counts, [100; 4]);
    }

    #[test]
    fn centers_have_requested_norm() {
        let cfg = SynthConfig {
            center_norm: 5.0,
            ..SynthConfig::default()
        };
        let gm = GaussianMixture::new(cfg);
        for i in 0..gm.config().num_classes {
            let norm: f32 = gm
                .centers()
                .row(i)
                .iter()
                .map(|x| x * x)
                .sum::<f32>()
                .sqrt();
            assert!((norm - 5.0).abs() < 1e-4);
        }
    }

    #[test]
    fn easy_task_is_nearest_center_separable() {
        // With a huge margin and tiny noise, nearest-center classification
        // should be essentially perfect.
        let cfg = SynthConfig {
            num_classes: 5,
            feature_dim: 16,
            num_samples: 500,
            center_norm: 10.0,
            noise_std: 0.1,
            nonlinear_warp: false,
            seed: 3,
        };
        let gm = GaussianMixture::new(cfg);
        let ds = gm.generate();
        let mut correct = 0;
        for i in 0..ds.len() {
            let x = ds.features().row(i);
            let mut best = (f32::INFINITY, 0);
            for cidx in 0..5 {
                let c = gm.centers().row(cidx);
                let dist: f32 = x.iter().zip(c).map(|(a, b)| (a - b).powi(2)).sum();
                if dist < best.0 {
                    best = (dist, cidx);
                }
            }
            if best.1 == ds.labels()[i] {
                correct += 1;
            }
        }
        assert!(correct as f32 / ds.len() as f32 > 0.99);
    }

    #[test]
    fn warp_keeps_features_bounded() {
        let cfg = SynthConfig {
            nonlinear_warp: true,
            num_samples: 50,
            ..SynthConfig::default()
        };
        let ds = GaussianMixture::new(cfg).generate();
        assert!(ds.features().max_abs() <= 1.0);
    }
}
