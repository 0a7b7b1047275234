//! SGD with momentum and weight decay, operating on flat parameter vectors.
//!
//! The paper's setup (§5.1): SGD, lr 0.1, momentum 0.9, weight decay 1e-4;
//! for ImageNet, step decay ×0.1 every 20 epochs (following the standard
//! PyTorch recipe they cite).

use preduce_tensor::{kernels, Tensor};
use serde::{Deserialize, Serialize};

/// Learning-rate schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// Multiply the learning rate by `factor` every `every_updates` updates
    /// (the per-iteration analog of "decay by 10 every 20 epochs").
    Step {
        /// Updates between decays.
        every_updates: usize,
        /// Multiplicative decay factor.
        factor: f32,
    },
}

/// SGD hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Base learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight decay coefficient.
    pub weight_decay: f32,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
}

impl Default for SgdConfig {
    /// The paper's hyperparameters: lr 0.1, momentum 0.9, wd 1e-4.
    fn default() -> Self {
        SgdConfig {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 1e-4,
            schedule: LrSchedule::Constant,
        }
    }
}

/// SGD optimizer state for one model replica.
///
/// Holds the momentum buffer (same layout as the flat parameter vector) and
/// the update counter driving the schedule.
#[derive(Debug, Clone)]
pub struct SgdOptimizer {
    config: SgdConfig,
    velocity: Tensor,
    steps: usize,
}

impl SgdOptimizer {
    /// Creates optimizer state for a `param_count`-dimensional model.
    ///
    /// # Panics
    /// Panics if `param_count == 0`.
    pub fn new(config: SgdConfig, param_count: usize) -> Self {
        assert!(param_count > 0, "optimizer over an empty model");
        SgdOptimizer {
            config,
            velocity: Tensor::zeros([param_count]),
            steps: 0,
        }
    }

    /// Rebuilds optimizer state from checkpointed parts (DESIGN.md §14):
    /// the momentum buffer and the step counter a snapshot carried. With
    /// the same config, the rebuilt optimizer is indistinguishable from
    /// the one that was snapshotted — the learning rate resumes mid-schedule.
    ///
    /// # Panics
    /// Panics if `velocity` is empty.
    pub fn from_state(config: SgdConfig, velocity: Tensor, steps: usize) -> Self {
        assert!(!velocity.is_empty(), "optimizer over an empty model");
        SgdOptimizer {
            config,
            velocity,
            steps,
        }
    }

    /// The momentum buffer (flat, same layout as the parameter vector).
    pub fn velocity(&self) -> &Tensor {
        &self.velocity
    }

    /// The learning rate that the *next* step will use.
    fn current_lr(&self) -> f32 {
        match self.config.schedule {
            LrSchedule::Constant => self.config.lr,
            LrSchedule::Step {
                every_updates,
                factor,
            } => {
                let decays = self.steps.checked_div(every_updates).unwrap_or(0) as i32;
                self.config.lr * factor.powi(decays)
            }
        }
    }

    /// Number of steps taken.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The configuration.
    pub fn config(&self) -> &SgdConfig {
        &self.config
    }

    /// Applies one SGD step: `v ← m·v + (g + wd·θ)`, `θ ← θ − lr·v`
    /// ([`kernels::sgd_step`]), with an optional external learning-rate
    /// scale (used by staleness-aware baselines like PS HETE that modulate
    /// the rate per update).
    ///
    /// # Panics
    /// Panics if the vector lengths disagree with the optimizer state.
    pub fn step_scaled(&mut self, params: &mut Tensor, grads: &Tensor, lr_scale: f32) {
        let state = self.velocity.len();
        assert_eq!(
            params.len(),
            state,
            "param length {} does not match optimizer state {state}",
            params.len()
        );
        assert_eq!(
            grads.len(),
            state,
            "grad length {} does not match optimizer state {state}",
            grads.len()
        );
        let lr = self.current_lr() * lr_scale;
        kernels::sgd_step(
            params.as_mut_slice(),
            self.velocity.as_mut_slice(),
            grads.as_slice(),
            lr,
            self.config.momentum,
            self.config.weight_decay,
        );
        self.steps += 1;
    }

    /// Applies one SGD step with no external scaling.
    pub fn step(&mut self, params: &mut Tensor, grads: &Tensor) {
        self.step_scaled(params, grads, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(lr: f32) -> SgdConfig {
        SgdConfig {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            schedule: LrSchedule::Constant,
        }
    }

    #[test]
    fn vanilla_sgd_descends_quadratic() {
        // f(x) = x², grad = 2x, from x=1 with lr 0.1: x ← 0.8x.
        let mut opt = SgdOptimizer::new(plain(0.1), 1);
        let mut x = Tensor::from_vec(vec![1.0], [1]).unwrap();
        for _ in 0..50 {
            let g = Tensor::from_vec(vec![2.0 * x.as_slice()[0]], [1]).unwrap();
            opt.step(&mut x, &g);
        }
        assert!(x.as_slice()[0].abs() < 1e-4);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let cfg = SgdConfig {
            lr: 1.0,
            momentum: 0.5,
            weight_decay: 0.0,
            schedule: LrSchedule::Constant,
        };
        let mut opt = SgdOptimizer::new(cfg, 1);
        let mut x = Tensor::zeros([1]);
        let g = Tensor::from_vec(vec![1.0], [1]).unwrap();
        opt.step(&mut x, &g); // v=1,   x=-1
        assert_eq!(x.as_slice()[0], -1.0);
        opt.step(&mut x, &g); // v=1.5, x=-2.5
        assert_eq!(x.as_slice()[0], -2.5);
    }

    #[test]
    fn weight_decay_shrinks_params_without_gradient() {
        let cfg = SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.1,
            schedule: LrSchedule::Constant,
        };
        let mut opt = SgdOptimizer::new(cfg, 1);
        let mut x = Tensor::from_vec(vec![1.0], [1]).unwrap();
        opt.step(&mut x, &Tensor::zeros([1]));
        assert!((x.as_slice()[0] - 0.99).abs() < 1e-6);
    }

    #[test]
    fn step_schedule_decays() {
        let cfg = SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
            schedule: LrSchedule::Step {
                every_updates: 10,
                factor: 0.1,
            },
        };
        let mut opt = SgdOptimizer::new(cfg, 1);
        assert!((opt.current_lr() - 0.1).abs() < 1e-9);
        let mut x = Tensor::zeros([1]);
        let g = Tensor::zeros([1]);
        for _ in 0..10 {
            opt.step(&mut x, &g);
        }
        assert!((opt.current_lr() - 0.01).abs() < 1e-9);
        for _ in 0..10 {
            opt.step(&mut x, &g);
        }
        assert!((opt.current_lr() - 0.001).abs() < 1e-9);
    }

    #[test]
    fn lr_scale_modulates_step() {
        let mut opt = SgdOptimizer::new(plain(0.1), 1);
        let mut x = Tensor::from_vec(vec![1.0], [1]).unwrap();
        let g = Tensor::from_vec(vec![1.0], [1]).unwrap();
        opt.step_scaled(&mut x, &g, 0.5);
        assert!((x.as_slice()[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "grad length 2 does not match optimizer state 3")]
    fn rejects_short_gradient() {
        let mut opt = SgdOptimizer::new(plain(0.1), 3);
        opt.step(&mut Tensor::zeros([3]), &Tensor::zeros([2]));
    }

    #[test]
    #[should_panic(expected = "does not match optimizer state")]
    fn rejects_mismatched_lengths() {
        let mut opt = SgdOptimizer::new(plain(0.1), 2);
        let mut x = Tensor::zeros([3]);
        opt.step(&mut x, &Tensor::zeros([3]));
    }
}
