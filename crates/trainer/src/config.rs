//! Experiment configuration.

use preduce_data::{DatasetPreset, ShardStrategy};
use preduce_models::zoo::ModelZooEntry;
use preduce_models::SgdConfig;
use preduce_simnet::{
    GpuSharingFleet, HeterogeneityModel, Jitter, MarkovFleet, NetworkModel, SpeedFleet,
    UniformFleet,
};
use serde::{Deserialize, Serialize};

/// Which heterogeneity regime the simulated cluster runs under.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum HeteroSpec {
    /// Homogeneous fleet (HL = 1).
    Uniform,
    /// The paper's synthetic knob: `hl` workers share one GPU (Table 1).
    GpuSharing {
        /// Number of colocated workers.
        hl: usize,
    },
    /// Fixed per-worker slowdown multipliers (Fig. 4(b) style).
    Speed {
        /// Multiplier per worker.
        multipliers: Vec<f64>,
    },
    /// Production cluster: Markov-modulated slowdowns (Figs. 9–11).
    Production {
        /// Probability of entering the degraded state per update.
        p_degrade: f64,
        /// Probability of recovering per update while degraded.
        p_recover: f64,
        /// Slowdown while degraded.
        slow_factor: f64,
    },
}

impl HeteroSpec {
    /// Table 1's knob: `hl` workers share one GPU, a homogeneous fleet
    /// at `hl <= 1`.
    pub fn from_hl(hl: usize) -> Self {
        if hl <= 1 {
            HeteroSpec::Uniform
        } else {
            HeteroSpec::GpuSharing { hl }
        }
    }

    /// The production regime calibrated in EXPERIMENTS.md.
    pub fn production_default() -> Self {
        HeteroSpec::Production {
            p_degrade: 0.08,
            p_recover: 0.25,
            slow_factor: 8.0,
        }
    }

    /// The rules of a regime on a fleet of `n` workers, stated once.
    ///
    /// # Errors
    /// Names the rule the regime breaks.
    pub fn check(&self, n: usize) -> Result<(), String> {
        let unit = |x: f64| (0.0..=1.0).contains(&x);
        match *self {
            HeteroSpec::Uniform => Ok(()),
            HeteroSpec::GpuSharing { hl } => ensure(
                hl <= n,
                format!("heterogeneity level {hl} exceeds fleet size {n}"),
            ),
            HeteroSpec::Speed { ref multipliers } => ensure(
                multipliers.len() == n && multipliers.iter().all(|&m| m > 0.0 && m.is_finite()),
                format!(
                    "need one multiplier per worker (N = {n}), each speed multiplier finite \
                     and > 0, got {multipliers:?}"
                ),
            ),
            HeteroSpec::Production {
                p_degrade: d,
                p_recover: r,
                slow_factor: s,
            } => ensure(
                unit(d) && unit(r) && s >= 1.0,
                "production fleet needs transition probabilities in [0, 1] and a slow factor >= 1",
            ),
        }
    }

    /// Builds the heterogeneity model for `n` workers on devices of
    /// `device_flops` sustained throughput.
    ///
    /// # Panics
    /// Panics on a rule [`HeteroSpec::check`] names.
    pub fn build(
        &self,
        n: usize,
        device_flops: f64,
        jitter: Jitter,
    ) -> Box<dyn HeterogeneityModel> {
        let checked = self.check(n);
        assert!(checked.is_ok(), "{checked:?}");
        match self {
            HeteroSpec::Uniform => Box::new(UniformFleet::new(n, device_flops, jitter)),
            HeteroSpec::GpuSharing { hl } => {
                Box::new(GpuSharingFleet::new(n, *hl, device_flops, jitter))
            }
            HeteroSpec::Speed { multipliers } => {
                Box::new(SpeedFleet::new(multipliers.clone(), device_flops, jitter))
            }
            HeteroSpec::Production {
                p_degrade,
                p_recover,
                slow_factor,
            } => Box::new(MarkovFleet::new(
                n,
                device_flops,
                *p_degrade,
                *p_recover,
                *slow_factor,
                jitter,
            )),
        }
    }
}

/// Batch size the cost model charges per local update ([`ExperimentConfig`]).
const SIM_BATCH_SIZE: usize = 256;

/// Everything one experiment run needs.
///
/// Two batch sizes appear because the reproduction decouples *timing* from
/// *optimization math* (DESIGN.md §3): the constant `SIM_BATCH_SIZE`
/// (the paper's 256) feeds the cost model using the **original** model's
/// per-example FLOPs and parameter bytes, while `math_batch_size` is the
/// batch actually pushed through the analog network on the CPU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Model (analog architecture + original cost profile).
    pub model: ModelZooEntry,
    /// Dataset preset.
    pub preset: DatasetPreset,
    /// Cluster size `N`.
    pub num_workers: usize,
    /// Batch size used for the actual SGD math.
    pub math_batch_size: usize,
    /// Optimizer hyperparameters.
    pub sgd: SgdConfig,
    /// Heterogeneity regime.
    pub hetero: HeteroSpec,
    /// Multiplicative compute-time jitter.
    pub jitter: Jitter,
    /// Network cost model.
    pub network: NetworkModel,
    /// Sustained device throughput in FLOP/s (calibrated: 2.5e12 ≈ a V100
    /// at the utilization the paper's CIFAR workloads reach).
    pub device_flops: f64,
    /// Test-accuracy convergence threshold.
    pub threshold: f64,
    /// Hard cap on updates (safety for non-converging baselines like ER).
    pub max_updates: u64,
    /// Evaluate the averaged model every this many updates.
    pub eval_every: u64,
    /// Fraction of *training* labels randomized (test labels stay clean).
    /// Keeps gradient noise high near the plateau; see
    /// `Dataset::with_label_noise`.
    pub label_noise: f64,
    /// Per-worker *communication* slowdown factors (intro Case 1:
    /// communication heterogeneity — e.g. geo-distributed workers behind
    /// inter-datacenter links up to 10x slower). A collective's wire time
    /// is scaled by the slowest participant's factor; `None` means all
    /// links are equal. Length must equal `num_workers` when set.
    pub link_slowdown: Option<Vec<f64>>,
    /// Fraction of collective-communication time hidden under backward
    /// computation for *static-topology* methods (All-Reduce / PS BSP),
    /// à la PyTorch DDP bucketing. The paper leaves overlap as future
    /// work because P-Reduce's dynamic groups preclude it (§4) — this
    /// knob reproduces that discussion: even granting the baselines full
    /// overlap, partial reduce keeps its heterogeneity advantage (claim
    /// row `ablations.5-overlap` of [`crate::paper`]). In `[0, 1]`; default 0.
    pub overlap_fraction: f64,
    /// How the training set is partitioned across workers. Defaults to a
    /// seeded shuffle (IID shards, the paper's Assumption 1.2); `ByLabel`
    /// creates adversarially non-IID shards for isolation studies.
    pub shard_strategy: Option<ShardStrategy>,
    /// When set, each evaluation also records `‖∇F(u_k)‖²` of the
    /// averaged model over the held-out set into the trace — the quantity
    /// Theorem 1 bounds (used by the `theorem1` figure of [`crate::paper`]).
    pub track_grad_norm: bool,
    /// Local updates per worker for *threaded-backend* runs (`None`: the
    /// engine default). The virtual-time simulator ignores this — sim
    /// runs stop at `threshold` or `max_updates`.
    #[serde(default)]
    pub threaded_iters: Option<u64>,
    /// Master seed: controls init, shards, batches, and compute jitter.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The Table 1 base configuration for a model/preset pair.
    pub fn table1(model: ModelZooEntry, preset: DatasetPreset, hl: usize) -> Self {
        ExperimentConfig {
            model,
            preset,
            num_workers: 8,
            math_batch_size: 32,
            sgd: SgdConfig::default(),
            hetero: HeteroSpec::from_hl(hl),
            jitter: Jitter::LogNormal { sigma: 0.15 },
            network: NetworkModel::ten_gbe(),
            device_flops: 2.5e12,
            threshold: 0.90,
            max_updates: 60_000,
            eval_every: 64,
            label_noise: 0.0,
            link_slowdown: None,
            overlap_fraction: 0.0,
            shard_strategy: None,
            track_grad_norm: false,
            threaded_iters: None,
            seed: 42,
        }
    }

    /// Simulated FLOPs of one local update.
    pub fn update_flops(&self) -> f64 {
        self.model.profile.batch_flops(SIM_BATCH_SIZE)
    }

    /// Message size of one model/gradient transfer.
    pub fn message_bytes(&self) -> u64 {
        self.model.profile.message_bytes()
    }

    /// Checks every rule a configuration must meet: at least one worker,
    /// a positive batch size, device throughput, update cap and eval
    /// interval, a threshold in `(0, 1]`, label noise and overlap in
    /// `[0, 1]`, a finite learning rate `>= 0`, a fleet the [`HeteroSpec`]
    /// can build, one link slowdown `>= 1` per worker, and a model, dataset
    /// and [`NetworkModel`] their constructors accept.
    ///
    /// # Errors
    /// Names the first rule the configuration breaks.
    pub fn check(&self) -> Result<(), String> {
        let n = self.num_workers;
        let unit = |x: f64| (0.0..=1.0).contains(&x);
        ensure(n > 0, "need at least one worker")?;
        ensure(self.math_batch_size > 0, "batch size must be positive")?;
        ensure(
            self.device_flops > 0.0,
            "device throughput must be positive",
        )?;
        ensure(
            self.threshold > 0.0 && self.threshold <= 1.0,
            "threshold must lie in (0, 1]",
        )?;
        ensure(self.max_updates > 0, "need a positive update cap")?;
        ensure(self.eval_every > 0, "eval interval must be positive")?;
        ensure(unit(self.label_noise), "label noise must lie in [0, 1]")?;
        ensure(unit(self.overlap_fraction), "overlap must lie in [0, 1]")?;
        let lr = self.sgd.lr;
        ensure(
            lr.is_finite() && lr >= 0.0,
            format!("learning rate {lr} must be finite and >= 0"),
        )?;
        self.hetero.check(n)?;
        if let Some(ls) = &self.link_slowdown {
            ensure(ls.len() == n, "one link slowdown per worker required")?;
            ensure(
                ls.iter().all(|&f| f >= 1.0 && f.is_finite()),
                "link slowdowns must be >= 1",
            )?;
        }
        let data = &self.preset.config;
        let split = (1..=data.num_samples.saturating_sub(n)).contains(&self.preset.test_size);
        ensure(!self.model.hidden.contains(&0), "a hidden width is 0")?;
        ensure(
            data.num_classes > 0 && data.feature_dim > 0 && split,
            "dataset needs a class, a feature, a test example and a training example per worker",
        )?;
        self.network
            .check()
            .map_err(|broken| format!("network model: {broken}"))
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on the first rule [`ExperimentConfig::check`] names.
    pub fn validate(&self) {
        if let Err(broken) = self.check() {
            panic!("{broken}");
        }
    }
}

/// `Ok` when the rule `holds`, else the message naming it.
fn ensure(holds: bool, broken: impl Into<String>) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(broken.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preduce_data::cifar10_like;
    use preduce_models::zoo;

    #[test]
    fn table1_config_validates() {
        let c = ExperimentConfig::table1(zoo::resnet34(), cifar10_like(), 3);
        c.validate();
        assert!(matches!(c.hetero, HeteroSpec::GpuSharing { hl: 3 }));
        let c = ExperimentConfig::table1(zoo::resnet34(), cifar10_like(), 1);
        assert!(matches!(c.hetero, HeteroSpec::Uniform));
    }

    #[test]
    fn update_flops_charge_the_paper_batch() {
        let c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
        assert_eq!(c.update_flops(), 256.0 * c.model.profile.flops_per_example);
    }

    #[test]
    fn hetero_spec_builders() {
        use preduce_simnet::SimTime;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        for spec in [
            HeteroSpec::Uniform,
            HeteroSpec::GpuSharing { hl: 2 },
            HeteroSpec::Speed {
                multipliers: vec![1.0, 2.0, 1.0, 1.0],
            },
            HeteroSpec::production_default(),
        ] {
            let mut m = spec.build(4, 1e9, Jitter::None);
            assert_eq!(m.num_workers(), 4);
            let t = m.compute_time(0, 1e9, SimTime::ZERO, &mut rng);
            assert!(t > 0.0);
        }
    }

    #[test]
    fn check_names_what_the_constructors_would_assert() {
        let base = || {
            let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
            c.num_workers = 4;
            c
        };
        let mut cases: Vec<(ExperimentConfig, &str)> = Vec::new();
        let mut c = base();
        c.hetero = HeteroSpec::Speed {
            multipliers: vec![1.0, 2.0],
        };
        cases.push((c, "speed multiplier"));
        let mut c = base();
        c.hetero = HeteroSpec::Speed {
            multipliers: vec![1.0, 0.0, 1.0, 1.0],
        };
        cases.push((c, "speed multiplier"));
        let mut c = base();
        c.hetero = HeteroSpec::Production {
            p_degrade: 2.0,
            p_recover: 0.25,
            slow_factor: 8.0,
        };
        cases.push((c, "production fleet"));
        let mut c = base();
        c.hetero = HeteroSpec::Production {
            p_degrade: 0.1,
            p_recover: 0.25,
            slow_factor: 0.5,
        };
        cases.push((c, "production fleet"));
        let mut c = base();
        c.network.bandwidth = -1.0;
        cases.push((c, "network model: bandwidth"));
        let mut c = base();
        c.model.hidden[0] = 0;
        cases.push((c, "hidden width"));
        let mut c = base();
        c.preset.config.num_classes = 0;
        cases.push((c, "dataset"));
        let mut c = base();
        c.preset.test_size = c.preset.config.num_samples - 3;
        cases.push((c, "training example per worker"));
        let mut c = base();
        c.preset.test_size = 0;
        cases.push((c, "test example"));
        for (c, rule) in cases {
            let broken = c.check().unwrap_err();
            assert!(broken.contains(rule), "{broken}");
        }
        base().check().unwrap();
    }

    #[test]
    #[should_panic(expected = "one multiplier per worker")]
    fn speed_spec_checks_length() {
        HeteroSpec::Speed {
            multipliers: vec![1.0],
        }
        .build(4, 1e9, Jitter::None);
    }
}
