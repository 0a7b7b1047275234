//! Heterogeneity models: how long one worker's local update takes.
//!
//! The paper's analysis (§2.3) models heterogeneity purely as independent
//! per-worker distributions of per-update time; its experiments realize that
//! with (a) GPU sharing at heterogeneity level HL (Table 1) and (b) a shared
//! production cluster (Figs. 9–11). Each model here reproduces one of those
//! regimes. All randomness flows through the caller's RNG, keeping
//! simulations reproducible.

use rand::Rng;
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Multiplicative noise applied on top of a model's base compute time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Jitter {
    /// No noise: compute time is deterministic.
    None,
    /// Log-normal multiplicative noise with median 1 and the given sigma
    /// (log-scale standard deviation). Matches the right-skewed iteration
    /// times observed on shared accelerators.
    LogNormal {
        /// Log-scale standard deviation.
        sigma: f64,
    },
}

impl Jitter {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Jitter::None => 1.0,
            Jitter::LogNormal { sigma } => LogNormal::new(0.0, sigma.max(1e-12))
                .expect("sigma validated")
                .sample(rng),
        }
    }
}

/// Per-worker compute-time model.
pub trait HeterogeneityModel: Send {
    /// Number of workers this model covers.
    fn num_workers(&self) -> usize;

    /// Seconds for `flops` of work executed by `worker` starting at `now`.
    ///
    /// Implementations may be stateful (e.g. Markov-modulated slowdowns
    /// advance their state per call).
    fn compute_time<'a>(
        &mut self,
        worker: usize,
        flops: f64,
        now: SimTime,
        rng: &mut (dyn rand::RngCore + 'a),
    ) -> f64;

    /// Clones the model behind a box.
    fn clone_box(&self) -> Box<dyn HeterogeneityModel>;
}

impl Clone for Box<dyn HeterogeneityModel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

fn check_worker(worker: usize, n: usize) {
    assert!(worker < n, "worker {worker} out of range (fleet of {n})");
}

/// A homogeneous fleet: every worker has the same effective device
/// throughput (HL = 1 in the paper's terms).
#[derive(Debug, Clone)]
pub struct UniformFleet {
    n: usize,
    device_flops: f64,
    jitter: Jitter,
}

impl UniformFleet {
    /// Creates a fleet of `n` identical devices with the given sustained
    /// FLOP/s throughput.
    ///
    /// # Panics
    /// Panics if `n == 0` or `device_flops <= 0`.
    pub fn new(n: usize, device_flops: f64, jitter: Jitter) -> Self {
        assert!(n > 0, "fleet must have at least one worker");
        assert!(device_flops > 0.0, "device throughput must be positive");
        UniformFleet {
            n,
            device_flops,
            jitter,
        }
    }
}

impl HeterogeneityModel for UniformFleet {
    fn num_workers(&self) -> usize {
        self.n
    }

    fn compute_time<'a>(
        &mut self,
        worker: usize,
        flops: f64,
        _now: SimTime,
        rng: &mut (dyn rand::RngCore + 'a),
    ) -> f64 {
        check_worker(worker, self.n);
        flops / self.device_flops * self.jitter.sample(rng)
    }

    fn clone_box(&self) -> Box<dyn HeterogeneityModel> {
        Box::new(self.clone())
    }
}

/// The paper's synthetic heterogeneity knob (Table 1): `hl` workers share a
/// single physical GPU, the rest get exclusive devices. A device shared by
/// `k` residents gives each of them `1/k` of its throughput (processor
/// sharing).
#[derive(Debug, Clone)]
pub struct GpuSharingFleet {
    /// Device index per worker.
    assignment: Vec<usize>,
    /// Residents per device.
    residents: Vec<usize>,
    device_flops: f64,
    jitter: Jitter,
}

impl GpuSharingFleet {
    /// Creates a fleet of `n` workers where the first `hl` share device 0
    /// and the remaining `n - hl` each own a dedicated device — exactly the
    /// paper's construction ("selecting HL out of N workers to share a
    /// single physical GPU").
    ///
    /// `hl = 1` (or 0) degenerates to a homogeneous fleet.
    ///
    /// # Panics
    /// Panics if `n == 0`, `hl > n`, or `device_flops <= 0`.
    pub fn new(n: usize, hl: usize, device_flops: f64, jitter: Jitter) -> Self {
        assert!(n > 0, "fleet must have at least one worker");
        assert!(hl <= n, "heterogeneity level {hl} exceeds fleet size {n}");
        assert!(device_flops > 0.0, "device throughput must be positive");
        let shared = hl.max(1);
        let mut assignment = Vec::with_capacity(n);
        for i in 0..n {
            if i < shared {
                assignment.push(0);
            } else {
                assignment.push(i - shared + 1);
            }
        }
        Self::from_assignment(assignment, device_flops, jitter)
    }

    /// Creates a fleet from an explicit worker→device assignment.
    ///
    /// # Panics
    /// Panics if the assignment is empty or `device_flops <= 0`.
    pub fn from_assignment(assignment: Vec<usize>, device_flops: f64, jitter: Jitter) -> Self {
        assert!(!assignment.is_empty(), "empty device assignment");
        assert!(device_flops > 0.0, "device throughput must be positive");
        let n_devices = assignment.iter().max().expect("non-empty") + 1;
        let mut residents = vec![0usize; n_devices];
        for &d in &assignment {
            residents[d] += 1;
        }
        GpuSharingFleet {
            assignment,
            residents,
            device_flops,
            jitter,
        }
    }

    /// The slowdown factor of a worker (residents on its device).
    pub fn slowdown(&self, worker: usize) -> usize {
        check_worker(worker, self.assignment.len());
        self.residents[self.assignment[worker]]
    }
}

impl HeterogeneityModel for GpuSharingFleet {
    fn num_workers(&self) -> usize {
        self.assignment.len()
    }

    fn compute_time<'a>(
        &mut self,
        worker: usize,
        flops: f64,
        _now: SimTime,
        rng: &mut (dyn rand::RngCore + 'a),
    ) -> f64 {
        check_worker(worker, self.assignment.len());
        let share = self.residents[self.assignment[worker]] as f64;
        flops / (self.device_flops / share) * self.jitter.sample(rng)
    }

    fn clone_box(&self) -> Box<dyn HeterogeneityModel> {
        Box::new(self.clone())
    }
}

/// Fixed per-worker speed multipliers: worker `i` takes `multipliers[i]×`
/// the homogeneous time. Fig. 4(b)'s "one worker is two times slower" is
/// `SpeedFleet` with multipliers `[1, 1, 2]`.
#[derive(Debug, Clone)]
pub struct SpeedFleet {
    multipliers: Vec<f64>,
    device_flops: f64,
    jitter: Jitter,
}

impl SpeedFleet {
    /// Creates a fleet from per-worker slowdown multipliers.
    ///
    /// # Panics
    /// Panics if `multipliers` is empty, any multiplier is not positive, or
    /// `device_flops <= 0`.
    pub fn new(multipliers: Vec<f64>, device_flops: f64, jitter: Jitter) -> Self {
        assert!(!multipliers.is_empty(), "empty multiplier list");
        assert!(
            multipliers.iter().all(|&m| m > 0.0 && m.is_finite()),
            "multipliers must be positive and finite"
        );
        assert!(device_flops > 0.0, "device throughput must be positive");
        SpeedFleet {
            multipliers,
            device_flops,
            jitter,
        }
    }
}

impl HeterogeneityModel for SpeedFleet {
    fn num_workers(&self) -> usize {
        self.multipliers.len()
    }

    fn compute_time<'a>(
        &mut self,
        worker: usize,
        flops: f64,
        _now: SimTime,
        rng: &mut (dyn rand::RngCore + 'a),
    ) -> f64 {
        check_worker(worker, self.multipliers.len());
        flops / self.device_flops * self.multipliers[worker] * self.jitter.sample(rng)
    }

    fn clone_box(&self) -> Box<dyn HeterogeneityModel> {
        Box::new(self.clone())
    }
}

/// A production shared cluster: each worker independently alternates between
/// a *normal* and a *degraded* state following a two-state Markov chain
/// (evaluated once per update). Degraded updates run `slow_factor×` slower.
/// With a small entry probability and a moderate exit probability this
/// yields the bursty, heavy-tailed per-update times of the paper's Tencent
/// cluster (Fig. 9).
#[derive(Debug, Clone)]
pub struct MarkovFleet {
    n: usize,
    device_flops: f64,
    /// Probability of entering the degraded state at each update.
    p_degrade: f64,
    /// Probability of recovering at each update while degraded.
    p_recover: f64,
    /// Slowdown while degraded.
    slow_factor: f64,
    jitter: Jitter,
    degraded: Vec<bool>,
}

impl MarkovFleet {
    /// Creates a production-like fleet.
    ///
    /// # Panics
    /// Panics on empty fleets, non-probability transition values,
    /// `slow_factor < 1`, or non-positive throughput.
    pub fn new(
        n: usize,
        device_flops: f64,
        p_degrade: f64,
        p_recover: f64,
        slow_factor: f64,
        jitter: Jitter,
    ) -> Self {
        assert!(n > 0, "fleet must have at least one worker");
        assert!(device_flops > 0.0, "device throughput must be positive");
        assert!(
            (0.0..=1.0).contains(&p_degrade) && (0.0..=1.0).contains(&p_recover),
            "transition probabilities must be in [0, 1]"
        );
        assert!(slow_factor >= 1.0, "slow factor must be ≥ 1");
        MarkovFleet {
            n,
            device_flops,
            p_degrade,
            p_recover,
            slow_factor,
            jitter,
            degraded: vec![false; n],
        }
    }
}

impl HeterogeneityModel for MarkovFleet {
    fn num_workers(&self) -> usize {
        self.n
    }

    fn compute_time<'a>(
        &mut self,
        worker: usize,
        flops: f64,
        _now: SimTime,
        rng: &mut (dyn rand::RngCore + 'a),
    ) -> f64 {
        check_worker(worker, self.n);
        // Advance the worker's chain one step.
        let roll: f64 = rng.gen();
        let state = &mut self.degraded[worker];
        if *state {
            if roll < self.p_recover {
                *state = false;
            }
        } else if roll < self.p_degrade {
            *state = true;
        }
        let factor = if *state { self.slow_factor } else { 1.0 };
        flops / self.device_flops * factor * self.jitter.sample(rng)
    }

    fn clone_box(&self) -> Box<dyn HeterogeneityModel> {
        Box::new(self.clone())
    }
}

/// The scale campaign's named heterogeneity presets, sized to an
/// arbitrary fleet. Returns `None` for an unknown name.
///
/// * `"uniform"` — homogeneous devices with mild log-normal jitter
///   (σ = 0.2), the HL = 1 baseline;
/// * `"gpu-sharing"` — the paper's Table 1 knob at HL = N/4: a quarter
///   of the fleet shares one physical GPU;
/// * `"markov"` — the production-cluster regime (Fig. 9): bursty
///   two-state slowdowns (4× while degraded) over jittered devices.
///
/// All presets use a 1 GFLOP/s device baseline, so compute times are in
/// easy units of "seconds per GFLOP of local work".
pub fn standard_fleet(name: &str, n: usize) -> Option<Box<dyn HeterogeneityModel>> {
    assert!(n > 0, "fleet must have at least one worker");
    let flops = 1e9;
    match name {
        "uniform" => Some(Box::new(UniformFleet::new(
            n,
            flops,
            Jitter::LogNormal { sigma: 0.2 },
        ))),
        "gpu-sharing" => {
            // HL = N/4, but at least 2 sharers (when the fleet allows it)
            // so tiny fleets still exercise sharing.
            let hl = if n >= 8 { n / 4 } else { n.min(2) };
            Some(Box::new(GpuSharingFleet::new(
                n,
                hl,
                flops,
                Jitter::LogNormal { sigma: 0.1 },
            )))
        }
        "markov" => Some(Box::new(MarkovFleet::new(
            n,
            flops,
            0.05,
            0.4,
            4.0,
            Jitter::LogNormal { sigma: 0.2 },
        ))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0)
    }

    #[test]
    fn uniform_fleet_is_deterministic_without_jitter() {
        let mut f = UniformFleet::new(4, 1e9, Jitter::None);
        let t = f.compute_time(0, 2e9, SimTime::ZERO, &mut rng());
        assert_eq!(t, 2.0);
        assert_eq!(f.num_workers(), 4);
    }

    #[test]
    fn gpu_sharing_slows_colocated_workers() {
        let mut f = GpuSharingFleet::new(8, 3, 1e9, Jitter::None);
        // Workers 0..3 share device 0 (3 residents) → 3× slower.
        assert_eq!(f.slowdown(0), 3);
        assert_eq!(f.slowdown(2), 3);
        assert_eq!(f.slowdown(3), 1);
        let slow = f.compute_time(0, 1e9, SimTime::ZERO, &mut rng());
        let fast = f.compute_time(7, 1e9, SimTime::ZERO, &mut rng());
        assert_eq!(slow, 3.0);
        assert_eq!(fast, 1.0);
    }

    #[test]
    fn hl1_is_homogeneous() {
        let f = GpuSharingFleet::new(4, 1, 1e9, Jitter::None);
        for w in 0..4 {
            assert_eq!(f.slowdown(w), 1);
        }
    }

    #[test]
    fn speed_fleet_applies_multipliers() {
        let mut f = SpeedFleet::new(vec![1.0, 1.0, 2.0], 1e9, Jitter::None);
        assert_eq!(f.compute_time(2, 1e9, SimTime::ZERO, &mut rng()), 2.0);
        assert_eq!(f.compute_time(0, 1e9, SimTime::ZERO, &mut rng()), 1.0);
    }

    #[test]
    fn lognormal_jitter_has_median_one() {
        let mut f = UniformFleet::new(1, 1e9, Jitter::LogNormal { sigma: 0.3 });
        let mut r = rng();
        let mut times: Vec<f64> = (0..2001)
            .map(|_| f.compute_time(0, 1e9, SimTime::ZERO, &mut r))
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = times[1000];
        assert!((median - 1.0).abs() < 0.1, "median {median}");
        // Right-skew: mean exceeds median.
        let mean: f64 = times.iter().sum::<f64>() / times.len() as f64;
        assert!(mean > median);
    }

    #[test]
    fn markov_fleet_mixes_fast_and_slow() {
        let mut f = MarkovFleet::new(1, 1e9, 0.2, 0.5, 4.0, Jitter::None);
        let mut r = rng();
        let times: Vec<f64> = (0..500)
            .map(|_| f.compute_time(0, 1e9, SimTime::ZERO, &mut r))
            .collect();
        let fast = times.iter().filter(|&&t| (t - 1.0).abs() < 1e-9).count();
        let slow = times.iter().filter(|&&t| (t - 4.0).abs() < 1e-9).count();
        assert_eq!(fast + slow, 500, "only two deterministic levels exist");
        assert!(fast > 100 && slow > 50, "fast={fast} slow={slow}");
    }

    #[test]
    fn markov_zero_probability_never_degrades() {
        let mut f = MarkovFleet::new(2, 1e9, 0.0, 1.0, 10.0, Jitter::None);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(f.compute_time(0, 1e9, SimTime::ZERO, &mut r), 1.0);
        }
        assert!(!f.degraded[0]);
    }

    #[test]
    fn boxed_clone_preserves_behaviour() {
        let f = SpeedFleet::new(vec![1.0, 3.0], 1e9, Jitter::None);
        let mut boxed: Box<dyn HeterogeneityModel> = Box::new(f);
        let mut cloned = boxed.clone();
        assert_eq!(
            boxed.compute_time(1, 1e9, SimTime::ZERO, &mut rng()),
            cloned.compute_time(1, 1e9, SimTime::ZERO, &mut rng())
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_unknown_worker() {
        let mut f = UniformFleet::new(2, 1e9, Jitter::None);
        f.compute_time(2, 1e9, SimTime::ZERO, &mut rng());
    }

    #[test]
    fn standard_fleet_presets_resolve() {
        for name in ["uniform", "gpu-sharing", "markov"] {
            for n in [1, 4, 100, 1000] {
                let mut fleet = standard_fleet(name, n).unwrap();
                assert_eq!(fleet.num_workers(), n, "{name} at N={n}");
                let t = fleet.compute_time(0, 1e9, SimTime::ZERO, &mut rng());
                assert!(t.is_finite() && t > 0.0, "{name}: t = {t}");
            }
        }
        assert!(standard_fleet("quantum", 8).is_none());
    }
}
