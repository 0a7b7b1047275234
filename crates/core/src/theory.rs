//! The convergence-bound calculator of Theorem 1.
//!
//! For partial reduce with group size `P` over `N` workers, with effective
//! learning rate `η = P·γ/N`, Lipschitz constant `L`, gradient-variance
//! bound `σ²`, and spectral coefficient `ρ̄`:
//!
//! * Eq. 7 (learning-rate condition): `ηL + 2N³η²ρ̄/P² ≤ 1`;
//! * Eq. 8 (bound on the average squared gradient norm):
//!   `2(F(u₁) − F_inf)/(ηK) + ηLσ²/P  +  2η²L²σ²N³ρ̄/P²`
//!   — the first two terms are the *SGD error*, the last the
//!   *network error*;
//! * with `γ = N/(L√(PK))` and large `K`, the bound decays as
//!   `O(1/√(PK))`.
//!
//! These functions let experiments check the theory against measured
//! schedules (feed in the empirical `ρ̄` from
//! [`crate::spectral::spectral_gap`]).

/// Problem constants for the bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TheoremInputs {
    /// Number of workers `N`.
    pub num_workers: usize,
    /// Group size `P`.
    pub group_size: usize,
    /// Lipschitz constant `L` of the gradient.
    pub lipschitz: f64,
    /// Gradient-variance bound `σ²` (at the experiment's batch size).
    pub sigma_sq: f64,
    /// Initial suboptimality `F(u₁) − F_inf`.
    pub initial_gap: f64,
    /// Spectral coefficient `ρ̄` of the schedule.
    pub rho_bar: f64,
}

/// The two components of the Eq. 8 bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceBound {
    /// `2(F(u₁) − F_inf)/(ηK) + ηLσ²/P`.
    pub sgd_error: f64,
    /// `2η²L²σ²N³ρ̄/P²`.
    pub network_error: f64,
}

impl ConvergenceBound {
    /// The full right-hand side of Eq. 8.
    pub fn total(&self) -> f64 {
        self.sgd_error + self.network_error
    }
}

/// The effective learning rate `η = P·γ/N` used throughout Theorem 1.
pub fn effective_lr(gamma: f64, num_workers: usize, group_size: usize) -> f64 {
    group_size as f64 * gamma / num_workers as f64
}

/// Whether Eq. 7 holds: `ηL + 2N³η²ρ̄/P² ≤ 1`.
pub fn lr_condition_holds(inputs: &TheoremInputs, gamma: f64) -> bool {
    let eta = effective_lr(gamma, inputs.num_workers, inputs.group_size);
    let n = inputs.num_workers as f64;
    let p = inputs.group_size as f64;
    eta * inputs.lipschitz + 2.0 * n.powi(3) * eta * eta * inputs.rho_bar / (p * p) <= 1.0
}

/// Evaluates the Eq. 8 bound after `k_iterations` partial reduces with
/// worker learning rate `gamma`.
///
/// # Panics
/// Panics if `k_iterations == 0` or `gamma <= 0`.
pub fn convergence_bound(
    inputs: &TheoremInputs,
    gamma: f64,
    k_iterations: u64,
) -> ConvergenceBound {
    assert!(k_iterations > 0, "need at least one iteration");
    assert!(gamma > 0.0, "learning rate must be positive");
    let eta = effective_lr(gamma, inputs.num_workers, inputs.group_size);
    let n = inputs.num_workers as f64;
    let p = inputs.group_size as f64;
    let l = inputs.lipschitz;
    let s2 = inputs.sigma_sq;
    let k = k_iterations as f64;

    let sgd_error = 2.0 * inputs.initial_gap / (eta * k) + eta * l * s2 / p;
    let network_error = 2.0 * eta * eta * l * l * s2 * n.powi(3) * inputs.rho_bar / (p * p);
    ConvergenceBound {
        sgd_error,
        network_error,
    }
}

/// The learning rate `γ = N/(L√(PK))` under which the bound becomes
/// `O(1/√(PK))` (discussion below Theorem 1).
///
/// # Panics
/// Panics if any input is zero.
pub fn theorem_lr(num_workers: usize, group_size: usize, lipschitz: f64, k_iterations: u64) -> f64 {
    assert!(num_workers > 0 && group_size > 0 && k_iterations > 0);
    assert!(lipschitz > 0.0, "Lipschitz constant must be positive");
    num_workers as f64 / (lipschitz * ((group_size as u64 * k_iterations) as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(n: usize, p: usize, rho_bar: f64) -> TheoremInputs {
        TheoremInputs {
            num_workers: n,
            group_size: p,
            lipschitz: 1.0,
            sigma_sq: 1.0,
            initial_gap: 1.0,
            rho_bar,
        }
    }

    #[test]
    fn bound_decays_like_one_over_sqrt_pk() {
        // With γ = N/(L√(PK)), total bound at 4K should be about half of
        // the bound at K (for large K where the network error is small).
        let i = inputs(8, 4, 1.0);
        let k1 = 10_000_000u64;
        let k2 = 4 * k1;
        let b1 = convergence_bound(&i, theorem_lr(8, 4, 1.0, k1), k1).total();
        let b2 = convergence_bound(&i, theorem_lr(8, 4, 1.0, k2), k2).total();
        let ratio = b1 / b2;
        assert!((ratio - 2.0).abs() < 0.2, "ratio = {ratio}");
    }

    #[test]
    fn larger_p_reduces_sgd_error_at_fixed_eta() {
        // At the same effective η, the ηLσ²/P term shrinks with P.
        let k = 1000;
        let b2 = convergence_bound(&inputs(8, 2, 0.0), 0.025, k);
        let b8 = convergence_bound(&inputs(8, 8, 0.0), 0.1, k); // same η=0.1
        assert!(b8.sgd_error < b2.sgd_error);
    }

    #[test]
    fn network_error_zero_for_allreduce() {
        // ρ̄ = 0 (P = N all-reduce) ⇒ no network error.
        let b = convergence_bound(&inputs(8, 8, 0.0), 0.1, 1000);
        assert_eq!(b.network_error, 0.0);
    }

    #[test]
    fn network_error_grows_with_heterogeneity() {
        let lo = convergence_bound(&inputs(8, 2, 1.0), 0.01, 1000);
        let hi = convergence_bound(&inputs(8, 2, 5.0), 0.01, 1000);
        assert!(hi.network_error > lo.network_error);
        assert_eq!(hi.sgd_error, lo.sgd_error);
    }

    #[test]
    fn lr_condition_tightens_with_rho_bar() {
        let gamma = 0.5;
        assert!(lr_condition_holds(&inputs(8, 4, 0.0), gamma));
        // Huge ρ̄ breaks the same learning rate.
        assert!(!lr_condition_holds(&inputs(8, 4, 1e6), gamma));
    }

    #[test]
    fn theorem_lr_satisfies_condition_for_large_k() {
        let i = inputs(8, 4, 2.0);
        let k = 1_000_000;
        let gamma = theorem_lr(8, 4, 1.0, k);
        assert!(lr_condition_holds(&i, gamma));
    }

    #[test]
    fn effective_lr_formula() {
        assert_eq!(effective_lr(0.1, 8, 4), 0.05);
    }
}
