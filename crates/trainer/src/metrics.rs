//! Run metrics: the paper's three-way decomposition of end-to-end
//! performance (§5.2) plus the convergence trace behind Figs. 7 and 10.

use serde::{Deserialize, Serialize};

/// One point on a convergence curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Virtual time (seconds since training start).
    pub time: f64,
    /// Updates performed so far.
    pub updates: u64,
    /// Test accuracy of the worker-averaged model.
    pub accuracy: f64,
    /// Squared gradient norm `‖∇F(u_k)‖²` of the averaged model over the
    /// held-out set — the quantity Theorem 1 bounds. Populated only when
    /// `ExperimentConfig::track_grad_norm` is set.
    #[serde(default)]
    pub grad_norm_sq: Option<f64>,
}

/// The result of one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Strategy label (e.g. `"P-Reduce CON (P=3)"`).
    pub strategy: String,
    /// Virtual run time in seconds (to convergence, or to the cap).
    pub run_time: f64,
    /// Number of updates (the paper's unit: one All-Reduce round, one PS
    /// push, one gossip exchange, or one partial-reduce group operation).
    pub updates: u64,
    /// Whether the threshold was reached before the update cap.
    pub converged: bool,
    /// Final test accuracy of the averaged model.
    pub final_accuracy: f64,
    /// The convergence trace (sampled every `eval_every` updates).
    pub trace: Vec<TracePoint>,
    /// Sampled per-update wall times (for the Fig. 9 distribution);
    /// capped in length by the driver.
    pub per_update_samples: Vec<f64>,
    /// Driver-specific diagnostics (e.g. P-Reduce's repair count or the
    /// fraction of groups with non-uniform weights).
    #[serde(default)]
    pub stats: std::collections::BTreeMap<String, f64>,
}

impl RunResult {
    /// Average time per update — the paper's hardware-efficiency metric.
    pub fn per_update_time(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.run_time / self.updates as f64
        }
    }

    /// The first trace point at or above `threshold`, if any.
    pub fn time_to_accuracy(&self, threshold: f64) -> Option<f64> {
        self.trace
            .iter()
            .find(|p| p.accuracy >= threshold)
            .map(|p| p.time)
    }

    /// Percentile of the per-update samples (`q ∈ [0, 1]`); `None` when no
    /// samples were recorded.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn per_update_percentile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.per_update_samples.is_empty() {
            return None;
        }
        let mut s = self.per_update_samples.clone();
        s.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let idx = ((s.len() - 1) as f64 * q).round() as usize;
        Some(s[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        RunResult {
            strategy: "test".into(),
            run_time: 100.0,
            updates: 50,
            converged: true,
            final_accuracy: 0.91,
            trace: vec![
                TracePoint {
                    time: 10.0,
                    updates: 5,
                    accuracy: 0.5,
                    grad_norm_sq: None,
                },
                TracePoint {
                    time: 60.0,
                    updates: 30,
                    accuracy: 0.85,
                    grad_norm_sq: None,
                },
                TracePoint {
                    time: 100.0,
                    updates: 50,
                    accuracy: 0.91,
                    grad_norm_sq: Some(0.01),
                },
            ],
            per_update_samples: vec![2.0, 1.0, 4.0, 3.0],
            stats: Default::default(),
        }
    }

    #[test]
    fn per_update_time_is_ratio() {
        assert_eq!(result().per_update_time(), 2.0);
        let empty = RunResult {
            updates: 0,
            ..result()
        };
        assert_eq!(empty.per_update_time(), 0.0);
    }

    #[test]
    fn time_to_accuracy_finds_first_crossing() {
        let r = result();
        assert_eq!(r.time_to_accuracy(0.8), Some(60.0));
        assert_eq!(r.time_to_accuracy(0.5), Some(10.0));
        assert_eq!(r.time_to_accuracy(0.99), None);
    }

    #[test]
    fn percentiles() {
        let r = result();
        assert_eq!(r.per_update_percentile(0.0), Some(1.0));
        assert_eq!(r.per_update_percentile(1.0), Some(4.0));
        assert_eq!(r.per_update_percentile(0.5), Some(3.0));
        let empty = RunResult {
            per_update_samples: vec![],
            ..result()
        };
        assert_eq!(empty.per_update_percentile(0.5), None);
    }

    #[test]
    fn serde_roundtrip() {
        let r = result();
        let json = serde_json::to_string(&r).unwrap();
        let back: RunResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.updates, r.updates);
        assert_eq!(back.trace.len(), r.trace.len());
    }
}
