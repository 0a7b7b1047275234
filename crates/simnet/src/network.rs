//! Analytic communication cost model (α–β model: per-message latency α plus
//! bytes/bandwidth β).
//!
//! Collective costs follow the standard algorithm analyses the paper's
//! systems use: ring all-reduce (Gloo/NCCL), sharded parameter-server
//! push/pull (co-located shards, all-to-all), and pairwise gossip (AD-PSGD).

use serde::{Deserialize, Serialize};

/// Cluster network parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Per-link bandwidth in bytes/second (paper cluster: 10 GbE ⇒ 1.25e9).
    pub bandwidth: f64,
    /// Per-message latency in seconds.
    pub latency: f64,
    /// Incast/congestion multiplier applied to parameter-server traffic
    /// (star topologies suffer incast that rings avoid; ≥ 1).
    pub ps_incast_factor: f64,
}

impl NetworkModel {
    /// 10 GbE with 50 µs latency — the calibration used against the paper's
    /// cluster (see EXPERIMENTS.md).
    pub fn ten_gbe() -> Self {
        NetworkModel {
            bandwidth: 1.25e9,
            latency: 50e-6,
            // Calibrated against the paper's PS per-update times: its
            // star-pattern traffic pays roughly 2x the ring's effective
            // cost (incast + unsynchronized transfers).
            ps_incast_factor: 2.0,
        }
    }

    /// Checks the parameters: a finite positive bandwidth, a finite
    /// non-negative latency and an incast factor of at least 1.
    ///
    /// # Errors
    /// Names the first rule the model breaks.
    pub fn check(&self) -> Result<(), &'static str> {
        if !(self.bandwidth > 0.0 && self.bandwidth.is_finite()) {
            Err("bandwidth must be positive")
        } else if !(self.latency >= 0.0 && self.latency.is_finite()) {
            Err("latency must be non-negative")
        } else if self.ps_incast_factor.is_nan() || self.ps_incast_factor < 1.0 {
            Err("incast factor must be ≥ 1")
        } else {
            Ok(())
        }
    }

    /// Ring all-reduce among `p` participants moving a `bytes`-sized model:
    /// reduce-scatter plus all-gather, `2(p−1)` steps of `bytes/p` each, so
    /// `2(p−1)/p · bytes/BW + 2(p−1)·α`. `p = 1` costs nothing.
    ///
    /// This is the cost of one All-Reduce *and* of one partial-reduce among
    /// a group of size `p` — the primitive "preserves the communication
    /// bandwidth utilization" (§3.1.1) precisely because it runs the same
    /// ring algorithm on a smaller group.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn ring_allreduce_time(&self, p: usize, bytes: u64) -> f64 {
        assert!(p > 0, "ring of zero participants");
        if p == 1 {
            return 0.0;
        }
        let steps = 2 * (p - 1);
        steps as f64 * (self.latency + bytes as f64 / p as f64 / self.bandwidth)
    }

    /// One worker's parameter-server round trip (push gradients + pull
    /// model) against a PS sharded across `n` nodes: the worker exchanges
    /// `(n−1)/n` of the model with remote shards in each direction, scaled
    /// by the incast factor.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn ps_push_pull_time(&self, n: usize, bytes: u64) -> f64 {
        assert!(n > 0, "parameter server with zero shards");
        if n == 1 {
            return 0.0;
        }
        let remote_fraction = (n - 1) as f64 / n as f64;
        2.0 * (self.latency
            + remote_fraction * bytes as f64 / self.bandwidth * self.ps_incast_factor)
    }

    /// Pairwise model exchange-and-average (AD-PSGD gossip): both models
    /// cross the link once.
    pub fn gossip_pair_time(&self, bytes: u64) -> f64 {
        2.0 * self.latency + bytes as f64 / self.bandwidth
    }

    /// Controller signaling time: a ready signal or group notification is a
    /// few bytes, so this is one network latency (§4: "each message from the
    /// workers is only a few bytes so that it will not involve any
    /// communication overheads").
    pub fn signal_time(&self) -> f64 {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetworkModel {
        NetworkModel {
            bandwidth: 1e9,
            latency: 1e-4,
            ps_incast_factor: 1.2,
        }
    }

    #[test]
    fn ring_allreduce_formula() {
        let n = net();
        // p=4, bytes=4e6: 6 steps of (1e-4 + 1e6/1e9) = 6 * 1.1e-3
        let t = n.ring_allreduce_time(4, 4_000_000);
        assert!((t - 6.0 * (1e-4 + 1e-3)).abs() < 1e-12);
        assert_eq!(n.ring_allreduce_time(1, 4_000_000), 0.0);
    }

    #[test]
    fn smaller_groups_are_cheaper() {
        let n = net();
        let bytes = 80_000_000;
        let t2 = n.ring_allreduce_time(2, bytes);
        let t4 = n.ring_allreduce_time(4, bytes);
        let t8 = n.ring_allreduce_time(8, bytes);
        assert!(t2 < t4 && t4 < t8);
        // But the bandwidth term saturates at 2·bytes/BW: large-p cost is
        // dominated by latency growth, not bandwidth.
        let bw_only = 2.0 * bytes as f64 / n.bandwidth;
        assert!(t8 < bw_only + 14.0 * n.latency + 1e-9);
    }

    #[test]
    fn ps_round_trip_scales_with_remote_fraction() {
        let n = net();
        let t1 = n.ps_push_pull_time(1, 1_000_000);
        assert_eq!(t1, 0.0); // single node: everything is local
        let t2 = n.ps_push_pull_time(2, 1_000_000);
        let t8 = n.ps_push_pull_time(8, 1_000_000);
        assert!(t2 < t8);
        // Check the exact n=2 value: 2·(α + 0.5·bytes/BW·1.2)
        assert!((t2 - 2.0 * (1e-4 + 0.5 * 1e-3 * 1.2)).abs() < 1e-12);
    }

    #[test]
    fn gossip_costs_one_crossing_each_way() {
        let n = net();
        assert!((n.gossip_pair_time(1_000_000) - (2e-4 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn signal_is_latency_only() {
        assert_eq!(net().signal_time(), 1e-4);
    }

    #[test]
    #[should_panic(expected = "zero participants")]
    fn ring_rejects_zero() {
        net().ring_allreduce_time(0, 1);
    }

    #[test]
    fn ten_gbe_preset_validates() {
        let n = NetworkModel::ten_gbe();
        assert_eq!(n.check(), Ok(()));
        assert_eq!(n.bandwidth, 1.25e9);
        assert_eq!(n.ps_incast_factor, 2.0);
    }

    #[test]
    fn check_names_the_broken_rule() {
        for (broken, rule) in [
            (
                NetworkModel {
                    bandwidth: -1.0,
                    ..net()
                },
                "bandwidth",
            ),
            (
                NetworkModel {
                    bandwidth: f64::INFINITY,
                    ..net()
                },
                "bandwidth",
            ),
            (
                NetworkModel {
                    latency: f64::NAN,
                    ..net()
                },
                "latency",
            ),
            (
                NetworkModel {
                    ps_incast_factor: 0.5,
                    ..net()
                },
                "incast",
            ),
        ] {
            assert!(broken.check().unwrap_err().contains(rule), "{broken:?}");
        }
        assert_eq!(net().check(), Ok(()));
    }
}
