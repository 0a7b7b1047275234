//! The strategy catalog: every method of the paper's evaluation (§5.1)
//! plus two extensions (SSP, D-PSGD).

use std::fmt;

use partial_reduce::{AggregationMode, ControllerConfig};
use serde::{Deserialize, Serialize};

/// Error: only [`Strategy::PReduce`] carries a partial-reduce controller
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoControllerConfig {
    /// Label of the strategy that has no controller.
    pub strategy: String,
}

impl fmt::Display for NoControllerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} has no controller config", self.strategy)
    }
}

impl std::error::Error for NoControllerConfig {}

/// The four synchronization shapes a strategy can take — the engine
/// dispatches each family to one module of [`crate::engine::drivers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyFamily {
    /// Full-fleet collectives (All-Reduce, Eager-Reduce).
    Collective,
    /// Decentralized peer-to-peer mixing (AD-PSGD, D-PSGD).
    Gossip,
    /// A central server holding the global model (BSP, ASP, SSP, HETE,
    /// backup workers).
    ParameterServer,
    /// The paper's partial-reduce primitive (CON and DYN).
    PartialReduce,
}

/// A distributed-training strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// All-Reduce (AR): global synchronous ring collective.
    AllReduce,
    /// Eager-Reduce (ER): majority partial collective over gradients.
    EagerReduce,
    /// AD-PSGD: asynchronous pairwise gossip.
    AdPsgd,
    /// D-PSGD: synchronous ring gossip (extension).
    DPsgd,
    /// Parameter server, bulk-synchronous.
    PsBsp,
    /// Parameter server, fully asynchronous.
    PsAsp,
    /// Parameter server, stale-synchronous with the given bound
    /// (extension; related work in the paper).
    PsSsp {
        /// Maximum iterations the fastest worker may lead by.
        bound: u64,
    },
    /// Heterogeneity-aware parameter server (staleness-scaled rates).
    PsHete,
    /// Synchronous PS with backup workers: waits for the fastest
    /// `N − backups`.
    PsBackup {
        /// Number of backup (droppable) workers.
        backups: usize,
    },
    /// **Partial reduce** — this paper. `dynamic = false` is CON
    /// (constant `1/P` weights), `true` is DYN (staleness-aware weights).
    PReduce {
        /// Group size `P`.
        p: usize,
        /// Dynamic (staleness-aware) aggregation?
        dynamic: bool,
    },
}

impl Strategy {
    /// Human-readable label matching the paper's table headers.
    pub fn label(&self) -> String {
        match self {
            Strategy::AllReduce => "All-Reduce".into(),
            Strategy::EagerReduce => "Eager-Reduce".into(),
            Strategy::AdPsgd => "AD-PSGD".into(),
            Strategy::DPsgd => "D-PSGD".into(),
            Strategy::PsBsp => "PS BSP".into(),
            Strategy::PsAsp => "PS ASP".into(),
            Strategy::PsSsp { bound } => format!("PS SSP (s={bound})"),
            Strategy::PsHete => "PS HETE".into(),
            Strategy::PsBackup { backups } => format!("PS BK (b={backups})"),
            Strategy::PReduce { p, dynamic } => {
                if *dynamic {
                    format!("P-Reduce DYN (P={p})")
                } else {
                    format!("P-Reduce CON (P={p})")
                }
            }
        }
    }

    /// The synchronization family this strategy belongs to.
    pub fn family(&self) -> StrategyFamily {
        match self {
            Strategy::AllReduce | Strategy::EagerReduce => StrategyFamily::Collective,
            Strategy::AdPsgd | Strategy::DPsgd => StrategyFamily::Gossip,
            Strategy::PsBsp
            | Strategy::PsAsp
            | Strategy::PsSsp { .. }
            | Strategy::PsHete
            | Strategy::PsBackup { .. } => StrategyFamily::ParameterServer,
            Strategy::PReduce { .. } => StrategyFamily::PartialReduce,
        }
    }

    /// Builds the controller config for a P-Reduce strategy.
    ///
    /// # Errors
    /// Returns [`NoControllerConfig`] if `self` is not
    /// [`Strategy::PReduce`] — every other strategy synchronizes without a
    /// partial-reduce controller.
    pub fn controller_config(
        &self,
        num_workers: usize,
    ) -> Result<ControllerConfig, NoControllerConfig> {
        match self {
            Strategy::PReduce { p, dynamic } => {
                Ok(Self::preduce_controller_config(*p, *dynamic, num_workers))
            }
            Strategy::AllReduce
            | Strategy::EagerReduce
            | Strategy::AdPsgd
            | Strategy::DPsgd
            | Strategy::PsBsp
            | Strategy::PsAsp
            | Strategy::PsSsp { .. }
            | Strategy::PsHete
            | Strategy::PsBackup { .. } => Err(NoControllerConfig {
                strategy: self.label(),
            }),
        }
    }

    /// The controller configuration of a [`Strategy::PReduce`] run —
    /// infallible, for call sites that already hold the destructured
    /// `p`/`dynamic` fields (the P-Reduce driver's two projections).
    pub fn preduce_controller_config(
        p: usize,
        dynamic: bool,
        num_workers: usize,
    ) -> ControllerConfig {
        ControllerConfig {
            num_workers,
            group_size: p,
            mode: if dynamic {
                AggregationMode::dynamic_default()
            } else {
                AggregationMode::Constant
            },
            history_window: None,
            frozen_avoidance: true,
        }
    }

    /// The full baseline lineup of Table 1 for a cluster of `n` workers.
    pub fn table1_lineup(n: usize) -> Vec<Strategy> {
        let backups = (n * 3) / 8; // paper: 3 backups out of 8 workers
        vec![
            Strategy::AllReduce,
            Strategy::EagerReduce,
            Strategy::AdPsgd,
            Strategy::PsBsp,
            Strategy::PsAsp,
            Strategy::PsHete,
            Strategy::PsBackup { backups },
            Strategy::PReduce {
                p: 3,
                dynamic: false,
            },
            Strategy::PReduce {
                p: 3,
                dynamic: true,
            },
            Strategy::PReduce {
                p: 5,
                dynamic: false,
            },
            Strategy::PReduce {
                p: 5,
                dynamic: true,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(Strategy::AllReduce.label(), "All-Reduce");
        assert_eq!(
            Strategy::PReduce {
                p: 3,
                dynamic: true
            }
            .label(),
            "P-Reduce DYN (P=3)"
        );
        assert_eq!(Strategy::PsBackup { backups: 3 }.label(), "PS BK (b=3)");
    }

    #[test]
    fn controller_config_for_preduce() {
        let s = Strategy::PReduce {
            p: 5,
            dynamic: false,
        };
        let c = s.controller_config(8).unwrap();
        assert_eq!(c.group_size, 5);
        assert!(matches!(c.mode, AggregationMode::Constant));
        let s = Strategy::PReduce {
            p: 3,
            dynamic: true,
        };
        assert!(matches!(
            s.controller_config(8).unwrap().mode,
            AggregationMode::Dynamic { .. }
        ));
    }

    #[test]
    fn controller_config_rejects_other_strategies() {
        let err = Strategy::AllReduce.controller_config(8).unwrap_err();
        assert_eq!(err.strategy, "All-Reduce");
        assert_eq!(err.to_string(), "All-Reduce has no controller config");
        // Every non-P-Reduce strategy errs; every P-Reduce succeeds.
        for s in Strategy::table1_lineup(8) {
            let got = s.controller_config(8);
            match s {
                Strategy::PReduce { .. } => assert!(got.is_ok(), "{s:?}"),
                _ => assert!(got.is_err(), "{s:?}"),
            }
        }
    }

    #[test]
    fn table1_lineup_composition() {
        let l = Strategy::table1_lineup(8);
        assert_eq!(l.len(), 11);
        // 4 P-Reduce variants, 3 backups out of 8.
        assert!(l.contains(&Strategy::PsBackup { backups: 3 }));
    }

    #[test]
    fn families_partition_the_lineup() {
        let lineup = Strategy::table1_lineup(8);
        assert!(lineup
            .iter()
            .any(|s| s.family() == StrategyFamily::Collective));
        assert!(lineup.iter().any(|s| s.family() == StrategyFamily::Gossip));
        assert!(lineup
            .iter()
            .any(|s| s.family() == StrategyFamily::ParameterServer));
        assert!(lineup
            .iter()
            .any(|s| s.family() == StrategyFamily::PartialReduce));
        assert_eq!(Strategy::DPsgd.family(), StrategyFamily::Gossip);
        assert_eq!(
            Strategy::PsSsp { bound: 4 }.family(),
            StrategyFamily::ParameterServer
        );
    }

    #[test]
    fn strategy_serde_roundtrip() {
        let s = Strategy::PReduce {
            p: 4,
            dynamic: true,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: Strategy = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
