//! The strategy catalog: the methods of the paper's evaluation (§5.1),
//! and nothing more.

use partial_reduce::ControllerConfig;

/// A distributed-training strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// All-Reduce (AR): global synchronous ring collective.
    AllReduce,
    /// Eager-Reduce (ER): majority partial collective over gradients.
    EagerReduce,
    /// AD-PSGD: asynchronous pairwise gossip.
    AdPsgd,
    /// Parameter server, bulk-synchronous.
    PsBsp,
    /// Parameter server, fully asynchronous.
    PsAsp,
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
    /// Whether the strategy can run on a fleet of `n` workers: PS-BK needs
    /// a worker besides its backups, AD-PSGD a peer, and P-Reduce's group
    /// size is held to [`ControllerConfig::check`].
    ///
    /// # Errors
    /// Names the rule `n` breaks.
    pub fn check_fleet(&self, n: usize) -> Result<(), String> {
        match *self {
            Strategy::PReduce { p, .. } => ControllerConfig {
                num_workers: n,
                group_size: p,
                ..ControllerConfig::constant(2, 2)
            }
            .check(),
            Strategy::PsBackup { backups } if backups >= n => Err(format!(
                "{backups} backups leave no worker of N = {n} to wait for (need backups < N)"
            )),
            Strategy::AdPsgd if n < 2 => Err(format!("gossip needs a peer, got N = {n}")),
            _ => Ok(()),
        }
    }

    /// Human-readable label matching the paper's table headers.
    pub fn label(&self) -> String {
        match self {
            Strategy::AllReduce => "All-Reduce".into(),
            Strategy::EagerReduce => "Eager-Reduce".into(),
            Strategy::AdPsgd => "AD-PSGD".into(),
            Strategy::PsBsp => "PS BSP".into(),
            Strategy::PsAsp => "PS ASP".into(),
            Strategy::PsHete => "PS HETE".into(),
            Strategy::PsBackup { backups } => format!("PS BK (b={backups})"),
            Strategy::PReduce { p, dynamic } => {
                format!("P-Reduce {} (P={p})", if *dynamic { "DYN" } else { "CON" })
            }
        }
    }

    /// The controller configuration of a [`Strategy::PReduce`] run with
    /// group size `p`: CON, or DYN with the default Eq. 9 parameters.
    ///
    /// # Panics
    /// Panics unless `2 ≤ p ≤ num_workers`.
    pub fn preduce_controller_config(
        p: usize,
        dynamic: bool,
        num_workers: usize,
    ) -> ControllerConfig {
        if dynamic {
            ControllerConfig::dynamic(num_workers, p)
        } else {
            ControllerConfig::constant(num_workers, p)
        }
    }

    /// The full baseline lineup of Table 1 for a cluster of `n` workers.
    pub fn table1_lineup(n: usize) -> Vec<Strategy> {
        let backups = (n * 3) / 8; // paper: 3 backups out of 8 workers
                                   // P-Reduce at P = 3 and 5, each CON then DYN.
        let preduce = [3, 5]
            .into_iter()
            .flat_map(|p| [false, true].map(|dynamic| Strategy::PReduce { p, dynamic }));
        [
            Strategy::AllReduce,
            Strategy::EagerReduce,
            Strategy::AdPsgd,
            Strategy::PsBsp,
            Strategy::PsAsp,
            Strategy::PsHete,
            Strategy::PsBackup { backups },
        ]
        .into_iter()
        .chain(preduce)
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partial_reduce::AggregationMode;

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
        let c = Strategy::preduce_controller_config(5, false, 8);
        assert_eq!((c.num_workers, c.group_size), (8, 5));
        assert!(matches!(c.mode, AggregationMode::Constant));
        assert!(matches!(
            Strategy::preduce_controller_config(3, true, 8).mode,
            AggregationMode::Dynamic { .. }
        ));
    }

    #[test]
    fn table1_lineup_composition() {
        let l = Strategy::table1_lineup(8);
        assert_eq!(l.len(), 11);
        // 4 P-Reduce variants, 3 backups out of 8.
        assert!(l.contains(&Strategy::PsBackup { backups: 3 }));
    }
}
