//! One driver per strategy family. Every strategy runs under virtual
//! time; the paper's own system, P-Reduce, also runs on real threads.
//!
//! A [`Driver`] owns a strategy's state machine — the math it records
//! with the harness (gradient aggregation, model mixing, staleness
//! scaling) and the membership policy (who participates in each
//! exchange). `drive_sim`
//! consumes a [`SimSubstrate`] and replays the machine under
//! deterministic virtual time (each loop draws from the shared RNG in its
//! own order, which the fixed-seed goldens pin). `drive_threaded` runs
//! P-Reduce on real OS threads, one per worker, against the real
//! controller thread.
//! The Table-1 baselines are sim-only: the sim driver is their one
//! implementation.

pub mod gossip;
pub mod preduce;
pub mod ps;
pub mod sync;

use crate::engine::substrate::{must, SimSubstrate, ThreadedReport, ThreadedSubstrate};
use crate::engine::SimError;
use crate::metrics::RunResult;
use crate::strategy::Strategy;

/// The driver for `strategy`.
pub fn driver_for(strategy: Strategy) -> Driver {
    Driver(strategy)
}

/// A strategy written once: one driver type dispatches the whole catalog
/// through a single exhaustive match, so a strategy/family mismatch is
/// unrepresentable. The family structure lives in the per-family modules.
pub struct Driver(Strategy);

impl Driver {
    /// Runs the strategy to convergence (or the update cap) under
    /// deterministic virtual time.
    ///
    /// # Panics
    /// Panics on a fleet [`Strategy::check_fleet`] refuses, or on the
    /// error [`Driver::try_drive_sim`] returns.
    pub fn drive_sim(&self, substrate: SimSubstrate) -> RunResult {
        must("simulated run", self.try_drive_sim(substrate))
    }

    /// [`Driver::drive_sim`], returning the error that can end a run
    /// under a fault plan instead of panicking on it.
    ///
    /// # Errors
    /// The [`SimError`] P-Reduce's fault handling ends a run with: the
    /// failure detector's clock overflowing, or a `restore:` with no
    /// snapshot to load.
    ///
    /// # Panics
    /// Panics on a fleet [`Strategy::check_fleet`] refuses.
    pub fn try_drive_sim(&self, substrate: SimSubstrate) -> Result<RunResult, SimError> {
        let n = substrate.harness.num_workers();
        let fits = self.0.check_fleet(n);
        assert!(fits.is_ok(), "{fits:?}");
        // The baselines ignore the plan, the sink and the elasticity
        // options: they take the harness alone.
        let h = substrate.harness;
        Ok(match self.0 {
            Strategy::AllReduce => sync::run_allreduce(h),
            Strategy::EagerReduce => sync::run_eager_reduce(h),
            Strategy::AdPsgd => gossip::run_ad_psgd(h),
            Strategy::PsBsp => sync::run_ps_bsp(h),
            Strategy::PsBackup { backups } => sync::run_ps_bk(h, backups),
            Strategy::PsAsp => ps::run_ps_asp(h),
            Strategy::PsHete => ps::run_ps_hete(h),
            Strategy::PReduce { p, dynamic } => {
                let cfg = Strategy::preduce_controller_config(p, dynamic, n);
                let substrate = SimSubstrate {
                    harness: h,
                    ..substrate
                };
                preduce::run(substrate, cfg)?
            }
        })
    }

    /// Runs P-Reduce for the substrate's iteration budget on real OS
    /// threads.
    ///
    /// # Panics
    /// Panics if the strategy is a baseline: those run on
    /// [`Backend::Sim`](crate::engine::Backend::Sim) only. Otherwise
    /// panics as `threaded_preduce` does (a `restore:` verb, a panicking
    /// worker or controller thread).
    pub fn drive_threaded(&self, substrate: &ThreadedSubstrate) -> ThreadedReport {
        match self.0 {
            Strategy::PReduce { p, dynamic } => {
                let cfg =
                    Strategy::preduce_controller_config(p, dynamic, substrate.config.num_workers);
                preduce::threaded_preduce(substrate, cfg)
            }
            #[allow(
                clippy::panic,
                reason = "a baseline on real threads is a caller error; the CLI refuses it as a usage error first"
            )]
            baseline => panic!(
                "{} runs on Backend::Sim only: the threaded substrate runs P-Reduce",
                baseline.label()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentConfig, HeteroSpec};
    use crate::sim::SimHarness;
    use preduce_data::cifar10_like;
    use preduce_models::zoo;
    use proptest::prelude::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig};

    /// Runs `strategy` on a harness whose recorded math runs on `threads`
    /// threads: its result and every worker's final bits.
    fn outcome(
        c: &ExperimentConfig,
        strategy: Strategy,
        threads: usize,
    ) -> (String, Vec<Vec<u32>>) {
        let substrate = SimSubstrate {
            harness: SimHarness::with_threads(c, threads),
            ..SimSubstrate::new(c)
        };
        let result = driver_for(strategy).drive_sim(substrate);
        (format!("{result:?}"), crate::sim::tests::FINISHED.take())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn every_strategy_gives_the_same_run_at_every_thread_count(
            dynamic in any::<bool>(),
            gpu_sharing in any::<bool>(),
            slow_link in any::<bool>(),
            seed in 1..1_000u64,
        ) {
            let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
            c.num_workers = 6;
            c.math_batch_size = 8;
            c.max_updates = 24;
            c.eval_every = 8;
            c.seed = seed;
            if gpu_sharing {
                c.hetero = HeteroSpec::GpuSharing { hl: 3 };
            }
            if slow_link {
                c.link_slowdown = Some(vec![1.0, 4.0, 1.0, 1.0, 2.0, 1.0]);
            }
            for strategy in [
                Strategy::AllReduce,
                Strategy::EagerReduce,
                Strategy::AdPsgd,
                Strategy::PsBsp,
                Strategy::PsBackup { backups: 2 },
                Strategy::PsAsp,
                Strategy::PsHete,
                Strategy::PReduce { p: 3, dynamic },
            ] {
                let one = outcome(&c, strategy, 1);
                for threads in [2, 4] {
                    let many = outcome(&c, strategy, threads);
                    prop_assert_eq!(&many.0, &one.0, "{:?}: result at {} threads", strategy, threads);
                    prop_assert!(many.1 == one.1, "{:?}: worker state at {} threads", strategy, threads);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "All-Reduce runs on Backend::Sim only")]
    fn a_baseline_does_not_run_threaded() {
        let mut c = crate::ExperimentConfig::table1(
            preduce_models::zoo::resnet18(),
            preduce_data::cifar10_like(),
            1,
        );
        c.num_workers = 2;
        let _ = driver_for(Strategy::AllReduce).drive_threaded(&ThreadedSubstrate::new(&c, 1));
    }
}
