//! One driver per strategy family, each written once and projected onto
//! both substrates.
//!
//! A [`Driver`] owns a strategy's state machine — the math
//! (gradient aggregation, model mixing, staleness scaling) and the
//! membership policy (who participates in each exchange). Its two methods
//! project that machine onto the two substrates: `drive_sim` consumes a
//! [`SimSubstrate`] and replays the machine under deterministic virtual
//! time (each loop draws from the shared RNG in its own order, which the
//! fixed-seed goldens pin);
//! `drive_threaded` runs the same machine as an SPMD program on real OS
//! threads via `ThreadedSubstrate::run_spmd`.

pub mod gossip;
pub mod preduce;
pub mod ps;
pub mod sync;

use crate::engine::substrate::{SimSubstrate, ThreadedReport, ThreadedSubstrate};
use crate::metrics::RunResult;
use crate::strategy::Strategy;

use ps::PsPolicy;

/// The driver for `strategy`.
pub fn driver_for(strategy: Strategy) -> Driver {
    Driver(strategy)
}

/// A strategy written once, runnable on either substrate: one driver
/// type dispatches the whole catalog through a single exhaustive match
/// per projection, so a strategy/family mismatch is unrepresentable and
/// no dispatch path can panic. The family structure lives in the
/// per-family modules.
pub struct Driver(Strategy);

impl Driver {
    /// The strategy this driver executes.
    pub fn strategy(&self) -> Strategy {
        self.0
    }

    /// Runs the strategy to convergence (or the update cap) under
    /// deterministic virtual time.
    pub fn drive_sim(&self, substrate: SimSubstrate) -> RunResult {
        let faults = substrate.faults().clone();
        let elastic = substrate.elastic().clone();
        let (h, sink) = substrate.into_parts();
        match self.0 {
            Strategy::AllReduce => sync::run_allreduce(h),
            Strategy::EagerReduce => sync::run_eager_reduce(h),
            Strategy::AdPsgd => gossip::run_ad_psgd(h),
            Strategy::DPsgd => gossip::run_d_psgd(h),
            Strategy::PsBsp => sync::run_ps_bsp(h),
            Strategy::PsBackup { backups } => sync::run_ps_bk(h, backups),
            Strategy::PsAsp => ps::run_ps_asp(h),
            Strategy::PsSsp { bound } => ps::run_ps_ssp(h, bound),
            Strategy::PsHete => ps::run_ps_hete(h),
            Strategy::PReduce { p, dynamic } => {
                let cfg = Strategy::preduce_controller_config(p, dynamic, h.num_workers());
                preduce::run_preduce_elastic(h, cfg, sink, faults, elastic)
            }
        }
    }

    /// Runs the strategy for the substrate's iteration budget on real OS
    /// threads.
    pub fn drive_threaded(&self, substrate: &ThreadedSubstrate) -> ThreadedReport {
        match self.0 {
            Strategy::AllReduce => sync::threaded_allreduce(substrate),
            Strategy::EagerReduce => sync::threaded_eager_reduce(substrate),
            Strategy::AdPsgd => gossip::threaded_ad_psgd(substrate),
            Strategy::DPsgd => gossip::threaded_d_psgd(substrate),
            Strategy::PsBsp => sync::threaded_ps_bsp(substrate),
            Strategy::PsBackup { backups } => sync::threaded_ps_bk(substrate, backups),
            Strategy::PsAsp => ps::threaded_ps_async(substrate, PsPolicy::Asp),
            Strategy::PsSsp { bound } => ps::threaded_ps_async(substrate, PsPolicy::Ssp { bound }),
            Strategy::PsHete => ps::threaded_ps_async(substrate, PsPolicy::Hete),
            Strategy::PReduce { p, dynamic } => {
                let cfg =
                    Strategy::preduce_controller_config(p, dynamic, substrate.config().num_workers);
                preduce::threaded_preduce(substrate, cfg)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_for_round_trips_every_strategy() {
        let mut all = Strategy::table1_lineup(8);
        all.push(Strategy::DPsgd);
        all.push(Strategy::PsSsp { bound: 4 });
        for s in all {
            assert_eq!(driver_for(s).strategy(), s);
        }
    }
}
