//! The experiment driver: strategy × configuration → [`RunResult`].

use std::sync::Arc;

use partial_reduce::NullSink;

use crate::config::ExperimentConfig;
use crate::engine::{self, Backend};
use crate::metrics::RunResult;
use crate::strategy::Strategy;

/// Runs one experiment under virtual time and returns its metrics.
///
/// Deterministic: the same `(strategy, config)` pair always produces the
/// same result (all randomness flows from `config.seed`).
///
/// # Panics
/// Panics on invalid configurations (e.g. P-Reduce group larger than the
/// fleet, backups ≥ N).
pub fn run_experiment(strategy: Strategy, config: &ExperimentConfig) -> RunResult {
    engine::run(strategy, config, Backend::Sim, Arc::new(NullSink)).result
}

#[cfg(test)]
mod tests {
    use super::*;
    use preduce_data::cifar10_like;
    use preduce_models::zoo;

    /// A deliberately tiny configuration: enough updates to see learning,
    /// small enough for unit-test latency.
    fn tiny(hl: usize) -> ExperimentConfig {
        let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), hl);
        c.num_workers = 4;
        c.max_updates = 120;
        c.eval_every = 40;
        c.threshold = 0.999; // unreachable: we want full-length runs here
        c
    }

    #[test]
    fn every_strategy_runs_and_reports() {
        let c = tiny(2);
        let strategies = [
            Strategy::AllReduce,
            Strategy::EagerReduce,
            Strategy::AdPsgd,
            Strategy::PsBsp,
            Strategy::PsAsp,
            Strategy::PsHete,
            Strategy::PsBackup { backups: 1 },
            Strategy::PReduce {
                p: 2,
                dynamic: false,
            },
            Strategy::PReduce {
                p: 2,
                dynamic: true,
            },
        ];
        for s in strategies {
            let r = run_experiment(s, &c);
            assert_eq!(r.strategy, s.label());
            assert!(r.updates >= 120, "{}: {} updates", r.strategy, r.updates);
            assert!(r.run_time > 0.0, "{}", r.strategy);
            assert!(r.per_update_time() > 0.0, "{}", r.strategy);
            assert!(!r.trace.is_empty(), "{}", r.strategy);
            assert!(
                r.final_accuracy.is_finite(),
                "{}: accuracy {}",
                r.strategy,
                r.final_accuracy
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let c = tiny(2);
        let a = run_experiment(
            Strategy::PReduce {
                p: 2,
                dynamic: true,
            },
            &c,
        );
        let b = run_experiment(
            Strategy::PReduce {
                p: 2,
                dynamic: true,
            },
            &c,
        );
        assert_eq!(a.run_time, b.run_time);
        assert_eq!(a.updates, b.updates);
        assert_eq!(a.final_accuracy, b.final_accuracy);
    }

    #[test]
    fn heterogeneity_slows_allreduce_more_than_preduce() {
        // The core claim in miniature: going from HL=1 to HL=3 hurts AR's
        // per-update time by roughly the slowdown factor, while P-Reduce
        // degrades much less.
        let ar_1 = run_experiment(Strategy::AllReduce, &tiny(1));
        let ar_3 = run_experiment(Strategy::AllReduce, &tiny(3));
        let pr_1 = run_experiment(
            Strategy::PReduce {
                p: 2,
                dynamic: false,
            },
            &tiny(1),
        );
        let pr_3 = run_experiment(
            Strategy::PReduce {
                p: 2,
                dynamic: false,
            },
            &tiny(3),
        );
        let ar_slowdown = ar_3.per_update_time() / ar_1.per_update_time();
        let pr_slowdown = pr_3.per_update_time() / pr_1.per_update_time();
        assert!(
            ar_slowdown > pr_slowdown,
            "AR {ar_slowdown:.2}x vs P-Reduce {pr_slowdown:.2}x"
        );
    }

    #[test]
    fn preduce_per_update_is_faster_than_allreduce() {
        let c = tiny(1);
        let ar = run_experiment(Strategy::AllReduce, &c);
        let pr = run_experiment(
            Strategy::PReduce {
                p: 2,
                dynamic: false,
            },
            &c,
        );
        assert!(
            pr.per_update_time() < ar.per_update_time(),
            "P-Reduce {} !< AR {}",
            pr.per_update_time(),
            ar.per_update_time()
        );
    }

    #[test]
    fn training_actually_learns() {
        // With a reachable threshold, All-Reduce on the easy preset should
        // improve accuracy well above chance (10 classes ⇒ 0.1).
        let mut c = tiny(1);
        c.max_updates = 400;
        c.eval_every = 50;
        let r = run_experiment(Strategy::AllReduce, &c);
        assert!(
            r.final_accuracy > 0.3,
            "no learning signal: {}",
            r.final_accuracy
        );
        // Accuracy trend is upward from first to last trace point; an
        // empty trace (too few updates per eval interval) is a test bug
        // worth naming, not an unwrap panic.
        match (r.trace.first(), r.trace.last()) {
            (Some(first), Some(last)) => assert!(
                last.accuracy > first.accuracy,
                "no improvement: {} -> {}",
                first.accuracy,
                last.accuracy
            ),
            _ => panic!("run recorded no trace points; check eval_every vs max_updates"),
        }
    }
}
