//! End-to-end convergence tests: every strategy family trains a real model
//! on a real (synthetic) task under simulated heterogeneity, and the ones
//! the paper says converge, converge.

use preduce::data::cifar10_like;
use preduce::models::zoo;
use preduce::trainer::{run_experiment, ExperimentConfig, HeteroSpec, Strategy};

/// An easy, fast configuration: modest threshold every sound method
/// reaches within the cap.
fn easy(hl: usize) -> ExperimentConfig {
    let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), hl);
    c.num_workers = 6;
    c.threshold = 0.75;
    c.max_updates = 8_000;
    c.eval_every = 20;
    c.sgd.lr = 0.05;
    c
}

#[test]
fn allreduce_converges() {
    let r = run_experiment(Strategy::AllReduce, &easy(2));
    assert!(r.converged, "AR failed to reach threshold: {r:?}");
}

#[test]
fn preduce_constant_converges() {
    let r = run_experiment(
        Strategy::PReduce {
            p: 3,
            dynamic: false,
        },
        &easy(2),
    );
    assert!(r.converged, "CON failed: final acc {}", r.final_accuracy);
}

#[test]
fn preduce_dynamic_converges() {
    let r = run_experiment(
        Strategy::PReduce {
            p: 3,
            dynamic: true,
        },
        &easy(2),
    );
    assert!(r.converged, "DYN failed: final acc {}", r.final_accuracy);
}

#[test]
fn ps_family_converges() {
    for s in [
        Strategy::PsBsp,
        Strategy::PsAsp,
        Strategy::PsHete,
        Strategy::PsBackup { backups: 2 },
    ] {
        let r = run_experiment(s, &easy(2));
        assert!(
            r.converged,
            "{} failed: final acc {}",
            r.strategy, r.final_accuracy
        );
    }
}

#[test]
fn ad_psgd_converges() {
    let r = run_experiment(Strategy::AdPsgd, &easy(2));
    assert!(
        r.converged,
        "AD-PSGD failed: final acc {}",
        r.final_accuracy
    );
}

#[test]
fn preduce_beats_allreduce_on_heterogeneous_runtime() {
    // The headline claim, end to end: under heterogeneity, P-Reduce
    // reaches the same accuracy threshold in less virtual time.
    let c = easy(3);
    let ar = run_experiment(Strategy::AllReduce, &c);
    let pr = run_experiment(
        Strategy::PReduce {
            p: 3,
            dynamic: false,
        },
        &c,
    );
    assert!(ar.converged && pr.converged);
    assert!(
        pr.run_time < ar.run_time,
        "P-Reduce {:.1}s !< AR {:.1}s",
        pr.run_time,
        ar.run_time
    );
}

#[test]
fn production_heterogeneity_hurts_allreduce_most() {
    // Markov-modulated production stragglers: AR's per-update time jumps,
    // P-Reduce's barely moves (each group dodges degraded workers).
    let mut quiet = easy(1);
    quiet.threshold = 0.999;
    quiet.max_updates = 400;
    quiet.eval_every = 400;
    let mut noisy = quiet.clone();
    noisy.hetero = HeteroSpec::Production {
        p_degrade: 0.1,
        p_recover: 0.3,
        slow_factor: 10.0,
    };

    let ar_q = run_experiment(Strategy::AllReduce, &quiet);
    let ar_n = run_experiment(Strategy::AllReduce, &noisy);
    let pr_q = run_experiment(
        Strategy::PReduce {
            p: 3,
            dynamic: false,
        },
        &quiet,
    );
    let pr_n = run_experiment(
        Strategy::PReduce {
            p: 3,
            dynamic: false,
        },
        &noisy,
    );

    let ar_ratio = ar_n.per_update_time() / ar_q.per_update_time();
    let pr_ratio = pr_n.per_update_time() / pr_q.per_update_time();
    assert!(
        ar_ratio > 1.5,
        "production noise should visibly hurt AR: ratio {ar_ratio:.2}"
    );
    assert!(
        pr_ratio < ar_ratio,
        "P-Reduce should degrade less: {pr_ratio:.2} !< {ar_ratio:.2}"
    );
}

#[test]
fn update_counts_order_matches_paper() {
    // Table 1's statistical-efficiency ordering: synchronous methods need
    // the fewest updates; partial reduce needs more (its updates are
    // partial); fully-asynchronous PS needs the most.
    let c = easy(2);
    let ar = run_experiment(Strategy::AllReduce, &c);
    let pr = run_experiment(
        Strategy::PReduce {
            p: 3,
            dynamic: false,
        },
        &c,
    );
    let asp = run_experiment(Strategy::PsAsp, &c);
    assert!(ar.converged && pr.converged && asp.converged);
    assert!(
        ar.updates < pr.updates,
        "AR {} !< P-Reduce {}",
        ar.updates,
        pr.updates
    );
    assert!(
        pr.updates < asp.updates,
        "P-Reduce {} !< ASP {}",
        pr.updates,
        asp.updates
    );
}
