//! Invariants of the virtual-time strategy drivers.

use preduce_data::cifar10_like;
use preduce_models::zoo;
use preduce_trainer::{run_experiment, ExperimentConfig, HeteroSpec, Strategy};

fn base(n: usize) -> ExperimentConfig {
    let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
    c.num_workers = n;
    c.threshold = 0.999; // fixed-length runs
    c.max_updates = 300;
    c.eval_every = 100;
    c
}

#[test]
fn run_time_monotone_in_heterogeneity_for_barrier_methods() {
    // Fixed update budget: HL=1 < HL=2 < HL=4 in run time for All-Reduce.
    let mut times = Vec::new();
    for hl in [1usize, 2, 4] {
        let mut c = base(8);
        c.hetero = if hl == 1 {
            HeteroSpec::Uniform
        } else {
            HeteroSpec::GpuSharing { hl }
        };
        times.push(run_experiment(Strategy::AllReduce, &c).run_time);
    }
    assert!(times[0] < times[1] && times[1] < times[2], "{times:?}");
}

#[test]
fn preduce_trace_times_are_monotone() {
    let c = base(6);
    let r = run_experiment(
        Strategy::PReduce {
            p: 3,
            dynamic: true,
        },
        &c,
    );
    let mut prev = 0.0;
    for p in &r.trace {
        assert!(p.time >= prev, "trace time went backwards");
        prev = p.time;
    }
    assert!(r.per_update_samples.iter().all(|&d| d >= 0.0));
}

#[test]
fn overlap_shrinks_allreduce_time_only_by_comm_share() {
    // vgg16 at N=8 is communication-heavy: full overlap should cut AR's
    // fixed-budget run time noticeably, but never below pure compute.
    let mut c = base(8);
    c.model = zoo::vgg16();
    let plain = run_experiment(Strategy::AllReduce, &c);
    c.overlap_fraction = 1.0;
    let overlapped = run_experiment(Strategy::AllReduce, &c);
    assert!(
        overlapped.run_time < plain.run_time,
        "overlap did nothing: {:.1} vs {:.1}",
        overlapped.run_time,
        plain.run_time
    );
    // Lower bound: the compute term alone (budget × max-compute) must
    // remain; overlap can't make rounds free.
    assert!(overlapped.run_time > 0.3 * plain.run_time);
}

#[test]
fn label_noise_lowers_plateau_but_not_below_chance() {
    let mut clean = base(4);
    clean.max_updates = 400;
    clean.eval_every = 400;
    let mut noisy = clean.clone();
    noisy.label_noise = 0.3;
    let r_clean = run_experiment(Strategy::AllReduce, &clean);
    let r_noisy = run_experiment(Strategy::AllReduce, &noisy);
    assert!(
        r_noisy.final_accuracy < r_clean.final_accuracy,
        "label noise should cost accuracy: {} vs {}",
        r_noisy.final_accuracy,
        r_clean.final_accuracy
    );
    assert!(r_noisy.final_accuracy > 0.15, "collapsed to chance");
}

#[test]
fn preduce_stats_are_consistent() {
    let c = base(6);
    let r = run_experiment(
        Strategy::PReduce {
            p: 2,
            dynamic: true,
        },
        &c,
    );
    let groups = r.stats["groups"];
    assert!(groups >= r.updates as f64, "stats under-count groups");
    assert!(r.stats["nonuniform_groups"] <= groups);
    assert!(r.stats.contains_key("repairs"));
    assert!(r.stats.contains_key("deferrals"));
}

#[test]
fn link_heterogeneity_hurts_allreduce_more_than_preduce() {
    // Intro Case 1: two workers behind a 10x-slower link. The global ring
    // always pays it; most partial-reduce groups dodge it.
    let mut c = base(8);
    c.model = zoo::vgg19();
    let mut slow = c.clone();
    slow.link_slowdown = Some(vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 10.0, 10.0]);

    let ar_fast = run_experiment(Strategy::AllReduce, &c);
    let ar_slow = run_experiment(Strategy::AllReduce, &slow);
    let pr_fast = run_experiment(
        Strategy::PReduce {
            p: 3,
            dynamic: false,
        },
        &c,
    );
    let pr_slow = run_experiment(
        Strategy::PReduce {
            p: 3,
            dynamic: false,
        },
        &slow,
    );

    let ar_ratio = ar_slow.run_time / ar_fast.run_time;
    let pr_ratio = pr_slow.run_time / pr_fast.run_time;
    assert!(ar_ratio > 2.0, "slow link should hurt AR: {ar_ratio:.2}");
    assert!(
        pr_ratio < ar_ratio,
        "P-Reduce should dodge the slow link: {pr_ratio:.2} vs {ar_ratio:.2}"
    );
}

#[test]
fn link_slowdown_validation() {
    let mut c = base(4);
    c.link_slowdown = Some(vec![1.0, 2.0]); // wrong length
    let r = std::panic::catch_unwind(|| c.validate());
    assert!(r.is_err());
}
