//! Smoke tests for P-Reduce on the threaded substrate, the only strategy
//! it runs (the baselines are sim-only).
//!
//! These are behavioral checks, not trajectory goldens (real threads are
//! scheduled by the OS, so wall times and interleavings vary): every
//! worker must complete its iteration budget, the averaged model must
//! evaluate to a finite accuracy, the controller must actually form
//! groups, and no round may degrade. CI runs this file single-threaded per test
//! (`--test-threads=1`) so each run gets the whole machine.

use std::sync::Arc;

use partial_reduce::NullSink;
use preduce_data::cifar10_like;
use preduce_models::zoo;
use preduce_trainer::{engine, Backend, EngineRun, ExperimentConfig, Strategy};

fn cfg(n: usize, iters: u64) -> ExperimentConfig {
    let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
    c.num_workers = n;
    c.threaded_iters = Some(iters);
    c
}

fn run_threaded(s: Strategy, c: &ExperimentConfig) -> EngineRun {
    engine::run(s, c, Backend::Threaded, Arc::new(NullSink))
}

#[test]
fn preduce_forms_groups_and_terminates() {
    for dynamic in [false, true] {
        let run = run_threaded(Strategy::PReduce { p: 2, dynamic }, &cfg(4, 8));
        // A CON worker keeps its own count and ends at exactly its
        // budget; DYN fast-forwarding can lift it past, never below.
        let iterations = run.iterations.expect("threaded iterations");
        if dynamic {
            assert!(iterations.iter().all(|&i| i >= 8), "{iterations:?}");
        } else {
            assert!(iterations.iter().all(|&i| i == 8), "{iterations:?}");
        }
        let stats = run.controller.expect("p-reduce reports controller stats");
        assert!(stats.groups_formed > 0, "dynamic={dynamic}: no groups");
        // One update is one partial-reduce group, as on the simulator.
        assert_eq!(run.result.updates, stats.groups_formed, "dynamic={dynamic}");
        // A clean run degrades no round.
        let degraded = run.result.stats.get("degraded");
        assert_eq!(degraded, Some(&0.0), "dynamic={dynamic}");
        assert!(run.result.final_accuracy.is_finite());
    }
}

#[test]
fn full_lineup_runs_threaded() {
    // N = 8 so the lineup's P-Reduce (P=5) variants fit the fleet.
    let c = cfg(8, 3);
    let lineup = Strategy::table1_lineup(c.num_workers);
    for s in lineup
        .into_iter()
        .filter(|s| matches!(s, Strategy::PReduce { .. }))
    {
        let run = run_threaded(s, &c);
        assert_eq!(run.result.strategy, s.label());
        let stats = run.controller.expect("p-reduce reports controller stats");
        assert_eq!(run.result.updates, stats.groups_formed, "{}", s.label());
        let degraded = run.result.stats.get("degraded");
        assert_eq!(degraded, Some(&0.0), "{}", s.label());
        assert!(run.result.run_time > 0.0, "{}", s.label());
        assert!(
            run.result.final_accuracy.is_finite(),
            "{}: accuracy {}",
            s.label(),
            run.result.final_accuracy
        );
        assert!(run.result.trace.is_empty(), "{}", s.label());
    }
}
