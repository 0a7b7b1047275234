//! Scale-campaign integration tests: fleet sizes far beyond the training
//! simulations, with a *hard* peak-memory budget.
//!
//! [`CountingAlloc`] is installed as the process's global allocator, so
//! `peak_bytes()` is the real high-water mark of everything the harness
//! allocated — controller queues, the windowed connectivity structure,
//! the streaming checker, the event queue, the ρ reservoir. The budgets
//! below are the enforcement of DESIGN.md §15's bounded-memory claims.
//! Each is about 4× the peak the test prints on the reference box
//! (`--nocapture`; 0.33 MiB at N = 1 000, 1.66 MiB at N = 10⁴, 0.72 MiB
//! for the N = 4 000 Markov run): wide enough for allocator and seed
//! noise, tight enough that an O(N·P) side table — PR 10's 12 MiB
//! edge-multiplicity map — or a re-grown O(events) buffer fails here
//! before any reviewer has to notice. The allocator is process-wide, so
//! the tests take [`SERIAL`] and run one at a time whatever the harness's
//! thread count; CI passes `--test-threads=1` as well.
//!
//! The N = 10⁴ / million-signal run only makes sense optimized, so it is
//! gated on release mode; CI runs it via the `scale-smoke` job with
//! `--release`. Debug builds still cover the N = 1 000 run, under the
//! same budget, so `cargo test` exercises the same path.

use std::sync::Mutex;

use partial_reduce::graph::ConnectivityStats;
use preduce_tensor::CountingAlloc;
use preduce_trainer::{run_scale, ScaleConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Held by every test for its whole run: a concurrent test's allocations
/// would count against the holder's budget.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs one config and asserts the invariant-checker verdict plus the
/// peak-allocation budget (in bytes, measured from the run's start).
fn run_within_budget(cfg: &ScaleConfig, budget_bytes: usize) {
    let _alone = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    ALLOC.reset_peak();
    let report = run_scale(cfg);
    let peak = ALLOC.peak_bytes();
    println!(
        "N={} P={} {} signals `{}`: peak {peak} B of a {budget_bytes} B budget",
        cfg.num_workers, cfg.group_size, cfg.signals, cfg.hetero
    );
    assert_eq!(
        report.checker_violations, 0,
        "streaming checker found violations at N={}",
        cfg.num_workers
    );
    assert!(
        report.groups > 0,
        "no groups formed at N={}",
        cfg.num_workers
    );
    assert_eq!(report.signals, cfg.signals, "run stopped early");
    assert!(
        peak < budget_bytes,
        "peak allocation {peak} B exceeds the {budget_bytes} B budget \
         for N={} / {} signals",
        cfg.num_workers,
        cfg.signals
    );
}

#[test]
fn n1k_fleet_stays_in_budget() {
    let mut cfg = ScaleConfig::new(1_000, 8, 50_000, "uniform");
    cfg.rho_iters = 50;
    // A buffered 50k-event trace alone would be ~10 MiB.
    run_within_budget(&cfg, 1_400 << 10);
}

#[test]
fn n1k_gpu_sharing_dynamic_weights_spread() {
    let mut cfg = ScaleConfig::new(1_000, 8, 30_000, "gpu-sharing");
    cfg.rho_iters = 50;
    let _alone = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let report = run_scale(&cfg);
    assert_eq!(report.checker_violations, 0);
    assert!(
        report.weight_spread_max > 0.0,
        "Eq. 9 weights did not spread under a heterogeneous fleet"
    );
}

/// The harness's decisions at one seed: every question the group filter
/// and the checker's replica ask the windowed connectivity has one right
/// answer, the DFS's, so no change to how the structure keeps its forest
/// may move a count. `preduce scale --workers 400 --p 8 --signals 4000`
/// prints the same numbers.
#[test]
fn n400_decisions_are_pinned() {
    let _alone = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (preset, groups, repairs, deferrals) in
        [("uniform", 500, 19, 43), ("gpu-sharing", 463, 388, 3_470)]
    {
        let report = run_scale(&ScaleConfig::new(400, 8, 4_000, preset));
        assert_eq!(
            (
                report.signals,
                report.groups,
                report.repairs,
                report.deferrals
            ),
            (4_000, groups, repairs, deferrals),
            "`{preset}`: (signals, groups, repairs, deferrals)"
        );
        assert_eq!(report.checker_violations, 0, "`{preset}`");
    }
}

/// The benchmark's `scale-gpushare` run (N = 4 000, P = 8, 75 000
/// signals at seed 2 667 084 199, what the benchmark derives from its
/// seed 1): nine groups in ten are repairs over a queue of some 2 650
/// signals. Its decisions and both `union-find` lines are pinned —
/// merges, window reloads and membership answers of the filter and of
/// the checker's replica, as they stood before the filter counted its
/// queue's components — plus the label reads each makes.
/// `preduce scale --workers 4000 --p 8 --signals 75000 --hetero
/// gpu-sharing --seed 2667084199` prints the same numbers.
#[test]
fn n4k_gpu_sharing_decisions_and_connectivity_are_pinned() {
    let _alone = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = ScaleConfig::new(4_000, 8, 75_000, "gpu-sharing");
    cfg.seed = 2_667_084_199;
    cfg.rho_iters = 1;
    let report = run_scale(&cfg);
    assert_eq!(
        (
            report.signals,
            report.groups,
            report.repairs,
            report.deferrals
        ),
        (75_000, 9_020, 8_324, 70_417),
        "(signals, groups, repairs, deferrals)"
    );
    let line = |c: ConnectivityStats| (c.merges, c.rebuilds, c.membership_answers, c.label_reads);
    assert_eq!(
        line(report.connectivity),
        (249_771, 1, 75_105, 6_011_699),
        "group filter"
    );
    assert_eq!(
        line(report.checker_connectivity),
        (260_668, 1, 2_338, 44_228),
        "checker's replica"
    );
    assert_eq!(report.checker_violations, 0);
}

/// The headline run: N = 10⁴ workers, one million ready signals, all
/// trace events checked in-flight, under a hard 7 MiB peak budget.
///
/// Release-only: a debug build spends minutes here for no extra coverage.
#[cfg(not(debug_assertions))]
#[test]
fn n10k_million_signals_stays_in_budget() {
    let mut cfg = ScaleConfig::new(10_000, 16, 1_000_000, "uniform");
    cfg.rho_iters = 30;
    run_within_budget(&cfg, 7 << 20);
}

/// Same scale under the hardest preset (Markov bursts force deferrals
/// and repairs, so about half the groups query a freshly caught-up
/// window).
#[cfg(not(debug_assertions))]
#[test]
fn n4k_markov_fleet_checks_clean() {
    let mut cfg = ScaleConfig::new(4_000, 8, 400_000, "markov");
    cfg.rho_iters = 30;
    run_within_budget(&cfg, 3 << 20);
}
