//! Cross-crate schedule properties: group formation under simulated
//! heterogeneity, sync-graph connectivity, spectral behaviour, and the
//! theory's qualitative predictions.

use preduce::partial_reduce::{
    expected_sync_matrix, min_history_window, spectral_gap, ControllerConfig, SyncGraph,
};
use preduce::simnet::{HeterogeneityModel, Jitter, SpeedFleet, UniformFleet};
use preduce::trainer::sample_groups;

/// Drives the FIFO controller on a fleet, returning the observed groups
/// and the repair count.
fn observe(
    fleet: Box<dyn HeterogeneityModel>,
    p: usize,
    rounds: usize,
    frozen_avoidance: bool,
    seed: u64,
) -> (Vec<Vec<usize>>, u64) {
    let config = ControllerConfig {
        frozen_avoidance,
        ..ControllerConfig::constant(fleet.num_workers(), p)
    };
    sample_groups(fleet, config, rounds, seed)
}

#[test]
fn homogeneous_schedule_rho_matches_fig4a() {
    // N=3, P=2, jittered homogeneous fleet: the empirical E[W] should give
    // ρ ≈ 0.5 (the paper's closed-form homogeneous value).
    let fleet = Box::new(UniformFleet::new(3, 1e9, Jitter::LogNormal { sigma: 0.25 }));
    let (groups, _) = observe(fleet, 2, 30_000, true, 3);
    let e_w = expected_sync_matrix(3, &groups);
    let r = spectral_gap(&e_w).expect("symmetric");
    assert!((r.rho - 0.5).abs() < 0.03, "rho = {}", r.rho);
}

#[test]
fn slower_worker_raises_rho() {
    // Fig. 4(b): making one worker 2× slower pushes ρ above the
    // homogeneous 0.5 (the paper's illustration gives 0.625).
    let jitter = Jitter::LogNormal { sigma: 0.2 };
    let homo = Box::new(UniformFleet::new(3, 1e9, jitter));
    let (g1, _) = observe(homo, 2, 30_000, true, 5);
    let rho_homo = spectral_gap(&expected_sync_matrix(3, &g1))
        .expect("symmetric")
        .rho;

    let hetero = Box::new(SpeedFleet::new(vec![1.0, 1.0, 2.0], 1e9, jitter));
    let (g2, _) = observe(hetero, 2, 30_000, true, 5);
    let rho_hetero = spectral_gap(&expected_sync_matrix(3, &g2))
        .expect("symmetric")
        .rho;

    assert!(
        rho_hetero > rho_homo + 0.05,
        "hetero {rho_hetero:.3} !> homo {rho_homo:.3}"
    );
    assert!(
        (rho_hetero - 0.625).abs() < 0.08,
        "expected near the paper's 0.625, got {rho_hetero:.3}"
    );
}

#[test]
fn frozen_avoidance_keeps_cumulative_graph_connected() {
    // Deterministic two-speed-class fleet with no jitter: FIFO pairing
    // freezes into fixed pairs. With the filter on, repairs happen and the
    // recent-window sync-graph keeps reconnecting.
    let fleet = || Box::new(SpeedFleet::new(vec![1.0, 1.0, 1.7, 1.7], 1e9, Jitter::None));
    let (groups_off, repairs_off) = observe(fleet(), 2, 2_000, false, 0);
    let (groups_on, repairs_on) = observe(fleet(), 2, 2_000, true, 0);

    assert_eq!(repairs_off, 0);
    assert!(repairs_on > 0, "filter never intervened");

    // Without the filter the last 500 groups connect nothing across the
    // speed classes; with it, cross-class groups appear regularly.
    let cross = |groups: &[Vec<usize>]| {
        groups[1500..]
            .iter()
            .filter(|g| g.iter().any(|&w| w < 2) && g.iter().any(|&w| w >= 2))
            .count()
    };
    let off = cross(&groups_off);
    let on = cross(&groups_on);
    assert_eq!(off, 0, "expected frozen pairs without the filter");
    assert!(on > 10, "filter produced only {on} cross-class groups");

    // And the with-filter graph over any window of size ≥ T is connected
    // most of the time; check the final window.
    let t_min = min_history_window(4, 2);
    let mut g = SyncGraph::new(4);
    for group in &groups_on[groups_on.len() - 4 * t_min..] {
        g.add_group(group);
    }
    assert!(g.is_connected(), "final window disconnected with filter on");
}

#[test]
fn faster_workers_join_more_groups() {
    // Group membership frequency should track worker speed: a 2×-slower
    // worker appears in roughly half as many groups.
    let fleet = Box::new(SpeedFleet::new(
        vec![1.0, 1.0, 1.0, 2.0],
        1e9,
        Jitter::LogNormal { sigma: 0.1 },
    ));
    let (groups, _) = observe(fleet, 2, 20_000, true, 9);
    let mut counts = [0usize; 4];
    for g in &groups {
        for &w in g {
            counts[w] += 1;
        }
    }
    // The ratio undershoots the raw 2× speed gap because fast workers
    // also spend time queued waiting for partners — membership tracks
    // speed, damped by the pairing constraint.
    let fast_avg = (counts[0] + counts[1] + counts[2]) as f64 / 3.0;
    let ratio = fast_avg / counts[3] as f64;
    assert!(
        (1.25..2.2).contains(&ratio),
        "fast/slow membership ratio {ratio:.2}, counts {counts:?}"
    );
}

#[test]
fn all_groups_have_exactly_p_distinct_members() {
    let fleet = Box::new(SpeedFleet::new(
        vec![1.0, 1.3, 0.7, 2.0, 1.0, 1.1],
        1e9,
        Jitter::LogNormal { sigma: 0.3 },
    ));
    let (groups, _) = observe(fleet, 3, 5_000, true, 11);
    for g in &groups {
        assert_eq!(g.len(), 3);
        let mut s = g.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 3, "duplicate member in {g:?}");
        assert!(s.iter().all(|&w| w < 6));
    }
}
