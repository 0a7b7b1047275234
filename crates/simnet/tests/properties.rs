//! Property-based tests for the discrete-event simulator.

use preduce_simnet::{
    EventQueue, GpuSharingFleet, HeterogeneityModel, Jitter, MarkovFleet, NetworkModel, SimTime,
    SpeedFleet, UniformFleet,
};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #[test]
    fn event_queue_pops_in_nondecreasing_time(
        times in prop::collection::vec(0.0f64..1e6, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::new(t), i);
        }
        let mut prev = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= prev, "time went backwards");
            prev = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn event_queue_equal_times_fifo(
        n in 1usize..100,
        t in 0.0f64..100.0,
    ) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::new(t), i);
        }
        let order: Vec<usize> =
            std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn compute_times_always_positive_and_finite(
        seed in any::<u64>(),
        kind in 0u8..4,
        flops in 1e6f64..1e12,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let jitter = Jitter::LogNormal { sigma: 0.4 };
        let mut fleet: Box<dyn HeterogeneityModel> = match kind {
            0 => Box::new(UniformFleet::new(4, 1e9, jitter)),
            1 => Box::new(GpuSharingFleet::new(4, 3, 1e9, jitter)),
            2 => Box::new(SpeedFleet::new(
                vec![1.0, 2.0, 0.5, 7.0],
                1e9,
                jitter,
            )),
            _ => Box::new(MarkovFleet::new(4, 1e9, 0.2, 0.3, 6.0, jitter)),
        };
        for w in 0..4 {
            for _ in 0..10 {
                let t = fleet.compute_time(w, flops, SimTime::ZERO, &mut rng);
                prop_assert!(t.is_finite() && t > 0.0, "t = {t}");
            }
        }
    }

    #[test]
    fn ring_cost_monotone_in_bytes_and_bounded(
        p in 2usize..16,
        kb in 1u64..100_000,
    ) {
        let net = NetworkModel::ten_gbe();
        let bytes = kb * 1024;
        let t1 = net.ring_allreduce_time(p, bytes);
        let t2 = net.ring_allreduce_time(p, bytes * 2);
        prop_assert!(t2 > t1);
        // Lower bound: the pure bandwidth term 2(p−1)/p · bytes/BW.
        let bw_term = 2.0 * (p as f64 - 1.0) / p as f64 * bytes as f64
            / net.bandwidth;
        prop_assert!(t1 >= bw_term);
    }

    #[test]
    fn gpu_sharing_slowdown_equals_residents(
        n in 2usize..12,
        hl in 2usize..6,
    ) {
        prop_assume!(hl <= n);
        let mut fleet = GpuSharingFleet::new(n, hl, 1e9, Jitter::None);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let shared = fleet.compute_time(0, 1e9, SimTime::ZERO, &mut rng);
        prop_assert!((shared - hl as f64).abs() < 1e-9);
        if hl < n {
            let solo =
                fleet.compute_time(n - 1, 1e9, SimTime::ZERO, &mut rng);
            prop_assert!((solo - 1.0).abs() < 1e-9);
        }
    }
}
