//! Cross-crate integration tests of the threaded prototype: the
//! partial-reduce primitive over real threads, checked against
//! hand-computed aggregation results and against the simulator's
//! semantics.

use preduce::comm::collectives::TAG_STRIDE;
use preduce::comm::mesh::GroupAverager;
use preduce::comm::CommWorld;
use preduce::data::cifar10_like;
use preduce::models::zoo;
use preduce::partial_reduce::runtime::{spawn, RuntimeOptions};
use preduce::partial_reduce::{
    dynamic_weights, AggregationMode, ControllerConfig, GapPolicy, NullSink,
};
use preduce::trainer::engine::{self, Backend, EngineRun};
use preduce::trainer::{ExperimentConfig, Strategy};
use std::sync::Arc;
use std::thread;

fn small_config(n: usize) -> ExperimentConfig {
    let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
    c.num_workers = n;
    c.sgd.lr = 0.05;
    c
}

/// Runs `strategy` on real threads, `iters` local updates per worker.
fn threaded(strategy: Strategy, config: &ExperimentConfig, iters: u64) -> EngineRun {
    let mut c = config.clone();
    c.threaded_iters = Some(iters);
    engine::run(strategy, &c, Backend::Threaded, Arc::new(NullSink))
}

const CON_P2: Strategy = Strategy::PReduce {
    p: 2,
    dynamic: false,
};

#[test]
fn full_group_preduce_matches_hand_average() {
    // P = N = 2 with constant weights: after one reduce, both workers hold
    // exactly the mean of their pre-reduce vectors.
    let (handle, mut reducers) = spawn(ControllerConfig::constant(2, 2), RuntimeOptions::default());
    let r1 = reducers.pop().unwrap();
    let r0 = reducers.pop().unwrap();

    let t0 = thread::spawn(move || {
        let mut r = r0;
        let mut params = vec![2.0f32, 4.0, 6.0];
        r.reduce(&mut params, 1).unwrap();
        r.finish().unwrap();
        params
    });
    let t1 = thread::spawn(move || {
        let mut r = r1;
        let mut params = vec![4.0f32, 8.0, 10.0];
        r.reduce(&mut params, 1).unwrap();
        r.finish().unwrap();
        params
    });
    let p0 = t0.join().unwrap();
    let p1 = t1.join().unwrap();
    handle.join();
    assert_eq!(p0, vec![3.0, 6.0, 8.0]);
    assert_eq!(p0, p1);
}

#[test]
fn dynamic_weights_in_runtime_match_library_function() {
    // Two workers at iterations 7 and 3: the runtime's aggregation must
    // equal the weights `dynamic_weights` computes.
    let alpha = 0.4;
    let cfg = ControllerConfig {
        num_workers: 2,
        group_size: 2,
        mode: AggregationMode::Dynamic {
            alpha,
            gap_policy: GapPolicy::Initial,
        },
        history_window: None,
        frozen_avoidance: true,
    };
    let (handle, mut reducers) = spawn(cfg, RuntimeOptions::default());
    let r1 = reducers.pop().unwrap();
    let r0 = reducers.pop().unwrap();

    let t0 = thread::spawn(move || {
        let mut r = r0;
        let mut params = vec![10.0f32];
        let out = r.reduce(&mut params, 7).unwrap();
        r.finish().unwrap();
        (params, out.new_iteration)
    });
    let t1 = thread::spawn(move || {
        let mut r = r1;
        let mut params = vec![30.0f32];
        let out = r.reduce(&mut params, 3).unwrap();
        r.finish().unwrap();
        (params, out.new_iteration)
    });
    let (p0, k0) = t0.join().unwrap();
    let (p1, k1) = t1.join().unwrap();
    handle.join();

    let w = dynamic_weights(&[7, 3], alpha, GapPolicy::Initial);
    let expected = w[0] * 10.0 + w[1] * 30.0;
    assert!((p0[0] - expected).abs() < 1e-4, "{} vs {expected}", p0[0]);
    assert_eq!(p0, p1);
    // Both fast-forward to the group max.
    assert_eq!(k0, 7);
    assert_eq!(k1, 7);
}

#[test]
fn threaded_preduce_accuracy_tracks_allreduce() {
    // Same workload, same local-update budget: the threaded P-Reduce run
    // should land in the same accuracy neighbourhood as All-Reduce. The
    // reference runs on the simulator, where one All-Reduce round is one
    // recorded update and every worker applies it: a cap of `iters`
    // updates under an unreachable threshold is `iters` updates per
    // worker, evaluated once at the cap.
    let c = small_config(4);
    let iters = 120;
    let mut sim = c.clone();
    sim.threshold = 1.0;
    sim.max_updates = iters;
    sim.eval_every = iters;
    let ar = engine::run(Strategy::AllReduce, &sim, Backend::Sim, Arc::new(NullSink)).result;
    assert_eq!(ar.updates, iters);
    let ar = ar.final_accuracy;
    let pr = threaded(CON_P2, &c, iters).result.final_accuracy;
    assert!(ar > 0.45, "AR too weak: {ar}");
    assert!(pr > ar - 0.15, "P-Reduce {pr} lags AR {ar} by too much");
}

#[test]
fn concurrent_disjoint_groups_form_in_threaded_runtime() {
    // With P = 2 and 6 workers, multiple groups must be able to run
    // concurrently; total groups over the run reflects that (each worker
    // reduces `iters` times ⇒ iters*6/2 groups minus drain singletons).
    let c = small_config(6);
    let iters = 30u64;
    let stats = threaded(CON_P2, &c, iters).controller.expect("stats");
    let total = stats.groups_formed * 2 + stats.singletons;
    assert_eq!(total, iters * 6, "every local update joins one reduce");
}

#[test]
fn group_average_tags_do_not_collide_across_iterations() {
    // Regression guard for the tag-stride discipline: 50 rounds of pair
    // averages on the same endpoints, base tags one stride apart and no
    // barrier in between, so a fast pair's next-round chunks reach a peer
    // still inside the previous round. Even rounds pair {0,1}/{2,3}, odd
    // rounds {1,2}/{3,0}; every round starts from fresh values, so any
    // cross-talk shows as a wrong value.
    let n = 4;
    let rounds = 50u64;
    let pair = |k: u64, rank: usize| -> [usize; 2] {
        let pairs = if k.is_multiple_of(2) {
            [[0, 1], [2, 3]]
        } else {
            [[1, 2], [3, 0]]
        };
        pairs.into_iter().find(|g| g.contains(&rank)).unwrap()
    };
    let value = |rank: usize, k: u64, i: usize| ((rank + 1) as u64 * (k + 1)) as f32 + i as f32;
    let eps = CommWorld::new(n).into_endpoints();
    let handles: Vec<_> = eps
        .into_iter()
        .enumerate()
        .map(|(rank, mut ep)| {
            thread::spawn(move || {
                let mut results = Vec::new();
                for k in 0..rounds {
                    let mut data: Vec<f32> = (0..17).map(|i| value(rank, k, i)).collect();
                    ep.group_weighted_average(
                        &pair(k, rank),
                        k * TAG_STRIDE,
                        &mut data,
                        &[0.5, 0.5],
                    )
                    .unwrap();
                    results.push(data);
                }
                results
            })
        })
        .collect();
    let all: Vec<Vec<Vec<f32>>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (rank, results) in all.iter().enumerate() {
        for (k, data) in (0..rounds).zip(results) {
            let [a, b] = pair(k, rank);
            let expected: Vec<f32> = (0..17)
                .map(|i| (value(a, k, i) + value(b, k, i)) / 2.0)
                .collect();
            assert_eq!(data, &expected, "rank {rank}, round {k}");
        }
    }
}
