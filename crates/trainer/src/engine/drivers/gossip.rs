//! Decentralized gossip strategies: AD-PSGD (asynchronous, the paper's
//! closest decentralized baseline) and D-PSGD (synchronous ring,
//! extension). The threaded projections run AD-PSGD's random pairing
//! through the partial-reduce controller (a pairwise reduce *is* a
//! P-Reduce with P=2) and D-PSGD over a neighbor ring exchange.

use partial_reduce::runtime::{spawn, RuntimeOptions};
use partial_reduce::ControllerConfig;
use preduce_comm::collectives::{barrier, ring_exchange, TAG_STRIDE};
use preduce_comm::CommWorld;
use preduce_simnet::{EventQueue, SimTime};
use preduce_tensor::Tensor;
use rand::Rng;

use crate::engine::setup::build_fleet;
use crate::engine::substrate::{must, ThreadedReport, ThreadedSubstrate};
use crate::metrics::RunResult;
use crate::sim::SimHarness;

/// AD-PSGD: each worker computes a gradient, then *atomically averages its
/// model with one uniformly-random peer* (regardless of that peer's state),
/// then applies the gradient. The averaged-in peer keeps computing — its
/// in-flight gradient was taken at the pre-average model and lands on the
/// post-average one. That inconsistency is exactly the model-quality issue
/// the paper contrasts P-Reduce against (§5.2.2).
pub fn run_ad_psgd(mut h: SimHarness) -> RunResult {
    let n = h.num_workers();
    assert!(n >= 2, "gossip needs at least two workers");
    let base_comm = h.network.gossip_pair_time(h.bytes);

    // Event payload: worker whose compute finished. The gradient is taken
    // when compute *starts* (pre-averaging model) to reproduce AD-PSGD's
    // inconsistency window.
    let mut queue: EventQueue<usize> = EventQueue::new();
    let mut in_flight: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
    let mut started = vec![SimTime::ZERO; n];
    // AD-PSGD's model averaging is *atomic per worker*: concurrent
    // averaging operations touching the same worker serialize (the
    // algorithm's correctness requires it; [29] §4, and the contention is
    // exactly what Prague [31] later attacks). `comm_free[w]` is when
    // worker w's communication lane is next available.
    let mut comm_free = vec![SimTime::ZERO; n];

    #[allow(
        clippy::needless_range_loop,
        reason = "h.workers and in_flight are indexed in lockstep; an iterator would fight the split borrows"
    )]
    for w in 0..n {
        let g = h.workers[w].gradient(&mut h.rng);
        in_flight[w] = Some(g);
        let ct = h.compute_time(w, SimTime::ZERO);
        queue.schedule(SimTime::new(ct), w);
    }

    let mut now = SimTime::ZERO;
    while let Some((t, w)) = queue.pop() {
        // Atomic pairwise model average with a random peer.
        let peer = {
            let r = h.rng.gen_range(0..n - 1);
            if r >= w {
                r + 1
            } else {
                r
            }
        };
        let comm = base_comm * h.link_factor([w, peer]);
        let start = t.max(comm_free[w]).max(comm_free[peer]);
        now = start + comm;
        comm_free[w] = now;
        comm_free[peer] = now;
        let mut avg = h.workers[w].params.clone();
        avg.add_assign(&h.workers[peer].params);
        avg.scale(0.5);
        h.workers[w].set_params(&avg);
        h.workers[peer].set_params(&avg);

        // Apply the (possibly inconsistent) gradient taken at compute
        // start.
        #[allow(
            clippy::expect_used,
            reason = "sim-only invariant: every scheduled event stored its gradient at compute start; a violation is a harness bug worth a loud stop"
        )]
        let grad = in_flight[w].take().expect("scheduled with gradient");
        h.workers[w].apply(&grad, 1.0);
        h.workers[w].iteration += 1;

        let dur = now - started[w];
        if h.record_update(now, dur) {
            break;
        }

        // Start the next iteration.
        started[w] = now;
        let g = h.workers[w].gradient(&mut h.rng);
        in_flight[w] = Some(g);
        let ct = h.compute_time(w, now);
        queue.schedule(now + ct, w);
    }
    h.finish("AD-PSGD".into(), now)
}

/// D-PSGD: synchronous decentralized SGD on a ring. Every round, each
/// worker averages its model with its two ring neighbors (weights 1/3)
/// and applies its own local gradient. One round = one update (same
/// counting as All-Reduce).
pub fn run_d_psgd(mut h: SimHarness) -> RunResult {
    let n = h.num_workers();
    assert!(n >= 3, "ring gossip needs at least three workers");
    // Each worker exchanges full models with two neighbors, concurrently:
    // cost ≈ two pairwise transfers; the ring is gated by its slowest link.
    let comm = 2.0 * h.network.gossip_pair_time(h.bytes) * h.link_factor(0..h.num_workers());
    let mut now = SimTime::ZERO;
    loop {
        let compute: Vec<f64> = (0..n).map(|w| h.compute_time(w, now)).collect();
        let round_compute = compute.iter().cloned().fold(0.0f64, f64::max);

        // Gradients at current local models.
        let grads: Vec<Tensor> = (0..n).map(|w| h.workers[w].gradient(&mut h.rng)).collect();

        // Ring mixing: x_i ← (x_{i−1} + x_i + x_{i+1}) / 3.
        let olds: Vec<Tensor> = h.workers.iter().map(|w| w.params.clone()).collect();
        for i in 0..n {
            let mut mixed = olds[i].clone();
            mixed.add_assign(&olds[(i + 1) % n]);
            mixed.add_assign(&olds[(i + n - 1) % n]);
            mixed.scale(1.0 / 3.0);
            h.workers[i].set_params(&mixed);
            h.workers[i].apply(&grads[i], 1.0);
            h.workers[i].iteration += 1;
        }

        let dur = round_compute + comm;
        now += dur;
        if h.record_update(now, dur) {
            break;
        }
    }
    h.finish("D-PSGD".into(), now)
}

// ---------------------------------------------------------------------------
// Threaded projections
// ---------------------------------------------------------------------------

/// Threaded AD-PSGD: each worker computes a gradient at its current model,
/// atomically averages its model with one peer (the controller pairs the
/// first two ready workers — a pairwise reduce is a partial reduce with
/// P=2), then applies the gradient onto the *averaged* model. The
/// pre-average gradient landing post-average reproduces AD-PSGD's
/// inconsistency window on real threads.
pub(crate) fn threaded_ad_psgd(sub: &ThreadedSubstrate) -> ThreadedReport {
    let config = sub.config();
    let n = config.num_workers;
    assert!(n >= 2, "gossip needs at least two workers");
    let fleet = build_fleet(config);
    // Gossip coordinator: pairwise groups, constant 1/2 weights,
    // first-come pairing.
    let (handle, reducers) = spawn(
        ControllerConfig::constant(n, 2),
        RuntimeOptions {
            sink: sub.sink(),
            ..RuntimeOptions::default()
        },
    );

    let report = sub.run_spmd(fleet, reducers, |mut ctx, mut w, mut r| {
        for _ in 0..ctx.iters {
            ctx.straggle();
            let grad = w.gradient(&mut ctx.rng);
            // Gossip keeps the *local* iteration count: ignore the
            // controller's fast-forwarded value.
            let reduced = r.reduce(w.params.as_mut_slice(), w.iteration + 1);
            let _ = must("pairwise reduce", reduced);
            w.apply(&grad, 1.0);
            w.iteration += 1;
        }
        must("finish", r.finish());
        (w.params, w.iteration)
    });
    ThreadedReport {
        controller: Some(handle.join()),
        ..report
    }
}

/// Threaded D-PSGD: every round, each worker swaps full models with its
/// two ring neighbors via [`ring_exchange`], mixes with weights 1/3, and
/// applies its own gradient — the same math as the virtual-time
/// projection, synchronized by a barrier per round.
pub(crate) fn threaded_d_psgd(sub: &ThreadedSubstrate) -> ThreadedReport {
    let config = sub.config();
    let n = config.num_workers;
    assert!(n >= 3, "ring gossip needs at least three workers");
    let fleet = build_fleet(config);
    let endpoints = CommWorld::new(n).into_endpoints();
    let all: Vec<usize> = (0..n).collect();

    sub.run_spmd(fleet, endpoints, move |mut ctx, mut w, mut ep| {
        for k in 0..ctx.iters {
            ctx.straggle();
            let grad = w.gradient(&mut ctx.rng);
            let own = w.params.clone().into_vec();
            let (left, right) = must(
                "ring exchange",
                ring_exchange(&mut ep, &all, (2 * k) * TAG_STRIDE, &own),
            );
            let mixed: Vec<f32> = own
                .iter()
                .zip(&left)
                .zip(&right)
                .map(|((o, l), r)| (o + l + r) / 3.0)
                .collect();
            let mixed = must("rebuild params", Tensor::from_vec(mixed, [w.params.len()]));
            w.set_params(&mixed);
            w.apply(&grad, 1.0);
            w.iteration += 1;
            must(
                "round barrier",
                barrier(&mut ep, &all, (2 * k + 1) * TAG_STRIDE),
            );
        }
        (w.params, w.iteration)
    })
}
