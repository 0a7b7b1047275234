//! Decentralized gossip strategies under virtual time: AD-PSGD
//! (asynchronous, the paper's closest decentralized baseline) and D-PSGD
//! (synchronous ring, extension).

use preduce_simnet::{EventQueue, SimTime};
use preduce_tensor::Tensor;
use rand::Rng;

use crate::metrics::RunResult;
use crate::sim::SimHarness;
use crate::worker::WorkerState;

/// AD-PSGD: each worker computes a gradient, then *atomically averages its
/// model with one uniformly-random peer* (regardless of that peer's state),
/// then applies the gradient. The averaged-in peer keeps computing — its
/// in-flight gradient was taken at the pre-average model and lands on the
/// post-average one. That inconsistency is exactly the model-quality issue
/// the paper contrasts P-Reduce against (§5.2.2).
pub fn run_ad_psgd(mut h: SimHarness) -> RunResult {
    let n = h.num_workers();
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

    for (w, slot) in in_flight.iter_mut().enumerate() {
        *slot = Some(h.with_worker(w, WorkerState::gradient));
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
        let g = h.with_worker(w, WorkerState::gradient);
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
    // Each worker exchanges full models with two neighbors, concurrently:
    // cost ≈ two pairwise transfers; the ring is gated by its slowest link.
    let comm = 2.0 * h.network.gossip_pair_time(h.bytes) * h.link_factor(0..h.num_workers());
    let mut now = SimTime::ZERO;
    loop {
        let compute: Vec<f64> = (0..n).map(|w| h.compute_time(w, now)).collect();
        let round_compute = compute.iter().cloned().fold(0.0f64, f64::max);

        // Gradients at current local models.
        let grads: Vec<Tensor> = (0..n)
            .map(|w| h.with_worker(w, WorkerState::gradient))
            .collect();

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
