//! Decentralized gossip under virtual time: AD-PSGD, the paper's closest
//! decentralized baseline.

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
    let mut in_flight: Vec<Tensor> = Vec::with_capacity(n);
    let mut started = vec![SimTime::ZERO; n];
    // AD-PSGD's model averaging is *atomic per worker*: concurrent
    // averaging operations touching the same worker serialize (the
    // algorithm's correctness requires it; [29] §4, and the contention is
    // exactly what Prague [31] later attacks). `comm_free[w]` is when
    // worker w's communication lane is next available.
    let mut comm_free = vec![SimTime::ZERO; n];

    for w in 0..n {
        in_flight.push(h.with_worker(w, WorkerState::gradient));
        let ct = h.compute_time(w, SimTime::ZERO);
        queue.schedule(SimTime::new(ct), w);
    }

    let mut now = SimTime::ZERO;
    while let Some((t, w)) = queue.pop() {
        // Atomic pairwise model average with a random peer (any worker but w).
        let r = h.rng.gen_range(0..n - 1);
        let peer = r + usize::from(r >= w);
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
        h.workers[w].apply(&in_flight[w], 1.0);
        h.workers[w].iteration += 1;

        let dur = now - started[w];
        if h.record_update(now, dur) {
            break;
        }

        // Start the next iteration.
        started[w] = now;
        in_flight[w] = h.with_worker(w, WorkerState::gradient);
        let ct = h.compute_time(w, now);
        queue.schedule(now + ct, w);
    }
    h.finish("AD-PSGD".into(), now)
}
