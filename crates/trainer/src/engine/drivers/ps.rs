//! Asynchronous parameter-server strategies: ASP and the
//! heterogeneity-aware HETE.
//!
//! A single logical server (sharded across the fleet for cost purposes)
//! holds the global model. Each worker loops independently: pull → compute
//! gradient → push. Staleness arises naturally: between a worker's pull and
//! its push, other workers' pushes move the server model.

use preduce_simnet::{EventQueue, SimTime};

use crate::metrics::RunResult;
use crate::sim::SimHarness;

/// Fully-asynchronous parameter server (ASP): every push applies at
/// learning-rate scale 1.
pub fn run_ps_asp(h: SimHarness) -> RunResult {
    run_ps(h, "PS ASP", |_| 1.0)
}

/// Heterogeneity-aware parameter server (HETE, the paper's \[20\]): a
/// push's learning rate is scaled by `1/staleness` (DynSGD's
/// staleness-adaptive rate).
pub fn run_ps_hete(h: SimHarness) -> RunResult {
    run_ps(h, "PS HETE", |staleness| 1.0 / staleness as f32)
}

/// The PS loop; a push of the given staleness applies at `lr_scale(staleness)`.
fn run_ps(mut h: SimHarness, label: &str, lr_scale: fn(u64) -> f32) -> RunResult {
    let n = h.num_workers();
    let base_comm = h.network.ps_push_pull_time(n, h.bytes);
    // Each worker's round trip runs over its own link.
    let comm_of: Vec<f64> = (0..n).map(|w| base_comm * h.link_slowdown[w]).collect();

    // The server: the global model plus one momentum-free optimizer.
    h.open_server();

    // Per-worker bookkeeping.
    let mut push_count = 0u64; // global pushes (server version)
    let mut version_at_pull = vec![0u64; n];

    // Workers start by pulling the initial model (free at t=0) and
    // computing.
    let mut queue: EventQueue<usize> = EventQueue::new();
    let mut started = vec![SimTime::ZERO; n];
    for w in 0..n {
        let ct = h.compute_time(w, SimTime::ZERO);
        queue.schedule(SimTime::new(ct), w);
    }

    let mut now = SimTime::ZERO;
    while let Some((t, w)) = queue.pop() {
        now = t;
        // Gradient at the worker's pulled view.
        h.start_gradient(w);

        // Push arrives after the round trip; the update applies then, and
        // the worker pulls the fresh model.
        let done = now + comm_of[w];
        let staleness = push_count - version_at_pull[w] + 1;
        h.push_pull(w, lr_scale(staleness));
        push_count += 1;
        version_at_pull[w] = push_count;

        let dur = done - started[w];
        if h.record_update(done, dur) {
            now = done;
            break;
        }

        started[w] = done;
        let ct = h.compute_time(w, done);
        queue.schedule(done + ct, w);
    }
    h.finish(label.into(), now, Default::default())
}
