//! Asynchronous parameter-server strategies: ASP, SSP, and the
//! heterogeneity-aware HETE.
//!
//! A single logical server (sharded across the fleet for cost purposes)
//! holds the global model. Each worker loops independently: pull → compute
//! gradient → push. Staleness arises naturally: between a worker's pull and
//! its push, other workers' pushes move the server model.

use preduce_models::SgdOptimizer;
use preduce_simnet::{EventQueue, SimTime};

use crate::metrics::RunResult;
use crate::sim::SimHarness;
use crate::worker::WorkerState;

/// The staleness policy distinguishing the three PS variants.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PsPolicy {
    /// Fully asynchronous (ASP): apply everything immediately, scale 1.
    Asp,
    /// Stale-synchronous (SSP): a worker may run at most `bound` iterations
    /// ahead of the slowest; violators block until the laggard catches up.
    Ssp { bound: u64 },
    /// Heterogeneity-aware [20]: scale the learning rate by `1/staleness`
    /// (DynSGD's staleness-adaptive rate).
    Hete,
}

impl PsPolicy {
    /// Learning-rate scale for a push with the given staleness.
    fn lr_scale(self, staleness: u64) -> f32 {
        match self {
            PsPolicy::Asp | PsPolicy::Ssp { .. } => 1.0,
            PsPolicy::Hete => 1.0 / staleness as f32,
        }
    }
}

/// Fully-asynchronous parameter server (ASP).
pub fn run_ps_asp(h: SimHarness) -> RunResult {
    run_ps(h, PsPolicy::Asp, "PS ASP".into())
}

/// Stale-synchronous parallel parameter server (SSP) with the given bound.
pub fn run_ps_ssp(h: SimHarness, bound: u64) -> RunResult {
    run_ps(h, PsPolicy::Ssp { bound }, format!("PS SSP (s={bound})"))
}

/// Heterogeneity-aware parameter server (HETE): staleness-scaled rates.
pub fn run_ps_hete(h: SimHarness) -> RunResult {
    run_ps(h, PsPolicy::Hete, "PS HETE".into())
}

fn run_ps(mut h: SimHarness, policy: PsPolicy, label: String) -> RunResult {
    let n = h.num_workers();
    let base_comm = h.network.ps_push_pull_time(n, h.bytes);
    // Each worker's round trip runs over its own link.
    let comm_of: Vec<f64> = (0..n).map(|w| base_comm * h.link_slowdown[w]).collect();

    // Server state: the global model plus one shared optimizer. The server
    // runs *momentum-free* SGD: with interleaved stale pushes a shared
    // momentum buffer mixes directions from different model versions and
    // destabilizes training — async PS systems (SSP, DynSGD) apply plain
    // SGD server-side.
    let mut server = h.workers[0].params.clone();
    let mut server_cfg = *h.workers[0].opt.config();
    server_cfg.momentum = 0.0;
    let mut server_opt = SgdOptimizer::new(server_cfg, server.len());

    // Per-worker bookkeeping.
    let mut push_count = 0u64; // global pushes (server version)
    let mut version_at_pull = vec![0u64; n];
    let mut iter_of = vec![0u64; n];
    let mut blocked: Vec<Option<(f64, SimTime)>> = vec![None; n]; // SSP

    // Workers start by pulling the initial model (free at t=0) and
    // computing.
    let mut queue: EventQueue<usize> = EventQueue::new();
    let mut started = vec![SimTime::ZERO; n];
    for w in 0..n {
        let ct = h.compute_time(w, SimTime::ZERO);
        queue.schedule(SimTime::new(ct), w);
    }

    let mut now = SimTime::ZERO;
    'outer: while let Some((t, w)) = queue.pop() {
        now = t;
        // Gradient at the worker's pulled view.
        let grad = h.with_worker(w, WorkerState::gradient);

        // Push arrives after the round trip; the update applies then.
        let done = now + comm_of[w];
        let staleness = push_count - version_at_pull[w] + 1;
        let scale = policy.lr_scale(staleness);
        server_opt.step_scaled(&mut server, &grad, scale);
        push_count += 1;
        iter_of[w] += 1;

        // Pull the fresh model.
        h.workers[w].set_params(&server);
        h.workers[w].iteration = iter_of[w];
        version_at_pull[w] = push_count;

        let dur = done - started[w];
        if h.record_update(done, dur) {
            now = done;
            break 'outer;
        }

        // SSP gate: block if this worker ran too far ahead.
        let min_iter = iter_of.iter().copied().min().unwrap_or(0);
        if let PsPolicy::Ssp { bound } = policy {
            if iter_of[w] > min_iter + bound {
                blocked[w] = Some((h.compute_time(w, done), done));
            } else {
                started[w] = done;
                let ct = h.compute_time(w, done);
                queue.schedule(done + ct, w);
            }
            // Release any blocked workers the new minimum unblocks.
            let min_iter = iter_of.iter().copied().min().unwrap_or(0);
            for b in 0..n {
                if let Some((ct, since)) = blocked[b] {
                    if iter_of[b] <= min_iter + bound {
                        blocked[b] = None;
                        let resume = done.max(since);
                        started[b] = resume;
                        queue.schedule(resume + ct, b);
                    }
                }
            }
        } else {
            started[w] = done;
            let ct = h.compute_time(w, done);
            queue.schedule(done + ct, w);
        }
    }
    h.finish(label, now)
}
