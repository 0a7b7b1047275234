//! Round-based synchronous strategies under virtual time: All-Reduce, PS
//! BSP, PS with backup workers, and Eager-Reduce.

use preduce_simnet::SimTime;
use preduce_tensor::Tensor;

use crate::metrics::RunResult;
use crate::sim::SimHarness;
use crate::worker::WorkerState;

/// All-Reduce (AR): one global barrier and ring all-reduce per iteration.
/// The round takes as long as the *slowest* worker's compute plus the
/// `N`-wide collective — exactly the straggler sensitivity the paper
/// targets.
pub fn run_allreduce(mut h: SimHarness) -> RunResult {
    let n = h.num_workers();
    // A fixed communicator lets DDP-style implementations hide part of
    // the collective under the backward pass (`overlap_fraction`); the
    // paper grants the baselines this and P-Reduce not (§4).
    let comm = h.group_ring_time(&(0..n).collect::<Vec<_>>()) * (1.0 - h.overlap_fraction);
    let end = run_barrier_rounds(&mut h, comm);
    h.finish("All-Reduce".into(), end)
}

/// PS BSP: the same barrier pattern over a sharded parameter server.
pub fn run_ps_bsp(mut h: SimHarness) -> RunResult {
    let n = h.num_workers();
    let comm =
        h.network.ps_push_pull_time(n, h.bytes) * h.link_factor(0..n) * (1.0 - h.overlap_fraction);
    let end = run_barrier_rounds(&mut h, comm);
    h.finish("PS BSP".into(), end)
}

fn run_barrier_rounds(h: &mut SimHarness, comm_time: f64) -> SimTime {
    let n = h.num_workers();
    let mut now = SimTime::ZERO;
    loop {
        // Slowest worker gates the barrier.
        let compute: Vec<f64> = (0..n).map(|w| h.compute_time(w, now)).collect();
        let round_compute = compute.iter().cloned().fold(0.0f64, f64::max);

        // Average everyone's gradient; apply identically (replicas remain
        // bit-identical, as in real synchronous data parallelism).
        let grads: Vec<Tensor> = (0..n)
            .map(|w| h.with_worker(w, WorkerState::gradient))
            .collect();
        let avg = mean_grad(&grads);
        for w in &mut h.workers {
            w.apply(&avg, 1.0);
            w.iteration += 1;
        }

        let dur = round_compute + comm_time;
        now += dur;
        if h.record_update(now, dur) {
            return now;
        }
    }
}

/// PS with `backups` backup workers (BK): each synchronous round waits only
/// for the fastest `N − backups` gradients; stragglers' work is *dropped*
/// (they abandon their batch and re-pull). The paper's criticism: the
/// stragglers contribute nothing, wasting resources.
pub fn run_ps_bk(mut h: SimHarness, backups: usize) -> RunResult {
    let n = h.num_workers();
    let k = n - backups;
    let comm = h.network.ps_push_pull_time(n, h.bytes);
    let mut now = SimTime::ZERO;
    loop {
        let compute: Vec<f64> = (0..n).map(|w| h.compute_time(w, now)).collect();
        // Round closes at the k-th fastest finisher.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| compute[a].total_cmp(&compute[b]));
        let contributors = &order[..k];
        let round_compute = compute[contributors[k - 1]];

        let grads: Vec<Tensor> = contributors
            .iter()
            .map(|&w| h.with_worker(w, WorkerState::gradient))
            .collect();
        let avg = mean_grad(&grads);
        for w in &mut h.workers {
            w.apply(&avg, 1.0);
            w.iteration += 1;
        }

        let dur = round_compute + comm;
        now += dur;
        if h.record_update(now, dur) {
            break;
        }
    }
    h.finish(format!("PS BK (b={backups})"), now)
}

/// Eager-Reduce (ER): a partial collective closing once a majority of
/// workers is ready. Slow workers' gradients — computed against *older*
/// parameters — are delivered in whatever later round they finish
/// (the "accumulated/delayed gradients" of the Eager-SGD paper); absent
/// contribute zero. The paper's finding: the stale-gradient aggregation
/// degrades convergence quality enough to miss the accuracy threshold.
pub fn run_eager_reduce(mut h: SimHarness) -> RunResult {
    let n = h.num_workers();
    let majority = n / 2 + 1;
    let comm = h.group_ring_time(&(0..n).collect::<Vec<_>>());
    let dim = h.workers[0].params.len();
    let mut now = SimTime::ZERO;

    // In-flight gradient per worker: (absolute finish time, gradient).
    let mut in_flight: Vec<Option<(f64, Tensor)>> = (0..n).map(|_| None).collect();

    loop {
        // Idle workers start a fresh gradient at the current parameters.
        for (w, slot) in in_flight.iter_mut().enumerate() {
            if slot.is_none() {
                let ct = h.compute_time(w, now);
                let g = h.with_worker(w, WorkerState::gradient);
                *slot = Some((now.seconds() + ct, g));
            }
        }
        // The round closes when the majority-th in-flight gradient lands.
        // (The loop above filled every slot, so the flatten is total.)
        let mut finishes: Vec<f64> = in_flight.iter().flatten().map(|&(t, _)| t).collect();
        finishes.sort_by(f64::total_cmp);
        let window = finishes[majority - 1].max(now.seconds());

        // Deliver everything that finished inside the window (possibly
        // stale gradients started rounds ago).
        let mut delivered: Vec<Tensor> = Vec::new();
        for slot in in_flight.iter_mut() {
            if let Some((t, _)) = slot {
                if *t <= window {
                    if let Some((_, g)) = slot.take() {
                        delivered.push(g);
                    }
                }
            }
        }
        debug_assert!(!delivered.is_empty());

        // Zero-padded aggregation: divide by N, not by the contributor
        // count (missing workers contribute empty gradients).
        let mut agg = Tensor::zeros([dim]);
        for g in &delivered {
            agg.add_assign(g);
        }
        agg.scale(1.0 / n as f32);
        for w in &mut h.workers {
            w.apply(&agg, 1.0);
            w.iteration += 1;
        }

        let dur = (window - now.seconds()) + comm;
        now = SimTime::new(window) + comm;
        if h.record_update(now, dur) {
            break;
        }
    }
    h.finish("Eager-Reduce".into(), now)
}

fn mean_grad(grads: &[Tensor]) -> Tensor {
    let mut avg = Tensor::zeros([grads[0].len()]);
    for g in grads {
        avg.add_assign(g);
    }
    avg.scale(1.0 / grads.len() as f32);
    avg
}
