//! Round-based synchronous strategies under virtual time: All-Reduce, PS
//! BSP and PS with backup workers share one barrier loop; Eager-Reduce
//! closes its rounds at a majority and keeps stragglers' gradients.

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
    let end = run_barrier_rounds(&mut h, comm, n);
    h.finish("All-Reduce".into(), end)
}

/// PS BSP: the same barrier pattern over a sharded parameter server.
pub fn run_ps_bsp(mut h: SimHarness) -> RunResult {
    let n = h.num_workers();
    let comm =
        h.network.ps_push_pull_time(n, h.bytes) * h.link_factor(0..n) * (1.0 - h.overlap_fraction);
    let end = run_barrier_rounds(&mut h, comm, n);
    h.finish("PS BSP".into(), end)
}

/// PS with `backups` backup workers (BK): each synchronous round waits only
/// for the fastest `N − backups` gradients; stragglers' work is *dropped*
/// (they abandon their batch and re-pull). The paper's criticism: the
/// stragglers contribute nothing, wasting resources.
pub fn run_ps_bk(mut h: SimHarness, backups: usize) -> RunResult {
    let n = h.num_workers();
    let comm = h.network.ps_push_pull_time(n, h.bytes);
    let end = run_barrier_rounds(&mut h, comm, n - backups);
    h.finish(format!("PS BK (b={backups})"), end)
}

/// The barrier loop: each round closes at the `k`-th fastest finisher,
/// averages those `k` workers' gradients and applies the mean on every
/// replica (replicas remain bit-identical, as in real synchronous data
/// parallelism). Returns the virtual time the run stopped at.
fn run_barrier_rounds(h: &mut SimHarness, comm_time: f64, k: usize) -> SimTime {
    let n = h.num_workers();
    let mut now = SimTime::ZERO;
    loop {
        let compute: Vec<f64> = (0..n).map(|w| h.compute_time(w, now)).collect();
        // Only a partial barrier orders its contributors by finish time (a
        // stable sort: ties keep rank order); a full one sums in rank order.
        let mut contributors: Vec<usize> = (0..n).collect();
        if k < n {
            contributors.sort_by(|&a, &b| compute[a].total_cmp(&compute[b]));
            contributors.truncate(k);
        }
        let round_compute = contributors
            .iter()
            .map(|&w| compute[w])
            .fold(0.0f64, f64::max);

        let grads: Vec<Tensor> = contributors
            .iter()
            .map(|&w| h.with_worker(w, WorkerState::gradient))
            .collect();
        let avg = scaled_sum(&grads, 1.0 / k as f32);
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
        let delivered: Vec<Tensor> = in_flight
            .iter_mut()
            .filter(|slot| slot.as_ref().is_some_and(|&(t, _)| t <= window))
            .filter_map(|slot| slot.take().map(|(_, g)| g))
            .collect();
        debug_assert!(!delivered.is_empty());

        // Zero-padded aggregation: divide by N, not by the contributor
        // count (missing workers contribute empty gradients).
        let agg = scaled_sum(&delivered, 1.0 / n as f32);
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

/// `scale · Σ grads`: summed in order into a zero vector, scaled once.
fn scaled_sum(grads: &[Tensor], scale: f32) -> Tensor {
    let mut sum = Tensor::zeros([grads[0].len()]);
    for g in grads {
        sum.add_assign(g);
    }
    sum.scale(scale);
    sum
}
