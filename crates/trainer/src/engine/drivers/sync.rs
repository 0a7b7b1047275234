//! Round-based synchronous strategies: All-Reduce, PS BSP, PS with backup
//! workers, and Eager-Reduce — each with a virtual-time projection and a
//! real-thread projection over [`CommWorld`] endpoints or a shared board.

use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use preduce_comm::collectives::{barrier, ring_allreduce, TAG_STRIDE};
use preduce_comm::CommWorld;
use preduce_models::SgdOptimizer;
use preduce_simnet::SimTime;
use preduce_tensor::Tensor;

use crate::engine::setup::build_fleet;
use crate::engine::substrate::{must, ThreadedReport, ThreadedSubstrate};
use crate::metrics::RunResult;
use crate::sim::SimHarness;

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
        let grads: Vec<Tensor> = (0..n).map(|w| h.workers[w].gradient(&mut h.rng)).collect();
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
///
/// # Panics
/// Panics if `backups >= N`.
pub fn run_ps_bk(mut h: SimHarness, backups: usize) -> RunResult {
    let n = h.num_workers();
    assert!(backups < n, "cannot back up the whole fleet");
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
            .map(|&w| h.workers[w].gradient(&mut h.rng))
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
        #[allow(clippy::needless_range_loop, reason = "split borrows across fields")]
        for w in 0..n {
            if in_flight[w].is_none() {
                let ct = h.compute_time(w, now);
                let g = h.workers[w].gradient(&mut h.rng);
                in_flight[w] = Some((now.seconds() + ct, g));
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

// ---------------------------------------------------------------------------
// Threaded projections
// ---------------------------------------------------------------------------

/// Threaded All-Reduce: each round is gradient → full-world ring
/// all-reduce (gradient averaging) → identical step, with a barrier per
/// round. Replicas stay bit-identical across workers.
pub(crate) fn threaded_allreduce(sub: &ThreadedSubstrate) -> ThreadedReport {
    let config = sub.config();
    let fleet = build_fleet(config);
    let n = config.num_workers;
    let endpoints = CommWorld::new(n).into_endpoints();
    let all: Vec<usize> = (0..n).collect();

    sub.run_spmd(fleet, endpoints, move |mut ctx, mut w, mut ep| {
        for k in 0..ctx.iters {
            ctx.straggle();
            let grad = w.gradient(&mut ctx.rng);
            let mut flat = grad.into_vec();
            must(
                "ring allreduce",
                ring_allreduce(&mut ep, &all, (2 * k) * TAG_STRIDE, &mut flat),
            );
            // Sum → mean.
            for v in &mut flat {
                *v /= all.len() as f32;
            }
            let avg = must("rebuild gradient", Tensor::from_vec(flat, [w.params.len()]));
            w.apply(&avg, 1.0);
            w.iteration += 1;
            must(
                "round barrier",
                barrier(&mut ep, &all, (2 * k + 1) * TAG_STRIDE),
            );
        }
        (w.params, w.iteration)
    })
}

/// Shared Eager-Reduce state: the global model plus the gradients waiting
/// for the next majority flush.
struct EagerBoard {
    model: Tensor,
    opt: SgdOptimizer,
    pending: Vec<Tensor>,
}

/// Threaded Eager-Reduce: workers push gradients to a shared board; the
/// pusher that completes a majority flushes the round with zero-padded
/// (divide-by-N) aggregation, so late gradients land stale — the same
/// quality/speed trade the virtual-time projection models.
pub(crate) fn threaded_eager_reduce(sub: &ThreadedSubstrate) -> ThreadedReport {
    let config = sub.config();
    let fleet = build_fleet(config);
    let n = config.num_workers;
    let majority = n / 2 + 1;
    let model = fleet.workers[0].params.clone();
    let opt = SgdOptimizer::new(*fleet.workers[0].opt.config(), model.len());
    let board = Arc::new(Mutex::new(EagerBoard {
        model,
        opt,
        pending: Vec::new(),
    }));
    let resources: Vec<_> = (0..n).map(|_| Arc::clone(&board)).collect();

    sub.run_spmd(fleet, resources, move |mut ctx, mut w, board| {
        for _ in 0..ctx.iters {
            ctx.straggle();
            // Gradient at the current global model (snapshot may be stale
            // by the time the push lands — that's the point of ER).
            let snapshot = must("board lock", board.lock()).model.clone();
            w.set_params(&snapshot);
            let grad = w.gradient(&mut ctx.rng);
            let mut guard = must("board lock", board.lock());
            let b = &mut *guard;
            b.pending.push(grad);
            if b.pending.len() >= majority {
                let mut agg = Tensor::zeros([b.model.len()]);
                for g in &b.pending {
                    agg.add_assign(g);
                }
                agg.scale(1.0 / n as f32);
                b.pending.clear();
                b.opt.step_scaled(&mut b.model, &agg, 1.0);
            }
            drop(guard);
            w.iteration += 1;
        }
        let m = must("board lock", board.lock()).model.clone();
        (m, w.iteration)
    })
}

/// One synchronous round's contributions: `(rank, compute seconds, grad)`.
struct RoundBoard {
    round: u64,
    entries: Vec<(usize, f64, Tensor)>,
}

/// Threaded synchronous PS rounds taking the fastest `take` gradients per
/// round: `take == n` is BSP, `take == n − backups` is the backup-worker
/// scheme. Every worker applies the identical average, so replicas stay
/// bit-identical; the dropped stragglers' work is wasted, as in the paper.
fn threaded_ps_rounds(sub: &ThreadedSubstrate, take: usize) -> ThreadedReport {
    let config = sub.config();
    let fleet = build_fleet(config);
    let n = config.num_workers;
    assert!((1..=n).contains(&take), "take must be in 1..=n");
    // Two parity-alternating boards: round k writes slot k%2 while the
    // other slot still holds round k−1 for any reader that hasn't left it.
    let boards = Arc::new([
        Mutex::new(RoundBoard {
            round: 0,
            entries: Vec::new(),
        }),
        Mutex::new(RoundBoard {
            round: 1,
            entries: Vec::new(),
        }),
    ]);
    let gate = Arc::new(Barrier::new(n));
    let resources: Vec<_> = (0..n)
        .map(|_| (Arc::clone(&boards), Arc::clone(&gate)))
        .collect();

    sub.run_spmd(fleet, resources, move |mut ctx, mut w, (boards, gate)| {
        for k in 0..ctx.iters {
            let clock = Instant::now();
            ctx.straggle();
            let grad = w.gradient(&mut ctx.rng);
            let secs = clock.elapsed().as_secs_f64();
            let slot = (k % 2) as usize;
            {
                let mut b = must("board lock", boards[slot].lock());
                if b.round != k {
                    b.entries.clear();
                    b.round = k;
                }
                b.entries.push((w.rank, secs, grad));
            }
            gate.wait();
            {
                let b = must("board lock", boards[slot].lock());
                // Canonical contributor order: fastest first, rank
                // breaking ties, so every worker computes the same
                // average regardless of push order.
                let mut order: Vec<usize> = (0..b.entries.len()).collect();
                order.sort_by(|&x, &y| {
                    let (rx, tx, _) = &b.entries[x];
                    let (ry, ty, _) = &b.entries[y];
                    tx.total_cmp(ty).then(rx.cmp(ry))
                });
                let mut avg = Tensor::zeros([w.params.len()]);
                for &i in order.iter().take(take) {
                    avg.add_assign(&b.entries[i].2);
                }
                avg.scale(1.0 / take as f32);
                w.apply(&avg, 1.0);
                w.iteration += 1;
            }
            gate.wait();
        }
        (w.params, w.iteration)
    })
}

/// Threaded PS BSP: every round averages all `n` gradients.
pub(crate) fn threaded_ps_bsp(sub: &ThreadedSubstrate) -> ThreadedReport {
    threaded_ps_rounds(sub, sub.config().num_workers)
}

/// Threaded PS with backup workers: each round keeps only the fastest
/// `n − backups` gradients.
///
/// # Panics
/// Panics if `backups >= n`.
pub(crate) fn threaded_ps_bk(sub: &ThreadedSubstrate, backups: usize) -> ThreadedReport {
    let n = sub.config().num_workers;
    assert!(backups < n, "cannot back up the whole fleet");
    threaded_ps_rounds(sub, n - backups)
}
