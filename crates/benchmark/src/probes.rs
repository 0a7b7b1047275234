//! Instrument (b): spans timed around direct calls to one layer's public
//! functions, at the shapes the calling workload uses.
//!
//! Each probe files its per-layer metrics into the outcome; the compute
//! probe also records real spans (one parent per local update, three
//! children) so the span file shows the decomposition it reports.

use std::hint::black_box;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use partial_reduce::runtime::{serve_fleet, RuntimeOptions};
use partial_reduce::{ControllerConfig, NullSink};
use preduce_comm::control::{control_links, GroupAssignment, WorkerControlPlane, WorkerSignal};
use preduce_comm::frame::{self, FrameBuffer};
use preduce_comm::mesh::{GroupAverager, MeshEndpoint};
use preduce_comm::reactor::{accept_fleet, FleetMember, ReactorConfig};
use preduce_comm::tcp::{
    accept_workers, bind_controller, RetryPolicy, TcpControllerLink, TcpWorkerLink,
};
use preduce_comm::CommWorld;
use preduce_models::softmax_cross_entropy;
use preduce_tensor::kernels;
use preduce_trainer::engine::setup::{build_fleet, evaluate_uniform_average};
use preduce_trainer::engine::{self, Backend};
use preduce_trainer::worker::weighted_model_average;
use preduce_trainer::{ExperimentConfig, RunResult, Strategy};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{timed, Outcome};
use crate::stats::median;
use crate::workloads::ACCURACY_THRESHOLD;

/// Wall time one probe spends measuring.
const PROBE_BUDGET: Duration = Duration::from_millis(40);

/// Assignment wait inside probes: generous, never reached on a live link.
const PROBE_TIMEOUT: Duration = Duration::from_secs(30);

/// Mean nanoseconds per call of `f`: three discarded calls, then calls
/// until [`PROBE_BUDGET`] is spent (at least ten).
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 10 || start.elapsed() < PROBE_BUDGET {
        f();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// GEMM throughput in the three layouts a dense layer uses, at the widest
/// hidden layer of the analog (`batch × k → n`).
fn gemm(batch: usize, k: usize, n: usize, out: &mut Outcome) {
    let a = vec![0.5f32; batch * k];
    let b = vec![0.25f32; k * n];
    let dy = vec![0.125f32; batch * n];
    let flops = 2.0 * (batch * k * n) as f64;
    let mut c = vec![0.0f32; batch * n];
    // Forward: Y = X·W.
    let nn = ns_per_call(|| kernels::gemm(batch, k, n, black_box(&a), black_box(&b), &mut c));
    // Backward to the input: dX = dY·Wᵀ.
    let mut dx = vec![0.0f32; batch * k];
    let nt =
        ns_per_call(|| kernels::gemm_a_bt(batch, n, k, black_box(&dy), black_box(&b), &mut dx));
    // Backward to the weights: dW = Xᵀ·dY.
    let mut dw = vec![0.0f32; k * n];
    let tn =
        ns_per_call(|| kernels::gemm_at_b(batch, k, n, black_box(&a), black_box(&dy), &mut dw));
    black_box((&c, &dx, &dw));
    out.layers.insert("tensor.gemm_nn_gflops", flops / nn);
    out.layers.insert("tensor.gemm_nt_gflops", flops / nt);
    out.layers.insert("tensor.gemm_tn_gflops", flops / tn);
}

/// The compute path of one worker: dataset synthesis and fleet build,
/// batch draw, forward/backward, optimizer step, and the whole local
/// update they add up to — on `cfg`'s model and batch size. Returns the
/// model's parameter count, the length the data-plane probes average.
pub fn compute(cfg: &ExperimentConfig, out: &mut Outcome) -> usize {
    let (build_s, fleet) = timed(|| build_fleet(cfg));
    out.layers.insert("data.build_s", build_s);
    let params = fleet.reference.param_count();
    let Some(mut worker) = fleet.workers.into_iter().next() else {
        return params;
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // The layer that costs the most FLOPs: the largest fan-in × fan-out
    // among input → hidden… → classes.
    let mut dims = vec![fleet.test.feature_dim()];
    dims.extend(&cfg.model.hidden);
    dims.push(fleet.test.num_classes());
    if let Some(pair) = dims.windows(2).max_by_key(|w| w[0] * w[1]) {
        gemm(cfg.math_batch_size, pair[0], pair[1], out);
    }

    // The decomposed update, through the same public calls
    // `WorkerState::gradient` and `apply` make, with a span per step.
    let (mut batch_ns, mut fwd_bwd_ns, mut apply_ns) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..200u64 {
        let t0 = out.spans.nanos_at(Instant::now());
        let batch = worker.sampler.next_batch_with(&mut rng);
        let t1 = out.spans.nanos_at(Instant::now());
        worker.net.set_param_vector(&worker.params);
        worker.net.zero_grads();
        let logits = worker.net.forward(&batch.features);
        let loss = softmax_cross_entropy(&logits, &batch.labels);
        worker.net.backward(&loss.grad);
        let grad = worker.net.grad_vector();
        let t2 = out.spans.nanos_at(Instant::now());
        worker.apply(&grad, 1.0);
        let t3 = out.spans.nanos_at(Instant::now());
        let parent = out.spans.push("trainer.local_update", t0, t3, None, round);
        out.spans.push("data.batch", t0, t1, Some(parent), round);
        out.spans
            .push("models.fwd_bwd", t1, t2, Some(parent), round);
        out.spans
            .push("models.sgd_apply", t2, t3, Some(parent), round);
        batch_ns.push((t1 - t0) as f64);
        fwd_bwd_ns.push((t2 - t1) as f64);
        apply_ns.push((t3 - t2) as f64);
    }
    out.layers.insert("data.batch_us", median(&batch_ns) / 1e3);
    out.layers
        .insert("models.fwd_bwd_us", median(&fwd_bwd_ns) / 1e3);
    out.layers
        .insert("models.sgd_apply_us", median(&apply_ns) / 1e3);
    let update_ns = ns_per_call(|| worker.local_update(&mut rng));
    out.layers
        .insert("trainer.local_update_us", update_ns / 1e3);
    params
}

/// What only the simulated workload has: the model average and the
/// periodic evaluation, their share of one run's wall time, and the two
/// reference rows (All-Reduce on the same config, a single plain worker).
pub fn sim_references(
    cfg: &ExperimentConfig,
    strategy: Strategy,
    run: &RunResult,
    run_wall_s: f64,
    out: &mut Outcome,
) {
    let fleet = build_fleet(cfg);
    let p = match strategy {
        Strategy::PReduce { p, .. } => p,
        _ => cfg.num_workers,
    };
    let params: Vec<_> = fleet.workers.iter().map(|w| w.params.clone()).collect();
    let group: Vec<_> = params.iter().take(p).collect();
    let weights = partial_reduce::constant_weights(group.len());
    let average_ns = ns_per_call(|| {
        black_box(weighted_model_average(&group, &weights));
    });
    let eval_ns = ns_per_call(|| {
        black_box(evaluate_uniform_average(cfg, &fleet.test, &params));
    });
    out.layers
        .insert("trainer.model_average_us", average_ns / 1e3);
    out.layers.insert("trainer.eval_ms", eval_ns / 1e6);

    // Children of one run: P local updates and one average per update,
    // one evaluation every `eval_every` updates.
    let updates = run.updates as f64;
    let evals = (run.updates / cfg.eval_every) as f64;
    let update_ns = out
        .layers
        .get("trainer.local_update_us")
        .map_or(0.0, |us| us * 1e3);
    let children_s = (updates * (p as f64 * update_ns + average_ns) + evals * eval_ns) * 1e-9;
    if run_wall_s > 0.0 {
        out.layers
            .insert("trainer.eval_share", evals * eval_ns * 1e-9 / run_wall_s);
        out.layers
            .insert("trainer.self_share", 1.0 - children_s / run_wall_s);
    }

    let allreduce = engine::run(Strategy::AllReduce, cfg, Backend::Sim, Arc::new(NullSink));
    if let (Some(ar), Some(pr)) = (
        allreduce.result.time_to_accuracy(ACCURACY_THRESHOLD),
        run.time_to_accuracy(ACCURACY_THRESHOLD),
    ) {
        out.layers
            .insert("trainer.tta_speedup_vs_allreduce", ar / pr);
    }
    let mut single = cfg.clone();
    single.num_workers = 1;
    single.hetero = preduce_trainer::HeteroSpec::Uniform;
    single.max_updates = 2_000;
    single.threshold = 1.0; // run the whole budget
    let (wall_s, plain) = timed(|| {
        engine::run(
            Strategy::AllReduce,
            &single,
            Backend::Sim,
            Arc::new(NullSink),
        )
    });
    out.layers.insert(
        "trainer.single_worker_rounds_per_s",
        plain.result.updates as f64 / wall_s,
    );
}

/// Encode and decode cost and size of the two frames every round moves:
/// a ready signal up, a `p`-member group assignment down.
pub fn frames(p: usize, out: &mut Outcome) {
    let ready = WorkerSignal::Ready {
        worker: 17,
        iteration: 1_234,
    };
    let assignment = GroupAssignment {
        group: (0..p).collect(),
        weights: vec![1.0 / p as f32; p],
        base_tag: 7 << 16,
        new_iteration: 1_234,
    };
    let (Ok(ready_frame), Ok(assignment_frame)) =
        (frame::encode(&ready), frame::encode(&assignment))
    else {
        out.tally.fail(1, || "control frames do not encode".into());
        return;
    };
    let encode_ns = ns_per_call(|| {
        black_box(frame::encode(black_box(&ready)).ok());
        black_box(frame::encode(black_box(&assignment)).ok());
    });
    let mut decoded_ok = true;
    let decode_ns = ns_per_call(|| {
        let mut buf = FrameBuffer::new();
        buf.push_bytes(&ready_frame);
        buf.push_bytes(&assignment_frame);
        decoded_ok &= matches!(buf.next_frame::<WorkerSignal>(), Ok(Some(_)));
        decoded_ok &= matches!(buf.next_frame::<GroupAssignment>(), Ok(Some(_)));
    });
    out.tally
        .check(decoded_ok, || "control frames do not decode".into());
    // Per frame: each timed call handled one of each kind.
    out.layers.insert("comm.frame.encode_ns", encode_ns / 2.0);
    out.layers.insert("comm.frame.decode_ns", decode_ns / 2.0);
    out.layers
        .insert("comm.frame.ready_bytes", ready_frame.len() as f64);
    out.layers
        .insert("comm.frame.assignment_bytes", assignment_frame.len() as f64);
}

/// Median microseconds of one ready→assignment round of a two-worker
/// fleet (P=2) on an otherwise idle controller, driven from this thread.
fn idle_round_us<L: WorkerControlPlane>(links: &mut [L]) -> Option<f64> {
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut iteration = 0u64;
    while samples.len() < 20 || start.elapsed() < PROBE_BUDGET * 4 {
        iteration += 1;
        // Let the serving side go fully idle, as it is between the rounds
        // of closed-loop workers that compute in between.
        thread::sleep(Duration::from_millis(2));
        let t = Instant::now();
        for link in links.iter_mut() {
            link.send_ready(iteration).ok()?;
        }
        for link in links.iter_mut() {
            link.recv_assignment(PROBE_TIMEOUT).ok()?;
        }
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    for link in links.iter_mut() {
        link.send_leaving().ok()?;
    }
    Some(median(&samples))
}

/// The same idle control round over loopback sockets (reactor +
/// `serve_fleet`) and over in-process channels (`serve_fleet` alone): the
/// pair that separates the transport's cost from the serving loop's.
pub fn idle_rounds(out: &mut Outcome) {
    let cfg = || ControllerConfig::constant(2, 2);
    let joined =
        |n: usize| -> Vec<(usize, String)> { (0..n).map(|r| (r, format!("probe-{r}"))).collect() };

    let (ctl, mut links) = control_links(2);
    let server =
        thread::spawn(move || serve_fleet(cfg(), ctl, &joined(2), RuntimeOptions::default()));
    let channel = idle_round_us(&mut links);
    drop(links);
    let _ = server.join();

    let (listener, addr) = bind_controller("127.0.0.1:0");
    let dialers: Vec<_> = (0..2)
        .map(|rank| thread::spawn(move || TcpWorkerLink::connect(addr, rank)))
        .collect();
    let ctl = accept_workers(&listener, 2);
    let links: Option<Vec<TcpWorkerLink>> = dialers
        .into_iter()
        .map(|d| d.join().ok().and_then(Result::ok))
        .collect();
    let tcp = match (ctl, links) {
        (Ok(ctl), Some(mut links)) => {
            let server = thread::spawn(move || {
                serve_fleet(cfg(), ctl, &joined(2), RuntimeOptions::default())
            });
            let us = idle_round_us(&mut links);
            drop(links);
            let _ = server.join();
            us
        }
        _ => None,
    };

    match (tcp, channel) {
        (Some(tcp), Some(channel)) => {
            out.layers.insert("comm.tcp.idle_round_us", tcp);
            out.layers.insert("comm.control.idle_round_us", channel);
        }
        _ => out
            .tally
            .fail(1, || "idle control round did not complete".into()),
    }
}

/// A fleet of process-style workers that has completed its handshake.
pub struct FleetUp {
    /// Seconds from bind to the last roster received.
    pub seconds: f64,
    /// The controller's reactor-backed link.
    pub controller: TcpControllerLink,
    /// The members as seen at handshake time.
    pub members: Vec<FleetMember>,
    /// The workers' links, in rank order.
    pub links: Vec<TcpWorkerLink>,
}

/// Brings up a fleet of `n` workers the way `preduce controller` /
/// `preduce worker` do: bind, dial with a data address, handshake through
/// the reactor, broadcast the roster. `None` if bring-up failed.
pub fn fleet_bring_up(n: usize) -> Option<FleetUp> {
    let start = Instant::now();
    let (listener, addr) = bind_controller("127.0.0.1:0");
    // `connect_fleet` returns only once the roster arrives, i.e. after the
    // last worker joined, so each dial needs its own thread; they live for
    // the handshake only.
    let dialers: Vec<_> = (0..n)
        .map(|rank| {
            thread::spawn(move || {
                let data_addr = format!("127.0.0.1:{}", 20_000 + rank);
                TcpWorkerLink::connect_fleet(addr, rank, data_addr, RetryPolicy::default())
            })
        })
        .collect();
    let accepted = accept_fleet(&listener, n, ReactorConfig::default());
    let links: Option<Vec<TcpWorkerLink>> = dialers
        .into_iter()
        .map(|d| {
            d.join()
                .ok()
                .and_then(Result::ok)
                .map(|(link, _roster)| link)
        })
        .collect();
    let (controller, members) = accepted.ok()?;
    Some(FleetUp {
        seconds: start.elapsed().as_secs_f64(),
        controller,
        members,
        links: links?,
    })
}

/// Files `comm.reactor.accept_fleet_ms` for a fleet of `n`.
pub fn accept_fleet_ms(n: usize, out: &mut Outcome) {
    let samples: Vec<f64> = (0..3)
        .filter_map(|_| fleet_bring_up(n).map(|up| up.seconds * 1e3))
        .collect();
    if samples.is_empty() {
        out.tally
            .fail(1, || format!("fleet of {n} did not come up"));
    } else {
        out.layers
            .insert("comm.reactor.accept_fleet_ms", median(&samples));
    }
}

/// Runs `rounds` group averages of `len` floats on `p` member threads and
/// returns the median milliseconds one average took on member 0.
fn averaged_ms<A: GroupAverager + 'static>(
    members: Vec<A>,
    len: usize,
    rounds: u64,
) -> Option<f64> {
    let p = members.len();
    let group: Vec<usize> = (0..p).collect();
    let weights = vec![1.0 / p as f32; p];
    let threads: Vec<_> = members
        .into_iter()
        .enumerate()
        .map(|(rank, mut member)| {
            let (group, weights) = (group.clone(), weights.clone());
            thread::spawn(move || {
                let mut data = vec![rank as f32; len];
                let mut samples = Vec::new();
                for round in 0..rounds {
                    let t = Instant::now();
                    member
                        .group_weighted_average(&group, (round + 1) << 16, &mut data, &weights)
                        .ok()?;
                    samples.push(t.elapsed().as_nanos() as f64 / 1e6);
                }
                // Every member started from its rank, so the average is
                // the mean rank; anything else is a wrong reduce.
                let expect = (p - 1) as f32 / 2.0;
                data.iter()
                    .all(|x| (x - expect).abs() < 1e-3)
                    .then_some(samples)
            })
        })
        .collect();
    let mut first = None;
    for (rank, t) in threads.into_iter().enumerate() {
        let samples = t.join().ok()??;
        if rank == 0 {
            first = Some(median(&samples[1..]));
        }
    }
    first
}

/// The in-process data plane of `threaded-hl2`: the chunked ring average
/// among P=4 members over `len` floats, and the fused weighted-sum kernel
/// underneath the simulator's average at the same shape.
pub fn collectives(len: usize, out: &mut Outcome) {
    match averaged_ms(CommWorld::new(4).into_endpoints(), len, 40) {
        Some(ms) => {
            out.layers.insert("comm.collectives.average_ms", ms);
        }
        None => out
            .tally
            .fail(1, || "in-process group average failed or was wrong".into()),
    }
    let models: Vec<Vec<f32>> = (0..4).map(|m| vec![m as f32; len]).collect();
    let views: Vec<&[f32]> = models.iter().map(Vec::as_slice).collect();
    let weights = [0.25f32; 4];
    let mut acc = vec![0.0f32; len];
    let ns = ns_per_call(|| {
        acc.fill(0.0);
        kernels::weighted_sum_acc(&mut acc, black_box(&views), &weights);
    });
    black_box(&acc);
    // Bytes touched: four inputs read, one output written.
    out.layers
        .insert("tensor.weighted_sum_gbps", (5 * len * 4) as f64 / ns);
}

/// The TCP data plane of `process-tcp`: the star-reduce average between
/// P=2 mesh endpoints on loopback over `len` floats.
pub fn mesh(len: usize, out: &mut Outcome) {
    let endpoints: Option<Vec<MeshEndpoint>> = (0..2)
        .map(|rank| MeshEndpoint::bind(rank, "127.0.0.1:0").ok())
        .collect();
    let ms = endpoints.and_then(|mut eps| {
        let roster: Vec<String> = eps.iter().map(|e| e.local_addr().to_string()).collect();
        for e in &mut eps {
            e.set_roster(&roster).ok()?;
        }
        averaged_ms(eps, len, 40)
    });
    match ms {
        Some(ms) => {
            out.layers.insert("comm.mesh.average_ms", ms);
            // Star reduce at P=2: the member ships its model to the
            // leader and receives the average back.
            out.layers
                .insert("comm.mesh.bytes_per_round", (2 * len * 4) as f64);
        }
        None => out
            .tally
            .fail(1, || "mesh group average failed or was wrong".into()),
    }
}
