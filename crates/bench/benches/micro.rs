//! Criterion micro-benchmarks for the performance-critical primitives:
//! the threaded ring all-reduce, controller group formation, dynamic
//! weight generation, sync-graph connectivity, the GEMM kernel, and one
//! fully-simulated P-Reduce iteration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::thread;

use partial_reduce::{
    dynamic_weights, expected_sync_matrix_uniform, spectral_gap, Controller, ControllerConfig,
    GapPolicy, WindowedConnectivity,
};
use preduce_comm::collectives::ring_allreduce;
use preduce_comm::control::{ControlPlane, WorkerControlPlane};
use preduce_comm::CommWorld;
use preduce_tensor::{matmul, Tensor};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor/matmul");
    for n in [32usize, 128] {
        let a = Tensor::full([n, n], 1.5);
        let b = Tensor::full([n, n], 0.5);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| matmul(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
    }
    group.finish();
}

fn bench_ring_allreduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("comm/ring_allreduce");
    group.sample_size(20);
    for &(n, dim) in &[(4usize, 65_536usize), (8, 65_536)] {
        group.bench_with_input(
            BenchmarkId::new("threads", format!("n{n}_d{dim}")),
            &(n, dim),
            |bch, &(n, dim)| {
                bch.iter(|| {
                    let eps = CommWorld::new(n).into_endpoints();
                    let all: Vec<usize> = (0..n).collect();
                    let handles: Vec<_> = eps
                        .into_iter()
                        .map(|mut ep| {
                            let group = all.clone();
                            thread::spawn(move || {
                                let mut data = vec![1.0f32; dim];
                                ring_allreduce(&mut ep, &group, 0, &mut data).expect("allreduce");
                                data[0]
                            })
                        })
                        .collect();
                    for h in handles {
                        let _ = h.join().expect("thread");
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_controller(c: &mut Criterion) {
    c.bench_function("controller/group_formation_n64_p4", |b| {
        b.iter(|| {
            let mut ctl = Controller::new(ControllerConfig::constant(64, 4));
            let mut formed = 0u64;
            // Respect the signal protocol: a worker re-signals only after
            // it was grouped (frozen-avoidance deferrals hold signals
            // across rounds).
            let mut free = [true; 64];
            for round in 0..8u64 {
                for (w, f) in free.iter_mut().enumerate() {
                    if *f {
                        ctl.push_ready(w, round);
                        *f = false;
                    }
                }
                while let Some(d) = ctl.try_form_group() {
                    formed += 1;
                    for &m in &d.group {
                        free[m] = true;
                    }
                }
            }
            std::hint::black_box(formed)
        })
    });
}

fn bench_dynamic_weights(c: &mut Criterion) {
    let iterations: Vec<u64> = (0..16).map(|i| 1000 - (i * i) as u64 % 60).collect();
    c.bench_function("weights/dynamic_p16", |b| {
        b.iter(|| dynamic_weights(std::hint::black_box(&iterations), 0.5, GapPolicy::Initial))
    });
}

fn bench_sync_graph(c: &mut Criterion) {
    // The production structure on a warm window: every iteration is one
    // group-filter decision (record, connectivity verdict, one label).
    c.bench_function("graph/connectivity_n128", |b| {
        let mut g = WindowedConnectivity::new(128, 127);
        for i in 0..127 {
            g.record(&[i, i + 1]);
        }
        let mut i = 0;
        b.iter(|| {
            g.record(&[i, i + 1]);
            i = (i + 1) % 127;
            std::hint::black_box((g.is_connected(), g.component_of(i)))
        })
    });
}

fn bench_spectral(c: &mut Criterion) {
    c.bench_function("spectral/rho_n32", |b| {
        let w = expected_sync_matrix_uniform(32, 4);
        b.iter(|| spectral_gap(std::hint::black_box(&w)).expect("symmetric"))
    });
}

fn bench_sim_iteration(c: &mut Criterion) {
    use preduce_data::cifar10_like;
    use preduce_models::zoo;
    use preduce_trainer::{run_experiment, ExperimentConfig, Strategy};

    let mut g = c.benchmark_group("sim");
    g.sample_size(10);
    g.bench_function("preduce_100_updates_n8_p3", |b| {
        b.iter(|| {
            let mut cfg = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 2);
            cfg.max_updates = 100;
            cfg.eval_every = 100;
            cfg.threshold = 0.999;
            run_experiment(
                Strategy::PReduce {
                    p: 3,
                    dynamic: true,
                },
                std::hint::black_box(&cfg),
            )
        })
    });
    g.finish();
}

fn bench_tcp_control(c: &mut Criterion) {
    use preduce_comm::control::{GroupAssignment, WorkerSignal};
    use preduce_comm::tcp::{accept_workers, bind_controller, TcpWorkerLink};
    use std::time::Duration;

    // One persistent loopback connection; measure a full signal →
    // assignment round trip (the per-iteration control overhead of the
    // paper's prototype).
    let (listener, addr) = bind_controller("127.0.0.1:0");
    let worker = thread::spawn(move || TcpWorkerLink::connect(addr, 0));
    let mut ctl = accept_workers(&listener, 1).expect("handshake");
    let mut link = worker.join().unwrap().expect("connect");

    c.bench_function("tcp/signal_assignment_roundtrip", |b| {
        b.iter(|| {
            link.send_ready(1).expect("send");
            match ctl.recv_signal(Duration::from_secs(5)).expect("recv") {
                WorkerSignal::Ready { worker, .. } => {
                    ctl.send_assignment(
                        worker,
                        GroupAssignment {
                            group: vec![worker],
                            weights: vec![1.0],
                            base_tag: 0,
                            new_iteration: 1,
                        },
                    )
                    .expect("assign");
                }
                other => panic!("unexpected {other:?}"),
            }
            std::hint::black_box(link.recv_assignment(Duration::from_secs(5)).expect("recv"))
        })
    });
}

fn bench_model_forward_backward(c: &mut Criterion) {
    use preduce_models::{softmax_cross_entropy, NetworkSpec};
    let mut net = NetworkSpec::mlp(64, &[128, 64], 10).build(0);
    let x = Tensor::full([8, 64], 0.3);
    let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
    c.bench_function("models/fwd_bwd_batch8_mlp128x64", |b| {
        b.iter(|| {
            net.zero_grads();
            let logits = net.forward(std::hint::black_box(&x));
            let loss = softmax_cross_entropy(&logits, &labels);
            net.backward(&loss.grad);
            std::hint::black_box(net.grad_vector())
        })
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_ring_allreduce,
    bench_controller,
    bench_dynamic_weights,
    bench_sync_graph,
    bench_spectral,
    bench_sim_iteration,
    bench_tcp_control,
    bench_model_forward_backward,
);
criterion_main!(benches);
