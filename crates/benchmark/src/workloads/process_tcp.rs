//! `process-tcp`: the deployed path. `run_controller` on one thread and
//! `run_worker` on four, dynamic P=2 over loopback: JSON frames, reactor,
//! `serve_fleet`, heartbeats, and the TCP mesh average of the wide analog.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use partial_reduce::runtime::RuntimeOptions;
use partial_reduce::{ControllerConfig, NullSink, TraceSink};
use preduce_trainer::engine::process::{
    run_controller, run_worker, ControllerReport, WorkerReport,
};
use preduce_trainer::engine::setup::build_fleet;
use preduce_trainer::ExperimentConfig;

use super::wide_config;
use crate::catalog::Workload;
use crate::harness::{timed, Ctx, Meter, Outcome};
use crate::probes;
use crate::stamping::{rep_sink, Stamped};
use crate::stats::Summary;

/// Fleet size.
pub const N: usize = 4;
/// Group size.
pub const P: usize = 2;

struct Rep {
    /// First worker start → controller return.
    wall_s: f64,
    controller: Option<ControllerReport>,
    workers: Vec<Option<WorkerReport>>,
}

fn run_rep(cfg: &ExperimentConfig, iters: u64, sink: Arc<dyn TraceSink>) -> Rep {
    let (addr_tx, addr_rx) = mpsc::channel::<SocketAddr>();
    let ctl_sink = sink.clone();
    let server = thread::spawn(move || {
        run_controller(
            ControllerConfig::dynamic(N, P),
            "127.0.0.1:0",
            RuntimeOptions {
                sink: ctl_sink,
                ..RuntimeOptions::default()
            },
            |addr| {
                let _ = addr_tx.send(addr);
            },
        )
    });
    let Ok(addr) = addr_rx.recv_timeout(Duration::from_secs(10)) else {
        return Rep {
            wall_s: 0.0,
            controller: None,
            workers: Vec::new(),
        };
    };
    let start = Instant::now();
    let workers: Vec<_> = (0..N)
        .map(|rank| {
            let (cfg, sink) = (cfg.clone(), sink.clone());
            thread::spawn(move || run_worker(&cfg, addr, rank, iters, sink))
        })
        .collect();
    let workers: Vec<Option<WorkerReport>> = workers
        .into_iter()
        .map(|t| t.join().ok().and_then(Result::ok))
        .collect();
    let controller = server.join().ok().and_then(Result::ok);
    Rep {
        wall_s: start.elapsed().as_secs_f64(),
        controller,
        workers,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(Workload::ProcessTcp);
    let cfg = wide_config(N, ctx.seed);
    let iters = ctx.sizes.process_iters;

    // Set-up as a deployment pays it once per process: the deterministic
    // fleet build every worker repeats, then bind/dial/handshake/roster.
    // Timed on direct calls; the links are dropped again at once.
    let mut setups = Vec::new();
    for _ in 0..3 {
        let build_s = timed(|| build_fleet(&cfg)).0;
        match probes::fleet_bring_up(N) {
            Some(up) => setups.push(build_s + up.seconds),
            None => out.tally.fail(1, || "fleet bring-up failed".into()),
        }
    }

    let mut meter = Meter::default();
    let mut accuracies = Vec::new();
    let mut stamped = Stamped::default();

    let _warm_up = run_rep(&cfg, iters.min(20), Arc::new(NullSink));

    for rep in 0..ctx.reps {
        let traced = ctx.rep_is_traced(rep);
        let (stamping, sink) = rep_sink(traced);
        let clock = meter.start();
        let result = run_rep(&cfg, iters, sink);
        meter.finish(clock, (N as u64 * iters) as f64, result.wall_s, traced);

        out.tally.attempt(N as u64 * iters);
        match result.controller {
            Some(report) => out.tally.fail(report.stats.evictions, || {
                format!("{} evictions", report.stats.evictions)
            }),
            None => out.tally.fail(1, || "controller did not return".into()),
        }
        let mut rep_accuracy = Vec::new();
        for (rank, worker) in result.workers.iter().enumerate() {
            match worker {
                Some(w) => {
                    out.tally.fail(w.degraded, || {
                        format!("rank {rank}: {} degraded reduces", w.degraded)
                    });
                    out.tally.check(w.iterations >= iters, || {
                        format!("rank {rank} ended at iteration {} of {iters}", w.iterations)
                    });
                    rep_accuracy.push(w.accuracy);
                }
                None => out.tally.fail(1, || format!("rank {rank} did not return")),
            }
        }
        if !rep_accuracy.is_empty() {
            let mean = rep_accuracy.iter().sum::<f64>() / rep_accuracy.len() as f64;
            out.tally.check(mean >= ctx.sizes.accuracy_floor, || {
                format!(
                    "mean accuracy {mean} below the floor {}",
                    ctx.sizes.accuracy_floor
                )
            });
            accuracies.push(mean);
        }

        if let Some(s) = stamping {
            stamped.absorb(&s, &mut out);
        }
    }

    out.file_common(ctx, &meter, &setups);
    if !accuracies.is_empty() {
        out.end_to_end
            .insert("final_accuracy", Summary::of(&accuracies));
    }

    if ctx.traced {
        stamped.file(&mut out);
        let params = probes::compute(&cfg, &mut out);
        probes::frames(P, &mut out);
        probes::idle_rounds(&mut out);
        probes::accept_fleet_ms(N, &mut out);
        probes::mesh(params, &mut out);
    }
    out
}
