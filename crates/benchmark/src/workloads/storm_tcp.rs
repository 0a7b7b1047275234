//! `storm-tcp`: control-plane capacity. One driver thread plays a fleet of
//! N=64 loopback sockets against `serve_fleet` behind the reactor bring-up
//! `preduce controller` uses: every wave sends all N ready signals, then
//! collects all N assignments. Constant weights, P=8, no model data.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use partial_reduce::runtime::{serve_fleet, ControllerStats, RuntimeOptions};
use partial_reduce::{ControllerConfig, NullSink, SinkObserver, TraceEvent, TraceSink};
use preduce_comm::control::{ObservedControlPlane, WorkerControlPlane};
use preduce_comm::tcp::TcpWorkerLink;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::catalog::Workload;
use crate::harness::{Ctx, Meter, Outcome};
use crate::probes;
use crate::stamping::{rep_sink, Stamped};
use crate::stats::{median, tail, Summary};

/// Group size.
pub const P: usize = 8;

/// Longest the driver waits for one assignment; a wave normally completes
/// in milliseconds, so reaching this is a failed operation and ends the
/// repetition.
const ASSIGNMENT_TIMEOUT: Duration = Duration::from_secs(10);

/// The serving configuration. Group-frozen avoidance is off: it defers a
/// group while it waits for a signal from another sync-graph component,
/// which is safe because real workers signal independently — but a wave
/// holds every worker back until the whole wave is answered, so the last
/// group of a wave would wait forever. The filter's cost is what the
/// scale workloads measure; this one measures the transport and the
/// serving loop.
fn controller_config(n: usize) -> ControllerConfig {
    ControllerConfig {
        frozen_avoidance: false,
        ..ControllerConfig::constant(n, P)
    }
}

struct Fleet {
    setup_s: f64,
    links: Vec<TcpWorkerLink>,
    server: thread::JoinHandle<ControllerStats>,
}

/// Brings the fleet up exactly as `engine::process::run_controller` does
/// after its bind: reactor handshake, roster, observed link, serving loop.
fn bring_up(n: usize, sink: Arc<dyn TraceSink>) -> Option<Fleet> {
    let probes::FleetUp {
        seconds: setup_s,
        controller,
        members,
        links,
    } = probes::fleet_bring_up(n)?;
    let joined: Vec<(usize, String)> = members
        .iter()
        .map(|m| (m.rank, m.peer_addr.clone()))
        .collect();
    let observed = ObservedControlPlane::new(controller, Arc::new(SinkObserver::new(sink.clone())));
    let server = thread::spawn(move || {
        serve_fleet(
            controller_config(n),
            observed,
            &joined,
            RuntimeOptions {
                sink,
                ..RuntimeOptions::default()
            },
        )
    });
    Some(Fleet {
        setup_s,
        links,
        server,
    })
}

struct Rep {
    setup_s: f64,
    /// Milliseconds from a wave's first `send_ready` to its last
    /// assignment received.
    wave_ms: Vec<f64>,
    /// Rounds lost to a failed send or a timed-out assignment.
    failed: u64,
    stats: Option<ControllerStats>,
}

fn run_rep(n: usize, waves: u64, seed: u64, sink: Arc<dyn TraceSink>) -> Option<Rep> {
    let Fleet {
        setup_s,
        mut links,
        server,
    } = bring_up(n, sink.clone())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wave_ms = Vec::with_capacity(waves as usize);
    let mut failed = 0u64;
    'waves: for wave in 1..=waves {
        // Workers do not become ready in rank order: each wave signals in
        // its own seeded order (drawn before the wave's clock starts).
        links.shuffle(&mut rng);
        let start = Instant::now();
        for link in &mut links {
            if link.send_ready(wave).is_err() {
                failed = (waves - wave + 1) * n as u64;
                break 'waves;
            }
        }
        for link in &mut links {
            match link.recv_assignment(ASSIGNMENT_TIMEOUT) {
                // The driver is the worker side of the trace: with no
                // model to average, its reduce completes on receipt.
                Ok(a) if sink.enabled() => sink.record(TraceEvent::ReduceCompleted {
                    worker: link.rank(),
                    members: a.group,
                    new_iteration: a.new_iteration,
                }),
                Ok(_) => {}
                Err(_) => {
                    failed = (waves - wave + 1) * n as u64;
                    break 'waves;
                }
            }
        }
        wave_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    for link in &mut links {
        let _ = link.send_leaving();
    }
    // Closing the sockets ends the serving loop even after a failed wave.
    drop(links);
    let stats = server.join().ok();
    Some(Rep {
        setup_s,
        wave_ms,
        failed,
        stats,
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(Workload::StormTcp);
    let n = ctx.sizes.storm_fleet;
    let waves = ctx.sizes.storm_waves;
    let mut meter = Meter::default();
    let mut setups = Vec::new();
    // Per untraced repetition: the median wave and, where ten waves lie
    // beyond it, the 95th percentile.
    let (mut wave_p50, mut wave_p95) = (Vec::new(), Vec::new());
    let mut stamped = Stamped::default();

    // Every repetition brings up a fresh fleet, so set-up is sampled once
    // per repetition, warm-up included.
    match run_rep(n, waves.min(20), ctx.seed, Arc::new(NullSink)) {
        Some(warm) => setups.push(warm.setup_s),
        None => out.tally.fail(1, || "warm-up fleet did not come up".into()),
    }

    for rep in 0..ctx.reps {
        let traced = ctx.rep_is_traced(rep);
        let (stamping, sink) = rep_sink(traced);
        let clock = meter.start();
        let Some(result) = run_rep(n, waves, ctx.seed.wrapping_add(rep as u64), sink) else {
            out.tally
                .fail(1, || format!("fleet of {n} did not come up"));
            continue;
        };
        let wall_s = result.wave_ms.iter().sum::<f64>() / 1e3;
        meter.finish(clock, (n as u64 * waves) as f64, wall_s, traced);
        setups.push(result.setup_s);

        out.tally.attempt(n as u64 * waves);
        out.tally.fail(result.failed, || {
            format!(
                "{} rounds lost to a failed send or a timed-out assignment",
                result.failed
            )
        });
        match result.stats {
            Some(stats) => {
                let expected = waves * (n / P) as u64;
                out.tally.check(stats.groups_formed == expected, || {
                    format!("{} groups formed, expected {expected}", stats.groups_formed)
                });
                out.tally.fail(stats.singletons + stats.evictions, || {
                    format!(
                        "{} singletons, {} evictions",
                        stats.singletons, stats.evictions
                    )
                });
                out.counts.insert("groups_per_rep", stats.groups_formed);
            }
            None => out.tally.fail(1, || "serving loop did not return".into()),
        }
        if (!traced || ctx.reps == 1) && !result.wave_ms.is_empty() {
            wave_p50.push(median(&result.wave_ms));
            wave_p95.extend(tail(&result.wave_ms, 0.95));
        }

        if let Some(s) = stamping {
            stamped.absorb(&s, &mut out);
        }
    }

    out.file_common(ctx, &meter, &setups);
    if !wave_p50.is_empty() {
        out.end_to_end.insert("wave_p50_ms", Summary::of(&wave_p50));
    }
    if !wave_p95.is_empty() {
        out.end_to_end.insert("wave_p95_ms", Summary::of(&wave_p95));
    }

    if ctx.traced {
        stamped.file(&mut out);
        probes::frames(P, &mut out);
        probes::idle_rounds(&mut out);
        // Bring-up of this workload's own fleet size is its set-up.
        out.layers
            .insert("comm.reactor.accept_fleet_ms", median(&setups) * 1e3);
    }
    out
}
