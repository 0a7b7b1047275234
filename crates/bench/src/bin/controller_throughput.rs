//! Controller-throughput bench: synthetic ready-signal storms against the
//! batch-ingesting serving loop (`partial_reduce::runtime::serve_fleet`).
//!
//! Two storms seed `BENCH_controller_throughput.json` (written to the
//! current directory — run from the workspace root):
//!
//! * **channel storm** — N = 1024 virtual clients over the in-process
//!   control links, measuring the serving loop + FIFO scheduler alone
//!   (no sockets): signals/sec and the ready→assignment latency per
//!   signal under full-fleet waves;
//! * **TCP storm** — as many real loopback sockets as the fd budget
//!   allows (`/proc/self/limits`), exercising the poll-based reactor,
//!   frame batching, and the same serving loop end to end.
//!
//! Each storm runs in synchronized *waves*: every client signals ready,
//! then every assignment is collected, then the next wave starts. A wave
//! keeps the controller's queue saturated (N pending signals ingest as
//! batches) while guaranteeing drain — N is a multiple of P, so every
//! wave forms exactly N/P groups and no client is left pending.
//!
//! Run: `cargo run --release -p preduce-bench --bin controller_throughput`
//! (set `PREDUCE_QUICK=1` for fewer waves)

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use partial_reduce::runtime::{serve_fleet, ControllerStats, RuntimeOptions};
use partial_reduce::ControllerConfig;
use preduce_bench::configs::quick_mode;
use preduce_comm::control::{control_links, WorkerControlPlane};
use preduce_comm::tcp::{bind_controller, RetryPolicy, TcpWorkerLink};
use serde::Serialize;

/// Virtual clients in the channel storm (the acceptance floor is 1000).
const CHANNEL_CLIENTS: usize = 1024;
/// Group size for both storms.
const GROUP_SIZE: usize = 8;
/// Driver threads multiplexing the clients.
const DRIVERS: usize = 16;
/// Blocking budget per assignment during a storm.
const STORM_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Serialize)]
struct LatencySummary {
    mean_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    max_ms: f64,
    samples: usize,
}

fn summarize(mut xs: Vec<f64>) -> LatencySummary {
    assert!(!xs.is_empty(), "no latency samples collected");
    xs.sort_by(|a, b| a.total_cmp(b));
    let q = |p: f64| xs[((xs.len() - 1) as f64 * p).round() as usize];
    LatencySummary {
        mean_ms: xs.iter().sum::<f64>() / xs.len() as f64,
        p50_ms: q(0.50),
        p95_ms: q(0.95),
        max_ms: *xs.last().expect("non-empty"),
        samples: xs.len(),
    }
}

#[derive(Serialize)]
struct StormReport {
    clients: usize,
    group_size: usize,
    waves: usize,
    signals: u64,
    elapsed_s: f64,
    signals_per_sec: f64,
    group_formation_latency_ms: LatencySummary,
    groups_formed: u64,
}

#[derive(Serialize)]
struct ControllerThroughputBench {
    bench: &'static str,
    generated_by: &'static str,
    runs: usize,
    channel_storm: StormReport,
    tcp_storm: StormReport,
}

/// Drives `links` through `waves` full-fleet signal waves from `DRIVERS`
/// threads. Returns (per-signal latencies in ms, elapsed seconds).
fn drive_storm<W: WorkerControlPlane + Send + 'static>(
    links: Vec<W>,
    waves: usize,
) -> (Vec<f64>, f64) {
    let n = links.len();
    let drivers = DRIVERS.min(n);
    let chunk = n / drivers;
    let mut chunks: Vec<Vec<W>> = Vec::with_capacity(drivers);
    let mut iter = links.into_iter();
    for _ in 0..drivers {
        chunks.push(iter.by_ref().take(chunk).collect());
    }
    chunks.last_mut().expect("at least one driver").extend(iter);

    let barrier = Arc::new(Barrier::new(drivers));
    let start = Instant::now();
    let handles: Vec<_> = chunks
        .into_iter()
        .map(|mut links| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut latencies = Vec::with_capacity(links.len() * waves);
                let mut sent = Vec::with_capacity(links.len());
                for wave in 0..waves {
                    sent.clear();
                    for link in links.iter_mut() {
                        let t = Instant::now();
                        link.send_ready(wave as u64 + 1).expect("send ready");
                        sent.push(t);
                    }
                    for (link, t) in links.iter_mut().zip(&sent) {
                        link.recv_assignment(STORM_TIMEOUT).expect("assignment");
                        latencies.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                    // Wave barrier: the queue fully drains before the next
                    // storm front, so no client ever double-signals.
                    barrier.wait();
                }
                for link in links.iter_mut() {
                    let _ = link.send_leaving();
                }
                latencies
            })
        })
        .collect();
    let mut latencies = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("driver thread"));
    }
    (latencies, start.elapsed().as_secs_f64())
}

fn report(
    n: usize,
    waves: usize,
    latencies: Vec<f64>,
    elapsed: f64,
    stats: ControllerStats,
) -> StormReport {
    let signals = (n * waves) as u64;
    StormReport {
        clients: n,
        group_size: GROUP_SIZE,
        waves,
        signals,
        elapsed_s: elapsed,
        signals_per_sec: signals as f64 / elapsed,
        group_formation_latency_ms: summarize(latencies),
        groups_formed: stats.groups_formed,
    }
}

/// In-process channel storm: N virtual clients, no sockets.
fn channel_storm(waves: usize) -> StormReport {
    let n = CHANNEL_CLIENTS;
    let cfg = ControllerConfig::constant(n, GROUP_SIZE);
    let (ctl, workers) = control_links(n);
    let joined: Vec<(usize, String)> = (0..n).map(|r| (r, format!("virtual-{r}"))).collect();
    let server = thread::spawn(move || serve_fleet(cfg, ctl, &joined, RuntimeOptions::default()));
    let (latencies, elapsed) = drive_storm(workers, waves);
    let stats = server.join().expect("serve thread");
    report(n, waves, latencies, elapsed, stats)
}

/// Soft open-file limit, for sizing the TCP storm below the fd budget.
fn fd_budget() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3))
                .and_then(|v| v.parse::<usize>().ok())
        })
        .unwrap_or(1024)
}

/// Real-socket storm through the reactor. Client count adapts to the fd
/// budget (each client costs one socket on each side of loopback).
fn tcp_storm(waves: usize, quick: bool) -> StormReport {
    let cap = if quick { 64 } else { 256 };
    let n_raw = (fd_budget().saturating_sub(128) / 3).clamp(GROUP_SIZE, cap);
    let n = n_raw - n_raw % GROUP_SIZE;
    let cfg = ControllerConfig::constant(n, GROUP_SIZE);
    let (listener, addr) = bind_controller("127.0.0.1:0");

    // Dial from background threads while the reactor accepts: the
    // listener backlog is smaller than the fleet, so connects must
    // overlap accepts (the retry policy absorbs transient refusals).
    let dialers: Vec<_> = (0..n)
        .map(|rank| {
            thread::spawn(move || {
                TcpWorkerLink::connect_with(addr, rank, RetryPolicy::default())
                    .expect("storm client connect")
            })
        })
        .collect();
    let ctl = preduce_comm::tcp::accept_workers(&listener, n).expect("accept storm fleet");
    let workers: Vec<TcpWorkerLink> = dialers
        .into_iter()
        .map(|h| h.join().expect("dialer thread"))
        .collect();

    let joined: Vec<(usize, String)> = (0..n).map(|r| (r, format!("tcp-{r}"))).collect();
    let server = thread::spawn(move || serve_fleet(cfg, ctl, &joined, RuntimeOptions::default()));
    let (latencies, elapsed) = drive_storm(workers, waves);
    let stats = server.join().expect("serve thread");
    report(n, waves, latencies, elapsed, stats)
}

fn main() {
    let quick = quick_mode();
    let channel_waves = if quick { 3 } else { 10 };
    let tcp_waves = if quick { 3 } else { 8 };
    println!(
        "controller-throughput bench: {CHANNEL_CLIENTS} channel clients x \
         {channel_waves} waves, TCP storm x {tcp_waves} waves (quick mode = {quick})"
    );

    let channel = channel_storm(channel_waves);
    println!(
        "  channel storm: {} clients, {:.0} signals/sec, p50 latency {:.2}ms, p95 {:.2}ms",
        channel.clients,
        channel.signals_per_sec,
        channel.group_formation_latency_ms.p50_ms,
        channel.group_formation_latency_ms.p95_ms
    );
    let tcp = tcp_storm(tcp_waves, quick);
    println!(
        "  tcp storm: {} clients, {:.0} signals/sec, p50 latency {:.2}ms, p95 {:.2}ms",
        tcp.clients,
        tcp.signals_per_sec,
        tcp.group_formation_latency_ms.p50_ms,
        tcp.group_formation_latency_ms.p95_ms
    );

    let out = ControllerThroughputBench {
        bench: "controller_throughput",
        generated_by: "cargo run --release -p preduce-bench --bin controller_throughput",
        runs: 2,
        channel_storm: channel,
        tcp_storm: tcp,
    };
    let json = serde_json::to_string_pretty(&out).expect("bench report serializes");
    std::fs::write("BENCH_controller_throughput.json", json)
        .expect("write BENCH_controller_throughput.json");
    println!("wrote BENCH_controller_throughput.json");
}
