//! Fault-recovery bench: reaction times of the resilience layer
//! (DESIGN.md §11) plus the accuracy cost of a crash.
//!
//! Three metrics, every sample printed (nothing is written to disk):
//!
//! * **time-to-evict** — wall delta from the injected crash
//!   (`FaultInjected`) to the liveness eviction (`WorkerEvicted`) on the
//!   threaded backend; nominally the silence budget of
//!   [`chaos_liveness`];
//! * **time-to-repair** — wall delta from the eviction to the next
//!   scheduling decision (a formed group, a singleton release, or a
//!   queue drain): how long the survivor set stays blocked;
//! * **post-fault convergence gap** — fault-free minus crashed
//!   final accuracy at an equal update budget on the simulator, CON and
//!   DYN (the dead replica's stale parameters stay in the final uniform
//!   average, so the gap is real but bounded — see the chaos suite).
//!
//! Run: `cargo run --release -p preduce-bench --bin fault_recovery`

#![forbid(unsafe_code)]

use std::sync::{Arc, Mutex};
use std::time::Instant;

use partial_reduce::{NullSink, TraceEvent, TraceSink};
use preduce_data::cifar10_like;
use preduce_models::zoo;
use preduce_trainer::engine::drivers::preduce::chaos_liveness;
use preduce_trainer::{engine, Backend, ElasticOptions, ExperimentConfig, FaultPlan, Strategy};

/// Threaded crash runs measured.
const RUNS: usize = 5;
/// Update budget of each simulated convergence-gap run.
const MAX_UPDATES: u64 = 300;

/// Wall-clock-stamps every trace event (milliseconds since sink
/// creation) so reaction times can be measured from the stream.
struct TimedSink {
    start: Instant,
    events: Mutex<Vec<(f64, TraceEvent)>>,
}

impl TimedSink {
    fn new() -> Self {
        TimedSink {
            start: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    fn snapshot(&self) -> Vec<(f64, TraceEvent)> {
        self.events
            .lock()
            .map(|g| g.clone())
            .unwrap_or_else(|p| p.into_inner().clone())
    }
}

impl TraceSink for TimedSink {
    fn record(&self, event: TraceEvent) {
        let t = self.start.elapsed().as_secs_f64() * 1e3;
        match self.events.lock() {
            Ok(mut g) => g.push((t, event)),
            Err(p) => p.into_inner().push((t, event)),
        }
    }
}

/// One threaded crash run: N=4 / P=2, rank 3 fail-stops after 4
/// iterations and the liveness monitor must evict it. Returns
/// (time-to-evict, time-to-repair) in milliseconds.
fn crash_reaction() -> (Option<f64>, Option<f64>) {
    let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
    c.num_workers = 4;
    c.threaded_iters = Some(12);
    let sink = Arc::new(TimedSink::new());
    let run = engine::run_elastic(
        Strategy::PReduce {
            p: 2,
            dynamic: false,
        },
        &c,
        Backend::Threaded,
        sink.clone(),
        FaultPlan::none().crash(3, 4),
        ElasticOptions::none(),
    )
    .expect("the run stays within the detector's clock");
    assert_eq!(
        run.controller.expect("p-reduce reports stats").evictions,
        1,
        "crash was not evicted"
    );

    let events = sink.snapshot();
    let fault = events
        .iter()
        .find(|(_, e)| matches!(e, TraceEvent::FaultInjected { worker: 3, .. }))
        .map(|(t, _)| *t);
    let evict = events
        .iter()
        .position(|(_, e)| matches!(e, TraceEvent::WorkerEvicted { worker: 3, .. }));
    let (Some(fault_ms), Some(evict_idx)) = (fault, evict) else {
        return (None, None);
    };
    let evict_ms = events[evict_idx].0;
    let repair = events[evict_idx + 1..]
        .iter()
        .find(|(_, e)| {
            matches!(
                e,
                TraceEvent::GroupFormed { .. }
                    | TraceEvent::SingletonIssued { .. }
                    | TraceEvent::PendingDrained { .. }
            )
        })
        .map(|(t, _)| t - evict_ms);
    (Some(evict_ms - fault_ms), repair)
}

/// Equal-budget accuracy gap on the simulator: fault-free minus a run
/// where rank 3 crashes at iteration 20 (N=8 / P=4).
fn convergence_gap(dynamic: bool, max_updates: u64) -> f64 {
    let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
    c.num_workers = 8;
    c.threshold = 0.999; // unreachable: fixed-budget comparison
    c.max_updates = max_updates;
    c.eval_every = 100;
    let s = Strategy::PReduce { p: 4, dynamic };
    let golden = engine::run(s, &c, Backend::Sim, Arc::new(NullSink));
    let faulted = engine::run_elastic(
        s,
        &c,
        Backend::Sim,
        Arc::new(NullSink),
        FaultPlan::none().crash(3, 20),
        ElasticOptions::none(),
    )
    .expect("the run stays within the detector's clock");
    golden.result.final_accuracy - faulted.result.final_accuracy
}

fn main() {
    let policy = chaos_liveness();
    println!(
        "fault-recovery bench: {RUNS} threaded crash runs, liveness = \
         {:?} every, {} misses, nominal eviction after {:?}",
        policy.heartbeat_interval(),
        policy.miss_threshold(),
        policy.eviction_after()
    );

    for i in 0..RUNS {
        let (evict, repair) = crash_reaction();
        println!(
            "  run {i}: evict {} repair {}",
            evict.map_or("n/a".into(), |t| format!("{t:.1}ms")),
            repair.map_or("n/a".into(), |t| format!("{t:.1}ms")),
        );
    }
    println!(
        "  post-fault convergence gap: CON {:+.3}, DYN {:+.3}",
        convergence_gap(false, MAX_UPDATES),
        convergence_gap(true, MAX_UPDATES)
    );
}
