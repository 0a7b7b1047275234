//! Instrument (a): a [`TraceSink`] that stamps every event with the wall
//! clock as it is recorded, and the pairing of stamped events into the
//! spans of one worker round.
//!
//! The crates' `TraceEvent`s carry no time, so the stamp is taken here, at
//! `record()`: it is the moment the emitting layer reached that boundary,
//! plus the sink's own lock. One round of one worker is
//!
//! ```text
//! SignalEnqueued ─queue_wait─ GroupFormed ─dispatch─ AssignmentSent ─reduce─ ReduceCompleted ─cycle─ SignalEnqueued …
//! ```
//!
//! and a drain-out singleton replaces the first two boundaries with
//! `SingletonIssued`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use partial_reduce::{InvariantChecker, NullSink, TraceEvent, TraceSink};

use crate::harness::Outcome;
use crate::span::SpanLog;
use crate::stats::{median, tail};

/// Records `(nanoseconds since creation, event)` pairs in memory.
#[derive(Debug)]
pub struct StampingSink {
    origin: Instant,
    events: Mutex<Vec<(u64, TraceEvent)>>,
}

impl Default for StampingSink {
    fn default() -> Self {
        StampingSink::new()
    }
}

impl StampingSink {
    /// An empty sink whose clock starts now.
    pub fn new() -> Self {
        StampingSink {
            origin: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// The sink's time origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Takes the stamped events recorded so far, in recording order.
    pub fn take(&self) -> Vec<(u64, TraceEvent)> {
        // A recorder that panicked mid-push leaves the vector valid.
        std::mem::take(&mut *self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl TraceSink for StampingSink {
    fn record(&self, event: TraceEvent) {
        let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        // Stamped under the lock, so stamps are monotone in vector order.
        let at = u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
        events.push((at, event));
    }
}

/// The sink of one repetition: a fresh [`StampingSink`] when it is traced,
/// the disabled [`NullSink`] when it is not.
pub fn rep_sink(traced: bool) -> (Option<Arc<StampingSink>>, Arc<dyn TraceSink>) {
    match traced.then(|| Arc::new(StampingSink::new())) {
        Some(s) => (Some(s.clone()), s),
        None => (None, Arc::new(NullSink)),
    }
}

/// Latency samples and counts of a workload's traced repetitions.
#[derive(Debug, Default)]
pub struct Stamped {
    queue_wait_us: Vec<f64>,
    dispatch_us: Vec<f64>,
    reduce_us: Vec<f64>,
    cycle_us: Vec<f64>,
    singletons: u64,
    evictions: u64,
    events: u64,
}

impl Stamped {
    /// Takes one traced repetition's events out of `sink`: pairs them into
    /// spans and samples, and checks them — the whole stream against the
    /// paper's invariants, and, where workers drain out, that no singleton
    /// was issued before the first departure. Returns the pairing.
    pub fn absorb(&mut self, sink: &StampingSink, out: &mut Outcome) -> Paired {
        let stamped = sink.take();
        self.events += stamped.len() as u64;
        let shift = out.spans.nanos_at(sink.origin());
        let mut paired = pair(&stamped, &mut out.spans, shift);
        out.tally.fail(paired.singletons_outside_drain, || {
            format!(
                "{} singletons before any departure",
                paired.singletons_outside_drain
            )
        });
        let events: Vec<TraceEvent> = stamped.into_iter().map(|(_, e)| e).collect();
        let verdict = InvariantChecker::check(&events);
        out.tally.fail(verdict.violations.len() as u64, || {
            format!(
                "{} invariant violations, first: {}",
                verdict.violations.len(),
                verdict.violations[0]
            )
        });
        self.queue_wait_us.append(&mut paired.queue_wait_us);
        self.dispatch_us.append(&mut paired.dispatch_us);
        self.reduce_us.append(&mut paired.reduce_us);
        self.cycle_us.append(&mut paired.cycle_us);
        self.singletons += paired.singletons;
        self.evictions += paired.evictions;
        paired
    }

    /// Files the runtime rows: a median where there are samples, a p95
    /// only with ten samples beyond it.
    pub fn file(&self, out: &mut Outcome) {
        let layers = &mut out.layers;
        for (name, samples) in [
            ("core.runtime.queue_wait_us_p50", &self.queue_wait_us),
            ("core.runtime.dispatch_us_p50", &self.dispatch_us),
            ("core.runtime.reduce_us_p50", &self.reduce_us),
            ("core.runtime.cycle_us_p50", &self.cycle_us),
        ] {
            if !samples.is_empty() {
                layers.insert(name, median(samples));
            }
        }
        for (name, samples) in [
            ("core.runtime.queue_wait_us_p95", &self.queue_wait_us),
            ("core.runtime.reduce_us_p95", &self.reduce_us),
        ] {
            if let Some(p95) = tail(samples, 0.95) {
                layers.insert(name, p95);
            }
        }
        layers.insert("core.runtime.singletons", self.singletons as f64);
        layers.insert("core.runtime.evictions", self.evictions as f64);
        layers.insert("core.runtime.trace_events", self.events as f64);
    }
}

/// What one worker did between two of its stamped boundaries.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerClock {
    enqueued: Option<u64>,
    formed: Option<u64>,
    sent: Option<u64>,
    completed: Option<u64>,
    rounds: u64,
    first_enqueued: Option<u64>,
    last_completed: Option<u64>,
}

/// Latency samples and counts paired out of one stamped run.
#[derive(Debug, Default)]
pub struct Paired {
    /// `SignalEnqueued → GroupFormed`, microseconds, one per member.
    pub queue_wait_us: Vec<f64>,
    /// `GroupFormed`/`SingletonIssued → AssignmentSent`, microseconds.
    pub dispatch_us: Vec<f64>,
    /// `AssignmentSent → ReduceCompleted`, microseconds.
    pub reduce_us: Vec<f64>,
    /// `ReduceCompleted →` the worker's next `SignalEnqueued`.
    pub cycle_us: Vec<f64>,
    /// Groups formed.
    pub groups: u64,
    /// Groups the filter repaired.
    pub repairs: u64,
    /// Singleton assignments issued.
    pub singletons: u64,
    /// Singletons issued before any worker had departed — outside drain.
    pub singletons_outside_drain: u64,
    /// Workers evicted.
    pub evictions: u64,
    /// Per worker: completed rounds and the `(first enqueue, last
    /// completion)` window they happened in, nanoseconds.
    pub activity: Vec<(u64, Option<(u64, u64)>)>,
}

impl Paired {
    /// Rounds per second of `ranks`, each over its own active window,
    /// summed — what those workers sustain while they are running.
    pub fn rounds_per_s_of(&self, ranks: impl IntoIterator<Item = usize>) -> f64 {
        ranks
            .into_iter()
            .filter_map(|r| self.activity.get(r))
            .filter_map(|&(rounds, window)| {
                let (first, last) = window?;
                (last > first).then(|| rounds as f64 / ((last - first) as f64 * 1e-9))
            })
            .sum()
    }
}

fn us(from: u64, to: u64) -> f64 {
    to.saturating_sub(from) as f64 / 1e3
}

/// Pairs stamped events into per-round spans (appended to `log`, shifted
/// onto its origin by `shift_ns`) and latency samples.
pub fn pair(stamped: &[(u64, TraceEvent)], log: &mut SpanLog, shift_ns: u64) -> Paired {
    let mut out = Paired::default();
    let mut clocks: Vec<WorkerClock> = Vec::new();
    let mut departed = false;
    fn clock(clocks: &mut Vec<WorkerClock>, worker: usize) -> &mut WorkerClock {
        if clocks.len() <= worker {
            clocks.resize(worker + 1, WorkerClock::default());
        }
        &mut clocks[worker]
    }
    for (at, event) in stamped {
        let at = *at;
        match event {
            TraceEvent::SignalEnqueued { worker, .. } => {
                let c = clock(&mut clocks, *worker);
                if let Some(done) = c.completed.take() {
                    out.cycle_us.push(us(done, at));
                    log.push(
                        "core.runtime.cycle",
                        done + shift_ns,
                        at + shift_ns,
                        None,
                        round_id(*worker, c.rounds),
                    );
                }
                c.enqueued = Some(at);
                c.first_enqueued.get_or_insert(at);
            }
            TraceEvent::GroupFormed {
                members, repaired, ..
            } => {
                out.groups += 1;
                out.repairs += u64::from(*repaired);
                for &m in members {
                    let c = clock(&mut clocks, m);
                    if let Some(enq) = c.enqueued {
                        out.queue_wait_us.push(us(enq, at));
                    }
                    c.formed = Some(at);
                }
            }
            TraceEvent::SingletonIssued { worker, .. } => {
                out.singletons += 1;
                out.singletons_outside_drain += u64::from(!departed);
                let c = clock(&mut clocks, *worker);
                c.enqueued = None;
                c.formed = Some(at);
            }
            TraceEvent::AssignmentSent { worker, .. } => {
                let c = clock(&mut clocks, *worker);
                if let Some(formed) = c.formed {
                    out.dispatch_us.push(us(formed, at));
                }
                c.sent = Some(at);
            }
            TraceEvent::ReduceCompleted { worker, .. } => {
                let c = clock(&mut clocks, *worker);
                let round = round_id(*worker, c.rounds);
                if let Some(sent) = c.sent.take() {
                    out.reduce_us.push(us(sent, at));
                    // The round span opens at the enqueue, or for a drain
                    // singleton (never enqueued) at its issue.
                    let formed = c.formed.take();
                    let start = c.enqueued.take().or(formed).unwrap_or(sent);
                    let parent = log.push(
                        "core.runtime.round",
                        start + shift_ns,
                        at + shift_ns,
                        None,
                        round,
                    );
                    let formed = formed.unwrap_or(sent);
                    let mut child = |name: &str, a: u64, b: u64| {
                        if b > a {
                            log.push(name, a + shift_ns, b + shift_ns, Some(parent), round);
                        }
                    };
                    child("core.runtime.queue_wait", start, formed);
                    child("core.runtime.dispatch", formed, sent);
                    child("core.runtime.reduce", sent, at);
                }
                c.completed = Some(at);
                c.last_completed = Some(at);
                c.rounds += 1;
            }
            TraceEvent::WorkerLeft { .. } => departed = true,
            TraceEvent::WorkerEvicted { .. } => {
                departed = true;
                out.evictions += 1;
            }
            _ => {}
        }
    }
    out.activity = clocks
        .iter()
        .map(|c| (c.rounds, c.first_enqueued.zip(c.last_completed)))
        .collect();
    out
}

/// One id per (worker, round): spans of a round share it.
fn round_id(worker: usize, round: u64) -> u64 {
    ((worker as u64) << 40) | round
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::self_nanos_by_name;

    fn enq(worker: usize, iteration: u64) -> TraceEvent {
        TraceEvent::SignalEnqueued {
            worker,
            iteration,
            queued: 1,
        }
    }
    fn formed(members: &[usize], repaired: bool) -> TraceEvent {
        TraceEvent::GroupFormed {
            sequence: 0,
            members: members.to_vec(),
            iterations: vec![1; members.len()],
            weights: vec![1.0 / members.len() as f32; members.len()],
            new_iteration: 1,
            repaired,
        }
    }
    fn sent(worker: usize, members: &[usize]) -> TraceEvent {
        TraceEvent::AssignmentSent {
            worker,
            members: members.to_vec(),
            base_tag: 0,
        }
    }
    fn done(worker: usize, members: &[usize]) -> TraceEvent {
        TraceEvent::ReduceCompleted {
            worker,
            members: members.to_vec(),
            new_iteration: 1,
        }
    }

    /// Two workers: one repaired group, a second round for worker 0's
    /// cycle, then worker 1 leaves and worker 0 drains as a singleton.
    #[test]
    fn pairs_a_repaired_group_and_a_drain_singleton() {
        let g = [0, 1];
        let stamped = vec![
            (1_000, enq(0, 1)),
            (3_000, enq(1, 1)),
            (4_000, formed(&g, true)),
            (4_500, sent(0, &g)),
            (5_000, sent(1, &g)),
            (9_000, done(1, &g)),
            (9_500, done(0, &g)),
            (12_500, enq(0, 2)),
            (
                13_000,
                TraceEvent::WorkerLeft {
                    worker: 1,
                    active: 1,
                    purged_signal: false,
                },
            ),
            (
                14_000,
                TraceEvent::SingletonIssued {
                    worker: 0,
                    iteration: 2,
                },
            ),
            (14_200, sent(0, &[0])),
            (14_300, done(0, &[0])),
        ];
        let mut log = SpanLog::new();
        let p = pair(&stamped, &mut log, 0);

        assert_eq!((p.groups, p.repairs, p.singletons), (1, 1, 1));
        assert_eq!((p.singletons_outside_drain, p.evictions), (0, 0));
        assert_eq!(p.queue_wait_us, [3.0, 1.0]);
        assert_eq!(p.dispatch_us, [0.5, 1.0, 0.2]);
        assert_eq!(p.reduce_us, [4.0, 5.0, 0.1]);
        assert_eq!(p.cycle_us, [3.0]);
        assert_eq!(p.activity[0], (2, Some((1_000, 14_300))));
        assert_eq!(p.activity[1], (1, Some((3_000, 9_000))));
        // Worker 1: one round in 6 µs; worker 0: two rounds in 13.3 µs.
        let rate = p.rounds_per_s_of([1]);
        assert!((rate - 1.0 / 6e-6).abs() < 1.0, "{rate}");

        let rounds: Vec<_> = log
            .spans()
            .iter()
            .filter(|s| s.name == "core.runtime.round")
            .collect();
        assert_eq!(rounds.len(), 3);
        // The singleton round opens at its issue: it was never enqueued.
        assert_eq!((rounds[2].start_ns, rounds[2].end_ns), (14_000, 14_300));
        for s in log.spans().iter().filter(|s| s.parent.is_some()) {
            let parent = &log.spans()[s.parent.unwrap() as usize];
            assert_eq!(parent.round, s.round);
            assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
        }
        // Children tile their round exactly, so rounds have no self time.
        assert_eq!(self_nanos_by_name(log.spans())["core.runtime.round"], 0);
    }

    #[test]
    fn a_singleton_before_any_departure_is_flagged_and_evictions_count() {
        let stamped = vec![
            (
                10,
                TraceEvent::SingletonIssued {
                    worker: 0,
                    iteration: 1,
                },
            ),
            (
                20,
                TraceEvent::WorkerEvicted {
                    worker: 1,
                    active: 1,
                },
            ),
        ];
        let p = pair(&stamped, &mut SpanLog::new(), 0);
        assert_eq!(
            (p.singletons, p.singletons_outside_drain, p.evictions),
            (1, 1, 1)
        );
    }

    #[test]
    fn sink_stamps_are_monotone() {
        let sink = StampingSink::new();
        for i in 0..100 {
            sink.record(enq(0, i));
        }
        let events = sink.take();
        assert_eq!(events.len(), 100);
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(sink.take().is_empty());
    }
}
