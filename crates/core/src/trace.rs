//! Structured event tracing for the P-Reduce control plane.
//!
//! The controller (Fig. 6), the threaded runtime, the virtual-time
//! simulator, and the TCP control plane all narrate their decisions as a
//! single stream of [`TraceEvent`]s — one event vocabulary covering both
//! harnesses, mirroring the "one implementation, two harnesses" design.
//! The stream serves two purposes:
//!
//! * **observability** — a post-mortem JSONL dump ([`JsonlSink`]) or a
//!   bounded in-memory ring ([`RingSink`]) of every scheduling decision;
//! * **trace-driven testing** — [`crate::invariants::InvariantChecker`]
//!   replays a trace and asserts the paper's contracts (group size,
//!   doubly-stochastic weights, fast-forward, frozen-group repair, …).
//!
//! Tracing is strictly pay-for-what-you-use: every emission site is gated
//! on [`TraceSink::enabled`], and the default [`NullSink`] reports
//! `false`, so the hot path ([`crate::Controller::try_form_group`])
//! performs no allocation and takes no lock when tracing is off.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::controller::ControllerConfig;
use crate::liveness::LivenessPolicy;
use preduce_comm::control::{ControlObserver, GroupAssignment};

/// One control-plane event.
///
/// Events are emitted in causal order per trace: all controller-side
/// events are totally ordered by the controller (single thread or single
/// event loop); worker-side [`TraceEvent::ReduceCompleted`] events
/// interleave, but always after the [`TraceEvent::GroupFormed`] that
/// assigned them and before the member's next
/// [`TraceEvent::SignalEnqueued`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A controller came up with this configuration. First event of every
    /// trace; the invariant checker reads `N`, `P`, the aggregation mode
    /// and the liveness policy from it.
    RunStarted {
        /// The controller configuration.
        config: ControllerConfig,
        /// The policy the fleet's failure detector evicts by; `None` when
        /// nothing watches the fleet, and in traces written before the
        /// field existed.
        #[serde(default)]
        liveness: Option<LivenessPolicy>,
    },
    /// A ready signal entered the signal queue (Algorithm 2 lines 6–7).
    SignalEnqueued {
        /// Worker rank.
        worker: usize,
        /// The iteration number the worker reported.
        iteration: u64,
        /// Queue depth after the enqueue.
        queued: usize,
    },
    /// A ready signal from a departed worker was discarded.
    SignalRejected {
        /// Worker rank.
        worker: usize,
        /// The iteration number the worker reported.
        iteration: u64,
    },
    /// The group filter held the queue back: every queued signal sits in
    /// one frozen sync-graph component and a FIFO group would deepen the
    /// freeze (§4).
    GroupDeferred {
        /// Queue depth at the deferral.
        queued: usize,
        /// Workers still participating.
        active: usize,
    },
    /// A partial-reduce group was formed (Algorithm 2 lines 3–5).
    GroupFormed {
        /// 0-based sequence number of the group.
        sequence: u64,
        /// Member ranks in collective order.
        members: Vec<usize>,
        /// Iteration numbers the members reported, aligned with `members`.
        iterations: Vec<u64>,
        /// Aggregation weights, aligned with `members`; sums to 1.
        weights: Vec<f32>,
        /// The iteration number every member adopts (group max, §3.3.3).
        new_iteration: u64,
        /// Whether the group filter repaired a frozen schedule.
        repaired: bool,
    },
    /// The control plane delivered a group assignment to one worker
    /// (transport-level; emitted via [`SinkObserver`]).
    AssignmentSent {
        /// Destination worker rank.
        worker: usize,
        /// Member ranks of the assignment.
        members: Vec<usize>,
        /// Base tag for the group's collective.
        base_tag: u64,
    },
    /// A member finished its weighted group average (worker side in the
    /// threaded runtime; reduce application in the simulator).
    ReduceCompleted {
        /// The reporting member's rank.
        worker: usize,
        /// Member ranks of the completed group.
        members: Vec<usize>,
        /// The adopted iteration number.
        new_iteration: u64,
    },
    /// A worker left the computation.
    WorkerLeft {
        /// Worker rank.
        worker: usize,
        /// Workers still participating after the departure.
        active: usize,
        /// Whether a queued ready signal of the departing worker was
        /// purged from the signal queue.
        purged_signal: bool,
    },
    /// The signal queue was drained without forming groups (shutdown: the
    /// active fleet shrank below `P`).
    PendingDrained {
        /// The drained `(worker, iteration)` pairs, FIFO.
        signals: Vec<(usize, u64)>,
    },
    /// A singleton (local no-op) assignment was issued during drain-out.
    SingletonIssued {
        /// Worker rank.
        worker: usize,
        /// The worker's reported iteration (also the adopted one).
        iteration: u64,
    },
    /// A planned fault was applied to a worker (chaos runs only; see
    /// DESIGN.md §11). The label is the substrate-independent
    /// `FaultKind::label()` string (e.g. `crash@40`).
    FaultInjected {
        /// Worker rank the fault targets.
        worker: usize,
        /// Compact fault label, stable across substrates.
        fault: String,
        /// The worker's iteration when the fault took effect.
        iteration: u64,
    },
    /// A worker process completed the control-plane handshake of a
    /// multi-process fleet (see `preduce controller`). Emitted once per
    /// rank, before any of that worker's signals.
    ProcessJoined {
        /// Worker rank.
        worker: usize,
        /// Peer address of the worker's control connection.
        addr: String,
    },
    /// A worker process's control connection dropped — socket EOF, a
    /// hard error, or a desynchronized frame stream. The serving loop
    /// routes this through [`TraceEvent::WorkerEvicted`] immediately
    /// (no need to wait out the heartbeat budget: a closed socket is
    /// proof of death, unlike silence).
    ProcessDisconnected {
        /// Worker rank.
        worker: usize,
    },
    /// The failure detector counted one more silent window for a worker
    /// (one event per count, `1, 2, …`).
    HeartbeatMissed {
        /// Worker rank.
        worker: usize,
        /// Consecutive windows missed so far (1-based).
        misses: u64,
    },
    /// The controller declared a worker dead (heartbeat silence or a
    /// dropped connection) and is about to route it through
    /// [`TraceEvent::WorkerLeft`] (the eviction is an involuntary
    /// departure; the repair path is shared).
    WorkerEvicted {
        /// Worker rank.
        worker: usize,
        /// Workers still participating after the eviction.
        active: usize,
    },
    /// A worker's checkpoint was durably written (DESIGN.md §14). Only
    /// workers snapshot: the controller keeps no durable state.
    SnapshotTaken {
        /// Snapshotted worker rank.
        worker: usize,
        /// The worker's local iteration at the snapshot.
        iteration: u64,
    },
    /// A previously departed worker rejoined from a checkpoint
    /// (DESIGN.md §14). The invariant checker requires the rank to have
    /// actually departed, and its next ready signal to resume from
    /// `iteration` — a restored worker may not time-travel.
    WorkerRestored {
        /// Restored worker rank.
        worker: usize,
        /// The local iteration the snapshot carried; the worker's next
        /// signal reports `iteration + 1`.
        iteration: u64,
        /// Workers participating after the restore.
        active: usize,
    },
    /// The run ended; closing counters for cross-checking.
    RunFinished {
        /// Total groups formed.
        groups_formed: u64,
        /// Frozen-schedule repairs performed.
        repairs: u64,
        /// Group-formation deferrals.
        deferrals: u64,
        /// Singleton assignments issued during drain-out.
        singletons: u64,
    },
}

/// A consumer of [`TraceEvent`]s.
///
/// Implementations must be thread-safe: the threaded runtime records from
/// the controller thread and every worker thread concurrently.
pub trait TraceSink: Send + Sync {
    /// Whether events should be constructed at all. Emission sites gate on
    /// this so a disabled sink costs one virtual call and nothing else —
    /// no allocation, no lock.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event. May be called concurrently.
    fn record(&self, event: TraceEvent);

    /// Flushes buffered output (no-op for in-memory sinks).
    fn flush(&self) {}
}

/// The default sink: tracing off. [`TraceSink::enabled`] is `false`, so
/// instrumented code skips event construction entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: TraceEvent) {}
}

// Sinks are best-effort by contract (see `JsonlSink`): a panicking
// recorder thread must not take tracing down with it, so poisoned locks
// are recovered via `PoisonError::into_inner` instead of propagated.
struct RingInner {
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A bounded in-memory sink: retains the most recent `capacity` events,
/// counting (and dropping) the overflow. Suited to tests and to always-on
/// flight recording.
pub struct RingSink {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl RingSink {
    /// Creates a ring retaining the last `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingSink {
            capacity,
            inner: Mutex::new(RingInner {
                buf: VecDeque::with_capacity(capacity.min(1024)),
                dropped: 0,
            }),
        }
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.buf.iter().cloned().collect()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .buf
            .len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .dropped
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: TraceEvent) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if inner.buf.len() == self.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(event);
    }
}

/// A sink that appends one JSON object per line — the post-mortem dump
/// format consumed by `preduce trace --check` and
/// [`crate::invariants::InvariantChecker::check_jsonl`].
///
/// Writes are best-effort: I/O errors are counted, not propagated, so a
/// full disk never takes down a training run. A caller that needs the
/// trace flushes the sink and reads [`JsonlSink::write_errors`]. The
/// writer is the only lock; the count is atomic, so no call ever holds
/// two locks.
pub struct JsonlSink {
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
    write_errors: AtomicU64,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(file)))
    }

    /// Wraps an arbitrary writer.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            writer: Mutex::new(BufWriter::new(writer)),
            write_errors: AtomicU64::new(0),
        }
    }

    /// Failed writes and flushes so far: events lost to serialization or
    /// I/O errors, and buffered bytes a flush could not deliver. Zero
    /// after a [`TraceSink::flush`] means the whole trace reached the
    /// writer.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    fn count_error(&self) {
        self.write_errors.fetch_add(1, Ordering::Relaxed);
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: TraceEvent) {
        let Ok(line) = serde_json::to_string(&event) else {
            self.count_error();
            return;
        };
        let mut w = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if writeln!(w, "{line}").is_err() {
            self.count_error();
        }
    }

    fn flush(&self) {
        // Flushing the buffered writer needs its own lock; nothing else is
        // ever held here.
        let mut w = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if w.flush().is_err() {
            self.count_error();
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Streams a JSONL trace through `each`, one event per line; the file is
/// never materialized. The one reader behind [`read_jsonl`] and
/// [`crate::invariants::InvariantChecker::check_jsonl`].
///
/// Empty lines are skipped; a malformed line is an
/// [`io::ErrorKind::InvalidData`] error naming its line number.
pub fn stream_jsonl<P: AsRef<Path>>(path: P, mut each: impl FnMut(TraceEvent)) -> io::Result<()> {
    let file = std::fs::File::open(path)?;
    let reader = io::BufReader::new(file);
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let event: TraceEvent = serde_json::from_str(&line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("trace line {}: {e}", idx + 1),
            )
        })?;
        each(event);
    }
    Ok(())
}

/// Reads a JSONL trace back into events ([`stream_jsonl`] into a `Vec`).
pub fn read_jsonl<P: AsRef<Path>>(path: P) -> io::Result<Vec<TraceEvent>> {
    let mut events = Vec::new();
    stream_jsonl(path, |event| events.push(event))?;
    Ok(events)
}

/// Bridges the comm-layer [`ControlObserver`] hook onto a [`TraceSink`]:
/// every assignment the control plane delivers becomes a
/// [`TraceEvent::AssignmentSent`]. This is how the TCP message queue and
/// the in-process channels share the trace vocabulary.
pub struct SinkObserver {
    sink: Arc<dyn TraceSink>,
}

impl SinkObserver {
    /// Wraps `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        SinkObserver { sink }
    }
}

impl ControlObserver for SinkObserver {
    fn on_assignment(&self, worker: usize, assignment: &GroupAssignment) {
        if self.sink.enabled() {
            self.sink.record(TraceEvent::AssignmentSent {
                worker,
                members: assignment.group.clone(),
                base_tag: assignment.base_tag,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64) -> TraceEvent {
        TraceEvent::GroupFormed {
            sequence: seq,
            members: vec![0, 1],
            iterations: vec![3, 4],
            weights: vec![0.5, 0.5],
            new_iteration: 4,
            repaired: false,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let s = NullSink;
        assert!(!s.enabled());
        s.record(sample(0)); // no-op, must not panic
    }

    #[test]
    fn ring_sink_bounds_and_counts_drops() {
        let s = RingSink::new(2);
        assert!(s.is_empty());
        for i in 0..5 {
            s.record(sample(i));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        let snap = s.snapshot();
        assert!(
            matches!(snap[0], TraceEvent::GroupFormed { sequence: 3, .. }),
            "{snap:?}"
        );
        assert!(
            matches!(snap[1], TraceEvent::GroupFormed { sequence: 4, .. }),
            "{snap:?}"
        );
    }

    #[test]
    fn jsonl_roundtrip() {
        let dir = std::env::temp_dir().join("preduce-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.record(TraceEvent::SignalEnqueued {
                worker: 3,
                iteration: 7,
                queued: 1,
            });
            sink.record(sample(0));
            sink.flush();
            assert_eq!(sink.write_errors(), 0);
        }
        let events = read_jsonl(&path).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0],
            TraceEvent::SignalEnqueued {
                worker: 3,
                iteration: 7,
                queued: 1
            }
        );
        assert_eq!(events[1], sample(0));
        let _ = std::fs::remove_file(&path);
    }

    /// Accepts every byte and then fails to deliver them.
    struct FailingFlush;

    impl Write for FailingFlush {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("device full"))
        }
    }

    #[test]
    fn a_failed_flush_counts_as_a_write_error() {
        // The event fits in the buffer, so only the flush can lose it.
        let sink = JsonlSink::new(Box::new(FailingFlush));
        sink.record(sample(0));
        assert_eq!(sink.write_errors(), 0);
        sink.flush();
        assert_eq!(sink.write_errors(), 1);
    }

    #[test]
    fn read_jsonl_rejects_garbage() {
        let dir = std::env::temp_dir().join("preduce-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.jsonl");
        // An object that is no event, and the controller `SnapshotTaken`
        // line (`worker: null`) that older traces carry.
        let worker_snapshot = r#"{"SnapshotTaken":{"worker":3,"iteration":4}}"#;
        for bad in [
            r#"{"not": "an event"}"#,
            r#"{"SnapshotTaken":{"worker":null,"iteration":4}}"#,
        ] {
            std::fs::write(&path, format!("{worker_snapshot}\n{bad}\n")).unwrap();
            let err = read_jsonl(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad}");
            assert!(err.to_string().contains("trace line 2"), "{bad}: {err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sink_observer_records_assignments() {
        let ring = Arc::new(RingSink::new(16));
        let obs = SinkObserver::new(ring.clone());
        let a = GroupAssignment {
            group: vec![1, 2],
            weights: vec![0.5, 0.5],
            base_tag: 64,
            new_iteration: 9,
        };
        obs.on_assignment(2, &a);
        let snap = ring.snapshot();
        assert_eq!(
            snap,
            vec![TraceEvent::AssignmentSent {
                worker: 2,
                members: vec![1, 2],
                base_tag: 64,
            }]
        );
    }
}
