//! Worker ↔ controller signaling channels.
//!
//! Mirrors the paper's message queue between workers and the controller
//! (§4): workers send a few-bytes *ready signal* (their rank plus, for
//! dynamic partial reduce, their current iteration number); the controller
//! replies with a *group assignment* naming the members, the aggregation
//! weights, a tag for the group's collective, and the fast-forwarded
//! iteration number.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use crate::error::CommError;
use crate::Result;

/// A signal from a worker to the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerSignal {
    /// "I finished my local update and am ready for a partial reduce."
    Ready {
        /// Worker rank.
        worker: usize,
        /// The worker's current iteration number (dynamic partial reduce
        /// sends it so the controller can compute staleness weights).
        iteration: u64,
    },
    /// The worker is leaving the computation (end of training).
    Leaving {
        /// Worker rank.
        worker: usize,
    },
    /// Liveness beacon: "I am still here", sent on a fixed period by a
    /// background thread. Carries no training state; the controller uses
    /// arrival times to detect silent (crashed) workers (DESIGN.md §11).
    Heartbeat {
        /// Worker rank.
        worker: usize,
    },
}

/// The controller's reply: the composed group and how to aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAssignment {
    /// Member ranks, in collective order. Every member receives the same
    /// assignment.
    pub group: Vec<usize>,
    /// Aggregation weight per member (aligned with `group`). Sums to 1.
    pub weights: Vec<f32>,
    /// Base tag the group must use for its collective.
    pub base_tag: u64,
    /// Iteration number every member adopts after the reduce
    /// (`max` over the group — §3.3.3).
    pub new_iteration: u64,
}

/// The controller's reply to a fleet of worker *processes* once all of
/// them have joined: every rank's data-plane listener address, indexed
/// by rank, and the fast-forward rule of the controller's mode. Workers
/// dial each other at these addresses for group weighted averages (the
/// controller itself never touches model data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetRoster {
    /// Data-plane listener address per rank.
    pub data_addrs: Vec<String>,
    /// After a reduce, adopt the assignment's `new_iteration` (DYN) rather
    /// than keep the worker's own count (CON) — §3.3.3.
    pub adopt_group_max: bool,
}

/// One event from the controller's signal plane: either a decoded
/// worker signal or the discovery that a worker's connection is gone
/// (socket EOF, hard error, or a desynchronized frame stream). The
/// in-process channel transport never emits `Disconnected` — channel
/// peers vanish silently — so only heartbeat accounting covers them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlEvent {
    /// A worker signal arrived.
    Signal(WorkerSignal),
    /// The worker's control connection is gone.
    Disconnected {
        /// The rank whose connection dropped.
        worker: usize,
    },
}

/// Controller-side transport abstraction: the serving loop
/// (`partial_reduce::runtime::serve_fleet`) works over any implementation
/// — in-process channels ([`ControllerLink`]) or the TCP message queue of
/// the paper's prototype ([`crate::tcp::TcpControllerLink`]).
///
/// Receiving is batched: under a signal storm one receive replaces
/// hundreds of queue round-trips, and [`ControlEvent::Disconnected`]
/// lets the loop evict a SIGKILLed process immediately instead of
/// waiting out the heartbeat budget.
pub trait ControlPlane: Send {
    /// Blocks up to `timeout` for at least one event, then drains
    /// whatever else is immediately available, up to `max` events.
    ///
    /// # Errors
    /// [`CommError::Timeout`] when nothing arrived within `timeout`;
    /// [`CommError::Disconnected`] when the transport is gone entirely.
    fn recv_events(&mut self, max: usize, timeout: Duration) -> Result<Vec<ControlEvent>>;
    /// Sends a group assignment to one worker.
    fn send_assignment(&mut self, worker: usize, assignment: GroupAssignment) -> Result<()>;
    /// Broadcasts an assignment to all its group members.
    fn announce(&mut self, assignment: &GroupAssignment) -> Result<()> {
        for &w in &assignment.group {
            self.send_assignment(w, assignment.clone())?;
        }
        Ok(())
    }
    /// Blocks for the next worker signal, up to `timeout`, skipping
    /// disconnect events. A one-at-a-time convenience for tests and
    /// micro-benchmarks; the serving loop only ever calls
    /// [`ControlPlane::recv_events`].
    fn recv_signal(&mut self, timeout: Duration) -> Result<WorkerSignal> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if let Some(ControlEvent::Signal(signal)) = self.recv_events(1, left)?.pop() {
                return Ok(signal);
            }
        }
    }
}

/// Worker-side transport abstraction; see [`ControlPlane`].
pub trait WorkerControlPlane: Send {
    /// This worker's rank.
    fn rank(&self) -> usize;
    /// Sends the ready signal (Algorithm 2, worker line 5).
    fn send_ready(&mut self, iteration: u64) -> Result<()>;
    /// Announces that this worker is done training.
    fn send_leaving(&mut self) -> Result<()>;
    /// Blocks for the controller's group assignment.
    fn recv_assignment(&mut self, timeout: Duration) -> Result<GroupAssignment>;
    /// Returns a send-only heartbeat closure usable from a background
    /// thread while the main worker loop keeps exclusive use of the
    /// link, or `None` when the transport cannot split its write half.
    /// Each call of the closure emits one [`WorkerSignal::Heartbeat`].
    fn heartbeat_sender(&self) -> Option<Box<dyn FnMut() -> Result<()> + Send>> {
        None
    }
}

/// Observer hook for control-plane traffic, transport-independent: wrap
/// any [`ControlPlane`] in an [`ObservedControlPlane`] and every signal
/// received and assignment sent is reported here — the same hook covers
/// the in-process channels and the TCP message queue. Tracing layers
/// (e.g. `partial_reduce::trace::SinkObserver`) implement this.
pub trait ControlObserver: Send + Sync {
    /// Called after a worker signal is received.
    fn on_signal(&self, _signal: &WorkerSignal) {}
    /// Called before an assignment is sent to `worker`.
    fn on_assignment(&self, _worker: usize, _assignment: &GroupAssignment) {}
}

/// Wraps a [`ControlPlane`], reporting its traffic to a
/// [`ControlObserver`].
pub struct ObservedControlPlane<C> {
    inner: C,
    observer: std::sync::Arc<dyn ControlObserver>,
}

impl<C: ControlPlane> ObservedControlPlane<C> {
    /// Wraps `inner`, forwarding traffic notifications to `observer`.
    pub fn new(inner: C, observer: std::sync::Arc<dyn ControlObserver>) -> Self {
        ObservedControlPlane { inner, observer }
    }

    /// Unwraps the underlying control plane.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: ControlPlane> ControlPlane for ObservedControlPlane<C> {
    fn recv_events(&mut self, max: usize, timeout: Duration) -> Result<Vec<ControlEvent>> {
        let events = self.inner.recv_events(max, timeout)?;
        for event in &events {
            if let ControlEvent::Signal(signal) = event {
                self.observer.on_signal(signal);
            }
        }
        Ok(events)
    }

    fn send_assignment(&mut self, worker: usize, assignment: GroupAssignment) -> Result<()> {
        self.observer.on_assignment(worker, &assignment);
        self.inner.send_assignment(worker, assignment)
    }
}

/// The controller's side of the signaling fabric.
#[derive(Debug)]
pub struct ControllerLink {
    signals: Receiver<WorkerSignal>,
    assignments: Vec<Sender<GroupAssignment>>,
}

/// One worker's side of the signaling fabric.
#[derive(Debug)]
pub struct WorkerLink {
    rank: usize,
    signal_tx: Sender<WorkerSignal>,
    assignment_rx: Receiver<GroupAssignment>,
}

impl ControlPlane for ControllerLink {
    fn recv_events(&mut self, max: usize, timeout: Duration) -> Result<Vec<ControlEvent>> {
        let first = self.signals.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => CommError::Timeout {
                peer: usize::MAX,
                tag: 0,
            },
            RecvTimeoutError::Disconnected => CommError::Disconnected { peer: usize::MAX },
        })?;
        let mut events = vec![ControlEvent::Signal(first)];
        while events.len() < max {
            match self.signals.try_recv() {
                Ok(signal) => events.push(ControlEvent::Signal(signal)),
                Err(_) => break,
            }
        }
        Ok(events)
    }

    fn send_assignment(&mut self, worker: usize, assignment: GroupAssignment) -> Result<()> {
        let tx = self.assignments.get(worker).ok_or(CommError::InvalidRank {
            rank: worker,
            world: self.assignments.len(),
        })?;
        tx.send(assignment)
            .map_err(|_| CommError::Disconnected { peer: worker })
    }
}

impl WorkerControlPlane for WorkerLink {
    fn rank(&self) -> usize {
        self.rank
    }

    fn send_ready(&mut self, iteration: u64) -> Result<()> {
        self.signal_tx
            .send(WorkerSignal::Ready {
                worker: self.rank,
                iteration,
            })
            .map_err(|_| CommError::Disconnected { peer: usize::MAX })
    }

    fn send_leaving(&mut self) -> Result<()> {
        self.signal_tx
            .send(WorkerSignal::Leaving { worker: self.rank })
            .map_err(|_| CommError::Disconnected { peer: usize::MAX })
    }

    fn recv_assignment(&mut self, timeout: Duration) -> Result<GroupAssignment> {
        self.assignment_rx
            .recv_timeout(timeout)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => CommError::Timeout {
                    peer: usize::MAX,
                    tag: 1,
                },
                RecvTimeoutError::Disconnected => CommError::Disconnected { peer: usize::MAX },
            })
    }

    fn heartbeat_sender(&self) -> Option<Box<dyn FnMut() -> Result<()> + Send>> {
        let tx = self.signal_tx.clone();
        let rank = self.rank;
        Some(Box::new(move || {
            tx.send(WorkerSignal::Heartbeat { worker: rank })
                .map_err(|_| CommError::Disconnected { peer: rank })
        }))
    }
}

/// Builds the signaling fabric for `n` workers plus one controller.
///
/// # Panics
/// Panics if `n == 0`.
pub fn control_links(n: usize) -> (ControllerLink, Vec<WorkerLink>) {
    assert!(n > 0, "need at least one worker");
    let (signal_tx, signal_rx) = channel();
    let mut assignment_txs = Vec::with_capacity(n);
    let mut workers = Vec::with_capacity(n);
    for rank in 0..n {
        let (tx, rx) = channel();
        assignment_txs.push(tx);
        workers.push(WorkerLink {
            rank,
            signal_tx: signal_tx.clone(),
            assignment_rx: rx,
        });
    }
    (
        ControllerLink {
            signals: signal_rx,
            assignments: assignment_txs,
        },
        workers,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::from_millis(200);

    #[test]
    fn ready_signal_roundtrip() {
        let (mut ctl, mut workers) = control_links(3);
        workers[1].send_ready(5).unwrap();
        assert_eq!(
            ctl.recv_signal(T).unwrap(),
            WorkerSignal::Ready {
                worker: 1,
                iteration: 5
            }
        );
    }

    #[test]
    fn announce_reaches_all_members() {
        let (mut ctl, mut workers) = control_links(4);
        let a = GroupAssignment {
            group: vec![0, 2],
            weights: vec![0.5, 0.5],
            base_tag: 42,
            new_iteration: 9,
        };
        ctl.announce(&a).unwrap();
        assert_eq!(workers[0].recv_assignment(T).unwrap(), a);
        assert_eq!(workers[2].recv_assignment(T).unwrap(), a);
        // Worker 1 got nothing.
        assert!(workers[1]
            .recv_assignment(Duration::from_millis(10))
            .is_err());
    }

    #[test]
    fn signals_arrive_fifo() {
        let (mut ctl, mut workers) = control_links(3);
        for w in [2usize, 0, 1] {
            workers[w].send_ready(w as u64).unwrap();
        }
        let order: Vec<usize> = (0..3)
            .map(|_| match ctl.recv_signal(T).unwrap() {
                WorkerSignal::Ready { worker, .. } => worker,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, vec![2, 0, 1]);
    }

    #[test]
    fn leaving_signal() {
        let (mut ctl, mut workers) = control_links(1);
        workers[0].send_leaving().unwrap();
        assert_eq!(
            ctl.recv_signal(T).unwrap(),
            WorkerSignal::Leaving { worker: 0 }
        );
    }

    #[test]
    fn observed_plane_reports_traffic() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        #[derive(Default)]
        struct Counter {
            signals: AtomicUsize,
            assignments: AtomicUsize,
        }
        impl ControlObserver for Counter {
            fn on_signal(&self, _signal: &WorkerSignal) {
                self.signals.fetch_add(1, Ordering::Relaxed);
            }
            fn on_assignment(&self, _worker: usize, _assignment: &GroupAssignment) {
                self.assignments.fetch_add(1, Ordering::Relaxed);
            }
        }

        let (ctl, mut workers) = control_links(3);
        let counter = Arc::new(Counter::default());
        let mut observed = ObservedControlPlane::new(ctl, counter.clone());
        workers[0].send_ready(1).unwrap();
        let got = ControlPlane::recv_signal(&mut observed, T).unwrap();
        assert_eq!(
            got,
            WorkerSignal::Ready {
                worker: 0,
                iteration: 1
            }
        );
        let a = GroupAssignment {
            group: vec![0, 2],
            weights: vec![0.5, 0.5],
            base_tag: 0,
            new_iteration: 1,
        };
        observed.announce(&a).unwrap();
        assert_eq!(counter.signals.load(Ordering::Relaxed), 1);
        // announce fans out through send_assignment: one per member.
        assert_eq!(counter.assignments.load(Ordering::Relaxed), 2);
        assert_eq!(workers[0].recv_assignment(T).unwrap(), a);
    }

    #[test]
    fn heartbeats_flow_through_the_signal_queue() {
        let (mut ctl, mut workers) = control_links(2);
        let mut beat = workers[1].heartbeat_sender().expect("channel links split");
        beat().unwrap();
        workers[0].send_ready(3).unwrap();
        assert_eq!(
            ctl.recv_signal(T).unwrap(),
            WorkerSignal::Heartbeat { worker: 1 }
        );
        assert_eq!(
            ctl.recv_signal(T).unwrap(),
            WorkerSignal::Ready {
                worker: 0,
                iteration: 3
            }
        );
    }

    #[test]
    fn batch_recv_drains_queued_signals() {
        let (mut ctl, mut workers) = control_links(4);
        for (w, link) in workers.iter_mut().enumerate() {
            link.send_ready(w as u64).unwrap();
        }
        let events = ctl.recv_events(3, T).unwrap();
        assert_eq!(events.len(), 3, "bounded by max");
        assert!(events
            .iter()
            .all(|e| matches!(e, ControlEvent::Signal(WorkerSignal::Ready { .. }))));
        let rest = ctl.recv_events(64, T).unwrap();
        assert_eq!(rest.len(), 1, "remainder on the next call");
        assert!(matches!(
            ctl.recv_events(64, Duration::from_millis(10)),
            Err(CommError::Timeout { .. })
        ));
    }
}
