//! The paper's prototype control plane: a TCP/IP message queue between the
//! workers and the controller (§4: "we also implement a message queue with
//! TCP/IP protocols for the communication between the controller and the
//! workers ... each message from the workers is only a few bytes").
//!
//! Wire format: 4-byte big-endian length prefix + JSON payload. Every
//! message really is a few dozen bytes; the model data never touches this
//! channel (that is what distinguishes the controller from a parameter
//! server).
//!
//! Topology: the controller binds a listener; each worker dials in and
//! introduces itself with a `Hello { rank }` frame. The controller side
//! is served by the sharded non-blocking reactor of [`crate::reactor`]
//! — a fixed pool of poller threads instead of one blocking thread per
//! socket — and exposes the same batched [`ControlPlane`] interface as
//! the in-process channels.
//!
//! Hardening (DESIGN.md §11): connects retry with exponential backoff
//! under a deadline and fail with the typed
//! [`CommError::ConnectFailed`]; every connected socket carries read and
//! write timeouts so no control-plane operation can block forever; and
//! workers can stream [`WorkerSignal::Heartbeat`] frames so the runtime
//! can turn silence into a detected departure.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use serde::{de::DeserializeOwned, Deserialize, Serialize};

use crate::control::{
    ControlEvent, ControlPlane, FleetRoster, GroupAssignment, WorkerControlPlane, WorkerSignal,
};
use crate::error::CommError;
use crate::frame::{self, MAX_FRAME};
use crate::reactor;
use crate::Result;

/// Read timeout on every connected control-plane socket. Reader threads
/// wake at this period on idle sockets; liveness decisions happen in the
/// runtime (heartbeat accounting), not down here.
pub(crate) const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// Write timeout on every connected control-plane socket. A peer that
/// cannot drain a few-byte frame for this long is treated as gone.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the controller waits for a connected worker's `Hello`.
pub(crate) const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// Consecutive read timeouts tolerated *inside* a frame before the peer
/// is declared gone. Idle timeouts (between frames) are unbounded.
const MID_FRAME_STALLS: u32 = 8;

/// Connect retry policy: exponential backoff under an overall deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum dial attempts (at least one is always made).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt.
    pub initial_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
    /// Overall budget; no new attempt starts past this deadline.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            deadline: Duration::from_secs(5),
        }
    }
}

/// The worker's first frame after connecting. `data_addr` is the
/// worker's data-plane listener address, present only in multi-process
/// deployments (see [`crate::reactor::accept_fleet`]); in-process TCP
/// runs leave it unset and the field is invisible on the wire to older
/// decoders (`serde(default)` + skip-if-none).
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct Hello {
    pub(crate) rank: usize,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub(crate) data_addr: Option<String>,
}

pub(crate) fn write_frame<T: Serialize>(
    stream: &mut TcpStream,
    msg: &T,
    peer: usize,
) -> Result<()> {
    let bytes = frame::encode(msg)?;
    stream
        .write_all(&bytes)
        .map_err(|_| CommError::Disconnected { peer })
}

/// Serializes one whole frame onto a shared socket under its writer
/// mutex (heartbeat thread and worker loop share the write half). A
/// poisoned mutex means another writer panicked, possibly mid-frame, so
/// the stream can no longer be trusted: the peer is reported gone.
pub(crate) fn locked_write<T: Serialize>(
    writer: &Mutex<TcpStream>,
    msg: &T,
    peer: usize,
) -> Result<()> {
    let mut stream = writer
        .lock()
        .map_err(|_| CommError::Disconnected { peer })?;
    // The per-socket writer mutex exists precisely to serialize whole
    // frames onto one socket; nothing else is ever held with it.
    write_frame(&mut stream, msg, peer)
}

/// Reads exactly `buf.len()` bytes, distinguishing the three ways a
/// timed-out socket can fail: an idle timeout before any byte arrives
/// (`Timeout`, retryable — when `idle_ok`), a bounded number of stalls
/// mid-frame (then `Disconnected`), and a real EOF/socket error
/// (`Disconnected`).
#[allow(
    clippy::indexing_slicing,
    reason = "the loop runs only while `filled < buf.len()`"
)]
pub(crate) fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    peer: usize,
    idle_ok: bool,
) -> Result<()> {
    let mut filled = 0usize;
    let mut stalls = 0u32;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(CommError::Disconnected { peer }),
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if idle_ok && filled == 0 {
                    return Err(CommError::Timeout { peer, tag: 0 });
                }
                stalls += 1;
                if stalls >= MID_FRAME_STALLS {
                    return Err(CommError::Disconnected { peer });
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(CommError::Disconnected { peer }),
        }
    }
    Ok(())
}

/// Reads one length-prefixed frame. An idle socket (no frame started
/// before the read timeout) returns `Timeout`; a frame cut off mid-way
/// returns `Disconnected`; a corrupt prefix or payload returns the
/// typed [`CommError::MalformedFrame`].
pub(crate) fn read_frame<T: DeserializeOwned>(stream: &mut TcpStream, peer: usize) -> Result<T> {
    let mut len_buf = [0u8; 4];
    read_full(stream, &mut len_buf, peer, true)?;
    let len = u32::from_be_bytes(len_buf);
    if len >= MAX_FRAME {
        return Err(CommError::MalformedFrame {
            detail: format!("oversized control frame ({len} bytes)"),
        });
    }
    let mut payload = vec![0u8; len as usize];
    read_full(stream, &mut payload, peer, false)?;
    frame::decode(&payload)
}

/// Applies the standard control-plane socket configuration: no Nagle
/// delay, plus read/write timeouts so no operation blocks forever.
pub(crate) fn configure(stream: &TcpStream, peer: usize) -> Result<()> {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .and_then(|_| stream.set_write_timeout(Some(WRITE_TIMEOUT)))
        .map_err(|_| CommError::Disconnected { peer })
}

/// Controller side of the TCP message queue, served by the sharded
/// reactor: shard threads deliver *batches* of [`ControlEvent`]s over
/// one channel; this link buffers a partially consumed batch so a
/// receive bounded by `max` never drops the remainder.
#[derive(Debug)]
pub struct TcpControllerLink {
    events: Receiver<Vec<ControlEvent>>,
    /// Front of the current partially consumed batch.
    pending: VecDeque<ControlEvent>,
    /// Write half per worker, shared with nothing else (reads happen on
    /// the reactor shards' clones).
    writers: Vec<Arc<Mutex<TcpStream>>>,
}

impl TcpControllerLink {
    /// Assembles the link from the reactor's event channel and the
    /// per-worker write halves.
    pub(crate) fn from_reactor(
        events: Receiver<Vec<ControlEvent>>,
        writers: Vec<Arc<Mutex<TcpStream>>>,
    ) -> Self {
        TcpControllerLink {
            events,
            pending: VecDeque::new(),
            writers,
        }
    }

    /// Sends the fleet roster to every connected worker (multi-process
    /// deployments only; see [`reactor::accept_fleet`]).
    pub(crate) fn broadcast_roster(&mut self, roster: &FleetRoster) -> Result<()> {
        for (rank, writer) in self.writers.iter().enumerate() {
            locked_write(writer, roster, rank)?;
        }
        Ok(())
    }
}

/// Binds a controller listener on `addr` (use port 0 for an ephemeral
/// port) and returns the bound address to hand to workers.
///
/// # Panics
/// Panics if the address cannot be bound.
pub fn bind_controller(addr: &str) -> (TcpListener, SocketAddr) {
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        #[allow(
            clippy::panic,
            reason = "startup-only: the documented contract is to panic when the controller listener cannot come up"
        )]
        Err(e) => panic!("bind controller listener on {addr}: {e}"),
    };
    let local = match listener.local_addr() {
        Ok(a) => a,
        #[allow(
            clippy::panic,
            reason = "startup-only: the documented contract is to panic when the controller listener cannot come up"
        )]
        Err(e) => panic!("controller listener has no local address: {e}"),
    };
    (listener, local)
}

/// Accepts exactly `n` workers on `listener` and hands their sockets to
/// the sharded reactor. Returns once every rank 0..n has said hello.
///
/// # Errors
/// Fails if a connection breaks during the handshake or a rank is
/// duplicated/out of range.
pub fn accept_workers(listener: &TcpListener, n: usize) -> Result<TcpControllerLink> {
    reactor::accept_reactor(listener, n).map(|(link, _members)| link)
}

impl ControlPlane for TcpControllerLink {
    fn recv_events(&mut self, max: usize, timeout: Duration) -> Result<Vec<ControlEvent>> {
        if self.pending.is_empty() {
            let batch = self.events.recv_timeout(timeout).map_err(|e| match e {
                RecvTimeoutError::Timeout => CommError::Timeout {
                    peer: usize::MAX,
                    tag: 0,
                },
                RecvTimeoutError::Disconnected => CommError::Disconnected { peer: usize::MAX },
            })?;
            self.pending.extend(batch);
        }
        let mut events = Vec::new();
        while events.len() < max {
            if let Some(ev) = self.pending.pop_front() {
                events.push(ev);
                continue;
            }
            match self.events.try_recv() {
                Ok(batch) => self.pending.extend(batch),
                Err(_) => break,
            }
        }
        Ok(events)
    }

    fn send_assignment(&mut self, worker: usize, assignment: GroupAssignment) -> Result<()> {
        let writer = self.writers.get(worker).ok_or(CommError::InvalidRank {
            rank: worker,
            world: self.writers.len(),
        })?;
        locked_write(writer, &assignment, worker)
    }
}

/// Worker side of the TCP message queue.
///
/// The socket is split: `stream` carries reads (assignments from the
/// controller); `writer` carries every outgoing frame under a mutex so
/// the heartbeat thread and the training loop interleave whole frames.
#[derive(Debug)]
pub struct TcpWorkerLink {
    rank: usize,
    stream: TcpStream,
    writer: Arc<Mutex<TcpStream>>,
}

impl TcpWorkerLink {
    /// Dials the controller with the default [`RetryPolicy`] and
    /// introduces this worker.
    ///
    /// # Errors
    /// [`CommError::ConnectFailed`] once the retry budget is exhausted;
    /// other variants if the handshake fails after connecting.
    pub fn connect(addr: SocketAddr, rank: usize) -> Result<Self> {
        Self::connect_with(addr, rank, RetryPolicy::default())
    }

    /// Dials the controller under `policy` (exponential backoff between
    /// attempts, bounded by `max_attempts` and `deadline`).
    ///
    /// # Errors
    /// [`CommError::ConnectFailed`] carrying the dialed address, the
    /// attempt count, and the last OS error once the budget is
    /// exhausted; other variants if the handshake fails.
    pub fn connect_with(addr: SocketAddr, rank: usize, policy: RetryPolicy) -> Result<Self> {
        Self::dial(addr, rank, policy, None)
    }

    /// Dials the controller of a multi-process fleet: the hello carries
    /// this worker's data-plane listener address, and the controller
    /// replies with the fleet roster (every rank's data address) once
    /// all workers have joined — see [`crate::reactor::accept_fleet`].
    ///
    /// # Errors
    /// [`CommError::ConnectFailed`] once the retry budget is exhausted;
    /// other variants if the handshake or the roster read fails.
    pub fn connect_fleet(
        addr: SocketAddr,
        rank: usize,
        data_addr: String,
        policy: RetryPolicy,
    ) -> Result<(Self, crate::control::FleetRoster)> {
        let mut link = Self::dial(addr, rank, policy, Some(data_addr))?;
        // The roster only arrives after the *last* worker joins; give
        // slow fleets the same generous budget as the hello.
        link.stream
            .set_read_timeout(Some(HELLO_TIMEOUT))
            .map_err(|_| CommError::Disconnected { peer: rank })?;
        let roster: crate::control::FleetRoster = loop {
            match read_frame(&mut link.stream, rank) {
                Ok(r) => break r,
                Err(CommError::Timeout { .. }) => continue,
                Err(e) => return Err(e),
            }
        };
        link.stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|_| CommError::Disconnected { peer: rank })?;
        Ok((link, roster))
    }

    fn dial(
        addr: SocketAddr,
        rank: usize,
        policy: RetryPolicy,
        data_addr: Option<String>,
    ) -> Result<Self> {
        let start = Instant::now();
        let mut backoff = policy.initial_backoff;
        let mut attempts = 0u32;
        let last_error = loop {
            attempts += 1;
            match TcpStream::connect(addr) {
                Ok(stream) => return Self::handshake(stream, rank, data_addr),
                Err(e) => {
                    if attempts >= policy.max_attempts.max(1)
                        || start.elapsed() + backoff > policy.deadline
                    {
                        break e;
                    }
                }
            }
            thread::sleep(backoff);
            backoff = backoff.saturating_mul(2).min(policy.max_backoff);
        };
        Err(CommError::ConnectFailed {
            addr: addr.to_string(),
            attempts,
            error: last_error.to_string(),
        })
    }

    fn handshake(stream: TcpStream, rank: usize, data_addr: Option<String>) -> Result<Self> {
        configure(&stream, rank)?;
        let writer = stream
            .try_clone()
            .map_err(|_| CommError::Disconnected { peer: rank })?;
        let writer = Arc::new(Mutex::new(writer));
        locked_write(&writer, &Hello { rank, data_addr }, rank)?;
        Ok(TcpWorkerLink {
            rank,
            stream,
            writer,
        })
    }
}

impl WorkerControlPlane for TcpWorkerLink {
    fn rank(&self) -> usize {
        self.rank
    }

    fn send_ready(&mut self, iteration: u64) -> Result<()> {
        let signal = WorkerSignal::Ready {
            worker: self.rank,
            iteration,
        };
        locked_write(&self.writer, &signal, self.rank)
    }

    fn send_leaving(&mut self) -> Result<()> {
        let signal = WorkerSignal::Leaving { worker: self.rank };
        locked_write(&self.writer, &signal, self.rank)
    }

    fn recv_assignment(&mut self, timeout: Duration) -> Result<GroupAssignment> {
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|_| CommError::Disconnected { peer: self.rank })?;
        read_frame(&mut self.stream, self.rank)
    }

    fn heartbeat_sender(&self) -> Option<Box<dyn FnMut() -> Result<()> + Send>> {
        let writer = Arc::clone(&self.writer);
        let rank = self.rank;
        Some(Box::new(move || {
            locked_write(&writer, &WorkerSignal::Heartbeat { worker: rank }, rank)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::from_secs(5);

    fn dial(addr: SocketAddr, rank: usize) -> TcpWorkerLink {
        TcpWorkerLink::connect_with(addr, rank, RetryPolicy::default()).expect("dial controller")
    }

    #[test]
    fn tcp_control_roundtrip() {
        let (listener, addr) = bind_controller("127.0.0.1:0");
        let worker = thread::spawn(move || {
            let mut w = dial(addr, 0);
            w.send_ready(7).expect("ready");
            let a = w.recv_assignment(T).expect("assignment");
            w.send_leaving().expect("leaving");
            a
        });
        let mut ctl = accept_workers(&listener, 1).expect("accept");
        match ctl.recv_signal(T).expect("signal") {
            WorkerSignal::Ready { worker, iteration } => {
                assert_eq!(worker, 0);
                assert_eq!(iteration, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
        let assignment = GroupAssignment {
            group: vec![0],
            weights: vec![1.0],
            base_tag: 9,
            new_iteration: 7,
        };
        ctl.send_assignment(0, assignment.clone()).expect("send");
        assert_eq!(worker.join().expect("join"), assignment);
        assert!(matches!(
            ctl.recv_signal(T).expect("signal"),
            WorkerSignal::Leaving { worker: 0 }
        ));
    }

    #[test]
    fn multiple_workers_multiplex_onto_one_queue() {
        let n = 4;
        let (listener, addr) = bind_controller("127.0.0.1:0");
        let workers: Vec<_> = (0..n)
            .map(|rank| {
                thread::spawn(move || {
                    let mut w = dial(addr, rank);
                    w.send_ready(rank as u64 * 10).expect("ready");
                    w.recv_assignment(T).expect("assignment")
                })
            })
            .collect();
        let mut ctl = accept_workers(&listener, n).expect("accept");
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..n {
            match ctl.recv_signal(T).expect("signal") {
                WorkerSignal::Ready { worker, iteration } => {
                    assert_eq!(iteration, worker as u64 * 10);
                    seen.insert(worker);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen.len(), n);
        let a = GroupAssignment {
            group: (0..n).collect(),
            weights: vec![1.0 / n as f32; n],
            base_tag: 0,
            new_iteration: 30,
        };
        ctl.announce(&a).expect("announce");
        for w in workers {
            assert_eq!(w.join().expect("join"), a);
        }
    }

    #[test]
    fn out_of_range_rank_rejected() {
        let (listener, addr) = bind_controller("127.0.0.1:0");
        let w = thread::spawn(move || TcpWorkerLink::connect(addr, 5));
        let r = accept_workers(&listener, 2);
        assert!(matches!(r, Err(CommError::InvalidRank { rank: 5, .. })));
        let _ = w.join().expect("join");
    }

    #[test]
    fn worker_recv_times_out_without_controller_message() {
        let (listener, addr) = bind_controller("127.0.0.1:0");
        let worker = thread::spawn(move || {
            let mut w = dial(addr, 0);
            w.recv_assignment(Duration::from_millis(100))
        });
        let _ctl = accept_workers(&listener, 1).expect("accept");
        let r = worker.join().expect("join");
        assert!(matches!(r, Err(CommError::Timeout { .. })), "{r:?}");
    }

    #[test]
    fn connect_failed_reports_address_and_attempts() {
        // Bind then immediately drop a listener to find a refused port.
        let (listener, addr) = bind_controller("127.0.0.1:0");
        drop(listener);
        let policy = RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            deadline: Duration::from_secs(2),
        };
        match TcpWorkerLink::connect_with(addr, 0, policy) {
            Err(CommError::ConnectFailed {
                addr: dialed,
                attempts,
                error,
            }) => {
                assert_eq!(dialed, addr.to_string());
                assert_eq!(attempts, 3);
                assert!(!error.is_empty(), "OS error text threaded through");
            }
            other => panic!("expected ConnectFailed, got {other:?}"),
        }
    }

    #[test]
    fn heartbeats_multiplex_with_signals() {
        let (listener, addr) = bind_controller("127.0.0.1:0");
        let worker = thread::spawn(move || {
            let w = dial(addr, 0);
            let mut beat = w.heartbeat_sender().expect("tcp links heartbeat");
            beat().expect("beat 1");
            beat().expect("beat 2");
            w
        });
        let mut ctl = accept_workers(&listener, 1).expect("accept");
        for _ in 0..2 {
            assert!(matches!(
                ctl.recv_signal(T).expect("signal"),
                WorkerSignal::Heartbeat { worker: 0 }
            ));
        }
        drop(worker.join().expect("join"));
    }
}
