//! The paper's prototype control plane: a TCP/IP message queue between the
//! workers and the controller (§4: "we also implement a message queue with
//! TCP/IP protocols for the communication between the controller and the
//! workers ... each message from the workers is only a few bytes").
//!
//! Wire format ([`crate::frame`]): a 4-byte big-endian length prefix, a
//! one-byte message kind, then the message's fixed little-endian fields.
//! A ready signal is 17 bytes on the wire and a P-member assignment
//! 29 + 8·P; the model data never touches this channel (that is what
//! distinguishes the controller from a parameter server).
//!
//! Topology: the controller binds a listener; each worker dials in and
//! introduces itself with a `Hello { rank }` frame that carries the wire
//! version; a peer on another version is refused. The controller side,
//! [`TcpControllerLink`], owns every accepted socket and is driven by
//! the serving thread itself: a receive blocks in one `poll(2)` over all
//! of them and reads only the ready ones, so a signal wakes exactly the
//! thread that schedules it. It exposes the same batched
//! [`ControlPlane`] interface as the in-process channels.
//!
//! Hardening (DESIGN.md §11): connects retry with exponential backoff
//! under a deadline and fail with the typed
//! [`CommError::ConnectFailed`]; every blocking socket (a worker's, and
//! the controller's until the handshake is done) carries read and write
//! timeouts so no operation blocks forever, and the controller never
//! blocks on a socket after that; workers can stream
//! [`WorkerSignal::Heartbeat`] frames so the runtime can turn silence
//! into a detected departure.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use preduce_tensor::sys::poll_readable;

use crate::control::{
    ControlEvent, ControlPlane, GroupAssignment, WorkerControlPlane, WorkerSignal,
};
use crate::error::CommError;
use crate::frame::{self, FrameBuffer, Message, MAX_FRAME};
use crate::reactor;
use crate::Result;

/// Default read timeout on a blocking control-plane socket, so no read
/// waits forever; each blocking read sets the budget it needs (the
/// hello, the roster, an assignment). Liveness decisions happen in the
/// runtime (heartbeat accounting), not down here.
const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// Write timeout on a blocking control-plane socket. A peer that cannot
/// drain a few-byte frame for this long is treated as gone. The
/// controller's sockets stop blocking once the handshake is done, so
/// this bounds its hello and roster writes only.
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
/// runs leave it unset. On the wire it also carries
/// [`frame::WIRE_VERSION`], which the controller checks on decode.
#[derive(Debug)]
pub(crate) struct Hello {
    pub(crate) rank: usize,
    pub(crate) data_addr: Option<String>,
}

pub(crate) fn write_frame<T: Message>(stream: &mut TcpStream, msg: &T, peer: usize) -> Result<()> {
    let bytes = frame::encode(msg)?;
    stream
        .write_all(&bytes)
        .map_err(|_| CommError::Disconnected { peer })
}

/// Serializes one whole frame onto a shared socket under its writer
/// mutex (heartbeat thread and worker loop share the write half). A
/// poisoned mutex means another writer panicked, possibly mid-frame, so
/// the stream can no longer be trusted: the peer is reported gone.
pub(crate) fn locked_write<T: Message>(
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

/// One `read` into `buf` under a socket read timeout, sorting out the
/// three ways it can fail: an idle timeout before any byte of the frame
/// arrived (`Timeout`, retryable), a stall mid-frame (`Ok(0)` up to
/// [`MID_FRAME_STALLS`] in a row, then `Disconnected`), and EOF or a
/// socket error (`Disconnected`). `EINTR` is retried. `started` says
/// whether part of the frame is already in hand.
fn read_some(
    stream: &mut TcpStream,
    buf: &mut [u8],
    peer: usize,
    started: bool,
    stalls: &mut u32,
) -> Result<usize> {
    loop {
        match stream.read(buf) {
            Ok(0) => return Err(CommError::Disconnected { peer }),
            Ok(n) => {
                *stalls = 0;
                return Ok(n);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if !started {
                    return Err(CommError::Timeout { peer, tag: 0 });
                }
                *stalls += 1;
                return if *stalls >= MID_FRAME_STALLS {
                    Err(CommError::Disconnected { peer })
                } else {
                    Ok(0)
                };
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(CommError::Disconnected { peer }),
        }
    }
}

/// Reads exactly `buf.len()` bytes under [`read_some`]'s rules; `idle_ok`
/// lets a timeout before the first byte return `Timeout`.
#[allow(
    clippy::indexing_slicing,
    reason = "the loop runs only while `filled < buf.len()`"
)]
fn read_full(stream: &mut TcpStream, buf: &mut [u8], peer: usize, idle_ok: bool) -> Result<()> {
    let mut filled = 0usize;
    let mut stalls = 0u32;
    while filled < buf.len() {
        let started = !idle_ok || filled > 0;
        filled += read_some(stream, &mut buf[filled..], peer, started, &mut stalls)?;
    }
    Ok(())
}

/// Reads one length-prefixed frame and not a byte more, so whatever the
/// peer sent after it stays in the socket: the controller reads each
/// `Hello` this way before the socket joins its poll set. An idle socket
/// (no frame started before the read timeout) returns `Timeout`; a frame
/// cut off mid-way returns `Disconnected`; a corrupt prefix or payload
/// returns the typed [`CommError::MalformedFrame`].
pub(crate) fn read_frame<T: Message>(stream: &mut TcpStream, peer: usize) -> Result<T> {
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

/// Controller side of the TCP message queue. It owns one socket and one
/// [`FrameBuffer`] per rank, and the serving thread drives it directly:
/// [`ControlPlane::recv_events`] blocks in one `poll(2)` over the open
/// sockets, reads the ready ones, and returns what they decoded — no
/// reader thread, no channel between the socket and the scheduler.
///
/// The sockets are non-blocking, so the serving thread never waits on one
/// peer: a half-sent frame stays in its buffer until the rest arrives,
/// and an assignment write that fails, including one that finds the
/// peer's send buffer full, closes that socket. Socket EOF, a hard error,
/// a desynchronized frame stream and a failed write all surface as
/// [`ControlEvent::Disconnected`] for that rank, once.
#[derive(Debug)]
pub struct TcpControllerLink {
    /// Indexed by rank.
    peers: Vec<Peer>,
    /// Events decoded but not yet returned: a receive is bounded by `max`.
    pending: VecDeque<ControlEvent>,
    /// Positions `poll` reported ready, reused across receives.
    ready: Vec<usize>,
    /// Socket read buffer, reused across receives. A worker signal is
    /// 17 bytes, so 4 KiB holds 240 of them; a fuller socket is read again.
    scratch: Vec<u8>,
}

/// One rank's control connection; `stream` is `None` once it closed.
#[derive(Debug)]
struct Peer {
    stream: Option<TcpStream>,
    frames: FrameBuffer,
}

/// Calls `wait` with what is left until `deadline`, again whenever it
/// was interrupted by a signal (`EINTR`).
fn retry_interrupted(
    deadline: Instant,
    mut wait: impl FnMut(Duration) -> io::Result<()>,
) -> io::Result<()> {
    loop {
        match wait(deadline.saturating_duration_since(Instant::now())) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            done => return done,
        }
    }
}

impl TcpControllerLink {
    /// Takes over the handshaken sockets, in rank order.
    pub(crate) fn new(streams: Vec<TcpStream>) -> Result<Self> {
        let mut peers = Vec::with_capacity(streams.len());
        for (rank, stream) in streams.into_iter().enumerate() {
            stream
                .set_nonblocking(true)
                .map_err(|_| CommError::Disconnected { peer: rank })?;
            peers.push(Peer {
                stream: Some(stream),
                frames: FrameBuffer::new(),
            });
        }
        Ok(TcpControllerLink {
            peers,
            pending: VecDeque::new(),
            ready: Vec::new(),
            scratch: vec![0; 4 * 1024],
        })
    }

    /// Waits until the open sockets yield at least one event, or until
    /// `timeout` has passed.
    fn fill(&mut self, timeout: Duration) -> Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.peers.iter().all(|p| p.stream.is_none()) {
                return Err(CommError::Disconnected { peer: usize::MAX });
            }
            let mut ready = std::mem::take(&mut self.ready);
            let peers = &self.peers;
            retry_interrupted(deadline, |left| {
                let fds = peers.iter().map(|p| p.stream.as_ref().map(AsFd::as_fd));
                poll_readable(fds, left, &mut ready)
            })
            .map_err(|_| CommError::Disconnected { peer: usize::MAX })?;
            for &rank in &ready {
                self.pump(rank);
            }
            self.ready = ready;
            if !self.pending.is_empty() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(CommError::Timeout {
                    peer: usize::MAX,
                    tag: 0,
                });
            }
        }
    }

    /// Reads what `rank`'s socket holds and queues every whole frame; a
    /// hang-up, a hard error or a malformed frame closes the socket.
    fn pump(&mut self, rank: usize) {
        let Some(Peer {
            stream: Some(stream),
            frames,
        }) = self.peers.get_mut(rank)
        else {
            return;
        };
        let open = loop {
            match stream.read(&mut self.scratch) {
                Ok(0) => break false,
                Ok(n) => {
                    frames.push_bytes(self.scratch.get(..n).unwrap_or_default());
                    // A short read took everything there was; poll reports
                    // whatever arrives later.
                    if n < self.scratch.len() {
                        break true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break false,
            }
        };
        let in_sync = loop {
            match frames.next_frame::<WorkerSignal>() {
                Ok(Some(signal)) => self.pending.push_back(ControlEvent::Signal(signal)),
                Ok(None) => break true,
                Err(_) => break false,
            }
        };
        if !(open && in_sync) {
            self.close(rank);
        }
    }

    /// Closes `rank`'s socket and queues its one `Disconnected`.
    fn close(&mut self, rank: usize) {
        if let Some(peer) = self.peers.get_mut(rank) {
            if peer.stream.take().is_some() {
                self.pending
                    .push_back(ControlEvent::Disconnected { worker: rank });
            }
        }
    }
}

/// Binds a controller listener on `addr` (use port 0 for an ephemeral
/// port) and returns the bound address to hand to workers.
///
/// # Errors
/// [`CommError::BindFailed`] if `addr` does not parse or resolve, or the
/// OS refuses to bind it.
pub fn try_bind_controller(addr: &str) -> Result<(TcpListener, SocketAddr)> {
    let failed = |e: io::Error| CommError::BindFailed {
        addr: addr.to_string(),
        error: e.to_string(),
    };
    let listener = TcpListener::bind(addr).map_err(failed)?;
    let local = listener.local_addr().map_err(failed)?;
    Ok((listener, local))
}

/// [`try_bind_controller`] for callers whose address cannot fail to bind
/// (tests and benchmarks on `127.0.0.1:0`).
///
/// # Panics
/// Panics if the address cannot be bound.
pub fn bind_controller(addr: &str) -> (TcpListener, SocketAddr) {
    match try_bind_controller(addr) {
        Ok(bound) => bound,
        #[allow(
            clippy::panic,
            reason = "startup-only: the documented contract is to panic when the controller listener cannot come up"
        )]
        Err(e) => panic!("bind controller listener: {e}"),
    }
}

/// Accepts exactly `n` workers on `listener` and hands their sockets to
/// a [`TcpControllerLink`]. Returns once every rank 0..n has said hello.
///
/// # Errors
/// Fails if a connection breaks during the handshake or a rank is
/// duplicated/out of range.
pub fn accept_workers(listener: &TcpListener, n: usize) -> Result<TcpControllerLink> {
    let (streams, _members) = reactor::accept(listener, n)?;
    TcpControllerLink::new(streams)
}

impl ControlPlane for TcpControllerLink {
    fn recv_events(&mut self, max: usize, timeout: Duration) -> Result<Vec<ControlEvent>> {
        if self.pending.is_empty() {
            self.fill(timeout)?;
        }
        let take = max.min(self.pending.len());
        Ok(self.pending.drain(..take).collect())
    }

    fn send_assignment(&mut self, worker: usize, assignment: GroupAssignment) -> Result<()> {
        let world = self.peers.len();
        let peer = self.peers.get_mut(worker).ok_or(CommError::InvalidRank {
            rank: worker,
            world,
        })?;
        let stream = peer
            .stream
            .as_mut()
            .ok_or(CommError::Disconnected { peer: worker })?;
        match write_frame(stream, &assignment, worker) {
            // A failed write may have sent part of the frame. Closing the
            // socket makes EOF the next thing the peer reads after it,
            // never another frame.
            Err(gone @ CommError::Disconnected { .. }) => {
                self.close(worker);
                Err(gone)
            }
            sent => sent,
        }
    }
}

/// Worker side of the TCP message queue.
///
/// The socket is split: `stream` carries reads (assignments from the
/// controller); `writer` carries every outgoing frame under a mutex so
/// the heartbeat thread and the training loop interleave whole frames.
///
/// A receive costs one `read` when the frame is already in the socket:
/// it reads up to `READ_CHUNK` bytes into `inbox`, which keeps any
/// bytes past the frame for the next call, and it calls `setsockopt`
/// only when the asked timeout differs from `read_timeout`.
#[derive(Debug)]
pub struct TcpWorkerLink {
    rank: usize,
    stream: TcpStream,
    writer: Arc<Mutex<TcpStream>>,
    /// Bytes read but not yet returned as a frame.
    inbox: FrameBuffer,
    /// The read timeout the socket carries now.
    read_timeout: Duration,
}

/// Most bytes one worker `read` takes: a whole assignment for P ≤ 60,
/// on the stack. A `BufReader`'s 8 KiB per link would cost a 64-worker
/// fleet half a MiB of heap.
const READ_CHUNK: usize = 512;

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
        link.set_read_timeout(HELLO_TIMEOUT)?;
        // Read exactly: a roster is a kilobyte or more, and the inbox
        // would keep that capacity for the link's lifetime.
        let roster: crate::control::FleetRoster = loop {
            match read_frame(&mut link.stream, rank) {
                Ok(r) => break r,
                Err(CommError::Timeout { .. }) => continue,
                Err(e) => return Err(e),
            }
        };
        link.set_read_timeout(READ_TIMEOUT)?;
        Ok((link, roster))
    }

    /// Sets the socket's read timeout, skipping the syscall when it
    /// already carries `timeout`.
    fn set_read_timeout(&mut self, timeout: Duration) -> Result<()> {
        if timeout != self.read_timeout {
            self.stream
                .set_read_timeout(Some(timeout))
                .map_err(|_| CommError::Disconnected { peer: self.rank })?;
            self.read_timeout = timeout;
        }
        Ok(())
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
            inbox: FrameBuffer::new(),
            read_timeout: READ_TIMEOUT,
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

    /// Reads only when `inbox` holds no whole frame, under `read_some`'s
    /// rules: an idle timeout is `Timeout` and leaves the link in step
    /// for the next call.
    fn recv_assignment(&mut self, timeout: Duration) -> Result<GroupAssignment> {
        self.set_read_timeout(timeout)?;
        let mut chunk = [0u8; READ_CHUNK];
        let mut stalls = 0u32;
        loop {
            if let Some(assignment) = self.inbox.next_frame()? {
                return Ok(assignment);
            }
            let started = self.inbox.pending() > 0;
            let n = read_some(
                &mut self.stream,
                &mut chunk,
                self.rank,
                started,
                &mut stalls,
            )?;
            self.inbox.push_bytes(chunk.get(..n).unwrap_or_default());
        }
    }

    fn heartbeat_sender(&self) -> Box<dyn FnMut() -> Result<()> + Send> {
        let writer = Arc::clone(&self.writer);
        let rank = self.rank;
        Box::new(move || locked_write(&writer, &WorkerSignal::Heartbeat { worker: rank }, rank))
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
            let mut beat = w.heartbeat_sender();
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

    /// `n` workers dialled from this thread (the kernel completes each
    /// connect before the controller accepts it), then the controller.
    fn fleet(n: usize) -> (TcpControllerLink, Vec<TcpWorkerLink>) {
        let (listener, addr) = bind_controller("127.0.0.1:0");
        let workers: Vec<_> = (0..n).map(|rank| dial(addr, rank)).collect();
        (accept_workers(&listener, n).expect("accept"), workers)
    }

    #[test]
    fn an_idle_link_times_out_no_earlier_than_asked() {
        let (mut ctl, _workers) = fleet(2);
        for asked in [Duration::from_millis(30), Duration::from_micros(1500)] {
            let start = Instant::now();
            let r = ctl.recv_events(64, asked);
            assert!(matches!(r, Err(CommError::Timeout { .. })), "{r:?}");
            assert!(
                start.elapsed() >= asked,
                "{:?} < {asked:?}",
                start.elapsed()
            );
        }
    }

    #[test]
    fn sub_millisecond_timeouts_wait_a_millisecond_instead_of_spinning() {
        let (mut ctl, _workers) = fleet(1);
        let start = Instant::now();
        for _ in 0..100 {
            let r = ctl.recv_events(64, Duration::from_micros(100));
            assert!(matches!(r, Err(CommError::Timeout { .. })), "{r:?}");
        }
        assert!(start.elapsed() >= Duration::from_millis(100));
    }

    #[test]
    fn an_interrupted_wait_is_retried_with_what_is_left() {
        let deadline = Instant::now() + Duration::from_millis(200);
        let mut lefts = Vec::new();
        let r = retry_interrupted(deadline, |left| {
            lefts.push(left);
            if lefts.len() < 3 {
                thread::sleep(Duration::from_millis(10));
                Err(io::ErrorKind::Interrupted.into())
            } else {
                Ok(())
            }
        });
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(lefts.len(), 3, "two EINTRs, then the wait that returned");
        assert!(lefts[0] <= Duration::from_millis(200));
        assert!(lefts.windows(2).all(|w| w[1] < w[0]), "{lefts:?}");

        // Any other error ends the wait.
        let r = retry_interrupted(deadline, |_| Err(io::ErrorKind::InvalidInput.into()));
        assert_eq!(r.map_err(|e| e.kind()), Err(io::ErrorKind::InvalidInput));
    }

    #[test]
    fn the_transport_is_gone_once_every_socket_hung_up() {
        let (mut ctl, workers) = fleet(2);
        drop(workers);
        let mut gone = Vec::new();
        while gone.len() < 2 {
            for event in ctl.recv_events(64, T).expect("two hang-ups") {
                match event {
                    ControlEvent::Disconnected { worker } => gone.push(worker),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        gone.sort_unstable();
        assert_eq!(gone, vec![0, 1]);
        assert_eq!(
            ctl.recv_events(64, T),
            Err(CommError::Disconnected { peer: usize::MAX })
        );
    }

    #[test]
    fn a_storm_from_64_sockets_is_delivered_exactly_once_in_batches_of_8() {
        let n = 64;
        let (mut ctl, mut workers) = fleet(n);
        for w in &mut workers {
            let iteration = w.rank() as u64 + 100;
            w.send_ready(iteration).expect("ready");
        }
        let mut seen = vec![0u32; n];
        let mut received = 0;
        while received < n {
            let events = ctl.recv_events(8, T).expect("the storm");
            assert!(!events.is_empty() && events.len() <= 8, "{}", events.len());
            for event in events {
                match event {
                    ControlEvent::Signal(WorkerSignal::Ready { worker, iteration }) => {
                        assert_eq!(iteration, worker as u64 + 100);
                        seen[worker] += 1;
                        received += 1;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert!(seen.iter().all(|&k| k == 1), "{seen:?}");
        assert!(matches!(
            ctl.recv_events(8, Duration::from_millis(20)),
            Err(CommError::Timeout { .. })
        ));
    }

    /// One dialled worker, and the controller's blocking socket past the
    /// worker's hello, so a test writes the controller's bytes by hand.
    fn raw_pair() -> (TcpStream, TcpWorkerLink) {
        let (listener, addr) = bind_controller("127.0.0.1:0");
        let worker = dial(addr, 0);
        let (mut ctl, _) = listener.accept().expect("accept");
        let hello: Hello = read_frame(&mut ctl, 0).expect("hello");
        assert_eq!(hello.rank, 0);
        (ctl, worker)
    }

    fn assignment(base_tag: u64) -> GroupAssignment {
        GroupAssignment {
            group: vec![0, 3, 5],
            weights: vec![0.25, 0.5, 0.25],
            base_tag,
            new_iteration: base_tag + 1,
        }
    }

    #[test]
    fn an_assignment_written_in_two_halves_is_received_whole() {
        let (mut ctl, mut worker) = raw_pair();
        let a = assignment(11);
        let bytes = frame::encode(&a).expect("encode");
        let (front, back) = bytes.split_at(bytes.len() / 2);
        ctl.write_all(front).expect("front half");
        let (back, pause) = (back.to_vec(), Duration::from_millis(100));
        let writer = thread::spawn(move || {
            thread::sleep(pause);
            ctl.write_all(&back).expect("back half");
            ctl
        });
        // The pause spans two read timeouts mid-frame: stalls, not an
        // idle timeout, and fewer than MID_FRAME_STALLS of them.
        assert_eq!(worker.recv_assignment(pause / 2), Ok(a));
        drop(writer.join().expect("writer"));
    }

    #[test]
    fn an_idle_timeout_leaves_the_link_in_step() {
        let (mut ctl, mut worker) = raw_pair();
        let (a, b) = (assignment(1), assignment(2));
        let idle = |worker: &mut TcpWorkerLink| {
            let start = Instant::now();
            let r = worker.recv_assignment(Duration::from_millis(30));
            assert!(matches!(r, Err(CommError::Timeout { .. })), "{r:?}");
            start.elapsed()
        };
        idle(&mut worker);
        // Longer than READ_TIMEOUT: a frame 700 ms late is waited for.
        let a_bytes = frame::encode(&a).expect("encode");
        let writer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(700));
            ctl.write_all(&a_bytes).expect("a");
            ctl
        });
        assert_eq!(worker.recv_assignment(T), Ok(a));
        let mut ctl = writer.join().expect("writer");
        // A shorter timeout after that longer one still takes effect.
        let waited = idle(&mut worker);
        assert!(waited < Duration::from_secs(1), "{waited:?}");
        ctl.write_all(&frame::encode(&b).expect("encode"))
            .expect("b");
        assert_eq!(worker.recv_assignment(T), Ok(b));
    }

    #[test]
    fn two_assignments_in_one_write_are_two_receives() {
        let (mut ctl, mut worker) = raw_pair();
        let (a, b) = (assignment(3), assignment(4));
        let mut bytes = frame::encode(&a).expect("encode");
        bytes.extend(frame::encode(&b).expect("encode"));
        ctl.write_all(&bytes).expect("both");
        assert_eq!(worker.recv_assignment(T), Ok(a));
        assert_eq!(worker.recv_assignment(T), Ok(b));
        drop(ctl);
        assert_eq!(
            worker.recv_assignment(T),
            Err(CommError::Disconnected { peer: 0 })
        );
    }

    #[test]
    fn a_worker_that_never_reads_is_disconnected_not_waited_on() {
        let (mut ctl, mut workers) = fleet(1);
        let assignment = GroupAssignment {
            group: vec![0],
            weights: vec![1.0],
            base_tag: 5,
            new_iteration: 9,
        };
        // Fill the worker's receive buffer and the controller's send
        // buffer until a write fails; no single write may wait for it.
        let mut sent = 0u64;
        let failed = loop {
            let start = Instant::now();
            let r = ctl.send_assignment(0, assignment.clone());
            assert!(
                start.elapsed() < Duration::from_secs(1),
                "send {sent} blocked on a peer that does not read"
            );
            match r {
                Ok(()) => sent += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(failed, CommError::Disconnected { peer: 0 });

        let start = Instant::now();
        assert_eq!(
            ctl.recv_events(64, Duration::from_secs(1)),
            Ok(vec![ControlEvent::Disconnected { worker: 0 }])
        );
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(
            ctl.send_assignment(0, assignment.clone()),
            Err(CommError::Disconnected { peer: 0 })
        );

        // The worker reads every whole assignment, then the hang-up; a
        // cut-off last frame is never mistaken for a malformed one.
        let worker = &mut workers[0];
        let mut read = 0u64;
        loop {
            match worker.recv_assignment(T) {
                Ok(got) => {
                    assert_eq!(got, assignment);
                    read += 1;
                }
                Err(CommError::Disconnected { peer: 0 }) => break,
                Err(e) => panic!("after {read} of {sent} assignments: {e:?}"),
            }
        }
        assert_eq!(read, sent);
    }
}
