//! The controller's signal plane: a sharded non-blocking reactor over
//! the TCP control sockets.
//!
//! A small fixed pool of shard threads owns the sockets (round-robin),
//! so fleet size is not capped by the OS thread budget. Each shard
//! polls its sockets non-blocking with per-socket incremental
//! [`FrameBuffer`] decoding and delivers decoded signals to the
//! controller in *batches* — one channel send per scan, not per frame.
//! Socket EOF or a desynchronized stream surfaces as a
//! [`ControlEvent::Disconnected`] so the serving loop can evict the
//! process immediately instead of waiting out the heartbeat budget.
//!
//! `std` only: no epoll wrapper is available under the workspace's
//! dependency budget, so shards scan their sockets with
//! `set_nonblocking(true)` reads and an adaptive idle backoff (yield a
//! few rounds, then sleep `IDLE_SLEEP`). At control
//! message sizes this sustains tens of thousands of signals/sec from 64
//! sockets (the benchmark's `storm-tcp` workload) while idling at a
//! handful of syscalls per shard per millisecond.

use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::control::{ControlEvent, FleetRoster, WorkerSignal};
use crate::error::CommError;
use crate::frame::FrameBuffer;
use crate::tcp::{self, TcpControllerLink};
use crate::Result;

/// Idle rounds a shard spends yielding before it starts sleeping.
const SPIN_ROUNDS: u32 = 16;
/// Sleep between scans once a shard has gone idle.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// The third argument of [`accept_fleet`]. It has no fields and no effect:
/// every caller passed the default, so the spin and nap lengths are this
/// module's constants and the shard count is derived from the fleet size.
/// The type survives only because the frozen benchmark crate names it
/// (`probes.rs`); the parameter goes with the next `benchmark` PR
/// (ROADMAP item 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorConfig {}

/// The shard (poller thread) count for a fleet of `n` sockets: one per 256
/// sockets, clamped to `[1, 4]`.
fn shard_count(n: usize) -> usize {
    (n / 256 + 1).clamp(1, 4)
}

/// One fleet member as seen at handshake time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetMember {
    /// Worker rank.
    pub rank: usize,
    /// The peer address of the control connection.
    pub peer_addr: String,
    /// The worker's data-plane listener address, when it sent one.
    pub data_addr: Option<String>,
}

/// One socket owned by a shard thread.
struct ShardSocket {
    rank: usize,
    stream: TcpStream,
    buf: FrameBuffer,
}

/// Drains every readable byte from one socket into `batch`. Returns
/// `false` when the connection is gone (EOF, hard error, or a
/// desynchronized frame stream).
fn pump(sock: &mut ShardSocket, scratch: &mut [u8], batch: &mut Vec<ControlEvent>) -> bool {
    loop {
        match sock.stream.read(scratch) {
            Ok(0) => return false,
            Ok(n) => {
                let Some(chunk) = scratch.get(..n) else {
                    return false;
                };
                sock.buf.push_bytes(chunk);
                loop {
                    match sock.buf.next_frame::<WorkerSignal>() {
                        Ok(Some(signal)) => batch.push(ControlEvent::Signal(signal)),
                        Ok(None) => break,
                        // Malformed frame: the stream is desynchronized
                        // beyond recovery; treat the peer as gone.
                        Err(_) => return false,
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// One shard's scan loop: poll every owned socket, batch decoded
/// events, deliver once per productive scan, back off adaptively when
/// idle. Exits when all sockets are gone or the controller dropped the
/// receiving end.
fn run_shard(mut socks: Vec<ShardSocket>, tx: Sender<Vec<ControlEvent>>) {
    let mut scratch = vec![0u8; 16 * 1024];
    let mut idle_rounds = 0u32;
    while !socks.is_empty() {
        let mut batch: Vec<ControlEvent> = Vec::new();
        socks.retain_mut(|s| {
            let alive = pump(s, &mut scratch, &mut batch);
            if !alive {
                batch.push(ControlEvent::Disconnected { worker: s.rank });
            }
            alive
        });
        if batch.is_empty() {
            idle_rounds = idle_rounds.saturating_add(1);
            if idle_rounds <= SPIN_ROUNDS {
                thread::yield_now();
            } else {
                // lint: allow(reactor-blocking) bounded adaptive idle backoff: after
                // SPIN_ROUNDS empty polls the shard naps for IDLE_SLEEP so idle fleets
                // do not spin a core; any inbound byte ends the nap on the next poll.
                thread::sleep(IDLE_SLEEP);
            }
        } else {
            idle_rounds = 0;
            if tx.send(batch).is_err() {
                return;
            }
        }
    }
}

/// Accepts exactly `n` workers, handshakes each (rank range and
/// duplicate checks), and hands their read halves to the shard pool.
/// Shared by [`tcp::accept_workers`] (in-process fleets, no roster)
/// and [`accept_fleet`] (multi-process fleets).
pub(crate) fn accept_reactor(
    listener: &TcpListener,
    n: usize,
) -> Result<(TcpControllerLink, Vec<FleetMember>)> {
    assert!(n > 0, "need at least one worker");
    let mut writers: Vec<Option<Arc<Mutex<TcpStream>>>> = (0..n).map(|_| None).collect();
    let mut members: Vec<Option<FleetMember>> = (0..n).map(|_| None).collect();
    let mut readers: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();

    for conn in 0..n {
        let (mut stream, peer) = listener
            .accept()
            .map_err(|_| CommError::Disconnected { peer: conn })?;
        tcp::configure(&stream, conn)?;
        stream
            .set_read_timeout(Some(tcp::HELLO_TIMEOUT))
            .map_err(|_| CommError::Disconnected { peer: conn })?;
        let hello: tcp::Hello = tcp::read_frame(&mut stream, conn)?;
        if hello.rank >= n {
            return Err(CommError::InvalidRank {
                rank: hello.rank,
                world: n,
            });
        }
        let rank = hello.rank;
        let slot = members
            .get_mut(rank)
            .ok_or(CommError::InvalidRank { rank, world: n })?;
        if slot.is_some() {
            return Err(CommError::InvalidGroup(format!(
                "duplicate hello from rank {rank}"
            )));
        }
        *slot = Some(FleetMember {
            rank,
            peer_addr: peer.to_string(),
            data_addr: hello.data_addr,
        });
        let reader = stream
            .try_clone()
            .map_err(|_| CommError::Disconnected { peer: rank })?;
        reader
            .set_nonblocking(true)
            .map_err(|_| CommError::Disconnected { peer: rank })?;
        if let Some(r) = readers.get_mut(rank) {
            *r = Some(reader);
        }
        if let Some(w) = writers.get_mut(rank) {
            *w = Some(Arc::new(Mutex::new(stream)));
        }
    }

    // Range and duplicate checks above guarantee all n slots are full.
    let writers: Vec<Arc<Mutex<TcpStream>>> = writers.into_iter().flatten().collect();
    let members: Vec<FleetMember> = members.into_iter().flatten().collect();
    debug_assert_eq!(writers.len(), n, "every rank said hello");

    let shards = shard_count(n);
    let mut per_shard: Vec<Vec<ShardSocket>> = (0..shards).map(|_| Vec::new()).collect();
    for (rank, reader) in readers.into_iter().enumerate() {
        let Some(stream) = reader else { continue };
        let shard = per_shard.iter_mut().min_by_key(|v| v.len());
        if let Some(shard) = shard {
            shard.push(ShardSocket {
                rank,
                stream,
                buf: FrameBuffer::new(),
            });
        }
    }

    let (tx, rx) = channel::<Vec<ControlEvent>>();
    for (i, socks) in per_shard.into_iter().enumerate() {
        if socks.is_empty() {
            continue;
        }
        let tx = tx.clone();
        thread::Builder::new()
            .name(format!("preduce-reactor-{i}"))
            .spawn(move || run_shard(socks, tx))
            .map_err(|_| CommError::Disconnected { peer: usize::MAX })?;
    }

    Ok((TcpControllerLink::from_reactor(rx, writers), members))
}

/// Accepts a multi-process fleet of `n` worker processes: handshakes
/// every rank, requires each hello to carry a data-plane address, then
/// broadcasts the [`FleetRoster`] so workers can dial each other for
/// group averages. Returns the reactor-backed control link plus the
/// member table (for `ProcessJoined` tracing).
///
/// # Errors
/// Fails on handshake errors, duplicate/out-of-range ranks, or a
/// worker that did not announce a data address.
pub fn accept_fleet(
    listener: &TcpListener,
    n: usize,
    _: ReactorConfig,
) -> Result<(TcpControllerLink, Vec<FleetMember>)> {
    let (mut link, members) = accept_reactor(listener, n)?;
    let mut data_addrs = Vec::with_capacity(n);
    for m in &members {
        let addr = m.data_addr.clone().ok_or_else(|| {
            CommError::InvalidGroup(format!(
                "worker {} joined a process fleet without a data-plane address",
                m.rank
            ))
        })?;
        data_addrs.push(addr);
    }
    let roster = FleetRoster { data_addrs };
    link.broadcast_roster(&roster)?;
    Ok((link, members))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{ControlPlane, GroupAssignment, WorkerControlPlane};
    use crate::tcp::{bind_controller, RetryPolicy, TcpWorkerLink};

    const T: Duration = Duration::from_secs(5);

    #[test]
    fn fleet_handshake_distributes_roster() {
        let n = 3;
        let (listener, addr) = bind_controller("127.0.0.1:0");
        let workers: Vec<_> = (0..n)
            .map(|rank| {
                thread::spawn(move || {
                    TcpWorkerLink::connect_fleet(
                        addr,
                        rank,
                        format!("10.0.0.{rank}:70{rank}0"),
                        RetryPolicy::default(),
                    )
                    .expect("fleet connect")
                })
            })
            .collect();
        let (_link, members) =
            accept_fleet(&listener, n, ReactorConfig::default()).expect("accept fleet");
        assert_eq!(members.len(), n);
        for (rank, w) in workers.into_iter().enumerate() {
            let (_w, roster) = w.join().expect("join");
            assert_eq!(roster.data_addrs.len(), n);
            assert_eq!(
                roster.data_addrs.get(rank).map(String::as_str),
                Some(format!("10.0.0.{rank}:70{rank}0").as_str())
            );
        }
    }

    #[test]
    fn fleet_without_data_addr_is_rejected() {
        let (listener, addr) = bind_controller("127.0.0.1:0");
        let w = thread::spawn(move || TcpWorkerLink::connect(addr, 0));
        let r = accept_fleet(&listener, 1, ReactorConfig::default());
        assert!(matches!(r, Err(CommError::InvalidGroup(_))), "{r:?}");
        let _ = w.join().expect("join");
    }

    #[test]
    fn disconnect_surfaces_as_event() {
        let (listener, addr) = bind_controller("127.0.0.1:0");
        let w = thread::spawn(move || {
            let mut w = TcpWorkerLink::connect(addr, 0).expect("connect");
            w.send_ready(1).expect("ready");
            // Dropping the link closes the socket: the reactor must
            // report the EOF as a Disconnected event.
        });
        let (mut link, _) = accept_reactor(&listener, 1).expect("accept");
        w.join().expect("worker");
        let mut saw_signal = false;
        let mut saw_disconnect = false;
        let deadline = std::time::Instant::now() + T;
        while !(saw_signal && saw_disconnect) && std::time::Instant::now() < deadline {
            for ev in link
                .recv_events(64, Duration::from_millis(100))
                .unwrap_or_default()
            {
                match ev {
                    ControlEvent::Signal(WorkerSignal::Ready { worker: 0, .. }) => {
                        saw_signal = true;
                    }
                    ControlEvent::Disconnected { worker: 0 } => saw_disconnect = true,
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert!(saw_signal, "ready signal decoded by the reactor");
        assert!(saw_disconnect, "EOF reported as Disconnected");
    }

    #[test]
    fn reactor_link_still_serves_assignments() {
        let (listener, addr) = bind_controller("127.0.0.1:0");
        let worker = thread::spawn(move || {
            let mut w = TcpWorkerLink::connect(addr, 0).expect("connect");
            w.send_ready(7).expect("ready");
            w.recv_assignment(T).expect("assignment")
        });
        let (mut link, _) = accept_reactor(&listener, 1).expect("accept");
        match link.recv_signal(T).expect("signal") {
            WorkerSignal::Ready { worker, iteration } => {
                assert_eq!((worker, iteration), (0, 7));
            }
            other => panic!("unexpected {other:?}"),
        }
        let a = GroupAssignment {
            group: vec![0],
            weights: vec![1.0],
            base_tag: 3,
            new_iteration: 7,
        };
        link.send_assignment(0, a.clone()).expect("send");
        assert_eq!(worker.join().expect("join"), a);
    }

    #[test]
    fn shard_count_scales_with_sockets() {
        assert_eq!(shard_count(1), 1);
        assert_eq!(shard_count(255), 1);
        assert_eq!(shard_count(256), 2);
        assert_eq!(shard_count(1024), 4);
        assert_eq!(shard_count(100_000), 4);
    }
}
