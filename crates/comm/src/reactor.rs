//! The controller's fleet bring-up: accept every worker, handshake each
//! on the calling thread, and hand the sockets to a [`TcpControllerLink`].
//!
//! Nothing here spawns a thread. After bring-up the serving thread is
//! the reactor: each receive on the link is one `poll(2)` over every
//! control socket (see [`TcpControllerLink`]), and socket EOF or a
//! desynchronized stream surfaces as a [`ControlEvent::Disconnected`]
//! so the serving loop can evict the process immediately instead of
//! waiting out the heartbeat budget.
//!
//! [`ControlEvent::Disconnected`]: crate::control::ControlEvent::Disconnected

use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use crate::control::FleetRoster;
use crate::error::CommError;
use crate::tcp::{self, TcpControllerLink};
use crate::Result;

/// What [`accept_fleet`] tells every worker process besides the roster's
/// addresses. The default is an unwatched CON fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorConfig {
    /// The controller mode's fast-forward rule, sent as
    /// [`FleetRoster::adopt_group_max`]: after a reduce a worker adopts the
    /// group max (DYN) or keeps its own count (CON).
    pub adopt_group_max: bool,
    /// The beat period of the controller's liveness policy, sent as
    /// [`FleetRoster::heartbeat`]; `None` when the controller does not
    /// watch, so no worker beats.
    pub heartbeat: Option<Duration>,
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

/// Accepts exactly `n` workers and handshakes each (rank range and
/// duplicate checks). Returns their sockets in rank order, still
/// blocking, beside the member table. Shared by [`tcp::accept_workers`]
/// (in-process fleets, no roster) and [`accept_fleet`] (multi-process
/// fleets).
pub(crate) fn accept(
    listener: &TcpListener,
    n: usize,
) -> Result<(Vec<TcpStream>, Vec<FleetMember>)> {
    assert!(n > 0, "need at least one worker");
    let mut members: Vec<Option<FleetMember>> = (0..n).map(|_| None).collect();
    let mut streams: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();

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
        if let Some(s) = streams.get_mut(rank) {
            *s = Some(stream);
        }
    }

    // Range and duplicate checks above guarantee all n slots are full.
    let streams: Vec<TcpStream> = streams.into_iter().flatten().collect();
    let members: Vec<FleetMember> = members.into_iter().flatten().collect();
    debug_assert_eq!(streams.len(), n, "every rank said hello");
    Ok((streams, members))
}

/// Accepts a multi-process fleet of `n` worker processes: handshakes
/// every rank, requires each hello to carry a data-plane address, then
/// sends every worker the [`FleetRoster`] so workers can dial each other
/// for group averages and apply the controller's fast-forward rule and
/// beat.
/// Returns the control link plus the member table (for `ProcessJoined`
/// tracing).
///
/// # Errors
/// Fails on handshake errors, duplicate/out-of-range ranks, a worker that
/// did not announce a data address, or a roster that could not be sent.
pub fn accept_fleet(
    listener: &TcpListener,
    n: usize,
    config: ReactorConfig,
) -> Result<(TcpControllerLink, Vec<FleetMember>)> {
    let (mut streams, members) = accept(listener, n)?;
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
    let roster = FleetRoster {
        data_addrs,
        adopt_group_max: config.adopt_group_max,
        heartbeat: config.heartbeat,
    };
    // Still blocking: the write timeout bounds a roster that outgrows a
    // send buffer.
    for (rank, stream) in streams.iter_mut().enumerate() {
        tcp::write_frame(stream, &roster, rank)?;
    }
    Ok((TcpControllerLink::new(streams)?, members))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{
        ControlEvent, ControlPlane, GroupAssignment, WorkerControlPlane, WorkerSignal,
    };
    use crate::tcp::{accept_workers, bind_controller, RetryPolicy, TcpWorkerLink};
    use std::io;
    use std::sync::mpsc::channel;
    use std::thread;
    use std::time::{Duration, Instant};

    const T: Duration = Duration::from_secs(5);

    #[test]
    fn fleet_handshake_distributes_roster() {
        let n = 3;
        let configs = [(false, None), (true, Some(Duration::from_micros(12_500)))];
        for (adopt_group_max, heartbeat) in configs {
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
            let config = ReactorConfig {
                adopt_group_max,
                heartbeat,
            };
            let (_link, members) = accept_fleet(&listener, n, config).expect("accept fleet");
            assert_eq!(members.len(), n);
            for (rank, w) in workers.into_iter().enumerate() {
                let (_w, roster) = w.join().expect("join");
                assert_eq!(roster.data_addrs.len(), n);
                assert_eq!(
                    roster.data_addrs.get(rank).map(String::as_str),
                    Some(format!("10.0.0.{rank}:70{rank}0").as_str())
                );
                assert_eq!(roster.adopt_group_max, adopt_group_max);
                assert_eq!(roster.heartbeat, heartbeat);
            }
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
            // Dropping the link closes the socket: the controller must
            // report the EOF as a Disconnected event.
        });
        let mut link = accept_workers(&listener, 1).expect("accept");
        w.join().expect("worker");
        let mut saw_signal = false;
        let mut saw_disconnect = false;
        let deadline = Instant::now() + T;
        while !(saw_signal && saw_disconnect) && Instant::now() < deadline {
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
        assert!(saw_signal, "ready signal decoded by the controller");
        assert!(saw_disconnect, "EOF reported as Disconnected");
    }

    #[test]
    fn an_accepted_link_serves_assignments() {
        let (listener, addr) = bind_controller("127.0.0.1:0");
        let worker = thread::spawn(move || {
            let mut w = TcpWorkerLink::connect(addr, 0).expect("connect");
            w.send_ready(7).expect("ready");
            w.recv_assignment(T).expect("assignment")
        });
        let mut link = accept_workers(&listener, 1).expect("accept");
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
    fn an_older_hello_is_refused_naming_both_versions() {
        // A JSON-era hello (version 1), and binary hellos of rank 0 with no
        // data address from before the roster carried its rule (version 2)
        // and its beat (version 3).
        let hellos: [(&[u8], &str); 3] = [
            (br#"{"rank":0}"#, "wire version 1"),
            (&[1, 2, 0, 0, 0, 0, 0], "wire version 2"),
            (&[1, 3, 0, 0, 0, 0, 0], "wire version 3"),
        ];
        for (hello, theirs) in hellos {
            let (listener, addr) = bind_controller("127.0.0.1:0");
            let old_worker = thread::spawn(move || {
                let mut s = TcpStream::connect(addr).expect("connect");
                let mut frame = (hello.len() as u32).to_be_bytes().to_vec();
                frame.extend_from_slice(hello);
                io::Write::write_all(&mut s, &frame).expect("old hello");
                s
            });
            match accept_workers(&listener, 1) {
                Err(CommError::MalformedFrame { detail }) => assert!(
                    detail.contains(theirs) && detail.contains("wire version 4"),
                    "{detail}"
                ),
                other => panic!("a {theirs} worker was not refused: {other:?}"),
            }
            drop(old_worker.join().expect("old worker"));
        }
    }

    #[test]
    fn a_half_sent_frame_does_not_stall_the_serving_thread() {
        // Rank 0 says hello, sends only the first bytes of a `Ready` frame
        // and keeps its socket open: a receive that waited for the rest
        // would never reach rank 1, and one that took the half frame for a
        // broken stream would drop rank 0.
        let (listener, addr) = bind_controller("127.0.0.1:0");
        let (release, held) = channel::<()>();
        let stalled = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            let hello = tcp::Hello {
                rank: 0,
                data_addr: None,
            };
            tcp::write_frame(&mut s, &hello, 0).expect("hello");
            let ready = WorkerSignal::Ready {
                worker: 0,
                iteration: 1,
            };
            let frame = crate::frame::encode(&ready).expect("encode");
            let (front, back) = frame.split_at(frame.len() / 2);
            io::Write::write_all(&mut s, front).expect("half a frame");
            let _ = held.recv();
            io::Write::write_all(&mut s, back).expect("the other half");
            s
        });
        let ready = thread::spawn(move || {
            let mut w = TcpWorkerLink::connect(addr, 1).expect("connect");
            w.send_ready(7).expect("ready");
            w
        });
        let mut link = accept_workers(&listener, 2).expect("accept");
        // The receive's own timeout bounds only its waits in `poll`, so
        // the budget is checked on the clock as well.
        let (start, budget) = (Instant::now(), Duration::from_secs(1));
        match link.recv_signal(budget) {
            Ok(WorkerSignal::Ready { worker, iteration }) if start.elapsed() < budget => {
                assert_eq!((worker, iteration), (1, 7))
            }
            other => panic!(
                "rank 1's ready is stuck behind rank 0's half frame: {other:?} after {:?}",
                start.elapsed()
            ),
        }
        release.send(()).expect("release rank 0");
        assert_eq!(
            link.recv_signal(T).expect("rank 0's completed frame"),
            WorkerSignal::Ready {
                worker: 0,
                iteration: 1
            }
        );
        drop(stalled.join().expect("stalled peer"));
        drop(ready.join().expect("ready peer"));
    }
}
