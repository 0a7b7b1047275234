//! The multi-process data plane: group weighted averages between worker
//! *processes*.
//!
//! In-process fleets run their group collective over [`Endpoint`]
//! channels ([`collectives::chunked_weighted_average`]). Worker processes
//! have no shared memory, so each binds an ephemeral data listener
//! ([`MeshEndpoint::bind`]), announces it in the control-plane hello,
//! and receives the full [`crate::control::FleetRoster`] once the fleet
//! is assembled. A group reduce then runs star-shaped: the first member
//! of the assignment (`group[0]`) is the leader; every other member
//! dials the leader's listener, streams its parameters, and reads back
//! the weighted average. The controller never touches this plane — it
//! only names the group (paper §4: model data never flows through the
//! message queue).
//!
//! The leader reduces as a *chunked overlap pipeline* (DESIGN.md §13):
//! it walks the model in [`collectives::PIPELINE_CHUNK`]-element
//! segments, folding each member's segment bytes into the accumulator
//! while the members' later segments are still in flight on their
//! sockets. TCP is a byte stream, so chunking is invisible on the wire
//! and purely a leader-local strategy ([`MeshEndpoint::set_chunk_elems`]
//! tunes it; `usize::MAX` recovers the monolithic star). Accumulation
//! stays in group-position order per element, so every segment size
//! produces bitwise-identical averages.
//!
//! The [`GroupAverager`] trait abstracts over both planes so the
//! runtime's `PartialReducer` is substrate-agnostic.
//!
//! Wire format (binary, not JSON — payloads are whole parameter
//! vectors): request `[base_tag u64 BE][rank u32 BE][len u32 BE][len ×
//! f32 LE]`, response `[base_tag u64 BE][len u32 BE][len × f32 LE]`,
//! where `len` counts elements. The `base_tag` check rejects frames
//! from a stale or misdirected reduce.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use crate::collectives;
use crate::endpoint::Endpoint;
use crate::error::CommError;
use crate::Result;

/// Overall budget for one group reduce on the mesh (slowest member
/// connect + transfer both ways).
pub const DATA_TIMEOUT: Duration = Duration::from_secs(30);

/// Largest accepted data payload, in elements (256M floats = 1 GiB);
/// anything larger indicates a corrupt length field.
const MAX_ELEMS: u32 = 1 << 28;

/// A group weighted average over some transport: the in-process
/// [`Endpoint`] collective or the process-level [`MeshEndpoint`] star.
/// `weights` aligns with `group`; on return `data` holds the group's
/// weighted average on every member.
pub trait GroupAverager: Send {
    /// Runs the weighted average for `group` under `base_tag`.
    ///
    /// # Errors
    /// Transport-specific [`CommError`]s; on error `data` may hold the
    /// member's own (possibly pre-scaled) parameters, and the caller is
    /// expected to degrade to its local model.
    fn group_weighted_average(
        &mut self,
        group: &[usize],
        base_tag: u64,
        data: &mut [f32],
        weights: &[f32],
    ) -> Result<()>;
}

impl GroupAverager for Endpoint {
    fn group_weighted_average(
        &mut self,
        group: &[usize],
        base_tag: u64,
        data: &mut [f32],
        weights: &[f32],
    ) -> Result<()> {
        collectives::chunked_weighted_average(self, group, base_tag, data, weights)
    }
}

/// One worker process's data-plane endpoint: an ephemeral listener for
/// reduces it leads, plus the roster of every peer's listener for
/// reduces it joins.
#[derive(Debug)]
pub struct MeshEndpoint {
    rank: usize,
    listener: TcpListener,
    local_addr: SocketAddr,
    roster: Vec<SocketAddr>,
    io_timeout: Duration,
    /// Elements per pipeline segment for the leader's chunked reduce
    /// ([`MeshEndpoint::set_chunk_elems`]).
    chunk_elems: usize,
}

fn gone(peer: usize) -> CommError {
    CommError::Disconnected { peer }
}

fn write_bytes(stream: &mut TcpStream, bytes: &[u8], peer: usize) -> Result<()> {
    stream.write_all(bytes).map_err(|_| gone(peer))
}

fn read_bytes(stream: &mut TcpStream, buf: &mut [u8], peer: usize) -> Result<()> {
    stream.read_exact(buf).map_err(|_| gone(peer))
}

fn bytes_to_floats(bytes: &[u8], out: &mut [f32]) -> Result<()> {
    if bytes.len() != out.len() * 4 {
        return Err(CommError::PayloadMismatch {
            expected: out.len() * 4,
            actual: bytes.len(),
        });
    }
    for (chunk, slot) in bytes.chunks_exact(4).zip(out.iter_mut()) {
        let arr: [u8; 4] = chunk.try_into().map_err(|_| CommError::MalformedFrame {
            detail: "short float chunk in data frame".into(),
        })?;
        *slot = f32::from_le_bytes(arr);
    }
    Ok(())
}

/// Applies blocking mode plus read/write timeouts to a data socket.
fn configure_data(stream: &TcpStream, timeout: Duration, peer: usize) -> Result<()> {
    stream.set_nonblocking(false).map_err(|_| gone(peer))?;
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|_| stream.set_write_timeout(Some(timeout)))
        .map_err(|_| gone(peer))
}

impl MeshEndpoint {
    /// Binds an ephemeral data listener for `rank` on `addr` (use port
    /// 0 — the chosen address travels to peers via the fleet roster).
    ///
    /// # Errors
    /// [`CommError::Disconnected`] if the listener cannot come up.
    pub fn bind(rank: usize, addr: &str) -> Result<Self> {
        let listener = TcpListener::bind(addr).map_err(|_| gone(rank))?;
        let local_addr = listener.local_addr().map_err(|_| gone(rank))?;
        // The accept loop polls non-blocking under a deadline so a
        // reduce cannot hang on a member that died before dialing in.
        listener.set_nonblocking(true).map_err(|_| gone(rank))?;
        Ok(MeshEndpoint {
            rank,
            listener,
            local_addr,
            roster: Vec::new(),
            io_timeout: DATA_TIMEOUT,
            chunk_elems: collectives::PIPELINE_CHUNK,
        })
    }

    /// The bound listener address to announce in the control-plane
    /// hello.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Overrides the per-reduce I/O budget (tests use short budgets).
    pub fn set_io_timeout(&mut self, timeout: Duration) {
        self.io_timeout = timeout;
    }

    /// Overrides the pipeline segment size in elements (default
    /// [`collectives::PIPELINE_CHUNK`]). `usize::MAX` degenerates to the
    /// monolithic star — one segment spanning the whole model — which the
    /// kernel bench uses as its baseline. The knob is leader-local: the
    /// wire bytes are identical at any segment size, so members need no
    /// coordination.
    ///
    /// # Panics
    /// Panics if `chunk_elems == 0`.
    pub fn set_chunk_elems(&mut self, chunk_elems: usize) {
        assert!(chunk_elems > 0, "segment size must be positive");
        self.chunk_elems = chunk_elems;
    }

    /// Installs the fleet roster (every rank's data address, from the
    /// controller's [`crate::control::FleetRoster`]).
    ///
    /// # Errors
    /// [`CommError::InvalidGroup`] if an address does not parse.
    pub fn set_roster(&mut self, data_addrs: &[String]) -> Result<()> {
        let mut roster = Vec::with_capacity(data_addrs.len());
        for (rank, addr) in data_addrs.iter().enumerate() {
            let parsed = addr.parse::<SocketAddr>().map_err(|_| {
                CommError::InvalidGroup(format!("unparseable data address for rank {rank}: {addr}"))
            })?;
            roster.push(parsed);
        }
        self.roster = roster;
        Ok(())
    }

    fn accept_one(&self, deadline: Instant) -> Result<TcpStream> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    configure_data(&stream, self.io_timeout, self.rank)?;
                    return Ok(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(CommError::Timeout {
                            peer: usize::MAX,
                            tag: 0,
                        });
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(gone(self.rank)),
            }
        }
    }

    /// Leader role, run as a chunked overlap pipeline.
    ///
    /// Phase 1 accepts every member's connection and validates its
    /// header only. Phase 2 walks the model in `chunk_elems`-element
    /// segments: for each segment it reads each member's bytes in
    /// group-position order and folds them into the accumulator —
    /// so the reduction arithmetic of segment `c` overlaps the
    /// transport of segments `c+1, c+2, …`, which the members have
    /// already written into their sockets. Phase 3 streams the averaged
    /// model back. Peak scratch is one segment plus the result buffer
    /// (`O(N + chunk)` instead of the monolithic collector's `O(P·N)`).
    ///
    /// Per element, contributions accumulate in group-position order
    /// starting from zero regardless of segment size, so any
    /// `chunk_elems` produces bitwise-identical results (the monolithic
    /// star is the `usize::MAX` special case).
    fn lead(
        &mut self,
        group: &[usize],
        base_tag: u64,
        data: &mut [f32],
        weights: &[f32],
    ) -> Result<()> {
        let deadline = Instant::now() + self.io_timeout;
        let own = group.iter().position(|&g| g == self.rank).ok_or_else(|| {
            CommError::InvalidGroup(format!("leader rank {} not in group {group:?}", self.rank))
        })?;

        // Phase 1: accept and identify every member (headers only).
        let mut streams: Vec<Option<(TcpStream, usize)>> = (0..group.len()).map(|_| None).collect();
        let mut connected = 0usize;
        while connected + 1 < group.len() {
            let mut stream = self.accept_one(deadline)?;
            let mut tag_buf = [0u8; 8];
            read_bytes(&mut stream, &mut tag_buf, self.rank)?;
            let tag = u64::from_be_bytes(tag_buf);
            if tag != base_tag {
                return Err(CommError::InvalidGroup(format!(
                    "data frame for tag {tag} arrived during reduce {base_tag}"
                )));
            }
            let mut rank_buf = [0u8; 4];
            read_bytes(&mut stream, &mut rank_buf, self.rank)?;
            let sender = u32::from_be_bytes(rank_buf) as usize;
            let mut len_buf = [0u8; 4];
            read_bytes(&mut stream, &mut len_buf, sender)?;
            let len = u32::from_be_bytes(len_buf);
            if len >= MAX_ELEMS {
                return Err(CommError::MalformedFrame {
                    detail: format!("oversized data frame ({len} elements)"),
                });
            }
            if len as usize != data.len() {
                return Err(CommError::PayloadMismatch {
                    expected: data.len(),
                    actual: len as usize,
                });
            }
            let pos = group.iter().position(|&g| g == sender).ok_or_else(|| {
                CommError::InvalidGroup(format!("rank {sender} dialed into group {group:?}"))
            })?;
            let slot = streams
                .get_mut(pos)
                .ok_or_else(|| CommError::InvalidGroup(format!("position {pos} out of group")))?;
            if pos == own || slot.is_some() {
                return Err(CommError::InvalidGroup(format!(
                    "duplicate contribution from rank {sender}"
                )));
            }
            *slot = Some((stream, sender));
            connected += 1;
        }

        // Phase 2: chunked reduce, contributions in group-position order.
        let len = data.len();
        let chunk = self.chunk_elems.min(len.max(1));
        let mut result = vec![0f32; len];
        let mut byte_buf = vec![0u8; chunk * 4];
        let mut float_buf = vec![0f32; chunk];
        let mut start = 0usize;
        while start < len {
            let end = len.min(start + chunk);
            let n = end - start;
            debug_assert!(n > 0 && n <= chunk, "segment bounds");
            for (pos, &w) in weights.iter().enumerate() {
                if pos == own {
                    for (r, x) in result[start..end].iter_mut().zip(data[start..end].iter()) {
                        *r += w * x;
                    }
                    continue;
                }
                let Some((stream, sender)) = streams.get_mut(pos).and_then(Option::as_mut) else {
                    return Err(CommError::InvalidGroup(
                        "missing contribution after collection".into(),
                    ));
                };
                read_bytes(stream, &mut byte_buf[..n * 4], *sender)?;
                bytes_to_floats(&byte_buf[..n * 4], &mut float_buf[..n])?;
                for (r, x) in result[start..end].iter_mut().zip(float_buf[..n].iter()) {
                    *r += w * x;
                }
            }
            start = end;
        }

        // Phase 3: stream the average back, one member at a time.
        let mut header = Vec::with_capacity(12);
        header.extend_from_slice(&base_tag.to_be_bytes());
        header.extend_from_slice(&(len as u32).to_be_bytes());
        for entry in streams.iter_mut() {
            let Some((stream, member)) = entry.as_mut() else {
                continue;
            };
            write_bytes(stream, &header, *member)?;
            let mut s = 0usize;
            while s < len {
                let e = len.min(s + chunk);
                let nb = (e - s) * 4;
                debug_assert!(nb <= byte_buf.len(), "segment bounds");
                for (b, x) in byte_buf[..nb].chunks_exact_mut(4).zip(result[s..e].iter()) {
                    b.copy_from_slice(&x.to_le_bytes());
                }
                write_bytes(stream, &byte_buf[..nb], *member)?;
                s = e;
            }
        }
        data.copy_from_slice(&result);
        Ok(())
    }

    /// Member role: stream parameters to the leader, read back the
    /// average. Payload bytes go out (and come back) in segment-size
    /// batches — the wire bytes are identical to a single frame, the
    /// batching only bounds the conversion scratch to one segment.
    fn join(&mut self, leader: usize, base_tag: u64, data: &mut [f32]) -> Result<()> {
        let addr =
            self.roster.get(leader).copied().ok_or_else(|| {
                CommError::InvalidGroup(format!("no roster entry for rank {leader}"))
            })?;
        let mut stream =
            TcpStream::connect_timeout(&addr, self.io_timeout).map_err(|_| gone(leader))?;
        configure_data(&stream, self.io_timeout, leader)?;
        let len = data.len();
        let chunk = self.chunk_elems.min(len.max(1));
        let mut byte_buf = vec![0u8; chunk * 4];

        let mut header = Vec::with_capacity(16);
        header.extend_from_slice(&base_tag.to_be_bytes());
        header.extend_from_slice(&(self.rank as u32).to_be_bytes());
        header.extend_from_slice(&(len as u32).to_be_bytes());
        write_bytes(&mut stream, &header, leader)?;
        let mut s = 0usize;
        while s < len {
            let e = len.min(s + chunk);
            let nb = (e - s) * 4;
            debug_assert!(nb <= byte_buf.len(), "segment bounds");
            for (b, x) in byte_buf[..nb].chunks_exact_mut(4).zip(data[s..e].iter()) {
                b.copy_from_slice(&x.to_le_bytes());
            }
            write_bytes(&mut stream, &byte_buf[..nb], leader)?;
            s = e;
        }

        let mut tag_buf = [0u8; 8];
        read_bytes(&mut stream, &mut tag_buf, leader)?;
        let tag = u64::from_be_bytes(tag_buf);
        if tag != base_tag {
            return Err(CommError::InvalidGroup(format!(
                "response for tag {tag} during reduce {base_tag}"
            )));
        }
        let mut len_buf = [0u8; 4];
        read_bytes(&mut stream, &mut len_buf, leader)?;
        let got = u32::from_be_bytes(len_buf);
        if got as usize != len {
            return Err(CommError::PayloadMismatch {
                expected: len,
                actual: got as usize,
            });
        }
        let mut s = 0usize;
        while s < len {
            let e = len.min(s + chunk);
            let nb = (e - s) * 4;
            debug_assert!(nb <= byte_buf.len(), "segment bounds");
            read_bytes(&mut stream, &mut byte_buf[..nb], leader)?;
            bytes_to_floats(&byte_buf[..nb], &mut data[s..e])?;
            s = e;
        }
        Ok(())
    }
}

impl GroupAverager for MeshEndpoint {
    fn group_weighted_average(
        &mut self,
        group: &[usize],
        base_tag: u64,
        data: &mut [f32],
        weights: &[f32],
    ) -> Result<()> {
        if group.is_empty() || weights.len() != group.len() {
            return Err(CommError::InvalidGroup(format!(
                "group of {} with {} weights",
                group.len(),
                weights.len()
            )));
        }
        let Some(&leader) = group.first() else {
            return Err(CommError::InvalidGroup("empty group".into()));
        };
        if group.len() == 1 {
            // Singleton flush: the weighted average of one member.
            let w = weights.first().copied().unwrap_or(1.0);
            for d in data.iter_mut() {
                *d *= w;
            }
            return Ok(());
        }
        if leader == self.rank {
            self.lead(group, base_tag, data, weights)
        } else if group.contains(&self.rank) {
            self.join(leader, base_tag, data)
        } else {
            Err(CommError::InvalidGroup(format!(
                "rank {} not in group {group:?}",
                self.rank
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> (Vec<MeshEndpoint>, Vec<String>) {
        let eps: Vec<MeshEndpoint> = (0..n)
            .map(|r| MeshEndpoint::bind(r, "127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<String> = eps.iter().map(|e| e.local_addr().to_string()).collect();
        (eps, addrs)
    }

    #[test]
    fn star_reduce_matches_weighted_average() {
        let (mut eps, addrs) = fleet(3);
        for ep in &mut eps {
            ep.set_roster(&addrs).unwrap();
        }
        let group = vec![1usize, 0, 2];
        let weights = vec![0.5f32, 0.25, 0.25];
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                let group = group.clone();
                let weights = weights.clone();
                thread::spawn(move || {
                    let mut data = vec![ep.rank() as f32 + 1.0; 4];
                    ep.group_weighted_average(&group, 7, &mut data, &weights)
                        .unwrap();
                    data
                })
            })
            .collect();
        // Expected: 0.5*w1 + 0.25*w0 + 0.25*w2 = 0.5*2 + 0.25*1 + 0.25*3 = 2.0
        for h in handles {
            let data = h.join().unwrap();
            for x in data {
                assert!((x - 2.0).abs() < 1e-6, "{x}");
            }
        }
    }

    /// Runs one group average over a fresh fleet with the given segment
    /// size on every endpoint; returns each rank's resulting vector.
    fn run_group_average(n: usize, chunk_elems: usize, len: usize) -> Vec<Vec<f32>> {
        let (mut eps, addrs) = fleet(n);
        for ep in &mut eps {
            ep.set_roster(&addrs).unwrap();
            ep.set_chunk_elems(chunk_elems);
        }
        let group: Vec<usize> = (0..n).collect();
        let weights = vec![1.0 / n as f32; n];
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                let group = group.clone();
                let weights = weights.clone();
                thread::spawn(move || {
                    // Non-representable values make ordering observable.
                    let mut data: Vec<f32> = (0..len)
                        .map(|i| 0.1 + i as f32 * 0.3 + ep.rank() as f32 * 0.7)
                        .collect();
                    ep.group_weighted_average(&group, 11, &mut data, &weights)
                        .unwrap();
                    data
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn chunked_star_is_bitwise_identical_to_monolithic() {
        // 1003 elements with a 64-element segment: 16 segments, uneven
        // tail. The monolithic star is chunk = usize::MAX.
        let chunked = run_group_average(3, 64, 1003);
        let mono = run_group_average(3, usize::MAX, 1003);
        for (c, m) in chunked.iter().zip(mono.iter()) {
            assert_eq!(c.len(), m.len());
            for (a, b) in c.iter().zip(m.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // And every member agrees with the leader.
        for r in &chunked[1..] {
            for (a, b) in chunked[0].iter().zip(r.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn tiny_segments_still_average_correctly() {
        // Segment of 1 element exercises the pipeline at maximum depth.
        let results = run_group_average(2, 1, 7);
        for r in results {
            for (i, v) in r.iter().enumerate() {
                let expect = (0.1 + i as f32 * 0.3) + 0.7 / 2.0;
                assert!((v - expect).abs() < 1e-5, "idx {i}: {v} vs {expect}");
            }
        }
    }

    #[test]
    fn member_not_in_group_is_rejected() {
        let (mut eps, addrs) = fleet(2);
        let ep = &mut eps[1];
        ep.set_roster(&addrs).unwrap();
        let mut data = vec![1.0f32];
        let r = ep.group_weighted_average(&[0, 2], 0, &mut data, &[0.5, 0.5]);
        assert!(matches!(r, Err(CommError::InvalidGroup(_))), "{r:?}");
    }

    #[test]
    fn singleton_flush_scales_in_place() {
        let (mut eps, addrs) = fleet(1);
        eps[0].set_roster(&addrs).unwrap();
        let mut data = vec![2.0f32, 4.0];
        eps[0]
            .group_weighted_average(&[0], 3, &mut data, &[1.0])
            .unwrap();
        assert_eq!(data, vec![2.0, 4.0]);
    }

    #[test]
    fn dead_member_times_out_the_leader() {
        let (mut eps, addrs) = fleet(2);
        let mut leader = eps.remove(0);
        leader.set_roster(&addrs).unwrap();
        leader.set_io_timeout(Duration::from_millis(100));
        // Member never dials in.
        let mut data = vec![1.0f32; 2];
        let r = leader.group_weighted_average(&[0, 1], 5, &mut data, &[0.5, 0.5]);
        assert!(
            matches!(r, Err(CommError::Timeout { .. })),
            "leader must not hang: {r:?}"
        );
    }

    #[test]
    fn payload_length_mismatch_is_typed() {
        let (mut eps, addrs) = fleet(2);
        for ep in &mut eps {
            ep.set_roster(&addrs).unwrap();
            ep.set_io_timeout(Duration::from_secs(2));
        }
        let mut member = eps.pop().unwrap();
        let mut leader = eps.pop().unwrap();
        let m = thread::spawn(move || {
            let mut data = vec![1.0f32; 3]; // leader expects 2
            member.group_weighted_average(&[0, 1], 9, &mut data, &[0.5, 0.5])
        });
        let mut data = vec![1.0f32; 2];
        let r = leader.group_weighted_average(&[0, 1], 9, &mut data, &[0.5, 0.5]);
        assert!(matches!(r, Err(CommError::PayloadMismatch { .. })), "{r:?}");
        let _ = m.join().unwrap();
    }
}
