//! The multi-process data plane: group weighted averages between worker
//! *processes*.
//!
//! In-process fleets run their group average over
//! [`Endpoint`](crate::Endpoint) channels ([`crate::collectives`]). Worker
//! processes have no shared memory, so each binds an ephemeral data listener
//! ([`MeshEndpoint::bind`]), announces it in the control-plane hello,
//! and receives the full [`crate::control::FleetRoster`] once the fleet
//! is assembled. A group reduce then runs star-shaped: the first member
//! of the assignment (`group[0]`) is the leader; every other member
//! streams its parameters to the leader and reads back the weighted
//! average. The controller never touches this plane — it only names the
//! group (paper §4: model data never flows through the message queue).
//!
//! **Connection cache.** Forming a P-group must cost what a static
//! communicator costs, so a pair of endpoints shares *one* bidirectional
//! stream for as long as both live, whichever of them leads. A member
//! dials the leader only when it holds no stream to it; the leader
//! accepts only for members it holds no stream from. Every later reduce
//! between the two is a header plus payload on the existing blocking
//! socket — no connect, no accept, no poll. A stream is returned to the
//! cache only after a reduce it carried completed; any I/O error, EOF or
//! tag mismatch closes it, which is also what tells the other side.
//!
//! **Heal once.** Either side may find its cached stream dead because
//! the other dropped its end in an earlier failed reduce. A leader whose
//! cached stream yields anything but the expected header discards it and
//! waits for that member on the listener instead; a member whose request
//! fails with a hang-up on a *cached* stream re-dials and resends once
//! (its parameters are untouched until the reply payload starts). So a
//! half-dropped pair is whole again within the same reduce.
//!
//! **In-place fold.** The leader is always `group[0]`, so its own
//! contribution comes first in group-position order and the accumulator
//! can be its parameter slice: per `PIPELINE_CHUNK`-element segment it
//! reads every member's bytes, sets `data[i] = 0 + w₀·data[i]`, then adds
//! `w_j·x_j` straight from the wire bytes in group-position order — the
//! per-element order of a from-zero accumulator, so the result is
//! bit-identical at any segment size. TCP is a byte stream, so
//! segmenting is invisible on the wire. A segment is folded only once
//! all of it has arrived: on error every element of `data` holds either
//! its own value or the finished group average, never a partial sum.
//!
//! The [`GroupAverager`] trait abstracts over both planes so the
//! runtime's `PartialReducer` is substrate-agnostic. Both are stars led by
//! `group[0]` that fold in group-position order, so they also agree bit for
//! bit.
//!
//! Wire format (binary, not JSON — payloads are whole parameter
//! vectors): request `[base_tag u64 BE][rank u32 BE][len u32 BE][len ×
//! f32 LE]`, response `[base_tag u64 BE][len u32 BE][len × f32 LE]`,
//! where `len` counts elements. The `base_tag` check rejects frames
//! from a stale or misdirected reduce.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use crate::error::CommError;
use crate::Result;

/// Budget for each blocking step of a group reduce on the mesh: the
/// first-contact accept wait, and every socket read or write.
const DATA_TIMEOUT: Duration = Duration::from_secs(30);

/// Elements per pipeline segment (64 Ki floats = 256 KiB): the leader
/// folds, and both roles convert between floats and wire bytes, one
/// segment at a time — large enough to amortize per-call overhead, small
/// enough that a segment's fold runs out of cache while the next one is
/// in flight, and the bound on the leader's scratch (one segment per
/// member).
const PIPELINE_CHUNK: usize = 1 << 16;

/// Poll period of the first-contact accept wait.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// A group weighted average over some transport: the in-process
/// [`Endpoint`](crate::Endpoint) channels or the process-level
/// [`MeshEndpoint`] sockets. Both fold on the leader `group[0]`, per
/// element `0 + w₀·x₀ + w₁·x₁ + …` in group-position order — the order of
/// the simulator's `kernels::weighted_sum_acc`.
/// `weights` aligns with `group`; on return `data` holds the group's
/// weighted average on every member.
pub trait GroupAverager: Send {
    /// Runs the weighted average for `group` under `base_tag`.
    ///
    /// # Errors
    /// Transport-specific [`CommError`]s. On error each element of `data`
    /// holds either the member's own value or the finished group average,
    /// never a partial sum, and the caller keeps it as its local model.
    fn group_weighted_average(
        &mut self,
        group: &[usize],
        base_tag: u64,
        data: &mut [f32],
        weights: &[f32],
    ) -> Result<()>;
}

/// One worker process's data-plane endpoint: an ephemeral listener for
/// first contact from members of reduces it leads, the roster of every
/// peer's listener for reduces it joins, and the cache of streams
/// already established either way.
#[derive(Debug)]
pub struct MeshEndpoint {
    rank: usize,
    listener: TcpListener,
    local_addr: SocketAddr,
    roster: Vec<SocketAddr>,
    /// Budget of each blocking step: [`DATA_TIMEOUT`], except that unit
    /// tests shorten it.
    io_timeout: Duration,
    /// Elements per segment: [`PIPELINE_CHUNK`], except that unit tests
    /// overwrite it.
    chunk_elems: usize,
    /// The connection cache: the one stream shared with each peer rank,
    /// idle between reduces.
    peers: HashMap<usize, TcpStream>,
    /// The streams of the reduce being led, in member order
    /// (`group[1..]`), lifted out of `peers` for its duration so that a
    /// failed reduce closes them all.
    round: Vec<Option<TcpStream>>,
    /// Wire scratch, grown on first use and kept: one segment of bytes
    /// when joining, one per member when leading.
    wire: Vec<u8>,
    #[cfg(test)]
    dials: usize,
    #[cfg(test)]
    accepts: usize,
}

fn gone(peer: usize) -> CommError {
    CommError::Disconnected { peer }
}

/// Classifies a data-socket failure during reduce `tag`: an expired
/// socket timeout means `peer` is alive but late, anything else that it
/// hung up.
fn io_error(e: &io::Error, peer: usize, tag: u64) -> CommError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => CommError::Timeout { peer, tag },
        _ => gone(peer),
    }
}

fn send(stream: &mut TcpStream, bytes: &[u8], peer: usize, tag: u64) -> Result<()> {
    stream.write_all(bytes).map_err(|e| io_error(&e, peer, tag))
}

fn recv(stream: &mut TcpStream, buf: &mut [u8], peer: usize, tag: u64) -> Result<()> {
    stream.read_exact(buf).map_err(|e| io_error(&e, peer, tag))
}

/// The first `bytes` bytes of the wire scratch, growing it if needed.
#[allow(
    clippy::indexing_slicing,
    reason = "`wire` is resized to at least `bytes` first"
)]
fn scratch(wire: &mut Vec<u8>, bytes: usize) -> &mut [u8] {
    if wire.len() < bytes {
        wire.resize(bytes, 0);
    }
    &mut wire[..bytes]
}

/// Little-endian wire bytes of `floats`; `bytes` is four per float.
fn encode(floats: &[f32], bytes: &mut [u8]) {
    for (quad, x) in bytes.as_chunks_mut::<4>().0.iter_mut().zip(floats) {
        *quad = x.to_le_bytes();
    }
}

/// Inverse of [`encode`].
fn decode(bytes: &[u8], floats: &mut [f32]) {
    for (x, quad) in floats.iter_mut().zip(bytes.as_chunks::<4>().0) {
        *x = f32::from_le_bytes(*quad);
    }
}

/// A request header: who contributes how many elements to which reduce.
struct Request {
    tag: u64,
    rank: usize,
    len: usize,
}

/// `[base_tag u64][rank u32][len u32]`, big-endian: one `u128`.
fn request_header(tag: u64, rank: u32, len: u32) -> [u8; 16] {
    ((u128::from(tag) << 64) | (u128::from(rank) << 32) | u128::from(len)).to_be_bytes()
}

fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    let mut buf = [0u8; 16];
    stream.read_exact(&mut buf)?;
    let word = u128::from_be_bytes(buf);
    Ok(Request {
        tag: (word >> 64) as u64,
        rank: (word >> 32) as u32 as usize,
        len: word as u32 as usize,
    })
}

/// `[base_tag u64][len u32]`, big-endian: the low 12 bytes of a `u128`.
fn reply_header(tag: u64, len: u32) -> [u8; 16] {
    ((u128::from(tag) << 32) | u128::from(len)).to_be_bytes()
}

/// Reads a reply header; returns `(base_tag, len)`.
fn read_reply(stream: &mut TcpStream) -> io::Result<(u64, usize)> {
    let mut buf = [0u8; 16];
    stream.read_exact(buf.split_at_mut(4).1)?;
    let word = u128::from_be_bytes(buf);
    Ok(((word >> 32) as u64, word as u32 as usize))
}

/// A payload of `actual` elements where `expected` were due is
/// [`CommError::PayloadMismatch`].
pub(crate) fn check_len(expected: usize, actual: usize) -> Result<()> {
    if expected == actual {
        Ok(())
    } else {
        Err(CommError::PayloadMismatch { expected, actual })
    }
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
        // The accept wait polls non-blocking under a deadline so a
        // reduce cannot hang on a member that died before dialing in.
        listener.set_nonblocking(true).map_err(|_| gone(rank))?;
        Ok(MeshEndpoint {
            rank,
            listener,
            local_addr,
            roster: Vec::new(),
            io_timeout: DATA_TIMEOUT,
            chunk_elems: PIPELINE_CHUNK,
            peers: HashMap::new(),
            round: Vec::new(),
            wire: Vec::new(),
            #[cfg(test)]
            dials: 0,
            #[cfg(test)]
            accepts: 0,
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

    /// Installs the fleet roster (every rank's data address, from the
    /// controller's [`crate::control::FleetRoster`]). Streams are dialed
    /// on first use, not here.
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

    /// Segment size for a model of `len` elements.
    fn segment(&self, len: usize) -> usize {
        self.chunk_elems.clamp(1, len.max(1))
    }

    /// Waits for the next inbound connection, until `deadline`; the
    /// timeout names the member and reduce being waited for.
    fn accept_one(&mut self, deadline: Instant, waiting_on: usize, tag: u64) -> Result<TcpStream> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    configure_data(&stream, self.io_timeout, waiting_on)?;
                    #[cfg(test)]
                    {
                        self.accepts += 1;
                    }
                    return Ok(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(CommError::Timeout {
                            peer: waiting_on,
                            tag,
                        });
                    }
                    // First contact only (or a healed pair): std has no
                    // accept-with-timeout, and the wait for a straggler
                    // can be long, so nap rather than spin. Steady-state
                    // rounds block in `read` on a cached stream instead.
                    thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(gone(self.rank)),
            }
        }
    }

    fn dial(&mut self, peer: usize) -> Result<TcpStream> {
        let addr =
            self.roster.get(peer).copied().ok_or_else(|| {
                CommError::InvalidGroup(format!("no roster entry for rank {peer}"))
            })?;
        let stream = TcpStream::connect_timeout(&addr, self.io_timeout).map_err(|_| gone(peer))?;
        configure_data(&stream, self.io_timeout, peer)?;
        #[cfg(test)]
        {
            self.dials += 1;
        }
        Ok(stream)
    }

    /// Leader role. The streams it used go back to the cache only if the
    /// whole reduce succeeded: after a failure they are mid-frame, and
    /// closing them is what resynchronises each pair and releases the
    /// members still waiting for a reply.
    fn lead(
        &mut self,
        members: &[usize],
        base_tag: u64,
        data: &mut [f32],
        weights: &[f32],
    ) -> Result<()> {
        let outcome = self
            .gather(members, base_tag, data.len())
            .and_then(|()| self.fold(members, base_tag, data, weights))
            .and_then(|()| self.reply(members, base_tag, data));
        if outcome.is_ok() {
            for (&member, stream) in members.iter().zip(self.round.drain(..)) {
                if let Some(stream) = stream {
                    self.peers.insert(member, stream);
                }
            }
        }
        self.round.clear();
        outcome
    }

    /// Phase 1: one stream per member in `round`, each positioned just
    /// past a validated request header. Cached streams are read first;
    /// one that yields anything but its member's header for this reduce
    /// (EOF because the peer dropped its end, a frame of an aborted
    /// round) is discarded and that member awaited on the listener with
    /// the rest. Inbound connections that are not a missing member's
    /// request for this reduce — a late dialer from an aborted round —
    /// are dropped without failing it.
    fn gather(&mut self, members: &[usize], base_tag: u64, len: usize) -> Result<()> {
        let deadline = Instant::now() + self.io_timeout;
        self.round.clear();
        for &member in members {
            let mut cached = self.peers.remove(&member);
            if let Some(stream) = cached.as_mut() {
                match read_request(stream) {
                    Ok(r) if r.tag == base_tag && r.rank == member => check_len(len, r.len)?,
                    _ => cached = None,
                }
            }
            self.round.push(cached);
        }
        while let Some((&waiting_on, _)) =
            (members.iter().zip(&self.round)).find(|(_, slot)| slot.is_none())
        {
            let mut stream = self.accept_one(deadline, waiting_on, base_tag)?;
            let Ok(request) = read_request(&mut stream) else {
                continue;
            };
            if request.tag != base_tag {
                continue;
            }
            let slot = members
                .iter()
                .position(|&m| m == request.rank)
                .and_then(|pos| self.round.get_mut(pos));
            let Some(slot) = slot else {
                continue;
            };
            check_len(len, request.len)?;
            if slot.is_some() {
                return Err(CommError::InvalidGroup(format!(
                    "duplicate contribution from rank {}",
                    request.rank
                )));
            }
            *slot = Some(stream);
        }
        Ok(())
    }

    /// Phase 2: the in-place fold, one segment at a time. Members have
    /// already written their whole request into their sockets, so
    /// folding segment `c` overlaps the transport of `c+1, c+2, …`.
    fn fold(
        &mut self,
        members: &[usize],
        base_tag: u64,
        data: &mut [f32],
        weights: &[f32],
    ) -> Result<()> {
        let Some((&own_weight, member_weights)) = weights.split_first() else {
            return Err(CommError::InvalidGroup("no weights".into()));
        };
        for segment in data.chunks_mut(self.segment(data.len())) {
            let bytes = segment.len() * 4;
            let slots = scratch(&mut self.wire, bytes * members.len());
            let streams = self.round.iter_mut().flatten();
            for ((stream, slot), &member) in streams.zip(slots.chunks_exact_mut(bytes)).zip(members)
            {
                recv(stream, slot, member, base_tag)?;
            }
            // `0.0 +` keeps a negative-zero product bit-identical to
            // what a from-zero accumulator yields.
            for x in segment.iter_mut() {
                *x = 0.0 + own_weight * *x;
            }
            for (slot, &w) in slots.chunks_exact(bytes).zip(member_weights) {
                for (x, quad) in segment.iter_mut().zip(slot.as_chunks::<4>().0) {
                    *x += w * f32::from_le_bytes(*quad);
                }
            }
        }
        Ok(())
    }

    /// Phase 3: stream the average back. Nothing is written before every
    /// request byte has been read (a member writes fully, then reads, so
    /// an earlier reply could deadlock both on full socket buffers), and
    /// each segment is byte-encoded once for all members.
    fn reply(&mut self, members: &[usize], base_tag: u64, data: &[f32]) -> Result<()> {
        let header = reply_header(base_tag, data.len() as u32);
        for (stream, &member) in self.round.iter_mut().flatten().zip(members) {
            send(stream, header.split_at(4).1, member, base_tag)?;
        }
        for segment in data.chunks(self.segment(data.len())) {
            let bytes = scratch(&mut self.wire, segment.len() * 4);
            encode(segment, bytes);
            for (stream, &member) in self.round.iter_mut().flatten().zip(members) {
                send(stream, bytes, member, base_tag)?;
            }
        }
        Ok(())
    }

    /// Member role: stream parameters to the leader, read back the
    /// average. `data` is untouched until the reply payload starts,
    /// which is what makes the one resend safe.
    fn join(&mut self, leader: usize, base_tag: u64, data: &mut [f32]) -> Result<()> {
        let cached = self.peers.contains_key(&leader);
        let mut stream = match self.request(leader, base_tag, data) {
            // The leader dropped its end of the cached stream in an
            // earlier reduce: heal the pair with a fresh dial, once.
            Err(CommError::Disconnected { .. }) if cached => {
                self.request(leader, base_tag, data)?
            }
            first => first?,
        };
        for segment in data.chunks_mut(self.segment(data.len())) {
            let bytes = scratch(&mut self.wire, segment.len() * 4);
            recv(&mut stream, bytes, leader, base_tag)?;
            decode(bytes, segment);
        }
        self.peers.insert(leader, stream);
        Ok(())
    }

    /// Sends this member's request on the cached stream to `leader`
    /// (dialing one if none is held) and reads the reply header. The
    /// stream comes back positioned at the reply payload; on any error
    /// it is closed.
    fn request(&mut self, leader: usize, base_tag: u64, data: &[f32]) -> Result<TcpStream> {
        let mut stream = match self.peers.remove(&leader) {
            Some(stream) => stream,
            None => self.dial(leader)?,
        };
        let rank = u32::try_from(self.rank).unwrap_or(u32::MAX);
        let header = request_header(base_tag, rank, data.len() as u32);
        send(&mut stream, &header, leader, base_tag)?;
        for segment in data.chunks(self.segment(data.len())) {
            let bytes = scratch(&mut self.wire, segment.len() * 4);
            encode(segment, bytes);
            send(&mut stream, bytes, leader, base_tag)?;
        }
        let (tag, len) = read_reply(&mut stream).map_err(|e| io_error(&e, leader, base_tag))?;
        if tag != base_tag {
            return Err(CommError::InvalidGroup(format!(
                "response for tag {tag} during reduce {base_tag}"
            )));
        }
        check_len(data.len(), len)?;
        Ok(stream)
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
        let Some((&leader, members)) = group.split_first() else {
            return Err(CommError::InvalidGroup("empty group".into()));
        };
        if weights.len() != group.len() {
            return Err(CommError::InvalidGroup(format!(
                "group of {} with {} weights",
                group.len(),
                weights.len()
            )));
        }
        // The headers carry `data.len() as u32`; make that lossless.
        if u32::try_from(data.len()).is_err() {
            return Err(CommError::MalformedFrame {
                detail: format!("{} elements overflow the data frame length", data.len()),
            });
        }
        if leader == self.rank {
            self.lead(members, base_tag, data, weights)
        } else if members.contains(&self.rank) {
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

    /// A fleet with the roster installed, `chunk_elems` floats per
    /// segment and a short I/O budget.
    fn wired_chunked(n: usize, chunk_elems: usize) -> Vec<MeshEndpoint> {
        let (mut eps, addrs) = fleet(n);
        for ep in &mut eps {
            ep.chunk_elems = chunk_elems;
            ep.set_roster(&addrs).unwrap();
            ep.io_timeout = Duration::from_secs(5);
        }
        eps
    }

    fn wired(n: usize) -> Vec<MeshEndpoint> {
        wired_chunked(n, PIPELINE_CHUNK)
    }

    /// Non-representable values, different on every rank, so that fold
    /// order is observable.
    fn model(rank: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| 0.1 + i as f32 * 0.3 + rank as f32 * 0.7)
            .collect()
    }

    /// One reduce of `group` run concurrently on those of its members
    /// that are in `eps`; returns their outcomes in `eps` order.
    fn reduce(
        eps: &mut [MeshEndpoint],
        group: &[usize],
        tag: u64,
        weights: &[f32],
        len: usize,
    ) -> Vec<Result<Vec<f32>>> {
        thread::scope(|s| {
            let handles: Vec<_> = eps
                .iter_mut()
                .filter(|ep| group.contains(&ep.rank()))
                .map(|ep| {
                    s.spawn(move || {
                        let mut data = model(ep.rank(), len);
                        ep.group_weighted_average(group, tag, &mut data, weights)
                            .map(|()| data)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// The sequential from-zero fold in group-position order.
    fn reference(group: &[usize], weights: &[f32], len: usize) -> Vec<f32> {
        let mut acc = vec![0f32; len];
        for (&rank, &w) in group.iter().zip(weights) {
            for (a, x) in acc.iter_mut().zip(model(rank, len)) {
                *a += w * x;
            }
        }
        acc
    }

    fn assert_bit_equal(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn star_reduce_matches_weighted_average() {
        let mut eps = wired(3);
        let group = [1usize, 0, 2];
        let weights = [0.5f32, 0.25, 0.25];
        let expect = reference(&group, &weights, 4);
        for r in reduce(&mut eps, &group, 7, &weights, 4) {
            for (x, e) in r.unwrap().iter().zip(&expect) {
                assert!((x - e).abs() < 1e-6, "{x} vs {e}");
            }
        }
    }

    #[test]
    fn alternating_leaders_share_one_connection() {
        let mut eps = wired(2);
        let weights = [0.5f32, 0.5];
        for round in 0..50u64 {
            let group = if round % 2 == 0 { [0usize, 1] } else { [1, 0] };
            let got = reduce(&mut eps, &group, round + 1, &weights, 33);
            let expect = reference(&group, &weights, 33);
            for r in got {
                assert_bit_equal(&r.unwrap(), &expect);
            }
        }
        let dials: usize = eps.iter().map(|e| e.dials).sum();
        let accepts: usize = eps.iter().map(|e| e.accepts).sum();
        assert_eq!((dials, accepts), (1, 1), "one stream for the pair");
    }

    #[test]
    fn fold_is_the_sequential_order_at_any_segment_size() {
        // 1003 elements: 64-element segments leave an uneven tail.
        let len = 1003;
        for p in 2..=4usize {
            let group: Vec<usize> = (0..p).rev().collect();
            let weights: Vec<f32> = (0..p).map(|j| (j + 1) as f32 / 7.0).collect();
            let expect = reference(&group, &weights, len);
            for chunk in [1, 64, usize::MAX] {
                let mut eps = wired_chunked(p, chunk);
                for r in reduce(&mut eps, &group, 11, &weights, len) {
                    assert_bit_equal(&r.unwrap(), &expect);
                }
            }
        }
    }

    #[test]
    fn dropped_cached_stream_heals_within_the_next_reduce() {
        let mut eps = wired(2);
        let weights = [0.25f32, 0.75];
        // A payload larger than the socket buffers, so that a write into
        // the dead stream is exercised as well as a read from it.
        let len = 1 << 20;
        let mut tag = 0;
        for dropper in 0..2usize {
            for group in [[0usize, 1], [1, 0]] {
                tag += 1;
                for r in reduce(&mut eps, &group, tag, &weights, len) {
                    r.unwrap();
                }
                eps[dropper].peers.clear();
                tag += 1;
                let expect = reference(&group, &weights, len);
                for r in reduce(&mut eps, &group, tag, &weights, len) {
                    assert_bit_equal(&r.unwrap(), &expect);
                }
            }
        }
        // First contact plus one re-dial per dropped stream.
        assert_eq!(eps.iter().map(|e| e.dials).sum::<usize>(), 5);
    }

    #[test]
    fn dead_peer_on_a_cached_stream_is_typed_and_the_endpoint_stays_usable() {
        let mut eps = wired(3);
        for ep in &mut eps {
            ep.io_timeout = Duration::from_millis(600);
        }
        let weights = [0.5f32, 0.5];
        for group in [[0usize, 2], [1, 2]] {
            for r in reduce(&mut eps, &group, 1, &weights, 16) {
                r.unwrap();
            }
        }
        drop(eps.pop());

        // Leading: EOF on the cached stream, then nobody dials in. The
        // leader cannot tell a dead member from one about to re-dial, so
        // it waits out its budget — but no longer.
        let start = Instant::now();
        let led = reduce(&mut eps, &[0, 2], 2, &weights, 16).swap_remove(0);
        assert_eq!(led, Err(CommError::Timeout { peer: 2, tag: 2 }));
        assert!(start.elapsed() < Duration::from_secs(3), "leader hung");

        // Joining: EOF, one re-dial, connection refused — at once.
        let start = Instant::now();
        let joined = reduce(&mut eps, &[2, 1], 3, &weights, 16).swap_remove(0);
        assert_eq!(joined, Err(CommError::Disconnected { peer: 2 }));
        assert!(
            start.elapsed() < Duration::from_millis(300),
            "member waited"
        );

        let expect = reference(&[0, 1], &weights, 16);
        for r in reduce(&mut eps, &[0, 1], 4, &weights, 16) {
            assert_bit_equal(&r.unwrap(), &expect);
        }
    }

    #[test]
    fn stray_connections_do_not_fail_the_leader() {
        let mut eps = wired(2);
        let leader_addr = eps[0].local_addr();
        // Queued ahead of the real member: a late dialer from an aborted
        // round, a rank outside the group, a rank that is the leader's
        // own, and a dialer that hangs up mid-header.
        let strays: Vec<TcpStream> = [
            request_header(8, 1, 5).to_vec(),
            request_header(9, 7, 5).to_vec(),
            request_header(9, 0, 5).to_vec(),
            vec![0u8; 3],
        ]
        .into_iter()
        .map(|bytes| {
            let mut s = TcpStream::connect(leader_addr).unwrap();
            s.write_all(&bytes).unwrap();
            s
        })
        .collect();
        drop(strays);
        let weights = [0.5f32, 0.5];
        let expect = reference(&[0, 1], &weights, 5);
        for r in reduce(&mut eps, &[0, 1], 9, &weights, 5) {
            assert_bit_equal(&r.unwrap(), &expect);
        }
        assert_eq!(eps[0].accepts, 5);
    }

    #[test]
    fn duplicate_contribution_is_typed() {
        let mut eps = wired(3);
        eps[0].io_timeout = Duration::from_millis(500);
        let mut first = TcpStream::connect(eps[0].local_addr()).unwrap();
        first.write_all(&request_header(4, 1, 2)).unwrap();
        let mut second = TcpStream::connect(eps[0].local_addr()).unwrap();
        second.write_all(&request_header(4, 1, 2)).unwrap();
        let mut data = vec![1.0f32; 2];
        let r = eps[0].group_weighted_average(&[0, 1, 2], 4, &mut data, &[0.5, 0.25, 0.25]);
        assert!(matches!(r, Err(CommError::InvalidGroup(_))), "{r:?}");
    }

    #[test]
    fn member_not_in_group_is_rejected() {
        let mut eps = wired(2);
        let mut data = vec![1.0f32];
        let r = eps[1].group_weighted_average(&[0, 2], 0, &mut data, &[0.5, 0.5]);
        assert!(matches!(r, Err(CommError::InvalidGroup(_))), "{r:?}");
    }

    #[test]
    fn singleton_flush_scales_in_place() {
        let mut eps = wired(1);
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
        leader.io_timeout = Duration::from_millis(100);
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
            ep.io_timeout = Duration::from_secs(2);
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
