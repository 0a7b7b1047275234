//! The control-plane wire format, shared by every TCP transport in the
//! crate: a 4-byte big-endian length prefix, then a payload that is one
//! kind byte followed by that message's fixed little-endian fields.
//!
//! | kind | message | fields after the kind byte |
//! |---|---|---|
//! | 1 | `Hello` | version `u8`, rank `u32`, has-address `u8` (0 or 1), then the address as a string when 1 |
//! | 2 | [`WorkerSignal::Ready`] | worker `u32`, iteration `u64` |
//! | 3 | [`WorkerSignal::Leaving`] | worker `u32` |
//! | 4 | [`WorkerSignal::Heartbeat`] | worker `u32` |
//! | 5 | [`GroupAssignment`] | base tag `u64`, new iteration `u64`, group (`u32` count, then one `u32` rank each), weights (`u32` count, then one `f32` bit pattern each) |
//! | 6 | [`FleetRoster`] | `u32` count, then one string per rank, then the rule `u8`: 0 keep your own count (CON), 1 adopt the group max (DYN), then the beat period `u64` in microseconds: 0 not watched (no beat) |
//!
//! A string is a `u32` byte count then UTF-8 bytes. Ranks are `u32` on
//! the wire, and encoding a larger one is an error. Because every kind
//! byte is distinct, a frame handed to another message type's decoder is
//! a typed error rather than a wrong decode.
//!
//! `Hello`'s version byte is `WIRE_VERSION`, 4 (version 3 had no beat
//! period in the roster, version 2 no rule byte either). The controller
//! refuses a worker on any other version at bring-up, and names both
//! versions. A JSON-payload worker (version 1) is recognised by its `{`
//! and refused the same way.
//!
//! The streams of frames go through the incremental [`FrameBuffer`],
//! which yields complete frames as they materialize and holds partial
//! ones across reads: the controller's non-blocking sockets in
//! [`crate::tcp::TcpControllerLink`] and a worker's assignments in
//! [`crate::tcp::TcpWorkerLink`]. The two handshake frames, the hello
//! and the roster, are each one exact-length read that is decoded
//! directly.
//!
//! Decode failures are typed, never panics: an oversized length prefix,
//! an unknown or unexpected kind byte, a declared length that does not
//! fit in the rest of the payload, a short payload and trailing bytes
//! all surface [`CommError::MalformedFrame`] (the property suite in
//! `tests/wire_format.rs` drives this contract with arbitrary
//! corruptions).

use std::ops::Range;
use std::time::Duration;

use crate::control::{FleetRoster, GroupAssignment, WorkerSignal};
use crate::error::CommError;
use crate::tcp::Hello;
use crate::Result;

/// Maximum accepted frame size: control messages are tiny; anything
/// close to this indicates protocol corruption.
pub(crate) const MAX_FRAME: u32 = 1 << 20;

/// Length of the big-endian length prefix.
pub const HEADER_LEN: usize = 4;

/// The wire version `Hello` carries. Version 1 was the JSON payload;
/// version 2 had no rule byte in the roster, version 3 no beat period.
pub(crate) const WIRE_VERSION: u8 = 4;

/// The first byte of every payload.
mod kind {
    pub(crate) const HELLO: u8 = 1;
    pub(crate) const READY: u8 = 2;
    pub(crate) const LEAVING: u8 = 3;
    pub(crate) const HEARTBEAT: u8 = 4;
    pub(crate) const ASSIGNMENT: u8 = 5;
    pub(crate) const ROSTER: u8 = 6;
}

/// A control message with one binary payload layout (see the module
/// docs for the table).
pub trait Message: Sized {
    /// Appends the payload: the kind byte, then the fields.
    ///
    /// # Errors
    /// [`CommError::MalformedFrame`] when a rank or a length does not fit
    /// in its `u32` field, or a beat period in its `u64` of microseconds.
    fn put(&self, out: &mut Vec<u8>) -> Result<()>;

    /// Decodes one whole payload.
    ///
    /// # Errors
    /// [`CommError::MalformedFrame`] on another message's kind byte, a
    /// short payload, a length that does not fit or trailing bytes.
    fn take(payload: &[u8]) -> Result<Self>;
}

/// Serializes `msg` into one complete frame (header + payload).
///
/// # Errors
/// [`CommError::MalformedFrame`] if a field does not fit its wire type
/// or the payload would reach the 1 MiB frame limit.
pub fn encode<T: Message>(msg: &T) -> Result<Vec<u8>> {
    let mut frame = Vec::with_capacity(128);
    frame.extend_from_slice(&[0; HEADER_LEN]);
    msg.put(&mut frame)?;
    let len = frame.len() - HEADER_LEN;
    let prefix = u32::try_from(len)
        .ok()
        .filter(|&len| len < MAX_FRAME)
        .ok_or_else(|| malformed(format!("frame payload of {len} bytes exceeds MAX_FRAME")))?;
    if let Some(header) = frame.first_chunk_mut::<HEADER_LEN>() {
        *header = prefix.to_be_bytes();
    }
    Ok(frame)
}

/// Decodes one frame *payload* (the bytes after the length prefix).
///
/// # Errors
/// [`CommError::MalformedFrame`] if the payload is not a `T` —
/// including truncated payloads handed in whole.
pub fn decode<T: Message>(payload: &[u8]) -> Result<T> {
    T::take(payload)
}

fn malformed(detail: String) -> CommError {
    CommError::MalformedFrame { detail }
}

fn put_u32(out: &mut Vec<u8>, value: usize, what: &str) -> Result<()> {
    let value = u32::try_from(value)
        .map_err(|_| malformed(format!("{what} {value} does not fit the wire's u32")))?;
    out.extend_from_slice(&value.to_le_bytes());
    Ok(())
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<()> {
    put_u32(out, s.len(), "string length")?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// A cursor over one payload. Every read checks the bytes left first.
struct Fields<'a> {
    rest: &'a [u8],
}

impl<'a> Fields<'a> {
    /// Runs `read` over `payload` and requires it to consume every byte.
    fn parse<T>(payload: &'a [u8], read: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let mut fields = Fields { rest: payload };
        let msg = read(&mut fields)?;
        match fields.rest.len() {
            0 => Ok(msg),
            n => Err(malformed(format!("{n} trailing bytes after the message"))),
        }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or_else(|| {
            malformed(format!("payload ends {} bytes short", n - self.rest.len()))
        })?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, rest) = self.rest.split_first_chunk::<N>().ok_or_else(|| {
            malformed(format!("payload ends {} bytes short", N - self.rest.len()))
        })?;
        self.rest = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8> {
        self.array::<1>().map(|[b]| b)
    }

    fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn rank(&mut self) -> Result<usize> {
        let rank = self.u32()?;
        usize::try_from(rank).map_err(|_| malformed(format!("rank {rank} overflows usize")))
    }

    /// A `u32` count of `item`-byte elements, rejected unless that many
    /// fit in the rest of the payload — before the caller allocates.
    fn count(&mut self, item: usize) -> Result<usize> {
        let n = self.rank()?;
        match n.checked_mul(item) {
            Some(bytes) if bytes <= self.rest.len() => Ok(n),
            _ => Err(malformed(format!(
                "declared {n} elements of {item} bytes, {} bytes left",
                self.rest.len()
            ))),
        }
    }

    /// A counted list of elements of at least `item` bytes each, read by
    /// `read`.
    fn list<T>(
        &mut self,
        item: usize,
        mut read: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.count(item)?;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            list.push(read(self)?);
        }
        Ok(list)
    }

    fn string(&mut self) -> Result<String> {
        let len = self.count(1)?;
        let bytes = self.bytes(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|e| malformed(format!("string is not UTF-8: {e}")))
    }

    /// The kind byte, which must be `expected`.
    fn kind(&mut self, expected: u8, name: &str) -> Result<()> {
        match self.u8()? {
            k if k == expected => Ok(()),
            k => Err(malformed(format!(
                "kind {k} where a {name} (kind {expected}) was expected"
            ))),
        }
    }
}

impl Message for Hello {
    fn put(&self, out: &mut Vec<u8>) -> Result<()> {
        out.extend_from_slice(&[kind::HELLO, WIRE_VERSION]);
        put_u32(out, self.rank, "rank")?;
        match &self.data_addr {
            None => out.push(0),
            Some(addr) => {
                out.push(1);
                put_str(out, addr)?;
            }
        }
        Ok(())
    }

    fn take(payload: &[u8]) -> Result<Self> {
        Fields::parse(payload, |f| {
            match f.u8()? {
                kind::HELLO => {}
                b'{' => {
                    return Err(malformed(format!(
                        "hello from a JSON-payload peer (wire version 1); this build speaks wire version {WIRE_VERSION}"
                    )))
                }
                k => {
                    return Err(malformed(format!(
                        "kind {k} where a hello (kind {}) was expected",
                        kind::HELLO
                    )))
                }
            }
            let version = f.u8()?;
            if version != WIRE_VERSION {
                return Err(malformed(format!(
                    "hello speaks wire version {version}; this build speaks wire version {WIRE_VERSION}"
                )));
            }
            let rank = f.rank()?;
            let data_addr = match f.u8()? {
                0 => None,
                1 => Some(f.string()?),
                b => return Err(malformed(format!("address flag {b} is neither 0 nor 1"))),
            };
            Ok(Hello { rank, data_addr })
        })
    }
}

impl Message for WorkerSignal {
    fn put(&self, out: &mut Vec<u8>) -> Result<()> {
        match *self {
            WorkerSignal::Ready { worker, iteration } => {
                out.push(kind::READY);
                put_u32(out, worker, "rank")?;
                out.extend_from_slice(&iteration.to_le_bytes());
            }
            WorkerSignal::Leaving { worker } => {
                out.push(kind::LEAVING);
                put_u32(out, worker, "rank")?;
            }
            WorkerSignal::Heartbeat { worker } => {
                out.push(kind::HEARTBEAT);
                put_u32(out, worker, "rank")?;
            }
        }
        Ok(())
    }

    fn take(payload: &[u8]) -> Result<Self> {
        Fields::parse(payload, |f| match f.u8()? {
            kind::READY => Ok(WorkerSignal::Ready {
                worker: f.rank()?,
                iteration: f.u64()?,
            }),
            kind::LEAVING => Ok(WorkerSignal::Leaving { worker: f.rank()? }),
            kind::HEARTBEAT => Ok(WorkerSignal::Heartbeat { worker: f.rank()? }),
            k => Err(malformed(format!(
                "kind {k} where a worker signal (kind {}, {} or {}) was expected",
                kind::READY,
                kind::LEAVING,
                kind::HEARTBEAT
            ))),
        })
    }
}

impl Message for GroupAssignment {
    fn put(&self, out: &mut Vec<u8>) -> Result<()> {
        out.push(kind::ASSIGNMENT);
        out.extend_from_slice(&self.base_tag.to_le_bytes());
        out.extend_from_slice(&self.new_iteration.to_le_bytes());
        put_u32(out, self.group.len(), "group size")?;
        for &rank in &self.group {
            put_u32(out, rank, "rank")?;
        }
        put_u32(out, self.weights.len(), "weight count")?;
        for w in &self.weights {
            out.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        Ok(())
    }

    fn take(payload: &[u8]) -> Result<Self> {
        Fields::parse(payload, |f| {
            f.kind(kind::ASSIGNMENT, "group assignment")?;
            let base_tag = f.u64()?;
            let new_iteration = f.u64()?;
            let group = f.list(4, Fields::rank)?;
            let weights = f.list(4, |f| f.u32().map(f32::from_bits))?;
            Ok(GroupAssignment {
                group,
                weights,
                base_tag,
                new_iteration,
            })
        })
    }
}

impl Message for FleetRoster {
    fn put(&self, out: &mut Vec<u8>) -> Result<()> {
        out.push(kind::ROSTER);
        put_u32(out, self.data_addrs.len(), "roster size")?;
        for addr in &self.data_addrs {
            put_str(out, addr)?;
        }
        out.push(u8::from(self.adopt_group_max));
        // 0 means "not watched", so a watched period must be at least 1 µs.
        let micros = match self.heartbeat {
            None => 0,
            Some(period) => u64::try_from(period.as_micros())
                .ok()
                .filter(|&us| us > 0)
                .ok_or_else(|| {
                    malformed(format!(
                        "heartbeat period {period:?} does not fit the wire's u64 of microseconds (1 or more)"
                    ))
                })?,
        };
        out.extend_from_slice(&micros.to_le_bytes());
        Ok(())
    }

    fn take(payload: &[u8]) -> Result<Self> {
        Fields::parse(payload, |f| {
            f.kind(kind::ROSTER, "fleet roster")?;
            // Every string carries at least its 4-byte length.
            let data_addrs = f.list(4, Fields::string)?;
            let adopt_group_max = match f.u8()? {
                0 => false,
                1 => true,
                b => return Err(malformed(format!("count rule {b} is neither 0 nor 1"))),
            };
            let heartbeat = match f.u64()? {
                0 => None,
                us => Some(Duration::from_micros(us)),
            };
            Ok(FleetRoster {
                data_addrs,
                adopt_group_max,
                heartbeat,
            })
        })
    }
}

/// Incremental frame decoder: push raw socket bytes in, pull complete
/// frames out. Partial frames (a truncated header or a payload still
/// in flight) are *not* errors — they simply wait for more bytes.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes before `start` are consumed frames awaiting compaction.
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends raw bytes read from the socket.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        // Compact lazily: only when consumed bytes dominate the buffer.
        if self.start > 0 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet yielded as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Consumes the next complete frame and returns where its payload
    /// sits in `buf`, `Ok(None)` when the buffered bytes end mid-frame.
    ///
    /// # Errors
    /// [`CommError::MalformedFrame`] when the length prefix itself is
    /// corrupt (≥ [`MAX_FRAME`]); the buffer is poisoned at that point
    /// and the caller must drop the connection.
    fn next_payload(&mut self) -> Result<Option<Range<usize>>> {
        let Some(header) = self
            .buf
            .get(self.start..)
            .and_then(<[u8]>::first_chunk::<HEADER_LEN>)
        else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*header);
        if len >= MAX_FRAME {
            return Err(malformed(format!("oversized control frame ({len} bytes)")));
        }
        let payload = self.start + HEADER_LEN..self.start + HEADER_LEN + len as usize;
        if payload.end > self.buf.len() {
            return Ok(None);
        }
        self.start = payload.end;
        Ok(Some(payload))
    }

    /// Yields the next complete frame decoded as `T`, `Ok(None)` when the
    /// buffered bytes end mid-frame (truncation is not an error at this
    /// layer — the socket may deliver the rest later). The frame is
    /// consumed even when it fails to decode.
    ///
    /// # Errors
    /// [`CommError::MalformedFrame`] on a corrupt prefix (a length of
    /// 1 MiB or more: the caller must drop the connection) or payload.
    pub fn next_frame<T: Message>(&mut self) -> Result<Option<T>> {
        match self.next_payload()? {
            None => Ok(None),
            Some(payload) => decode(self.buf.get(payload).unwrap_or_default()).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_then_incremental_decode_roundtrips() {
        let msg = WorkerSignal::Ready {
            worker: 3,
            iteration: 17,
        };
        let frame = encode(&msg).unwrap();
        let mut buf = FrameBuffer::new();
        // Dribble the frame in one byte at a time: every prefix is a
        // clean "need more bytes", never an error.
        for (i, b) in frame.iter().enumerate() {
            buf.push_bytes(&[*b]);
            if i + 1 < frame.len() {
                assert_eq!(buf.next_frame::<WorkerSignal>().unwrap(), None);
            }
        }
        assert_eq!(buf.next_frame::<WorkerSignal>().unwrap(), Some(msg));
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn back_to_back_frames_all_surface() {
        let mut bytes = Vec::new();
        for w in 0..5usize {
            bytes.extend(encode(&WorkerSignal::Heartbeat { worker: w }).unwrap());
        }
        let mut buf = FrameBuffer::new();
        buf.push_bytes(&bytes);
        for w in 0..5usize {
            assert_eq!(
                buf.next_frame::<WorkerSignal>().unwrap(),
                Some(WorkerSignal::Heartbeat { worker: w })
            );
        }
        assert_eq!(buf.next_frame::<WorkerSignal>().unwrap(), None);
    }

    #[test]
    fn oversized_prefix_is_typed_error() {
        let mut buf = FrameBuffer::new();
        buf.push_bytes(&MAX_FRAME.to_be_bytes());
        let err = buf.next_payload().unwrap_err();
        assert!(matches!(err, CommError::MalformedFrame { .. }), "{err:?}");
    }

    #[test]
    fn garbage_payload_is_typed_error() {
        let mut buf = FrameBuffer::new();
        buf.push_bytes(&4u32.to_be_bytes());
        buf.push_bytes(b"!!!!");
        let err = buf.next_frame::<WorkerSignal>().unwrap_err();
        assert!(matches!(err, CommError::MalformedFrame { .. }), "{err:?}");
    }

    #[test]
    fn compaction_preserves_partial_frames() {
        let a = encode(&WorkerSignal::Heartbeat { worker: 0 }).unwrap();
        let b = encode(&WorkerSignal::Ready {
            worker: 1,
            iteration: 2,
        })
        .unwrap();
        let mut buf = FrameBuffer::new();
        buf.push_bytes(&a);
        assert!(buf.next_frame::<WorkerSignal>().unwrap().is_some());
        // Push the second frame in two halves around the compaction
        // trigger inside push_bytes.
        let (front, back) = b.split_at(3);
        buf.push_bytes(front);
        assert_eq!(buf.next_frame::<WorkerSignal>().unwrap(), None);
        buf.push_bytes(back);
        assert_eq!(
            buf.next_frame::<WorkerSignal>().unwrap(),
            Some(WorkerSignal::Ready {
                worker: 1,
                iteration: 2
            })
        );
    }

    #[test]
    fn the_layouts_are_the_documented_bytes() {
        let ready = encode(&WorkerSignal::Ready {
            worker: 0x0102_0304,
            iteration: 5,
        })
        .unwrap();
        assert_eq!(
            ready,
            [0, 0, 0, 13, 2, 4, 3, 2, 1, 5, 0, 0, 0, 0, 0, 0, 0],
            "length prefix, kind, worker u32 LE, iteration u64 LE"
        );
        let assignment = encode(&GroupAssignment {
            group: vec![7],
            weights: vec![1.0],
            base_tag: 1,
            new_iteration: 2,
        })
        .unwrap();
        let mut want = vec![0, 0, 0, 33, 5];
        want.extend_from_slice(&1u64.to_le_bytes());
        want.extend_from_slice(&2u64.to_le_bytes());
        want.extend_from_slice(&[1, 0, 0, 0, 7, 0, 0, 0]);
        want.extend_from_slice(&[1, 0, 0, 0]);
        want.extend_from_slice(&1.0f32.to_bits().to_le_bytes());
        assert_eq!(assignment, want);
        let roster = encode(&FleetRoster {
            data_addrs: vec!["a".to_string()],
            adopt_group_max: true,
            heartbeat: Some(Duration::from_millis(50)),
        })
        .unwrap();
        let mut want = vec![0, 0, 0, 19, 6, 1, 0, 0, 0, 1, 0, 0, 0, b'a', 1];
        want.extend_from_slice(&50_000u64.to_le_bytes());
        assert_eq!(
            roster, want,
            "length prefix, kind, count u32 LE, one string, rule u8, beat µs u64 LE"
        );
    }

    #[test]
    fn a_beat_period_the_wire_cannot_carry_does_not_encode() {
        let roster = |heartbeat| FleetRoster {
            data_addrs: Vec::new(),
            adopt_group_max: false,
            heartbeat: Some(heartbeat),
        };
        // Under a microsecond would read back as "not watched"; past
        // `u64::MAX` microseconds does not fit at all.
        for period in [Duration::from_nanos(999), Duration::MAX] {
            let err = encode(&roster(period)).unwrap_err();
            assert!(
                matches!(&err, CommError::MalformedFrame { detail } if detail.contains("heartbeat period")),
                "{period:?}: {err:?}"
            );
        }
    }

    #[test]
    fn a_rank_beyond_u32_does_not_encode() {
        let rank = u32::MAX as usize + 1;
        for err in [
            encode(&WorkerSignal::Heartbeat { worker: rank }).unwrap_err(),
            encode(&GroupAssignment {
                group: vec![0, rank],
                weights: vec![0.5, 0.5],
                base_tag: 0,
                new_iteration: 0,
            })
            .unwrap_err(),
            encode(&Hello {
                rank,
                data_addr: None,
            })
            .unwrap_err(),
        ] {
            assert!(
                matches!(&err, CommError::MalformedFrame { detail } if detail.contains("u32")),
                "{err:?}"
            );
        }
    }

    fn hello_payloads() -> Vec<(Hello, Vec<u8>)> {
        [None, Some(String::new()), Some("10.0.0.7:7070".to_string())]
            .into_iter()
            .map(|data_addr| {
                let hello = Hello {
                    rank: 65_537,
                    data_addr,
                };
                let frame = encode(&hello).unwrap();
                (hello, frame[HEADER_LEN..].to_vec())
            })
            .collect()
    }

    #[test]
    fn hellos_roundtrip() {
        for (hello, payload) in hello_payloads() {
            let got: Hello = decode(&payload).unwrap();
            assert_eq!((got.rank, got.data_addr), (hello.rank, hello.data_addr));
        }
    }

    #[test]
    fn every_bit_flip_and_truncation_of_a_hello_is_decoded_or_typed() {
        for (_, payload) in hello_payloads() {
            for keep in 0..payload.len() {
                let err = decode::<Hello>(&payload[..keep]).unwrap_err();
                assert!(matches!(err, CommError::MalformedFrame { .. }), "{err:?}");
            }
            for bit in 0..payload.len() * 8 {
                let mut flipped = payload.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                match decode::<Hello>(&flipped) {
                    Ok(_) | Err(CommError::MalformedFrame { .. }) => {}
                    Err(e) => panic!("bit {bit}: {e:?}"),
                }
            }
        }
    }

    #[test]
    fn a_hello_on_another_wire_version_names_both_versions() {
        let (_, mut payload) = hello_payloads().swap_remove(0);
        payload[1] = 3;
        let err = decode::<Hello>(&payload).unwrap_err();
        assert!(
            matches!(&err, CommError::MalformedFrame { detail }
                if detail.contains("version 3") && detail.contains("version 4")),
            "{err:?}"
        );
    }

    #[test]
    fn a_hello_is_no_other_message() {
        let (_, payload) = hello_payloads().swap_remove(2);
        assert!(decode::<WorkerSignal>(&payload).is_err());
        assert!(decode::<GroupAssignment>(&payload).is_err());
        assert!(decode::<FleetRoster>(&payload).is_err());
        let ready = encode(&WorkerSignal::Ready {
            worker: 0,
            iteration: 0,
        })
        .unwrap();
        assert!(decode::<Hello>(&ready[HEADER_LEN..]).is_err());
    }
}
