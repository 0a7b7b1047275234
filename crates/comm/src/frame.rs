//! The control-plane wire format: 4-byte big-endian length prefix +
//! JSON payload, shared by every TCP transport in the crate.
//!
//! Two consumers decode it: the blocking per-socket reads of
//! [`crate::tcp`] (one frame per call) and the controller's
//! non-blocking sockets in [`crate::tcp::TcpControllerLink`], which read
//! whatever bytes a ready socket has and need an *incremental* decoder —
//! [`FrameBuffer`] — that yields complete frames as they materialize and
//! holds partial ones across reads.
//!
//! Decode failures are typed, never panics: an oversized length prefix
//! or an undecodable payload surfaces [`CommError::MalformedFrame`]
//! (the property suite in `tests/wire_format.rs` drives this contract
//! with arbitrary corruptions).

use serde::{de::DeserializeOwned, Serialize};

use crate::error::CommError;
use crate::Result;

/// Maximum accepted frame size: control messages are tiny; anything
/// close to this indicates protocol corruption.
pub(crate) const MAX_FRAME: u32 = 1 << 20;

/// Length of the big-endian length prefix.
pub const HEADER_LEN: usize = 4;

/// Serializes `msg` into one complete frame (header + payload).
///
/// # Errors
/// [`CommError::MalformedFrame`] if the message does not serialize or
/// its payload would reach the 1 MiB frame limit.
pub fn encode<T: Serialize>(msg: &T) -> Result<Vec<u8>> {
    let payload = serde_json::to_vec(msg).map_err(|e| CommError::MalformedFrame {
        detail: format!("unserializable control message: {e}"),
    })?;
    if payload.len() >= MAX_FRAME as usize {
        return Err(CommError::MalformedFrame {
            detail: format!("frame payload of {} bytes exceeds MAX_FRAME", payload.len()),
        });
    }
    let len = payload.len() as u32;
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Decodes one frame *payload* (the bytes after the length prefix).
///
/// # Errors
/// [`CommError::MalformedFrame`] if the payload is not valid JSON for
/// `T` — including truncated payloads handed in whole.
pub fn decode<T: DeserializeOwned>(payload: &[u8]) -> Result<T> {
    serde_json::from_slice(payload).map_err(|e| CommError::MalformedFrame {
        detail: format!("undecodable control frame: {e}"),
    })
}

/// Incremental frame decoder: push raw socket bytes in, pull complete
/// payloads out. Partial frames (a truncated header or a payload still
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

    /// Yields the next complete frame payload, `Ok(None)` when the
    /// buffered bytes end mid-frame (truncation is not an error at this
    /// layer — the socket may deliver the rest later).
    ///
    /// # Errors
    /// [`CommError::MalformedFrame`] when the length prefix itself is
    /// corrupt (≥ [`MAX_FRAME`]); the buffer is poisoned at that point
    /// and the caller must drop the connection.
    fn next_payload(&mut self) -> Result<Option<Vec<u8>>> {
        let avail = self.pending();
        if avail < HEADER_LEN {
            return Ok(None);
        }
        let header = self
            .buf
            .get(self.start..self.start + HEADER_LEN)
            .and_then(|h| <[u8; HEADER_LEN]>::try_from(h).ok())
            .ok_or_else(|| CommError::MalformedFrame {
                detail: "frame header slice out of bounds".into(),
            })?;
        let len = u32::from_be_bytes(header);
        if len >= MAX_FRAME {
            return Err(CommError::MalformedFrame {
                detail: format!("oversized control frame ({len} bytes)"),
            });
        }
        let total = HEADER_LEN + len as usize;
        if avail < total {
            return Ok(None);
        }
        let payload = self
            .buf
            .get(self.start + HEADER_LEN..self.start + total)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| CommError::MalformedFrame {
                detail: "frame payload slice out of bounds".into(),
            })?;
        self.start += total;
        Ok(Some(payload))
    }

    /// Yields the next complete frame decoded as `T`, `Ok(None)` when the
    /// buffered bytes end mid-frame (truncation is not an error at this
    /// layer — the socket may deliver the rest later).
    ///
    /// # Errors
    /// [`CommError::MalformedFrame`] on a corrupt prefix (a length of
    /// 1 MiB or more: the caller must drop the connection) or payload.
    pub fn next_frame<T: DeserializeOwned>(&mut self) -> Result<Option<T>> {
        match self.next_payload()? {
            None => Ok(None),
            Some(payload) => decode(&payload).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::WorkerSignal;

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
}
