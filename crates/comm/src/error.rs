use std::fmt;

/// Errors from the message-passing runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A rank outside `0..world_size` was addressed.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// The world size.
        world: usize,
    },
    /// The peer's endpoint has been dropped; the world is shutting down.
    Disconnected {
        /// The peer whose channel closed.
        peer: usize,
    },
    /// A receive did not complete within the configured timeout — in this
    /// in-process runtime that indicates a deadlocked or panicked peer.
    Timeout {
        /// The peer being waited on.
        peer: usize,
        /// The tag being waited for.
        tag: u64,
    },
    /// A collective was invoked with an invalid group (empty, duplicate
    /// members, out-of-range ranks, or the caller not in the group).
    InvalidGroup(String),
    /// Payload length mismatch between group members in a collective.
    PayloadMismatch {
        /// Length this rank holds.
        expected: usize,
        /// Length received from a peer.
        actual: usize,
    },
    /// A control frame failed to encode or decode: an oversized length
    /// prefix, a payload that is not the expected message's layout (its
    /// kind byte, a short field, a length that does not fit, trailing
    /// bytes), a peer on another wire version, or a rank too large for
    /// the wire. Decode paths return this instead of panicking; the
    /// connection that produced it must be dropped (the stream is
    /// desynchronized).
    MalformedFrame {
        /// What was wrong with the frame.
        detail: String,
    },
    /// A TCP connect did not succeed within the retry policy's budget.
    /// Carries the real OS error text instead of the old
    /// `Disconnected { peer: usize::MAX }` sentinel.
    ConnectFailed {
        /// The address dialed.
        addr: String,
        /// How many attempts were made before giving up.
        attempts: u32,
        /// The last underlying `io::Error`, stringified (kept as text so
        /// `CommError` stays `Clone + PartialEq + Eq`).
        error: String,
    },
    /// A controller listener could not be bound: the address does not
    /// parse or resolve, or the OS refused it (in use, not local).
    BindFailed {
        /// The address asked for.
        addr: String,
        /// The underlying `io::Error`, stringified.
        error: String,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::InvalidRank { rank, world } => {
                write!(f, "rank {rank} out of range for world of {world}")
            }
            CommError::Disconnected { peer } => {
                write!(f, "peer {peer} disconnected")
            }
            CommError::Timeout { peer, tag } => {
                write!(f, "timed out waiting for tag {tag} from peer {peer}")
            }
            CommError::InvalidGroup(msg) => write!(f, "invalid group: {msg}"),
            CommError::MalformedFrame { detail } => {
                write!(f, "malformed control frame: {detail}")
            }
            CommError::PayloadMismatch { expected, actual } => write!(
                f,
                "payload length mismatch in collective: {expected} vs {actual}"
            ),
            CommError::ConnectFailed {
                addr,
                attempts,
                error,
            } => write!(
                f,
                "connect to {addr} failed after {attempts} attempt(s): {error}"
            ),
            CommError::BindFailed { addr, error } => {
                write!(f, "cannot listen on {addr}: {error}")
            }
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_details() {
        assert!(CommError::InvalidRank { rank: 9, world: 4 }
            .to_string()
            .contains('9'));
        assert!(CommError::Timeout { peer: 2, tag: 77 }
            .to_string()
            .contains("77"));
        let e = CommError::ConnectFailed {
            addr: "127.0.0.1:9".into(),
            attempts: 5,
            error: "connection refused".into(),
        };
        assert!(e.to_string().contains("127.0.0.1:9"));
        assert!(e.to_string().contains("5 attempt(s)"));
        assert!(e.to_string().contains("refused"));
        let m = CommError::MalformedFrame {
            detail: "oversized control frame (9999999 bytes)".into(),
        };
        assert!(m.to_string().contains("malformed control frame"));
        assert!(m.to_string().contains("9999999"));
    }
}
