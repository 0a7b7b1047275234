//! Property suite for the control-plane wire format (DESIGN.md §12):
//! every public frame type round-trips through encode + incremental
//! decode under arbitrary chunking, and malformed, truncated, or
//! corrupted byte streams surface typed [`CommError::MalformedFrame`]
//! errors — never a panic, never a silent wrong decode of a length
//! prefix.

use proptest::prelude::*;

use preduce_comm::control::{FleetRoster, GroupAssignment, WorkerSignal};
use preduce_comm::frame::{self, FrameBuffer, HEADER_LEN};
use preduce_comm::CommError;

fn arb_signal() -> impl Strategy<Value = WorkerSignal> {
    prop_oneof![
        (0usize..4096, any::<u64>())
            .prop_map(|(worker, iteration)| WorkerSignal::Ready { worker, iteration }),
        (0usize..4096).prop_map(|worker| WorkerSignal::Leaving { worker }),
        (0usize..4096).prop_map(|worker| WorkerSignal::Heartbeat { worker }),
    ]
}

fn arb_assignment() -> impl Strategy<Value = GroupAssignment> {
    (
        prop::collection::vec(0usize..4096, 0..16),
        prop::collection::vec(
            any::<f32>().prop_filter("JSON cannot carry NaN/inf", |x| x.is_finite()),
            0..16,
        ),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(group, weights, base_tag, new_iteration)| GroupAssignment {
                group,
                weights,
                base_tag,
                new_iteration,
            },
        )
}

fn arb_roster() -> impl Strategy<Value = FleetRoster> {
    prop::collection::vec("[ -~]{0,40}", 0..16).prop_map(|data_addrs| FleetRoster { data_addrs })
}

/// Pushes `bytes` split at the given fractional cut points, mimicking a
/// socket delivering arbitrary read sizes.
fn push_chunked(buf: &mut FrameBuffer, bytes: &[u8], cuts: &[prop::sample::Index]) {
    let mut splits: Vec<usize> = cuts.iter().map(|c| c.index(bytes.len() + 1)).collect();
    splits.push(0);
    splits.push(bytes.len());
    splits.sort_unstable();
    for pair in splits.windows(2) {
        buf.push_bytes(&bytes[pair[0]..pair[1]]);
    }
}

proptest! {
    /// Every `WorkerSignal` variant survives encode → chunked decode.
    #[test]
    fn signal_roundtrips(msg in arb_signal(), cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6)) {
        let bytes = frame::encode(&msg).expect("signals always encode");
        let mut buf = FrameBuffer::new();
        push_chunked(&mut buf, &bytes, &cuts);
        prop_assert_eq!(buf.next_frame::<WorkerSignal>().unwrap(), Some(msg));
        prop_assert_eq!(buf.pending(), 0);
    }

    /// Group assignments (the only frame carrying floats) round-trip
    /// bit-exactly: serde_json's shortest-representation floats decode
    /// back to the same f32.
    #[test]
    fn assignment_roundtrips(msg in arb_assignment(), cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6)) {
        let bytes = frame::encode(&msg).expect("assignments always encode");
        let mut buf = FrameBuffer::new();
        push_chunked(&mut buf, &bytes, &cuts);
        prop_assert_eq!(buf.next_frame::<GroupAssignment>().unwrap(), Some(msg));
    }

    /// Fleet rosters (arbitrary printable addresses) round-trip.
    #[test]
    fn roster_roundtrips(msg in arb_roster(), cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6)) {
        let bytes = frame::encode(&msg).expect("rosters always encode");
        let mut buf = FrameBuffer::new();
        push_chunked(&mut buf, &bytes, &cuts);
        prop_assert_eq!(buf.next_frame::<FleetRoster>().unwrap(), Some(msg));
    }

    /// A back-to-back stream of frames delivered in arbitrary chunks
    /// decodes to exactly the sent sequence, in order.
    #[test]
    fn streams_preserve_order_under_chunking(
        msgs in prop::collection::vec(arb_signal(), 1..12),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..12),
    ) {
        let mut bytes = Vec::new();
        for m in &msgs {
            bytes.extend(frame::encode(m).expect("signals always encode"));
        }
        let mut buf = FrameBuffer::new();
        push_chunked(&mut buf, &bytes, &cuts);
        let mut decoded = Vec::new();
        while let Some(m) = buf.next_frame::<WorkerSignal>().unwrap() {
            decoded.push(m);
        }
        prop_assert_eq!(decoded, msgs);
        prop_assert_eq!(buf.pending(), 0);
    }

    /// Truncating a valid frame anywhere is "need more bytes", never an
    /// error and never a bogus decode.
    #[test]
    fn truncation_is_not_an_error(msg in arb_signal(), keep in any::<prop::sample::Index>()) {
        let bytes = frame::encode(&msg).expect("signals always encode");
        let keep = keep.index(bytes.len()); // strictly < len: always truncated
        let mut buf = FrameBuffer::new();
        buf.push_bytes(&bytes[..keep]);
        prop_assert_eq!(buf.next_frame::<WorkerSignal>().unwrap(), None);
        prop_assert_eq!(buf.pending(), keep);
    }

    /// A length prefix at or above the 1 MiB frame limit is a typed error
    /// (the caller must drop the connection), regardless of what follows.
    #[test]
    fn oversized_prefix_is_typed_error(extra in 0u32..1000, tail in prop::collection::vec(any::<u8>(), 0..32)) {
        let len = (1u32 << 20).saturating_add(extra);
        let mut buf = FrameBuffer::new();
        buf.push_bytes(&len.to_be_bytes());
        buf.push_bytes(&tail);
        let err = buf.next_frame::<WorkerSignal>().unwrap_err();
        prop_assert!(matches!(err, CommError::MalformedFrame { .. }), "{:?}", err);
    }

    /// Arbitrary garbage bytes never panic the decoder: every complete
    /// "frame" either fails to decode with a typed error or (rarely)
    /// happens to parse; partial bytes wait for more.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut buf = FrameBuffer::new();
        buf.push_bytes(&bytes);
        // Each iteration consumes at least HEADER_LEN bytes or stops.
        for _ in 0..(bytes.len() / HEADER_LEN + 1) {
            match buf.next_frame::<WorkerSignal>() {
                Ok(Some(_)) => {} // a miraculous valid frame — fine
                Ok(None) => break,
                Err(e) => {
                    prop_assert!(matches!(e, CommError::MalformedFrame { .. }), "{:?}", e);
                    break;
                }
            }
        }
    }

    /// Flipping any single payload byte of a valid frame either still
    /// parses (JSON is not error-detecting) or fails typed — no panic,
    /// and the frame boundary itself stays intact.
    #[test]
    fn payload_corruption_is_typed(msg in arb_signal(), at in any::<prop::sample::Index>(), flip in 1u8..=255) {
        let mut bytes = frame::encode(&msg).expect("signals always encode");
        let payload_len = bytes.len() - HEADER_LEN;
        prop_assume!(payload_len > 0);
        let i = HEADER_LEN + at.index(payload_len);
        bytes[i] ^= flip;
        let mut buf = FrameBuffer::new();
        buf.push_bytes(&bytes);
        match buf.next_frame::<WorkerSignal>() {
            Ok(_) => {}
            Err(e) => prop_assert!(matches!(e, CommError::MalformedFrame { .. }), "{:?}", e),
        }
        // The corrupted frame was consumed either way: the stream can
        // continue with the next frame.
        prop_assert_eq!(buf.pending(), 0);
    }

    /// `decode` on a truncated payload handed in whole (the blocking
    /// transport's failure mode) is a typed error.
    #[test]
    fn whole_truncated_payload_fails_typed(msg in arb_signal(), keep in any::<prop::sample::Index>()) {
        let bytes = frame::encode(&msg).expect("signals always encode");
        let payload = &bytes[HEADER_LEN..];
        prop_assume!(payload.len() > 1);
        let keep = 1 + keep.index(payload.len() - 1); // 1..len: nonempty strict prefix
        let err = frame::decode::<WorkerSignal>(&payload[..keep]).unwrap_err();
        prop_assert!(matches!(err, CommError::MalformedFrame { .. }), "{:?}", err);
    }
}
