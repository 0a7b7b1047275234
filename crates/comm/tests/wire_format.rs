//! Property suite for the control-plane wire format (DESIGN.md §12):
//! every public frame type round-trips through encode + incremental
//! decode under arbitrary chunking, and malformed, truncated, or
//! corrupted byte streams surface typed [`CommError::MalformedFrame`]
//! errors — never a panic, never a silent wrong decode of a length
//! prefix. (`Hello`, which is crate-private, has the same checks as
//! unit tests in `frame.rs`.)

use proptest::prelude::*;

use preduce_comm::control::{FleetRoster, GroupAssignment, WorkerSignal};
use preduce_comm::frame::{self, FrameBuffer, Message, HEADER_LEN};
use preduce_comm::CommError;

/// Every rank the wire's `u32` can carry.
fn arb_rank() -> impl Strategy<Value = usize> {
    0usize..=u32::MAX as usize
}

fn arb_signal() -> impl Strategy<Value = WorkerSignal> {
    prop_oneof![
        (arb_rank(), any::<u64>())
            .prop_map(|(worker, iteration)| WorkerSignal::Ready { worker, iteration }),
        arb_rank().prop_map(|worker| WorkerSignal::Leaving { worker }),
        arb_rank().prop_map(|worker| WorkerSignal::Heartbeat { worker }),
    ]
}

/// Any `f32` bit pattern: NaNs with any payload, infinities, subnormals.
fn arb_weight() -> impl Strategy<Value = f32> {
    prop_oneof![any::<f32>(), any::<u32>().prop_map(f32::from_bits)]
}

fn arb_assignment() -> impl Strategy<Value = GroupAssignment> {
    (
        prop::collection::vec(arb_rank(), 0..16),
        prop::collection::vec(arb_weight(), 0..16),
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
    (prop::collection::vec("[ -~]{0,40}", 0..16), any::<bool>()).prop_map(
        |(data_addrs, adopt_group_max)| FleetRoster {
            data_addrs,
            adopt_group_max,
        },
    )
}

/// An assignment's fields with each weight as its bit pattern, so NaNs
/// compare equal to themselves.
fn bits(a: &GroupAssignment) -> (Vec<usize>, Vec<u32>, u64, u64) {
    (
        a.group.clone(),
        a.weights.iter().map(|w| w.to_bits()).collect(),
        a.base_tag,
        a.new_iteration,
    )
}

fn payload<T: Message>(msg: &T) -> Vec<u8> {
    frame::encode(msg).expect("messages in range encode")[HEADER_LEN..].to_vec()
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

/// Every strict prefix of `payload` is a typed error (a payload is never
/// a prefix of another), and every single-bit flip decodes or is a typed
/// error.
fn corruptions_are_typed<T: Message + std::fmt::Debug>(
    payload: &[u8],
) -> Result<(), TestCaseError> {
    for keep in 0..payload.len() {
        match frame::decode::<T>(&payload[..keep]) {
            Err(CommError::MalformedFrame { .. }) => {}
            other => prop_assert!(false, "prefix of {} bytes: {:?}", keep, other),
        }
    }
    for bit in 0..payload.len() * 8 {
        let mut flipped = payload.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        match frame::decode::<T>(&flipped) {
            Ok(_) | Err(CommError::MalformedFrame { .. }) => {}
            Err(e) => prop_assert!(false, "bit {}: {:?}", bit, e),
        }
    }
    Ok(())
}

fn is_malformed<T: std::fmt::Debug>(r: &Result<T, CommError>) -> bool {
    matches!(r, Err(CommError::MalformedFrame { .. }))
}

/// Rejected by the count check itself, before any element is read or
/// any list allocated — not by running out of bytes later.
fn is_oversized_count<T: std::fmt::Debug>(r: &Result<T, CommError>) -> bool {
    matches!(r, Err(CommError::MalformedFrame { detail }) if detail.starts_with("declared"))
}

/// How far past what fits a corrupted count reaches: just past, or
/// anywhere up to `u32::MAX`.
fn arb_overshoot() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..=4, 1u32..=u32::MAX]
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
    /// every `f32` bit pattern: weights travel as raw bits.
    #[test]
    fn assignment_roundtrips(msg in arb_assignment(), cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6)) {
        let bytes = frame::encode(&msg).expect("assignments always encode");
        let mut buf = FrameBuffer::new();
        push_chunked(&mut buf, &bytes, &cuts);
        let got = buf.next_frame::<GroupAssignment>().unwrap().expect("a whole frame");
        prop_assert_eq!(bits(&got), bits(&msg));
        prop_assert_eq!(buf.pending(), 0);
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

    /// One worker's `Ready` frames with heartbeats from its background
    /// thread between them, chunked arbitrarily, come out in send order.
    #[test]
    fn heartbeats_between_readies_keep_their_order(
        worker in arb_rank(),
        beats in prop::collection::vec(0usize..4, 1..10),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..16),
    ) {
        let mut msgs = Vec::new();
        for (iteration, &n) in beats.iter().enumerate() {
            msgs.extend((0..n).map(|_| WorkerSignal::Heartbeat { worker }));
            msgs.push(WorkerSignal::Ready { worker, iteration: iteration as u64 });
        }
        let bytes: Vec<u8> = msgs
            .iter()
            .flat_map(|m| frame::encode(m).expect("signals always encode"))
            .collect();
        let mut buf = FrameBuffer::new();
        push_chunked(&mut buf, &bytes, &cuts);
        let mut decoded = Vec::new();
        while let Some(m) = buf.next_frame::<WorkerSignal>().unwrap() {
            decoded.push(m);
        }
        prop_assert_eq!(decoded, msgs);
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

    /// Every truncation and every single-bit flip of a signal's payload
    /// decodes or fails typed.
    #[test]
    fn signal_corruptions_are_typed(msg in arb_signal()) {
        corruptions_are_typed::<WorkerSignal>(&payload(&msg))?;
    }

    /// The same for assignments: flips land in the kind byte, the fixed
    /// fields, both list lengths and the list elements.
    #[test]
    fn assignment_corruptions_are_typed(msg in arb_assignment()) {
        corruptions_are_typed::<GroupAssignment>(&payload(&msg))?;
    }

    /// The same for rosters, whose flips can also break UTF-8.
    #[test]
    fn roster_corruptions_are_typed(msg in arb_roster()) {
        corruptions_are_typed::<FleetRoster>(&payload(&msg))?;
    }

    /// A corrupted frame is consumed whole, decoded or not: the frame
    /// boundary stays intact and the stream can go on.
    #[test]
    fn payload_corruption_is_typed(msg in arb_signal(), at in any::<prop::sample::Index>(), flip in 1u8..=255) {
        let mut bytes = frame::encode(&msg).expect("signals always encode");
        let i = HEADER_LEN + at.index(bytes.len() - HEADER_LEN);
        bytes[i] ^= flip;
        let mut buf = FrameBuffer::new();
        buf.push_bytes(&bytes);
        match buf.next_frame::<WorkerSignal>() {
            Ok(_) => {}
            Err(e) => prop_assert!(matches!(e, CommError::MalformedFrame { .. }), "{:?}", e),
        }
        prop_assert_eq!(buf.pending(), 0);
    }

    /// An assignment whose group or weight count claims more elements
    /// than the rest of the payload holds is rejected.
    #[test]
    fn a_list_longer_than_the_payload_is_rejected(msg in arb_assignment(), weights in any::<bool>(), over in arb_overshoot()) {
        let mut p = payload(&msg);
        // kind, base tag, new iteration: the group count sits at byte 17.
        let group_at = 17;
        let at = if weights { group_at + 4 + 4 * msg.group.len() } else { group_at };
        let fits = (p.len() - at - 4) / 4;
        let declared = u32::try_from(fits).unwrap().saturating_add(over);
        p[at..at + 4].copy_from_slice(&declared.to_le_bytes());
        let r = frame::decode::<GroupAssignment>(&p);
        prop_assert!(is_oversized_count(&r), "{:?}", r);
    }

    /// A roster declaring more addresses than its bytes can hold is
    /// rejected.
    #[test]
    fn a_roster_longer_than_the_payload_is_rejected(msg in arb_roster(), over in arb_overshoot()) {
        let mut p = payload(&msg);
        let fits = (p.len() - 5) / 4;
        let declared = u32::try_from(fits).unwrap().saturating_add(over);
        p[1..5].copy_from_slice(&declared.to_le_bytes());
        let r = frame::decode::<FleetRoster>(&p);
        prop_assert!(is_oversized_count(&r), "{:?}", r);
    }

    /// The roster's last byte is the count rule: 0 (CON) or 1 (DYN), and
    /// any other value is rejected.
    #[test]
    fn a_roster_rule_other_than_0_or_1_is_rejected(msg in arb_roster(), rule in 2u8..=255) {
        let mut p = payload(&msg);
        if let Some(last) = p.last_mut() {
            *last = rule;
        }
        let r = frame::decode::<FleetRoster>(&p);
        prop_assert!(
            matches!(&r, Err(CommError::MalformedFrame { detail }) if detail.contains("count rule")),
            "{:?}",
            r
        );
    }

    /// A frame handed to another type's decoder is a typed error, never
    /// a wrong decode.
    #[test]
    fn a_frame_decoded_as_the_wrong_type_is_an_error(signal in arb_signal(), a in arb_assignment(), r in arb_roster()) {
        let (signal, a, r) = (payload(&signal), payload(&a), payload(&r));
        prop_assert!(is_malformed(&frame::decode::<GroupAssignment>(&signal)));
        prop_assert!(is_malformed(&frame::decode::<FleetRoster>(&signal)));
        prop_assert!(is_malformed(&frame::decode::<WorkerSignal>(&a)));
        prop_assert!(is_malformed(&frame::decode::<FleetRoster>(&a)));
        prop_assert!(is_malformed(&frame::decode::<WorkerSignal>(&r)));
        prop_assert!(is_malformed(&frame::decode::<GroupAssignment>(&r)));
    }

    /// Bytes after a whole message are an error.
    #[test]
    fn trailing_bytes_are_an_error(msg in arb_signal(), tail in prop::collection::vec(any::<u8>(), 1..8)) {
        let mut p = payload(&msg);
        p.extend(tail);
        prop_assert!(is_malformed(&frame::decode::<WorkerSignal>(&p)));
    }
}
