//! Property suite for the checkpoint on-disk format (DESIGN.md §14),
//! mirroring `comm/tests/wire_format.rs`: a worker snapshot round-trips
//! bit for bit — every `f32` bit pattern, NaN payloads and infinities
//! included — through encode + decode regardless of how the bytes were
//! chunked onto disk, and truncated, corrupted, inconsistent or
//! version-skewed files resolve to typed [`CheckpointError`] variants —
//! never a panic, never a silent partial restore.

use proptest::prelude::*;

use preduce_checkpoint::{
    decode, encode, fnv1a64, CheckpointError, CheckpointStore, WorkerSnapshot, FORMAT_VERSION,
    HEADER_LEN, MAGIC, TRAILER_LEN,
};

fn arb_worker() -> impl Strategy<Value = WorkerSnapshot> {
    (
        0usize..1024,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec((any::<f32>(), any::<f32>()), 1..64),
    )
        .prop_map(|(rank, iteration, updates_applied, opt_steps, floats)| {
            let (params, velocity) = floats.into_iter().unzip();
            WorkerSnapshot {
                rank,
                iteration,
                updates_applied,
                opt_steps,
                params,
                velocity,
            }
        })
}

/// A snapshot as plain bits: `WorkerSnapshot`'s `PartialEq` compares
/// floats by value, under which a NaN never equals itself.
fn bits(s: &WorkerSnapshot) -> (usize, u64, u64, u64, Vec<u32>, Vec<u32>) {
    let raw = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect();
    (
        s.rank,
        s.iteration,
        s.updates_applied,
        s.opt_steps,
        raw(&s.params),
        raw(&s.velocity),
    )
}

/// Wraps `payload` in a well-formed envelope of `version`: valid magic,
/// length and checksum, so only the payload (or the version) is at fault.
fn envelope(version: u32, payload: &[u8]) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&version.to_be_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    bytes.extend_from_slice(payload);
    let digest = fnv1a64(&bytes[8..]);
    bytes.extend_from_slice(&digest.to_be_bytes());
    bytes
}

/// The payload of `snap`'s version-2 file.
fn payload(snap: &WorkerSnapshot) -> Vec<u8> {
    let bytes = encode(snap).expect("encode");
    bytes[HEADER_LEN..bytes.len() - TRAILER_LEN].to_vec()
}

fn special_snapshot() -> WorkerSnapshot {
    let nan_with_payload = f32::from_bits(0x7fc0_1234);
    let negative_signalling_nan = f32::from_bits(0xff80_0001);
    let subnormal = f32::from_bits(0x0000_0001);
    WorkerSnapshot {
        rank: 5,
        iteration: 77,
        updates_applied: 70,
        opt_steps: 71,
        params: vec![nan_with_payload, f32::INFINITY, -0.0, subnormal, 1.5],
        velocity: vec![
            f32::NEG_INFINITY,
            negative_signalling_nan,
            -subnormal,
            -0.0,
            f32::NAN,
        ],
    }
}

/// A diverged worker's snapshot — NaN with payload bits, ±inf, −0.0, a
/// subnormal — is written and read back bit for bit, so the file that
/// replaces the last good one is always loadable.
#[test]
fn special_floats_roundtrip_bit_exactly_through_the_store() {
    let store = CheckpointStore::create(scratch("special-floats")).expect("open store");
    let snap = special_snapshot();
    store.save_worker(&snap).expect("save");
    let back = store.load_worker(snap.rank).expect("load");
    assert_eq!(bits(&back), bits(&snap));
}

/// A version-1 file (a JSON payload in a valid envelope) is refused as
/// version skew, never parsed.
#[test]
fn a_version_1_file_is_version_skew() {
    let json = br#"{"rank":0,"iteration":1,"updates_applied":1,"opt_steps":1,"params":[0.5],"velocity":[0.0]}"#;
    let store = CheckpointStore::create(scratch("version-1")).expect("open store");
    std::fs::write(store.worker_path(0), envelope(1, json)).expect("write v1 file");
    assert_eq!(
        store.load_worker(0),
        Err(CheckpointError::VersionSkew {
            found: 1,
            supported: 2
        })
    );
}

/// A count that claims more floats than the payload holds is malformed,
/// refused before anything is allocated for it.
#[test]
fn a_count_longer_than_the_payload_is_rejected() {
    let mut body = payload(&special_snapshot());
    for count in [6u32, u32::MAX] {
        body[28..32].copy_from_slice(&count.to_le_bytes());
        match decode(&envelope(FORMAT_VERSION, &body)) {
            Err(CheckpointError::Malformed { detail }) => {
                assert!(detail.contains(&format!("{count} parameters")), "{detail}")
            }
            other => panic!("count {count} gave {other:?}"),
        }
    }
}

/// Bytes past the velocity array are malformed, even when they would
/// make up another whole parameter and velocity entry.
#[test]
fn trailing_payload_bytes_are_malformed() {
    let body = payload(&special_snapshot());
    for extra in [1, 4, 8] {
        let mut long = body.clone();
        long.extend(std::iter::repeat_n(0u8, extra));
        assert!(
            matches!(
                decode(&envelope(FORMAT_VERSION, &long)),
                Err(CheckpointError::Malformed { .. })
            ),
            "{extra} trailing bytes"
        );
    }
    // The control: the same envelope around the untouched payload decodes.
    let back = decode(&envelope(FORMAT_VERSION, &body)).expect("decode");
    assert_eq!(bits(&back), bits(&special_snapshot()));
}

/// Writes `bytes` to `path` in the given chunks, mimicking a writer that
/// flushes at arbitrary boundaries mid-save.
fn write_chunked(path: &std::path::Path, bytes: &[u8], cuts: &[prop::sample::Index]) {
    use std::io::Write;
    let mut splits: Vec<usize> = cuts.iter().map(|c| c.index(bytes.len() + 1)).collect();
    splits.push(0);
    splits.push(bytes.len());
    splits.sort_unstable();
    let mut f = std::fs::File::create(path).expect("create chunk file");
    for pair in splits.windows(2) {
        f.write_all(&bytes[pair[0]..pair[1]]).expect("write chunk");
        f.flush().expect("flush chunk");
    }
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("preduce-ckpt-prop")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

proptest! {
    /// Worker snapshots survive encode → chunked write → read → decode
    /// bit-exactly: floats are stored as their raw bits.
    #[test]
    fn worker_snapshot_roundtrips_under_chunked_writes(
        snap in arb_worker(),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        let dir = scratch("worker-roundtrip");
        let path = dir.join("snap.ckpt");
        let bytes = encode(&snap).expect("snapshots always encode");
        write_chunked(&path, &bytes, &cuts);
        let back = decode(&std::fs::read(&path).expect("read")).expect("decode");
        prop_assert_eq!(bits(&back), bits(&snap));
    }

    /// Any strict prefix of a valid file is a typed `Truncated` error —
    /// the atomicity contract's failure mode (a torn write before the
    /// rename) can never decode as a partial snapshot.
    #[test]
    fn every_truncation_is_typed(snap in arb_worker(), keep in any::<prop::sample::Index>()) {
        let bytes = encode(&snap).expect("encode");
        let cut = keep.index(bytes.len()); // strictly shorter than the file
        match decode(&bytes[..cut]) {
            Err(CheckpointError::Truncated { needed, got }) => {
                prop_assert_eq!(got, cut);
                prop_assert!(needed > cut);
            }
            other => prop_assert!(false, "truncation at {cut} gave {other:?}"),
        }
    }

    /// Flipping any single bit is caught: in the magic, version, or
    /// length prefix as the matching header error; anywhere else by the
    /// checksum (or, for trailer bits, the stored-digest mismatch).
    #[test]
    fn every_single_bitflip_is_typed(
        snap in arb_worker(),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bytes = encode(&snap).expect("encode");
        let at = pos.index(bytes.len());
        bytes[at] ^= 1 << bit;
        let err = decode(&bytes).expect_err("flip must not decode");
        match (at, err) {
            (0..=7, CheckpointError::BadMagic { .. }) => {}
            (8..=11, CheckpointError::VersionSkew { found, .. }) => {
                prop_assert_ne!(found, FORMAT_VERSION);
            }
            // A corrupted length prefix reads as truncation, an oversize
            // claim, trailing garbage, or (if it still frames) a checksum
            // failure — all typed.
            (12..=15, CheckpointError::Truncated { .. })
            | (12..=15, CheckpointError::Oversized { .. })
            | (12..=15, CheckpointError::Malformed { .. })
            | (12..=15, CheckpointError::ChecksumMismatch { .. })
            | (_, CheckpointError::ChecksumMismatch { .. }) => {}
            (at, other) => prop_assert!(false, "flip at {at} gave {other:?}"),
        }
    }

    /// A non-current version field is always `VersionSkew`, checked
    /// before the payload is touched.
    #[test]
    fn version_skew_is_detected(snap in arb_worker(), version in any::<u32>()) {
        prop_assume!(version != FORMAT_VERSION);
        let mut bytes = encode(&snap).expect("encode");
        bytes[8..12].copy_from_slice(&version.to_be_bytes());
        prop_assert_eq!(
            decode(&bytes).expect_err("skew must not decode"),
            CheckpointError::VersionSkew { found: version, supported: FORMAT_VERSION }
        );
    }

    /// Arbitrary garbage never panics the decoder and never yields a
    /// snapshot (the magic is 8 bytes; random collision is negligible and
    /// filtered).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        prop_assume!(bytes.len() < 8 || bytes[..8] != MAGIC);
        prop_assert!(decode(&bytes).is_err());
    }

    /// The store's load path applies the same verification: a corrupted
    /// file on disk is a typed error from `load_worker`, and the previous
    /// good snapshot is recoverable by rewriting (atomic replace).
    #[test]
    fn store_rejects_corrupted_files(snap in arb_worker(), flip in any::<prop::sample::Index>()) {
        let dir = scratch("store-corrupt");
        let store = CheckpointStore::create(dir).expect("open store");
        store.save_worker(&snap).expect("save");
        let path = store.worker_path(snap.rank);
        let mut bytes = std::fs::read(&path).expect("read back");
        prop_assert!(bytes.len() > HEADER_LEN + TRAILER_LEN);
        let at = flip.index(bytes.len());
        bytes[at] ^= 0x10;
        std::fs::write(&path, &bytes).expect("corrupt");
        prop_assert!(store.load_worker(snap.rank).is_err());
        // Re-saving atomically restores a loadable snapshot.
        store.save_worker(&snap).expect("re-save");
        prop_assert_eq!(bits(&store.load_worker(snap.rank).expect("reload")), bits(&snap));
    }
}
