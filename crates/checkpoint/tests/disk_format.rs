//! Property suite for the checkpoint on-disk format (DESIGN.md §14),
//! mirroring `comm/tests/wire_format.rs`: a worker snapshot round-trips
//! through encode + decode regardless of how the bytes were chunked onto
//! disk, and truncated, corrupted, or version-skewed files resolve to
//! typed [`CheckpointError`] variants — never a panic, never a silent
//! partial restore.

use proptest::prelude::*;

use preduce_checkpoint::{
    decode, encode, CheckpointError, CheckpointStore, WorkerSnapshot, FORMAT_VERSION, HEADER_LEN,
    TRAILER_LEN,
};

fn arb_worker() -> impl Strategy<Value = WorkerSnapshot> {
    (
        0usize..1024,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec(
            any::<f32>().prop_filter("JSON cannot carry NaN/inf", |x| x.is_finite()),
            1..64,
        ),
    )
        .prop_map(|(rank, iteration, updates_applied, opt_steps, params)| {
            let velocity = params.iter().map(|p| p * 0.5).collect();
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
    /// bit-exactly (serde_json shortest-representation floats decode back
    /// to the same f32).
    #[test]
    fn worker_snapshot_roundtrips_under_chunked_writes(
        snap in arb_worker(),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        let dir = scratch("worker-roundtrip");
        let path = dir.join("snap.ckpt");
        let bytes = encode(&snap).expect("snapshots always encode");
        write_chunked(&path, &bytes, &cuts);
        let back: WorkerSnapshot = decode(&std::fs::read(&path).expect("read")).expect("decode");
        prop_assert_eq!(back, snap);
    }

    /// Any strict prefix of a valid file is a typed `Truncated` error —
    /// the atomicity contract's failure mode (a torn write before the
    /// rename) can never decode as a partial snapshot.
    #[test]
    fn every_truncation_is_typed(snap in arb_worker(), keep in any::<prop::sample::Index>()) {
        let bytes = encode(&snap).expect("encode");
        let cut = keep.index(bytes.len()); // strictly shorter than the file
        match decode::<WorkerSnapshot>(&bytes[..cut]) {
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
        let err = decode::<WorkerSnapshot>(&bytes).expect_err("flip must not decode");
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
            decode::<WorkerSnapshot>(&bytes).expect_err("skew must not decode"),
            CheckpointError::VersionSkew { found: version, supported: FORMAT_VERSION }
        );
    }

    /// Arbitrary garbage never panics the decoder and never yields a
    /// snapshot (the magic is 8 bytes; random collision is negligible and
    /// filtered).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        prop_assume!(bytes.len() < 8 || bytes[..8] != preduce_checkpoint::MAGIC);
        prop_assert!(decode::<WorkerSnapshot>(&bytes).is_err());
    }

    /// The store's load path applies the same verification: a corrupted
    /// file on disk is a typed error from `load_worker`, and the previous
    /// good snapshot is recoverable by rewriting (atomic replace).
    #[test]
    fn store_rejects_corrupted_files(snap in arb_worker(), flip in any::<prop::sample::Index>()) {
        let dir = scratch("store-corrupt");
        let store = CheckpointStore::open(dir).expect("open store");
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
        prop_assert_eq!(store.load_worker(snap.rank).expect("reload"), snap);
    }
}
