//! `preduce-checkpoint` — versioned, atomically-written training
//! snapshots (DESIGN.md §14).
//!
//! The elasticity substrate: a worker that crashes mid-run is replaced by
//! a process that restores the latest on-disk snapshot of its model,
//! optimizer state, and iteration counter. The controller keeps no
//! durable state: a restarted one starts with an empty group-history
//! window, as every run does. The on-disk format mirrors `comm::frame` —
//! a fixed big-endian header, a payload of fixed little-endian fields,
//! and a checksum trailer — so the two byte formats in the workspace
//! share one idiom:
//!
//! ```text
//! magic (8)  | version (u32 BE) | payload len (u32 BE) | payload | fnv1a64 (u64 BE)
//! payload:   rank u32 | iteration u64 | updates_applied u64 | opt_steps u64
//!            | n u32 | n params (f32) | n velocity entries (f32)
//! ```
//!
//! Floats are written as their raw bits, so every `f32` — NaN payloads
//! and infinities included — round-trips exactly. The checksum covers
//! version + length + payload, so a torn or bit-rotted file is detected
//! before a field is read. Writes are atomic
//! by construction: the bytes land in a `.tmp` sibling which is fsynced
//! and then renamed over the target, so a reader never observes a partial
//! snapshot — it sees either the previous complete one or the new one.
//!
//! Every failure mode is a typed [`CheckpointError`]; the crate denies
//! clippy's panic lints below and must never panic on any input,
//! including adversarial bytes.

#![forbid(unsafe_code)]
// No panicking construct outside tests (DESIGN.md §10).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes_without_reason
    )
)]

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Leading magic identifying a preduce checkpoint file.
pub const MAGIC: [u8; 8] = *b"PRDCKPT1";

/// Current on-disk format version. Bump on any layout change; readers
/// refuse other versions with [`CheckpointError::VersionSkew`] rather
/// than guessing. Version 1 carried a JSON payload.
pub const FORMAT_VERSION: u32 = 2;

/// Fixed header size: magic + version + payload length.
pub const HEADER_LEN: usize = 8 + 4 + 4;

/// Checksum trailer size (FNV-1a, 64-bit, big-endian).
pub const TRAILER_LEN: usize = 8;

/// Upper bound on the payload (256 MiB): a snapshot takes 8 bytes per
/// parameter, so a million-parameter model is 8 MiB and anything near
/// this bound is a corrupted length prefix, not a legitimate snapshot.
pub const MAX_PAYLOAD: usize = 1 << 28;

/// Payload bytes before the floats: rank, the three counters, `n`.
const FIELDS_LEN: usize = 4 + 3 * 8 + 4;

/// Everything that can go wrong saving or restoring a snapshot. No
/// variant is ever reported by panicking: corrupt bytes, short files,
/// version skew, and I/O failures all surface here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure, annotated with the path involved.
    Io {
        /// The path being read or written.
        path: String,
        /// The underlying I/O error rendered as text.
        detail: String,
    },
    /// The requested snapshot does not exist.
    Missing {
        /// The absent path.
        path: String,
    },
    /// The file does not start with [`MAGIC`] — not a checkpoint at all.
    BadMagic {
        /// The first 8 bytes found instead.
        found: [u8; 8],
    },
    /// The file was written by a different format version.
    VersionSkew {
        /// Version recorded in the file.
        found: u32,
        /// The version this reader supports.
        supported: u32,
    },
    /// The file ends before the length prefix says it should.
    Truncated {
        /// Bytes the header + payload + trailer require.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The declared payload length.
        len: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// The checksum trailer disagrees with the recomputed digest.
    ChecksumMismatch {
        /// Digest stored in the trailer.
        stored: u64,
        /// Digest recomputed over the bytes.
        computed: u64,
    },
    /// The payload or its contents fail validation (a count that
    /// disagrees with the payload length, an empty model, a snapshot for
    /// the wrong rank…).
    Malformed {
        /// What exactly is wrong.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => write!(f, "checkpoint I/O on {path}: {detail}"),
            CheckpointError::Missing { path } => write!(f, "no snapshot at {path}"),
            CheckpointError::BadMagic { found } => {
                write!(f, "not a checkpoint file (magic {found:02x?})")
            }
            CheckpointError::VersionSkew { found, supported } => write!(
                f,
                "checkpoint format version {found} (this build reads {supported})"
            ),
            CheckpointError::Truncated { needed, got } => {
                write!(f, "truncated checkpoint: need {needed} bytes, have {got}")
            }
            CheckpointError::Oversized { len, max } => {
                write!(f, "checkpoint payload length {len} exceeds the {max} cap")
            }
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CheckpointError::Malformed { detail } => write!(f, "malformed checkpoint: {detail}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CheckpointError>;

/// FNV-1a, 64-bit — the dependency-free digest guarding snapshot bytes.
/// Not cryptographic; it detects torn writes and bit rot, which is the
/// contract (an adversary with write access to the checkpoint dir can do
/// worse than flip bits).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Encodes `snap` into the framed, checksummed byte format.
///
/// # Errors
/// [`CheckpointError::Malformed`] if the snapshot fails
/// [`WorkerSnapshot::validate`] or its rank does not fit in a `u32`,
/// [`CheckpointError::Oversized`] if the payload exceeds [`MAX_PAYLOAD`].
pub fn encode(snap: &WorkerSnapshot) -> Result<Vec<u8>> {
    snap.validate()?;
    let rank = u32::try_from(snap.rank)
        .map_err(|_| malformed(format!("rank {} does not fit the format's u32", snap.rank)))?;
    let n = snap.params.len();
    let len = n.saturating_mul(8).saturating_add(FIELDS_LEN);
    if len > MAX_PAYLOAD {
        return Err(CheckpointError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    let mut bytes = Vec::with_capacity(HEADER_LEN + len + TRAILER_LEN);
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_be_bytes());
    bytes.extend_from_slice(&(len as u32).to_be_bytes());
    bytes.extend_from_slice(&rank.to_le_bytes());
    for counter in [snap.iteration, snap.updates_applied, snap.opt_steps] {
        bytes.extend_from_slice(&counter.to_le_bytes());
    }
    bytes.extend_from_slice(&(n as u32).to_le_bytes());
    for x in snap.params.iter().chain(&snap.velocity) {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    let digest = fnv1a64(&bytes[8..]);
    bytes.extend_from_slice(&digest.to_be_bytes());
    Ok(bytes)
}

/// Decodes a framed snapshot, verifying magic, version, length, and
/// checksum before reading a field, and the count against the payload
/// length before allocating. Never panics; a file of arbitrary bytes
/// resolves to a typed error.
///
/// # Errors
/// Every [`CheckpointError`] format variant, per its documentation.
pub fn decode(bytes: &[u8]) -> Result<WorkerSnapshot> {
    if bytes.len() < HEADER_LEN {
        return Err(CheckpointError::Truncated {
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    let mut rest = bytes;
    let found = take::<8>(&mut rest)?;
    if found != MAGIC {
        return Err(CheckpointError::BadMagic { found });
    }
    let version = u32::from_be_bytes(take(&mut rest)?);
    if version != FORMAT_VERSION {
        return Err(CheckpointError::VersionSkew {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let len = u32::from_be_bytes(take(&mut rest)?) as usize;
    if len > MAX_PAYLOAD {
        return Err(CheckpointError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    let needed = HEADER_LEN + len + TRAILER_LEN;
    if bytes.len() < needed {
        return Err(CheckpointError::Truncated {
            needed,
            got: bytes.len(),
        });
    }
    if bytes.len() > needed {
        let extra = bytes.len() - needed;
        return Err(malformed(format!("{extra} trailing bytes after the frame")));
    }
    let (mut payload, mut trailer) = rest.split_at(len);
    let stored = u64::from_be_bytes(take(&mut trailer)?);
    let computed = fnv1a64(&bytes[8..HEADER_LEN + len]);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    let rank = u32::from_le_bytes(take(&mut payload)?) as usize;
    let iteration = u64::from_le_bytes(take(&mut payload)?);
    let updates_applied = u64::from_le_bytes(take(&mut payload)?);
    let opt_steps = u64::from_le_bytes(take(&mut payload)?);
    let n = u32::from_le_bytes(take(&mut payload)?) as usize;
    let need = n as u64 * 8;
    if need != payload.len() as u64 {
        let held = payload.len();
        return Err(malformed(format!(
            "{n} parameters need {need} bytes of floats, {held} follow"
        )));
    }
    let (params, velocity) = payload.split_at(4 * n);
    let snap = WorkerSnapshot {
        rank,
        iteration,
        updates_applied,
        opt_steps,
        params: floats(params),
        velocity: floats(velocity),
    };
    snap.validate()?;
    Ok(snap)
}

fn malformed(detail: String) -> CheckpointError {
    CheckpointError::Malformed { detail }
}

/// Takes the next `N` bytes off the front of `rest`.
fn take<const N: usize>(rest: &mut &[u8]) -> Result<[u8; N]> {
    let (head, tail) = rest
        .split_first_chunk::<N>()
        .ok_or_else(|| malformed(format!("payload ends {} bytes short", N - rest.len())))?;
    *rest = tail;
    Ok(*head)
}

/// Little-endian `f32` bit patterns, read exactly.
fn floats(bytes: &[u8]) -> Vec<f32> {
    let (words, _) = bytes.as_chunks::<4>();
    words.iter().map(|w| f32::from_le_bytes(*w)).collect()
}

/// One worker's restorable state: the flat model, the SGD momentum
/// buffer and step counter, and the local iteration counters.
///
/// Deliberately *not* snapshotted: the data shard (reconstructed
/// deterministically from the experiment seed), the network architecture
/// (ditto), and the RNG cursor — a restored worker resumes its shard from
/// a fresh draw, which perturbs batch order but not correctness (the
/// paper's convergence guarantees never depend on batch order).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSnapshot {
    /// Worker rank the snapshot belongs to.
    pub rank: usize,
    /// Local iteration counter `k_i` at snapshot time.
    pub iteration: u64,
    /// Local updates applied so far.
    pub updates_applied: u64,
    /// Optimizer steps taken (drives the LR schedule).
    pub opt_steps: u64,
    /// Flat model parameters.
    pub params: Vec<f32>,
    /// SGD momentum buffer, same layout as `params`.
    pub velocity: Vec<f32>,
}

impl WorkerSnapshot {
    /// Internal consistency: a non-empty model whose momentum buffer has
    /// the same layout.
    ///
    /// # Errors
    /// [`CheckpointError::Malformed`] describing the inconsistency.
    pub fn validate(&self) -> Result<()> {
        let (rank, params, velocity) = (self.rank, self.params.len(), self.velocity.len());
        if params == 0 {
            return Err(malformed(format!(
                "worker {rank} snapshot has an empty model"
            )));
        }
        if velocity != params {
            return Err(malformed(format!(
                "worker {rank} snapshot: {params} params but {velocity} velocity entries"
            )));
        }
        Ok(())
    }
}

/// A checkpoint directory: one `worker-<rank>.ckpt` per rank, each
/// atomically replaced on every save so the file present *is* the latest
/// complete snapshot.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens an existing checkpoint directory, the way a reader does: a
    /// directory that is not there holds no snapshot to load, and opening
    /// it leaves nothing behind.
    ///
    /// # Errors
    /// [`CheckpointError::Missing`] if `dir` is not a directory.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        if !dir.is_dir() {
            return Err(CheckpointError::Missing {
                path: dir.display().to_string(),
            });
        }
        Ok(CheckpointStore { dir })
    }

    /// Opens the checkpoint directory a writer saves into, creating it
    /// if needed.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] if the directory cannot be created.
    pub fn create<P: AsRef<Path>>(dir: P) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, &e))?;
        Ok(CheckpointStore { dir })
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of rank `rank`'s snapshot file.
    pub fn worker_path(&self, rank: usize) -> PathBuf {
        self.dir.join(format!("worker-{rank}.ckpt"))
    }

    /// Whether a snapshot for `rank` exists.
    pub fn has_worker(&self, rank: usize) -> bool {
        self.worker_path(rank).is_file()
    }

    /// Atomically writes `snap`, replacing any previous snapshot for the
    /// rank. Returns the final path.
    ///
    /// # Errors
    /// Validation ([`encode`]) or I/O failure; on error the previous
    /// snapshot (if any) is left intact.
    pub fn save_worker(&self, snap: &WorkerSnapshot) -> Result<PathBuf> {
        let path = self.worker_path(snap.rank);
        self.write_atomic(&path, &encode(snap)?)?;
        Ok(path)
    }

    /// Loads the latest snapshot for `rank`, fully verified.
    ///
    /// # Errors
    /// [`CheckpointError::Missing`] when no snapshot exists; any format
    /// error on corrupt bytes; [`CheckpointError::Malformed`] if the file
    /// holds a snapshot for a different rank.
    pub fn load_worker(&self, rank: usize) -> Result<WorkerSnapshot> {
        let path = self.worker_path(rank);
        let snap = decode(&read_all(&path)?)?;
        if snap.rank != rank {
            let path = path.display();
            return Err(malformed(format!(
                "{path} holds a snapshot for rank {}",
                snap.rank
            )));
        }
        Ok(snap)
    }

    /// Write-then-rename: bytes land in a `.tmp` sibling, are fsynced,
    /// and the rename replaces the target in one metadata operation.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        let tmp = path.with_extension("ckpt.tmp");
        let mut file = fs::File::create(&tmp).map_err(|e| io_err(&tmp, &e))?;
        file.write_all(bytes).map_err(|e| io_err(&tmp, &e))?;
        file.sync_all().map_err(|e| io_err(&tmp, &e))?;
        drop(file);
        fs::rename(&tmp, path).map_err(|e| io_err(path, &e))?;
        Ok(())
    }
}

fn read_all(path: &Path) -> Result<Vec<u8>> {
    fs::read(path).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => CheckpointError::Missing {
            path: path.display().to_string(),
        },
        _ => io_err(path, &e),
    })
}

fn io_err(path: &Path, e: &std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("preduce-ckpt-test")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn worker_snap(rank: usize, iteration: u64) -> WorkerSnapshot {
        WorkerSnapshot {
            rank,
            iteration,
            updates_applied: iteration,
            opt_steps: iteration,
            params: vec![0.5, -1.25, 3.0],
            velocity: vec![0.0, 0.125, -0.5],
        }
    }

    #[test]
    fn worker_snapshot_roundtrips() {
        let store = CheckpointStore::create(tmpdir("worker-roundtrip")).unwrap();
        let snap = worker_snap(2, 40);
        let path = store.save_worker(&snap).unwrap();
        assert!(path.is_file());
        assert!(store.has_worker(2));
        assert!(!store.has_worker(0));
        assert_eq!(store.load_worker(2).unwrap(), snap);
    }

    #[test]
    fn save_replaces_previous_snapshot() {
        let store = CheckpointStore::create(tmpdir("replace")).unwrap();
        store.save_worker(&worker_snap(0, 8)).unwrap();
        store.save_worker(&worker_snap(0, 16)).unwrap();
        assert_eq!(store.load_worker(0).unwrap().iteration, 16);
        // The temp file never survives a successful save.
        assert!(!store.worker_path(0).with_extension("ckpt.tmp").exists());
    }

    #[test]
    fn opening_a_missing_directory_is_typed_and_creates_nothing() {
        let dir = tmpdir("never-made");
        assert!(matches!(
            CheckpointStore::open(&dir),
            Err(CheckpointError::Missing { .. })
        ));
        assert!(!dir.exists());
        assert_eq!(CheckpointStore::create(&dir).unwrap().dir(), dir);
        assert_eq!(CheckpointStore::open(&dir).unwrap().dir(), dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_snapshot_is_typed() {
        let store = CheckpointStore::create(tmpdir("missing")).unwrap();
        assert!(matches!(
            store.load_worker(7),
            Err(CheckpointError::Missing { .. })
        ));
    }

    #[test]
    fn rank_mismatch_is_rejected() {
        let store = CheckpointStore::create(tmpdir("rank-mismatch")).unwrap();
        let mut snap = worker_snap(3, 5);
        snap.rank = 1;
        fs::write(store.worker_path(3), encode(&snap).unwrap()).unwrap();
        assert!(matches!(
            store.load_worker(3),
            Err(CheckpointError::Malformed { .. })
        ));
    }

    #[test]
    fn corrupt_byte_fails_checksum() {
        let mut bytes = encode(&worker_snap(0, 1)).unwrap();
        let mid = HEADER_LEN + 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            decode(&bytes),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn version_skew_is_typed() {
        let mut bytes = encode(&worker_snap(0, 1)).unwrap();
        bytes[11] = 9; // version big-endian low byte
        assert!(matches!(
            decode(&bytes),
            Err(CheckpointError::VersionSkew {
                found: 9,
                supported: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn inconsistent_snapshots_fail_validation() {
        let mut w = worker_snap(0, 1);
        w.velocity.pop();
        assert!(w.validate().is_err());
        assert!(matches!(encode(&w), Err(CheckpointError::Malformed { .. })));
    }

    #[test]
    fn a_rank_above_u32_is_not_encoded() {
        let snap = worker_snap(u32::MAX as usize + 1, 1);
        match encode(&snap) {
            Err(CheckpointError::Malformed { detail }) => {
                assert!(detail.contains("u32"), "{detail}")
            }
            other => panic!("{other:?}"),
        }
        assert!(encode(&worker_snap(u32::MAX as usize, 1)).is_ok());
    }

    #[test]
    fn version_2_layout_byte_for_byte() {
        let snap = WorkerSnapshot {
            rank: 2,
            iteration: 3,
            updates_applied: 4,
            opt_steps: 5,
            params: vec![1.0, f32::NAN],
            velocity: vec![-0.5, f32::INFINITY],
        };
        let mut want = b"PRDCKPT1".to_vec();
        want.extend_from_slice(&[0, 0, 0, 2, 0, 0, 0, 48]);
        want.extend_from_slice(&2u32.to_le_bytes());
        for counter in [3u64, 4, 5] {
            want.extend_from_slice(&counter.to_le_bytes());
        }
        want.extend_from_slice(&2u32.to_le_bytes());
        for x in [1.0f32, f32::NAN, -0.5, f32::INFINITY] {
            want.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        let digest = fnv1a64(&want[8..]);
        want.extend_from_slice(&digest.to_be_bytes());
        assert_eq!(want.len(), HEADER_LEN + FIELDS_LEN + 8 * 2 + TRAILER_LEN);
        assert_eq!(encode(&snap).unwrap(), want);
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
