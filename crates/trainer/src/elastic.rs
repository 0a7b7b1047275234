//! Elastic-training glue (DESIGN.md §14): policies for when to write
//! [`preduce_checkpoint`] snapshots, the conversion between a live worker
//! and its serialized snapshot, and the two things every substrate does
//! with them — warm start and a worker's snapshot-if-due
//! (`SnapshotWriter`). An unreadable directory or a corrupt snapshot is a
//! configuration error there: it panics, loudly, rather than being trained
//! through.
//!
//! The checkpoint crate knows nothing about tensors; this module is the
//! only place that maps [`WorkerState`] ⇄ [`WorkerSnapshot`]. The
//! controller keeps no durable state: a restarted controller starts with
//! an empty group-history window, as every run does. What is deliberately
//! *not* snapshotted: the network activations, the batch
//! sampler cursor, and the RNG — a restored worker resamples from its
//! shard, which is statistically (not bitwise) equivalent and keeps the
//! format model-architecture-agnostic.

use std::path::PathBuf;
use std::sync::Arc;

use partial_reduce::{TraceEvent, TraceSink};
use preduce_checkpoint::{CheckpointStore, WorkerSnapshot};
use preduce_models::SgdOptimizer;
use preduce_tensor::Tensor;

use crate::engine::substrate::must;
use crate::worker::WorkerState;

/// When to write snapshots: into `dir`, each time a worker's iteration
/// count crosses a multiple of `every`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint directory (created on first use).
    pub dir: PathBuf,
    /// Snapshot cadence in iterations; never zero.
    pub every: u64,
}

impl CheckpointPolicy {
    /// Creates a policy.
    ///
    /// # Panics
    /// Panics if `every == 0` — "snapshot every zero iterations" is a
    /// config error, not a runtime condition.
    pub fn new<P: Into<PathBuf>>(dir: P, every: u64) -> Self {
        assert!(every > 0, "checkpoint cadence must be at least 1");
        CheckpointPolicy {
            dir: dir.into(),
            every,
        }
    }
}

/// The cadence rule: due when the iteration count has crossed a multiple
/// of `every` since the last look. Counts jump — a fast-forward skips
/// iteration numbers — so waiting for an exact multiple would skip
/// snapshots.
struct Cadence {
    every: u64,
    last: u64,
}

impl Cadence {
    fn crossed(&mut self, count: u64) -> bool {
        let due = count / self.every > self.last / self.every;
        self.last = count;
        due
    }
}

/// Elasticity knobs threaded through the engine substrates. The default
/// is inert: no snapshots, no warm start, and a run with inert options
/// is bit-identical to one without them (the sim goldens pin this).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElasticOptions {
    /// Periodic snapshot policy, if any.
    pub policy: Option<CheckpointPolicy>,
    /// Directory to warm-start from before the run begins, if any.
    pub restore_from: Option<PathBuf>,
}

impl ElasticOptions {
    /// Inert options: no checkpointing at all.
    pub fn none() -> Self {
        ElasticOptions::default()
    }

    /// Adds a periodic snapshot policy.
    ///
    /// # Panics
    /// Panics if `every == 0`.
    pub fn with_policy<P: Into<PathBuf>>(mut self, dir: P, every: u64) -> Self {
        self.policy = Some(CheckpointPolicy::new(dir, every));
        self
    }

    /// Warm-starts workers from snapshots found under `dir`.
    pub fn with_restore<P: Into<PathBuf>>(mut self, dir: P) -> Self {
        self.restore_from = Some(dir.into());
        self
    }

    /// Opens the store that in-run restores read from — the snapshot
    /// policy's directory, falling back to the warm-start directory — if
    /// either is set.
    pub(crate) fn open_restore_store(&self) -> Option<CheckpointStore> {
        let dir = match &self.policy {
            Some(pol) => &pol.dir,
            None => self.restore_from.as_ref()?,
        };
        Some(must("open restore directory", CheckpointStore::open(dir)))
    }

    /// Warm start: grafts the snapshot `restore_from` holds for `w`'s
    /// rank, if any, onto `w`. Runs before anything is scheduled or
    /// narrated (no trace event: the worker never departed in *this*
    /// trace).
    pub(crate) fn warm_start(&self, w: &mut WorkerState) {
        let Some(dir) = &self.restore_from else {
            return;
        };
        let store = must("open restore directory", CheckpointStore::open(dir));
        if store.has_worker(w.rank) {
            let snap = must("load worker snapshot", store.load_worker(w.rank));
            must("warm-start worker", restore_worker(w, snap));
        }
    }

    /// The periodic-snapshot writer for `w`, narrating to `sink`; without
    /// a policy it never writes.
    pub(crate) fn snapshot_writer(
        &self,
        w: &WorkerState,
        sink: Arc<dyn TraceSink>,
    ) -> SnapshotWriter {
        let target = self.policy.as_ref().map(|pol| {
            let store = must("open checkpoint directory", CheckpointStore::open(&pol.dir));
            let cadence = Cadence {
                every: pol.every,
                last: w.iteration,
            };
            (store, cadence)
        });
        SnapshotWriter { target, sink }
    }
}

/// One worker's periodic snapshots. Each worker owns its writer: the
/// store's write-then-rename makes concurrent writers into one directory
/// safe, and a mid-write crash leaves the previous snapshot intact.
pub(crate) struct SnapshotWriter {
    target: Option<(CheckpointStore, Cadence)>,
    sink: Arc<dyn TraceSink>,
}

impl SnapshotWriter {
    /// If the worker's iteration count crossed the cadence since the
    /// previous call, writes the durable state of the worker `read`
    /// returns and narrates [`TraceEvent::SnapshotTaken`]; `read` runs
    /// only then. Called after each local update on the healthy path, so
    /// what a crash loses is the work since the last snapshot.
    pub(crate) fn snapshot_if_due<'w>(
        &mut self,
        iteration: u64,
        read: impl FnOnce() -> &'w WorkerState,
    ) {
        let Some((store, cadence)) = &mut self.target else {
            return;
        };
        if !cadence.crossed(iteration) {
            return;
        }
        let w = read();
        must(
            "write worker snapshot",
            store.save_worker(&worker_snapshot(w)),
        );
        if self.sink.enabled() {
            self.sink.record(TraceEvent::SnapshotTaken {
                worker: w.rank,
                iteration: w.iteration,
            });
        }
    }
}

/// Captures a worker's durable state: counters, flat parameters, and the
/// momentum buffer.
pub fn worker_snapshot(w: &WorkerState) -> WorkerSnapshot {
    WorkerSnapshot {
        rank: w.rank,
        iteration: w.iteration,
        updates_applied: w.updates_applied,
        opt_steps: w.opt.steps() as u64,
        params: w.params.as_slice().to_vec(),
        velocity: w.opt.velocity().as_slice().to_vec(),
    }
}

/// Restores a worker in place from a snapshot: parameters, momentum,
/// iteration and update counters. The optimizer resumes mid-schedule
/// (same config, checkpointed step count). Rejects an inconsistent
/// snapshot ([`WorkerSnapshot::validate`]) and rank and parameter-count
/// mismatches — a snapshot from a different fleet layout must not be
/// silently grafted on.
pub fn restore_worker(w: &mut WorkerState, snap: WorkerSnapshot) -> Result<(), String> {
    snap.validate().map_err(|e| e.to_string())?;
    if snap.rank != w.rank {
        return Err(format!(
            "snapshot belongs to rank {}, not rank {}",
            snap.rank, w.rank
        ));
    }
    if snap.params.len() != w.params.len() {
        return Err(format!(
            "snapshot has {} parameters, model has {}",
            snap.params.len(),
            w.params.len()
        ));
    }
    let n = snap.params.len();
    let params =
        Tensor::from_vec(snap.params, [n]).map_err(|e| format!("rebuilding parameters: {e}"))?;
    let velocity =
        Tensor::from_vec(snap.velocity, [n]).map_err(|e| format!("rebuilding velocity: {e}"))?;
    w.params = params;
    w.opt = SgdOptimizer::from_state(*w.opt.config(), velocity, snap.opt_steps as usize);
    w.iteration = snap.iteration;
    w.updates_applied = snap.updates_applied;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use preduce_data::BatchSampler;
    use preduce_data::{GaussianMixture, SynthConfig};
    use preduce_models::{NetworkSpec, SgdConfig};
    use rand::SeedableRng;

    fn worker(rank: usize) -> WorkerState {
        let data = GaussianMixture::new(SynthConfig {
            num_classes: 3,
            feature_dim: 8,
            num_samples: 90,
            center_norm: 4.0,
            noise_std: 0.5,
            nonlinear_warp: false,
            seed: 11,
        })
        .generate();
        let net = NetworkSpec::mlp(8, &[12], 3).build(4);
        let sampler = BatchSampler::new(data, 16);
        WorkerState::new(rank, net, SgdConfig::default(), sampler)
    }

    #[test]
    fn snapshot_roundtrips_through_a_live_worker() {
        let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut w = worker(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..7 {
            w.local_update(&mut rng);
        }
        let snap = worker_snapshot(&w);
        assert_eq!(snap.rank, 3);
        assert_eq!(snap.iteration, 7);

        // A cold replica — what a replacement process starts as — takes
        // the snapshot and *is* the snapshotted worker: same durable
        // state, and the same trajectory from there on.
        let mut restored = worker(3);
        restore_worker(&mut restored, snap.clone()).expect("restore");
        assert_eq!(restored.iteration, 7);
        assert_eq!(restored.updates_applied, 7);
        assert_eq!(restored.opt.steps(), 7);
        let mut rng_restored = rng.clone();
        for _ in 0..5 {
            assert_eq!(bits(restored.params.as_slice()), bits(w.params.as_slice()));
            assert_eq!(
                bits(restored.opt.velocity().as_slice()),
                bits(w.opt.velocity().as_slice())
            );
            w.local_update(&mut rng);
            restored.local_update(&mut rng_restored);
        }

        // Restoring in place rewinds a worker that has since diverged.
        restore_worker(&mut w, snap.clone()).expect("restore");
        assert_eq!(w.iteration, 7);
        assert_eq!(bits(w.params.as_slice()), bits(&snap.params));
        assert_eq!(bits(w.opt.velocity().as_slice()), bits(&snap.velocity));
    }

    #[test]
    fn restore_rejects_foreign_snapshots() {
        let mut w = worker(0);
        let mut other = worker(1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        other.local_update(&mut rng);
        let snap = worker_snapshot(&other);
        let err = restore_worker(&mut w, snap).unwrap_err();
        assert!(err.contains("rank"), "{err}");
    }

    #[test]
    fn restore_rejects_shape_mismatches() {
        let mut w = worker(2);
        let mut snap = worker_snapshot(&w);
        snap.params.pop();
        snap.velocity.pop();
        let err = restore_worker(&mut w, snap).unwrap_err();
        assert!(err.contains("parameters"), "{err}");
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let mut w = worker(2);
        let mut snap = worker_snapshot(&w);
        snap.velocity.pop();
        let err = restore_worker(&mut w, snap).unwrap_err();
        assert!(err.contains("velocity"), "{err}");
        assert_eq!(w.iteration, 0, "a refused snapshot leaves the worker alone");
    }

    #[test]
    fn cadence_fires_on_crossings_not_on_exact_hits() {
        let mut c = Cadence { every: 4, last: 0 };
        assert!(!c.crossed(0));
        assert!(!c.crossed(3));
        assert!(c.crossed(4));
        assert!(!c.crossed(7));
        // A jump over 8 and 12 is one crossing; 13 → 15 is none.
        assert!(c.crossed(13));
        assert!(!c.crossed(15));
        // A rewind (mid-run restore) is not due, and re-arms from there.
        assert!(!c.crossed(9));
        assert!(c.crossed(12));
    }

    #[test]
    fn fast_forward_over_a_cadence_multiple_still_snapshots() {
        // DYN fast-forward (§3.3.3): the worker's count goes 3 → 9 → 10
        // and never equals 4 or 8. K = 4 must still leave a snapshot.
        let dir = std::env::temp_dir().join(format!("preduce-elastic-ff-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = Arc::new(partial_reduce::RingSink::new(16));
        let mut w = worker(2);
        let mut writer = ElasticOptions::none()
            .with_policy(&dir, 4)
            .snapshot_writer(&w, sink.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..3 {
            w.local_update(&mut rng);
            writer.snapshot_if_due(w.iteration, || &w);
        }
        assert!(sink.snapshot().is_empty(), "nothing is due before 4");
        w.iteration = 9; // the group's maximum, adopted after a reduce
        w.local_update(&mut rng);
        writer.snapshot_if_due(w.iteration, || &w);
        assert_eq!(
            sink.snapshot(),
            vec![TraceEvent::SnapshotTaken {
                worker: 2,
                iteration: 10
            }]
        );
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.load_worker(2).unwrap().iteration, 10);

        // A warm-started replacement does not re-snapshot until it has
        // crossed the next multiple itself.
        let mut fresh = worker(2);
        let resume = ElasticOptions::none()
            .with_restore(&dir)
            .with_policy(&dir, 4);
        resume.warm_start(&mut fresh);
        assert_eq!(fresh.iteration, 10);
        let mut writer = resume.snapshot_writer(&fresh, sink.clone());
        fresh.local_update(&mut rng);
        writer.snapshot_if_due(fresh.iteration, || &fresh);
        assert_eq!(sink.snapshot().len(), 1, "11 crosses nothing");
        fresh.local_update(&mut rng);
        writer.snapshot_if_due(fresh.iteration, || &fresh);
        assert_eq!(sink.snapshot().len(), 2, "12 does");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inert_options_are_inert() {
        let mut w = worker(0);
        let before = w.params.as_slice().to_vec();
        let inert = ElasticOptions::none();
        inert.warm_start(&mut w);
        assert_eq!(w.params.as_slice(), before.as_slice());
        let sink = Arc::new(partial_reduce::RingSink::new(4));
        let mut writer = inert.snapshot_writer(&w, sink.clone());
        w.iteration = 64;
        writer.snapshot_if_due(w.iteration, || &w);
        assert!(sink.snapshot().is_empty());
        assert!(inert.open_restore_store().is_none());

        // In-run restores read where snapshots are written, and only
        // without a policy from the warm-start directory.
        let tmp = std::env::temp_dir().join(format!("preduce-elastic-dirs-{}", std::process::id()));
        let (written, warm) = (tmp.join("written"), tmp.join("warm"));
        let opts = ElasticOptions::none().with_restore(&warm);
        assert_eq!(opts.open_restore_store().unwrap().dir(), warm);
        let opts = opts.with_policy(&written, 2);
        assert_eq!(opts.open_restore_store().unwrap().dir(), written);
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
