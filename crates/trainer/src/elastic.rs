//! Elastic-training glue (DESIGN.md §14): policies for when to write
//! [`preduce_checkpoint`] snapshots, and the conversions between live
//! trainer/controller state and the serialized snapshot types.
//!
//! The checkpoint crate knows nothing about tensors or controllers; this
//! module is the only place that maps [`WorkerState`] ⇄
//! [`WorkerSnapshot`] and [`Controller`] ⇄ [`ControllerSnapshot`]. What
//! is deliberately *not* snapshotted: the network activations, the batch
//! sampler cursor, and the RNG — a restored worker resamples from its
//! shard, which is statistically (not bitwise) equivalent and keeps the
//! format model-architecture-agnostic.

use std::path::{Path, PathBuf};

use partial_reduce::runtime::GroupHook;
use partial_reduce::{Controller, TraceEvent};
use preduce_checkpoint::{CheckpointError, CheckpointStore, ControllerSnapshot, WorkerSnapshot};
use preduce_data::consistent_hash::DEFAULT_VNODES;
use preduce_data::{assignment_churn, HashRing, RingChurn};
use preduce_models::SgdOptimizer;
use preduce_tensor::Tensor;

use crate::worker::WorkerState;

/// Seed for the reshard ring narrated by
/// [`TraceEvent::ShardsReassigned`](partial_reduce::TraceEvent). Fixed so
/// every substrate reports the same churn for the same membership change.
pub const RESHARD_RING_SEED: u64 = 0x7072_6564_7563_6531;

/// Balance factor for reshard accounting — matches the data layer's
/// [`preduce_data::consistent_hash::BALANCE_FACTOR`] contract.
const RESHARD_BALANCE: f64 = preduce_data::consistent_hash::BALANCE_FACTOR;

/// When to write snapshots: into `dir`, every `every` worker iterations
/// (and, on the simulator, every `every` formed groups for the
/// controller's roster/history snapshot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint directory (created on first use).
    pub dir: PathBuf,
    /// Snapshot cadence in iterations/groups; never zero.
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

    /// Opens (creating if needed) the store this policy writes to.
    pub fn open_store(&self) -> Result<CheckpointStore, CheckpointError> {
        CheckpointStore::open(&self.dir)
    }

    /// Whether a snapshot is due at `count` (iterations or groups).
    pub fn due(&self, count: u64) -> bool {
        count > 0 && count.is_multiple_of(self.every)
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

    /// Whether these options change anything about a run.
    pub fn is_inert(&self) -> bool {
        self.policy.is_none() && self.restore_from.is_none()
    }

    /// The store that in-run restores read from: the snapshot policy's
    /// directory, falling back to the warm-start directory.
    pub fn restore_dir(&self) -> Option<&Path> {
        self.policy
            .as_ref()
            .map(|p| p.dir.as_path())
            .or(self.restore_from.as_deref())
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
/// (same config, checkpointed step count). Rejects rank and shape
/// mismatches — a snapshot from a different fleet layout must not be
/// silently grafted on.
pub fn restore_worker(w: &mut WorkerState, snap: &WorkerSnapshot) -> Result<(), String> {
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
    if snap.velocity.len() != snap.params.len() {
        return Err(format!(
            "snapshot velocity length {} does not match its {} parameters",
            snap.velocity.len(),
            snap.params.len()
        ));
    }
    let n = snap.params.len();
    let params = Tensor::from_vec(snap.params.clone(), [n])
        .map_err(|e| format!("rebuilding parameters: {e}"))?;
    let velocity = Tensor::from_vec(snap.velocity.clone(), [n])
        .map_err(|e| format!("rebuilding velocity: {e}"))?;
    w.params = params;
    w.opt = SgdOptimizer::from_state(*w.opt.config(), velocity, snap.opt_steps as usize);
    w.iteration = snap.iteration;
    w.updates_applied = snap.updates_applied;
    Ok(())
}

/// Captures the controller's roster and group-history database.
pub fn controller_snapshot(c: &Controller) -> ControllerSnapshot {
    ControllerSnapshot {
        num_workers: c.config().num_workers,
        active: c.active(),
        departed: c.departed_workers(),
        groups_formed: c.groups_formed(),
        repairs: c.repairs(),
        deferrals: c.deferrals(),
        history_window: c.history().window(),
        history: c.history().groups().collect(),
    }
}

/// Builds the [`RuntimeOptions::on_groups`] hook that writes
/// policy-cadenced controller snapshots — the process/threaded control
/// planes' counterpart of the simulator's `GroupDone` snapshot site.
///
/// A serving-loop pass may advance the group counter by more than one
/// (batch ingest), so the hook snapshots whenever the counter *crosses* a
/// cadence boundary rather than only when it lands exactly on one.
///
/// [`RuntimeOptions::on_groups`]: partial_reduce::runtime::RuntimeOptions
///
/// # Errors
/// Fails if the policy's directory cannot be opened or created.
pub fn controller_group_hook(policy: &CheckpointPolicy) -> Result<GroupHook, CheckpointError> {
    let store = policy.open_store()?;
    let every = policy.every;
    let mut last = 0u64;
    Ok(Box::new(move |c: &Controller| {
        let g = c.groups_formed();
        if g / every > last / every {
            crate::engine::substrate::must(
                "write controller snapshot",
                store.save_controller(&controller_snapshot(c)),
            );
            if c.sink().enabled() {
                c.sink().record(TraceEvent::SnapshotTaken {
                    worker: None,
                    iteration: g,
                });
            }
        }
        last = g;
    }))
}

/// Validates a controller snapshot against the fleet a controller is
/// about to serve. Process-mode controller restore is validate-only: the
/// accept phase requires every configured worker to handshake, so the
/// roster always rebuilds live — but serving a fleet whose layout
/// contradicts the checkpoint it is supposed to continue is a config
/// error worth refusing (DESIGN.md §14).
///
/// # Errors
/// Fails if no controller snapshot exists under `dir`, it is unreadable,
/// or its fleet size differs from `num_workers`.
pub fn validate_controller_restore(
    dir: &Path,
    num_workers: usize,
) -> Result<ControllerSnapshot, String> {
    let store = CheckpointStore::open(dir).map_err(|e| format!("open `{}`: {e}", dir.display()))?;
    let snap = store
        .load_controller()
        .map_err(|e| format!("load controller snapshot: {e}"))?;
    if snap.num_workers != num_workers {
        return Err(format!(
            "snapshot describes a {}-worker fleet, this controller serves {}",
            snap.num_workers, num_workers
        ));
    }
    Ok(snap)
}

/// The shard-ownership churn a membership change causes under the
/// bounded-load ring, for the
/// [`TraceEvent::ShardsReassigned`](partial_reduce::TraceEvent)
/// narration: `moved` counts only keys that hop between two surviving
/// workers (DESIGN.md §14). Returns `None` when either membership set is
/// empty (no assignment exists to compare).
pub fn reshard_churn(
    before_members: &[usize],
    after_members: &[usize],
    total_keys: usize,
) -> Option<RingChurn> {
    if before_members.is_empty() || after_members.is_empty() {
        return None;
    }
    let before = HashRing::new(before_members, DEFAULT_VNODES, RESHARD_RING_SEED);
    let after = HashRing::new(after_members, DEFAULT_VNODES, RESHARD_RING_SEED);
    let a = before.assign_balanced(total_keys, RESHARD_BALANCE);
    let b = after.assign_balanced(total_keys, RESHARD_BALANCE);
    Some(assignment_churn(&a, &b, &before, &after))
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
        let sampler = BatchSampler::new(data, 16, 5);
        WorkerState::new(rank, net, SgdConfig::default(), sampler)
    }

    #[test]
    fn snapshot_roundtrips_through_a_live_worker() {
        let mut w = worker(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..7 {
            w.local_update(&mut rng);
        }
        let snap = worker_snapshot(&w);
        assert_eq!(snap.rank, 3);
        assert_eq!(snap.iteration, 7);

        // Diverge, then restore: durable state must match the snapshot.
        for _ in 0..5 {
            w.local_update(&mut rng);
        }
        restore_worker(&mut w, &snap).expect("restore");
        assert_eq!(w.iteration, 7);
        assert_eq!(w.updates_applied, 7);
        assert_eq!(w.opt.steps(), 7);
        assert_eq!(w.params.as_slice(), snap.params.as_slice());
        assert_eq!(w.opt.velocity().as_slice(), snap.velocity.as_slice());
    }

    #[test]
    fn restore_rejects_foreign_snapshots() {
        let mut w = worker(0);
        let mut other = worker(1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        other.local_update(&mut rng);
        let snap = worker_snapshot(&other);
        let err = restore_worker(&mut w, &snap).unwrap_err();
        assert!(err.contains("rank"), "{err}");
    }

    #[test]
    fn restore_rejects_shape_mismatches() {
        let mut w = worker(2);
        let mut snap = worker_snapshot(&w);
        snap.params.pop();
        snap.velocity.pop();
        let err = restore_worker(&mut w, &snap).unwrap_err();
        assert!(err.contains("parameters"), "{err}");
    }

    #[test]
    fn policy_cadence_skips_iteration_zero() {
        let p = CheckpointPolicy::new("/tmp/unused", 4);
        assert!(!p.due(0));
        assert!(!p.due(3));
        assert!(p.due(4));
        assert!(p.due(8));
    }

    #[test]
    fn inert_options_are_inert() {
        assert!(ElasticOptions::none().is_inert());
        let opts = ElasticOptions::none().with_policy("/tmp/x", 2);
        assert!(!opts.is_inert());
        assert_eq!(opts.restore_dir().unwrap(), Path::new("/tmp/x"));
    }

    #[test]
    fn reshard_churn_counts_only_survivor_movement() {
        let before: Vec<usize> = (0..8).collect();
        let after: Vec<usize> = (0..7).collect(); // worker 7 left
        let churn = reshard_churn(&before, &after, 4000).expect("non-empty");
        assert!(churn.orphaned > 0);
        assert!(
            churn.moved * 20 < churn.total,
            "gratuitous churn {} of {} breaches 5%",
            churn.moved,
            churn.total
        );
        assert!(reshard_churn(&[], &after, 100).is_none());
    }
}
