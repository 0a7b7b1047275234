//! The partial-reduce controller (Fig. 6).
//!
//! Workers send ready signals; the controller's *signal queue* collects them
//! FIFO, the *group filter* pops `P` at a time and — consulting the *group
//! history database* — repairs would-be frozen schedules, the *weight
//! generator* derives aggregation weights (constant or staleness-aware
//! dynamic), and the *group broadcaster* returns the decision to the
//! members. The controller never touches model data: every message is a few
//! bytes (§4), which is what distinguishes it from a parameter server.
//!
//! The group filter asks the history database one question per attempt —
//! do the queued signals span two sync-graph components? — labels
//! individual signals only when a repair has to choose among more than `P`
//! of them, and re-asks a deferring queue only about its new arrivals
//! (DESIGN.md §15.2).
//!
//! It also owns, and narrates, every membership decision outside group
//! formation (DESIGN.md §11–§12): evictions, below-quorum singletons and
//! the run's closing tallies.
//!
//! This module is transport-independent state-machine logic, driven by
//! the serving loop ([`crate::runtime`]), the simulator and the scale
//! harness alike — one implementation, every harness.

// A bad index panics the controller and strands the fleet.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::collections::VecDeque;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::graph::{min_history_window, ConnectivityStats, WindowedConnectivity};
use crate::liveness::LivenessPolicy;
use crate::trace::{NullSink, TraceEvent, TraceSink};
use crate::weights::{constant_weights, dynamic_weights, GapPolicy, WeightRow};

/// The largest EMA decay a configuration takes. `dynamic_weights` sums a
/// group's stalest members' share until a term stops moving it, about
/// `37 / (1 − α)` terms: at 0.99 that is some 3 700, where a decay closer
/// to 1 would make one forged group's row cost seconds. The paper's
/// figures sweep α up to 0.8.
pub const MAX_ALPHA: f64 = 0.99;

/// How group models are aggregated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AggregationMode {
    /// Constant partial reduce: uniform `1/P` weights (§3.1).
    Constant,
    /// Dynamic partial reduce: staleness-aware EMA weights (§3.3).
    Dynamic {
        /// EMA decay `α ∈ (0, 0.99]` ([`MAX_ALPHA`]).
        alpha: f64,
        /// Policy for EMA mass on unrepresented relative iterations.
        gap_policy: GapPolicy,
    },
}

impl AggregationMode {
    /// The default dynamic mode.
    ///
    /// α = 0.3 rather than a classic EMA 0.9-style decay: with the paper's
    /// conservative gap approximation, all unrepresented relative
    /// iterations route their mass to the stalest member, so a large α
    /// can *up-weight* stale models when fresh members tie (e.g. relative
    /// iterations `[1, 1, 3]` at α = 0.5 give the stale member 3/7 >
    /// 1/3). At α = 0.3 fresh members dominate across group compositions,
    /// matching the intent "the more substantial the staleness, the
    /// smaller weights".
    pub fn dynamic_default() -> Self {
        AggregationMode::Dynamic {
            alpha: 0.3,
            gap_policy: GapPolicy::Initial,
        }
    }

    /// The mode's fast-forward rule (§3.3.3): after a reduce, a DYN member
    /// adopts the group's maximum iteration and a CON member keeps its own
    /// count. Every substrate's workers and the invariant checker read the
    /// rule here; a worker process receives it in the fleet roster.
    pub fn adopts_group_max(&self) -> bool {
        matches!(self, AggregationMode::Dynamic { .. })
    }
}

/// Controller configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Cluster size `N`.
    pub num_workers: usize,
    /// Group size `P`.
    pub group_size: usize,
    /// Aggregation mode.
    pub mode: AggregationMode,
    /// Sync-graph window `T`; `None` uses the paper's minimum
    /// `⌈(N−1)/(P−1)⌉`.
    pub history_window: Option<usize>,
    /// Enable group-frozen avoidance (§4). Disable only for ablations and
    /// under a wave barrier, which deadlocks the deferral rule (so the
    /// `storm-tcp` benchmark workload runs without it; ROADMAP item 1).
    pub frozen_avoidance: bool,
}

impl ControllerConfig {
    /// A constant-mode controller with default history settings.
    ///
    /// # Panics
    /// Panics unless `2 ≤ group_size ≤ num_workers`.
    pub fn constant(num_workers: usize, group_size: usize) -> Self {
        let c = ControllerConfig {
            num_workers,
            group_size,
            mode: AggregationMode::Constant,
            history_window: None,
            frozen_avoidance: true,
        };
        c.validate();
        c
    }

    /// A dynamic-mode controller with default history settings.
    ///
    /// # Panics
    /// Panics unless `2 ≤ group_size ≤ num_workers`.
    pub fn dynamic(num_workers: usize, group_size: usize) -> Self {
        ControllerConfig {
            mode: AggregationMode::dynamic_default(),
            ..Self::constant(num_workers, group_size)
        }
    }

    /// The rules of a configuration, stated once: `2 ≤ P ≤ N`, a window
    /// `T > 0` and, in DYN, an Eq. 9 decay `α ∈ (0, 0.99]` ([`MAX_ALPHA`]).
    ///
    /// # Errors
    /// Names the first rule the configuration breaks.
    pub fn check(&self) -> Result<(), String> {
        let (n, p) = (self.num_workers, self.group_size);
        if p < 2 {
            Err(format!("group size must be at least 2, got {p}"))
        } else if p > n {
            Err(format!("group size {p} exceeds cluster size {n}"))
        } else if self.history_window == Some(0) {
            Err("history window must be positive".into())
        } else {
            match self.mode {
                AggregationMode::Dynamic { alpha, .. } if !(alpha > 0.0 && alpha <= MAX_ALPHA) => {
                    Err(format!(
                        "EMA decay must lie in (0, {MAX_ALPHA}], got {alpha}"
                    ))
                }
                _ => Ok(()),
            }
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on the first rule [`ControllerConfig::check`] names.
    pub fn validate(&self) {
        let checked = self.check();
        assert!(checked.is_ok(), "{checked:?}");
    }

    /// The effective sync-graph window.
    pub fn effective_window(&self) -> usize {
        self.history_window
            .unwrap_or_else(|| min_history_window(self.num_workers, self.group_size).max(1))
    }
}

/// The tallies a run closes with ([`Controller::close`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerStats {
    /// Total partial-reduce groups formed.
    pub groups_formed: u64,
    /// Groups adjusted by the frozen-schedule repair.
    pub repairs: u64,
    /// Times group formation waited for a cross-component signal.
    pub deferrals: u64,
    /// Singleton assignments issued during drain-out.
    pub singletons: u64,
    /// Workers evicted: heartbeat silence past the liveness policy
    /// ([`crate::liveness::FailureDetector`], on every substrate) or a
    /// dropped connection.
    pub evictions: u64,
}

/// A pending ready signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReadySignal {
    worker: usize,
    iteration: u64,
}

/// The controller's decision for one partial reduce.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDecision {
    /// Member ranks in collective order.
    pub group: Vec<usize>,
    /// Aggregation weight per member (aligned with `group`, sums to 1).
    pub weights: WeightRow,
    /// Iteration number all members adopt after the reduce
    /// (`max` over member iterations, §3.3.3).
    pub new_iteration: u64,
    /// Sequence number of this group (0-based count of groups formed).
    pub sequence: u64,
    /// Whether the group filter intervened to repair a frozen schedule.
    pub repaired: bool,
}

/// The controller state machine.
pub struct Controller {
    config: ControllerConfig,
    queue: VecDeque<ReadySignal>,
    /// Per-worker "has a queued signal" flag: O(1) duplicate detection.
    queued: Vec<bool>,
    /// The group history database: the last `T` groups plus their
    /// sync-graph connectivity (membership counts first, a union-find
    /// that undoes evicted groups behind them).
    conn: WindowedConnectivity,
    /// Deferral memo: how many leading queued signals the last verdict
    /// found inside one sync-graph component. A re-attempt asks only about
    /// the head plus the signals behind this prefix. Zeroed wherever the
    /// window or the queue's interior changes: after `conn.record`, in
    /// [`Controller::mark_left`] and in [`Controller::drain_pending`].
    same_component_prefix: usize,
    groups_formed: u64,
    repairs: u64,
    deferrals: u64,
    singletons: u64,
    evictions: u64,
    /// Workers still participating (starts at `N`; shrinks as workers
    /// leave). Bounds how long a frozen-avoidance deferral can wait.
    active: usize,
    /// Per-worker departure flags: signals from departed workers are
    /// rejected, never scheduled.
    departed: Vec<bool>,
    sink: Arc<dyn TraceSink>,
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("config", &self.config)
            .field("pending", &self.queue.len())
            .field("groups_formed", &self.groups_formed)
            .field("repairs", &self.repairs)
            .field("deferrals", &self.deferrals)
            .field("active", &self.active)
            .finish_non_exhaustive()
    }
}

impl Controller {
    /// Creates a controller with tracing off ([`NullSink`]).
    ///
    /// # Panics
    /// Panics if the config is invalid.
    pub fn new(config: ControllerConfig) -> Self {
        Self::with_sink(config, Arc::new(NullSink))
    }

    /// Creates a controller narrating its decisions to `sink`, for a fleet
    /// no failure detector watches. Emits [`TraceEvent::RunStarted`]
    /// immediately.
    ///
    /// # Panics
    /// Panics if the config is invalid.
    pub fn with_sink(config: ControllerConfig, sink: Arc<dyn TraceSink>) -> Self {
        Self::with_liveness(config, sink, None)
    }

    /// [`Controller::with_sink`] for a fleet watched under `liveness`:
    /// [`TraceEvent::RunStarted`] carries the policy, so the invariant
    /// checker can hold every eviction by silence to it.
    ///
    /// # Panics
    /// Panics if the config is invalid.
    pub fn with_liveness(
        config: ControllerConfig,
        sink: Arc<dyn TraceSink>,
        liveness: Option<LivenessPolicy>,
    ) -> Self {
        config.validate();
        let window = config.effective_window();
        let active = config.num_workers;
        if sink.enabled() {
            sink.record(TraceEvent::RunStarted {
                config: config.clone(),
                liveness,
            });
        }
        Controller {
            departed: vec![false; config.num_workers],
            queued: vec![false; config.num_workers],
            conn: WindowedConnectivity::new(config.num_workers, window),
            same_component_prefix: 0,
            config,
            queue: VecDeque::new(),
            groups_formed: 0,
            repairs: 0,
            deferrals: 0,
            singletons: 0,
            evictions: 0,
            active,
            sink,
        }
    }

    /// The trace sink this controller reports to.
    pub fn sink(&self) -> &Arc<dyn TraceSink> {
        &self.sink
    }

    /// The configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Number of signals waiting in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total groups formed so far.
    pub fn groups_formed(&self) -> u64 {
        self.groups_formed
    }

    /// Number of frozen-schedule repairs performed.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    /// Number of times group formation was deferred to wait for a
    /// cross-component signal.
    pub fn deferrals(&self) -> u64 {
        self.deferrals
    }

    /// Workers still participating.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Whether `worker` has left the computation.
    ///
    /// # Panics
    /// Panics if the worker rank is out of range.
    #[allow(
        clippy::indexing_slicing,
        reason = "`worker < num_workers` is asserted on entry and the per-worker tables hold `num_workers` entries"
    )]
    pub fn has_left(&self, worker: usize) -> bool {
        assert!(
            worker < self.config.num_workers,
            "worker {worker} out of range (N = {})",
            self.config.num_workers
        );
        self.departed[worker]
    }

    /// Records that `worker` left the computation: any ready signal it
    /// still has queued is purged (a crashed worker must never be
    /// scheduled into a group), and subsequent signals from it are
    /// rejected. Deferred groups that were waiting on the departed
    /// component re-evaluate on the next [`Controller::try_form_group`]
    /// call. The sync-graph is told too: once the worker's groups have
    /// rolled out of the window it stops counting as a vertex, so the
    /// survivors' graph can be connected again.
    ///
    /// # Panics
    /// Panics if the worker rank is out of range or the worker already
    /// left.
    #[allow(
        clippy::indexing_slicing,
        reason = "`worker < num_workers` is asserted on entry and the per-worker tables hold `num_workers` entries"
    )]
    pub fn mark_left(&mut self, worker: usize) {
        assert!(
            worker < self.config.num_workers,
            "worker {worker} out of range (N = {})",
            self.config.num_workers
        );
        assert!(!self.departed[worker], "worker {worker} left twice");
        assert!(self.active > 0, "more departures than workers");
        self.departed[worker] = true;
        self.active -= 1;
        let before = self.queue.len();
        self.queue.retain(|s| s.worker != worker);
        let purged_signal = self.queue.len() < before;
        self.queued[worker] = false;
        self.same_component_prefix = 0;
        self.conn.set_departed(worker, true);
        if self.sink.enabled() {
            self.sink.record(TraceEvent::WorkerLeft {
                worker,
                active: self.active,
                purged_signal,
            });
        }
    }

    /// Evicts a live `worker` (DESIGN.md §11): narrates
    /// [`TraceEvent::WorkerEvicted`], then departs via
    /// [`Controller::mark_left`].
    ///
    /// # Panics
    /// Panics if `worker` already left, or as [`Controller::mark_left`]
    /// does.
    pub fn evict(&mut self, worker: usize) {
        assert!(
            !self.has_left(worker),
            "worker {worker} evicted after it left"
        );
        if self.sink.enabled() {
            self.sink.record(TraceEvent::WorkerEvicted {
                worker,
                active: self.active - 1,
            });
        }
        self.mark_left(worker);
        self.evictions += 1;
    }

    /// Re-admits a departed worker from a checkpoint (DESIGN.md §14):
    /// the departure flag clears, the worker counts as active again, and
    /// its next ready signal — reporting `iteration + 1`, the first
    /// local update after the snapshot — is accepted like any other.
    /// Emits [`TraceEvent::WorkerRestored`].
    ///
    /// # Panics
    /// Panics if the worker rank is out of range or the worker never
    /// departed (restoring a live worker would double-count it).
    #[allow(
        clippy::indexing_slicing,
        reason = "`worker < num_workers` is asserted on entry and the per-worker tables hold `num_workers` entries"
    )]
    pub fn mark_restored(&mut self, worker: usize, iteration: u64) {
        assert!(
            worker < self.config.num_workers,
            "worker {worker} out of range (N = {})",
            self.config.num_workers
        );
        assert!(
            self.departed[worker],
            "worker {worker} is still active; only departed workers restore"
        );
        self.departed[worker] = false;
        self.active += 1;
        self.conn.set_departed(worker, false);
        if self.sink.enabled() {
            self.sink.record(TraceEvent::WorkerRestored {
                worker,
                iteration,
                active: self.active,
            });
        }
    }

    /// Work counters of the connectivity structure (merges, window
    /// reloads, membership answers).
    pub fn connectivity_stats(&self) -> ConnectivityStats {
        self.conn.stats()
    }

    /// Removes and returns every queued signal as `(worker, iteration)`
    /// pairs, FIFO, narrated as one [`TraceEvent::PendingDrained`].
    fn drain_pending(&mut self) -> Vec<(usize, u64)> {
        let signals: Vec<(usize, u64)> = self
            .queue
            .drain(..)
            .map(|s| (s.worker, s.iteration))
            .collect();
        self.queued.fill(false);
        self.same_component_prefix = 0;
        if self.sink.enabled() {
            self.sink.record(TraceEvent::PendingDrained {
                signals: signals.clone(),
            });
        }
        signals
    }

    /// The below-quorum drain (DESIGN.md §12): while fewer than `P`
    /// workers are active, releases every queued signal
    /// ([`TraceEvent::PendingDrained`]) alone, one
    /// [`TraceEvent::SingletonIssued`] each. Returns the released
    /// `(worker, iteration)` pairs, FIFO; nothing at quorum.
    pub fn release_below_quorum(&mut self) -> Vec<(usize, u64)> {
        if self.active >= self.config.group_size {
            return Vec::new();
        }
        let released = self.drain_pending();
        self.singletons += released.len() as u64;
        if self.sink.enabled() {
            for &(worker, iteration) in &released {
                self.sink
                    .record(TraceEvent::SingletonIssued { worker, iteration });
            }
        }
        released
    }

    /// Narrates [`TraceEvent::RunFinished`], flushes the sink, and
    /// returns the run's tallies.
    pub fn close(self) -> ControllerStats {
        if self.sink.enabled() {
            self.sink.record(TraceEvent::RunFinished {
                groups_formed: self.groups_formed,
                repairs: self.repairs,
                deferrals: self.deferrals,
                singletons: self.singletons,
            });
        }
        self.sink.flush();
        ControllerStats {
            groups_formed: self.groups_formed,
            repairs: self.repairs,
            deferrals: self.deferrals,
            singletons: self.singletons,
            evictions: self.evictions,
        }
    }

    /// Enqueues a worker's ready signal (controller lines 6–7 of
    /// Algorithm 2). Returns `false` when the signal was rejected because
    /// the worker already left — a late signal racing a departure must be
    /// dropped, not scheduled.
    ///
    /// # Panics
    /// Panics if the worker rank is out of range or the worker already has
    /// a pending signal (each worker is ready at most once at a time).
    #[allow(
        clippy::indexing_slicing,
        reason = "`worker < num_workers` is asserted on entry and the per-worker tables hold `num_workers` entries"
    )]
    pub fn push_ready(&mut self, worker: usize, iteration: u64) -> bool {
        assert!(
            worker < self.config.num_workers,
            "worker {worker} out of range (N = {})",
            self.config.num_workers
        );
        if self.departed[worker] {
            if self.sink.enabled() {
                self.sink
                    .record(TraceEvent::SignalRejected { worker, iteration });
            }
            return false;
        }
        assert!(
            !self.queued[worker],
            "worker {worker} signalled ready twice without reducing"
        );
        self.queued[worker] = true;
        self.queue.push_back(ReadySignal { worker, iteration });
        if self.sink.enabled() {
            self.sink.record(TraceEvent::SignalEnqueued {
                worker,
                iteration,
                queued: self.queue.len(),
            });
        }
        true
    }

    /// Batched ready-signal ingestion for serving transports. Remote
    /// processes are untrusted input: they may send out-of-range ranks
    /// or re-signal while already queued (e.g. retrying after a degraded
    /// reduce), and a serving controller must not panic on that — so,
    /// unlike [`Controller::push_ready`] whose panics encode in-process
    /// driver bugs, malformed entries are *skipped*, on both sides of
    /// quorum. Signals from departed workers are rejected through the
    /// ordinary [`TraceEvent::SignalRejected`] path. Returns how many
    /// signals entered the queue.
    pub fn ingest_ready(&mut self, signals: &[(usize, u64)]) -> usize {
        let mut accepted = 0;
        for &(worker, iteration) in signals {
            // Out-of-range ranks and re-signals are skipped alike.
            if self.queued.get(worker) != Some(&false) {
                continue;
            }
            if self.push_ready(worker, iteration) {
                accepted += 1;
            }
        }
        accepted
    }

    /// Attempts to form a group (controller lines 3–5 of Algorithm 2):
    /// pops `P` signals FIFO, applies the group filter, generates weights,
    /// and returns the decision. Returns `None` while fewer than `P`
    /// signals are queued.
    ///
    /// The filter asks the warm window one question — do the queued
    /// signals span two sync-graph components? — and labels individual
    /// signals only when it has to choose among more than `P` of them:
    ///
    /// * they span and exactly `P` are queued: the FIFO group, unrepaired
    ///   (a repair would pick one signal per component and top up FIFO to
    ///   `P`, which is all of them, in queue order);
    /// * they span and more than `P` are queued: the repair group, one
    ///   member per distinct component, topped up FIFO;
    /// * they sit in one component: FIFO if the graph is connected or every
    ///   active worker is already queued, otherwise defer — a FIFO group
    ///   would deepen the freeze.
    ///
    /// Call repeatedly until `None` to drain all formable groups — multiple
    /// groups may proceed in parallel (§3.1.1).
    pub fn try_form_group(&mut self) -> Option<GroupDecision> {
        let p = self.config.group_size;
        if self.queue.len() < p {
            return None;
        }

        // Candidate: the first P signals, FIFO.
        let mut member_idx: Vec<usize> = (0..p).collect();
        let mut repaired = false;

        if self.config.frozen_avoidance && self.conn.is_warm() {
            // The leading `same_component_prefix` signals share the head's
            // component since the last verdict (no record, no removal
            // since), so the head stands in for them.
            let candidates = self
                .queue
                .iter()
                .take(1)
                .chain(self.queue.iter().skip(self.same_component_prefix.max(1)))
                .map(|s| s.worker);
            if !self.conn.spans_components(candidates) {
                self.same_component_prefix = self.queue.len();
                // Every queued signal sits in one component. If that is
                // because the graph is connected, FIFO is fine. If not, a
                // FIFO group would deepen the freeze: defer — hold the
                // signals until a worker from another component arrives
                // (bounded by one fleet iteration). If every *active*
                // worker is already queued, no such signal can come: fall
                // through to FIFO rather than stall.
                if self.queue.len() < self.active && !self.conn.is_connected() {
                    self.deferrals += 1;
                    if self.sink.enabled() {
                        self.sink.record(TraceEvent::GroupDeferred {
                            queued: self.queue.len(),
                            active: self.active,
                        });
                    }
                    return None;
                }
            } else if self.queue.len() > p {
                // Cross-component signals available and a choice to make:
                // form the repair group greedily, one member per distinct
                // component (FIFO within each), topping up FIFO. Queued
                // signals are labelled (O(log N) each against the forest)
                // only until P distinct components are found.
                let mut chosen: Vec<usize> = Vec::with_capacity(p);
                let mut used_comps: Vec<usize> = Vec::with_capacity(p);
                for (idx, s) in self.queue.iter().enumerate() {
                    if chosen.len() == p {
                        break;
                    }
                    let c = self.conn.component_of(s.worker);
                    if !used_comps.contains(&c) {
                        used_comps.push(c);
                        chosen.push(idx);
                    }
                }
                for idx in 0..self.queue.len() {
                    if chosen.len() == p {
                        break;
                    }
                    if !chosen.contains(&idx) {
                        chosen.push(idx);
                    }
                }
                if chosen.len() == p {
                    chosen.sort_unstable();
                    repaired = chosen != member_idx;
                    member_idx = chosen;
                }
            }
        }

        // Extract the chosen signals (descending index for stable removal).
        let mut signals: Vec<ReadySignal> = Vec::with_capacity(p);
        for &idx in member_idx.iter().rev() {
            if let Some(s) = self.queue.remove(idx) {
                if let Some(q) = self.queued.get_mut(s.worker) {
                    *q = false;
                }
                signals.push(s);
            }
        }
        debug_assert_eq!(signals.len(), p, "member indices validated against queue");
        signals.reverse(); // restore FIFO order

        let group: Vec<usize> = signals.iter().map(|s| s.worker).collect();
        let iterations: Vec<u64> = signals.iter().map(|s| s.iteration).collect();
        let new_iteration = iterations.iter().copied().max().unwrap_or(0);

        let weights = match self.config.mode {
            AggregationMode::Constant => constant_weights(p),
            AggregationMode::Dynamic { alpha, gap_policy } => {
                dynamic_weights(&iterations, alpha, gap_policy)
            }
        };

        self.conn.record(&group);
        self.same_component_prefix = 0;
        let sequence = self.groups_formed;
        self.groups_formed += 1;
        if repaired {
            self.repairs += 1;
        }
        if self.sink.enabled() {
            self.sink.record(TraceEvent::GroupFormed {
                sequence,
                members: group.clone(),
                iterations,
                weights: weights.to_vec(),
                new_iteration,
                repaired,
            });
        }

        Some(GroupDecision {
            group,
            weights,
            new_iteration,
            sequence,
            repaired,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_group_formation() {
        let mut c = Controller::new(ControllerConfig::constant(6, 3));
        assert!(c.try_form_group().is_none());
        c.push_ready(4, 0);
        c.push_ready(1, 0);
        assert!(c.try_form_group().is_none());
        c.push_ready(5, 0);
        let d = c.try_form_group().unwrap();
        assert_eq!(d.group, vec![4, 1, 5]);
        assert_eq!(*d.weights, [1.0 / 3.0; 3]);
        assert_eq!(d.sequence, 0);
        assert!(!d.repaired);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn multiple_groups_drain_in_parallel() {
        let mut c = Controller::new(ControllerConfig::constant(8, 2));
        for w in 0..6 {
            c.push_ready(w, 0);
        }
        let mut groups = Vec::new();
        while let Some(d) = c.try_form_group() {
            groups.push(d.group);
        }
        assert_eq!(groups.len(), 3);
        assert_eq!(c.groups_formed(), 3);
    }

    #[test]
    fn dynamic_mode_weights_penalize_staleness() {
        let mut c = Controller::new(ControllerConfig::dynamic(4, 2));
        c.push_ready(0, 10);
        c.push_ready(1, 2);
        let d = c.try_form_group().unwrap();
        assert!(d.weights[0] > d.weights[1]);
        assert_eq!(d.new_iteration, 10);
    }

    #[test]
    fn constant_mode_still_fast_forwards_iteration() {
        let mut c = Controller::new(ControllerConfig::constant(4, 2));
        c.push_ready(2, 3);
        c.push_ready(3, 9);
        assert_eq!(c.try_form_group().unwrap().new_iteration, 9);
    }

    #[test]
    fn frozen_pairs_are_repaired() {
        // Adversarial arrival: (0,1) then (2,3), forever. Without the
        // filter, the sync-graph never connects.
        let mut c = Controller::new(ControllerConfig {
            num_workers: 4,
            group_size: 2,
            mode: AggregationMode::Constant,
            history_window: Some(3),
            frozen_avoidance: true,
        });
        let mut saw_cross_group = false;
        let mut free = [true; 4];
        for round in 0..20 {
            // Only free workers re-signal (deferred ones stay queued).
            for (w, f) in free.iter_mut().enumerate() {
                if *f {
                    c.push_ready(w, round);
                    *f = false;
                }
            }
            while let Some(d) = c.try_form_group() {
                let in_left = d.group.iter().filter(|&&w| w < 2).count();
                if in_left == 1 {
                    saw_cross_group = true;
                }
                for &m in &d.group {
                    free[m] = true;
                }
            }
        }
        assert!(saw_cross_group, "filter never formed a cross-pair group");
        assert!(c.repairs() > 0);
        // The schedule is repaired *repeatedly*: roughly once per window
        // under this adversarial arrival pattern, never just once.
        assert!(c.repairs() >= 5, "repairs = {}", c.repairs());
    }

    #[test]
    fn frozen_avoidance_disabled_keeps_fifo() {
        let mut c = Controller::new(ControllerConfig {
            num_workers: 4,
            group_size: 2,
            mode: AggregationMode::Constant,
            history_window: Some(3),
            frozen_avoidance: false,
        });
        // The oracle keeps the controller's window of formed groups.
        let mut history = crate::graph::GroupHistory::new(c.config.effective_window());
        let mut free = [true; 4];
        for round in 0..20 {
            for (w, f) in free.iter_mut().enumerate() {
                if *f {
                    c.push_ready(w, round);
                    *f = false;
                }
            }
            while let Some(d) = c.try_form_group() {
                // Pure FIFO keeps the frozen pairs.
                assert!(d.group == vec![0, 1] || d.group == vec![2, 3]);
                assert!(!d.repaired);
                for &m in &d.group {
                    free[m] = true;
                }
                history.record(d.group);
            }
        }
        assert!(!history.sync_graph(4).is_connected());
        assert_eq!(c.repairs(), 0);
    }

    #[test]
    fn default_window_is_paper_minimum() {
        let c = ControllerConfig::constant(8, 3);
        assert_eq!(c.effective_window(), 4); // ⌈7/2⌉
        let c = ControllerConfig::constant(8, 5);
        assert_eq!(c.effective_window(), 2);
    }

    #[test]
    fn ingest_ready_skips_malformed_remote_input() {
        use crate::trace::RingSink;

        let sink = Arc::new(RingSink::new(64));
        let mut c = Controller::with_sink(ControllerConfig::constant(4, 2), sink.clone());
        c.mark_left(3);
        // The same batch on both sides of quorum: above it two signals
        // queue and form a group; below it (1 active < P) one queues and
        // goes out alone.
        let batch = [
            (0, 1), // fine
            (9, 1), // out of range: skipped, no panic
            (0, 2), // duplicate pending: skipped, no panic
            (3, 1), // departed: rejected through the ordinary path
            (1, 1), // fine
        ];
        assert_eq!(c.ingest_ready(&batch), 2);
        assert_eq!(c.pending(), 2);
        let d = c.try_form_group().unwrap();
        assert_eq!(d.group, vec![0, 1]);
        assert!(c.release_below_quorum().is_empty(), "above quorum");

        c.mark_left(1);
        c.mark_left(2);
        assert_eq!(c.ingest_ready(&batch), 1);
        assert!(c.try_form_group().is_none());
        assert_eq!(c.release_below_quorum(), vec![(0, 1)]);
        assert!(c.release_below_quorum().is_empty(), "released once");
        let rejected = sink
            .snapshot()
            .into_iter()
            .filter(|e| matches!(e, TraceEvent::SignalRejected { worker: 3, .. }))
            .count();
        assert_eq!(rejected, 2, "one per side of quorum");
        assert_eq!(c.close().singletons, 1);
    }

    #[test]
    fn eviction_narrates_before_the_departure_and_counts_once() {
        use crate::trace::RingSink;

        let sink = Arc::new(RingSink::new(64));
        let mut c = Controller::with_sink(ControllerConfig::constant(4, 2), sink.clone());
        c.push_ready(1, 1);
        c.evict(1);
        assert_eq!(
            sink.snapshot()[2..],
            [
                TraceEvent::WorkerEvicted {
                    worker: 1,
                    active: 3
                },
                TraceEvent::WorkerLeft {
                    worker: 1,
                    active: 3,
                    purged_signal: true
                },
            ]
        );
        assert!(c.has_left(1));
        assert_eq!(c.close().evictions, 1);
    }

    #[test]
    fn the_close_reports_what_the_checker_tallies() {
        use crate::invariants::InvariantChecker;
        use crate::trace::RingSink;

        // Two frozen pairs on a two-group window, a deferral and a repair,
        // an eviction by silence, then the fleet falls below P = 2 and
        // releases the last worker's signals alone.
        let sink = Arc::new(RingSink::new(64));
        let policy = LivenessPolicy::new(std::time::Duration::from_millis(1), 1);
        let mut c = Controller::with_liveness(
            ControllerConfig {
                history_window: Some(2),
                ..ControllerConfig::constant(4, 2)
            },
            sink.clone(),
            Some(policy),
        );
        for w in 0..4 {
            c.push_ready(w, 1);
        }
        while c.try_form_group().is_some() {}
        c.push_ready(0, 2);
        c.push_ready(1, 2);
        assert!(c.try_form_group().is_none());
        c.push_ready(2, 2);
        assert_eq!(c.try_form_group().unwrap().group, vec![0, 2]);
        // Worker 3 is not heard for one window, the whole budget.
        let mut detector = crate::liveness::FailureDetector::new(policy, 4);
        let window = policy.heartbeat_interval();
        for w in 0..3 {
            detector.heard(w, window);
        }
        detector.sweep(window, &mut c);
        assert!(c.has_left(3));
        c.mark_left(2);
        c.mark_left(0);
        assert_eq!(c.release_below_quorum(), vec![(1, 2)]);
        assert_eq!(c.ingest_ready(&[(1, 3)]), 1);
        assert_eq!(c.release_below_quorum(), vec![(1, 3)]);
        let stats = c.close();
        assert_eq!(
            stats,
            ControllerStats {
                groups_formed: 3,
                repairs: 1,
                deferrals: 1,
                singletons: 2,
                evictions: 1,
            }
        );
        let events = sink.snapshot();
        assert_eq!(
            events.last(),
            Some(&TraceEvent::RunFinished {
                groups_formed: 3,
                repairs: 1,
                deferrals: 1,
                singletons: 2,
            })
        );
        // The checker compares `RunFinished` with its own replayed tallies.
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn double_ready_rejected() {
        let mut c = Controller::new(ControllerConfig::constant(4, 2));
        c.push_ready(0, 0);
        c.push_ready(0, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds cluster size")]
    fn rejects_p_greater_than_n() {
        ControllerConfig::constant(2, 3);
    }

    #[test]
    fn departed_worker_is_purged_from_queue_and_rejected() {
        // Regression: a worker that crashes while queued must never be
        // scheduled into a group, and late signals from it are dropped.
        let mut c = Controller::new(ControllerConfig::constant(4, 2));
        c.push_ready(0, 1);
        c.push_ready(1, 1);
        // Worker 0 dies while queued: its signal is purged, so the queue
        // holds only worker 1 and no group can form.
        c.mark_left(0);
        assert!(c.has_left(0));
        assert_eq!(c.pending(), 1);
        assert_eq!(c.active(), 3);
        assert!(c.try_form_group().is_none());
        // A late signal from the departed worker is rejected.
        assert!(!c.push_ready(0, 2));
        assert_eq!(c.pending(), 1);
        // Live workers still form groups — without the departed one.
        assert!(c.push_ready(2, 1));
        let d = c.try_form_group().unwrap();
        assert_eq!(d.group, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "left twice")]
    fn double_departure_panics() {
        let mut c = Controller::new(ControllerConfig::constant(4, 2));
        c.mark_left(2);
        c.mark_left(2);
    }

    #[test]
    fn traced_controller_narrates_decisions() {
        use crate::trace::{RingSink, TraceEvent};
        use std::sync::Arc;

        let sink = Arc::new(RingSink::new(64));
        let mut c = Controller::with_sink(ControllerConfig::constant(4, 2), sink.clone());
        c.push_ready(3, 1);
        c.push_ready(1, 2);
        let d = c.try_form_group().unwrap();
        c.mark_left(0);
        let events = sink.snapshot();
        assert!(matches!(events[0], TraceEvent::RunStarted { .. }));
        assert_eq!(
            events[1],
            TraceEvent::SignalEnqueued {
                worker: 3,
                iteration: 1,
                queued: 1
            }
        );
        assert_eq!(
            events[3],
            TraceEvent::GroupFormed {
                sequence: 0,
                members: d.group.clone(),
                iterations: vec![1, 2],
                weights: d.weights.to_vec(),
                new_iteration: 2,
                repaired: false,
            }
        );
        assert_eq!(
            events[4],
            TraceEvent::WorkerLeft {
                worker: 0,
                active: 3,
                purged_signal: false
            }
        );
    }

    #[test]
    fn repair_preserves_group_size_and_membership_validity() {
        let mut c = Controller::new(ControllerConfig {
            num_workers: 6,
            group_size: 3,
            mode: AggregationMode::Constant,
            history_window: Some(2),
            frozen_avoidance: true,
        });
        // Freeze two triples, then verify repairs still produce valid
        // groups of exactly P distinct members.
        let mut free = [true; 6];
        for round in 0..10 {
            for (w, f) in free.iter_mut().enumerate() {
                if *f {
                    c.push_ready(w, round);
                    *f = false;
                }
            }
            while let Some(d) = c.try_form_group() {
                assert_eq!(d.group.len(), 3);
                let mut g = d.group.clone();
                g.sort_unstable();
                g.dedup();
                assert_eq!(g.len(), 3, "duplicate members in {:?}", d.group);
                assert_eq!(d.weights.len(), 3);
                for &m in &d.group {
                    free[m] = true;
                }
            }
        }
        assert!(c.repairs() > 0);
    }

    /// The group filter as it was before the membership table, kept as the
    /// oracle: on a warm window it rebuilds the DFS components of
    /// `GroupHistory::sync_graph`, labels *every* queued signal, and
    /// decides from the labels. Connectivity is judged over the live fleet
    /// (workers that have not departed or still appear in the window),
    /// computed from the same DFS labels.
    struct ReferenceFilter {
        n: usize,
        p: usize,
        queue: VecDeque<usize>,
        history: crate::graph::GroupHistory,
        departed: Vec<bool>,
        deferrals: u64,
    }

    impl ReferenceFilter {
        fn new(config: &ControllerConfig) -> Self {
            ReferenceFilter {
                n: config.num_workers,
                p: config.group_size,
                queue: VecDeque::new(),
                history: crate::graph::GroupHistory::new(config.effective_window()),
                departed: vec![false; config.num_workers],
                deferrals: 0,
            }
        }

        fn active(&self) -> usize {
            self.departed.iter().filter(|&&gone| !gone).count()
        }

        fn mark_left(&mut self, worker: usize) {
            self.departed[worker] = true;
            self.queue.retain(|&w| w != worker);
        }

        /// `(group, repaired)`, or `None` for "too few signals" and for a
        /// deferral (which `deferrals` tells apart).
        fn try_form_group(&mut self) -> Option<(Vec<usize>, bool)> {
            let p = self.p;
            if self.queue.len() < p {
                return None;
            }
            let mut member_idx: Vec<usize> = (0..p).collect();
            let mut repaired = false;
            if self.history.is_warm() {
                let labels = self.history.sync_graph(self.n).components();
                if !self
                    .history
                    .live_fleet_is_connected(&labels, &self.departed)
                {
                    let sig_comps: Vec<usize> = self.queue.iter().map(|&w| labels[w]).collect();
                    if sig_comps.iter().all(|&c| c == sig_comps[0]) {
                        if self.queue.len() < self.active() {
                            self.deferrals += 1;
                            return None;
                        }
                    } else {
                        let mut chosen: Vec<usize> = Vec::with_capacity(p);
                        let mut used_comps: Vec<usize> = Vec::new();
                        for (idx, &c) in sig_comps.iter().enumerate() {
                            if chosen.len() == p {
                                break;
                            }
                            if !used_comps.contains(&c) {
                                used_comps.push(c);
                                chosen.push(idx);
                            }
                        }
                        for idx in 0..self.queue.len() {
                            if chosen.len() == p {
                                break;
                            }
                            if !chosen.contains(&idx) {
                                chosen.push(idx);
                            }
                        }
                        chosen.sort_unstable();
                        repaired = chosen != member_idx;
                        member_idx = chosen;
                    }
                }
            }
            let mut group: Vec<usize> = member_idx
                .iter()
                .rev()
                .filter_map(|&idx| self.queue.remove(idx))
                .collect();
            group.reverse();
            self.history.record(group.clone());
            Some((group, repaired))
        }
    }

    /// The production controller and the oracle side by side: every call
    /// goes to both and every answer is compared.
    struct LockStep {
        controller: Controller,
        reference: ReferenceFilter,
        /// Queue length at which each group formed.
        formed_at: Vec<usize>,
    }

    impl LockStep {
        fn new(config: ControllerConfig) -> Self {
            LockStep {
                reference: ReferenceFilter::new(&config),
                controller: Controller::new(config),
                formed_at: Vec::new(),
            }
        }

        fn push_ready(&mut self, worker: usize, iteration: u64) {
            assert!(self.controller.push_ready(worker, iteration));
            self.reference.queue.push_back(worker);
        }

        fn mark_left(&mut self, worker: usize) {
            self.controller.mark_left(worker);
            self.reference.mark_left(worker);
            assert_eq!(self.controller.pending(), self.reference.queue.len());
        }

        fn mark_restored(&mut self, worker: usize, iteration: u64) {
            self.controller.mark_restored(worker, iteration);
            self.reference.departed[worker] = false;
        }

        fn drain_pending(&mut self) -> Vec<usize> {
            let drained: Vec<usize> = self
                .controller
                .drain_pending()
                .into_iter()
                .map(|(w, _)| w)
                .collect();
            assert_eq!(
                drained,
                Vec::from(std::mem::take(&mut self.reference.queue))
            );
            drained
        }

        /// One formation attempt on both sides; the decisions, the
        /// deferral counts and the queues must agree.
        fn try_form_group(&mut self) -> Option<Vec<usize>> {
            let queued = self.controller.pending();
            let got = self
                .controller
                .try_form_group()
                .map(|d| (d.group, d.repaired));
            let want = self.reference.try_form_group();
            assert_eq!(got, want, "group {}", self.controller.groups_formed());
            assert_eq!(self.controller.deferrals(), self.reference.deferrals);
            assert_eq!(self.controller.pending(), self.reference.queue.len());
            let (group, _) = got?;
            self.formed_at.push(queued);
            Some(group)
        }
    }

    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A closed loop over a lock-stepped pair: a worker computes for a
    /// seeded, jittered time, signals, and computes again once its group
    /// has formed. Every tenth worker is ten times slower when `skewed`.
    /// With `churn`, workers leave (queued or computing), come back, and
    /// the whole queue is drained now and then.
    struct ClosedLoop {
        pair: LockStep,
        skewed: bool,
        churn: bool,
        rng: StdRng,
        /// `Some(t)`: computing until `t`. `None`: queued or departed.
        ready_at: Vec<Option<u64>>,
        iteration: Vec<u64>,
        steps: usize,
    }

    impl ClosedLoop {
        fn new(config: ControllerConfig, skewed: bool, churn: bool, seed: u64) -> Self {
            let n = config.num_workers;
            let mut fleet = ClosedLoop {
                pair: LockStep::new(config),
                skewed,
                churn,
                rng: StdRng::seed_from_u64(seed),
                ready_at: vec![None; n],
                iteration: vec![0; n],
                steps: 0,
            };
            for w in 0..n {
                fleet.ready_at[w] = Some(fleet.compute_time(w));
            }
            fleet
        }

        fn compute_time(&mut self, w: usize) -> u64 {
            let pace = if self.skewed && w.is_multiple_of(10) {
                10_000
            } else {
                1_000
            };
            pace + self.rng.gen_range(0..500u64)
        }

        fn mark_left(&mut self, w: usize) {
            self.pair.mark_left(w);
            self.ready_at[w] = None;
        }

        /// Processes `signals` more ready signals.
        fn run(&mut self, signals: usize) {
            let n = self.ready_at.len();
            let p = self.pair.controller.config().group_size;
            for _ in 0..signals {
                self.steps += 1;
                if self.churn && self.steps.is_multiple_of(97) {
                    let w = self.rng.gen_range(0..n);
                    if self.pair.controller.has_left(w) {
                        self.pair.mark_restored(w, self.iteration[w]);
                        self.ready_at[w] = Some(self.rng.gen_range(0..2_000u64));
                    } else if self.pair.controller.active() > p {
                        self.mark_left(w);
                    }
                }
                if self.churn && self.steps.is_multiple_of(389) {
                    for w in self.pair.drain_pending() {
                        self.ready_at[w] = Some(self.rng.gen_range(0..2_000u64));
                    }
                }
                let arrival = self
                    .ready_at
                    .iter()
                    .enumerate()
                    .filter_map(|(w, t)| t.map(|t| (t, w)))
                    .min();
                let Some((now, worker)) = arrival else {
                    // Everybody alive is queued and deferred: only
                    // possible mid-churn, and the next churn step moves
                    // things again.
                    assert!(self.churn, "closed loop wedged at step {}", self.steps);
                    continue;
                };
                self.ready_at[worker] = None;
                self.iteration[worker] += 1;
                self.pair.push_ready(worker, self.iteration[worker]);
                while let Some(group) = self.pair.try_form_group() {
                    for m in group {
                        self.ready_at[m] = Some(now + 50 + self.compute_time(m));
                    }
                }
            }
        }
    }

    #[test]
    fn filter_decides_exactly_as_the_label_everything_reference() {
        let mut totals = [0u64; 3];
        for (n, signals) in [(8, 3_000), (64, 4_000), (300, 2_500)] {
            for p in [2, 3, 8] {
                let full = min_history_window(n, p);
                for window in [None, Some((full / 2).max(1))] {
                    for (skewed, churn) in [(false, false), (true, false), (true, true)] {
                        let config = ControllerConfig {
                            history_window: window,
                            ..ControllerConfig::constant(n, p)
                        };
                        let seed = (n * 31 + p * 7 + usize::from(skewed)) as u64;
                        let mut fleet = ClosedLoop::new(config, skewed, churn, seed);
                        fleet.run(signals);
                        let c = &fleet.pair.controller;
                        assert!(c.groups_formed() > 0, "N={n} P={p}: no groups");
                        totals[0] += c.groups_formed();
                        totals[1] += c.repairs();
                        totals[2] += c.deferrals();
                    }
                }
            }
        }
        // The streams must reach the repair and the deferral paths often,
        // not only the FIFO one.
        let [groups, repairs, deferrals] = totals;
        assert!(
            repairs * 20 > groups,
            "{repairs} repairs in {groups} groups"
        );
        assert!(
            deferrals * 20 > groups,
            "{deferrals} deferrals, {groups} groups"
        );
    }

    #[test]
    fn one_departure_does_not_turn_the_filter_into_a_barrier() {
        // N = 8, P = 3, T = 4. Once worker 7 has left and its groups have
        // rolled out of the window it must stop counting as a vertex:
        // otherwise the graph is disconnected for good, the seven
        // survivors are one component, and every group waits until all
        // seven are queued — a barrier.
        let mut fleet = ClosedLoop::new(ControllerConfig::constant(8, 3), false, false, 18);
        fleet.run(60);
        fleet.mark_left(7);
        let pair = &fleet.pair;
        let (before, deferred_before) = (pair.formed_at.len(), pair.controller.deferrals());
        fleet.run(400);
        let pair = &fleet.pair;
        let after = &pair.formed_at[before + 4..];
        let deferrals = pair.controller.deferrals() - deferred_before;
        let at_p = after.iter().filter(|&&queued| queued == 3).count();
        let at_barrier = after.iter().filter(|&&queued| queued == 7).count();
        // Before the fix: 0 of 128 groups at P, 128 with all seven
        // queued, 389 deferrals.
        assert!(after.len() > 100, "{} groups", after.len());
        assert!(at_p * 2 > after.len(), "{at_p} of {} at P", after.len());
        assert!(at_barrier * 10 < after.len(), "{at_barrier} barriers");
        assert!((deferrals as usize) < after.len(), "{deferrals} deferrals");
    }

    /// Two frozen triples on a warm two-group window, then 0, 1 and 2
    /// signal: one component, graph disconnected — the filter defers.
    fn deferring_triple() -> LockStep {
        let mut pair = LockStep::new(ControllerConfig {
            history_window: Some(2),
            ..ControllerConfig::constant(6, 3)
        });
        for group in [[0, 1, 2], [3, 4, 5]] {
            for w in group {
                pair.push_ready(w, 1);
            }
            assert_eq!(pair.try_form_group(), Some(group.to_vec()));
        }
        for w in [0, 1, 2] {
            pair.push_ready(w, 2);
        }
        assert_eq!(pair.try_form_group(), None);
        assert_eq!(pair.controller.deferrals(), 1);
        pair
    }

    #[test]
    fn deferring_queue_reattempted_unchanged_defers_and_counts_again() {
        let mut pair = deferring_triple();
        let forest_work = pair.controller.connectivity_stats();
        for attempt in 2..5 {
            assert_eq!(pair.try_form_group(), None);
            assert_eq!(pair.controller.deferrals(), attempt);
        }
        // Re-asking about a queue whose labels are already known costs
        // neither a rebuild nor a merge.
        let now = pair.controller.connectivity_stats();
        assert_eq!(
            (now.rebuilds, now.merges),
            (forest_work.rebuilds, forest_work.merges)
        );
        // The arrival that ends the wait: 3 sits in the other component.
        pair.push_ready(3, 2);
        assert_eq!(pair.try_form_group(), Some(vec![0, 1, 3]));
        assert_eq!(pair.controller.repairs(), 1);
        // The record above invalidated what was known about the queue:
        // 2 is absent from the window [3,4,5], [0,1,3] now.
        pair.push_ready(4, 2);
        pair.push_ready(5, 2);
        assert_eq!(pair.try_form_group(), Some(vec![2, 4, 5]));
        assert_eq!(pair.controller.repairs(), 1);
    }

    #[test]
    fn removing_a_queued_worker_mid_deferral_forgets_what_was_known() {
        // The head leaves while the queue defers; the refill spans.
        let mut pair = deferring_triple();
        pair.mark_left(0);
        pair.push_ready(4, 2);
        assert_eq!(pair.try_form_group(), Some(vec![1, 2, 4]));

        // A queued worker behind the head leaves; the refill spans too.
        let mut pair = deferring_triple();
        pair.mark_left(1);
        pair.push_ready(3, 2);
        assert_eq!(pair.try_form_group(), Some(vec![0, 2, 3]));

        // The whole queue is drained; the next three signals are judged
        // from scratch.
        let mut pair = deferring_triple();
        assert_eq!(pair.drain_pending(), vec![0, 1, 2]);
        for w in [3, 1, 5] {
            pair.push_ready(w, 3);
        }
        assert_eq!(pair.try_form_group(), Some(vec![3, 1, 5]));
        assert_eq!(pair.controller.repairs(), 0);
        assert_eq!(pair.controller.deferrals(), 1);
    }
}
