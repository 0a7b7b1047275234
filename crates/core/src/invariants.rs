//! Trace-driven invariant checking for the P-Reduce control plane.
//!
//! The checker is **incremental**: [`StreamingChecker`] consumes one
//! [`TraceEvent`] at a time ([`StreamingChecker::feed`]) with
//! bounded-memory replay state — per-worker counters, a windowed
//! connectivity structure, never a retained event vector — so
//! million-signal traces check in O(state), not O(trace), memory.
//! [`InvariantChecker::check`] (batch) and
//! [`InvariantChecker::check_jsonl`] (line-streamed from disk, works on
//! dumps larger than RAM) are thin wrappers over the same state machine,
//! so their verdicts are identical by construction. [`CheckingSink`]
//! adapts the checker into a [`TraceSink`] for live, in-process checking
//! of a running controller.
//!
//! Replaying asserts the paper's contracts:
//!
//! * every formed group has exactly `P` distinct, in-range, still-active
//!   members, each holding exactly one consumed ready signal;
//! * weight vectors are non-negative and sum to 1 — uniform `1/P` in CON
//!   mode, the Eq. 9 staleness-aware weights (recomputed independently) in
//!   DYN mode;
//! * `new_iteration` is the group max, per-worker reported iterations
//!   never regress, and in DYN mode members fast-forward: a member's next
//!   signal is strictly beyond the adopted group max (§3.3.3);
//! * no worker sits in two in-flight groups (enforced when the trace
//!   carries [`TraceEvent::ReduceCompleted`] completions);
//! * a repair group only appears when the `T`-window sync graph is warm
//!   and disconnected, and its members bridge at least two components
//!   (§4 group-frozen avoidance);
//! * departed workers never appear in later groups, and their queued
//!   signals are purged on departure;
//! * elasticity events (DESIGN.md §14) are consistent: a snapshot
//!   ([`TraceEvent::SnapshotTaken`]) never captures a departed worker, a
//!   restore ([`TraceEvent::WorkerRestored`]) targets a rank that
//!   actually departed — resetting its iteration floor to the snapshot
//!   iteration, since durable state may legitimately predate the crash —
//!   and a reshard ([`TraceEvent::ShardsReassigned`]) moves fewer than
//!   5% of keys between surviving workers;
//! * an eviction ([`TraceEvent::WorkerEvicted`]) is *justified*: it is
//!   preceded by heartbeat silence ([`TraceEvent::HeartbeatMissed`]), an
//!   injected fault ([`TraceEvent::FaultInjected`]), or a dropped control
//!   connection ([`TraceEvent::ProcessDisconnected`]) for that worker, it
//!   carries the post-eviction active count, and it is resolved by the
//!   worker's ordinary departure event — never by silently vanishing;
//! * process lifecycle is consistent: at most one
//!   [`TraceEvent::ProcessJoined`] per rank, and a
//!   [`TraceEvent::ProcessDisconnected`] only for a rank that joined and
//!   has not yet departed;
//! * closing counters ([`TraceEvent::RunFinished`]) match the replayed
//!   tallies.
//!
//! The checker is deliberately tolerant of *truncated* traces (a crash
//! mid-run yields no `RunFinished`; that is not a violation) but strict
//! about *inconsistent* ones.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::{self, BufRead};
use std::path::Path;
use std::sync::Mutex;

use crate::controller::{AggregationMode, ControllerConfig};
use crate::graph::WindowedConnectivity;
use crate::trace::{TraceEvent, TraceSink};
use crate::weights::dynamic_weights;

/// Weight-vector comparison tolerance. Weights travel as `f32` and
/// serde_json round-trips floats exactly, so this only needs to absorb
/// the checker recomputing DYN weights in a different summation order.
const WEIGHT_EPS: f32 = 1e-4;

/// One broken invariant, anchored to the offending event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index of the offending event in the replayed stream.
    pub index: usize,
    /// Human-readable description of the broken contract.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event {}: {}", self.index, self.message)
    }
}

/// The outcome of replaying a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantReport {
    /// Events replayed.
    pub events: usize,
    /// Groups formed in the trace.
    pub groups: u64,
    /// Frozen-schedule repairs observed.
    pub repairs: u64,
    /// Broken invariants, in event order.
    pub violations: Vec<Violation>,
}

impl InvariantReport {
    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} events, {} groups ({} repaired), {} violation(s)",
            self.events,
            self.groups,
            self.repairs,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Replays traces and validates the control-plane contracts. Both entry
/// points are thin wrappers over [`StreamingChecker`], the incremental
/// state machine — one feeds a slice, the other streams a file line by
/// line, so a dump larger than RAM checks in bounded memory.
pub struct InvariantChecker;

impl InvariantChecker {
    /// Replays `events` and reports every broken invariant.
    pub fn check(events: &[TraceEvent]) -> InvariantReport {
        let mut checker = StreamingChecker::new();
        for event in events {
            checker.feed(event);
        }
        checker.finish()
    }

    /// Streams a JSONL trace dump through the checker one line at a time
    /// — the file is never materialized, so traces larger than RAM check
    /// fine. Parse failures abort with the offending line number, same as
    /// [`crate::trace::read_jsonl`].
    pub fn check_jsonl<P: AsRef<Path>>(path: P) -> io::Result<InvariantReport> {
        let file = std::fs::File::open(path)?;
        let reader = io::BufReader::new(file);
        let mut checker = StreamingChecker::new();
        for (idx, line) in reader.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let event: TraceEvent = serde_json::from_str(&line).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("trace line {}: {e}", idx + 1),
                )
            })?;
            checker.feed(&event);
        }
        Ok(checker.finish())
    }
}

/// A violation recorded during streaming, tagged with whether it only
/// stands under strict in-flight accounting (see
/// [`StreamingChecker::finish`]).
struct PendingViolation {
    violation: Violation,
    strict_only: bool,
}

/// The incremental invariant checker: feed events one at a time, read
/// the verdict at the end.
///
/// State is bounded by the fleet, not the trace: per-worker maps
/// (queue, floors, in-flight membership, lifecycle flags), a
/// [`WindowedConnectivity`] replica of the controller's `T`-window sync
/// graph, scalar counters, and the violation list — O(N + T·P +
/// violations) total, independent of how many events stream through.
///
/// One contract needs care in streaming form: in-flight accounting is
/// only *enforced* when the trace carries
/// [`TraceEvent::ReduceCompleted`] at all (controller-only traces
/// legitimately lack completions). A streaming checker cannot look
/// ahead, so it always *tracks* in-flight groups, tags the violations
/// that depend on strictness, and drops them at
/// [`StreamingChecker::finish`] if no completion ever arrived — one pass.
pub struct StreamingChecker {
    /// Events fed so far (also the index assigned to the next event).
    index: usize,
    /// Whether a [`TraceEvent::ReduceCompleted`] has been seen — flips
    /// strict in-flight accounting from "tracked" to "enforced".
    strict_inflight: bool,
    config: Option<ControllerConfig>,
    /// Queued ready signals: worker → reported iteration.
    pending: BTreeMap<usize, u64>,
    /// Departed workers.
    departed: BTreeSet<usize>,
    /// Strictly-increasing floor on each worker's next reported iteration.
    min_next: BTreeMap<usize, u64>,
    /// Workers inside an unfinished group: worker → group members.
    in_flight: BTreeMap<usize, Vec<usize>>,
    /// Workers with an injected fault on record (justifies eviction).
    faulted: BTreeSet<usize>,
    /// Workers whose heartbeat silence was narrated (justifies eviction).
    missed: BTreeSet<usize>,
    /// Worker processes that completed the fleet handshake.
    joined: BTreeSet<usize>,
    /// Workers whose control connection dropped (justifies eviction).
    disconnected: BTreeSet<usize>,
    /// Evicted workers awaiting their departure event.
    evicted_pending: BTreeSet<usize>,
    /// Replica of the controller's `T`-window sync-graph connectivity
    /// (the batch checker's rebuild-and-DFS is the semantic reference;
    /// this matches it exactly, property-tested).
    conn: Option<WindowedConnectivity>,
    expected_sequence: u64,
    active: Option<usize>,
    groups: u64,
    repairs: u64,
    deferrals: u64,
    singletons: u64,
    missing_start_reported: bool,
    violations: Vec<PendingViolation>,
}

impl Default for StreamingChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingChecker {
    /// Creates a checker with no events fed.
    pub fn new() -> Self {
        StreamingChecker {
            index: 0,
            strict_inflight: false,
            config: None,
            pending: BTreeMap::new(),
            departed: BTreeSet::new(),
            min_next: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            faulted: BTreeSet::new(),
            missed: BTreeSet::new(),
            joined: BTreeSet::new(),
            disconnected: BTreeSet::new(),
            evicted_pending: BTreeSet::new(),
            conn: None,
            expected_sequence: 0,
            active: None,
            groups: 0,
            repairs: 0,
            deferrals: 0,
            singletons: 0,
            missing_start_reported: false,
            violations: Vec::new(),
        }
    }

    /// Events fed so far.
    pub fn events(&self) -> usize {
        self.index
    }

    /// Groups observed so far.
    pub fn groups(&self) -> u64 {
        self.groups
    }

    fn fail(&mut self, index: usize, message: String) {
        self.violations.push(PendingViolation {
            violation: Violation { index, message },
            strict_only: false,
        });
    }

    /// Records a violation that only stands when the trace turns out to
    /// carry completions (strict in-flight accounting).
    fn fail_strict(&mut self, index: usize, message: String) {
        self.violations.push(PendingViolation {
            violation: Violation { index, message },
            strict_only: true,
        });
    }

    fn require_started(&mut self, index: usize) {
        if self.config.is_none() && !self.missing_start_reported {
            self.missing_start_reported = true;
            self.fail(index, "trace does not begin with RunStarted".to_string());
        }
    }

    /// Feeds one event into the state machine, recording any violations
    /// it exposes. Events are indexed in arrival order.
    pub fn feed(&mut self, event: &TraceEvent) {
        let i = self.index;
        self.index += 1;
        {
            match event {
                TraceEvent::RunStarted { config } => self.on_started(i, config),
                TraceEvent::SignalEnqueued {
                    worker,
                    iteration,
                    queued,
                } => self.on_enqueued(i, *worker, *iteration, *queued),
                TraceEvent::SignalRejected { worker, .. } => {
                    self.require_started(i);
                    if !self.departed.contains(worker) {
                        self.fail(
                            i,
                            format!(
                                "signal from worker {worker} rejected \
                                 though it never departed"
                            ),
                        );
                    }
                }
                TraceEvent::GroupDeferred { queued, .. } => {
                    self.require_started(i);
                    self.deferrals += 1;
                    if *queued != self.pending.len() {
                        self.fail(
                            i,
                            format!(
                                "deferral reports {queued} queued signals, \
                                 replay holds {}",
                                self.pending.len()
                            ),
                        );
                    }
                }
                TraceEvent::GroupFormed {
                    sequence,
                    members,
                    iterations,
                    weights,
                    new_iteration,
                    repaired,
                } => self.on_group(
                    i,
                    *sequence,
                    members,
                    iterations,
                    weights,
                    *new_iteration,
                    *repaired,
                ),
                TraceEvent::AssignmentSent {
                    worker, members, ..
                } => {
                    if !members.contains(worker) {
                        self.fail(
                            i,
                            format!(
                                "assignment for group {members:?} sent to \
                                 non-member worker {worker}"
                            ),
                        );
                    }
                }
                TraceEvent::ReduceCompleted {
                    worker, members, ..
                } => {
                    // The trace carries completions: in-flight accounting
                    // is enforced (tracked-but-tagged violations from
                    // earlier events stand — see `finish`).
                    self.strict_inflight = true;
                    self.on_completed(i, *worker, members)
                }
                TraceEvent::WorkerLeft {
                    worker,
                    active,
                    purged_signal,
                } => self.on_left(i, *worker, *active, *purged_signal),
                TraceEvent::PendingDrained { signals } => {
                    self.require_started(i);
                    for &(w, it) in signals {
                        match self.pending.remove(&w) {
                            None => self.fail(
                                i,
                                format!(
                                    "drained a signal for worker {w} that \
                                     was not queued"
                                ),
                            ),
                            Some(q) if q != it => self.fail(
                                i,
                                format!(
                                    "drained signal for worker {w} carries \
                                     iteration {it}, queued was {q}"
                                ),
                            ),
                            Some(_) => {}
                        }
                    }
                }
                TraceEvent::SingletonIssued { worker, iteration } => {
                    self.require_started(i);
                    self.singletons += 1;
                    if self.departed.contains(worker) {
                        self.fail(i, format!("singleton issued to departed worker {worker}"));
                    }
                    if self.pending.contains_key(worker) {
                        self.fail(
                            i,
                            format!(
                                "singleton issued to worker {worker} while \
                                 its signal is still queued"
                            ),
                        );
                    }
                    // A singleton releases the worker at its *own* reported
                    // iteration — no aggregation, no fast-forward — so the
                    // floor check is non-strict here.
                    if let Some(&floor) = self.min_next.get(worker) {
                        if *iteration < floor {
                            self.fail(
                                i,
                                format!(
                                    "singleton for worker {worker} \
                                     regresses to iteration {iteration} \
                                     (floor {floor})"
                                ),
                            );
                        }
                    }
                }
                TraceEvent::FaultInjected { worker, .. } => {
                    // Fault narration needs no prior state; it *creates*
                    // state: this worker's later eviction is justified.
                    if let Some(cfg) = &self.config {
                        if *worker >= cfg.num_workers {
                            self.fail(
                                i,
                                format!(
                                    "fault injected into out-of-range \
                                     worker {worker} (N = {})",
                                    cfg.num_workers
                                ),
                            );
                        }
                    }
                    self.faulted.insert(*worker);
                }
                TraceEvent::ProcessJoined { worker, .. } => {
                    self.require_started(i);
                    if let Some(cfg) = &self.config {
                        if *worker >= cfg.num_workers {
                            self.fail(
                                i,
                                format!(
                                    "out-of-range worker {worker} joined \
                                     the fleet (N = {})",
                                    cfg.num_workers
                                ),
                            );
                        }
                    }
                    if !self.joined.insert(*worker) {
                        self.fail(i, format!("worker {worker} joined the fleet twice"));
                    }
                }
                TraceEvent::ProcessDisconnected { worker } => {
                    self.require_started(i);
                    if !self.joined.contains(worker) {
                        self.fail(
                            i,
                            format!(
                                "disconnect reported for worker {worker} \
                                 that never joined the fleet"
                            ),
                        );
                    }
                    if self.departed.contains(worker) {
                        self.fail(
                            i,
                            format!(
                                "disconnect reported for worker {worker} \
                                 after it already departed"
                            ),
                        );
                    }
                    if !self.disconnected.insert(*worker) {
                        self.fail(i, format!("worker {worker} disconnected twice"));
                    }
                }
                TraceEvent::HeartbeatMissed { worker, misses } => {
                    self.require_started(i);
                    if *misses == 0 {
                        self.fail(
                            i,
                            format!("worker {worker} reported with zero missed heartbeats"),
                        );
                    }
                    if self.departed.contains(worker) {
                        self.fail(
                            i,
                            format!(
                                "heartbeat silence reported for worker \
                                 {worker} after it already departed"
                            ),
                        );
                    }
                    self.missed.insert(*worker);
                }
                TraceEvent::WorkerEvicted { worker, active } => {
                    self.on_evicted(i, *worker, *active)
                }
                TraceEvent::SnapshotTaken { worker, .. } => {
                    self.require_started(i);
                    if let Some(w) = worker {
                        if let Some(cfg) = &self.config {
                            if *w >= cfg.num_workers {
                                self.fail(
                                    i,
                                    format!(
                                        "snapshot of out-of-range worker \
                                         {w} (N = {})",
                                        cfg.num_workers
                                    ),
                                );
                            }
                        }
                        if self.departed.contains(w) {
                            self.fail(i, format!("snapshot taken of departed worker {w}"));
                        }
                    }
                }
                TraceEvent::WorkerRestored {
                    worker,
                    iteration,
                    active,
                } => self.on_restored(i, *worker, *iteration, *active),
                TraceEvent::ShardsReassigned { moved, total } => {
                    self.require_started(i);
                    if moved > total {
                        self.fail(
                            i,
                            format!(
                                "reassignment moved {moved} keys out of \
                                 only {total}"
                            ),
                        );
                    } else if *total > 0 && moved * 20 >= *total {
                        self.fail(
                            i,
                            format!(
                                "reassignment moved {moved} of {total} \
                                 survivor keys (≥5% gratuitous churn)"
                            ),
                        );
                    }
                }
                TraceEvent::RunFinished {
                    groups_formed,
                    repairs,
                    deferrals,
                    singletons,
                } => {
                    self.require_started(i);
                    for (label, reported, counted) in [
                        ("groups_formed", *groups_formed, self.groups),
                        ("repairs", *repairs, self.repairs),
                        ("deferrals", *deferrals, self.deferrals),
                        ("singletons", *singletons, self.singletons),
                    ] {
                        if reported != counted {
                            self.fail(
                                i,
                                format!(
                                    "RunFinished reports {label} = \
                                     {reported}, replay counted {counted}"
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Consumes the checker and renders the verdict. Strict-in-flight
    /// candidate violations are dropped here if the stream carried no
    /// [`TraceEvent::ReduceCompleted`] at all — the single-pass
    /// equivalent of the batch checker's pre-scan.
    pub fn finish(self) -> InvariantReport {
        let strict = self.strict_inflight;
        InvariantReport {
            events: self.index,
            groups: self.groups,
            repairs: self.repairs,
            violations: self
                .violations
                .into_iter()
                .filter(|p| strict || !p.strict_only)
                .map(|p| p.violation)
                .collect(),
        }
    }

    fn on_started(&mut self, index: usize, config: &ControllerConfig) {
        if self.config.is_some() {
            self.fail(index, "duplicate RunStarted".to_string());
            return;
        }
        if config.group_size < 2 || config.group_size > config.num_workers {
            self.fail(
                index,
                format!(
                    "invalid configuration: N = {}, P = {}",
                    config.num_workers, config.group_size
                ),
            );
        } else {
            self.conn = Some(WindowedConnectivity::new(
                config.num_workers,
                config.effective_window(),
            ));
        }
        self.active = Some(config.num_workers);
        self.config = Some(config.clone());
    }

    /// Enforces that `worker`'s reported iteration numbers strictly
    /// increase (monotonicity + DYN fast-forward adoption).
    fn bump_min_next(&mut self, index: usize, worker: usize, iteration: u64, what: &str) {
        if let Some(&floor) = self.min_next.get(&worker) {
            if iteration <= floor {
                self.fail(
                    index,
                    format!(
                        "worker {worker} {what} iteration {iteration} does \
                         not advance past {floor}"
                    ),
                );
            }
        }
        let entry = self.min_next.entry(worker).or_insert(iteration);
        *entry = (*entry).max(iteration);
    }

    fn on_enqueued(&mut self, index: usize, worker: usize, iteration: u64, queued: usize) {
        self.require_started(index);
        if let Some(cfg) = &self.config {
            if worker >= cfg.num_workers {
                self.fail(
                    index,
                    format!(
                        "signal from out-of-range worker {worker} \
                         (N = {})",
                        cfg.num_workers
                    ),
                );
                return;
            }
        }
        if self.departed.contains(&worker) {
            self.fail(
                index,
                format!("signal from departed worker {worker} was enqueued"),
            );
        }
        if self.in_flight.contains_key(&worker) {
            // Stands only under strict in-flight accounting — tagged, and
            // dropped at `finish` if the trace carries no completions.
            self.fail_strict(
                index,
                format!(
                    "worker {worker} signalled ready while still inside an \
                     in-flight group"
                ),
            );
        }
        self.bump_min_next(index, worker, iteration, "signalled");
        if self.pending.insert(worker, iteration).is_some() {
            self.fail(
                index,
                format!("worker {worker} signalled ready twice without reducing"),
            );
        }
        if queued != self.pending.len() {
            self.fail(
                index,
                format!(
                    "enqueue reports queue depth {queued}, replay holds {}",
                    self.pending.len()
                ),
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_group(
        &mut self,
        index: usize,
        sequence: u64,
        members: &[usize],
        iterations: &[u64],
        weights: &[f32],
        new_iteration: u64,
        repaired: bool,
    ) {
        self.require_started(index);
        self.groups += 1;
        if repaired {
            self.repairs += 1;
        }
        if sequence != self.expected_sequence {
            self.fail(
                index,
                format!(
                    "group sequence {sequence} out of order (expected {})",
                    self.expected_sequence
                ),
            );
        }
        self.expected_sequence = sequence + 1;

        // Exactly P distinct, in-range, still-active members.
        let shape = self.config.as_ref().map(|c| (c.group_size, c.num_workers));
        if let Some((group_size, num_workers)) = shape {
            if members.len() != group_size {
                self.fail(
                    index,
                    format!(
                        "group {sequence} has {} members, expected P = {group_size}",
                        members.len(),
                    ),
                );
            }
            if let Some(&bad) = members.iter().find(|&&m| m >= num_workers) {
                self.fail(
                    index,
                    format!("group {sequence} contains out-of-range worker {bad}"),
                );
            }
        }
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != members.len() {
            self.fail(
                index,
                format!("group {sequence} has duplicate members {members:?}"),
            );
        }
        for &m in members {
            if self.departed.contains(&m) {
                self.fail(
                    index,
                    format!("departed worker {m} appears in group {sequence}"),
                );
            }
            if self.evicted_pending.contains(&m) {
                self.fail(
                    index,
                    format!(
                        "evicted worker {m} appears in group {sequence} \
                         before its departure was recorded"
                    ),
                );
            }
            if self.in_flight.contains_key(&m) {
                self.fail_strict(
                    index,
                    format!(
                        "worker {m} sits in two in-flight groups \
                         (second is {sequence})"
                    ),
                );
            }
            self.in_flight.insert(m, members.to_vec());
        }

        // Each member consumes its queued signal, iterations aligned.
        if iterations.len() != members.len() {
            self.fail(
                index,
                format!(
                    "group {sequence}: {} iterations for {} members",
                    iterations.len(),
                    members.len()
                ),
            );
        }
        for (&m, &it) in members.iter().zip(iterations) {
            match self.pending.remove(&m) {
                None => self.fail(
                    index,
                    format!("group {sequence} member {m} had no queued signal"),
                ),
                Some(q) if q != it => self.fail(
                    index,
                    format!(
                        "group {sequence} member {m} recorded iteration \
                         {it}, its signal carried {q}"
                    ),
                ),
                Some(_) => {}
            }
        }

        // Fast-forward target is the group max; iterations never regress.
        if let Some(&max) = iterations.iter().max() {
            if new_iteration != max {
                self.fail(
                    index,
                    format!(
                        "group {sequence} fast-forwards to {new_iteration}, \
                         member max is {max}"
                    ),
                );
            }
        }
        let dynamic = matches!(
            self.config.as_ref().map(|c| c.mode),
            Some(AggregationMode::Dynamic { .. })
        );
        if dynamic {
            // §3.3.3: members adopt the group max, so their next report
            // must move strictly beyond it.
            for &m in members {
                let entry = self.min_next.entry(m).or_insert(new_iteration);
                *entry = (*entry).max(new_iteration);
            }
        }

        self.check_weights(index, sequence, iterations, weights, members);
        self.check_repair(index, sequence, members, repaired);
    }

    /// Weights must be a stochastic vector matching the configured mode.
    fn check_weights(
        &mut self,
        index: usize,
        sequence: u64,
        iterations: &[u64],
        weights: &[f32],
        members: &[usize],
    ) {
        if weights.len() != members.len() {
            self.fail(
                index,
                format!(
                    "group {sequence}: {} weights for {} members",
                    weights.len(),
                    members.len()
                ),
            );
            return;
        }
        if let Some(&w) = weights.iter().find(|&&w| w < -WEIGHT_EPS) {
            self.fail(index, format!("group {sequence} has negative weight {w}"));
        }
        let sum: f32 = weights.iter().sum();
        if (sum - 1.0).abs() > WEIGHT_EPS {
            self.fail(
                index,
                format!("group {sequence} weights sum to {sum}, not 1"),
            );
        }
        let expected: Option<Vec<f32>> = match self.config.as_ref().map(|c| c.mode) {
            Some(AggregationMode::Constant) if !weights.is_empty() => {
                Some(crate::weights::constant_weights(weights.len()))
            }
            Some(AggregationMode::Dynamic { alpha, gap_policy })
                if iterations.len() == weights.len() && !iterations.is_empty() =>
            {
                Some(dynamic_weights(iterations, alpha, gap_policy))
            }
            _ => None,
        };
        if let Some(expected) = expected {
            for (i, (&got, &want)) in weights.iter().zip(&expected).enumerate() {
                if (got - want).abs() > WEIGHT_EPS {
                    self.fail(
                        index,
                        format!(
                            "group {sequence} weight[{i}] = {got} deviates \
                             from the mode-prescribed {want}"
                        ),
                    );
                    break;
                }
            }
        }
    }

    /// A repair must happen on a warm, disconnected sync-graph and bridge
    /// at least two of its components (§4). The window is replayed
    /// through a [`WindowedConnectivity`] and asked the filter's own
    /// question — do the members span two components? — which its
    /// membership table usually answers without rebuilding the forest;
    /// its components are exactly those of the batch rebuild-and-DFS
    /// (`GroupHistory::sync_graph(n).components()`), which remains the
    /// semantic reference the property tests compare against. Members
    /// that span two components prove the graph disconnected; only a
    /// repair that bridges nothing needs the second question, which of
    /// the two contracts it broke.
    fn check_repair(&mut self, index: usize, sequence: u64, members: &[usize], repaired: bool) {
        let Some(cfg) = self.config.as_ref() else {
            return;
        };
        let (n, frozen_avoidance) = (cfg.num_workers, cfg.frozen_avoidance);
        // Detached so violations can be filed while it is queried.
        let Some(mut conn) = self.conn.take() else {
            return;
        };
        if repaired {
            if !frozen_avoidance {
                self.fail(
                    index,
                    format!(
                        "group {sequence} repaired with frozen avoidance \
                         disabled"
                    ),
                );
            }
            if !conn.is_warm() {
                self.fail(
                    index,
                    format!(
                        "group {sequence} repaired before the history \
                         window warmed up"
                    ),
                );
            } else if !conn.spans_components(members.iter().copied().filter(|&m| m < n)) {
                let message = if conn.is_connected() {
                    format!(
                        "group {sequence} repaired an already-connected \
                         sync-graph"
                    )
                } else {
                    format!(
                        "repair group {sequence} does not bridge \
                         sync-graph components"
                    )
                };
                self.fail(index, message);
            }
        }
        if members.iter().all(|&m| m < n) {
            conn.record(members);
        }
        self.conn = Some(conn);
    }

    /// An eviction must be justified (prior silence, an injected fault,
    /// or a dropped control connection), must target a still-active
    /// worker, and must carry the post-eviction
    /// active count. The replayed `active` is *not* decremented here: the
    /// eviction routes through the ordinary departure path, so the
    /// worker's [`TraceEvent::WorkerLeft`] — carrying the same count —
    /// performs the decrement.
    fn on_evicted(&mut self, index: usize, worker: usize, active: usize) {
        self.require_started(index);
        if self.departed.contains(&worker) {
            self.fail(
                index,
                format!("worker {worker} evicted after it already departed"),
            );
        }
        if !self.evicted_pending.insert(worker) {
            self.fail(index, format!("worker {worker} evicted twice"));
        }
        if !self.missed.contains(&worker)
            && !self.faulted.contains(&worker)
            && !self.disconnected.contains(&worker)
        {
            self.fail(
                index,
                format!(
                    "worker {worker} evicted without prior HeartbeatMissed, \
                     FaultInjected, or ProcessDisconnected justification"
                ),
            );
        }
        match self.active {
            Some(0) => {
                self.fail(index, "more evictions than active workers".to_string());
            }
            Some(prev) if active != prev - 1 => {
                self.fail(
                    index,
                    format!(
                        "eviction reports {active} active workers, \
                         replay expects {}",
                        prev - 1
                    ),
                );
            }
            _ => {}
        }
    }

    /// A restore must target a rank that actually departed, must carry
    /// the post-restore active count, and resets the worker's iteration
    /// floor to the snapshot iteration: durable state may predate the
    /// crash, so resuming *below* the last pre-crash report is
    /// legitimate — but the next report must still move past the
    /// snapshot (DESIGN.md §14).
    fn on_restored(&mut self, index: usize, worker: usize, iteration: u64, active: usize) {
        self.require_started(index);
        if let Some(cfg) = &self.config {
            if worker >= cfg.num_workers {
                self.fail(
                    index,
                    format!(
                        "restore of out-of-range worker {worker} (N = {})",
                        cfg.num_workers
                    ),
                );
                return;
            }
        }
        if !self.departed.remove(&worker) {
            self.fail(
                index,
                format!("worker {worker} restored without having departed"),
            );
            return;
        }
        self.min_next.insert(worker, iteration);
        if let Some(conn) = self.conn.as_mut() {
            conn.set_departed(worker, false);
        }
        // The restored worker starts a fresh life: a later eviction needs
        // fresh justification, and its old control connection died with
        // the departure.
        self.faulted.remove(&worker);
        self.missed.remove(&worker);
        self.disconnected.remove(&worker);
        self.evicted_pending.remove(&worker);
        self.joined.remove(&worker);
        if let Some(prev) = self.active {
            let now = prev + 1;
            if let Some(cfg) = &self.config {
                if now > cfg.num_workers {
                    self.fail(index, "more restores than fleet capacity".to_string());
                    return;
                }
            }
            self.active = Some(now);
            if active != now {
                self.fail(
                    index,
                    format!(
                        "restore reports {active} active workers, \
                         replay counted {now}"
                    ),
                );
            }
        }
    }

    fn on_left(&mut self, index: usize, worker: usize, active: usize, purged_signal: bool) {
        self.require_started(index);
        self.evicted_pending.remove(&worker);
        if !self.departed.insert(worker) {
            self.fail(index, format!("worker {worker} left twice"));
        }
        // The replica judges connectivity over the live fleet, as the
        // controller's own structure does.
        if let Some(conn) = self.conn.as_mut() {
            if worker < conn.num_workers() {
                conn.set_departed(worker, true);
            }
        }
        // The controller purges the departing worker's queued signal — the
        // event must agree with the replayed queue.
        let had_signal = self.pending.remove(&worker).is_some();
        if had_signal != purged_signal {
            self.fail(
                index,
                format!(
                    "departure of worker {worker} reports purged_signal = \
                     {purged_signal}, replayed queue says {had_signal}"
                ),
            );
        }
        match self.active {
            Some(0) => {
                self.fail(index, "more departures than workers".to_string());
            }
            Some(prev) => {
                let now = prev - 1;
                self.active = Some(now);
                if active != now {
                    self.fail(
                        index,
                        format!(
                            "departure reports {active} active workers, \
                             replay counted {now}"
                        ),
                    );
                }
            }
            None => {}
        }
    }

    fn on_completed(&mut self, index: usize, worker: usize, members: &[usize]) {
        if !members.contains(&worker) {
            self.fail(
                index,
                format!(
                    "worker {worker} completed a reduce for group \
                     {members:?} it is not a member of"
                ),
            );
            return;
        }
        if members.len() == 1 {
            // Singleton drain completions never pass through GroupFormed.
            return;
        }
        match self.in_flight.remove(&worker) {
            None => self.fail(
                index,
                format!(
                    "worker {worker} completed a reduce without an \
                     in-flight group"
                ),
            ),
            Some(assigned) if assigned != members => self.fail(
                index,
                format!(
                    "worker {worker} completed group {members:?} but was \
                     assigned {assigned:?}"
                ),
            ),
            Some(_) => {}
        }
    }
}

/// A [`TraceSink`] that checks invariants *live*: every event recorded by
/// the controller (or any other emitter) is fed straight into a
/// [`StreamingChecker`], so a violation is known the moment the run ends
/// — no trace file, no replay pass. Memory stays bounded by checker
/// state, making this the right sink for million-signal scale runs where
/// retaining the trace would dwarf the fleet itself.
pub struct CheckingSink {
    inner: Mutex<StreamingChecker>,
}

impl CheckingSink {
    /// Creates a sink wrapping a fresh checker.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(StreamingChecker::new()),
        }
    }

    /// Events fed so far.
    pub fn events(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .events()
    }

    /// Consumes the sink and renders the final verdict.
    pub fn into_report(self) -> InvariantReport {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .finish()
    }
}

impl Default for CheckingSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for CheckingSink {
    fn record(&self, event: TraceEvent) {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .feed(&event);
    }

    fn flush(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, ControllerConfig};
    use crate::trace::RingSink;
    use std::sync::Arc;

    /// Drives a traced controller through a few rounds and returns the
    /// events.
    fn healthy_trace(dynamic: bool) -> Vec<TraceEvent> {
        let cfg = if dynamic {
            ControllerConfig::dynamic(6, 3)
        } else {
            ControllerConfig::constant(6, 3)
        };
        let sink = Arc::new(RingSink::new(4096));
        let mut c = Controller::with_sink(cfg, sink.clone());
        let mut iter = [0u64; 6];
        let mut free = [true; 6];
        for _ in 0..12 {
            for w in 0..6 {
                if free[w] {
                    iter[w] += 1;
                    c.push_ready(w, iter[w]);
                    free[w] = false;
                }
            }
            while let Some(d) = c.try_form_group() {
                for &m in &d.group {
                    free[m] = true;
                    if dynamic {
                        iter[m] = d.new_iteration;
                    }
                }
            }
        }
        sink.snapshot()
    }

    #[test]
    fn healthy_constant_trace_is_clean() {
        let events = healthy_trace(false);
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{report}");
        assert!(report.groups > 0);
    }

    #[test]
    fn healthy_dynamic_trace_is_clean() {
        let events = healthy_trace(true);
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn duplicate_member_is_caught() {
        let mut events = healthy_trace(false);
        for e in &mut events {
            if let TraceEvent::GroupFormed { members, .. } = e {
                members[1] = members[0];
                break;
            }
        }
        let report = InvariantChecker::check(&events);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("duplicate members")),
            "{report}"
        );
    }

    #[test]
    fn corrupted_weight_row_is_caught() {
        let mut events = healthy_trace(false);
        for e in &mut events {
            if let TraceEvent::GroupFormed { weights, .. } = e {
                weights[0] += 0.25;
                break;
            }
        }
        let report = InvariantChecker::check(&events);
        assert!(!report.is_clean(), "{report}");
    }

    #[test]
    fn iteration_regression_is_caught() {
        let mut events = healthy_trace(false);
        let mut seen: BTreeMap<usize, usize> = BTreeMap::new();
        // Set a worker's *second* signal below its first.
        let mut target = None;
        for (i, e) in events.iter().enumerate() {
            if let TraceEvent::SignalEnqueued { worker, .. } = e {
                if seen.contains_key(worker) {
                    target = Some(i);
                    break;
                }
                seen.insert(*worker, i);
            }
        }
        let i = target.expect("trace has repeat signals");
        if let TraceEvent::SignalEnqueued { iteration, .. } = &mut events[i] {
            *iteration = 0;
        }
        let report = InvariantChecker::check(&events);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("does not advance")),
            "{report}"
        );
    }

    #[test]
    fn bad_fast_forward_is_caught() {
        let mut events = healthy_trace(true);
        for e in &mut events {
            if let TraceEvent::GroupFormed { new_iteration, .. } = e {
                *new_iteration += 5;
                break;
            }
        }
        let report = InvariantChecker::check(&events);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("fast-forwards")),
            "{report}"
        );
    }

    #[test]
    fn missing_run_started_is_reported_once() {
        let mut events = healthy_trace(false);
        events.remove(0);
        let report = InvariantChecker::check(&events);
        assert_eq!(
            report
                .violations
                .iter()
                .filter(|v| v.message.contains("RunStarted"))
                .count(),
            1,
            "{report}"
        );
    }

    #[test]
    fn departed_member_in_group_is_caught() {
        let events = vec![
            TraceEvent::RunStarted {
                config: ControllerConfig::constant(4, 2),
            },
            TraceEvent::SignalEnqueued {
                worker: 0,
                iteration: 1,
                queued: 1,
            },
            TraceEvent::WorkerLeft {
                worker: 1,
                active: 3,
                purged_signal: false,
            },
            TraceEvent::SignalEnqueued {
                worker: 1,
                iteration: 1,
                queued: 2,
            },
            TraceEvent::GroupFormed {
                sequence: 0,
                members: vec![0, 1],
                iterations: vec![1, 1],
                weights: vec![0.5, 0.5],
                new_iteration: 1,
                repaired: false,
            },
        ];
        let report = InvariantChecker::check(&events);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("departed worker 1")),
            "{report}"
        );
    }

    /// A well-formed eviction narrative: silence, eviction with the
    /// post-eviction count, then the ordinary departure event.
    fn eviction_trace() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStarted {
                config: ControllerConfig::constant(4, 2),
            },
            TraceEvent::HeartbeatMissed {
                worker: 2,
                misses: 3,
            },
            TraceEvent::WorkerEvicted {
                worker: 2,
                active: 3,
            },
            TraceEvent::WorkerLeft {
                worker: 2,
                active: 3,
                purged_signal: false,
            },
        ]
    }

    #[test]
    fn justified_eviction_is_clean() {
        let report = InvariantChecker::check(&eviction_trace());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn fault_injection_justifies_eviction() {
        let mut events = eviction_trace();
        events[1] = TraceEvent::FaultInjected {
            worker: 2,
            fault: "crash@40".to_string(),
            iteration: 40,
        };
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn unjustified_eviction_is_caught() {
        let mut events = eviction_trace();
        events.remove(1); // drop the HeartbeatMissed
        let report = InvariantChecker::check(&events);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("without prior")),
            "{report}"
        );
    }

    #[test]
    fn eviction_active_count_mismatch_is_caught() {
        let mut events = eviction_trace();
        if let TraceEvent::WorkerEvicted { active, .. } = &mut events[2] {
            *active = 4; // pre-eviction count smuggled in
        }
        let report = InvariantChecker::check(&events);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("eviction reports 4 active")),
            "{report}"
        );
    }

    #[test]
    fn evicted_member_in_group_before_departure_is_caught() {
        let mut events = eviction_trace();
        events.pop(); // eviction never resolved by WorkerLeft
        events.extend([
            TraceEvent::SignalEnqueued {
                worker: 2,
                iteration: 1,
                queued: 1,
            },
            TraceEvent::SignalEnqueued {
                worker: 0,
                iteration: 1,
                queued: 2,
            },
            TraceEvent::GroupFormed {
                sequence: 0,
                members: vec![0, 2],
                iterations: vec![1, 1],
                weights: vec![0.5, 0.5],
                new_iteration: 1,
                repaired: false,
            },
        ]);
        let report = InvariantChecker::check(&events);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("evicted worker 2 appears")),
            "{report}"
        );
    }

    /// A well-formed process-fleet narrative: join, disconnect, eviction
    /// justified by the dropped connection, then ordinary departure.
    fn fleet_trace() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStarted {
                config: ControllerConfig::constant(4, 2),
            },
            TraceEvent::ProcessJoined {
                worker: 2,
                addr: "127.0.0.1:4242".to_string(),
            },
            TraceEvent::ProcessDisconnected { worker: 2 },
            TraceEvent::WorkerEvicted {
                worker: 2,
                active: 3,
            },
            TraceEvent::WorkerLeft {
                worker: 2,
                active: 3,
                purged_signal: false,
            },
        ]
    }

    #[test]
    fn disconnect_justifies_eviction() {
        let report = InvariantChecker::check(&fleet_trace());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn disconnect_without_join_is_caught() {
        let mut events = fleet_trace();
        events.remove(1); // drop the ProcessJoined
        let report = InvariantChecker::check(&events);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("never joined")),
            "{report}"
        );
    }

    #[test]
    fn duplicate_join_is_caught() {
        let mut events = fleet_trace();
        events.insert(
            2,
            TraceEvent::ProcessJoined {
                worker: 2,
                addr: "127.0.0.1:4243".to_string(),
            },
        );
        let report = InvariantChecker::check(&events);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("joined the fleet twice")),
            "{report}"
        );
    }

    #[test]
    fn disconnect_after_departure_is_caught() {
        let mut events = fleet_trace();
        events.push(TraceEvent::ProcessDisconnected { worker: 2 });
        let report = InvariantChecker::check(&events);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("after it already departed")),
            "{report}"
        );
    }

    #[test]
    fn out_of_range_join_is_caught() {
        let mut events = fleet_trace();
        events.insert(
            1,
            TraceEvent::ProcessJoined {
                worker: 9,
                addr: "127.0.0.1:9999".to_string(),
            },
        );
        let report = InvariantChecker::check(&events);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("out-of-range worker 9 joined")),
            "{report}"
        );
    }

    /// A well-formed elasticity narrative (DESIGN.md §14): snapshot,
    /// crash departure, restore from the snapshot, reshard, and the
    /// resumed signal one past the snapshot iteration.
    fn elastic_trace() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStarted {
                config: ControllerConfig::constant(4, 2),
            },
            TraceEvent::SnapshotTaken {
                worker: Some(2),
                iteration: 5,
            },
            TraceEvent::SnapshotTaken {
                worker: None,
                iteration: 0,
            },
            TraceEvent::FaultInjected {
                worker: 2,
                fault: "crash@8".to_string(),
                iteration: 8,
            },
            TraceEvent::WorkerEvicted {
                worker: 2,
                active: 3,
            },
            TraceEvent::WorkerLeft {
                worker: 2,
                active: 3,
                purged_signal: false,
            },
            TraceEvent::WorkerRestored {
                worker: 2,
                iteration: 5,
                active: 4,
            },
            TraceEvent::ShardsReassigned {
                moved: 3,
                total: 100,
            },
            TraceEvent::SignalEnqueued {
                worker: 2,
                iteration: 6,
                queued: 1,
            },
        ]
    }

    #[test]
    fn elastic_restore_narrative_is_clean() {
        let report = InvariantChecker::check(&elastic_trace());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn restore_rewinds_the_iteration_floor() {
        // The worker reported iteration 8 before crashing; resuming at 6
        // after a restore from the iteration-5 snapshot is legitimate
        // time-travel back to durable state.
        let events = vec![
            TraceEvent::RunStarted {
                config: ControllerConfig::constant(4, 2),
            },
            TraceEvent::SignalEnqueued {
                worker: 2,
                iteration: 8,
                queued: 1,
            },
            TraceEvent::SnapshotTaken {
                worker: Some(2),
                iteration: 5,
            },
            TraceEvent::FaultInjected {
                worker: 2,
                fault: "crash@8".to_string(),
                iteration: 8,
            },
            TraceEvent::WorkerLeft {
                worker: 2,
                active: 3,
                purged_signal: true,
            },
            TraceEvent::WorkerRestored {
                worker: 2,
                iteration: 5,
                active: 4,
            },
            TraceEvent::SignalEnqueued {
                worker: 2,
                iteration: 6,
                queued: 1,
            },
        ];
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn restored_worker_must_advance_past_the_snapshot() {
        let mut events = elastic_trace();
        let last = events.len() - 1;
        if let TraceEvent::SignalEnqueued { iteration, .. } = &mut events[last] {
            *iteration = 5; // stuck at the snapshot, not past it
        }
        let report = InvariantChecker::check(&events);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("does not advance")),
            "{report}"
        );
    }

    #[test]
    fn restore_without_departure_is_caught() {
        let events = vec![
            TraceEvent::RunStarted {
                config: ControllerConfig::constant(4, 2),
            },
            TraceEvent::WorkerRestored {
                worker: 1,
                iteration: 3,
                active: 5,
            },
        ];
        let report = InvariantChecker::check(&events);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("without having departed")),
            "{report}"
        );
    }

    #[test]
    fn restore_active_count_mismatch_is_caught() {
        let mut events = elastic_trace();
        for e in &mut events {
            if let TraceEvent::WorkerRestored { active, .. } = e {
                *active = 3; // pre-restore count smuggled in
            }
        }
        let report = InvariantChecker::check(&events);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("restore reports 3 active")),
            "{report}"
        );
    }

    #[test]
    fn snapshot_of_departed_worker_is_caught() {
        let mut events = elastic_trace();
        let restore_at = events
            .iter()
            .position(|e| matches!(e, TraceEvent::WorkerRestored { .. }))
            .unwrap();
        events.insert(
            restore_at,
            TraceEvent::SnapshotTaken {
                worker: Some(2),
                iteration: 8,
            },
        );
        let report = InvariantChecker::check(&events);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("snapshot taken of departed worker 2")),
            "{report}"
        );
    }

    #[test]
    fn excessive_reshard_churn_is_caught() {
        let mut events = elastic_trace();
        for e in &mut events {
            if let TraceEvent::ShardsReassigned { moved, .. } = e {
                *moved = 5; // exactly the 5% boundary — still too much
            }
        }
        let report = InvariantChecker::check(&events);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("gratuitous churn")),
            "{report}"
        );
    }

    #[test]
    fn counter_mismatch_at_run_finished_is_caught() {
        let mut events = healthy_trace(false);
        events.push(TraceEvent::RunFinished {
            groups_formed: 10_000,
            repairs: 0,
            deferrals: 0,
            singletons: 0,
        });
        let report = InvariantChecker::check(&events);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("groups_formed")),
            "{report}"
        );
    }

    /// Every golden trace this module builds, healthy and corrupted,
    /// used to pin streaming/batch/sink equivalence.
    fn golden_traces() -> Vec<(&'static str, Vec<TraceEvent>)> {
        let mut traces = vec![
            ("healthy_con", healthy_trace(false)),
            ("healthy_dyn", healthy_trace(true)),
            ("eviction", eviction_trace()),
            ("fleet", fleet_trace()),
            ("elastic", elastic_trace()),
        ];
        // Corrupted variants so equivalence also covers violation paths.
        let mut dup = healthy_trace(false);
        for e in &mut dup {
            if let TraceEvent::GroupFormed { members, .. } = e {
                members[1] = members[0];
                break;
            }
        }
        traces.push(("dup_member", dup));
        let mut churn = elastic_trace();
        for e in &mut churn {
            if let TraceEvent::ShardsReassigned { moved, .. } = e {
                *moved = 5;
            }
        }
        traces.push(("reshard_churn", churn));
        traces
    }

    #[test]
    fn streaming_feed_matches_batch_on_golden_traces() {
        for (name, events) in golden_traces() {
            let batch = InvariantChecker::check(&events);
            let mut streaming = StreamingChecker::new();
            for e in &events {
                streaming.feed(e);
            }
            assert_eq!(streaming.finish(), batch, "trace {name}");
        }
    }

    #[test]
    fn checking_sink_matches_batch_on_golden_traces() {
        for (name, events) in golden_traces() {
            let batch = InvariantChecker::check(&events);
            let sink = CheckingSink::new();
            for e in &events {
                sink.record(e.clone());
            }
            assert_eq!(sink.events(), events.len(), "trace {name}");
            assert_eq!(sink.into_report(), batch, "trace {name}");
        }
    }

    #[test]
    fn streaming_jsonl_matches_batch() {
        let events = healthy_trace(true);
        let batch = InvariantChecker::check(&events);
        let dir = std::env::temp_dir().join(format!(
            "preduce-inv-{}-{}",
            std::process::id(),
            events.len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("golden.jsonl");
        let mut body = String::new();
        for e in &events {
            body.push_str(&serde_json::to_string(e).unwrap());
            body.push('\n');
        }
        std::fs::write(&path, body).unwrap();
        let streamed = InvariantChecker::check_jsonl(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(streamed, batch);
    }

    /// A ready signal from a worker still inside an in-flight group is
    /// only a violation when the trace carries completions at all — the
    /// strict tag must make a single streaming pass reproduce the batch
    /// checker's old pre-scan semantics.
    #[test]
    fn inflight_signal_ignored_without_completions() {
        let mut events = healthy_trace(false);
        let pos = events
            .iter()
            .position(|e| matches!(e, TraceEvent::GroupFormed { .. }))
            .unwrap();
        let (member, consumed) = match &events[pos] {
            TraceEvent::GroupFormed { members, .. } => (members[0], members.len()),
            _ => unreachable!(),
        };
        let enqueued = events[..pos]
            .iter()
            .filter(|e| matches!(e, TraceEvent::SignalEnqueued { .. }))
            .count();
        events.truncate(pos + 1);
        events.push(TraceEvent::SignalEnqueued {
            worker: member,
            iteration: 1_000,
            queued: enqueued - consumed + 1,
        });
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn inflight_signal_caught_once_completions_appear() {
        let mut events = healthy_trace(false);
        let pos = events
            .iter()
            .position(|e| matches!(e, TraceEvent::GroupFormed { .. }))
            .unwrap();
        let (member, members, new_iteration) = match &events[pos] {
            TraceEvent::GroupFormed {
                members,
                new_iteration,
                ..
            } => (members[0], members.clone(), *new_iteration),
            _ => unreachable!(),
        };
        let enqueued = events[..pos]
            .iter()
            .filter(|e| matches!(e, TraceEvent::SignalEnqueued { .. }))
            .count();
        events.truncate(pos + 1);
        events.push(TraceEvent::SignalEnqueued {
            worker: member,
            iteration: 1_000,
            queued: enqueued - members.len() + 1,
        });
        // A completion anywhere in the stream — even after the offending
        // signal — retroactively enforces in-flight accounting.
        events.push(TraceEvent::ReduceCompleted {
            worker: member,
            members,
            new_iteration,
        });
        let report = InvariantChecker::check(&events);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains("still inside an in-flight group")),
            "{report}"
        );
        // And the streaming path agrees event for event.
        let mut streaming = StreamingChecker::new();
        for e in &events {
            streaming.feed(e);
        }
        assert_eq!(streaming.finish(), report);
    }

    /// A hand-written controller narrative over N = 4, P = 2 with a
    /// three-group window, so the `repaired` flag can be forged.
    struct Narrative {
        events: Vec<TraceEvent>,
        iteration: u64,
        sequence: u64,
    }

    impl Narrative {
        fn new() -> Self {
            Narrative {
                events: vec![TraceEvent::RunStarted {
                    config: ControllerConfig {
                        history_window: Some(3),
                        ..ControllerConfig::constant(4, 2)
                    },
                }],
                iteration: 0,
                sequence: 0,
            }
        }

        fn group(&mut self, members: [usize; 2], repaired: bool) {
            self.iteration += 1;
            for (k, &worker) in members.iter().enumerate() {
                self.events.push(TraceEvent::SignalEnqueued {
                    worker,
                    iteration: self.iteration,
                    queued: k + 1,
                });
            }
            self.events.push(TraceEvent::GroupFormed {
                sequence: self.sequence,
                members: members.to_vec(),
                iterations: vec![self.iteration; 2],
                weights: vec![0.5; 2],
                new_iteration: self.iteration,
                repaired,
            });
            self.sequence += 1;
        }

        fn violations(&self) -> Vec<String> {
            InvariantChecker::check(&self.events)
                .violations
                .into_iter()
                .map(|v| v.message)
                .collect()
        }
    }

    #[test]
    fn forged_repairs_are_caught_and_told_apart() {
        let mut story = Narrative::new();
        story.group([0, 1], true); // window not warm yet
        story.group([1, 2], false);
        story.group([2, 3], false); // warm, 0-1-2-3 connected
        story.group([0, 3], true); // nothing to repair
        story.group([0, 3], false); // window [2,3] [0,3] [0,3]: 1 is absent
        story.group([0, 2], true); // disconnected, but 0 and 2 share a component
        story.group([1, 2], true); // bridges the absent 1: a genuine repair
        let violations = story.violations();
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations[0].contains("group 0 repaired before the history window warmed up"));
        assert!(violations[1].contains("group 3 repaired an already-connected sync-graph"));
        assert!(violations[2].contains("repair group 5 does not bridge sync-graph components"));
    }

    #[test]
    fn repairs_are_judged_over_the_live_fleet() {
        let mut story = Narrative::new();
        story.group([0, 3], false);
        story.group([0, 1], false);
        story.group([1, 2], false);
        story.events.push(TraceEvent::WorkerLeft {
            worker: 3,
            active: 3,
            purged_signal: false,
        });
        // Window [0,1] [1,2] [0,1]: the departed 3 has rolled out and is
        // no vertex any more, so the survivors' graph is connected and a
        // "repair" among them repairs nothing.
        story.group([0, 1], false);
        story.group([0, 2], true);
        story.events.push(TraceEvent::WorkerRestored {
            worker: 3,
            iteration: 1,
            active: 4,
        });
        // Restored and in no retained group: an isolated live vertex.
        story.group([1, 2], true); // one component
        story.group([3, 0], true); // bridges
        let violations = story.violations();
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("group 4 repaired an already-connected sync-graph"));
        assert!(violations[1].contains("repair group 5 does not bridge sync-graph components"));

        // A departure event naming a rank outside the fleet must not
        // panic the replica.
        story.events.push(TraceEvent::WorkerLeft {
            worker: 9,
            active: 3,
            purged_signal: false,
        });
        story.group([1, 2], false);
        assert_eq!(story.violations().len(), 2);
    }
}
