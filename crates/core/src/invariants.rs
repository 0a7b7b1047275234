//! Trace-driven invariant checking for the P-Reduce control plane.
//!
//! The checker is **incremental**: [`StreamingChecker`] consumes one
//! [`TraceEvent`] at a time ([`StreamingChecker::feed`]) with
//! bounded-memory replay state — one record per worker, a windowed
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
//! * `new_iteration` is the group max, and per-worker reported iterations
//!   follow the mode's fast-forward rule (§3.3.3,
//!   [`AggregationMode::adopts_group_max`]). In DYN mode members adopt the
//!   group max, so a member's next report is strictly beyond it. In CON
//!   mode members keep their own count, so each report is exactly the
//!   previous one plus one — after a restore, the snapshot iteration plus
//!   one. A singleton for a signal that was never enqueued (it arrived
//!   while the fleet was below `P`) is that worker's report;
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
//!   iteration, since durable state may legitimately predate the crash;
//! * an eviction ([`TraceEvent::WorkerEvicted`]) is *justified*: the
//!   worker's control connection dropped
//!   ([`TraceEvent::ProcessDisconnected`]) first, or its latest
//!   [`TraceEvent::HeartbeatMissed`] reached the `miss_threshold` of the
//!   liveness policy [`TraceEvent::RunStarted`] carries. An injected fault
//!   justifies nothing: a stalled worker still beats, and a crashed one
//!   is evicted by its silence like any other. The eviction carries the
//!   post-eviction active count, and it is resolved by the worker's
//!   ordinary departure event — never by silently vanishing;
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
//!
//! # Ranks are outside input
//!
//! A trace file comes from outside the program, and per-worker state is
//! one table indexed by rank, sized once from [`TraceEvent::RunStarted`]'s
//! `N`. Every handler reaches a worker's record through one accessor that
//! applies the *start rule* (a trace that does not begin with `RunStarted`
//! is reported, once) and the *range rule* (a rank `≥ N` is reported as an
//! `out-of-range worker`; while `N` is unknown no rank has a record). A
//! rank that fails either rule is never tracked and never indexes
//! anything. This is the one deliberate change of verdict against the
//! checker that kept a map per fact: `SignalRejected`, `SingletonIssued`,
//! `HeartbeatMissed`, `ProcessDisconnected`, `WorkerEvicted`,
//! `ReduceCompleted` and `PendingDrained` never compared the rank with
//! `N`, and `WorkerLeft` only guarded its graph replica; all eight
//! silently tracked a phantom rank and now report it. Likewise nothing
//! narrated about a worker before `RunStarted` (a `FaultInjected`, say)
//! is carried into the run: every substrate narrates `RunStarted` first.

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

use crate::controller::{AggregationMode, ControllerConfig};
use crate::graph::WindowedConnectivity;
use crate::liveness::LivenessPolicy;
use crate::trace::{stream_jsonl, TraceEvent, TraceSink};
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
    /// ([`stream_jsonl`]) — the file is never materialized, so traces
    /// larger than RAM check fine. Parse failures abort with the
    /// offending line number.
    pub fn check_jsonl<P: AsRef<Path>>(path: P) -> io::Result<InvariantReport> {
        let mut checker = StreamingChecker::new();
        stream_jsonl(path, |event| checker.feed(&event))?;
        Ok(checker.finish())
    }
}

/// How many strict-only candidates a checker stores before its trace's
/// first [`TraceEvent::ReduceCompleted`]; later ones are only counted.
const STRICT_CANDIDATES_KEPT: usize = 16;

/// A violation recorded during streaming, tagged with whether it only
/// stands under strict in-flight accounting (see
/// [`StreamingChecker::finish`]).
struct PendingViolation {
    violation: Violation,
    strict_only: bool,
}

/// Everything the replay knows about one worker: 32 bytes, one per rank.
/// The flags from `departed` down describe one *life* of the rank — from
/// the fleet's start, or a restore, to the departure that ends it.
#[derive(Clone, Copy, Default)]
struct WorkerRecord {
    /// Iteration the queued ready signal reported (while `queued`, and
    /// while `drained`).
    signal: u64,
    /// The count the next report must pass (while `floored`; zero until
    /// then): the last report, raised to the adopted group max in DYN.
    floor: u64,
    /// Slot in `in_flight` of the unfinished group the worker sits in.
    group: Option<u32>,
    queued: bool,
    /// The queued signal was drained; its singleton releases it.
    drained: bool,
    floored: bool,
    /// Departed (left, crashed or evicted) and not restored since.
    departed: bool,
    /// The latest heartbeat silence reported reached the run's miss
    /// threshold (justifies eviction).
    silent: bool,
    /// The worker process completed the fleet handshake.
    joined: bool,
    /// The control connection dropped (justifies eviction).
    disconnected: bool,
    /// Evicted, the departure event still owed.
    evicted: bool,
}

/// A rank that passed the range rule: `in_range` alone mints one and
/// `rec` alone spends it, so no number read off the trace indexes the
/// table.
#[derive(Clone, Copy)]
struct Rank(usize);

/// One unfinished group: the member list as assigned, stored once, and
/// how many worker records still point at it.
#[derive(Default)]
struct InFlightGroup {
    members: Vec<usize>,
    holders: usize,
}

/// The incremental invariant checker: feed events one at a time, read
/// the verdict at the end.
///
/// State is bounded by the fleet, not the trace: one `WorkerRecord`
/// per rank (queue slot, floor, in-flight membership, lifecycle flags),
/// one stored member list per group in flight, a
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
/// On a controller-only trace every re-signal after a worker's first
/// group is such a candidate, so only the first
/// `STRICT_CANDIDATES_KEPT` are stored; the rest are counted, and the
/// first completion — if one comes — reports the count.
#[derive(Default)]
pub struct StreamingChecker {
    /// Events fed so far (also the index assigned to the next event).
    index: usize,
    /// Whether a [`TraceEvent::ReduceCompleted`] has been seen — flips
    /// strict in-flight accounting from "tracked" to "enforced".
    strict_inflight: bool,
    /// Strict-only candidates raised while `strict_inflight` was off; the
    /// first [`STRICT_CANDIDATES_KEPT`] of them are in `violations`.
    strict_candidates: usize,
    config: Option<ControllerConfig>,
    /// The mode that prescribes each group's weight row: `config`'s, once
    /// it passed [`ControllerConfig::check`].
    weight_rule: Option<AggregationMode>,
    /// The run's liveness policy, from [`TraceEvent::RunStarted`]; `None`
    /// when no detector watches the run, so no silence justifies an
    /// eviction.
    liveness: Option<LivenessPolicy>,
    /// The per-worker table, indexed by rank: allocated once, from
    /// [`TraceEvent::RunStarted`]'s `N`; empty until then, never resized.
    workers: Vec<WorkerRecord>,
    /// Records with `queued` set: the replayed queue depth.
    queued: usize,
    /// Unfinished groups, a slab recycled through `vacant` (member buffers
    /// included): as long as the most groups ever in flight at once.
    in_flight: Vec<InFlightGroup>,
    vacant: Vec<u32>,
    /// Replica of the controller's `T`-window sync-graph connectivity
    /// (the batch checker's rebuild-and-DFS is the semantic reference;
    /// this matches it exactly, property-tested).
    conn: Option<WindowedConnectivity>,
    expected_sequence: u64,
    /// Workers still participating (`N` at the start).
    active: usize,
    groups: u64,
    repairs: u64,
    deferrals: u64,
    singletons: u64,
    violations: Vec<PendingViolation>,
}

impl StreamingChecker {
    /// Creates a checker with no events fed.
    pub fn new() -> Self {
        Self::default()
    }

    fn fail(&mut self, index: usize, message: String) {
        self.violations.push(PendingViolation {
            violation: Violation { index, message },
            strict_only: false,
        });
    }

    /// Records a violation that only stands when the trace turns out to
    /// carry completions (strict in-flight accounting). Until a
    /// completion arrives these are candidates: a bounded number is kept,
    /// the rest counted — a controller-only trace raises one per
    /// re-signal and would otherwise grow this list with its length.
    fn fail_strict(&mut self, index: usize, message: fmt::Arguments<'_>) {
        if !self.strict_inflight {
            self.strict_candidates += 1;
            if self.strict_candidates > STRICT_CANDIDATES_KEPT {
                return;
            }
        }
        self.violations.push(PendingViolation {
            violation: Violation {
                index,
                message: message.to_string(),
            },
            strict_only: true,
        });
    }

    /// The range rule: the one place a rank is compared with `N`.
    fn in_range(&self, worker: usize) -> Option<Rank> {
        (worker < self.workers.len()).then_some(Rank(worker))
    }

    /// The one way from a rank read off the trace to that worker's
    /// record. `None` means the rank has no record and has been reported
    /// — by the start rule while `N` is unknown, otherwise here, as
    /// `out-of-range worker {worker} {did}`.
    fn rank(&mut self, index: usize, worker: usize, did: impl fmt::Display) -> Option<Rank> {
        let (rank, n) = (self.in_range(worker), self.workers.len());
        if rank.is_none() && self.config.is_some() {
            self.fail(
                index,
                format!("out-of-range worker {worker} {did} (N = {n})"),
            );
        }
        rank
    }

    fn rec(&mut self, rank: Rank) -> &mut WorkerRecord {
        &mut self.workers[rank.0]
    }

    /// Feeds one event into the state machine, recording any violations
    /// it exposes. Events are indexed in arrival order.
    ///
    /// The `match` names every [`TraceEvent`] variant and a wildcard arm
    /// is a lint error here (clippy names a wildcard standing for one
    /// variant with the second lint), so a new variant does not compile
    /// until it is checked.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn feed(&mut self, event: &TraceEvent) {
        let i = self.index;
        self.index += 1;
        // The start rule.
        if i == 0 && !matches!(event, TraceEvent::RunStarted { .. }) {
            self.fail(i, "trace does not begin with RunStarted".to_string());
        }
        match event {
            TraceEvent::RunStarted { config, liveness } => self.on_started(i, config, *liveness),
            TraceEvent::SignalEnqueued {
                worker,
                iteration,
                queued,
            } => self.on_enqueued(i, *worker, *iteration, *queued),
            TraceEvent::SignalRejected { worker, .. } => {
                if let Some(w) = self.rank(i, *worker, "had a signal rejected") {
                    if !self.rec(w).departed {
                        self.fail(
                            i,
                            format!(
                                "signal from worker {worker} rejected \
                                 though it never departed"
                            ),
                        );
                    }
                }
            }
            TraceEvent::GroupDeferred { queued, .. } => {
                self.deferrals += 1;
                if *queued != self.queued {
                    self.fail(
                        i,
                        format!(
                            "deferral reports {queued} queued signals, \
                             replay holds {}",
                            self.queued
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
            } => self.on_completed(i, *worker, members),
            TraceEvent::WorkerLeft {
                worker,
                active,
                purged_signal,
            } => self.on_left(i, *worker, *active, *purged_signal),
            TraceEvent::PendingDrained { signals } => {
                for &(worker, it) in signals {
                    let Some(w) = self.rank(i, worker, "had a signal drained") else {
                        continue;
                    };
                    let signal = self.take_signal(w);
                    self.rec(w).drained = signal.is_some();
                    match signal {
                        None => self.fail(
                            i,
                            format!(
                                "drained a signal for worker {worker} that \
                                 was not queued"
                            ),
                        ),
                        Some(q) if q != it => self.fail(
                            i,
                            format!(
                                "drained signal for worker {worker} carries \
                                 iteration {it}, queued was {q}"
                            ),
                        ),
                        Some(_) => {}
                    }
                }
            }
            TraceEvent::SingletonIssued { worker, iteration } => {
                self.singletons += 1;
                if let Some(w) = self.rank(i, *worker, "was issued a singleton") {
                    let rec = *self.rec(w);
                    if rec.departed {
                        self.fail(i, format!("singleton issued to departed worker {worker}"));
                    }
                    if rec.queued {
                        self.fail(
                            i,
                            format!(
                                "singleton issued to worker {worker} while \
                                 its signal is still queued"
                            ),
                        );
                    }
                    // A singleton releases the worker at its *own* reported
                    // iteration — no aggregation, no fast-forward. A drained
                    // signal was reported when it was enqueued; any other
                    // was never enqueued, and this is its report.
                    if std::mem::take(&mut self.rec(w).drained) {
                        if *iteration != rec.signal {
                            self.fail(
                                i,
                                format!(
                                    "singleton for worker {worker} releases \
                                     iteration {iteration}, its drained \
                                     signal carried {}",
                                    rec.signal
                                ),
                            );
                        }
                    } else {
                        self.report(i, w, *iteration);
                    }
                }
            }
            TraceEvent::FaultInjected { worker, .. } => {
                // A planned fault is narration only: it justifies no
                // eviction.
                let _ = self.rank(i, *worker, "had a fault injected");
            }
            TraceEvent::ProcessJoined { worker, .. } => {
                if let Some(w) = self.rank(i, *worker, "joined the fleet") {
                    if std::mem::replace(&mut self.rec(w).joined, true) {
                        self.fail(i, format!("worker {worker} joined the fleet twice"));
                    }
                }
            }
            TraceEvent::ProcessDisconnected { worker } => {
                if let Some(w) = self.rank(i, *worker, "disconnected") {
                    let rec = *self.rec(w);
                    if !rec.joined {
                        self.fail(
                            i,
                            format!(
                                "disconnect reported for worker {worker} \
                                 that never joined the fleet"
                            ),
                        );
                    }
                    if rec.departed {
                        self.fail(
                            i,
                            format!(
                                "disconnect reported for worker {worker} \
                                 after it already departed"
                            ),
                        );
                    }
                    if rec.disconnected {
                        self.fail(i, format!("worker {worker} disconnected twice"));
                    }
                    self.rec(w).disconnected = true;
                }
            }
            TraceEvent::HeartbeatMissed { worker, misses } => {
                if *misses == 0 {
                    self.fail(
                        i,
                        format!("worker {worker} reported with zero missed heartbeats"),
                    );
                }
                if let Some(w) = self.rank(i, *worker, "missed heartbeats") {
                    if self.rec(w).departed {
                        self.fail(
                            i,
                            format!(
                                "heartbeat silence reported for worker \
                                 {worker} after it already departed"
                            ),
                        );
                    }
                    let threshold = self.liveness.map(|p| p.miss_threshold());
                    self.rec(w).silent = threshold.is_some_and(|k| *misses >= k);
                }
            }
            TraceEvent::WorkerEvicted { worker, active } => self.on_evicted(i, *worker, *active),
            TraceEvent::SnapshotTaken { worker, .. } => {
                if let Some(w) = self.rank(i, *worker, "was snapshotted") {
                    if self.rec(w).departed {
                        self.fail(i, format!("snapshot taken of departed worker {worker}"));
                    }
                }
            }
            TraceEvent::WorkerRestored {
                worker,
                iteration,
                active,
            } => self.on_restored(i, *worker, *iteration, *active),
            TraceEvent::RunFinished {
                groups_formed,
                repairs,
                deferrals,
                singletons,
            } => {
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

    fn on_started(
        &mut self,
        index: usize,
        config: &ControllerConfig,
        liveness: Option<LivenessPolicy>,
    ) {
        if self.config.is_some() {
            self.fail(index, "duplicate RunStarted".to_string());
            return;
        }
        // A configuration or policy the controller would refuse builds no
        // replica window, prescribes no weight row, justifies no eviction.
        let n = config.num_workers;
        match config.check() {
            Ok(()) => {
                self.conn = Some(WindowedConnectivity::new(n, config.effective_window()));
                self.weight_rule = Some(config.mode);
            }
            Err(broken) => self.fail(index, format!("invalid configuration: {broken}")),
        }
        if let Some(Err(broken)) = liveness.map(|policy| policy.check()) {
            self.fail(index, format!("invalid liveness policy: {broken}"));
        }
        self.liveness = liveness.filter(|policy| policy.check().is_ok());
        self.workers = vec![WorkerRecord::default(); n];
        self.active = n;
        self.config = Some(config.clone());
    }

    /// Consumes `w`'s queued signal, if it has one, and returns the
    /// iteration it reported.
    fn take_signal(&mut self, w: Rank) -> Option<u64> {
        let rec = self.rec(w);
        let iteration = std::mem::take(&mut rec.queued).then_some(rec.signal)?;
        self.queued -= 1;
        Some(iteration)
    }

    /// Raises `w`'s floor to at least `iteration`.
    fn raise_floor(&mut self, w: Rank, iteration: u64) {
        let rec = self.rec(w);
        rec.floor = rec.floor.max(iteration);
        rec.floored = true;
    }

    /// The traced mode's fast-forward rule (§3.3.3).
    fn adopts_group_max(&self) -> bool {
        self.config
            .as_ref()
            .is_some_and(|c| c.mode.adopts_group_max())
    }

    /// One report of `w`'s count, checked against the mode's rule: it
    /// passes the floor in either mode, and in CON, where a member keeps
    /// its own count, it is exactly the floor plus one.
    fn report(&mut self, index: usize, w: Rank, iteration: u64) {
        let (worker, rec) = (w.0, *self.rec(w));
        let keeps_own = !self.adopts_group_max();
        if rec.floored && iteration <= rec.floor {
            self.fail(
                index,
                format!(
                    "worker {worker} signalled iteration {iteration} does \
                     not advance past {}",
                    rec.floor
                ),
            );
        } else if rec.floored && keeps_own && iteration != rec.floor + 1 {
            self.fail(
                index,
                format!(
                    "worker {worker} signalled iteration {iteration} in CON, \
                     not its own count {} plus one",
                    rec.floor
                ),
            );
        }
        self.raise_floor(w, iteration);
    }

    fn on_enqueued(&mut self, index: usize, worker: usize, iteration: u64, queued: usize) {
        let Some(w) = self.rank(index, worker, "signalled ready") else {
            return;
        };
        let rec = *self.rec(w);
        if rec.departed {
            self.fail(
                index,
                format!("signal from departed worker {worker} was enqueued"),
            );
        }
        if rec.group.is_some() {
            // Stands only under strict in-flight accounting — tagged, and
            // dropped at `finish` if the trace carries no completions.
            self.fail_strict(
                index,
                format_args!(
                    "worker {worker} signalled ready while still inside an \
                     in-flight group"
                ),
            );
        }
        self.report(index, w, iteration);
        if rec.queued {
            self.fail(
                index,
                format!("worker {worker} signalled ready twice without reducing"),
            );
        } else {
            self.queued += 1;
        }
        let rec = self.rec(w);
        rec.queued = true;
        rec.drained = false;
        rec.signal = iteration;
        if queued != self.queued {
            self.fail(
                index,
                format!(
                    "enqueue reports queue depth {queued}, replay holds {}",
                    self.queued
                ),
            );
        }
    }

    /// Stores `members` in a vacant slot of the in-flight slab (a new one
    /// if none is vacant), held by the caller until it calls `release`.
    fn open_group(&mut self, members: &[usize]) -> u32 {
        let slot = self.vacant.pop().unwrap_or_else(|| {
            self.in_flight.push(InFlightGroup::default());
            // Live slots never outnumber the records pointing at them, and
            // a table of 2³² records does not fit in memory.
            (self.in_flight.len() - 1) as u32
        });
        let group = &mut self.in_flight[slot as usize];
        group.members.clear();
        group.members.extend_from_slice(members);
        group.holders = 1;
        slot
    }

    /// One holder let go of `slot`; the last one out vacates it.
    fn release(&mut self, slot: u32) {
        let group = &mut self.in_flight[slot as usize];
        group.holders -= 1;
        if group.holders == 0 {
            self.vacant.push(slot);
        }
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "one parameter per `GroupFormed` field"
    )]
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
        self.expected_sequence = sequence.wrapping_add(1);

        // Exactly P distinct, in-range, still-active members.
        if let Some(group_size) = self.config.as_ref().map(|c| c.group_size) {
            if members.len() != group_size {
                self.fail(
                    index,
                    format!(
                        "group {sequence} has {} members, expected P = {group_size}",
                        members.len(),
                    ),
                );
            }
        }
        // Every member's record is pointed at this group's slot; one that
        // already points there is a repeat. A rank without a record cannot
        // be marked, so it is looked up among the members before it — a
        // cost only a group already in violation pays.
        let slot = self.open_group(members);
        let first_report = self.violations.len();
        let mut duplicate = false;
        for (k, &m) in members.iter().enumerate() {
            let Some(w) = self.rank(index, m, format_args!("appears in group {sequence}")) else {
                duplicate |= members[..k].contains(&m);
                continue;
            };
            let rec = *self.rec(w);
            if rec.departed {
                self.fail(
                    index,
                    format!("departed worker {m} appears in group {sequence}"),
                );
            }
            if rec.evicted {
                self.fail(
                    index,
                    format!(
                        "evicted worker {m} appears in group {sequence} \
                         before its departure was recorded"
                    ),
                );
            }
            if let Some(held) = rec.group {
                self.fail_strict(
                    index,
                    format_args!(
                        "worker {m} sits in two in-flight groups \
                         (second is {sequence})"
                    ),
                );
                if held == slot {
                    duplicate = true;
                    continue;
                }
                self.release(held);
            }
            self.rec(w).group = Some(slot);
            self.in_flight[slot as usize].holders += 1;
        }
        self.release(slot);
        if duplicate {
            self.fail(
                index,
                format!("group {sequence} has duplicate members {members:?}"),
            );
            // Ahead of the per-member reports it explains.
            self.violations[first_report..].rotate_right(1);
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
        let adopts = self.adopts_group_max();
        for (k, &m) in members.iter().enumerate() {
            let Some(w) = self.in_range(m) else {
                continue;
            };
            if adopts {
                // §3.3.3: members adopt the group max, so their next report
                // must move strictly beyond it.
                self.raise_floor(w, new_iteration);
            }
            let Some(&it) = iterations.get(k) else {
                continue;
            };
            match self.take_signal(w) {
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
        let expected = match self.weight_rule {
            Some(AggregationMode::Constant) if !weights.is_empty() => {
                crate::weights::constant_weights(weights.len())
            }
            Some(AggregationMode::Dynamic { alpha, gap_policy })
                if iterations.len() == weights.len() && !iterations.is_empty() =>
            {
                dynamic_weights(iterations, alpha, gap_policy)
            }
            _ => return,
        };
        for (i, (&got, &want)) in weights.iter().zip(expected.iter()).enumerate() {
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

    /// A repair must happen on a warm, disconnected sync-graph and bridge
    /// at least two of its components (§4). The window is replayed
    /// through a [`WindowedConnectivity`] and asked the filter's own
    /// question — do the members span two components? — which its
    /// membership table usually answers without consulting the forest;
    /// its components are exactly those of the batch rebuild-and-DFS
    /// (`GroupHistory::sync_graph(n).components()`), which remains the
    /// semantic reference the property tests compare against. Members
    /// that span two components prove the graph disconnected; only a
    /// repair that bridges nothing needs the second question, which of
    /// the two contracts it broke.
    fn check_repair(&mut self, index: usize, sequence: u64, members: &[usize], repaired: bool) {
        // Detached so violations can be filed while it is queried.
        let Some(mut conn) = self.conn.take() else {
            return;
        };
        if repaired {
            if !self.config.as_ref().is_some_and(|c| c.frozen_avoidance) {
                self.fail(
                    index,
                    format!(
                        "group {sequence} repaired with frozen avoidance \
                         disabled"
                    ),
                );
            }
            let recorded = |m: &usize| self.in_range(*m).is_some();
            if !conn.is_warm() {
                self.fail(
                    index,
                    format!(
                        "group {sequence} repaired before the history \
                         window warmed up"
                    ),
                );
            } else if !conn.spans_components(members.iter().copied().filter(recorded)) {
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
        if members.iter().all(|&m| self.in_range(m).is_some()) {
            conn.record(members);
        }
        self.conn = Some(conn);
    }

    /// An eviction must be justified (a dropped control connection, or
    /// silence up to the policy's miss threshold), must target a still-active
    /// worker, and must carry the post-eviction active count. The replayed
    /// `active` is *not* decremented here: the eviction routes through the
    /// ordinary departure path, so the worker's [`TraceEvent::WorkerLeft`]
    /// — carrying the same count — performs the decrement.
    fn on_evicted(&mut self, index: usize, worker: usize, active: usize) {
        let Some(w) = self.rank(index, worker, "was evicted") else {
            return;
        };
        let rec = *self.rec(w);
        if rec.departed {
            self.fail(
                index,
                format!("worker {worker} evicted after it already departed"),
            );
        }
        if rec.evicted {
            self.fail(index, format!("worker {worker} evicted twice"));
        }
        self.rec(w).evicted = true;
        if !rec.silent && !rec.disconnected {
            let silence = match self.liveness {
                Some(policy) => format!("{} missed heartbeats", policy.miss_threshold()),
                None => "a liveness policy".to_string(),
            };
            self.fail(
                index,
                format!("worker {worker} evicted without prior ProcessDisconnected or {silence}"),
            );
        }
        if self.active == 0 {
            self.fail(index, "more evictions than active workers".to_string());
        } else if active != self.active - 1 {
            self.fail(
                index,
                format!(
                    "eviction reports {active} active workers, \
                     replay expects {}",
                    self.active - 1
                ),
            );
        }
    }

    /// A restore must target a rank that actually departed, must carry
    /// the post-restore active count, and resets the worker's iteration
    /// floor to the snapshot iteration: durable state may predate the
    /// crash, so resuming *below* the last pre-crash report is
    /// legitimate — but the next report must still move past the
    /// snapshot (DESIGN.md §14).
    fn on_restored(&mut self, index: usize, worker: usize, iteration: u64, active: usize) {
        let Some(w) = self.rank(index, worker, "was restored") else {
            return;
        };
        let rec = self.rec(w);
        if !rec.departed {
            self.fail(
                index,
                format!("worker {worker} restored without having departed"),
            );
            return;
        }
        // A fresh life from the snapshot's floor: a later eviction needs
        // fresh justification, and the old control connection died with
        // the departure. What the fleet still holds of the old life — a
        // queued signal, an unfinished group — is not the restore's to
        // settle.
        *rec = WorkerRecord {
            floor: iteration,
            floored: true,
            signal: rec.signal,
            queued: rec.queued,
            group: rec.group,
            ..WorkerRecord::default()
        };
        if let Some(conn) = self.conn.as_mut() {
            conn.set_departed(worker, false);
        }
        if self.active == self.workers.len() {
            self.fail(index, "more restores than fleet capacity".to_string());
            return;
        }
        self.active += 1;
        if active != self.active {
            self.fail(
                index,
                format!(
                    "restore reports {active} active workers, \
                     replay counted {}",
                    self.active
                ),
            );
        }
    }

    fn on_left(&mut self, index: usize, worker: usize, active: usize, purged_signal: bool) {
        let Some(w) = self.rank(index, worker, "left") else {
            return;
        };
        let rec = self.rec(w);
        rec.evicted = false;
        if std::mem::replace(&mut rec.departed, true) {
            self.fail(index, format!("worker {worker} left twice"));
        }
        // The replica judges connectivity over the live fleet, as the
        // controller's own structure does.
        if let Some(conn) = self.conn.as_mut() {
            conn.set_departed(worker, true);
        }
        // The controller purges the departing worker's queued signal — the
        // event must agree with the replayed queue.
        let had_signal = self.take_signal(w).is_some();
        if had_signal != purged_signal {
            self.fail(
                index,
                format!(
                    "departure of worker {worker} reports purged_signal = \
                     {purged_signal}, replayed queue says {had_signal}"
                ),
            );
        }
        if self.active == 0 {
            self.fail(index, "more departures than workers".to_string());
            return;
        }
        self.active -= 1;
        if active != self.active {
            self.fail(
                index,
                format!(
                    "departure reports {active} active workers, \
                     replay counted {}",
                    self.active
                ),
            );
        }
    }

    fn on_completed(&mut self, index: usize, worker: usize, members: &[usize]) {
        // The trace carries completions: in-flight accounting is enforced
        // (tracked-but-tagged violations from earlier events stand — see
        // `finish`), and the candidates that were only counted are owned
        // up to, once.
        if !std::mem::replace(&mut self.strict_inflight, true) {
            let dropped = self
                .strict_candidates
                .saturating_sub(STRICT_CANDIDATES_KEPT);
            if dropped > 0 {
                self.fail(
                    index,
                    format!(
                        "{dropped} more in-flight violation(s) before this first \
                         ReduceCompleted were counted, not kept"
                    ),
                );
            }
        }
        let Some(w) = self.rank(index, worker, "completed a reduce") else {
            return;
        };
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
        let Some(slot) = self.rec(w).group.take() else {
            self.fail(
                index,
                format!(
                    "worker {worker} completed a reduce without an \
                     in-flight group"
                ),
            );
            return;
        };
        let assigned = &self.in_flight[slot as usize].members;
        if assigned != members {
            let message = format!(
                "worker {worker} completed group {members:?} but was \
                 assigned {assigned:?}"
            );
            self.fail(index, message);
        }
        self.release(slot);
    }
}

/// A [`TraceSink`] that checks invariants *live*: every event recorded by
/// the controller (or any other emitter) is fed straight into a
/// [`StreamingChecker`], so a violation is known the moment the run ends
/// — no trace file, no replay pass. Memory stays bounded by checker
/// state, making this the right sink for million-signal scale runs where
/// retaining the trace would dwarf the fleet itself.
#[derive(Default)]
pub struct CheckingSink {
    inner: Mutex<StreamingChecker>,
}

impl CheckingSink {
    /// Creates a sink wrapping a fresh checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every update leaves the checker valid, so a poisoned lock is
    /// recovered: sinks are best-effort by contract.
    fn checker(&self) -> MutexGuard<'_, StreamingChecker> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Events fed so far.
    pub fn events(&self) -> usize {
        self.checker().index
    }

    /// Takes the verdict on everything recorded so far, leaving a fresh
    /// checker behind: a sink that emitters still share can be asked.
    pub fn take_report(&self) -> InvariantReport {
        std::mem::take(&mut *self.checker()).finish()
    }
}

impl TraceSink for CheckingSink {
    fn record(&self, event: TraceEvent) {
        self.checker().feed(&event);
    }
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

    fn healthy_con() -> Vec<TraceEvent> {
        healthy_trace(false)
    }

    fn healthy_dyn() -> Vec<TraceEvent> {
        healthy_trace(true)
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

    /// Nothing but the start of an N = 4, P = 2 CON run no detector
    /// watches.
    fn bare_trace() -> Vec<TraceEvent> {
        vec![TraceEvent::RunStarted {
            config: ControllerConfig::constant(4, 2),
            liveness: None,
        }]
    }

    /// [`bare_trace`] watched by a detector that evicts at three misses.
    fn watched_trace() -> Vec<TraceEvent> {
        vec![TraceEvent::RunStarted {
            config: ControllerConfig::constant(4, 2),
            liveness: Some(LivenessPolicy::new(std::time::Duration::from_millis(25), 3)),
        }]
    }

    fn enqueued(worker: usize, iteration: u64, queued: usize) -> TraceEvent {
        TraceEvent::SignalEnqueued {
            worker,
            iteration,
            queued,
        }
    }

    fn left(worker: usize, active: usize, purged_signal: bool) -> TraceEvent {
        TraceEvent::WorkerLeft {
            worker,
            active,
            purged_signal,
        }
    }

    /// A CON pair at iteration 1, sequence 0.
    fn pair(members: [usize; 2]) -> TraceEvent {
        TraceEvent::GroupFormed {
            sequence: 0,
            members: members.to_vec(),
            iterations: vec![1, 1],
            weights: vec![0.5, 0.5],
            new_iteration: 1,
            repaired: false,
        }
    }

    /// A well-formed eviction narrative: silence up to the threshold,
    /// eviction with the post-eviction count, then the ordinary departure
    /// event.
    fn eviction_trace() -> Vec<TraceEvent> {
        let mut events = watched_trace();
        events.extend([
            TraceEvent::HeartbeatMissed {
                worker: 2,
                misses: 3,
            },
            TraceEvent::WorkerEvicted {
                worker: 2,
                active: 3,
            },
            left(2, 3, false),
        ]);
        events
    }

    /// A well-formed process-fleet narrative: join, disconnect, eviction
    /// justified by the dropped connection, then ordinary departure.
    fn fleet_trace() -> Vec<TraceEvent> {
        let mut events = bare_trace();
        events.extend([
            TraceEvent::ProcessJoined {
                worker: 2,
                addr: "127.0.0.1:4242".to_string(),
            },
            TraceEvent::ProcessDisconnected { worker: 2 },
            TraceEvent::WorkerEvicted {
                worker: 2,
                active: 3,
            },
            left(2, 3, false),
        ]);
        events
    }

    /// A well-formed elasticity narrative (DESIGN.md §14): snapshot,
    /// crash, eviction by silence, restore from the snapshot, and the
    /// resumed signal one past the snapshot iteration.
    fn elastic_trace() -> Vec<TraceEvent> {
        let mut events = watched_trace();
        events.extend([
            TraceEvent::SnapshotTaken {
                worker: 2,
                iteration: 5,
            },
            TraceEvent::FaultInjected {
                worker: 2,
                fault: "crash@8".to_string(),
                iteration: 8,
            },
            TraceEvent::HeartbeatMissed {
                worker: 2,
                misses: 3,
            },
            TraceEvent::WorkerEvicted {
                worker: 2,
                active: 3,
            },
            left(2, 3, false),
            TraceEvent::WorkerRestored {
                worker: 2,
                iteration: 5,
                active: 4,
            },
            enqueued(2, 6, 1),
        ]);
        events
    }

    /// Workers 0 and 1 of a CON fleet report 1 and 3 and are grouped.
    fn con_group_at_1_and_3() -> Vec<TraceEvent> {
        let mut events = bare_trace();
        events.extend([
            enqueued(0, 1, 1),
            enqueued(1, 3, 2),
            TraceEvent::GroupFormed {
                sequence: 0,
                members: vec![0, 1],
                iterations: vec![1, 3],
                weights: vec![0.5, 0.5],
                new_iteration: 3,
                repaired: false,
            },
        ]);
        events
    }

    /// Worker 0's signal at 1 is drained and released by its singleton;
    /// the worker then reports `next` while the fleet is below P, which a
    /// singleton answers without enqueueing it.
    fn drain_singletons(next: u64) -> [TraceEvent; 4] {
        [
            enqueued(0, 1, 1),
            TraceEvent::PendingDrained {
                signals: vec![(0, 1)],
            },
            TraceEvent::SingletonIssued {
                worker: 0,
                iteration: 1,
            },
            TraceEvent::SingletonIssued {
                worker: 0,
                iteration: next,
            },
        ]
    }

    fn first_group(events: &mut [TraceEvent]) -> &mut TraceEvent {
        events
            .iter_mut()
            .find(|e| matches!(e, TraceEvent::GroupFormed { .. }))
            .expect("trace forms a group")
    }

    /// The `RunStarted` at the head of `events`, to be forged.
    fn started(events: &mut [TraceEvent]) -> (&mut ControllerConfig, &mut Option<LivenessPolicy>) {
        match events.first_mut() {
            Some(TraceEvent::RunStarted { config, liveness }) => (config, liveness),
            _ => panic!("trace does not begin with RunStarted"),
        }
    }

    fn duplicate_first_member(events: &mut [TraceEvent]) {
        if let TraceEvent::GroupFormed { members, .. } = first_group(events) {
            members[1] = members[0];
        }
    }

    /// One forgery: its name, a well-formed trace, the edit applied to it,
    /// and a fragment of the one message the checker must answer with
    /// (`None`: the edited trace is still well-formed and must stay
    /// clean).
    type Forgery = (
        &'static str,
        fn() -> Vec<TraceEvent>,
        fn(&mut Vec<TraceEvent>),
        Option<&'static str>,
    );

    const FORGERIES: &[Forgery] = &[
        (
            "an_oversized_group_is_named",
            healthy_con,
            |events| started(events).0.group_size = 7,
            Some("invalid configuration: group size 7 exceeds cluster size 6"),
        ),
        (
            "a_zero_window_is_named",
            healthy_con,
            |events| started(events).0.history_window = Some(0),
            Some("invalid configuration: history window must be positive"),
        ),
        (
            // The weight check is skipped, not run on an α it cannot use.
            "an_alpha_outside_the_unit_interval_is_named",
            healthy_dyn,
            |events| {
                started(events).0.mode = AggregationMode::Dynamic {
                    alpha: 1.5,
                    gap_policy: crate::weights::GapPolicy::Initial,
                }
            },
            Some("invalid configuration: EMA decay must lie in (0, 1), got 1.5"),
        ),
        (
            "a_zero_miss_threshold_is_named",
            watched_trace,
            |events| {
                *started(events).1 =
                    serde_json::from_str(r#"{"interval_us":25000,"miss_threshold":0}"#).ok();
            },
            Some("invalid liveness policy: miss threshold must be at least 1"),
        ),
        (
            "duplicate_member_is_caught",
            healthy_con,
            |events| duplicate_first_member(events),
            Some("duplicate members"),
        ),
        (
            "corrupted_weight_row_is_caught",
            healthy_con,
            |events| {
                if let TraceEvent::GroupFormed { weights, .. } = first_group(events) {
                    weights[0] += 0.25;
                }
            },
            Some("weights sum to"),
        ),
        (
            "iteration_regression_is_caught",
            healthy_con,
            |events| {
                // Set a worker's *second* signal below its first.
                let mut seen = Vec::new();
                for e in events {
                    if let TraceEvent::SignalEnqueued {
                        worker, iteration, ..
                    } = e
                    {
                        if seen.contains(worker) {
                            *iteration = 0;
                            return;
                        }
                        seen.push(*worker);
                    }
                }
                panic!("trace has no repeat signals");
            },
            Some("does not advance"),
        ),
        (
            // Worker 0 reports 1 and is grouped with worker 1 at 3. A CON
            // member keeps its own count, so its next report is 2; lifted
            // to the group max it would report 4.
            "lifted_con_count_is_caught",
            con_group_at_1_and_3,
            |events| events.push(enqueued(0, 4, 1)),
            Some("in CON, not its own count 1 plus one"),
        ),
        (
            "con_member_keeps_its_own_count",
            con_group_at_1_and_3,
            |events| events.push(enqueued(0, 2, 1)),
            None,
        ),
        (
            // A drained signal's singleton releases the report it
            // carried; a signal that arrives while the fleet is below P is
            // never enqueued, and its singleton is the next report.
            "drain_singletons_keep_the_con_count",
            bare_trace,
            |events| events.extend(drain_singletons(2)),
            None,
        ),
        (
            "a_drained_signal_is_released_at_its_own_iteration",
            bare_trace,
            |events| {
                let mut story = drain_singletons(2);
                if let TraceEvent::SingletonIssued { iteration, .. } = &mut story[2] {
                    *iteration = 7;
                }
                events.extend(story);
            },
            Some("releases iteration 7, its drained signal carried 1"),
        ),
        (
            "a_never_enqueued_singleton_must_count_on",
            bare_trace,
            |events| events.extend(drain_singletons(3)),
            Some("worker 0 signalled iteration 3 in CON"),
        ),
        (
            "bad_fast_forward_is_caught",
            healthy_dyn,
            |events| {
                if let TraceEvent::GroupFormed { new_iteration, .. } = first_group(events) {
                    *new_iteration += 5;
                }
            },
            Some("fast-forwards"),
        ),
        (
            "departed_member_in_group_is_caught",
            bare_trace,
            |events| {
                events.extend([
                    enqueued(0, 1, 1),
                    left(1, 3, false),
                    enqueued(1, 1, 2),
                    pair([0, 1]),
                ])
            },
            Some("departed worker 1"),
        ),
        ("justified_eviction_is_clean", eviction_trace, |_| {}, None),
        (
            // A stalled worker still beats: its fault is no silence.
            "a_stall_justifies_no_eviction",
            eviction_trace,
            |events| {
                events[1] = TraceEvent::FaultInjected {
                    worker: 2,
                    fault: "stall x4 from 10".to_string(),
                    iteration: 10,
                }
            },
            Some("worker 2 evicted without prior ProcessDisconnected or 3 missed heartbeats"),
        ),
        (
            "silence_short_of_the_threshold_justifies_no_eviction",
            eviction_trace,
            |events| {
                events[1] = TraceEvent::HeartbeatMissed {
                    worker: 2,
                    misses: 2,
                }
            },
            Some("without prior ProcessDisconnected or 3 missed heartbeats"),
        ),
        (
            // The worker was heard again after its third miss: only the
            // latest count stands.
            "a_count_that_restarted_justifies_no_eviction",
            eviction_trace,
            |events| {
                events.insert(
                    2,
                    TraceEvent::HeartbeatMissed {
                        worker: 2,
                        misses: 1,
                    },
                )
            },
            Some("without prior ProcessDisconnected or 3 missed heartbeats"),
        ),
        (
            "silence_in_an_unwatched_run_justifies_no_eviction",
            eviction_trace,
            |events| events[0] = bare_trace().remove(0),
            Some("without prior ProcessDisconnected or a liveness policy"),
        ),
        (
            "unjustified_eviction_is_caught",
            eviction_trace,
            |events| {
                events.remove(1); // drop the HeartbeatMissed
            },
            Some("without prior"),
        ),
        (
            "eviction_active_count_mismatch_is_caught",
            eviction_trace,
            |events| {
                if let TraceEvent::WorkerEvicted { active, .. } = &mut events[2] {
                    *active = 4; // pre-eviction count smuggled in
                }
            },
            Some("eviction reports 4 active"),
        ),
        (
            "evicted_member_in_group_before_departure_is_caught",
            eviction_trace,
            |events| {
                events.pop(); // eviction never resolved by WorkerLeft
                events.extend([enqueued(2, 1, 1), enqueued(0, 1, 2), pair([0, 2])]);
            },
            Some("evicted worker 2 appears"),
        ),
        ("disconnect_justifies_eviction", fleet_trace, |_| {}, None),
        (
            "disconnect_without_join_is_caught",
            fleet_trace,
            |events| {
                events.remove(1); // drop the ProcessJoined
            },
            Some("never joined"),
        ),
        (
            "duplicate_join_is_caught",
            fleet_trace,
            |events| {
                events.insert(
                    2,
                    TraceEvent::ProcessJoined {
                        worker: 2,
                        addr: "127.0.0.1:4243".to_string(),
                    },
                )
            },
            Some("joined the fleet twice"),
        ),
        (
            "disconnect_after_departure_is_caught",
            fleet_trace,
            |events| events.push(TraceEvent::ProcessDisconnected { worker: 2 }),
            Some("after it already departed"),
        ),
        (
            "out_of_range_join_is_caught",
            fleet_trace,
            |events| {
                events.insert(
                    1,
                    TraceEvent::ProcessJoined {
                        worker: 9,
                        addr: "127.0.0.1:9999".to_string(),
                    },
                )
            },
            Some("out-of-range worker 9 joined"),
        ),
        (
            "elastic_restore_narrative_is_clean",
            elastic_trace,
            |_| {},
            None,
        ),
        (
            // The worker reported iteration 8 before crashing; resuming at
            // 6 after a restore from the iteration-5 snapshot is
            // legitimate time-travel back to durable state.
            "restore_rewinds_the_iteration_floor",
            bare_trace,
            |events| {
                events.extend([
                    enqueued(2, 8, 1),
                    TraceEvent::SnapshotTaken {
                        worker: 2,
                        iteration: 5,
                    },
                    TraceEvent::FaultInjected {
                        worker: 2,
                        fault: "crash@8".to_string(),
                        iteration: 8,
                    },
                    left(2, 3, true),
                    TraceEvent::WorkerRestored {
                        worker: 2,
                        iteration: 5,
                        active: 4,
                    },
                    enqueued(2, 6, 1),
                ])
            },
            None,
        ),
        (
            "restored_worker_must_advance_past_the_snapshot",
            elastic_trace,
            |events| {
                if let Some(TraceEvent::SignalEnqueued { iteration, .. }) = events.last_mut() {
                    *iteration = 5; // stuck at the snapshot, not past it
                }
            },
            Some("does not advance"),
        ),
        (
            "restore_without_departure_is_caught",
            bare_trace,
            |events| {
                events.push(TraceEvent::WorkerRestored {
                    worker: 1,
                    iteration: 3,
                    active: 5,
                })
            },
            Some("without having departed"),
        ),
        (
            "restore_active_count_mismatch_is_caught",
            elastic_trace,
            |events| {
                for e in events {
                    if let TraceEvent::WorkerRestored { active, .. } = e {
                        *active = 3; // pre-restore count smuggled in
                    }
                }
            },
            Some("restore reports 3 active"),
        ),
        (
            "snapshot_of_departed_worker_is_caught",
            elastic_trace,
            |events| {
                let restore_at = events
                    .iter()
                    .position(|e| matches!(e, TraceEvent::WorkerRestored { .. }))
                    .unwrap();
                events.insert(
                    restore_at,
                    TraceEvent::SnapshotTaken {
                        worker: 2,
                        iteration: 8,
                    },
                );
            },
            Some("snapshot taken of departed worker 2"),
        ),
        (
            "counter_mismatch_at_run_finished_is_caught",
            healthy_con,
            |events| {
                events.push(TraceEvent::RunFinished {
                    groups_formed: 10_000,
                    repairs: 0,
                    deferrals: 0,
                    singletons: 0,
                })
            },
            Some("groups_formed"),
        ),
        // The range rule, one row per handler that used to track a
        // phantom rank silently.
        (
            "out_of_range_rejection_is_caught",
            bare_trace,
            |events| {
                events.push(TraceEvent::SignalRejected {
                    worker: 4,
                    iteration: 1,
                })
            },
            Some("out-of-range worker 4 had a signal rejected (N = 4)"),
        ),
        (
            "out_of_range_singleton_is_caught",
            bare_trace,
            |events| {
                events.push(TraceEvent::SingletonIssued {
                    worker: 7,
                    iteration: 1,
                })
            },
            Some("out-of-range worker 7 was issued a singleton"),
        ),
        (
            "out_of_range_heartbeat_miss_is_caught",
            bare_trace,
            |events| {
                events.push(TraceEvent::HeartbeatMissed {
                    worker: 4,
                    misses: 1,
                })
            },
            Some("out-of-range worker 4 missed heartbeats"),
        ),
        (
            "out_of_range_disconnect_is_caught",
            bare_trace,
            |events| events.push(TraceEvent::ProcessDisconnected { worker: usize::MAX }),
            Some("out-of-range worker 18446744073709551615 disconnected"),
        ),
        (
            "out_of_range_eviction_is_caught",
            bare_trace,
            |events| {
                events.push(TraceEvent::WorkerEvicted {
                    worker: 5,
                    active: 3,
                })
            },
            Some("out-of-range worker 5 was evicted"),
        ),
        (
            "out_of_range_completion_is_caught",
            bare_trace,
            |events| {
                events.push(TraceEvent::ReduceCompleted {
                    worker: 6,
                    members: vec![6],
                    new_iteration: 1,
                })
            },
            Some("out-of-range worker 6 completed a reduce"),
        ),
        (
            "out_of_range_drain_is_caught",
            bare_trace,
            |events| {
                events.push(TraceEvent::PendingDrained {
                    signals: vec![(4, 1)],
                })
            },
            Some("out-of-range worker 4 had a signal drained"),
        ),
        (
            "out_of_range_departure_is_caught",
            bare_trace,
            |events| events.push(left(9, 3, false)),
            Some("out-of-range worker 9 left"),
        ),
    ];

    #[test]
    fn forged_traces_draw_the_expected_message() {
        for &(name, base, forge, expected) in FORGERIES {
            let mut events = base();
            forge(&mut events);
            let report = InvariantChecker::check(&events);
            match expected {
                None => assert!(report.is_clean(), "row {name}: {report}"),
                Some(fragment) => assert!(
                    report
                        .violations
                        .iter()
                        .any(|v| v.message.contains(fragment)),
                    "row {name}: no message contains {fragment:?} in {report}"
                ),
            }
        }
    }

    #[test]
    fn a_trace_from_before_the_liveness_field_reads_and_binds_evictions() {
        // `RunStarted` as traces carried it before it named the policy.
        const OLD_START: &str = r#"{"RunStarted":{"config":{"num_workers":4,"group_size":2,"mode":"Constant","history_window":null,"frozen_avoidance":true}}}"#;
        let dir = std::env::temp_dir().join(format!("preduce-old-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.jsonl");
        for (base, expected) in [
            (fleet_trace(), None),
            (
                eviction_trace(),
                Some("without prior ProcessDisconnected or a liveness policy"),
            ),
        ] {
            let mut body = format!("{OLD_START}\n");
            for e in &base[1..] {
                body.push_str(&serde_json::to_string(e).unwrap());
                body.push('\n');
            }
            std::fs::write(&path, body).unwrap();
            let events = crate::trace::read_jsonl(&path).unwrap();
            assert_eq!(events[0], bare_trace()[0]);
            let report = InvariantChecker::check(&events);
            match expected {
                None => assert!(report.is_clean(), "{report}"),
                Some(fragment) => assert!(
                    report
                        .violations
                        .iter()
                        .any(|v| v.message.contains(fragment)),
                    "{report}"
                ),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_record_fits_thirty_two_bytes() {
        // `peak_heap_mb` on the scale workloads is N of these.
        assert!(std::mem::size_of::<WorkerRecord>() <= 32);
    }

    #[test]
    fn in_flight_slots_are_recycled_without_completions() {
        // A controller-only trace never completes a group: every new group
        // displaces its members' previous one, and a slot with no holder
        // left is reused — the slab stays bounded by the fleet, not the
        // trace.
        let mut checker = StreamingChecker::new();
        for e in &healthy_trace(false) {
            checker.feed(e);
        }
        assert!(checker.groups > 6);
        assert!(checker.in_flight.len() <= 6, "{}", checker.in_flight.len());
        assert!(checker.finish().is_clean());
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
        duplicate_first_member(&mut dup);
        traces.push(("dup_member", dup));
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
            assert_eq!(sink.take_report(), batch, "trace {name}");
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
        let (member, consumed, next) = match &events[pos] {
            TraceEvent::GroupFormed {
                members,
                iterations,
                ..
            } => (members[0], members.len(), iterations[0] + 1),
            _ => unreachable!(),
        };
        let enqueued = events[..pos]
            .iter()
            .filter(|e| matches!(e, TraceEvent::SignalEnqueued { .. }))
            .count();
        events.truncate(pos + 1);
        events.push(TraceEvent::SignalEnqueued {
            worker: member,
            iteration: next,
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
            iteration: new_iteration + 1,
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
    /// three-group window, so the `repaired` flag can be forged. Each
    /// worker counts its own updates, as a CON member does.
    struct Narrative {
        events: Vec<TraceEvent>,
        counts: [u64; 4],
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
                    liveness: None,
                }],
                counts: [0; 4],
                sequence: 0,
            }
        }

        fn group(&mut self, members: [usize; 2], repaired: bool) {
            let iterations = members.map(|worker| {
                self.counts[worker] += 1;
                self.counts[worker]
            });
            for (k, (&worker, &iteration)) in members.iter().zip(&iterations).enumerate() {
                self.events.push(TraceEvent::SignalEnqueued {
                    worker,
                    iteration,
                    queued: k + 1,
                });
            }
            self.events.push(TraceEvent::GroupFormed {
                sequence: self.sequence,
                members: members.to_vec(),
                iterations: iterations.to_vec(),
                weights: vec![0.5; 2],
                new_iteration: iterations[0].max(iterations[1]),
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

    /// On a controller-only trace every re-signal after a
    /// worker's first group is a strict-only candidate. The list that
    /// holds them must not grow with the trace, and a completion that
    /// turns strictness on late must still own up to all of them.
    #[test]
    fn strict_candidates_are_bounded_on_controller_only_traces() {
        const GROUPS: usize = 25_010;
        // [0,1] raises nothing, [1,2] and [2,3] one re-signal plus one
        // "two groups" each, every later group two plus two.
        const RESIGNALS: usize = 2 + 2 * (GROUPS - 3);
        const CANDIDATES: usize = 2 * RESIGNALS;
        const _: () = assert!(RESIGNALS >= 50_000);

        let replay = |completed: bool| {
            let mut story = Narrative::new();
            let mut checker = StreamingChecker::new();
            for g in 0..GROUPS {
                // A ring of pairs keeps the three-group window connected.
                story.group([g % 4, (g + 1) % 4], false);
                for event in story.events.drain(..) {
                    checker.feed(&event);
                }
                assert!(checker.violations.len() <= STRICT_CANDIDATES_KEPT);
            }
            assert_eq!(checker.strict_candidates, CANDIDATES);
            if completed {
                checker.feed(&TraceEvent::ReduceCompleted {
                    worker: GROUPS % 4,
                    members: vec![(GROUPS - 1) % 4, GROUPS % 4],
                    new_iteration: story.counts[GROUPS % 4],
                });
            }
            checker.finish()
        };
        assert!(replay(false).is_clean());

        let report = replay(true);
        assert_eq!(
            report.violations.len(),
            STRICT_CANDIDATES_KEPT + 1,
            "{report}"
        );
        let last = &report.violations[STRICT_CANDIDATES_KEPT].message;
        assert!(
            last.starts_with(&format!("{} more", CANDIDATES - STRICT_CANDIDATES_KEPT)),
            "{last}"
        );
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

        // A departure event naming a rank outside the fleet is reported
        // (the range rule) and reaches neither the table nor the replica.
        story.events.push(TraceEvent::WorkerLeft {
            worker: 9,
            active: 3,
            purged_signal: false,
        });
        story.group([1, 2], false);
        let violations = story.violations();
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations[2].contains("out-of-range worker 9 left (N = 4)"));
    }
}
