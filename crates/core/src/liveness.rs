//! Failure detection (DESIGN.md §11): when a silent worker is declared
//! dead.
//!
//! [`FailureDetector`] is sans-I/O and reads no clock. Its caller owns
//! time and passes it in as a [`Duration`] since the run started: the
//! serving loop ([`crate::runtime`]) derives it from `Instant`, the
//! simulator from virtual time. So every substrate evicts a silent worker
//! by the one rule here, and a test drives it without sleeping. The
//! detector counts silence; the [`Controller`] makes the eviction.

// A bad index would kill the serving loop that sweeps.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::controller::Controller;
use crate::trace::TraceEvent;

/// When to declare a silent worker dead.
///
/// A worker is *heard from* whenever any of its signals arrives — ready,
/// leaving, or heartbeat. Every full `heartbeat_interval` of silence is
/// one miss; at `miss_threshold` misses the worker is evicted
/// ([`Controller::evict`]): [`TraceEvent::WorkerEvicted`] then the
/// ordinary departure path, so queued signals purge and scheduling repair
/// proceeds exactly as for a voluntary departure.
///
/// The policy is also the only source of a worker's beat: every worker
/// of a watched fleet beats every [`LivenessPolicy::beat_period`], twice
/// per window — `runtime::spawn` starts the beat of each reducer it
/// mints, and a worker process starts the period its roster carries. A
/// fleet without a policy never beats. The controller narrates its policy
/// in [`TraceEvent::RunStarted`], so the invariant checker holds every
/// eviction to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LivenessPolicy {
    /// The silence window, in microseconds.
    interval_us: u64,
    /// Full silent windows tolerated before eviction (≥ 1).
    miss_threshold: u64,
}

impl LivenessPolicy {
    /// Creates a policy.
    ///
    /// # Panics
    /// Panics on a rule [`LivenessPolicy::check`] names.
    #[allow(clippy::panic, reason = "`try_new` or panic")]
    pub fn new(heartbeat_interval: Duration, miss_threshold: u64) -> Self {
        Self::try_new(heartbeat_interval, miss_threshold).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a policy, or names the rule [`LivenessPolicy::check`]
    /// finds broken: for input the program does not control.
    pub fn try_new(heartbeat_interval: Duration, miss_threshold: u64) -> Result<Self, String> {
        let policy = LivenessPolicy {
            interval_us: u64::try_from(heartbeat_interval.as_micros()).unwrap_or(u64::MAX),
            miss_threshold,
        };
        policy.check().map(|()| policy)
    }

    /// The rules of a policy, stated once: a window of at least 1 ms (the
    /// serving loop waits no finer) and a miss threshold of at least 1.
    /// The invariant checker asks it of the policy a trace carries.
    ///
    /// # Errors
    /// Names the first rule the policy breaks.
    pub fn check(&self) -> Result<(), String> {
        let window = self.heartbeat_interval();
        if window < Duration::from_millis(1) {
            Err(format!(
                "heartbeat interval must be at least 1 ms, got {window:?}"
            ))
        } else if self.miss_threshold == 0 {
            Err("miss threshold must be at least 1".into())
        } else {
            Ok(())
        }
    }

    /// The silence window: misses are counted in whole windows.
    pub fn heartbeat_interval(&self) -> Duration {
        Duration::from_micros(self.interval_us)
    }

    /// Full silent windows tolerated before eviction.
    pub fn miss_threshold(&self) -> u64 {
        self.miss_threshold
    }

    /// How often a worker of this fleet beats: half the window, so a
    /// healthy worker is heard from in every window.
    pub fn beat_period(&self) -> Duration {
        self.heartbeat_interval() / 2
    }

    /// Total silence tolerated before eviction.
    pub fn eviction_after(&self) -> Duration {
        self.windows(self.miss_threshold)
    }

    /// `count` windows back to back.
    fn windows(&self, count: u64) -> Duration {
        Duration::from_micros(self.interval_us.saturating_mul(count))
    }
}

/// One watched worker's silence.
#[derive(Debug, Clone, Copy)]
struct Silence {
    /// When the worker was last heard from.
    since: Duration,
    /// Missed windows narrated since then.
    misses: u64,
}

/// The one failure detector: each worker's last-heard time and the
/// misses narrated since, swept on a clock the caller owns.
#[derive(Debug)]
pub struct FailureDetector {
    policy: LivenessPolicy,
    /// Per worker; `None` once it departed, until it is heard again.
    watched: Vec<Option<Silence>>,
}

impl FailureDetector {
    /// Watches a fleet of `num_workers` under `policy`, every worker
    /// heard at time zero, the run's start.
    pub fn new(policy: LivenessPolicy, num_workers: usize) -> Self {
        FailureDetector {
            policy,
            watched: vec![
                Some(Silence {
                    since: Duration::ZERO,
                    misses: 0,
                });
                num_workers
            ],
        }
    }

    /// `worker` was heard from at `now`: its silence starts over. A
    /// restored worker is watched again from here; a rank outside the
    /// fleet is ignored.
    pub fn heard(&mut self, worker: usize, now: Duration) {
        if let Some(slot) = self.watched.get_mut(worker) {
            *slot = Some(Silence {
                since: now,
                misses: 0,
            });
        }
    }

    /// Counts every watched worker's full silent windows at `now`. Each
    /// new count is narrated as one [`TraceEvent::HeartbeatMissed`], in
    /// order, so a late sweep still reports `1, 2, …`; at the policy's
    /// `miss_threshold` the worker is evicted ([`Controller::evict`]). A
    /// worker that departed stops being watched.
    ///
    /// # Panics
    /// Panics if the detector watches more workers than `controller`'s
    /// fleet.
    pub fn sweep(&mut self, now: Duration, controller: &mut Controller) {
        let threshold = self.policy.miss_threshold;
        let interval = u128::from(self.policy.interval_us.max(1));
        for (worker, slot) in self.watched.iter_mut().enumerate() {
            let Some(silence) = slot else { continue };
            if controller.has_left(worker) {
                *slot = None;
                continue;
            }
            let silent_us = now.saturating_sub(silence.since).as_micros();
            let missed = u64::try_from(silent_us / interval)
                .unwrap_or(u64::MAX)
                .min(threshold);
            if controller.sink().enabled() {
                for misses in silence.misses + 1..=missed {
                    controller
                        .sink()
                        .record(TraceEvent::HeartbeatMissed { worker, misses });
                }
            }
            silence.misses = silence.misses.max(missed);
            if missed >= threshold {
                controller.evict(worker);
                *slot = None;
            }
        }
    }

    /// When the next miss falls due: the earliest time a watched worker
    /// completes another silent window. `None` while nobody is watched.
    /// A sweep at that time is the first that can narrate or evict.
    pub fn next_deadline(&self) -> Option<Duration> {
        self.watched
            .iter()
            .flatten()
            .map(|s| s.since.saturating_add(self.policy.windows(s.misses + 1)))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use crate::trace::RingSink;
    use std::sync::Arc;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn a_late_sweep_narrates_every_count_and_evicts_at_the_threshold() {
        let sink = Arc::new(RingSink::new(64));
        let policy = LivenessPolicy::new(10 * MS, 3);
        let mut c =
            Controller::with_liveness(ControllerConfig::constant(3, 2), sink.clone(), Some(policy));
        let mut d = FailureDetector::new(policy, 3);
        d.heard(0, 25 * MS);
        d.heard(1, 25 * MS);
        assert_eq!(d.next_deadline(), Some(10 * MS), "worker 2's first miss");
        d.sweep(29 * MS, &mut c);
        assert_eq!(d.next_deadline(), Some(30 * MS), "worker 2's third miss");
        assert!(!c.has_left(2));
        d.sweep(30 * MS, &mut c);
        assert!(c.has_left(2));
        let misses: Vec<_> = sink
            .snapshot()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::HeartbeatMissed { worker, misses } => Some((worker, misses)),
                _ => None,
            })
            .collect();
        assert_eq!(misses, [(2, 1), (2, 2), (2, 3)]);
        // The evicted worker is no longer watched; the others are due at
        // the end of their first silent window.
        assert_eq!(d.next_deadline(), Some(35 * MS));
        assert_eq!(c.close().evictions, 1);
    }

    #[test]
    fn a_departed_worker_is_never_evicted() {
        let policy = LivenessPolicy::new(MS, 1);
        let mut c = Controller::new(ControllerConfig::constant(3, 2));
        let mut d = FailureDetector::new(policy, 3);
        c.mark_left(1);
        d.heard(0, 5 * MS);
        d.heard(2, 5 * MS);
        d.sweep(5 * MS, &mut c);
        assert_eq!(c.close().evictions, 0);
        assert_eq!(d.next_deadline(), Some(6 * MS));
    }
}
