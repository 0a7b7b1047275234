//! Fault-injection vocabulary shared by both execution substrates.
//!
//! A [`FaultPlan`] is a declarative list of per-worker faults that the
//! engine applies uniformly to the virtual-time simulator and the
//! threaded runtime (DESIGN.md §11). The vocabulary mirrors the failure
//! classes the paper's controller must absorb:
//!
//! * **Crash** — fail-stop at an iteration boundary; exercises eviction,
//!   queued-signal purging, and in-flight group repair.
//! * **Stall** — a worker becomes `factor`× slower from some iteration;
//!   exercises partial-reduce's core heterogeneity claim.
//! * **DelaySignals** — control messages from a worker arrive late;
//!   exercises FIFO ordering under a laggy control link.
//! * **LateJoin** — a worker starts the run late; exercises the gap
//!   policy and staleness-aware weights (§3.3.3).
//!
//! Plans parse from a compact CLI spec (`--fault-plan`), e.g.
//! `crash:3@40,stall:5x4@10,delay:2+0.05,latejoin:7+2.0`.

use std::fmt;

/// One fault class, bound to a worker by [`FaultSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail-stop: the worker completes `at_iteration` local updates and
    /// then dies silently — no `Leaving` message, no further signals.
    /// Crashes happen at iteration boundaries only (see DESIGN.md §11
    /// for the failure model).
    Crash {
        /// Number of local updates completed before death.
        at_iteration: u64,
    },
    /// The worker's per-update compute time is multiplied by `factor`
    /// starting at `from_iteration` (0 = from the start).
    Stall {
        /// Slowdown multiplier (> 1.0 slows the worker down).
        factor: f64,
        /// First iteration the slowdown applies to.
        from_iteration: u64,
    },
    /// Every ready signal from the worker reaches the controller
    /// `seconds` late (virtual seconds on sim, wall seconds threaded).
    DelaySignals {
        /// Added one-way control-plane latency.
        seconds: f64,
    },
    /// The worker sends its first ready signal `seconds` after the rest
    /// of the fleet starts.
    LateJoin {
        /// Start-up delay.
        seconds: f64,
    },
    /// Elastic recovery (DESIGN.md §14): once the fleet has completed
    /// `at_update` global updates, a replacement for this (previously
    /// crashed/evicted) worker restores from the latest checkpoint and
    /// rejoins the run.
    Restore {
        /// Global update count that triggers the restore.
        at_update: u64,
    },
}

impl FaultKind {
    /// Compact human/trace label, stable across substrates so chaos
    /// tests can match `FaultInjected` events against the plan.
    pub fn label(&self) -> String {
        match *self {
            FaultKind::Crash { at_iteration } => format!("crash@{at_iteration}"),
            FaultKind::Stall {
                factor,
                from_iteration,
            } => format!("stall x{factor} from {from_iteration}"),
            FaultKind::DelaySignals { seconds } => format!("delay +{seconds}s"),
            FaultKind::LateJoin { seconds } => format!("latejoin +{seconds}s"),
            FaultKind::Restore { at_update } => format!("restore@{at_update}"),
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A fault bound to one worker rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Target worker rank.
    pub worker: usize,
    /// What happens to it.
    pub kind: FaultKind,
}

/// A whole-run chaos plan: zero or more per-worker faults.
///
/// The empty plan is the fault-free baseline; every accessor degrades to
/// a no-op so call sites need no special-casing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The injected faults, in declaration order.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The fault-free plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Builder: adds a fail-stop at `at_iteration` for `worker`.
    pub fn crash(mut self, worker: usize, at_iteration: u64) -> Self {
        self.faults.push(FaultSpec {
            worker,
            kind: FaultKind::Crash { at_iteration },
        });
        self
    }

    /// Builder: slows `worker` down by `factor` from `from_iteration`.
    pub fn stall(mut self, worker: usize, factor: f64, from_iteration: u64) -> Self {
        self.faults.push(FaultSpec {
            worker,
            kind: FaultKind::Stall {
                factor,
                from_iteration,
            },
        });
        self
    }

    /// Builder: delays `worker`'s control signals by `seconds`.
    pub fn delay_signals(mut self, worker: usize, seconds: f64) -> Self {
        self.faults.push(FaultSpec {
            worker,
            kind: FaultKind::DelaySignals { seconds },
        });
        self
    }

    /// Builder: `worker` joins the run `seconds` late.
    pub fn late_join(mut self, worker: usize, seconds: f64) -> Self {
        self.faults.push(FaultSpec {
            worker,
            kind: FaultKind::LateJoin { seconds },
        });
        self
    }

    /// Builder: a replacement for `worker` restores from checkpoint once
    /// the fleet reaches `at_update` global updates.
    pub fn restore(mut self, worker: usize, at_update: u64) -> Self {
        self.faults.push(FaultSpec {
            worker,
            kind: FaultKind::Restore { at_update },
        });
        self
    }

    /// All faults targeting `worker`.
    pub fn for_worker(&self, worker: usize) -> impl Iterator<Item = &FaultSpec> {
        self.faults.iter().filter(move |f| f.worker == worker)
    }

    /// The iteration at which `worker` crashes, if any (earliest wins
    /// when several crash faults target the same rank).
    pub fn crash_at(&self, worker: usize) -> Option<u64> {
        self.for_worker(worker)
            .filter_map(|f| match f.kind {
                FaultKind::Crash { at_iteration } => Some(at_iteration),
                _ => None,
            })
            .min()
    }

    /// Compute-time multiplier for `worker` at `iteration` (product of
    /// all applicable stalls; 1.0 when none apply).
    pub fn stall_factor(&self, worker: usize, iteration: u64) -> f64 {
        self.for_worker(worker)
            .filter_map(|f| match f.kind {
                FaultKind::Stall {
                    factor,
                    from_iteration,
                } if iteration >= from_iteration => Some(factor),
                _ => None,
            })
            .product()
    }

    /// Added latency on `worker`'s control signals (sum of delays).
    pub fn signal_delay(&self, worker: usize) -> f64 {
        self.for_worker(worker)
            .filter_map(|f| match f.kind {
                FaultKind::DelaySignals { seconds } => Some(seconds),
                _ => None,
            })
            .sum()
    }

    /// The global update count at which a replacement for `worker`
    /// restores from checkpoint, if any (earliest wins).
    pub fn restore_at(&self, worker: usize) -> Option<u64> {
        self.for_worker(worker)
            .filter_map(|f| match f.kind {
                FaultKind::Restore { at_update } => Some(at_update),
                _ => None,
            })
            .min()
    }

    /// Ranks with a pending restore, in declaration order.
    pub fn restore_targets(&self) -> impl Iterator<Item = usize> + '_ {
        self.faults.iter().filter_map(|f| match f.kind {
            FaultKind::Restore { .. } => Some(f.worker),
            _ => None,
        })
    }

    /// How late `worker` starts (sum of late-join delays; 0.0 on time).
    pub fn start_delay(&self, worker: usize) -> f64 {
        self.for_worker(worker)
            .filter_map(|f| match f.kind {
                FaultKind::LateJoin { seconds } => Some(seconds),
                _ => None,
            })
            .sum()
    }

    /// The rules of a plan on a fleet of `n` workers, stated once: each
    /// fault targets a worker below `n`; a worker's stall factors, alone
    /// and multiplied, are finite and `> 0`; its seconds, alone and
    /// summed, finite and `>= 0`.
    ///
    /// # Errors
    /// Names the first fault that breaks a rule.
    pub fn check(&self, n: usize) -> Result<(), String> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let seconds = |x: f64| x.is_finite() && x >= 0.0;
        let holds = |&FaultSpec { worker, kind }: &FaultSpec| match kind {
            _ if worker >= n => false,
            FaultKind::Crash { .. } | FaultKind::Restore { .. } => true,
            FaultKind::Stall {
                factor,
                from_iteration: i,
            } => positive(factor) && positive(self.stall_factor(worker, i)),
            FaultKind::DelaySignals { seconds: s } | FaultKind::LateJoin { seconds: s } => {
                seconds(s) && seconds(self.signal_delay(worker) + self.start_delay(worker))
            }
        };
        match self.faults.iter().find(|f| !holds(f)) {
            Some(FaultSpec { worker, kind }) => Err(format!(
                "fault `{kind}` on worker {worker}: need a worker below N = {n}, \
                 stall factors finite and > 0, seconds finite and >= 0"
            )),
            None => Ok(()),
        }
    }

    /// Parses the compact `--fault-plan` grammar: a comma-separated list
    /// of `crash:W@I`, `stall:WxF[@I]`, `delay:W+S`, `latejoin:W+S`,
    /// `restore:W@U` (W = worker rank, I = iteration, F = factor,
    /// S = seconds, U = global update count).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (kind, rest) = token
                .split_once(':')
                .ok_or_else(|| format!("fault `{token}`: expected `kind:…`"))?;
            let spec = match kind {
                "crash" => {
                    let (w, i) = split2(rest, '@', token)?;
                    FaultSpec {
                        worker: parse_num(w, "worker", token)?,
                        kind: FaultKind::Crash {
                            at_iteration: parse_num(i, "iteration", token)?,
                        },
                    }
                }
                "restore" => {
                    let (w, u) = split2(rest, '@', token)?;
                    FaultSpec {
                        worker: parse_num(w, "worker", token)?,
                        kind: FaultKind::Restore {
                            at_update: parse_num(u, "update", token)?,
                        },
                    }
                }
                "stall" => {
                    let (w, rest) = split2(rest, 'x', token)?;
                    let (factor, from) = match rest.split_once('@') {
                        Some((f, i)) => (f, parse_num(i, "iteration", token)?),
                        None => (rest, 0u64),
                    };
                    FaultSpec {
                        worker: parse_num(w, "worker", token)?,
                        kind: FaultKind::Stall {
                            factor: parse_num(factor, "factor", token)?,
                            from_iteration: from,
                        },
                    }
                }
                "delay" | "latejoin" => {
                    let (w, s) = split2(rest, '+', token)?;
                    let worker = parse_num(w, "worker", token)?;
                    let seconds: f64 = parse_num(s, "seconds", token)?;
                    FaultSpec {
                        worker,
                        kind: if kind == "delay" {
                            FaultKind::DelaySignals { seconds }
                        } else {
                            FaultKind::LateJoin { seconds }
                        },
                    }
                }
                other => {
                    return Err(format!(
                        "fault `{token}`: unknown kind `{other}` \
                         (expected crash|stall|delay|latejoin|restore)"
                    ))
                }
            };
            plan.faults.push(spec);
        }
        Ok(plan)
    }
}

fn split2<'a>(s: &'a str, sep: char, token: &str) -> Result<(&'a str, &'a str), String> {
    s.split_once(sep)
        .ok_or_else(|| format!("fault `{token}`: expected `…{sep}…`"))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str, token: &str) -> Result<T, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("fault `{token}`: bad {what} `{s}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.crash_at(0), None);
        assert_eq!(p.stall_factor(0, 100), 1.0);
        assert_eq!(p.signal_delay(0), 0.0);
        assert_eq!(p.start_delay(0), 0.0);
    }

    #[test]
    fn builders_and_accessors_agree() {
        let p = FaultPlan::none()
            .crash(3, 40)
            .stall(5, 4.0, 10)
            .delay_signals(2, 0.05)
            .late_join(7, 2.0);
        assert_eq!(p.crash_at(3), Some(40));
        assert_eq!(p.crash_at(5), None);
        assert_eq!(p.stall_factor(5, 9), 1.0);
        assert_eq!(p.stall_factor(5, 10), 4.0);
        assert_eq!(p.signal_delay(2), 0.05);
        assert_eq!(p.start_delay(7), 2.0);
        assert_eq!(p.for_worker(3).count(), 1);
    }

    #[test]
    fn parse_accepts_the_full_grammar() {
        let p = FaultPlan::parse(
            "crash:3@40, stall:5x4@10, delay:2+0.05, latejoin:7+2.0, restore:3@60",
        )
        .expect("valid spec");
        assert_eq!(
            p,
            FaultPlan::none()
                .crash(3, 40)
                .stall(5, 4.0, 10)
                .delay_signals(2, 0.05)
                .late_join(7, 2.0)
                .restore(3, 60)
        );
    }

    #[test]
    fn restore_accessors() {
        let p = FaultPlan::none().crash(3, 40).restore(3, 60).restore(3, 90);
        assert_eq!(p.restore_at(3), Some(60), "earliest restore wins");
        assert_eq!(p.restore_at(0), None);
        assert_eq!(p.restore_targets().collect::<Vec<_>>(), vec![3, 3]);
        assert!(FaultPlan::parse("restore:3").is_err());
        assert!(FaultPlan::parse("restore:3@x").is_err());
    }

    #[test]
    fn parse_defaults_stall_start_to_zero() {
        let p = FaultPlan::parse("stall:1x2.5").expect("valid spec");
        assert_eq!(p.stall_factor(1, 0), 2.5);
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        assert!(FaultPlan::parse("crash:3").is_err());
        assert!(FaultPlan::parse("stall:ax2").is_err());
        assert!(FaultPlan::parse("explode:1@2").is_err());
        assert!(FaultPlan::parse("delay:1").is_err());
    }

    #[test]
    fn check_holds_a_plan_to_the_fleet_and_to_finite_values() {
        let parse = |spec| FaultPlan::parse(spec).expect("parses");
        assert_eq!(
            parse("crash:3@4,stall:0x0.5@2,delay:1+0,latejoin:2+1.5").check(4),
            Ok(())
        );
        for bad in [
            "crash:4@1",
            "restore:9@3",
            "stall:0x-1",
            "stall:0x0",
            "stall:0xinf",
            "stall:0x1e200,stall:0x1e200@3",
            "delay:0+inf",
            "delay:0+-2",
            "latejoin:1+NaN",
            "delay:0+1e308,latejoin:0+1e308",
        ] {
            let broken = parse(bad).check(4);
            assert!(broken.is_err(), "{bad} passed");
        }
        assert!(parse("crash:99@1").check(4).unwrap_err().contains("N = 4"));
    }

    #[test]
    fn earliest_crash_wins_and_stalls_compound() {
        let p = FaultPlan::none()
            .crash(0, 50)
            .crash(0, 20)
            .stall(0, 2.0, 0)
            .stall(0, 3.0, 5);
        assert_eq!(p.crash_at(0), Some(20));
        assert_eq!(p.stall_factor(0, 4), 2.0);
        assert_eq!(p.stall_factor(0, 5), 6.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultKind::Crash { at_iteration: 40 }.label(), "crash@40");
        assert_eq!(
            FaultKind::Stall {
                factor: 4.0,
                from_iteration: 10
            }
            .label(),
            "stall x4 from 10"
        );
        assert_eq!(
            FaultKind::DelaySignals { seconds: 0.05 }.label(),
            "delay +0.05s"
        );
        assert_eq!(FaultKind::LateJoin { seconds: 2.0 }.label(), "latejoin +2s");
        assert_eq!(FaultKind::Restore { at_update: 60 }.label(), "restore@60");
    }
}
