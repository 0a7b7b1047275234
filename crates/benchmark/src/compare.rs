//! `benchmark compare OLD.json NEW.json`: one verdict per (metric,
//! workload) pair under that metric's direction and bound.

use std::collections::BTreeSet;
use std::fmt;

use crate::report::{MetricReport, Report, WorkloadReport};

/// What happened to one (metric, workload) pair between two reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound, beyond the repetition spread.
    Better,
    /// Moved by no more than the bound, with a spread narrower than it.
    WithinBound,
    /// Worsened by more than the bound, beyond the repetition spread.
    Worse,
    /// The repetition spread is wider than the bound (or than the
    /// movement): the runs cannot tell.
    Unresolved,
    /// A seed-determined value that must repeat exactly, and did.
    Identical,
    /// A seed-determined value that must repeat exactly, and did not.
    Differs,
    /// Reported on one side only.
    Missing,
}

impl Verdict {
    /// Whether this verdict fails the comparison.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs | Verdict::Missing)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Identical => "identical",
            Verdict::Differs => "DIFFERS",
            Verdict::Missing => "MISSING",
        })
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric (or count) name.
    pub metric: String,
    /// Reference value, if reported.
    pub old: Option<f64>,
    /// New value, if reported.
    pub new: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// Verdict for a sampled metric. `exact` asks for bit equality instead
/// (seed-determined values of two runs of one seed).
pub fn judge(old: &MetricReport, new: &MetricReport, exact: bool) -> Verdict {
    let (a, b) = (old.summary.value, new.summary.value);
    if exact {
        return if a.to_bits() == b.to_bits() {
            Verdict::Identical
        } else {
            Verdict::Differs
        };
    }
    if a == 0.0 {
        return if b == 0.0 {
            Verdict::WithinBound
        } else {
            Verdict::Unresolved
        };
    }
    // Positive = got worse, as a share of the reference.
    let worsening = match old.better.as_str() {
        "higher" => (a - b) / a.abs(),
        _ => (b - a) / a.abs(),
    };
    let bound = old.bound;
    let spread = old.summary.iqr_frac().max(new.summary.iqr_frac());
    if worsening.abs() <= bound {
        if spread <= bound {
            Verdict::WithinBound
        } else {
            Verdict::Unresolved
        }
    } else if worsening.abs() <= spread {
        Verdict::Unresolved
    } else if worsening > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

fn failed_share(w: &WorkloadReport) -> f64 {
    w.failed as f64 / w.attempted.max(1) as f64
}

fn compare_workload(old: &WorkloadReport, new: &WorkloadReport, exact: bool, rows: &mut Vec<Row>) {
    let mut row = |metric: &str, a: Option<f64>, b: Option<f64>, verdict: Verdict| {
        rows.push(Row {
            workload: old.name.clone(),
            metric: metric.to_string(),
            old: a,
            new: b,
            verdict,
        });
    };
    let names: BTreeSet<&String> = old.end_to_end.keys().chain(new.end_to_end.keys()).collect();
    for name in names {
        match (old.end_to_end.get(name), new.end_to_end.get(name)) {
            (Some(a), Some(b)) => row(
                name,
                Some(a.summary.value),
                Some(b.summary.value),
                judge(a, b, exact && a.deterministic),
            ),
            (a, b) => row(
                name,
                a.map(|m| m.summary.value),
                b.map(|m| m.summary.value),
                Verdict::Missing,
            ),
        }
    }
    let names: BTreeSet<&String> = old.counts.keys().chain(new.counts.keys()).collect();
    for name in names {
        let (a, b) = (old.counts.get(name), new.counts.get(name));
        let verdict = match (a, b) {
            (Some(a), Some(b)) if a == b => Verdict::Identical,
            (Some(_), Some(_)) if exact => Verdict::Differs,
            // Different seeds decide differently; nothing to hold.
            (Some(_), Some(_)) => Verdict::WithinBound,
            _ => Verdict::Missing,
        };
        row(name, a.map(|&v| v as f64), b.map(|&v| v as f64), verdict);
    }
    let (a, b) = (failed_share(old), failed_share(new));
    let verdict = if b > a {
        Verdict::Worse
    } else if b < a {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    row("failed_share", Some(a), Some(b), verdict);
}

/// Compares two reports. Seed-determined metrics and counts are held to
/// exact equality when both reports ran the same seed at the same sizes,
/// and to their bounds otherwise.
pub fn compare(old: &Report, new: &Report) -> Vec<Row> {
    let exact = old.seed == new.seed && old.sizes == new.sizes && old.seconds == new.seconds;
    let mut rows = Vec::new();
    for a in &old.workloads {
        match new.workloads.iter().find(|b| b.name == a.name) {
            Some(b) => compare_workload(a, b, exact, &mut rows),
            None => rows.push(Row {
                workload: a.name.clone(),
                metric: "*".into(),
                old: None,
                new: None,
                verdict: Verdict::Missing,
            }),
        }
    }
    rows
}

/// Renders the rows as a table; the last line counts the verdicts.
pub fn render(rows: &[Row]) -> String {
    let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
    let mut s = String::new();
    for r in rows {
        s += &format!(
            "{:<15} {:<22} {:>18} -> {:>18}  {}\n",
            r.workload,
            r.metric,
            show(r.old),
            show(r.new),
            r.verdict
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    s += &format!(
        "{} rows: {} worse, {} differ, {} missing, {} unresolved, {} better\n",
        rows.len(),
        count(Verdict::Worse),
        count(Verdict::Differs),
        count(Verdict::Missing),
        count(Verdict::Unresolved),
        count(Verdict::Better)
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Sizes;
    use crate::host::Host;
    use crate::stats::Summary;
    use std::collections::BTreeMap;

    fn metric(better: &str, bound: f64, samples: &[f64]) -> MetricReport {
        MetricReport {
            unit: "x".into(),
            better: better.into(),
            bound,
            deterministic: false,
            summary: Summary::of(samples),
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let base = metric("higher", 0.10, &[100.0, 100.0, 100.0]);
        let judge_new = |better: &str, v: f64| {
            let old = MetricReport {
                better: better.into(),
                ..base.clone()
            };
            judge(&old, &metric(better, 0.10, &[v, v, v]), false)
        };
        assert_eq!(judge_new("higher", 95.0), Verdict::WithinBound);
        assert_eq!(judge_new("higher", 89.0), Verdict::Worse);
        assert_eq!(judge_new("higher", 111.0), Verdict::Better);
        assert_eq!(judge_new("lower", 95.0), Verdict::WithinBound);
        assert_eq!(judge_new("lower", 111.0), Verdict::Worse);
        assert_eq!(judge_new("lower", 89.0), Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_or_the_movement_is_unresolved() {
        let old = metric("lower", 0.10, &[100.0, 100.0, 100.0]);
        // Quartiles 90 and 110 around 100: spread 20 % > bound.
        let noisy = metric("lower", 0.10, &[80.0, 100.0, 120.0]);
        assert_eq!(judge(&old, &noisy, false), Verdict::Unresolved);
        // Moved 15 % but the new side's spread is 17 %.
        let moved = metric("lower", 0.10, &[95.0, 115.0, 135.0]);
        assert_eq!(judge(&old, &moved, false), Verdict::Unresolved);
        // Moved 50 %: clear of any spread here.
        let far = metric("lower", 0.10, &[140.0, 150.0, 160.0]);
        assert_eq!(judge(&old, &far, false), Verdict::Worse);
    }

    #[test]
    fn deterministic_values_must_match_to_the_bit() {
        let tta = 41.245390506383124f64;
        let a = metric("lower", 0.01, &[tta]);
        // One unit in the last place away.
        let b = metric("lower", 0.01, &[f64::from_bits(tta.to_bits() + 1)]);
        assert_eq!(judge(&a, &a.clone(), true), Verdict::Identical);
        assert_eq!(judge(&a, &b, true), Verdict::Differs);
        // The same pair under its 1 % bound is fine.
        assert_eq!(judge(&a, &b, false), Verdict::WithinBound);
    }

    fn report(seed: u64, tta: f64, groups: u64, failed: u64) -> Report {
        let mut end_to_end = BTreeMap::new();
        end_to_end.insert(
            "tta_virtual_s".to_string(),
            MetricReport {
                deterministic: true,
                ..metric("lower", 0.01, &[tta])
            },
        );
        Report {
            host: Host {
                cpu_model: "test".into(),
                nproc: 2,
                simd: "avx2".into(),
                rustc: "rustc".into(),
                git_revision: "unknown".into(),
            },
            seed,
            seconds: 10,
            traced: false,
            sizes: Sizes::SMOKE,
            workloads: vec![WorkloadReport {
                name: "sim-hl3".into(),
                attempted: 10,
                failed,
                failures: vec![],
                end_to_end,
                per_layer: BTreeMap::new(),
                counts: BTreeMap::from([("groups".to_string(), groups)]),
                self_ms: BTreeMap::new(),
            }],
        }
    }

    #[test]
    fn same_seed_holds_counts_exactly_and_failures_count() {
        let rows = compare(&report(1, 100.0, 50, 0), &report(1, 100.0, 50, 0));
        assert!(rows.iter().all(|r| !r.verdict.fails()), "{rows:?}");

        let rows = compare(&report(1, 100.0, 50, 0), &report(1, 100.0, 51, 0));
        let groups = rows.iter().find(|r| r.metric == "groups").unwrap();
        assert_eq!(groups.verdict, Verdict::Differs);

        // Another seed: the same small drift is within the 1 % bound and
        // counts are free to differ.
        let rows = compare(&report(1, 100.0, 50, 0), &report(2, 100.5, 51, 0));
        assert!(rows.iter().all(|r| !r.verdict.fails()), "{rows:?}");

        let rows = compare(&report(1, 100.0, 50, 0), &report(1, 100.0, 50, 1));
        let share = rows.iter().find(|r| r.metric == "failed_share").unwrap();
        assert_eq!(share.verdict, Verdict::Worse);
        assert!(render(&rows).contains("1 worse"));
    }

    #[test]
    fn a_vanished_metric_or_workload_fails() {
        let old = report(1, 100.0, 50, 0);
        let mut new = old.clone();
        new.workloads[0].end_to_end.clear();
        let rows = compare(&old, &new);
        assert!(rows.iter().any(|r| r.verdict == Verdict::Missing));
        new.workloads.clear();
        assert!(compare(&old, &new)[0].verdict.fails());
    }
}
