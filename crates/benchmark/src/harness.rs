//! What every workload shares: the run context, per-repetition sampling of
//! throughput and CPU, the operation/failure tally, and the outcome record.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::catalog::{Sizes, Workload};
use crate::host::{nproc, process_cpu_seconds};
use crate::span::SpanLog;
use crate::stats::{median, Summary};

/// The inputs of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Feeds the input generators only.
    pub seed: u64,
    /// Timed repetitions (after one discarded warm-up).
    pub reps: usize,
    /// Work per repetition.
    pub sizes: Sizes,
    /// Second pass: stamp, probe and replay for the per-layer metrics.
    pub traced: bool,
}

impl Ctx {
    /// Whether timed repetition `rep` runs with tracing on. A traced pass
    /// alternates, starting traced, so it also holds untraced repetitions
    /// to measure tracing overhead against.
    pub fn rep_is_traced(&self, rep: usize) -> bool {
        self.traced && rep.is_multiple_of(2)
    }
}

/// Operations attempted and failed, with a line per failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, or checks that did not hold.
    pub failed: u64,
    /// What failed, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` failures described by `what` (nothing if `n == 0`).
    pub fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            self.failures.push(what());
        }
    }

    /// Counts one failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.fail(u64::from(!ok), what);
    }
}

/// One timed repetition.
#[derive(Debug, Clone, Copy)]
struct Rep {
    rounds: f64,
    /// Rounds per second of measured time.
    rate: f64,
    cpu_s: Option<f64>,
    /// Allocator high-water mark during the repetition, MiB.
    heap_mb: f64,
    traced: bool,
}

/// Collects repetitions; yields throughput, CPU cost and their spread.
#[derive(Debug, Default)]
pub struct Meter {
    reps: Vec<Rep>,
}

/// A repetition in flight: the CPU clock reading at its start.
#[derive(Debug)]
pub struct RepClock {
    cpu_start: Option<f64>,
}

impl Meter {
    /// Starts a repetition: reads the CPU clock and restarts the
    /// allocator's high-water mark from the live byte count.
    pub fn start(&self) -> RepClock {
        crate::ALLOC.reset_peak();
        RepClock {
            cpu_start: process_cpu_seconds(),
        }
    }

    /// Ends a repetition that completed `rounds` worker rounds in
    /// `wall_s` seconds of measured time. The workload defines `wall_s`
    /// (it may leave out set-up or evaluation inside the repetition); the
    /// CPU reading spans the whole repetition, so `cpu_us_per_round` is
    /// the full CPU bill per round, set-up and evaluation included.
    pub fn finish(&mut self, clock: RepClock, rounds: f64, wall_s: f64, traced: bool) {
        self.finish_rated(clock, rounds, rounds / wall_s, traced);
    }

    /// Like [`Meter::finish`] for a repetition made of several runs whose
    /// rates the workload averaged itself.
    pub fn finish_rated(&mut self, clock: RepClock, rounds: f64, rate: f64, traced: bool) {
        let cpu_s = clock
            .cpu_start
            .zip(process_cpu_seconds())
            .map(|(a, b)| b - a);
        self.reps.push(Rep {
            rounds,
            rate,
            cpu_s,
            heap_mb: crate::ALLOC.peak_bytes() as f64 / (1024.0 * 1024.0),
            traced,
        });
    }

    fn rates(&self, traced: bool) -> Vec<f64> {
        self.reps
            .iter()
            .filter(|r| r.traced == traced && r.rate.is_finite())
            .map(|r| r.rate)
            .collect()
    }

    /// `rounds_per_s` over the untraced repetitions (the traced ones when
    /// there is no untraced one).
    pub fn rounds_per_s(&self) -> Option<Summary> {
        let untraced = self.rates(false);
        let rates = if untraced.is_empty() {
            self.rates(true)
        } else {
            untraced
        };
        (!rates.is_empty()).then(|| Summary::of(&rates))
    }

    /// CPU microseconds per round, per repetition. The CPU clock ticks at
    /// 10 ms, so a repetition must last on the order of a second.
    pub fn cpu_us_per_round(&self) -> Option<Summary> {
        let per_rep: Vec<f64> = self
            .reps
            .iter()
            .filter(|r| !r.traced && r.rounds > 0.0)
            .filter_map(|r| Some(r.cpu_s? * 1e6 / r.rounds))
            .collect();
        (!per_rep.is_empty()).then(|| Summary::of(&per_rep))
    }

    /// Peak heap per untraced repetition, the median over repetitions
    /// rather than their maximum: with several threads a repetition's
    /// peak depends on how their allocations happen to overlap (four
    /// workers building their datasets at once, or one after the other),
    /// and the maximum would report the unluckiest overlap of the run.
    pub fn peak_heap_mb(&self) -> Option<Summary> {
        let any_untraced = self.reps.iter().any(|r| !r.traced);
        let peaks: Vec<f64> = self
            .reps
            .iter()
            .filter(|r| !(r.traced && any_untraced))
            .map(|r| r.heap_mb)
            .collect();
        (!peaks.is_empty()).then(|| Summary::of(&peaks))
    }

    /// Share of the machine's hardware threads the process kept busy
    /// while it was being measured.
    pub fn cpu_util(&self) -> Option<f64> {
        let (cpu, wall) = self
            .reps
            .iter()
            .filter(|r| r.rate > 0.0 && r.rate.is_finite())
            .filter_map(|r| Some((r.cpu_s?, r.rounds / r.rate)))
            .fold((0.0, 0.0), |(c, w), (dc, dw)| (c + dc, w + dw));
        (wall > 0.0).then(|| cpu / wall / nproc() as f64)
    }

    /// `1 − traced/untraced` throughput; `None` without both kinds.
    pub fn trace_overhead_frac(&self) -> Option<f64> {
        let (traced, untraced) = (self.rates(true), self.rates(false));
        if traced.is_empty() || untraced.is_empty() {
            return None;
        }
        Some(1.0 - median(&traced) / median(&untraced))
    }
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Operations attempted and failed; output checks feed the failures.
    pub tally: Tally,
    /// End-to-end metrics this workload reports, by catalogue name.
    pub end_to_end: BTreeMap<&'static str, Summary>,
    /// Per-layer metrics (traced pass only), by catalogue name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Values fixed by the seed that `compare` holds to exact equality.
    pub counts: BTreeMap<&'static str, u64>,
    /// Spans recorded by the traced pass.
    pub spans: SpanLog,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: Workload) -> Self {
        Outcome {
            workload,
            tally: Tally::default(),
            end_to_end: BTreeMap::new(),
            layers: BTreeMap::new(),
            counts: BTreeMap::new(),
            spans: SpanLog::new(),
        }
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// Files the metrics every workload owes, from its meter and its
    /// set-up samples; in a traced pass also the harness's own per-layer
    /// rows.
    pub fn file_common(&mut self, ctx: &Ctx, meter: &Meter, setup_s: &[f64]) {
        if let Some(r) = meter.rounds_per_s() {
            self.end_to_end.insert("rounds_per_s", r);
            if ctx.traced {
                self.layers.insert("bench.rep_iqr_frac", r.iqr_frac());
            }
        }
        if let Some(c) = meter.cpu_us_per_round() {
            self.end_to_end.insert("cpu_us_per_round", c);
        }
        if let Some(h) = meter.peak_heap_mb() {
            self.end_to_end.insert("peak_heap_mb", h);
        }
        // Empty only when set-up itself failed, which the tally records.
        if !setup_s.is_empty() {
            self.end_to_end.insert("setup_s", Summary::of(setup_s));
        }
        if ctx.traced {
            if let Some(u) = meter.cpu_util() {
                self.layers.insert("bench.cpu_util", u);
            }
            if let Some(o) = meter.trace_overhead_frac() {
                self.layers.insert("bench.trace_overhead_frac", o);
            }
        }
    }
}

/// Times `f` in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_pass_alternates_and_overhead_needs_both_kinds() {
        let ctx = Ctx {
            seed: 1,
            reps: 5,
            sizes: Sizes::SMOKE,
            traced: true,
        };
        let kinds: Vec<bool> = (0..5).map(|r| ctx.rep_is_traced(r)).collect();
        assert_eq!(kinds, [true, false, true, false, true]);
        assert!(!Ctx {
            traced: false,
            ..ctx
        }
        .rep_is_traced(0));

        let mut m = Meter::default();
        m.finish(m.start(), 100.0, 1.0, true);
        assert_eq!(m.trace_overhead_frac(), None);
        assert_eq!(m.rounds_per_s().unwrap().value, 100.0);
        m.finish(m.start(), 100.0, 0.8, false);
        let overhead = m.trace_overhead_frac().unwrap();
        assert!((overhead - 0.2).abs() < 1e-12, "{overhead}");
        assert_eq!(m.rounds_per_s().unwrap().value, 125.0);
    }

    #[test]
    fn tally_counts_failures_with_their_reason() {
        let mut t = Tally::default();
        t.attempt(10);
        t.check(true, || unreachable!());
        t.fail(0, || unreachable!());
        t.fail(2, || "two seeds missed the threshold".into());
        assert_eq!((t.attempted, t.failed, t.failures.len()), (10, 2, 1));
    }
}
