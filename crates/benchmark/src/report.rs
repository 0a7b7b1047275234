//! Result records: the full report `run` writes and `compare` reads, the
//! one-line result the gate reads, and the `BENCHMARK.json` schema.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::catalog::{self, Sizes, Workload, END_TO_END, LAYERS};
use crate::harness::Outcome;
use crate::host::Host;
use crate::span::self_nanos_by_name;
use crate::stats::Summary;

/// One end-to-end metric of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricReport {
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
    /// Allowed worsening, as a share of the reference.
    pub bound: f64,
    /// Must repeat exactly for one seed.
    pub deterministic: bool,
    /// Reported value, quartiles and sample count over the repetitions.
    pub summary: Summary,
}

/// One per-layer metric of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerReport {
    /// Unit.
    pub unit: String,
    /// The measured value.
    pub value: f64,
}

/// Everything one workload reported.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: String,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, failed output checks included.
    pub failed: u64,
    /// What failed.
    pub failures: Vec<String>,
    /// End-to-end metrics by name; pairs that do not apply are absent.
    pub end_to_end: BTreeMap<String, MetricReport>,
    /// Per-layer metrics by name (traced pass only).
    pub per_layer: BTreeMap<String, LayerReport>,
    /// Seed-determined counts.
    pub counts: BTreeMap<String, u64>,
    /// Milliseconds of self time per span name: each span minus what its
    /// children cover (traced pass only).
    pub self_ms: BTreeMap<String, f64>,
}

/// A complete set of runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Machine and toolchain.
    pub host: Host,
    /// The generator seed.
    pub seed: u64,
    /// Seconds of timed work per workload.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) pass.
    pub traced: bool,
    /// The frozen sizes the run used.
    pub sizes: Sizes,
    /// One entry per workload run.
    pub workloads: Vec<WorkloadReport>,
}

impl WorkloadReport {
    /// Builds the report entry from a workload's outcome.
    pub fn of(outcome: &Outcome) -> Self {
        let workload = outcome.workload;
        let end_to_end = END_TO_END
            .iter()
            .filter(|m| m.on.contains(&workload))
            .filter_map(|m| {
                let summary = *outcome.end_to_end.get(m.name)?;
                Some((
                    m.name.to_string(),
                    MetricReport {
                        unit: m.unit.into(),
                        better: m.better.word().into(),
                        bound: catalog::bound_on(m, workload),
                        deterministic: catalog::deterministic_on(m, workload),
                        summary,
                    },
                ))
            })
            .collect();
        let per_layer = LAYERS
            .iter()
            .filter(|m| m.on.contains(&workload))
            .filter_map(|m| {
                let value = *outcome.layers.get(m.name)?;
                Some((
                    m.name.to_string(),
                    LayerReport {
                        unit: m.unit.into(),
                        value,
                    },
                ))
            })
            .collect();
        WorkloadReport {
            name: workload.name().into(),
            attempted: outcome.tally.attempted,
            failed: outcome.tally.failed,
            failures: outcome.tally.failures.clone(),
            end_to_end,
            per_layer,
            counts: outcome
                .counts
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            self_ms: self_nanos_by_name(outcome.spans.spans())
                .into_iter()
                .map(|(name, nanos)| (name, nanos as f64 / 1e6))
                .collect(),
        }
    }

    /// Human-readable rows: every metric by name with its unit.
    pub fn render(&self, traced: bool) -> String {
        let mut s = format!(
            "{}: {} operations attempted, {} failed\n",
            self.name, self.attempted, self.failed
        );
        for f in &self.failures {
            s += &format!("  FAILED: {f}\n");
        }
        if traced {
            for (name, m) in &self.per_layer {
                s += &format!("  {name:<38} {:>16} {}\n", digits(m.value), m.unit);
            }
            for (name, ms) in &self.self_ms {
                s += &format!("  self time of {name:<32} {ms:>8.3} ms\n");
            }
        } else {
            for (name, m) in &self.end_to_end {
                let v = m.summary;
                s += &format!(
                    "  {name:<22} {:>16} {:<9} (q1 {}, q3 {}, n={}; {} is better, bound {:.0}%)\n",
                    digits(v.value),
                    m.unit,
                    digits(v.q1),
                    digits(v.q3),
                    v.samples,
                    m.better,
                    m.bound * 100.0
                );
            }
            for (name, v) in &self.counts {
                s += &format!("  {name:<22} {v:>16} count\n");
            }
        }
        s
    }
}

/// Six significant digits without an exponent; whole numbers in full.
fn digits(v: f64) -> String {
    if v.fract() == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let magnitude = v.abs().log10().floor() as i32;
    let decimals = (5 - magnitude).clamp(0, 12) as usize;
    format!("{v:.decimals$}")
}

/// One metric in the gate's result line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateMetric {
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// The last line of standard output of a gate run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateLine {
    /// Every output check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// With tracing off every `end_to_end` metric of `BENCHMARK.json`,
    /// with tracing on every `per_layer` metric.
    pub metrics: BTreeMap<String, GateMetric>,
}

impl GateLine {
    /// The gate's view of an outcome. The gate's format has one flat list
    /// per pass and wants each listed metric from each workload, so it
    /// carries the universal end-to-end metrics only, and a per-layer
    /// metric of a layer the workload does not exercise reads 0: the
    /// layer did no work there.
    pub fn of(outcome: &Outcome, traced: bool) -> Self {
        let metrics = if traced {
            LAYERS
                .iter()
                .map(|m| {
                    let value = outcome.layers.get(m.name).copied().unwrap_or(0.0);
                    (
                        m.name.to_string(),
                        GateMetric {
                            value,
                            unit: m.unit.into(),
                        },
                    )
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter(|m| m.universal())
                .filter_map(|m| {
                    let value = outcome.end_to_end.get(m.name)?.value;
                    Some((
                        m.name.to_string(),
                        GateMetric {
                            value,
                            unit: m.unit.into(),
                        },
                    ))
                })
                .collect()
        };
        GateLine {
            correct: outcome.correct(),
            attempted: outcome.tally.attempted.max(1),
            failed: outcome.tally.failed,
            metrics,
        }
    }
}

/// `BENCHMARK.json`: a workload entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FileWorkload {
    /// Name.
    pub name: String,
    /// One-line reason.
    pub why: String,
}

/// `BENCHMARK.json`: an end-to-end metric entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FileEndToEnd {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
    /// Allowed worsening.
    pub bound: f64,
}

/// `BENCHMARK.json`: a per-layer metric entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FileLayer {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
}

/// `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkFile {
    /// The program and its arguments.
    pub command: Vec<String>,
    /// Directories holding the benchmark and nothing else.
    pub paths: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<FileWorkload>,
    /// The metrics every workload reports with tracing off.
    pub end_to_end: Vec<FileEndToEnd>,
    /// The metrics of the traced pass.
    pub per_layer: Vec<FileLayer>,
}

/// Seconds one gate run measures.
pub const RUN_SECONDS: u64 = 10;

impl BenchmarkFile {
    /// The file as the catalogue defines it.
    pub fn from_catalogue() -> Self {
        BenchmarkFile {
            command: [
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--config",
                "crates/benchmark/cargo/offline.toml",
                "-p",
                "preduce-benchmark",
                "--",
            ]
            .map(String::from)
            .to_vec(),
            paths: vec!["crates/benchmark".into()],
            run_seconds: RUN_SECONDS,
            workloads: Workload::ALL
                .iter()
                .map(|w| FileWorkload {
                    name: w.name().into(),
                    why: w.why().into(),
                })
                .collect(),
            end_to_end: END_TO_END
                .iter()
                .filter(|m| m.universal())
                .map(|m| FileEndToEnd {
                    name: m.name.into(),
                    unit: m.unit.into(),
                    better: m.better.word().into(),
                    bound: m.bound,
                })
                .collect(),
            per_layer: LAYERS
                .iter()
                .map(|m| FileLayer {
                    name: m.name.into(),
                    unit: m.unit.into(),
                    better: m.better.word().into(),
                })
                .collect(),
        }
    }
}
