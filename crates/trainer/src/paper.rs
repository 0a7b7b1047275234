//! The paper's evaluation (§5) as one table: figures and the claims they
//! carry.
//!
//! A figure runs one table or figure of the paper once, at one fixed
//! configuration, and records the numbers it measured by name beside its
//! markdown. A claim row states one shape the paper reports — an
//! ordering, a ratio band, monotonicity, or an exact value where the
//! paper's value is exact — as a predicate over its figure's numbers, and
//! the verdict this tree is expected to reach: it holds, or it deviates
//! for a stated reason. No measured number is written down here; bands
//! are set by the paper's numbers.
//!
//! [`reproduce`] renders a figure followed by its judged claim rows; it is
//! what `preduce reproduce <id>` prints and what the `claims` test
//! compares byte for byte with the `<!-- reproduce:ID -->` blocks of
//! EXPERIMENTS.md.
//!
//! A run that hit its update cap before the threshold has no
//! time-to-accuracy: its time cell reads `N/A (cap)` and its time and
//! update count are absent from the numbers, so no ordering or ratio
//! reads the cap as a time. Figs. 7, 10 and 11 and Thm. 1 run fixed
//! budgets (an unreachable threshold) and report the budget's time.

use std::collections::BTreeMap;

use partial_reduce::{
    expected_sync_matrix, expected_sync_matrix_uniform, spectral_gap, AggregationMode,
    ControllerConfig, GapPolicy, SpectralReport,
};
use preduce_data::{cifar100_like, cifar10_like, imagenet_like, ShardStrategy};
use preduce_models::zoo::{self, ModelZooEntry};
use preduce_models::LrSchedule;
use preduce_simnet::{Jitter, SpeedFleet, UniformFleet};

use crate::engine::drivers::preduce;
use crate::engine::SimSubstrate;
use crate::{run_experiment, sample_groups, ExperimentConfig, HeteroSpec, RunResult, Strategy};

/// cifar10-like threshold. Each preset's threshold sits as far below its
/// plateau as the paper's 90 % / 70 % CIFAR thresholds sit below theirs
/// (EXPERIMENTS.md, Calibration); the DenseNet analog plateaus lower.
const CIFAR10_THRESHOLD: f64 = 0.84;
const DENSENET_THRESHOLD: f64 = 0.82;
const CIFAR100_THRESHOLD: f64 = 0.55;
/// Fig. 10 reports when each curve crosses it.
const IMAGENET_THRESHOLD: f64 = 0.35;

/// The Table 1 configuration for a model at heterogeneity level `hl`.
fn table1_config(model: ModelZooEntry, hl: usize) -> ExperimentConfig {
    let threshold = if model.name == "densenet121" {
        DENSENET_THRESHOLD
    } else {
        CIFAR10_THRESHOLD
    };
    let mut c = ExperimentConfig::table1(model, cifar10_like(), hl);
    c.threshold = threshold;
    // Gradient noise matters here, as on real CIFAR-10: small batches, 5 %
    // training-label noise and a rate low enough for a stable plateau.
    // This separates synchronous methods (few averaged updates) from
    // asynchronous ones (many noisy updates).
    c.math_batch_size = 8;
    c.sgd.lr = 0.03;
    c.label_noise = 0.05;
    c.eval_every = 32;
    c
}

/// The Fig. 7(b) / Fig. 9 configuration: ResNet-34 analog on the
/// cifar100-like preset under production heterogeneity.
fn production_config(num_workers: usize) -> ExperimentConfig {
    let mut c = ExperimentConfig::table1(zoo::resnet34(), cifar100_like(), 1);
    c.num_workers = num_workers;
    c.hetero = HeteroSpec::production_default();
    c.threshold = CIFAR100_THRESHOLD;
    c.max_updates = 80_000;
    c.eval_every = 128;
    c
}

/// The Fig. 10 / Fig. 11 configuration: an ImageNet-scale analog workload.
fn imagenet_config(model: &str, num_workers: usize) -> ExperimentConfig {
    let model = zoo::by_name(model).expect("the ImageNet analogs are in the zoo");
    let mut c = ExperimentConfig::table1(model, imagenet_like(), 1);
    c.num_workers = num_workers;
    c.hetero = HeteroSpec::production_default();
    c.threshold = IMAGENET_THRESHOLD;
    // 32 real gradients per synchronous round add up: a smaller math batch
    // keeps the sweep tractable (the simulated batch stays 256).
    c.math_batch_size = 16;
    // The paper's ImageNet recipe: step-decay learning rate.
    c.sgd.schedule = LrSchedule::Step {
        every_updates: 3_000,
        factor: 0.1,
    };
    c
}

/// `c` run to exactly `max_updates` (an unreachable threshold),
/// evaluated `evals` times on the way.
fn fixed_budget(mut c: ExperimentConfig, max_updates: u64, evals: u64) -> ExperimentConfig {
    c.threshold = 0.999;
    c.max_updates = max_updates;
    c.eval_every = (max_updates / evals).max(1);
    c
}

const AR: Strategy = Strategy::AllReduce;
const fn con(p: usize) -> Strategy {
    Strategy::PReduce { p, dynamic: false }
}
const fn dyn_(p: usize) -> Strategy {
    Strategy::PReduce { p, dynamic: true }
}
/// All-Reduce against P-Reduce CON and DYN at P = 4.
const AR_P4: [Strategy; 3] = [AR, con(4), dyn_(4)];

/// The numbers one figure measured, by name. `None` is a run that hit its
/// update cap before the threshold (it has no time), or a curve that
/// never crossed it.
#[derive(Debug, Default)]
struct Numbers(BTreeMap<String, Option<f64>>);

impl Numbers {
    /// # Panics
    /// Panics if the figure recorded no number by that name: a claim row
    /// reading a number its figure does not measure is a table bug.
    fn get(&self, name: &str) -> Option<f64> {
        match self.0.get(name) {
            Some(v) => *v,
            None => panic!("the figure measured no number named `{name}`"),
        }
    }
}

/// A figure as it runs: the numbers it measured and its markdown so far.
#[derive(Debug, Default)]
struct Figure {
    n: Numbers,
    md: String,
}

impl Figure {
    fn put(&mut self, name: impl Into<String>, value: Option<f64>) {
        self.n.0.insert(name.into(), value);
    }

    /// Records a run to the threshold under `at`: time and #updates to the
    /// threshold (absent when capped), per-update time, final accuracy.
    fn run(&mut self, at: &str, r: &RunResult) {
        let to_threshold = |x: f64| r.converged.then_some(x);
        self.put(format!("{at}/time"), to_threshold(r.run_time));
        self.put(format!("{at}/updates"), to_threshold(r.updates as f64));
        self.put(format!("{at}/per-update"), Some(r.per_update_time()));
        self.put(format!("{at}/accuracy"), Some(r.final_accuracy));
    }

    /// Appends a paragraph or a table, after a blank line.
    fn say(&mut self, block: &str) {
        if !self.md.is_empty() {
            self.md.push('\n');
        }
        self.md += block;
        if !block.ends_with('\n') {
            self.md.push('\n');
        }
    }

    fn table(&mut self, head: &str, rows: &[String]) {
        self.say(&table(head, rows));
    }
}

/// One markdown table; the head and every row are cells joined by ` | `.
fn table(head: &str, rows: &[String]) -> String {
    let columns = head.split(" | ").count();
    let mut s = format!("| {head} |\n|{}\n", "---|".repeat(columns));
    for row in rows {
        s += &format!("| {row} |\n");
    }
    s
}

/// A time-to-threshold cell: a capped run never reached the threshold.
fn time_cell(r: &RunResult) -> String {
    if r.converged {
        format!("{:.1}", r.run_time)
    } else {
        "N/A (cap)".into()
    }
}

/// The paper's three metrics per run, plus the final accuracy.
fn runs_table(runs: &[RunResult]) -> String {
    let row = |r: &RunResult| {
        let (time, pu, acc) = (time_cell(r), r.per_update_time(), r.final_accuracy);
        format!(
            "{} | {time} | {} | {pu:.3} | {acc:.3}",
            r.strategy, r.updates
        )
    };
    let rows: Vec<_> = runs.iter().map(row).collect();
    table(
        "method | run time (s) | #updates | per-update (s) | accuracy",
        &rows,
    )
}

fn num(x: Option<f64>, decimals: usize) -> String {
    x.map_or_else(|| "N/A".into(), |x| format!("{x:.decimals$}"))
}

/// Fixed-budget convergence curves on `base`, every strategy given the
/// gradients of `ar_rounds` All-Reduce rounds (a P-Reduce group consumes
/// P, a round N) and evaluated `evals` times: a summary row per run, then
/// the curves side by side. Records each run's threshold crossing, final
/// accuracy and budget time under `{panel}/{method}`.
fn curves(
    f: &mut Figure,
    panel: &str,
    base: &ExperimentConfig,
    strategies: &[Strategy],
    ar_rounds: u64,
    evals: u64,
) {
    let runs: Vec<_> = strategies
        .iter()
        .map(|&s| {
            let n = base.num_workers as u64;
            let budget = match s {
                Strategy::PReduce { p, .. } => ar_rounds * n / p as u64,
                _ => ar_rounds,
            };
            run_experiment(s, &fixed_budget(base.clone(), budget, evals))
        })
        .collect();
    let mut summary = Vec::new();
    for r in &runs {
        let (cross, acc, t) = (
            r.time_to_accuracy(base.threshold),
            r.final_accuracy,
            r.run_time,
        );
        f.put(format!("{panel}/{}/cross", r.strategy), cross);
        f.put(format!("{panel}/{}/accuracy", r.strategy), Some(acc));
        f.put(format!("{panel}/{}/budget", r.strategy), Some(t));
        let c = num(cross, 2);
        summary.push(format!(
            "{} | {c} | {acc:.4} | {t:.1} | {}",
            r.strategy, r.updates
        ));
    }
    let threshold = base.threshold;
    let head = format!(
        "method | crosses {threshold:.2} at (s) | final accuracy | budget time (s) | #updates"
    );
    f.table(&head, &summary);
    let points = runs.iter().map(|r| r.trace.len()).max().unwrap_or(0);
    let rows: Vec<_> = (0..points)
        .map(|k| {
            let cell = |r: &RunResult| {
                let p = r.trace.get(k);
                p.map_or(String::new(), |p| {
                    format!("{:.2} / {:.4}", p.time, p.accuracy)
                })
            };
            let cells: Vec<_> = runs.iter().map(cell).collect();
            format!("{} | {}", k + 1, cells.join(" | "))
        })
        .collect();
    let methods: Vec<_> = runs.iter().map(|r| r.strategy.as_str()).collect();
    f.table(&format!("eval | {}", methods.join(" | ")), &rows);
}

/// `ρ | ρ̄` of a schedule's `E[W]`; `ρ̄` is infinite without a spectral gap.
fn spectral_cells(r: &SpectralReport) -> String {
    if r.rho_bar.is_finite() {
        format!("{:.4} | {:.3}", r.rho, r.rho_bar)
    } else {
        format!("{:.4} | ∞", r.rho)
    }
}

fn spectrum(n: usize, groups: &[Vec<usize>]) -> SpectralReport {
    spectral_gap(&expected_sync_matrix(n, groups)).expect("E[W] of a schedule is symmetric")
}

/// Table 1's cells: model × heterogeneity level, N = 8.
const CELLS: [(&str, usize); 6] = [
    ("resnet34", 1),
    ("resnet34", 3),
    ("vgg19", 1),
    ("vgg19", 3),
    ("densenet121", 1),
    ("densenet121", 2),
];

/// Where a Table 1 run's numbers live: `resnet34 HL=3 / All-Reduce`.
fn at(c: (&str, usize), method: &str) -> String {
    format!("{} HL={} / {method}", c.0, c.1)
}

fn table1(f: &mut Figure) {
    f.say(
        "cifar10-like, N = 8, every Table 1 method; run time is virtual seconds to the threshold.",
    );
    for c in CELLS {
        let model = zoo::by_name(c.0).expect("Table 1 models are in the zoo");
        let config = table1_config(model, c.1);
        let runs: Vec<_> = Strategy::table1_lineup(config.num_workers)
            .into_iter()
            .map(|s| run_experiment(s, &config))
            .collect();
        for r in &runs {
            f.run(&at(c, &r.strategy), r);
        }
        f.say(&format!(
            "**{}, HL = {}** (threshold {:.2})",
            c.0, c.1, config.threshold
        ));
        f.say(&runs_table(&runs));
    }
}

fn fig4(f: &mut Figure) {
    let jitter = Jitter::LogNormal { sigma: 0.2 };
    let pairs = ControllerConfig::constant(3, 2);
    let uniform = Box::new(UniformFleet::new(3, 1e9, jitter));
    let slow = Box::new(SpeedFleet::new(vec![1.0, 1.0, 2.0], 1e9, jitter));
    let illustrated = |ws: &[[usize; 2]]| ws.iter().map(|w| w.to_vec()).collect::<Vec<_>>();
    let mut rows = Vec::new();
    for (key, label, groups) in [
        (
            "4a",
            "paper Fig. 4(a): homogeneous, uniform pairs",
            illustrated(&[[0, 1], [0, 2], [1, 2]]),
        ),
        (
            "4b",
            "paper Fig. 4(b): worker 3 at 2× (pairs 1/2, 1/4, 1/4)",
            illustrated(&[[0, 1], [0, 1], [0, 2], [1, 2]]),
        ),
        (
            "homogeneous",
            "FIFO controller, jittered homogeneous fleet",
            sample_groups(uniform, pairs.clone(), 30_000, 7).0,
        ),
        (
            "heterogeneous",
            "FIFO controller, worker 3 at 2×",
            sample_groups(slow, pairs, 30_000, 7).0,
        ),
    ] {
        let r = spectrum(3, &groups);
        f.put(format!("{key}/rho"), Some(r.rho));
        rows.push(format!("{label} | {}", spectral_cells(&r)));
    }
    f.say("Spectral gap of E[W], N = 3, P = 2 (simulated schedules: 30 000 groups, seed 7).");
    f.table("schedule | ρ | ρ̄", &rows);
    let mut rows = Vec::new();
    for p in 2..=8 {
        let r = spectral_gap(&expected_sync_matrix_uniform(8, p)).expect("symmetric");
        f.put(format!("P={p}/rho"), Some(r.rho));
        rows.push(format!("{p} | {}", spectral_cells(&r)));
    }
    f.say("Uniformly random groups, N = 8 (P = N is All-Reduce).");
    f.table("P | ρ | ρ̄", &rows);
}

fn fig7(f: &mut Figure) {
    f.say(
        "**(a)** vgg19 analog, cifar10-like, N = 8, HL = 3; equal gradient budgets of 1 000 \
         All-Reduce rounds.",
    );
    let lineup = [AR, Strategy::EagerReduce, con(3), dyn_(3)];
    curves(f, "7a", &table1_config(zoo::vgg19(), 3), &lineup, 1_000, 25);
    f.say(
        "**(b)** resnet34 analog, cifar100-like, N = 16, production heterogeneity; equal \
         gradient budgets of 1 500 All-Reduce rounds.",
    );
    curves(f, "7b", &production_config(16), &AR_P4, 1_500, 25);
}

fn fig8(f: &mut Figure) {
    let config = table1_config(zoo::vgg19(), 1);
    let mut rows = Vec::new();
    for p in 2..=config.num_workers {
        let r = run_experiment(con(p), &config);
        f.run(&format!("P={p}"), &r);
        let pu = r.per_update_time();
        rows.push(format!("{p} | {pu:.3} | {} | {}", r.updates, time_cell(&r)));
    }
    f.say(&format!(
        "P-Reduce CON on the vgg19 analog, cifar10-like, HL = 1, N = {}, threshold {:.2} \
         (All-Reduce is the P = N row).",
        config.num_workers, config.threshold
    ));
    f.table("P | per-update (s) | #updates | run time (s)", &rows);
}

fn fig9(f: &mut Figure) {
    let config = production_config(16);
    let runs: Vec<_> = AR_P4
        .into_iter()
        .map(|s| run_experiment(s, &config))
        .collect();
    let mut rows = Vec::new();
    for r in &runs {
        f.run(&r.strategy, r);
        let mut row = r.strategy.clone();
        for (q, name) in [(0.10, "p10"), (0.50, "p50"), (0.90, "p90"), (0.99, "p99")] {
            let v = r.per_update_percentile(q);
            f.put(format!("{}/{name}", r.strategy), v);
            row += &format!(" | {}", num(v, 3));
        }
        rows.push(row);
    }
    f.say(&format!(
        "resnet34 analog, cifar100-like, N = 16, Markov-modulated production heterogeneity, \
         threshold {:.2}.",
        config.threshold
    ));
    f.say(&runs_table(&runs));
    f.say("Per-update time distribution (s).");
    f.table("method | p10 | p50 | p90 | p99", &rows);
}

/// The ImageNet-scale analogs of Figs. 10 and 11.
const IMAGENET_MODELS: [&str; 2] = ["resnet18", "vgg16"];

fn fig10(f: &mut Figure) {
    for m in IMAGENET_MODELS {
        f.say(&format!(
            "**{m}** analog, imagenet-like, N = 32, production heterogeneity; equal gradient \
             budgets of 400 All-Reduce rounds."
        ));
        curves(f, m, &imagenet_config(m, 32), &AR_P4, 400, 20);
    }
}

/// Useful training throughput of one run: local SGD steps that count
/// towards training per virtual second. An All-Reduce round is N
/// batches, PS BK drops its backups' batches, a P-Reduce group is P.
fn throughput(s: Strategy, config: &ExperimentConfig) -> f64 {
    let r = run_experiment(s, config);
    let n = config.num_workers as u64;
    let batches = match s {
        Strategy::PsBackup { backups } => n - backups as u64,
        Strategy::PReduce { p, .. } => p as u64,
        _ => n,
    };
    (r.updates * batches) as f64 / r.run_time
}

fn fig11(f: &mut Figure) {
    const BUDGET: u64 = 300;
    for m in IMAGENET_MODELS {
        // A lone worker: All-Reduce degenerates to sequential SGD.
        let single = throughput(AR, &fixed_budget(imagenet_config(m, 1), BUDGET, 1));
        let mut rows = vec!["1 | 1.00 | 1.00 | 1.00".to_string()];
        for workers in [4usize, 8, 16, 32] {
            let c = fixed_budget(imagenet_config(m, workers), BUDGET, 1);
            let bk = Strategy::PsBackup {
                backups: (workers / 4).max(1),
            };
            let mut row = workers.to_string();
            for (key, s) in [("AR", AR), ("BK", bk), ("P-Reduce", con(4))] {
                let speedup = throughput(s, &c) / single;
                f.put(format!("{m}/N={workers}/{key}/speedup"), Some(speedup));
                row += &format!(" | {speedup:.2}");
            }
            rows.push(row);
        }
        f.say(&format!(
            "**{m}** analog: useful training throughput over one worker, production \
             heterogeneity, {BUDGET} updates per run."
        ));
        f.table("N | All-Reduce | PS BK (N/4) | P-Reduce (P=4)", &rows);
    }
}

/// P = 2 on the adversarial fleet of ablation 3 and Thm. 1 (Table 1's
/// setup with workers 0–1 fast, 2–3 at 1.7× and no jitter, so FIFO pairs
/// (0,1)/(2,3) forever unless the group filter repairs the schedule).
fn two_speed_pairs(mut c: ExperimentConfig, frozen_avoidance: bool) -> RunResult {
    c.num_workers = 4;
    c.jitter = Jitter::None;
    c.hetero = HeteroSpec::Speed {
        multipliers: vec![1.0, 1.0, 1.7, 1.7],
    };
    let ctl = ControllerConfig {
        frozen_avoidance,
        ..ControllerConfig::constant(4, 2)
    };
    preduce::run(SimSubstrate::new(&c), ctl).expect("a fault-free run ends with a result")
}

fn ablations(f: &mut Figure) {
    let hl3 = table1_config(zoo::resnet34(), 3);
    let mut dyn_rows = Vec::new();
    let mut cons = Vec::new();
    for hl in 1..=4usize {
        let config = table1_config(zoo::resnet34(), hl);
        let c = run_experiment(con(3), &config);
        let d = run_experiment(dyn_(3), &config);
        f.run(&format!("2/HL={hl}/CON"), &c);
        f.run(&format!("2/HL={hl}/DYN"), &d);
        let (ct, dt) = (time_cell(&c), time_cell(&d));
        dyn_rows.push(format!(
            "{hl} | {} | {} | {ct} | {dt}",
            c.updates, d.updates
        ));
        cons.push(c);
    }
    // CON at HL = 3 also serves ablations 1 and 5.
    let con_hl3 = cons.swap_remove(2);
    let er = run_experiment(Strategy::EagerReduce, &hl3);
    f.run("1/CON", &con_hl3);
    f.run("1/ER", &er);
    f.say(
        "**1. Model averaging (P-Reduce) vs gradient aggregation (Eager-Reduce)**, resnet34 \
         analog, HL = 3.",
    );
    f.say(&runs_table(&[con_hl3.clone(), er]));
    f.say("**2. Constant vs dynamic weights** (P = 3) as heterogeneity rises.");
    f.table(
        "HL | CON #updates | DYN #updates | CON time (s) | DYN time (s)",
        &dyn_rows,
    );

    let mut rows = Vec::new();
    for (label, on) in [("off", false), ("on", true)] {
        let mut config = table1_config(zoo::resnet34(), 1);
        config.max_updates = 20_000;
        let r = two_speed_pairs(config, on);
        f.run(&format!("3/filter {label}"), &r);
        let (t, acc) = (time_cell(&r), r.final_accuracy);
        rows.push(format!("{label} | {t} | {} | {acc:.3}", r.updates));
    }
    let frozen = spectrum(4, &[vec![0, 1], vec![2, 3]]);
    let repaired = spectrum(4, &[vec![0, 1], vec![2, 3], vec![0, 2], vec![1, 3]]);
    f.put("3/frozen rho", Some(frozen.rho));
    f.put("3/repaired rho", Some(repaired.rho));
    f.say(
        "**3. Group-frozen avoidance** on an adversarial fleet: workers 0–1 fast, 2–3 at 1.7×, \
         no jitter, P = 2, N = 4.",
    );
    f.table(
        "frozen avoidance | run time (s) | #updates | accuracy",
        &rows,
    );
    let spectra = [
        format!("frozen: (0,1), (2,3) | {}", spectral_cells(&frozen)),
        format!("repaired: + (0,2), (1,3) | {}", spectral_cells(&repaired)),
    ];
    f.table("schedule | ρ | ρ̄", &spectra);

    let mut rows = Vec::new();
    for alpha in [0.2f64, 0.5, 0.8] {
        let gap_policy = GapPolicy::Initial;
        let ctl = ControllerConfig {
            mode: AggregationMode::Dynamic { alpha, gap_policy },
            ..ControllerConfig::constant(hl3.num_workers, 3)
        };
        let r = preduce::run(SimSubstrate::new(&hl3), ctl)
            .expect("a fault-free run ends with a result");
        f.run(&format!("4/alpha={alpha:.1}"), &r);
        rows.push(format!("{alpha:.1} | {} | {}", r.updates, time_cell(&r)));
    }
    f.say("**4. EMA decay α** for DYN (P = 3, HL = 3).");
    f.table("α | #updates | run time (s)", &rows);

    let mut rows = Vec::new();
    for overlap in [0.0f64, 0.5, 1.0] {
        let mut config = hl3.clone();
        config.overlap_fraction = overlap;
        let r = run_experiment(AR, &config);
        let pct = format!("{:.0}%", overlap * 100.0);
        f.run(&format!("5/AR {pct}"), &r);
        rows.push(format!("All-Reduce, {pct} overlap | {}", time_cell(&r)));
    }
    f.run("5/CON", &con_hl3);
    rows.push(format!(
        "{}, no overlap | {}",
        con_hl3.strategy,
        time_cell(&con_hl3)
    ));
    f.say(
        "**5. Granting All-Reduce comm/compute overlap** (HL = 3); partial reduce cannot \
         overlap (§4).",
    );
    f.table("method | run time (s)", &rows);
}

fn case1(f: &mut Figure) {
    let mut rows = Vec::new();
    let mut at_10x = Vec::new();
    for slow in [1.0f64, 4.0, 10.0] {
        // VGG-19 analog: the most communication-bound Table 1 model.
        let mut config = table1_config(zoo::vgg19(), 1);
        config.link_slowdown = Some(vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, slow, slow]);
        let mut row = format!("{slow:.0}×");
        let runs: Vec<_> = [AR, Strategy::AdPsgd, con(3)]
            .into_iter()
            .map(|s| run_experiment(s, &config))
            .collect();
        for r in &runs {
            f.run(&format!("{slow:.0}x/{}", r.strategy), r);
            row += &format!(" | {}", time_cell(r));
        }
        rows.push(row);
        if slow == 10.0 {
            at_10x = runs;
            at_10x.push(run_experiment(dyn_(3), &config));
        }
    }
    f.say(
        "8 compute-identical workers, vgg19 analog, HL = 1; workers 6–7 sit behind a link \
         slower by the given factor. Run time (s) to the threshold.",
    );
    f.table("link | All-Reduce | AD-PSGD | P-Reduce CON (P=3)", &rows);
    f.say("At 10×:");
    f.say(&runs_table(&at_10x));
}

/// Mean `‖∇F(u_k)‖²` over the last quarter of the trace points.
fn plateau(r: &RunResult) -> f64 {
    let norms: Vec<f64> = r.trace.iter().filter_map(|p| p.grad_norm_sq).collect();
    assert!(!norms.is_empty(), "run did not track gradient norms");
    let tail = &norms[norms.len() - norms.len() / 4 - 1..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

fn theorem1(f: &mut Figure) {
    const GRADIENTS: u64 = 16_000;
    let tracked = |max_updates: u64| {
        let mut c = fixed_budget(table1_config(zoo::resnet34(), 1), max_updates, 24);
        c.track_grad_norm = true;
        c
    };
    let mut rows = Vec::new();
    for p in [2usize, 4, 8] {
        let mut c = tracked(GRADIENTS / p as u64);
        // Keep η = Pγ/N fixed across P (Theorem 1's comparison): γ ∝ 1/P.
        c.sgd.lr = 0.08 / p as f32;
        let plat = plateau(&run_experiment(con(p), &c));
        f.put(format!("P={p}/plateau"), Some(plat));
        rows.push(format!("{p} | {plat:.5}"));
    }
    f.say(&format!(
        "Gradient-norm plateau (mean ‖∇F‖² of the averaged model over the last quarter of 24 \
         evaluations), resnet34 analog, cifar10-like, {GRADIENTS} gradients per run."
    ));
    f.say("By P on a homogeneous fleet, at a fixed effective step size η = Pγ/N.");
    f.table("P | plateau", &rows);
    let mut rows = Vec::new();
    for (key, label, on) in [
        ("frozen", "frozen (ρ = 1)", false),
        ("repaired", "repaired (ρ < 1)", true),
    ] {
        let mut c = tracked(GRADIENTS / 2);
        c.shard_strategy = Some(ShardStrategy::ByLabel);
        let r = two_speed_pairs(c, on);
        let (acc, plat) = (r.final_accuracy, plateau(&r));
        f.put(format!("{key}/accuracy"), Some(acc));
        f.put(format!("{key}/plateau"), Some(plat));
        rows.push(format!("{label} | {acc:.3} | {plat:.5}"));
    }
    f.say(
        "Frozen vs repaired schedule on label-sorted (non-IID) shards: P = 2, N = 4, the \
         two-speed fleet of ablation 3, so each frozen pair sees half the classes.",
    );
    f.table("schedule | final accuracy | plateau", &rows);
}

type FigureFn = fn(&mut Figure);

/// Every figure by id, in the order of EXPERIMENTS.md.
const FIGURES: [(&str, FigureFn); 10] = [
    ("table1", table1),
    ("fig4", fig4),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("ablations", ablations),
    ("case1", case1),
    ("theorem1", theorem1),
];

/// The figure ids, in the order of EXPERIMENTS.md.
pub fn ids() -> impl Iterator<Item = &'static str> {
    FIGURES.iter().map(|(id, _)| *id)
}

/// Whether the paper's shape holds on a figure's numbers, and the
/// numbers the predicate read, formatted.
type Check = (bool, String);

/// The verdict a claim row is expected to reach on this tree.
enum Expected {
    /// The paper's shape holds.
    Holds,
    /// The measured shape is the contrary one, for the stated reason.
    Deviates { why: &'static str },
}

const HOLDS: Expected = Expected::Holds;

const fn deviates(why: &'static str) -> Expected {
    Expected::Deviates { why }
}

/// One claim of the paper: its id (the figure's id, a dot, a name), the
/// paper's number or shape as text, the expected verdict, and the
/// predicate over the figure's numbers.
struct Claim(&'static str, &'static str, Expected, fn(&Numbers) -> Check);

/// A number for an ordering: a run that never reached the threshold (or
/// a curve that never crossed it) is slower than any that did.
fn or_never(x: Option<f64>) -> f64 {
    x.unwrap_or(f64::INFINITY)
}

fn lt(a: Option<f64>, b: Option<f64>) -> bool {
    or_never(a) < or_never(b)
}

fn ratio(top: Option<f64>, bottom: Option<f64>) -> Option<f64> {
    Some(top? / bottom?)
}

/// Within a factor of two of the paper's number.
fn within_2x(paper: f64, x: Option<f64>) -> bool {
    x.is_some_and(|x| x >= paper / 2.0 && x <= paper * 2.0)
}

fn rises(a: f64, b: f64) -> bool {
    a < b
}

fn falls(a: f64, b: f64) -> bool {
    a > b
}

fn series(xs: &[Option<f64>], decimals: usize) -> String {
    let cells: Vec<_> = xs.iter().map(|&x| num(x, decimals)).collect();
    cells.join(" / ")
}

fn times(x: Option<f64>) -> String {
    x.map_or_else(|| "N/A".into(), |x| format!("{x:.2}×"))
}

/// An ordering or monotonicity: `ok` holds between each number and the
/// next.
fn ordered(xs: &[Option<f64>], decimals: usize, ok: fn(f64, f64) -> bool) -> Check {
    let holds = xs.windows(2).all(|w| ok(or_never(w[0]), or_never(w[1])));
    (holds, series(xs, decimals))
}

/// A ratio band: `top / bottom` within 2× of the paper's factor and,
/// like it, above 1. A run that never reached the threshold has no ratio.
fn factor(top: Option<f64>, bottom: Option<f64>, decimals: usize, paper: f64) -> Check {
    let f = ratio(top, bottom);
    let holds = within_2x(paper, f) && f.is_some_and(|f| f > 1.0);
    (
        holds,
        format!("{} ({})", series(&[top, bottom], decimals), times(f)),
    )
}

/// Equal to the paper's exact value at the printed four decimals.
fn exact(x: Option<f64>, paper: f64) -> Check {
    (x.is_some_and(|x| (x - paper).abs() < 5e-5), num(x, 4))
}

/// Every check holds; each one's numbers under its label.
fn all<'a>(checks: impl IntoIterator<Item = (&'a str, Check)>) -> Check {
    let (mut holds, mut seen) = (true, Vec::new());
    for (label, (h, measured)) in checks {
        holds &= h;
        seen.push(format!("{label}: {measured}"));
    }
    (holds, seen.join("; "))
}

/// Table 1 cell `c` (an index into [`CELLS`]): `method`'s number `what`.
fn t1(n: &Numbers, c: usize, method: &str, what: &str) -> Option<f64> {
    n.get(&format!("{}/{what}", at(CELLS[c], method)))
}

/// Whether `pred` holds in at least `needed` Table 1 cells (by index into
/// [`CELLS`]), and in how many.
fn cells(needed: usize, pred: impl Fn(usize) -> bool) -> Check {
    let k = (0..CELLS.len()).filter(|&c| pred(c)).count();
    (k >= needed, format!("in {k} of 6 cells"))
}

/// P = 3 CON's dense rank by run time in cell `c` (ties share a place;
/// a capped run is slower than every run that reached the threshold).
fn con3_rank(n: &Numbers, c: usize) -> usize {
    let mine = or_never(t1(n, c, CON3, "time"));
    let lineup = Strategy::table1_lineup(8);
    let times = lineup
        .iter()
        .map(|s| or_never(t1(n, c, &s.label(), "time")));
    let mut faster: Vec<f64> = times.filter(|&t| t < mine).collect();
    faster.sort_by(f64::total_cmp);
    faster.dedup();
    faster.len() + 1
}

const CON3: &str = "P-Reduce CON (P=3)";
const CON4: &str = "P-Reduce CON (P=4)";

/// For both ImageNet analogs, the numbers `{model}/{name}/{what}`.
fn per_model<const K: usize>(
    n: &Numbers,
    names: [&str; K],
    what: &str,
) -> [(&'static str, [Option<f64>; K]); 2] {
    IMAGENET_MODELS.map(|m| (m, names.map(|k| n.get(&format!("{m}/{k}/{what}")))))
}

/// The numbers `name(p)` for each `p`.
fn sweep<const K: usize>(n: &Numbers, ps: [u32; K], name: fn(u32) -> String) -> [Option<f64>; K] {
    ps.map(|p| n.get(&name(p)))
}

const P2_8: [u32; 7] = [2, 3, 4, 5, 6, 7, 8];

const ALL_REDUCE: &str = "All-Reduce";

/// Every claim row, grouped by figure in the order of [`FIGURES`]: id,
/// the paper's number or shape, the expected verdict, the predicate.
#[rustfmt::skip]
const CLAIMS: &[Claim] = &[
    Claim("table1.ar-barrier", "AR per-update, resnet34 HL=3 / HL=1: 0.807 / 0.432 s (1.9×)",
        HOLDS, |n| {
            let pu = |c| t1(n, c, ALL_REDUCE, "per-update");
            factor(pu(1), pu(0), 3, 1.9)
        }),
    Claim("table1.con-flat", "P=3 CON per-update, same: 0.196 / 0.140 s (1.4×), below AR's factor",
        HOLDS, |n| {
            let pu = |c, m| t1(n, c, m, "per-update");
            let (holds, seen) = factor(pu(1, CON3), pu(0, CON3), 3, 1.4);
            let ar = ratio(pu(1, ALL_REDUCE), pu(0, ALL_REDUCE));
            (holds && lt(ratio(pu(1, CON3), pu(0, CON3)), ar), seen)
        }),
    Claim("table1.vgg-magnitudes", "vgg19 HL=1 per-update AR / P=3 CON: 0.286 / 0.093 s",
        HOLDS, |n| {
            let (ar, pr) = (t1(n, 2, ALL_REDUCE, "per-update"), t1(n, 2, CON3, "per-update"));
            (within_2x(0.286, ar) && within_2x(0.093, pr), series(&[ar, pr], 3))
        }),
    Claim("table1.asp-per-update", "resnet34 HL=1 PS ASP per-update: 0.075 s",
        HOLDS, |n| {
            let x = t1(n, 0, "PS ASP", "per-update");
            (within_2x(0.075, x), num(x, 3))
        }),
    Claim("table1.resnet-hl3-speedup", "resnet34 HL=3 run time AR / P=3 CON: 1150 / 630 s (1.83×)",
        HOLDS, |n| factor(t1(n, 1, ALL_REDUCE, "time"), t1(n, 1, CON3, "time"), 1, 1.83)),
    Claim("table1.vgg-hl3-beats-ar", "vgg19 HL=3 run time P=3 CON < AR: 867 < 897 s",
        HOLDS, |n| ordered(&[t1(n, 3, CON3, "time"), t1(n, 3, ALL_REDUCE, "time")], 1, rises)),
    Claim("table1.beats-backup-workers", "resnet34 HL=3 run time P=3 CON < PS BK: 630 < 734 s",
        HOLDS, |n| ordered(&[t1(n, 1, CON3, "time"), t1(n, 1, "PS BK (b=3)", "time")], 1, rises)),
    Claim("table1.asp-updates", "resnet34 HL=3 #updates PS ASP / P=3 CON: 10 335 / 3 209 (3.2×)",
        HOLDS, |n| factor(t1(n, 1, "PS ASP", "updates"), t1(n, 1, CON3, "updates"), 0, 3.2)),
    Claim("table1.p3-over-p5", "P=3 usually beats P=5 in run time (best of CON, DYN)",
        HOLDS, |n| {
            let t = |c, s: Strategy| t1(n, c, &s.label(), "time");
            let best = |c, p| t(c, con(p)).into_iter().chain(t(c, dyn_(p))).reduce(f64::min);
            cells(4, |c| lt(best(c, 3), best(c, 5)))
        }),
    Claim("table1.headline", "P=3 CON has the best or second-best run time in all six cells",
        deviates("AD-PSGD and PS ASP are stronger than in the paper (the rows below)"), |n| {
            let below: Vec<_> = (0..CELLS.len())
                .filter_map(|c| {
                    let rank = Some(con3_rank(n, c)).filter(|&r| r > 2)?;
                    Some(format!("rank {rank} on {} HL={}", CELLS[c].0, CELLS[c].1))
                })
                .collect();
            let top = CELLS.len() - below.len();
            (below.is_empty(), format!("best or 2nd in {top} of 6; {}", below.join(", ")))
        }),
    Claim("table1.eager-reduce-fails", "Eager-Reduce misses the threshold (N/A)",
        deviates("stale zero-padded majority-window gradients are benign on the smooth task"),
        |n| cells(6, |c| t1(n, c, "Eager-Reduce", "time").is_none())),
    Claim("table1.ad-psgd-slower", "P=3 CON beats AD-PSGD in run time",
        deviates("the damage of inconsistent gossip updates does not materialise at this scale"),
        |n| cells(6, |c| lt(t1(n, c, CON3, "time"), t1(n, c, "AD-PSGD", "time")))),
    Claim("table1.hete-beats-asp", "PS HETE beats PS ASP (ASP destabilises)",
        deviates("with a momentum-free server ASP is stable; HETE's damping only costs updates"),
        |n| cells(6, |c| lt(t1(n, c, "PS HETE", "time"), t1(n, c, "PS ASP", "time")))),
    Claim("fig4.homogeneous", "ρ = 0.5", HOLDS, |n| exact(n.get("4a/rho"), 0.5)),
    Claim("fig4.heterogeneous", "ρ = 0.625", HOLDS, |n| exact(n.get("4b/rho"), 0.625)),
    Claim("fig4.slow-worker-raises-rho", "a slower worker raises ρ (FIFO schedules)",
        HOLDS, |n| ordered(&[n.get("homogeneous/rho"), n.get("heterogeneous/rho")], 4, rises)),
    Claim("fig4.rho-falls-with-p", "ρ falls as P grows (P = 2..8)",
        HOLDS, |n| ordered(&sweep(n, P2_8, |p| format!("P={p}/rho")), 4, falls)),
    Claim("fig4.all-reduce", "ρ = 0 at P = N (All-Reduce)",
        HOLDS, |n| exact(n.get("P=8/rho"), 0.0)),
    Claim("fig7.a-crossing-order", "(a) P-Reduce crosses the threshold before All-Reduce",
        HOLDS, |n| {
            let x = |m: &str| n.get(&format!("7a/{m}/cross"));
            let (c, d, ar) = (x(CON3), x("P-Reduce DYN (P=3)"), x(ALL_REDUCE));
            let before_ar = |x| ordered(&[x, ar], 2, rises);
            all([("CON, AR", before_ar(c)), ("DYN, AR", before_ar(d))])
        }),
    Claim("fig7.a-eager-reduce-plateau", "(a) Eager-Reduce plateaus below the threshold",
        deviates("as in table1.eager-reduce-fails"), |n| {
            let er = n.get("7a/Eager-Reduce/cross");
            (er.is_none(), format!("crosses at {} s", num(er, 2)))
        }),
    Claim("fig7.b-crossing-order", "(b) P-Reduce reaches the same accuracy far sooner than AR",
        HOLDS, |n| {
            let x = |m: &str| n.get(&format!("7b/{m}/cross"));
            let (c, d, ar) = (x(CON4), x("P-Reduce DYN (P=4)"), x(ALL_REDUCE));
            let before_ar = |x| ordered(&[x, ar], 2, rises);
            all([("CON, AR", before_ar(c)), ("DYN, AR", before_ar(d))])
        }),
    Claim("fig8.per-update-grows", "per-update time grows with P (P = 2..8)",
        HOLDS, |n| ordered(&sweep(n, P2_8, |p| format!("P={p}/per-update")), 3, rises)),
    Claim("fig8.updates-shrink", "#updates shrinks as P grows (never grows, falls overall)",
        HOLDS, |n| {
            let xs = sweep(n, P2_8, |p| format!("P={p}/updates"));
            let (never_grows, seen) = ordered(&xs, 0, |a, b| a >= b);
            (never_grows && lt(xs[6], xs[0]), seen)
        }),
    Claim("fig8.interior-optimum", "run time is lowest at an interior P (P = 3 and 5)",
        deviates("fewer updates do not repay a costlier update here: the smallest P is fastest"),
        |n| {
            let xs = sweep(n, P2_8, |p| format!("P={p}/time"));
            let times = P2_8.into_iter().zip(xs.map(or_never));
            let best = |b: (u32, f64), (p, x)| if x < b.1 { (p, x) } else { b };
            let (at, _) = times.fold((0, f64::INFINITY), best);
            (at > 2 && at < 8, format!("{} s, lowest at P = {at}", series(&xs, 1)))
        }),
    Claim("fig9.per-update-factor", "per-update AR / P-Reduce: 16.6×",
        HOLDS, |n| {
            let pu = |m: &str| n.get(&format!("{m}/per-update"));
            factor(pu(ALL_REDUCE), pu(CON4), 3, 16.6)
        }),
    Claim("fig9.run-time-factor", "run time AR / P-Reduce: ≈2×",
        HOLDS, |n| factor(n.get("All-Reduce/time"), n.get(&format!("{CON4}/time")), 1, 2.0)),
    Claim("fig9.distribution", "AR's typical update waits for a degraded worker",
        HOLDS, |n| {
            let p50 = [n.get(&format!("{CON4}/p50")), n.get("All-Reduce/p50")];
            all([("p50 CON, AR", ordered(&p50, 3, rises))])
        }),
    Claim("fig10.terminal-accuracy", "P-Reduce matches AR's terminal accuracy",
        HOLDS, |n| {
            let acc = per_model(n, ["All-Reduce", CON4, "P-Reduce DYN (P=4)"], "accuracy");
            all(acc.map(|(m, [ar, c, d])| {
                // CON and DYN within 3 % of All-Reduce's accuracy, or above it.
                let near = |p| ratio(p, ar).is_some_and(|r| r >= 0.97);
                (m, (near(c) && near(d), format!("AR / CON / DYN {}", series(&[ar, c, d], 4))))
            }))
        }),
    Claim("fig10.time-axis", "a much shorter time axis: AR / CON budget time ≥ 2×",
        HOLDS, |n| {
            all(per_model(n, [ALL_REDUCE, CON4], "budget").map(|(m, [ar, c])| {
                let f = ratio(ar, c);
                (m, (f.is_some_and(|f| f >= 2.0), times(f)))
            }))
        }),
    Claim("fig11.ar-and-bk-flatten", "AR and PS BK flatten: at N = 32, AR < BK < P-Reduce",
        HOLDS, |n| {
            let at32 = per_model(n, ["N=32/AR", "N=32/BK", "N=32/P-Reduce"], "speedup");
            all(at32.map(|(m, xs)| (m, ordered(&xs, 2, rises))))
        }),
    Claim("fig11.preduce-scales", "P-Reduce keeps scaling (N = 4..32)",
        HOLDS, |n| {
            let names = ["N=4/P-Reduce", "N=8/P-Reduce", "N=16/P-Reduce", "N=32/P-Reduce"];
            all(per_model(n, names, "speedup").map(|(m, xs)| (m, ordered(&xs, 2, rises))))
        }),
    Claim("fig11.leads-from-n8", "P-Reduce leads All-Reduce and PS BK from N = 8",
        deviates("at N = 8 PS BK, dropping its slowest quarter each round, edges P-Reduce out"),
        |n| {
            let at8 = per_model(n, ["N=8/AR", "N=8/BK", "N=8/P-Reduce"], "speedup");
            all(at8.map(|(m, [ar, bk, pr])| {
                let seen = format!("N = 8, AR / BK / P-Reduce {}", series(&[ar, bk, pr], 2));
                (m, (lt(ar, pr) && lt(bk, pr), seen))
            }))
        }),
    Claim("ablations.1-model-averaging", "averaging models beats aggregating stale gradients",
        HOLDS, |n| ordered(&[n.get("1/CON/time"), n.get("1/ER/time")], 1, rises)),
    Claim("ablations.2-dynamic-weights", "DYN needs fewer updates than CON at HL = 4",
        deviates("DYN needs more updates than CON at HL = 3 and 4 on this task"),
        |n| ordered(&[n.get("2/HL=4/DYN/updates"), n.get("2/HL=4/CON/updates")], 0, rises)),
    Claim("ablations.3-frozen-rho", "a frozen schedule has ρ = 1; the repaired one ρ = 0.75",
        HOLDS, |n| {
            let rho = |s: &str| n.get(&format!("3/{s} rho"));
            all([("frozen", exact(rho("frozen"), 1.0)), ("repaired", exact(rho("repaired"), 0.75))])
        }),
    Claim("ablations.4-alpha", "not evaluated; recorded before: flat for α ≤ 0.5, 0.8 no better",
        deviates("α = 0.2 needs more updates than α = 0.5, which ties α = 0.8"), |n| {
            let alpha = ["0.2", "0.5", "0.8"].map(|a| n.get(&format!("4/alpha={a}/updates")));
            let [lo, mid, hi] = alpha;
            let flat = matches!((lo, mid), (Some(l), Some(m)) if (l - m).abs() <= 0.1 * m);
            (flat && !lt(hi, mid), format!("#updates, α = 0.2 / 0.5 / 0.8: {}", series(&alpha, 0)))
        }),
    Claim("ablations.5-overlap", "§4 conjecture: partial reduce still wins when AR overlaps",
        HOLDS, |n| {
            let ar = |p: &str| n.get(&format!("5/AR {p}/time"));
            let [none, half, full] = ["0%", "50%", "100%"].map(ar);
            all([
                ("AR at 0 / 50 / 100 %", ordered(&[none, half, full], 1, falls)),
                ("CON, AR at 100 %", ordered(&[n.get("5/CON/time"), full], 1, rises)),
            ])
        }),
    Claim("case1.best-at-10x", "intro Case 1 (not evaluated): P-Reduce tolerates 10× slower links",
        HOLDS, |n| {
            let time = |m: &str| n.get(&format!("10x/{m}/time"));
            let [c, ad, ar] = [CON3, "AD-PSGD", ALL_REDUCE].map(time);
            let before = |x| ordered(&[c, x], 1, rises);
            all([("CON, AD-PSGD", before(ad)), ("CON, AR", before(ar))])
        }),
    Claim("case1.degradation", "the ring pays the slow link every round, groups only sometimes",
        HOLDS, |n| {
            let time = |x: &str, m: &str| n.get(&format!("{x}/{m}/time"));
            let slowdown = |m| ratio(time("10x", m), time("1x", m));
            let (c, ar) = (slowdown(CON3), slowdown(ALL_REDUCE));
            (lt(c, ar), format!("10× / 1× run time: CON {}, AR {}", times(c), times(ar)))
        }),
    Claim("theorem1.plateau-falls-with-p", "Eq. 8: the plateau scales like ηLσ²/P",
        HOLDS, |n| ordered(&sweep(n, [2, 4, 8], |p| format!("P={p}/plateau")), 5, falls)),
    Claim("theorem1.frozen-non-iid", "without a spectral gap, biased shards never mix",
        HOLDS, |n| {
            let both = |what: &str| ["frozen", "repaired"].map(|s| n.get(&format!("{s}/{what}")));
            let (acc, plateau) = (both("accuracy"), both("plateau"));
            all([("accuracy", ordered(&acc, 3, rises)), ("plateau", ordered(&plateau, 3, falls))])
        }),
];

/// One figure, rendered, and its claim rows judged.
#[derive(Debug)]
pub struct Reproduction {
    /// The figure's markdown followed by its claim rows: the block
    /// EXPERIMENTS.md holds for this figure.
    pub markdown: String,
    /// Ids of the claim rows whose verdict differs from the expected one.
    pub mismatches: Vec<&'static str>,
}

/// Runs figure `id` (one of [`ids`]) and judges its claims; `None` for an
/// unknown id.
pub fn reproduce(id: &str) -> Option<Reproduction> {
    let (_, run) = FIGURES.iter().find(|(fid, _)| *fid == id)?;
    let mut f = Figure::default();
    run(&mut f);
    let (mut rows, mut mismatches) = (Vec::new(), Vec::new());
    for Claim(claim, paper, expected, check) in CLAIMS {
        if claim.split('.').next() != Some(id) {
            continue;
        }
        let (holds, measured) = check(&f.n);
        let (expected, expect_holds) = match expected {
            Expected::Holds => ("holds".to_string(), true),
            Expected::Deviates { why } => (format!("deviates: {why}"), false),
        };
        let mut verdict = if holds { "holds" } else { "deviates" }.to_string();
        if holds != expect_holds {
            verdict += " (≠ expected)";
            mismatches.push(*claim);
        }
        rows.push(format!(
            "`{claim}` | {paper} | {measured} | {expected} | {verdict}"
        ));
    }
    f.table("claim | paper | measured | expected | verdict", &rows);
    Some(Reproduction {
        markdown: f.md,
        mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_capped_run_is_never_a_time() {
        let capped = RunResult {
            strategy: "capped".into(),
            run_time: 1.0,
            updates: 1_500,
            converged: false,
            final_accuracy: 0.8,
            trace: vec![],
            per_update_samples: vec![],
            stats: Default::default(),
        };
        let slow = RunResult {
            strategy: "slow".into(),
            run_time: 100.0,
            converged: true,
            ..capped.clone()
        };
        assert_eq!(time_cell(&capped), "N/A (cap)");
        assert_eq!(time_cell(&slow), "100.0");
        let table = runs_table(std::slice::from_ref(&capped));
        assert!(table.contains("| capped | N/A (cap) | 1500 |"));
        let mut f = Figure::default();
        f.run("capped", &capped);
        f.run("slow", &slow);
        let (c, s) = (f.n.get("capped/time"), f.n.get("slow/time"));
        assert_eq!((c, f.n.get("capped/updates")), (None, None));
        // The capped run stopped at 1 s, yet it is slower than a run that
        // reached the threshold at 100 s, and has no ratio to it.
        assert_eq!(ordered(&[c, s], 1, rises), (false, "N/A / 100.0".into()));
        assert!(ordered(&[s, c], 1, rises).0);
        assert!(!factor(s, c, 1, 2.0).0 && !factor(c, s, 1, 0.01).0);
    }

    #[test]
    fn every_claim_belongs_to_a_figure_and_every_figure_has_claims() {
        let figure = |id: &str| id.split('.').next().unwrap_or_default().to_string();
        let mut claims: Vec<_> = CLAIMS.iter().map(|c| c.0).collect();
        claims.sort_unstable();
        claims.dedup();
        assert_eq!(claims.len(), CLAIMS.len(), "duplicate claim id");
        for c in &claims {
            assert!(ids().any(|id| id == figure(c)), "{c}: unknown figure");
        }
        for id in ids() {
            assert!(claims.iter().any(|c| figure(c) == id), "{id} has no claim");
        }
        assert!(reproduce("nosuch").is_none());
    }

    #[test]
    fn tables_render_as_markdown() {
        let t = table("a | b", &["1 | 2".into()]);
        assert_eq!(t, "| a | b |\n|---|---|\n| 1 | 2 |\n");
    }

    #[test]
    fn configs_validate() {
        table1_config(zoo::resnet34(), 3).validate();
        table1_config(zoo::densenet121(), 1).validate();
        production_config(16).validate();
        imagenet_config("resnet18", 32).validate();
    }
}
