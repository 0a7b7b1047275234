//! `benchmark`: the fixed instrument for this repository's performance.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! benchmark run [--seed N] [--seconds S] [--traced] [--smoke] [--workload NAME]...
//!               [--out FILE] [--trace-out FILE]
//! benchmark compare OLD.json NEW.json
//! benchmark catalogue
//! ```
//!
//! The first form is what the gate (`BENCHMARK.json`) runs: one workload,
//! one JSON object as the last line of standard output. `run` drives every
//! workload and prints each metric by name with its unit; `run --traced`
//! is the second pass that produces the per-layer metrics. `compare`
//! judges two `run --out` files. `catalogue` prints `BENCHMARK.json` as
//! the code defines it. See the README next to this crate's manifest.

#![forbid(unsafe_code)]

mod catalog;
mod compare;
mod harness;
mod host;
mod probes;
mod replay;
mod report;
mod span;
mod stamping;
mod stats;
mod workloads;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

use preduce_tensor::CountingAlloc;

use catalog::{reps_for, Sizes, Workload};
use harness::Ctx;
use report::{BenchmarkFile, GateLine, Report, WorkloadReport, RUN_SECONDS};

/// Counts live and peak heap bytes for `peak_heap_mb`.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const USAGE: &str = "usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
  benchmark run [--seed N] [--seconds S] [--traced] [--smoke] [--workload NAME]... [--out FILE] [--trace-out FILE]
  benchmark compare OLD.json NEW.json
  benchmark catalogue";

/// Parsed `--flag value` options of the `run` and gate forms.
#[derive(Debug)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_options(args: &[String], gate: bool) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w =
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
                o.workloads.push(w);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&o.seconds) {
                    return Err("--seconds must lie in 1..=60".into());
                }
            }
            "--trace" if gate => {
                o.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--traced" if !gate => o.traced = true,
            "--smoke" if !gate => o.smoke = true,
            "--out" if !gate => o.out = Some(value()?.to_string()),
            "--trace-out" => o.trace_out = Some(value()?.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

fn ctx_of(o: &Options) -> Ctx {
    Ctx {
        seed: o.seed,
        reps: reps_for(o.seconds),
        sizes: if o.smoke { Sizes::SMOKE } else { Sizes::FULL },
        traced: o.traced,
    }
}

fn create(path: &str) -> Result<BufWriter<File>, String> {
    File::create(path)
        .map(BufWriter::new)
        .map_err(|e| format!("cannot create {path}: {e}"))
}

/// Flushes explicitly: dropping a `BufWriter` would swallow the error.
fn finish(mut w: BufWriter<File>, path: &str) -> Result<(), String> {
    w.flush().map_err(|e| format!("cannot write {path}: {e}"))
}

fn json<T: serde::Serialize>(value: &T) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| e.to_string())
}

/// The gate form: one workload, one result line.
fn gate(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_options(args, true)?;
    let [workload] = o.workloads[..] else {
        return Err("the gate form takes exactly one --workload".into());
    };
    let outcome = workloads::run(workload, &ctx_of(&o));
    for failure in &outcome.tally.failures {
        eprintln!("{}: FAILED: {failure}", workload.name());
    }
    if let Some(path) = &o.trace_out {
        let mut w = create(path)?;
        outcome
            .spans
            .write_jsonl(workload.name(), &mut w)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        finish(w, path)?;
    }
    println!("{}", json(&GateLine::of(&outcome, o.traced))?);
    Ok(ExitCode::SUCCESS)
}

/// `run`: every workload (or the named ones), every metric by name.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut o = parse_options(args, false)?;
    if o.workloads.is_empty() {
        o.workloads = Workload::ALL.to_vec();
    }
    let ctx = ctx_of(&o);
    let mut trace_out = o.trace_out.as_deref().map(create).transpose()?;
    let mut report = Report {
        host: host::Host::detect(),
        seed: o.seed,
        seconds: o.seconds,
        traced: o.traced,
        sizes: ctx.sizes,
        workloads: Vec::new(),
    };
    println!(
        "host: {} x{} ({}), {}, revision {}",
        report.host.cpu_model,
        report.host.nproc,
        report.host.simd,
        report.host.rustc,
        report.host.git_revision
    );
    println!(
        "seed {}, {} timed repetitions per workload, {} pass",
        o.seed,
        ctx.reps,
        if o.traced { "traced" } else { "untraced" }
    );
    for &workload in &o.workloads {
        let outcome = workloads::run(workload, &ctx);
        let entry = WorkloadReport::of(&outcome);
        print!("{}", entry.render(o.traced));
        if let (Some(w), Some(path)) = (trace_out.as_mut(), o.trace_out.as_deref()) {
            outcome
                .spans
                .write_jsonl(workload.name(), w)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        report.workloads.push(entry);
    }
    if let (Some(w), Some(path)) = (trace_out, o.trace_out.as_deref()) {
        finish(w, path)?;
    }
    if let Some(path) = &o.out {
        let mut w = create(path)?;
        writeln!(w, "{}", json(&report)?).map_err(|e| format!("cannot write {path}: {e}"))?;
        finish(w, path)?;
    }
    let failed: u64 = report.workloads.iter().map(|w| w.failed).sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failed} operations or output checks failed");
        ExitCode::FAILURE
    })
}

fn load(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} is not a report: {e}"))
}

/// `compare OLD NEW`: non-zero exit on any failing row.
fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [old, new] = args else {
        return Err("compare takes two report files".into());
    };
    let rows = compare::compare(&load(old)?, &load(new)?);
    print!("{}", compare::render(&rows));
    Ok(if rows.iter().any(|r| r.verdict.fails()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `catalogue`: `BENCHMARK.json` as the code defines it, one entry a line.
fn catalogue() -> Result<ExitCode, String> {
    let file = BenchmarkFile::from_catalogue();
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let each = |items: Result<Vec<String>, String>| items.map(list);
    println!("{{");
    println!("  \"command\": {},", json(&file.command)?);
    println!("  \"paths\": {},", json(&file.paths)?);
    println!("  \"run_seconds\": {},", file.run_seconds);
    println!(
        "  \"workloads\": {},",
        each(file.workloads.iter().map(json).collect())?
    );
    println!(
        "  \"end_to_end\": {},",
        each(file.end_to_end.iter().map(json).collect())?
    );
    println!(
        "  \"per_layer\": {}",
        each(file.per_layer.iter().map(json).collect())?
    );
    println!("}}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_files(rest),
        Some((cmd, [])) if cmd == "catalogue" => catalogue(),
        Some((first, _)) if first.starts_with("--") => gate(&args),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::from(2)
    })
}
