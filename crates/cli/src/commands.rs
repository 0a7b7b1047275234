//! CLI subcommands: experiment runs, the paper's figures and claims,
//! spectral analysis, catalog listing, and the multi-process fleet roles
//! (`controller` / `worker`).

use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use partial_reduce::runtime::{LivenessPolicy, RuntimeOptions};
use partial_reduce::{
    expected_sync_matrix, spectral_gap, ControllerConfig, InvariantChecker, JsonlSink, NullSink,
    TraceSink,
};
use preduce_comm::CommError;
use preduce_data::{cifar100_like, cifar10_like, imagenet_like, DatasetPreset};
use preduce_models::zoo;
use preduce_simnet::Jitter;
use preduce_trainer::engine::process;
use preduce_trainer::{
    engine, paper, Backend, ElasticOptions, ExperimentConfig, FaultPlan, HeteroSpec, Strategy,
};

use crate::args::{ArgError, Args};

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing/validation failed.
    Args(ArgError),
    /// Input the command refuses that is not a flag's parse error: an
    /// unknown name, or a value that breaks a rule. The message states the
    /// whole problem.
    Usage(String),
    /// A replayed trace broke this many control-plane invariants.
    Invariant(usize),
    /// These claim rows of the paper reached a verdict other than the
    /// expected one.
    Claims(Vec<&'static str>),
    /// An operation that should not fail did (I/O, serialization).
    Internal(String),
}

impl CliError {
    /// Process exit code: usage errors are 2 (conventional), internal
    /// failures 3, a violated contract 4 (a trace invariant, or a claim
    /// row off its expected verdict).
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Args(_) | CliError::Usage(_) => 2,
            CliError::Internal(_) => 3,
            CliError::Invariant(_) | CliError::Claims(_) => 4,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Usage(problem) => write!(f, "{problem}"),
            CliError::Invariant(n) => {
                write!(f, "trace violates {n} invariant(s)")
            }
            CliError::Claims(ids) => write!(
                f,
                "claim row(s) {} differ from their expected verdict",
                ids.join(", ")
            ),
            CliError::Internal(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

/// A parsed subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// `preduce run …` — one experiment under virtual time.
    Run,
    /// `preduce controller …` — the controller role of a multi-process
    /// P-Reduce fleet: bind, accept, serve.
    Controller,
    /// `preduce worker …` — one worker process of a multi-process fleet.
    Worker,
    /// `preduce spectral …` — simulate group formation, report ρ and ρ̄.
    Spectral,
    /// `preduce scale …` — signal-level control-plane simulation at
    /// N = 10³–10⁴ with live invariant checking (DESIGN.md §15).
    Scale,
    /// `preduce trace --check trace.jsonl` — replay a recorded trace
    /// through the invariant checker.
    Trace,
    /// `preduce reproduce <id|all>` — run a paper figure, print its
    /// markdown and judge its claim rows.
    Reproduce,
    /// `preduce list` — strategies, models, presets.
    List,
    /// `preduce help`.
    Help,
}

impl Command {
    /// Maps the first CLI token to a command.
    pub fn from_name(name: &str) -> Result<Self, CliError> {
        match name {
            "run" => Ok(Command::Run),
            "controller" => Ok(Command::Controller),
            "worker" => Ok(Command::Worker),
            "spectral" => Ok(Command::Spectral),
            "scale" => Ok(Command::Scale),
            "trace" => Ok(Command::Trace),
            "reproduce" => Ok(Command::Reproduce),
            "list" => Ok(Command::List),
            "help" | "--help" | "-h" => Ok(Command::Help),
            other => Err(CliError::Usage(format!("unknown command `{other}`"))),
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
preduce — heterogeneity-aware distributed training via partial reduce

USAGE:
  preduce run      [--strategy S] [--model M] [--preset D] [--workers N]
                   [--hl HL] [--p P] [--dynamic true] [--backups B]
                   [--threshold T] [--max-updates K] [--eval-every E]
                   [--lr LR] [--batch B] [--label-noise F] [--seed SEED]
                   [--json true] [--backend sim|threaded] [--iters K]
                   [--config experiment.json] [--trace-out trace.jsonl]
                   [--fault-plan SPEC] [--checkpoint-dir DIR]
                   [--checkpoint-every K] [--restore-from DIR]
  preduce controller --listen ADDR [--workers N] [--p P] [--dynamic true]
                   [--liveness-ms MS] [--miss-threshold K]
                   [--trace-out trace.jsonl] [--config experiment.json]
  preduce worker   --connect ADDR --rank R [--workers N] [--iters K]
                   [--seed SEED] [--config experiment.json]
                   [--checkpoint-dir DIR] [--checkpoint-every K]
                   [--restore-from DIR]
  preduce spectral [--workers N] [--p P] [--slow \"1,1,2\"] [--rounds R]
  preduce scale    [--workers N] [--p P] [--signals K]
                   [--hetero uniform|gpu-sharing|markov] [--dynamic true]
                   [--seed SEED] [--json true]
  preduce trace    --check trace.jsonl
  preduce reproduce <id|all>
  preduce list
  preduce help

STRATEGIES (for --strategy):
  all-reduce | eager-reduce | ad-psgd | ps-bsp | ps-asp | ps-hete |
  ps-bk (reads --backups) | p-reduce (default; reads --p, --dynamic)
  A flag the command does not read is a usage error.

BACKENDS (for --backend):
  sim (default)  — deterministic virtual-time simulator; stops at the
                   accuracy threshold or --max-updates.
  threaded       — P-Reduce only: real OS threads over the
                   message-passing runtime; each worker performs --iters
                   local updates (wall clock replaces virtual time, no
                   convergence trace; `updates` counts the groups formed).
                   Any other strategy is a usage error: the baselines run
                   on the sim backend only.

FAULT INJECTION:
  `run --fault-plan SPEC` executes a P-Reduce run under a chaos plan
  (DESIGN.md section 11). SPEC is a comma-separated list of
  crash:W@I (worker W fail-stops after I local updates),
  stall:WxF[@I] (W becomes F x slower from iteration I),
  delay:W+S (W's control signals arrive S seconds late), and
  latejoin:W+S (W starts S seconds late). Example:
  --fault-plan \"crash:3@40,stall:5x4@10\". Every W is below --workers,
  every F > 0, every S >= 0, each at most ~1.8e19 (seconds a clock can
  hold), and so are a worker's stalls multiplied and its delays summed;
  a plan that breaks a rule is a usage error. Honored by the p-reduce
  strategy on both backends; with any other strategy the flag is a
  usage error. The sim backend additionally honors restore:W@U (worker
  W, previously crashed, rejoins from its snapshot once the fleet has
  applied U updates; needs --checkpoint-dir or --restore-from, and the
  snapshot must have been written before the crash, or the run ends
  with an error); with --backend threaded a restore: verb is a usage
  error.

ELASTICITY (DESIGN.md section 14):
  --checkpoint-dir DIR enables periodic snapshots: every worker writes
  its durable state (parameters, momentum, counters) to
  DIR/worker-R.ckpt every --checkpoint-every iterations (default 32).
  Writes are atomic (write-then-rename, checksummed), so a mid-write
  crash leaves the previous snapshot intact. --restore-from DIR
  warm-starts workers from the snapshots found there before training
  begins. Omitting every elasticity flag leaves runs bit-identical to a
  build without the subsystem. Only `run` and `worker` checkpoint: the
  controller keeps no durable state (a restarted one starts with an
  empty group window, as every run does), so `controller` refuses these
  flags. `run` takes them with --strategy p-reduce only, and --iters
  with --backend threaded only; anywhere else they are usage errors,
  not ignored.

MULTI-PROCESS FLEETS (DESIGN.md section 12):
  `controller` binds ADDR (use port 0 to let the OS choose; the chosen
  address is printed as `listening on HOST:PORT`), accepts exactly
  --workers process handshakes, and serves P-Reduce until every worker
  departs. `worker` rebuilds the same deterministic replica fleet from
  the shared config (same --workers/--seed/--model on every process),
  dials the controller, and runs --iters local-update + reduce rounds;
  group averages flow worker-to-worker over a TCP star-reduce, never
  through the controller. Grouping policy (--p, --dynamic) is
  controller-side; the roster the controller sends each worker carries
  its fast-forward rule: a CON worker keeps its own count, a DYN worker
  adopts each group's maximum iteration.
  Heartbeat liveness defaults on (--liveness-ms 0 disables it); the
  roster tells every worker to beat twice per window, and not at all
  when liveness is off. A worker whose --workers differs from the
  controller's refuses the roster and exits nonzero. Each
  worker prints one final `worker rank=R iterations=K accuracy=A
  degraded=D params=H` line, H being the hash of its final model that a
  replay of the controller's trace reproduces.

SCALE CAMPAIGN (DESIGN.md section 15):
  `scale` runs the signal-level control-plane simulation: --workers ready
  signals stream through the real controller under a standard
  heterogeneity preset (--hetero), every trace event is checked live by
  the streaming invariant checker, and the report carries throughput,
  group-formation latency, the measured schedule's rho vs the uniform
  closed form, Eq. 9 weight spread, and windowed union-find work
  counters. Defaults: N=1000, P=8, 50000 signals, uniform fleet.
  --json true emits the full report as JSON. Exit is nonzero if any
  invariant is violated.

PAPER FIGURES:
  `reproduce ID` runs one table or figure of the paper's evaluation at
  its one configuration and prints it as markdown, followed by its claim
  rows (claim | paper | measured | expected | verdict); `reproduce all`
  runs every figure. EXPERIMENTS.md holds this output. IDs: table1, fig4,
  fig7, fig8, fig9, fig10, fig11, ablations, case1, theorem1. Exit is 4
  when a claim row's verdict differs from its expected one.

TRACING:
  `run --trace-out FILE` records every P-Reduce control-plane decision as
  one JSON object per line; `trace --check FILE` replays the file and
  asserts the paper's invariants (group size, weight rows, fast-forward,
  frozen-schedule repair, departures). The check is streaming: events
  feed an incremental checker line by line, so traces with millions of
  events verify in bounded memory. Exit is nonzero on violations. A
  trace file that lost writes (a full disk) fails `run` and `controller`
  with exit 3.
";

fn parse_strategy(args: &Args) -> Result<Strategy, CliError> {
    Ok(match args.get("strategy").unwrap_or("p-reduce") {
        "all-reduce" => Strategy::AllReduce,
        "eager-reduce" => Strategy::EagerReduce,
        "ad-psgd" => Strategy::AdPsgd,
        "ps-bsp" => Strategy::PsBsp,
        "ps-asp" => Strategy::PsAsp,
        "ps-hete" => Strategy::PsHete,
        "ps-bk" => Strategy::PsBackup {
            backups: args.get_or("backups", 3)?,
        },
        "p-reduce" => Strategy::PReduce {
            p: args.get_or("p", 3)?,
            dynamic: args.get_or("dynamic", false)?,
        },
        other => return Err(CliError::Usage(format!("unknown strategy `{other}`"))),
    })
}

fn parse_preset(name: &str) -> Result<DatasetPreset, CliError> {
    match name {
        "cifar10-like" => Ok(cifar10_like()),
        "cifar100-like" => Ok(cifar100_like()),
        "imagenet-like" => Ok(imagenet_like()),
        other => Err(CliError::Usage(format!("unknown preset `{other}`"))),
    }
}

/// Refuses the `run` flags this run cannot honour: only the P-Reduce
/// drivers execute a fault plan, take snapshots or run on threads, only
/// the simulator executes `restore:`, and only the threaded backend
/// counts `--iters`.
fn reject_unhonoured_flags(
    args: &Args,
    strategy: Strategy,
    backend: Backend,
    faults: &FaultPlan,
) -> Result<(), ArgError> {
    const P_REDUCE: &str =
        "--strategy p-reduce (no other strategy executes fault plans or checkpoints)";
    let not_p_reduce = !matches!(strategy, Strategy::PReduce { .. });
    let restores = faults.restore_targets().next().is_some();
    refuse_flags(
        args,
        &[
            ("fault-plan", not_p_reduce, P_REDUCE),
            (
                "fault-plan",
                restores && backend != Backend::Sim,
                "--backend sim (`restore:` is simulator-only: threads are not resurrected mid-run)",
            ),
            ("checkpoint-dir", not_p_reduce, P_REDUCE),
            ("checkpoint-every", not_p_reduce, P_REDUCE),
            ("restore-from", not_p_reduce, P_REDUCE),
            (
                "backend",
                not_p_reduce && backend == Backend::Threaded,
                "--backend sim (the threaded backend runs P-Reduce only)",
            ),
            (
                "iters",
                backend == Backend::Sim,
                "--backend threaded (a sim run ends at --threshold or --max-updates)",
            ),
        ],
    )
}

/// Fails on the first `(flag, unhonoured, expected)` row whose flag is
/// given while `unhonoured` holds, naming what the flag needs instead.
fn refuse_flags(args: &Args, rows: &[(&str, bool, &'static str)]) -> Result<(), ArgError> {
    for &(flag, unhonoured, expected) in rows {
        if let Some(value) = args.get(flag).filter(|_| unhonoured) {
            return Err(ArgError::BadValue {
                flag: flag.to_string(),
                value: value.to_string(),
                expected,
            });
        }
    }
    Ok(())
}

/// Builds [`ElasticOptions`] from the checkpoint/restore flags shared by
/// `run` and `worker` (DESIGN.md §14). Absent flags yield
/// the inert options, leaving the run bit-identical to one without them.
fn elastic_from_args(args: &Args) -> Result<ElasticOptions, CliError> {
    let mut elastic = ElasticOptions::none();
    match args.get("checkpoint-dir") {
        Some(dir) => {
            let every: u64 = args.get_or("checkpoint-every", 32)?;
            if every == 0 {
                return Err(CliError::Usage(
                    "--checkpoint-every 0: a snapshot cadence must be at least 1".to_string(),
                ));
            }
            elastic = elastic.with_policy(dir, every);
        }
        None => {
            if args.get("checkpoint-every").is_some() {
                return Err(CliError::Usage(
                    "--checkpoint-every needs --checkpoint-dir to write snapshots to".to_string(),
                ));
            }
        }
    }
    if let Some(dir) = args.get("restore-from") {
        elastic = elastic.with_restore(dir);
    }
    Ok(elastic)
}

/// The file `--trace-out` names, if any: its path and the sink writing it.
struct TraceOut<'a>(Option<(&'a str, Arc<JsonlSink>)>);

impl<'a> TraceOut<'a> {
    /// Creates the file `--trace-out` named, if it named one.
    fn create(path: Option<&'a str>) -> Result<Self, CliError> {
        let Some(path) = path else {
            return Ok(TraceOut(None));
        };
        let sink =
            JsonlSink::create(path).map_err(usage(format!("cannot create trace file `{path}`")))?;
        Ok(TraceOut(Some((path, Arc::new(sink)))))
    }

    /// The sink a run narrates to: the trace file, or the inert one.
    fn sink(&self) -> Arc<dyn TraceSink> {
        match &self.0 {
            Some((_, sink)) => sink.clone(),
            None => Arc::new(NullSink),
        }
    }

    /// Flushes the trace file and fails if any of it was lost.
    fn finish(self) -> Result<(), CliError> {
        let Some((path, sink)) = self.0 else {
            return Ok(());
        };
        sink.flush();
        match sink.write_errors() {
            0 => Ok(()),
            n => Err(CliError::Internal(format!(
                "trace file `{path}`: {n} failed write(s); the trace is incomplete"
            ))),
        }
    }
}

/// Builds an [`ExperimentConfig`] from CLI flags. The base is the
/// serialized config `--config file.json` names, else Table 1's for
/// ResNet-34 on the CIFAR-10 analog with the CLI's own defaults; the
/// other flags then override its fields where given.
pub fn config_from_args(args: &Args) -> Result<ExperimentConfig, CliError> {
    let mut c = match args.get("config") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(usage(format!("cannot read config file `{path}`")))?;
            serde_json::from_str(&text).map_err(usage(format!("config file `{path}`")))?
        }
        None => {
            let mut c = ExperimentConfig::table1(zoo::resnet34(), cifar10_like(), 1);
            c.threshold = 0.84;
            c.max_updates = 20_000;
            c.eval_every = 32;
            c.sgd.lr = 0.03;
            c.math_batch_size = 8;
            c.label_noise = 0.05;
            c
        }
    };
    if let Some(name) = args.get("model") {
        c.model =
            zoo::by_name(name).ok_or_else(|| CliError::Usage(format!("unknown model `{name}`")))?;
    }
    if let Some(name) = args.get("preset") {
        c.preset = parse_preset(name)?;
    }
    if args.get("hl").is_some() {
        c.hetero = HeteroSpec::from_hl(args.get_or("hl", 1)?);
    }
    c.num_workers = args.get_or("workers", c.num_workers)?;
    c.threshold = args.get_or("threshold", c.threshold)?;
    c.max_updates = args.get_or("max-updates", c.max_updates)?;
    c.eval_every = args.get_or("eval-every", c.eval_every)?;
    c.seed = args.get_or("seed", c.seed)?;
    c.sgd.lr = args.get_or("lr", c.sgd.lr)?;
    c.math_batch_size = args.get_or("batch", c.math_batch_size)?;
    c.label_noise = args.get_or("label-noise", c.label_noise)?;
    c.check()
        .map_err(usage("invalid experiment configuration"))?;
    Ok(c)
}

/// A command whose flags are all read and checked: the work left to do,
/// writing human output to its argument.
type Job<'a> = Box<dyn FnOnce(&mut dyn std::io::Write) -> Result<(), CliError> + 'a>;

/// Executes a command, writing human output to `out`. Every flag is read
/// and checked before any work starts, and a flag the command never read
/// is a usage error.
pub fn run_command(
    command: Command,
    args: &Args,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    if let Some(operand) = args.operand().filter(|_| command != Command::Reproduce) {
        return Err(ArgError::UnexpectedToken(operand.to_string()).into());
    }
    let job = prepare(command, args)?;
    if let Some(flag) = args.unread() {
        return Err(ArgError::Unread(flag.to_string()).into());
    }
    job(out)
}

/// Reads and checks `command`'s flags, returning the work they describe.
fn prepare(command: Command, args: &Args) -> Result<Job<'_>, CliError> {
    Ok(match command {
        Command::Help => Box::new(|out| {
            let _ = writeln!(out, "{USAGE}");
            Ok(())
        }),
        Command::List => Box::new(|out| {
            let _ = writeln!(out, "strategies:");
            for s in Strategy::table1_lineup(8) {
                let _ = writeln!(out, "  {}", s.label());
            }
            let _ = writeln!(out, "models:");
            for m in zoo::all() {
                let _ = writeln!(
                    out,
                    "  {:<12} {:>6.1}M params, {:>5.1} GFLOPs/example",
                    m.name,
                    m.profile.param_count as f64 / 1e6,
                    m.profile.flops_per_example / 1e9
                );
            }
            let _ = writeln!(out, "presets:");
            for p in [cifar10_like(), cifar100_like(), imagenet_like()] {
                let _ = writeln!(
                    out,
                    "  {:<14} {} classes, {} samples",
                    p.name, p.config.num_classes, p.config.num_samples
                );
            }
            Ok(())
        }),
        Command::Run => {
            let strategy = parse_strategy(args)?;
            let mut config = config_from_args(args)?;
            let n = config.num_workers;
            strategy.check_fleet(n).map_err(usage(strategy.label()))?;
            let backend = match args.get("backend") {
                None => Backend::Sim,
                Some(name) => name.parse::<Backend>().map_err(|_| {
                    CliError::Usage(format!(
                        "unknown backend `{name}` (expected `sim` or `threaded`)"
                    ))
                })?,
            };
            let faults = match args.get("fault-plan") {
                None => FaultPlan::none(),
                Some(spec) => FaultPlan::parse(spec)
                    .and_then(|plan| plan.check(n).map(|()| plan))
                    .map_err(usage(format!("--fault-plan {spec}")))?,
            };
            reject_unhonoured_flags(args, strategy, backend, &faults)?;
            if args.get("iters").is_some() {
                config.threaded_iters = Some(args.get_or("iters", 0)?);
            }
            let elastic = elastic_from_args(args)?;
            let trace_out = args.get("trace-out");
            let json: bool = args.get_or("json", false)?;
            Box::new(move |out| {
                let trace = TraceOut::create(trace_out)?;
                let result =
                    engine::run_elastic(strategy, &config, backend, trace.sink(), faults, elastic)
                        .map_err(|e| CliError::Usage(e.to_string()))?
                        .result;
                trace.finish()?;
                if json {
                    let text = serde_json::to_string(&result)
                        .map_err(|e| CliError::Internal(format!("serialize result: {e}")))?;
                    let _ = writeln!(out, "{text}");
                } else {
                    let _ = writeln!(
                        out,
                        "{:<22} run time {:>9.1}s | {:>6} updates | {:>8.3}s/update | acc {:.3}{}",
                        result.strategy,
                        result.run_time,
                        result.updates,
                        result.per_update_time(),
                        result.final_accuracy,
                        if result.converged { "" } else { "  (hit cap)" },
                    );
                }
                Ok(())
            })
        }
        Command::Controller => {
            const WORKERS_ONLY: &str =
                "`run` or `worker` (only they checkpoint: the controller keeps no durable state)";
            refuse_flags(
                args,
                &[
                    ("checkpoint-dir", true, WORKERS_ONLY),
                    ("checkpoint-every", true, WORKERS_ONLY),
                    ("restore-from", true, WORKERS_ONLY),
                ],
            )?;
            let config = config_from_args(args)?;
            let p: usize = args.get_or("p", 3)?;
            let dynamic: bool = args.get_or("dynamic", false)?;
            let preduce = Strategy::PReduce { p, dynamic };
            preduce
                .check_fleet(config.num_workers)
                .map_err(usage(preduce.label()))?;
            let listen = args.get("listen").unwrap_or("127.0.0.1:0").to_string();
            let controller_cfg =
                Strategy::preduce_controller_config(p, dynamic, config.num_workers);
            let liveness_ms: u64 = args.get_or("liveness-ms", 100)?;
            let miss: u64 = args.get_or("miss-threshold", 5)?;
            let liveness = (liveness_ms > 0)
                .then(|| LivenessPolicy::try_new(Duration::from_millis(liveness_ms), miss))
                .transpose()
                .map_err(usage("invalid liveness policy"))?;
            let trace_out = args.get("trace-out");
            Box::new(move |out| {
                let trace = TraceOut::create(trace_out)?;
                let report = process::run_controller(
                    controller_cfg,
                    &listen,
                    RuntimeOptions {
                        sink: trace.sink(),
                        liveness,
                    },
                    |addr| {
                        // The e2e harness (and any launcher) parses this line
                        // to learn the port when --listen ends in :0.
                        let _ = writeln!(out, "listening on {addr}");
                        let _ = out.flush();
                    },
                )
                .map_err(|e| match e {
                    CommError::BindFailed { addr, error } => {
                        CliError::Usage(format!("cannot bind --listen address `{addr}`: {error}"))
                    }
                    e => CliError::Internal(format!("controller: {e}")),
                })?;
                trace.finish()?;
                let s = report.stats;
                let _ = writeln!(
                    out,
                    "controller done: workers={} groups={} repairs={} singletons={} evictions={}",
                    report.workers, s.groups_formed, s.repairs, s.singletons, s.evictions
                );
                Ok(())
            })
        }
        Command::Worker => {
            let (Some(connect), Some(_)) = (args.get("connect"), args.get("rank")) else {
                return Err(CliError::Usage(
                    "worker needs --connect ADDR and --rank R".into(),
                ));
            };
            let addr: SocketAddr = connect.parse().map_err(|_| {
                CliError::Usage(format!("--connect {connect}: expected a socket address"))
            })?;
            let rank: usize = args.get_or("rank", 0)?;
            let config = config_from_args(args)?;
            let iters: u64 = args.get_or("iters", engine::DEFAULT_THREADED_ITERS)?;
            let elastic = elastic_from_args(args)?;
            Box::new(move |out| {
                let report = process::run_worker_elastic(
                    &config,
                    addr,
                    rank,
                    iters,
                    Arc::new(NullSink),
                    elastic,
                )
                .map_err(|e| match e {
                    CommError::InvalidRank { .. } => CliError::Usage(format!("--rank: {e}")),
                    e => CliError::Internal(format!("worker {rank}: {e}")),
                })?;
                let _ = writeln!(
                    out,
                    "worker rank={} iterations={} accuracy={:.4} degraded={} params={:016x}",
                    report.rank,
                    report.iterations,
                    report.accuracy,
                    report.degraded,
                    report.params_hash
                );
                Ok(())
            })
        }
        Command::Reproduce => {
            let operand = args.operand().unwrap_or_default();
            let all = operand == "all";
            let ids: Vec<_> = paper::ids().filter(|id| all || *id == operand).collect();
            if ids.is_empty() {
                let known: Vec<_> = paper::ids().collect();
                return Err(CliError::Usage(format!(
                    "unknown figure `{operand}` (usage: preduce reproduce <id|all>; ids: {})",
                    known.join(", ")
                )));
            }
            Box::new(move |out| {
                let mut mismatches = Vec::new();
                for id in ids {
                    if all {
                        let _ = writeln!(out, "## {id}\n");
                    }
                    if let Some(r) = paper::reproduce(id) {
                        let _ = write!(out, "{}", r.markdown);
                        let _ = out.flush();
                        mismatches.extend(r.mismatches);
                    }
                }
                if !mismatches.is_empty() {
                    return Err(CliError::Claims(mismatches));
                }
                Ok(())
            })
        }
        Command::Trace => {
            let path = args
                .get("check")
                .ok_or_else(|| CliError::Usage("trace needs --check FILE".to_string()))?;
            Box::new(move |out| {
                let report = InvariantChecker::check_jsonl(path)
                    .map_err(usage(format!("cannot check trace file `{path}`")))?;
                let _ = write!(out, "{report}");
                if !report.is_clean() {
                    return Err(CliError::Invariant(report.violations.len()));
                }
                Ok(())
            })
        }
        Command::Scale => {
            let n: usize = args.get_or("workers", 1_000)?;
            let p: usize = args.get_or("p", 8)?;
            let signals: u64 = args.get_or("signals", 50_000)?;
            let hetero = args.get("hetero").unwrap_or("uniform");
            let mut cfg = preduce_trainer::ScaleConfig::new(n, p, signals, hetero);
            cfg.dynamic = args.get_or("dynamic", true)?;
            cfg.seed = args.get_or("seed", cfg.seed)?;
            cfg.check().map_err(usage("invalid scale run"))?;
            let json: bool = args.get_or("json", false)?;
            Box::new(move |out| {
                let report = preduce_trainer::run_scale(&cfg);
                if json {
                    let text = serde_json::to_string(&report)
                        .map_err(|e| CliError::Internal(format!("serialize report: {e}")))?;
                    let _ = writeln!(out, "{text}");
                } else {
                    let rho = report
                        .rho_measured
                        .map_or_else(|| "n/a".to_string(), |r| format!("{r:.4}"));
                    let _ = writeln!(
                        out,
                        "N = {n}, P = {p}, {} signals under `{hetero}`:\n\
                         \x20 throughput  = {:.0} signals/s ({} groups, {} deferrals, {} repairs)\n\
                         \x20 latency     = {:.3}s mean / {:.3}s max (virtual)\n\
                         \x20 rho         = {rho} (uniform reference {:.4})\n\
                         \x20 spread      = {:.4} mean / {:.4} max\n\
                         \x20 union-find  = {} merges (replays included), {} window reloads, {} queries answered from membership counts\n\
                         \x20 union-find  = {} merges, {} window reloads, {} membership answers in the checker's replica\n\
                         \x20 checker     = {} events, {} violation(s)",
                        report.signals,
                        report.signals_per_sec,
                        report.groups,
                        report.deferrals,
                        report.repairs,
                        report.formation_latency_mean,
                        report.formation_latency_max,
                        report.rho_uniform_ref,
                        report.weight_spread_mean,
                        report.weight_spread_max,
                        report.connectivity.merges,
                        report.connectivity.rebuilds,
                        report.connectivity.membership_answers,
                        report.checker_connectivity.merges,
                        report.checker_connectivity.rebuilds,
                        report.checker_connectivity.membership_answers,
                        report.checker_events,
                        report.checker_violations,
                    );
                }
                if report.checker_violations > 0 {
                    return Err(CliError::Invariant(report.checker_violations));
                }
                Ok(())
            })
        }
        Command::Spectral => {
            let n: usize = args.get_or("workers", 8)?;
            let p: usize = args.get_or("p", 3)?;
            let rounds: usize = args.get_or("rounds", 20_000)?;
            let preduce = Strategy::PReduce { p, dynamic: false };
            preduce.check_fleet(n).map_err(usage(preduce.label()))?;
            if rounds == 0 {
                return Err(CliError::Usage(
                    "--rounds 0: spectral needs at least one observed group".to_string(),
                ));
            }
            let fleet = match args.get("slow") {
                None => HeteroSpec::Uniform,
                Some(spec) => HeteroSpec::Speed {
                    multipliers: spec
                        .split(',')
                        .map(|t| {
                            t.trim().parse().map_err(|_| {
                                CliError::Usage(format!("--slow {spec}: `{t}` is not a number"))
                            })
                        })
                        .collect::<Result<_, _>>()?,
                },
            };
            fleet.check(n).map_err(usage("--slow"))?;
            Box::new(move |out| {
                let jitter = Jitter::LogNormal { sigma: 0.2 };
                let (groups, _) = preduce_trainer::sample_groups(
                    fleet.build(n, 1e9, jitter),
                    ControllerConfig::constant(n, p),
                    rounds,
                    17,
                );
                let e_w = expected_sync_matrix(n, &groups);
                let report = spectral_gap(&e_w)
                    .map_err(|e| CliError::Internal(format!("spectral analysis of E[W]: {e}")))?;
                let _ = writeln!(
                    out,
                    "N = {n}, P = {p}, {rounds} observed groups:\n  rho     = {:.4}\n  rho_bar = {:.4}",
                    report.rho, report.rho_bar
                );
                Ok(())
            })
        }
    })
}

/// The usage error for refusing `what`, followed by why.
fn usage<E: fmt::Display>(what: impl fmt::Display) -> impl FnOnce(E) -> CliError {
    move |why| CliError::Usage(format!("{what}: {why}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cmdline: &[&str]) -> (Result<(), CliError>, String) {
        let command = Command::from_name(cmdline[0]).unwrap();
        let args = Args::parse(cmdline[1..].iter().copied()).unwrap();
        let mut out = Vec::new();
        let r = run_command(command, &args, &mut out);
        (r, String::from_utf8(out).unwrap())
    }

    #[test]
    fn list_shows_catalog() {
        let (r, out) = run(&["list"]);
        r.unwrap();
        assert!(out.contains("All-Reduce"));
        assert!(out.contains("resnet34"));
        assert!(out.contains("cifar10-like"));
    }

    #[test]
    fn help_prints_usage() {
        let (r, out) = run(&["help"]);
        r.unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn spectral_reports_rho() {
        let (r, out) = run(&["spectral", "--workers", "3", "--p", "2", "--rounds", "4000"]);
        r.unwrap();
        assert!(out.contains("rho"), "{out}");
        // Homogeneous N=3 P=2 should land near 0.5.
        let rho: f64 = out
            .lines()
            .find(|l| l.contains("rho     ="))
            .and_then(|l| l.split('=').nth(1))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!((rho - 0.5).abs() < 0.05, "rho = {rho}");
    }

    #[test]
    fn scale_runs_a_small_fleet() {
        let (r, out) = run(&["scale", "--workers", "64", "--p", "4", "--signals", "2000"]);
        r.unwrap();
        assert!(out.contains("0 violation(s)"), "{out}");
        assert!(out.contains("rho"), "{out}");
        assert!(
            out.contains("queries answered from membership counts"),
            "{out}"
        );
    }

    #[test]
    fn scale_json_output_is_parseable() {
        let (r, out) = run(&[
            "scale",
            "--workers",
            "32",
            "--p",
            "4",
            "--signals",
            "1000",
            "--json",
            "true",
        ]);
        r.unwrap();
        #[derive(serde::Deserialize)]
        struct Connectivity {
            rebuilds: u64,
            membership_answers: u64,
        }
        #[derive(serde::Deserialize)]
        struct Checked {
            num_workers: usize,
            checker_violations: u64,
            groups: u64,
            connectivity: Connectivity,
        }
        let v: Checked = serde_json::from_str(&out).unwrap();
        assert_eq!(v.num_workers, 32);
        assert_eq!(v.checker_violations, 0);
        assert!(v.groups > 0, "{out}");
        let c = v.connectivity;
        assert!(c.rebuilds + c.membership_answers > 0, "{out}");
    }

    #[test]
    fn scale_rejects_unknown_preset_and_bad_shape() {
        let (r, out) = run(&["scale", "--hetero", "quantum"]);
        assert!(matches!(r, Err(CliError::Usage(_))), "{out}");
        let (r, out) = run(&["scale", "--workers", "4", "--p", "9"]);
        assert!(matches!(r, Err(CliError::Usage(_))), "{out}");
        let (r, out) = run(&["scale", "--signals", "0"]);
        assert!(matches!(r, Err(CliError::Usage(_))), "{out}");
    }

    #[test]
    fn run_executes_a_tiny_experiment() {
        let (r, out) = run(&[
            "run",
            "--strategy",
            "p-reduce",
            "--p",
            "2",
            "--workers",
            "4",
            "--max-updates",
            "80",
            "--eval-every",
            "40",
            "--threshold",
            "0.99",
        ]);
        r.unwrap();
        assert!(out.contains("P-Reduce CON (P=2)"), "{out}");
        assert!(out.contains("hit cap"), "{out}");
    }

    #[test]
    fn run_json_output_is_parseable() {
        let (r, out) = run(&[
            "run",
            "--strategy",
            "all-reduce",
            "--workers",
            "4",
            "--max-updates",
            "40",
            "--eval-every",
            "40",
            "--threshold",
            "0.99",
            "--json",
            "true",
        ]);
        r.unwrap();
        let v: preduce_trainer::RunResult = serde_json::from_str(&out).unwrap();
        assert_eq!(v.strategy, "All-Reduce");
        assert_eq!(v.updates, 40);
    }

    #[test]
    fn run_threaded_backend_executes() {
        let (r, out) = run(&[
            "run",
            "--strategy",
            "p-reduce",
            "--p",
            "2",
            "--backend",
            "threaded",
            "--workers",
            "2",
            "--iters",
            "4",
        ]);
        r.unwrap();
        assert!(out.contains("P-Reduce CON (P=2)"), "{out}");
        // One update per group: P = N = 2 forms one group per round.
        assert!(out.contains(" 4 updates |"), "{out}");
    }

    #[test]
    fn unknown_backend_is_an_error() {
        let (r, out) = run(&["run", "--backend", "mpi", "--workers", "4"]);
        assert!(matches!(r, Err(CliError::Usage(_))), "{out}");
    }

    #[test]
    fn run_accepts_a_fault_plan() {
        let (r, out) = run(&[
            "run",
            "--strategy",
            "p-reduce",
            "--p",
            "2",
            "--workers",
            "4",
            "--max-updates",
            "60",
            "--eval-every",
            "30",
            "--threshold",
            "0.99",
            "--fault-plan",
            "crash:3@5,stall:1x2@2",
        ]);
        r.unwrap();
        assert!(out.contains("P-Reduce CON (P=2)"), "{out}");
    }

    #[test]
    fn malformed_fault_plan_is_an_error() {
        let (r, out) = run(&["run", "--workers", "4", "--fault-plan", "explode:1@2"]);
        assert!(matches!(r, Err(CliError::Usage(_))), "{out}");
    }

    #[test]
    fn flags_a_run_cannot_honour_are_usage_errors() {
        let all_reduce = ["run", "--strategy", "all-reduce"];
        // The controller refuses before it binds, so no listener is left.
        let controller = ["controller", "--listen", "127.0.0.1:0"];
        for (context, flag, value, names) in [
            (&all_reduce[..], "fault-plan", "crash:1@4", "p-reduce"),
            (&all_reduce[..], "checkpoint-dir", "d", "p-reduce"),
            (&all_reduce[..], "checkpoint-every", "8", "p-reduce"),
            (&all_reduce[..], "restore-from", "d", "p-reduce"),
            (&all_reduce[..], "backend", "threaded", "--backend sim"),
            (&["run", "--backend", "sim"][..], "iters", "5", "threaded"),
            (
                &["run", "--strategy", "p-reduce", "--backend", "threaded"][..],
                "fault-plan",
                "crash:1@4,restore:1@8",
                "simulator-only",
            ),
            (&controller[..], "checkpoint-dir", "d", "`run` or `worker`"),
            (
                &controller[..],
                "checkpoint-every",
                "8",
                "`run` or `worker`",
            ),
            (&controller[..], "restore-from", "d", "`run` or `worker`"),
        ] {
            let dashed = format!("--{flag}");
            let mut cmdline = context.to_vec();
            cmdline.extend_from_slice(&["--workers", "4", &dashed, value]);
            let (r, out) = run(&cmdline);
            let Err(e @ CliError::Args(ArgError::BadValue { .. })) = r else {
                panic!("{cmdline:?} was accepted: {out}");
            };
            assert_eq!(e.exit_code(), 2);
            let message = e.to_string();
            assert!(message.contains(&dashed), "{message}");
            assert!(message.contains(names), "{message}");
        }
    }

    #[test]
    fn threaded_trace_out_then_check_roundtrips_clean() {
        let dir = std::env::temp_dir().join("preduce-cli-threaded-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let path_str = path.to_str().unwrap();

        let (r, _) = run(&[
            "run",
            "--strategy",
            "p-reduce",
            "--p",
            "2",
            "--workers",
            "4",
            "--backend",
            "threaded",
            "--iters",
            "6",
            "--trace-out",
            path_str,
        ]);
        r.unwrap();

        let (r, out) = run(&["trace", "--check", path_str]);
        r.unwrap();
        assert!(out.contains("0 violation(s)"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_file_roundtrip_drives_a_run() {
        // Serialize a config, load it back through --config, run it.
        let args = Args::parse([
            "--workers",
            "4",
            "--max-updates",
            "40",
            "--eval-every",
            "40",
            "--threshold",
            "0.99",
        ])
        .unwrap();
        let config = config_from_args(&args).unwrap();
        let dir = std::env::temp_dir().join("preduce-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("exp.json");
        std::fs::write(&path, serde_json::to_string(&config).unwrap()).unwrap();

        let (r, out) = run(&[
            "run",
            "--strategy",
            "all-reduce",
            "--config",
            path.to_str().unwrap(),
        ]);
        r.unwrap();
        assert!(out.contains("All-Reduce"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flags_override_a_config_file() {
        let dir = std::env::temp_dir().join("preduce-cli-config-override");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("exp.json");
        let mut base = config_from_args(&Args::parse(Vec::<String>::new()).unwrap()).unwrap();
        base.max_updates = 777;
        std::fs::write(&path, serde_json::to_string(&base).unwrap()).unwrap();
        let args = Args::parse([
            "--config",
            path.to_str().unwrap(),
            "--model",
            "vgg19",
            "--preset",
            "cifar100-like",
            "--hl",
            "3",
            "--lr",
            "0.07",
            "--batch",
            "12",
            "--label-noise",
            "0.2",
        ])
        .unwrap();
        let c = config_from_args(&args).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(c.model.name, "vgg19");
        assert_eq!(c.preset.name, "cifar100-like");
        assert!(
            matches!(c.hetero, HeteroSpec::GpuSharing { hl: 3 }),
            "{:?}",
            c.hetero
        );
        assert_eq!(c.sgd.lr, 0.07);
        assert_eq!(c.math_batch_size, 12);
        assert_eq!(c.label_noise, 0.2);
        // What no flag names comes from the file.
        assert_eq!(c.max_updates, 777);
    }

    #[test]
    fn trace_out_then_check_roundtrips_clean() {
        let dir = std::env::temp_dir().join("preduce-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let path_str = path.to_str().unwrap();

        let (r, _) = run(&[
            "run",
            "--strategy",
            "p-reduce",
            "--p",
            "2",
            "--workers",
            "4",
            "--max-updates",
            "60",
            "--eval-every",
            "30",
            "--threshold",
            "0.99",
            "--trace-out",
            path_str,
        ]);
        r.unwrap();

        let (r, out) = run(&["trace", "--check", path_str]);
        r.unwrap();
        assert!(out.contains("0 violation(s)"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_trace_the_device_refused_fails_the_run() {
        // Every write to /dev/full fails, so the trace is lost whole.
        const FULL: &str = "/dev/full";
        if !std::path::Path::new(FULL).exists() {
            return;
        }
        let (r, out) = run(&[
            "run",
            "--strategy",
            "p-reduce",
            "--p",
            "2",
            "--workers",
            "4",
            "--max-updates",
            "40",
            "--trace-out",
            FULL,
        ]);
        let Err(e) = r else {
            panic!("a lost trace went unreported: {out}");
        };
        assert_eq!(e.exit_code(), 3, "{e}");
        assert!(e.to_string().contains(FULL), "{e}");
    }

    #[test]
    fn trace_check_flags_a_corrupted_trace() {
        use partial_reduce::TraceEvent;

        let dir = std::env::temp_dir().join("preduce-cli-trace-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        // A group without RunStarted, with a duplicate member and a weight
        // row that does not sum to 1.
        let ev = TraceEvent::GroupFormed {
            sequence: 0,
            members: vec![1, 1],
            iterations: vec![2, 2],
            weights: vec![0.9, 0.9],
            new_iteration: 2,
            repaired: false,
        };
        std::fs::write(&path, serde_json::to_string(&ev).unwrap() + "\n").unwrap();

        let (r, out) = run(&["trace", "--check", path.to_str().unwrap()]);
        assert!(matches!(r, Err(CliError::Invariant(_))), "{out}");
        assert!(out.contains("duplicate members"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_without_check_flag_is_an_error() {
        let command = Command::from_name("trace").unwrap();
        let args = Args::parse([] as [&str; 0]).unwrap();
        let mut out = Vec::new();
        let r = run_command(command, &args, &mut out);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn missing_config_file_is_a_clean_error() {
        let command = Command::from_name("run").unwrap();
        let args = Args::parse(["--config", "/nonexistent/exp.json"]).unwrap();
        let mut out = Vec::new();
        let r = run_command(command, &args, &mut out);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn unknown_strategy_is_an_error() {
        let command = Command::from_name("run").unwrap();
        let args = Args::parse(["--strategy", "magic"]).unwrap();
        let mut out = Vec::new();
        let r = run_command(command, &args, &mut out);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn controller_and_worker_subcommands_parse() {
        assert_eq!(
            Command::from_name("controller").unwrap(),
            Command::Controller
        );
        assert_eq!(Command::from_name("worker").unwrap(), Command::Worker);
        let (_, out) = run(&["help"]);
        assert!(out.contains("preduce controller"), "{out}");
        assert!(out.contains("preduce worker"), "{out}");
    }

    #[test]
    fn worker_without_connect_is_an_error() {
        let (r, out) = run(&["worker", "--rank", "0"]);
        assert!(matches!(r, Err(CliError::Usage(_))), "{out}");
    }

    #[test]
    fn worker_without_rank_is_an_error() {
        let (r, out) = run(&["worker", "--connect", "127.0.0.1:1"]);
        assert!(matches!(r, Err(CliError::Usage(_))), "{out}");
    }

    #[test]
    fn worker_with_unparseable_rank_is_an_error() {
        let (r, out) = run(&["worker", "--connect", "127.0.0.1:1", "--rank", "zero"]);
        assert!(matches!(r, Err(CliError::Args(_))), "{out}");
    }

    #[test]
    fn worker_with_bad_address_is_an_error() {
        let (r, out) = run(&["worker", "--connect", "nowhere", "--rank", "0"]);
        assert!(matches!(r, Err(CliError::Usage(_))), "{out}");
    }

    #[test]
    fn worker_rank_outside_fleet_is_a_usage_error() {
        // The rank check fires before dialing, so no controller is needed.
        let (r, out) = run(&[
            "worker",
            "--connect",
            "127.0.0.1:1",
            "--rank",
            "9",
            "--workers",
            "2",
        ]);
        assert!(matches!(r, Err(CliError::Usage(_))), "{out}");
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(matches!(
            Command::from_name("frobnicate"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn a_usage_error_calls_only_a_name_unknown() {
        for (cmdline, names_a_name) in [
            (&["run", "--strategy", "magic"][..], true),
            (&["run", "--model", "nosuch"][..], true),
            (&["run", "--backend", "mpi"][..], true),
            (&["scale", "--hetero", "quantum"][..], true),
            (&["run", "--workers", "8", "--p", "9"][..], false),
            (
                &["run", "--workers", "4", "--fault-plan", "crash:99@1"][..],
                false,
            ),
            (
                &["run", "--workers", "4", "--fault-plan", "stall:0x-1"][..],
                false,
            ),
            (&["controller", "--miss-threshold", "0"][..], false),
            (
                &["spectral", "--workers", "3", "--slow", "1,0,2"][..],
                false,
            ),
            (&["scale", "--signals", "0"][..], false),
        ] {
            let (r, out) = run(cmdline);
            let Err(e @ CliError::Usage(_)) = r else {
                panic!("{cmdline:?} was not a usage error: {out}");
            };
            let msg = e.to_string();
            assert_eq!(msg.contains("unknown"), names_a_name, "{cmdline:?}: {msg}");
        }
    }

    #[test]
    fn exit_codes_distinguish_failure_modes() {
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(CliError::Internal("x".into()).exit_code(), 3);
        assert_eq!(CliError::Invariant(2).exit_code(), 4);
        assert_eq!(CliError::Claims(vec!["fig4.homogeneous"]).exit_code(), 4);
    }

    #[test]
    fn reproduce_an_unknown_figure_names_every_id() {
        let (r, out) = run(&["reproduce", "nosuch"]);
        let Err(e @ CliError::Usage(_)) = r else {
            panic!("accepted: {out}");
        };
        assert_eq!(e.exit_code(), 2);
        let msg = e.to_string();
        for id in paper::ids() {
            assert!(msg.contains(id), "{msg}");
        }
        assert!(matches!(run(&["reproduce"]).0, Err(CliError::Usage(_))));
    }

    #[test]
    fn reproduce_takes_no_flag_and_other_commands_no_operand() {
        let (r, _) = run(&["reproduce", "fig4", "--json", "true"]);
        assert!(matches!(r, Err(CliError::Args(_))));
        let (r, _) = run(&["list", "fig4"]);
        assert!(matches!(r, Err(CliError::Args(_))));
    }

    #[test]
    fn a_flag_the_command_never_reads_is_a_usage_error() {
        for cmdline in [
            &["run", "--workers", "4", "--max-update", "10"][..],
            &["run", "--strategy", "all-reduce", "--backups", "2"][..],
            &["run", "--strategy", "ps-bk", "--p", "2"][..],
            &["scale", "--signalz", "50"][..],
            &["list", "--json", "true"][..],
        ] {
            let (r, out) = run(cmdline);
            let Err(e @ CliError::Args(ArgError::Unread(_))) = r else {
                panic!("{cmdline:?} was accepted: {out}");
            };
            assert_eq!(e.exit_code(), 2);
            assert!(out.is_empty(), "{cmdline:?} started work: {out}");
        }
    }

    /// The `--flag` names `text` mentions.
    fn flag_names(text: &str) -> std::collections::BTreeSet<&str> {
        text.split("--")
            .skip(1)
            .filter_map(|t| {
                t.split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                    .next()
            })
            .filter(|f| f.starts_with(|c: char| c.is_ascii_lowercase()))
            .collect()
    }

    #[test]
    fn readme_run_table_and_usage_run_synopsis_name_the_same_flags() {
        let readme = include_str!("../../../README.md");
        let table: Vec<&str> = readme
            .split("`preduce run` flags")
            .nth(1)
            .unwrap()
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .filter_map(|row| row.split('|').nth(1))
            .collect();
        let synopsis = USAGE
            .split("preduce run")
            .nth(1)
            .and_then(|s| s.split("preduce controller").next())
            .unwrap();
        let documented = flag_names(synopsis);
        assert!(documented.contains("label-noise"), "{documented:?}");
        assert_eq!(flag_names(&table.join(" ")), documented);
    }

    #[test]
    fn reproduce_fig4_prints_the_exact_rho_values() {
        let (r, out) = run(&["reproduce", "fig4"]);
        r.unwrap();
        assert!(out.contains("0.5000"), "{out}");
        assert!(out.contains("0.6250"), "{out}");
        assert!(out.contains("| `fig4.homogeneous` |"), "{out}");
    }
}
