//! Process-level end-to-end suite (DESIGN.md §12): a real `preduce
//! controller` process serving real `preduce worker` child processes
//! over TCP on loopback.
//!
//! Flake hardening baked into the harness:
//! * every listener binds port 0; the controller's `listening on ADDR`
//!   line propagates the chosen port to the workers;
//! * every child is watched by a wall-clock guard ([`Proc::wait`] /
//!   [`Proc::await_line`]) that kills the process and dumps its captured
//!   stdout/stderr instead of letting the test hang.
//!
//! Run these with `--test-threads=1` (the CI smoke job does): each test
//! spawns a 5-process fleet and the box should not oversubscribe.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use partial_reduce::read_jsonl;
use preduce_cli::args::Args;
use preduce_cli::commands::config_from_args;
use preduce_trainer::replay::replay;

/// The binary under test, built by cargo for this test run.
const BIN: &str = env!("CARGO_BIN_EXE_preduce");
/// Budget for startup events (bind + handshake).
const STARTUP: Duration = Duration::from_secs(30);
/// Budget for a full run to completion.
const RUN: Duration = Duration::from_secs(120);
/// Fleet size for every test.
const N: usize = 4;

/// A spawned child with captured output and hang guards.
struct Proc {
    name: String,
    child: Child,
    lines: Receiver<String>,
    stdout: Arc<Mutex<String>>,
    stderr: Arc<Mutex<String>>,
    readers: Vec<thread::JoinHandle<()>>,
}

impl Proc {
    fn spawn(name: &str, args: &[&str]) -> Proc {
        let mut child = Command::new(BIN)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {name} ({BIN}): {e}"));
        let (tx, lines) = mpsc::channel();
        let stdout = Arc::new(Mutex::new(String::new()));
        let stderr = Arc::new(Mutex::new(String::new()));

        let pipe = child.stdout.take().expect("piped stdout");
        let sink = Arc::clone(&stdout);
        let out_reader = thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(|l| l.ok()) {
                {
                    let mut s = sink.lock().unwrap();
                    s.push_str(&line);
                    s.push('\n');
                }
                let _ = tx.send(line);
            }
        });
        let pipe = child.stderr.take().expect("piped stderr");
        let sink = Arc::clone(&stderr);
        let err_reader = thread::spawn(move || {
            let mut buf = String::new();
            let _ = BufReader::new(pipe).read_to_string(&mut buf);
            *sink.lock().unwrap() = buf;
        });

        Proc {
            name: name.to_string(),
            child,
            lines,
            stdout,
            stderr,
            readers: vec![out_reader, err_reader],
        }
    }

    /// Captured output so far, for failure dumps.
    fn dump(&self) -> String {
        format!(
            "--- {n} stdout ---\n{o}--- {n} stderr ---\n{e}",
            n = self.name,
            o = self.stdout.lock().unwrap(),
            e = self.stderr.lock().unwrap()
        )
    }

    /// Returns the first stdout line matching `pred`, or kills the
    /// process and fails the test with its output after `timeout`.
    fn await_line(&mut self, pred: impl Fn(&str) -> bool, timeout: Duration) -> String {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match self.lines.recv_timeout(left) {
                Ok(l) if pred(&l) => return l,
                Ok(_) => continue,
                Err(_) => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        panic!(
            "{}: expected line never arrived within {timeout:?}\n{}",
            self.name,
            self.dump()
        );
    }

    /// Waits for exit within `timeout` (the hang guard: kill + dump on
    /// expiry). Returns (exited cleanly, full stdout, full dump).
    fn wait(mut self, timeout: Duration) -> (bool, String, String) {
        let deadline = Instant::now() + timeout;
        let status = loop {
            match self.child.try_wait().expect("try_wait") {
                Some(s) => break s,
                None if Instant::now() >= deadline => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    for r in self.readers.drain(..) {
                        let _ = r.join();
                    }
                    panic!("{} hung past {timeout:?}\n{}", self.name, self.dump());
                }
                None => thread::sleep(Duration::from_millis(25)),
            }
        };
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
        let out = self.stdout.lock().unwrap().clone();
        let dump = self.dump();
        (status.success(), out, dump)
    }

    /// SIGKILLs the process (the fail-stop fault for the negative test).
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        // A test failure must not leak children into the CI box.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `key=` token of a status line like
/// `worker rank=0 iterations=7 accuracy=0.5123 degraded=0 params=…`.
fn token<'a>(line: &'a str, key: &str) -> &'a str {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no `{key}=` in `{line}`"))
}

/// Parses a numeric `key=value` out of a status line.
fn field(line: &str, key: &str) -> f64 {
    token(line, key)
        .parse()
        .unwrap_or_else(|e| panic!("bad `{key}` in `{line}`: {e}"))
}

/// Fresh per-test scratch path (the OS tempdir outlives the test; names
/// are unique per process + label so `--test-threads=1` reruns are safe).
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("preduce-mp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(label)
}

/// Starts a controller on port 0 and returns (proc, bound address).
fn start_controller(name: &str, extra: &[&str]) -> (Proc, String) {
    let mut args = vec![
        "controller",
        "--listen",
        "127.0.0.1:0",
        "--workers",
        "4",
        "--p",
        "2",
        "--model",
        "resnet18",
    ];
    args.extend_from_slice(extra);
    let mut proc = Proc::spawn(name, &args);
    let line = proc.await_line(|l| l.starts_with("listening on "), STARTUP);
    let addr = line.trim_start_matches("listening on ").trim().to_string();
    addr.parse::<SocketAddr>()
        .unwrap_or_else(|e| panic!("unparseable listen address `{addr}`: {e}"));
    (proc, addr)
}

/// Starts worker `rank` for a fleet of `workers` (the controller's is
/// always [`N`]).
fn start_worker(rank: usize, addr: &str, iters: &str, workers: &str) -> Proc {
    let rank_s = rank.to_string();
    Proc::spawn(
        &format!("worker-{rank}"),
        &[
            "worker",
            "--connect",
            addr,
            "--rank",
            &rank_s,
            "--workers",
            workers,
            "--model",
            "resnet18",
            "--iters",
            iters,
        ],
    )
}

/// Runs `preduce trace --check` on a recorded trace as a separate
/// process, exactly as a user would.
fn check_trace(path: &std::path::Path) {
    let trace = path.to_str().expect("utf-8 trace path");
    let (ok, _out, dump) = Proc::spawn("trace-check", &["trace", "--check", trace]).wait(STARTUP);
    assert!(ok, "trace --check rejected {trace}\n{dump}");
}

/// What the workers' final models must be: the trace's decisions replayed
/// over the fleet every worker process rebuilds from the same flags.
fn replayed(trace: &std::path::Path) -> Vec<u64> {
    let args = Args::parse(["--model", "resnet18", "--workers", "4"]).expect("replay args");
    let config = config_from_args(&args).expect("replay config");
    replay(&config, &read_jsonl(trace).expect("trace reads back"))
}

/// One full fleet run: controller + 4 worker processes to completion.
/// Returns (per-rank final-model hashes, controller done-line, trace path).
fn run_fleet(label: &str, dynamic: bool) -> (Vec<u64>, String, PathBuf) {
    let trace = scratch(&format!("{label}.jsonl"));
    let trace_s = trace.to_str().expect("utf-8 trace path").to_string();
    let mut extra = vec!["--trace-out", trace_s.as_str()];
    if dynamic {
        extra.extend_from_slice(&["--dynamic", "true"]);
    }
    let (controller, addr) = start_controller(&format!("{label}-controller"), &extra);

    let workers: Vec<Proc> = (0..N).map(|r| start_worker(r, &addr, "6", "4")).collect();
    let mut hashes = vec![0; N];
    for w in workers {
        let name = w.name.clone();
        let (ok, out, dump) = w.wait(RUN);
        assert!(ok, "{name} exited nonzero\n{dump}");
        let line = out
            .lines()
            .find(|l| l.starts_with("worker rank="))
            .unwrap_or_else(|| panic!("{name} printed no report\n{dump}"));
        let rank = field(line, "rank") as usize;
        assert_eq!(
            field(line, "degraded") as u64,
            0,
            "clean run degraded: {line}"
        );
        // A CON worker keeps its own count; a DYN one adopts group maxima.
        let iterations = field(line, "iterations") as u64;
        if dynamic {
            assert!(iterations >= 6, "{line}");
        } else {
            assert_eq!(iterations, 6, "{line}");
        }
        assert!(field(line, "accuracy").is_finite(), "{line}");
        hashes[rank] = u64::from_str_radix(token(line, "params"), 16)
            .unwrap_or_else(|e| panic!("bad params hash in `{line}`: {e}"));
    }

    let (ok, out, dump) = controller.wait(RUN);
    assert!(ok, "controller exited nonzero\n{dump}");
    let done = out
        .lines()
        .find(|l| l.starts_with("controller done:"))
        .unwrap_or_else(|| panic!("controller printed no summary\n{dump}"))
        .to_string();
    (hashes, done, trace)
}

#[test]
fn con_fleet_matches_its_replay_and_trace_checks() {
    let (hashes, done, trace) = run_fleet("mp-con", false);
    assert!(field(&done, "groups") > 0.0, "{done}");
    assert_eq!(field(&done, "evictions") as u64, 0, "{done}");
    // Every process's model is what the controller's decisions imply, bit
    // for bit, whichever member led each TCP star.
    assert_eq!(replayed(&trace), hashes);
    check_trace(&trace);
}

#[test]
fn dyn_fleet_matches_its_replay_and_trace_checks() {
    let (hashes, done, trace) = run_fleet("mp-dyn", true);
    assert!(field(&done, "groups") > 0.0, "{done}");
    assert_eq!(replayed(&trace), hashes);
    check_trace(&trace);
}

/// The negative path: one worker is SIGKILLed mid-run. The controller
/// must evict it (socket death surfaces as `ProcessDisconnected`, or the
/// heartbeat sweep catches it), the survivors must finish, and the
/// recorded trace must still satisfy every invariant.
#[test]
fn killed_worker_is_evicted_and_trace_stays_valid() {
    let trace = scratch("mp-kill.jsonl");
    let trace_s = trace.to_str().expect("utf-8 trace path").to_string();
    let (controller, addr) = start_controller(
        "kill-controller",
        &[
            "--trace-out",
            trace_s.as_str(),
            "--liveness-ms",
            "50",
            "--miss-threshold",
            "4",
        ],
    );

    let survivors: Vec<Proc> = (0..N - 1)
        .map(|r| start_worker(r, &addr, "40", "4"))
        .collect();
    // The victim's budget is effectively infinite: only eviction ends it.
    let victim = start_worker(N - 1, &addr, "1000000", "4");

    // Let the fleet assemble and trade a few rounds, then fail-stop the
    // victim. (If the kill ever landed before the victim's handshake,
    // the controller's accept would error out — a loud failure, not a
    // hang.)
    thread::sleep(Duration::from_secs(3));
    victim.kill();

    for s in survivors {
        let name = s.name.clone();
        let (ok, out, dump) = s.wait(RUN);
        assert!(ok, "{name} exited nonzero\n{dump}");
        // Survivors may degrade on rounds that grouped them with the
        // corpse; they must still complete their budget, and under the CON
        // controller end exactly there.
        let line = out
            .lines()
            .find(|l| l.starts_with("worker rank="))
            .unwrap_or_else(|| panic!("{name} printed no report\n{dump}"));
        assert_eq!(field(line, "iterations") as u64, 40, "{line}");
    }

    let (ok, out, dump) = controller.wait(RUN);
    assert!(ok, "controller exited nonzero\n{dump}");
    let done = out
        .lines()
        .find(|l| l.starts_with("controller done:"))
        .unwrap_or_else(|| panic!("controller printed no summary\n{dump}"));
    assert!(
        field(done, "evictions") as u64 >= 1,
        "victim was never evicted: {done}"
    );

    let recorded = std::fs::read_to_string(&trace).expect("read trace");
    assert!(
        recorded.contains("ProcessDisconnected") || recorded.contains("HeartbeatMissed"),
        "no death evidence in trace"
    );
    assert!(recorded.contains("WorkerEvicted"), "no eviction in trace");
    check_trace(&trace);
}

/// Workers started with another `--workers` than the controller's hold a
/// replica and a data shard cut for another fleet: each refuses the
/// roster before it trains, naming both sizes, and exits nonzero.
#[test]
fn a_worker_configured_for_another_fleet_size_is_refused() {
    let (controller, addr) = start_controller("size-controller", &[]);
    let workers: Vec<Proc> = (0..N).map(|r| start_worker(r, &addr, "6", "8")).collect();
    for w in workers {
        let name = w.name.clone();
        let (ok, out, dump) = w.wait(RUN);
        assert!(!ok, "{name} trained on a roster for another fleet\n{dump}");
        assert!(
            !out.contains("worker rank="),
            "{name} reported a run\n{dump}"
        );
        assert!(
            dump.contains("roster has 4 workers") && dump.contains("configured for 8"),
            "{name} did not name both sizes\n{dump}"
        );
    }
    // Every refusing worker hung up, so the controller evicts them all.
    let (ok, out, dump) = controller.wait(RUN);
    assert!(ok, "controller exited nonzero\n{dump}");
    let done = out
        .lines()
        .find(|l| l.starts_with("controller done:"))
        .unwrap_or_else(|| panic!("controller printed no summary\n{dump}"));
    assert_eq!(field(done, "groups") as u64, 0, "{done}");
    assert_eq!(field(done, "evictions") as u64, N as u64, "{done}");
}
