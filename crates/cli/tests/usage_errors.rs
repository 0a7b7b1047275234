//! Malformed input is a usage error: the `preduce` binary exits 2 with a
//! one-line message, never a panic's 101 and backtrace.

use std::process::Command;

use preduce_cli::commands::config_from_args;
use preduce_cli::Args;
use preduce_trainer::{ExperimentConfig, HeteroSpec};

/// The binary under test, built by cargo for this test run.
const BIN: &str = env!("CARGO_BIN_EXE_preduce");

/// Every case is checked before any fleet is built: `spectral`'s fleet
/// shape, and the experiment configuration `run`, `controller` and
/// `worker` share, with the fleet shape their strategy needs; the
/// controller's listen address and miss threshold, the worker's rank, a
/// fault plan outside the fleet or with a non-finite value, a strategy
/// name outside the paper's lineup, a flag the command never reads, and
/// a `--config` file whose fleet, model, dataset or network the
/// constructors would refuse.
#[test]
fn malformed_fleets_and_configurations_are_usage_errors() {
    let mut cases: Vec<Vec<&str>> = vec![
        vec!["spectral", "--workers", "3", "--slow", "1,0,2"],
        vec!["spectral", "--workers", "3", "--slow", "1,inf,2"],
        vec!["spectral", "--workers", "2", "--p", "3"],
        vec!["spectral", "--workers", "3", "--p", "1"],
        vec!["spectral", "--workers", "3", "--p", "2", "--rounds", "0"],
        vec!["spectral", "--workers", "0"],
        vec!["run", "--workers", "8", "--p", "9"],
        vec!["run", "--workers", "8", "--p", "1"],
        vec!["controller", "--workers", "8", "--p", "9"],
        vec!["controller", "--workers", "8", "--p", "1"],
        vec![
            "controller",
            "--listen",
            "notanaddr",
            "--workers",
            "2",
            "--p",
            "2",
        ],
        vec!["controller", "--miss-threshold", "0"],
        vec![
            "worker",
            "--connect",
            "127.0.0.1:9",
            "--rank",
            "7",
            "--workers",
            "4",
        ],
        vec!["run", "--workers", "4", "--hl", "9"],
        vec![
            "run",
            "--workers",
            "8",
            "--strategy",
            "ps-bk",
            "--backups",
            "8",
        ],
        vec!["run", "--strategy", "ad-psgd", "--workers", "1"],
        // Retired strategies: the names are unknown, not run.
        vec!["run", "--max-updates", "1", "--strategy", "d-psgd"],
        vec!["run", "--max-updates", "1", "--strategy", "ps-ssp"],
        // A flag no command reads, and a misspelt one, are refused.
        vec!["run", "--max-updates", "1", "--bound", "4"],
        vec!["run", "--workers", "4", "--max-update", "10"],
        vec!["scale", "--workers", "8", "--p", "2", "--signalz", "50"],
    ];
    // Fault plans outside the fleet or with values no clock can hold.
    for plan in [
        "stall:0x-1",
        "delay:0+inf",
        "delay:0+-2",
        "latejoin:1+NaN",
        "crash:99@1",
    ] {
        cases.push(vec![
            "run",
            "--workers",
            "4",
            "--p",
            "2",
            "--fault-plan",
            plan,
        ]);
    }
    cases.push(vec![
        "run",
        "--workers",
        "4",
        "--p",
        "2",
        "--fault-plan",
        "restore:9@3",
        "--checkpoint-dir",
        "never-created",
    ]);
    let configs: [&[&str]; 8] = [
        &["--workers", "0"],
        &["--batch", "0"],
        &["--threshold", "2"],
        &["--max-updates", "0"],
        &["--eval-every", "0"],
        &["--label-noise", "2"],
        &["--lr", "nan"],
        &["--lr", "-5"],
    ];
    for command in ["run", "controller", "worker"] {
        for flags in configs {
            let mut case = vec![command];
            if command == "worker" {
                // Refused before dialing: nothing listens here.
                case.extend(["--connect", "127.0.0.1:9", "--rank", "0"]);
            }
            case.extend(flags);
            cases.push(case);
        }
    }
    let dir = std::env::temp_dir().join(format!("preduce-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mut files = Vec::new();
    for (name, breaks) in MALFORMED_CONFIGS {
        let mut c = config_from_args(&Args::parse(["--workers", "4"]).expect("args"))
            .expect("the base config is valid");
        breaks(&mut c);
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, serde_json::to_string(&c).expect("serialize")).expect("write config");
        files.push(path.to_str().expect("utf-8 path").to_string());
    }
    for file in &files {
        cases.push(vec!["run", "--config", file]);
    }
    for args in cases {
        let out = Command::new(BIN)
            .args(&args)
            .output()
            .expect("spawn preduce");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Finite fault-plan values too large for a `Duration`, which the
/// threaded backend sleeps, are refused on both backends before anything
/// runs, naming the plan.
#[test]
fn fault_plan_values_no_clock_holds_are_refused_on_both_backends() {
    for plan in ["delay:0+1e300", "stall:0x1e300", "latejoin:1+1e300"] {
        for backend in [
            &["--backend", "sim"][..],
            &["--backend", "threaded", "--iters", "3"],
        ] {
            let out = Command::new(BIN)
                .args(["run", "--workers", "4", "--p", "2", "--fault-plan", plan])
                .args(backend)
                .output()
                .expect("spawn preduce");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{plan} {backend:?}: {stderr}");
            assert!(
                stderr.starts_with(&format!("error: --fault-plan {plan}")),
                "{plan} {backend:?}: {stderr}"
            );
            assert_eq!(stderr.lines().count(), 1, "{plan} {backend:?}: {stderr}");
        }
    }
}

/// Delays that each fit a `Duration` but add up over the rounds carry the
/// simulator's virtual time past what its failure detector's clock holds
/// before the crash it must watch: the run ends with the typed error, exit
/// 2 and one line, not a panic in the clock conversion.
#[test]
fn a_crash_past_the_detector_clock_ends_the_run_with_an_error() {
    let out = Command::new(BIN)
        .args(["run", "--workers", "4", "--p", "2", "--max-updates", "40"])
        .args(["--fault-plan", "delay:0+1e19,crash:0@3"])
        .output()
        .expect("spawn preduce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: a worker crashed at virtual time"),
        "{stderr}"
    );
    assert!(stderr.contains("failure detector's clock"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

/// A `restore:` of a worker that crashed before its first snapshot finds
/// nothing to load: the run ends with the typed error naming the worker
/// and the missing file, exit 2 and one line, not a panic.
#[test]
fn a_restore_without_a_snapshot_ends_the_run_with_an_error() {
    let dir = std::env::temp_dir().join(format!("preduce-restore-{}", std::process::id()));
    let out = Command::new(BIN)
        .args(["run", "--workers", "6", "--p", "3", "--dynamic", "true"])
        .args(["--seed", "2", "--hl", "3", "--max-updates", "32"])
        .args(["--eval-every", "8", "--batch", "8"])
        .arg("--checkpoint-dir")
        .arg(&dir)
        .args(["--checkpoint-every", "2"])
        .args(["--fault-plan", "crash:1@3,restore:1@12"])
        .output()
        .expect("spawn preduce");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: cannot restore worker 1: no snapshot at"),
        "{stderr}"
    );
    assert!(stderr.contains("worker-1.ckpt"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

/// A DYN trace's `RunStarted` line with `edit` applied, then one group of
/// members whose iterations lie `gap` apart, weighted as `weights`.
fn forged_trace(edit: (&str, &str), gap: u64, weights: &str) -> String {
    let started = r#"{"RunStarted":{"config":{"num_workers":2,"group_size":2,"mode":{"Dynamic":{"alpha":0.3,"gap_policy":"Initial"}},"history_window":null,"frozen_avoidance":true},"liveness":{"interval_us":25000,"miss_threshold":8}}}"#;
    let last = 1 + gap;
    format!(
        "{}\n\
         {{\"SignalEnqueued\":{{\"worker\":0,\"iteration\":1,\"queued\":1}}}}\n\
         {{\"SignalEnqueued\":{{\"worker\":1,\"iteration\":{last},\"queued\":2}}}}\n\
         {{\"GroupFormed\":{{\"sequence\":0,\"members\":[0,1],\"iterations\":[1,{last}],\
         \"weights\":{weights},\"new_iteration\":{last},\"repaired\":false}}}}\n",
        started.replace(edit.0, edit.1)
    )
}

/// A trace whose `RunStarted` the controller would refuse, or whose DYN
/// group is 2^40 iterations wide, is judged at once: exit 4 naming the
/// broken rule, never a panic or a hang.
#[test]
fn forged_traces_are_refused_not_crashed() {
    let far = 1u64 << 40;
    let cases = [
        (
            ("\"alpha\":0.3", "\"alpha\":1.5"),
            1,
            "[0.3,0.7]",
            "EMA decay",
        ),
        (
            ("\"history_window\":null", "\"history_window\":0"),
            1,
            "[0.3,0.7]",
            "window",
        ),
        (
            ("\"miss_threshold\":8", "\"miss_threshold\":0"),
            1,
            "[0.3,0.7]",
            "miss threshold",
        ),
        (("", ""), far, "[0.5,0.5]", "mode-prescribed"),
        // A decay this close to 1 would cost the wide group's Eq. 9 row
        // seconds of terms; the rule refuses it before any weight check.
        (
            ("\"alpha\":0.3", "\"alpha\":0.999999999999"),
            far,
            "[0.3,0.7]",
            "invalid configuration: EMA decay must lie in (0, 0.99]",
        ),
    ];
    let dir = std::env::temp_dir().join(format!("preduce-forged-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for (i, (edit, gap, weights, rule)) in cases.into_iter().enumerate() {
        let path = dir.join(format!("forged-{i}.jsonl"));
        std::fs::write(&path, forged_trace(edit, gap, weights)).expect("write trace");
        let started = std::time::Instant::now();
        let out = Command::new(BIN)
            .args(["trace", "--check", path.to_str().expect("utf-8 path")])
            .output()
            .expect("spawn preduce");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert_eq!(out.status.code(), Some(4), "{rule}: {stdout}{stderr}");
        assert!(stdout.contains(rule), "{rule}: {stdout}");
        assert!(
            started.elapsed().as_secs() < 10,
            "{rule}: took {:?}",
            started.elapsed()
        );
    }
    // The wide group with its Eq. 9 row is clean.
    let path = dir.join("wide.jsonl");
    std::fs::write(&path, forged_trace(("", ""), far, "[0.3,0.7]")).expect("write trace");
    let out = Command::new(BIN)
        .args(["trace", "--check", path.to_str().expect("utf-8 path")])
        .output()
        .expect("spawn preduce");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A named edit that breaks a valid configuration.
type Breakage = (&'static str, fn(&mut ExperimentConfig));

/// Configurations `ExperimentConfig::check` refuses that the fleet, model,
/// dataset and network constructors would otherwise assert on.
const MALFORMED_CONFIGS: [Breakage; 6] = [
    ("speed-fleet-short", |c| {
        c.hetero = HeteroSpec::Speed {
            multipliers: vec![1.0, 2.0],
        }
    }),
    ("production-p-degrade", |c| {
        c.hetero = HeteroSpec::Production {
            p_degrade: 2.0,
            p_recover: 0.25,
            slow_factor: 8.0,
        }
    }),
    ("negative-bandwidth", |c| c.network.bandwidth = -1.0),
    ("zero-hidden-width", |c| c.model.hidden[0] = 0),
    ("zero-classes", |c| c.preset.config.num_classes = 0),
    ("no-training-set", |c| {
        c.preset.test_size = c.preset.config.num_samples;
    }),
];
