//! Malformed input is a usage error: the `preduce` binary exits 2 with a
//! one-line message, never a panic's 101 and backtrace.

use std::process::Command;

/// The binary under test, built by cargo for this test run.
const BIN: &str = env!("CARGO_BIN_EXE_preduce");

/// Every case is checked before any fleet is built: `spectral`'s fleet
/// shape, and the experiment configuration `run`, `controller` and
/// `worker` share, with the fleet shape their strategy needs; the
/// controller's listen address and miss threshold, and the worker's rank.
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
        vec!["run", "--strategy", "d-psgd", "--workers", "2"],
        vec!["run", "--strategy", "ad-psgd", "--workers", "1"],
    ];
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
}
