//! Malformed input is a usage error: the `preduce` binary exits 2 with a
//! one-line message, never a panic's 101 and backtrace.

use std::process::Command;

/// The binary under test, built by cargo for this test run.
const BIN: &str = env!("CARGO_BIN_EXE_preduce");

#[test]
fn spectral_refuses_malformed_fleets_as_usage_errors() {
    let cases: [&[&str]; 6] = [
        &["--workers", "3", "--slow", "1,0,2"],
        &["--workers", "3", "--slow", "1,inf,2"],
        &["--workers", "2", "--p", "3"],
        &["--workers", "3", "--p", "1"],
        &["--workers", "3", "--p", "2", "--rounds", "0"],
        &["--workers", "0"],
    ];
    for args in cases {
        let out = Command::new(BIN)
            .arg("spectral")
            .args(args)
            .output()
            .expect("spawn preduce");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "spectral {args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "spectral {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "spectral {args:?}: {stderr}");
    }
}
