//! Fixture-driven integration tests: every pass over a known-bad and a
//! known-good source (exact finding counts), the allow grammar, the real
//! workspace (must be clean), and the binary's exit-code contract.
//!
//! The fixtures under `tests/fixtures/` are never compiled; they are
//! scanned as text under pretend in-scope paths.

use std::path::Path;
use std::process::Command;

use preduce_analysis::passes::event_conformance::EventConformance;
use preduce_analysis::passes::lock_discipline::LockDiscipline;
use preduce_analysis::scan::SourceFile;
use preduce_analysis::{allow, passes, run_check, Finding};

/// Feeds `raw` pass findings through the allow machinery, the same way
/// `run_check` does for a whole file.
fn with_allows(file: &SourceFile, raw: Vec<Finding>) -> Vec<Finding> {
    let (allows, mut findings) = allow::collect_allows(file, passes::ALL);
    findings.extend(allow::apply_allows(raw, &file.path, &allows));
    findings.sort_by_key(|f| f.line);
    findings
}

#[test]
fn lock_discipline_bad_fixture_yields_exactly_three() {
    let f = SourceFile::from_source(
        "crates/comm/src/tcp.rs",
        include_str!("fixtures/lock_discipline_bad.rs"),
    );
    let mut pass = LockDiscipline::new();
    pass.scan_file(&f);
    let got = pass.finish();
    assert_eq!(got.len(), 3, "{got:#?}");
    assert_eq!(
        got.iter()
            .filter(|g| g.message.contains("inversion"))
            .count(),
        2,
        "{got:#?}"
    );
    assert_eq!(
        got.iter()
            .filter(|g| g.message.contains("blocking"))
            .count(),
        1,
        "{got:#?}"
    );
}

#[test]
fn lock_discipline_good_fixture_is_clean() {
    let f = SourceFile::from_source(
        "crates/comm/src/tcp.rs",
        include_str!("fixtures/lock_discipline_good.rs"),
    );
    let mut pass = LockDiscipline::new();
    pass.scan_file(&f);
    let got = pass.finish();
    assert!(got.is_empty(), "{got:#?}");
}

#[test]
fn weights_bad_fixture_yields_exactly_two() {
    let f = SourceFile::from_source(
        "crates/trainer/src/engine/setup.rs",
        include_str!("fixtures/weights_bad.rs"),
    );
    let got = with_allows(&f, passes::weight_stochasticity::run(&f));
    assert_eq!(got.len(), 2, "{got:#?}");
    assert!(got.iter().any(|g| g.message.contains("uniform weight row")));
    assert!(got
        .iter()
        .any(|g| g.message.contains("outside `core::weights`")));
}

#[test]
fn weights_good_fixture_is_clean() {
    let f = SourceFile::from_source(
        "crates/trainer/src/engine/setup.rs",
        include_str!("fixtures/weights_good.rs"),
    );
    let got = with_allows(&f, passes::weight_stochasticity::run(&f));
    assert!(got.is_empty(), "{got:#?}");
}

#[test]
fn trace_coverage_bad_fixture_yields_exactly_one() {
    let f = SourceFile::from_source(
        "crates/core/src/controller.rs",
        include_str!("fixtures/trace_coverage_bad.rs"),
    );
    let got = with_allows(&f, passes::trace_coverage::run(&f));
    assert_eq!(got.len(), 1, "{got:#?}");
    assert!(got[0].message.contains("push_ready"), "{got:#?}");
}

#[test]
fn trace_coverage_good_fixture_is_clean() {
    let f = SourceFile::from_source(
        "crates/core/src/controller.rs",
        include_str!("fixtures/trace_coverage_good.rs"),
    );
    let got = with_allows(&f, passes::trace_coverage::run(&f));
    assert!(got.is_empty(), "{got:#?}");
}

#[test]
fn seeded_protocol_drift_is_caught() {
    // The acceptance case text scanning cannot express: `GroupFormed` is
    // emitted by the controller fixture but its arm was stripped from
    // the invariant-checker fixture. Pattern-position classification is
    // what lets the pass tell the checker's arms from the emitter's
    // constructions.
    let mut pass = EventConformance::new();
    for (path, src) in [
        (
            "crates/core/src/trace.rs",
            include_str!("fixtures/event_conformance_trace_bad.rs"),
        ),
        (
            "crates/core/src/controller.rs",
            include_str!("fixtures/event_conformance_emit_bad.rs"),
        ),
        (
            "crates/core/src/invariants.rs",
            include_str!("fixtures/event_conformance_check_bad.rs"),
        ),
    ] {
        pass.scan_file(&SourceFile::from_source(path, src));
    }
    let got = pass.finish();
    assert_eq!(got.len(), 3, "{got:#?}");
    let drift = got
        .iter()
        .find(|g| g.message.contains("GroupFormed"))
        .expect("the seeded drift must be caught");
    assert!(
        drift
            .message
            .contains("never matched by the invariant checker"),
        "{drift:#?}"
    );
    assert_eq!(drift.file, "crates/core/src/controller.rs");
    assert!(got
        .iter()
        .any(|g| g.message.contains("Phantom") && g.message.contains("never emitted")));
    assert!(got
        .iter()
        .any(|g| g.message.contains("Retired") && g.message.contains("dead protocol variant")));
}

#[test]
fn event_conformance_closed_protocol_is_clean() {
    let mut pass = EventConformance::new();
    for (path, src) in [
        (
            "crates/core/src/trace.rs",
            include_str!("fixtures/event_conformance_trace_good.rs"),
        ),
        (
            "crates/core/src/controller.rs",
            include_str!("fixtures/event_conformance_emit_good.rs"),
        ),
        (
            "crates/core/src/invariants.rs",
            include_str!("fixtures/event_conformance_check_good.rs"),
        ),
    ] {
        pass.scan_file(&SourceFile::from_source(path, src));
    }
    let got = pass.finish();
    assert!(got.is_empty(), "{got:#?}");
}

#[test]
fn reactor_blocking_bad_fixture_yields_exactly_three() {
    let f = SourceFile::from_source(
        "crates/comm/src/reactor.rs",
        include_str!("fixtures/reactor_blocking_bad.rs"),
    );
    let got = with_allows(&f, passes::reactor_blocking::run(&f));
    assert_eq!(got.len(), 3, "{got:#?}");
    assert!(got[0].message.contains(".recv()"), "{got:#?}");
    assert!(got[1].message.contains("thread::sleep"), "{got:#?}");
    assert!(got[2].message.contains(".lock()"), "{got:#?}");
}

#[test]
fn reactor_blocking_good_fixture_is_clean() {
    let f = SourceFile::from_source(
        "crates/core/src/runtime.rs",
        include_str!("fixtures/reactor_blocking_good.rs"),
    );
    let got = with_allows(&f, passes::reactor_blocking::run(&f));
    assert!(got.is_empty(), "{got:#?}");
}

#[test]
fn allow_grammar_accepts_every_remaining_pass_name() {
    let src: String = passes::ALL
        .iter()
        .map(|p| format!("fn f() {{}} // lint: allow({p}) staged over two PRs\n"))
        .collect();
    let f = SourceFile::from_source("crates/core/src/runtime.rs", &src);
    let (allows, bad) = allow::collect_allows(&f, passes::ALL);
    assert!(bad.is_empty(), "{bad:#?}");
    assert_eq!(allows.len(), 5);
}

#[test]
fn retired_pass_directives_are_findings_that_name_the_clippy_attribute() {
    // `panic-path` and `unsafe-audit` are the toolchain's job now; a
    // directive still naming one must not linger as dead text.
    let f = SourceFile::from_source(
        "crates/core/src/runtime.rs",
        "fn a(x: Option<u8>) -> u8 {\n    x.unwrap() // lint: allow(panic-path) startup-only path before the loop\n}\n// lint: allow(unsafe-audit) FFI shim documented in DESIGN.md\nfn b() {}\n",
    );
    let (allows, bad) = allow::collect_allows(&f, passes::ALL);
    assert!(allows.is_empty());
    assert_eq!(bad.len(), 2, "{bad:#?}");
    assert!(bad.iter().all(|b| b.pass == "allow-syntax"));
    assert_eq!((bad[0].line, bad[1].line), (2, 4));
    assert!(
        bad[0].message.contains("retired pass")
            && bad[0].message.contains("#[allow(clippy::panic, reason"),
        "{bad:#?}"
    );
    assert!(
        bad[1].message.contains("retired pass")
            && bad[1]
                .message
                .contains("clippy::undocumented_unsafe_blocks"),
        "{bad:#?}"
    );
}

#[test]
fn allow_without_reason_is_rejected_and_suppresses_nothing() {
    let f = SourceFile::from_source(
        "crates/core/src/controller.rs",
        include_str!("fixtures/allow_without_reason.rs"),
    );
    let got = with_allows(&f, passes::weight_stochasticity::run(&f));
    // Two malformed allows + the two weight rows they fail to cover.
    assert_eq!(got.len(), 4, "{got:#?}");
    assert_eq!(
        got.iter().filter(|g| g.pass == "allow-syntax").count(),
        2,
        "{got:#?}"
    );
    assert_eq!(
        got.iter()
            .filter(|g| g.pass == "weight-stochasticity")
            .count(),
        2,
        "{got:#?}"
    );
}

#[test]
fn the_workspace_itself_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analysis sits two levels below the root");
    let findings = run_check(root).expect("workspace scan");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn binary_exit_codes_distinguish_clean_dirty_and_usage() {
    let bin = env!("CARGO_BIN_EXE_preduce-analysis");
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");

    let clean = Command::new(bin)
        .args(["check", "--root"])
        .arg(root)
        .output()
        .expect("run analyzer");
    assert!(
        clean.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&clean.stderr)
    );

    let dir = std::env::temp_dir().join("preduce-analysis-exit-codes");
    let src = dir.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        src.join("controller.rs"),
        "pub fn f(p: usize) -> Vec<f32> {\n    vec![1.0 / p as f32; p]\n}\n",
    )
    .expect("write fixture");
    let dirty = Command::new(bin)
        .args(["check", "--root"])
        .arg(&dir)
        .output()
        .expect("run analyzer");
    assert_eq!(dirty.status.code(), Some(1), "findings must exit 1");
    assert!(String::from_utf8_lossy(&dirty.stdout).contains("weight-stochasticity"));
    let _ = std::fs::remove_dir_all(&dir);

    let usage = Command::new(bin)
        .arg("frobnicate")
        .output()
        .expect("run analyzer");
    assert_eq!(usage.status.code(), Some(2), "usage errors must exit 2");
}

#[test]
fn binary_json_format_and_pass_selection() {
    let bin = env!("CARGO_BIN_EXE_preduce-analysis");
    let dir = std::env::temp_dir().join("preduce-analysis-json-pass");
    let src = dir.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        src.join("controller.rs"),
        "pub fn f(p: usize) -> Vec<f32> {\n    vec![1.0 / p as f32; p]\n}\n",
    )
    .expect("write fixture");

    // JSON output: stable schema header, machine-parseable fields.
    let json = Command::new(bin)
        .args(["check", "--format", "json", "--root"])
        .arg(&dir)
        .output()
        .expect("run analyzer");
    assert_eq!(json.status.code(), Some(1), "findings still exit 1");
    let out = String::from_utf8_lossy(&json.stdout);
    assert!(
        out.starts_with("{\"schema\":\"preduce-lint/1\",\"count\":1,"),
        "{out}"
    );
    assert!(out.contains("\"pass\":\"weight-stochasticity\""), "{out}");
    assert!(
        out.contains("\"file\":\"crates/core/src/controller.rs\""),
        "{out}"
    );
    assert!(out.contains("\"line\":2"), "{out}");

    // GitHub annotations carry file/line for the CI gate.
    let gh = Command::new(bin)
        .args(["check", "--format", "github", "--root"])
        .arg(&dir)
        .output()
        .expect("run analyzer");
    assert_eq!(gh.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&gh.stdout)
        .contains("::error file=crates/core/src/controller.rs,line=2,"));

    // Pass selection: the dirty line is weight-stochasticity; running
    // only trace-coverage must come back clean.
    let selected = Command::new(bin)
        .args(["check", "--pass", "trace-coverage", "--root"])
        .arg(&dir)
        .output()
        .expect("run analyzer");
    assert_eq!(
        selected.status.code(),
        Some(0),
        "selection must skip weight-stochasticity"
    );

    let both = Command::new(bin)
        .args([
            "check",
            "--pass",
            "trace-coverage,weight-stochasticity",
            "--root",
        ])
        .arg(&dir)
        .output()
        .expect("run analyzer");
    assert_eq!(both.status.code(), Some(1), "selected pass still fires");

    let _ = std::fs::remove_dir_all(&dir);

    // Unknown (or retired) pass and unknown format are usage errors.
    for name in ["made-up", "panic-path"] {
        let bad_pass = Command::new(bin)
            .args(["check", "--pass", name])
            .output()
            .expect("run analyzer");
        assert_eq!(bad_pass.status.code(), Some(2), "--pass {name}");
    }
    let bad_fmt = Command::new(bin)
        .args(["check", "--format", "yaml"])
        .output()
        .expect("run analyzer");
    assert_eq!(bad_fmt.status.code(), Some(2));
}
