//! End-to-end trace-driven testing: the threaded runtime trains a real
//! fleet under injected heterogeneity, narrates every control-plane
//! decision to a JSONL dump, and the invariant checker replays the dump
//! and asserts the paper's contracts — plus negative tests proving the
//! checker actually catches corrupted traces.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use partial_reduce::{read_jsonl, InvariantChecker, JsonlSink, TraceEvent, TraceSink};
use preduce_data::cifar10_like;
use preduce_models::zoo;
use preduce_trainer::engine::{driver_for, ThreadedSubstrate};
use preduce_trainer::{ExperimentConfig, Strategy};

fn config(n: usize) -> ExperimentConfig {
    let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
    c.num_workers = n;
    c
}

/// Four speed classes: ranks 0–3 fast … ranks 12–15 slowest. Enough skew
/// that groups regularly mix iteration numbers.
fn hetero_delays(n: usize) -> Vec<Duration> {
    (0..n)
        .map(|r| Duration::from_micros((r as u64 / 4) * 400))
        .collect()
}

fn trace_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("preduce-trace-replay");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Runs a traced N=16, P=4 threaded fleet and returns the replayed events.
fn run_and_read(dynamic: bool, name: &str) -> Vec<TraceEvent> {
    let n = 16;
    let path = trace_path(name);
    let sink = Arc::new(JsonlSink::create(&path).expect("create trace file"));
    let substrate = ThreadedSubstrate::new(&config(n), 6)
        .with_delays(&hetero_delays(n))
        .with_sink(sink.clone());
    let report = driver_for(Strategy::PReduce { p: 4, dynamic }).drive_threaded(&substrate);
    sink.flush();
    assert_eq!(sink.write_errors(), 0);
    assert!(report.controller.expect("stats").groups_formed > 0);

    let events = read_jsonl(&path).expect("trace reads back");
    let _ = std::fs::remove_file(&path);
    events
}

#[test]
fn threaded_con_hetero_trace_replays_clean() {
    let events = run_and_read(false, "con.jsonl");
    assert!(matches!(events[0], TraceEvent::RunStarted { .. }));
    assert!(matches!(
        events.last(),
        Some(TraceEvent::RunFinished { .. })
    ));
    // Worker-side completions are part of the stream, so the checker runs
    // its strict in-flight accounting.
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::ReduceCompleted { .. })));
    let report = InvariantChecker::check(&events);
    assert!(report.is_clean(), "{report}");
    assert!(report.groups > 0);
}

#[test]
fn threaded_dyn_hetero_trace_replays_clean() {
    // The checker recomputes every DYN weight row from Eq. 9 and compares
    // elementwise, so a clean replay *is* the staleness-weighting check.
    let events = run_and_read(true, "dyn.jsonl");
    let report = InvariantChecker::check(&events);
    assert!(report.is_clean(), "{report}");
    assert!(report.groups > 0);
}

#[test]
fn corrupted_duplicate_member_is_flagged() {
    let mut events = run_and_read(false, "dup.jsonl");
    let target = events
        .iter_mut()
        .find(|e| matches!(e, TraceEvent::GroupFormed { .. }))
        .expect("at least one group");
    if let TraceEvent::GroupFormed { members, .. } = target {
        members[1] = members[0];
    }
    let report = InvariantChecker::check(&events);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("duplicate members")),
        "{report}"
    );
}

#[test]
fn corrupted_weight_row_is_flagged() {
    let mut events = run_and_read(false, "weights.jsonl");
    let target = events
        .iter_mut()
        .find(|e| matches!(e, TraceEvent::GroupFormed { .. }))
        .expect("at least one group");
    if let TraceEvent::GroupFormed { weights, .. } = target {
        // Still sums to 1, but no longer the CON-mandated uniform row.
        weights[0] += 0.1;
        weights[1] -= 0.1;
    }
    let report = InvariantChecker::check(&events);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("mode-prescribed")),
        "{report}"
    );
}

#[test]
fn sim_and_threaded_traces_share_the_vocabulary() {
    // The same checker consumes the simulator's trace: run the virtual-time
    // harness traced and replay it with zero violations.
    use partial_reduce::RingSink;
    use preduce_trainer::run_experiment_traced;

    let mut c = config(16);
    c.max_updates = 200;
    c.eval_every = 100;
    c.threshold = 0.999;
    for dynamic in [false, true] {
        let sink = Arc::new(RingSink::new(65536));
        let result = run_experiment_traced(Strategy::PReduce { p: 4, dynamic }, &c, sink.clone());
        assert!(result.updates > 0);
        assert_eq!(sink.dropped(), 0);
        let events = sink.snapshot();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::ReduceCompleted { .. })));
        let report = InvariantChecker::check(&events);
        assert!(report.is_clean(), "dynamic={dynamic}: {report}");
    }
}
