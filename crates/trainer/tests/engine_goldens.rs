//! Golden trajectory tests for the simulator projections of the engine.
//!
//! The engine refactor moved every sim strategy loop verbatim into
//! [`preduce_trainer::engine::drivers`]; these tests pin the resulting
//! trajectories bit-for-bit so a refactor cannot silently change
//! simulated results. One file per strategy of
//! [`Strategy::table1_lineup`] is committed under `tests/goldens/`,
//! recorded by this build (every build draws from the same in-tree RNG,
//! and kernel dispatch paths agree bit for bit — DESIGN.md §13). The test
//! never writes into the source tree: a strategy with no file fails and
//! prints the JSON to record, so a new strategy or an intended trajectory
//! change is an explicit edit under `tests/goldens/` in the same PR.
//! Within one test run each strategy also executes twice, so same-seed
//! determinism is checked independently of the files.

use preduce_data::cifar10_like;
use preduce_models::zoo;
use preduce_trainer::{run_experiment, ExperimentConfig, RunResult, Strategy};
use serde::{Deserialize, Serialize};

/// The pinned slice of a [`RunResult`]: everything the simulator computes
/// deterministically. (`per_update_samples` is capped by the driver and
/// redundant with `run_time`/`updates`, so it is left out.)
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Golden {
    run_time: f64,
    updates: u64,
    final_accuracy: f64,
    trace: Vec<(f64, u64, f64)>,
}

impl Golden {
    fn of(r: &RunResult) -> Self {
        Golden {
            run_time: r.run_time,
            updates: r.updates,
            final_accuracy: r.final_accuracy,
            trace: r
                .trace
                .iter()
                .map(|p| (p.time, p.updates, p.accuracy))
                .collect(),
        }
    }
}

/// N = 8 with a moderate heterogeneity level: large enough that group
/// formation, fast-forwarding, and backup/staleness paths all exercise,
/// small enough for test latency.
fn config() -> ExperimentConfig {
    let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 2);
    c.num_workers = 8;
    c.max_updates = 48;
    c.eval_every = 16;
    c.threshold = 0.999; // unreachable: full-length, cap-bounded runs
    c
}

/// `"P-Reduce CON (P=3)"` → `"p-reduce-con-p-3"`.
fn slug(label: &str) -> String {
    let mut s = String::new();
    for ch in label.chars() {
        if ch.is_ascii_alphanumeric() {
            s.push(ch.to_ascii_lowercase());
        } else if !s.ends_with('-') && !s.is_empty() {
            s.push('-');
        }
    }
    s.trim_end_matches('-').to_string()
}

#[test]
fn sim_trajectories_are_deterministic_and_match_goldens() {
    let c = config();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    let mut missing = Vec::new();

    for s in Strategy::table1_lineup(c.num_workers) {
        let first = run_experiment(s, &c);
        let again = run_experiment(s, &c);
        let golden = Golden::of(&first);
        assert_eq!(
            golden,
            Golden::of(&again),
            "{}: two same-seed runs diverged",
            first.strategy
        );

        let path = dir.join(format!("{}.json", slug(&first.strategy)));
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let recorded: Golden = serde_json::from_str(&text).expect("parse golden");
                assert_eq!(
                    golden,
                    recorded,
                    "{}: trajectory drifted from recorded golden {}",
                    first.strategy,
                    path.display()
                );
            }
            Err(_) => {
                let json = serde_json::to_string(&golden).expect("serialize golden");
                missing.push(format!("{}\n{json}", path.display()));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "no recorded golden for {} strategies; check these files in:\n{}",
        missing.len(),
        missing.join("\n")
    );
}
