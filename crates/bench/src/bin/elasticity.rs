//! Elasticity bench: the cost of durability (DESIGN.md §14).
//!
//! Three metrics, every sample printed (nothing is written to disk):
//!
//! * **snapshot write / load** — wall time to atomically persist and
//!   reload one worker snapshot (write-then-rename, checksummed) at a
//!   realistic flat-parameter size, the on-disk byte count, and MB/s of
//!   model state beside Strata's 500 MB/s local bar (SNIPPETS.md);
//! * **kill-and-replace gap** — fault-free minus crashed-then-restored
//!   final accuracy at an equal update budget on the simulator
//!   (`crash:3@20,restore:3@30`, snapshots every iteration), CON and
//!   DYN — the accuracy a restore *recovers* relative to the plain
//!   crash gap the `fault_recovery` bin prints.
//!
//! Run: `cargo run --release -p preduce-bench --bin elasticity`

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use partial_reduce::NullSink;
use preduce_checkpoint::{CheckpointStore, WorkerSnapshot};
use preduce_data::cifar10_like;
use preduce_models::zoo;
use preduce_trainer::{engine, Backend, ElasticOptions, ExperimentConfig, FaultPlan, Strategy};

/// Flat parameter count for the snapshot-latency probe: the order of the
/// built Table-1 math models, 2 MiB of parameters and momentum.
const SNAPSHOT_PARAMS: usize = 1 << 18;
/// Snapshot write/load round trips measured.
const REPS: usize = 10;
/// Update budget of each simulated kill-and-replace run.
const MAX_UPDATES: u64 = 300;

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "preduce-bench-elastic-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Times `reps` atomic write/load round trips of one synthetic worker
/// snapshot sized like a built math model, printing each.
fn snapshot_io(reps: usize) {
    let dir = scratch("io");
    let store = CheckpointStore::create(&dir).expect("open bench store");
    let snap = WorkerSnapshot {
        rank: 0,
        iteration: 1000,
        updates_applied: 1000,
        opt_steps: 1000,
        params: (0..SNAPSHOT_PARAMS).map(|i| (i as f32).sin()).collect(),
        velocity: (0..SNAPSHOT_PARAMS)
            .map(|i| (i as f32).cos() * 1e-3)
            .collect(),
    };
    // Model state in MB (10^6 bytes): an f32 parameter and its momentum.
    let state_mb = (8 * SNAPSHOT_PARAMS) as f64 / 1e6;
    for i in 0..reps {
        let t = Instant::now();
        let path = store.save_worker(&snap).expect("save snapshot");
        let write_ms = t.elapsed().as_secs_f64() * 1e3;
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let t = Instant::now();
        let loaded = store.load_worker(0).expect("load snapshot");
        let load_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(loaded.params.len(), SNAPSHOT_PARAMS);
        println!(
            "  snapshot {i} ({SNAPSHOT_PARAMS} params, {bytes} bytes on disk): \
             write {write_ms:.1}ms ({:.0} MB/s), load {load_ms:.1}ms ({:.0} MB/s) \
             of {state_mb:.3} MB model state; Strata's bar 500 MB/s",
            state_mb / write_ms * 1e3,
            state_mb / load_ms * 1e3
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Equal-budget accuracy gap on the simulator: fault-free minus a run
/// where rank 3 crashes at iteration 20 and a replacement restores from
/// its snapshot at update 30 (N=8 / P=4).
fn kill_and_replace_gap(dynamic: bool, max_updates: u64) -> f64 {
    let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
    c.num_workers = 8;
    c.threshold = 0.999; // unreachable: fixed-budget comparison
    c.max_updates = max_updates;
    c.eval_every = 100;
    let s = Strategy::PReduce { p: 4, dynamic };
    let golden = engine::run(s, &c, Backend::Sim, Arc::new(NullSink));
    let dir = scratch(if dynamic { "kr-dyn" } else { "kr-con" });
    let restored = engine::run_elastic(
        s,
        &c,
        Backend::Sim,
        Arc::new(NullSink),
        FaultPlan::none().crash(3, 20).restore(3, 30),
        ElasticOptions::none().with_policy(&dir, 1),
    )
    .expect("the run stays within the detector's clock");
    let _ = std::fs::remove_dir_all(&dir);
    golden.result.final_accuracy - restored.result.final_accuracy
}

fn main() {
    println!("elasticity bench: {REPS} snapshot round trips");

    snapshot_io(REPS);

    println!(
        "  kill-and-replace convergence gap: CON {:+.3}, DYN {:+.3}",
        kill_and_replace_gap(false, MAX_UPDATES),
        kill_and_replace_gap(true, MAX_UPDATES)
    );
}
