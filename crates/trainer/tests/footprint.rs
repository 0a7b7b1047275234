//! The simulated fleet's heap footprint, measured by a counting global
//! allocator.
//!
//! A simulated worker holds its own state — parameters and momentum, two
//! `d`-float vectors — and its data shard; the harness's one network
//! serves every worker's update. The test builds the `sim-hl3` benchmark's
//! VGG-19 fleet (N = 8, HL = 3, batch 8), runs two barrier rounds of
//! recorded gradients and synchronous steps, then one evaluation window
//! of recorded updates and averages, and asserts after each flush that
//! the live heap the harness holds stays under
//!
//! ```text
//! N · (2·d·4 B + shard bytes) + slack
//! ```
//!
//! where the slack is the held-out test set, the one network (its
//! parameters and gradients, 2·d·4 B) and 64 KiB for everything small.
//! One more `d`-float buffer per worker — a parameter copy or a gradient
//! buffer in each worker's network — is 8·d·4 B ≈ 1.2 MiB, well past the
//! slack, so it fails here: a gradient slot that outlives the step that
//! consumed it fails too.

use partial_reduce::constant_weights;
use preduce_data::{cifar10_like, Dataset};
use preduce_models::zoo;
use preduce_simnet::SimTime;
use preduce_tensor::CountingAlloc;
use preduce_trainer::sim::SimHarness;
use preduce_trainer::ExperimentConfig;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Bytes a dataset holds: `f32` features and `usize` labels.
fn dataset_bytes(d: &Dataset) -> usize {
    d.features().len() * std::mem::size_of::<f32>() + d.len() * std::mem::size_of::<usize>()
}

#[test]
fn a_simulated_worker_holds_only_its_own_state() {
    // The `sim-hl3` calibration of the VGG-19 analog.
    let mut cfg = ExperimentConfig::table1(zoo::vgg19(), cifar10_like(), 3);
    cfg.threshold = 0.84;
    cfg.math_batch_size = 8;
    cfg.sgd.lr = 0.03;
    cfg.label_noise = 0.05;
    cfg.eval_every = 32;
    cfg.seed = 1;

    let before = ALLOC.live_bytes();
    let mut h = SimHarness::new(&cfg);
    let n = h.num_workers();
    // Two barrier rounds as All-Reduce records them: every worker's
    // gradient into its slot, then one step on the slots' mean, run by a
    // read point.
    for _ in 0..2 {
        for w in 0..n {
            h.start_gradient(w);
        }
        h.step((0..n).collect(), 1.0 / n as f32);
    }
    let d = h.worker(0).params.len();
    let stepped = ALLOC.live_bytes() - before;

    // One evaluation window through the op log, as the P-Reduce driver
    // records it: P = 3 local updates and their group's average per
    // update, run by the evaluation that ends the window. The recorded
    // batches and the flush's scratch networks must be gone after it.
    for k in 0..cfg.eval_every as usize {
        let group: Vec<usize> = (0..3).map(|i| (3 * k + i) % n).collect();
        for &w in &group {
            h.local_update(w);
        }
        h.average(group, constant_weights(3));
        h.record_update(SimTime::new(k as f64), 1.0);
    }
    let flushed = ALLOC.live_bytes() - before;

    let vector = d * std::mem::size_of::<f32>();
    let shards: usize = (0..n)
        .map(|w| dataset_bytes(h.worker(w).sampler.dataset()))
        .sum();
    let test = cfg.preset.test_size
        * (cfg.preset.config.feature_dim * std::mem::size_of::<f32>()
            + std::mem::size_of::<usize>());
    let state = n * 2 * vector + shards;
    let slack = test + 2 * vector + (64 << 10);
    for (when, live) in [
        ("after the barrier rounds", stepped),
        ("after the flush", flushed),
    ] {
        println!(
            "N={n} d={d}, {when}: live {live} B; state {state} B (workers {} B, shards {shards} B) + slack {slack} B",
            n * 2 * vector
        );
        assert!(
            live < state + slack,
            "{when}, the fleet holds {live} B, over its {state} B of state plus {slack} B of slack: \
             {} B per worker beyond parameters, momentum and shard",
            live.saturating_sub(state + test + 2 * vector) / n
        );
    }
}
