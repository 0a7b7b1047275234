//! The simulated fleet's heap footprint, measured by a counting global
//! allocator.
//!
//! A simulated worker holds its own state — parameters and momentum, two
//! `d`-float vectors — and its data shard; the harness's one network
//! serves every worker's update. The test builds the `sim-hl3` benchmark's
//! VGG-19 fleet (N = 8, HL = 3, batch 8), runs two local updates per
//! worker through the harness, and asserts that the live heap the harness
//! holds stays under
//!
//! ```text
//! N · (2·d·4 B + shard bytes) + slack
//! ```
//!
//! where the slack is the held-out test set, the one network (its
//! parameters and gradients, 2·d·4 B) and 64 KiB for everything small.
//! One more `d`-float buffer per worker — a parameter copy or a gradient
//! buffer in each worker's network — is 8·d·4 B ≈ 1.2 MiB, well past the
//! slack, so it fails here.

use preduce_data::{cifar10_like, Dataset};
use preduce_models::zoo;
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
    for _ in 0..2 {
        for w in 0..h.num_workers() {
            h.with_worker(w, |w, rng| w.local_update(rng));
        }
    }
    let live = ALLOC.live_bytes() - before;

    let n = h.num_workers();
    let d = h.workers[0].params.len();
    let vector = d * std::mem::size_of::<f32>();
    let shards: usize = h
        .workers
        .iter()
        .map(|w| dataset_bytes(w.sampler.dataset()))
        .sum();
    let test = cfg.preset.test_size
        * (cfg.preset.config.feature_dim * std::mem::size_of::<f32>()
            + std::mem::size_of::<usize>());
    let state = n * 2 * vector + shards;
    let slack = test + 2 * vector + (64 << 10);
    println!(
        "N={n} d={d}: live {live} B; state {state} B (workers {} B, shards {shards} B) + slack {slack} B",
        n * 2 * vector
    );
    assert!(
        live < state + slack,
        "the fleet holds {live} B, over its {state} B of state plus {slack} B of slack: \
         {} B per worker beyond parameters, momentum and shard",
        live.saturating_sub(state + test + 2 * vector) / n
    );
}
