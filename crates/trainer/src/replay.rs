//! The data-plane oracle: a P-Reduce run's models, recomputed from its
//! trace.
//!
//! The streaming checker verifies the control plane: who grouped with
//! whom, at which iterations, with which Eq. 9 weights. The paper's result
//! is a function of exactly that group sequence (Algorithm 2, lines 6–7):
//! given the fleet a config builds, each worker's batch stream
//! ([`worker_thread_seed`]) and the controller's decisions in the order it
//! made them, every worker's final model is determined. [`replay`]
//! recomputes those models in one thread with the simulator's kernel, so a
//! real substrate's models can be checked bit for bit against what its own
//! trace says happened. That holds because every group average folds in
//! one order, group position (`comm::mesh::GroupAverager`).
//!
//! A worker runs one local update before each signal, and it signals again
//! only after its group's average has landed. So walking the decisions in
//! trace order and giving each member its next local update first
//! reproduces every worker's own sequence of updates and averages.
//!
//! Faults: a stall, a signal delay or a late join changes only timing. A
//! crash adds one local update that no decision follows, replayed at the
//! crash's `FaultInjected` event. A restore rewinds a worker from its
//! snapshot; only the simulator runs it, and it is not replayed.

use partial_reduce::TraceEvent;
use preduce_tensor::kernels;
use rand::{rngs::StdRng, SeedableRng};

use crate::config::ExperimentConfig;
use crate::engine::setup::{build_fleet, worker_thread_seed};

/// FNV-1a over the bit patterns of `params`, one 32-bit word per step:
/// equal hashes mean equal bits, up to collisions.
pub fn params_hash(params: &[f32]) -> u64 {
    params.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every worker's final [`params_hash`], in rank order, for a run of
/// `config` whose controller made the decisions in `events`.
///
/// # Panics
/// Panics if `events` names a worker outside the fleet, or a group whose
/// weights do not align with its members.
pub fn replay(config: &ExperimentConfig, events: &[TraceEvent]) -> Vec<u64> {
    let mut workers = build_fleet(config).workers;
    let mut rngs: Vec<StdRng> = (0..workers.len())
        .map(|rank| StdRng::seed_from_u64(worker_thread_seed(config.seed, rank)))
        .collect();
    let mut average = Vec::new();
    for event in events {
        match event {
            TraceEvent::GroupFormed {
                members, weights, ..
            } => {
                for &m in members {
                    workers[m].local_update(&mut rngs[m]);
                }
                // A group of one is not averaged (`PartialReducer::reduce`).
                if members.len() > 1 {
                    average.clear();
                    average.resize(workers[members[0]].params.len(), 0.0);
                    let models: Vec<&[f32]> = members
                        .iter()
                        .map(|&m| workers[m].params.as_slice())
                        .collect();
                    kernels::weighted_sum_acc(&mut average, &models, weights);
                    for &m in members {
                        workers[m].params.as_mut_slice().copy_from_slice(&average);
                    }
                }
            }
            TraceEvent::SingletonIssued { worker, .. } => {
                workers[*worker].local_update(&mut rngs[*worker]);
            }
            TraceEvent::FaultInjected { worker, fault, .. } if fault.starts_with("crash@") => {
                workers[*worker].local_update(&mut rngs[*worker]);
            }
            _ => {}
        }
    }
    workers
        .iter()
        .map(|w| params_hash(w.params.as_slice()))
        .collect()
}
