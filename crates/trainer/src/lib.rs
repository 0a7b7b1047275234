//! Distributed-training strategies and the experiment driver.
//!
//! This crate binds everything together: models + data + the cluster
//! simulator + the partial-reduce core into runnable experiments that
//! reproduce the paper's evaluation. Every strategy from §5.1 is
//! implemented over the same substrate:
//!
//! | Strategy | Paper name | Family |
//! |---|---|---|
//! | [`Strategy::AllReduce`] | AR | collective, synchronous |
//! | [`Strategy::EagerReduce`] | ER | collective, stale-gradient partial |
//! | [`Strategy::AdPsgd`] | AD | decentralized gossip, asynchronous |
//! | [`Strategy::DPsgd`] | — | decentralized ring, synchronous (extension) |
//! | [`Strategy::PsBsp`] | BSP | parameter server, synchronous |
//! | [`Strategy::PsAsp`] | ASP | parameter server, asynchronous |
//! | [`Strategy::PsSsp`] | SSP (related work) | PS, bounded staleness (extension) |
//! | [`Strategy::PsHete`] | HETE | PS, staleness-adaptive learning rate |
//! | [`Strategy::PsBackup`] | BK | PS, synchronous with backup workers |
//! | [`Strategy::PReduce`] | CON / DYN | **partial reduce (this paper)** |
//!
//! Experiments measure the paper's three metrics (§5.2): total virtual run
//! time to a test-accuracy threshold, number of updates, and per-update
//! time — the decomposition into statistical × hardware efficiency.
//!
//! Two execution substrates exist: the deterministic virtual-time simulator,
//! which runs every strategy, and a real multithreaded runtime, which runs
//! partial reduce. The strategies live in [`engine::drivers`];
//! [`engine::run`] is the one entry point ([`engine::Backend`] picks the
//! substrate); [`sim`] keeps the virtual-time harness type, and [`replay`]
//! recomputes a real run's models from its trace.

#![forbid(unsafe_code)]

pub mod config;
pub mod elastic;
pub mod engine;
pub mod experiment;
pub mod metrics;
pub mod paper;
pub mod replay;
pub mod sim;
pub mod strategy;
pub mod worker;

pub use config::{ExperimentConfig, HeteroSpec};
pub use elastic::{CheckpointPolicy, ElasticOptions};
pub use engine::{
    run_scale, sample_groups, Backend, EngineRun, ScaleConfig, ScaleReport, ThreadedReport,
};
pub use experiment::{run_experiment, run_experiment_traced};
pub use metrics::{RunResult, TracePoint};
pub use preduce_simnet::{FaultKind, FaultPlan, FaultSpec};
pub use strategy::Strategy;
pub use worker::WorkerState;
