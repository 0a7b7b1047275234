//! Discrete-event simulation of a heterogeneous training cluster.
//!
//! The paper's experiments run on a V100 GPU cluster whose heterogeneity
//! comes from GPU sharing (synthetic, Table 1) or from production resource
//! contention (Figs. 9–11). Neither is available here, so this crate builds
//! the substrate the reproduction needs: a virtual-time simulator whose
//! *per-update time distributions* match the paper's heterogeneity model
//! (§2.3 models heterogeneity exactly as "different time costs on a single
//! update among workers, independently distributed").
//!
//! Pieces:
//!
//! * [`SimTime`] / [`EventQueue`] — a deterministic discrete-event core.
//! * [`HeterogeneityModel`] implementations — [`UniformFleet`] (homogeneous),
//!   [`GpuSharingFleet`] (the paper's HL knob: `HL` workers share one
//!   physical GPU), [`SpeedFleet`] (fixed per-worker multipliers, e.g. the
//!   "one worker is 2× slower" example of Fig. 4(b)), and [`MarkovFleet`]
//!   (a two-state Markov-modulated slowdown reproducing production-cluster
//!   dynamics for Figs. 9–11).
//! * [`NetworkModel`] — analytic collective/point-to-point cost model
//!   (α-β model: latency + bytes/bandwidth), with ring all-reduce,
//!   sharded parameter-server push/pull, controller signaling, and gossip
//!   costs.
//! * [`FaultPlan`] — the fault-injection vocabulary (crash, stall, delayed
//!   signals, late join) applied by both execution substrates; see
//!   DESIGN.md §11.
//!
//! Calibration against the paper's Table 1 (device throughput, link
//! bandwidth) is documented in EXPERIMENTS.md.

#![forbid(unsafe_code)]

mod events;
mod fault;
mod hetero;
mod network;
mod time;

pub use events::EventQueue;
pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use hetero::{
    standard_fleet, GpuSharingFleet, HeterogeneityModel, Jitter, MarkovFleet, SpeedFleet,
    UniformFleet,
};
pub use network::NetworkModel;
pub use time::SimTime;
