//! **Partial reduce** — the primary contribution of
//! *Heterogeneity-Aware Distributed Machine Learning Training via Partial
//! Reduce* (SIGMOD '21), reproduced as a Rust library.
//!
//! Partial reduce (P-Reduce) replaces the globally-synchronous All-Reduce of
//! data-parallel SGD with parallel-asynchronous *partial* model averages:
//! each worker, after its local update, synchronizes with only `P − 1`
//! other ready workers chosen FIFO by a lightweight central controller, and
//! immediately continues. Updates spread through the fleet across
//! iterations, so all replicas converge to the same point at rate
//! `O(1/√(PK))` (Theorem 1) while no worker ever waits for a straggler.
//!
//! This crate contains the transport-independent algorithm plus a threaded
//! embodiment:
//!
//! * [`weights`] — aggregation weight generators: constant (`1/P`,
//!   Algorithm 2) and dynamic staleness-aware EMA weights (Eq. 9 + §3.3.3);
//! * [`Controller`] — the paper's controller (Fig. 6): signal queue, group
//!   filter with group-history DB and sync-graph *group-frozen avoidance*,
//!   weight generator, and broadcaster decisions;
//! * [`graph`] — the sync-graph and its connectivity machinery;
//! * [`matrix`] / [`spectral`] — the synchronization matrices `W_k`
//!   (Eq. 4), their expectation, and the spectral gap `ρ` / error
//!   coefficient `ρ̄` from Assumption 2 and Theorem 1;
//! * [`runtime`] — a multithreaded P-Reduce world over the
//!   [`preduce_comm`] message-passing fabric: controller thread + a
//!   worker-side [`runtime::PartialReducer`] handle whose
//!   [`runtime::PartialReducer::reduce`] call is the primitive itself;
//! * [`theory`] — the convergence-bound calculator of Theorem 1 (learning
//!   rate condition Eq. 7 and the SGD/network error decomposition Eq. 8);
//! * [`trace`] — structured control-plane event tracing: one
//!   [`trace::TraceEvent`] vocabulary shared by the controller, the
//!   threaded runtime, the simulator, and the TCP control plane;
//! * [`invariants`] — the trace-driven [`invariants::InvariantChecker`]
//!   asserting the paper's contracts over a recorded run.

#![forbid(unsafe_code)]
// The control plane must not panic on recoverable conditions: every
// fallible operation either propagates an error or documents its panic
// with an `#[allow(clippy::.., reason = "..")]` (see DESIGN.md §10).
// Tests are exempt; `controller` and `runtime` add
// `clippy::indexing_slicing` on top.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes_without_reason
    )
)]

pub mod controller;
pub mod graph;
pub mod invariants;
pub mod matrix;
pub mod runtime;
pub mod spectral;
pub mod theory;
pub mod trace;
pub mod weights;

pub use controller::{AggregationMode, Controller, ControllerConfig, GroupDecision};
pub use graph::{
    min_history_window, ConnectivityStats, GroupHistory, SyncGraph, WindowedConnectivity,
};
pub use invariants::{
    CheckingSink, InvariantChecker, InvariantReport, StreamingChecker, Violation,
};
pub use matrix::{sync_matrix, weighted_sync_matrix};
pub use spectral::{
    expected_sync_matrix, expected_sync_matrix_uniform, rho_bar, rho_power, rho_uniform,
    spectral_gap, SpectralReport,
};
pub use trace::{read_jsonl, JsonlSink, NullSink, RingSink, SinkObserver, TraceEvent, TraceSink};
pub use weights::{constant_weights, dynamic_weights, singleton_weights, GapPolicy, WeightRow};
