//! A threaded message-passing collective runtime — the substrate the paper
//! gets from Gloo/`torch.distributed` and we build from scratch.
//!
//! The runtime provides:
//!
//! * a [`CommWorld`] of `n` ranks connected all-to-all by typed channels
//!   ([`Endpoint`] per rank), with tagged [`Endpoint::send`] /
//!   [`Endpoint::recv`] matching out-of-order arrivals like an MPI
//!   implementation;
//! * the group weighted average over an *arbitrary subset* of ranks
//!   ([`collectives`]: scale by own weight, then a ring all-reduce
//!   restricted to the group), which is exactly the capability partial
//!   reduce needs (a collective over a dynamic temporary group, something
//!   NCCL's fixed communicators make hard, §4 of the paper);
//! * a [`control`] channel pair for the few-bytes worker↔controller
//!   signaling traffic, behind a [`control::ControlPlane`] abstraction
//!   with two transports: in-process channels and the paper prototype's
//!   TCP message queue ([`tcp`]), whose controller side the serving
//!   thread polls itself after the [`reactor`] bring-up;
//! * a multi-process data plane ([`mesh`]): workers in separate OS
//!   processes dial each other's ephemeral listeners to run the group
//!   weighted average, behind the [`mesh::GroupAverager`] abstraction
//!   that also covers the in-process [`Endpoint`] collectives.
//!
//! The default deployment is in-process: transports are `std::sync::mpsc`
//! channels, and a "worker" is a thread. The collective *semantics* (who
//! averages what, when) are identical to a networked deployment, which
//! is what the reproduction's claims rest on — and the TCP control plane
//! plus [`mesh`] carry the same semantics across real OS processes.

#![forbid(unsafe_code)]
// Comms hot paths must not panic on recoverable conditions: fallible
// operations propagate `CommError` or document their panic with an
// `#[allow(clippy::.., reason = "..")]` (see DESIGN.md §10); a bad index
// kills a comms thread mid-reduce. Tests are exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes_without_reason
    )
)]

pub mod collectives;
pub mod control;
mod endpoint;
mod error;
pub mod frame;
pub mod mesh;
pub mod reactor;
pub mod tcp;

pub use endpoint::{CommWorld, Endpoint, Message};
pub use error::CommError;

/// Result alias for communication operations.
pub type Result<T> = std::result::Result<T, CommError>;
