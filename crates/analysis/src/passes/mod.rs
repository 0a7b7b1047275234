//! The five project-specific passes. Each is a pure function (or small
//! state machine) over [`crate::scan::SourceFile`]s; scoping — which
//! files each pass sees — lives in [`crate::scope`] and is applied by
//! [`crate::run_check`].

pub mod event_conformance;
pub mod lock_discipline;
pub mod reactor_blocking;
pub mod trace_coverage;
pub mod weight_stochasticity;

/// Names of all passes, in report order (allow directives must name one
/// of these).
pub const ALL: &[&str] = &[
    lock_discipline::NAME,
    weight_stochasticity::NAME,
    trace_coverage::NAME,
    event_conformance::NAME,
    reactor_blocking::NAME,
];
