//! Library half of the `preduce` command-line interface: a dependency-free
//! argument parser plus the command implementations, kept out of `main.rs`
//! so they are unit-testable.

#![forbid(unsafe_code)]
// The CLI launches and serves fleets: no panicking construct outside
// tests (DESIGN.md §10).
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

pub mod args;
pub mod commands;

pub use args::{ArgError, Args};
pub use commands::{run_command, CliError, Command};
