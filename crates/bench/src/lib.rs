//! Shared support for the experiment binaries (one per paper table/figure).
//!
//! Every binary honors the `PREDUCE_QUICK` environment variable: set it to
//! any value to run a reduced-scale version (fewer strategies / smaller
//! caps) for smoke-testing; leave it unset for the full reproduction used
//! in EXPERIMENTS.md.

#![forbid(unsafe_code)]

pub mod configs;
pub mod output;

pub use configs::{quick_mode, table1_config};
pub use output::{fmt_seconds, print_run_row, TableWriter};
