//! Pass scoping v2: workspace-walk discovery with explicit excludes.
//!
//! PR 3 scoped each pass with hand-maintained path lists, and the lists
//! rotted exactly the way lists do: `reactor.rs` (PR 5) and `kernels.rs`
//! (PR 6) both had to be registered after the fact, and any new file was
//! silently unlinted until someone remembered. v2 inverts the default:
//! the workspace walk feeds **every** `src/**/*.rs` file to every pass,
//! and scoping is either
//!
//! - a **rule table** ([`Rule`]) of path prefixes with explicit
//!   include/exclude decisions, longest prefix winning, each exclusion
//!   carrying its reason in source; or
//! - a **content probe** on the scanned file itself (does it hold a
//!   lock? does it implement the controller? does it define
//!   `serve_fleet`?), so new files opt themselves in by what they *do*,
//!   not by where someone remembered to list them.

use crate::scan::SourceFile;

/// One scoping rule: `prefix` either names a file exactly or is a
/// directory prefix (ends with `/`). `include` decides; `why` documents.
pub struct Rule {
    /// Path or directory prefix (workspace-relative, `/`-separated).
    pub prefix: &'static str,
    /// Include (true) or exclude (false) matching paths.
    pub include: bool,
    /// Why this rule exists — shown in DESIGN.md and kept next to the
    /// decision so exclusions never go unexplained.
    pub why: &'static str,
}

/// Applies a rule table: the longest matching prefix wins; no match
/// falls back to `default_include`.
pub fn decide(rules: &[Rule], path: &str, default_include: bool) -> bool {
    let mut best: Option<&Rule> = None;
    for r in rules {
        let matches = if r.prefix.ends_with('/') {
            path.starts_with(r.prefix)
        } else {
            path == r.prefix
        };
        if matches
            && best
                .map(|b| r.prefix.len() > b.prefix.len())
                .unwrap_or(true)
        {
            best = Some(r);
        }
    }
    best.map(|r| r.include).unwrap_or(default_include)
}

/// The one tree the workspace walk never enters: the fixed performance
/// instrument and the crates.io stand-ins vendored under it. It measures
/// fleets from outside through public functions (hand-built weight rows
/// and aborting probes are its job), the stand-ins mirror third-party
/// APIs, and the directory is frozen between benchmark PRs — so no pass
/// has a contract to enforce there.
pub const UNWALKED: &str = "crates/benchmark/";

/// Panic-path scope: default **include** (every walked file), with the
/// layers where fail-fast is the intended behavior excluded. Compare
/// PR 3, where inclusion was the exception: under v2 a new crate or
/// file is covered the moment it exists.
pub const PANIC_RULES: &[Rule] = &[
    Rule {
        prefix: "crates/analysis/",
        include: false,
        why: "the lint engine itself is an offline tool; failing fast on a broken workspace is correct",
    },
    Rule {
        prefix: "crates/bench/",
        include: false,
        why: "bench binaries are experiment harnesses; aborting on setup errors is desired",
    },
    Rule {
        prefix: "crates/models/",
        include: false,
        why: "math layer: shape mismatches are programming errors, assert-style contracts by design",
    },
    Rule {
        prefix: "crates/data/",
        include: false,
        why: "dataset/partition generation runs before training; no fleet to strand",
    },
    Rule {
        prefix: "crates/simnet/",
        include: false,
        why: "virtual-time simulator internals; a panic fails one experiment, not a fleet",
    },
    Rule {
        prefix: "crates/tensor/",
        include: false,
        why: "math kernels index under loop bounds (DESIGN.md \u{a7}13)",
    },
    Rule {
        prefix: "crates/tensor/src/kernels.rs",
        include: true,
        why: "every collective and model average funnels through the kernel layer; a panic there strands a group like a comms panic",
    },
    Rule {
        prefix: "crates/trainer/src/",
        include: false,
        why: "virtual-time experiment layer (strategies, elastic glue) outside the engine hot path",
    },
    Rule {
        prefix: "crates/trainer/src/engine/",
        include: true,
        why: "the engine drives real fleets on the threaded/process substrates",
    },
    Rule {
        prefix: "vendor/",
        include: false,
        why: "test-only stand-ins for third-party crates: a property runner reports a failed case by panicking, and nothing there is linked into a fleet",
    },
];

/// Whether the panic-path pass covers this file.
pub fn panic_path(path: &str) -> bool {
    decide(PANIC_RULES, path, true)
}

/// The stricter unchecked-indexing sub-rule stays an explicit opt-in:
/// the control-plane core, where a bad index panics the controller or a
/// comms thread. Everything else (notably the kernels, which index
/// heavily under loop bounds) stays out.
pub const INDEX_RULES: &[Rule] = &[
    Rule {
        prefix: "crates/core/src/controller.rs",
        include: true,
        why: "a bad index panics the controller",
    },
    Rule {
        prefix: "crates/core/src/runtime.rs",
        include: true,
        why: "a bad index kills the serving loop",
    },
    Rule {
        prefix: "crates/comm/src/",
        include: true,
        why: "a bad index kills a comms thread mid-reduce",
    },
    Rule {
        prefix: "crates/trainer/src/engine/substrate.rs",
        include: true,
        why: "substrate dispatch indexes worker tables",
    },
];

/// Whether the unchecked-indexing sub-rule applies (default exclude).
pub fn index_strict(path: &str) -> bool {
    decide(INDEX_RULES, path, false)
}

/// Lock-discipline scope is a pure content probe: any file whose code
/// view mentions a lock type or acquires a guard is scanned. A new file
/// that grows a `Mutex` is covered the moment it compiles.
pub fn lock_discipline(file: &SourceFile) -> bool {
    file.code.iter().any(|l| {
        l.contains("Mutex<")
            || l.contains("RwLock<")
            || l.contains("Condvar")
            || l.contains(".lock()")
    })
}

/// Trace-coverage scope: files that implement the controller — the
/// replayed state machine — found by the item tree, not by path.
pub fn trace_coverage(file: &SourceFile) -> bool {
    file.items
        .impls
        .iter()
        .any(|i| i.type_name == "Controller" && !file.is_test[i.start])
}

/// Weight-stochasticity scope: everywhere except the blessed
/// constructors themselves.
pub fn weight_stochasticity(path: &str) -> bool {
    path != crate::passes::weight_stochasticity::HOME
}

/// Reactor-blocking scope: the reactor module (by filename — it is the
/// reactor pattern the pass models) and any file defining the
/// `serve_fleet` ingest loop (by content).
pub fn reactor_blocking(file: &SourceFile) -> bool {
    file.path.ends_with("/reactor.rs")
        || file
            .items
            .fns
            .iter()
            .any(|f| f.name == "serve_fleet" && !file.is_test[f.start])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_prefix_wins() {
        assert!(panic_path("crates/core/src/controller.rs"));
        assert!(
            panic_path("crates/core/src/invariants.rs"),
            "default include"
        );
        assert!(panic_path("crates/comm/src/tcp.rs"));
        assert!(panic_path("crates/cli/src/commands.rs"));
        assert!(panic_path("crates/checkpoint/src/lib.rs"));
        assert!(panic_path("src/lib.rs"), "root facade covered by default");
        assert!(!panic_path("crates/tensor/src/matmul.rs"));
        assert!(
            panic_path("crates/tensor/src/kernels.rs"),
            "file include beats directory exclude"
        );
        assert!(!panic_path("crates/trainer/src/elastic.rs"));
        assert!(panic_path("crates/trainer/src/engine/drivers/ps.rs"));
        assert!(
            panic_path("crates/trainer/src/engine/scale.rs"),
            "the scale harness lives in the engine and is covered (PR 10)"
        );
        assert!(
            !panic_path("crates/tensor/src/alloc.rs"),
            "the counting allocator follows the tensor-crate exclusion (PR 10)"
        );
        assert!(
            !panic_path("crates/bench/src/bin/scale.rs"),
            "bench binaries stay excluded (PR 10)"
        );
        assert!(!panic_path("crates/models/src/dense.rs"));
        assert!(!panic_path("crates/analysis/src/lib.rs"));
        assert!(
            !panic_path("vendor/proptest/src/lib.rs"),
            "a property runner fails a case by panicking"
        );
    }

    #[test]
    fn index_scope_is_opt_in() {
        assert!(index_strict("crates/core/src/controller.rs"));
        assert!(index_strict("crates/comm/src/mesh.rs"));
        assert!(!index_strict("crates/tensor/src/kernels.rs"));
        assert!(!index_strict("crates/core/src/weights.rs"));
        assert!(
            !index_strict("crates/trainer/src/engine/scale.rs"),
            "the scale harness indexes per-worker vectors under loop bounds"
        );
    }

    #[test]
    fn content_probes_see_through_paths() {
        let locky = SourceFile::from_source(
            "crates/anywhere/src/new.rs",
            "use std::sync::Mutex;\nstruct S { m: Mutex<u8> }\n",
        );
        assert!(lock_discipline(&locky));
        let plain = SourceFile::from_source("crates/anywhere/src/new.rs", "fn f() {}\n");
        assert!(!lock_discipline(&plain));

        let ctrl = SourceFile::from_source(
            "crates/x/src/moved_controller.rs",
            "impl Controller {\n    fn t(&self) {}\n}\n",
        );
        assert!(trace_coverage(&ctrl));
        assert!(!trace_coverage(&plain));

        let serve =
            SourceFile::from_source("crates/x/src/anyfile.rs", "pub fn serve_fleet() {\n}\n");
        assert!(reactor_blocking(&serve));
        let reactor = SourceFile::from_source("crates/comm/src/reactor.rs", "fn pump() {}\n");
        assert!(reactor_blocking(&reactor));
        assert!(!reactor_blocking(&plain));
    }
}
