//! Pass scoping: workspace-walk discovery, scope by content.
//!
//! PR 3 scoped each pass with hand-maintained path lists, and the lists
//! rotted exactly the way lists do: `reactor.rs` (PR 5) and `kernels.rs`
//! (PR 6) both had to be registered after the fact, and any new file was
//! silently unlinted until someone remembered. Since v2 the workspace
//! walk feeds **every** `src/**/*.rs` file to every pass, and a pass that
//! does not want every file asks a **content probe** of the scanned file
//! itself (does it hold a lock? does it implement the controller? does
//! it define `serve_fleet`?), so new files opt themselves in by what
//! they *do*, not by where someone remembered to list them.

use crate::scan::SourceFile;

/// The one tree the workspace walk never enters: the fixed performance
/// instrument and the crates.io stand-ins vendored under it. It measures
/// fleets from outside through public functions (hand-built weight rows
/// and aborting probes are its job), the stand-ins mirror third-party
/// APIs, and the directory is frozen between benchmark PRs — so no pass
/// has a contract to enforce there.
pub const UNWALKED: &str = "crates/benchmark/";

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
