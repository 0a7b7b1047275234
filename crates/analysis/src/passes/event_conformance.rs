//! `event-conformance`: the `TraceEvent` protocol stays closed
//! under drift.
//!
//! PRs 4, 5, and 8 each added `TraceEvent` variants and each had to
//! remember to wire them into `core::invariants` by hand — the exact
//! review-only protocol maintenance this crate exists to mechanize. The
//! pass is cross-crate and stateful: it extracts the `TraceEvent` enum
//! definition (wherever a non-test `enum TraceEvent` lives), collects
//! every *expression-position* `TraceEvent::Variant` reference as an
//! emission site, and every *pattern-position* reference inside an
//! `impl InvariantChecker` file as checker coverage. Pattern vs
//! expression is decided by the token engine's match-arm / `let`-pattern
//! / `matches!` classification, so a `match`ing `Display` impl in
//! `trace.rs` does not masquerade as checker coverage.
//!
//! Three drift classes become findings:
//! - **emitted-but-unchecked** — the replay checker silently ignores a
//!   live event (the PR 4/5/8 hand-wiring gap);
//! - **checked-but-never-emitted** — a dead checker arm, usually a
//!   renamed or removed emission;
//! - **defined-but-dead** — a variant nobody constructs or checks.

use crate::scan::SourceFile;
use crate::Finding;

/// Pass name used in findings and allow directives.
pub const NAME: &str = "event-conformance";

/// The protocol enum's name.
const EVENT_ENUM: &str = "TraceEvent";

/// The checker type whose `impl` marks a file as the invariant checker.
const CHECKER_TYPE: &str = "InvariantChecker";

/// One site of interest: `(variant, file, line)`.
type Site = (String, String, usize);

/// The stateful pass: feed it every walked file, then `finish`.
#[derive(Default)]
pub struct EventConformance {
    /// The enum definition: file, definition line, variant (name, line)s.
    defined: Option<(String, Vec<(String, usize)>)>,
    /// Whether any file held a non-test `impl InvariantChecker`.
    saw_checker: bool,
    /// First pattern-position site per variant, checker files only.
    checked: Vec<Site>,
    /// First expression-position site per variant, any file.
    emitted: Vec<Site>,
}

impl EventConformance {
    /// Fresh pass state.
    pub fn new() -> EventConformance {
        EventConformance::default()
    }

    /// Scans one file for the enum definition, emissions, and checks.
    pub fn scan_file(&mut self, file: &SourceFile) {
        if self.defined.is_none() {
            if let Some(e) = file
                .items
                .enums
                .iter()
                .find(|e| e.name == EVENT_ENUM && !file.is_test[e.start])
            {
                self.defined = Some((file.path.clone(), e.variants.clone()));
            }
        }
        let is_checker = file
            .items
            .impls
            .iter()
            .any(|i| i.type_name == CHECKER_TYPE && !file.is_test[i.start]);
        self.saw_checker |= is_checker;
        for r in file.path_refs(EVENT_ENUM) {
            if r.test {
                continue;
            }
            if r.pattern {
                if is_checker && !self.checked.iter().any(|(v, _, _)| *v == r.variant) {
                    self.checked.push((r.variant, file.path.clone(), r.line));
                }
            } else if !self.emitted.iter().any(|(v, _, _)| *v == r.variant) {
                self.emitted.push((r.variant, file.path.clone(), r.line));
            }
        }
    }

    /// Emits the drift findings. With no enum in the walked set (e.g. a
    /// fixture tree) the pass is silent; with an enum but no checker the
    /// whole protocol is unreplayable and that is the single finding.
    pub fn finish(self) -> Vec<Finding> {
        let (def_file, variants) = match self.defined {
            Some(d) => d,
            None => return Vec::new(),
        };
        let mut findings = Vec::new();
        if !self.saw_checker {
            return vec![Finding {
                pass: NAME.into(),
                file: def_file,
                line: variants.first().map(|&(_, l)| l + 1).unwrap_or(1),
                message: format!(
                    "`enum {EVENT_ENUM}` is defined but no `impl {CHECKER_TYPE}` was found in the workspace; the protocol has no replay checker"
                ),
            }];
        }
        for (name, def_line) in &variants {
            let emit = self.emitted.iter().find(|(v, _, _)| v == name);
            let check = self.checked.iter().find(|(v, _, _)| v == name);
            match (emit, check) {
                (Some(_), Some(_)) => {}
                (Some((_, f, l)), None) => findings.push(Finding {
                    pass: NAME.into(),
                    file: f.clone(),
                    line: l + 1,
                    message: format!(
                        "`{EVENT_ENUM}::{name}` is emitted here but never matched by the invariant checker; the replay checker silently ignores this event (protocol drift)"
                    ),
                }),
                (None, Some((_, f, l))) => findings.push(Finding {
                    pass: NAME.into(),
                    file: f.clone(),
                    line: l + 1,
                    message: format!(
                        "`{EVENT_ENUM}::{name}` is matched by the invariant checker here but never emitted anywhere; dead checker arm or missing emission"
                    ),
                }),
                (None, None) => findings.push(Finding {
                    pass: NAME.into(),
                    file: def_file.clone(),
                    line: def_line + 1,
                    message: format!(
                        "`{EVENT_ENUM}::{name}` is defined but never emitted nor checked; dead protocol variant"
                    ),
                }),
            }
        }
        findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(files: &[(&str, &str)]) -> Vec<Finding> {
        let mut p = EventConformance::new();
        for (path, src) in files {
            p.scan_file(&SourceFile::from_source(path, src));
        }
        p.finish()
    }

    const ENUM_SRC: &str = "pub enum TraceEvent {\n    RunStarted { n: usize },\n    GroupFormed { id: u64 },\n    Retired { id: u64 },\n}\n";

    #[test]
    fn closed_protocol_is_clean() {
        let got = run_on(&[
            ("crates/core/src/trace.rs", ENUM_SRC),
            (
                "crates/core/src/controller.rs",
                "fn go(s: &mut S) {\n    s.record(TraceEvent::RunStarted { n: 1 });\n    s.record(TraceEvent::GroupFormed { id: 2 });\n    s.record(TraceEvent::Retired { id: 2 });\n}\n",
            ),
            (
                "crates/core/src/invariants.rs",
                "impl InvariantChecker {\n    fn observe(&mut self, e: &TraceEvent) {\n        match e {\n            TraceEvent::RunStarted { .. } => {}\n            TraceEvent::GroupFormed { .. } => {}\n            TraceEvent::Retired { .. } => {}\n        }\n    }\n}\n",
            ),
        ]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn all_three_drift_classes_found() {
        let got = run_on(&[
            (
                "crates/core/src/trace.rs",
                "pub enum TraceEvent {\n    RunStarted { n: usize },\n    GroupFormed { id: u64 },\n    Retired { id: u64 },\n    Phantom,\n}\n",
            ),
            (
                "crates/core/src/controller.rs",
                "fn go(s: &mut S) {\n    s.record(TraceEvent::RunStarted { n: 1 });\n    s.record(TraceEvent::GroupFormed { id: 2 });\n}\n",
            ),
            (
                "crates/core/src/invariants.rs",
                "impl InvariantChecker {\n    fn observe(&mut self, e: &TraceEvent) {\n        match e {\n            TraceEvent::RunStarted { .. } => {}\n            TraceEvent::Phantom => {}\n            _ => {}\n        }\n    }\n}\n",
            ),
        ]);
        // GroupFormed emitted-but-unchecked, Phantom checked-but-never-
        // emitted, Retired defined-but-dead.
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(got
            .iter()
            .any(|f| f.message.contains("GroupFormed") && f.message.contains("silently ignores")));
        assert!(got
            .iter()
            .any(|f| f.message.contains("Phantom") && f.message.contains("never emitted")));
        assert!(got
            .iter()
            .any(|f| f.message.contains("Retired") && f.message.contains("dead protocol variant")));
    }

    #[test]
    fn display_matches_outside_checker_are_not_coverage() {
        // trace.rs itself matches every variant for serialization; that
        // must not count as checker coverage.
        let got = run_on(&[
            ("crates/core/src/trace.rs", ENUM_SRC),
            (
                "crates/core/src/serialize.rs",
                "fn name(e: &TraceEvent) -> &str {\n    match e {\n        TraceEvent::RunStarted { .. } => \"rs\",\n        TraceEvent::GroupFormed { .. } => \"gf\",\n        TraceEvent::Retired { .. } => \"rt\",\n    }\n}\n",
            ),
            (
                "crates/core/src/controller.rs",
                "fn go(s: &mut S) {\n    s.record(TraceEvent::RunStarted { n: 1 });\n}\n",
            ),
            (
                "crates/core/src/invariants.rs",
                "impl InvariantChecker {\n    fn observe(&mut self, e: &TraceEvent) {\n        let seen = matches!(e, TraceEvent::RunStarted { .. });\n    }\n}\n",
            ),
        ]);
        // GroupFormed and Retired are defined-but-dead (the serializer's
        // pattern refs are neither emissions nor checks).
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got
            .iter()
            .all(|f| f.message.contains("dead protocol variant")));
    }

    #[test]
    fn no_enum_in_tree_is_silent_no_checker_is_loud() {
        assert!(run_on(&[("a.rs", "fn f() {}\n")]).is_empty());
        let got = run_on(&[("crates/core/src/trace.rs", ENUM_SRC)]);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("no `impl InvariantChecker`"));
    }
}
