//! The inline escape hatch: `// lint: allow(<pass>) <reason>`.
//!
//! An allow comment suppresses findings of the named pass on the line it
//! trails, or — when the comment stands alone — on the next line that
//! carries code. The reason is mandatory: an allow without one (or
//! naming an unknown pass) is itself a finding, so every exemption in
//! the tree documents why the contract does not apply.
//!
//! `panic-path` and `unsafe-audit` were passes until clippy and rustc
//! took their contracts over (DESIGN.md §10); a directive still naming
//! one is an `allow-syntax` finding that says which attribute replaces
//! it, so a stale directive cannot linger as dead text.

use crate::scan::SourceFile;
use crate::Finding;

/// Marker the parser looks for inside comments.
const MARKER: &str = "lint: allow(";

/// Retired pass names and what excuses their contract today.
const RETIRED: &[(&str, &str)] = &[
    (
        "panic-path",
        "`#[allow(clippy::panic, reason = \"…\")]` (or `clippy::expect_used`, `clippy::indexing_slicing`, …) on the enclosing item",
    ),
    (
        "unsafe-audit",
        "a `// SAFETY:` comment (`clippy::undocumented_unsafe_blocks`); outside `preduce-tensor` the crate root's `#![forbid(unsafe_code)]` has no escape",
    ),
];

/// A parsed, well-formed allow directive.
pub struct Allow {
    /// 0-based line the directive suppresses findings on.
    pub covers: usize,
    /// Pass name inside the parentheses.
    pub pass: String,
}

/// Extracts the allow directives of a file. Malformed directives
/// (missing reason, unknown pass) come back as `allow-syntax` findings.
pub fn collect_allows(file: &SourceFile, known_passes: &[&str]) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for (i, raw) in file.raw.iter().enumerate() {
        // Test code gets no findings, so its allows (and strings that
        // merely mention the grammar) are not directives.
        if file.is_test[i] {
            continue;
        }
        // Directives live in comments: only look at the stripped-out part
        // of the line (present in raw, blanked in code).
        let Some(comment_start) = raw.find("//") else {
            continue;
        };
        // A `//` surviving in the code view is not a comment.
        if file.code[i].get(comment_start..comment_start + 2) == Some("//") {
            continue;
        }
        let comment = &raw[comment_start..];
        // Doc comments describe the grammar; they cannot invoke it.
        if comment.starts_with("///") || comment.starts_with("//!") {
            continue;
        }
        let Some(m) = comment.find(MARKER) else {
            continue;
        };
        let after = &comment[m + MARKER.len()..];
        // `<pass>`/`{pass}`-style placeholders are documentation (or
        // this crate's own messages), not directives.
        if after.starts_with('<') || after.starts_with('{') {
            continue;
        }
        let Some(close) = after.find(')') else {
            findings.push(Finding {
                pass: "allow-syntax".into(),
                file: file.path.clone(),
                line: i + 1,
                message: "unclosed `lint: allow(<pass>)` directive".into(),
            });
            continue;
        };
        let pass = after[..close].trim().to_string();
        let reason = after[close + 1..].trim();
        if !known_passes.contains(&pass.as_str()) {
            let message = match RETIRED.iter().find(|(name, _)| *name == pass) {
                Some((_, instead)) => format!(
                    "`lint: allow({pass})` names a retired pass; the toolchain enforces that contract now — use {instead}"
                ),
                None => format!(
                    "`lint: allow({pass})` names an unknown pass (known: {})",
                    known_passes.join(", ")
                ),
            };
            findings.push(Finding {
                pass: "allow-syntax".into(),
                file: file.path.clone(),
                line: i + 1,
                message,
            });
            continue;
        }
        if reason.is_empty() {
            findings.push(Finding {
                pass: "allow-syntax".into(),
                file: file.path.clone(),
                line: i + 1,
                message: format!(
                    "`lint: allow({pass})` needs a reason: `// lint: allow({pass}) <why>`"
                ),
            });
            continue;
        }
        let covers = if file.code[i].trim().is_empty() {
            // Standalone comment: covers the next line carrying code.
            match (i + 1..file.len()).find(|&j| !file.code[j].trim().is_empty()) {
                Some(j) => j,
                None => continue,
            }
        } else {
            i
        };
        allows.push(Allow { covers, pass });
    }
    (allows, findings)
}

/// Drops the findings in file `path` that one of its `allows` covers
/// (matching pass and line).
pub fn apply_allows(mut findings: Vec<Finding>, path: &str, allows: &[Allow]) -> Vec<Finding> {
    findings.retain(|f| {
        !allows
            .iter()
            .any(|a| f.file == path && f.line == a.covers + 1 && f.pass == a.pass)
    });
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    const PASSES: &[&str] = &["weight-stochasticity", "lock-discipline"];

    fn finding(file: &SourceFile, line: usize) -> Finding {
        Finding {
            pass: "weight-stochasticity".into(),
            file: file.path.clone(),
            line,
            message: "x".into(),
        }
    }

    #[test]
    fn trailing_allow_covers_its_own_line() {
        let f = SourceFile::from_source(
            "t.rs",
            "let w = vec![1.0 / p; p]; // lint: allow(weight-stochasticity) seeded in main\n",
        );
        let (allows, bad) = collect_allows(&f, PASSES);
        assert!(bad.is_empty());
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].covers, 0);
        let kept = apply_allows(vec![finding(&f, 1)], &f.path, &allows);
        assert!(kept.is_empty());
    }

    #[test]
    fn standalone_allow_covers_next_code_line() {
        let f = SourceFile::from_source(
            "t.rs",
            "// lint: allow(weight-stochasticity) startup-only path\n\nlet w = vec![1.0 / p; p];\n",
        );
        let (allows, bad) = collect_allows(&f, PASSES);
        assert!(bad.is_empty());
        assert_eq!(allows[0].covers, 2);
        assert!(apply_allows(vec![finding(&f, 3)], &f.path, &allows).is_empty());
    }

    #[test]
    fn reason_is_mandatory() {
        let f = SourceFile::from_source(
            "t.rs",
            "let w = vec![1.0 / p; p]; // lint: allow(weight-stochasticity)\n",
        );
        let (allows, bad) = collect_allows(&f, PASSES);
        assert!(allows.is_empty());
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].pass, "allow-syntax");
        // And the original finding is NOT suppressed.
        assert_eq!(
            apply_allows(vec![finding(&f, 1)], &f.path, &allows).len(),
            1
        );
    }

    #[test]
    fn unknown_pass_rejected() {
        let f = SourceFile::from_source("t.rs", "x(); // lint: allow(made-up) because\n");
        let (allows, bad) = collect_allows(&f, PASSES);
        assert!(allows.is_empty());
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn allow_of_other_pass_does_not_suppress() {
        let f = SourceFile::from_source(
            "t.rs",
            "let w = vec![1.0 / p; p]; // lint: allow(lock-discipline) wrong pass\n",
        );
        let (allows, _) = collect_allows(&f, PASSES);
        assert_eq!(
            apply_allows(vec![finding(&f, 1)], &f.path, &allows).len(),
            1
        );
    }
}
