//! `preduce-analysis` — project-specific static analysis for the
//! partial-reduce workspace.
//!
//! Five passes enforce the contracts neither rustc nor clippy can
//! state, at analysis time rather than at 3 a.m. mid-training-run:
//!
//! | pass | contract |
//! |------|----------|
//! | `lock-discipline` | no lock-order inversions; no blocking calls under a guard |
//! | `weight-stochasticity` | every reduce weight row flows through `core::weights` (Thm. 1) |
//! | `trace-coverage` | every controller state mutation emits a `TraceEvent` |
//! | `event-conformance` | the `TraceEvent` protocol is closed: emitted ⇔ checked ⇔ defined |
//! | `reactor-blocking` | no blocking calls on reactor poll paths or `serve_fleet` |
//!
//! Two earlier passes are the toolchain's job now (DESIGN.md §10): "no
//! panicking construct on the control plane" is a set of clippy `deny`
//! attributes on the crate roots it covers, and "unsafe is confined and
//! justified" is `#![forbid(unsafe_code)]` everywhere but `preduce-tensor`
//! plus `clippy::undocumented_unsafe_blocks` there.
//!
//! The passes run on a hand-rolled token engine ([`scan`]): a
//! span-carrying token stream plus a lightweight item tree per file.
//! Scoping is discovery-first ([`scope`]): the workspace walk feeds every
//! source file to every pass, and a pass narrows that by what a file
//! *contains* — a new file is covered the moment it exists.
//!
//! Findings are suppressed only by an inline
//! `// lint: allow(<pass>) <reason>` whose reason is mandatory
//! ([`allow`]). The crate is dependency-free by design: the lint gate
//! must build anywhere the toolchain does.
//!
//! Run it as `cargo run -p preduce-analysis -- check`.

#![forbid(unsafe_code)]

pub mod allow;
pub mod passes;
pub mod scan;
pub mod scope;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use scan::SourceFile;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which pass produced it (or `allow-syntax` for malformed allows).
    pub pass: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.pass, self.message
        )
    }
}

/// Scans the workspace rooted at `root` with every pass. See
/// [`run_check_passes`].
///
/// # Errors
/// Propagates I/O errors from walking or reading the tree.
pub fn run_check(root: &Path) -> io::Result<Vec<Finding>> {
    run_check_passes(root, None)
}

/// Scans the workspace rooted at `root`: every `src/**/*.rs` file in the
/// tree (workspace walk; `target/`, hidden directories and
/// [`scope::UNWALKED`] skipped),
/// running the selected passes (`None` = all five) under their scope
/// probes, allowlist applied last. Returns surviving findings sorted by
/// path and line.
///
/// # Errors
/// Propagates I/O errors from walking or reading the tree.
pub fn run_check_passes(root: &Path, selected: Option<&[String]>) -> io::Result<Vec<Finding>> {
    let on = |name: &str| selected.is_none_or(|s| s.iter().any(|p| p == name));

    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.retain(|p| {
        relative(root, p)
            .map(|r| !r.starts_with(scope::UNWALKED) && r.split('/').any(|seg| seg == "src"))
            .unwrap_or(false)
    });
    files.sort();

    let mut findings = Vec::new();
    let mut raw = Vec::new();
    // Allow directives per path; all findings are filtered at the end so
    // the stateful cross-file passes get the same treatment as the
    // per-file ones.
    let mut allow_table: Vec<(String, Vec<allow::Allow>)> = Vec::new();
    let mut locks = passes::lock_discipline::LockDiscipline::new();
    let mut events = passes::event_conformance::EventConformance::new();

    for abs in &files {
        let Some(rel) = relative(root, abs) else {
            continue;
        };
        let file = SourceFile::load(abs, &rel)?;
        let (allows, syntax_findings) = allow::collect_allows(&file, passes::ALL);
        findings.extend(syntax_findings);
        if !allows.is_empty() {
            allow_table.push((rel.clone(), allows));
        }

        if on(passes::weight_stochasticity::NAME) && scope::weight_stochasticity(&rel) {
            raw.extend(passes::weight_stochasticity::run(&file));
        }
        if on(passes::trace_coverage::NAME) && scope::trace_coverage(&file) {
            raw.extend(passes::trace_coverage::run(&file));
        }
        if on(passes::reactor_blocking::NAME) && scope::reactor_blocking(&file) {
            raw.extend(passes::reactor_blocking::run(&file));
        }
        if on(passes::lock_discipline::NAME) && scope::lock_discipline(&file) {
            locks.scan_file(&file);
        }
        if on(passes::event_conformance::NAME) {
            events.scan_file(&file);
        }
    }
    raw.extend(locks.finish());
    raw.extend(events.finish());

    // Allow filtering, uniformly over every pass's findings.
    for (path, allows) in &allow_table {
        raw = allow::apply_allows(raw, path, allows);
    }
    findings.extend(raw);
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

/// Serializes findings as the stable machine-readable schema
/// `preduce-lint/1` (consumed by CI and any tooling):
/// `{"schema":"preduce-lint/1","count":N,"findings":[{pass,file,line,message}…]}`.
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"schema\":\"preduce-lint/1\",\"count\":");
    out.push_str(&findings.len().to_string());
    out.push_str(",\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"pass\":\"");
        out.push_str(&json_escape(&f.pass));
        out.push_str("\",\"file\":\"");
        out.push_str(&json_escape(&f.file));
        out.push_str("\",\"line\":");
        out.push_str(&f.line.to_string());
        out.push_str(",\"message\":\"");
        out.push_str(&json_escape(&f.message));
        out.push_str("\"}");
    }
    out.push_str("]}");
    out
}

/// Serializes findings as GitHub Actions annotation commands, one per
/// line: `::error file=…,line=…,title=…::message`.
pub fn github_annotations(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str("::error file=");
        out.push_str(&gh_property(&f.file));
        out.push_str(",line=");
        out.push_str(&f.line.to_string());
        out.push_str(",title=");
        out.push_str(&gh_property(&format!("preduce-lint {}", f.pass)));
        out.push_str("::");
        out.push_str(&gh_data(&f.message));
        out.push('\n');
    }
    out
}

/// Escapes a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a GitHub annotation property value.
fn gh_property(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
        .replace(':', "%3A")
        .replace(',', "%2C")
}

/// Escapes GitHub annotation message data.
fn gh_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Recursively collects `.rs` files, skipping `target/` and hidden
/// directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            // `target/` and dot-directories never hold first-party sources.
            let skip = path
                .file_name()
                .map(|n| n == "target" || n.to_string_lossy().starts_with('.'))
                .unwrap_or(false);
            if skip {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

/// `abs` relative to `root`, `/`-separated.
fn relative(root: &Path, abs: &Path) -> Option<String> {
    abs.strip_prefix(root).ok().map(|p| {
        p.components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/")
    })
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_display_is_greppable() {
        let f = Finding {
            pass: "trace-coverage".into(),
            file: "crates/x/src/a.rs".into(),
            line: 7,
            message: "m".into(),
        };
        assert_eq!(f.to_string(), "crates/x/src/a.rs:7: [trace-coverage] m");
    }

    #[test]
    fn json_output_is_stable_and_escaped() {
        let fs = vec![Finding {
            pass: "trace-coverage".into(),
            file: "crates/x/src/a.rs".into(),
            line: 7,
            message: "`.unwrap()` with \"quotes\"\nand a newline".into(),
        }];
        let got = to_json(&fs);
        assert_eq!(
            got,
            "{\"schema\":\"preduce-lint/1\",\"count\":1,\"findings\":[{\"pass\":\"trace-coverage\",\"file\":\"crates/x/src/a.rs\",\"line\":7,\"message\":\"`.unwrap()` with \\\"quotes\\\"\\nand a newline\"}]}"
        );
        assert_eq!(
            to_json(&[]),
            "{\"schema\":\"preduce-lint/1\",\"count\":0,\"findings\":[]}"
        );
    }

    #[test]
    fn github_annotations_escape_properties_and_data() {
        let fs = vec![Finding {
            pass: "lock-discipline".into(),
            file: "crates/x/src/a,b.rs".into(),
            line: 3,
            message: "50% bad\nsecond line".into(),
        }];
        let got = github_annotations(&fs);
        assert_eq!(
            got,
            "::error file=crates/x/src/a%2Cb.rs,line=3,title=preduce-lint lock-discipline::50%25 bad%0Asecond line\n"
        );
    }
}
