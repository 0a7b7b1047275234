//! CLI for the workspace lint engine.
//!
//! ```text
//! preduce-analysis check [--root <path>] [--format text|json|github] [--pass a,b]
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error — so CI
//! can gate on it and scripts can tell "dirty tree" from "broken run".

#![forbid(unsafe_code)]

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
preduce-analysis: project-specific static analysis for the preduce workspace

USAGE:
    preduce-analysis check [--root <path>] [--format text|json|github] [--pass <a,b,…>]

OPTIONS:
    --root <path>      workspace root (default: found from the cwd)
    --format <fmt>     text (default), json (schema preduce-lint/1), or
                       github (Actions annotation commands)
    --pass <a,b,…>     run only the named passes (comma-separated)

PASSES:
    lock-discipline       lock-order inversions, blocking calls under a guard
    weight-stochasticity  weight rows must come from core::weights (Thm. 1)
    trace-coverage        controller mutations must emit TraceEvents
    event-conformance     TraceEvent variants: emitted ⇔ checked ⇔ defined
    reactor-blocking      no blocking calls on reactor poll paths/serve_fleet

Suppress a finding with `// lint: allow(<pass>) <reason>` — the reason
is mandatory. Panicking constructs and `unsafe` are clippy's and rustc's
job (`cargo clippy --workspace --all-targets -- -D warnings`).
Exit codes: 0 clean, 1 findings, 2 usage/I/O error.
";

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = String::from("text");
    let mut selected: Option<Vec<String>> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("--root needs a value\n\n{USAGE}");
                    return ExitCode::from(2);
                };
                root = Some(PathBuf::from(v));
                i += 2;
            }
            "--format" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("--format needs a value\n\n{USAGE}");
                    return ExitCode::from(2);
                };
                if !matches!(v.as_str(), "text" | "json" | "github") {
                    eprintln!("unknown format `{v}` (expected text, json, or github)");
                    return ExitCode::from(2);
                }
                format = v.clone();
                i += 2;
            }
            "--pass" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("--pass needs a value\n\n{USAGE}");
                    return ExitCode::from(2);
                };
                let names: Vec<String> = v.split(',').map(|s| s.trim().to_string()).collect();
                for n in &names {
                    if !preduce_analysis::passes::ALL.contains(&n.as_str()) {
                        eprintln!(
                            "unknown pass `{n}` (known: {})",
                            preduce_analysis::passes::ALL.join(", ")
                        );
                        return ExitCode::from(2);
                    }
                }
                selected = Some(names);
                i += 2;
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root {
        Some(r) => {
            // A typo'd --root would otherwise scan zero files and report
            // "clean" — a silently green CI gate.
            if !r.join("crates").is_dir() {
                eprintln!(
                    "preduce-analysis: `{}` is not a workspace root (no crates/ directory)",
                    r.display()
                );
                return ExitCode::from(2);
            }
            r
        }
        None => {
            let cwd = match env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot read current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match preduce_analysis::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "no workspace root found above {}; pass --root",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };
    match preduce_analysis::run_check_passes(&root, selected.as_deref()) {
        Ok(findings) => {
            match format.as_str() {
                "json" => print!("{}", preduce_analysis::to_json(&findings)),
                "github" => {
                    print!("{}", preduce_analysis::github_annotations(&findings));
                    if findings.is_empty() {
                        println!("preduce-analysis: workspace clean");
                    } else {
                        println!("preduce-analysis: {} finding(s)", findings.len());
                    }
                }
                _ => {
                    if findings.is_empty() {
                        println!("preduce-analysis: workspace clean");
                    } else {
                        for f in &findings {
                            println!("{f}");
                        }
                        println!("preduce-analysis: {} finding(s)", findings.len());
                    }
                }
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("preduce-analysis: I/O error: {e}");
            ExitCode::from(2)
        }
    }
}
