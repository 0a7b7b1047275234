//! `weight-stochasticity`: reduce weight rows come from
//! `core::weights`, nowhere else.
//!
//! Theorem 1's convergence bound needs every synchronization matrix to
//! be doubly stochastic (Eq. 9), which holds *by construction* exactly
//! when every weight row is built by `core::weights` (constant `1/P`
//! rows, EMA dynamic rows, singleton rows). A hand-rolled
//! `vec![1.0 / p; p]` elsewhere is one refactor away from a row that
//! silently breaks the precondition. Gradient-scale arithmetic
//! (`grad.scale(1.0 / n)`) and learning-rate scales (`1.0 / staleness`)
//! are not weight rows and are not flagged.
//!
//! v2 detects the uniform literal on the token stream (`vec` `!` `[`
//! `1.0` `/` survives any spacing or line wrap); the `weights`-named
//! heuristic stays line-oriented — it is a naming convention, not a
//! syntactic construct.

use crate::scan::{has_word, SourceFile, TokenKind};
use crate::Finding;

/// Pass name used in findings and allow directives.
pub const NAME: &str = "weight-stochasticity";

/// The one module allowed to build weight rows.
pub const HOME: &str = "crates/core/src/weights.rs";

/// Runs the pass on one file (the caller excludes [`HOME`]).
pub fn run(file: &SourceFile) -> Vec<Finding> {
    let uniform_lines = uniform_literal_lines(file);
    let mut findings = Vec::new();
    for (i, line) in file.non_test_lines() {
        let uniform_literal = uniform_lines.contains(&i);
        let named_weight_build =
            has_word(line, "weights") && (line.contains("vec![") || line.contains("1.0 /"));
        if uniform_literal || named_weight_build {
            findings.push(Finding {
                pass: NAME.into(),
                file: file.path.clone(),
                line: i + 1,
                message: if uniform_literal {
                    "uniform weight row built by hand; use `core::weights::constant_weights` so the doubly-stochastic precondition holds by construction".into()
                } else {
                    "weight row constructed outside `core::weights`; route it through the blessed constructors (Thm. 1 precondition)".into()
                },
            });
        }
    }
    findings
}

/// Lines (0-based) where a `vec![1.0 / …]` uniform row literal starts.
fn uniform_literal_lines(file: &SourceFile) -> Vec<usize> {
    let mut out = Vec::new();
    let n = file.ct_len();
    for k in 0..n {
        let tok = file.ct(k);
        if tok.kind != TokenKind::Ident || tok.text != "vec" || k + 4 >= n {
            continue;
        }
        if file.ct(k + 1).text == "!"
            && file.ct(k + 2).text == "["
            && file.ct(k + 3).kind == TokenKind::Number
            && matches!(file.ct(k + 3).text.as_str(), "1.0" | "1.")
            && file.ct(k + 4).text == "/"
            && !file.is_test[tok.line]
        {
            out.push(tok.line);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_rolled_rows_flagged() {
        let f = SourceFile::from_source(
            "crates/x/src/a.rs",
            "fn f(n: usize) {\n    let weights = vec![1.0 / n as f32; n];\n    let w = vec![1.0 / n as f32; n];\n    let d = GroupAssignment { weights: vec![1.0], group };\n}\n",
        );
        let got = run(&f);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn spaced_uniform_literal_still_flagged() {
        let f = SourceFile::from_source(
            "crates/x/src/a.rs",
            "fn f(n: usize) {\n    let w = vec![ 1.0 / n as f32; n ];\n}\n",
        );
        assert_eq!(run(&f).len(), 1);
    }

    #[test]
    fn scales_and_blessed_calls_clean() {
        let f = SourceFile::from_source(
            "crates/x/src/a.rs",
            "fn f(n: usize, s: u64) {\n    grad.scale(1.0 / n as f32);\n    let lr = 1.0 / s as f32;\n    let weights = constant_weights(n);\n    let link_slowdown = vec![1.0; n];\n}\n",
        );
        assert!(run(&f).is_empty());
    }
}
