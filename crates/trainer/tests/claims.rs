//! The paper's claims as tests: one test per figure of
//! [`preduce_trainer::paper`].
//!
//! Each test runs its figure, requires every claim row to reach its
//! expected verdict (a failure names the rows), and compares the rendered
//! markdown byte for byte with the figure's `<!-- reproduce:ID -->` block
//! in EXPERIMENTS.md, so the document is `preduce reproduce ID`'s output.
//! A change that moves a trajectory fails here until EXPERIMENTS.md is
//! regenerated and its prose still matches the verdicts.
//!
//! Fig. 10 and Fig. 11 only make sense optimized, so they are gated on
//! release mode; CI runs them with
//! `cargo test --release -p preduce-trainer --test claims`.

use preduce_trainer::paper;

fn reproduces(id: &str) {
    let r = paper::reproduce(id).expect("a figure id");
    assert!(
        r.mismatches.is_empty(),
        "{id}: claim row(s) {:?} differ from their expected verdict:\n\n{}",
        r.mismatches,
        r.markdown
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
    let (open, close) = (
        format!("<!-- reproduce:{id} -->\n"),
        format!("<!-- /reproduce:{id} -->"),
    );
    let start = doc
        .find(&open)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{}` marker", open.trim()))
        + open.len();
    let end = start
        + doc[start..]
            .find(&close)
            .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{close}` marker"));
    let block = &doc[start..end];
    if block != r.markdown {
        let lines = block.lines().count().max(r.markdown.lines().count());
        let (line, (want, got)) = block
            .lines()
            .chain(std::iter::repeat(""))
            .zip(r.markdown.lines().chain(std::iter::repeat("")))
            .take(lines)
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((lines, ("(line breaks differ)", "")));
        panic!(
            "{id}: EXPERIMENTS.md's block differs from `preduce reproduce {id}` at its \
             line {}:\n  doc: {want}\n  run: {got}\n\nregenerated block:\n{}",
            line + 1,
            r.markdown
        );
    }
}

#[test]
fn table1() {
    reproduces("table1");
}

#[test]
fn fig4() {
    reproduces("fig4");
}

#[test]
fn fig7() {
    reproduces("fig7");
}

#[test]
fn fig8() {
    reproduces("fig8");
}

#[test]
fn fig9() {
    reproduces("fig9");
}

#[cfg(not(debug_assertions))]
#[test]
fn fig10() {
    reproduces("fig10");
}

#[cfg(not(debug_assertions))]
#[test]
fn fig11() {
    reproduces("fig11");
}

#[test]
fn ablations() {
    reproduces("ablations");
}

#[test]
fn case1() {
    reproduces("case1");
}

#[test]
fn theorem1() {
    reproduces("theorem1");
}
