//! `trace-coverage`: every controller state-mutation path
//! emits a `TraceEvent`.
//!
//! PR 1's invariant checker replays the event stream; a method on the
//! controller that mutates state without recording (and without
//! reaching a recording method) is a blind spot the checker can never
//! see into.
//!
//! v2 stops equating `&mut self` with "mutates": the v1 scanner flagged
//! every non-emitting `&mut self` method, so a method that only takes
//! `&mut self` to hand a field out (or to satisfy a trait) was a false
//! positive waiting for an allow. The token walk now looks for *actual*
//! mutation of controller state — assignment into a `self` path, a
//! mutating collection method on one, `&mut self.field` escaping into a
//! call, or whole-object replacement `*self = …` — and both the
//! "mutates" and "emits" facts propagate through `self.method(…)` calls
//! to a fixpoint. A method is flagged iff it (transitively) mutates and
//! does not (transitively) emit.

use crate::scan::{FnItem, SourceFile, TokenKind};
use crate::Finding;

/// Pass name used in findings and allow directives.
pub const NAME: &str = "trace-coverage";

/// Collection/option methods that mutate their receiver.
const MUTATING_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_back",
    "pop_front",
    "insert",
    "remove",
    "swap_remove",
    "clear",
    "extend",
    "drain",
    "retain",
    "truncate",
    "append",
    "swap",
    "fill",
    "resize",
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_unstable_by",
    "rotate_left",
    "rotate_right",
    "take",
    "replace",
    "get_or_insert_with",
    "entry",
    "dedup",
];

/// Compound and plain assignment operators (single tokens post-lexing,
/// so `==`/`<=`/`>=` cannot be mistaken for them).
const ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
];

/// Runs the pass on one file (the caller scopes it to the controller).
pub fn run(file: &SourceFile) -> Vec<Finding> {
    let fns: Vec<&FnItem> = file
        .items
        .fns
        .iter()
        .filter(|f| !file.is_test[f.start] && f.body.is_some())
        .collect();

    let mut mutates: Vec<bool> = fns.iter().map(|f| mutates_directly(file, f)).collect();
    let mut emits: Vec<bool> = fns.iter().map(|f| emits_directly(file, f)).collect();
    let callees: Vec<Vec<String>> = fns.iter().map(|f| self_callees(file, f)).collect();

    // Propagate both facts through self-calls to a fixpoint.
    loop {
        let mut grew = false;
        for i in 0..fns.len() {
            for callee in &callees[i] {
                if let Some(j) = fns.iter().position(|f| &f.name == callee) {
                    if mutates[j] && !mutates[i] {
                        mutates[i] = true;
                        grew = true;
                    }
                    if emits[j] && !emits[i] {
                        emits[i] = true;
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }

    fns.iter()
        .enumerate()
        .filter(|&(i, f)| f.takes_mut_self && mutates[i] && !emits[i])
        .map(|(_, f)| Finding {
            pass: NAME.into(),
            file: file.path.clone(),
            line: f.start + 1,
            message: format!(
                "`{}` takes `&mut self` but no `TraceEvent` is emitted on this path; the replay checker cannot see this mutation",
                f.name
            ),
        })
        .collect()
}

/// True when the body visibly mutates controller state.
fn mutates_directly(file: &SourceFile, f: &FnItem) -> bool {
    let (open, close) = match f.body {
        Some(b) => b,
        None => return false,
    };
    let mut k = open;
    while k <= close {
        let tok = file.ct(k);
        if tok.kind == TokenKind::Ident && tok.text == "self" {
            // `*self = …` whole-object replacement.
            if k > open
                && file.ct(k - 1).text == "*"
                && k < close
                && ASSIGN_OPS.contains(&file.ct(k + 1).text.as_str())
            {
                return true;
            }
            // `&mut self.field` escaping into a call.
            if k >= open + 2
                && file.ct(k - 1).text == "mut"
                && file.ct(k - 2).text == "&"
                && k < close
                && file.ct(k + 1).text == "."
            {
                return true;
            }
            match walk_self_path(file, k, close) {
                PathEnd::Assigned | PathEnd::MutatingCall => return true,
                PathEnd::Other(next) => {
                    k = next;
                    continue;
                }
            }
        }
        k += 1;
    }
    false
}

enum PathEnd {
    /// The path is followed by an assignment operator.
    Assigned,
    /// The path ends in a mutating method call.
    MutatingCall,
    /// Neither; resume scanning at this token.
    Other(usize),
}

/// Walks `self(.field | .0 | [idx] | .method(…))*` from the `self` token
/// and classifies how the path ends.
fn walk_self_path(file: &SourceFile, k_self: usize, close: usize) -> PathEnd {
    let mut j = k_self + 1;
    while j <= close {
        let tok = file.ct(j);
        if tok.text == "." && j < close {
            let seg = file.ct(j + 1);
            let is_call = j + 2 <= close && file.ct(j + 2).text == "(";
            if seg.kind == TokenKind::Ident && is_call {
                if MUTATING_METHODS.contains(&seg.text.as_str()) {
                    return PathEnd::MutatingCall;
                }
                // Non-mutating call: skip its arguments, keep chaining
                // (`self.queue.lock().unwrap().push(x)`).
                let mut depth = 0usize;
                let mut p = j + 2;
                while p <= close {
                    match file.ct(p).text.as_str() {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    p += 1;
                }
                j = p + 1;
                continue;
            }
            if seg.kind == TokenKind::Ident || seg.kind == TokenKind::Number {
                j += 2;
                continue;
            }
            return PathEnd::Other(j);
        }
        if tok.text == "[" {
            let mut depth = 0usize;
            let mut p = j;
            while p <= close {
                match file.ct(p).text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                p += 1;
            }
            j = p + 1;
            continue;
        }
        if ASSIGN_OPS.contains(&tok.text.as_str()) {
            return PathEnd::Assigned;
        }
        return PathEnd::Other(j);
    }
    PathEnd::Other(j)
}

/// True when the body records directly: a `TraceEvent::…` construction
/// or a `.record(` call.
fn emits_directly(file: &SourceFile, f: &FnItem) -> bool {
    let (open, close) = match f.body {
        Some(b) => b,
        None => return false,
    };
    for k in open..=close {
        let tok = file.ct(k);
        if tok.kind != TokenKind::Ident {
            continue;
        }
        if tok.text == "TraceEvent" && k < close && file.ct(k + 1).text == "::" {
            return true;
        }
        if tok.text == "record"
            && k > open
            && file.ct(k - 1).text == "."
            && k < close
            && file.ct(k + 1).text == "("
        {
            return true;
        }
    }
    false
}

/// Names of in-file functions this body calls: `self.method(…)` plus
/// free calls `helper(…)` (emission via a free helper in the same file
/// counts, matching the v1 propagation).
fn self_callees(file: &SourceFile, f: &FnItem) -> Vec<String> {
    let mut out = Vec::new();
    let (open, close) = match f.body {
        Some(b) => b,
        None => return out,
    };
    for k in open..=close {
        let tok = file.ct(k);
        if tok.kind == TokenKind::Ident
            && tok.text == "self"
            && k + 3 <= close
            && file.ct(k + 1).text == "."
            && file.ct(k + 2).kind == TokenKind::Ident
            && file.ct(k + 3).text == "("
        {
            let name = file.ct(k + 2).text.clone();
            if !out.contains(&name) {
                out.push(name);
            }
        }
        if tok.kind == TokenKind::Ident
            && k < close
            && file.ct(k + 1).text == "("
            && (k == open || !matches!(file.ct(k - 1).text.as_str(), "." | "::" | "fn"))
            && !out.contains(&tok.text)
        {
            out.push(tok.text.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_mutation_flagged() {
        let f = SourceFile::from_source(
            "crates/core/src/controller.rs",
            "impl C {\n    fn silent(&mut self) {\n        self.x += 1;\n    }\n}\n",
        );
        let got = run(&f);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("silent"));
    }

    #[test]
    fn direct_and_transitive_emission_clean() {
        let f = SourceFile::from_source(
            "crates/core/src/controller.rs",
            "impl C {\n    fn emitter(&mut self) {\n        self.x += 1;\n        self.sink.record(TraceEvent::RunStarted { n: 0 });\n    }\n    fn caller(&mut self) {\n        self.emitter();\n    }\n    fn reader(&self) -> u8 {\n        self.x\n    }\n}\n",
        );
        assert!(run(&f).is_empty());
    }

    #[test]
    fn non_mutating_mut_self_is_not_flagged() {
        // v1 flagged any non-emitting `&mut self`; v2 requires an actual
        // mutation, so an accessor handing out a field is clean.
        let f = SourceFile::from_source(
            "crates/core/src/controller.rs",
            "impl C {\n    fn sink_mut(&mut self) -> &mut Sink {\n        &mut self.sink\n    }\n    fn compute(&mut self) -> u8 {\n        let local = self.x + 1;\n        local\n    }\n}\n",
        );
        let got = run(&f);
        // `sink_mut` lends `&mut self.sink` out — conservatively a
        // mutation path — but `compute` touches only locals and is clean.
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("sink_mut"));
    }

    #[test]
    fn mutating_collection_calls_and_transitive_mutation_detected() {
        let f = SourceFile::from_source(
            "crates/core/src/controller.rs",
            "impl C {\n    fn enqueue(&mut self, w: u32) {\n        self.ready.push(w);\n    }\n    fn outer(&mut self, w: u32) {\n        self.enqueue(w);\n    }\n}\n",
        );
        let got = run(&f);
        assert_eq!(got.len(), 2, "{got:?}");
    }

    #[test]
    fn chained_mutation_through_guard_detected() {
        let f = SourceFile::from_source(
            "crates/core/src/controller.rs",
            "impl C {\n    fn q(&mut self, w: u32) {\n        self.queue.lock().unwrap().push(w);\n    }\n}\n",
        );
        assert_eq!(run(&f).len(), 1);
    }
}
