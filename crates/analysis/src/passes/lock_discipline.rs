//! `lock-discipline`: a static lock-order graph plus
//! guard-across-blocking-call detection, rebuilt on the token engine.
//!
//! Within each function the pass tracks which lock guards are live
//! (bound by `let`, released at scope exit or explicit `drop`), with two
//! refinements: a condvar `wait(guard)` *consumes and returns* the guard
//! (the lock is released while waiting, so the wait is not "blocking
//! under a lock"), and an un-bound acquisition (`x.lock().…` inside a
//! larger expression) lives only for its statement.
//!
//! v2 walks real tokens instead of lines: guard liveness is tied to the
//! brace depth of the *binding statement* (the v1 line scanner credited
//! a `let` with every `{` on its line, so `let g = m.lock(); if x {`
//! mis-scoped the guard), statements span lines for free, and strings
//! or comments containing braces cannot skew the depth.
//!
//! Two rules emit findings:
//! 1. **Order inversion** — every "guard of A live while B is acquired"
//!    site adds edge A→B to a global graph; any cycle is a potential
//!    deadlock and each edge on it is reported.
//! 2. **Blocking under a lock** — a live guard across a channel
//!    send/recv, sleep, join, barrier wait, or socket/file I/O call
//!    serializes or deadlocks the fleet.

use crate::scan::{FnItem, SourceFile, TokenKind};
use crate::Finding;

/// Pass name used in findings and allow directives.
pub const NAME: &str = "lock-discipline";

/// Guard-returning methods (empty argument list).
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// Adapters that keep a `let` bound to the guard itself.
const ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// One acquisition observed while another guard was live.
struct Edge {
    from: String,
    to: String,
    file: String,
    line: usize,
}

/// The stateful pass: feed it every in-scope file, then `finish`.
#[derive(Default)]
pub struct LockDiscipline {
    edges: Vec<Edge>,
    findings: Vec<Finding>,
}

/// A live guard inside a function walk.
struct Guard {
    /// Binding name (`None` for a statement-temporary guard).
    name: Option<String>,
    /// Normalized lock key (receiver identifier).
    key: String,
    /// Brace depth the binding lives at; leaving it releases the guard.
    depth: usize,
}

impl LockDiscipline {
    /// Fresh pass state.
    pub fn new() -> LockDiscipline {
        LockDiscipline::default()
    }

    /// Scans one file, recording blocking-under-lock findings and
    /// lock-order edges.
    pub fn scan_file(&mut self, file: &SourceFile) {
        let fns = &file.items.fns;
        for f in fns {
            if file.is_test[f.start] || f.body.is_none() {
                continue;
            }
            // Nested fn bodies are walked as their own items; skip them
            // here so their guards do not leak into the parent's scope.
            let (open, close) = f.body.unwrap_or((0, 0));
            let mut skips: Vec<(usize, usize)> = fns
                .iter()
                .filter_map(|g| g.body)
                .filter(|&(o, c)| o > open && c < close)
                .collect();
            skips.sort_unstable();
            self.walk_fn(file, open, close, &skips);
        }
    }

    fn walk_fn(&mut self, file: &SourceFile, open: usize, close: usize, skips: &[(usize, usize)]) {
        let mut guards: Vec<Guard> = Vec::new();
        let mut temps: Vec<String> = Vec::new();
        let mut depth = 0usize;
        let mut stmt_start = open + 1;
        let mut k = open;
        while k <= close {
            if let Some(&(_, sc)) = skips.iter().find(|&&(so, _)| so == k) {
                k = sc + 1;
                stmt_start = k;
                continue;
            }
            let tok = file.ct(k);
            match (tok.kind, tok.text.as_str()) {
                (TokenKind::Punct, "{") => {
                    depth += 1;
                    temps.clear();
                    stmt_start = k + 1;
                }
                (TokenKind::Punct, "}") => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                    temps.clear();
                    stmt_start = k + 1;
                }
                (TokenKind::Punct, ";") => {
                    temps.clear();
                    stmt_start = k + 1;
                }
                (TokenKind::Ident, "drop") => {
                    // `drop(name)` (not `.drop(`) releases the named guard.
                    let prev_dot = k > 0 && file.ct(k - 1).text == ".";
                    if !prev_dot
                        && k + 3 <= close
                        && file.ct(k + 1).text == "("
                        && file.ct(k + 2).kind == TokenKind::Ident
                        && file.ct(k + 3).text == ")"
                    {
                        let name = file.ct(k + 2).text.clone();
                        guards.retain(|g| g.name.as_deref() != Some(name.as_str()));
                    }
                }
                (TokenKind::Ident, m) if is_acquire(file, k, close, m) => {
                    let key = receiver_key(file, k);
                    if let Some(key) = key {
                        let condvar = stmt_has_condvar_wait(file, stmt_start, close);
                        if !condvar && (guards.iter().any(|g| g.key == key) || temps.contains(&key))
                        {
                            self.findings.push(Finding {
                                pass: NAME.into(),
                                file: file.path.clone(),
                                line: tok.line + 1,
                                message: format!(
                                    "lock `{key}` acquired while already held in this function"
                                ),
                            });
                        }
                        for held in guards
                            .iter()
                            .map(|g| g.key.as_str())
                            .chain(temps.iter().map(String::as_str))
                        {
                            if held != key {
                                self.edges.push(Edge {
                                    from: held.to_string(),
                                    to: key.clone(),
                                    file: file.path.clone(),
                                    line: tok.line + 1,
                                });
                            }
                        }
                        match let_binding_of(file, stmt_start, k, close) {
                            Some(name) => guards.push(Guard {
                                name: Some(name),
                                key,
                                depth,
                            }),
                            None => temps.push(key),
                        }
                    }
                }
                _ => {}
            }
            // Blocking call at this token?
            if let Some(display) = blocking_at(file, k, close) {
                let mut held: Vec<String> = guards
                    .iter()
                    .map(|g| g.key.clone())
                    .chain(temps.iter().cloned())
                    .collect();
                // Acquisitions later in the same statement (e.g.
                // `write_frame(&mut w.lock(), …)`) are held across the call.
                held.extend(stmt_acquisitions_after(file, k, close));
                let condvar_send =
                    || display == ".send(" && stmt_has_condvar_wait(file, stmt_start, close);
                if !held.is_empty() && !condvar_send() {
                    self.findings.push(Finding {
                        pass: NAME.into(),
                        file: file.path.clone(),
                        line: file.ct(k).line + 1,
                        message: format!(
                            "blocking call `{display}` while holding lock{} `{}`",
                            if held.len() > 1 { "s" } else { "" },
                            held.join("`, `")
                        ),
                    });
                }
            }
            k += 1;
        }
    }

    /// Emits accumulated findings plus one finding per lock-order cycle.
    pub fn finish(mut self) -> Vec<Finding> {
        // Deduplicate edges by (from, to), keeping the first site.
        let mut uniq: Vec<&Edge> = Vec::new();
        for e in &self.edges {
            if !uniq.iter().any(|u| u.from == e.from && u.to == e.to) {
                uniq.push(e);
            }
        }
        // Every edge that can reach its own source participates in a
        // cycle; report it at its acquisition site.
        for e in &uniq {
            if reaches(&uniq, &e.to, &e.from) {
                self.findings.push(Finding {
                    pass: NAME.into(),
                    file: e.file.clone(),
                    line: e.line,
                    message: format!(
                        "lock-order inversion: `{}` → `{}` here, but the reverse order also exists (potential deadlock)",
                        e.from, e.to
                    ),
                });
            }
        }
        self.findings
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        self.findings
    }
}

/// Reachability in the dedup'd edge list.
fn reaches(edges: &[&Edge], from: &str, to: &str) -> bool {
    let mut stack = vec![from.to_string()];
    let mut seen = vec![];
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if seen.contains(&n) {
            continue;
        }
        seen.push(n.clone());
        for e in edges {
            if e.from == n {
                stack.push(e.to.clone());
            }
        }
    }
    false
}

/// True when code-token `k` is the method name of a guard acquisition:
/// `.lock()` / `.read()` / `.write()` with an empty argument list.
fn is_acquire(file: &SourceFile, k: usize, close: usize, m: &str) -> bool {
    ACQUIRE_METHODS.contains(&m)
        && k > 0
        && file.ct(k - 1).text == "."
        && k + 2 <= close
        && file.ct(k + 1).text == "("
        && file.ct(k + 2).text == ")"
}

/// Walks back from the acquisition's `.` to name the receiver: the
/// identifier before the dot, with one index-bracket group skipped
/// (`boards[slot].lock()` → `boards`, `self.writer.lock()` → `writer`).
fn receiver_key(file: &SourceFile, k_method: usize) -> Option<String> {
    let mut p = k_method.checked_sub(2)?;
    if file.ct(p).text == "]" {
        let mut depth = 0usize;
        loop {
            match file.ct(p).text.as_str() {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            p = p.checked_sub(1)?;
        }
        p = p.checked_sub(1)?;
    }
    let tok = file.ct(p);
    (tok.kind == TokenKind::Ident && tok.text != "self").then(|| tok.text.clone())
}

/// If the statement starting at `stmt_start` is `let [mut] name = …` and
/// everything after the acquisition at `k_method` is an unwrap/expect
/// chain ending the statement, the `let` binds the guard itself.
fn let_binding_of(
    file: &SourceFile,
    stmt_start: usize,
    k_method: usize,
    close: usize,
) -> Option<String> {
    if file.ct(stmt_start).text != "let" {
        return None;
    }
    let mut p = stmt_start + 1;
    if file.ct(p).text == "mut" {
        p += 1;
    }
    let name_tok = file.ct(p);
    if name_tok.kind != TokenKind::Ident || file.ct(p + 1).text != "=" {
        return None;
    }
    // Chain check from just past the acquisition's `()`.
    let mut q = k_method + 3;
    loop {
        if q > close {
            return None;
        }
        let tok = file.ct(q);
        if tok.text == ";" {
            return Some(name_tok.text.clone());
        }
        if tok.text != "." {
            return None;
        }
        let m = file.ct(q + 1).text.clone();
        if !ADAPTERS.contains(&m.as_str()) || file.ct(q + 2).text != "(" {
            return None;
        }
        // Skip the adapter's argument list.
        let mut depth = 0usize;
        q += 2;
        while q <= close {
            match file.ct(q).text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            q += 1;
        }
        q += 1;
    }
}

/// True when the statement containing `stmt_start` performs a condvar
/// wait (`.wait(guard)` / `.wait_timeout(` / `.wait_while(` with a
/// non-empty argument list).
fn stmt_has_condvar_wait(file: &SourceFile, stmt_start: usize, close: usize) -> bool {
    let mut k = stmt_start;
    while k <= close {
        let tok = file.ct(k);
        match tok.text.as_str() {
            ";" | "{" | "}" => return false,
            "wait" | "wait_timeout" | "wait_while"
                if tok.kind == TokenKind::Ident
                    && k > 0
                    && file.ct(k - 1).text == "."
                    && k + 2 <= close
                    && file.ct(k + 1).text == "("
                    && file.ct(k + 2).text != ")" =>
            {
                return true;
            }
            _ => {}
        }
        k += 1;
    }
    false
}

/// Keys of acquisitions between `k` and the end of its statement.
fn stmt_acquisitions_after(file: &SourceFile, k: usize, close: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut p = k + 1;
    while p <= close {
        let tok = file.ct(p);
        match tok.text.as_str() {
            ";" | "{" | "}" => break,
            m if tok.kind == TokenKind::Ident && is_acquire(file, p, close, m) => {
                if let Some(key) = receiver_key(file, p) {
                    out.push(key);
                }
            }
            _ => {}
        }
        p += 1;
    }
    out
}

/// A blocking call whose method-name (or free-fn-name) token sits at
/// `k`; returns the display token used in the finding message. `.wait(`
/// with arguments is a condvar wait and is exempted separately.
fn blocking_at(file: &SourceFile, k: usize, close: usize) -> Option<&'static str> {
    let tok = file.ct(k);
    if tok.kind != TokenKind::Ident {
        return None;
    }
    let next_is = |off: usize, s: &str| k + off <= close && file.ct(k + off).text == s;
    let prev_dot = k > 0 && file.ct(k - 1).text == ".";
    let empty_args = next_is(1, "(") && next_is(2, ")");
    let any_args = next_is(1, "(");
    match tok.text.as_str() {
        "recv" if prev_dot && empty_args => Some(".recv()"),
        "recv_timeout" if prev_dot && any_args => Some(".recv_timeout("),
        "send" if prev_dot && any_args => Some(".send("),
        "join" if prev_dot && empty_args => Some(".join()"),
        "wait" if prev_dot && empty_args => Some(".wait()"),
        "write_all" if prev_dot && any_args => Some(".write_all("),
        "read_exact" if prev_dot && any_args => Some(".read_exact("),
        "flush" if prev_dot && empty_args => Some(".flush()"),
        "accept" if prev_dot && empty_args => Some(".accept()"),
        "connect" if prev_dot && any_args => Some(".connect("),
        "sleep" if any_args && k > 0 && file.ct(k - 1).text == "::" => Some("thread::sleep"),
        "write_frame" if any_args => Some("write_frame("),
        "read_frame" if any_args => Some("read_frame("),
        _ => None,
    }
}

/// Exposes the fn list for other passes' reuse (kept private otherwise).
#[allow(dead_code)]
fn _fn_items(file: &SourceFile) -> &[FnItem] {
    &file.items.fns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(src: &str) -> Vec<Finding> {
        let f = SourceFile::from_source("t.rs", src);
        let mut p = LockDiscipline::new();
        p.scan_file(&f);
        p.finish()
    }

    #[test]
    fn order_inversion_detected() {
        let got = run_on(
            "fn ab(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let ga = a.lock().unwrap();\n    let gb = b.lock().unwrap();\n}\nfn ba(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let gb = b.lock().unwrap();\n    let ga = a.lock().unwrap();\n}\n",
        );
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got[0].message.contains("inversion"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let got = run_on(
            "fn ab(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let ga = a.lock().unwrap();\n    let gb = b.lock().unwrap();\n}\nfn ab2(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let ga = a.lock().unwrap();\n    let gb = b.lock().unwrap();\n}\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn blocking_under_guard_flagged() {
        let got = run_on(
            "fn f(m: &Mutex<u8>, tx: &Sender<u8>) {\n    let g = m.lock().unwrap();\n    tx.send(1).ok();\n}\n",
        );
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains(".send("));
    }

    #[test]
    fn scope_exit_and_drop_release() {
        let got = run_on(
            "fn f(m: &Mutex<u8>, tx: &Sender<u8>) {\n    {\n        let g = m.lock().unwrap();\n    }\n    tx.send(1).ok();\n    let g2 = m.lock().unwrap();\n    drop(g2);\n    tx.send(2).ok();\n}\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn condvar_wait_is_exempt_barrier_wait_is_not() {
        let clean = run_on(
            "fn f(m: &Mutex<u8>, cv: &Condvar) {\n    let mut g = m.lock().unwrap();\n    g = cv.wait(g).unwrap();\n}\n",
        );
        assert!(clean.is_empty(), "{clean:?}");
        let bad = run_on(
            "fn f(m: &Mutex<u8>, bar: &Barrier) {\n    let g = m.lock().unwrap();\n    bar.wait();\n}\n",
        );
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn statement_temporary_guard_with_io_flagged() {
        let got = run_on("fn f(w: &Mutex<W>) {\n    write_frame(&mut w.lock(), &x);\n}\n");
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("write_frame"));
    }

    #[test]
    fn guard_scope_is_token_accurate_across_inline_braces() {
        // v1 credited the `let` with every `{` on its line; a guard bound
        // on a line that also opens a block was released too early.
        let got = run_on(
            "fn f(m: &Mutex<u8>, tx: &Sender<u8>) {\n    let g = m.lock().unwrap(); if x {\n        tx.send(1).ok();\n    }\n}\n",
        );
        assert_eq!(
            got.len(),
            1,
            "guard must still be live inside the if: {got:?}"
        );
    }

    #[test]
    fn multiline_statement_chain_still_binds() {
        let got = run_on(
            "fn f(m: &Mutex<u8>, tx: &Sender<u8>) {\n    let g = m\n        .lock()\n        .unwrap();\n    tx.send(1).ok();\n}\n",
        );
        assert_eq!(got.len(), 1, "{got:?}");
    }

    #[test]
    fn nested_fn_guards_do_not_leak_into_parent() {
        let got = run_on(
            "fn outer(m: &Mutex<u8>, tx: &Sender<u8>) {\n    fn inner(m: &Mutex<u8>) {\n        let g = m.lock().unwrap();\n    }\n    tx.send(1).ok();\n}\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }
}
