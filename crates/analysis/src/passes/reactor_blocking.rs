//! `reactor-blocking`: poll paths stay non-blocking.
//!
//! PR 5's control plane is a sharded non-blocking reactor: each shard
//! thread multiplexes many sockets, so *one* blocking call on a poll
//! path stalls every connection on the shard — the exact failure the
//! reactor exists to avoid. `runtime::serve_fleet` batch-ingests from
//! the reactor with timeout-bounded receives and has the same contract.
//!
//! The pass finds the poll-path roots in a file — fns referenced inside
//! a `spawn(…)` argument list (the shard loops) plus any fn named
//! `serve_fleet` — closes them over same-file calls, and flags blocking
//! constructs inside the closure: indefinite channel receives, sleeps,
//! joins, condvar/barrier waits, blocking socket setup, unbounded
//! write/flush, and lock acquisitions (a poll path contending on a lock
//! is blocked by whoever holds it). Timeout-bounded variants
//! (`recv_timeout`, `wait_timeout`) and reads/writes *with* buffers
//! into nonblocking sockets (`.read(buf)`) are allowed.
//!
//! Scope (see [`crate::scope::reactor_blocking`]): `*/reactor.rs` by
//! filename, plus any file defining `serve_fleet`.

use crate::scan::{SourceFile, TokenKind};
use crate::Finding;

/// Pass name used in findings and allow directives.
pub const NAME: &str = "reactor-blocking";

/// Runs the pass on one in-scope file.
pub fn run(file: &SourceFile) -> Vec<Finding> {
    let fns: Vec<(String, (usize, usize), usize)> = file
        .items
        .fns
        .iter()
        .filter(|f| !file.is_test[f.start] && f.body.is_some())
        .map(|f| (f.name.clone(), f.body.unwrap_or((0, 0)), f.start))
        .collect();

    // Roots: fns named inside spawn(…) argument lists, plus serve_fleet.
    let mut reachable: Vec<usize> = fns
        .iter()
        .enumerate()
        .filter(|(_, (name, _, _))| name == "serve_fleet")
        .map(|(i, _)| i)
        .collect();
    for name in spawned_fn_names(file) {
        if let Some(i) = fns.iter().position(|(n, _, _)| *n == name) {
            if !reachable.contains(&i) {
                reachable.push(i);
            }
        }
    }

    // Close over same-file calls.
    loop {
        let mut grew = false;
        for i in reachable.clone() {
            let (_, (open, close), _) = fns[i];
            for k in open..=close {
                let tok = file.ct(k);
                if tok.kind != TokenKind::Ident || k + 1 > close || file.ct(k + 1).text != "(" {
                    continue;
                }
                if let Some(j) = fns.iter().position(|(n, _, _)| *n == tok.text) {
                    if !reachable.contains(&j) {
                        reachable.push(j);
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }

    let spawn_groups = spawn_arg_ranges(file);
    let mut findings = Vec::new();
    for &i in &reachable {
        let (name, (open, close), _) = &fns[i];
        // Skip nested fn bodies (their own entries) and `spawn(…)`
        // argument lists — a spawned closure runs on a dedicated thread,
        // not this poll path (spawned *named* fns are covered as roots).
        let mut skips: Vec<(usize, usize)> = fns
            .iter()
            .map(|&(_, b, _)| b)
            .filter(|&(o, c)| o > *open && c < *close)
            .chain(
                spawn_groups
                    .iter()
                    .copied()
                    .filter(|&(o, c)| o > *open && c < *close),
            )
            .collect();
        skips.sort_unstable();
        let mut k = *open;
        while k <= *close {
            if let Some(&(_, sc)) = skips.iter().find(|&&(so, _)| so == k) {
                k = sc + 1;
                continue;
            }
            if let Some(display) = blocking_at(file, k, *close) {
                findings.push(Finding {
                    pass: NAME.into(),
                    file: file.path.clone(),
                    line: file.ct(k).line + 1,
                    message: format!(
                        "blocking `{display}` inside reactor poll path `{name}`; poll paths must use non-blocking or timeout-bounded operations"
                    ),
                });
            }
            k += 1;
        }
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// Code-token ranges `(open_paren, close_paren)` of `spawn(…)` argument
/// lists.
fn spawn_arg_ranges(file: &SourceFile) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let n = file.ct_len();
    for k in 0..n {
        let tok = file.ct(k);
        if tok.kind != TokenKind::Ident || tok.text != "spawn" || k + 1 >= n {
            continue;
        }
        if file.ct(k + 1).text != "(" {
            continue;
        }
        let mut depth = 0usize;
        let mut p = k + 1;
        while p < n {
            match file.ct(p).text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        out.push((k + 1, p));
                        break;
                    }
                }
                _ => {}
            }
            p += 1;
        }
    }
    out
}

/// Fn names referenced inside any `spawn(…)` argument list.
fn spawned_fn_names(file: &SourceFile) -> Vec<String> {
    let mut out = Vec::new();
    for (open, close) in spawn_arg_ranges(file) {
        for p in open..=close {
            if file.ct(p).kind == TokenKind::Ident && !out.contains(&file.ct(p).text) {
                out.push(file.ct(p).text.clone());
            }
        }
    }
    out
}

/// A blocking construct whose name token sits at `k`; returns the
/// display string used in the finding.
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
        "join" if prev_dot && empty_args => Some(".join()"),
        "wait" | "wait_while" if prev_dot && any_args => Some(".wait("),
        "accept" if prev_dot && empty_args => Some(".accept()"),
        "connect" if prev_dot && any_args => Some(".connect("),
        "read_exact" if prev_dot && any_args => Some(".read_exact("),
        "write_all" if prev_dot && any_args => Some(".write_all("),
        "flush" if prev_dot && empty_args => Some(".flush()"),
        "lock" if prev_dot && empty_args => Some(".lock()"),
        "read" | "write" if prev_dot && empty_args => Some(".read()/.write() lock acquisition"),
        "sleep" if any_args && k > 0 && matches!(file.ct(k - 1).text.as_str(), "::" | ".") => {
            Some("thread::sleep")
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(path: &str, src: &str) -> Vec<Finding> {
        run(&SourceFile::from_source(path, src))
    }

    #[test]
    fn blocking_in_spawned_shard_loop_flagged() {
        let got = run_on(
            "crates/comm/src/reactor.rs",
            "fn start(rx: Receiver<u8>) {\n    thread::Builder::new().spawn(move || run_shard(rx)).ok();\n}\nfn run_shard(rx: Receiver<u8>) {\n    loop {\n        let cmd = rx.recv();\n        thread::sleep(Duration::from_millis(1));\n        pump();\n    }\n}\nfn pump() {\n    let g = STATE.lock();\n}\n",
        );
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(got[0].message.contains(".recv()"));
        assert!(got[1].message.contains("thread::sleep"));
        assert!(got[2].message.contains(".lock()"));
    }

    #[test]
    fn timeout_bounded_and_buffered_ops_are_clean() {
        let got = run_on(
            "crates/core/src/runtime.rs",
            "pub fn serve_fleet(h: &Handle) {\n    loop {\n        let batch = h.recv_events(Duration::from_millis(5));\n        let n = sock.read(scratch);\n        let woke = cv.wait_timeout(g, d);\n    }\n}\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn spawned_closure_runs_on_its_own_thread_not_the_poll_path() {
        // A heartbeat closure spawned from serve_fleet sleeps on its own
        // dedicated thread; that is pacing, not poll-path blocking.
        let got = run_on(
            "crates/core/src/runtime.rs",
            "pub fn serve_fleet(h: &Handle) {\n    thread::Builder::new().spawn(move || {\n        loop {\n            beat();\n            thread::sleep(interval);\n        }\n    }).ok();\n    loop {\n        let batch = h.recv_events(Duration::from_millis(5));\n    }\n}\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn helper_threads_outside_poll_paths_may_block() {
        // A fn neither spawned from this file nor named serve_fleet is
        // a caller-side API (e.g. recv_events) and may block.
        let got = run_on(
            "crates/comm/src/reactor.rs",
            "pub fn recv_events(rx: &Receiver<Event>) -> Event {\n    rx.recv().unwrap_or(Event::None)\n}\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }
}
