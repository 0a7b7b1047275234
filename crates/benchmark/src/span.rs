//! In-memory spans: name, start, end, parent, round. Kept in memory while
//! a workload runs and written out once at exit.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Index of this span in its log.
    pub id: u32,
    /// Layer-boundary name, e.g. `core.runtime.queue_wait`.
    pub name: String,
    /// Nanoseconds since the log's origin.
    pub start_ns: u64,
    /// Nanoseconds since the log's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one worker round (or one replayed signal batch) share it.
    pub round: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span store with one time origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `t`.
    pub fn nanos_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span from raw offsets; returns its id.
    pub fn push(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        round: u64,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).unwrap_or(u32::MAX);
        self.spans.push(Span {
            id,
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            round,
        });
        id
    }

    /// Times `f` as a span; returns the span id and `f`'s result.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<u32>,
        round: u64,
        f: impl FnOnce() -> T,
    ) -> (u32, T) {
        let start = self.nanos_at(Instant::now());
        let out = f();
        let end = self.nanos_at(Instant::now());
        (self.push(name, start, end, parent, round), out)
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span, tagged with `workload`.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn write_jsonl(&self, workload: &str, out: &mut dyn Write) -> io::Result<()> {
        let invalid =
            |e: serde_json::Error| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        let workload = serde_json::to_string(workload).map_err(invalid)?;
        for span in &self.spans {
            let span = serde_json::to_string(span).map_err(invalid)?;
            writeln!(out, "{{\"workload\":{workload},\"span\":{span}}}")?;
        }
        Ok(())
    }
}

/// Total self time per span name: each span's duration minus the part of
/// it its direct children cover (overlapping children are not counted
/// twice, and a child reaching outside its parent is clipped).
pub fn self_nanos_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        *totals.entry(s.name.clone()).or_default() += s.nanos().saturating_sub(covered);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_clipped_non_double_counted_children() {
        let mut log = SpanLog::new();
        let parent = log.push("round", 100, 200, None, 1);
        log.push("wait", 100, 150, Some(parent), 1);
        log.push("wait", 140, 160, Some(parent), 1); // overlaps the first by 10
        log.push("reduce", 190, 230, Some(parent), 1); // sticks out by 30
        let lone = log.push("cycle", 300, 310, None, 2);
        assert_eq!(lone, 4);
        let totals = self_nanos_by_name(log.spans());
        // Children cover [100,160) and [190,200): 70 of the parent's 100.
        assert_eq!(totals["round"], 30);
        assert_eq!(totals["wait"], 70);
        assert_eq!(totals["reduce"], 40);
        assert_eq!(totals["cycle"], 10);
    }

    #[test]
    fn jsonl_has_one_tagged_line_per_span() {
        let mut log = SpanLog::new();
        let p = log.push("y", 10, 20, None, 7);
        log.push("z", 12, 14, Some(p), 7);
        let mut out = Vec::new();
        log.write_jsonl("storm-tcp", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            r#"{"workload":"storm-tcp","span":{"id":1,"name":"z","start_ns":12,"end_ns":14,"parent":0,"round":7}}"#
        );
    }
}
