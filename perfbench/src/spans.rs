//! In-memory spans for the traced run: recorded around calls into each
//! layer, written out as JSON lines at exit, and summarised as self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `store.query`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation the span belongs to.
    pub request: u64,
}

/// Spans of one run, kept in memory.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    next_request: u64,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_request: 0,
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A new request id.
    pub fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Open a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Close span `id`, returning its duration in µs.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now();
        let span = &mut self.spans[id];
        span.end_ns = now;
        (span.end_ns - span.start_ns) as f64 / 1e3
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent, request);
        let out = f();
        let us = self.end(id);
        (out, us)
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// Per span name: count, total time and self time (µs). A span's self time
/// is its duration minus the part of it that its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let mut kids: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_ns.max(s.start_ns),
                    spans[c].end_ns.min(s.end_ns),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = 0;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total as f64 / 1e3;
        e.2 += total.saturating_sub(covered) as f64 / 1e3;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span("request", 0, 10_000, None),
            span("parse", 1_000, 3_000, Some(0)),
            span("query", 2_000, 6_000, Some(0)), // overlaps parse by 1 µs
            span("render", 8_000, 9_000, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], (1, 10.0, 4.0));
        assert_eq!(t["query"], (1, 4.0, 4.0));
    }

    #[test]
    fn recorder_nests_and_exports() {
        let mut r = Recorder::default();
        let req = r.request();
        let root = r.begin("request", None, req);
        let ((), _) = r.time("child", Some(root), req, || ());
        r.end(root);
        let lines = r.to_json_lines();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\": \"child\""));
        assert!(lines.contains("\"parent\": 0"));
        let t = self_times(r.spans());
        assert!(t["request"].2 <= t["request"].1);
    }
}
