//! In-memory spans for the traced run: one per layer call, grouped by
//! request (one request per ingest batch), written out at exit.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Request (batch) the call served.
    pub request: u64,
    /// Layer name.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Spans nest strictly (the client is one thread), so a
/// span's children never overlap one another.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index.
    pub fn begin(&mut self, request: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request,
            name,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<T>(
        &mut self,
        request: u64,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(request, name, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Sum of self times per request for spans named `name`, as
    /// `(request, ns)` pairs in request order.
    pub fn self_by_request(&self, name: &str) -> Vec<(u64, u64)> {
        let selfs = self.self_times();
        let mut out: Vec<(u64, u64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(selfs) {
            if s.name != name {
                continue;
            }
            match out.last_mut() {
                Some((r, acc)) if *r == s.request => *acc += ns,
                _ => out.push((s.request, ns)),
            }
        }
        out
    }

    /// The spans as JSON lines (`request`, `id`, `parent`, `name`,
    /// `start_ns`, `end_ns`, `self_ns`).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"request":{},"id":{id},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{},"self_ns":{self_ns}}}"#,
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(request: u64, name: &'static str, parent: Option<usize>, s: u64, e: u64) -> Span {
        Span {
            request,
            name,
            parent,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer {
            epoch: Instant::now(),
            spans: vec![
                span(0, "request", None, 0, 100),
                span(0, "a", Some(0), 10, 30),
                span(0, "b", Some(0), 40, 90),
                span(0, "b.inner", Some(2), 50, 60),
                span(1, "request", None, 200, 260),
                span(1, "a", Some(4), 200, 250),
            ],
        };
        assert_eq!(t.self_times(), vec![30, 20, 40, 10, 10, 50]);
        assert_eq!(t.self_by_request("a"), vec![(0, 20), (1, 50)]);
        assert_eq!(t.self_by_request("request"), vec![(0, 30), (1, 10)]);
        let lines = t.to_json_lines();
        assert_eq!(lines.lines().count(), 6);
        assert!(lines.contains(r#""parent":2,"name":"b.inner""#));
    }

    #[test]
    fn recorded_spans_nest() {
        let mut t = Tracer::default();
        let root = t.begin(7, "request", None);
        let v = t.span(7, "leaf", root, || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
