//! In-memory spans recorded around calls into each layer's public API.
//!
//! A span is `{name, subject, start, end, parent, request_id}`; spans of
//! one request or library call share a `request_id`. Spans stay in memory
//! and are written out as JSON lines when the traced run ends. A disabled
//! tracer runs the same closures and records nothing, so the untraced and
//! traced passes execute identical benchmark code.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    /// `layer.call`, e.g. `core.mis2`; the layer is the part before the dot.
    pub name: &'static str,
    /// What the call worked on: a graph name or a request line.
    pub subject: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_request: 0,
        }
    }

    /// A fresh request id for a group of spans.
    pub fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Run `f` inside a span; nested spans opened by `f` become children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        subject: &str,
        request_id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            subject: subject.to_string(),
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            request_id,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record an interval measured elsewhere (inside a library callback)
    /// as a child of the innermost open span.
    pub fn record_interval(
        &mut self,
        name: &'static str,
        subject: &str,
        request_id: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let off = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            subject: subject.to_string(),
            start_ns: off(start),
            end_ns: off(end),
            parent: self.stack.last().copied(),
            request_id,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span with this name.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Summed duration of the spans with this name and subject.
    pub fn subject_ns(&self, name: &str, subject: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.subject == subject)
            .map(Span::dur_ns)
            .sum()
    }

    /// Self time per layer: each span's duration minus the part its
    /// children cover, summed by layer.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(*c);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"subject\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{},\"request_id\":{}}}",
                s.name, s.subject, s.start_ns, s.end_ns, parent, s.request_id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("solver.outer", "x", 1, |t| {
            t.span("core.inner", "x", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let by_layer = t.self_ns_by_layer();
        assert!(by_layer["core"] >= 5_000_000);
        assert!(by_layer["solver"] < by_layer["core"]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("core.x", "g", 1, |_| 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
