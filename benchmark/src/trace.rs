//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end, parent span and the session it
//! belongs to. Span names are `<layer>.<call>`; a layer's self time is
//! the time its spans cover minus the time their child spans cover.
//! Nothing here reaches into the program: the spans wrap the calls the
//! benchmark makes.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub session: u64,
}

/// One thread's span recorder. A disabled recorder runs the wrapped
/// calls and records nothing.
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new(on: bool, origin: Instant) -> Self {
        Self { on, origin, spans: Vec::new(), open: Vec::new() }
    }

    /// Starts recording spans from now on.
    pub fn enable(&mut self) {
        self.on = true;
    }

    /// Runs `f` inside a span; the innermost open span is its parent.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        session: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let at = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, session });
        self.open.push(at);
        let out = f(self);
        self.open.pop();
        self.spans[at].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends another thread's spans (parents re-indexed).
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Durations (µs) of every span with this name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self time in ms per layer (the span name's prefix before `.`).
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"session\":{}}}",
                s.name, s.start_ns, s.end_ns, s.session
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_absorb_reindexes_parents() {
        let origin = Instant::now();
        let mut t = Trace::new(true, origin);
        t.span("bench.session", 0, |t| {
            t.span("daemon.submit", 0, |_| std::thread::sleep(std::time::Duration::from_millis(2)))
        });
        let mut other = Trace::new(true, origin);
        other.span("bench.session", 1, |t| t.span("daemon.wait", 1, |_| ()));
        t.absorb(other);
        assert_eq!(t.len(), 4);
        assert_eq!(t.spans[3].parent, Some(2));
        let by_layer = t.self_ms_by_layer();
        assert!(by_layer["daemon"] >= 2.0);
        assert!(by_layer["bench"] < by_layer["daemon"]);
        let off = Trace::new(false, origin);
        assert_eq!(off.len(), 0);
    }
}
