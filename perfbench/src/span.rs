//! In-memory spans for the traced run.
//!
//! A span records a layer call made from the benchmark's own code: its
//! name, its parent, when it started and how long it took. Calls too hot
//! to record one by one (a trace-generator step, a policy hook, a wire
//! round trip) are recorded as one *aggregate* span per parent carrying
//! the summed duration and the call count. A span's self time is its
//! duration minus the time its children cover. Children of one parent
//! never overlap — every layer call here is made from one thread in
//! sequence — except the per-connection spans of a `dapd-rpc` window,
//! which run in parallel, so that window's own self time reads 0. Spans stay in memory until [`Tracer::write_jsonl`] writes
//! them out when the run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    parent: Option<SpanId>,
    name: String,
    start_ns: u64,
    dur_ns: u64,
    count: u64,
}

/// Collects the spans of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; span start times count from now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a new span and returns its result and the span.
    pub fn span<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Self, SpanId) -> R,
    ) -> (R, SpanId) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name: name.into(),
            start_ns,
            dur_ns: 0,
            count: 1,
        });
        let out = f(self, id);
        self.spans[id].dur_ns = self.now_ns() - start_ns;
        (out, id)
    }

    /// Records `count` calls totalling `dur_ns` under `parent`.
    pub fn aggregate(
        &mut self,
        parent: SpanId,
        name: impl Into<String>,
        dur_ns: u64,
        count: u64,
    ) -> SpanId {
        let start_ns = self.spans[parent].start_ns;
        let id = self.spans.len();
        self.spans.push(Span {
            parent: Some(parent),
            name: name.into(),
            start_ns,
            dur_ns,
            count,
        });
        id
    }

    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self, id: SpanId) -> u64 {
        self.spans[id].dur_ns
    }

    /// The span's duration minus the time its children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.dur_ns)
            .sum();
        self.spans[id].dur_ns.saturating_sub(children)
    }

    /// Writes one JSON object per span, self time included.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"dur_ns\": {}, \"self_ns\": {}, \"count\": {}}}",
                s.name,
                s.start_ns,
                s.dur_ns,
                self.self_ns(id),
                s.count
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let ((), root) = t.span("cell", None, |t, id| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.aggregate(id, "trace", 500_000, 10);
            let policy = t.aggregate(id, "policy", 300_000, 5);
            t.aggregate(policy, "solver", 100_000, 5);
        });
        assert!(t.dur_ns(root) >= 2_000_000);
        assert_eq!(t.self_ns(root), t.dur_ns(root) - 800_000);
        assert_eq!(t.self_ns(2), 200_000);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).expect("out dir");
        let path = dir.join(format!("test-spans-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).expect("write spans");
        let text = std::fs::read_to_string(&path).expect("read spans");
        std::fs::remove_file(&path).ok();
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("\"name\": \"policy\""), "{text}");
        assert!(text.contains("\"parent\": 0"), "{text}");
    }
}
