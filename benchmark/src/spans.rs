//! Spans the benchmark records around its own calls into each layer.
//!
//! Spans live in memory and are written out when the run ends.  A span's
//! parent is the span that was open when it began; spans of one
//! repetition share its id.  A layer's self time is its span's duration
//! minus the part its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` while recording is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct SpanLog {
    origin: Instant,
    /// Recording switch: off in the timed run, and on alternate
    /// repetitions of the traced run so the two halves give the tracing
    /// overhead.
    pub on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(on: bool) -> Self {
        SpanLog {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, rep: u32) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let now = self.now_ns();
        self.begin_at(name, rep, now)
    }

    fn begin_at(&mut self, name: &'static str, rep: u32, start_ns: u64) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id.0 {
            let now = self.now_ns();
            self.end_at(id, now);
        }
    }

    fn end_at(&mut self, id: usize, end_ns: u64) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end_ns;
    }

    /// Duration of span `id` minus the time its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns() - children
    }

    /// Durations in seconds of every closed span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// The span file: one object per span, in start order.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"rep\": {}, \"parent\": {parent}, \
                 \"start\": {}, \"end\": {}, \"self\": {}}}{comma}",
                s.name,
                s.rep,
                s.start_ns,
                s.end_ns,
                self.self_ns(id)
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut log = SpanLog::new(true);
        let rep = log.begin_at("bench.rep", 3, 100);
        let new = log.begin_at("runtime.new", 3, 110);
        log.end_at(new.0.unwrap(), 150);
        let run = log.begin_at("runtime.run", 3, 160);
        let inner = log.begin_at("workloads.checksum", 3, 170);
        log.end_at(inner.0.unwrap(), 180);
        log.end_at(run.0.unwrap(), 400);
        log.end_at(rep.0.unwrap(), 500);

        let spans = &log.spans;
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.rep == 3));
        // rep: 400 long, children cover 40 + 240; the grandchild counts
        // against its own parent only.
        assert_eq!(log.self_ns(0), 400 - 40 - 240);
        assert_eq!(log.self_ns(2), 240 - 10);
        assert_eq!(log.self_ns(3), 10);
        let run_s = log.durations_s("runtime.run");
        assert!(run_s.len() == 1 && (run_s[0] - 240e-9).abs() < 1e-15);
        let json = log.to_json("w");
        assert!(json.contains("\"name\": \"runtime.run\", \"rep\": 3, \"parent\": 0"));
        assert!(json.contains("\"parent\": null"));
    }

    #[test]
    fn a_log_that_is_off_records_nothing() {
        let mut log = SpanLog::new(false);
        let id = log.begin("runtime.run", 0);
        log.end(id);
        assert!(log.spans.is_empty());
    }
}
