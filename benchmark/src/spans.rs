//! The benchmark's own spans, recorded around its calls into the program.
//!
//! Spans exist only in traced reps. Each recording thread owns a
//! preallocated [`SpanBuf`], so a push never allocates or locks; buffers
//! are merged after the rep and written as Chrome trace-event JSON.
//!
//! Span tree: `run` is the root; `round` (first delivery of round r →
//! `select(r)` returns, crossing threads) is its child; `source.deliver`,
//! `net.flush`, `gate.feedback` and `gate.select` are children of the
//! round whose id they carry.

use std::fmt::Write as _;

/// Which timeline a span is drawn on in the trace viewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    Run = 0,
    Round = 1,
    Source = 2,
    Gate = 3,
    Net = 4,
}

impl Track {
    fn label(self) -> &'static str {
        match self {
            Track::Run => "run",
            Track::Round => "round (source → decision)",
            Track::Source => "source thread",
            Track::Gate => "gate thread",
            Track::Net => "net feeder thread",
        }
    }
}

/// One closed span. Times are nanoseconds since the rep's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub track: Track,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Round the span belongs to; spans of one round share it.
    pub round: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A fixed-capacity span buffer owned by one thread.
pub struct SpanBuf {
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
}

impl SpanBuf {
    pub fn with_capacity(capacity: usize) -> Self {
        SpanBuf {
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Record a span; beyond capacity it is counted and dropped so the
    /// timed window never allocates.
    pub fn push(&mut self, span: Span) {
        if self.spans.len() < self.capacity {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    pub fn into_spans(self) -> (Vec<Span>, u64) {
        (self.spans, self.dropped)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// `children` cover. Children are clipped to the parent and overlapping
/// children are counted once.
pub fn self_time_ns(parent: &Span, children: &[Span]) -> u64 {
    let mut cuts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(parent.start_ns, parent.end_ns),
                c.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    cuts.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (s, e) in cuts {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.dur_ns() - covered
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete
/// events (`ph: "X"`, microsecond timestamps) plus one thread-name
/// metadata event per track.
pub fn chrome_trace_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 120);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"");
    out.push_str(workload);
    out.push_str("\"},\"traceEvents\":[\n");
    let mut tracks: Vec<Track> = spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::replace(&mut first, false) {
            out.push_str(",\n");
        }
    };
    for t in tracks {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            t as u32,
            t.label()
        );
    }
    for s in spans {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"round\":{}}}}}",
            s.name,
            s.track as u32,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.round
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            track: Track::Gate,
            start_ns,
            end_ns,
            round: 3,
        }
    }

    #[test]
    fn self_time_subtracts_the_covered_part_once() {
        let round = span("round", 100, 1100);
        // Disjoint children: 200 + 300 covered.
        let kids = [span("a", 200, 400), span("b", 500, 800)];
        assert_eq!(self_time_ns(&round, &kids), 500);
        // Overlapping children are counted once: [200,600) ∪ [500,800).
        let kids = [span("a", 200, 600), span("b", 500, 800)];
        assert_eq!(self_time_ns(&round, &kids), 400);
        // Children are clipped to the parent; one outside covers nothing.
        let kids = [
            span("a", 0, 300),
            span("b", 1000, 2000),
            span("c", 5000, 6000),
        ];
        assert_eq!(self_time_ns(&round, &kids), 700);
        // A child containing another adds nothing twice.
        let kids = [span("a", 200, 900), span("b", 300, 400)];
        assert_eq!(self_time_ns(&round, &kids), 300);
        assert_eq!(self_time_ns(&round, &[]), 1000);
    }

    #[test]
    fn buffer_never_grows_past_its_capacity() {
        let mut buf = SpanBuf::with_capacity(2);
        for i in 0..5 {
            buf.push(span("x", i, i + 1));
        }
        let (spans, dropped) = buf.into_spans();
        assert_eq!((spans.len(), dropped), (2, 3));
    }

    #[test]
    fn trace_json_is_loadable_shape() {
        let json = chrome_trace_json("flood", &[span("gate.select", 1500, 4500)]);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains(
            "{\"name\":\"gate.select\",\"cat\":\"benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":3,\"ts\":1.500,\"dur\":3.000,\"args\":{\"round\":3}}"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.trim_end().ends_with("]}"));
    }
}
