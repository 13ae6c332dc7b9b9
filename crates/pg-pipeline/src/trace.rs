//! End-to-end span tracing and per-round latency attribution.
//!
//! [`Telemetry`](crate::telemetry::Telemetry) answers *how much* time each
//! stage consumed in aggregate; this module answers *where a specific slow
//! round's time went*. A span is one `stage × stream × round` interval with
//! begin/end timestamps and a causal parent id, recorded by every execution
//! mode (round/replay/netround simulators and the concurrent runtime) plus
//! the net-fed ingest bridge. The decode path is split into **queue-wait vs
//! execution** sub-spans: the queue-wait span begins on the gate thread at
//! dispatch and ends on whichever worker pops the job, so backpressure in
//! the work-stealing pool is directly visible instead of hiding inside a
//! fat "decode" number.
//!
//! Design constraints (see DESIGN.md D12):
//!
//! * **Disabled-handle idiom** — [`Trace`] is an `Option<Arc<…>>` like
//!   `Telemetry`/`Autopilot`: a disabled handle makes every hook a single
//!   branch, reads no clock, and allocates nothing.
//! * **Sampled** — spans are recorded only for rounds where
//!   `round % sample_every == 0`. The predicate is pure, so every thread
//!   agrees on which rounds are sampled without coordination.
//! * **Bounded** — completed spans buffer in a per-thread `Vec` and drain
//!   into one global fixed-capacity ring (newest kept) when the buffer
//!   fills or the thread exits; memory never exceeds the configured cap
//!   plus the small per-thread buffers.
//! * **Attribution stays exact** — per-stage count/total/histogram
//!   accumulators are plain atomics updated at span end, *outside* the
//!   bounded store, so the latency-attribution summary (mean/p99 per
//!   stage, queue-wait share of round time) is exact over all sampled
//!   rounds even after the raw-span ring has started evicting.
//!
//! Export paths: [`Trace::chrome_trace_json`] (Perfetto-loadable trace
//! events, one track per gate/parser-shard/decode-worker/infer/ingest
//! thread), [`TraceSnapshot`] riding on `TelemetrySnapshot` (JSON +
//! `pg_trace_stage_*` Prometheus families), and the `--watch` dashboard's
//! worst-recent-round breakdown row.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use parking_lot::Mutex;
use serde::Serialize;

use crate::telemetry::{
    bucket_index, bucket_upper_us, percentile_from_buckets, LatencyBucket, HISTOGRAM_BUCKETS,
};

/// The traceable pipeline stages. The first five partition the gate
/// thread's round wall time (`Round` is the whole loop body; the next four
/// tile it), so their totals support exact per-round attribution; the rest
/// run on other threads and overlap rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceStage {
    /// One whole gate round (loop-body wall time).
    Round,
    /// Waiting on parser batches until the round is covered (includes the
    /// stall timeout on faulty streams).
    IngestWait,
    /// Canonical batch assembly: draining pending shard batches, fault and
    /// feedback channels, and building the per-stream contexts.
    Assemble,
    /// The gating decision (`GatePolicy::select`).
    GateSelect,
    /// Building decode jobs for the selection and pushing them at the
    /// work-stealing pool.
    Dispatch,
    /// Chunk parsing on a parser shard (or packet generation + parse in
    /// the simulators).
    Parse,
    /// A decode job sitting in the steal-pool queue: begins at dispatch on
    /// the gate thread, ends when a worker pops it.
    QueueWait,
    /// Decode execution on a worker (or inline in the simulators).
    Decode,
    /// Downstream inference on the decoded target.
    Infer,
    /// The ingest bridge handing a network chunk to a parser shard.
    Bridge,
}

/// Number of traceable stages.
pub(crate) const TRACE_STAGES: usize = 10;

impl TraceStage {
    /// All stages, gate-thread partition first.
    pub const ALL: [TraceStage; TRACE_STAGES] = [
        TraceStage::Round,
        TraceStage::IngestWait,
        TraceStage::Assemble,
        TraceStage::GateSelect,
        TraceStage::Dispatch,
        TraceStage::Parse,
        TraceStage::QueueWait,
        TraceStage::Decode,
        TraceStage::Infer,
        TraceStage::Bridge,
    ];

    /// Stable lowercase stage name (JSON key, Prometheus label, Perfetto
    /// span name).
    pub fn name(self) -> &'static str {
        match self {
            TraceStage::Round => "round",
            TraceStage::IngestWait => "ingest_wait",
            TraceStage::Assemble => "assemble",
            TraceStage::GateSelect => "gate_select",
            TraceStage::Dispatch => "dispatch",
            TraceStage::Parse => "parse",
            TraceStage::QueueWait => "queue_wait",
            TraceStage::Decode => "decode",
            TraceStage::Infer => "infer",
            TraceStage::Bridge => "bridge",
        }
    }

    fn index(self) -> usize {
        match self {
            TraceStage::Round => 0,
            TraceStage::IngestWait => 1,
            TraceStage::Assemble => 2,
            TraceStage::GateSelect => 3,
            TraceStage::Dispatch => 4,
            TraceStage::Parse => 5,
            TraceStage::QueueWait => 6,
            TraceStage::Decode => 7,
            TraceStage::Infer => 8,
            TraceStage::Bridge => 9,
        }
    }
}

/// The execution track (≈ thread) a span ended on. Maps to one Perfetto
/// row per gate thread, parser shard, decode worker and ingest bridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// The gate/caller thread (round loop; the simulators run everything
    /// here).
    Gate,
    /// Parser shard `i`.
    Parser(usize),
    /// Decode worker `i`: the queue-wait span ends on the worker that
    /// popped the job, and its decode and infer spans follow there.
    Decode(usize),
    /// The ingest bridge thread (net-fed runs).
    Ingest,
}

impl Track {
    /// Stable Chrome-trace thread id for the track. Parser shards and
    /// decode workers get disjoint id ranges so a 4-worker run renders as
    /// distinct rows.
    pub fn tid(self) -> u64 {
        match self {
            Track::Gate => 1,
            Track::Ingest => 3,
            Track::Parser(s) => 1000 + s as u64,
            Track::Decode(w) => 2000 + w as u64,
        }
    }

    /// Human-readable track label (Perfetto thread name).
    pub fn label(self) -> String {
        match self {
            Track::Gate => "gate".to_string(),
            Track::Ingest => "ingest".to_string(),
            Track::Parser(s) => format!("parser-{s}"),
            Track::Decode(w) => format!("decode-{w}"),
        }
    }
}

/// Opaque identifier of a recorded span, used as the causal `parent` of
/// downstream spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u64);

/// An open span: carries everything [`Trace::end`] needs. `Send`, so a
/// queue-wait span can begin on the gate thread, travel inside the decode
/// job, and end on the worker that popped it.
#[derive(Debug)]
pub struct SpanToken {
    id: u64,
    parent: u64,
    stage: TraceStage,
    stream: u32,
    round: u64,
    begin_ns: u64,
}

impl SpanToken {
    /// The span's id, available before the span ends so children can link
    /// to a still-open parent.
    pub fn id(&self) -> SpanId {
        SpanId(self.id)
    }
}

/// A span just closed by [`Trace::end`]: its id (for parenting downstream
/// spans) and its measured duration (so callers can reuse the trace's own
/// clock for breakdown bookkeeping instead of timing twice).
#[derive(Debug, Clone, Copy)]
pub struct ClosedSpan {
    /// Id to pass as `parent` of causally-downstream spans.
    pub id: SpanId,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

/// One completed span as retained in the bounded store.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Unique span id (process-wide, from one atomic counter).
    pub id: u64,
    /// Causal parent span id (0 = root).
    pub parent: u64,
    /// Stage the span measured.
    pub stage: TraceStage,
    /// Stream the span belongs to, if stream-scoped.
    pub stream: Option<u32>,
    /// Round the span belongs to.
    pub round: u64,
    /// Begin offset from the trace epoch, nanoseconds.
    pub begin_ns: u64,
    /// End offset from the trace epoch, nanoseconds.
    pub end_ns: u64,
    /// Execution track the span ended on.
    pub track: Track,
}

/// One stage's share of a single round, for the worst-round breakdown.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RoundPart {
    /// Stage name.
    pub stage: String,
    /// Time spent in the stage this round, µs.
    pub us: u64,
}

/// Stage breakdown of one gate round, recorded by the round-owning thread.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RoundBreakdown {
    /// Round index.
    pub round: u64,
    /// Whole-round wall time, µs.
    pub total_us: u64,
    /// Per-stage shares, in pipeline order.
    pub parts: Vec<RoundPart>,
}

/// Trace configuration: sampling period and raw-span store capacity.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Record spans for rounds where `round % sample_every == 0`
    /// (1 = every round; 0 is treated as 1).
    pub sample_every: u64,
    /// Maximum completed spans retained (newest kept once full).
    pub capacity: usize,
}

/// Default raw-span store capacity. At ~80 bytes per span this bounds the
/// store to a few MiB while holding several thousand rounds of a 4-worker
/// run.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_every: 1,
            capacity: DEFAULT_TRACE_CAPACITY,
        }
    }
}

/// How many recent round breakdowns the worst-round ring retains.
const ROUND_RING: usize = 64;

/// Per-thread buffer flush threshold (spans).
const TLS_FLUSH_THRESHOLD: usize = 128;

/// Per-stage attribution accumulator: relaxed atomics, updated at span end
/// regardless of whether the raw span later survives ring eviction.
struct TraceStageCell {
    count: AtomicU64,
    total_ns: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl TraceStageCell {
    fn new() -> Self {
        TraceStageCell {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Fixed-capacity ring of completed spans; once full, new spans overwrite
/// the oldest (the live dashboards and post-run exports care about the
/// most recent window).
struct SpanRing {
    capacity: usize,
    entries: Vec<TraceSpan>,
    next: usize,
}

impl SpanRing {
    fn new(capacity: usize) -> Self {
        SpanRing {
            capacity,
            entries: Vec::with_capacity(capacity.min(1024)),
            next: 0,
        }
    }

    fn push(&mut self, span: TraceSpan) {
        if self.entries.len() < self.capacity {
            self.entries.push(span);
        } else if self.capacity > 0 {
            self.entries[self.next] = span;
            self.next = (self.next + 1) % self.capacity;
        }
    }
}

struct TraceInner {
    /// Distinguishes this trace's per-thread buffers from other instances
    /// sharing the same threads (tests, sequential runs).
    instance: u64,
    epoch: Instant,
    sample_every: u64,
    capacity: usize,
    next_id: AtomicU64,
    /// Completed spans ever recorded (the ring retains only the tail).
    recorded: AtomicU64,
    stages: [TraceStageCell; TRACE_STAGES],
    store: Mutex<SpanRing>,
    rounds: Mutex<Vec<RoundBreakdown>>,
}

impl TraceInner {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    fn drain(&self, spans: &mut Vec<TraceSpan>) {
        if spans.is_empty() {
            return;
        }
        let mut store = self.store.lock();
        for span in spans.drain(..) {
            store.push(span);
        }
    }
}

static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

/// One thread's pending completed spans for one trace instance. Dropping
/// the buffer (thread exit) drains it, so worker spans are never lost.
struct TlsBuf {
    instance: u64,
    inner: Weak<TraceInner>,
    spans: Vec<TraceSpan>,
}

impl Drop for TlsBuf {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.upgrade() {
            inner.drain(&mut self.spans);
        }
    }
}

thread_local! {
    static TLS_BUFS: RefCell<Vec<TlsBuf>> = const { RefCell::new(Vec::new()) };
}

fn push_span(inner: &Arc<TraceInner>, span: TraceSpan) {
    TLS_BUFS.with(|tls| {
        let mut bufs = tls.borrow_mut();
        if !bufs.iter().any(|b| b.instance == inner.instance) {
            // Prune buffers of traces that no longer exist while we're
            // touching the list anyway (their weak refs are dead).
            bufs.retain(|b| b.inner.strong_count() > 0);
            bufs.push(TlsBuf {
                instance: inner.instance,
                inner: Arc::downgrade(inner),
                spans: Vec::with_capacity(TLS_FLUSH_THRESHOLD),
            });
        }
        let buf = bufs
            .iter_mut()
            .find(|b| b.instance == inner.instance)
            .expect("buffer just ensured");
        buf.spans.push(span);
        if buf.spans.len() >= TLS_FLUSH_THRESHOLD {
            inner.drain(&mut buf.spans);
        }
    });
}

/// A cheap-to-clone span-recording handle threaded through the pipeline
/// alongside [`Telemetry`](crate::telemetry::Telemetry).
///
/// Disabled handles carry no allocation; [`Trace::begin`] is a single
/// branch returning `None` and no clock is read.
#[derive(Clone, Default)]
pub struct Trace {
    inner: Option<Arc<TraceInner>>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Trace {
    /// A disabled handle: every hook is a no-op branch.
    pub fn disabled() -> Self {
        Trace { inner: None }
    }

    /// An enabled handle with the default configuration (every round
    /// sampled, [`DEFAULT_TRACE_CAPACITY`] spans retained).
    pub fn enabled() -> Self {
        Self::with_config(TraceConfig::default())
    }

    /// An enabled handle with an explicit sampling period and capacity.
    pub fn with_config(config: TraceConfig) -> Self {
        Trace {
            inner: Some(Arc::new(TraceInner {
                instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                sample_every: config.sample_every.max(1),
                capacity: config.capacity,
                next_id: AtomicU64::new(1),
                recorded: AtomicU64::new(0),
                stages: std::array::from_fn(|_| TraceStageCell::new()),
                store: Mutex::new(SpanRing::new(config.capacity)),
                rounds: Mutex::new(Vec::with_capacity(ROUND_RING)),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether spans of `round` are recorded. Pure — all threads agree
    /// without coordination.
    #[inline]
    pub fn sampled(&self, round: u64) -> bool {
        match &self.inner {
            Some(inner) => round.is_multiple_of(inner.sample_every),
            None => false,
        }
    }

    /// Open a span. Returns `None` (reading no clock) when disabled or
    /// when `round` is not sampled; pass the token to [`Trace::end`].
    /// `parent` is the causal predecessor's id ([`SpanToken::id`] works on
    /// a still-open parent).
    #[inline]
    pub fn begin(
        &self,
        stage: TraceStage,
        stream: Option<usize>,
        round: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanToken> {
        let inner = self.inner.as_ref()?;
        if !round.is_multiple_of(inner.sample_every) {
            return None;
        }
        Some(SpanToken {
            id: inner.next_id.fetch_add(1, Ordering::Relaxed),
            parent: parent.map_or(0, |p| p.0),
            stage,
            stream: stream.map_or(u32::MAX, |s| s.min(u32::MAX as usize - 1) as u32),
            round,
            begin_ns: inner.now_ns(),
        })
    }

    /// Close a span on the given track: updates the stage's attribution
    /// accumulators and buffers the raw span for the bounded store.
    /// Accepts the `Option` from [`Trace::begin`] directly so call sites
    /// stay branch-free.
    #[inline]
    pub fn end(&self, token: Option<SpanToken>, track: Track) -> Option<ClosedSpan> {
        let token = token?;
        let inner = self.inner.as_ref()?;
        let end_ns = inner.now_ns();
        let dur_ns = end_ns.saturating_sub(token.begin_ns);
        let cell = &inner.stages[token.stage.index()];
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.total_ns.fetch_add(dur_ns, Ordering::Relaxed);
        cell.buckets[bucket_index(dur_ns / 1_000)].fetch_add(1, Ordering::Relaxed);
        inner.recorded.fetch_add(1, Ordering::Relaxed);
        push_span(
            inner,
            TraceSpan {
                id: token.id,
                parent: token.parent,
                stage: token.stage,
                stream: (token.stream != u32::MAX).then_some(token.stream),
                round: token.round,
                begin_ns: token.begin_ns,
                end_ns,
                track,
            },
        );
        Some(ClosedSpan {
            id: SpanId(token.id),
            dur_us: dur_ns / 1_000,
        })
    }

    /// Record one round's stage breakdown for the worst-recent-round
    /// dashboard row (kept in a small ring; no-op when disabled or the
    /// round is unsampled).
    pub fn note_round(&self, breakdown: RoundBreakdown) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        if !breakdown.round.is_multiple_of(inner.sample_every) {
            return;
        }
        let mut rounds = inner.rounds.lock();
        if rounds.len() >= ROUND_RING {
            let evict = rounds.len() - ROUND_RING + 1;
            rounds.drain(..evict);
        }
        rounds.push(breakdown);
    }

    /// Drain the calling thread's pending span buffer into the global
    /// store. Worker threads flush automatically on exit; the long-lived
    /// gate/caller thread calls this before snapshots and exports.
    pub fn flush(&self) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        TLS_BUFS.with(|tls| {
            let mut bufs = tls.borrow_mut();
            if let Some(buf) = bufs.iter_mut().find(|b| b.instance == inner.instance) {
                inner.drain(&mut buf.spans);
            }
        });
    }

    /// The retained spans, oldest-first by begin time (flushes the calling
    /// thread's buffer first). Spans still buffered on *other* live
    /// threads are not included until those threads flush or exit.
    pub fn spans(&self) -> Vec<TraceSpan> {
        let Some(inner) = self.inner.as_ref() else {
            return Vec::new();
        };
        self.flush();
        let mut spans = inner.store.lock().entries.clone();
        spans.sort_by_key(|s| (s.begin_ns, s.id));
        spans
    }

    /// The per-stage attribution summary, or `None` when disabled.
    pub fn snapshot(&self) -> Option<TraceSnapshot> {
        let inner = self.inner.as_ref()?;
        self.flush();
        let mut stages = Vec::new();
        let mut round_total_ns = 0u64;
        let mut queue_wait_total_ns = 0u64;
        for stage in TraceStage::ALL {
            let cell = &inner.stages[stage.index()];
            let count = cell.count.load(Ordering::Relaxed);
            let total_ns = cell.total_ns.load(Ordering::Relaxed);
            match stage {
                TraceStage::Round => round_total_ns = total_ns,
                TraceStage::QueueWait => queue_wait_total_ns = total_ns,
                _ => {}
            }
            if count == 0 {
                continue;
            }
            let buckets: Vec<u64> = cell
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect();
            let total_us = total_ns / 1_000;
            stages.push(TraceStageSnapshot {
                stage: stage.name().to_string(),
                count,
                total_us,
                mean_us: total_ns as f64 / 1_000.0 / count as f64,
                p50_us: percentile_from_buckets(&buckets, 0.50),
                p99_us: percentile_from_buckets(&buckets, 0.99),
                latency_buckets: buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &count)| LatencyBucket {
                        le_us: bucket_upper_us(i),
                        count,
                    })
                    .collect(),
            });
        }
        let rounds = inner.rounds.lock();
        let worst_round = rounds.iter().max_by_key(|b| b.total_us).cloned();
        drop(rounds);
        let recorded = inner.recorded.load(Ordering::Relaxed);
        let retained = inner.store.lock().entries.len();
        Some(TraceSnapshot {
            sample_every: inner.sample_every,
            capacity: inner.capacity,
            spans_recorded: recorded,
            spans_retained: retained,
            spans_evicted: recorded.saturating_sub(retained as u64),
            queue_wait_share: if round_total_ns == 0 {
                0.0
            } else {
                queue_wait_total_ns as f64 / round_total_ns as f64
            },
            stages,
            worst_round,
        })
    }

    /// Render the retained spans as Chrome trace-event JSON (the
    /// `chrome://tracing` / Perfetto format): one `"M"` thread-name
    /// metadata event per track plus one `"X"` complete event per span,
    /// sorted by begin time. `None` when disabled.
    pub fn chrome_trace_json(&self) -> Option<String> {
        self.inner.as_ref()?;
        let spans = self.spans();
        let mut tracks: Vec<Track> = Vec::new();
        for span in &spans {
            if !tracks.contains(&span.track) {
                tracks.push(span.track);
            }
        }
        tracks.sort_by_key(|t| t.tid());
        let mut out = String::with_capacity(128 + spans.len() * 160);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for track in &tracks {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                track.tid(),
                track.label()
            ));
        }
        for span in &spans {
            if !first {
                out.push(',');
            }
            first = false;
            let ts = span.begin_ns as f64 / 1_000.0;
            let dur = span.end_ns.saturating_sub(span.begin_ns) as f64 / 1_000.0;
            out.push_str(&format!(
                "\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"dur\":{dur:.3},\
                 \"name\":\"{}\",\"cat\":\"pg\",\"args\":{{\"round\":{},\"id\":{},\"parent\":{}",
                span.track.tid(),
                span.stage.name(),
                span.round,
                span.id,
                span.parent,
            ));
            if let Some(stream) = span.stream {
                out.push_str(&format!(",\"stream\":{stream}"));
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        Some(out)
    }
}

/// One stage's attribution accumulators at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceStageSnapshot {
    /// Stage name (see [`TraceStage::name`]).
    pub stage: String,
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, µs.
    pub total_us: u64,
    /// Mean span duration, µs.
    pub mean_us: f64,
    /// Median span duration (bucket midpoint), µs.
    pub p50_us: u64,
    /// 99th-percentile span duration (bucket midpoint), µs.
    pub p99_us: u64,
    /// Non-empty histogram buckets.
    pub latency_buckets: Vec<LatencyBucket>,
}

impl TraceStageSnapshot {
    fn merge(&mut self, other: &TraceStageSnapshot) {
        debug_assert_eq!(self.stage, other.stage);
        self.count += other.count;
        self.total_us += other.total_us;
        self.mean_us = if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        };
        let mut full = [0u64; HISTOGRAM_BUCKETS];
        for bucket in self.latency_buckets.iter().chain(&other.latency_buckets) {
            let idx = (0..HISTOGRAM_BUCKETS)
                .find(|&i| bucket_upper_us(i) == bucket.le_us)
                .unwrap_or(HISTOGRAM_BUCKETS - 1);
            full[idx] += bucket.count;
        }
        self.p50_us = percentile_from_buckets(&full, 0.50);
        self.p99_us = percentile_from_buckets(&full, 0.99);
        self.latency_buckets = full
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &count)| LatencyBucket {
                le_us: bucket_upper_us(i),
                count,
            })
            .collect();
    }
}

/// The per-round latency-attribution summary, frozen and serializable.
/// Rides on `TelemetrySnapshot` into `--telemetry-json` and the
/// Prometheus exposition.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceSnapshot {
    /// Sampling period (1 = every round).
    pub sample_every: u64,
    /// Raw-span store capacity.
    pub capacity: usize,
    /// Completed spans ever recorded.
    pub spans_recorded: u64,
    /// Spans currently retained in the bounded store.
    pub spans_retained: usize,
    /// Spans evicted from the store (recorded − retained). Attribution
    /// figures below still cover every recorded span.
    pub spans_evicted: u64,
    /// Total queue-wait time / total round time: the fraction of gate
    /// round wall time that dispatched decode jobs spent waiting in the
    /// steal-pool queue.
    pub queue_wait_share: f64,
    /// Per-stage attribution (stages with at least one span).
    pub stages: Vec<TraceStageSnapshot>,
    /// The slowest round among the recent breakdown ring.
    pub worst_round: Option<RoundBreakdown>,
}

impl TraceSnapshot {
    /// Snapshot of the named stage, if recorded.
    pub fn stage(&self, stage: TraceStage) -> Option<&TraceStageSnapshot> {
        self.stages.iter().find(|s| s.stage == stage.name())
    }

    /// Aggregate another instance's summary: counters add, histograms add
    /// bucket-wise with derived figures recomputed, the queue-wait share
    /// is recomputed from the merged totals, and the worst round wins by
    /// total time. Config fields keep this snapshot's values.
    pub fn merge(&mut self, other: &TraceSnapshot) {
        self.spans_recorded += other.spans_recorded;
        self.spans_retained += other.spans_retained;
        self.spans_evicted += other.spans_evicted;
        for theirs in &other.stages {
            match self.stages.iter_mut().find(|s| s.stage == theirs.stage) {
                None => self.stages.push(theirs.clone()),
                Some(ours) => ours.merge(theirs),
            }
        }
        let total = |name: &str| -> u64 {
            self.stages
                .iter()
                .find(|s| s.stage == name)
                .map_or(0, |s| s.total_us)
        };
        let round_us = total(TraceStage::Round.name());
        let queue_us = total(TraceStage::QueueWait.name());
        self.queue_wait_share = if round_us == 0 {
            0.0
        } else {
            queue_us as f64 / round_us as f64
        };
        match (&mut self.worst_round, &other.worst_round) {
            (Some(ours), Some(theirs)) if theirs.total_us > ours.total_us => {
                *ours = theirs.clone();
            }
            (ours @ None, Some(theirs)) => *ours = Some(theirs.clone()),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_handle_records_nothing() {
        let trace = Trace::disabled();
        assert!(!trace.is_enabled());
        assert!(!trace.sampled(0));
        let token = trace.begin(TraceStage::Round, None, 0, None);
        assert!(token.is_none());
        assert!(trace.end(token, Track::Gate).is_none());
        assert!(trace.snapshot().is_none());
        assert!(trace.chrome_trace_json().is_none());
        assert!(trace.spans().is_empty());
    }

    #[test]
    fn spans_record_attribution_and_raw_store() {
        let trace = Trace::enabled();
        let round = trace.begin(TraceStage::Round, None, 0, None);
        let parent = round.as_ref().map(|t| t.id());
        let select = trace.begin(TraceStage::GateSelect, Some(3), 0, parent);
        std::thread::sleep(Duration::from_millis(2));
        let closed = trace.end(select, Track::Gate).expect("select closes");
        assert!(closed.dur_us >= 1_000, "slept 2 ms, got {}", closed.dur_us);
        trace.end(round, Track::Gate).expect("round closes");

        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, TraceStage::Round);
        assert_eq!(spans[1].stage, TraceStage::GateSelect);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].stream, Some(3));
        assert!(spans[1].begin_ns >= spans[0].begin_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);

        let snap = trace.snapshot().expect("enabled");
        assert_eq!(snap.spans_recorded, 2);
        assert_eq!(snap.spans_retained, 2);
        assert_eq!(snap.spans_evicted, 0);
        let select = snap.stage(TraceStage::GateSelect).expect("select stage");
        assert_eq!(select.count, 1);
        assert!(select.total_us >= 1_000);
    }

    #[test]
    fn sampling_skips_unsampled_rounds() {
        let trace = Trace::with_config(TraceConfig {
            sample_every: 2,
            capacity: 1024,
        });
        assert!(trace.sampled(0));
        assert!(!trace.sampled(1));
        for round in 0..10u64 {
            let tok = trace.begin(TraceStage::Round, None, round, None);
            assert_eq!(tok.is_some(), round % 2 == 0);
            trace.end(tok, Track::Gate);
        }
        let snap = trace.snapshot().expect("enabled");
        assert_eq!(snap.spans_recorded, 5);
        assert_eq!(snap.stage(TraceStage::Round).expect("round").count, 5);
    }

    #[test]
    fn store_is_bounded_and_keeps_newest() {
        let trace = Trace::with_config(TraceConfig {
            sample_every: 1,
            capacity: 16,
        });
        for round in 0..100u64 {
            let tok = trace.begin(TraceStage::GateSelect, None, round, None);
            trace.end(tok, Track::Gate);
        }
        let snap = trace.snapshot().expect("enabled");
        assert_eq!(snap.spans_recorded, 100);
        assert_eq!(snap.spans_retained, 16);
        assert_eq!(snap.spans_evicted, 84);
        // Attribution still covers every span despite eviction.
        assert_eq!(snap.stage(TraceStage::GateSelect).expect("gs").count, 100);
        let spans = trace.spans();
        assert_eq!(spans.len(), 16);
        assert!(
            spans.iter().all(|s| s.round >= 84),
            "ring keeps the newest spans"
        );
    }

    #[test]
    fn cross_thread_spans_flush_on_worker_exit() {
        let trace = Trace::enabled();
        let tok = trace.begin(TraceStage::QueueWait, Some(1), 0, None);
        let handle = {
            let trace = trace.clone();
            std::thread::spawn(move || {
                let closed = trace.end(tok, Track::Decode(2)).expect("closes");
                let child =
                    trace.begin(TraceStage::Decode, Some(1), 0, Some(closed.id));
                trace.end(child, Track::Decode(2));
            })
        };
        handle.join().expect("worker");
        // The worker's TLS buffer drained on thread exit; no explicit
        // flush of that thread is possible or needed.
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].track, Track::Decode(2));
        assert_eq!(spans[1].parent, spans[0].id);
    }

    #[test]
    fn note_round_keeps_worst_of_recent() {
        let trace = Trace::enabled();
        for round in 0..100u64 {
            trace.note_round(RoundBreakdown {
                round,
                total_us: if round == 90 { 5_000 } else { 100 },
                parts: vec![RoundPart {
                    stage: "gate_select".into(),
                    us: 50,
                }],
            });
        }
        let snap = trace.snapshot().expect("enabled");
        let worst = snap.worst_round.expect("worst round");
        assert_eq!(worst.round, 90);
        assert_eq!(worst.total_us, 5_000);
    }

    #[test]
    fn queue_wait_share_relates_queue_to_round_time() {
        let trace = Trace::enabled();
        // Synthesize: a 10 ms round with ~4 ms of queue wait.
        let round = trace.begin(TraceStage::Round, None, 0, None);
        let qw = trace.begin(TraceStage::QueueWait, Some(0), 0, None);
        std::thread::sleep(Duration::from_millis(4));
        trace.end(qw, Track::Decode(0));
        std::thread::sleep(Duration::from_millis(6));
        trace.end(round, Track::Gate);
        let snap = trace.snapshot().expect("enabled");
        assert!(
            snap.queue_wait_share > 0.2 && snap.queue_wait_share < 0.7,
            "queue-wait share {} out of plausible band",
            snap.queue_wait_share
        );
    }

    #[test]
    fn chrome_trace_has_tracks_and_complete_events() {
        let trace = Trace::enabled();
        let round = trace.begin(TraceStage::Round, None, 7, None);
        let parent = round.as_ref().map(|t| t.id());
        let parse = trace.begin(TraceStage::Parse, Some(2), 7, parent);
        trace.end(parse, Track::Parser(1));
        trace.end(round, Track::Gate);
        let json = trace.chrome_trace_json().expect("enabled");
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(json.contains("\"name\":\"gate\""), "{json}");
        assert!(json.contains("\"name\":\"parser-1\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"name\":\"round\""), "{json}");
        assert!(json.contains("\"round\":7"), "{json}");
        assert!(json.contains("\"stream\":2"), "{json}");
        // Valid JSON with the required per-event fields.
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let serde_json::Value::Object(top) = &parsed else {
            panic!("top-level object");
        };
        let Some(serde_json::Value::Array(events)) =
            top.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v)
        else {
            panic!("traceEvents array");
        };
        assert_eq!(events.len(), 4, "2 metadata + 2 spans");
        for event in events {
            assert!(event.get("ph").is_some());
            assert!(event.get("pid").is_some());
            assert!(event.get("tid").is_some());
        }
    }

    #[test]
    fn snapshot_merges_across_instances() {
        let a = Trace::enabled();
        let tok = a.begin(TraceStage::GateSelect, None, 0, None);
        a.end(tok, Track::Gate);
        let b = Trace::enabled();
        for round in 0..3 {
            let tok = b.begin(TraceStage::GateSelect, None, round, None);
            b.end(tok, Track::Gate);
        }
        b.note_round(RoundBreakdown {
            round: 2,
            total_us: 123,
            parts: Vec::new(),
        });
        let mut merged = a.snapshot().expect("a");
        merged.merge(&b.snapshot().expect("b"));
        assert_eq!(merged.spans_recorded, 4);
        assert_eq!(merged.stage(TraceStage::GateSelect).expect("gs").count, 4);
        assert_eq!(merged.worst_round.expect("worst").total_us, 123);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let trace = Trace::enabled();
        let tok = trace.begin(TraceStage::Decode, Some(1), 0, None);
        trace.end(tok, Track::Decode(0));
        let snap = trace.snapshot().expect("enabled");
        let json = serde_json::to_string_pretty(&snap).expect("serializes");
        assert!(json.contains("\"stage\": \"decode\""), "{json}");
        assert!(json.contains("\"sample_every\": 1"), "{json}");
    }
}
