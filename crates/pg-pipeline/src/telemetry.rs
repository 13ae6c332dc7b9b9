//! Pipeline observability: per-stage telemetry and a gate-decision audit
//! log.
//!
//! Every execution mode of this crate moves packets through the same four
//! conceptual stages — **parse → gate → decode → infer** — but until now
//! only aggregate totals survived a run. This module adds a cheap,
//! shareable [`Telemetry`] handle that stages thread through their hot
//! loops:
//!
//! * per-stage **item counters** and **latency histograms** (fixed
//!   power-of-two microsecond buckets, atomic increments, no allocation on
//!   the hot path);
//! * a bounded **gate-decision audit ring** recording, per candidate
//!   packet, the stream, round, gating confidence, closure cost and the
//!   kept/dropped reason — fed by telemetry-aware policies (PacketGame's
//!   combinatorial optimizer) via [`GatePolicy::attach_telemetry`];
//! * an immutable [`TelemetrySnapshot`] that serializes to JSON (the
//!   `pgv … --telemetry-json` flag) and rides along on simulation reports.
//!
//! A disabled handle ([`Telemetry::disabled`]) is a `None` behind an
//! `Option<Arc<…>>`: every hook is a single branch, no clock is read, and
//! nothing is allocated, so instrumented code pays effectively nothing
//! when observability is off (asserted by `pg-bench`'s overhead test).
//!
//! [`GatePolicy::attach_telemetry`]: crate::gate::GatePolicy::attach_telemetry

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::Serialize;

use crate::fault::FaultKind;
use crate::autopilot::{Autopilot, AutopilotSnapshot};
use crate::insight::{Insight, InsightSnapshot};
use crate::trace::{Trace, TraceSnapshot};

/// The four pipeline stages every execution mode shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Byte/packet parsing (or packet arrival assembly in the round
    /// simulators).
    Parse,
    /// The gating decision (`GatePolicy::select`).
    Gate,
    /// Decoding of selected dependency closures.
    Decode,
    /// Downstream inference on decoded target frames.
    Infer,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 4] = [Stage::Parse, Stage::Gate, Stage::Decode, Stage::Infer];

    /// Stable lowercase stage name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Gate => "gate",
            Stage::Decode => "decode",
            Stage::Infer => "infer",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Gate => 1,
            Stage::Decode => 2,
            Stage::Infer => 3,
        }
    }
}

/// Number of latency histogram buckets. Bucket `0` holds sub-microsecond
/// samples; bucket `k` holds `[2^(k-1), 2^k)` µs; the last bucket is the
/// overflow bucket (everything ≥ ~0.5 s).
pub const HISTOGRAM_BUCKETS: usize = 21;

/// Bucket index for a latency of `us` microseconds.
pub fn bucket_index(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` in microseconds (`u64::MAX` for the
/// overflow bucket).
pub fn bucket_upper_us(i: usize) -> u64 {
    if i + 1 >= HISTOGRAM_BUCKETS {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// Per-stage accumulator: counters plus the latency histogram. All fields
/// are relaxed atomics — stages on different threads update concurrently
/// without locks.
struct StageCell {
    /// Timed spans recorded.
    calls: AtomicU64,
    /// Items moved across all spans (packets, frames, candidates...).
    items: AtomicU64,
    /// Sum of span latencies, µs (mean = total/calls).
    total_us: AtomicU64,
    /// Power-of-two latency buckets.
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl StageCell {
    fn new() -> Self {
        StageCell {
            calls: AtomicU64::new(0),
            items: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, items: u64, elapsed: Duration) {
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Why a gate kept or dropped a candidate packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AuditReason {
    /// Selected by the policy within the budget.
    Selected,
    /// Would have been selected but the round budget was already spent.
    BudgetExhausted,
    /// Ranked below the selection cut for a non-budget reason (policy
    /// choice).
    NotSelected,
    /// Selected but undecodable (references lost in transit).
    Undecodable,
}

/// One gate decision, as recorded in the audit ring.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GateAuditEntry {
    /// Stream the candidate packet belongs to.
    pub stream_idx: usize,
    /// Round of the decision.
    pub round: u64,
    /// The policy's gating confidence for the packet (exploration bonus
    /// included). `0.0` for policies that do not score candidates.
    pub confidence: f64,
    /// Decode cost of the packet's pending dependency closure.
    pub cost: f64,
    /// `true` if the packet was sent to the decoder.
    pub kept: bool,
    /// Why.
    pub reason: AuditReason,
}

/// Audit-ring shards. Entries hash by stream index, so at m = 1024 in
/// the concurrent runtime gate/decode threads contend on 1/16th of the
/// former single global mutex.
const AUDIT_SHARDS: usize = 16;

/// Fixed-capacity ring of the most recent gate decisions in one shard.
/// Entries carry a global sequence number so the snapshot can reassemble
/// the newest `capacity` decisions across all shards — shard-local
/// imbalance never evicts globally-recent entries (each shard holds the
/// full capacity, bounding memory at `AUDIT_SHARDS × capacity`).
struct AuditRing {
    capacity: usize,
    entries: Vec<(u64, GateAuditEntry)>,
    /// Index the next entry overwrites once the ring is full.
    next: usize,
}

impl AuditRing {
    fn new(capacity: usize) -> Self {
        AuditRing {
            capacity,
            entries: Vec::with_capacity(capacity.min(1024)),
            next: 0,
        }
    }

    fn push(&mut self, seq: u64, entry: GateAuditEntry) {
        if self.entries.len() < self.capacity {
            self.entries.push((seq, entry));
        } else if self.capacity > 0 {
            self.entries[self.next] = (seq, entry);
            self.next = (self.next + 1) % self.capacity;
        }
    }
}

/// All six fault kinds, in ledger order.
const FAULT_KINDS: [FaultKind; 6] = [
    FaultKind::ParseCorrupt,
    FaultKind::DependencyViolation,
    FaultKind::DecodeFail,
    FaultKind::FeedbackLost,
    FaultKind::StageDown,
    FaultKind::ConnectionLost,
];

fn fault_kind_index(kind: FaultKind) -> usize {
    match kind {
        FaultKind::ParseCorrupt => 0,
        FaultKind::DependencyViolation => 1,
        FaultKind::DecodeFail => 2,
        FaultKind::FeedbackLost => 3,
        FaultKind::StageDown => 4,
        FaultKind::ConnectionLost => 5,
    }
}

/// Mutable half of the fault ledger. Fault paths are rare by construction,
/// so a mutex (not atomics) keeps the per-stream map simple.
#[derive(Default)]
struct FaultLedger {
    by_kind: [u64; 6],
    per_stream: BTreeMap<usize, StreamFaultCell>,
    degraded_events: u64,
    recovered_events: u64,
}

#[derive(Default, Clone, Copy)]
struct StreamFaultCell {
    faults: u64,
    degraded: u64,
    recovered: u64,
}

struct TelemetryInner {
    stages: [StageCell; 4],
    gate_kept: AtomicU64,
    gate_dropped: AtomicU64,
    /// Total audit entries ever pushed (the rings only retain the tail).
    /// Doubles as the global sequence counter ordering entries across
    /// shards.
    audit_total: AtomicU64,
    audit_capacity: usize,
    audit: [Mutex<AuditRing>; AUDIT_SHARDS],
    faults: Mutex<FaultLedger>,
}

/// Default audit-ring capacity: enough for several rounds of a large
/// deployment without unbounded growth.
pub const DEFAULT_AUDIT_CAPACITY: usize = 256;

/// A cheap-to-clone telemetry handle shared by all pipeline stages.
///
/// Disabled handles carry no allocation and make every hook a single
/// branch; enabled handles share one atomic accumulator via `Arc`.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
    /// Optional decision-quality monitor riding on the same handle (see
    /// [`crate::insight`]). Disabled by default — [`Telemetry::enabled`]
    /// keeps the stage-telemetry cost profile unchanged.
    insight: Insight,
    /// Optional live-ingest session counters (see [`crate::ingest`]);
    /// attached when the pipeline is fed from the session server so the
    /// connection plane shows up in snapshots and Prometheus exposition.
    ingest: Option<Arc<pg_net::SessionCounters>>,
    /// Optional drift autopilot riding on the same handle (see
    /// [`crate::autopilot`]); its actions ledger and counters join the
    /// snapshot and the Prometheus exposition when attached.
    autopilot: Autopilot,
    /// Optional span recorder riding on the same handle (see
    /// [`crate::trace`]); its latency-attribution summary joins the
    /// snapshot and the Prometheus exposition when attached.
    trace: Trace,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("insight", &self.insight.is_enabled())
            .field("ingest", &self.ingest.is_some())
            .field("autopilot", &self.autopilot.is_enabled())
            .field("trace", &self.trace.is_enabled())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// A disabled handle: every hook is a no-op branch.
    pub fn disabled() -> Self {
        Telemetry {
            inner: None,
            insight: Insight::disabled(),
            ingest: None,
            autopilot: Autopilot::disabled(),
            trace: Trace::disabled(),
        }
    }

    /// An enabled handle with the default audit-ring capacity.
    pub fn enabled() -> Self {
        Self::with_audit_capacity(DEFAULT_AUDIT_CAPACITY)
    }

    /// An enabled handle retaining at most `capacity` audit entries.
    pub fn with_audit_capacity(capacity: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                stages: std::array::from_fn(|_| StageCell::new()),
                gate_kept: AtomicU64::new(0),
                gate_dropped: AtomicU64::new(0),
                audit_total: AtomicU64::new(0),
                audit_capacity: capacity,
                audit: std::array::from_fn(|_| Mutex::new(AuditRing::new(capacity))),
                faults: Mutex::new(FaultLedger::default()),
            })),
            insight: Insight::disabled(),
            ingest: None,
            autopilot: Autopilot::disabled(),
            trace: Trace::disabled(),
        }
    }

    /// Attach a decision-quality monitor; its snapshot rides along as
    /// [`TelemetrySnapshot::insight`].
    pub fn with_insight(mut self, insight: Insight) -> Self {
        self.insight = insight;
        self
    }

    /// Attach live-ingest session counters; their snapshot rides along as
    /// [`TelemetrySnapshot::ingest`] and joins the Prometheus exposition.
    pub fn with_ingest(mut self, counters: Arc<pg_net::SessionCounters>) -> Self {
        self.ingest = Some(counters);
        self
    }

    /// The attached ingest counters, if any.
    pub fn ingest_counters(&self) -> Option<&Arc<pg_net::SessionCounters>> {
        self.ingest.as_ref()
    }

    /// Attach a drift autopilot; its counters and actions ledger ride
    /// along as [`TelemetrySnapshot::autopilot`].
    pub fn with_autopilot(mut self, autopilot: Autopilot) -> Self {
        self.autopilot = autopilot;
        self
    }

    /// The attached drift autopilot (disabled by default). Cheap to
    /// clone — hooks branch on [`Autopilot::is_enabled`].
    pub fn autopilot(&self) -> &Autopilot {
        &self.autopilot
    }

    /// The attached decision-quality monitor (disabled by default).
    /// Cheap to clone — hooks branch on [`Insight::is_enabled`].
    pub fn insight(&self) -> &Insight {
        &self.insight
    }

    /// Attach a span recorder; its latency-attribution summary rides
    /// along as [`TelemetrySnapshot::trace`].
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// The attached span recorder (disabled by default). Cheap to clone —
    /// hooks branch on [`Trace::is_enabled`].
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start a stage timer. Returns `None` (and reads no clock) when
    /// disabled; pass the result to [`Telemetry::record`].
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        if self.inner.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Record a timed span begun with [`Telemetry::timer`]. `items` is how
    /// many packets/frames/candidates the span moved.
    #[inline]
    pub fn record(&self, stage: Stage, items: u64, started: Option<Instant>) {
        if let (Some(inner), Some(t0)) = (&self.inner, started) {
            inner.stages[stage.index()].record(items, t0.elapsed());
        }
    }

    /// Record a span with an externally measured duration (for stages that
    /// already keep their own clock).
    #[inline]
    pub fn record_duration(&self, stage: Stage, items: u64, elapsed: Duration) {
        if let Some(inner) = &self.inner {
            inner.stages[stage.index()].record(items, elapsed);
        }
    }

    /// Append a gate decision to the audit ring and bump the kept/dropped
    /// counters.
    pub fn audit(&self, entry: GateAuditEntry) {
        if let Some(inner) = &self.inner {
            if entry.kept {
                inner.gate_kept.fetch_add(1, Ordering::Relaxed);
            } else {
                inner.gate_dropped.fetch_add(1, Ordering::Relaxed);
            }
            let seq = inner.audit_total.fetch_add(1, Ordering::Relaxed);
            inner.audit[entry.stream_idx % AUDIT_SHARDS]
                .lock()
                .push(seq, entry);
        }
    }

    /// Count a classified pipeline fault, optionally attributed to one
    /// stream.
    pub fn fault(&self, kind: FaultKind, stream: Option<usize>) {
        if let Some(inner) = &self.inner {
            let mut ledger = inner.faults.lock();
            ledger.by_kind[fault_kind_index(kind)] += 1;
            if let Some(i) = stream {
                ledger.per_stream.entry(i).or_default().faults += 1;
            }
        }
    }

    /// Record that stream `i` entered quarantine (or was killed).
    pub fn stream_degraded(&self, i: usize) {
        if let Some(inner) = &self.inner {
            let mut ledger = inner.faults.lock();
            ledger.degraded_events += 1;
            ledger.per_stream.entry(i).or_default().degraded += 1;
        }
    }

    /// Record that stream `i`'s cooldown expired and it re-entered gating.
    pub fn stream_recovered(&self, i: usize) {
        if let Some(inner) = &self.inner {
            let mut ledger = inner.faults.lock();
            ledger.recovered_events += 1;
            ledger.per_stream.entry(i).or_default().recovered += 1;
        }
    }

    /// An immutable snapshot of everything recorded so far, or `None` when
    /// disabled. Safe to call while other threads keep recording.
    ///
    /// A handle with only the insight monitor attached still snapshots:
    /// the stage/gate sections come back zeroed with the stable shape.
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        let Some(inner) = self.inner.as_ref() else {
            // Stage telemetry off, but a decision-quality monitor or span
            // recorder may still be recording.
            let insight = self.insight.snapshot();
            let trace = self.trace.snapshot();
            if insight.is_none() && trace.is_none() {
                return None;
            }
            return Some(TelemetrySnapshot {
                stages: Stage::ALL
                    .iter()
                    .map(|&s| StageSnapshot {
                        stage: s.name().to_string(),
                        calls: 0,
                        items: 0,
                        total_us: 0,
                        mean_us: 0.0,
                        p50_us: 0,
                        p99_us: 0,
                        latency_buckets: Vec::new(),
                    })
                    .collect(),
                gate: GateSnapshot {
                    kept: 0,
                    dropped: 0,
                    audit_total: 0,
                    audit: Vec::new(),
                },
                faults: FaultsSnapshot {
                    total: 0,
                    degraded_events: 0,
                    recovered_events: 0,
                    by_kind: Vec::new(),
                    streams: Vec::new(),
                },
                insight,
                ingest: self.ingest_snapshot(),
                autopilot: self.autopilot.snapshot(),
                trace,
            });
        };
        let stages = Stage::ALL
            .iter()
            .map(|&s| {
                let cell = &inner.stages[s.index()];
                let buckets: Vec<u64> = cell
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect();
                let calls = cell.calls.load(Ordering::Relaxed);
                let total_us = cell.total_us.load(Ordering::Relaxed);
                StageSnapshot {
                    stage: s.name().to_string(),
                    calls,
                    items: cell.items.load(Ordering::Relaxed),
                    total_us,
                    mean_us: if calls == 0 {
                        0.0
                    } else {
                        total_us as f64 / calls as f64
                    },
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
                }
            })
            .collect();
        // Reassemble the newest `capacity` decisions across shards: each
        // shard yields its retained tail, the global sequence numbers
        // order them, and the tail past capacity is trimmed.
        let mut tagged: Vec<(u64, GateAuditEntry)> = Vec::new();
        for shard in &inner.audit {
            tagged.extend(shard.lock().entries.iter().cloned());
        }
        tagged.sort_unstable_by_key(|(seq, _)| *seq);
        if tagged.len() > inner.audit_capacity {
            tagged.drain(..tagged.len() - inner.audit_capacity);
        }
        let audit: Vec<GateAuditEntry> = tagged.into_iter().map(|(_, e)| e).collect();
        let faults = {
            let ledger = inner.faults.lock();
            FaultsSnapshot {
                total: ledger.by_kind.iter().sum(),
                degraded_events: ledger.degraded_events,
                recovered_events: ledger.recovered_events,
                by_kind: FAULT_KINDS
                    .iter()
                    .zip(ledger.by_kind.iter())
                    .filter(|(_, &count)| count > 0)
                    .map(|(&kind, &count)| FaultKindCount {
                        kind: kind.name().to_string(),
                        count,
                    })
                    .collect(),
                streams: ledger
                    .per_stream
                    .iter()
                    .map(|(&stream_idx, cell)| StreamFaultSnapshot {
                        stream_idx,
                        faults: cell.faults,
                        degraded: cell.degraded,
                        recovered: cell.recovered,
                    })
                    .collect(),
            }
        };
        Some(TelemetrySnapshot {
            stages,
            gate: GateSnapshot {
                kept: inner.gate_kept.load(Ordering::Relaxed),
                dropped: inner.gate_dropped.load(Ordering::Relaxed),
                audit_total: inner.audit_total.load(Ordering::Relaxed),
                audit,
            },
            faults,
            insight: self.insight.snapshot(),
            ingest: self.ingest_snapshot(),
            autopilot: self.autopilot.snapshot(),
            trace: self.trace.snapshot(),
        })
    }

    fn ingest_snapshot(&self) -> Option<IngestSnapshot> {
        use std::sync::atomic::Ordering::Relaxed;
        self.ingest.as_ref().map(|c| IngestSnapshot {
            accepted: c.accepted.load(Relaxed),
            handshakes: c.handshakes.load(Relaxed),
            resumed: c.resumed.load(Relaxed),
            active: c.active.load(Relaxed),
            peak_active: c.peak_active.load(Relaxed),
            disconnects: c.disconnects.load(Relaxed),
            rejected: c.rejected.load(Relaxed),
            protocol_errors: c.protocol_errors.load(Relaxed),
            bytes_rx: c.bytes_rx.load(Relaxed),
            frames_rx: c.frames_rx.load(Relaxed),
            data_chunks: c.data_chunks.load(Relaxed),
            keepalives: c.keepalives.load(Relaxed),
            backpressure_pauses: c.backpressure_pauses.load(Relaxed),
            queue_depth: c.queue_depth.load(Relaxed),
        })
    }
}

/// Latency upper bound (inclusive, µs) for the samples counted in one
/// histogram bucket. Only non-empty buckets are serialized.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LatencyBucket {
    /// Bucket upper bound in µs (`u64::MAX` marks the overflow bucket).
    pub le_us: u64,
    /// Samples in the bucket.
    pub count: u64,
}

/// One stage's counters and latency distribution at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageSnapshot {
    /// Stage name (`parse`/`gate`/`decode`/`infer`).
    pub stage: String,
    /// Timed spans recorded.
    pub calls: u64,
    /// Items moved across all spans.
    pub items: u64,
    /// Sum of span latencies, µs.
    pub total_us: u64,
    /// Mean span latency, µs.
    pub mean_us: f64,
    /// Median span latency (bucket midpoint — geometric mean of the
    /// bucket bounds), µs.
    pub p50_us: u64,
    /// 99th-percentile span latency (bucket midpoint), µs.
    pub p99_us: u64,
    /// Non-empty histogram buckets.
    pub latency_buckets: Vec<LatencyBucket>,
}

/// Gate-decision counters plus the retained audit tail.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GateSnapshot {
    /// Candidates sent to the decoder.
    pub kept: u64,
    /// Candidates dropped (any reason).
    pub dropped: u64,
    /// Audit entries ever recorded (the ring retains only the newest).
    pub audit_total: u64,
    /// Retained audit entries, oldest first.
    pub audit: Vec<GateAuditEntry>,
}

/// One fault kind's occurrence count.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultKindCount {
    /// Stable fault-kind name (`parse_corrupt`, `decode_fail`, ...).
    pub kind: String,
    /// Occurrences.
    pub count: u64,
}

/// One stream's fault and quarantine history.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StreamFaultSnapshot {
    /// Stream concerned.
    pub stream_idx: usize,
    /// Faults attributed to the stream.
    pub faults: u64,
    /// Times the stream entered quarantine (or was killed).
    pub degraded: u64,
    /// Times the stream re-entered gating after cooldown.
    pub recovered: u64,
}

/// Fault-ledger roll-up: kinds, degradation events, per-stream detail.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultsSnapshot {
    /// Faults recorded across all kinds.
    pub total: u64,
    /// Stream quarantine/kill events.
    pub degraded_events: u64,
    /// Stream cooldown-expiry recoveries.
    pub recovered_events: u64,
    /// Non-zero fault-kind counts.
    pub by_kind: Vec<FaultKindCount>,
    /// Streams with at least one fault/degradation, ascending index.
    pub streams: Vec<StreamFaultSnapshot>,
}

/// Live-ingest session-plane counters at snapshot time. Gauges
/// (`active`, `queue_depth`) are instantaneous; everything else is
/// monotonic since the server started.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IngestSnapshot {
    /// TCP connections accepted.
    pub accepted: u64,
    /// Connections that completed the hello→claim handshake.
    pub handshakes: u64,
    /// Handshakes that resumed an already-started stream.
    pub resumed: u64,
    /// Currently open connections (gauge).
    pub active: u64,
    /// High-water mark of `active`.
    pub peak_active: u64,
    /// Connections that ended (any reason).
    pub disconnects: u64,
    /// Connections refused at capacity.
    pub rejected: u64,
    /// Sessions dropped for protocol violations.
    pub protocol_errors: u64,
    /// Raw bytes read off sockets.
    pub bytes_rx: u64,
    /// Whole frames decoded.
    pub frames_rx: u64,
    /// DATA frames decoded.
    pub data_chunks: u64,
    /// KEEPALIVE frames decoded.
    pub keepalives: u64,
    /// Read-loop passes skipped under backpressure.
    pub backpressure_pauses: u64,
    /// Events queued to the ingest bridge but not yet consumed (gauge).
    pub queue_depth: i64,
}

impl IngestSnapshot {
    fn merge(&mut self, other: &IngestSnapshot) {
        self.accepted += other.accepted;
        self.handshakes += other.handshakes;
        self.resumed += other.resumed;
        self.active += other.active;
        self.peak_active = self.peak_active.max(other.peak_active);
        self.disconnects += other.disconnects;
        self.rejected += other.rejected;
        self.protocol_errors += other.protocol_errors;
        self.bytes_rx += other.bytes_rx;
        self.frames_rx += other.frames_rx;
        self.data_chunks += other.data_chunks;
        self.keepalives += other.keepalives;
        self.backpressure_pauses += other.backpressure_pauses;
        self.queue_depth += other.queue_depth;
    }
}

/// Everything [`Telemetry`] recorded, frozen and serializable.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TelemetrySnapshot {
    /// Per-stage counters and histograms, in pipeline order.
    pub stages: Vec<StageSnapshot>,
    /// Gate decisions.
    pub gate: GateSnapshot,
    /// Fault ledger (empty when the run saw no faults).
    pub faults: FaultsSnapshot,
    /// Decision-quality monitor state (`None` unless an [`Insight`] was
    /// attached via [`Telemetry::with_insight`]).
    pub insight: Option<InsightSnapshot>,
    /// Live-ingest session counters (`None` unless attached via
    /// [`Telemetry::with_ingest`]).
    pub ingest: Option<IngestSnapshot>,
    /// Drift-autopilot counters and actions ledger (`None` unless
    /// attached via [`Telemetry::with_autopilot`]).
    pub autopilot: Option<AutopilotSnapshot>,
    /// Per-round latency-attribution summary (`None` unless a [`Trace`]
    /// was attached via [`Telemetry::with_trace`]).
    pub trace: Option<TraceSnapshot>,
}

impl TelemetrySnapshot {
    /// Snapshot of the named stage, if recorded.
    pub fn stage(&self, stage: Stage) -> Option<&StageSnapshot> {
        self.stages.iter().find(|s| s.stage == stage.name())
    }

    /// Aggregate another run's (or worker's) snapshot into this one:
    /// counters add, histograms add bucket-wise and the percentiles and
    /// means are recomputed from the merged buckets. Audit tails
    /// concatenate (this run's entries first); fault ledgers merge per
    /// kind and per stream.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for theirs in &other.stages {
            match self.stages.iter_mut().find(|s| s.stage == theirs.stage) {
                None => self.stages.push(theirs.clone()),
                Some(ours) => ours.merge(theirs),
            }
        }
        self.gate.kept += other.gate.kept;
        self.gate.dropped += other.gate.dropped;
        self.gate.audit_total += other.gate.audit_total;
        self.gate.audit.extend(other.gate.audit.iter().cloned());
        self.faults.total += other.faults.total;
        self.faults.degraded_events += other.faults.degraded_events;
        self.faults.recovered_events += other.faults.recovered_events;
        for theirs in &other.faults.by_kind {
            match self
                .faults
                .by_kind
                .iter_mut()
                .find(|k| k.kind == theirs.kind)
            {
                None => self.faults.by_kind.push(theirs.clone()),
                Some(ours) => ours.count += theirs.count,
            }
        }
        for theirs in &other.faults.streams {
            match self
                .faults
                .streams
                .iter_mut()
                .find(|s| s.stream_idx == theirs.stream_idx)
            {
                None => self.faults.streams.push(theirs.clone()),
                Some(ours) => {
                    ours.faults += theirs.faults;
                    ours.degraded += theirs.degraded;
                    ours.recovered += theirs.recovered;
                }
            }
        }
        self.faults.streams.sort_by_key(|s| s.stream_idx);
        match (&mut self.insight, &other.insight) {
            (Some(ours), Some(theirs)) => ours.merge(theirs),
            (ours @ None, Some(theirs)) => *ours = Some(theirs.clone()),
            _ => {}
        }
        match (&mut self.ingest, &other.ingest) {
            (Some(ours), Some(theirs)) => ours.merge(theirs),
            (ours @ None, Some(theirs)) => *ours = Some(theirs.clone()),
            _ => {}
        }
        match (&mut self.autopilot, &other.autopilot) {
            (Some(ours), Some(theirs)) => ours.merge(theirs),
            (ours @ None, Some(theirs)) => *ours = Some(theirs.clone()),
            _ => {}
        }
        match (&mut self.trace, &other.trace) {
            (Some(ours), Some(theirs)) => ours.merge(theirs),
            (ours @ None, Some(theirs)) => *ours = Some(theirs.clone()),
            _ => {}
        }
    }
}

impl StageSnapshot {
    /// Merge another run's accumulators for the same stage: counters add,
    /// the sparse histograms add bucket-wise, and the derived mean and
    /// percentiles are recomputed from the merged distribution.
    fn merge(&mut self, other: &StageSnapshot) {
        debug_assert_eq!(self.stage, other.stage);
        self.calls += other.calls;
        self.items += other.items;
        self.total_us += other.total_us;
        self.mean_us = if self.calls == 0 {
            0.0
        } else {
            self.total_us as f64 / self.calls as f64
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

/// Representative latency for samples in bucket `i`: the geometric mean
/// of the bucket bounds. Reporting the upper bound overstated p50 by up
/// to 2× at coarse buckets; the geometric midpoint is the unbiased point
/// estimate for log-spaced buckets. Bucket 0 (sub-µs) reports 0 and the
/// overflow bucket reports its lower bound.
pub fn bucket_midpoint_us(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i + 1 >= HISTOGRAM_BUCKETS {
        1u64 << (HISTOGRAM_BUCKETS - 2)
    } else {
        // Bucket i covers [2^(i-1), 2^i): geometric mean 2^(i-1)·√2.
        ((1u64 << (i - 1)) as f64 * std::f64::consts::SQRT_2).round() as u64
    }
}

/// Bucket-resolution percentile: the midpoint (geometric mean of bounds)
/// of the first bucket at which the cumulative count reaches `q` of the
/// total (0 when empty).
pub(crate) fn percentile_from_buckets(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut cumulative = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        cumulative += count;
        if cumulative >= target {
            return bucket_midpoint_us(i);
        }
    }
    bucket_midpoint_us(buckets.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(round: u64, kept: bool) -> GateAuditEntry {
        GateAuditEntry {
            stream_idx: round as usize % 7,
            round,
            confidence: 0.5,
            cost: 1.0,
            kept,
            reason: if kept {
                AuditReason::Selected
            } else {
                AuditReason::BudgetExhausted
            },
        }
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        // Everything huge lands in the overflow bucket.
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_us(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // Bucket k covers [2^(k-1), 2^k): its upper bound is 2^k.
        for k in 1..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_upper_us(k), 1 << k);
            assert_eq!(bucket_index(1 << (k - 1)), k, "lower edge of bucket {k}");
            assert_eq!(bucket_index((1 << k) - 1), k, "upper edge of bucket {k}");
        }
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(
            t.timer().is_none(),
            "disabled timer must not read the clock"
        );
        t.record(Stage::Parse, 10, None);
        t.record_duration(Stage::Gate, 5, Duration::from_micros(3));
        t.audit(entry(0, true));
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn stage_counters_and_histogram_accumulate() {
        let t = Telemetry::enabled();
        t.record_duration(Stage::Decode, 4, Duration::from_micros(3));
        t.record_duration(Stage::Decode, 1, Duration::from_micros(100));
        t.record_duration(Stage::Infer, 1, Duration::from_micros(0));
        let snap = t.snapshot().expect("enabled");
        let decode = snap.stage(Stage::Decode).expect("decode stage");
        assert_eq!(decode.calls, 2);
        assert_eq!(decode.items, 5);
        assert_eq!(decode.total_us, 103);
        assert!((decode.mean_us - 51.5).abs() < 1e-9);
        // 3 µs → bucket [2,4) (le 4); 100 µs → bucket [64,128) (le 128).
        assert_eq!(
            decode.latency_buckets,
            vec![
                LatencyBucket { le_us: 4, count: 1 },
                LatencyBucket {
                    le_us: 128,
                    count: 1
                },
            ]
        );
        // Percentiles report the bucket *midpoint* (geometric mean of the
        // bucket bounds), not the upper bound: 3 µs lands in [2,4) → 3;
        // 100 µs lands in [64,128) → 91.
        assert_eq!(decode.p50_us, 3);
        assert_eq!(decode.p99_us, 91);
        let infer = snap.stage(Stage::Infer).expect("infer stage");
        assert_eq!(
            infer.latency_buckets,
            vec![LatencyBucket { le_us: 1, count: 1 }]
        );
        // Untouched stages are present with zero counts (stable shape).
        let parse = snap.stage(Stage::Parse).expect("parse stage");
        assert_eq!(parse.calls, 0);
        assert_eq!(parse.p50_us, 0);
    }

    #[test]
    fn audit_ring_wraps_and_keeps_newest() {
        let t = Telemetry::with_audit_capacity(4);
        for round in 0..10 {
            t.audit(entry(round, round % 2 == 0));
        }
        let snap = t.snapshot().expect("enabled");
        assert_eq!(snap.gate.audit_total, 10);
        assert_eq!(snap.gate.kept, 5);
        assert_eq!(snap.gate.dropped, 5);
        let rounds: Vec<u64> = snap.gate.audit.iter().map(|e| e.round).collect();
        assert_eq!(
            rounds,
            vec![6, 7, 8, 9],
            "ring keeps the newest, oldest first"
        );
    }

    #[test]
    fn zero_capacity_ring_still_counts() {
        let t = Telemetry::with_audit_capacity(0);
        for round in 0..3 {
            t.audit(entry(round, true));
        }
        let snap = t.snapshot().expect("enabled");
        assert_eq!(snap.gate.audit_total, 3);
        assert_eq!(snap.gate.kept, 3);
        assert!(snap.gate.audit.is_empty());
    }

    #[test]
    fn snapshot_is_consistent_under_concurrent_writers() {
        let t = Telemetry::with_audit_capacity(64);
        let writers = 4u32;
        let per_writer = 500u64;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let t = t.clone();
                scope.spawn(move || {
                    for i in 0..per_writer {
                        t.record_duration(Stage::Parse, 2, Duration::from_micros(i % 50));
                        t.audit(entry(u64::from(w) * per_writer + i, i % 3 != 0));
                    }
                });
            }
            // Concurrent snapshots must never observe torn structure (they
            // may observe partial progress). `calls`, `items` and the
            // buckets are independent atomics read one after another, so
            // mid-flight they agree only up to the writes in between;
            // the exact equalities are checked after the join.
            let total = u64::from(writers) * per_writer;
            for _ in 0..50 {
                if let Some(snap) = t.snapshot() {
                    let parse = snap.stage(Stage::Parse).expect("parse stage");
                    let bucket_sum: u64 = parse.latency_buckets.iter().map(|b| b.count).sum();
                    assert!(bucket_sum <= total);
                    assert!(parse.calls <= total);
                    assert!(parse.items <= total * 2);
                    assert_eq!(parse.items % 2, 0, "every write adds two items");
                    assert!(snap.gate.audit.len() <= 64);
                }
            }
        });
        let snap = t.snapshot().expect("enabled");
        let parse = snap.stage(Stage::Parse).expect("parse stage");
        let expected = u64::from(writers) * per_writer;
        assert_eq!(parse.calls, expected);
        assert_eq!(parse.items, expected * 2);
        let bucket_sum: u64 = parse.latency_buckets.iter().map(|b| b.count).sum();
        assert_eq!(bucket_sum, expected);
        assert_eq!(snap.gate.audit_total, expected);
        assert_eq!(snap.gate.kept + snap.gate.dropped, expected);
        assert_eq!(snap.gate.audit.len(), 64);
    }

    #[test]
    fn percentiles_come_from_cumulative_counts() {
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        buckets[3] = 98; // [4,8) µs
        buckets[10] = 2; // [512,1024) µs
                         // Percentile convention: the *midpoint* (geometric mean of the
                         // bucket bounds) of the bucket that crosses the target rank —
                         // the upper bound overstated p50 by up to 2×.
        assert_eq!(
            percentile_from_buckets(&buckets, 0.50),
            bucket_midpoint_us(3)
        ); // 6 µs
        assert_eq!(
            percentile_from_buckets(&buckets, 0.99),
            bucket_midpoint_us(10)
        ); // 724 µs
        assert_eq!(percentile_from_buckets(&[0; 4], 0.5), 0);
    }

    #[test]
    fn bucket_midpoints_are_geometric_means() {
        assert_eq!(bucket_midpoint_us(0), 0);
        assert_eq!(bucket_midpoint_us(3), 6); // √(4·8) ≈ 5.66 → 6
        assert_eq!(bucket_midpoint_us(10), 724); // √(512·1024) ≈ 724.1
                                                 // Overflow bucket reports its lower bound.
        assert_eq!(
            bucket_midpoint_us(HISTOGRAM_BUCKETS - 1),
            1 << (HISTOGRAM_BUCKETS - 2)
        );
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let mid = bucket_midpoint_us(i);
            assert!(mid >= (bucket_upper_us(i) / 2) && mid <= bucket_upper_us(i));
        }
    }

    #[test]
    fn sharded_audit_ring_survives_cross_shard_contention() {
        // Two writers hammer disjoint shard sets (even/odd stream
        // indices); totals and the reassembled tail must stay exact.
        let t = Telemetry::with_audit_capacity(32);
        let per_writer = 2_000u64;
        std::thread::scope(|scope| {
            for parity in 0..2usize {
                let t = t.clone();
                scope.spawn(move || {
                    for i in 0..per_writer {
                        t.audit(GateAuditEntry {
                            stream_idx: (i as usize * 2 + parity) % 64,
                            round: i,
                            confidence: 0.5,
                            cost: 1.0,
                            kept: parity == 0,
                            reason: AuditReason::Selected,
                        });
                    }
                });
            }
        });
        let snap = t.snapshot().expect("enabled");
        assert_eq!(snap.gate.audit_total, per_writer * 2);
        assert_eq!(snap.gate.kept, per_writer);
        assert_eq!(snap.gate.dropped, per_writer);
        assert_eq!(
            snap.gate.audit.len(),
            32,
            "trimmed to the configured capacity"
        );
    }

    #[test]
    fn cross_instance_merge_composes_all_four_sections_at_once() {
        // Two cluster instances, each carrying every optional section —
        // insight, ingest, autopilot, trace — in one snapshot. The
        // cluster report folds these with `merge`; every section must
        // compose in the same pass, not just whichever happens to be
        // populated.
        use crate::autopilot::AutopilotSnapshot;
        use crate::insight::{Insight, PacketOutcome, RoundOutcome};
        use crate::trace::{Trace, TraceStage, Track};

        let instance = |rounds: u64, accepted: u64, spans: u64| {
            let insight = Insight::enabled();
            for round in 0..rounds {
                insight.record_round(&RoundOutcome {
                    round,
                    budget: 4.0,
                    spent: 2.0,
                    offered: 2,
                    decoded: 1,
                    quarantined: 0,
                    outcomes: &[PacketOutcome {
                        cost: 2.0,
                        necessary: true,
                        decoded: true,
                    }],
                });
            }
            let counters = pg_net::SessionCounters::new();
            for _ in 0..accepted {
                counters.connection_opened();
            }
            let trace = Trace::enabled();
            for round in 0..spans {
                let span = trace.begin(TraceStage::Round, None, round, None);
                trace.end(span, Track::Gate);
            }
            let t = Telemetry::enabled()
                .with_insight(insight)
                .with_ingest(counters)
                .with_trace(trace);
            t.record_duration(Stage::Gate, 1, Duration::from_micros(10));
            let mut snap = t.snapshot().expect("enabled");
            snap.autopilot = Some(AutopilotSnapshot {
                actions_total: rounds,
                fallbacks: 1,
                budget_initial: 8.0,
                budget_current: 6.0,
                ..AutopilotSnapshot::default()
            });
            snap
        };

        let mut merged = instance(3, 2, 4);
        merged.merge(&instance(5, 1, 2));

        let insight = merged.insight.as_ref().expect("insight section merged");
        assert_eq!(insight.rounds, 8);
        let ingest = merged.ingest.as_ref().expect("ingest section merged");
        assert_eq!(ingest.accepted, 3);
        let autopilot = merged.autopilot.as_ref().expect("autopilot section merged");
        assert_eq!(autopilot.actions_total, 8);
        assert_eq!(autopilot.fallbacks, 2);
        assert!((autopilot.budget_initial - 16.0).abs() < 1e-9, "fleet capacity adds");
        let trace = merged.trace.as_ref().expect("trace section merged");
        assert_eq!(trace.spans_recorded, 6);
        // The plain stage counters still merged alongside.
        assert_eq!(merged.stage(Stage::Gate).expect("gate stage").calls, 2);

        // Asymmetric fold: an instance with no optional sections adopts
        // the merged ones rather than erasing them.
        let bare = Telemetry::enabled();
        bare.record_duration(Stage::Gate, 1, Duration::from_micros(5));
        let mut bare_snap = bare.snapshot().expect("enabled");
        bare_snap.merge(&merged);
        assert!(bare_snap.insight.is_some());
        assert!(bare_snap.ingest.is_some());
        assert!(bare_snap.autopilot.is_some());
        assert!(bare_snap.trace.is_some());
        assert_eq!(bare_snap.stage(Stage::Gate).expect("gate stage").calls, 3);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_recomputes_percentiles() {
        let a = Telemetry::enabled();
        a.record_duration(Stage::Decode, 4, Duration::from_micros(3));
        a.audit(entry(0, true));
        a.fault(FaultKind::DecodeFail, Some(1));
        let b = Telemetry::enabled();
        b.record_duration(Stage::Decode, 2, Duration::from_micros(100));
        b.record_duration(Stage::Decode, 2, Duration::from_micros(100));
        b.record_duration(Stage::Decode, 2, Duration::from_micros(100));
        b.audit(entry(1, false));
        b.fault(FaultKind::DecodeFail, Some(1));
        b.fault(FaultKind::ParseCorrupt, None);

        let mut merged = a.snapshot().expect("enabled");
        merged.merge(&b.snapshot().expect("enabled"));

        let decode = merged.stage(Stage::Decode).expect("decode stage");
        assert_eq!(decode.calls, 4);
        assert_eq!(decode.items, 10);
        assert_eq!(decode.total_us, 303);
        assert!((decode.mean_us - 75.75).abs() < 1e-9);
        // Bucket-wise sum: one sample in [2,4), three in [64,128). The
        // median rank (2 of 4) now falls in [64,128) → midpoint 91.
        assert_eq!(
            decode.latency_buckets,
            vec![
                LatencyBucket { le_us: 4, count: 1 },
                LatencyBucket {
                    le_us: 128,
                    count: 3
                },
            ]
        );
        assert_eq!(decode.p50_us, 91);
        assert_eq!(decode.p99_us, 91);
        assert_eq!(merged.gate.kept, 1);
        assert_eq!(merged.gate.dropped, 1);
        assert_eq!(merged.gate.audit_total, 2);
        assert_eq!(merged.gate.audit.len(), 2);
        assert_eq!(merged.faults.total, 3);
        let decode_fails = merged
            .faults
            .by_kind
            .iter()
            .find(|k| k.kind == "decode_fail")
            .expect("kind merged");
        assert_eq!(decode_fails.count, 2);
        let s1 = merged
            .faults
            .streams
            .iter()
            .find(|s| s.stream_idx == 1)
            .expect("stream merged");
        assert_eq!(s1.faults, 2);
    }

    #[test]
    fn fault_ledger_counts_kinds_and_streams() {
        let t = Telemetry::enabled();
        t.fault(FaultKind::ParseCorrupt, Some(3));
        t.fault(FaultKind::ParseCorrupt, Some(3));
        t.fault(FaultKind::DecodeFail, Some(5));
        t.fault(FaultKind::StageDown, None);
        t.stream_degraded(3);
        t.stream_recovered(3);
        let snap = t.snapshot().expect("enabled");
        assert_eq!(snap.faults.total, 4);
        assert_eq!(snap.faults.degraded_events, 1);
        assert_eq!(snap.faults.recovered_events, 1);
        let kinds: Vec<(&str, u64)> = snap
            .faults
            .by_kind
            .iter()
            .map(|k| (k.kind.as_str(), k.count))
            .collect();
        assert_eq!(
            kinds,
            vec![("parse_corrupt", 2), ("decode_fail", 1), ("stage_down", 1)]
        );
        let s3 = snap
            .faults
            .streams
            .iter()
            .find(|s| s.stream_idx == 3)
            .expect("stream 3 tracked");
        assert_eq!((s3.faults, s3.degraded, s3.recovered), (2, 1, 1));
        // Disabled handles ignore fault hooks entirely.
        let off = Telemetry::disabled();
        off.fault(FaultKind::DecodeFail, Some(0));
        off.stream_degraded(0);
        assert!(off.snapshot().is_none());
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let t = Telemetry::with_audit_capacity(2);
        t.record_duration(Stage::Gate, 3, Duration::from_micros(7));
        t.audit(entry(1, true));
        let snap = t.snapshot().expect("enabled");
        let json = serde_json::to_string_pretty(&snap).expect("snapshot serializes");
        assert!(json.contains("\"stage\": \"gate\""));
        assert!(json.contains("\"reason\": \"Selected\""));
        assert!(json.contains("\"audit_total\": 1"));
    }
}
