//! A genuinely concurrent pipeline: threads + channels moving real bytes.
//!
//! The round simulator ([`crate::round`]) answers accuracy questions; this
//! module answers *throughput* questions (paper Fig. 2, Table 4): how many
//! packets per second can the parse → gate → decode → infer pipeline move
//! when decoding costs real CPU work, and how much does the gate add?
//!
//! Topology (one thread per box unless noted):
//!
//! ```text
//!            ┌─parser shard 0─┐
//! producer ──┤      ...       ├──batches──▶ gate ──jobs──▶ decode pool (N,
//!            └─parser shard S─┘              ▲    injector   work-stealing)
//!                                            │                  │frames
//!                                            └─── feedback ◀── inference
//! ```
//!
//! Streams are partitioned over `S` parser shards by a stable hash of the
//! stream index ([`ConcurrentConfig::parser_shards`]), so parsing scales
//! across cores and the gate receives **one message per shard per round**
//! (a [`ShardBatch`] in struct-of-arrays layout) instead of one message
//! per packet. Packet payloads are refcounted [`bytes::Bytes`] slices of
//! the arrival chunk — sliced once at serialization and never deep-copied
//! on the parser → gate → decode path. Decode jobs flow through a
//! work-stealing pool ([`crate::steal`]): one stream's oversized closure
//! can no longer head-of-line-block every other stream's job.
//!
//! ## Determinism across shard counts
//!
//! With a single parser FIFO, arrival order alone made gate decisions
//! reproducible. With `S` shards the *arrival interleaving* of batches is
//! timing-dependent, so the gate separates receipt from processing:
//!
//! * at **receipt** it only updates monotone coverage state (highest good
//!   sequence per stream, highest fault-carrying batch round per stream,
//!   highest batch round per shard) and parks the batch;
//! * at **round r** it processes every parked batch with round ≤ r in
//!   canonical order — rounds ascending, items within a round stably
//!   sorted by stream index.
//!
//! Since each stream lives wholly on one shard and each shard's channel
//! is FIFO, the canonical order is independent of how batches interleave,
//! so reports, ledgers and telemetry counters are identical for any shard
//! count (stall-timeout recovery paths excepted — those are inherently
//! wall-clock-driven). Because coverage for round r additionally requires
//! the stream's *shard* to have delivered a batch of round ≥ r, a
//! bit-flipped sequence number cannot trick the gate into closing a round
//! before the round's real batch arrived.
//!
//! Decode work is synthetic: either a deterministic xorshift spin loop
//! proportional to decode cost ([`WorkKind::Spin`]) or a sleep modelling
//! hardware-offloaded decoding ([`WorkKind::Offload`]), calibrated by
//! [`DecodeWorkModel`].
//!
//! ## Fault tolerance
//!
//! Malformed input never panics the runtime. Parser shards resynchronize
//! past damaged records and report them in-band as
//! [`PipelineError::ParseCorrupt`] fault items riding in the batch; the
//! gate quarantines the offending stream per [`QuarantineConfig`]
//! (dropping its in-flight closure and releasing its budget share to the
//! remaining streams) and re-admits it after the cooldown. Decode-worker
//! and feedback failures flow back on a dedicated fault channel; a stage
//! thread dying becomes a [`PipelineError::StageDown`] record in the
//! report instead of a join panic. Deterministic fault injection is
//! available via [`ConcurrentConfig::faults`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};

use pg_codec::{CostModel, DependencyTracker, EncoderConfig, GopRing, Packet, PacketParser};
use pg_scene::TaskKind;

use crate::engine::close_round;
use crate::fault::{
    FaultLedger, FaultPlan, FaultRecord, HealthSummary, PipelineError, QuarantineConfig,
    StreamHealth,
};
use crate::gate::{FeedbackEvent, GatePolicy, PacketContext};
use crate::insight::RoundOutcome;
use crate::round::RegimeShift;
use crate::steal::{steal_pool, PoolWorker, StealPool};
use crate::telemetry::{Stage, Telemetry, TelemetrySnapshot};
use crate::trace::{ClosedSpan, SpanId, SpanToken, TraceStage, Track};

/// Default for [`ConcurrentConfig::stall_timeout`]: how long the gate
/// waits for parser output before declaring the uncovered streams stalled
/// (a corrupted length field can otherwise leave a stream silently waiting
/// for phantom payload bytes).
const STALL_TIMEOUT: Duration = Duration::from_millis(500);

/// What kind of synthetic work one decode-cost unit costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkKind {
    /// Burn CPU in a deterministic xorshift loop (`iters_per_unit`
    /// iterations per cost unit). Models software decoding; saturates a
    /// core, so worker scaling needs as many physical cores.
    Spin,
    /// Sleep `iters_per_unit` *nanoseconds* per cost unit, modelling
    /// decode offloaded to a hardware engine (NVDEC-style): the worker
    /// thread only waits for completion. Sleeps overlap across workers,
    /// so worker scaling shows up even on a single-core host.
    Offload,
}

/// Synthetic decode work: CPU iterations (or offload-wait nanoseconds)
/// per cost unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeWorkModel {
    /// Spin: xorshift iterations per cost unit; Offload: nanoseconds of
    /// simulated hardware-decode wait per cost unit. 0 = free decoding
    /// (pure orchestration overhead measurement).
    pub iters_per_unit: u64,
    /// How the per-unit work is realised.
    pub kind: WorkKind,
}

impl Default for DecodeWorkModel {
    fn default() -> Self {
        // ~20 µs per P-frame on a modern core: fast enough for tests,
        // heavy enough that the decode pool dominates without gating.
        DecodeWorkModel {
            iters_per_unit: 20_000,
            kind: WorkKind::Spin,
        }
    }
}

impl DecodeWorkModel {
    /// CPU-bound spin work: `iters` xorshift iterations per cost unit.
    pub fn spin(iters: u64) -> Self {
        DecodeWorkModel {
            iters_per_unit: iters,
            kind: WorkKind::Spin,
        }
    }

    /// Hardware-offload work: `ns` nanoseconds of decode wait per cost
    /// unit.
    pub fn offload_ns(ns: u64) -> Self {
        DecodeWorkModel {
            iters_per_unit: ns,
            kind: WorkKind::Offload,
        }
    }

    /// Perform the work for `cost_units`; returns a checksum so spin work
    /// cannot be optimized away.
    pub fn decode_work(&self, cost_units: f64) -> u64 {
        let units = (cost_units * self.iters_per_unit as f64) as u64;
        match self.kind {
            WorkKind::Spin => {
                let mut x = 0x9E37_79B9_7F4A_7C15u64 | 1;
                for _ in 0..units {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                }
                std::hint::black_box(x)
            }
            WorkKind::Offload => {
                if units > 0 {
                    std::thread::sleep(Duration::from_nanos(units));
                }
                std::hint::black_box(units)
            }
        }
    }
}

/// Length of the [`ClusterControl`] round-latency ring: enough recent
/// rounds for an honest tail estimate without the coordinator and the gate
/// sharing anything wider than a few cache lines.
const CONTROL_LATENCY_RING: usize = 64;

/// Shared control surface between a cluster coordinator and one running
/// gate instance.
///
/// The gate is the only writer of the progress gauges; the coordinator is
/// the only writer of the budget cell. The gate reads the budget **once
/// per round, at round start**, so a coordinator write never splits one
/// round's knapsack: within a round the §5.3 semantics are untouched, and
/// reallocations land exactly on round boundaries (DESIGN.md D13).
#[derive(Debug)]
pub struct ClusterControl {
    /// Current per-round budget, as f64 bits (coordinator-written).
    budget_bits: AtomicU64,
    /// Rounds the gate has completed.
    rounds_done: AtomicU64,
    /// Cumulative decode cost dispatched, as f64 bits (gate-written).
    spent_bits: AtomicU64,
    /// Cumulative offered cost (sum of candidate pending costs), as f64
    /// bits — the instance's demand signal.
    offered_bits: AtomicU64,
    /// Ring of the most recent rounds' gate latencies in µs.
    latency_us: [AtomicU64; CONTROL_LATENCY_RING],
}

impl ClusterControl {
    /// Control cell starting at `budget` cost units per round.
    pub fn new(budget: f64) -> Self {
        ClusterControl {
            budget_bits: AtomicU64::new(budget.to_bits()),
            rounds_done: AtomicU64::new(0),
            spent_bits: AtomicU64::new(0f64.to_bits()),
            offered_bits: AtomicU64::new(0f64.to_bits()),
            latency_us: [const { AtomicU64::new(0) }; CONTROL_LATENCY_RING],
        }
    }

    /// Reallocate: set the budget the instance's *next* round runs with.
    pub fn set_budget(&self, budget: f64) {
        self.budget_bits.store(budget.to_bits(), Ordering::Release);
    }

    /// The budget currently allocated to this instance.
    pub fn budget(&self) -> f64 {
        f64::from_bits(self.budget_bits.load(Ordering::Acquire))
    }

    /// Gate-side: publish one finished round's accounting. Single-writer
    /// (the gate thread), so the read-modify-write cells need no CAS.
    pub fn note_round(&self, offered_cost: f64, spent: f64, round_us: u64) {
        let add = |cell: &AtomicU64, x: f64| {
            let cur = f64::from_bits(cell.load(Ordering::Relaxed));
            cell.store((cur + x).to_bits(), Ordering::Relaxed);
        };
        add(&self.spent_bits, spent);
        add(&self.offered_bits, offered_cost);
        let done = self.rounds_done.load(Ordering::Relaxed);
        self.latency_us[(done as usize) % CONTROL_LATENCY_RING]
            .store(round_us.max(1), Ordering::Relaxed);
        // Release-publish the round count last so readers that observe it
        // also observe this round's gauges.
        self.rounds_done.store(done + 1, Ordering::Release);
    }

    /// Rounds the instance has completed.
    pub fn rounds_done(&self) -> u64 {
        self.rounds_done.load(Ordering::Acquire)
    }

    /// Cumulative decode cost dispatched.
    pub fn spent(&self) -> f64 {
        f64::from_bits(self.spent_bits.load(Ordering::Relaxed))
    }

    /// Cumulative offered cost (the demand feed).
    pub fn offered_cost(&self) -> f64 {
        f64::from_bits(self.offered_bits.load(Ordering::Relaxed))
    }

    /// Approximate p99 of the most recent rounds' gate latencies in µs
    /// (0 until a round completes) — the coordinator's PR-9 tail feed.
    pub fn recent_p99_us(&self) -> u64 {
        let mut seen: Vec<u64> = self
            .latency_us
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .filter(|&v| v > 0)
            .collect();
        if seen.is_empty() {
            return 0;
        }
        seen.sort_unstable();
        let rank = ((seen.len() as f64) * 0.99).ceil() as usize;
        seen[rank.clamp(1, seen.len()) - 1]
    }
}

/// Configuration for one concurrent run.
#[derive(Debug, Clone)]
pub struct ConcurrentConfig {
    /// Number of streams.
    pub streams: usize,
    /// Packets per stream.
    pub rounds: u64,
    /// Decode worker threads.
    pub decode_workers: usize,
    /// Parser shard threads. `0` = auto: half the available cores,
    /// clamped to [1, 4]. Always further clamped to the stream count.
    pub parser_shards: usize,
    /// Per-round decoding budget in cost units.
    pub budget_per_round: f64,
    /// Task generating the content.
    pub task: TaskKind,
    /// Encoder configuration shared by all streams.
    pub encoder: EncoderConfig,
    /// Synthetic decode work calibration.
    pub work: DecodeWorkModel,
    /// Cost model.
    pub costs: CostModel,
    /// Seed.
    pub seed: u64,
    /// Quarantine thresholds for failing streams.
    pub quarantine: QuarantineConfig,
    /// Deterministic fault injection (empty = clean run).
    pub faults: FaultPlan,
    /// How long the gate waits for parser output in one round before
    /// declaring the still-uncovered streams stalled. Raise this for very
    /// large stream counts on few cores, where an honest round of
    /// producing + parsing can outlast the default 500 ms.
    pub stall_timeout: Duration,
    /// Optional mid-run bitrate regime change applied at the producer
    /// (drift-injection experiments). `None` = stationary content.
    pub regime_shift: Option<RegimeShift>,
    /// Fleet-global index of this instance's first stream. Local stream
    /// `i` is seeded as fleet stream `stream_seed_offset + i`, so a
    /// cluster partition sees exactly the content the corresponding slice
    /// of a single giant gate would — the keep-rate comparison between the
    /// two is apples-to-apples. `0` (the default) reproduces the
    /// standalone behaviour bit for bit.
    pub stream_seed_offset: usize,
    /// Cluster coordinator hook: when set, the gate reads its per-round
    /// budget from this cell at each round start (overriding
    /// `budget_per_round` and any local autopilot retune) and publishes
    /// progress gauges at each round end. `None` = standalone instance.
    pub control: Option<Arc<ClusterControl>>,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        ConcurrentConfig {
            streams: 8,
            rounds: 100,
            decode_workers: 2,
            parser_shards: 0,
            budget_per_round: 8.0,
            task: TaskKind::PersonCounting,
            encoder: EncoderConfig::new(pg_codec::Codec::H264),
            work: DecodeWorkModel::default(),
            costs: CostModel::default(),
            seed: 1,
            quarantine: QuarantineConfig::default(),
            faults: FaultPlan::default(),
            stall_timeout: STALL_TIMEOUT,
            regime_shift: None,
            stream_seed_offset: 0,
            control: None,
        }
    }
}

impl ConcurrentConfig {
    /// The parser shard count this run will actually use.
    pub fn effective_shards(&self) -> usize {
        let n = if self.parser_shards == 0 {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            (cores / 2).clamp(1, 4)
        } else {
            self.parser_shards
        };
        n.clamp(1, self.streams.max(1))
    }
}

/// Stable stream → shard assignment (splitmix64 of the stream index).
/// Every packet of a stream parses on the same shard, so per-stream byte
/// order is preserved.
fn shard_of(stream_idx: usize, shards: usize) -> usize {
    let mut x = (stream_idx as u64) ^ 0x9E37_79B9_7F4A_7C15;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// Result of a concurrent run.
#[derive(Debug, Clone)]
pub struct ConcurrentReport {
    /// Streams processed.
    pub streams: usize,
    /// Rounds processed.
    pub rounds: u64,
    /// Parser shards used.
    pub parser_shards: usize,
    /// Total bytes pushed through the parser.
    pub bytes_parsed: u64,
    /// Packets parsed (= streams × rounds on a clean run).
    pub packets_parsed: u64,
    /// Packets decoded (targets; closures counted separately).
    pub packets_decoded: u64,
    /// Frames decoded including dependency closures.
    pub frames_decoded: u64,
    /// Frames decoded per stream (dependency closures included).
    pub frames_per_stream: Vec<u64>,
    /// Decode cost spent (units).
    pub cost_spent: f64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Cumulative time the gate spent inside `select`.
    pub gate_time: Duration,
    /// Wall latency of each gate round in microseconds (ingest + select +
    /// dispatch), in round order. Feed to
    /// [`ConcurrentReport::round_latency_percentile`].
    pub round_latency_us: Vec<u64>,
    /// Classified faults observed, in roughly chronological order
    /// (bounded; see [`crate::fault::MAX_FAULT_RECORDS`]).
    pub faults: Vec<FaultRecord>,
    /// Stream-health roll-up (degraded/recovered/dead counts).
    pub health: HealthSummary,
    /// Per-stage telemetry, when a handle was attached (`None` otherwise).
    pub telemetry: Option<TelemetrySnapshot>,
}

impl ConcurrentReport {
    /// End-to-end packet throughput (packets/s through the whole pipeline).
    pub fn pipeline_pps(&self) -> f64 {
        self.packets_parsed as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Decoded-frame throughput.
    pub fn decode_fps(&self) -> f64 {
        self.frames_decoded as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Streams fully processed per second of wall clock: how many
    /// concurrent streams this configuration sustains in real time.
    pub fn streams_decoded_per_sec(&self) -> f64 {
        self.streams as f64 * self.rounds as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Mean gate latency per round.
    pub fn gate_latency_per_round(&self) -> Duration {
        if self.rounds == 0 {
            Duration::ZERO
        } else {
            self.gate_time / self.rounds as u32
        }
    }

    /// Nearest-rank percentile (`pct` in [0, 100]) of the per-round wall
    /// latency. `Duration::ZERO` when no rounds ran.
    pub fn round_latency_percentile(&self, pct: f64) -> Duration {
        self.round_latency_percentile_after(0, pct)
    }

    /// Nearest-rank percentile over the rounds *after* a warmup prefix.
    /// The first rounds of a run pay one-off costs (thread spin-up, cold
    /// channels, store/tracker allocation) that can skew p99 by an order
    /// of magnitude; excluding them measures steady state. Falls back to
    /// the full distribution when fewer than `warmup + 1` rounds ran.
    pub fn round_latency_percentile_after(&self, warmup: usize, pct: f64) -> Duration {
        let lat = &self.round_latency_us;
        if lat.is_empty() {
            return Duration::ZERO;
        }
        let tail = if warmup < lat.len() {
            &lat[warmup..]
        } else {
            &lat[..]
        };
        let mut sorted = tail.to_vec();
        sorted.sort_unstable();
        let rank = (pct.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64).round() as usize;
        Duration::from_micros(sorted[rank.min(sorted.len() - 1)])
    }
}

/// A decode job: the packets of one dependency closure.
struct DecodeJob {
    stream_idx: usize,
    round: u64,
    closure: Vec<Packet>,
    cost: f64,
    /// Open queue-wait span, begun on the gate thread at dispatch and
    /// closed by the worker that pops the job — the time in between is
    /// pure pool-queue wait, the quantity §5.3's budget tuning needs to
    /// see separately from decode execution. `None` when tracing is off
    /// or the round is unsampled.
    queue_span: Option<SpanToken>,
}

/// A decoded target frame heading for inference.
struct InferItem {
    stream_idx: usize,
    round: u64,
    target: Packet,
    /// Decode span id, parenting the inference span across threads.
    trace_parent: Option<SpanId>,
}

/// A fault a parser shard reports in-band, riding in the round batch (so
/// the gate never stalls waiting for a destroyed record).
struct BatchFault {
    stream_idx: usize,
    error: PipelineError,
    /// `true` when the stream can never recover (destroyed header).
    fatal: bool,
}

/// One parser shard's output for one producer round: every packet and
/// fault its streams yielded, in struct-of-arrays layout. One channel
/// message per shard per round replaces one message per packet.
struct ShardBatch {
    /// Which shard produced this batch (indexes gate-side progress state).
    shard: usize,
    /// Producer round tag of the chunks this batch was parsed from.
    round: u64,
    /// Stream index of each packet in `packets` (parallel array).
    stream_idx: Vec<u32>,
    /// Packets parsed this round, in per-shard arrival order.
    packets: Vec<Packet>,
    /// Faults surfaced this round.
    faults: Vec<BatchFault>,
}

impl ShardBatch {
    fn new(shard: usize, round: u64) -> Self {
        ShardBatch {
            shard,
            round,
            stream_idx: Vec::new(),
            packets: Vec::new(),
            faults: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.packets.is_empty() && self.faults.is_empty()
    }
}

/// Where a [`ChunkSource`] delivers byte chunks into the runtime.
///
/// The sink owns the producer ends of the per-shard chunk channels plus a
/// clone of the fault channel, so a source is the *only* producer: when
/// its `run` returns and the sink drops, the parser shards see end of
/// input and the pipeline drains. `deliver` routes by the same stable
/// stream→shard hash the gate uses for coverage.
pub struct IngestSink {
    txs: Vec<Sender<(usize, u64, Bytes)>>,
    shard_map: Vec<usize>,
    fault_tx: Sender<PipelineError>,
    stop: Arc<AtomicBool>,
    streams: usize,
    rounds: u64,
}

impl IngestSink {
    /// Number of streams the pipeline expects.
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// Number of rounds the pipeline will run.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Deliver one chunk for `(stream, round)`. Blocks while the shard
    /// channel is full (natural backpressure). Returns `false` when the
    /// chunk cannot be delivered — out-of-range stream, or the pipeline
    /// already tore down — in which case the source should wind down.
    pub fn deliver(&self, stream: usize, round: u64, chunk: Bytes) -> bool {
        let Some(&shard) = self.shard_map.get(stream) else {
            return false;
        };
        self.txs[shard].send((stream, round, chunk)).is_ok()
    }

    /// Report a classified fault into the gate's fault channel.
    pub fn fault(&self, error: PipelineError) {
        let _ = self.fault_tx.send(error);
    }

    /// Whether the pipeline finished its rounds (the source should exit).
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// A pluggable chunk producer for [`ConcurrentPipeline::run_with_source`]:
/// the in-process seeded producer and the live TCP ingest bridge
/// ([`crate::ingest::NetIngestSource`]) both implement this, so the
/// parser→gate→decode core is identical no matter where bytes come from.
pub trait ChunkSource: Send {
    /// Produce chunks into `sink` until input is exhausted or
    /// [`IngestSink::stopped`] turns true. Runs on a dedicated thread.
    fn run(self: Box<Self>, sink: IngestSink);
}

/// The concurrent pipeline runner.
pub struct ConcurrentPipeline {
    config: ConcurrentConfig,
    telemetry: Telemetry,
}

impl ConcurrentPipeline {
    /// New pipeline with the given configuration.
    pub fn new(config: ConcurrentConfig) -> Self {
        assert!(config.streams > 0 && config.decode_workers > 0);
        ConcurrentPipeline {
            config,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle: each stage thread records its counters
    /// and latency histogram through a clone of the handle, and a snapshot
    /// rides along on the final report.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Like [`ConcurrentPipeline::run`], but converts a panic anywhere in
    /// the pipeline (a misbehaving gate policy, a poisoned stage) into an
    /// `Err` instead of unwinding through the caller. The channel topology
    /// guarantees shutdown: when any stage dies, its channel endpoints
    /// drop and every neighbour drains out, so the scope always joins.
    pub fn try_run(&self, gate: &mut dyn GatePolicy) -> Result<ConcurrentReport, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run(gate))).map_err(|e| {
            e.downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| e.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "pipeline panicked".to_string())
        })
    }

    /// Like [`ConcurrentPipeline::run_with_source`], with the same
    /// panic-to-`Err` conversion as [`ConcurrentPipeline::try_run`].
    pub fn try_run_with_source(
        &self,
        gate: &mut dyn GatePolicy,
        source: Box<dyn ChunkSource + '_>,
    ) -> Result<ConcurrentReport, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            self.run_with_source(gate, source)
        }))
        .map_err(|e| {
            e.downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| e.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "pipeline panicked".to_string())
        })
    }

    /// Run to completion under `gate`, fed by the in-process seeded
    /// producer.
    pub fn run(&self, gate: &mut dyn GatePolicy) -> ConcurrentReport {
        self.run_inner(gate, None)
    }

    /// Run to completion under `gate`, fed by an external [`ChunkSource`]
    /// (e.g. the live TCP ingest bridge). The source runs on the producer
    /// thread; when the gate finishes its rounds the sink's stop flag is
    /// raised so a long-lived source knows to wind down.
    pub fn run_with_source(
        &self,
        gate: &mut dyn GatePolicy,
        source: Box<dyn ChunkSource + '_>,
    ) -> ConcurrentReport {
        self.run_inner(gate, Some(source))
    }

    fn run_inner(
        &self,
        gate: &mut dyn GatePolicy,
        source: Option<Box<dyn ChunkSource + '_>>,
    ) -> ConcurrentReport {
        let cfg = &self.config;
        let m = cfg.streams;
        let shards = cfg.effective_shards();
        let start = Instant::now();

        // producer → parser shards: per-stream byte chunks tagged with
        // their producer round, one bounded channel per shard.
        let mut chunk_txs = Vec::with_capacity(shards);
        let mut chunk_rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = bounded::<(usize, u64, Bytes)>(m * 4);
            chunk_txs.push(tx);
            chunk_rxs.push(rx);
        }
        // parser shards → gate: one batch per shard per round.
        let (batch_tx, batch_rx) = bounded::<ShardBatch>(shards * 4);
        // gate → decoders: work-stealing pool (unbounded injector).
        let (pool, pool_workers) = steal_pool::<DecodeJob>(cfg.decode_workers);
        // decoders → inference.
        let (frame_tx, frame_rx) = bounded::<(InferItem, f64, usize)>(m * 4);
        // inference → gate (feedback).
        let (fb_tx, fb_rx) = bounded::<FeedbackEvent>(m * 16);
        // workers/inference → gate (classified faults). Unbounded so a
        // fault report can never block a stage against a finished gate.
        let (fault_tx, fault_rx) = unbounded::<PipelineError>();

        // Raised once the gate finishes its rounds, so a long-lived
        // external source (a session server) knows to wind down instead
        // of blocking on channels nobody drains.
        let stop = Arc::new(AtomicBool::new(false));
        let sink = IngestSink {
            txs: chunk_txs,
            shard_map: (0..m).map(|i| shard_of(i, shards)).collect(),
            fault_tx: fault_tx.clone(),
            stop: stop.clone(),
            streams: m,
            rounds: cfg.rounds,
        };

        std::thread::scope(|scope| {
            // ---------------- producer / chunk source ----------------
            let producer_handle = scope.spawn(move || match source {
                None => producer(cfg, sink),
                Some(src) => src.run(sink),
            });

            // ---------------- parser shards ----------------
            let mut parser_handles = Vec::with_capacity(shards);
            for (shard, rx) in chunk_rxs.into_iter().enumerate() {
                let tx = batch_tx.clone();
                let telemetry = self.telemetry.clone();
                parser_handles
                    .push(scope.spawn(move || shard_parser_stage(shard, m, rx, tx, telemetry)));
            }
            drop(batch_tx);

            // ---------------- decode pool ----------------
            let mut decode_handles = Vec::new();
            for worker in pool_workers {
                let tx = frame_tx.clone();
                let err_tx = fault_tx.clone();
                let work = cfg.work;
                let plan = &cfg.faults;
                let telemetry = self.telemetry.clone();
                decode_handles
                    .push(scope.spawn(move || {
                        decode_worker(m, work, plan, worker, tx, err_tx, telemetry)
                    }));
            }
            drop(frame_tx);

            // ---------------- inference ----------------
            let infer_plan = &cfg.faults;
            let infer_telemetry = self.telemetry.clone();
            let infer_err_tx = fault_tx.clone();
            let infer_handle = scope.spawn(move || {
                inference_stage(
                    m,
                    cfg.task,
                    infer_plan,
                    frame_rx,
                    fb_tx,
                    infer_err_tx,
                    infer_telemetry,
                )
            });
            drop(fault_tx);

            // ---------------- gate (this thread) ----------------
            gate.attach_telemetry(self.telemetry.clone());
            // The decode pool shuts down by explicit close, not by channel
            // drop — so the pool MUST close even if the gate policy
            // panics, or the workers would block forever and the scope
            // would never join. Catch, close, re-raise.
            let gate_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                gate_stage(
                    cfg,
                    shards,
                    gate,
                    batch_rx,
                    &pool,
                    fb_rx,
                    &fault_rx,
                    &self.telemetry,
                )
            }));
            // Tell a long-lived source the run is over before joining it.
            stop.store(true, Ordering::SeqCst);
            // End of input for the decode pool: workers drain every queued
            // job, then exit.
            pool.close();
            let mut gate_stats = match gate_result {
                Ok(stats) => stats,
                Err(payload) => std::panic::resume_unwind(payload),
            };

            // Collect, converting dead stage threads into StageDown reports
            // instead of propagating their panic.
            let ledger = &mut gate_stats.ledger;
            let mut join_fault = |stage: &'static str| {
                let error = PipelineError::StageDown {
                    stage,
                    detail: "thread panicked".to_string(),
                };
                ledger.note(&error, cfg.rounds, false);
            };
            if producer_handle.join().is_err() {
                join_fault("producer");
            }
            let mut packets_parsed = 0u64;
            let mut bytes_parsed = 0u64;
            for h in parser_handles {
                match h.join() {
                    Ok((packets, bytes)) => {
                        packets_parsed += packets;
                        bytes_parsed += bytes;
                    }
                    Err(_) => join_fault("parse"),
                }
            }
            let mut frames_decoded = 0u64;
            let mut frames_per_stream = vec![0u64; m];
            let mut cost_spent = 0.0;
            for h in decode_handles {
                match h.join() {
                    Ok((f, c, per_stream)) => {
                        frames_decoded += f;
                        cost_spent += c;
                        for (total, part) in frames_per_stream.iter_mut().zip(per_stream) {
                            *total += part;
                        }
                    }
                    Err(_) => join_fault("decode"),
                }
            }
            if infer_handle.join().is_err() {
                join_fault("infer");
            }
            // Faults reported after the gate finished its rounds.
            while let Ok(error) = fault_rx.try_recv() {
                gate_stats.ledger.note(&error, cfg.rounds, false);
            }

            ConcurrentReport {
                streams: m,
                rounds: cfg.rounds,
                parser_shards: shards,
                bytes_parsed,
                packets_parsed,
                packets_decoded: gate_stats.decoded,
                frames_decoded,
                frames_per_stream,
                cost_spent,
                wall: start.elapsed(),
                gate_time: gate_stats.gate_time,
                round_latency_us: gate_stats.round_latency_us,
                health: gate_stats.ledger.health.summary(),
                faults: gate_stats.ledger.records,
                telemetry: self.telemetry.snapshot(),
            }
        })
    }
}

fn producer(cfg: &ConcurrentConfig, sink: IngestSink) {
    use crate::ingest::StreamFeed;
    let mut feeds: Vec<StreamFeed> = (0..cfg.streams)
        .map(|i| StreamFeed::new(cfg.task, cfg.encoder, cfg.seed, cfg.stream_seed_offset + i))
        .collect();
    // First send each stream's header, tagged round 0 so it lands in the
    // same batch as the stream's first packet.
    for (i, feed) in feeds.iter().enumerate() {
        if !sink.deliver(i, 0, Bytes::from(feed.header_chunk(&cfg.faults))) {
            return;
        }
    }
    for round in 0..cfg.rounds {
        if let Some(shift) = cfg.regime_shift {
            if round == shift.at_round {
                for (i, feed) in feeds.iter_mut().enumerate() {
                    if shift.applies_to(i) {
                        feed.shift_bitrate(shift.bitrate_factor);
                    }
                }
            }
        }
        for (i, feed) in feeds.iter_mut().enumerate() {
            if !sink.deliver(i, round, Bytes::from(feed.next_chunk(round, &cfg.faults))) {
                return;
            }
        }
    }
}

/// How long a parser shard waits on an empty chunk channel before
/// flushing every open batch. Network-fed streams progress at different
/// rates, so a batch can't wait for a "next round" chunk that may be
/// minutes away; the in-process producer outruns this timeout and never
/// triggers it on the hot path.
const PARSER_IDLE_FLUSH: Duration = Duration::from_millis(2);

/// One parser shard: parses its streams' chunks into per-round
/// [`ShardBatch`]es. With the in-process producer, round tags on a shard
/// channel are non-decreasing and a round's batch is flushed when the
/// first higher-tagged chunk arrives — one batch per shard per round,
/// exactly as before. A network source interleaves streams at different
/// rounds (a reconnecting stream replays old rounds while its neighbours
/// are far ahead), so batches are kept per round in a map: any open batch
/// older than the newest tag seen is flushed immediately, and an idle
/// channel flushes everything. The gate parks and canonically re-sorts
/// batches per round, so splitting a round across several batches is
/// invisible in the results.
fn shard_parser_stage(
    shard: usize,
    m: usize,
    chunk_rx: Receiver<(usize, u64, Bytes)>,
    batch_tx: Sender<ShardBatch>,
    telemetry: Telemetry,
) -> (u64, u64) {
    let mut parsers: Vec<PacketParser> = (0..m).map(|_| PacketParser::new()).collect();
    let mut dead = vec![false; m];
    let trace = telemetry.trace().clone();
    let mut packets = 0u64;
    let mut bytes = 0u64;
    let mut open: BTreeMap<u64, ShardBatch> = BTreeMap::new();
    let mut max_round_seen = 0u64;
    // Flush every open batch with round < `below` (ascending). Returns
    // false when the gate hung up.
    let flush_below = |open: &mut BTreeMap<u64, ShardBatch>, below: u64| -> bool {
        while let Some(entry) = open.first_entry() {
            if *entry.key() >= below {
                break;
            }
            let batch = entry.remove();
            if !batch.is_empty() && batch_tx.send(batch).is_err() {
                return false;
            }
        }
        true
    };
    loop {
        let (i, round, chunk) = match chunk_rx.recv_timeout(PARSER_IDLE_FLUSH) {
            Ok(msg) => msg,
            Err(RecvTimeoutError::Timeout) => {
                if !flush_below(&mut open, u64::MAX) {
                    return (packets, bytes);
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        if round > max_round_seen {
            max_round_seen = round;
        }
        bytes += chunk.len() as u64;
        if !dead[i] {
            let parse_timer = telemetry.timer();
            let parse_span = trace.begin(TraceStage::Parse, Some(i), round, None);
            parsers[i].push_shared(chunk);
            let mut chunk_packets = 0u64;
            let batch = open
                .entry(round)
                .or_insert_with(|| ShardBatch::new(shard, round));
            loop {
                match parsers[i].next_packet() {
                    Ok(Some(p)) => {
                        chunk_packets += 1;
                        batch.stream_idx.push(i as u32);
                        batch.packets.push(p);
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // A destroyed header is fatal: the stream can
                        // never be identified. Record damage (the missing
                        // packets surface as sequence gaps at the gate)
                        // and resync.
                        let fatal = parsers[i].header().is_none();
                        let error = PipelineError::ParseCorrupt {
                            stream_idx: i,
                            offset: e.offset(),
                            reason: e.to_string(),
                        };
                        batch.faults.push(BatchFault {
                            stream_idx: i,
                            error,
                            fatal,
                        });
                        if fatal {
                            dead[i] = true;
                            break;
                        }
                        parsers[i].resync();
                    }
                }
            }
            if batch.is_empty() {
                // A header-only chunk opened no batch worth keeping.
                open.remove(&round);
            }
            trace.end(parse_span, Track::Parser(shard));
            telemetry.record(Stage::Parse, chunk_packets, parse_timer);
            packets += chunk_packets;
        }
        // Anything older than the newest tag is complete as far as this
        // shard can know — ship it so the gate never waits on a batch
        // that has no "next round" chunk coming to push it out.
        if !flush_below(&mut open, max_round_seen) {
            return (packets, bytes);
        }
    }
    flush_below(&mut open, u64::MAX);
    (packets, bytes)
}

type WorkerTotals = (u64, f64, Vec<u64>);

fn decode_worker(
    m: usize,
    work: DecodeWorkModel,
    plan: &FaultPlan,
    rx: PoolWorker<DecodeJob>,
    tx: Sender<(InferItem, f64, usize)>,
    err_tx: Sender<PipelineError>,
    telemetry: Telemetry,
) -> WorkerTotals {
    let mut frames = 0u64;
    let mut cost = 0.0f64;
    let mut per_stream = vec![0u64; m];
    let trace = telemetry.trace().clone();
    let track = Track::Decode(rx.id());
    while let Some(mut job) = rx.next() {
        // The job's queue-wait span ends the moment a worker takes it;
        // what follows on this track is pure decode execution.
        let queued = trace.end(job.queue_span.take(), track);
        if plan.stalls_decoder(job.stream_idx, job.round) {
            // Injected decoder stall: the closure is abandoned undecoded.
            let _ = err_tx.send(PipelineError::DecodeFail {
                stream_idx: job.stream_idx,
                round: job.round,
                detail: "decoder stalled (injected)".to_string(),
            });
            continue;
        }
        let closure_len = job.closure.len();
        let Some(target) = job.closure.pop() else {
            let _ = err_tx.send(PipelineError::DecodeFail {
                stream_idx: job.stream_idx,
                round: job.round,
                detail: "empty decode closure".to_string(),
            });
            continue;
        };
        let decode_timer = telemetry.timer();
        let decode_span = trace.begin(
            TraceStage::Decode,
            Some(job.stream_idx),
            job.round,
            queued.map(|q| q.id),
        );
        work.decode_work(job.cost);
        let decoded_span = trace.end(decode_span, track);
        telemetry.record(Stage::Decode, closure_len as u64, decode_timer);
        frames += closure_len as u64;
        cost += job.cost;
        if let Some(slot) = per_stream.get_mut(job.stream_idx) {
            *slot += closure_len as u64;
        }
        let item = InferItem {
            stream_idx: job.stream_idx,
            round: job.round,
            target,
            trace_parent: decoded_span.map(|d| d.id),
        };
        if tx.send((item, job.cost, closure_len)).is_err() {
            break;
        }
    }
    (frames, cost, per_stream)
}

struct GateStats {
    decoded: u64,
    gate_time: Duration,
    round_latency_us: Vec<u64>,
    ledger: FaultLedger,
}

/// Gate-side ingest state, updated *monotonically* at batch receipt so
/// round coverage depends only on the **set** of batches received, never
/// on their arrival interleaving — the invariant that makes reports
/// identical across shard counts.
struct GateIngest {
    /// Highest plausible sequence number seen per stream.
    max_seen: Vec<Option<u64>>,
    /// Highest batch round in which a fault (or implausible-sequence
    /// packet) for this stream arrived: the stream's records up to that
    /// round are accounted as lost, so those rounds count as covered.
    fault_cover: Vec<Option<u64>>,
    /// Highest batch round received per shard. Per-shard channels are
    /// FIFO, so `shard_progress[s] >= r` proves every non-empty batch of
    /// round ≤ r from shard `s` has been received.
    shard_progress: Vec<Option<u64>>,
    /// Stream → shard assignment.
    shard_map: Vec<usize>,
    /// Per-stream: the link feeding this stream is presumed stalled — a
    /// stall timeout fired while the stream was uncovered. A stalled
    /// stream counts as covered for every later round, so a network
    /// client that died costs the pipeline at most one stall timeout
    /// instead of one per round. Cleared the instant packets for the
    /// stream arrive again (e.g. a reconnect), restoring the normal
    /// coverage rules.
    link_stalled: Vec<bool>,
    /// All parser shards hung up (end of input or parser death).
    closed: bool,
}

fn raise(slot: &mut Option<u64>, value: u64) {
    *slot = Some(slot.map_or(value, |v| v.max(value)));
}

impl GateIngest {
    fn covered(&self, i: usize, round: u64, health: &StreamHealth) -> bool {
        self.closed
            || health.is_dead(i)
            || self.link_stalled[i]
            || self.fault_cover[i].is_some_and(|c| c >= round)
            || (self.max_seen[i].is_some_and(|s| s >= round)
                && self.shard_progress[self.shard_map[i]].is_some_and(|p| p >= round))
    }

    fn all_covered(&self, m: usize, round: u64, health: &StreamHealth) -> bool {
        (0..m).all(|i| self.covered(i, round, health))
    }

    /// Record a batch's coverage evidence and park it for canonical
    /// processing. Fatal faults kill the stream immediately (idempotent)
    /// so dead-stream coverage holds; their ledger entry is written when
    /// the batch is processed.
    fn receive(
        &mut self,
        batch: ShardBatch,
        rounds_limit: u64,
        health: &mut StreamHealth,
        pending: &mut BTreeMap<u64, Vec<ShardBatch>>,
    ) {
        raise(&mut self.shard_progress[batch.shard], batch.round);
        for (k, p) in batch.packets.iter().enumerate() {
            let i = batch.stream_idx[k] as usize;
            self.link_stalled[i] = false;
            if p.meta.seq < rounds_limit {
                raise(&mut self.max_seen[i], p.meta.seq);
            } else {
                // Implausible sequence: handled as damage when processed.
                raise(&mut self.fault_cover[i], batch.round);
            }
        }
        for f in &batch.faults {
            if f.fatal {
                health.kill(f.stream_idx);
            }
            raise(&mut self.fault_cover[f.stream_idx], batch.round);
        }
        pending.entry(batch.round).or_default().push(batch);
    }
}

/// Reusable per-round buffers for the gate stage. At m = 1024 the round
/// loop used to re-allocate seven Vecs per round and sort whole `Packet`
/// values; together with per-packet store pruning that produced a scaling
/// cliff where gate-side bookkeeping outweighed prediction itself. All of
/// these are grow-only: steady-state rounds never touch the allocator.
struct RoundScratch {
    /// Batch keys due for canonical processing this round.
    due: Vec<u64>,
    /// This round's packets; `Option` so the sorted pass can move each
    /// packet out without shuffling full `Packet` values during the sort.
    pkts: Vec<(u32, Option<Packet>)>,
    /// Sort permutation over `pkts` — 4-byte keys swap, packets don't.
    order: Vec<u32>,
    /// This round's in-band faults, sorted by stream.
    flts: Vec<BatchFault>,
    /// Gate candidates offered to `select`.
    contexts: Vec<PacketContext>,
    /// Per-stream: offered a candidate this round.
    has_candidate: Vec<bool>,
    /// Per-stream: decode job dispatched this round.
    sent: Vec<bool>,
    /// Feedback events drained from the inference stage.
    events: Vec<FeedbackEvent>,
    /// Sequence numbers of the dependency closure being dispatched.
    closure: Vec<u64>,
}

impl RoundScratch {
    fn new(m: usize) -> Self {
        RoundScratch {
            due: Vec::new(),
            pkts: Vec::new(),
            order: Vec::new(),
            flts: Vec::new(),
            contexts: Vec::with_capacity(m),
            has_candidate: vec![false; m],
            sent: vec![false; m],
            events: Vec::new(),
            closure: Vec::new(),
        }
    }
}

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn gate_stage(
    cfg: &ConcurrentConfig,
    shards: usize,
    gate: &mut dyn GatePolicy,
    batch_rx: Receiver<ShardBatch>,
    pool: &StealPool<DecodeJob>,
    fb_rx: Receiver<FeedbackEvent>,
    fault_rx: &Receiver<PipelineError>,
    telemetry: &Telemetry,
) -> GateStats {
    let m = cfg.streams;
    let mut trackers: Vec<DependencyTracker> = (0..m).map(|_| DependencyTracker::new()).collect();
    // Arrived packets, windowed like the trackers: both see every arrival,
    // so a closure the tracker reports is always present in the store.
    let mut stores: Vec<GopRing<Packet>> = (0..m).map(|_| GopRing::new()).collect();
    let mut ledger = FaultLedger::new(telemetry.clone(), m, cfg.quarantine);
    let mut ingest = GateIngest {
        max_seen: vec![None; m],
        fault_cover: vec![None; m],
        shard_progress: vec![None; shards],
        shard_map: (0..m).map(|i| shard_of(i, shards)).collect(),
        link_stalled: vec![false; m],
        closed: false,
    };
    // Batches received but not yet processed, keyed by producer round.
    let mut pending: BTreeMap<u64, Vec<ShardBatch>> = BTreeMap::new();
    let mut scratch = RoundScratch::new(m);
    let mut decoded = 0u64;
    let mut gate_time = Duration::ZERO;
    let mut round_latency_us = Vec::with_capacity(cfg.rounds as usize);
    let insight = telemetry.insight().clone();
    let trace = telemetry.trace().clone();
    // The SLO controller may retune this between rounds.
    let mut budget_per_round = cfg.budget_per_round;
    let control = cfg.control.as_deref();

    for round in 0..cfg.rounds {
        let round_start = Instant::now();
        // Cluster budget lands exactly on the round boundary: read once
        // here, never mid-round, so a coordinator reallocation can't split
        // one round's knapsack (§5.3 semantics hold within every round).
        if let Some(c) = control {
            budget_per_round = c.budget();
        }
        // The round span brackets the same interval `round_latency_us`
        // measures; the four sub-spans below tile its body (only
        // `health.tick` and the insight round close fall in the gaps), so
        // their durations attribute the round's wall time by stage.
        let round_span = trace.begin(TraceStage::Round, None, round, None);
        let round_id = round_span.as_ref().map(SpanToken::id);
        // Streams whose cooldown expired re-enter gating.
        for i in ledger.health.tick(round) {
            telemetry.stream_recovered(i);
        }

        // Ingest until every live stream covers this round. Fault markers
        // and dead/closed streams count as covered, so one damaged stream
        // never stalls the other m−1.
        let ingest_span = trace.begin(TraceStage::IngestWait, None, round, round_id);
        while !ingest.all_covered(m, round, &ledger.health) {
            match batch_rx.recv_timeout(cfg.stall_timeout) {
                Ok(batch) => {
                    ingest.receive(batch, cfg.rounds, &mut ledger.health, &mut pending);
                }
                Err(RecvTimeoutError::Timeout) => {
                    // No parser output for a long time: declare the
                    // uncovered streams stalled so the round can proceed.
                    for i in 0..m {
                        if !ingest.covered(i, round, &ledger.health) {
                            let error = PipelineError::ParseCorrupt {
                                stream_idx: i,
                                offset: None,
                                reason: "stream stalled (no parser output)".to_string(),
                            };
                            raise(&mut ingest.fault_cover[i], round);
                            ingest.link_stalled[i] = true;
                            ledger.note(&error, round, true);
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    ingest.closed = true;
                }
            }
        }
        let ingest_done = trace.end(ingest_span, Track::Gate);
        let assemble_span = trace.begin(TraceStage::Assemble, None, round, round_id);

        // Canonical processing: every parked batch of round ≤ this round,
        // rounds ascending, items within a round stably sorted by stream
        // index — an order independent of batch arrival interleaving. The
        // sort permutes 4-byte keys, not `Packet` values, and all buffers
        // are reused round to round.
        scratch.due.clear();
        scratch.due.extend(pending.range(..=round).map(|(r, _)| *r));
        for di in 0..scratch.due.len() {
            let key = scratch.due[di];
            let batches = pending.remove(&key).unwrap_or_default();
            let RoundScratch {
                pkts, order, flts, ..
            } = &mut scratch;
            pkts.clear();
            flts.clear();
            for b in batches {
                pkts.extend(
                    b.stream_idx
                        .into_iter()
                        .zip(b.packets.into_iter().map(Some)),
                );
                flts.extend(b.faults);
            }
            order.clear();
            order.extend(0..pkts.len() as u32);
            order.sort_by_key(|&k| pkts[k as usize].0);
            flts.sort_by_key(|f| f.stream_idx);
            for &k in order.iter() {
                let (iu, slot) = &mut pkts[k as usize];
                let i = *iu as usize;
                // `order` is a permutation, so each slot is taken exactly
                // once; a vacant slot would be a logic bug, not input
                // damage, and skipping it keeps this path panic-free.
                let Some(p) = slot.take() else { continue };
                insight.observe_packet(
                    i,
                    round,
                    p.meta.frame_type.is_independent(),
                    u64::from(p.meta.size),
                );
                if p.meta.seq >= cfg.rounds {
                    // An implausible sequence number is bit-flip damage
                    // that still framed as a record; taking it at face
                    // value would poison round coverage.
                    let error = PipelineError::ParseCorrupt {
                        stream_idx: i,
                        offset: None,
                        reason: format!("implausible sequence number {}", p.meta.seq),
                    };
                    ledger.note(&error, round, true);
                    continue;
                }
                trackers[i].note_arrival(&p);
                stores[i].insert(p);
            }
            for f in scratch.flts.drain(..) {
                if f.fatal {
                    // The stream was killed at receipt (killing again is a
                    // no-op); write the ledger entry at its canonical
                    // position.
                    ledger.kill(&f.error);
                } else {
                    ledger.note(&f.error, round, true);
                }
            }
        }

        // Faults reported by the decode pool / inference since last round.
        while let Ok(error) = fault_rx.try_recv() {
            // Decode failures count against the stream's health; feedback
            // loss is recorded but does not quarantine (the stream's data
            // path is fine).
            let strikes = matches!(error, PipelineError::DecodeFail { .. });
            ledger.note(&error, round, strikes);
        }

        // Drain async feedback.
        scratch.events.clear();
        while let Ok(e) = fb_rx.try_recv() {
            scratch.events.push(e);
        }
        if !scratch.events.is_empty() {
            gate.feedback(&scratch.events);
        }

        // Build contexts from the active streams that actually delivered
        // this round's record. Quarantined/dead streams contribute no
        // candidate, so their budget share is released to the rest.
        scratch.contexts.clear();
        for i in 0..m {
            if !ledger.health.is_active(i) {
                continue;
            }
            let Some(p) = stores[i].get(round) else {
                if ingest.fault_cover[i].is_some_and(|c| c >= round) || ingest.closed {
                    // Record already accounted as lost (fault marker or
                    // early end of input): skip quietly.
                    continue;
                }
                // Covered but absent: the record was displaced by damage
                // that still framed (e.g. a bit-flipped sequence field).
                let error = PipelineError::ParseCorrupt {
                    stream_idx: i,
                    offset: None,
                    reason: format!("record for round {round} lost"),
                };
                ledger.note(&error, round, true);
                continue;
            };
            let Some(pending_cost) = trackers[i].pending_cost(p.meta.seq, &cfg.costs) else {
                let error = PipelineError::DependencyViolation {
                    stream_idx: i,
                    seq: p.meta.seq,
                    detail: "pending cost unavailable (references lost)".to_string(),
                };
                ledger.note(&error, round, true);
                continue;
            };
            scratch.contexts.push(PacketContext {
                stream_idx: i,
                meta: p.meta,
                pending_cost,
                codec: cfg.encoder.codec,
                oracle_necessary: None,
            });
        }
        let contexts = &scratch.contexts;
        let assemble_done = trace.end(assemble_span, Track::Gate);

        let select_span = trace.begin(TraceStage::GateSelect, None, round, round_id);
        let t0 = Instant::now();
        let selection = gate.select(round, contexts, budget_per_round);
        let select_elapsed = t0.elapsed();
        let select_done = trace.end(select_span, Track::Gate);
        gate_time += select_elapsed;
        telemetry.record_duration(Stage::Gate, contexts.len() as u64, select_elapsed);

        // Dispatch decode jobs under the budget. Selection entries are
        // stream indices; entries without a candidate this round are
        // skipped. The pool's injector is unbounded, so dispatch never
        // blocks and never fails: if the pool died, the jobs sit queued
        // and the dead workers surface as StageDown records at join.
        let dispatch_span = trace.begin(TraceStage::Dispatch, None, round, round_id);
        let dispatch_id = dispatch_span.as_ref().map(SpanToken::id);
        scratch.has_candidate[..m].fill(false);
        for c in contexts {
            scratch.has_candidate[c.stream_idx] = true;
        }
        let mut spent = 0.0f64;
        let mut dispatched = 0usize;
        scratch.sent[..m].fill(false);
        let sent = &mut scratch.sent;
        for idx in selection {
            if idx >= m || sent[idx] || !scratch.has_candidate[idx] {
                continue;
            }
            if spent >= budget_per_round {
                break;
            }
            let Some(mut job) = build_job(
                &mut trackers[idx],
                &stores[idx],
                &mut scratch.closure,
                &cfg.costs,
                idx,
                round,
            ) else {
                // The closure references records lost to damage: drop the
                // in-flight closure and quarantine until the next clean
                // GOP can rebuild it.
                let error = PipelineError::DependencyViolation {
                    stream_idx: idx,
                    seq: round,
                    detail: "dependency closure unavailable".to_string(),
                };
                ledger.note(&error, round, true);
                continue;
            };
            spent += job.cost;
            sent[idx] = true;
            dispatched += 1;
            job.queue_span = trace.begin(TraceStage::QueueWait, Some(idx), round, dispatch_id);
            pool.push(job);
        }
        let dispatch_done = trace.end(dispatch_span, Track::Gate);

        decoded += dispatched as u64;

        let round_us = round_start.elapsed().as_micros() as u64;
        round_latency_us.push(round_us);
        if let Some(c) = control {
            let offered: f64 = contexts.iter().map(|ctx| ctx.pending_cost).sum();
            c.note_round(offered, spent, round_us);
        }
        // Close the round for the observers. The runtime has no scene
        // ground truth, so no hindsight-oracle outcomes are reported —
        // the regret tracker simply doesn't advance here; the ring, drift
        // and Lemma-1 channels stay live.
        let outcome = RoundOutcome {
            round,
            budget: budget_per_round,
            spent,
            offered: contexts.len(),
            decoded: dispatched,
            quarantined: ledger.health.sidelined_count(),
            outcomes: &[],
        };
        let part = |closed: Option<ClosedSpan>| closed.map_or(0, |c| c.dur_us);
        let parts = [
            (TraceStage::IngestWait, part(ingest_done)),
            (TraceStage::Assemble, part(assemble_done)),
            (TraceStage::GateSelect, part(select_done)),
            (TraceStage::Dispatch, part(dispatch_done)),
        ];
        budget_per_round = close_round(
            telemetry,
            telemetry.autopilot(),
            gate,
            round_span,
            &outcome,
            Some(round_us as f64),
            &parts,
        );
    }
    GateStats {
        decoded,
        gate_time,
        round_latency_us,
        ledger,
    }
}

/// Materialize the decode job for stream `idx`'s packet at `round`, or
/// `None` when the dependency closure cannot be produced (references lost).
/// `closure_seqs` is scratch, reused across calls.
fn build_job(
    tracker: &mut DependencyTracker,
    store: &GopRing<Packet>,
    closure_seqs: &mut Vec<u64>,
    costs: &CostModel,
    idx: usize,
    round: u64,
) -> Option<DecodeJob> {
    let seq = store.get(round)?.meta.seq;
    tracker.closure_into(seq, closure_seqs)?;
    let mut closure = Vec::with_capacity(closure_seqs.len());
    let mut cost = 0.0f64;
    for &s in closure_seqs.iter() {
        let p = store.get(s)?;
        cost += costs.cost(p.meta.frame_type);
        closure.push(p.clone());
    }
    for &s in closure_seqs.iter() {
        tracker.mark_decoded(s);
    }
    Some(DecodeJob {
        stream_idx: idx,
        round,
        closure,
        cost,
        queue_span: None,
    })
}

#[allow(clippy::too_many_arguments)]
fn inference_stage(
    m: usize,
    task: TaskKind,
    plan: &FaultPlan,
    frame_rx: Receiver<(InferItem, f64, usize)>,
    fb_tx: Sender<FeedbackEvent>,
    err_tx: Sender<PipelineError>,
    telemetry: Telemetry,
) -> u64 {
    use pg_inference::redundancy::RedundancyJudge;
    use pg_inference::tasks::model_for;
    let mut models: Vec<_> = (0..m).map(|_| model_for(task)).collect();
    let mut judges: Vec<RedundancyJudge> = (0..m).map(|_| RedundancyJudge::new()).collect();
    let trace = telemetry.trace().clone();
    let mut count = 0u64;
    while let Ok((item, _cost, _len)) = frame_rx.recv() {
        let infer_timer = telemetry.timer();
        let infer_span = trace.begin(
            TraceStage::Infer,
            Some(item.stream_idx),
            item.round,
            item.trace_parent,
        );
        let decoded = pg_codec::DecodedFrame {
            stream_id: item.target.meta.stream_id,
            seq: item.target.meta.seq,
            pts: item.target.meta.pts,
            frame_type: item.target.meta.frame_type,
            scene: item.target.scene,
        };
        let result = models[item.stream_idx].infer(&decoded);
        let necessary = judges[item.stream_idx].feedback(result);
        trace.end(infer_span, Track::Infer);
        telemetry.record(Stage::Infer, 1, infer_timer);
        count += 1;
        if plan.drops_feedback(item.stream_idx, item.round) {
            // Injected feedback loss: the optimizer never hears about this
            // decode. Reported, but not a health strike — the stream's
            // data path is intact.
            let _ = err_tx.send(PipelineError::FeedbackLost {
                stream_idx: item.stream_idx,
                round: item.round,
            });
            continue;
        }
        // A failed send means the gate has finished its rounds and dropped
        // the feedback receiver. Keep draining frames anyway: exiting here
        // would drop the decoders' send side mid-run and abandon queued
        // jobs at a thread-timing-dependent point, making frame/cost
        // totals nondeterministic.
        let _ = fb_tx.send(FeedbackEvent {
            stream_idx: item.stream_idx,
            round: item.round,
            necessary,
        });
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ChunkFaultMode;
    use crate::gate::DecodeAll;

    fn config(streams: usize, rounds: u64, budget: f64) -> ConcurrentConfig {
        ConcurrentConfig {
            streams,
            rounds,
            decode_workers: 2,
            budget_per_round: budget,
            work: DecodeWorkModel::spin(100),
            ..ConcurrentConfig::default()
        }
    }

    #[test]
    fn pipeline_moves_all_packets() {
        let report = ConcurrentPipeline::new(config(4, 50, 1e9)).run(&mut DecodeAll);
        assert_eq!(report.packets_parsed, 200);
        assert_eq!(report.packets_decoded, 200);
        assert_eq!(report.frames_decoded, 200);
        assert_eq!(report.frames_per_stream, vec![50; 4]);
        assert!(report.bytes_parsed > 200 * 64);
        assert!(report.pipeline_pps() > 0.0);
        assert!(report.faults.is_empty());
        assert_eq!(report.health.degraded_events, 0);
        assert_eq!(report.round_latency_us.len(), 50);
    }

    #[test]
    fn budget_limits_decoding() {
        let report = ConcurrentPipeline::new(config(8, 50, 2.0)).run(&mut DecodeAll);
        assert_eq!(report.packets_parsed, 400);
        assert!(
            report.packets_decoded < 400,
            "decoded {}",
            report.packets_decoded
        );
        // Dependency back-fill can exceed the target count.
        assert!(report.frames_decoded >= report.packets_decoded);
    }

    #[test]
    fn gate_time_is_measured() {
        let report = ConcurrentPipeline::new(config(4, 30, 1e9)).run(&mut DecodeAll);
        assert!(report.gate_time > Duration::ZERO);
        assert!(report.gate_latency_per_round() < Duration::from_millis(50));
        assert!(report.round_latency_percentile(99.0) >= report.round_latency_percentile(50.0));
    }

    #[test]
    fn heavier_decode_work_slows_the_pipeline() {
        let fast = ConcurrentPipeline::new(config(4, 60, 1e9)).run(&mut DecodeAll);
        let mut heavy_cfg = config(4, 60, 1e9);
        heavy_cfg.work = DecodeWorkModel::spin(300_000);
        let heavy = ConcurrentPipeline::new(heavy_cfg).run(&mut DecodeAll);
        assert!(
            heavy.wall > fast.wall,
            "heavy {:?} should exceed fast {:?}",
            heavy.wall,
            fast.wall
        );
    }

    #[test]
    fn offload_work_model_runs_the_pipeline() {
        let mut cfg = config(4, 20, 1e9);
        cfg.work = DecodeWorkModel::offload_ns(1_000);
        let report = ConcurrentPipeline::new(cfg).run(&mut DecodeAll);
        assert_eq!(report.packets_decoded, 80);
        assert!(report.faults.is_empty());
    }

    #[test]
    fn explicit_shard_counts_are_clamped() {
        let mut cfg = config(4, 10, 1e9);
        cfg.parser_shards = 3;
        assert_eq!(cfg.effective_shards(), 3);
        cfg.parser_shards = 9;
        assert_eq!(cfg.effective_shards(), 4, "clamped to stream count");
        cfg.parser_shards = 0;
        let auto = cfg.effective_shards();
        assert!((1..=4).contains(&auto), "auto shards {auto}");
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for shards in 1..=4 {
            for i in 0..64 {
                let s = shard_of(i, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(i, shards), "stable");
            }
        }
        // With a reasonable stream count every shard gets work.
        let hit: std::collections::HashSet<usize> = (0..64).map(|i| shard_of(i, 4)).collect();
        assert_eq!(hit.len(), 4);
    }

    #[test]
    fn multi_shard_run_matches_single_shard() {
        let mut one = config(8, 40, 6.0);
        one.parser_shards = 1;
        let mut four = config(8, 40, 6.0);
        four.parser_shards = 4;
        let a = ConcurrentPipeline::new(one).run(&mut DecodeAll);
        let b = ConcurrentPipeline::new(four).run(&mut DecodeAll);
        assert_eq!(a.packets_parsed, b.packets_parsed);
        assert_eq!(a.packets_decoded, b.packets_decoded);
        assert_eq!(a.frames_decoded, b.frames_decoded);
        assert_eq!(a.frames_per_stream, b.frames_per_stream);
    }

    #[test]
    fn corrupt_chunk_quarantines_only_that_stream() {
        let mut cfg = config(4, 60, 1e9);
        cfg.quarantine = QuarantineConfig::new(10, 1);
        cfg.faults = FaultPlan::new(11)
            .with_corrupt(2, 9, ChunkFaultMode::Truncate)
            .with_corrupt(2, 10, ChunkFaultMode::Truncate);
        let report = ConcurrentPipeline::new(cfg).run(&mut DecodeAll);
        assert!(!report.faults.is_empty(), "damage must be reported");
        assert!(report.health.degraded_events >= 1);
        assert_eq!(report.health.streams_ever_quarantined, 1);
        // Healthy streams unaffected.
        for i in [0usize, 1, 3] {
            assert_eq!(report.frames_per_stream[i], 60, "stream {i}");
        }
        assert!(report.frames_per_stream[2] < 60);
    }

    #[test]
    fn destroyed_header_kills_the_stream_but_not_the_run() {
        let mut cfg = config(4, 40, 1e9);
        cfg.faults = FaultPlan::new(5).with_corrupt_header(1);
        let report = ConcurrentPipeline::new(cfg).run(&mut DecodeAll);
        assert_eq!(report.health.dead_streams, 1);
        assert_eq!(report.frames_per_stream[1], 0);
        for i in [0usize, 2, 3] {
            assert_eq!(report.frames_per_stream[i], 40, "stream {i}");
        }
        assert!(report
            .faults
            .iter()
            .any(|f| f.kind == "parse_corrupt" && f.stream_idx == Some(1)));
    }

    #[test]
    fn decoder_stall_and_feedback_loss_are_reported() {
        let mut cfg = config(4, 40, 1e9);
        cfg.quarantine = QuarantineConfig::new(8, 1);
        cfg.faults = FaultPlan::new(3)
            .with_decoder_stall(0, 5)
            .with_dropped_feedback(3, 7);
        let report = ConcurrentPipeline::new(cfg).run(&mut DecodeAll);
        assert!(report
            .faults
            .iter()
            .any(|f| f.kind == "decode_fail" && f.stream_idx == Some(0)));
        assert!(report
            .faults
            .iter()
            .any(|f| f.kind == "feedback_lost" && f.stream_idx == Some(3)));
        // Feedback loss does not quarantine; the stalled stream does.
        assert!(report.frames_per_stream[3] == 40);
        assert!(report.frames_per_stream[0] < 40);
    }
}
