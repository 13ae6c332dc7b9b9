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
//!            └─parser shard S─┘  ◀─emptied─  ▲    injector   work-stealing;
//!                                            │               decode → infer)
//!                                            └─ verdicts + closure buffers ─┘
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
//! The gate box holds no gating rules of its own. Per round it runs the
//! crate's round engine (`engine.rs`, DESIGN.md D16) — the loop every
//! lockstep mode runs — over two things this module supplies: a packet
//! source (`BatchSource`: wait until the parsers cover the round, then
//! hand out the parked batches stream by stream) and a decode executor
//! (`Pooled`: a selected closure becomes a pool job; the worker that
//! decodes it runs the engine's per-stream `Viewer` on the target — the
//! same infer → judge → feedback tail the inline executor runs — and the
//! verdict comes back with the job's emptied closure buffer: a buffer that
//! crosses a thread goes back the way it came, DESIGN.md D19). A stream's
//! verdicts apply in the order its jobs complete.
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
//! * at **round r** it hands out every parked batch with round ≤ r in
//!   canonical order — streams ascending, and for each stream batch
//!   rounds ascending, then arrival order.
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
//! and feedback failures come back as the job's verdict; a stage
//! thread dying becomes a [`PipelineError::StageDown`] record in the
//! report instead of a join panic. Deterministic fault injection is
//! available via [`ConcurrentConfig::faults`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};

use pg_codec::{Codec, CostModel, DecodedFrame, Decoder, EncoderConfig, Packet, PacketParser};
use pg_scene::{SceneState, TaskKind};

use crate::budget::RoundBudget;
use crate::engine::{
    DecodeExecutor, EngineConfig, Inbox, PacketSource, RoundEngine, RoundLog, Viewer,
};
use crate::fault::{
    FaultLedger, FaultPlan, FaultRecord, HealthSummary, PipelineError, QuarantineConfig,
    StreamHealth,
};
use crate::gate::{FeedbackEvent, GatePolicy, PacketContext};
use crate::round::{RegimeShift, SimConfig};
use crate::steal::{lock, steal_pool, PoolWorker, StealPool};
use crate::telemetry::{Stage, Telemetry, TelemetrySnapshot};
use crate::trace::{SpanToken, Trace, TraceStage, Track};

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
        latency_percentile(std::slice::from_ref(self), warmup, pct)
    }
}

/// Nearest-rank percentile (`pct` in [0, 100]) over the reports' round
/// latencies, each past its own `warmup` prefix (kept when the report
/// has no rounds beyond it). `Duration::ZERO` when no rounds ran.
pub(crate) fn latency_percentile(
    reports: &[ConcurrentReport],
    warmup: usize,
    pct: f64,
) -> Duration {
    let mut sorted: Vec<u64> = Vec::new();
    for lat in reports.iter().map(|r| &r.round_latency_us) {
        let tail = lat.get(warmup..).filter(|tail| !tail.is_empty());
        sorted.extend_from_slice(tail.unwrap_or(lat));
    }
    sorted.sort_unstable();
    let Some(last) = sorted.len().checked_sub(1) else {
        return Duration::ZERO;
    };
    let rank = (pct.clamp(0.0, 100.0) / 100.0 * last as f64).round() as usize;
    Duration::from_micros(sorted[rank.min(last)])
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

/// A decode job's completion: its closure buffer, emptied, and its verdict.
type Done = (Vec<Packet>, Result<FeedbackEvent, PipelineError>);

/// One parser shard's output for one producer round: every packet and
/// fault its streams yielded, in struct-of-arrays layout. One channel
/// message per shard per round replaces one message per packet.
#[derive(Default)]
pub(crate) struct ShardBatch {
    /// Which shard produced this batch (indexes gate-side progress state).
    shard: usize,
    /// Producer round tag of the chunks this batch was parsed from.
    round: u64,
    /// Stream index of each packet in `packets` (parallel array).
    stream_idx: Vec<u32>,
    /// Packets parsed this round, in per-shard arrival order.
    packets: Vec<Packet>,
    /// Faults surfaced this round, riding in-band so the gate never stalls
    /// waiting for a destroyed record; `true` marks a stream that can
    /// never recover (destroyed header).
    faults: Vec<(PipelineError, bool)>,
}

impl ShardBatch {
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
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run(gate)))
            .map_err(panic_message)
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
        .map_err(panic_message)
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
        // parser shards ⇄ gate: one batch per shard per round, sent back emptied.
        let (batch_tx, batch_rx) = bounded::<ShardBatch>(shards * 4);
        let (returns, returned): (Vec<_>, Vec<_>) = (0..shards).map(|_| unbounded()).unzip();
        // gate → decoders: work-stealing pool (unbounded injector).
        let (pool, pool_workers) = steal_pool::<DecodeJob>(cfg.decode_workers);
        // decoders → gate: each job's verdict and emptied closure; ingest →
        // gate: faults. Unbounded, so no stage blocks on a finished gate.
        let (done_tx, done_rx) = unbounded::<Done>();
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

        let trace = self.telemetry.trace();
        let mut batches = BatchSource::new(cfg, batch_rx, returns, trace.clone());
        // Downstream of the decode pool: one viewer per stream, run by
        // whichever worker decodes for it.
        let viewers: Vec<_> = Viewer::per_lane(&batches).map(Mutex::new).collect();

        std::thread::scope(|scope| {
            // ---------------- producer / chunk source ----------------
            let producer_handle = scope.spawn(move || match source {
                None => producer(cfg, sink),
                Some(src) => src.run(sink),
            });

            // ---------------- parser shards ----------------
            let mut parser_handles = Vec::with_capacity(shards);
            for (shard, (rx, back)) in chunk_rxs.into_iter().zip(returned).enumerate() {
                let (tx, telemetry) = (batch_tx.clone(), self.telemetry.clone());
                parser_handles.push(
                    scope.spawn(move || shard_parser_stage(shard, m, rx, back, tx, telemetry)),
                );
            }
            drop(batch_tx);

            // ---------------- decode pool ----------------
            let viewers = &viewers;
            let mut decode_handles = Vec::new();
            for worker in pool_workers {
                let (work, plan, done) = (cfg.work, &cfg.faults, done_tx.clone());
                let telemetry = self.telemetry.clone();
                decode_handles
                    .push(scope.spawn(move || {
                        decode_worker(work, plan, worker, viewers, done, telemetry)
                    }));
            }
            drop((done_tx, fault_tx));

            // ---------------- gate (this thread) ----------------
            gate.attach_telemetry(self.telemetry.clone());
            let executor = Pooled {
                pool: &pool,
                done_rx: &done_rx,
                fault_rx: &fault_rx,
                trace: trace.clone(),
                dispatch: None,
                seqs: Vec::new(),
                free: Vec::new(),
            };
            let sim = SimConfig {
                cost_model: cfg.costs,
                ..SimConfig::default()
            };
            let engine_config = EngineConfig {
                quarantine: cfg.quarantine,
                telemetry: self.telemetry.clone(),
                autopilot: self.telemetry.autopilot().clone(),
                ..EngineConfig::new(sim)
            };
            let mut engine = RoundEngine::new(&batches, engine_config, executor);
            // The decode pool shuts down by explicit close, not by channel
            // drop — so the pool MUST close even if the gate policy
            // panics, or the workers would block forever and the scope
            // would never join. Catch, close, re-raise.
            let gate_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                gate_stage(cfg, gate, &mut batches, &mut engine)
            }));
            // Tell a long-lived source the run is over before joining it.
            stop.store(true, Ordering::SeqCst);
            // End of input for the decode pool: workers drain every queued
            // job, then exit.
            pool.close();
            let round_latency_us = match gate_result {
                Ok(latencies) => latencies,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            // Hang up the gate's batch channel, so a parser blocked sending
            // into it fails instead of waiting on a gate that has finished.
            drop(batches);
            let ledger = &mut engine.faults;

            // Collect, converting dead stage threads into StageDown reports
            // instead of propagating their panic.
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
            let (mut packets_parsed, mut bytes_parsed) = (0u64, 0u64);
            for h in parser_handles {
                match h.join() {
                    Ok((packets, bytes)) => {
                        packets_parsed += packets;
                        bytes_parsed += bytes;
                    }
                    Err(_) => join_fault("parse"),
                }
            }
            let mut frames_per_stream = vec![0u64; m];
            let mut cost_spent = 0.0;
            for h in decode_handles {
                match h.join() {
                    Ok((c, per_stream)) => {
                        cost_spent += c;
                        for (total, part) in frames_per_stream.iter_mut().zip(per_stream) {
                            *total += part;
                        }
                    }
                    Err(_) => join_fault("decode"),
                }
            }
            // Faults reported after the gate finished its rounds.
            let failed = std::iter::from_fn(|| done_rx.try_recv().ok()).filter_map(|d| d.1.err());
            for error in std::iter::from_fn(|| fault_rx.try_recv().ok()).chain(failed) {
                ledger.note(&error, cfg.rounds, false);
            }

            ConcurrentReport {
                streams: m,
                rounds: cfg.rounds,
                parser_shards: shards,
                bytes_parsed,
                packets_parsed,
                packets_decoded: engine.report.packets_decoded,
                frames_decoded: frames_per_stream.iter().sum(),
                frames_per_stream,
                cost_spent,
                wall: start.elapsed(),
                gate_time: engine.select_time,
                round_latency_us,
                health: engine.faults.health.summary(),
                faults: engine.faults.records,
                telemetry: self.telemetry.snapshot(),
            }
        })
    }
}

/// What a caught panic said.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "pipeline panicked".to_string())
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
    returned: Receiver<ShardBatch>,
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
            let batch = open.entry(round).or_insert_with(|| {
                let b = returned.try_recv().unwrap_or_default();
                ShardBatch { shard, round, ..b }
            });
            let before = batch.packets.len();
            dead[i] = parse_chunk(
                &mut parsers[i],
                i,
                chunk,
                &mut batch.packets,
                &mut batch.faults,
            );
            let chunk_packets = (batch.packets.len() - before) as u64;
            batch.stream_idx.resize(batch.packets.len(), i as u32);
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

/// Parse what `chunk` completes of stream `i`: packets, and damage as
/// faults flagged fatal when the stream is beyond recovery, which is also
/// what is returned.
pub(crate) fn parse_chunk(
    parser: &mut PacketParser,
    i: usize,
    chunk: Bytes,
    packets: &mut Vec<Packet>,
    faults: &mut Vec<(PipelineError, bool)>,
) -> bool {
    parser.push_shared(chunk);
    loop {
        match parser.next_packet() {
            Ok(Some(p)) => packets.push(p),
            Ok(None) => return false,
            Err(e) => {
                // A destroyed header is fatal: the stream can never be
                // identified. Record damage (the missing packets surface
                // as sequence gaps at the gate) and resync.
                let fatal = parser.header().is_none();
                let error = PipelineError::ParseCorrupt {
                    stream_idx: i,
                    offset: e.offset(),
                    reason: e.to_string(),
                };
                faults.push((error, fatal));
                if fatal {
                    return true;
                }
                parser.resync();
            }
        }
    }
}

/// One decode worker: run each job it takes to completion — decode work,
/// then the stream's viewer on the target — and report the verdict.
/// Returns the decode cost it spent and the frames it decoded per stream.
fn decode_worker(
    work: DecodeWorkModel,
    plan: &FaultPlan,
    rx: PoolWorker<DecodeJob>,
    viewers: &[Mutex<Viewer>],
    done_tx: Sender<Done>,
    telemetry: Telemetry,
) -> (f64, Vec<u64>) {
    let mut cost = 0.0f64;
    let mut per_stream = vec![0u64; viewers.len()];
    let trace = telemetry.trace().clone();
    let track = Track::Decode(rx.id());
    while let Some(mut job) = rx.next() {
        // The job's queue-wait span ends the moment a worker takes it;
        // what follows on this track is pure execution: decode, infer.
        let queued = trace.end(job.queue_span.take(), track);
        let fail = |detail: &str| PipelineError::DecodeFail {
            stream_idx: job.stream_idx,
            round: job.round,
            detail: detail.to_string(),
        };
        let stalled = plan.stalls_decoder(job.stream_idx, job.round);
        let closure_len = job.closure.len() as u64;
        let verdict = match job.closure.pop() {
            // Injected decoder stall: the closure is abandoned undecoded.
            _ if stalled => Err(fail("decoder stalled (injected)")),
            None => Err(fail("empty decode closure")),
            Some(target) => {
                let decode_timer = telemetry.timer();
                let parent = queued.map(|q| q.id);
                let decode_span =
                    trace.begin(TraceStage::Decode, Some(job.stream_idx), job.round, parent);
                work.decode_work(job.cost);
                let decoded = trace.end(decode_span, track).map(|d| d.id);
                telemetry.record(Stage::Decode, closure_len, decode_timer);
                cost += job.cost;
                per_stream[job.stream_idx] += closure_len;
                let frame = DecodedFrame::of(&target);
                // Two rounds of one stream can be in flight on two workers:
                // its verdicts apply in the order their decodes complete.
                let viewer = &viewers[job.stream_idx];
                let (verdict, _) =
                    lock(viewer).view(&frame, job.round, plan, &telemetry, track, decoded);
                verdict
            }
        };
        // Every job's buffer goes back, whatever became of the job.
        job.closure.clear();
        let _ = done_tx.send((job.closure, verdict));
    }
    (cost, per_stream)
}

fn raise(slot: &mut Option<u64>, value: u64) {
    *slot = Some(slot.map_or(value, |v| v.max(value)));
}

/// The threaded runtime's packet source: shard batches off the parser
/// channel, parked at receipt and handed out per stream in canonical
/// order — batch rounds ascending, arrival order within a stream — which
/// does not depend on how batches interleave (module docs).
///
/// Coverage state is updated *monotonically* at batch receipt, so whether
/// a round is covered depends only on the **set** of batches received,
/// never on their interleaving — the invariant that makes reports
/// identical across shard counts.
pub(crate) struct BatchSource<'a> {
    cfg: &'a ConcurrentConfig,
    batch_rx: Receiver<ShardBatch>,
    /// Per shard, where its batches go back once handed out.
    returns: Vec<Sender<ShardBatch>>,
    trace: Trace,
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
    /// `(stream, after, upto)`: the rounds in `(after, upto]` were first
    /// covered by a fault marker, so a record of theirs that never shows
    /// up is accounted as lost already. Kept apart from `fault_cover`,
    /// which also rises on batches received ahead of need: what covered a
    /// round *first* does not depend on how far ahead the gate has read.
    excused: Vec<(usize, Option<u64>, u64)>,
    /// Batches received but not yet handed out, keyed by producer round.
    pending: BTreeMap<u64, Vec<ShardBatch>>,
    /// The round laid out in `due` and `flts`.
    assembled: Option<u64>,
    /// Per stream, the packets due this round, oldest first. One is the
    /// steady state and needs no allocation; the `Vec` takes the rest
    /// after a stall or a reconnect.
    due: Vec<(Option<Packet>, Vec<Packet>)>,
    /// The in-band faults due this round, in arrival order.
    flts: Vec<(PipelineError, bool)>,
}

impl<'a> BatchSource<'a> {
    pub(crate) fn new(
        cfg: &'a ConcurrentConfig,
        batch_rx: Receiver<ShardBatch>,
        returns: Vec<Sender<ShardBatch>>,
        trace: Trace,
    ) -> Self {
        let (m, shards) = (cfg.streams, returns.len());
        BatchSource {
            cfg,
            batch_rx,
            returns,
            trace,
            max_seen: vec![None; m],
            fault_cover: vec![None; m],
            shard_progress: vec![None; shards],
            shard_map: (0..m).map(|i| shard_of(i, shards)).collect(),
            link_stalled: vec![false; m],
            closed: false,
            excused: Vec::new(),
            pending: BTreeMap::new(),
            assembled: None,
            due: (0..m).map(|_| (None, Vec::new())).collect(),
            flts: Vec::new(),
        }
    }

    fn covered(&self, i: usize, round: u64, health: &StreamHealth) -> bool {
        self.closed
            || health.is_dead(i)
            || self.link_stalled[i]
            || self.fault_cover[i].is_some_and(|c| c >= round)
            || (self.max_seen[i].is_some_and(|s| s >= round)
                && self.shard_progress[self.shard_map[i]].is_some_and(|p| p >= round))
    }

    /// Record a batch's coverage evidence and park it for canonical
    /// hand-out. Fatal faults kill the stream immediately (idempotent)
    /// so dead-stream coverage holds; their ledger entry is written when
    /// the batch is handed out.
    fn receive(&mut self, batch: ShardBatch, health: &mut StreamHealth) {
        let progress = self.shard_progress[batch.shard];
        raise(&mut self.shard_progress[batch.shard], batch.round);
        for (error, fatal) in &batch.faults {
            let Some(i) = error.stream_idx() else {
                continue;
            };
            if *fatal {
                health.kill(i);
            }
            self.mark_lost(i, batch.round, progress);
        }
        for (k, p) in batch.packets.iter().enumerate() {
            let i = batch.stream_idx[k] as usize;
            self.link_stalled[i] = false;
            if p.meta.seq < self.cfg.rounds {
                raise(&mut self.max_seen[i], p.meta.seq);
            } else {
                // Implausible sequence: handled as damage when handed out.
                self.mark_lost(i, batch.round, progress);
            }
        }
        self.pending.entry(batch.round).or_default().push(batch);
    }

    /// A marker for stream `i` at `round` — a fault in a batch of that
    /// round, or a stall declared in it: what no record had covered when
    /// the marker's shard stood at `progress` is accounted as lost.
    fn mark_lost(&mut self, i: usize, round: u64, progress: Option<u64>) {
        let covered = self.fault_cover[i].max(self.max_seen[i].min(progress));
        if covered < Some(round) {
            self.excused.push((i, covered, round));
        }
        raise(&mut self.fault_cover[i], round);
    }

    /// Lay out every parked batch of round ≤ `round` by stream, and send
    /// each, emptied, back to its shard (dropped if the shard has exited).
    fn assemble(&mut self, round: u64) {
        self.assembled = Some(round);
        self.excused.retain(|&(_, _, upto)| upto >= round);
        while let Some(batches) = self.pending.first_entry().filter(|e| *e.key() <= round) {
            for mut b in batches.remove() {
                for (i, p) in b.stream_idx.drain(..).zip(b.packets.drain(..)) {
                    let (first, rest) = &mut self.due[i as usize];
                    if p.meta.seq >= self.cfg.rounds {
                        // An implausible sequence number is bit-flip damage
                        // that still framed as a record; taking it at face
                        // value would poison round coverage.
                        let error = PipelineError::ParseCorrupt {
                            stream_idx: i as usize,
                            offset: None,
                            reason: format!("implausible sequence number {}", p.meta.seq),
                        };
                        self.flts.push((error, false));
                    } else if first.is_none() {
                        *first = Some(p);
                    } else {
                        rest.push(p);
                    }
                }
                self.flts.append(&mut b.faults);
                let _ = self.returns[b.shard].send(b);
            }
        }
    }
}

impl PacketSource for BatchSource<'_> {
    fn lanes(&self) -> Vec<(TaskKind, Codec)> {
        vec![(self.cfg.task, self.cfg.encoder.codec); self.cfg.streams]
    }

    /// The parser shards have parsed and counted the packets already.
    fn stages(&self) -> (TraceStage, Option<Stage>) {
        (TraceStage::Assemble, None)
    }

    /// Receive until every live stream covers `round`. Fault markers and
    /// dead/closed streams count as covered, so one damaged stream never
    /// stalls the other m−1.
    fn await_round(&mut self, round: u64, faults: &mut FaultLedger, log: &mut RoundLog) {
        let wait = TraceStage::IngestWait;
        let span = self.trace.begin(wait, None, round, log.round_id);
        let m = self.cfg.streams;
        while !(0..m).all(|i| self.covered(i, round, &faults.health)) {
            match self.batch_rx.recv_timeout(self.cfg.stall_timeout) {
                Ok(batch) => self.receive(batch, &mut faults.health),
                Err(RecvTimeoutError::Timeout) => {
                    // No parser output for a long time: declare the
                    // uncovered streams stalled so the round can proceed.
                    for i in 0..m {
                        if !self.covered(i, round, &faults.health) {
                            let error = PipelineError::ParseCorrupt {
                                stream_idx: i,
                                offset: None,
                                reason: "stream stalled (no parser output)".to_string(),
                            };
                            self.mark_lost(i, round, self.shard_progress[self.shard_map[i]]);
                            self.link_stalled[i] = true;
                            faults.note(&error, round, true);
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => self.closed = true,
            }
        }
        log.add(wait, self.trace.end(span, Track::Gate));
    }

    fn advance(&mut self, stream: usize, round: u64, inbox: &mut Inbox) -> Option<SceneState> {
        if self.assembled != Some(round) {
            self.assemble(round);
        }
        let (first, rest) = &mut self.due[stream];
        inbox.packets.extend(first.take());
        inbox.packets.append(rest);
        // Faults are rare, so a scan per stream beats keeping them sorted.
        // A fatal one killed the stream at receipt (killing again is a
        // no-op); its ledger entry is written at this canonical position.
        self.flts.retain(|f| {
            let other = f.0.stream_idx() != Some(stream);
            if !other {
                inbox.faults.push(f.clone());
            }
            other
        });
        // This round's record carries this round's sequence number. If it
        // never arrived, the fault marker that covered this round, or the
        // end of input, has accounted for it.
        inbox.candidate = Some(round);
        let excuses = |&(i, after, upto): &(usize, Option<u64>, u64)| {
            i == stream && after < Some(round) && round <= upto
        };
        inbox.loss_reported = self.closed || self.excused.iter().any(excuses);
        None
    }
}

/// The threaded runtime's executor: a closure becomes a job for the
/// decode pool; each job's verdict comes back, rounds later, with its
/// closure buffer, and ingest faults on a channel of their own.
struct Pooled<'a> {
    pool: &'a StealPool<DecodeJob>,
    done_rx: &'a Receiver<Done>,
    fault_rx: &'a Receiver<PipelineError>,
    trace: Trace,
    /// This round's dispatch span: opened by its first job, closed by the
    /// `collect` after its last.
    dispatch: Option<SpanToken>,
    /// Closure sequence numbers; scratch shared by all streams.
    seqs: Vec<u64>,
    /// Closure buffers back from finished jobs, for the next jobs.
    free: Vec<Vec<Packet>>,
}

impl DecodeExecutor for Pooled<'_> {
    /// The pool's injector is unbounded, so a hand-off never blocks and
    /// never fails: if the pool died, jobs sit queued and the dead workers
    /// surface as `StageDown` records at join. `collect` wakes idle workers.
    fn submit(
        &mut self,
        decoder: &mut Decoder,
        candidate: &PacketContext,
        round: u64,
        log: &mut RoundLog,
    ) -> Result<f64, String> {
        let mut closure = self.free.pop().unwrap_or_default();
        let cost = decoder
            .hand_off_closure(candidate.meta.seq, &mut self.seqs, &mut closure)
            .ok_or("dependency closure unavailable")?;
        let (trace, idx) = (&self.trace, candidate.stream_idx);
        if self.dispatch.is_none() {
            self.dispatch = trace.begin(TraceStage::Dispatch, None, round, log.round_id);
        }
        let dispatch_id = self.dispatch.as_ref().map(SpanToken::id);
        self.pool.enqueue(DecodeJob {
            stream_idx: idx,
            round,
            closure,
            cost,
            queue_span: trace.begin(TraceStage::QueueWait, Some(idx), round, dispatch_id),
        });
        Ok(cost)
    }

    fn collect(&mut self, log: &mut RoundLog) {
        self.pool.wake();
        let dispatched = self.trace.end(self.dispatch.take(), Track::Gate);
        log.add(TraceStage::Dispatch, dispatched);
        while let Ok(error) = self.fault_rx.try_recv() {
            log.late.push(error);
        }
        while let Ok((closure, verdict)) = self.done_rx.try_recv() {
            self.free.push(closure);
            match verdict {
                Ok(event) => log.events.push(event),
                Err(lost) => log.late.push(lost),
            }
        }
    }
}

/// The gate thread: per round, wait until the parsers cover it, then run
/// the engine's round. Returns each round's wall latency in µs.
fn gate_stage(
    cfg: &ConcurrentConfig,
    gate: &mut dyn GatePolicy,
    source: &mut BatchSource<'_>,
    engine: &mut RoundEngine<Pooled<'_>>,
) -> Vec<u64> {
    // The SLO controller may retune this between rounds.
    let mut budget = RoundBudget::new(cfg.budget_per_round);
    let mut round_latency_us = Vec::with_capacity(cfg.rounds as usize);
    for round in 0..cfg.rounds {
        let round_start = Instant::now();
        // Cluster budget lands exactly on the round boundary: read once
        // here, never mid-round, so a coordinator reallocation can't split
        // one round's knapsack (§5.3 semantics hold within every round).
        if let Some(control) = &cfg.control {
            budget.per_round = control.budget();
        }
        // The round span brackets the same interval `round_latency_us`
        // measures; the ingest-wait, assemble, select and dispatch spans
        // tile its body, so their durations attribute the round's wall
        // time by stage.
        let round_span = engine.open(round);
        budget.begin_round();
        engine.ingest(round, source);
        let candidates = std::mem::take(&mut engine.candidates);
        engine.decide(round, gate, &candidates, &mut budget);

        let round_us = round_start.elapsed().as_micros() as u64;
        round_latency_us.push(round_us);
        if let Some(control) = &cfg.control {
            let offered: f64 = candidates.iter().map(|c| c.pending_cost).sum();
            control.note_round(offered, budget.spent_this_round(), round_us);
        }
        engine.candidates = candidates;
        budget.per_round = engine.close(round, gate, round_span, &budget, Some(round_us as f64));
    }
    round_latency_us
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fault::ChunkFaultMode;
    use crate::gate::DecodeAll;
    use crate::ingest::StreamFeed;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// `cfg`'s seeded trace, damaged by `cfg.faults`, parsed the way the
    /// shard parsers parse it: `out[s]` is what shard `s` sends, in order,
    /// one batch per round.
    pub(crate) fn shard_batches(cfg: &ConcurrentConfig, shards: usize) -> Vec<Vec<ShardBatch>> {
        let m = cfg.streams;
        let feed = |i| StreamFeed::new(cfg.task, cfg.encoder, cfg.seed, i);
        let mut feeds: Vec<StreamFeed> = (0..m).map(feed).collect();
        let mut parsers: Vec<PacketParser> = (0..m).map(|_| PacketParser::new()).collect();
        let mut dead = vec![false; m];
        let mut out: Vec<Vec<ShardBatch>> = (0..shards).map(|_| Vec::new()).collect();
        for round in 0..cfg.rounds {
            let batch = |shard| ShardBatch {
                shard,
                round,
                ..ShardBatch::default()
            };
            let mut open: Vec<_> = (0..shards).map(batch).collect();
            for i in 0..m {
                let batch = &mut open[shard_of(i, shards)];
                let header = (round == 0).then(|| feeds[i].header_chunk(&cfg.faults));
                let record = feeds[i].next_chunk(round, &cfg.faults);
                for chunk in header.into_iter().chain([record]) {
                    if !dead[i] {
                        let (packets, faults) = (&mut batch.packets, &mut batch.faults);
                        dead[i] =
                            parse_chunk(&mut parsers[i], i, Bytes::from(chunk), packets, faults);
                        batch.stream_idx.resize(batch.packets.len(), i as u32);
                    }
                }
            }
            for batch in open.into_iter().filter(|b| !b.is_empty()) {
                out[batch.shard].push(batch);
            }
        }
        out
    }

    /// A source whose parsers have sent everything and hung up. Each pick
    /// sends the next batch of shard `pick % shards`, so every shard's
    /// batches stay in order; what the picks leave follows shard by shard.
    pub(crate) fn preloaded<'a>(
        cfg: &'a ConcurrentConfig,
        batches: Vec<Vec<ShardBatch>>,
        picks: &[usize],
    ) -> BatchSource<'a> {
        let shards = batches.len();
        let (tx, rx) = unbounded();
        let mut queues: Vec<VecDeque<ShardBatch>> = batches.into_iter().map(Into::into).collect();
        let picked: Vec<_> = picks
            .iter()
            .filter_map(|pick| queues[pick % shards].pop_front())
            .collect();
        for batch in picked.into_iter().chain(queues.into_iter().flatten()) {
            assert!(tx.send(batch).is_ok(), "receiver is held");
        }
        let returns = (0..shards).map(|_| unbounded().0).collect();
        BatchSource::new(cfg, rx, returns, Trace::disabled())
    }

    /// Replays a fixed priority order, right or wrong.
    struct Fixed(Vec<usize>);

    impl GatePolicy for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn select(&mut self, _round: u64, _c: &[PacketContext], _budget: f64) -> Vec<usize> {
            self.0.clone()
        }
        fn feedback(&mut self, _events: &[FeedbackEvent]) {}
    }

    /// Every round's candidates and the faults it put on the ledger, for
    /// one arrival interleaving of `cfg`'s trace over `shards` shards.
    fn rounds_seen(
        cfg: &ConcurrentConfig,
        shards: usize,
        picks: &[usize],
        priority: &[usize],
    ) -> Vec<(Vec<PacketContext>, Vec<FaultRecord>)> {
        let mut source = preloaded(cfg, shard_batches(cfg, shards), picks);
        let engine_config = EngineConfig {
            quarantine: cfg.quarantine,
            ..EngineConfig::new(SimConfig::default())
        };
        let mut engine = RoundEngine::inline(&source, engine_config);
        let mut gate = Fixed(priority.to_vec());
        let mut budget = RoundBudget::new(cfg.budget_per_round);
        let mut seen = Vec::new();
        for round in 0..cfg.rounds {
            let noted = engine.faults.records.len();
            budget.begin_round();
            engine.ingest(round, &mut source);
            let candidates = engine.candidates.clone();
            engine.decide(round, &mut gate, &candidates, &mut budget);
            let mut faults = engine.faults.records[noted..].to_vec();
            faults.sort_by_key(|f| (f.stream_idx, f.kind.clone(), f.detail.clone()));
            seen.push((candidates, faults));
        }
        seen
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Shard-count and interleaving invariance over generated
        /// schedules: whichever order the shards' batches reach the gate
        /// in — any order that keeps each shard's own batches in sequence —
        /// and however many shards there are, every round offers the same
        /// candidates and records the same faults.
        #[test]
        fn rounds_do_not_depend_on_batch_interleaving(
            seed in any::<u64>(),
            shards in 2usize..5,
            budget in 1.0f64..9.0,
            decode in any::<bool>(),
            damage in proptest::collection::vec(2u64..60, 0..15),
            picks in proptest::collection::vec(0usize..12, 0..140),
        ) {
            const STREAMS: usize = 7;
            // A bit flip can leave a record that frames but carries another
            // task's scene, which the inference models refuse with a panic
            // (ROADMAP item 5). Bit-flipped traces therefore run under a
            // gate that decodes nothing; the re-assembly is exercised all
            // the same.
            let modes = [ChunkFaultMode::Truncate, ChunkFaultMode::BitFlip];
            let mut plan = FaultPlan::new(seed);
            for (k, code) in damage.into_iter().enumerate() {
                let mode = modes[if decode { 0 } else { code as usize % 2 }];
                plan = plan.with_corrupt(k % STREAMS, code / 2, mode);
            }
            let cfg = ConcurrentConfig {
                streams: STREAMS,
                rounds: 32,
                budget_per_round: budget,
                seed,
                faults: plan,
                quarantine: QuarantineConfig::new(5, 2),
                ..ConcurrentConfig::default()
            };
            let priority: Vec<usize> = (0..STREAMS).rev().filter(|_| decode).collect();
            let reference = rounds_seen(&cfg, 1, &[], &priority);
            let sharded = rounds_seen(&cfg, shards, &picks, &priority);
            for (round, (want, got)) in reference.iter().zip(&sharded).enumerate() {
                prop_assert_eq!(want, got, "round {}", round);
            }
        }
    }

    /// Stream `i`'s bytes, but every header claims to be stream `i + 1000`.
    struct ForeignIds(ConcurrentConfig);

    impl ChunkSource for ForeignIds {
        fn run(self: Box<Self>, sink: IngestSink) {
            let cfg = &self.0;
            let feed = |i| StreamFeed::new(cfg.task, cfg.encoder, cfg.seed, i + 1000);
            let mut feeds: Vec<StreamFeed> = (0..cfg.streams).map(feed).collect();
            for (i, feed) in feeds.iter().enumerate() {
                sink.deliver(i, 0, Bytes::from(feed.header_chunk(&cfg.faults)));
            }
            for round in 0..cfg.rounds {
                for (i, feed) in feeds.iter_mut().enumerate() {
                    sink.deliver(i, round, Bytes::from(feed.next_chunk(round, &cfg.faults)));
                }
            }
        }
    }

    #[test]
    fn a_stream_is_the_channel_it_arrived_on_not_the_id_it_claims() {
        let cfg = config(3, 30, 1e9);
        let source = Box::new(ForeignIds(cfg.clone()));
        let report = ConcurrentPipeline::new(cfg).run_with_source(&mut DecodeAll, source);
        assert!(report.faults.is_empty(), "{:?}", report.faults);
        assert_eq!(report.frames_per_stream, vec![30; 3]);
    }

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
