//! Live ingest: bridging the TCP session server into the sharded runtime.
//!
//! Three pieces live here, all built on [`pg_net`]'s session plane:
//!
//! * [`StreamFeed`] — the seeded per-stream bitstream generator factored
//!   out of the in-process producer, so a network client can emit
//!   byte-identical chunks to what the pipeline would have produced
//!   itself. This is what makes ingest-equivalence testable: same seed,
//!   same bytes, whether they travel through a channel or a socket.
//! * [`NetIngestSource`] — a [`ChunkSource`] that owns a
//!   [`SessionServer`], answers reconnect claims through a
//!   [`ResumeOracle`] over its per-stream delivery cursors, and forwards
//!   framed chunks into the [`IngestSink`] without copying: each chunk is
//!   a refcounted [`Bytes`] slice of the slab the server read the socket
//!   into.
//! * [`LoopbackFleet`] — a client-side load fleet for tests and
//!   benchmarks: N sessions over loopback, optionally churned by a
//!   seeded [`ChurnPlan`] of kill/reconnect events, resuming from the
//!   server's cursor answer after every reconnect.
//!
//! ## Ordering and loss
//!
//! The session server publishes all connections' events into one FIFO
//! channel, so for any single stream the events of a dead connection are
//! observed before the events of its replacement. The bridge keeps a
//! per-stream cursor (`next_round`) and drops any round below it, which
//! makes replays after a resume harmless; rounds at or above the cursor
//! advance it. A connection that drops *without* a clean BYE before its
//! stream completed is reported as [`PipelineError::ConnectionLost`] —
//! a non-striking fault record — and the stream's recovery rides the
//! existing stall/quarantine machinery in the gate.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError};

use pg_codec::{serialize_stream_chunks, Encoder, EncoderConfig};
use pg_net::{
    ResumeOracle, ResumePoint, ServerEvent, SessionClient, SessionCounters, SessionServer,
    SessionServerConfig,
};
use pg_scene::{generator_for, SceneGenerator, TaskKind};

use crate::concurrent::{ChunkSource, ConcurrentConfig, IngestSink};
use crate::fault::{FaultPlan, PipelineError};

// ---------------------------------------------------------------------------
// StreamFeed: the seeded bitstream generator, shared by producer and fleet
// ---------------------------------------------------------------------------

/// Deterministic bitstream feed for one stream: scene generator, encoder,
/// chunk serialization, and fault-plan corruption, exactly as the
/// in-process producer runs them. Chunks must be drawn in round order
/// (the encoder is stateful); [`LoopbackFleet`] caches them so a
/// reconnect can resend any suffix without rewinding the encoder.
pub struct StreamFeed {
    index: usize,
    encoder_cfg: EncoderConfig,
    encoder: Encoder,
    generator: Box<dyn SceneGenerator + Send>,
}

impl StreamFeed {
    /// Feed for stream `index` under the given task/encoder/seed — the
    /// same derivation the in-process producer uses.
    pub fn new(task: TaskKind, encoder: EncoderConfig, seed: u64, index: usize) -> Self {
        StreamFeed {
            index,
            encoder_cfg: encoder,
            encoder: Encoder::for_stream(encoder, seed, index as u32),
            generator: generator_for(task, pg_scene::rng::mix(seed, index as u64), encoder.fps),
        }
    }

    /// The stream's header chunk, with `faults` applied.
    pub fn header_chunk(&self, faults: &FaultPlan) -> Vec<u8> {
        let mut chunk = serialize_stream_chunks::header_bytes(self.index as u32, &self.encoder_cfg);
        faults.corrupt_header(self.index, &mut chunk);
        chunk
    }

    /// Rescale the encoder's target bitrate by `factor` mid-stream
    /// (regime-change injection). Takes effect from the next chunk; the
    /// already-sent header keeps advertising the original configuration,
    /// exactly like a camera whose scene got busier.
    pub fn shift_bitrate(&mut self, factor: f64) {
        let next = (f64::from(self.encoder.config().bitrate) * factor) as u32;
        self.encoder.set_bitrate(next);
    }

    /// The next round's chunk (must be called with consecutive rounds),
    /// with `faults` applied.
    pub fn next_chunk(&mut self, round: u64, faults: &FaultPlan) -> Vec<u8> {
        let frame = self.generator.next_frame();
        let packet = self.encoder.encode(&frame);
        let mut chunk = serialize_stream_chunks::packet_bytes(&packet);
        faults.corrupt_chunk(self.index, round, &mut chunk);
        chunk
    }
}

// ---------------------------------------------------------------------------
// NetIngestSource: session server → IngestSink bridge
// ---------------------------------------------------------------------------

/// Per-stream delivery cursors, shared between the bridge loop (which
/// advances them) and the resume oracle (which answers reconnect claims
/// from them on the server's ingest threads).
struct IngestProgress {
    header_done: Vec<AtomicBool>,
    next_round: Vec<AtomicU64>,
}

impl IngestProgress {
    fn new(streams: usize) -> Arc<Self> {
        Arc::new(IngestProgress {
            header_done: (0..streams).map(|_| AtomicBool::new(false)).collect(),
            next_round: (0..streams).map(|_| AtomicU64::new(0)).collect(),
        })
    }
}

struct ProgressOracle {
    progress: Arc<IngestProgress>,
}

impl ResumeOracle for ProgressOracle {
    fn resume_point(&self, stream_id: u32) -> ResumePoint {
        let i = stream_id as usize;
        if i >= self.progress.next_round.len() {
            // Unknown stream: let the handshake complete; the bridge
            // drops its data. (Capacity policy lives in the server.)
            return ResumePoint::fresh();
        }
        ResumePoint {
            header_needed: !self.progress.header_done[i].load(Ordering::Acquire),
            next_round: self.progress.next_round[i].load(Ordering::Acquire),
        }
    }
}

/// How long the bridge waits on an empty event channel before re-checking
/// for shutdown.
const BRIDGE_POLL: Duration = Duration::from_millis(50);

/// A [`ChunkSource`] fed by live TCP sessions: owns the
/// [`SessionServer`], bridges its events into the pipeline's
/// [`IngestSink`], answers reconnect claims, and reports abrupt
/// disconnects as [`PipelineError::ConnectionLost`].
pub struct NetIngestSource {
    server: Arc<Mutex<SessionServer>>,
    events: Receiver<ServerEvent>,
    counters: Arc<SessionCounters>,
    progress: Arc<IngestProgress>,
    local_addr: SocketAddr,
    streams: usize,
    rounds: u64,
    trace: crate::trace::Trace,
}

impl NetIngestSource {
    /// Bind the session server and prepare a bridge for `streams`
    /// streams of `rounds` rounds each.
    pub fn bind(
        streams: usize,
        rounds: u64,
        cfg: SessionServerConfig,
    ) -> Result<NetIngestSource, String> {
        let progress = IngestProgress::new(streams);
        let oracle: Arc<dyn ResumeOracle> = Arc::new(ProgressOracle {
            progress: progress.clone(),
        });
        let server = SessionServer::bind(cfg, Some(oracle))
            .map_err(|e| format!("session server bind: {e}"))?;
        let events = server.events();
        let counters = server.counters();
        let local_addr = server.local_addr();
        Ok(NetIngestSource {
            server: Arc::new(Mutex::new(server)),
            events,
            counters,
            progress,
            local_addr,
            streams,
            rounds,
            trace: crate::trace::Trace::disabled(),
        })
    }

    /// Attach a trace handle: each chunk bridged from a session into the
    /// pipeline records a `bridge` span on the ingest track, making
    /// socket→parser handoff (including backpressure blocking in
    /// [`IngestSink::deliver`]) visible in the exported trace.
    pub fn with_trace(mut self, trace: crate::trace::Trace) -> Self {
        self.trace = trace;
        self
    }

    /// The bound address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's session counters (share these with
    /// [`crate::Telemetry::with_ingest`] to join the Prometheus export).
    pub fn counters(&self) -> Arc<SessionCounters> {
        self.counters.clone()
    }

    /// A cloneable handle for the session control endpoint, usable while
    /// the source itself has been consumed by the running pipeline.
    pub fn control(&self) -> IngestControl {
        IngestControl {
            server: self.server.clone(),
        }
    }
}

/// Cloneable handle to the running session server for control-plane
/// queries (`pgv serve`'s `/sessions` endpoint).
#[derive(Clone)]
pub struct IngestControl {
    server: Arc<Mutex<SessionServer>>,
}

impl IngestControl {
    /// JSON snapshot of server counters and per-connection stats.
    pub fn control_json(&self) -> String {
        self.server.lock().expect("server lock").control_json()
    }
}

impl ChunkSource for NetIngestSource {
    fn run(self: Box<Self>, sink: IngestSink) {
        let streams = self.streams.min(sink.streams());
        let rounds = self.rounds.min(sink.rounds());
        let mut complete = vec![rounds == 0; streams];
        let mut n_complete = complete.iter().filter(|&&c| c).count();
        while n_complete < streams && !sink.stopped() {
            let event = match self.events.recv_timeout(BRIDGE_POLL) {
                Ok(ev) => ev,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            // The server counts every published event into the queue
            // gauge; consuming one here is what relieves backpressure.
            self.counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
            match event {
                ServerEvent::SessionUp { .. } => {}
                ServerEvent::Header { stream_id, chunk } => {
                    let i = stream_id as usize;
                    if i < streams && !self.progress.header_done[i].swap(true, Ordering::AcqRel) {
                        // Headers ride round 0, like the in-process
                        // producer, so they join the first data batch.
                        let span =
                            self.trace
                                .begin(crate::trace::TraceStage::Bridge, Some(i), 0, None);
                        let ok = sink.deliver(i, 0, chunk);
                        self.trace.end(span, crate::trace::Track::Ingest);
                        if !ok {
                            break;
                        }
                    }
                }
                ServerEvent::Data {
                    stream_id,
                    round,
                    chunk,
                } => {
                    let i = stream_id as usize;
                    if i >= streams || round >= rounds {
                        continue;
                    }
                    let cursor = self.progress.next_round[i].load(Ordering::Acquire);
                    if round < cursor {
                        // Replay of an already-ingested round after a
                        // resume: the cursor makes it harmless.
                        continue;
                    }
                    let span =
                        self.trace
                            .begin(crate::trace::TraceStage::Bridge, Some(i), round, None);
                    let ok = sink.deliver(i, round, chunk);
                    self.trace.end(span, crate::trace::Track::Ingest);
                    if !ok {
                        break;
                    }
                    self.progress.next_round[i].store(round + 1, Ordering::Release);
                    if round + 1 >= rounds && !complete[i] {
                        complete[i] = true;
                        n_complete += 1;
                    }
                }
                ServerEvent::SessionDown {
                    stream_id,
                    graceful,
                    reason,
                    ..
                } => {
                    let Some(id) = stream_id else { continue };
                    let i = id as usize;
                    if i >= streams || graceful || complete[i] {
                        continue;
                    }
                    // Abrupt drop mid-stream: record it (non-striking).
                    // If no replacement connection shows up, the gate's
                    // stall timeout degrades the stream; if one does,
                    // this is just a blip in the fault ledger.
                    sink.fault(PipelineError::ConnectionLost {
                        stream_idx: i,
                        round: self.progress.next_round[i].load(Ordering::Acquire),
                        detail: reason,
                    });
                }
            }
        }
        self.server.lock().expect("server lock").shutdown();
    }
}

// ---------------------------------------------------------------------------
// LoopbackFleet: client-side load generation with seeded churn
// ---------------------------------------------------------------------------

/// One planned connection kill: when stream `stream`'s send cursor
/// reaches `at_round`, its connection is torn down without a BYE and
/// re-established after `down_for`.
#[derive(Debug, Clone)]
pub struct ChurnEvent {
    /// Stream to churn.
    pub stream: usize,
    /// Send-cursor round at which to kill the connection.
    pub at_round: u64,
    /// How long the stream stays dark before reconnecting.
    /// [`Duration::MAX`] means the client is gone for good: the feeder
    /// marks the stream finished instead of scheduling a resume, leaving
    /// the server to degrade it via the gate's stall/quarantine path.
    pub down_for: Duration,
}

/// A deterministic schedule of connection kills for [`LoopbackFleet`].
#[derive(Debug, Clone, Default)]
pub struct ChurnPlan {
    /// Kill events, any order; the fleet indexes them per stream.
    pub events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// No churn: every connection lives for the whole run.
    pub fn none() -> Self {
        ChurnPlan::default()
    }

    /// Seeded storm: roughly `kills` kill events spread over streams and
    /// rounds, each down for `down_for`. Deterministic in `seed`.
    pub fn storm(seed: u64, streams: usize, rounds: u64, kills: usize, down_for: Duration) -> Self {
        let mut events = Vec::with_capacity(kills);
        if streams == 0 || rounds < 2 {
            return ChurnPlan { events };
        }
        for k in 0..kills {
            let r = pg_scene::rng::mix(seed, 0x5354_4f52_4d00 + k as u64);
            let stream = (r % streams as u64) as usize;
            // Kill somewhere in (0, rounds): round 0 kills would race the
            // handshake itself, which is a different test.
            let at_round = 1 + (r >> 32) % (rounds - 1).max(1);
            events.push(ChurnEvent {
                stream,
                at_round,
                down_for,
            });
        }
        ChurnPlan { events }
    }
}

/// Fleet configuration. Build with [`FleetConfig::for_pipeline`] to feed
/// the exact bytes a [`ConcurrentConfig`]'s in-process producer would.
#[derive(Clone)]
pub struct FleetConfig {
    /// Server address to connect to.
    pub addr: SocketAddr,
    /// Number of streams (one session each).
    pub streams: usize,
    /// Rounds per stream.
    pub rounds: u64,
    /// Scene task driving the generators.
    pub task: TaskKind,
    /// Encoder settings (shared; per-stream state derives from seed).
    pub encoder: EncoderConfig,
    /// Seed for generators, encoders, and fault corruption.
    pub seed: u64,
    /// Byte-corruption plan applied to chunks before sending, so a
    /// network run reproduces an in-process faulted run bit-for-bit.
    pub faults: FaultPlan,
    /// Feeder threads; streams are partitioned round-robin across them.
    pub feeders: usize,
    /// Connection churn schedule.
    pub churn: ChurnPlan,
    /// Handshake / blocking-flush timeout.
    pub timeout: Duration,
    /// A stream that cannot (re)connect for this long gives up and is
    /// marked finished — keeps the fleet from spinning forever against a
    /// server that has shut down for good.
    pub give_up: Duration,
    /// Keep each session open at least this long after its first
    /// connect, even once every round is sent (a real capture session
    /// does not hang up the moment a measurement window ends). Lets
    /// churn benchmarks measure peak concurrency without racing stream
    /// completion against the connect storm. Zero (the default) says
    /// goodbye as soon as the last round is flushed.
    pub linger: Duration,
}

impl FleetConfig {
    /// A fleet that feeds `addr` the same bytes `cfg`'s in-process
    /// producer would generate.
    pub fn for_pipeline(cfg: &ConcurrentConfig, addr: SocketAddr) -> Self {
        FleetConfig {
            addr,
            streams: cfg.streams,
            rounds: cfg.rounds,
            task: cfg.task,
            encoder: cfg.encoder,
            seed: cfg.seed,
            faults: cfg.faults.clone(),
            feeders: 2,
            churn: ChurnPlan::none(),
            timeout: Duration::from_secs(5),
            give_up: Duration::from_secs(10),
            linger: Duration::ZERO,
        }
    }
}

/// Aggregate statistics from a fleet run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetReport {
    /// Successful handshakes (initial connects + reconnects).
    pub handshakes: u64,
    /// Reconnects after a planned kill or a broken socket.
    pub reconnects: u64,
    /// Planned kills executed.
    pub kills: u64,
    /// Payload bytes queued onto sockets (headers + data chunks).
    pub bytes_sent: u64,
}

/// Per-stream feeder state inside one feeder thread.
struct FeederStream {
    idx: usize,
    feed: StreamFeed,
    header: Vec<u8>,
    /// Chunk cache by round, generated lazily in order; lets a resumed
    /// connection resend any suffix without rewinding the encoder.
    cache: Vec<Vec<u8>>,
    client: Option<SessionClient>,
    /// Next round to send, per the server's latest resume answer.
    next_send: u64,
    /// Pending kill events, ascending by `at_round`.
    kills: VecDeque<ChurnEvent>,
    /// Do not attempt IO before this instant (down time / backoff).
    wait_until: Option<Instant>,
    /// First failed connect attempt of the current outage, for give-up.
    down_since: Option<Instant>,
    /// First successful connect, for the linger window.
    started_at: Option<Instant>,
    /// Whether the stream disconnected abruptly and must resume.
    need_reconnect: bool,
    done: bool,
}

/// A fleet of loopback sessions feeding a [`NetIngestSource`]. Spawn it,
/// run the pipeline, then [`join`](LoopbackFleet::join) it.
pub struct LoopbackFleet {
    handles: Vec<std::thread::JoinHandle<FleetReport>>,
}

impl LoopbackFleet {
    /// Start feeder threads for every stream in `cfg`. Returns
    /// immediately; the threads run until their streams complete or the
    /// server goes away for good.
    pub fn spawn(cfg: FleetConfig) -> LoopbackFleet {
        let feeders = cfg.feeders.clamp(1, cfg.streams.max(1));
        let mut handles = Vec::with_capacity(feeders);
        for f in 0..feeders {
            let cfg = cfg.clone();
            let handle = std::thread::Builder::new()
                .name(format!("pg-feeder-{f}"))
                .spawn(move || feeder_thread(f, feeders, &cfg))
                .expect("spawn feeder");
            handles.push(handle);
        }
        LoopbackFleet { handles }
    }

    /// Wait for all feeders and aggregate their statistics.
    pub fn join(self) -> FleetReport {
        let mut total = FleetReport::default();
        for h in self.handles {
            let r = h.join().expect("feeder thread panicked");
            total.handshakes += r.handshakes;
            total.reconnects += r.reconnects;
            total.kills += r.kills;
            total.bytes_sent += r.bytes_sent;
        }
        total
    }
}

/// Outbox high-water mark: stop generating new rounds for a stream while
/// this many bytes are still unflushed (the server is pushing back).
const FEEDER_OUTBOX_HI: usize = 256 * 1024;

/// Backoff before retrying a failed connect or broken socket.
const FEEDER_RETRY: Duration = Duration::from_millis(20);

fn feeder_thread(feeder: usize, feeders: usize, cfg: &FleetConfig) -> FleetReport {
    let mut report = FleetReport::default();
    let mut streams: Vec<FeederStream> = (feeder..cfg.streams)
        .step_by(feeders.max(1))
        .map(|i| {
            let feed = StreamFeed::new(cfg.task, cfg.encoder, cfg.seed, i);
            let header = feed.header_chunk(&cfg.faults);
            let mut kills: Vec<ChurnEvent> = cfg
                .churn
                .events
                .iter()
                .filter(|e| e.stream == i)
                .cloned()
                .collect();
            kills.sort_by_key(|e| e.at_round);
            FeederStream {
                idx: i,
                feed,
                header,
                cache: Vec::new(),
                client: None,
                next_send: 0,
                kills: kills.into(),
                wait_until: None,
                down_since: None,
                started_at: None,
                need_reconnect: false,
                done: cfg.rounds == 0,
            }
        })
        .collect();

    loop {
        let mut live = 0usize;
        let mut progressed = false;
        for s in streams.iter_mut() {
            if s.done {
                continue;
            }
            live += 1;
            if let Some(t) = s.wait_until {
                if Instant::now() < t {
                    continue;
                }
                s.wait_until = None;
            }
            if step_stream(s, cfg, &mut report) {
                progressed = true;
            }
        }
        if live == 0 {
            break;
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    report
}

/// Advance one stream's feeder state machine by one small step. Returns
/// whether any useful work happened (for the idle backoff).
fn step_stream(s: &mut FeederStream, cfg: &FleetConfig, report: &mut FleetReport) -> bool {
    // (Re)connect if needed.
    if s.client.is_none() {
        match SessionClient::connect(cfg.addr, s.idx as u32, s.next_send, cfg.timeout) {
            Ok(client) => {
                let resume = client.resume();
                report.handshakes += 1;
                s.down_since = None;
                s.started_at.get_or_insert_with(Instant::now);
                if s.need_reconnect {
                    report.reconnects += 1;
                    s.need_reconnect = false;
                }
                s.next_send = resume.next_round;
                let mut client = client;
                if resume.header_needed {
                    client.queue_header(&s.header);
                    report.bytes_sent += s.header.len() as u64;
                }
                s.client = Some(client);
            }
            Err(_) => {
                // Server busy or briefly gone: retry shortly, but give
                // up once the outage outlasts the configured window (the
                // server is gone for good).
                let now = Instant::now();
                let since = *s.down_since.get_or_insert(now);
                if now.duration_since(since) > cfg.give_up || s.next_send >= cfg.rounds {
                    s.done = true;
                } else {
                    s.wait_until = Some(now + FEEDER_RETRY);
                }
                return false;
            }
        }
    }

    let client = s.client.as_mut().expect("client just ensured");

    // Flush whatever is queued; a broken socket means reconnect.
    match client.try_flush() {
        Ok(_) => {}
        Err(_) => {
            s.client = None;
            s.need_reconnect = true;
            s.wait_until = Some(Instant::now() + FEEDER_RETRY);
            return true;
        }
    }

    // Planned kill at this cursor?
    if let Some(kill) = s.kills.front() {
        if s.next_send >= kill.at_round {
            let kill = s.kills.pop_front().expect("front just observed");
            if let Some(client) = s.client.take() {
                client.abort();
            }
            report.kills += 1;
            if kill.down_for == Duration::MAX {
                // Permanent loss: the client never returns. The stream's
                // fate is now the server's quarantine policy's problem.
                s.done = true;
            } else {
                s.need_reconnect = true;
                s.wait_until = Some(Instant::now() + kill.down_for);
            }
            return true;
        }
    }

    // Generate + queue the next round, respecting backpressure.
    if s.next_send < cfg.rounds {
        if client.pending() > FEEDER_OUTBOX_HI {
            return false;
        }
        while s.cache.len() <= s.next_send as usize {
            let r = s.cache.len() as u64;
            let chunk = s.feed.next_chunk(r, &cfg.faults);
            s.cache.push(chunk);
        }
        let chunk = &s.cache[s.next_send as usize];
        client.queue_chunk(s.next_send, chunk);
        report.bytes_sent += chunk.len() as u64;
        s.next_send += 1;
        let _ = client.try_flush();
        return true;
    }

    // All rounds queued: drain, linger if asked to, say goodbye, finish.
    if client.pending() == 0 {
        if let Some(t0) = s.started_at {
            if t0.elapsed() < cfg.linger {
                s.wait_until = Some(Instant::now() + FEEDER_RETRY);
                return false;
            }
        }
        client.queue_bye();
        let _ = client.flush_blocking(cfg.timeout);
        s.client = None;
        s.done = true;
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::ConcurrentPipeline;
    use crate::gate::DecodeAll;

    fn small_cfg(streams: usize, rounds: u64) -> ConcurrentConfig {
        ConcurrentConfig {
            streams,
            rounds,
            decode_workers: 2,
            seed: 77,
            ..ConcurrentConfig::default()
        }
    }

    #[test]
    fn stream_feed_matches_producer_bytes() {
        // Two feeds with the same seed emit identical chunk sequences.
        let cfg = small_cfg(3, 4);
        let plan = FaultPlan::default();
        let mut a = StreamFeed::new(cfg.task, cfg.encoder, cfg.seed, 1);
        let mut b = StreamFeed::new(cfg.task, cfg.encoder, cfg.seed, 1);
        assert_eq!(a.header_chunk(&plan), b.header_chunk(&plan));
        for round in 0..cfg.rounds {
            assert_eq!(a.next_chunk(round, &plan), b.next_chunk(round, &plan));
        }
    }

    #[test]
    fn churn_storm_is_deterministic_and_bounded() {
        let a = ChurnPlan::storm(9, 16, 10, 5, Duration::from_millis(50));
        let b = ChurnPlan::storm(9, 16, 10, 5, Duration::from_millis(50));
        assert_eq!(a.events.len(), 5);
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.stream, y.stream);
            assert_eq!(x.at_round, y.at_round);
            assert!(x.stream < 16);
            assert!(x.at_round >= 1 && x.at_round < 10);
        }
    }

    #[test]
    fn net_fed_pipeline_completes_over_loopback() {
        let cfg = small_cfg(4, 6);
        let source = NetIngestSource::bind(
            cfg.streams,
            cfg.rounds,
            SessionServerConfig::default(),
        )
        .expect("bind");
        let fleet_cfg = FleetConfig::for_pipeline(&cfg, source.local_addr());
        let fleet = LoopbackFleet::spawn(fleet_cfg);
        let pipeline = ConcurrentPipeline::new(cfg.clone());
        let mut gate = DecodeAll;
        let report = pipeline.run_with_source(&mut gate, Box::new(source));
        let fleet_report = fleet.join();
        assert_eq!(report.streams, 4);
        assert_eq!(fleet_report.handshakes, 4);
        assert_eq!(fleet_report.kills, 0);
        // Every stream's every round was parsed and decoded.
        assert!(
            report.frames_per_stream.iter().all(|&f| f == 6),
            "frames_per_stream = {:?}, faults = {:?}, packets_parsed = {}",
            report.frames_per_stream,
            report.faults,
            report.packets_parsed
        );
    }
}
