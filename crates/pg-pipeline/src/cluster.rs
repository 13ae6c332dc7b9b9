//! Fleet-scale horizontal sharding: N gate instances under one coordinator.
//!
//! One [`crate::concurrent::ConcurrentPipeline`] scales a single gate to
//! the streams one box can hold; this module scales the *fleet*. A
//! [`ClusterPipeline`] partitions `m` streams across `n` instances, each
//! running the shard-invariant concurrent pipeline completely unchanged,
//! and adds a thin coordinator that treats the decode budget `B` as a
//! cluster-level resource:
//!
//! * **Epoch budget reallocation.** Each instance publishes progress
//!   gauges — rounds done, cost offered, cost spent, a recent round-p99
//!   ring — through a shared [`ClusterControl`] cell. At every epoch
//!   boundary (`epoch_rounds` completed by the slowest instance) the
//!   coordinator re-splits `B` proportionally to observed per-round
//!   demand, boosted where the decision-quality monitor flags regret and
//!   damped where round-p99 says the instance is already saturated. The
//!   gate reads its budget from the cell exactly once per round, at round
//!   start, so every individual round still runs the paper's §5.3
//!   knapsack under one fixed budget (DESIGN.md D13).
//!
//! * **Stream migration.** The deterministic lockstep executor
//!   ([`ClusterSim`]) rebalances streams between instances at round
//!   boundaries: the owning gate serializes the stream's policy state via
//!   [`GatePolicy::export_stream_state`], the blob crosses a real pg-net
//!   `MIGRATE` frame (encode → [`pg_net::wire::FrameDecoder`] →
//!   [`pg_net::wire::read_migrate`]), and the destination gate resumes it
//!   with [`GatePolicy::import_stream_state`]. The payload is opaque at
//!   this layer — the same boundary discipline as the autopilot rungs.
//!
//! Observability rolls up bottom-to-top: every instance keeps its own
//! [`Telemetry`] handle, and the cluster report folds the per-instance
//! snapshots with [`TelemetrySnapshot::merge`] (which merges the insight,
//! ingest, autopilot, and trace sections alike).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pg_codec::{CostModel, EncoderConfig};
use pg_net::wire;
use pg_scene::TaskKind;

use crate::budget::RoundBudget;
use crate::concurrent::{
    latency_percentile, ClusterControl, ConcurrentConfig, ConcurrentPipeline, ConcurrentReport,
    DecodeWorkModel,
};
use crate::engine::{EngineConfig, RoundEngine};
use crate::gate::{GatePolicy, PacketContext};
use crate::insight::Insight;
use crate::round::{SceneSource, SimConfig, StreamSpec};
use crate::telemetry::{Telemetry, TelemetrySnapshot};

/// Budget clamp band around an instance's fair share: reallocation may
/// not starve an instance below `LOW × fair` nor flood it above
/// `HIGH × fair`. The band keeps a temporarily idle instance alive (its
/// streams still arrive every round) while letting hot instances draw
/// several times their static share.
const SHARE_CLAMP_LOW: f64 = 0.25;
const SHARE_CLAMP_HIGH: f64 = 4.0;

/// Saturation guard: an instance whose recent round-p99 exceeds this
/// multiple of the cluster median is queue-bound, not budget-bound —
/// extra budget would only deepen its backlog (PR 9's attribution
/// lesson), so its demand weight is damped instead.
const P99_SATURATION_FACTOR: f64 = 2.0;
const P99_DAMP: f64 = 0.85;

/// Regret boost: when an instance's decision-quality monitor flags
/// sublinear-regret violation, its streams are being mis-served at the
/// current budget; bias the next epoch's split toward it.
const REGRET_BOOST: f64 = 1.25;

/// Partition `streams` fleet streams into `instances` contiguous,
/// near-even slices (sizes differ by at most one; earlier instances take
/// the remainder). Contiguity is what makes per-instance
/// `stream_seed_offset` reproduce exactly the content a single giant
/// gate would see for the same fleet.
pub fn partition_fleet(streams: usize, instances: usize) -> Vec<Range<usize>> {
    assert!(instances > 0, "cluster needs at least one instance");
    let base = streams / instances;
    let extra = streams % instances;
    let mut out = Vec::with_capacity(instances);
    let mut start = 0;
    for k in 0..instances {
        let len = base + usize::from(k < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Split `total` across instances proportionally to `weight`, clamped to
/// a band around each instance's `fair` share, then rescaled so the
/// allocations sum to exactly `total` (the clamp is a soft bound: the
/// final rescale may nudge an allocation slightly past it, but the sum —
/// the cluster's actual budget — is conserved to fp precision).
fn split_budget(total: f64, fair: &[f64], weight: &[f64]) -> Vec<f64> {
    let wsum: f64 = weight.iter().sum();
    let mut alloc: Vec<f64> = if wsum > 0.0 && wsum.is_finite() {
        weight.iter().map(|w| total * w / wsum).collect()
    } else {
        fair.to_vec()
    };
    for (a, f) in alloc.iter_mut().zip(fair) {
        *a = a.clamp(SHARE_CLAMP_LOW * f, SHARE_CLAMP_HIGH * f);
    }
    let sum: f64 = alloc.iter().sum();
    if sum > 0.0 {
        let scale = total / sum;
        for a in &mut alloc {
            *a *= scale;
        }
    }
    alloc
}

/// Cluster-wide configuration. Per-instance knobs (decode workers,
/// parser shards) apply to *each* instance: a cluster of `n` models `n`
/// boxes, each bringing its own decode capacity.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of gate instances.
    pub instances: usize,
    /// Fleet stream count (partitioned contiguously across instances).
    pub streams: usize,
    /// Rounds per stream.
    pub rounds: u64,
    /// Cluster-level decode budget per round, in cost units. Split across
    /// instances by the coordinator; conserved at every reallocation.
    pub budget_total: f64,
    /// Decode worker threads *per instance*.
    pub decode_workers: usize,
    /// Parser shard threads per instance (0 = auto).
    pub parser_shards: usize,
    /// Task generating the content.
    pub task: TaskKind,
    /// Encoder configuration shared by all streams.
    pub encoder: EncoderConfig,
    /// Synthetic decode work calibration (per instance).
    pub work: DecodeWorkModel,
    /// Cost model.
    pub costs: CostModel,
    /// Fleet seed: stream `i` is seeded identically whether it runs under
    /// a cluster partition or a single giant gate.
    pub seed: u64,
    /// Per-instance gate stall timeout.
    pub stall_timeout: Duration,
    /// Rounds per coordinator epoch. Reallocation happens when the
    /// slowest instance crosses an epoch boundary.
    pub epoch_rounds: u64,
    /// Enable epoch budget reallocation. When `false` the static
    /// stream-proportional split holds for the whole run.
    pub reallocate: bool,
    /// Attach a decision-quality monitor to every instance (feeds the
    /// coordinator's regret boost and the merged insight snapshot).
    pub insight: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            instances: 2,
            streams: 8,
            rounds: 100,
            budget_total: 16.0,
            decode_workers: 2,
            parser_shards: 1,
            task: TaskKind::PersonCounting,
            encoder: EncoderConfig::new(pg_codec::Codec::H264),
            work: DecodeWorkModel::default(),
            costs: CostModel::default(),
            seed: 1,
            stall_timeout: ConcurrentConfig::default().stall_timeout,
            epoch_rounds: 16,
            reallocate: true,
            insight: true,
        }
    }
}

/// One coordinator reallocation, for the report's audit ledger.
#[derive(Debug, Clone)]
pub struct BudgetDecision {
    /// Epoch index (1-based: the first decision fires after epoch 1).
    pub epoch: u64,
    /// Rounds the slowest instance had completed when the decision fired.
    pub at_round: u64,
    /// New per-instance budgets (sums to `budget_total`).
    pub allocations: Vec<f64>,
    /// Mean offered cost per round per instance over the last epoch (the
    /// demand signal).
    pub demand: Vec<f64>,
    /// Recent round-p99 per instance, µs (the saturation signal).
    pub p99_us: Vec<u64>,
    /// Which instances carried a regret flag from the insight monitor.
    pub regret_flagged: Vec<bool>,
}

/// Report from a cluster run: per-instance reports plus cluster-level
/// roll-ups.
#[derive(Debug)]
pub struct ClusterReport {
    /// Per-instance concurrent-pipeline reports, in instance order. Each
    /// carries its own telemetry snapshot for per-instance scraping.
    pub instances: Vec<ConcurrentReport>,
    /// The fleet partition that was used.
    pub partition: Vec<Range<usize>>,
    /// Cluster budget per round.
    pub budget_total: f64,
    /// Wall-clock duration of the whole run (instances run concurrently,
    /// so this is the max, not the sum).
    pub wall: Duration,
    /// Coordinator reallocation ledger, in decision order.
    pub ledger: Vec<BudgetDecision>,
    /// All per-instance telemetry folded with [`TelemetrySnapshot::merge`].
    pub telemetry: Option<TelemetrySnapshot>,
}

impl ClusterReport {
    /// Fleet stream count.
    pub fn streams(&self) -> usize {
        self.instances.iter().map(|r| r.streams).sum()
    }

    /// Packets parsed across the fleet.
    pub fn packets_parsed(&self) -> u64 {
        self.instances.iter().map(|r| r.packets_parsed).sum()
    }

    /// Packets decoded across the fleet.
    pub fn packets_decoded(&self) -> u64 {
        self.instances.iter().map(|r| r.packets_decoded).sum()
    }

    /// Total decode cost spent across the fleet.
    pub fn cost_spent(&self) -> f64 {
        self.instances.iter().map(|r| r.cost_spent).sum()
    }

    /// Cluster keep rate: decoded / parsed, fleet-wide.
    pub fn keep_rate(&self) -> f64 {
        let parsed = self.packets_parsed();
        if parsed == 0 {
            0.0
        } else {
            self.packets_decoded() as f64 / parsed as f64
        }
    }

    /// Fleet streams fully processed per second of wall clock — the
    /// cluster scaling headline. Instances run concurrently, so this is
    /// fleet stream-rounds over the overall elapsed wall.
    pub fn streams_decoded_per_sec(&self) -> f64 {
        let stream_rounds: f64 = self
            .instances
            .iter()
            .map(|r| r.streams as f64 * r.rounds as f64)
            .sum();
        stream_rounds / self.wall.as_secs_f64().max(1e-9)
    }

    /// Nearest-rank percentile over all instances' round latencies,
    /// excluding each instance's own `warmup` prefix (same convention as
    /// [`ConcurrentReport::round_latency_percentile_after`]).
    pub fn round_latency_percentile_after(&self, warmup: usize, pct: f64) -> Duration {
        latency_percentile(&self.instances, warmup, pct)
    }
}

/// N live concurrent pipelines under a coordinator thread. See module
/// docs for the budget/telemetry contract.
pub struct ClusterPipeline {
    config: ClusterConfig,
    telemetry: Vec<Telemetry>,
}

impl ClusterPipeline {
    /// New cluster with the given configuration.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.instances > 0, "cluster needs at least one instance");
        assert!(
            config.streams >= config.instances,
            "every instance needs at least one stream"
        );
        let telemetry = (0..config.instances)
            .map(|_| {
                if config.insight {
                    Telemetry::enabled().with_insight(Insight::enabled())
                } else {
                    Telemetry::enabled()
                }
            })
            .collect();
        ClusterPipeline { config, telemetry }
    }

    /// The per-instance telemetry handles, in instance order. Created at
    /// construction so scrape endpoints (one per instance, each rendering
    /// with its own `instance` label) can attach before `run` starts and
    /// observe the run live.
    pub fn telemetry_handles(&self) -> &[Telemetry] {
        &self.telemetry
    }

    /// The partition this cluster will use.
    pub fn partition(&self) -> Vec<Range<usize>> {
        partition_fleet(self.config.streams, self.config.instances)
    }

    /// Run the fleet: one gate policy per instance, in instance order.
    /// The coordinator runs on the calling thread while instances run on
    /// scoped threads.
    pub fn run(&self, gates: Vec<Box<dyn GatePolicy>>) -> ClusterReport {
        let cfg = &self.config;
        assert_eq!(
            gates.len(),
            cfg.instances,
            "one gate policy per instance required"
        );
        let partition = self.partition();
        let n = cfg.instances;

        // Static fair shares: budget proportional to stream count.
        let fair: Vec<f64> = partition
            .iter()
            .map(|p| cfg.budget_total * p.len() as f64 / cfg.streams as f64)
            .collect();
        let controls: Vec<Arc<ClusterControl>> =
            fair.iter().map(|&b| Arc::new(ClusterControl::new(b))).collect();
        let telemetry = &self.telemetry;

        let configs: Vec<ConcurrentConfig> = partition
            .iter()
            .enumerate()
            .map(|(k, p)| ConcurrentConfig {
                streams: p.len(),
                rounds: cfg.rounds,
                decode_workers: cfg.decode_workers,
                parser_shards: cfg.parser_shards,
                budget_per_round: fair[k],
                task: cfg.task,
                encoder: cfg.encoder,
                work: cfg.work,
                costs: cfg.costs,
                seed: cfg.seed,
                stall_timeout: cfg.stall_timeout,
                stream_seed_offset: p.start,
                control: Some(controls[k].clone()),
                ..ConcurrentConfig::default()
            })
            .collect();

        let finished = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<ConcurrentReport>>> =
            Mutex::new((0..n).map(|_| None).collect());
        let mut ledger: Vec<BudgetDecision> = Vec::new();
        let started = Instant::now();

        std::thread::scope(|s| {
            for (k, (config, mut gate)) in configs.into_iter().zip(gates).enumerate() {
                let tel = telemetry[k].clone();
                let finished = &finished;
                let results = &results;
                s.spawn(move || {
                    let report = ConcurrentPipeline::new(config)
                        .with_telemetry(tel)
                        .run(gate.as_mut());
                    results.lock().expect("results lock")[k] = Some(report);
                    finished.fetch_add(1, Ordering::Release);
                });
            }

            // Coordinator: poll progress gauges, reallocate at epoch
            // boundaries crossed by the slowest instance.
            let mut next_epoch = 1u64;
            let mut prev_rounds = vec![0u64; n];
            let mut prev_offered = vec![0f64; n];
            while finished.load(Ordering::Acquire) < n {
                std::thread::sleep(Duration::from_micros(250));
                if !cfg.reallocate {
                    continue;
                }
                let min_rounds = controls
                    .iter()
                    .map(|c| c.rounds_done())
                    .min()
                    .unwrap_or(0);
                while min_rounds >= next_epoch * cfg.epoch_rounds
                    && next_epoch * cfg.epoch_rounds < cfg.rounds
                {
                    let decision = coordinate(
                        cfg.budget_total,
                        &fair,
                        &controls,
                        telemetry,
                        &mut prev_rounds,
                        &mut prev_offered,
                        next_epoch,
                        min_rounds,
                    );
                    for (c, &b) in controls.iter().zip(&decision.allocations) {
                        c.set_budget(b);
                    }
                    ledger.push(decision);
                    next_epoch += 1;
                }
            }
        });

        let wall = started.elapsed();
        let instances: Vec<ConcurrentReport> = results
            .into_inner()
            .expect("results lock")
            .into_iter()
            .map(|r| r.expect("every instance reports"))
            .collect();
        let merged = instances.iter().filter_map(|r| r.telemetry.as_ref()).fold(
            None::<TelemetrySnapshot>,
            |acc, snap| match acc {
                None => Some(snap.clone()),
                Some(mut m) => {
                    m.merge(snap);
                    Some(m)
                }
            },
        );
        ClusterReport {
            instances,
            partition,
            budget_total: cfg.budget_total,
            wall,
            ledger,
            telemetry: merged,
        }
    }
}

/// One coordinator decision: read every instance's gauges, split the
/// budget for the next epoch. Runs on the coordinator thread only.
#[allow(clippy::too_many_arguments)]
fn coordinate(
    budget_total: f64,
    fair: &[f64],
    controls: &[Arc<ClusterControl>],
    telemetry: &[Telemetry],
    prev_rounds: &mut [u64],
    prev_offered: &mut [f64],
    epoch: u64,
    at_round: u64,
) -> BudgetDecision {
    let n = controls.len();
    let mut demand = vec![0f64; n];
    let mut p99 = vec![0u64; n];
    let mut flagged = vec![false; n];
    for (k, c) in controls.iter().enumerate() {
        let rounds = c.rounds_done();
        let offered = c.offered_cost();
        let dr = rounds.saturating_sub(prev_rounds[k]).max(1);
        demand[k] = ((offered - prev_offered[k]) / dr as f64).max(1e-9);
        p99[k] = c.recent_p99_us();
        prev_rounds[k] = rounds;
        prev_offered[k] = offered;
        flagged[k] = telemetry[k]
            .snapshot()
            .and_then(|s| s.insight)
            .is_some_and(|i| i.regret.flagged);
    }
    let mut weight = demand.clone();
    // Decision-quality feed: regret-flagged instances are being
    // mis-served at the current budget — bias toward them.
    for (w, &f) in weight.iter_mut().zip(&flagged) {
        if f {
            *w *= REGRET_BOOST;
        }
    }
    // Saturation feed: an instance far above the cluster's median
    // round-p99 is queue-bound; more budget only deepens its backlog.
    let mut sorted_p99: Vec<u64> = p99.iter().copied().filter(|&v| v > 0).collect();
    sorted_p99.sort_unstable();
    if let Some(&median) = sorted_p99.get(sorted_p99.len() / 2) {
        for (w, &v) in weight.iter_mut().zip(&p99) {
            if v as f64 > median as f64 * P99_SATURATION_FACTOR {
                *w *= P99_DAMP;
            }
        }
    }
    let allocations = split_budget(budget_total, fair, &weight);
    BudgetDecision {
        epoch,
        at_round,
        allocations,
        demand,
        p99_us: p99,
        regret_flagged: flagged,
    }
}

/// A scheduled stream handoff for the lockstep executor: at the start of
/// round `round`, move `stream` to instance `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationPlan {
    /// Round at whose start the migration applies.
    pub round: u64,
    /// Fleet stream index to move.
    pub stream: usize,
    /// Destination instance.
    pub to: usize,
}

/// Configuration for the deterministic lockstep cluster executor.
#[derive(Debug, Clone)]
pub struct ClusterSimConfig {
    /// Number of gate instances.
    pub instances: usize,
    /// Fleet stream count.
    pub streams: usize,
    /// Rounds to run.
    pub rounds: u64,
    /// Cluster budget per round, split ownership-proportionally.
    pub budget_total: f64,
    /// Task generating the content.
    pub task: TaskKind,
    /// Encoder configuration shared by all streams.
    pub encoder: EncoderConfig,
    /// Cost model.
    pub costs: CostModel,
    /// Fleet seed (stream `i` seeded as in the single-gate simulator).
    pub seed: u64,
    /// Scheduled stream handoffs, applied at round starts.
    pub migrations: Vec<MigrationPlan>,
}

impl Default for ClusterSimConfig {
    fn default() -> Self {
        ClusterSimConfig {
            instances: 2,
            streams: 8,
            rounds: 100,
            budget_total: 16.0,
            task: TaskKind::PersonCounting,
            encoder: EncoderConfig::new(pg_codec::Codec::H264),
            costs: CostModel::default(),
            seed: 1,
            migrations: Vec::new(),
        }
    }
}

/// Report from a lockstep cluster run, with per-round decision bitmaps
/// for bit-identity comparisons across migration scenarios.
#[derive(Debug)]
pub struct ClusterSimReport {
    /// Fleet stream count.
    pub streams: usize,
    /// Instances.
    pub instances: usize,
    /// Rounds run.
    pub rounds: u64,
    /// `decoded[stream][round]`: whether the stream's packet was decoded
    /// that round.
    pub decoded: Vec<Vec<bool>>,
    /// Candidates offered to gates, fleet-wide.
    pub offered: u64,
    /// Packets decoded fleet-wide.
    pub decoded_total: u64,
    /// Decode cost spent fleet-wide.
    pub cost_spent: f64,
    /// Stream handoffs performed.
    pub handoffs: u64,
    /// Wire bytes carried by MIGRATE frames (header + payload).
    pub handoff_bytes: u64,
    /// MIGRATE_ACK frames returned.
    pub handoff_acks: u64,
    /// How many handoffs actually imported policy state (stateless
    /// policies migrate with no payload).
    pub handoff_imports: u64,
    /// Final owner of each stream.
    pub final_owner: Vec<usize>,
    /// Each stream's exported policy state at end of run (`None` for
    /// stateless policies) — for migrated-vs-unmigrated equality checks.
    pub final_state: Vec<Option<Vec<u8>>>,
}

impl ClusterSimReport {
    /// Decoded / offered, fleet-wide.
    pub fn keep_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.decoded_total as f64 / self.offered as f64
        }
    }

    /// Rounds in which `stream` was decoded.
    pub fn decoded_rounds(&self, stream: usize) -> u64 {
        self.decoded[stream].iter().filter(|&&d| d).count() as u64
    }
}

/// The deterministic lockstep cluster executor. All instances step the
/// same round together (every gate's `select` is called every round, so
/// policy round counters stay aligned across instances), ownership is
/// explicit, and handoffs cross real pg-net MIGRATE frames at round
/// boundaries. This is where migration semantics are testable
/// bit-for-bit; the threaded [`ClusterPipeline`] is where wall-clock
/// scaling is measurable.
pub struct ClusterSim {
    config: ClusterSimConfig,
    source: SceneSource,
    owner: Vec<usize>,
}

impl ClusterSim {
    /// Build the fleet: stream `i` is constructed exactly as the
    /// single-gate simulator would (same seeds, same decoder ids), so a
    /// one-instance cluster reproduces it.
    pub fn new(config: ClusterSimConfig) -> Self {
        assert!(config.instances > 0, "cluster needs at least one instance");
        assert!(config.streams > 0, "cluster needs at least one stream");
        for m in &config.migrations {
            assert!(
                m.stream < config.streams && m.to < config.instances,
                "migration plan out of range: {m:?}"
            );
        }
        let partition = partition_fleet(config.streams, config.instances);
        let mut owner = vec![0usize; config.streams];
        for (k, p) in partition.iter().enumerate() {
            for i in p.clone() {
                owner[i] = k;
            }
        }
        let specs = (0..config.streams)
            .map(|i| {
                let seed = pg_scene::rng::mix(config.seed, i as u64);
                StreamSpec::new(config.task, seed, config.encoder)
            })
            .collect();
        ClusterSim {
            source: SceneSource::new(specs, None),
            config,
            owner,
        }
    }

    /// Run the fleet under one gate policy per instance.
    pub fn run(mut self, mut gates: Vec<Box<dyn GatePolicy>>) -> ClusterSimReport {
        let cfg = self.config.clone();
        assert_eq!(
            gates.len(),
            cfg.instances,
            "one gate policy per instance required"
        );
        let m = cfg.streams;
        let n = cfg.instances;
        let mut migrations = cfg.migrations.clone();
        migrations.sort_by_key(|p| p.round);
        let mut next_migration = 0usize;

        let mut decoded = vec![vec![false; cfg.rounds as usize]; m];
        let mut handoffs = 0u64;
        let mut handoff_bytes = 0u64;
        let mut handoff_acks = 0u64;
        let mut handoff_imports = 0u64;
        let mut budgets: Vec<RoundBudget> = (0..n).map(|_| RoundBudget::new(0.0)).collect();
        let mut contexts: Vec<Vec<PacketContext>> = vec![Vec::new(); n];
        let mut wire_rx = wire::FrameDecoder::new();
        // One engine for the fleet: streams are ingested once per round,
        // then each instance decides over the candidates it owns. Faults
        // are recorded and nothing sits out, so ownership alone decides
        // who gates a stream.
        let sim = SimConfig {
            cost_model: cfg.costs,
            ..SimConfig::default()
        };
        let mut engine = RoundEngine::inline(&self.source, EngineConfig::new(sim));

        for round in 0..cfg.rounds {
            // Scheduled handoffs apply at the round boundary, before any
            // packet of this round is seen.
            while next_migration < migrations.len() && migrations[next_migration].round == round {
                let plan = migrations[next_migration];
                next_migration += 1;
                let from = self.owner[plan.stream];
                if from == plan.to {
                    continue;
                }
                let blob = gates[from]
                    .export_stream_state(plan.stream)
                    .unwrap_or_default();
                let frame = wire::encode_frame(
                    wire::FT_MIGRATE,
                    &wire::migrate_payload(plan.stream as u32, round, &blob),
                );
                handoff_bytes += frame.len() as u64;
                let mut frames = Vec::new();
                wire_rx
                    .push(&frame, &mut frames)
                    .expect("well-formed MIGRATE frame");
                let (sid, epoch, state) = frames
                    .iter()
                    .find(|(t, _)| *t == wire::FT_MIGRATE)
                    .and_then(|(_, p)| wire::read_migrate(p))
                    .expect("MIGRATE payload");
                debug_assert_eq!(sid as usize, plan.stream);
                debug_assert_eq!(epoch, round);
                if !state.is_empty() && gates[plan.to].import_stream_state(&state) {
                    handoff_imports += 1;
                }
                let ack = wire::encode_frame(
                    wire::FT_MIGRATE_ACK,
                    &wire::migrate_ack_payload(sid, epoch),
                );
                let mut acks = Vec::new();
                wire_rx.push(&ack, &mut acks).expect("well-formed ACK");
                handoff_acks += acks
                    .iter()
                    .filter(|(t, _)| *t == wire::FT_MIGRATE_ACK)
                    .count() as u64;
                self.owner[plan.stream] = plan.to;
                handoffs += 1;
            }

            // Ownership-proportional budget split, recomputed every
            // round (deterministic; migration shifts budget with the
            // stream it follows).
            let mut owned = vec![0usize; n];
            for &o in &self.owner {
                owned[o] += 1;
            }
            for (k, b) in budgets.iter_mut().enumerate() {
                b.per_round = cfg.budget_total * owned[k] as f64 / m as f64;
                b.begin_round();
            }

            // Generate, encode, ingest; route candidates to owners.
            engine.ingest(round, &mut self.source);
            for ctxs in &mut contexts {
                ctxs.clear();
            }
            for c in &engine.candidates {
                contexts[self.owner[c.stream_idx]].push(*c);
            }

            // Every instance selects every round — even with an empty
            // candidate list — so per-round policy state (UCB round
            // counters) stays in lockstep across the whole cluster. A
            // stale selection for a migrated-away stream names no
            // candidate of this instance, so the engine skips it.
            for k in 0..n {
                engine.decide(round, gates[k].as_mut(), &contexts[k], &mut budgets[k]);
            }
            for (i, row) in decoded.iter_mut().enumerate() {
                row[round as usize] = engine.was_decoded(i);
            }
        }
        let final_state: Vec<Option<Vec<u8>>> = (0..m)
            .map(|i| gates[self.owner[i]].export_stream_state(i))
            .collect();
        ClusterSimReport {
            streams: m,
            instances: n,
            rounds: cfg.rounds,
            decoded,
            offered: engine.offered,
            decoded_total: engine.finish().packets_decoded,
            cost_spent: budgets.iter().map(|b| b.total_spent()).sum(),
            handoffs,
            handoff_bytes,
            handoff_acks,
            handoff_imports,
            final_owner: self.owner,
            final_state,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{DecodeAll, FeedbackEvent};

    #[test]
    fn partition_is_contiguous_and_near_even() {
        for (m, n) in [(8, 1), (8, 2), (10, 3), (7, 7), (64, 5)] {
            let parts = partition_fleet(m, n);
            assert_eq!(parts.len(), n);
            assert_eq!(parts[0].start, 0);
            assert_eq!(parts.last().unwrap().end, m);
            for w in parts.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
            }
            let sizes: Vec<usize> = parts.iter().map(Range::len).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "near-even: {sizes:?}");
        }
    }

    #[test]
    fn split_budget_conserves_total_and_respects_floor() {
        let fair = [8.0, 8.0, 8.0, 8.0];
        // Extreme demand skew: clamping must still conserve the sum.
        let alloc = split_budget(32.0, &fair, &[100.0, 1e-9, 1e-9, 1e-9]);
        let sum: f64 = alloc.iter().sum();
        assert!((sum - 32.0).abs() < 1e-9, "sum {sum}");
        for a in &alloc {
            assert!(*a > 0.0);
        }
        assert!(alloc[0] > alloc[1]);
        // Degenerate weights fall back to the fair split.
        let alloc = split_budget(32.0, &fair, &[0.0, 0.0, 0.0, 0.0]);
        assert_eq!(alloc, fair.to_vec());
    }

    /// A state-dependent test policy with real export/import: per-stream
    /// feedback count + necessity EWMA, serialized as LE bytes. Decisions
    /// depend only on the stream's own state, so under a non-binding
    /// budget a migrated run must reproduce an unmigrated run exactly —
    /// any handoff bug (lost state, wrong stream, stale blob) breaks
    /// bit-identity.
    struct EwmaGate {
        seen: Vec<u64>,
        ewma: Vec<f64>,
    }

    impl EwmaGate {
        fn new() -> Self {
            EwmaGate {
                seen: Vec::new(),
                ewma: Vec::new(),
            }
        }
        fn ensure(&mut self, i: usize) {
            if self.seen.len() <= i {
                self.seen.resize(i + 1, 0);
                self.ewma.resize(i + 1, 0.5);
            }
        }
    }

    impl GatePolicy for EwmaGate {
        fn name(&self) -> &'static str {
            "EwmaGate"
        }
        fn select(&mut self, round: u64, candidates: &[PacketContext], _b: f64) -> Vec<usize> {
            let mut keep = Vec::new();
            for c in candidates {
                let i = c.stream_idx;
                self.ensure(i);
                if (self.seen[i] + round) % 4 != 3 || self.ewma[i] > 0.6 {
                    keep.push(i);
                }
            }
            keep
        }
        fn feedback(&mut self, events: &[FeedbackEvent]) {
            for e in events {
                self.ensure(e.stream_idx);
                self.seen[e.stream_idx] += 1;
                let x = if e.necessary { 1.0 } else { 0.0 };
                self.ewma[e.stream_idx] = 0.9 * self.ewma[e.stream_idx] + 0.1 * x;
            }
        }
        fn export_stream_state(&self, i: usize) -> Option<Vec<u8>> {
            let mut out = Vec::with_capacity(24);
            out.extend_from_slice(&(i as u64).to_le_bytes());
            out.extend_from_slice(&self.seen.get(i).copied().unwrap_or(0).to_le_bytes());
            out.extend_from_slice(
                &self.ewma.get(i).copied().unwrap_or(0.5).to_bits().to_le_bytes(),
            );
            Some(out)
        }
        fn import_stream_state(&mut self, state: &[u8]) -> bool {
            if state.len() != 24 {
                return false;
            }
            let idx = u64::from_le_bytes(state[0..8].try_into().unwrap()) as usize;
            self.ensure(idx);
            self.seen[idx] = u64::from_le_bytes(state[8..16].try_into().unwrap());
            self.ewma[idx] = f64::from_bits(u64::from_le_bytes(state[16..24].try_into().unwrap()));
            true
        }
    }

    fn sim_config(migrations: Vec<MigrationPlan>) -> ClusterSimConfig {
        ClusterSimConfig {
            instances: 2,
            streams: 6,
            rounds: 60,
            budget_total: 1e9, // non-binding: decisions are state-only
            migrations,
            ..ClusterSimConfig::default()
        }
    }

    #[test]
    fn lockstep_migration_preserves_decisions_bit_for_bit() {
        let baseline = ClusterSim::new(sim_config(vec![]))
            .run(vec![Box::new(EwmaGate::new()), Box::new(EwmaGate::new())]);
        let migrations = vec![
            MigrationPlan { round: 17, stream: 1, to: 1 },
            MigrationPlan { round: 23, stream: 4, to: 0 },
            MigrationPlan { round: 40, stream: 1, to: 0 }, // and back
        ];
        let migrated = ClusterSim::new(sim_config(migrations))
            .run(vec![Box::new(EwmaGate::new()), Box::new(EwmaGate::new())]);
        assert_eq!(migrated.handoffs, 3);
        assert_eq!(migrated.handoff_acks, 3);
        assert_eq!(migrated.handoff_imports, 3);
        assert!(migrated.handoff_bytes > 0);
        assert_eq!(migrated.final_owner, vec![0, 0, 0, 1, 0, 1]);
        assert_eq!(
            baseline.decoded, migrated.decoded,
            "migrated decisions must be bit-identical to the unmigrated run"
        );
        assert_eq!(baseline.final_state, migrated.final_state);
    }

    #[test]
    fn stateless_policies_migrate_with_no_payload() {
        let migrations = vec![MigrationPlan { round: 10, stream: 0, to: 1 }];
        let report = ClusterSim::new(sim_config(migrations))
            .run(vec![Box::new(DecodeAll), Box::new(DecodeAll)]);
        assert_eq!(report.handoffs, 1);
        assert_eq!(report.handoff_imports, 0, "DecodeAll exports no state");
        assert_eq!(report.keep_rate(), 1.0, "non-binding budget decodes all");
        assert_eq!(report.final_owner[0], 1);
    }

    #[test]
    fn lockstep_budget_binds_per_instance() {
        let cfg = ClusterSimConfig {
            instances: 2,
            streams: 8,
            rounds: 50,
            budget_total: 4.0,
            ..ClusterSimConfig::default()
        };
        let report =
            ClusterSim::new(cfg).run(vec![Box::new(DecodeAll), Box::new(DecodeAll)]);
        assert!(report.keep_rate() < 1.0, "tight budget must gate");
        assert!(report.decoded_total > 0);
        // Budget conservation: spend within budget + one closure
        // overshoot per instance per round.
        let max_closure = CostModel::default().max_cost() * 4.0;
        assert!(report.cost_spent <= 50.0 * (4.0 + 2.0 * max_closure));
    }

    #[test]
    fn single_instance_cluster_matches_giant_gate_content() {
        // n=1 cluster sim is exactly the fleet under one gate; keep-rate
        // 1.0 under a non-binding budget proves candidate routing is
        // lossless.
        let cfg = ClusterSimConfig {
            instances: 1,
            streams: 5,
            rounds: 40,
            budget_total: 1e9,
            ..ClusterSimConfig::default()
        };
        let report = ClusterSim::new(cfg).run(vec![Box::new(DecodeAll)]);
        assert_eq!(report.offered, 200);
        assert_eq!(report.decoded_total, 200);
    }

    /// Wraps a policy and logs which streams it got feedback for, round
    /// by round — the per-round decoded set, seen from the gate's side.
    struct Recording<G> {
        inner: G,
        decoded: std::sync::Arc<std::sync::Mutex<Vec<(u64, usize)>>>,
    }

    impl<G: GatePolicy> GatePolicy for Recording<G> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn select(&mut self, round: u64, candidates: &[PacketContext], b: f64) -> Vec<usize> {
            self.inner.select(round, candidates, b)
        }
        fn feedback(&mut self, events: &[FeedbackEvent]) {
            let mut log = self.decoded.lock().expect("log lock");
            log.extend(events.iter().map(|e| (e.round, e.stream_idx)));
            drop(log);
            self.inner.feedback(events);
        }
    }

    #[test]
    fn single_instance_cluster_decodes_what_the_round_simulator_decodes() {
        use crate::round::{RoundSimulator, SimConfig};
        // Same task, seed and (binding) budget: a one-instance cluster is
        // the round simulator's fleet under one gate, so the two must
        // decode the same streams in every round.
        let (streams, rounds, budget, seed) = (6usize, 80u64, 3.0, 9u64);
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let gate = || Recording {
            inner: EwmaGate::new(),
            decoded: log.clone(),
        };

        let cluster = ClusterSim::new(ClusterSimConfig {
            instances: 1,
            streams,
            rounds,
            budget_total: budget,
            seed,
            ..ClusterSimConfig::default()
        })
        .run(vec![Box::new(gate())]);
        let from_cluster = std::mem::take(&mut *log.lock().expect("log lock"));

        let config = SimConfig {
            budget_per_round: budget,
            ..SimConfig::default()
        };
        let report = RoundSimulator::uniform(ClusterSimConfig::default().task, streams, seed, config)
            .run(&mut gate(), rounds);
        let from_rounds = std::mem::take(&mut *log.lock().expect("log lock"));

        assert_eq!(from_cluster, from_rounds, "per-round decoded sets differ");
        assert_eq!(cluster.decoded_total, report.packets_decoded);
        assert!(cluster.keep_rate() < 1.0, "the budget must bind");
        for &(round, stream) in &from_rounds {
            assert!(cluster.decoded[stream][round as usize]);
        }
        assert_eq!(from_rounds.len() as u64, cluster.decoded_total);
        assert_eq!(cluster.cost_spent.to_bits(), report.cost_spent.to_bits());
    }

    #[test]
    fn live_cluster_runs_and_conserves_budget() {
        let cfg = ClusterConfig {
            instances: 2,
            streams: 8,
            rounds: 60,
            budget_total: 1e9,
            decode_workers: 1,
            parser_shards: 1,
            epoch_rounds: 8,
            work: DecodeWorkModel {
                iters_per_unit: 0,
                ..DecodeWorkModel::default()
            },
            ..ClusterConfig::default()
        };
        let report = ClusterPipeline::new(cfg)
            .run(vec![Box::new(DecodeAll), Box::new(DecodeAll)]);
        assert_eq!(report.streams(), 8);
        assert_eq!(report.partition, vec![0..4, 4..8]);
        assert_eq!(report.packets_parsed(), 480);
        assert_eq!(report.packets_decoded(), 480, "non-binding budget");
        assert!((report.keep_rate() - 1.0).abs() < 1e-12);
        assert!(report.streams_decoded_per_sec() > 0.0);
        // Telemetry rolled up from both instances.
        let tel = report.telemetry.as_ref().expect("merged telemetry");
        assert!(tel.insight.is_some(), "insight section must merge");
        // Every reallocation in the ledger conserves the cluster budget.
        for d in &report.ledger {
            let sum: f64 = d.allocations.iter().sum();
            assert!(
                (sum - report.budget_total).abs() < 1e-6 * report.budget_total,
                "epoch {} leaks budget: {sum}",
                d.epoch
            );
            assert_eq!(d.allocations.len(), 2);
            assert_eq!(d.demand.len(), 2);
        }
        assert!(
            report.round_latency_percentile_after(2, 99.0)
                >= report.round_latency_percentile_after(2, 50.0)
        );
    }

    #[test]
    fn migration_plan_out_of_range_is_rejected() {
        let cfg = ClusterSimConfig {
            instances: 2,
            streams: 4,
            migrations: vec![MigrationPlan { round: 0, stream: 9, to: 0 }],
            ..ClusterSimConfig::default()
        };
        assert!(std::panic::catch_unwind(|| ClusterSim::new(cfg)).is_err());
    }
}
