//! The deterministic round-based multi-stream simulator.
//!
//! One round = one packet arriving from each of `m` streams (the paper's
//! formalization, §4.1). This module is the scene-and-encoder packet
//! source; the round itself runs in the shared engine (DESIGN.md D14).
//! Per round:
//!
//! 1. this source generates each stream's next scene frame and encodes it;
//! 2. the packet is ingested into the stream's decoder (arrival ≠ decode!);
//! 3. the engine presents all packet contexts to the [`GatePolicy`];
//! 4. it decodes the selected packets' dependency closures, in the policy's
//!    priority order, until the round budget is exhausted (the last item
//!    may overshoot — the approximately-fractional model of Lemma 1);
//! 5. runs the downstream inference model on each decoded target frame and
//!    feeds the redundancy bit back to the policy;
//! 6. scores two accuracy metrics:
//!    * **inference accuracy** (primary; the paper's §4.1 objective): a
//!      packet is correct iff it was decoded or was redundant — skipping a
//!      *necessary* packet (per the paper's per-task rules: count change /
//!      event active) costs accuracy;
//!    * **staleness accuracy** (secondary; reported for system insight):
//!      each stream's latest decoded result is what downstream
//!      applications see; a round is correct iff that *published* result
//!      still matches ground truth, so a missed change stays wrong until
//!      the next decode.

use pg_codec::{serialize_stream_chunks, CostModel, Encoder, EncoderConfig, PacketParser};
use pg_scene::{generator_for, SceneGenerator, SceneState, TaskKind};

use crate::autopilot::Autopilot;
use crate::concurrent::parse_chunk;
use crate::engine::{EngineConfig, Inbox, PacketSource, RoundEngine};
use crate::fault::{FaultPlan, QuarantineConfig};
use crate::gate::GatePolicy;
use crate::metrics::RoundSimReport;
use crate::telemetry::Telemetry;

/// Specification of one stream for the simulator.
pub struct StreamSpec {
    /// Scene content source.
    pub generator: Box<dyn SceneGenerator + Send>,
    /// Encoder configuration.
    pub encoder_config: EncoderConfig,
    /// Seed for the encoder's size noise.
    pub seed: u64,
}

impl StreamSpec {
    /// Standard stream: default generator for `task`, given encoder config.
    pub fn new(task: TaskKind, seed: u64, encoder_config: EncoderConfig) -> Self {
        StreamSpec {
            generator: generator_for(task, seed, encoder_config.fps),
            encoder_config,
            seed,
        }
    }

    /// Stream with a custom generator.
    pub fn with_generator(
        generator: Box<dyn SceneGenerator + Send>,
        seed: u64,
        encoder_config: EncoderConfig,
    ) -> Self {
        StreamSpec {
            generator,
            encoder_config,
            seed,
        }
    }
}

/// A bitrate regime change injected at a round boundary: each selected
/// stream's encoder is re-targeted to `bitrate_factor ×` its current
/// bitrate at the start of round `at_round`. This is the drift-recovery
/// experiment's ground truth — the simulator knows exactly when the shift
/// happened, so recovery time is measurable in rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegimeShift {
    /// Round at whose start the shift applies.
    pub at_round: u64,
    /// Multiplier on each encoder's configured bitrate (e.g. `1.6` for the
    /// +60% ABR ladder step used by the drift acceptance scenario).
    pub bitrate_factor: f64,
    /// Bitmask of streams the shift applies to (bit *i* selects stream
    /// *i*); `u64::MAX` shifts everyone, whatever their index. A partial
    /// shift is the harsher
    /// scenario: a uniform shift rescales every stream's packets together
    /// so relative rankings survive, but when only some streams move, a
    /// stale predictor misranks them *against* the healthy ones and the
    /// knapsack misallocates budget across streams.
    pub stream_mask: u64,
}

impl RegimeShift {
    /// Shift every stream at `at_round`.
    pub fn all(at_round: u64, bitrate_factor: f64) -> Self {
        RegimeShift {
            at_round,
            bitrate_factor,
            stream_mask: u64::MAX,
        }
    }

    /// Restrict the shift to the masked streams.
    pub fn with_stream_mask(mut self, mask: u64) -> Self {
        self.stream_mask = mask;
        self
    }

    /// Whether stream `i` is shifted. A partial mask cannot name streams
    /// past its 64-bit width; the all-streams mask covers every index.
    pub fn applies_to(&self, stream_idx: usize) -> bool {
        self.stream_mask == u64::MAX
            || (stream_idx < 64 && self.stream_mask & (1u64 << stream_idx) != 0)
    }
}

/// Simulator-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Per-round decoding budget in cost units.
    pub budget_per_round: f64,
    /// Decode cost model.
    pub cost_model: CostModel,
    /// Number of time segments for accuracy reporting (paper Fig. 10 uses 24).
    pub segments: usize,
    /// Expose ground-truth necessity in [`PacketContext`] (Oracle baseline
    /// only).
    pub expose_oracle: bool,
    /// Optional mid-run bitrate regime change (drift injection).
    pub regime_shift: Option<RegimeShift>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            budget_per_round: 32.0, // the paper's running example
            cost_model: CostModel::default(),
            segments: 24,
            expose_oracle: false,
            regime_shift: None,
        }
    }
}

struct SceneStream {
    generator: Box<dyn SceneGenerator + Send>,
    encoder: Encoder,
}

/// The scene-and-encoder packet source: each round, every stream renders
/// its next scene frame and encodes it. Shared with the lockstep cluster.
pub(crate) struct SceneSource {
    streams: Vec<SceneStream>,
    regime_shift: Option<RegimeShift>,
    /// The serializer → parser byte path and the plan that damages it —
    /// per stream its parser and whether its header was destroyed, so its
    /// bytes can never be framed; `None` keeps the direct in-memory
    /// hand-off.
    wire: Option<(FaultPlan, Vec<(PacketParser, bool)>)>,
}

impl SceneSource {
    pub(crate) fn new(specs: Vec<StreamSpec>, regime_shift: Option<RegimeShift>) -> Self {
        let streams = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| SceneStream {
                generator: spec.generator,
                encoder: Encoder::for_stream(spec.encoder_config, spec.seed, i as u32),
            })
            .collect();
        SceneSource {
            streams,
            regime_shift,
            wire: None,
        }
    }

    /// With a non-empty plan, packets travel the real serializer → parser
    /// byte path so corruption exercises resynchronization exactly as in
    /// the concurrent pipeline; a clean run keeps the direct hand-off.
    pub(crate) fn with_faults(mut self, plan: FaultPlan) -> Self {
        if plan.is_empty() {
            return self;
        }
        let parsers = self
            .streams
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut header =
                    serialize_stream_chunks::header_bytes(i as u32, s.encoder.config());
                plan.corrupt_header(i, &mut header);
                let mut parser = PacketParser::new();
                parser.push_shared(bytes::Bytes::from(header));
                (parser, false)
            })
            .collect();
        self.wire = Some((plan, parsers));
        self
    }
}

impl PacketSource for SceneSource {
    fn lanes(&self) -> Vec<(TaskKind, pg_codec::Codec)> {
        let lane = |s: &SceneStream| (s.generator.task(), s.encoder.config().codec);
        self.streams.iter().map(lane).collect()
    }

    fn advance(&mut self, stream: usize, round: u64, inbox: &mut Inbox) -> Option<SceneState> {
        let s = &mut self.streams[stream];
        // Injected drift: re-target the selected encoders at the shift
        // round.
        if let Some(shift) = self.regime_shift {
            if round == shift.at_round && shift.applies_to(stream) {
                let next = (f64::from(s.encoder.config().bitrate) * shift.bitrate_factor) as u32;
                s.encoder.set_bitrate(next);
            }
        }
        let frame = s.generator.next_frame();
        let packet = s.encoder.encode(&frame);
        let seq = packet.meta.seq;
        match &mut self.wire {
            None => {
                inbox.packets.push(packet);
                inbox.candidate = Some(seq);
            }
            Some((_, parsers)) if parsers[stream].1 => {}
            Some((plan, parsers)) => {
                let mut bytes = serialize_stream_chunks::packet_bytes(&packet);
                plan.corrupt_chunk(stream, round, &mut bytes);
                // Freeze the corrupted chunk and hand it over zero-copy;
                // parsed payloads slice this allocation.
                let chunk = bytes::Bytes::from(bytes);
                let (packets, faults) = (&mut inbox.packets, &mut inbox.faults);
                let (parser, dead) = &mut parsers[stream];
                *dead = parse_chunk(parser, stream, chunk, packets, faults);
                if packets.iter().any(|p| p.meta.seq == seq) {
                    inbox.candidate = Some(seq);
                }
            }
        }
        Some(frame.state)
    }
}

/// The round-based simulator. See module docs.
pub struct RoundSimulator {
    source: SceneSource,
    engine: EngineConfig,
}

impl RoundSimulator {
    /// Build a simulator from stream specifications.
    pub fn new(specs: Vec<StreamSpec>, config: SimConfig) -> Self {
        RoundSimulator {
            source: SceneSource::new(specs, config.regime_shift),
            engine: EngineConfig {
                quarantine: QuarantineConfig::default(),
                ..EngineConfig::new(config)
            },
        }
    }

    /// Attach a drift autopilot: each round it consumes the insight pulse,
    /// drives the gate's recovery hooks, and returns the (possibly
    /// re-tuned) budget the next round runs with. A disabled handle (the
    /// default) leaves every round bit-identical to a run without one.
    pub fn with_autopilot(mut self, autopilot: Autopilot) -> Self {
        self.engine.autopilot = autopilot;
        self
    }

    /// Inject deterministic faults: with a non-empty plan, every packet is
    /// routed through the real serializer/parser byte path so corruption
    /// exercises resynchronization exactly as in the concurrent pipeline.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.engine.faults = faults;
        self
    }

    /// Override the quarantine thresholds for failing streams.
    pub fn with_quarantine(mut self, quarantine: QuarantineConfig) -> Self {
        self.engine.quarantine = quarantine;
        self
    }

    /// Attach a telemetry handle: per-stage latencies/counters are recorded
    /// for every round and a snapshot rides along on the final report. The
    /// same handle is passed to the gate so telemetry-aware policies can
    /// feed the audit ring.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.engine.telemetry = telemetry;
        self
    }

    /// Convenience: `m` homogeneous streams of `task`.
    pub fn uniform(task: TaskKind, m: usize, seed: u64, config: SimConfig) -> Self {
        let enc = EncoderConfig::new(pg_codec::Codec::H264);
        let specs = (0..m)
            .map(|i| StreamSpec::new(task, pg_scene::rng::mix(seed, i as u64), enc))
            .collect();
        Self::new(specs, config)
    }

    /// Number of streams.
    pub fn stream_count(&self) -> usize {
        self.source.streams.len()
    }

    /// Run `rounds` rounds under `gate` and report.
    pub fn run(self, gate: &mut dyn GatePolicy, rounds: u64) -> RoundSimReport {
        let mut source = self.source.with_faults(self.engine.faults.clone());
        let mut engine = RoundEngine::inline(&source, self.engine);
        engine.run(&mut source, gate, rounds);
        engine.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{DecodeAll, FeedbackEvent, PacketContext};

    fn sim(m: usize, budget: f64) -> RoundSimulator {
        let config = SimConfig {
            budget_per_round: budget,
            segments: 4,
            ..SimConfig::default()
        };
        RoundSimulator::uniform(TaskKind::PersonCounting, m, 42, config)
    }

    #[test]
    fn unlimited_budget_decodes_everything() {
        let report = sim(4, 1e9).run(&mut DecodeAll, 100);
        assert_eq!(report.packets_total, 400);
        assert_eq!(report.packets_decoded, 400);
        assert_eq!(
            report.packets_backfilled, 0,
            "in-order decode needs no backfill"
        );
        assert!((report.accuracy_overall() - 1.0).abs() < 1e-9);
        assert_eq!(report.filtering_rate(), 0.0);
    }

    #[test]
    fn zero_budget_decodes_nothing() {
        let report = sim(4, 0.0).run(&mut DecodeAll, 50);
        assert_eq!(report.packets_decoded, 0);
        assert!(report.accuracy_overall() < 1.0);
        assert_eq!(report.filtering_rate(), 1.0);
    }

    #[test]
    fn budget_is_enforced_within_one_overshoot() {
        let budget = 3.0;
        let report = sim(10, budget).run(&mut DecodeAll, 200);
        let max_cost = CostModel::default().max_cost();
        // Worst-case closure at arrival time: one packet (in-order arrivals
        // have at most their own cost pending... unless skipped GOPs build
        // up closures). Allow a generous closure bound.
        let per_round = report.cost_spent / report.rounds as f64;
        assert!(
            per_round <= budget + max_cost * 4.0,
            "mean spend {per_round} far exceeds budget {budget}"
        );
        assert!(report.packets_decoded < report.packets_total);
    }

    #[test]
    fn accuracy_degrades_gracefully_with_budget() {
        let tight = sim(10, 2.0).run(&mut DecodeAll, 300);
        let loose = sim(10, 20.0).run(&mut DecodeAll, 300);
        assert!(loose.accuracy_overall() >= tight.accuracy_overall());
        assert!(loose.filtering_rate() <= tight.filtering_rate());
    }

    #[test]
    fn oracle_flag_controls_exposure() {
        struct Probe {
            saw_oracle: bool,
        }
        impl GatePolicy for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn select(&mut self, _r: u64, c: &[PacketContext], _b: f64) -> Vec<usize> {
                self.saw_oracle |= c.iter().any(|x| x.oracle_necessary.is_some());
                vec![]
            }
            fn feedback(&mut self, _e: &[FeedbackEvent]) {}
        }

        let mut probe = Probe { saw_oracle: false };
        sim(2, 1.0).run(&mut probe, 5);
        assert!(!probe.saw_oracle);

        let mut probe = Probe { saw_oracle: false };
        let config = SimConfig {
            expose_oracle: true,
            ..SimConfig::default()
        };
        RoundSimulator::uniform(TaskKind::FireDetection, 2, 1, config).run(&mut probe, 5);
        assert!(probe.saw_oracle);
    }

    #[test]
    fn duplicate_and_out_of_range_selections_are_ignored() {
        struct Weird;
        impl GatePolicy for Weird {
            fn name(&self) -> &'static str {
                "weird"
            }
            fn select(&mut self, _r: u64, _c: &[PacketContext], _b: f64) -> Vec<usize> {
                vec![0, 0, 999, 1]
            }
            fn feedback(&mut self, _e: &[FeedbackEvent]) {}
        }
        let report = sim(3, 100.0).run(&mut Weird, 10);
        assert_eq!(report.packets_decoded, 20); // streams 0 and 1, 10 rounds
    }

    #[test]
    fn feedback_events_reach_the_gate() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        struct Counting(Arc<AtomicU64>);
        impl GatePolicy for Counting {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn select(&mut self, _r: u64, c: &[PacketContext], _b: f64) -> Vec<usize> {
                (0..c.len()).collect()
            }
            fn feedback(&mut self, e: &[FeedbackEvent]) {
                self.0.fetch_add(e.len() as u64, Ordering::Relaxed);
            }
        }
        let counter = Arc::new(AtomicU64::new(0));
        let mut gate = Counting(counter.clone());
        sim(3, 1e9).run(&mut gate, 20);
        assert_eq!(counter.load(Ordering::Relaxed), 60);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = sim(5, 8.0).run(&mut DecodeAll, 100);
        let b = sim(5, 8.0).run(&mut DecodeAll, 100);
        assert_eq!(a.packets_decoded, b.packets_decoded);
        assert!((a.accuracy_overall() - b.accuracy_overall()).abs() < 1e-12);
        assert!((a.cost_spent - b.cost_spent).abs() < 1e-9);
    }

    #[test]
    fn benign_fault_plan_reproduces_the_clean_run() {
        // A plan with no reachable corruption still activates the byte
        // path; the serializer → parser round-trip must not change any
        // aggregate vs the direct in-memory hand-off.
        let clean = sim(5, 8.0).run(&mut DecodeAll, 100);
        let plan = crate::fault::FaultPlan::new(1).with_dropped_feedback(0, 100_000);
        let routed = sim(5, 8.0).with_faults(plan).run(&mut DecodeAll, 100);
        assert_eq!(clean.packets_decoded, routed.packets_decoded);
        assert!((clean.accuracy_overall() - routed.accuracy_overall()).abs() < 1e-12);
        assert!(routed.faults.is_empty());
        assert_eq!(routed.health.degraded_events, 0);
    }

    #[test]
    fn corrupt_round_quarantines_and_recovers() {
        use crate::fault::{ChunkFaultMode, FaultPlan, QuarantineConfig};
        let plan = FaultPlan::new(9).with_corrupt(2, 10, ChunkFaultMode::Truncate);
        let report = sim(6, 1e9)
            .with_faults(plan)
            .with_quarantine(QuarantineConfig::new(8, 1))
            .run(&mut DecodeAll, 120);
        assert!(!report.faults.is_empty(), "damage must be reported");
        assert_eq!(report.health.streams_ever_quarantined, 1);
        assert!(report.health.recovered_events >= 1, "cooldown must expire");
        assert_eq!(report.health.dead_streams, 0);
        assert!(report.packets_decoded < report.packets_total);
        assert!(report.faults.iter().all(|f| f.stream_idx == Some(2)));
    }

    #[test]
    fn destroyed_header_kills_one_stream_only() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::new(4).with_corrupt_header(1);
        let report = sim(4, 1e9).with_faults(plan).run(&mut DecodeAll, 50);
        assert_eq!(report.health.dead_streams, 1);
        // The other three streams decode every round.
        assert_eq!(report.packets_decoded, 150);
        assert!(report
            .faults
            .iter()
            .any(|f| f.kind == "parse_corrupt" && f.stream_idx == Some(1)));
    }

    #[test]
    fn injected_stall_and_feedback_loss_are_classified() {
        use crate::fault::{FaultPlan, QuarantineConfig};
        let plan = FaultPlan::new(2)
            .with_decoder_stall(0, 5)
            .with_dropped_feedback(1, 7);
        let report = sim(3, 1e9)
            .with_faults(plan)
            .with_quarantine(QuarantineConfig::new(4, 1))
            .run(&mut DecodeAll, 40);
        assert!(report
            .faults
            .iter()
            .any(|f| f.kind == "decode_fail" && f.stream_idx == Some(0)));
        assert!(report
            .faults
            .iter()
            .any(|f| f.kind == "feedback_lost" && f.stream_idx == Some(1)));
        // Feedback loss must not quarantine.
        assert_eq!(report.health.streams_ever_quarantined, 1);
    }

    #[test]
    fn regime_shift_all_covers_streams_past_the_mask_width() {
        let all = RegimeShift::all(10, 1.6);
        assert!(all.applies_to(0) && all.applies_to(63));
        assert!(all.applies_to(64) && all.applies_to(1000));
        // A partial mask names only streams 0..64.
        let masked = all.with_stream_mask(0b101 | (1 << 63));
        assert!(masked.applies_to(0) && masked.applies_to(2) && masked.applies_to(63));
        assert!(!masked.applies_to(1));
        assert!(!masked.applies_to(64) && !masked.applies_to(1000));
    }

    #[test]
    fn mixed_tasks_simulate() {
        let enc = EncoderConfig::new(pg_codec::Codec::H265);
        let specs: Vec<StreamSpec> = TaskKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &t)| StreamSpec::new(t, i as u64, enc))
            .collect();
        let report = RoundSimulator::new(specs, SimConfig::default()).run(&mut DecodeAll, 50);
        assert_eq!(report.streams, 4);
        assert_eq!(report.packets_total, 200);
    }
}
