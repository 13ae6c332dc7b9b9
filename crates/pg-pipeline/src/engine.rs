//! The lockstep round engine: the one copy of the gate loop.
//!
//! A round is, in order: health tick → source arrivals → candidates →
//! [`GatePolicy::select`] → validate/dedupe the selection → budget check →
//! closure decode → budget charge → infer → feedback → accuracy and
//! staleness scoring → observer close. Execution modes differ only in
//! where packets come from, which is what a [`PacketSource`] supplies;
//! every other rule lives here once (DESIGN.md D14).
//!
//! The round comes in two halves because the lockstep cluster needs them
//! apart: [`RoundEngine::ingest`] fills the per-stream state once, and
//! [`RoundEngine::decide`] runs select → decode → infer → feedback for
//! one gate over the candidates it is handed. Single-gate modes call
//! [`RoundEngine::run`], which pairs them and closes each round.

use pg_codec::{Codec, DecodedFrame, Decoder, Packet, PacketMeta};
use pg_inference::accuracy::OnlineAccuracy;
use pg_inference::redundancy::RedundancyJudge;
use pg_inference::tasks::{model_for, truth_result, InferenceModel, InferenceResult};
use pg_scene::{SceneState, TaskKind};

use crate::autopilot::Autopilot;
use crate::budget::RoundBudget;
use crate::fault::{FaultLedger, FaultPlan, PipelineError, QuarantineConfig};
use crate::gate::{FeedbackEvent, GatePolicy, PacketContext};
use crate::insight::{PacketOutcome, RoundOutcome};
use crate::metrics::RoundSimReport;
use crate::round::SimConfig;
use crate::telemetry::{AuditReason, GateAuditEntry, Stage, Telemetry};
use crate::trace::{RoundBreakdown, RoundPart, SpanId, SpanToken, TraceStage, Track};

/// One stream's round as its source delivers it: plain data the engine
/// then acts on. Cleared before every [`PacketSource::advance`].
#[derive(Default)]
pub(crate) struct Inbox {
    /// Set by the engine: an earlier fatal fault killed the stream.
    pub dead: bool,
    /// Packets that reached the receiver, oldest first. Arrival is not
    /// decode: they only enter the stream's decoder store.
    pub packets: Vec<Packet>,
    /// Framing failures, each with whether it is fatal (the stream can
    /// never be identified, so it is killed) or merely strikes its health.
    pub faults: Vec<(PipelineError, bool)>,
    /// The pushed packet that stands as this round's gate candidate.
    pub candidate: Option<PacketMeta>,
    /// Cost to offer the candidate at when its closure is incomplete.
    /// `None` (every source but the network one) makes an incomplete
    /// closure a `DependencyViolation` fault and no candidate.
    pub nominal_cost: Option<f64>,
}

/// Where an execution mode's packets come from — the only thing that
/// differs between the lockstep modes.
pub(crate) trait PacketSource {
    /// Number of streams; fixed for the run.
    fn streams(&self) -> usize;

    /// Selects `stream`'s downstream inference model.
    fn task(&self, stream: usize) -> TaskKind;

    /// Codec shown to the gate for `stream`.
    fn codec(&self, stream: usize) -> Codec;

    /// The `stream_id` stamped on `stream`'s packets (the decoder checks
    /// it on ingest).
    fn wire_id(&self, stream: usize) -> u32 {
        stream as u32
    }

    /// Advance `stream` to `round`: fill `inbox` and return the sender-side
    /// scene state of this round's frame — the ground truth necessity and
    /// staleness are scored against, whether or not the packet made it.
    /// Called once per stream per round, streams ascending.
    fn advance(&mut self, stream: usize, round: u64, inbox: &mut Inbox) -> SceneState;
}

/// Close one round for every observer — insight, then trace, then
/// autopilot — and return the budget the next round runs with. A new
/// observer is one line here. Shared by this engine and the threaded
/// runtime's `gate_stage`; `round_us` is the wall-clock round latency when
/// the caller measures one, `parts` the round's stage shares in pipeline
/// order, µs.
pub(crate) fn close_round(
    telemetry: &Telemetry,
    autopilot: &Autopilot,
    gate: &mut dyn GatePolicy,
    round_span: Option<SpanToken>,
    outcome: &RoundOutcome<'_>,
    round_us: Option<f64>,
    parts: &[(TraceStage, u64)],
) -> f64 {
    let insight = telemetry.insight();
    insight.record_round(outcome);
    let trace = telemetry.trace();
    if let Some(done) = trace.end(round_span, Track::Gate) {
        let part = |&(stage, us): &(TraceStage, u64)| RoundPart {
            stage: stage.name().to_string(),
            us,
        };
        trace.note_round(RoundBreakdown {
            round: outcome.round,
            total_us: done.dur_us,
            parts: parts.iter().map(part).collect(),
        });
    }
    let (spent, budget) = (outcome.spent, outcome.budget);
    autopilot.observe_round(outcome.round, gate, insight, spent, budget, round_us)
}

/// The per-mode settings of a run. Not a public surface: each simulator
/// keeps one and its `with_*` builders fill it.
pub(crate) struct EngineConfig {
    /// Budget, cost model, accuracy segments, oracle exposure.
    pub sim: SimConfig,
    pub quarantine: QuarantineConfig,
    /// Decoder-stall and feedback-drop injection.
    pub faults: FaultPlan,
    pub telemetry: Telemetry,
    pub autopilot: Autopilot,
}

impl EngineConfig {
    /// No quarantine, no injected faults, no observers: faults are
    /// recorded and nothing sits out.
    pub(crate) fn new(sim: SimConfig) -> Self {
        EngineConfig {
            sim,
            quarantine: QuarantineConfig::disabled(),
            faults: FaultPlan::default(),
            telemetry: Telemetry::disabled(),
            autopilot: Autopilot::disabled(),
        }
    }
}

/// Receiver-side state of one stream.
struct Lane {
    decoder: Decoder,
    model: Box<dyn InferenceModel>,
    judge: RedundancyJudge,
    codec: Codec,
    /// Previous scene state (drives the paper's static necessity labels).
    prev_state: Option<SceneState>,
    /// The latest decoded inference result — what downstream applications
    /// currently see for this stream (drives the staleness metric).
    published: Option<InferenceResult>,
    // This round's ground truth and outcome.
    necessary: bool,
    truth: Option<InferenceResult>,
    decoded: bool,
}

/// The lockstep round engine. See module docs.
pub(crate) struct RoundEngine {
    config: EngineConfig,
    lanes: Vec<Lane>,
    faults: FaultLedger,
    /// Accumulates as rounds run; [`RoundEngine::finish`] completes it.
    report: RoundSimReport,
    /// Totals the round report has no field for.
    pub(crate) arrived: u64,
    pub(crate) offered: u64,
    pub(crate) undecodable: u64,
    /// The open round's span and its stage shares so far.
    round_id: Option<SpanId>,
    parts: [(TraceStage, u64); 4],
    // Reused across rounds: a steady-state round allocates nothing here.
    inbox: Inbox,
    /// This round's candidates, ordered by stream.
    pub(crate) candidates: Vec<PacketContext>,
    events: Vec<FeedbackEvent>,
    /// The closure being decoded, references first.
    frames: Vec<DecodedFrame>,
    outcomes: Vec<PacketOutcome>,
}

const PARSE: usize = 0;
const SELECT: usize = 1;
const DECODE: usize = 2;
const INFER: usize = 3;

impl RoundEngine {
    /// An engine with one lane per stream of `source`.
    pub(crate) fn new(source: &dyn PacketSource, config: EngineConfig) -> Self {
        let m = source.streams();
        let lane = |i| Lane {
            decoder: Decoder::new(source.wire_id(i), config.sim.cost_model),
            model: model_for(source.task(i)),
            judge: RedundancyJudge::new(),
            codec: source.codec(i),
            prev_state: None,
            published: None,
            necessary: false,
            truth: None,
            decoded: false,
        };
        RoundEngine {
            lanes: (0..m).map(lane).collect(),
            faults: FaultLedger::new(config.telemetry.clone(), m, config.quarantine),
            report: RoundSimReport {
                streams: m,
                accuracy: OnlineAccuracy::with_segments(config.sim.segments),
                staleness: OnlineAccuracy::with_segments(config.sim.segments),
                ..RoundSimReport::default()
            },
            arrived: 0,
            offered: 0,
            undecodable: 0,
            round_id: None,
            parts: [
                (TraceStage::Parse, 0),
                (TraceStage::GateSelect, 0),
                (TraceStage::Decode, 0),
                (TraceStage::Infer, 0),
            ],
            inbox: Inbox::default(),
            candidates: Vec::with_capacity(m),
            events: Vec::with_capacity(m),
            frames: Vec::new(),
            outcomes: Vec::new(),
            config,
        }
    }

    /// Whether `stream`'s packet was decoded this round.
    pub(crate) fn was_decoded(&self, stream: usize) -> bool {
        self.lanes[stream].decoded
    }

    /// First half of a round: tick stream health, pull every stream's
    /// arrivals from `source` into its decoder, and build the candidate
    /// list.
    pub(crate) fn ingest(&mut self, round: u64, source: &mut dyn PacketSource) {
        let telemetry = &self.config.telemetry;
        // Streams whose cooldown expired re-enter gating.
        for i in self.faults.health.tick(round) {
            telemetry.stream_recovered(i);
        }
        self.candidates.clear();

        let parse_timer = telemetry.timer();
        let parse_span = telemetry
            .trace()
            .begin(TraceStage::Parse, None, round, self.round_id);
        let mut arrived = 0u64;
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let inbox = &mut self.inbox;
            (inbox.candidate, inbox.nominal_cost) = (None, None);
            inbox.dead = self.faults.health.is_dead(i);
            let state = source.advance(i, round, inbox);
            for (error, fatal) in inbox.faults.drain(..) {
                if fatal {
                    self.faults.kill(&error);
                } else {
                    self.faults.note(&error, round, true);
                }
            }
            arrived += inbox.packets.len() as u64;
            for p in inbox.packets.drain(..) {
                let (independent, size) = (p.meta.frame_type.is_independent(), p.meta.size);
                telemetry
                    .insight()
                    .observe_packet(i, round, independent, u64::from(size));
                lane.decoder.ingest(p);
            }
            // Paper necessity: count change / event active (§5.1).
            lane.necessary = state.necessary_after(lane.prev_state.as_ref());
            lane.prev_state = Some(state);
            lane.truth = Some(truth_result(&state));
            lane.decoded = false;

            let Some(meta) = inbox.candidate else {
                continue;
            };
            // Quarantined streams keep ingesting (so recovery can back-fill
            // their closure) but contribute no candidate: their budget
            // share is released to the healthy streams.
            if !self.faults.health.is_active(i) {
                continue;
            }
            let pending = lane.decoder.pending_cost(meta.seq);
            if pending.is_some() {
                // A complete closure was observed.
                self.faults.health.clear_strikes(i);
            }
            let Some(pending_cost) = pending.or(inbox.nominal_cost) else {
                let error = PipelineError::DependencyViolation {
                    stream_idx: i,
                    seq: meta.seq,
                    detail: "pending cost unavailable (references lost)".to_string(),
                };
                self.faults.note(&error, round, true);
                continue;
            };
            self.candidates.push(PacketContext {
                stream_idx: i,
                meta,
                pending_cost,
                codec: lane.codec,
                oracle_necessary: self.config.sim.expose_oracle.then_some(lane.necessary),
            });
        }
        self.arrived += arrived;
        self.offered += self.candidates.len() as u64;
        let parse_done = telemetry.trace().end(parse_span, Track::Gate);
        self.parts[PARSE].1 = parse_done.map_or(0, |d| d.dur_us);
        telemetry.record(Stage::Parse, arrived, parse_timer);
    }

    /// Second half of a round, for one gate: select over `candidates`,
    /// then decode the picks' dependency closures in the policy's priority
    /// order until `budget` is exhausted (the last may overshoot — the
    /// approximately-fractional model of Lemma 1), infer on each decoded
    /// target and feed the redundancy bits back. `candidates` is ordered
    /// by stream. Selection entries are stream indices; out-of-range,
    /// duplicate and not-in-`candidates` entries are skipped.
    pub(crate) fn decide(
        &mut self,
        round: u64,
        gate: &mut dyn GatePolicy,
        candidates: &[PacketContext],
        budget: &mut RoundBudget,
    ) {
        let telemetry = &self.config.telemetry;
        let trace = telemetry.trace();
        let gate_timer = telemetry.timer();
        let select_span = trace.begin(TraceStage::GateSelect, None, round, self.round_id);
        let selection = gate.select(round, candidates, budget.per_round);
        let select_done = trace.end(select_span, Track::Gate);
        self.parts[SELECT].1 += select_done.map_or(0, |d| d.dur_us);
        telemetry.record(Stage::Gate, candidates.len() as u64, gate_timer);

        debug_assert!(candidates.is_sorted_by_key(|c| c.stream_idx));
        self.events.clear();
        for &idx in &selection {
            let Some(lane) = self.lanes.get_mut(idx).filter(|l| !l.decoded) else {
                continue;
            };
            let Ok(pos) = candidates.binary_search_by_key(&idx, |c| c.stream_idx) else {
                continue;
            };
            let candidate = &candidates[pos];
            if !budget.can_spend() {
                break;
            }
            let before = lane.decoder.stats().cost_spent;
            let decode_timer = telemetry.timer();
            let decode_span = trace.begin(TraceStage::Decode, Some(idx), round, self.round_id);
            let decoded = if self.config.faults.stalls_decoder(idx, round) {
                Err("decoder stalled (injected)".to_string())
            } else {
                lane.decoder
                    .decode_closure_into(candidate.meta.seq, &mut self.frames)
                    .map_err(|e| e.to_string())
            };
            let decode_done = trace.end(decode_span, Track::Gate);
            // Whatever the decoder spent is charged, also when the closure
            // failed part-way: the Lemma-1 ledger is exact by construction.
            budget.charge(lane.decoder.stats().cost_spent - before);
            let frames = match decoded {
                Ok(()) => &self.frames,
                Err(detail) => {
                    // References lost to damage or in transit, or a stalled
                    // decoder: the packet is stranded until a clean GOP can
                    // rebuild it. Only the engine sees this outcome, so it
                    // writes the audit entry itself; repeated stranding
                    // quarantines.
                    self.undecodable += 1;
                    let error = PipelineError::DecodeFail {
                        stream_idx: idx,
                        round,
                        detail,
                    };
                    self.faults.note(&error, round, true);
                    telemetry.audit(GateAuditEntry {
                        stream_idx: idx,
                        round,
                        confidence: 0.0,
                        cost: candidate.pending_cost,
                        kept: false,
                        reason: AuditReason::Undecodable,
                    });
                    continue;
                }
            };
            self.parts[DECODE].1 += decode_done.map_or(0, |d| d.dur_us);
            telemetry.record(Stage::Decode, frames.len() as u64, decode_timer);
            self.faults.health.clear_strikes(idx);
            lane.decoded = true;
            self.report.packets_decoded += 1;
            self.report.packets_backfilled += frames.len().saturating_sub(1) as u64;

            let Some(target) = frames.last() else {
                continue;
            };
            debug_assert_eq!(target.seq, candidate.meta.seq);
            let infer_timer = telemetry.timer();
            let decode_id = decode_done.map(|d| d.id);
            let infer_span = trace.begin(TraceStage::Infer, Some(idx), round, decode_id);
            let result = lane.model.infer(target);
            let infer_done = trace.end(infer_span, Track::Gate);
            self.parts[INFER].1 += infer_done.map_or(0, |d| d.dur_us);
            telemetry.record(Stage::Infer, 1, infer_timer);
            lane.published = Some(result);
            let necessary = lane.judge.feedback(result);
            if self.config.faults.drops_feedback(idx, round) {
                // Injected feedback loss: reported, but no health strike —
                // the stream's data path is intact.
                let error = PipelineError::FeedbackLost {
                    stream_idx: idx,
                    round,
                };
                self.faults.note(&error, round, false);
                continue;
            }
            self.events.push(FeedbackEvent {
                stream_idx: idx,
                round,
                necessary,
            });
        }
        gate.feedback(&self.events);
    }

    /// Score the round on both metrics.
    fn score(&mut self, round: u64, rounds: u64) {
        let segment = (round as usize * self.config.sim.segments) / rounds.max(1) as usize;
        let report = &mut self.report;
        for lane in &self.lanes {
            // Primary: the paper's per-packet correctness.
            report
                .accuracy
                .record(segment, lane.decoded, lane.necessary);
            // Secondary: published-result correctness.
            report
                .staleness
                .record(segment, lane.published == lane.truth, true);
            report.necessary_total += u64::from(lane.necessary);
            report.necessary_decoded += u64::from(lane.necessary && lane.decoded);
        }
    }

    /// Run `rounds` whole rounds under one gate, starting from the
    /// configured budget (the autopilot may retune it between rounds).
    pub(crate) fn run(
        &mut self,
        source: &mut dyn PacketSource,
        gate: &mut dyn GatePolicy,
        rounds: u64,
    ) {
        gate.attach_telemetry(self.config.telemetry.clone());
        let mut budget = RoundBudget::new(self.config.sim.budget_per_round);
        for round in 0..rounds {
            let trace = self.config.telemetry.trace();
            let round_span = trace.begin(TraceStage::Round, None, round, None);
            self.round_id = round_span.as_ref().map(SpanToken::id);
            self.parts.iter_mut().for_each(|p| p.1 = 0);
            budget.begin_round();
            let spent_before = budget.total_spent();

            self.ingest(round, source);
            let candidates = std::mem::take(&mut self.candidates);
            self.decide(round, gate, &candidates, &mut budget);
            self.score(round, rounds);

            // The outcome vector is only materialized when a monitor is on.
            self.outcomes.clear();
            if self.config.telemetry.insight().is_enabled() {
                let lanes = &self.lanes;
                self.outcomes
                    .extend(candidates.iter().map(|c| PacketOutcome {
                        cost: c.pending_cost,
                        necessary: lanes[c.stream_idx].necessary,
                        decoded: lanes[c.stream_idx].decoded,
                    }));
            }
            let outcome = RoundOutcome {
                round,
                budget: budget.per_round,
                spent: budget.total_spent() - spent_before,
                offered: candidates.len(),
                decoded: self.lanes.iter().filter(|l| l.decoded).count(),
                quarantined: self.faults.health.sidelined_count(),
                outcomes: &self.outcomes,
            };
            let (telemetry, autopilot) = (&self.config.telemetry, &self.config.autopilot);
            budget.per_round = close_round(
                telemetry,
                autopilot,
                gate,
                round_span,
                &outcome,
                None,
                &self.parts,
            );
            self.candidates = candidates;
        }
        self.report.policy = gate.name().to_string();
        self.report.rounds = rounds;
        self.report.budget_per_round = self.config.sim.budget_per_round;
        self.report.packets_total = rounds * self.lanes.len() as u64;
        self.report.cost_spent = budget.total_spent();
    }

    /// End the run: the report, with its fault ledger, health roll-up and
    /// telemetry snapshot filled in.
    pub(crate) fn finish(mut self) -> RoundSimReport {
        self.report.health = self.faults.health.summary();
        self.report.faults = self.faults.records;
        self.report.telemetry = self.config.telemetry.snapshot();
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ChunkFaultMode;
    use crate::netround::{NetworkedRoundSimulator, Transport};
    use crate::replay::RecordedSource;
    use crate::round::{SceneSource, StreamSpec};
    use pg_codec::{Encoder, EncoderConfig};
    use pg_net::ImpairmentConfig;
    use pg_scene::generator_for;
    use proptest::prelude::*;

    const STREAMS: usize = 6;
    const ROUNDS: u64 = 48;
    const TASK: TaskKind = TaskKind::PersonCounting;

    fn encoder() -> EncoderConfig {
        EncoderConfig::new(Codec::H264).with_gop(12)
    }

    fn scene_source(seed: u64) -> SceneSource {
        let specs = (0..STREAMS as u64)
            .map(|i| StreamSpec::new(TASK, pg_scene::rng::mix(seed, i), encoder()))
            .collect();
        SceneSource::new(specs, None)
    }

    /// Every kind of source the lockstep modes run, plus the plan and
    /// quarantine thresholds its mode pairs it with.
    fn source(kind: usize, seed: u64) -> (Box<dyn PacketSource>, FaultPlan, QuarantineConfig) {
        let no_plan = FaultPlan::default();
        match kind {
            0 => (
                Box::new(scene_source(seed)),
                no_plan,
                QuarantineConfig::default(),
            ),
            1 => {
                let plan = FaultPlan::new(seed)
                    .with_corrupt(1, 9, ChunkFaultMode::Truncate)
                    .with_corrupt(3, 20, ChunkFaultMode::BitFlip)
                    .with_corrupt(4, 21, ChunkFaultMode::Truncate)
                    .with_corrupt_header(5)
                    .with_decoder_stall(0, 14)
                    .with_dropped_feedback(2, 30);
                let source = scene_source(seed).with_faults(plan.clone());
                (Box::new(source), plan, QuarantineConfig::new(6, 2))
            }
            2 => {
                let streams = (0..STREAMS as u64)
                    .map(|i| {
                        let mut generator = generator_for(TASK, seed ^ i, encoder().fps);
                        let mut enc = Encoder::for_stream(encoder(), seed ^ i, i as u32);
                        let packets = (0..ROUNDS)
                            .map(|_| enc.encode(&generator.next_frame()))
                            .collect();
                        (Codec::H264, packets)
                    })
                    .collect();
                let replayed = RecordedSource { streams };
                (Box::new(replayed), no_plan, QuarantineConfig::disabled())
            }
            _ => {
                let sim = NetworkedRoundSimulator::new(
                    TASK,
                    STREAMS,
                    seed,
                    encoder(),
                    ImpairmentConfig::lossy(0.08),
                    Transport::Raw,
                    0.0,
                );
                (Box::new(sim.source), no_plan, QuarantineConfig::new(12, 3))
            }
        }
    }

    /// Replays a scripted selection, right or wrong: entries may repeat,
    /// exceed the stream count or name streams that offered nothing.
    struct Scripted(Vec<Vec<usize>>);

    impl GatePolicy for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn select(&mut self, round: u64, _c: &[PacketContext], _budget: f64) -> Vec<usize> {
            self.0[round as usize % self.0.len()].clone()
        }
        fn feedback(&mut self, _events: &[FeedbackEvent]) {}
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The paper's two contracts hold in every mode for any selection
        /// a gate could return: a round spends at most its budget plus one
        /// offered closure (Lemma 1), and the engine never asks a decoder
        /// for a packet whose references are not decoded (GOP closure).
        #[test]
        fn lemma1_and_gop_closure_hold_for_every_source(
            kind in 0usize..4,
            seed in any::<u64>(),
            per_round in 0.0f64..14.0,
            script in proptest::collection::vec(
                proptest::collection::vec(0usize..STREAMS + 3, 0..2 * STREAMS),
                1..7,
            ),
        ) {
            let (mut source, faults, quarantine) = source(kind, seed);
            let config = EngineConfig {
                quarantine,
                faults,
                ..EngineConfig::new(SimConfig::default())
            };
            let mut engine = RoundEngine::new(source.as_ref(), config);
            let mut gate = Scripted(script);
            let mut budget = RoundBudget::new(per_round);
            for round in 0..ROUNDS {
                budget.begin_round();
                let before = budget.total_spent();
                engine.ingest(round, source.as_mut());
                let candidates = engine.candidates.clone();
                engine.decide(round, &mut gate, &candidates, &mut budget);
                let spent = budget.total_spent() - before;
                let largest = candidates.iter().map(|c| c.pending_cost).fold(0.0, f64::max);
                prop_assert!(
                    spent <= per_round + largest + 1e-9,
                    "round {round}: spent {spent} of {per_round} (+{largest})"
                );
                let picked = (0..STREAMS).filter(|&i| engine.was_decoded(i)).count();
                prop_assert!(picked <= candidates.len());
            }
            for fault in engine.finish().faults {
                prop_assert!(
                    !fault.detail.contains("requires reference"),
                    "decode reached a missing reference: {fault:?}"
                );
            }
        }
    }
}
