//! The round engine: the one copy of the gate loop.
//!
//! A round is, in order: health tick → source arrivals → candidates →
//! [`GatePolicy::select`] → validate/dedupe the selection → budget check →
//! submit the closure → budget charge → feedback → observer close. Every
//! execution mode runs these rules from here (DESIGN.md D14, D16). Modes
//! differ in where packets come from — a [`PacketSource`]: scene + encoder
//! (`round.rs`), recorded packets (`replay.rs`), simulated links
//! (`netround.rs`), the threaded runtime's parser batches
//! (`concurrent.rs`) — and in who decodes a selected closure — a
//! [`DecodeExecutor`]: [`Inline`] decodes, infers and judges before
//! `submit` returns; the threaded runtime's pooled executor hands the
//! closure to its decode workers and hears back rounds later.
//!
//! The round comes in two halves because the lockstep cluster needs them
//! apart: [`RoundEngine::ingest`] fills the per-stream state once, and
//! [`RoundEngine::decide`] runs select → submit → feedback for one gate
//! over the candidates it is handed. The lockstep single-gate modes call
//! [`RoundEngine::run`], which pairs them, scores each round against the
//! source's ground truth and closes it.

use std::time::{Duration, Instant};

use pg_codec::{Codec, DecodedFrame, Decoder, Packet};
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
use crate::trace::{ClosedSpan, RoundBreakdown, RoundPart, SpanId, SpanToken, TraceStage, Track};

/// One stream's round as its source delivers it: plain data the engine
/// then acts on. Cleared before every [`PacketSource::advance`].
#[derive(Default)]
pub(crate) struct Inbox {
    /// Packets that reached the receiver, oldest first. Arrival is not
    /// decode: they only enter the stream's decoder store.
    pub packets: Vec<Packet>,
    /// Framing failures, each with whether it is fatal (the stream can
    /// never be identified, so it is killed) or merely strikes its health.
    pub faults: Vec<(PipelineError, bool)>,
    /// Sequence number of the packet that stands as this round's gate
    /// candidate; the engine looks it up in the stream's decoder store.
    pub candidate: Option<u64>,
    /// A candidate missing from the store is a fault of its own, unless
    /// its loss is on the ledger already (fault marker, end of input).
    pub loss_reported: bool,
    /// Cost to offer the candidate at when its closure is incomplete.
    /// `None` (every source but the network one) makes an incomplete
    /// closure a `DependencyViolation` fault and no candidate.
    pub nominal_cost: Option<f64>,
}

/// Where an execution mode's packets come from.
pub(crate) trait PacketSource {
    /// Per stream, the task that selects its downstream inference model
    /// and the codec shown to the gate; fixed for the run.
    fn lanes(&self) -> Vec<(TaskKind, Codec)>;

    /// The trace stage this source's half of the round is accounted to,
    /// and the telemetry stage its arrivals are counted under — `None`
    /// when the thread that parsed them has counted them already.
    fn stages(&self) -> (TraceStage, Option<Stage>) {
        (TraceStage::Parse, Some(Stage::Parse))
    }

    /// Block until `round`'s arrivals are in hand; a stream given up on
    /// goes on `faults`. Sources that produce on demand never wait.
    fn await_round(&mut self, _round: u64, _faults: &mut FaultLedger, _log: &mut RoundLog) {}

    /// Advance `stream` to `round`: fill `inbox` and return the sender-side
    /// scene state of this round's frame, if this source knows it — the
    /// ground truth necessity and staleness are scored against, whether or
    /// not the packet made it. Called once per stream per round, streams
    /// ascending.
    fn advance(&mut self, stream: usize, round: u64, inbox: &mut Inbox) -> Option<SceneState>;
}

/// What a round's participants report back to the loop: source, engine
/// and executor the spans they close, the executor what it completed.
#[derive(Default)]
pub(crate) struct RoundLog {
    /// The open round's span: parent for its stage spans.
    pub round_id: Option<SpanId>,
    /// Time the round's stages have taken, in the order they first ran.
    parts: Vec<(TraceStage, u64)>,
    /// Feedback not yet delivered to the gate.
    pub events: Vec<FeedbackEvent>,
    /// Failures that surfaced after their `submit` had returned.
    pub late: Vec<PipelineError>,
}

impl RoundLog {
    /// Credit a closed span to `stage`; returns its id for parenting.
    pub(crate) fn add(&mut self, stage: TraceStage, done: Option<ClosedSpan>) -> Option<SpanId> {
        let done = done?;
        match self.parts.iter_mut().find(|p| p.0 == stage) {
            Some(part) => part.1 += done.dur_us,
            None => self.parts.push((stage, done.dur_us)),
        }
        Some(done.id)
    }
}

/// Who decodes a selected closure, and when the loop hears back.
pub(crate) trait DecodeExecutor {
    /// Take on `candidate`'s dependency closure from `decoder`: `Ok` is the
    /// cost to charge the round's budget, `Err` why it cannot be produced.
    fn submit(
        &mut self,
        decoder: &mut Decoder,
        candidate: &PacketContext,
        round: u64,
        log: &mut RoundLog,
    ) -> Result<f64, String>;

    /// Log what completed since the last call. Called before `select` and
    /// again after the round's last `submit`.
    fn collect(&mut self, log: &mut RoundLog);
}

/// What sits downstream of one stream's decoder, under every executor.
pub(crate) struct Viewer {
    stream_idx: usize,
    model: Box<dyn InferenceModel>,
    judge: RedundancyJudge,
    /// The latest inference result — what downstream applications
    /// currently see for this stream (drives the staleness metric).
    published: Option<InferenceResult>,
}

impl Viewer {
    /// One viewer per stream of `source`.
    pub(crate) fn per_lane(source: &dyn PacketSource) -> impl Iterator<Item = Viewer> {
        let lanes = source.lanes().into_iter().enumerate();
        lanes.map(|(stream_idx, (task, _))| Viewer {
            stream_idx,
            model: model_for(task),
            judge: RedundancyJudge::new(),
            published: None,
        })
    }

    /// The tail of the loop, the same under every executor: infer on the
    /// decoded `target` (timed, and traced on `track` as a child of its
    /// decode span), publish the result and judge it against the stream's
    /// previous one. `Ok` is the verdict the gate is owed. Where `plan`
    /// drops this round's feedback the gate never hears of the decode —
    /// `Err` says so — but downstream saw it: result and judge advance.
    /// Also returns the closed infer span.
    pub(crate) fn view(
        &mut self,
        target: &DecodedFrame,
        round: u64,
        plan: &FaultPlan,
        telemetry: &Telemetry,
        track: Track,
        decode_span: Option<SpanId>,
    ) -> (Result<FeedbackEvent, PipelineError>, Option<ClosedSpan>) {
        let stream_idx = self.stream_idx;
        let (trace, infer_timer) = (telemetry.trace(), telemetry.timer());
        let infer_span = trace.begin(TraceStage::Infer, Some(stream_idx), round, decode_span);
        let result = self.model.infer(target);
        let done = trace.end(infer_span, track);
        telemetry.record(Stage::Infer, 1, infer_timer);
        self.published = Some(result);
        let necessary = self.judge.feedback(result);
        let verdict = if plan.drops_feedback(stream_idx, round) {
            Err(PipelineError::FeedbackLost { stream_idx, round })
        } else {
            Ok(FeedbackEvent {
                stream_idx,
                round,
                necessary,
            })
        };
        (verdict, done)
    }
}

/// The executor of the lockstep modes: decode the closure, infer on its
/// target and judge redundancy on the calling thread, inside `submit`.
pub(crate) struct Inline {
    viewers: Vec<Viewer>,
    /// Decoder-stall and feedback-drop injection.
    plan: FaultPlan,
    telemetry: Telemetry,
    /// The closure being decoded, references first.
    frames: Vec<DecodedFrame>,
    backfilled: u64,
}

impl DecodeExecutor for Inline {
    fn submit(
        &mut self,
        decoder: &mut Decoder,
        candidate: &PacketContext,
        round: u64,
        log: &mut RoundLog,
    ) -> Result<f64, String> {
        let (idx, telemetry) = (candidate.stream_idx, &self.telemetry);
        let trace = telemetry.trace();
        let before = decoder.stats().cost_spent;
        let decode_timer = telemetry.timer();
        let decode_span = trace.begin(TraceStage::Decode, Some(idx), round, log.round_id);
        let decoded = if self.plan.stalls_decoder(idx, round) {
            Err("decoder stalled (injected)".to_string())
        } else {
            decoder
                .decode_closure_into(candidate.meta.seq, &mut self.frames)
                .map_err(|e| e.to_string())
        };
        let decode_done = trace.end(decode_span, Track::Gate);
        decoded?;
        let decode_id = log.add(TraceStage::Decode, decode_done);
        telemetry.record(Stage::Decode, self.frames.len() as u64, decode_timer);
        self.backfilled += self.frames.len().saturating_sub(1) as u64;

        if let Some(target) = self.frames.last() {
            debug_assert_eq!(target.seq, candidate.meta.seq);
            let (viewer, plan) = (&mut self.viewers[idx], &self.plan);
            let (verdict, done) =
                viewer.view(target, round, plan, telemetry, Track::Gate, decode_id);
            log.add(TraceStage::Infer, done);
            match verdict {
                Ok(event) => log.events.push(event),
                Err(lost) => log.late.push(lost),
            }
        }
        Ok(decoder.stats().cost_spent - before)
    }

    /// Everything completed inside `submit`.
    fn collect(&mut self, _log: &mut RoundLog) {}
}

/// The per-mode settings of a run. Not a public surface: each mode keeps
/// one and its builders fill it.
pub(crate) struct EngineConfig {
    /// Budget, cost model, accuracy segments, oracle exposure.
    pub sim: SimConfig,
    pub quarantine: QuarantineConfig,
    /// Decoder-stall and feedback-drop injection for [`Inline`].
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
    codec: Codec,
    /// A closure of this stream was taken on this round.
    decoded: bool,
    // Ground truth, for sources that know the sender's scene.
    /// Previous scene state (drives the paper's static necessity labels).
    prev_state: Option<SceneState>,
    necessary: bool,
    truth: Option<InferenceResult>,
}

/// The round engine. See module docs.
pub(crate) struct RoundEngine<X> {
    config: EngineConfig,
    lanes: Vec<Lane>,
    pub(crate) executor: X,
    pub(crate) faults: FaultLedger,
    /// Accumulates as rounds run; [`RoundEngine::finish`] completes it.
    pub(crate) report: RoundSimReport,
    /// Totals the round report has no field for.
    pub(crate) arrived: u64,
    pub(crate) offered: u64,
    pub(crate) undecodable: u64,
    /// Cumulative time inside `select`.
    pub(crate) select_time: Duration,
    pub(crate) log: RoundLog,
    /// Closures taken on since the last `ingest`.
    round_decoded: usize,
    // Reused across rounds: a steady-state round allocates nothing here.
    inbox: Inbox,
    /// This round's candidates, ordered by stream.
    pub(crate) candidates: Vec<PacketContext>,
    outcomes: Vec<PacketOutcome>,
}

impl<X: DecodeExecutor> RoundEngine<X> {
    /// An engine with one lane per stream of `source`.
    pub(crate) fn new(source: &dyn PacketSource, config: EngineConfig, executor: X) -> Self {
        let lane = |i: usize, codec| Lane {
            decoder: Decoder::new(i as u32, config.sim.cost_model),
            codec,
            decoded: false,
            prev_state: None,
            necessary: false,
            truth: None,
        };
        let lanes = source.lanes().into_iter().enumerate();
        let lanes: Vec<Lane> = lanes.map(|(i, (_, codec))| lane(i, codec)).collect();
        let m = lanes.len();
        RoundEngine {
            lanes,
            executor,
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
            select_time: Duration::ZERO,
            log: RoundLog::default(),
            round_decoded: 0,
            inbox: Inbox::default(),
            candidates: Vec::with_capacity(m),
            outcomes: Vec::new(),
            config,
        }
    }

    /// Whether a closure of `stream` was taken on this round.
    pub(crate) fn was_decoded(&self, stream: usize) -> bool {
        self.lanes[stream].decoded
    }

    /// Open `round`'s span; stage spans until [`RoundEngine::close`] are
    /// its children.
    pub(crate) fn open(&mut self, round: u64) -> Option<SpanToken> {
        let trace = self.config.telemetry.trace();
        let round_span = trace.begin(TraceStage::Round, None, round, None);
        self.log.round_id = round_span.as_ref().map(SpanToken::id);
        self.log.parts.clear();
        round_span
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
        source.await_round(round, &mut self.faults, &mut self.log);
        self.candidates.clear();
        self.round_decoded = 0;

        let (trace_stage, counted) = source.stages();
        let timer = counted.map(|stage| (stage, telemetry.timer()));
        let span = telemetry
            .trace()
            .begin(trace_stage, None, round, self.log.round_id);
        let mut arrived = 0u64;
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let inbox = &mut self.inbox;
            (inbox.candidate, inbox.nominal_cost, inbox.loss_reported) = (None, None, false);
            if let Some(state) = source.advance(i, round, inbox) {
                // Paper necessity: count change / event active (§5.1).
                lane.necessary = state.necessary_after(lane.prev_state.as_ref());
                lane.prev_state = Some(state);
                lane.truth = Some(truth_result(&state));
            }
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
            lane.decoded = false;

            let Some(seq) = inbox.candidate else {
                continue;
            };
            // Quarantined streams keep ingesting (so recovery can back-fill
            // their closure) but contribute no candidate: their budget
            // share is released to the healthy streams.
            if !self.faults.health.is_active(i) {
                continue;
            }
            let Some(meta) = lane.decoder.packet(seq).map(|p| p.meta) else {
                if !inbox.loss_reported {
                    // Named but absent: displaced by damage that still
                    // framed (e.g. a bit-flipped sequence field).
                    let error = PipelineError::ParseCorrupt {
                        stream_idx: i,
                        offset: None,
                        reason: format!("record for round {round} lost"),
                    };
                    self.faults.note(&error, round, true);
                }
                continue;
            };
            let pending = lane.decoder.pending_cost(seq);
            if pending.is_some() {
                // A complete closure was observed.
                self.faults.health.clear_strikes(i);
            }
            let Some(pending_cost) = pending.or(inbox.nominal_cost) else {
                let error = PipelineError::DependencyViolation {
                    stream_idx: i,
                    seq,
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
        let done = telemetry.trace().end(span, Track::Gate);
        self.log.add(trace_stage, done);
        if let Some((stage, started)) = timer {
            telemetry.record(stage, arrived, started);
        }
    }

    /// Take what the executor completed: late failures go on the ledger
    /// and, if `deliver`, pending feedback goes to `gate`. Returns whether
    /// the gate heard any.
    fn collect(&mut self, round: u64, gate: &mut dyn GatePolicy, deliver: bool) -> bool {
        self.executor.collect(&mut self.log);
        for error in self.log.late.drain(..) {
            // A failed decode counts against the stream's health; lost
            // feedback does not — the stream's data path is intact.
            let strikes = matches!(error, PipelineError::DecodeFail { .. });
            self.faults.note(&error, round, strikes);
        }
        let deliver = deliver && !self.log.events.is_empty();
        if deliver {
            gate.feedback(&self.log.events);
            self.log.events.clear();
        }
        deliver
    }

    /// Second half of a round, for one gate: select over `candidates`,
    /// then submit the picks' dependency closures in the policy's priority
    /// order until `budget` is exhausted (the last may overshoot — the
    /// approximately-fractional model of Lemma 1), and feed back what the
    /// executor has completed. `candidates` is ordered by stream.
    /// Selection entries are stream indices; out-of-range, duplicate and
    /// not-in-`candidates` entries are skipped.
    pub(crate) fn decide(
        &mut self,
        round: u64,
        gate: &mut dyn GatePolicy,
        candidates: &[PacketContext],
        budget: &mut RoundBudget,
    ) {
        // The gate hears feedback once per decision: before `select` if any
        // has come in by then, else right after the submits.
        let heard = self.collect(round, gate, true);
        let telemetry = &self.config.telemetry;
        let trace = telemetry.trace();
        let select_span = trace.begin(TraceStage::GateSelect, None, round, self.log.round_id);
        let select_start = Instant::now();
        let selection = gate.select(round, candidates, budget.per_round);
        let select_elapsed = select_start.elapsed();
        let select_done = trace.end(select_span, Track::Gate);
        self.log.add(TraceStage::GateSelect, select_done);
        self.select_time += select_elapsed;
        telemetry.record_duration(Stage::Gate, candidates.len() as u64, select_elapsed);

        debug_assert!(candidates.is_sorted_by_key(|c| c.stream_idx));
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
            match self
                .executor
                .submit(&mut lane.decoder, candidate, round, &mut self.log)
            {
                Ok(cost) => {
                    budget.charge(cost);
                    self.faults.health.clear_strikes(idx);
                    lane.decoded = true;
                    self.round_decoded += 1;
                    self.report.packets_decoded += 1;
                }
                Err(detail) => {
                    // References lost to damage or in transit, or a stalled
                    // decoder: the packet is stranded until a clean GOP can
                    // rebuild it. Whatever the decoder spent before failing
                    // is charged, so the Lemma-1 ledger stays exact. Only
                    // the engine sees this outcome, so it writes the audit
                    // entry itself; repeated stranding quarantines.
                    budget.charge(lane.decoder.stats().cost_spent - before);
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
                }
            }
        }
        self.collect(round, gate, !heard);
    }

    /// Close `round` for every observer — insight, then trace, then
    /// autopilot — and return the budget the next round runs with. A new
    /// observer is one line here. `round_us` is the wall-clock round
    /// latency when the caller measures one.
    pub(crate) fn close(
        &mut self,
        round: u64,
        gate: &mut dyn GatePolicy,
        round_span: Option<SpanToken>,
        budget: &RoundBudget,
        round_us: Option<f64>,
    ) -> f64 {
        let (telemetry, lanes) = (&self.config.telemetry, &self.lanes);
        let insight = telemetry.insight();
        // Hindsight outcomes exist only where a monitor is on and the
        // source knew the truth.
        self.outcomes.clear();
        if insight.is_enabled() {
            self.outcomes.extend(self.candidates.iter().filter_map(|c| {
                let lane = &lanes[c.stream_idx];
                lane.truth.map(|_| PacketOutcome {
                    cost: c.pending_cost,
                    necessary: lane.necessary,
                    decoded: lane.decoded,
                })
            }));
        }
        let outcome = RoundOutcome {
            round,
            budget: budget.per_round,
            spent: budget.spent_this_round(),
            offered: self.candidates.len(),
            decoded: self.round_decoded,
            quarantined: self.faults.health.sidelined_count(),
            outcomes: &self.outcomes,
        };
        insight.record_round(&outcome);
        let trace = telemetry.trace();
        if let Some(done) = trace.end(round_span, Track::Gate) {
            let part = |&(stage, us): &(TraceStage, u64)| RoundPart {
                stage: stage.name().to_string(),
                us,
            };
            trace.note_round(RoundBreakdown {
                round,
                total_us: done.dur_us,
                parts: self.log.parts.iter().map(part).collect(),
            });
        }
        let (spent, per_round) = (outcome.spent, outcome.budget);
        let autopilot = &self.config.autopilot;
        autopilot.observe_round(round, gate, insight, spent, per_round, round_us)
    }
}

impl RoundEngine<Inline> {
    /// An engine that decodes and infers inline.
    pub(crate) fn inline(source: &dyn PacketSource, config: EngineConfig) -> Self {
        let executor = Inline {
            viewers: Viewer::per_lane(source).collect(),
            plan: config.faults.clone(),
            telemetry: config.telemetry.clone(),
            frames: Vec::new(),
            backfilled: 0,
        };
        RoundEngine::new(source, config, executor)
    }

    /// Score the round on both metrics.
    fn score(&mut self, round: u64, rounds: u64) {
        let segment = (round as usize * self.config.sim.segments) / rounds.max(1) as usize;
        let report = &mut self.report;
        for (lane, viewer) in self.lanes.iter().zip(&self.executor.viewers) {
            // Primary: the paper's per-packet correctness.
            report
                .accuracy
                .record(segment, lane.decoded, lane.necessary);
            // Secondary: published-result correctness.
            report
                .staleness
                .record(segment, viewer.published == lane.truth, true);
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
            let round_span = self.open(round);
            budget.begin_round();
            self.ingest(round, source);
            let candidates = std::mem::take(&mut self.candidates);
            self.decide(round, gate, &candidates, &mut budget);
            self.candidates = candidates;
            self.score(round, rounds);
            budget.per_round = self.close(round, gate, round_span, &budget, None);
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
        self.report.packets_backfilled = self.executor.backfilled;
        self.report.health = self.faults.health.summary();
        self.report.faults = self.faults.records;
        self.report.telemetry = self.config.telemetry.snapshot();
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::tests::{preloaded, shard_batches};
    use crate::concurrent::ConcurrentConfig;
    use crate::fault::ChunkFaultMode;
    use crate::netround::{NetworkedRoundSimulator, Transport};
    use crate::replay::RecordedSource;
    use crate::round::{SceneSource, StreamSpec};
    use pg_codec::{Encoder, EncoderConfig, FrameType};
    use pg_net::ImpairmentConfig;
    use pg_scene::{generator_for, SceneFrame};
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

    /// The threaded runtime's trace for `seed`, damaged like kind 1's.
    fn threaded_config(seed: u64) -> ConcurrentConfig {
        ConcurrentConfig {
            streams: STREAMS,
            rounds: ROUNDS,
            task: TASK,
            encoder: encoder(),
            seed,
            faults: FaultPlan::new(seed)
                .with_corrupt(1, 9, ChunkFaultMode::Truncate)
                .with_corrupt(3, 20, ChunkFaultMode::BitFlip)
                .with_corrupt(4, 21, ChunkFaultMode::Truncate)
                .with_corrupt_header(5)
                .with_decoder_stall(0, 14)
                .with_dropped_feedback(2, 30),
            ..ConcurrentConfig::default()
        }
    }

    /// Every kind of source the engine runs over, plus the plan and
    /// quarantine thresholds its mode pairs it with.
    fn source(
        kind: usize,
        seed: u64,
        threaded: &ConcurrentConfig,
    ) -> (Box<dyn PacketSource + '_>, FaultPlan, QuarantineConfig) {
        let no_plan = FaultPlan::default();
        match kind {
            0 => (
                Box::new(scene_source(seed)),
                no_plan,
                QuarantineConfig::default(),
            ),
            1 => {
                let plan = threaded.faults.clone();
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
            3 => {
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
            // The threaded runtime's re-assembly under the inline
            // executor: its parsers' batches, sent up front.
            _ => {
                let source = preloaded(threaded, shard_batches(threaded, 3), &[]);
                let plan = threaded.faults.clone();
                (Box::new(source), plan, QuarantineConfig::new(6, 2))
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

    /// The tail's one rule, whichever executor runs it: a dropped round
    /// is a `FeedbackLost` and no event, yet downstream saw its frame —
    /// the result is published and the next round is judged against it.
    #[test]
    fn dropped_feedback_still_advances_the_viewer() {
        let mut viewer = Viewer::per_lane(&scene_source(1)).next().expect("stream 0");
        let plan = FaultPlan::new(1).with_dropped_feedback(0, 1);
        let mut view = |round: u64, people: u32| {
            let scene = SceneFrame::new(round, 1.0, 1.0, SceneState::PersonCount(people));
            let frame = DecodedFrame {
                stream_id: 0,
                seq: round,
                pts: round,
                frame_type: FrameType::I,
                scene,
            };
            let quiet = Telemetry::disabled();
            let (verdict, _) = viewer.view(&frame, round, &plan, &quiet, Track::Gate, None);
            assert_eq!(viewer.published, Some(InferenceResult::Count(people)));
            verdict
        };
        let event = |round, necessary| FeedbackEvent {
            stream_idx: 0,
            round,
            necessary,
        };
        assert_eq!(view(0, 2), Ok(event(0, true)));
        let lost = PipelineError::FeedbackLost {
            stream_idx: 0,
            round: 1,
        };
        assert_eq!(view(1, 5), Err(lost));
        // Redundant against the dropped round's 5, not the delivered 2.
        assert_eq!(view(2, 5), Ok(event(2, false)));
        assert_eq!(view(3, 2), Ok(event(3, true)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The paper's two contracts hold in every mode for any selection
        /// a gate could return: a round spends at most its budget plus one
        /// offered closure (Lemma 1), and the engine never asks a decoder
        /// for a packet whose references are not decoded (GOP closure).
        #[test]
        fn lemma1_and_gop_closure_hold_for_every_source(
            kind in 0usize..5,
            seed in any::<u64>(),
            per_round in 0.0f64..14.0,
            script in proptest::collection::vec(
                proptest::collection::vec(0usize..STREAMS + 3, 0..2 * STREAMS),
                1..7,
            ),
        ) {
            let threaded = threaded_config(seed);
            let (mut source, faults, quarantine) = source(kind, seed, &threaded);
            let config = EngineConfig {
                quarantine,
                faults,
                ..EngineConfig::new(SimConfig::default())
            };
            let mut engine = RoundEngine::inline(source.as_ref(), config);
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
