//! Recoverable error taxonomy, per-stream quarantine, and deterministic
//! fault injection for the pipeline execution modes.
//!
//! PacketGame targets 1000+ concurrent camera streams, where corrupted
//! bitstreams, stalled decoders, and lost feedback are routine. A single
//! bad stream must never take the runtime down: instead of panicking, the
//! execution modes classify the failure as a [`PipelineError`], quarantine
//! the offending stream ([`StreamHealth`]), drop its in-flight closure, and
//! let the remaining m−1 streams keep their full budget share. After a
//! configurable cooldown ([`QuarantineConfig`]) the stream re-enters
//! gating; repeated failures re-quarantine it.
//!
//! [`FaultPlan`] is the deterministic injection side: seeded bit-flips and
//! truncations (via `pg_net::impair`) on serialized chunks, plus
//! in-process injectors for decoder stalls and dropped feedback, so every
//! degradation path is exercisable under test without randomness leaking
//! between runs.

use std::collections::BTreeMap;
use std::fmt;

use pg_scene::rng::mix;
use serde::Serialize;

use crate::telemetry::Telemetry;

/// Recoverable pipeline failure, classified by where in the pipeline it
/// occurred. Every variant names the stream it concerns where one exists;
/// [`PipelineError::StageDown`] is pipeline-wide.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The byte stream for one stream is damaged: header rejected or a
    /// packet record failed to parse. The parser resynchronizes past the
    /// damage; the lost records show up as sequence gaps.
    ParseCorrupt {
        /// Stream whose bitstream is damaged.
        stream_idx: usize,
        /// Byte offset of the damage within the stream, when known.
        offset: Option<u64>,
        /// Human-readable cause from the codec layer.
        reason: String,
    },
    /// The dependency tracker cannot produce a closure/cost for a packet
    /// (its references were lost to damage or never arrived).
    DependencyViolation {
        /// Stream concerned.
        stream_idx: usize,
        /// Sequence number whose closure is unavailable.
        seq: u64,
        /// What the tracker reported.
        detail: String,
    },
    /// Decoding a selected closure failed (missing reference mid-closure,
    /// or an injected/real decoder stall).
    DecodeFail {
        /// Stream concerned.
        stream_idx: usize,
        /// Round in which the decode was attempted.
        round: u64,
        /// Cause.
        detail: String,
    },
    /// A redundancy-feedback event was lost before reaching the optimizer.
    FeedbackLost {
        /// Stream whose feedback vanished.
        stream_idx: usize,
        /// Round the feedback was for.
        round: u64,
    },
    /// A pipeline stage thread died (panicked or was torn down abnormally).
    StageDown {
        /// Stage name (`producer`, `parse`, `decode`, `infer`).
        stage: &'static str,
        /// Whatever could be recovered about the cause.
        detail: String,
    },
    /// A live ingest connection feeding one stream dropped abruptly (no
    /// BYE). The stream is degraded, not dead: a reconnect within the
    /// gate's grace window resumes it without a round gap, otherwise the
    /// stall/quarantine lifecycle takes over.
    ConnectionLost {
        /// Stream whose feeding connection dropped.
        stream_idx: usize,
        /// First round not yet ingested when the link went down.
        round: u64,
        /// Close reason from the session server.
        detail: String,
    },
}

impl PipelineError {
    /// Classification of this error.
    pub fn kind(&self) -> FaultKind {
        match self {
            PipelineError::ParseCorrupt { .. } => FaultKind::ParseCorrupt,
            PipelineError::DependencyViolation { .. } => FaultKind::DependencyViolation,
            PipelineError::DecodeFail { .. } => FaultKind::DecodeFail,
            PipelineError::FeedbackLost { .. } => FaultKind::FeedbackLost,
            PipelineError::StageDown { .. } => FaultKind::StageDown,
            PipelineError::ConnectionLost { .. } => FaultKind::ConnectionLost,
        }
    }

    /// The stream this error concerns, if it is stream-scoped.
    pub fn stream_idx(&self) -> Option<usize> {
        match self {
            PipelineError::ParseCorrupt { stream_idx, .. }
            | PipelineError::DependencyViolation { stream_idx, .. }
            | PipelineError::DecodeFail { stream_idx, .. }
            | PipelineError::FeedbackLost { stream_idx, .. }
            | PipelineError::ConnectionLost { stream_idx, .. } => Some(*stream_idx),
            PipelineError::StageDown { .. } => None,
        }
    }

    /// Flatten into the serializable ledger form.
    pub fn to_record(&self) -> FaultRecord {
        let (round, detail) = match self {
            PipelineError::ParseCorrupt { offset, reason, .. } => (
                None,
                match offset {
                    Some(o) => format!("{reason} (at byte {o})"),
                    None => reason.clone(),
                },
            ),
            PipelineError::DependencyViolation { seq, detail, .. } => {
                (None, format!("seq {seq}: {detail}"))
            }
            PipelineError::DecodeFail { round, detail, .. } => (Some(*round), detail.clone()),
            PipelineError::FeedbackLost { round, .. } => (Some(*round), String::new()),
            PipelineError::StageDown { stage, detail } => (None, format!("{stage}: {detail}")),
            PipelineError::ConnectionLost { round, detail, .. } => {
                (Some(*round), detail.clone())
            }
        };
        FaultRecord {
            kind: self.kind().name().to_string(),
            stream_idx: self.stream_idx(),
            round,
            detail,
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::ParseCorrupt {
                stream_idx,
                offset,
                reason,
            } => match offset {
                Some(o) => write!(
                    f,
                    "stream {stream_idx}: corrupt bitstream at byte {o}: {reason}"
                ),
                None => write!(f, "stream {stream_idx}: corrupt bitstream: {reason}"),
            },
            PipelineError::DependencyViolation {
                stream_idx,
                seq,
                detail,
            } => write!(
                f,
                "stream {stream_idx}: dependency violation at seq {seq}: {detail}"
            ),
            PipelineError::DecodeFail {
                stream_idx,
                round,
                detail,
            } => write!(
                f,
                "stream {stream_idx}: decode failed in round {round}: {detail}"
            ),
            PipelineError::FeedbackLost { stream_idx, round } => {
                write!(f, "stream {stream_idx}: feedback lost for round {round}")
            }
            PipelineError::StageDown { stage, detail } => {
                write!(f, "stage {stage} down: {detail}")
            }
            PipelineError::ConnectionLost {
                stream_idx,
                round,
                detail,
            } => write!(
                f,
                "stream {stream_idx}: ingest connection lost before round {round}: {detail}"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

/// The six fault classes of the taxonomy, as a flat tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Damaged bitstream (header or record level).
    ParseCorrupt,
    /// Closure/cost unavailable for a packet.
    DependencyViolation,
    /// Decode of a selected closure failed.
    DecodeFail,
    /// Redundancy feedback never reached the optimizer.
    FeedbackLost,
    /// A stage thread died.
    StageDown,
    /// A live ingest connection dropped abruptly.
    ConnectionLost,
}

impl FaultKind {
    /// Stable snake_case name used in telemetry JSON and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::ParseCorrupt => "parse_corrupt",
            FaultKind::DependencyViolation => "dependency_violation",
            FaultKind::DecodeFail => "decode_fail",
            FaultKind::FeedbackLost => "feedback_lost",
            FaultKind::StageDown => "stage_down",
            FaultKind::ConnectionLost => "connection_lost",
        }
    }
}

/// Serializable, flattened form of one [`PipelineError`] for reports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultRecord {
    /// [`FaultKind::name`] of the error.
    pub kind: String,
    /// Stream concerned, when stream-scoped.
    pub stream_idx: Option<usize>,
    /// Round concerned, when known.
    pub round: Option<u64>,
    /// Free-form cause.
    pub detail: String,
}

/// How aggressively a failing stream is quarantined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantineConfig {
    /// Rounds a quarantined stream sits out before re-entering gating.
    pub cooldown_rounds: u64,
    /// Consecutive faults tolerated before quarantine triggers. `1` means
    /// the first fault quarantines; higher values forgive transient
    /// failures (a success resets the count).
    pub strikes: u32,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        QuarantineConfig {
            cooldown_rounds: 16,
            strikes: 1,
        }
    }
}

impl QuarantineConfig {
    /// Quarantine disabled: faults are recorded but streams never sit out.
    pub fn disabled() -> Self {
        QuarantineConfig {
            cooldown_rounds: 0,
            strikes: u32::MAX,
        }
    }

    /// Custom thresholds.
    pub fn new(cooldown_rounds: u64, strikes: u32) -> Self {
        QuarantineConfig {
            cooldown_rounds,
            strikes: strikes.max(1),
        }
    }
}

/// Per-stream health state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Health {
    /// In service; `strikes` consecutive faults so far.
    Healthy { strikes: u32 },
    /// Sitting out until (exclusive) the given round.
    Quarantined { until: u64 },
    /// Permanently out (unrecoverable, e.g. destroyed stream header).
    Dead,
}

/// Tracks which streams are in service, quarantined, or dead, and counts
/// degradation/recovery events for telemetry.
#[derive(Debug, Clone)]
pub struct StreamHealth {
    config: QuarantineConfig,
    state: Vec<Health>,
    ever_quarantined: Vec<bool>,
    degraded_events: u64,
    recovered_events: u64,
}

impl StreamHealth {
    /// All `m` streams healthy.
    pub fn new(m: usize, config: QuarantineConfig) -> Self {
        StreamHealth {
            config,
            state: vec![Health::Healthy { strikes: 0 }; m],
            ever_quarantined: vec![false; m],
            degraded_events: 0,
            recovered_events: 0,
        }
    }

    /// Number of streams tracked.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// True when no streams are tracked.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Whether stream `i` may participate in gating this round.
    pub fn is_active(&self, i: usize) -> bool {
        matches!(self.state.get(i), Some(Health::Healthy { .. }))
    }

    /// Whether stream `i` is permanently out.
    pub fn is_dead(&self, i: usize) -> bool {
        matches!(self.state.get(i), Some(Health::Dead))
    }

    /// Whether stream `i` is currently quarantined.
    pub fn is_quarantined(&self, i: usize) -> bool {
        matches!(self.state.get(i), Some(Health::Quarantined { .. }))
    }

    /// Streams currently out of gating (quarantined or dead) — the count
    /// the decision-quality monitor samples each round.
    pub fn sidelined_count(&self) -> u64 {
        self.state
            .iter()
            .filter(|s| !matches!(s, Health::Healthy { .. }))
            .count() as u64
    }

    /// Record a fault against stream `i` during `round`. Returns `true`
    /// when this fault pushed the stream over its strike budget and it is
    /// now (newly) quarantined.
    pub fn strike(&mut self, i: usize, round: u64) -> bool {
        let Some(state) = self.state.get_mut(i) else {
            return false;
        };
        match *state {
            Health::Healthy { strikes } => {
                let strikes = strikes.saturating_add(1);
                if strikes >= self.config.strikes {
                    *state = Health::Quarantined {
                        until: round.saturating_add(self.config.cooldown_rounds.max(1)),
                    };
                    self.ever_quarantined[i] = true;
                    self.degraded_events += 1;
                    true
                } else {
                    *state = Health::Healthy { strikes };
                    false
                }
            }
            // Already out; the fault is recorded by the caller's ledger but
            // does not re-degrade.
            Health::Quarantined { .. } | Health::Dead => false,
        }
    }

    /// A successful operation on stream `i` clears its strike count.
    pub fn clear_strikes(&mut self, i: usize) {
        if let Some(state) = self.state.get_mut(i) {
            if matches!(state, Health::Healthy { .. }) {
                *state = Health::Healthy { strikes: 0 };
            }
        }
    }

    /// Permanently remove stream `i` (unrecoverable damage). Counts as a
    /// degradation event the first time.
    pub fn kill(&mut self, i: usize) {
        if let Some(state) = self.state.get_mut(i) {
            if !matches!(state, Health::Dead) {
                if !self.ever_quarantined[i] {
                    self.ever_quarantined[i] = true;
                }
                self.degraded_events += 1;
                *state = Health::Dead;
            }
        }
    }

    /// Advance to `round`: streams whose cooldown has expired re-enter
    /// gating. Returns the indices that recovered this round.
    pub fn tick(&mut self, round: u64) -> Vec<usize> {
        let mut recovered = Vec::new();
        for (i, state) in self.state.iter_mut().enumerate() {
            if let Health::Quarantined { until } = *state {
                if round >= until {
                    *state = Health::Healthy { strikes: 0 };
                    self.recovered_events += 1;
                    recovered.push(i);
                }
            }
        }
        recovered
    }

    /// Total quarantine events so far.
    pub fn degraded_events(&self) -> u64 {
        self.degraded_events
    }

    /// Total cooldown-expiry recoveries so far.
    pub fn recovered_events(&self) -> u64 {
        self.recovered_events
    }

    /// Snapshot for reports.
    pub fn summary(&self) -> HealthSummary {
        HealthSummary {
            degraded_events: self.degraded_events,
            recovered_events: self.recovered_events,
            streams_ever_quarantined: self.ever_quarantined.iter().filter(|&&q| q).count() as u64,
            quarantined_at_end: self
                .state
                .iter()
                .filter(|s| matches!(s, Health::Quarantined { .. }))
                .count() as u64,
            dead_streams: self
                .state
                .iter()
                .filter(|s| matches!(s, Health::Dead))
                .count() as u64,
        }
    }
}

/// Serializable roll-up of a run's stream-health history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct HealthSummary {
    /// Times any stream entered quarantine (or died).
    pub degraded_events: u64,
    /// Times any stream's cooldown expired and it re-entered gating.
    pub recovered_events: u64,
    /// Distinct streams that were ever quarantined or killed.
    pub streams_ever_quarantined: u64,
    /// Streams still in quarantine when the run ended.
    pub quarantined_at_end: u64,
    /// Streams permanently removed (unrecoverable damage).
    pub dead_streams: u64,
}

/// How a planned chunk corruption damages the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkFaultMode {
    /// Flip one seeded bit (header fields, sync marker, or payload).
    BitFlip,
    /// Drop a seeded-length tail of the chunk (partial record; the
    /// remainder smears into the next chunk the parser sees).
    Truncate,
}

/// Deterministic fault-injection plan, keyed by `(stream, round)`.
///
/// All damage is derived from `seed` via `pg_scene::rng::mix`, so two runs
/// with the same plan inject byte-identical faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    corrupt_chunks: BTreeMap<(usize, u64), ChunkFaultMode>,
    corrupt_headers: Vec<usize>,
    decoder_stalls: BTreeMap<(usize, u64), ()>,
    dropped_feedback: BTreeMap<(usize, u64), ()>,
}

impl FaultPlan {
    /// Empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// True when nothing is scheduled (execution can skip the byte path).
    pub fn is_empty(&self) -> bool {
        self.corrupt_chunks.is_empty()
            && self.corrupt_headers.is_empty()
            && self.decoder_stalls.is_empty()
            && self.dropped_feedback.is_empty()
    }

    /// Schedule a chunk corruption for `stream` at `round`.
    pub fn with_corrupt(mut self, stream: usize, round: u64, mode: ChunkFaultMode) -> Self {
        self.corrupt_chunks.insert((stream, round), mode);
        self
    }

    /// Schedule destruction of `stream`'s header chunk (unrecoverable: the
    /// parser can never identify the stream, so it is killed).
    pub fn with_corrupt_header(mut self, stream: usize) -> Self {
        if !self.corrupt_headers.contains(&stream) {
            self.corrupt_headers.push(stream);
        }
        self
    }

    /// Schedule a decoder stall for `stream` at `round` (the selected
    /// closure is abandoned, nothing is decoded).
    pub fn with_decoder_stall(mut self, stream: usize, round: u64) -> Self {
        self.decoder_stalls.insert((stream, round), ());
        self
    }

    /// Schedule the loss of `stream`'s redundancy feedback for `round`.
    pub fn with_dropped_feedback(mut self, stream: usize, round: u64) -> Self {
        self.dropped_feedback.insert((stream, round), ());
        self
    }

    /// Damage `chunk` in place if a corruption is scheduled for
    /// `(stream, round)`. Returns `true` when damage was applied.
    pub fn corrupt_chunk(&self, stream: usize, round: u64, chunk: &mut Vec<u8>) -> bool {
        let Some(mode) = self.corrupt_chunks.get(&(stream, round)) else {
            return false;
        };
        let salt = mix(self.seed, mix(stream as u64 ^ 0x43_48_4B, round));
        match mode {
            ChunkFaultMode::BitFlip => pg_net::flip_bit_seeded(chunk, salt),
            ChunkFaultMode::Truncate => pg_net::truncate_seeded(chunk, salt),
        }
        true
    }

    /// Damage `header` in place if header destruction is scheduled for
    /// `stream`. The first byte is overwritten so the magic check fails
    /// deterministically. Returns `true` when damage was applied.
    pub fn corrupt_header(&self, stream: usize, header: &mut [u8]) -> bool {
        if !self.corrupt_headers.contains(&stream) {
            return false;
        }
        if let Some(b) = header.first_mut() {
            *b = !*b;
        }
        true
    }

    /// Whether a decoder stall is scheduled.
    pub fn stalls_decoder(&self, stream: usize, round: u64) -> bool {
        self.decoder_stalls.contains_key(&(stream, round))
    }

    /// Whether feedback loss is scheduled.
    pub fn drops_feedback(&self, stream: usize, round: u64) -> bool {
        self.dropped_feedback.contains_key(&(stream, round))
    }
}

/// Bound on how many [`FaultRecord`]s a run keeps verbatim; beyond this the
/// per-kind counters in telemetry still count everything.
pub const MAX_FAULT_RECORDS: usize = 1024;

/// Append `error` to `ledger` as a record, respecting the retention bound.
pub fn push_fault(ledger: &mut Vec<FaultRecord>, error: &PipelineError) {
    if ledger.len() < MAX_FAULT_RECORDS {
        ledger.push(error.to_record());
    }
}

/// One run's fault bookkeeping: the telemetry ledger, the bounded report
/// log and the per-stream quarantine state, updated together.
pub(crate) struct FaultLedger {
    pub telemetry: Telemetry,
    pub records: Vec<FaultRecord>,
    pub health: StreamHealth,
}

impl FaultLedger {
    /// All `m` streams healthy, nothing recorded.
    pub(crate) fn new(telemetry: Telemetry, m: usize, quarantine: QuarantineConfig) -> Self {
        FaultLedger {
            telemetry,
            records: Vec::new(),
            health: StreamHealth::new(m, quarantine),
        }
    }

    /// Record a classified fault and, when `strikes`, count it against
    /// the stream's quarantine budget.
    pub(crate) fn note(&mut self, error: &PipelineError, round: u64, strikes: bool) {
        self.telemetry.fault(error.kind(), error.stream_idx());
        push_fault(&mut self.records, error);
        if let Some(i) = error.stream_idx().filter(|_| strikes) {
            if self.health.strike(i, round) {
                self.telemetry.stream_degraded(i);
            }
        }
    }

    /// Record an unrecoverable fault: its stream is out for good.
    pub(crate) fn kill(&mut self, error: &PipelineError) {
        self.note(error, 0, false);
        if let Some(i) = error.stream_idx() {
            self.health.kill(i);
            self.telemetry.stream_degraded(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_kinds_and_streams() {
        let e = PipelineError::ParseCorrupt {
            stream_idx: 3,
            offset: Some(40),
            reason: "bad sync".into(),
        };
        assert_eq!(e.kind(), FaultKind::ParseCorrupt);
        assert_eq!(e.stream_idx(), Some(3));
        assert!(e.to_string().contains("stream 3"));
        let r = e.to_record();
        assert_eq!(r.kind, "parse_corrupt");
        assert_eq!(r.stream_idx, Some(3));
        assert!(r.detail.contains("40"));

        let e = PipelineError::StageDown {
            stage: "decode",
            detail: "panicked".into(),
        };
        assert_eq!(e.stream_idx(), None);
        assert_eq!(e.kind().name(), "stage_down");
    }

    #[test]
    fn quarantine_strike_cooldown_cycle() {
        let mut h = StreamHealth::new(3, QuarantineConfig::new(4, 2));
        assert!(h.is_active(1));
        // First strike is forgiven, second quarantines.
        assert!(!h.strike(1, 10));
        assert!(h.strike(1, 10));
        assert!(h.is_quarantined(1) && !h.is_active(1));
        assert_eq!(h.degraded_events(), 1);
        // Other streams untouched.
        assert!(h.is_active(0) && h.is_active(2));
        // Cooldown not yet expired.
        assert!(h.tick(12).is_empty());
        // Expiry re-admits the stream.
        assert_eq!(h.tick(14), vec![1]);
        assert!(h.is_active(1));
        assert_eq!(h.recovered_events(), 1);
        // Strikes were reset on recovery: one fault is forgiven again.
        assert!(!h.strike(1, 14));
        let s = h.summary();
        assert_eq!(s.streams_ever_quarantined, 1);
        assert_eq!(s.quarantined_at_end, 0);
    }

    #[test]
    fn success_clears_strikes() {
        let mut h = StreamHealth::new(1, QuarantineConfig::new(4, 2));
        assert!(!h.strike(0, 0));
        h.clear_strikes(0);
        assert!(!h.strike(0, 1), "strike count must restart after success");
    }

    #[test]
    fn dead_streams_never_recover() {
        let mut h = StreamHealth::new(2, QuarantineConfig::default());
        h.kill(0);
        assert!(h.is_dead(0) && !h.is_active(0));
        assert!(h.tick(1_000_000).is_empty());
        assert_eq!(h.summary().dead_streams, 1);
        // Killing twice counts one degradation.
        let events = h.degraded_events();
        h.kill(0);
        assert_eq!(h.degraded_events(), events);
    }

    #[test]
    fn disabled_quarantine_never_sidelines() {
        let mut h = StreamHealth::new(1, QuarantineConfig::disabled());
        for round in 0..1_000 {
            assert!(!h.strike(0, round));
        }
        assert!(h.is_active(0));
        assert_eq!(h.degraded_events(), 0);
    }

    #[test]
    fn fault_plan_is_deterministic() {
        let plan = FaultPlan::new(7).with_corrupt(2, 5, ChunkFaultMode::BitFlip);
        let mut a = vec![0x55u8; 64];
        let mut b = a.clone();
        assert!(plan.corrupt_chunk(2, 5, &mut a));
        assert!(plan.corrupt_chunk(2, 5, &mut b));
        assert_eq!(a, b);
        assert_ne!(a, vec![0x55u8; 64]);
        // Unscheduled coordinates are untouched.
        let mut c = vec![0x55u8; 64];
        assert!(!plan.corrupt_chunk(2, 6, &mut c));
        assert_eq!(c, vec![0x55u8; 64]);
    }

    #[test]
    fn fault_plan_truncate_shortens() {
        let plan = FaultPlan::new(9).with_corrupt(0, 0, ChunkFaultMode::Truncate);
        let mut chunk = vec![1u8; 80];
        assert!(plan.corrupt_chunk(0, 0, &mut chunk));
        assert!(!chunk.is_empty() && chunk.len() < 80);
    }

    #[test]
    fn fault_plan_injectors_and_emptiness() {
        assert!(FaultPlan::new(1).is_empty());
        let plan = FaultPlan::new(1)
            .with_decoder_stall(4, 10)
            .with_dropped_feedback(5, 11)
            .with_corrupt_header(6);
        assert!(!plan.is_empty());
        assert!(plan.stalls_decoder(4, 10) && !plan.stalls_decoder(4, 11));
        assert!(plan.drops_feedback(5, 11) && !plan.drops_feedback(5, 10));
        let mut header = vec![0xAB, 0xCD];
        assert!(plan.corrupt_header(6, &mut header));
        assert_eq!(header[0], !0xABu8);
        assert!(!plan.corrupt_header(7, &mut header));
    }

    #[test]
    fn ledger_respects_retention_bound() {
        let mut ledger = Vec::new();
        let e = PipelineError::FeedbackLost {
            stream_idx: 0,
            round: 0,
        };
        for _ in 0..MAX_FAULT_RECORDS + 10 {
            push_fault(&mut ledger, &e);
        }
        assert_eq!(ledger.len(), MAX_FAULT_RECORDS);
    }
}
