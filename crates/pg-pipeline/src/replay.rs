//! Gating pre-encoded (offline) streams — the paper's design goal 3.
//!
//! "Offline stored videos have been encoded with a certain video codec. An
//! ideal packet gating solution should be codec-agnostic and require no
//! additional transcoding overhead" (§2.4). This simulator replays
//! already-encoded packet sequences (e.g. parsed from `.pgv` files by
//! [`pg_codec::parse_stream`]) through the same gate → decode → infer →
//! feedback loop as the live round simulator. No re-encoding happens; the
//! gate sees exactly the stored packets.

use pg_codec::{Codec, Packet};
use pg_scene::{SceneState, TaskKind};

use crate::autopilot::Autopilot;
use crate::engine::{EngineConfig, Inbox, PacketSource, RoundEngine};
use crate::gate::GatePolicy;
use crate::metrics::RoundSimReport;
use crate::round::SimConfig;
use crate::telemetry::Telemetry;

/// The recorded packet source: round `t` delivers each stream's `t`-th
/// stored packet, re-stamped so multi-file replays don't clash.
pub(crate) struct RecordedSource {
    pub(crate) streams: Vec<(Codec, Vec<Packet>)>,
}

impl PacketSource for RecordedSource {
    fn lanes(&self) -> Vec<(TaskKind, Codec)> {
        let lane =
            |(codec, packets): &(Codec, Vec<Packet>)| (packets[0].scene.state.task(), *codec);
        self.streams.iter().map(lane).collect()
    }

    fn advance(&mut self, stream: usize, round: u64, inbox: &mut Inbox) -> Option<SceneState> {
        let mut packet = self.streams[stream].1[round as usize].clone();
        packet.meta.stream_id = stream as u32;
        let state = packet.scene.state;
        inbox.candidate = Some(packet.meta.seq);
        inbox.packets.push(packet);
        Some(state)
    }
}

/// Replays pre-encoded packet sequences under a gate. See module docs.
pub struct ReplaySimulator {
    source: RecordedSource,
    engine: EngineConfig,
}

impl ReplaySimulator {
    /// Build from per-stream packet sequences (one `Vec<Packet>` per
    /// stream, in decode order) and the codec each was encoded with.
    ///
    /// Panics if any stream is empty or its packets carry mixed tasks.
    pub fn new(streams: Vec<(Codec, Vec<Packet>)>, config: SimConfig) -> Self {
        assert!(!streams.is_empty(), "need at least one stream");
        for (i, (_, packets)) in streams.iter().enumerate() {
            assert!(!packets.is_empty(), "stream {i} is empty");
            let task = packets[0].scene.state.task();
            debug_assert!(
                packets.iter().all(|p| p.scene.state.task() == task),
                "stream {i} mixes tasks"
            );
        }
        ReplaySimulator {
            source: RecordedSource { streams },
            // A damaged file can repeat or reorder sequence numbers; such
            // packets are stranded and reported, never sat out, so the
            // default (quarantine disabled) stands.
            engine: EngineConfig::new(config),
        }
    }

    /// Attach a telemetry handle (see
    /// [`RoundSimulator::with_telemetry`](crate::round::RoundSimulator::with_telemetry)).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.engine.telemetry = telemetry;
        self
    }

    /// Attach an autopilot handle (see
    /// [`RoundSimulator::with_autopilot`](crate::round::RoundSimulator::with_autopilot)).
    /// Replays gate stored packets, so regime shifts live in the recording;
    /// the autopilot still recovers the gate when it detects them.
    pub fn with_autopilot(mut self, autopilot: Autopilot) -> Self {
        self.engine.autopilot = autopilot;
        self
    }

    /// Rounds available: the shortest stream's length.
    pub fn rounds_available(&self) -> u64 {
        self.source
            .streams
            .iter()
            .map(|(_, packets)| packets.len() as u64)
            .min()
            .unwrap_or(0)
    }

    /// Replay up to `max_rounds` rounds (clamped to the shortest stream).
    pub fn run(mut self, gate: &mut dyn GatePolicy, max_rounds: u64) -> RoundSimReport {
        let rounds = self.rounds_available().min(max_rounds);
        let mut engine = RoundEngine::inline(&self.source, self.engine);
        engine.run(&mut self.source, gate, rounds);
        engine.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::DecodeAll;
    use crate::round::{RoundSimulator, StreamSpec};
    use pg_codec::{Codec, CostModel, Encoder, EncoderConfig};
    use pg_scene::{generator_for, TaskKind};

    fn recorded_streams(m: usize, frames: usize) -> Vec<(Codec, Vec<Packet>)> {
        (0..m)
            .map(|i| {
                let enc = EncoderConfig::new(Codec::H264);
                let mut gen = generator_for(TaskKind::FireDetection, i as u64, enc.fps);
                let mut encoder = Encoder::for_stream(enc, i as u64, i as u32);
                let packets = (0..frames)
                    .map(|_| encoder.encode(&gen.next_frame()))
                    .collect();
                (Codec::H264, packets)
            })
            .collect()
    }

    #[test]
    fn replay_matches_live_simulation_exactly() {
        // Replaying the exact packets the live simulator would generate
        // (same seeds) must produce identical reports.
        let config = SimConfig {
            budget_per_round: 3.0,
            segments: 4,
            ..SimConfig::default()
        };
        let m = 6;
        let rounds = 200u64;

        let live_specs: Vec<StreamSpec> = (0..m)
            .map(|i| {
                StreamSpec::new(
                    TaskKind::FireDetection,
                    i as u64,
                    EncoderConfig::new(Codec::H264),
                )
            })
            .collect();
        // StreamSpec seeds the generator directly with i (not mixed), and
        // the encoder with (seed, stream_id) — replicate exactly.
        let recorded: Vec<(Codec, Vec<Packet>)> = (0..m)
            .map(|i| {
                let enc = EncoderConfig::new(Codec::H264);
                let mut gen = generator_for(TaskKind::FireDetection, i as u64, enc.fps);
                let mut encoder = Encoder::for_stream(enc, i as u64, i as u32);
                let packets = (0..rounds)
                    .map(|_| encoder.encode(&gen.next_frame()))
                    .collect();
                (Codec::H264, packets)
            })
            .collect();

        let live = RoundSimulator::new(live_specs, config).run(&mut DecodeAll, rounds);
        let replay = ReplaySimulator::new(recorded, config).run(&mut DecodeAll, rounds);
        assert_eq!(live.packets_decoded, replay.packets_decoded);
        assert!((live.cost_spent - replay.cost_spent).abs() < 1e-9);
        assert!((live.accuracy_overall() - replay.accuracy_overall()).abs() < 1e-12);
        // The whole report, not three aggregates: both modes are the same
        // engine over the same packets, so nothing may differ.
        assert_eq!(live.cost_spent.to_bits(), replay.cost_spent.to_bits());
        assert_eq!(live.packets_total, replay.packets_total);
        assert_eq!(live.packets_backfilled, replay.packets_backfilled);
        assert_eq!(live.accuracy.per_segment(), replay.accuracy.per_segment());
        assert_eq!(live.staleness.per_segment(), replay.staleness.per_segment());
        assert_eq!(live.staleness_overall(), replay.staleness_overall());
        assert_eq!(live.necessary_total, replay.necessary_total);
        assert_eq!(live.necessary_decoded, replay.necessary_decoded);
        assert_eq!(live.faults, replay.faults);
        assert_eq!(live.health, replay.health);
    }

    #[test]
    fn replay_clamps_to_shortest_stream() {
        let mut streams = recorded_streams(3, 100);
        streams[1].1.truncate(40);
        let sim = ReplaySimulator::new(streams, SimConfig::default());
        assert_eq!(sim.rounds_available(), 40);
        let report = sim.run(&mut DecodeAll, 1000);
        assert_eq!(report.rounds, 40);
    }

    #[test]
    fn replay_respects_budget() {
        let report = ReplaySimulator::new(
            recorded_streams(8, 150),
            SimConfig {
                budget_per_round: 2.0,
                segments: 4,
                ..SimConfig::default()
            },
        )
        .run(&mut DecodeAll, 150);
        assert!(report.filtering_rate() > 0.5);
        assert!(report.mean_cost_per_round() < 2.0 + CostModel::default().max_cost() * 4.0);
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn empty_input_panics() {
        let _ = ReplaySimulator::new(vec![], SimConfig::default());
    }
}
