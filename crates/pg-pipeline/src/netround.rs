//! Round-based gating over **networked** streams.
//!
//! The plain [`round`](crate::round) simulator hands the gate one packet
//! per stream per round. Real ingest is messier: packets ride a lossy,
//! jittery network, so at any round a stream may contribute zero packets
//! (lost or still in flight) or several (a jitter burst). This simulator
//! drives [`pg_net::NetworkedStream`]s and presents whatever actually
//! arrived to the [`GatePolicy`] — candidates are a *subset* of streams
//! each round, which the gate interface already supports.
//!
//! Accuracy is still scored against the sender-side ground truth (every
//! frame that was encoded), so transport loss shows up as an accuracy
//! penalty the gate cannot avoid — only contain.

use pg_codec::{Codec, CostModel, EncoderConfig};
use pg_inference::accuracy::OnlineAccuracy;
use pg_net::{ImpairmentConfig, NetworkedStream, ReassemblyConfig};
use pg_scene::{SceneState, TaskKind};

use crate::autopilot::Autopilot;
use crate::engine::{EngineConfig, Inbox, PacketSource, RoundEngine};
use crate::fault::{FaultRecord, HealthSummary, QuarantineConfig};
use crate::gate::GatePolicy;
use crate::round::SimConfig;
use crate::telemetry::{Telemetry, TelemetrySnapshot};

/// Transport selection for a networked simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Raw datagrams: losses become parser holes and undecodable packets.
    Raw,
    /// Selective-repeat ARQ: losses become delivery latency.
    Arq,
}

/// Report from a networked gating run.
#[derive(Debug, Clone)]
pub struct NetworkedSimReport {
    /// Gate policy name.
    pub policy: String,
    /// Streams simulated.
    pub streams: usize,
    /// Rounds simulated.
    pub rounds: u64,
    /// Frames encoded at the senders (= streams × rounds).
    pub frames_sent: u64,
    /// Packets that arrived and parsed at the receivers.
    pub packets_arrived: u64,
    /// Packets decoded (gate-selected and reference-complete).
    pub packets_decoded: u64,
    /// Gate-selected packets that could not decode (references lost in
    /// transit).
    pub undecodable: u64,
    /// Accuracy vs sender-side ground truth.
    pub accuracy: OnlineAccuracy,
    /// Classified faults observed during the run (bounded; see
    /// [`crate::fault::MAX_FAULT_RECORDS`]).
    pub faults: Vec<FaultRecord>,
    /// Stream-health roll-up (degraded/recovered/dead counts).
    pub health: HealthSummary,
    /// Per-stage telemetry, when a handle was attached (`None` otherwise).
    pub telemetry: Option<TelemetrySnapshot>,
}

impl NetworkedSimReport {
    /// Overall accuracy.
    pub fn accuracy_overall(&self) -> f64 {
        self.accuracy.overall()
    }

    /// End-to-end packet delivery rate.
    pub fn delivery_rate(&self) -> f64 {
        self.packets_arrived as f64 / self.frames_sent.max(1) as f64
    }
}

/// The simulated-link packet source: every round each sender encodes one
/// frame and whatever the network delivered is ingested. The newest
/// arrival is the candidate.
pub(crate) struct LinkSource {
    links: Vec<NetworkedStream>,
    task: TaskKind,
    codec: Codec,
}

impl PacketSource for LinkSource {
    fn lanes(&self) -> Vec<(TaskKind, Codec)> {
        vec![(self.task, self.codec); self.links.len()]
    }

    fn advance(&mut self, stream: usize, _round: u64, inbox: &mut Inbox) -> Option<SceneState> {
        let (frame, packets) = self.links[stream].tick_full();
        // The newest arrival is the candidate. Its references may have
        // been lost in transit; only decode can tell, so it is offered at
        // its nominal cost and, if stranded, fails there as undecodable.
        let newest = packets.last().map(|p| p.meta);
        inbox.candidate = newest.map(|meta| meta.seq);
        inbox.nominal_cost = newest.map(|meta| CostModel::default().cost(meta.frame_type));
        inbox.packets.extend(packets);
        Some(frame.state)
    }
}

/// The networked round simulator. See module docs.
pub struct NetworkedRoundSimulator {
    pub(crate) source: LinkSource,
    engine: EngineConfig,
}

impl NetworkedRoundSimulator {
    /// `m` homogeneous networked streams of `task` over the given link.
    pub fn new(
        task: TaskKind,
        m: usize,
        seed: u64,
        encoder: EncoderConfig,
        impairments: ImpairmentConfig,
        transport: Transport,
        budget_per_round: f64,
    ) -> Self {
        let links = (0..m)
            .map(|i| {
                let stream_seed = pg_scene::rng::mix(seed, i as u64);
                match transport {
                    Transport::Raw => NetworkedStream::with_config(
                        task,
                        stream_seed,
                        encoder,
                        impairments,
                        ReassemblyConfig::default(),
                    ),
                    Transport::Arq => {
                        NetworkedStream::with_arq(task, stream_seed, encoder, impairments)
                    }
                }
            })
            .collect();
        NetworkedRoundSimulator {
            source: LinkSource {
                links,
                task,
                codec: encoder.codec,
            },
            engine: EngineConfig {
                // Transport loss is routine here, so a stream must strand
                // several consecutive closures before it is quarantined;
                // the cooldown is about one GOP, when an I-frame can
                // rebuild it.
                quarantine: QuarantineConfig::new(12, 3),
                ..EngineConfig::new(SimConfig {
                    budget_per_round,
                    segments: 12,
                    ..SimConfig::default()
                })
            },
        }
    }

    /// Attach an autopilot handle (see
    /// [`RoundSimulator::with_autopilot`](crate::round::RoundSimulator::with_autopilot)).
    pub fn with_autopilot(mut self, autopilot: Autopilot) -> Self {
        self.engine.autopilot = autopilot;
        self
    }

    /// Override the quarantine thresholds for failing streams.
    pub fn with_quarantine(mut self, quarantine: QuarantineConfig) -> Self {
        self.engine.quarantine = quarantine;
        self
    }

    /// Attach a telemetry handle (see
    /// [`RoundSimulator::with_telemetry`](crate::round::RoundSimulator::with_telemetry)).
    /// The network+parse advance of each round is timed as the parse stage.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.engine.telemetry = telemetry;
        self
    }

    /// Run `rounds` rounds under `gate`.
    pub fn run(mut self, gate: &mut dyn GatePolicy, rounds: u64) -> NetworkedSimReport {
        let mut engine = RoundEngine::inline(&self.source, self.engine);
        engine.run(&mut self.source, gate, rounds);
        let (packets_arrived, undecodable) = (engine.arrived, engine.undecodable);
        let report = engine.finish();
        NetworkedSimReport {
            policy: report.policy,
            streams: report.streams,
            rounds,
            frames_sent: report.packets_total,
            packets_arrived,
            packets_decoded: report.packets_decoded,
            undecodable,
            accuracy: report.accuracy,
            faults: report.faults,
            health: report.health,
            telemetry: report.telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::DecodeAll;

    fn sim(
        impairments: ImpairmentConfig,
        transport: Transport,
        budget: f64,
    ) -> NetworkedRoundSimulator {
        NetworkedRoundSimulator::new(
            TaskKind::AnomalyDetection,
            6,
            3,
            EncoderConfig::new(Codec::H264).with_gop(12),
            impairments,
            transport,
            budget,
        )
    }

    #[test]
    fn perfect_network_behaves_like_plain_rounds() {
        let report = sim(ImpairmentConfig::perfect(), Transport::Raw, 1e9).run(&mut DecodeAll, 300);
        assert!(report.delivery_rate() > 0.98);
        assert!(report.accuracy_overall() > 0.95);
        assert_eq!(report.undecodable, 0);
        assert!(report.faults.is_empty());
        assert_eq!(report.health.degraded_events, 0);
    }

    #[test]
    fn heavy_loss_quarantines_and_recovers_streams() {
        let report =
            sim(ImpairmentConfig::lossy(0.15), Transport::Raw, 1e9).run(&mut DecodeAll, 400);
        assert!(
            report.health.degraded_events > 0,
            "persistent stranding must quarantine"
        );
        assert!(report.health.recovered_events > 0, "cooldowns must expire");
        assert_eq!(report.health.dead_streams, 0);
        assert!(report.faults.iter().all(|f| f.kind == "decode_fail"));
    }

    #[test]
    fn raw_loss_creates_undecodable_packets() {
        let report =
            sim(ImpairmentConfig::lossy(0.05), Transport::Raw, 1e9).run(&mut DecodeAll, 500);
        assert!(report.delivery_rate() < 0.95);
        assert!(
            report.undecodable > 0,
            "lost references must strand packets"
        );
        assert!(report.accuracy_overall() < 0.97);
    }

    #[test]
    fn arq_transport_restores_accuracy() {
        let raw = sim(ImpairmentConfig::lossy(0.05), Transport::Raw, 1e9).run(&mut DecodeAll, 500);
        let arq = sim(ImpairmentConfig::lossy(0.05), Transport::Arq, 1e9).run(&mut DecodeAll, 500);
        assert!(
            arq.accuracy_overall() > raw.accuracy_overall(),
            "ARQ {:.3} should beat raw {:.3}",
            arq.accuracy_overall(),
            raw.accuracy_overall()
        );
        assert!(arq.delivery_rate() > raw.delivery_rate());
    }

    #[test]
    fn budget_still_binds_over_the_network() {
        let tight = sim(ImpairmentConfig::perfect(), Transport::Raw, 1.5).run(&mut DecodeAll, 300);
        let loose = sim(ImpairmentConfig::perfect(), Transport::Raw, 1e9).run(&mut DecodeAll, 300);
        assert!(tight.packets_decoded < loose.packets_decoded);
        assert!(tight.accuracy_overall() <= loose.accuracy_overall());
    }
}
