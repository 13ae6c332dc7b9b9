//! Golden pins for the lockstep execution modes.
//!
//! Every value below was captured at commit `fd071c5`, when each mode
//! still carried its own copy of the round loop. The modes now share one
//! engine (DESIGN.md D14); these pins hold the refactor to bit-identical
//! reports. A change that moves one of them changed a decision, a charge
//! or a fault somewhere in the shared loop — find out which before
//! touching the expected string.

use packetgame::training::{test_config, train_for_task};
use packetgame::{ContextualPredictor, OnlineConfig, PacketGame, PacketGameConfig};
use pg_codec::{Codec, Encoder, EncoderConfig, Packet};
use pg_net::ImpairmentConfig;
use pg_pipeline::cluster::{ClusterSim, ClusterSimConfig, MigrationPlan};
use pg_pipeline::fault::{ChunkFaultMode, FaultPlan, QuarantineConfig};
use pg_pipeline::netround::Transport;
use pg_pipeline::{
    Autopilot, AutopilotConfig, GatePolicy, HealthSummary, Insight, NetworkedRoundSimulator,
    NetworkedSimReport, RegimeShift, ReplaySimulator, RoundSimReport, RoundSimulator, SimConfig,
    Telemetry,
};
use pg_scene::{generator_for, TaskKind};

fn trained_gate(task: TaskKind, seed: u64) -> PacketGame {
    let config = test_config();
    PacketGame::new(config.clone(), train_for_task(task, &config, seed))
}

fn bits(values: &[f64]) -> Vec<String> {
    values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect()
}

fn health(h: &HealthSummary) -> String {
    format!(
        "{}/{}/{}/{}/{}",
        h.degraded_events,
        h.recovered_events,
        h.streams_ever_quarantined,
        h.quarantined_at_end,
        h.dead_streams
    )
}

fn round_pin(r: &RoundSimReport) -> String {
    format!(
        "decoded={} backfilled={} cost={:016x} acc={:016x} segs={:?} stale={:016x} \
         necessary={}/{} faults={} health={}",
        r.packets_decoded,
        r.packets_backfilled,
        r.cost_spent.to_bits(),
        r.accuracy_overall().to_bits(),
        bits(&r.accuracy.per_segment()),
        r.staleness_overall().to_bits(),
        r.necessary_decoded,
        r.necessary_total,
        r.faults.len(),
        health(&r.health),
    )
}

fn net_pin(r: &NetworkedSimReport) -> String {
    format!(
        "arrived={} decoded={} undecodable={} acc={:016x} segs={:?} faults={} health={}",
        r.packets_arrived,
        r.packets_decoded,
        r.undecodable,
        r.accuracy_overall().to_bits(),
        bits(&r.accuracy.per_segment()),
        r.faults.len(),
        health(&r.health),
    )
}

/// FNV-1a, so a whole decision bitmap or state blob pins as one word.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn sim_config(budget: f64) -> SimConfig {
    SimConfig {
        budget_per_round: budget,
        segments: 6,
        ..SimConfig::default()
    }
}

#[test]
fn round_simulator_clean_under_packetgame() {
    let task = TaskKind::AnomalyDetection;
    let report =
        RoundSimulator::uniform(task, 12, 5, sim_config(4.0)).run(&mut trained_gate(task, 9), 240);
    assert_eq!(
        round_pin(&report),
        "decoded=930 backfilled=30 cost=409031745d1745d0 acc=3fefad82d82d82d8 \
         segs=[\"3ff0000000000000\", \"3ff0000000000000\", \"3fef888888888889\", \
         \"3ff0000000000000\", \"3fee888888888889\", \"3ff0000000000000\"] \
         stale=3fec3e93e93e93e9 necessary=107/136 faults=0 health=0/0/0/0/0"
    );
}

#[test]
fn round_simulator_under_faults_and_quarantine() {
    let task = TaskKind::PersonCounting;
    let mut plan = FaultPlan::new(11).with_corrupt_header(1);
    for (stream, round) in [(2, 30), (5, 100), (6, 140)] {
        plan = plan.with_corrupt(stream, round, ChunkFaultMode::Truncate);
    }
    for (stream, round) in [(4, 75), (7, 20), (3, 160), (0, 61), (6, 33)] {
        plan = plan.with_corrupt(stream, round, ChunkFaultMode::BitFlip);
    }
    for (stream, round) in [(0, 50), (2, 51), (5, 52), (0, 120)] {
        plan = plan.with_decoder_stall(stream, round);
    }
    for (stream, round) in [(3, 90), (6, 91), (7, 92)] {
        plan = plan.with_dropped_feedback(stream, round);
    }
    let report = RoundSimulator::uniform(task, 8, 21, sim_config(10.0))
        .with_faults(plan)
        .with_quarantine(QuarantineConfig::new(8, 1))
        .run(&mut trained_gate(task, 4), 200);
    assert_eq!(
        round_pin(&report),
        "decoded=1268 backfilled=41 cost=4096105d1745d176 acc=3fefc7ae147ae148 \
         segs=[\"3fef878787878788\", \"3ff0000000000000\", \"3ff0000000000000\", \
         \"3fefa5a5a5a5a5a6\", \"3fef83e0f83e0f84\", \"3ff0000000000000\"] \
         stale=3feb947ae147ae14 necessary=60/71 faults=14 health=11/10/5/0/1"
    );
}

#[test]
fn round_simulator_regime_shift_with_autopilot() {
    let config = PacketGameConfig::default().with_seed(7);
    let mut gate = PacketGame::new(config.clone(), ContextualPredictor::new(config));
    gate.enable_online_learning(OnlineConfig::default());
    let autopilot = Autopilot::enabled(AutopilotConfig::default());
    let telemetry = Telemetry::enabled()
        .with_insight(Insight::enabled())
        .with_autopilot(autopilot.clone());
    let sim = SimConfig {
        regime_shift: Some(RegimeShift::all(150, 3.0)),
        ..sim_config(6.0)
    };
    let report = RoundSimulator::uniform(TaskKind::SuperResolution, 8, 41, sim)
        .with_telemetry(telemetry)
        .with_autopilot(autopilot.clone())
        .run(&mut gate, 280);
    let snap = autopilot.snapshot().expect("enabled autopilot snapshots");
    assert_eq!(
        format!(
            "{} ladder={}/{}/{}/{}",
            round_pin(&report),
            snap.fallbacks,
            snap.estimator_resets,
            snap.retrains,
            snap.restores
        ),
        "decoded=1880 backfilled=80 cost=40a0985d1745d17a acc=3fef457c57c57c58 \
         segs=[\"3feeb9310572620b\", \"3feddf51b3bea367\", \"3fef0b21642c8591\", \
         \"3ff0000000000000\", \"3ff0000000000000\", \"3ff0000000000000\"] \
         stale=3feeaf8af8af8af9 necessary=781/832 faults=0 health=0/0/0/0/0 ladder=8/8/8/8"
    );
}

#[test]
fn replay_simulator() {
    let task = TaskKind::FireDetection;
    let recorded: Vec<(Codec, Vec<Packet>)> = (0..6u64)
        .map(|i| {
            let enc = EncoderConfig::new(Codec::H265);
            let mut generator = generator_for(task, 30 + i, enc.fps);
            let mut encoder = Encoder::for_stream(enc, 30 + i, i as u32);
            let packets = (0..180)
                .map(|_| encoder.encode(&generator.next_frame()))
                .collect();
            (Codec::H265, packets)
        })
        .collect();
    let report =
        ReplaySimulator::new(recorded, sim_config(2.5)).run(&mut trained_gate(task, 2), 180);
    assert_eq!(
        round_pin(&report),
        "decoded=516 backfilled=24 cost=40824e8ba2e8ba2c acc=3feee759203cae76 \
         segs=[\"3ff0000000000000\", \"3ff0000000000000\", \"3ff0000000000000\", \
         \"3feec16c16c16c17\", \"3fee93e93e93e93f\", \"3fec16c16c16c16c\"] \
         stale=3fec9f49f49f49f5 necessary=240/277 faults=0 health=0/0/0/0/0"
    );
}

fn net_report(loss: f64, transport: Transport, gate: &mut dyn GatePolicy) -> NetworkedSimReport {
    NetworkedRoundSimulator::new(
        TaskKind::AnomalyDetection,
        6,
        3,
        EncoderConfig::new(Codec::H264).with_gop(12),
        ImpairmentConfig::lossy(loss),
        transport,
        // Non-binding, so every offered closure is picked: the one case
        // where D14's strike-clearing rule differs from the old netround
        // loop (a struck stream offers a whole closure the gate skips)
        // cannot arise.
        1e9,
    )
    .run(gate, 300)
}

#[test]
fn networked_simulator_raw_and_arq() {
    let task = TaskKind::AnomalyDetection;
    assert_eq!(
        net_pin(&net_report(
            0.10,
            Transport::Raw,
            &mut trained_gate(task, 6)
        )),
        "arrived=623 decoded=48 undecodable=75 acc=3fedfdb97530eca8 \
         segs=[\"3ff0000000000000\", \"3ff0000000000000\", \"3ff0000000000000\", \
         \"3ff0000000000000\", \"3ff0000000000000\", \"3ff0000000000000\", \
         \"3ff0000000000000\", \"3fec962fc962fc96\", \"3feae147ae147ae1\", \
         \"3feae147ae147ae1\", \"3feae147ae147ae1\", \"3feaaaaaaaaaaaab\"] faults=75 \
         health=8/8/4/0/0"
    );
    assert_eq!(
        net_pin(&net_report(
            0.05,
            Transport::Arq,
            &mut trained_gate(task, 6)
        )),
        "arrived=1799 decoded=1087 undecodable=0 acc=3fef4e81b4e81b4f \
         segs=[\"3ff0000000000000\", \"3ff0000000000000\", \"3ff0000000000000\", \
         \"3ff0000000000000\", \"3ff0000000000000\", \"3ff0000000000000\", \
         \"3ff0000000000000\", \"3fef92c5f92c5f93\", \"3feda740da740da7\", \
         \"3fef5c28f5c28f5c\", \"3febbbbbbbbbbbbc\", \"3fef5c28f5c28f5c\"] faults=0 \
         health=0/0/0/0/0"
    );
}

#[test]
fn cluster_sim_with_two_migrations() {
    let task = TaskKind::PersonCounting;
    let report = ClusterSim::new(ClusterSimConfig {
        instances: 2,
        streams: 7,
        rounds: 90,
        budget_total: 5.0,
        task,
        seed: 13,
        migrations: vec![
            MigrationPlan {
                round: 25,
                stream: 1,
                to: 1,
            },
            MigrationPlan {
                round: 60,
                stream: 5,
                to: 0,
            },
        ],
        ..ClusterSimConfig::default()
    })
    .run(vec![
        Box::new(trained_gate(task, 8)),
        Box::new(trained_gate(task, 8)),
    ]);
    let decisions = fnv(report.decoded.iter().flatten().map(|&d| u8::from(d)));
    let state = fnv(report
        .final_state
        .iter()
        .flat_map(|s| s.clone().unwrap_or_default()));
    assert_eq!(
        format!(
            "offered={} decoded={} cost={:016x} handoffs={}/{}/{}/{} owner={:?} \
             decisions={decisions:016x} state={state:016x}",
            report.offered,
            report.decoded_total,
            report.cost_spent.to_bits(),
            report.handoffs,
            report.handoff_bytes,
            report.handoff_acks,
            report.handoff_imports,
            report.final_owner,
        ),
        "offered=630 decoded=516 cost=40824e8ba2e8ba2e handoffs=2/659/2/2 owner=[0, 1, 0, 0, \
         1, 0, 1] decisions=3220dba548892021 state=4758065eb1279e9e"
    );
}
