//! Golden bits of every way the contextual predictor trains.
//!
//! Offline `train` (single- and multi-task, conv, dense and recurrent
//! embeddings), the online step in `PacketGame::feedback` and the
//! autopilot's retrain rung must update the weights to exactly these bits
//! and report exactly these losses. A change to the training arithmetic
//! that moves one rounding shows here before it moves a decision golden.
//!
//! Each value is an FNV-1a hash over the bits of every `f32` of the
//! predictor's weight file, in file order.

use packetgame::training::{
    balance_dataset, build_offline_dataset, build_offline_dataset_with_task_id, test_config, train,
};
use packetgame::{ContextualPredictor, EmbeddingKind, OnlineConfig, PacketGame, PacketGameConfig};
use pg_codec::{Codec, EncoderConfig, FrameType, PacketMeta};
use pg_pipeline::gate::{FeedbackEvent, GatePolicy, PacketContext};
use pg_scene::rng::{mix, rng};
use pg_scene::TaskKind;
use rand::seq::SliceRandom;

fn weight_bits(p: &ContextualPredictor) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (_, values) in p.to_weight_file().entries() {
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn h264() -> EncoderConfig {
    EncoderConfig::new(Codec::H264)
}

#[test]
fn offline_single_task_training_is_pinned() {
    // `train_for_task(AnomalyDetection, &test_config(), 7)`, spelled out so
    // the final-epoch loss is visible too.
    let (config, seed) = (test_config(), 7);
    let samples = build_offline_dataset(TaskKind::AnomalyDetection, 6, 2500, h264(), &config, seed);
    let balanced = balance_dataset(&samples, seed);
    let cut = (balanced.len() as f64 * 0.8) as usize;
    let mut predictor = ContextualPredictor::new(config.clone().with_seed(seed));
    let loss = train(&mut predictor, &balanced[..cut.max(1)], &config);
    assert_eq!(
        (weight_bits(&predictor), loss.to_bits()),
        (GOLDEN_SINGLE_TASK, GOLDEN_SINGLE_TASK_LOSS),
        "single-task training moved: weights {:#018x}, loss {:#010x} ({loss})",
        weight_bits(&predictor),
        loss.to_bits()
    );
}

#[test]
fn offline_two_head_training_is_pinned() {
    // `train_multi_task(&[PersonCounting, AnomalyDetection], .., 6)` at two
    // epochs: each sample's gradient is zero on the other head.
    let mut config = test_config();
    config.epochs = 2;
    let tasks = [TaskKind::PersonCounting, TaskKind::AnomalyDetection];
    let seed = 6;
    let config = config.with_tasks(tasks.len());
    let mut all = Vec::new();
    for (id, &task) in tasks.iter().enumerate() {
        let samples = build_offline_dataset_with_task_id(
            task,
            id,
            6,
            2500,
            h264(),
            &config,
            mix(seed, id as u64),
        );
        all.extend(balance_dataset(&samples, mix(seed, 100 + id as u64)));
    }
    all.shuffle(&mut rng(seed, 0x4D54));
    let mut predictor = ContextualPredictor::new(config.clone().with_seed(seed));
    let loss = train(&mut predictor, &all, &config);
    assert_eq!(
        (weight_bits(&predictor), loss.to_bits()),
        (GOLDEN_TWO_HEAD, GOLDEN_TWO_HEAD_LOSS),
        "two-head training moved: weights {:#018x}, loss {:#010x} ({loss})",
        weight_bits(&predictor),
        loss.to_bits()
    );
}

#[test]
fn offline_dense_and_rnn_embeddings_are_pinned() {
    for (kind, golden, golden_loss) in [
        (EmbeddingKind::Dense, GOLDEN_DENSE, GOLDEN_DENSE_LOSS),
        (EmbeddingKind::Rnn, GOLDEN_RNN, GOLDEN_RNN_LOSS),
    ] {
        let config = PacketGameConfig {
            embedding: kind,
            epochs: 2,
            batch_size: 64,
            ..test_config()
        };
        let samples = build_offline_dataset(TaskKind::AnomalyDetection, 2, 400, h264(), &config, 3);
        let balanced = balance_dataset(&samples, 3);
        let mut predictor = ContextualPredictor::new(config.clone());
        let loss = train(&mut predictor, &balanced, &config);
        assert_eq!(
            (weight_bits(&predictor), loss.to_bits()),
            (golden, golden_loss),
            "{kind:?} training moved: weights {:#018x}, loss {:#010x} ({loss})",
            weight_bits(&predictor),
            loss.to_bits()
        );
    }
}

/// One packet per stream, 10-frame GOPs with stream- and round-dependent
/// sizes, unit decode cost (the `select_alloc.rs` round).
fn fill_round(candidates: &mut Vec<PacketContext>, m: usize, round: u64) {
    candidates.clear();
    candidates.extend((0..m).map(|s| {
        let intra = round.is_multiple_of(10);
        let size =
            if intra { 30_000 } else { 2_000 } + ((s as u64 * 37 + round * 11) % 1_500) as u32;
        PacketContext {
            stream_idx: s,
            meta: PacketMeta {
                stream_id: s as u32,
                seq: round,
                pts: round,
                frame_type: if intra { FrameType::I } else { FrameType::P },
                size,
                gop_id: round / 10,
            },
            pending_cost: 1.0,
            codec: Codec::H264,
            oracle_necessary: None,
        }
    }));
}

/// Run one select + feedback round; every kept stream reports a label.
fn round_trip(
    gate: &mut PacketGame,
    candidates: &mut Vec<PacketContext>,
    m: usize,
    budget: f64,
    round: u64,
) {
    fill_round(candidates, m, round);
    let kept = gate.select(round, candidates, budget);
    let events: Vec<FeedbackEvent> = kept
        .iter()
        .map(|&s| FeedbackEvent {
            stream_idx: s,
            round,
            necessary: (s as u64 * 7 + round).is_multiple_of(3),
        })
        .collect();
    gate.feedback(&events);
}

#[test]
fn five_hundred_online_steps_are_pinned() {
    let m = 1024;
    let config = test_config();
    let mut gate = PacketGame::new(config.clone(), ContextualPredictor::new(config));
    gate.enable_online_learning(OnlineConfig::default());
    let mut candidates = Vec::with_capacity(m);
    let mut round = 0;
    while gate.online_steps() < 500 {
        round_trip(&mut gate, &mut candidates, m, (m / 4) as f64, round);
        round += 1;
    }
    assert_eq!(gate.online_steps(), 500);
    assert_eq!(
        (round, weight_bits(gate.predictor())),
        (GOLDEN_ONLINE_ROUNDS, GOLDEN_ONLINE),
        "online learning moved: {round} rounds, weights {:#018x}",
        weight_bits(gate.predictor())
    );
}

#[test]
fn one_retrain_on_a_full_ring_is_pinned() {
    // Eight streams, all kept every round: after 100 rounds stream 0's
    // ring holds its last 96 samples.
    let m = 8;
    let config = test_config();
    let mut gate = PacketGame::new(config.clone(), ContextualPredictor::new(config));
    gate.enable_online_learning(OnlineConfig::default());
    let mut candidates = Vec::with_capacity(m);
    for round in 0..100 {
        round_trip(&mut gate, &mut candidates, m, m as f64, round);
    }
    let before = weight_bits(gate.predictor());
    let steps = gate.online_steps();
    assert!(gate.autopilot_retrain(0), "ring populated: must retrain");
    assert_eq!(
        (steps, before, weight_bits(gate.predictor())),
        (
            GOLDEN_RETRAIN_STEPS,
            GOLDEN_RETRAIN_BEFORE,
            GOLDEN_RETRAIN_AFTER
        ),
        "retrain moved: {steps} steps, before {before:#018x}, after {:#018x}",
        weight_bits(gate.predictor())
    );
}

const GOLDEN_SINGLE_TASK: u64 = 0x24aa_1ab0_3f54_aa92;
const GOLDEN_SINGLE_TASK_LOSS: u32 = 0x3d9f_0276;
const GOLDEN_TWO_HEAD: u64 = 0x9a62_2720_f3d7_8a56;
const GOLDEN_TWO_HEAD_LOSS: u32 = 0x3eb0_5750;
const GOLDEN_DENSE: u64 = 0xbb32_0af3_b585_0664;
const GOLDEN_DENSE_LOSS: u32 = 0x3f23_6f79;
const GOLDEN_RNN: u64 = 0xb08d_0658_c888_b488;
const GOLDEN_RNN_LOSS: u32 = 0x3f22_f579;
const GOLDEN_ONLINE_ROUNDS: u64 = 500;
const GOLDEN_ONLINE: u64 = 0xefd8_81aa_8e5d_be8a;
const GOLDEN_RETRAIN_STEPS: u64 = 12;
const GOLDEN_RETRAIN_BEFORE: u64 = 0x9688_27cd_93dd_edc1;
const GOLDEN_RETRAIN_AFTER: u64 = 0x5353_57cf_9e27_add9;
