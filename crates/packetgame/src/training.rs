//! Offline training of the contextual predictor (paper §5.2/§6.1).
//!
//! "As a proof of concept and considering the implementation efficiency, we
//! first train the contextual predictor using offline inference records.
//! Then we transform the trained weights into a binary runtime file and
//! deploy it for real-time packet gating (no online parameter update)."
//!
//! An *offline inference record* is, per stream and frame: the packet
//! metadata (already parsed) and the redundancy label the inference model
//! produced. [`build_offline_dataset`] replays synthetic streams to build
//! exactly that; [`train`] fits the predictor with RMSprop + BCE, one
//! shuffled mini-batch at a time through
//! [`ContextualPredictor::train_step`] — the same batched step online
//! fine-tuning and the autopilot's retrain rung take. Only one mini-batch
//! is staged at a time, so training memory does not grow with the dataset.

use pg_codec::{Encoder, EncoderConfig};
use pg_nn::optim::RmsProp;
use pg_scene::rng::{mix, rng};
use pg_scene::{generator_for, TaskKind};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::config::PacketGameConfig;
use crate::context::FeatureWindows;
use crate::predictor::{ContextualPredictor, TrainBatch};

/// One training sample: the three predictor views plus the label.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSample {
    /// View 1: independent-frame size window.
    pub view_i: Vec<f32>,
    /// View 2: predicted-frame size window.
    pub view_p: Vec<f32>,
    /// View 3: temporal estimate at this frame.
    pub temporal: f32,
    /// Redundancy label (1 = necessary).
    pub label: f32,
    /// Task head this sample trains (multi-task extension).
    pub task_id: usize,
}

/// Replay `streams` synthetic streams of `task` for `frames` frames each
/// and emit one sample per frame (after a warm-up of one window length).
///
/// The temporal feature is the windowed mean of the previous `w` labels —
/// offline records contain feedback for every frame, mirroring the paper's
/// training on complete inference records.
pub fn build_offline_dataset(
    task: TaskKind,
    streams: usize,
    frames: usize,
    encoder_config: EncoderConfig,
    config: &PacketGameConfig,
    seed: u64,
) -> Vec<TrainSample> {
    build_offline_dataset_with_task_id(task, 0, streams, frames, encoder_config, config, seed)
}

/// [`build_offline_dataset`] with an explicit task head id (multi-task).
pub fn build_offline_dataset_with_task_id(
    task: TaskKind,
    task_id: usize,
    streams: usize,
    frames: usize,
    encoder_config: EncoderConfig,
    config: &PacketGameConfig,
    seed: u64,
) -> Vec<TrainSample> {
    let w = config.window;
    let mut samples = Vec::with_capacity(streams * frames.saturating_sub(w));
    for s in 0..streams {
        let stream_seed = mix(seed, s as u64);
        let mut generator = generator_for(task, stream_seed, encoder_config.fps);
        let mut encoder = Encoder::for_stream(encoder_config, stream_seed, s as u32);
        let mut windows = FeatureWindows::new(1, config);
        let mut prev_state = None;
        let mut recent_labels: std::collections::VecDeque<f32> =
            std::collections::VecDeque::with_capacity(w);

        for f in 0..frames {
            let frame = generator.next_frame();
            let necessary = frame.state.necessary_after(prev_state.as_ref());
            prev_state = Some(frame.state);
            let packet = encoder.encode(&frame);
            // Features describe the stream *before* this packet's label is
            // known: temporal = mean of the previous w labels; views include
            // the current packet's size (it is parsed before gating).
            let temporal = if recent_labels.is_empty() {
                0.0
            } else {
                recent_labels.iter().sum::<f32>() / w as f32
            };
            windows.push(0, &packet.meta);
            if f >= w {
                samples.push(TrainSample {
                    view_i: windows.stream(0).independent_view(),
                    view_p: windows.stream(0).predicted_view(),
                    temporal,
                    label: if necessary { 1.0 } else { 0.0 },
                    task_id,
                });
            }
            if recent_labels.len() == w {
                recent_labels.pop_front();
            }
            recent_labels.push_back(if necessary { 1.0 } else { 0.0 });
        }
    }
    samples
}

/// Subsample to a 1:1 positive/negative ratio (the paper's offline
/// evaluation protocol, §6.3).
pub fn balance_dataset(samples: &[TrainSample], seed: u64) -> Vec<TrainSample> {
    let mut pos: Vec<&TrainSample> = samples.iter().filter(|s| s.label > 0.5).collect();
    let mut neg: Vec<&TrainSample> = samples.iter().filter(|s| s.label <= 0.5).collect();
    let n = pos.len().min(neg.len());
    let mut r = rng(seed, 0xBA1A);
    pos.shuffle(&mut r);
    neg.shuffle(&mut r);
    let mut out: Vec<TrainSample> = pos[..n]
        .iter()
        .chain(&neg[..n])
        .map(|&s| s.clone())
        .collect();
    out.shuffle(&mut r);
    out
}

/// Train `predictor` on `samples`. Returns the mean training loss of the
/// final epoch.
pub fn train(
    predictor: &mut ContextualPredictor,
    samples: &[TrainSample],
    config: &PacketGameConfig,
) -> f32 {
    assert!(!samples.is_empty(), "cannot train on an empty dataset");
    let opt = RmsProp::with_lr(config.learning_rate);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut r = rng(config.seed, 0x7241);
    let batch_size = config.batch_size.clamp(1, samples.len());
    let mut batch = TrainBatch::new();
    let mut last_epoch_loss = 0.0f32;

    for _epoch in 0..config.epochs {
        order.shuffle(&mut r);
        let mut epoch_loss = 0.0f32;
        for chunk in order.chunks(batch_size) {
            batch.clear();
            for &i in chunk {
                let s = &samples[i];
                batch.push(&s.view_i, &s.view_p, s.temporal, s.label, s.task_id);
            }
            predictor.train_step(&mut batch, &opt, 1.0 / chunk.len() as f32);
            // Summed sample by sample, in sample order, across the epoch.
            for &loss in batch.losses() {
                epoch_loss += loss;
            }
        }
        last_epoch_loss = epoch_loss / samples.len() as f32;
    }
    last_epoch_loss
}

/// Score samples with a trained predictor: returns `(confidence, label)`
/// pairs for offline curves.
pub fn score_samples(
    predictor: &mut ContextualPredictor,
    samples: &[TrainSample],
) -> Vec<(f64, bool)> {
    samples
        .iter()
        .map(|s| {
            let conf = predictor.predict(&s.view_i, &s.view_p, f64::from(s.temporal), s.task_id);
            (conf, s.label > 0.5)
        })
        .collect()
}

/// Classification accuracy at threshold 0.5.
pub fn classification_accuracy(scored: &[(f64, bool)]) -> f64 {
    if scored.is_empty() {
        return 0.0;
    }
    scored.iter().filter(|(c, l)| (*c >= 0.5) == *l).count() as f64 / scored.len() as f64
}

/// End-to-end convenience: build a balanced offline dataset for `task` and
/// train a fresh single-task predictor on 80% of it (the paper's split).
pub fn train_for_task(task: TaskKind, config: &PacketGameConfig, seed: u64) -> ContextualPredictor {
    let enc = EncoderConfig::new(pg_codec::Codec::H264);
    let samples = build_offline_dataset(task, 6, 2500, enc, config, seed);
    let balanced = balance_dataset(&samples, seed);
    let cut = (balanced.len() as f64 * 0.8) as usize;
    let mut predictor = ContextualPredictor::new(config.clone().with_seed(seed));
    train(&mut predictor, &balanced[..cut.max(1)], config);
    predictor
}

/// Train a multi-task predictor over several tasks (paper §5.2/Fig. 11).
/// The returned predictor has one head per task, in the given order.
pub fn train_multi_task(
    tasks: &[TaskKind],
    config: &PacketGameConfig,
    seed: u64,
) -> ContextualPredictor {
    assert!(!tasks.is_empty());
    let config = config.clone().with_tasks(tasks.len());
    let enc = EncoderConfig::new(pg_codec::Codec::H264);
    let mut all = Vec::new();
    for (id, &task) in tasks.iter().enumerate() {
        let samples = build_offline_dataset_with_task_id(
            task,
            id,
            6,
            2500,
            enc,
            &config,
            mix(seed, id as u64),
        );
        all.extend(balance_dataset(&samples, mix(seed, 100 + id as u64)));
    }
    let mut r = rng(seed, 0x4D54);
    all.shuffle(&mut r);
    let mut predictor = ContextualPredictor::new(config.clone().with_seed(seed));
    train(&mut predictor, &all, &config);
    predictor
}

/// Draw a bootstrap subsample of `ratio · len` samples (Fig. 12's training
/// size sweep).
pub fn subsample(samples: &[TrainSample], ratio: f64, seed: u64) -> Vec<TrainSample> {
    let n = ((samples.len() as f64 * ratio.clamp(0.0, 1.0)).round() as usize).max(1);
    let mut r = rng(seed, 0x5353);
    let mut idx: Vec<usize> = (0..samples.len()).collect();
    idx.shuffle(&mut r);
    idx.truncate(n.min(samples.len()));
    idx.into_iter().map(|i| samples[i].clone()).collect()
}

/// A small, fast configuration for tests (not the paper's defaults).
pub fn test_config() -> PacketGameConfig {
    PacketGameConfig {
        conv_units: 8,
        dense_units: 32,
        epochs: 8,
        batch_size: 256,
        learning_rate: 0.003,
        ..PacketGameConfig::default()
    }
}

/// Random scores baseline for sanity checks.
pub fn random_scores(samples: &[TrainSample], seed: u64) -> Vec<(f64, bool)> {
    let mut r = rng(seed, 0x5243);
    samples
        .iter()
        .map(|s| (r.gen::<f64>(), s.label > 0.5))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_inference::accuracy::{auc, offline_curve};

    #[test]
    fn dataset_has_expected_shape() {
        let config = test_config();
        let enc = EncoderConfig::new(pg_codec::Codec::H264);
        let ds = build_offline_dataset(TaskKind::PersonCounting, 2, 200, enc, &config, 1);
        assert_eq!(ds.len(), 2 * (200 - config.window));
        for s in &ds {
            assert_eq!(s.view_i.len(), config.window);
            assert_eq!(s.view_p.len(), config.window);
            assert!((0.0..=1.0).contains(&s.temporal));
            assert!(s.label == 0.0 || s.label == 1.0);
        }
    }

    #[test]
    fn balance_yields_1_to_1() {
        let config = test_config();
        let enc = EncoderConfig::new(pg_codec::Codec::H264);
        let ds = build_offline_dataset(TaskKind::AnomalyDetection, 4, 1000, enc, &config, 2);
        let balanced = balance_dataset(&ds, 2);
        let pos = balanced.iter().filter(|s| s.label > 0.5).count();
        assert_eq!(pos * 2, balanced.len());
        assert!(!balanced.is_empty());
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let config = test_config();
        let enc = EncoderConfig::new(pg_codec::Codec::H264);
        let ds = build_offline_dataset(TaskKind::FireDetection, 4, 1500, enc, &config, 3);
        let balanced = balance_dataset(&ds, 3);
        let cut = balanced.len() * 4 / 5;
        let (train_set, test_set) = balanced.split_at(cut);

        let mut predictor = ContextualPredictor::new(config.clone());
        let untrained = classification_accuracy(&score_samples(&mut predictor, test_set));
        let final_loss = train(&mut predictor, train_set, &config);
        let trained = classification_accuracy(&score_samples(&mut predictor, test_set));
        assert!(final_loss < 0.69, "final loss {final_loss} not below ln 2");
        assert!(
            trained > 0.7,
            "trained accuracy {trained} (untrained was {untrained})"
        );
        assert!(trained > untrained - 0.05);
    }

    #[test]
    fn trained_scores_have_discriminative_auc() {
        let config = test_config();
        let enc = EncoderConfig::new(pg_codec::Codec::H264);
        let ds = build_offline_dataset(TaskKind::AnomalyDetection, 4, 1500, enc, &config, 4);
        let balanced = balance_dataset(&ds, 4);
        let cut = balanced.len() * 4 / 5;
        let mut predictor = ContextualPredictor::new(config.clone());
        train(&mut predictor, &balanced[..cut], &config);
        let scored = score_samples(&mut predictor, &balanced[cut..]);
        let curve = offline_curve(&scored, 51);
        let a = auc(&curve);
        assert!(a > 0.8, "AUC {a}");
        // Random scores stay near the diagonal.
        let rand_curve = offline_curve(&random_scores(&balanced[cut..], 9), 51);
        assert!(auc(&rand_curve) < 0.6);
    }

    #[test]
    fn subsample_sizes() {
        let config = test_config();
        let enc = EncoderConfig::new(pg_codec::Codec::H264);
        let ds = build_offline_dataset(TaskKind::PersonCounting, 2, 300, enc, &config, 5);
        assert_eq!(subsample(&ds, 0.5, 1).len(), ds.len() / 2);
        assert_eq!(subsample(&ds, 0.0, 1).len(), 1);
        assert_eq!(subsample(&ds, 2.0, 1).len(), ds.len());
    }

    #[test]
    fn multi_task_training_runs() {
        let mut config = test_config();
        config.epochs = 2;
        let predictor = train_multi_task(
            &[TaskKind::PersonCounting, TaskKind::AnomalyDetection],
            &config,
            6,
        );
        assert_eq!(predictor.tasks(), 2);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let config = test_config();
        let mut predictor = ContextualPredictor::new(config.clone());
        train(&mut predictor, &[], &config);
    }
}
