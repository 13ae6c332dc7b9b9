//! The PacketGame gate — Algorithm 1 of the paper.
//!
//! Per round: parse packet features, estimate each stream's temporal value
//! `μ̂`, predict gating confidence with the contextual predictor, divide by
//! the pending decode cost, and greedily select under the budget. Feedback
//! from decoded packets updates the temporal estimator.

use std::collections::VecDeque;

use pg_nn::optim::RmsProp;
use pg_pipeline::gate::{FeedbackEvent, GatePolicy, PacketContext};
use pg_pipeline::telemetry::Telemetry;

use crate::config::PacketGameConfig;
use crate::context::FeatureWindows;
use crate::optimizer::{CombinatorialOptimizer, Item, SelectScratch};
use crate::predictor::{ContextualPredictor, PredictScratch, TrainBatch};
use crate::quant::{QuantCalibrator, QuantizedPredictor};
use crate::temporal::TemporalEstimator;

/// Configuration for online fine-tuning of the contextual predictor from
/// live redundancy feedback.
///
/// The paper trains offline and deploys frozen weights, explicitly leaving
/// "learning-related advances like online optimization and domain
/// adaptation" to future work (§5.2). This implements that extension: each
/// decoded packet's (features, feedback) pair becomes a training sample;
/// when a mini-batch accumulates, the predictor takes one RMSprop step.
/// Note the usual caveat: feedback only exists for *selected* packets, so
/// online updates see a policy-biased sample of the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Learning rate for the live updates (usually below the offline rate).
    pub learning_rate: f32,
    /// Samples per live update step, taken by the `feedback` call that
    /// queues at least this many. The step sums *every* queued sample's
    /// gradient but scales by `1 / batch_size`: at m = 1 024 and a budget
    /// of m/4 a call carries ≈ 256 events, four times the mean gradient,
    /// and under the concurrent runtime the count follows thread timing.
    /// Kept as is for now: the engine goldens pin it (ROADMAP item 5).
    pub batch_size: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            learning_rate: 5e-4,
            batch_size: 64,
        }
    }
}

/// Int8 inference state: a few rounds of activation-range calibration,
/// then a frozen quantized snapshot takes over the batched decision path.
enum QuantState {
    /// Observing live rounds to calibrate activation scales.
    Calibrating {
        calib: Box<QuantCalibrator>,
        rounds_left: usize,
    },
    /// Calibration finished; this snapshot scores every round.
    Active(Box<QuantizedPredictor>),
}

/// Per-stream samples retained for the autopilot's retrain rung. Sized so a
/// retrain sees a couple of windows of post-shift feedback without growing
/// without bound.
const RETRAIN_RING: usize = 96;
/// Full passes over the retained ring per [`GatePolicy::autopilot_retrain`]
/// call — enough RMSprop movement to matter, few enough to stay a
/// sub-millisecond action.
const RETRAIN_PASSES: usize = 4;

/// Live-training state. Every buffer is flat and grow-only, so once each
/// stream has been seen a learning round allocates nothing.
struct OnlineState {
    opt: RmsProp,
    batch_size: usize,
    /// This round's feature snapshot per stream, one flat 2w + 2 row each:
    /// `[view_i (w) | view_p (w) | temporal | label]`, the label NaN until
    /// feedback brings it. The retrain rings hold the same rows.
    snapshots: Vec<f32>,
    /// Samples queued for the next update step.
    batch: TrainBatch,
    /// Per stream, its last [`RETRAIN_RING`] training rows, kept for the
    /// autopilot's retrain rung ([`GatePolicy::autopilot_retrain`]);
    /// reserved once, on the stream's first sample.
    replay: Vec<VecDeque<f32>>,
    /// The retrain rung's mini-batch, apart from `batch` so that samples
    /// queued for the next online step stay queued.
    retrain: TrainBatch,
    /// Update steps taken.
    steps: u64,
}

/// The PacketGame gating policy (Alg. 1). Construct with a predictor
/// trained offline via [`crate::training`].
pub struct PacketGame {
    name: &'static str,
    config: PacketGameConfig,
    predictor: ContextualPredictor,
    temporal: TemporalEstimator,
    windows: FeatureWindows,
    optimizer: CombinatorialOptimizer,
    /// Which predictor head scores this deployment's streams.
    task_head: usize,
    /// Live fine-tuning state, when enabled.
    online: Option<OnlineState>,
    /// Observability handle; disabled unless a simulator attaches one.
    telemetry: Telemetry,
    /// Int8 inference state (calibrating or active), when enabled.
    quant: Option<QuantState>,
    /// Reusable buffers for the batched path — grow-only, so steady-state
    /// rounds never touch the allocator for prediction.
    scratch: PredictScratch,
    /// Reusable candidate list handed to the greedy optimizer.
    items: Vec<Item>,
    /// Reusable optimizer buffers (priority order, insight entries,
    /// selection) — in steady state the per-round knapsack allocates only
    /// the `Vec` the `GatePolicy` contract returns, plus `sort_by`'s heap
    /// scratch above 512 candidates.
    select_scratch: SelectScratch,
    /// Per-stream predictor probability (pre-exploration-bonus) stashed at
    /// `select` time, consumed by `feedback` for calibration tracking.
    /// `NaN` marks "no prediction this round". Only written when the
    /// attached telemetry carries an enabled insight monitor.
    cal_conf: Vec<f64>,
    /// Per-stream autopilot fallback flags: `true` scores the stream from
    /// the temporal estimator alone (exploitation + exploration), bypassing
    /// the suspected-stale contextual predictor. Set via
    /// [`GatePolicy::autopilot_fallback`]; empty when the autopilot never
    /// intervened, so the flag costs one bounds-checked read per candidate.
    fallback: Vec<bool>,
}

impl PacketGame {
    /// PacketGame with a trained predictor (single-task head 0).
    pub fn new(config: PacketGameConfig, predictor: ContextualPredictor) -> Self {
        Self::named("PacketGame", config, predictor, 0)
    }

    /// PacketGame scoring with a specific task head of a multi-task
    /// predictor.
    pub fn with_task_head(
        config: PacketGameConfig,
        predictor: ContextualPredictor,
        task_head: usize,
    ) -> Self {
        Self::named("PacketGame", config, predictor, task_head)
    }

    /// Internal: named construction (used by ablated baselines).
    pub(crate) fn named(
        name: &'static str,
        config: PacketGameConfig,
        predictor: ContextualPredictor,
        task_head: usize,
    ) -> Self {
        let temporal = TemporalEstimator::new(0, config.window, config.exploration_cap);
        let windows = FeatureWindows::new(0, &config);
        PacketGame {
            name,
            config,
            predictor,
            temporal,
            windows,
            optimizer: CombinatorialOptimizer,
            task_head,
            online: None,
            telemetry: Telemetry::disabled(),
            quant: None,
            scratch: PredictScratch::new(),
            items: Vec::new(),
            select_scratch: SelectScratch::new(),
            cal_conf: Vec::new(),
            fallback: Vec::new(),
        }
    }

    /// Enable int8 quantized inference on the decision path.
    ///
    /// The first `calib_rounds` non-empty rounds keep scoring with the f32
    /// predictor while a [`QuantCalibrator`] records activation ranges;
    /// after that a frozen [`QuantizedPredictor`] snapshot takes over.
    /// Quantized confidences are decision-equivalent to f32, not
    /// bit-identical (see DESIGN.md D9 and `tests/decision_equivalence.rs`).
    ///
    /// The snapshot does not follow online-learning weight
    /// updates — call this again after fine-tuning to re-snapshot. Errors
    /// for recurrent embeddings, which have no quantized kernels.
    pub fn enable_quantized_inference(&mut self, calib_rounds: usize) -> Result<(), String> {
        let calib = Box::new(QuantCalibrator::from_predictor(&self.predictor)?);
        self.quant = Some(QuantState::Calibrating {
            calib,
            rounds_left: calib_rounds.max(1),
        });
        Ok(())
    }

    /// Disable quantized inference and return to the f32 predictor.
    pub fn disable_quantized_inference(&mut self) {
        self.quant = None;
    }

    /// Whether the quantized snapshot is live (calibration finished).
    pub fn quantized_active(&self) -> bool {
        matches!(self.quant, Some(QuantState::Active(_)))
    }

    /// Whether quantized inference is enabled (calibrating or active).
    pub fn quantized_enabled(&self) -> bool {
        self.quant.is_some()
    }

    /// Enable online fine-tuning of the predictor from live feedback (the
    /// paper's future-work extension; see [`OnlineConfig`]).
    pub fn enable_online_learning(&mut self, config: OnlineConfig) {
        self.online = Some(OnlineState {
            opt: RmsProp::with_lr(config.learning_rate),
            batch_size: config.batch_size.max(1),
            snapshots: Vec::new(),
            batch: TrainBatch::new(),
            replay: Vec::new(),
            retrain: TrainBatch::new(),
            steps: 0,
        });
    }

    /// Streams currently scored from the temporal estimator alone (the
    /// autopilot's fallback rung), ascending.
    pub fn fallback_streams(&self) -> Vec<usize> {
        self.fallback
            .iter()
            .enumerate()
            .filter_map(|(i, &on)| on.then_some(i))
            .collect()
    }

    /// Online update steps taken so far (0 when online learning is off).
    pub fn online_steps(&self) -> u64 {
        self.online.as_ref().map(|o| o.steps).unwrap_or(0)
    }

    /// Access the trained predictor (e.g. to export the weight file).
    pub fn predictor(&self) -> &ContextualPredictor {
        &self.predictor
    }

    /// Predictor inputs for one stream, as [`PacketGame::confidence`]
    /// scores them: `(view_i, view_p, temporal exploitation)`.
    fn stream_features(&self, stream: usize) -> (Vec<f32>, Vec<f32>, f64) {
        let exploit = self.temporal.exploitation(stream);
        let s = self.windows.stream(stream);
        (s.independent_view(), s.predicted_view(), exploit)
    }

    /// Gating confidence for one stream right now (exposed for tests and
    /// overhead benchmarks): the predictor's fused probability. The
    /// exploration bonus is added on top of this during selection.
    pub fn confidence(&mut self, stream: usize) -> f64 {
        let (view_i, view_p, exploit) = self.stream_features(stream);
        self.predictor
            .predict(&view_i, &view_p, exploit, self.task_head)
    }

    /// The configuration in use.
    pub fn config(&self) -> &PacketGameConfig {
        &self.config
    }

    /// Export stream `i`'s complete per-stream policy state — the
    /// migration payload a cluster coordinator hands to another gate
    /// instance (see [`crate::migrate`] for exactly what travels).
    pub fn export_stream(&self, stream: usize) -> crate::migrate::StreamContext {
        let (independent, predicted) = if stream < self.windows.len() {
            self.windows.stream(stream).export()
        } else {
            (Vec::new(), Vec::new())
        };
        crate::migrate::StreamContext {
            stream_idx: stream as u64,
            independent,
            predicted,
            temporal: self.temporal.export_stream(stream),
            fallback: self.fallback.get(stream).copied().unwrap_or(false),
        }
    }

    /// Import a migrated stream's policy state, replacing whatever this
    /// instance held for that index (typically nothing, or the unselected
    /// placeholder records lockstep rounds accumulated). The estimator's
    /// global round counter is *not* touched: lockstep instances already
    /// agree on it, and a fresh instance aligns via
    /// [`PacketGame::align_round`] before importing.
    pub fn import_stream(&mut self, ctx: &crate::migrate::StreamContext) {
        let stream = ctx.stream_idx as usize;
        self.temporal.import_stream(stream, &ctx.temporal);
        self.windows
            .stream_mut(stream)
            .restore(&ctx.independent, &ctx.predicted);
        if ctx.fallback || stream < self.fallback.len() {
            if self.fallback.len() <= stream {
                self.fallback.resize(stream + 1, false);
            }
            self.fallback[stream] = ctx.fallback;
        }
        if let Some(conf) = self.cal_conf.get_mut(stream) {
            // The in-flight calibration stash belongs to the source
            // instance's current round; mark "no prediction" here.
            *conf = f64::NAN;
        }
    }

    /// Set the temporal estimator's global round counter. Required once
    /// when a fresh instance takes over mid-run (the `ln t` exploration
    /// term reads it); lockstep instances never need it.
    pub fn align_round(&mut self, round: u64) {
        self.temporal.set_round(round);
    }

    /// The temporal estimator's global round counter.
    pub fn rounds_started(&self) -> u64 {
        self.temporal.round()
    }
}

impl GatePolicy for PacketGame {
    fn name(&self) -> &'static str {
        self.name
    }

    fn select(&mut self, round: u64, candidates: &[PacketContext], budget: f64) -> Vec<usize> {
        let m = candidates.len();
        // Per-stream state is indexed by `stream_idx`, not candidate
        // position: on lossy transports a round can offer fewer
        // candidates than there are streams, so size by the highest
        // stream actually present this round.
        let streams_needed = candidates
            .iter()
            .map(|c| c.stream_idx + 1)
            .max()
            .unwrap_or(0)
            .max(m);
        self.temporal.ensure_streams(streams_needed);
        self.windows.ensure_streams(streams_needed);
        self.temporal.begin_round();

        // Parse packet features into the per-stream windows (Alg. 1 line 2).
        for c in candidates {
            self.windows.push(c.stream_idx, &c.meta);
        }

        // Confidence per stream (lines 3-6). The predictor fuses the
        // metadata views with the temporal *exploitation* estimate (its
        // training distribution); the exploration/aging bonus is added on
        // top — the same optimism-under-uncertainty structure as Alg. 1,
        // applied outside the network so the network never sees
        // out-of-distribution temporal inputs.
        let w = self.config.window;
        let width = 2 * w + 2;
        if let Some(online) = &mut self.online {
            if online.snapshots.len() < streams_needed * width {
                online.snapshots.resize(streams_needed * width, f32::NAN);
            }
        }
        self.items.clear();
        // Calibration stash: the insight monitor wants the raw predictor
        // probability (before the exploration bonus) joined with the
        // necessity ground truth that only arrives in `feedback`.
        let cal = self.telemetry.insight().is_enabled();
        if cal && self.cal_conf.len() < streams_needed {
            self.cal_conf.resize(streams_needed, f64::NAN);
        }
        // Stage one `(view_i, view_p, μ̂)` row per candidate into the
        // reusable scratch, run one frozen `predict_batch` over all m
        // streams, then attach each stream's exploration bonus.
        // Confidences are bit-identical to per-stream `predict` calls
        // (`predictor.rs::batch_logits_match_sequential_bit_for_bit`).
        // Online learning copies each staged row into its stream's
        // snapshot row, which is already allocated in steady state.
        self.scratch.begin(m, w);
        for (row, c) in candidates.iter().enumerate() {
            let exploit = self.temporal.exploitation(c.stream_idx);
            let (vi, vp) = self.scratch.stream_row(row, exploit);
            self.windows.stream(c.stream_idx).write_views_into(vi, vp);
            if let Some(online) = &mut self.online {
                let snap = &mut online.snapshots[c.stream_idx * width..(c.stream_idx + 1) * width];
                snap[..w].copy_from_slice(vi);
                snap[w..2 * w].copy_from_slice(vp);
                snap[2 * w] = exploit as f32;
                // Pending: the label arrives with feedback.
                snap[2 * w + 1] = 0.0;
            }
        }
        // Quantization calibration rides the staged batch: each
        // calibration round observes the exact rows the f32 path is
        // about to score; once the budgeted rounds are spent the
        // frozen snapshot swaps in at the *next* round, so every
        // calibration round itself is still scored by f32.
        if m > 0 {
            if let Some(QuantState::Calibrating { calib, rounds_left }) = &mut self.quant {
                if *rounds_left == 0 {
                    self.quant = match calib.finish() {
                        Ok(qp) => Some(QuantState::Active(Box::new(qp))),
                        // Unreachable in practice (rows were observed);
                        // fall back to f32 rather than panic mid-round.
                        Err(_) => None,
                    };
                } else {
                    calib.observe_batch(&self.scratch);
                    *rounds_left -= 1;
                }
            }
        }
        let conf: &[f64] = match &mut self.quant {
            Some(QuantState::Active(qp)) => qp.predict_batch(&self.scratch, self.task_head),
            _ => self
                .predictor
                .predict_batch(&mut self.scratch, self.task_head),
        };
        for (row, c) in candidates.iter().enumerate() {
            let explore = self.temporal.exploration(c.stream_idx);
            if cal {
                self.cal_conf[c.stream_idx] = conf[row];
            }
            // Fallback rung: a drift-flagged stream is scored from the
            // temporal estimate alone while its predictor recovers. The
            // predictor probability is still computed and stashed above,
            // so calibration keeps tracking the (recovering) predictor.
            let base = if self.fallback.get(c.stream_idx).copied().unwrap_or(false) {
                self.temporal.exploitation(c.stream_idx)
            } else {
                conf[row]
            };
            self.items.push(Item {
                idx: c.stream_idx,
                confidence: base + explore,
                cost: c.pending_cost.max(f64::MIN_POSITIVE),
            });
        }

        // Greedy budgeted selection (lines 7-12); dependency completion
        // (line 13) is realized by the pending-cost closure the pipeline
        // decodes for each selected packet. With telemetry attached, every
        // candidate's decision lands in the audit ring.
        if self.telemetry.is_enabled() {
            self.optimizer.select_audited_with(
                &self.items,
                budget,
                round,
                &self.telemetry,
                &mut self.select_scratch,
            );
        } else {
            self.optimizer
                .select_with(&self.items, budget, &mut self.select_scratch);
        }
        // The trait wants an owned Vec: an exact-size copy, while the
        // scratch keeps its grown buffer. In steady state that copy is one
        // allocation per `select`, plus `sort_by`'s heap scratch when there
        // are more than 512 candidates.
        self.select_scratch.selected().to_vec()
    }

    fn feedback(&mut self, events: &[FeedbackEvent]) {
        for e in events {
            self.temporal.record(e.stream_idx, e.necessary);
        }
        // Join this round's stashed predictor probabilities with the
        // necessity ground truth for the calibration (ECE/Brier) tracker.
        let insight = self.telemetry.insight();
        if insight.is_enabled() {
            for e in events {
                if let Some(conf) = self.cal_conf.get_mut(e.stream_idx) {
                    if conf.is_finite() {
                        insight.record_outcome(self.task_head, *conf, e.necessary);
                        *conf = f64::NAN;
                    }
                }
            }
        }
        // Live fine-tuning: join feedback with this round's feature
        // snapshots and step once a mini-batch accumulates.
        if let Some(online) = &mut self.online {
            let w = self.config.window;
            let width = 2 * w + 2;
            for e in events {
                let span = e.stream_idx * width..(e.stream_idx + 1) * width;
                let Some(snap) = online.snapshots.get_mut(span) else {
                    continue;
                };
                if snap[2 * w + 1].is_nan() {
                    continue; // no snapshot pending for this stream
                }
                snap[2 * w + 1] = if e.necessary { 1.0 } else { 0.0 };
                // Retain a bounded per-stream copy for the autopilot's
                // retrain rung before the sample joins the mini-batch.
                if online.replay.len() <= e.stream_idx {
                    online.replay.resize_with(e.stream_idx + 1, VecDeque::new);
                }
                let ring = &mut online.replay[e.stream_idx];
                if ring.is_empty() {
                    ring.reserve_exact(RETRAIN_RING * width);
                } else if ring.len() == RETRAIN_RING * width {
                    ring.drain(..width);
                }
                ring.extend(snap.iter());
                let (vi, rest) = snap.split_at(w);
                online
                    .batch
                    .push(vi, &rest[..w], rest[w], rest[w + 1], self.task_head);
                snap[2 * w + 1] = f32::NAN;
            }
            if online.batch.len() >= online.batch_size {
                // Scaled by the configured batch size, not by the samples
                // summed: see `OnlineConfig::batch_size`.
                let scale = 1.0 / online.batch_size as f32;
                self.predictor
                    .train_step(&mut online.batch, &online.opt, scale);
                online.batch.clear();
                online.steps += 1;
            }
        }
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn autopilot_fallback(&mut self, stream_idx: usize, enabled: bool) -> bool {
        if self.fallback.len() <= stream_idx {
            if !enabled {
                return true; // already off
            }
            self.fallback.resize(stream_idx + 1, false);
        }
        self.fallback[stream_idx] = enabled;
        true
    }

    fn autopilot_reset_estimator(&mut self, stream_idx: usize) -> bool {
        self.temporal.reset_stream(stream_idx);
        true
    }

    fn autopilot_retrain(&mut self, stream_idx: usize) -> bool {
        // Retraining needs the live-learning machinery (optimizer state and
        // the retained sample ring); without it the ladder stops at the
        // estimator reset and the autopilot reports the rung as unhonoured.
        let Some(online) = &mut self.online else {
            return false;
        };
        let Some(ring) = online.replay.get_mut(stream_idx) else {
            return false;
        };
        let w = self.config.window;
        online.retrain.clear();
        for row in ring.make_contiguous().chunks_exact(2 * w + 2) {
            let (vi, rest) = row.split_at(w);
            online
                .retrain
                .push(vi, &rest[..w], rest[w], rest[w + 1], self.task_head);
        }
        if online.retrain.is_empty() {
            return false;
        }
        let scale = 1.0 / online.retrain.len() as f32;
        for _ in 0..RETRAIN_PASSES {
            self.predictor
                .train_step(&mut online.retrain, &online.opt, scale);
            online.steps += 1;
        }
        true
    }

    fn export_stream_state(&self, stream_idx: usize) -> Option<Vec<u8>> {
        Some(self.export_stream(stream_idx).to_wire())
    }

    fn import_stream_state(&mut self, state: &[u8]) -> bool {
        match crate::migrate::StreamContext::from_wire(state) {
            Ok(ctx) => {
                self.import_stream(&ctx);
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{test_config, train_for_task};
    use pg_pipeline::{RoundSimulator, SimConfig};
    use pg_scene::TaskKind;

    fn trained_gate(task: TaskKind, seed: u64) -> PacketGame {
        let config = test_config();
        let predictor = train_for_task(task, &config, seed);
        PacketGame::new(config, predictor)
    }

    #[test]
    fn gate_runs_in_simulator() {
        let mut gate = trained_gate(TaskKind::AnomalyDetection, 1);
        let sim_config = SimConfig {
            budget_per_round: 4.0,
            segments: 4,
            ..SimConfig::default()
        };
        let sim = RoundSimulator::uniform(TaskKind::AnomalyDetection, 12, 1, sim_config);
        let report = sim.run(&mut gate, 300);
        assert_eq!(report.policy, "PacketGame");
        assert!(report.packets_decoded > 0);
        assert!(report.filtering_rate() > 0.0);
    }

    #[test]
    fn gate_beats_random_selection_under_same_budget() {
        use crate::baselines::RandomGate;
        let task = TaskKind::AnomalyDetection;
        let sim_config = SimConfig {
            budget_per_round: 3.0,
            segments: 4,
            ..SimConfig::default()
        };
        let rounds = 600;
        let streams = 12;

        let mut pg = trained_gate(task, 2);
        let pg_report = RoundSimulator::uniform(task, streams, 7, sim_config).run(&mut pg, rounds);

        let mut random = RandomGate::new(3);
        let rand_report =
            RoundSimulator::uniform(task, streams, 7, sim_config).run(&mut random, rounds);

        assert!(
            pg_report.accuracy_overall() > rand_report.accuracy_overall() + 0.02,
            "PacketGame {:.3} vs Random {:.3}",
            pg_report.accuracy_overall(),
            rand_report.accuracy_overall()
        );
    }

    #[test]
    fn confidence_is_a_probability() {
        let mut gate = trained_gate(TaskKind::FireDetection, 4);
        // Feed one round through select so windows exist.
        let sim = RoundSimulator::uniform(TaskKind::FireDetection, 3, 4, SimConfig::default());
        sim.run(&mut gate, 5);
        for s in 0..3 {
            let c = gate.confidence(s);
            assert!((0.0..=1.0).contains(&c), "confidence {c}");
        }
    }

    #[test]
    fn sparse_candidate_rounds_do_not_break_per_stream_state() {
        // On lossy transports a round can offer fewer candidates than
        // there are streams. Per-stream state is indexed by `stream_idx`,
        // so a round offering only the *last* stream used to index past
        // the state sized by `candidates.len()` (panic in the online
        // snapshot stash).
        use super::OnlineConfig;
        let config = test_config();
        let predictor = ContextualPredictor::new(config.clone());
        let mut gate = PacketGame::new(config, predictor);
        gate.enable_online_learning(OnlineConfig::default());
        let ctx = |stream_idx: usize, seq: u64| pg_pipeline::PacketContext {
            stream_idx,
            meta: pg_codec::PacketMeta {
                stream_id: stream_idx as u32,
                seq,
                pts: seq,
                frame_type: pg_codec::FrameType::P,
                size: 4000,
                gop_id: 0,
            },
            pending_cost: 1.0,
            codec: pg_codec::Codec::H264,
            oracle_necessary: None,
        };
        // Round 0: only stream 7 arrives. Round 1: streams 2 and 7.
        let kept = gate.select(0, &[ctx(7, 0)], 10.0);
        assert!(kept.iter().all(|&s| s == 7), "kept unknown stream: {kept:?}");
        gate.select(1, &[ctx(2, 0), ctx(7, 1)], 10.0);
    }

    #[test]
    fn online_learning_takes_steps_and_adapts() {
        use super::OnlineConfig;
        // Deliberately under-trained predictor: online updates must help.
        let task = TaskKind::AnomalyDetection;
        let mut config = test_config();
        config.epochs = 1;
        let predictor = train_for_task(task, &config, 8);
        let wf = predictor.to_weight_file();

        let sim_config = SimConfig {
            budget_per_round: 4.0,
            segments: 4,
            ..SimConfig::default()
        };
        let rounds = 900;
        let streams = 12;

        let mut frozen = PacketGame::new(config.clone(), predictor);
        let frozen_report =
            RoundSimulator::uniform(task, streams, 9, sim_config).run(&mut frozen, rounds);
        assert_eq!(frozen.online_steps(), 0);

        let mut reloaded = crate::ContextualPredictor::new(config.clone().with_seed(8));
        reloaded.load_weight_file(&wf).expect("weights");
        let mut online = PacketGame::new(config, reloaded);
        online.enable_online_learning(OnlineConfig::default());
        let online_report =
            RoundSimulator::uniform(task, streams, 9, sim_config).run(&mut online, rounds);

        assert!(
            online.online_steps() > 3,
            "steps: {}",
            online.online_steps()
        );
        assert!(
            online_report.accuracy_overall() + 0.03 >= frozen_report.accuracy_overall(),
            "online {:.3} should not trail frozen {:.3} materially",
            online_report.accuracy_overall(),
            frozen_report.accuracy_overall()
        );
    }

    #[test]
    fn quantized_gate_calibrates_then_activates() {
        let task = TaskKind::AnomalyDetection;
        let config = test_config();
        let predictor = train_for_task(task, &config, 6);
        let wf = predictor.to_weight_file();

        let sim_config = SimConfig {
            budget_per_round: 4.0,
            segments: 4,
            ..SimConfig::default()
        };
        let mut f32_gate = PacketGame::new(config.clone(), predictor);
        let f32_report = RoundSimulator::uniform(task, 12, 6, sim_config).run(&mut f32_gate, 400);

        let mut reloaded = crate::ContextualPredictor::new(config.clone().with_seed(6));
        reloaded.load_weight_file(&wf).expect("weights");
        let mut q_gate = PacketGame::new(config, reloaded);
        q_gate.enable_quantized_inference(8).expect("enable");
        assert!(q_gate.quantized_enabled());
        assert!(!q_gate.quantized_active());
        let q_report = RoundSimulator::uniform(task, 12, 6, sim_config).run(&mut q_gate, 400);
        assert!(q_gate.quantized_active(), "snapshot never activated");

        // Decision equivalence, not bit-identity: the quantized gate's
        // aggregate behaviour must stay within a whisker of the f32 gate.
        let kept_f32 = f32_report.packets_decoded as f64 / f32_report.packets_total as f64;
        let kept_q = q_report.packets_decoded as f64 / q_report.packets_total as f64;
        assert!(
            (kept_f32 - kept_q).abs() < 0.02,
            "keep rate drifted: f32 {kept_f32:.4} vs quantized {kept_q:.4}"
        );
        assert!(
            (f32_report.accuracy_overall() - q_report.accuracy_overall()).abs() < 0.03,
            "accuracy drifted: f32 {:.4} vs quantized {:.4}",
            f32_report.accuracy_overall(),
            q_report.accuracy_overall()
        );
    }

    #[test]
    fn quantized_inference_rejects_recurrent_embeddings() {
        use crate::config::EmbeddingKind;
        let mut config = test_config();
        config.embedding = EmbeddingKind::Lstm;
        let predictor = crate::ContextualPredictor::new(config.clone());
        let mut gate = PacketGame::new(config, predictor);
        assert!(gate.enable_quantized_inference(4).is_err());
        assert!(!gate.quantized_enabled());
    }

    #[test]
    fn autopilot_hooks_are_honoured() {
        let mut gate = trained_gate(TaskKind::AnomalyDetection, 11);
        // Fallback and estimator reset are honoured unconditionally.
        assert!(gate.autopilot_fallback(2, true));
        assert_eq!(gate.fallback_streams(), vec![2]);
        assert!(gate.autopilot_fallback(2, false));
        assert!(gate.fallback_streams().is_empty());
        // Turning fallback off for a never-flagged stream stays cheap.
        assert!(gate.autopilot_fallback(40, false));
        assert!(gate.fallback.len() <= 3);
        assert!(gate.autopilot_reset_estimator(0));
        // Retrain needs online learning...
        assert!(!gate.autopilot_retrain(0), "no online state: unhonoured");
        gate.enable_online_learning(OnlineConfig::default());
        // ...and retained feedback for the stream.
        assert!(!gate.autopilot_retrain(0), "no samples yet: unhonoured");
        let sim_config = SimConfig {
            budget_per_round: 4.0,
            segments: 4,
            ..SimConfig::default()
        };
        RoundSimulator::uniform(TaskKind::AnomalyDetection, 6, 11, sim_config).run(&mut gate, 60);
        let steps_before = gate.online_steps();
        assert!(gate.autopilot_retrain(0), "ring populated: must retrain");
        assert!(gate.online_steps() > steps_before);
    }

    #[test]
    fn fallback_scores_from_the_temporal_estimator_alone() {
        // With every stream on fallback the gate must behave like the
        // temporal-only policy: selections no longer depend on predictor
        // weights, so two gates with *different* predictors agree.
        let task = TaskKind::AnomalyDetection;
        let config = test_config();
        let sim_config = SimConfig {
            budget_per_round: 3.0,
            segments: 4,
            ..SimConfig::default()
        };
        let mut a = PacketGame::new(config.clone(), train_for_task(task, &config, 21));
        let mut b = PacketGame::new(config.clone(), train_for_task(task, &config, 22));
        for s in 0..8 {
            a.autopilot_fallback(s, true);
            b.autopilot_fallback(s, true);
        }
        let ra = RoundSimulator::uniform(task, 8, 5, sim_config).run(&mut a, 200);
        let rb = RoundSimulator::uniform(task, 8, 5, sim_config).run(&mut b, 200);
        assert_eq!(ra.packets_decoded, rb.packets_decoded);
        assert_eq!(ra.accuracy_overall(), rb.accuracy_overall());
    }

    #[test]
    fn name_and_config_accessors() {
        let gate = trained_gate(TaskKind::PersonCounting, 5);
        assert_eq!(gate.name(), "PacketGame");
        assert_eq!(gate.config().window, 5);
        assert!(gate.predictor().param_count() > 0);
    }
}
