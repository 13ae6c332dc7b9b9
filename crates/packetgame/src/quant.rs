//! Int8 quantized inference path for the contextual predictor.
//!
//! The paper budgets ~7 µs per gate decision (§5.2's "lightweight by
//! design" predictor); at m = 1024 concurrent streams even the batched
//! f32 path spends most of its round on conv/dense arithmetic. This
//! module trades bit-exactness for speed: per-output-channel int8 weights
//! ([`pg_nn::quant`]), activation scales calibrated from live rounds
//! (per-tensor at the branch input, per-channel at the mid-layer ReLU,
//! folded into the next layer's weights), exact i32 accumulation, and a
//! fused dequant→ReLU→requant between the two heavy layers so activations
//! stay int8 and feature-major through the bulk of the arithmetic.
//!
//! The contract is **decision equivalence, not bit-identity**: quantized
//! logits differ from f32 logits by a bounded rounding error, and the
//! greedy ratio sort (§5.3) only changes its selection when that error
//! crosses a candidate-ordering boundary — see DESIGN.md D9 and
//! `tests/decision_equivalence.rs`, which asserts ≥ 99.5 % keep/drop
//! agreement and Lemma-1/regret gauges within tolerance of the f32 path.
//!
//! Flow: [`QuantCalibrator::from_predictor`] snapshots the trained f32
//! weights; each calibration round replays the staged batch through the
//! snapshot's batched f32 forward and records activation ranges from the
//! layer inputs it keeps; [`QuantCalibrator::finish`]
//! freezes everything into a [`QuantizedPredictor`], whose
//! [`QuantizedPredictor::predict_batch`] scores the same staged rows as
//! [`ContextualPredictor::predict_batch`] but in int8.

use pg_nn::batch::{lane_stride, Tape};
use pg_nn::layers::dense_feature_major;
use pg_nn::quant::{quantize, ActRange, QConv1d, QDense};
use pg_nn::serialize::WeightFile;

use crate::config::{EmbeddingKind, PacketGameConfig};
use crate::predictor::{grow, ContextualPredictor, PredictScratch};

/// f32 weights of one two-layer embedding branch.
#[derive(Debug, Clone)]
struct BranchWeights {
    l1_w: Vec<f32>,
    l1_b: Vec<f32>,
    l2_w: Vec<f32>,
    l2_b: Vec<f32>,
}

/// f32 weights of the two-layer fusion head.
#[derive(Debug, Clone)]
struct FusionWeights {
    d1_w: Vec<f32>,
    d1_b: Vec<f32>,
    d2_w: Vec<f32>,
    d2_b: Vec<f32>,
}

/// Everything extracted from the predictor's runtime weight file.
#[derive(Debug, Clone)]
struct Extracted {
    view_i: BranchWeights,
    view_p: BranchWeights,
    fusion: FusionWeights,
}

fn take(wf: &WeightFile, name: &str, expect: usize) -> Result<Vec<f32>, String> {
    let v = wf
        .get(name)
        .ok_or_else(|| format!("missing weight entry {name}"))?;
    if v.len() != expect {
        return Err(format!(
            "shape mismatch for {name}: file {} vs expected {expect}",
            v.len()
        ));
    }
    Ok(v.to_vec())
}

fn extract(config: &PacketGameConfig, wf: &WeightFile) -> Result<Extracted, String> {
    let c = config.conv_units;
    let k = config.conv_kernel;
    let w = config.window;
    let d = config.dense_units;
    let t = config.tasks;
    let (l1_cols, l2_cols) = match config.embedding {
        EmbeddingKind::Conv => (k, c * k),
        EmbeddingKind::Dense => (w, c),
        other => {
            return Err(format!(
                "quantized inference supports Conv/Dense embeddings, not {other:?}"
            ))
        }
    };
    let branch = |prefix: &str| -> Result<BranchWeights, String> {
        Ok(BranchWeights {
            l1_w: take(wf, &format!("{prefix}/0"), c * l1_cols)?,
            l1_b: take(wf, &format!("{prefix}/1"), c)?,
            l2_w: take(wf, &format!("{prefix}/2"), c * l2_cols)?,
            l2_b: take(wf, &format!("{prefix}/3"), c)?,
        })
    };
    Ok(Extracted {
        view_i: branch("view_i")?,
        view_p: branch("view_p")?,
        fusion: FusionWeights {
            d1_w: take(wf, "fusion/0", d * (2 * c + 1))?,
            d1_b: take(wf, "fusion/1", d)?,
            d2_w: take(wf, "fusion/2", t * d)?,
            d2_b: take(wf, "fusion/3", t)?,
        },
    })
}

/// Activation ranges of every quantization boundary in the network. Only
/// the branch input and mid-layer boundaries need calibration: each
/// branch's second layer dequantizes straight to f32 (its i32 accumulator
/// is exact, so no output range is needed), and the fusion head runs in
/// f32 throughout — see [`QuantizedPredictor`]. The mid-layer (`h1`)
/// boundary is calibrated **per channel**: post-ReLU channel ranges of a
/// trained conv stack differ by orders of magnitude, and a shared scale
/// wastes most of the int8 grid on the loudest channel.
/// Indexed by branch: view_i, then view_p.
#[derive(Debug, Clone)]
struct Ranges {
    input: [ActRange; 2],
    h1: [Vec<ActRange>; 2],
}

/// Records activation ranges for quantization by replaying staged rounds
/// through the batched f32 forward of the snapshotted weights.
#[derive(Debug)]
pub struct QuantCalibrator {
    config: PacketGameConfig,
    weights: Extracted,
    ranges: Ranges,
    rows: u64,
    /// The snapshot as an f32 predictor, its staging and the layer inputs
    /// its forward keeps (view_i, view_p, fusion).
    reference: ContextualPredictor,
    scratch: PredictScratch,
    tapes: [Tape; 3],
}

impl QuantCalibrator {
    /// Snapshot `predictor`'s weights for calibration. Errors for
    /// recurrent embeddings (`Rnn`/`Lstm`), which have no int8 kernels.
    pub fn from_predictor(predictor: &ContextualPredictor) -> Result<Self, String> {
        let config = predictor.config().clone();
        let wf = predictor.to_weight_file();
        let weights = extract(&config, &wf)?;
        let mut reference = ContextualPredictor::new(config.clone());
        reference.load_weight_file(&wf)?;
        Ok(QuantCalibrator {
            ranges: Ranges {
                input: [ActRange::new(); 2],
                h1: std::array::from_fn(|_| vec![ActRange::new(); config.conv_units]),
            },
            config,
            weights,
            rows: 0,
            reference,
            scratch: PredictScratch::new(),
            tapes: Default::default(),
        })
    }

    /// Total rows observed so far.
    pub fn rows_observed(&self) -> u64 {
        self.rows
    }

    /// Observe every staged row of a round: replay it through the
    /// snapshot's batched f32 forward and fold each quantization boundary's
    /// activations into the calibrated ranges — a branch's input (masked
    /// as inference masks it) and the input of its second layer (the ReLU
    /// output). The fusion head needs no calibration: it runs in f32.
    pub fn observe_batch(&mut self, staged: &PredictScratch) {
        let (m, w, view_i, view_p, temporal) = staged.staged();
        self.scratch.begin(m, w);
        for r in 0..m {
            let (vi, vp) = self.scratch.stream_row(r, f64::from(temporal[r]));
            vi.copy_from_slice(&view_i[r * w..(r + 1) * w]);
            vp.copy_from_slice(&view_p[r * w..(r + 1) * w]);
        }
        let tapes = Some(&mut self.tapes);
        self.reference
            .compute_logits_batch(&mut self.scratch, tapes);
        let r = &mut self.ranges;
        for (b, tape) in self.tapes[..2].iter().enumerate() {
            r.input[b].observe(tape.input(0).data());
            let h1 = tape.input(2);
            let len = h1.len_t();
            for row in 0..m {
                for (ch, range) in r.h1[b].iter_mut().enumerate() {
                    range.observe(&h1.row(row)[ch * len..(ch + 1) * len]);
                }
            }
        }
        self.rows += m as u64;
    }

    /// Freeze weights and calibrated ranges into a quantized predictor.
    /// Errors if no rows were observed — scales would be meaningless.
    pub fn finish(&self) -> Result<QuantizedPredictor, String> {
        if self.rows == 0 {
            return Err("quantization calibration saw no rows".into());
        }
        let cfg = &self.config;
        let c = cfg.conv_units;
        let k = cfg.conv_kernel;
        let w = cfg.window;
        // Fold the per-channel mid-layer scales into the second layer's f32
        // weights before quantizing them: h1 real values are `h1q[i]·s_h1[i]`,
        // so scaling column group `i` of `l2_w` by `s_h1[i]` lets layer 2
        // finish with `s_x = 1.0` while each h1 channel keeps its own int8
        // resolution. `cols` is the weights-per-input-channel stride (conv
        // kernel taps, or 1 for dense).
        let fold = |l2_w: &[f32], s_h1: &[f32], cols: usize| -> Vec<f32> {
            let mut w2 = l2_w.to_vec();
            for o in 0..c {
                for (i, &s) in s_h1.iter().enumerate() {
                    for v in &mut w2[(o * c + i) * cols..(o * c + i + 1) * cols] {
                        *v *= s;
                    }
                }
            }
            w2
        };
        // Calibration sees a finite sample: a per-channel max is a noisier
        // estimate than the tensor-wide max, and values beyond it *clip*
        // (a much larger error than rounding). Leave saturation headroom on
        // each channel's scale; even at 1.5× a quiet channel keeps far more
        // int8 resolution than under a shared tensor-wide scale.
        const H1_HEADROOM: f32 = 1.5;
        let branch = |bw: &BranchWeights, s_in: f32, h1: &[ActRange]| -> QBranch {
            let s_h1: Vec<f32> = h1.iter().map(|r| r.scale() * H1_HEADROOM).collect();
            let embed = match cfg.embedding {
                EmbeddingKind::Conv => QEmbed::Conv {
                    c1: QConv1d::from_f32(1, c, k, &bw.l1_w, &bw.l1_b),
                    c2: QConv1d::from_f32(c, c, k, &fold(&bw.l2_w, &s_h1, k), &bw.l2_b),
                },
                EmbeddingKind::Dense => QEmbed::Dense {
                    d1: QDense::from_f32(w, c, &bw.l1_w, &bw.l1_b),
                    d2: QDense::from_f32(c, c, &fold(&bw.l2_w, &s_h1, 1), &bw.l2_b),
                },
                _ => unreachable!("rejected at construction"),
            };
            QBranch { embed, s_in, s_h1 }
        };
        let r = &self.ranges;
        Ok(QuantizedPredictor {
            config: cfg.clone(),
            branch_i: branch(&self.weights.view_i, r.input[0].scale(), &r.h1[0]),
            branch_p: branch(&self.weights.view_p, r.input[1].scale(), &r.h1[1]),
            fusion: self.weights.fusion.clone(),
            calibrated_rows: self.rows,
            scratch: QScratch::default(),
        })
    }
}

/// One quantized embedding branch (conv or dense flavour).
#[derive(Debug)]
enum QEmbed {
    /// Conv1D ×2 + global max pool (pooling happens in f32 post-dequant).
    Conv { c1: QConv1d, c2: QConv1d },
    /// Dense ×2 (no pooling).
    Dense { d1: QDense, d2: QDense },
}

/// Branch weights plus its activation scales: one input scale and one
/// mid-layer scale **per channel** (already folded into the second layer's
/// quantized weights — see [`QuantCalibrator::finish`]). The second
/// layer's exact i32 accumulator dequantizes straight to f32, so the
/// branch output carries no extra quantization boundary.
#[derive(Debug)]
struct QBranch {
    embed: QEmbed,
    s_in: f32,
    s_h1: Vec<f32>,
}

impl QBranch {
    /// Run the branch over feature-major int8 input `xq` `(w, m)`, leaving
    /// the `(c, m)` f32 embedding in `emb`. Both heavy layers accumulate
    /// in int8/i32; only the finish of the second layer is f32.
    #[allow(clippy::too_many_arguments)]
    fn forward(
        &self,
        xq: &[i8],
        acc: &mut Vec<i32>,
        h1: &mut Vec<i8>,
        h2: &mut Vec<f32>,
        emb: &mut [f32],
        m: usize,
        w: usize,
        c: usize,
    ) {
        match &self.embed {
            QEmbed::Conv { c1, c2 } => {
                let n = c * w * m;
                grow(acc, n);
                grow(h1, n);
                grow(h2, n);
                // Both quantized boundaries are non-negative — log-size
                // features at the input, post-ReLU h1 — so the maddubs
                // fast path applies at every layer.
                c1.accumulate_nonneg(xq, &mut acc[..n], m, w);
                c1.finish_relu_quant_per_channel(
                    &acc[..n],
                    self.s_in,
                    &self.s_h1,
                    &mut h1[..n],
                    m,
                    w,
                );
                c2.accumulate_nonneg(&h1[..n], &mut acc[..n], m, w);
                // s_x = 1.0: the per-channel h1 scales are folded into c2's
                // weights at calibration time.
                c2.finish_f32(&acc[..n], 1.0, true, &mut h2[..n], m, w);
                global_max_pool_f32(&h2[..n], emb, c, w, m);
            }
            QEmbed::Dense { d1, d2 } => {
                let n = c * m;
                grow(acc, n);
                grow(h1, n);
                d1.accumulate_nonneg(xq, &mut acc[..n], m);
                d1.finish_relu_quant_per_channel(&acc[..n], self.s_in, &self.s_h1, &mut h1[..n], m);
                d2.accumulate_nonneg(&h1[..n], &mut acc[..n], m);
                d2.finish_f32(&acc[..n], 1.0, true, emb, m);
            }
        }
    }
}

/// Feature-major f32 global max pool: `x` is `(channels, len, batch)`,
/// `y` is `(channels, batch)`.
fn global_max_pool_f32(x: &[f32], y: &mut [f32], channels: usize, len: usize, batch: usize) {
    for ch in 0..channels {
        let base = ch * len * batch;
        y[ch * batch..(ch + 1) * batch].copy_from_slice(&x[base..base + batch]);
        for t in 1..len {
            let row = &x[base + t * batch..base + (t + 1) * batch];
            for (dst, &v) in y[ch * batch..(ch + 1) * batch].iter_mut().zip(row) {
                if v > *dst {
                    *dst = v;
                }
            }
        }
    }
}

/// Grow-only int8/i32/f32 working buffers for one quantized round.
#[derive(Debug, Default)]
struct QScratch {
    xq: Vec<i8>,
    acc: Vec<i32>,
    h1: Vec<i8>,
    h2: Vec<f32>,
    emb_i: Vec<f32>,
    emb_p: Vec<f32>,
    /// Fusion input (2c+1, m), f32: dequantized embeddings + temporal.
    fin: Vec<f32>,
    /// Fusion hidden (d, m), f32.
    fh: Vec<f32>,
    logits: Vec<f32>,
    conf: Vec<f64>,
}

/// Frozen mixed-precision snapshot of a trained [`ContextualPredictor`]:
/// int8 view branches (the bulk of the arithmetic), f32 fusion head.
///
/// Scores the rows staged in a [`PredictScratch`] exactly like the f32
/// `predict_batch`. Logits are decision-equivalent, not bit-identical, to
/// the f32 path. Unlike the f32 predictor this snapshot does not follow
/// online weight updates: re-calibrate to pick them up.
#[derive(Debug)]
pub struct QuantizedPredictor {
    config: PacketGameConfig,
    branch_i: QBranch,
    branch_p: QBranch,
    /// The fusion head stays f32 (mixed precision): it is a tiny fraction
    /// of the arithmetic but sits right before the logits, where int8
    /// rounding noise translates directly into ordering flips in the §5.3
    /// ratio sort. The conv/dense branches — the bulk of the compute —
    /// are int8.
    fusion: FusionWeights,
    calibrated_rows: u64,
    scratch: QScratch,
}

impl QuantizedPredictor {
    /// Rows the calibration phase observed before freezing.
    pub fn calibrated_rows(&self) -> u64 {
        self.calibrated_rows
    }

    /// Number of task heads.
    pub fn tasks(&self) -> usize {
        self.config.tasks
    }

    /// Raw logits for all heads of every staged row, row-major `(m, tasks)`
    /// like [`ContextualPredictor::forward_logits_batch`].
    pub fn forward_logits_batch(&mut self, staged: &PredictScratch) -> Vec<f32> {
        let (m, _, _, _, _) = staged.staged();
        self.run(staged);
        let tasks = self.config.tasks;
        let mp = lane_stride(m);
        let mut out = vec![0.0f32; m * tasks];
        for t in 0..tasks {
            for r in 0..m {
                out[r * tasks + t] = self.scratch.logits[t * mp + r];
            }
        }
        out
    }

    /// Gating confidences (sigmoid of head `task`) for every staged row.
    /// After buffer warm-up, rounds at or below the high-water batch size
    /// perform no heap allocations.
    pub fn predict_batch(&mut self, staged: &PredictScratch, task: usize) -> &[f64] {
        let (m, _, _, _, _) = staged.staged();
        self.run(staged);
        let tasks = self.config.tasks;
        let t = task.min(tasks - 1);
        let mp = lane_stride(m);
        grow(&mut self.scratch.conf, m);
        for r in 0..m {
            let z = f64::from(self.scratch.logits[t * mp + r]);
            self.scratch.conf[r] = 1.0 / (1.0 + (-z).exp());
        }
        &self.scratch.conf[..m]
    }

    /// Core pass: fill `scratch.logits` feature-major `(tasks, mp)` where
    /// `mp = lane_stride(m)` — the stride is padded away from cache-set
    /// resonance at large power-of-two batches, padded lanes zeroed and
    /// their outputs ignored (same scheme as the f32 batch kernels).
    fn run(&mut self, staged: &PredictScratch) {
        let (m, w, view_i, view_p, temporal) = staged.staged();
        assert_eq!(w, self.config.window, "staged window mismatch");
        let c = self.config.conv_units;
        let d = self.config.dense_units;
        let tasks = self.config.tasks;
        let use_views = self.config.use_size_views;
        let use_t = self.config.use_temporal_view;
        let mp = lane_stride(m);
        let s = &mut self.scratch;
        grow(&mut s.xq, w * mp);
        grow(&mut s.emb_i, c * mp);
        grow(&mut s.emb_p, c * mp);

        // Quantize + transpose each branch input to feature-major int8.
        for (views, branch, emb) in [
            (view_i, &self.branch_i, &mut s.emb_i),
            (view_p, &self.branch_p, &mut s.emb_p),
        ] {
            let xq = &mut s.xq[..w * mp];
            if use_views {
                for r in 0..m {
                    for (j, &v) in views[r * w..(r + 1) * w].iter().enumerate() {
                        xq[j * mp + r] = quantize(v, branch.s_in);
                    }
                }
                if mp > m {
                    for j in 0..w {
                        xq[j * mp + m..(j + 1) * mp].fill(0);
                    }
                }
            } else {
                xq.fill(0);
            }
            branch.forward(
                xq,
                &mut s.acc,
                &mut s.h1,
                &mut s.h2,
                &mut emb[..c * mp],
                mp,
                w,
                c,
            );
        }

        // Fusion input (2c+1, mp), f32: the branch embeddings are already
        // f32 (dequantized at the branches' last finish), plus the
        // temporal estimate untouched.
        let fin_w = 2 * c + 1;
        grow(&mut s.fin, fin_w * mp);
        s.fin[..c * mp].copy_from_slice(&s.emb_i[..c * mp]);
        s.fin[c * mp..2 * c * mp].copy_from_slice(&s.emb_p[..c * mp]);
        let trow = &mut s.fin[2 * c * mp..fin_w * mp];
        trow.fill(0.0);
        if use_t {
            for (dst, &t) in trow.iter_mut().zip(temporal) {
                *dst = t;
            }
        }

        // Fusion head in f32, feature-major: hidden = relu(W1·fin + b1),
        // logits = W2·hidden + b2, via the dispatch-gated dense kernel
        // (bit-identical across levels — see `dense_feature_major`).
        let fw = &self.fusion;
        grow(&mut s.fh, d * mp);
        grow(&mut s.logits, tasks * mp);
        dense_feature_major(
            &fw.d1_w,
            &fw.d1_b,
            &s.fin[..fin_w * mp],
            &mut s.fh[..d * mp],
            fin_w,
            d,
            mp,
        );
        for y in s.fh[..d * mp].iter_mut() {
            *y = y.max(0.0);
        }
        dense_feature_major(
            &fw.d2_w,
            &fw.d2_b,
            &s.fh[..d * mp],
            &mut s.logits[..tasks * mp],
            d,
            tasks,
            mp,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{test_config, train_for_task};
    use pg_scene::TaskKind;

    /// Stage `m` synthetic rows into a fresh scratch.
    fn staged_rows(m: usize, w: usize, seed: u64) -> PredictScratch {
        let mut s = PredictScratch::new();
        s.begin(m, w);
        for r in 0..m {
            let (vi, vp) = s.stream_row(r, (r as f64 * 0.37 + seed as f64 * 0.11) % 1.0);
            for (j, v) in vi.iter_mut().enumerate() {
                *v = (((r * w + j) as f32 * 0.17 + seed as f32).sin() * 0.4 + 0.5).max(0.0);
            }
            for (j, v) in vp.iter_mut().enumerate() {
                *v = (((r * w + j) as f32 * 0.23 + seed as f32).cos() * 0.3 + 0.4).max(0.0);
            }
        }
        s
    }

    #[test]
    fn recurrent_embeddings_are_rejected() {
        let cfg = PacketGameConfig {
            embedding: EmbeddingKind::Rnn,
            conv_units: 4,
            dense_units: 8,
            ..PacketGameConfig::default()
        };
        let p = ContextualPredictor::new(cfg);
        assert!(QuantCalibrator::from_predictor(&p).is_err());
    }

    #[test]
    fn finish_without_observation_is_an_error() {
        let p = ContextualPredictor::new(test_config());
        let calib = QuantCalibrator::from_predictor(&p).expect("calibrator");
        assert!(calib.finish().is_err());
    }

    #[test]
    fn quantized_confidences_track_f32_confidences() {
        let config = test_config();
        let predictor = train_for_task(TaskKind::AnomalyDetection, &config, 11);
        let w = config.window;
        let mut calib = QuantCalibrator::from_predictor(&predictor).expect("calibrator");
        for seed in 0..4 {
            calib.observe_batch(&staged_rows(64, w, seed));
        }
        let mut qp = calib.finish().expect("finish");
        assert!(qp.calibrated_rows() >= 256);

        let mut staged = staged_rows(96, w, 9);
        let f32_conf = predictor.predict_batch(&mut staged, 0).to_vec();
        let q_conf = qp.predict_batch(&staged, 0).to_vec();
        assert_eq!(f32_conf.len(), q_conf.len());
        let mut worst = 0f64;
        for (a, b) in f32_conf.iter().zip(&q_conf) {
            worst = worst.max((a - b).abs());
        }
        assert!(
            worst < 0.08,
            "quantized confidence drifted {worst:.4} from f32"
        );
    }

    #[test]
    fn quantized_path_is_deterministic_across_levels() {
        use pg_nn::simd::{available_levels, with_level};
        let config = test_config();
        let predictor = train_for_task(TaskKind::FireDetection, &config, 3);
        let w = config.window;
        let mut calib = QuantCalibrator::from_predictor(&predictor).expect("calibrator");
        calib.observe_batch(&staged_rows(32, w, 1));
        let staged = staged_rows(50, w, 2);
        let mut reference: Option<Vec<f64>> = None;
        for level in available_levels() {
            let mut qp = calib.finish().expect("finish");
            let conf = with_level(level, || qp.predict_batch(&staged, 0).to_vec());
            match &reference {
                None => reference = Some(conf),
                Some(r) => assert_eq!(r, &conf, "level {level:?} diverges"),
            }
        }
    }

    #[test]
    fn degenerate_constant_stream_calibration_is_safe() {
        // All-zero views and temporal: every range is degenerate; scales
        // must stay positive and inference must stay finite.
        let config = test_config();
        let predictor = train_for_task(TaskKind::AnomalyDetection, &config, 5);
        let w = config.window;
        let mut s = PredictScratch::new();
        s.begin(8, w);
        for r in 0..8 {
            let (vi, vp) = s.stream_row(r, 0.0);
            vi.fill(0.0);
            vp.fill(0.0);
        }
        let mut calib = QuantCalibrator::from_predictor(&predictor).expect("calibrator");
        calib.observe_batch(&s);
        let mut qp = calib.finish().expect("finish");
        let conf = qp.predict_batch(&s, 0);
        assert!(conf.iter().all(|c| c.is_finite()));
    }
}
