//! Contextual predictor (paper §5.2, Fig. 7).
//!
//! Three views of input information are fused into one gating confidence:
//!
//! * **View 1** — the last `w` packet sizes of *independent* frames,
//!   embedded by Conv1D×2 + global max pooling;
//! * **View 2** — the last `w` packet sizes of *predicted* frames, with
//!   its own embedding branch (separate inductive bias, §4.3);
//! * **View 3** — the temporal estimator's output `μ̂`.
//!
//! The branch outputs are concatenated and passed through dense layers; the
//! final layer has one logit per task (the multi-task extension simply
//! widens it, §5.2). Training uses binary cross-entropy on logits with
//! RMSprop (§6.1); deployment freezes the weights ("we transform the
//! trained weights into a binary runtime file").

use pg_nn::batch::Scratch;
use pg_nn::layers::{Conv1d, Dense, GlobalMaxPool1d, Layer, ReLU};
use pg_nn::lstm::Lstm;
use pg_nn::model::Sequential;
use pg_nn::optim::Optimizer;
use pg_nn::recurrent::Rnn;
use pg_nn::serialize::WeightFile;
use pg_nn::tensor::Tensor;

use crate::config::PacketGameConfig;

/// Grow-only resize (never shrinks), so repeated rounds at or below the
/// high-water batch size perform no allocations.
fn grow<T: Clone + Default>(v: &mut Vec<T>, n: usize) {
    if v.len() < n {
        v.resize(n, T::default());
    }
}

/// Neural-network scratch: one ping-pong buffer per branch.
#[derive(Debug, Default)]
struct NnScratch {
    i: Scratch,
    p: Scratch,
    f: Scratch,
}

/// Caller-owned, reusable buffers for the batched gate decision path.
///
/// One `PredictScratch` serves any number of rounds: a round starts with
/// [`PredictScratch::begin`], fills one row per stream via
/// [`PredictScratch::stream_row`], then hands the scratch to
/// [`ContextualPredictor::predict_batch`]. All buffers are grow-only, so
/// once the high-water `(m, w)` shape has been seen, steady-state rounds
/// perform **zero heap allocations**. The batch runs on the caller's
/// thread.
#[derive(Debug, Default)]
pub struct PredictScratch {
    m: usize,
    w: usize,
    /// Row-major `(m, w)` independent-frame size views.
    view_i: Vec<f32>,
    /// Row-major `(m, w)` predicted-frame size views.
    view_p: Vec<f32>,
    /// Per-stream temporal estimates.
    temporal: Vec<f32>,
    /// Row-major `(m, tasks)` output logits.
    logits: Vec<f32>,
    /// Per-stream confidences for the requested task head.
    conf: Vec<f64>,
    /// Branch and fusion activations.
    nn: NnScratch,
}

impl PredictScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a round of `m` streams with window length `w`. Existing row
    /// contents become stale; every row must be rewritten via
    /// [`PredictScratch::stream_row`] before predicting.
    pub fn begin(&mut self, m: usize, w: usize) {
        self.m = m;
        self.w = w;
        grow(&mut self.view_i, m * w);
        grow(&mut self.view_p, m * w);
        grow(&mut self.temporal, m);
    }

    /// Number of rows in the current round.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// The staged round as `(m, w, view_i, view_p, temporal)` — read-only
    /// access for consumers that score the same staged rows through a
    /// different inference path (quantized calibration and inference).
    pub(crate) fn staged(&self) -> (usize, usize, &[f32], &[f32], &[f32]) {
        (
            self.m,
            self.w,
            &self.view_i[..self.m * self.w],
            &self.view_p[..self.m * self.w],
            &self.temporal[..self.m],
        )
    }

    /// Set stream `row`'s temporal estimate and return its two size-view
    /// slices (`w` floats each) for the caller to fill in place.
    pub fn stream_row(&mut self, row: usize, temporal: f64) -> (&mut [f32], &mut [f32]) {
        assert!(row < self.m, "row {row} out of range (m = {})", self.m);
        self.temporal[row] = temporal as f32;
        let w = self.w;
        (
            &mut self.view_i[row * w..(row + 1) * w],
            &mut self.view_p[row * w..(row + 1) * w],
        )
    }
}

/// The multi-view contextual predictor. See module docs.
#[derive(Debug)]
pub struct ContextualPredictor {
    config: PacketGameConfig,
    view_i: Sequential,
    view_p: Sequential,
    fusion: Sequential,
    /// Reusable masked-input tensors for the sequential path — refilled in
    /// place instead of allocating a fresh `Tensor` per call.
    in_i: Tensor,
    in_p: Tensor,
}

impl ContextualPredictor {
    /// Freshly-initialized predictor for `config`.
    pub fn new(config: PacketGameConfig) -> Self {
        let c = config.conv_units;
        let k = config.conv_kernel;
        let w = config.window;
        let seed = config.seed;
        let embedding = config.embedding;
        let branch = |branch_seed: u64| -> Sequential {
            let layers: Vec<Box<dyn Layer>> = match embedding {
                crate::config::EmbeddingKind::Conv => vec![
                    Box::new(Conv1d::new(1, c, k, branch_seed)),
                    Box::new(ReLU::new()),
                    Box::new(Conv1d::new(c, c, k, branch_seed + 1)),
                    Box::new(ReLU::new()),
                    Box::new(GlobalMaxPool1d::new()),
                ],
                crate::config::EmbeddingKind::Dense => vec![
                    Box::new(Dense::new(w, c, branch_seed)),
                    Box::new(ReLU::new()),
                    Box::new(Dense::new(c, c, branch_seed + 1)),
                    Box::new(ReLU::new()),
                ],
                crate::config::EmbeddingKind::Rnn => vec![
                    Box::new(Rnn::new(1, c, branch_seed)),
                    Box::new(GlobalMaxPool1d::new()),
                ],
                crate::config::EmbeddingKind::Lstm => vec![
                    Box::new(Lstm::new(1, c, branch_seed)),
                    Box::new(GlobalMaxPool1d::new()),
                ],
            };
            Sequential::new(layers)
        };
        let fusion_in = 2 * c + 1;
        let fusion = Sequential::new(vec![
            Box::new(Dense::new(fusion_in, config.dense_units, seed + 10)),
            Box::new(ReLU::new()),
            Box::new(Dense::new(config.dense_units, config.tasks, seed + 11)),
        ]);
        ContextualPredictor {
            view_i: branch(seed + 20),
            view_p: branch(seed + 30),
            fusion,
            in_i: Tensor::zeros(1, w),
            in_p: Tensor::zeros(1, w),
            config,
        }
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> &PacketGameConfig {
        &self.config
    }

    /// Number of task heads.
    pub fn tasks(&self) -> usize {
        self.config.tasks
    }

    /// Raw logits for all task heads.
    ///
    /// Inputs: the two fixed-length size views (length `w` each) and the
    /// temporal estimate. Views are masked to zero when the corresponding
    /// ablation flag is off.
    pub fn forward_logits(&mut self, view_i: &[f32], view_p: &[f32], temporal: f64) -> Vec<f32> {
        let w = self.config.window;
        assert_eq!(view_i.len(), w, "view 1 length mismatch");
        assert_eq!(view_p.len(), w, "view 2 length mismatch");

        if self.config.use_size_views {
            self.in_i.data_mut().copy_from_slice(view_i);
            self.in_p.data_mut().copy_from_slice(view_p);
        } else {
            self.in_i.data_mut().fill(0.0);
            self.in_p.data_mut().fill(0.0);
        }
        let fi = self.view_i.forward(&self.in_i);
        let fp = self.view_p.forward(&self.in_p);
        let t = if self.config.use_temporal_view {
            temporal as f32
        } else {
            0.0
        };
        let fused_in = Tensor::concat(&[&fi, &fp, &Tensor::vector(vec![t])]);
        self.fusion.forward(&fused_in).data().to_vec()
    }

    /// Gating confidence (sigmoid of the logit) for task head `task`.
    pub fn predict(&mut self, view_i: &[f32], view_p: &[f32], temporal: f64, task: usize) -> f64 {
        let logits = self.forward_logits(view_i, view_p, temporal);
        let z = f64::from(logits[task.min(logits.len() - 1)]);
        1.0 / (1.0 + (-z).exp())
    }

    /// Batched, inference-mode logits for all rows currently staged in
    /// `scratch` (see [`PredictScratch::begin`] / `stream_row`). Returns
    /// the row-major `(m, tasks)` logit matrix.
    ///
    /// Takes `&self`: the weights are frozen, no training caches are
    /// written, and after scratch warm-up the pass performs no heap
    /// allocations. It runs on the caller's thread. Per-row arithmetic
    /// order matches [`ContextualPredictor::forward_logits`] exactly, so
    /// the two paths agree bit-for-bit.
    pub fn forward_logits_batch<'s>(&self, scratch: &'s mut PredictScratch) -> &'s [f32] {
        self.compute_logits_batch(scratch);
        &scratch.logits[..scratch.m * self.config.tasks]
    }

    /// Batched gating confidences (sigmoid of the `task` head logit) for
    /// all staged rows; see [`ContextualPredictor::forward_logits_batch`].
    pub fn predict_batch<'s>(&self, scratch: &'s mut PredictScratch, task: usize) -> &'s [f64] {
        self.compute_logits_batch(scratch);
        let m = scratch.m;
        let tasks = self.config.tasks;
        let t = task.min(tasks - 1);
        grow(&mut scratch.conf, m);
        for r in 0..m {
            let z = f64::from(scratch.logits[r * tasks + t]);
            scratch.conf[r] = 1.0 / (1.0 + (-z).exp());
        }
        &scratch.conf[..m]
    }

    /// Run the staged rows through both view branches and the fusion
    /// head, filling `scratch.logits` with `m × tasks` logits.
    fn compute_logits_batch(&self, scratch: &mut PredictScratch) {
        let PredictScratch {
            m,
            w,
            view_i,
            view_p,
            temporal,
            logits,
            nn,
            ..
        } = scratch;
        let (m, w) = (*m, *w);
        assert_eq!(w, self.config.window, "scratch window mismatch");
        let c = self.config.conv_units;
        let tasks = self.config.tasks;
        grow(logits, m * tasks);
        if m == 0 {
            return;
        }
        // Branch inputs: `(m, 1, w)` rows, zero-masked when the size views
        // are ablated (mirrors the sequential path's masking).
        let buf = nn.i.begin(m, 1, w);
        if self.config.use_size_views {
            buf.copy_from_slice(&view_i[..m * w]);
        } else {
            buf.fill(0.0);
        }
        self.view_i.forward_batch(&mut nn.i);
        let buf = nn.p.begin(m, 1, w);
        if self.config.use_size_views {
            buf.copy_from_slice(&view_p[..m * w]);
        } else {
            buf.fill(0.0);
        }
        self.view_p.forward_batch(&mut nn.p);
        // Fusion input `(m, 2c+1, 1)`: [branch_i | branch_p | temporal],
        // the batched analogue of `Tensor::concat` in the sequential path.
        let fin = 2 * c + 1;
        let use_t = self.config.use_temporal_view;
        let buf = nn.f.begin(m, fin, 1);
        let (ei, ep) = (nn.i.cur(), nn.p.cur());
        for r in 0..m {
            let dst = &mut buf[r * fin..(r + 1) * fin];
            dst[..c].copy_from_slice(&ei[r * c..(r + 1) * c]);
            dst[c..2 * c].copy_from_slice(&ep[r * c..(r + 1) * c]);
            dst[2 * c] = if use_t { temporal[r] } else { 0.0 };
        }
        self.fusion.forward_batch(&mut nn.f);
        logits[..m * tasks].copy_from_slice(&nn.f.cur()[..m * tasks]);
    }

    /// Backward pass: `grad_logits` is ∂L/∂logits (one per task head).
    /// Accumulates gradients; callers drive the optimizer.
    pub fn backward(&mut self, grad_logits: &[f32]) {
        let c = self.config.conv_units;
        let grad_fused_in = self.fusion.backward(&Tensor::vector(grad_logits.to_vec()));
        let g = grad_fused_in.data();
        debug_assert_eq!(g.len(), 2 * c + 1);
        self.view_i.backward(&Tensor::vector(g[..c].to_vec()));
        self.view_p.backward(&Tensor::vector(g[c..2 * c].to_vec()));
        // The temporal scalar has no parameters upstream; its grad is dropped.
    }

    /// Zero all accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.view_i.zero_grad();
        self.view_p.zero_grad();
        self.fusion.zero_grad();
    }

    /// Scale all accumulated gradients (1/batch).
    pub fn scale_grad(&mut self, s: f32) {
        self.view_i.scale_grad(s);
        self.view_p.scale_grad(s);
        self.fusion.scale_grad(s);
    }

    /// One optimizer step over all parameters.
    pub fn step(&mut self, opt: &dyn Optimizer) {
        self.view_i.step(opt);
        self.view_p.step(opt);
        self.fusion.step(opt);
    }

    /// Total trainable parameters (the paper's Fig. 13b "Parameters" axis).
    pub fn param_count(&self) -> usize {
        self.view_i.param_count() + self.view_p.param_count() + self.fusion.param_count()
    }

    /// FLOPs of the last forward pass (Table 4 accounting).
    pub fn last_flops(&self) -> u64 {
        self.view_i.last_flops() + self.view_p.last_flops() + self.fusion.last_flops()
    }

    /// Export trained weights as a binary runtime file.
    pub fn to_weight_file(&self) -> WeightFile {
        let mut wf = WeightFile::new();
        for (prefix, branch) in [
            ("view_i", &self.view_i),
            ("view_p", &self.view_p),
            ("fusion", &self.fusion),
        ] {
            for (i, p) in branch.params().iter().enumerate() {
                wf.add(format!("{prefix}/{i}"), p.w.clone());
            }
        }
        wf
    }

    /// Load weights from a binary runtime file (shapes must match the
    /// current configuration).
    pub fn load_weight_file(&mut self, wf: &WeightFile) -> Result<(), String> {
        for (prefix, branch) in [
            ("view_i", &mut self.view_i),
            ("view_p", &mut self.view_p),
            ("fusion", &mut self.fusion),
        ] {
            for (i, p) in branch.params_mut().into_iter().enumerate() {
                let name = format!("{prefix}/{i}");
                let values = wf
                    .get(&name)
                    .ok_or_else(|| format!("missing weight entry {name}"))?;
                if values.len() != p.w.len() {
                    return Err(format!(
                        "shape mismatch for {name}: file {} vs model {}",
                        values.len(),
                        p.w.len()
                    ));
                }
                p.w.copy_from_slice(values);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> ContextualPredictor {
        ContextualPredictor::new(PacketGameConfig::default())
    }

    #[test]
    fn forward_shapes_and_range() {
        let mut p = predictor();
        let v = vec![0.5f32; 5];
        let logits = p.forward_logits(&v, &v, 0.3);
        assert_eq!(logits.len(), 1);
        let conf = p.predict(&v, &v, 0.3, 0);
        assert!((0.0..=1.0).contains(&conf));
    }

    #[test]
    fn multi_task_head_width() {
        let mut p = ContextualPredictor::new(PacketGameConfig::default().with_tasks(3));
        let v = vec![0.1f32; 5];
        assert_eq!(p.forward_logits(&v, &v, 0.0).len(), 3);
        assert_eq!(p.tasks(), 3);
    }

    #[test]
    fn temporal_view_can_be_ablated() {
        let config = PacketGameConfig {
            use_temporal_view: false,
            ..PacketGameConfig::default()
        };
        let mut p = ContextualPredictor::new(config);
        let v = vec![0.2f32; 5];
        let a = p.forward_logits(&v, &v, 0.0)[0];
        let b = p.forward_logits(&v, &v, 0.9)[0];
        assert_eq!(a, b, "ablated temporal view must not affect output");
    }

    #[test]
    fn size_views_can_be_ablated() {
        let config = PacketGameConfig {
            use_size_views: false,
            ..PacketGameConfig::default()
        };
        let mut p = ContextualPredictor::new(config);
        let a = p.forward_logits(&[0.1; 5], &[0.2; 5], 0.5)[0];
        let b = p.forward_logits(&[0.9; 5], &[0.7; 5], 0.5)[0];
        assert_eq!(a, b, "ablated size views must not affect output");
    }

    #[test]
    fn weight_file_roundtrip_preserves_outputs() {
        let mut p = predictor();
        let v1 = vec![0.3f32, 0.1, 0.9, 0.4, 0.5];
        let v2 = vec![0.2f32, 0.2, 0.8, 0.1, 0.6];
        let before = p.forward_logits(&v1, &v2, 0.4);
        let wf = p.to_weight_file();

        // A differently-seeded predictor produces different outputs...
        let mut q = ContextualPredictor::new(PacketGameConfig::default().with_seed(99));
        let different = q.forward_logits(&v1, &v2, 0.4);
        assert_ne!(before, different);
        // ...until loaded from the weight file.
        q.load_weight_file(&wf).expect("load");
        let after = q.forward_logits(&v1, &v2, 0.4);
        assert_eq!(before, after);
    }

    #[test]
    fn weight_file_shape_mismatch_is_rejected() {
        let p = predictor();
        let wf = p.to_weight_file();
        let mut other = ContextualPredictor::new(PacketGameConfig::default().with_window(10));
        // Window doesn't change parameter shapes (convs are size-agnostic),
        // but a different conv width does.
        let cfg = PacketGameConfig {
            conv_units: 16,
            ..PacketGameConfig::default()
        };
        let mut narrow = ContextualPredictor::new(cfg);
        assert!(narrow.load_weight_file(&wf).is_err());
        assert!(other.load_weight_file(&wf).is_ok());
    }

    #[test]
    fn param_count_is_plausible() {
        let p = predictor();
        // view branches: (32·1·3+32) + (32·32·3+32) ×2; fusion:
        // 65·128+128 + 128·1+1.
        let branch = (32 * 3 + 32) + (32 * 32 * 3 + 32);
        let fusion = 65 * 128 + 128 + 128 + 1;
        assert_eq!(p.param_count(), 2 * branch + fusion);
    }

    #[test]
    fn flops_are_reported_after_forward() {
        let mut p = predictor();
        let v = vec![0.1f32; 5];
        p.forward_logits(&v, &v, 0.0);
        let flops = p.last_flops();
        // The paper reports ~5K FLOPs for its predictor; ours is the same
        // architecture — order 10⁴–10⁵ with multiply+add counted separately.
        assert!(flops > 1_000, "flops {flops}");
        assert!(flops < 300_000, "flops {flops}");
    }

    #[test]
    fn all_embedding_kinds_forward_and_train() {
        use crate::config::EmbeddingKind;
        use pg_nn::optim::RmsProp;
        for kind in [
            EmbeddingKind::Conv,
            EmbeddingKind::Dense,
            EmbeddingKind::Rnn,
            EmbeddingKind::Lstm,
        ] {
            let cfg = PacketGameConfig {
                embedding: kind,
                conv_units: 8,
                dense_units: 16,
                ..PacketGameConfig::default()
            };
            let mut p = ContextualPredictor::new(cfg);
            let v1 = vec![0.2f32, 0.4, 0.1, 0.9, 0.3];
            let v2 = vec![0.6f32, 0.1, 0.5, 0.2, 0.7];
            let before = p.forward_logits(&v1, &v2, 0.5)[0];
            assert!(before.is_finite(), "{kind:?}");
            // One gradient step must change the output.
            p.zero_grad();
            p.forward_logits(&v1, &v2, 0.5);
            p.backward(&[1.0]);
            p.step(&RmsProp::with_lr(0.05));
            let after = p.forward_logits(&v1, &v2, 0.5)[0];
            assert_ne!(before, after, "{kind:?} did not train");
        }
    }

    #[test]
    fn conv_is_most_parameter_efficient_at_long_windows() {
        // The paper's §5.2 rationale: convolutions are window-length
        // agnostic; dense embeddings grow with the window.
        use crate::config::EmbeddingKind;
        let at = |kind: EmbeddingKind, w: usize| {
            let mut cfg = PacketGameConfig::default().with_window(w);
            cfg.embedding = kind;
            ContextualPredictor::new(cfg).param_count()
        };
        assert_eq!(
            at(EmbeddingKind::Conv, 5),
            at(EmbeddingKind::Conv, 25),
            "conv params must not depend on the window"
        );
        assert!(at(EmbeddingKind::Dense, 25) > at(EmbeddingKind::Dense, 5));
    }

    #[test]
    fn batch_logits_match_sequential_bit_for_bit() {
        let mut p = predictor();
        let w = p.config().window;
        let mut s = PredictScratch::new();
        // 512 and 1024 rows get a padded `lane_stride` (1024 f32 lanes is
        // the 4 KiB stride the padding exists for).
        for m in [9usize, 512, 1024] {
            s.begin(m, w);
            let rows: Vec<(Vec<f32>, Vec<f32>, f64)> = (0..m)
                .map(|r| {
                    let vi: Vec<f32> = (0..w).map(|i| ((r * w + i) as f32 * 0.13).sin()).collect();
                    let vp: Vec<f32> = (0..w).map(|i| ((r * w + i) as f32 * 0.29).cos()).collect();
                    (vi, vp, r as f64 / m as f64)
                })
                .collect();
            for (r, (vi, vp, t)) in rows.iter().enumerate() {
                let (di, dp) = s.stream_row(r, *t);
                di.copy_from_slice(vi);
                dp.copy_from_slice(vp);
            }
            let batched = p.forward_logits_batch(&mut s).to_vec();
            for (r, (vi, vp, t)) in rows.iter().enumerate() {
                let seq = p.forward_logits(vi, vp, *t);
                assert_eq!(seq.as_slice(), &batched[r..r + 1], "m {m} row {r}");
            }
            // And the confidence path agrees with sequential `predict`.
            let conf = p.predict_batch(&mut s, 0).to_vec();
            for (r, (vi, vp, t)) in rows.iter().enumerate() {
                assert_eq!(p.predict(vi, vp, *t, 0), conf[r], "m {m} row {r}");
            }
        }
    }

    #[test]
    fn batch_respects_ablation_masks() {
        for (size_views, temporal_view) in [(false, true), (true, false), (false, false)] {
            let cfg = PacketGameConfig {
                use_size_views: size_views,
                use_temporal_view: temporal_view,
                conv_units: 8,
                dense_units: 16,
                ..PacketGameConfig::default()
            };
            let mut p = ContextualPredictor::new(cfg);
            let w = p.config().window;
            let mut s = PredictScratch::new();
            s.begin(2, w);
            let (di, dp) = s.stream_row(0, 0.7);
            di.fill(0.4);
            dp.fill(0.8);
            let (di, dp) = s.stream_row(1, 0.2);
            di.fill(0.1);
            dp.fill(0.9);
            let batched = p.forward_logits_batch(&mut s).to_vec();
            assert_eq!(
                p.forward_logits(&vec![0.4; w], &vec![0.8; w], 0.7)[0],
                batched[0]
            );
            assert_eq!(
                p.forward_logits(&vec![0.1; w], &vec![0.9; w], 0.2)[0],
                batched[1]
            );
        }
    }

    #[test]
    fn gradients_flow_to_all_branches() {
        let mut p = predictor();
        let v1 = vec![0.3f32, 0.8, 0.2, 0.4, 0.9];
        let v2 = vec![0.5f32, 0.1, 0.7, 0.3, 0.2];
        p.forward_logits(&v1, &v2, 0.5);
        p.backward(&[1.0]);
        let any_grad = |s: &Sequential| s.params().iter().any(|pr| pr.g.iter().any(|&g| g != 0.0));
        assert!(any_grad(&p.fusion));
        assert!(any_grad(&p.view_i));
        assert!(any_grad(&p.view_p));
        p.zero_grad();
        assert!(!any_grad(&p.fusion));
    }
}
