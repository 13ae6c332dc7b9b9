//! Neural-network layers with forward and backward passes.
//!
//! Each layer has two forms. The per-sample `forward` caches what the
//! next `backward` needs to compute parameter gradients (accumulated into
//! each [`ParamSet::g`]) and the gradient w.r.t. the layer input; gradients
//! are verified against numerical differentiation in this module's tests.
//! The batched `forward_batch`/`backward_batch` pair runs a whole
//! mini-batch through reusable buffers and accumulates exactly the same
//! gradient bits (see [`Layer::backward_batch`]).

use crate::batch::{BatchView, Scratch};
use crate::init::{glorot_uniform, he_uniform, init_rng};
use crate::param::ParamSet;
#[cfg(target_arch = "x86_64")]
use crate::simd::Level;
use crate::tensor::Tensor;

/// A differentiable layer.
///
/// `Sync` so a frozen network (`&self`) can be shared across scoped worker
/// threads by the batched inference path.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Forward pass. Caches activations needed by `backward`.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Backward pass: takes ∂L/∂output, accumulates parameter gradients,
    /// returns ∂L/∂input. Must be called after `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Inference-mode batched forward pass.
    ///
    /// Reads the current `(batch, channels, len)` activation of `scratch`
    /// — `batch` independent samples — and writes the layer output back
    /// into `scratch`, advancing its shape. Unlike [`Layer::forward`] this
    /// takes `&self`: nothing is cached for `backward`, [`Layer::last_flops`]
    /// is not updated, and once the scratch buffers have grown to their
    /// high-water shape no call allocates. Per-sample arithmetic order
    /// matches `forward` exactly, so both paths agree bit-for-bit on
    /// targets without FMA contraction.
    fn forward_batch(&self, scratch: &mut Scratch);

    /// Batched backward pass, the training counterpart of
    /// [`Layer::forward_batch`].
    ///
    /// `input` is the `(batch, channels, len)` activation this layer's
    /// `forward_batch` read (kept by a [`crate::batch::Tape`]); `grad`'s
    /// current activation is ∂L/∂output for the same rows. Accumulates
    /// parameter gradients and, with `input_grad`, leaves ∂L/∂input as
    /// `grad`'s current activation; without it (a network's first layer,
    /// whose input gradient nobody reads) `grad` is left unspecified.
    ///
    /// Every parameter and input-gradient element receives its terms in
    /// the order `forward` + `backward` called per sample, in row order,
    /// would add them, so the accumulated bits are identical. Allocation-free
    /// once the scratch has warmed up, except in the recurrent layers, whose
    /// batched backward loops over their per-sample path.
    fn backward_batch(&mut self, input: BatchView<'_>, grad: &mut Scratch, input_grad: bool);

    /// Visit every trainable parameter set in [`Layer::params_mut`] order
    /// without collecting them into a `Vec`: the optimizer loop's
    /// allocation-free form.
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut ParamSet)) {
        for p in self.params_mut() {
            f(p);
        }
    }

    /// Trainable parameter sets (empty for activations/pooling).
    fn params_mut(&mut self) -> Vec<&mut ParamSet> {
        Vec::new()
    }

    /// Read-only parameter sets.
    fn params(&self) -> Vec<&ParamSet> {
        Vec::new()
    }

    /// Number of trainable scalars.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Floating-point operations of the last `forward` call (multiply and
    /// add counted separately — the convention behind the paper's Table 4).
    fn last_flops(&self) -> u64 {
        0
    }
}

/// Input channels per lane block of the conv backward: one 256-bit vector.
const LANES: usize = 8;

/// `acc[l] += c · v[l]` for the first [`LANES`] lanes, held in a fixed-size
/// array the compiler keeps in registers. Multiply and add stay separate.
#[inline(always)]
fn lanes_add(acc: &mut [f32], c: f32, v: &[f32]) {
    let (acc, v) = (&mut acc[..LANES], &v[..LANES]);
    for l in 0..LANES {
        acc[l] += c * v[l];
    }
}

/// Transpose each of `outer` consecutive row-major `(a, b)` blocks of
/// `src` into a `(b, a)` block of `dst`.
fn swap_inner_axes(src: &[f32], dst: &mut [f32], outer: usize, a: usize, b: usize) {
    for o in 0..outer {
        for x in 0..a {
            for y in 0..b {
                dst[(o * b + y) * a + x] = src[(o * a + x) * b + y];
            }
        }
    }
}

/// [`Layer::backward_batch`] as a per-row loop over the layer's per-sample
/// `forward` (to refill its caches) and `backward`. For layers without a
/// batched backward kernel — the recurrent embeddings of the ablation — so
/// it allocates per row like the per-sample path it wraps.
pub(crate) fn backward_batch_per_row(
    layer: &mut dyn Layer,
    input: BatchView<'_>,
    grad: &mut Scratch,
) {
    let (batch, out_ch, out_len) = grad.shape();
    let (in_ch, in_len) = (input.channels(), input.len_t());
    assert_eq!(batch, input.batch(), "backward batch size mismatch");
    grad.map_layer(in_ch, in_len, |g_out, g_in| {
        for r in 0..batch {
            layer.forward(&Tensor::from_vec(in_ch, in_len, input.row(r).to_vec()));
            let gi = layer.backward(&Tensor::from_vec(out_ch, out_len, g_out.row(r).to_vec()));
            g_in[r * in_ch * in_len..(r + 1) * in_ch * in_len].copy_from_slice(gi.data());
        }
    });
}

// ---------------------------------------------------------------------------
// Conv1d
// ---------------------------------------------------------------------------

/// Valid kernel-tap range for output position `t` under *same* zero
/// padding: `k ∈ [lo, hi)` iff the tapped input column `t + k − pad` is in
/// `[0, len)`. Hoisting this out of the innermost loop removes a
/// per-multiply branch from every conv kernel.
#[inline]
fn tap_range(t: usize, pad: usize, kernel: usize, len: usize) -> (usize, usize) {
    let lo = pad.saturating_sub(t);
    // `t < len` always, so `len + pad - t` cannot underflow.
    let hi = kernel.min(len + pad - t);
    (lo, hi.max(lo))
}

/// Samples per accumulator block in the batched conv/dense kernels: one
/// cache line of f32 lanes, held in a fixed-size register array. Each lane
/// owns an independent accumulator chain, so the FP adds of a block
/// pipeline (and vectorize) instead of serializing on one loop-carried
/// dependency — the core throughput advantage of the batched path over
/// per-sample forward.
const LANE_BLOCK: usize = 16;

/// Transpose a sample-major `(batch, features)` batch view into a
/// feature-major `(features, stride)` buffer: `dst[j*stride + r] =
/// row(r)[j]`. The batched matmul-style kernels run feature-major so the
/// innermost loop walks contiguous sample lanes. `stride ≥ batch` (see
/// [`crate::batch::lane_stride`]); padded lanes are zeroed so the kernels
/// compute on defined values (never denormal garbage) and the results are
/// simply discarded by the inverse transpose.
fn transpose_to_feature_major(inp: &crate::batch::BatchView<'_>, dst: &mut [f32], stride: usize) {
    let batch = inp.batch();
    let features = dst.len() / stride;
    let mut r0 = 0;
    #[cfg(target_arch = "x86_64")]
    if crate::simd::active_level() == Level::Avx2 {
        let data = inp.data();
        while r0 + 8 <= batch {
            let mut j0 = 0;
            while j0 + 8 <= features {
                // SAFETY: AVX2 verified by the dispatch level; the tile
                // spans rows r0..r0+8 × features j0..j0+8, in bounds by
                // the loop conditions.
                unsafe {
                    transpose_tile8x8_avx2(data, dst, r0, j0, features, stride);
                }
                j0 += 8;
            }
            for r in r0..r0 + 8 {
                for j in j0..features {
                    dst[j * stride + r] = data[r * features + j];
                }
            }
            r0 += 8;
        }
    }
    for r in r0..batch {
        for (j, &v) in inp.row(r).iter().enumerate() {
            dst[j * stride + r] = v;
        }
    }
    if stride > batch {
        for j in 0..features {
            dst[j * stride + batch..(j + 1) * stride].fill(0.0);
        }
    }
}

/// 8×8 f32 transpose core: unpack pairs, shuffle quads, then swap
/// 128-bit halves. Pure data movement — bit-identical to the scalar copy
/// by construction.
///
/// # Safety
/// Requires AVX2 at runtime; the caller guarantees the tile is in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn transpose8x8_avx2(
    rows: [std::arch::x86_64::__m256; 8],
) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::*;
    let [r0, r1, r2, r3, r4, r5, r6, r7] = rows;
    let t0 = _mm256_unpacklo_ps(r0, r1);
    let t1 = _mm256_unpackhi_ps(r0, r1);
    let t2 = _mm256_unpacklo_ps(r2, r3);
    let t3 = _mm256_unpackhi_ps(r2, r3);
    let t4 = _mm256_unpacklo_ps(r4, r5);
    let t5 = _mm256_unpackhi_ps(r4, r5);
    let t6 = _mm256_unpacklo_ps(r6, r7);
    let t7 = _mm256_unpackhi_ps(r6, r7);
    let s0 = _mm256_shuffle_ps(t0, t2, 0b01_00_01_00);
    let s1 = _mm256_shuffle_ps(t0, t2, 0b11_10_11_10);
    let s2 = _mm256_shuffle_ps(t1, t3, 0b01_00_01_00);
    let s3 = _mm256_shuffle_ps(t1, t3, 0b11_10_11_10);
    let s4 = _mm256_shuffle_ps(t4, t6, 0b01_00_01_00);
    let s5 = _mm256_shuffle_ps(t4, t6, 0b11_10_11_10);
    let s6 = _mm256_shuffle_ps(t5, t7, 0b01_00_01_00);
    let s7 = _mm256_shuffle_ps(t5, t7, 0b11_10_11_10);
    [
        _mm256_permute2f128_ps(s0, s4, 0x20),
        _mm256_permute2f128_ps(s1, s5, 0x20),
        _mm256_permute2f128_ps(s2, s6, 0x20),
        _mm256_permute2f128_ps(s3, s7, 0x20),
        _mm256_permute2f128_ps(s0, s4, 0x31),
        _mm256_permute2f128_ps(s1, s5, 0x31),
        _mm256_permute2f128_ps(s2, s6, 0x31),
        _mm256_permute2f128_ps(s3, s7, 0x31),
    ]
}

/// Sample-major → feature-major 8×8 tile.
///
/// # Safety
/// Requires AVX2 at runtime, `(r0+7)*features + j0+7 < data.len()` and
/// `(j0+7)*stride + r0+7 < dst.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_tile8x8_avx2(
    data: &[f32],
    dst: &mut [f32],
    r0: usize,
    j0: usize,
    features: usize,
    stride: usize,
) {
    use std::arch::x86_64::*;
    let mut rows = [_mm256_setzero_ps(); 8];
    for (q, row) in rows.iter_mut().enumerate() {
        *row = _mm256_loadu_ps(data.as_ptr().add((r0 + q) * features + j0));
    }
    let cols = transpose8x8_avx2(rows);
    for (q, col) in cols.iter().enumerate() {
        _mm256_storeu_ps(dst.as_mut_ptr().add((j0 + q) * stride + r0), *col);
    }
}

/// Feature-major → sample-major 8×8 tile (inverse of
/// [`transpose_tile8x8_avx2`]).
///
/// # Safety
/// Requires AVX2 at runtime, `(j0+7)*stride + r0+7 < src.len()` and
/// `(r0+7)*features + j0+7 < out.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_tile8x8_inv_avx2(
    src: &[f32],
    out: &mut [f32],
    r0: usize,
    j0: usize,
    features: usize,
    stride: usize,
) {
    use std::arch::x86_64::*;
    let mut cols = [_mm256_setzero_ps(); 8];
    for (q, col) in cols.iter_mut().enumerate() {
        *col = _mm256_loadu_ps(src.as_ptr().add((j0 + q) * stride + r0));
    }
    let rows = transpose8x8_avx2(cols);
    for (q, row) in rows.iter().enumerate() {
        _mm256_storeu_ps(out.as_mut_ptr().add((r0 + q) * features + j0), *row);
    }
}

/// Inverse of [`transpose_to_feature_major`]: feature-major `(features,
/// stride)` back into the sample-major layout the scratch exposes, reading
/// only the `batch` real lanes.
fn transpose_to_sample_major(
    src: &[f32],
    out: &mut [f32],
    batch: usize,
    features: usize,
    stride: usize,
) {
    let mut r0 = 0;
    #[cfg(target_arch = "x86_64")]
    if crate::simd::active_level() == Level::Avx2 {
        while r0 + 8 <= batch {
            let mut j0 = 0;
            while j0 + 8 <= features {
                // SAFETY: AVX2 verified by the dispatch level; the tile
                // spans features j0..j0+8 × lanes r0..r0+8, in bounds by
                // the loop conditions.
                unsafe {
                    transpose_tile8x8_inv_avx2(src, out, r0, j0, features, stride);
                }
                j0 += 8;
            }
            for r in r0..r0 + 8 {
                for j in j0..features {
                    out[r * features + j] = src[j * stride + r];
                }
            }
            r0 += 8;
        }
    }
    for r in r0..batch {
        let dst = &mut out[r * features..(r + 1) * features];
        for (j, d) in dst.iter_mut().enumerate() {
            *d = src[j * stride + r];
        }
    }
}

/// Dense matvec over **feature-major** activations: `y[j·stride + r] =
/// b[j] + Σᵢ w[j·in_dim + i] · x[i·stride + r]` for every lane
/// `r < stride`.
///
/// This is the layout the batched kernels use internally; exposing it lets
/// mixed-precision pipelines (e.g. the quantized predictor's f32 fusion
/// head) run a dense layer on already-feature-major buffers without the
/// sample-major round-trip of [`Layer::forward_batch`]. Per-lane
/// arithmetic order (bias first, then inputs in ascending `i`, separate
/// multiply and add) is identical at every dispatch level, so results are
/// bit-identical across levels.
pub fn dense_feature_major(
    w: &[f32],
    bias: &[f32],
    x: &[f32],
    y: &mut [f32],
    in_dim: usize,
    out_dim: usize,
    stride: usize,
) {
    assert_eq!(w.len(), out_dim * in_dim, "dense weight shape");
    assert_eq!(bias.len(), out_dim, "dense bias shape");
    assert_eq!(x.len(), in_dim * stride, "dense input shape");
    assert_eq!(y.len(), out_dim * stride, "dense output shape");
    let level = crate::simd::active_level();
    let mut rc = 0;
    while rc < stride {
        let left = stride - rc;
        #[cfg(target_arch = "x86_64")]
        if level == Level::Avx2 && left >= LANE_BLOCK {
            // SAFETY: AVX2 verified by the dispatch level (clamped to
            // runtime detection); the block spans lanes rc..rc+16 within
            // the asserted buffer shapes.
            unsafe { dense_fm_lanes16_avx2(w, bias, x, y, in_dim, out_dim, rc, stride) };
            rc += LANE_BLOCK;
            continue;
        }
        let _ = level;
        if left >= LANE_BLOCK {
            dense_fm_lanes::<LANE_BLOCK>(w, bias, x, y, in_dim, out_dim, rc, stride);
            rc += LANE_BLOCK;
        } else if left >= 4 {
            dense_fm_lanes::<4>(w, bias, x, y, in_dim, out_dim, rc, stride);
            rc += 4;
        } else {
            dense_fm_lanes::<1>(w, bias, x, y, in_dim, out_dim, rc, stride);
            rc += 1;
        }
    }
}

/// Scalar lane block of [`dense_feature_major`].
#[allow(clippy::too_many_arguments)]
fn dense_fm_lanes<const N: usize>(
    w: &[f32],
    bias: &[f32],
    x: &[f32],
    y: &mut [f32],
    in_dim: usize,
    out_dim: usize,
    rc: usize,
    stride: usize,
) {
    for j in 0..out_dim {
        let w_row = &w[j * in_dim..(j + 1) * in_dim];
        let mut acc = [bias[j]; N];
        for (i, &wv) in w_row.iter().enumerate() {
            let xs = &x[i * stride + rc..i * stride + rc + N];
            for (a, &xv) in acc.iter_mut().zip(xs) {
                *a += wv * xv;
            }
        }
        y[j * stride + rc..j * stride + rc + N].copy_from_slice(&acc);
    }
}

/// AVX2 16-lane block of [`dense_feature_major`].
///
/// # Safety
/// Requires AVX2 at runtime and `rc + 16 <= stride`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn dense_fm_lanes16_avx2(
    w: &[f32],
    bias: &[f32],
    x: &[f32],
    y: &mut [f32],
    in_dim: usize,
    out_dim: usize,
    rc: usize,
    stride: usize,
) {
    use std::arch::x86_64::*;
    for j in 0..out_dim {
        let w_row = &w[j * in_dim..(j + 1) * in_dim];
        let b = _mm256_set1_ps(bias[j]);
        let mut acc0 = b;
        let mut acc1 = b;
        for (i, &wv) in w_row.iter().enumerate() {
            let wb = _mm256_set1_ps(wv);
            let xp = x.as_ptr().add(i * stride + rc);
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(wb, _mm256_loadu_ps(xp)));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(wb, _mm256_loadu_ps(xp.add(8))));
        }
        let yp = y.as_mut_ptr().add(j * stride + rc);
        _mm256_storeu_ps(yp, acc0);
        _mm256_storeu_ps(yp.add(8), acc1);
    }
}

/// 1-D convolution with *same* zero-padding and stride 1.
///
/// Weight layout: `w[o][i][k]` flattened row-major into one [`ParamSet`];
/// bias is a second set. Kernel size must be odd (so same-padding is
/// symmetric).
#[derive(Debug)]
pub struct Conv1d {
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    weights: ParamSet,
    bias: ParamSet,
    cached_input: Option<Tensor>,
    last_flops: u64,
    /// The batched backward's per-row list of `(o, t, ∂L/∂y[o, t])` with a
    /// nonzero gradient; grow-only.
    taken: Vec<(usize, usize, f32)>,
}

impl Conv1d {
    /// New layer with He initialization.
    pub fn new(in_ch: usize, out_ch: usize, kernel: usize, seed: u64) -> Self {
        assert!(kernel % 2 == 1, "kernel size must be odd for same padding");
        let mut rng = init_rng(seed);
        let w = he_uniform(&mut rng, in_ch * kernel, out_ch * in_ch * kernel);
        Conv1d {
            in_ch,
            out_ch,
            kernel,
            weights: ParamSet::new(w),
            bias: ParamSet::new(vec![0.0; out_ch]),
            cached_input: None,
            last_flops: 0,
            taken: Vec::new(),
        }
    }

    #[inline]
    fn w(&self, o: usize, i: usize, k: usize) -> f32 {
        self.weights.w[(o * self.in_ch + i) * self.kernel + k]
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_ch
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_ch
    }

    /// Batched kernel over one block of `N` sample lanes starting at
    /// column `rc` of the feature-major buffers: for every `(o, t)` output,
    /// `N` accumulators live in a fixed-size register array while the taps
    /// stream by in ascending `(i, k)` — the same per-sample arithmetic
    /// order as the sequential `forward`.
    fn forward_lanes<const N: usize>(
        &self,
        xt: &[f32],
        yt: &mut [f32],
        rc: usize,
        batch: usize,
        len: usize,
    ) {
        let pad = self.kernel / 2;
        for o in 0..self.out_ch {
            let bias = self.bias.w[o];
            for t in 0..len {
                let (k_lo, k_hi) = tap_range(t, pad, self.kernel, len);
                let mut acc = [bias; N];
                for i in 0..self.in_ch {
                    let w_base = (o * self.in_ch + i) * self.kernel;
                    for k in k_lo..k_hi {
                        let w = self.weights.w[w_base + k];
                        // k ≥ pad − t inside the tap range, so `t + k - pad`
                        // cannot underflow.
                        let col = (i * len + t + k - pad) * batch + rc;
                        let x = &xt[col..col + N];
                        for (a, &xv) in acc.iter_mut().zip(x) {
                            *a += w * xv;
                        }
                    }
                }
                let y = (o * len + t) * batch + rc;
                yt[y..y + N].copy_from_slice(&acc);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Explicit SIMD lane kernels (x86_64)
//
// Each mirrors `forward_lanes::<N>` with the per-lane accumulators held in
// vector registers: broadcast the tap weight, multiply against N contiguous
// sample lanes of the feature-major buffer, add into the accumulators.
// Multiply and add stay separate instructions (never FMA), and taps stream
// in the same ascending order as the scalar cascade, so every lane performs
// the exact same rounding sequence — results are bit-identical across
// AVX2 / SSE2 / scalar, and the runtime level choice is purely throughput.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
impl Conv1d {
    /// AVX2 16-lane block: two `__m256` accumulators per `(o, t)` output,
    /// with outputs processed four at a time so each 16-lane activation
    /// tile is loaded once and reused across the block (the kernel is
    /// load-port bound; blocking cuts activation loads 4×). Each output
    /// still accumulates bias-first taps in ascending `(i, k)` order with
    /// separate multiply and add, so results stay bit-identical to the
    /// scalar cascade.
    ///
    /// # Safety
    /// Requires AVX2 at runtime and `rc + 16 <= batch`, with `xt`/`yt`
    /// shaped `(features, batch)` by the feature-major transpose.
    #[target_feature(enable = "avx2")]
    unsafe fn forward_lanes16_avx2(
        &self,
        xt: &[f32],
        yt: &mut [f32],
        rc: usize,
        batch: usize,
        len: usize,
    ) {
        use std::arch::x86_64::*;
        let pad = self.kernel / 2;
        for t in 0..len {
            let (k_lo, k_hi) = tap_range(t, pad, self.kernel, len);
            let mut o0 = 0;
            while o0 + 4 <= self.out_ch {
                let mut acc = [[_mm256_setzero_ps(); 2]; 4];
                for (ob, a) in acc.iter_mut().enumerate() {
                    *a = [_mm256_set1_ps(self.bias.w[o0 + ob]); 2];
                }
                for i in 0..self.in_ch {
                    for k in k_lo..k_hi {
                        let col = (i * len + t + k - pad) * batch + rc;
                        let x0 = _mm256_loadu_ps(xt.as_ptr().add(col));
                        let x1 = _mm256_loadu_ps(xt.as_ptr().add(col + 8));
                        for (ob, a) in acc.iter_mut().enumerate() {
                            let w = _mm256_set1_ps(
                                self.weights.w[((o0 + ob) * self.in_ch + i) * self.kernel + k],
                            );
                            a[0] = _mm256_add_ps(a[0], _mm256_mul_ps(w, x0));
                            a[1] = _mm256_add_ps(a[1], _mm256_mul_ps(w, x1));
                        }
                    }
                }
                for (ob, a) in acc.iter().enumerate() {
                    let y = yt.as_mut_ptr().add(((o0 + ob) * len + t) * batch + rc);
                    _mm256_storeu_ps(y, a[0]);
                    _mm256_storeu_ps(y.add(8), a[1]);
                }
                o0 += 4;
            }
            while o0 < self.out_ch {
                let bias = _mm256_set1_ps(self.bias.w[o0]);
                let mut acc0 = bias;
                let mut acc1 = bias;
                for i in 0..self.in_ch {
                    let w_base = (o0 * self.in_ch + i) * self.kernel;
                    for k in k_lo..k_hi {
                        let w = _mm256_set1_ps(self.weights.w[w_base + k]);
                        let col = (i * len + t + k - pad) * batch + rc;
                        let x = xt.as_ptr().add(col);
                        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(w, _mm256_loadu_ps(x)));
                        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(w, _mm256_loadu_ps(x.add(8))));
                    }
                }
                let y = yt.as_mut_ptr().add((o0 * len + t) * batch + rc);
                _mm256_storeu_ps(y, acc0);
                _mm256_storeu_ps(y.add(8), acc1);
                o0 += 1;
            }
        }
    }

    /// AVX2 8-lane block: one `__m256` accumulator per `(o, t)` output.
    ///
    /// # Safety
    /// Requires AVX2 at runtime and `rc + 8 <= batch`.
    #[target_feature(enable = "avx2")]
    unsafe fn forward_lanes8_avx2(
        &self,
        xt: &[f32],
        yt: &mut [f32],
        rc: usize,
        batch: usize,
        len: usize,
    ) {
        use std::arch::x86_64::*;
        let pad = self.kernel / 2;
        for o in 0..self.out_ch {
            let bias = _mm256_set1_ps(self.bias.w[o]);
            for t in 0..len {
                let (k_lo, k_hi) = tap_range(t, pad, self.kernel, len);
                let mut acc = bias;
                for i in 0..self.in_ch {
                    let w_base = (o * self.in_ch + i) * self.kernel;
                    for k in k_lo..k_hi {
                        let w = _mm256_set1_ps(self.weights.w[w_base + k]);
                        let col = (i * len + t + k - pad) * batch + rc;
                        acc = _mm256_add_ps(
                            acc,
                            _mm256_mul_ps(w, _mm256_loadu_ps(xt.as_ptr().add(col))),
                        );
                    }
                }
                _mm256_storeu_ps(yt.as_mut_ptr().add((o * len + t) * batch + rc), acc);
            }
        }
    }

    /// SSE2 16-lane block: four `__m128` accumulators per `(o, t)` output.
    ///
    /// # Safety
    /// Requires `rc + 16 <= batch` (SSE2 is baseline on x86_64).
    #[target_feature(enable = "sse2")]
    unsafe fn forward_lanes16_sse2(
        &self,
        xt: &[f32],
        yt: &mut [f32],
        rc: usize,
        batch: usize,
        len: usize,
    ) {
        use std::arch::x86_64::*;
        let pad = self.kernel / 2;
        for o in 0..self.out_ch {
            let bias = _mm_set1_ps(self.bias.w[o]);
            for t in 0..len {
                let (k_lo, k_hi) = tap_range(t, pad, self.kernel, len);
                let mut acc = [bias; 4];
                for i in 0..self.in_ch {
                    let w_base = (o * self.in_ch + i) * self.kernel;
                    for k in k_lo..k_hi {
                        let w = _mm_set1_ps(self.weights.w[w_base + k]);
                        let col = (i * len + t + k - pad) * batch + rc;
                        let x = xt.as_ptr().add(col);
                        for (q, a) in acc.iter_mut().enumerate() {
                            *a = _mm_add_ps(*a, _mm_mul_ps(w, _mm_loadu_ps(x.add(4 * q))));
                        }
                    }
                }
                let y = yt.as_mut_ptr().add((o * len + t) * batch + rc);
                for (q, a) in acc.iter().enumerate() {
                    _mm_storeu_ps(y.add(4 * q), *a);
                }
            }
        }
    }

    /// SSE2 4-lane block: one `__m128` accumulator per `(o, t)` output.
    /// Also serves as the 8-lane tail (two calls) and the sub-16 tail for
    /// the AVX2 level, where a 256-bit load would overrun the batch.
    ///
    /// # Safety
    /// Requires `rc + 4 <= batch`.
    #[target_feature(enable = "sse2")]
    unsafe fn forward_lanes4_sse2(
        &self,
        xt: &[f32],
        yt: &mut [f32],
        rc: usize,
        batch: usize,
        len: usize,
    ) {
        use std::arch::x86_64::*;
        let pad = self.kernel / 2;
        for o in 0..self.out_ch {
            let bias = _mm_set1_ps(self.bias.w[o]);
            for t in 0..len {
                let (k_lo, k_hi) = tap_range(t, pad, self.kernel, len);
                let mut acc = bias;
                for i in 0..self.in_ch {
                    let w_base = (o * self.in_ch + i) * self.kernel;
                    for k in k_lo..k_hi {
                        let w = _mm_set1_ps(self.weights.w[w_base + k]);
                        let col = (i * len + t + k - pad) * batch + rc;
                        acc = _mm_add_ps(acc, _mm_mul_ps(w, _mm_loadu_ps(xt.as_ptr().add(col))));
                    }
                }
                _mm_storeu_ps(yt.as_mut_ptr().add((o * len + t) * batch + rc), acc);
            }
        }
    }

    /// One cascade step at lane `rc` for the given dispatch `level`: run
    /// the widest kernel that fits the remaining lanes and return how many
    /// lanes it consumed. Sub-vector tails fall through to the scalar
    /// cascade, which the vector kernels match bit-for-bit.
    fn forward_block(
        &self,
        level: Level,
        xt: &[f32],
        yt: &mut [f32],
        rc: usize,
        batch: usize,
        len: usize,
    ) -> usize {
        let left = batch - rc;
        // SAFETY: each vector kernel touches exactly its block of lanes
        // starting at `rc`, chosen only when `left` covers it; `level` is
        // clamped to runtime-detected CPU features by `crate::simd`.
        unsafe {
            if left >= LANE_BLOCK {
                match level {
                    Level::Avx2 => self.forward_lanes16_avx2(xt, yt, rc, batch, len),
                    Level::Sse2 => self.forward_lanes16_sse2(xt, yt, rc, batch, len),
                    Level::Scalar => self.forward_lanes::<LANE_BLOCK>(xt, yt, rc, batch, len),
                }
                LANE_BLOCK
            } else if left >= 8 {
                match level {
                    Level::Avx2 => self.forward_lanes8_avx2(xt, yt, rc, batch, len),
                    Level::Sse2 => {
                        self.forward_lanes4_sse2(xt, yt, rc, batch, len);
                        self.forward_lanes4_sse2(xt, yt, rc + 4, batch, len);
                    }
                    Level::Scalar => self.forward_lanes::<8>(xt, yt, rc, batch, len),
                }
                8
            } else if left >= 4 {
                match level {
                    Level::Avx2 | Level::Sse2 => self.forward_lanes4_sse2(xt, yt, rc, batch, len),
                    Level::Scalar => self.forward_lanes::<4>(xt, yt, rc, batch, len),
                }
                4
            } else {
                self.forward_lanes::<1>(xt, yt, rc, batch, len);
                1
            }
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
impl Conv1d {
    /// Portable cascade step: same block widths, scalar kernels only.
    fn forward_block(
        &self,
        _level: crate::simd::Level,
        xt: &[f32],
        yt: &mut [f32],
        rc: usize,
        batch: usize,
        len: usize,
    ) -> usize {
        let left = batch - rc;
        if left >= LANE_BLOCK {
            self.forward_lanes::<LANE_BLOCK>(xt, yt, rc, batch, len);
            LANE_BLOCK
        } else if left >= 8 {
            self.forward_lanes::<8>(xt, yt, rc, batch, len);
            8
        } else if left >= 4 {
            self.forward_lanes::<4>(xt, yt, rc, batch, len);
            4
        } else {
            self.forward_lanes::<1>(xt, yt, rc, batch, len);
            1
        }
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.rows(), self.in_ch, "conv1d input channel mismatch");
        let len = input.cols();
        let pad = self.kernel / 2;
        let mut out = Tensor::zeros(self.out_ch, len);
        for o in 0..self.out_ch {
            for t in 0..len {
                let (k_lo, k_hi) = tap_range(t, pad, self.kernel, len);
                let mut acc = self.bias.w[o];
                for i in 0..self.in_ch {
                    for k in k_lo..k_hi {
                        acc += self.w(o, i, k) * input.get(i, t + k - pad);
                    }
                }
                out.set(o, t, acc);
            }
        }
        self.last_flops =
            (2 * self.out_ch * len * self.in_ch * self.kernel + self.out_ch * len) as u64;
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward before forward")
            .clone();
        let len = input.cols();
        let pad = self.kernel / 2;
        assert_eq!(grad_out.rows(), self.out_ch);
        assert_eq!(grad_out.cols(), len);

        let mut grad_in = Tensor::zeros(self.in_ch, len);
        for o in 0..self.out_ch {
            for t in 0..len {
                let go = grad_out.get(o, t);
                if go == 0.0 {
                    continue;
                }
                self.bias.g[o] += go;
                let (k_lo, k_hi) = tap_range(t, pad, self.kernel, len);
                for i in 0..self.in_ch {
                    for k in k_lo..k_hi {
                        let s = t + k - pad;
                        let x = input.get(i, s);
                        self.weights.g[(o * self.in_ch + i) * self.kernel + k] += go * x;
                        let cur = grad_in.get(i, s);
                        grad_in.set(i, s, cur + go * self.w(o, i, k));
                    }
                }
            }
        }
        grad_in
    }

    fn forward_batch(&self, scratch: &mut Scratch) {
        let (batch, in_ch, len) = scratch.shape();
        assert_eq!(in_ch, self.in_ch, "conv1d batch input channel mismatch");
        let out_ch = self.out_ch;
        // Feature-major workspace: samples become the contiguous innermost
        // axis, so each tap is one weight broadcast against a lane block
        // held in registers. The lane stride is padded away from cache-set
        // resonance at large power-of-two batches. Both halves are fully
        // overwritten (transpose / bias init), hence the `_raw` aux.
        let stride = crate::batch::lane_stride(batch);
        let in_n = stride * in_ch * len;
        let out_n = stride * out_ch * len;
        let level = crate::simd::active_level();
        scratch.map_layer_with_aux_raw(out_ch, len, in_n + out_n, |inp, out, aux| {
            let (xt, yt) = aux.split_at_mut(in_n);
            transpose_to_feature_major(&inp, xt, stride);
            // Cache-blocked sweep: per block of sample lanes, visit every
            // (o, t) output with the accumulators in registers. The block
            // width cascades 16 → 8 → 4 → 1 so small batches (and tails)
            // keep vector-width lanes instead of falling back to scalar;
            // each step runs the strongest kernel the dispatch level allows.
            let mut rc = 0;
            while rc < stride {
                rc += self.forward_block(level, xt, yt, rc, stride, len);
            }
            transpose_to_sample_major(yt, out, batch, out_ch * len, stride);
        });
    }

    fn backward_batch(&mut self, input: BatchView<'_>, grad: &mut Scratch, input_grad: bool) {
        let (batch, in_ch, len) = (input.batch(), input.channels(), input.len_t());
        assert_eq!(in_ch, self.in_ch, "conv1d backward input channel mismatch");
        assert_eq!(grad.shape(), (batch, self.out_ch, len), "conv1d grad shape");
        let (out_ch, kernel, pad) = (self.out_ch, self.kernel, self.kernel / 2);
        let Conv1d {
            weights,
            bias,
            taken,
            ..
        } = self;
        // Slices, not `Vec`s: a store through a slice cannot move a `Vec`'s
        // buffer, so the loops need not reload its pointer.
        let (w, wg, bg) = (&weights.w[..], &mut weights.g[..], &mut bias.g[..]);
        if taken.len() < out_ch * len {
            taken.resize(out_ch * len, (0, 0, 0.0));
        }
        let row_in = in_ch * len;
        // With whole blocks of input channels, the loop below runs with
        // `(i, k)` swapped to `(k, i)`. Within one (o, t) each gradient
        // element takes at most one term, so the swap keeps every element's
        // order of terms, and the input channel becomes a contiguous lane
        // axis: weights and their gradients are held `(o, k, i)`-major for
        // the batch, each row's input and input gradient `(t, i)`-major.
        let lanes = in_ch % LANES == 0;
        let wn = out_ch * kernel * in_ch;
        let aux_n = if lanes { 2 * wn + 2 * row_in } else { 0 };
        grad.map_layer_with_aux_raw(in_ch, len, aux_n, move |g_out, g_in, aux| {
            let (wt, rest) = aux.split_at_mut(if lanes { wn } else { 0 });
            let (wgt, rest) = rest.split_at_mut(if lanes { wn } else { 0 });
            let (xt, git) = rest.split_at_mut(if lanes { row_in } else { 0 });
            if lanes {
                swap_inner_axes(w, wt, out_ch, in_ch, kernel);
                swap_inner_axes(wg, wgt, out_ch, in_ch, kernel);
            }
            for r in 0..batch {
                let (x, go_row) = (input.row(r), g_out.row(r));
                let gi = &mut g_in[r * row_in..(r + 1) * row_in];
                // The (o, t) the per-sample loop does not skip (`go != 0`),
                // in its order, gathered without a branch per entry.
                let mut n = 0;
                for o in 0..out_ch {
                    for t in 0..len {
                        let go = go_row[o * len + t];
                        taken[n] = (o, t, go);
                        n += usize::from(go != 0.0);
                    }
                }
                if lanes {
                    swap_inner_axes(x, xt, 1, in_ch, len);
                    git.fill(0.0);
                } else {
                    gi.fill(0.0);
                }
                for &(o, t, go) in &taken[..n] {
                    bg[o] += go;
                    let (k_lo, k_hi) = tap_range(t, pad, kernel, len);
                    if lanes {
                        for k in k_lo..k_hi {
                            let (tap, col) = ((o * kernel + k) * in_ch, (t + k - pad) * in_ch);
                            for b in (0..in_ch).step_by(LANES) {
                                lanes_add(&mut wgt[tap + b..], go, &xt[col + b..]);
                                if input_grad {
                                    lanes_add(&mut git[col + b..], go, &wt[tap + b..]);
                                }
                            }
                        }
                        continue;
                    }
                    // The per-sample `backward` loop, on flat slices.
                    for i in 0..in_ch {
                        let base = (o * in_ch + i) * kernel;
                        for k in k_lo..k_hi {
                            let s = i * len + t + k - pad;
                            wg[base + k] += go * x[s];
                            if input_grad {
                                gi[s] += go * w[base + k];
                            }
                        }
                    }
                }
                if lanes && input_grad {
                    swap_inner_axes(git, gi, 1, len, in_ch);
                }
            }
            if lanes {
                swap_inner_axes(wgt, wg, out_ch, kernel, in_ch);
            }
        });
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut ParamSet)) {
        f(&mut self.weights);
        f(&mut self.bias);
    }

    fn params_mut(&mut self) -> Vec<&mut ParamSet> {
        vec![&mut self.weights, &mut self.bias]
    }

    fn params(&self) -> Vec<&ParamSet> {
        vec![&self.weights, &self.bias]
    }

    fn last_flops(&self) -> u64 {
        self.last_flops
    }
}

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

/// Fully-connected layer: `y = W·x + b` on a flattened input.
#[derive(Debug)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    weights: ParamSet,
    bias: ParamSet,
    cached_input: Option<Tensor>,
    last_flops: u64,
}

impl Dense {
    /// New layer with Glorot initialization.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = init_rng(seed);
        let w = glorot_uniform(&mut rng, in_dim, out_dim, out_dim * in_dim);
        Dense {
            in_dim,
            out_dim,
            weights: ParamSet::new(w),
            bias: ParamSet::new(vec![0.0; out_dim]),
            cached_input: None,
            last_flops: 0,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Compute `N` consecutive sample lanes of the feature-major batched
    /// matvec starting at lane `rc`. `N` is a compile-time constant so the
    /// accumulator array lives in registers; per lane the arithmetic order
    /// (bias first, then inputs in ascending `i`) matches the sequential
    /// `forward` exactly.
    fn forward_lanes<const N: usize>(&self, xt: &[f32], yt: &mut [f32], rc: usize, batch: usize) {
        let in_dim = self.in_dim;
        for j in 0..self.out_dim {
            let w_row = &self.weights.w[j * in_dim..(j + 1) * in_dim];
            let mut acc = [self.bias.w[j]; N];
            for (i, &w) in w_row.iter().enumerate() {
                let x = &xt[i * batch + rc..i * batch + rc + N];
                for (a, &xv) in acc.iter_mut().zip(x) {
                    *a += w * xv;
                }
            }
            let y = j * batch + rc;
            yt[y..y + N].copy_from_slice(&acc);
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl Dense {
    /// AVX2 16-lane matvec block: two `__m256` accumulators per output.
    ///
    /// # Safety
    /// Requires AVX2 at runtime and `rc + 16 <= batch`.
    #[target_feature(enable = "avx2")]
    unsafe fn forward_lanes16_avx2(&self, xt: &[f32], yt: &mut [f32], rc: usize, batch: usize) {
        use std::arch::x86_64::*;
        let in_dim = self.in_dim;
        for j in 0..self.out_dim {
            let w_row = &self.weights.w[j * in_dim..(j + 1) * in_dim];
            let bias = _mm256_set1_ps(self.bias.w[j]);
            let mut acc0 = bias;
            let mut acc1 = bias;
            for (i, &w) in w_row.iter().enumerate() {
                let wv = _mm256_set1_ps(w);
                let x = xt.as_ptr().add(i * batch + rc);
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(wv, _mm256_loadu_ps(x)));
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(wv, _mm256_loadu_ps(x.add(8))));
            }
            let y = yt.as_mut_ptr().add(j * batch + rc);
            _mm256_storeu_ps(y, acc0);
            _mm256_storeu_ps(y.add(8), acc1);
        }
    }

    /// AVX2 8-lane matvec block: one `__m256` accumulator per output.
    ///
    /// # Safety
    /// Requires AVX2 at runtime and `rc + 8 <= batch`.
    #[target_feature(enable = "avx2")]
    unsafe fn forward_lanes8_avx2(&self, xt: &[f32], yt: &mut [f32], rc: usize, batch: usize) {
        use std::arch::x86_64::*;
        let in_dim = self.in_dim;
        for j in 0..self.out_dim {
            let mut acc = _mm256_set1_ps(self.bias.w[j]);
            let w_row = &self.weights.w[j * in_dim..(j + 1) * in_dim];
            for (i, &w) in w_row.iter().enumerate() {
                let wv = _mm256_set1_ps(w);
                acc = _mm256_add_ps(
                    acc,
                    _mm256_mul_ps(wv, _mm256_loadu_ps(xt.as_ptr().add(i * batch + rc))),
                );
            }
            _mm256_storeu_ps(yt.as_mut_ptr().add(j * batch + rc), acc);
        }
    }

    /// SSE2 16-lane matvec block: four `__m128` accumulators per output.
    ///
    /// # Safety
    /// Requires `rc + 16 <= batch` (SSE2 is baseline on x86_64).
    #[target_feature(enable = "sse2")]
    unsafe fn forward_lanes16_sse2(&self, xt: &[f32], yt: &mut [f32], rc: usize, batch: usize) {
        use std::arch::x86_64::*;
        let in_dim = self.in_dim;
        for j in 0..self.out_dim {
            let w_row = &self.weights.w[j * in_dim..(j + 1) * in_dim];
            let mut acc = [_mm_set1_ps(self.bias.w[j]); 4];
            for (i, &w) in w_row.iter().enumerate() {
                let wv = _mm_set1_ps(w);
                let x = xt.as_ptr().add(i * batch + rc);
                for (q, a) in acc.iter_mut().enumerate() {
                    *a = _mm_add_ps(*a, _mm_mul_ps(wv, _mm_loadu_ps(x.add(4 * q))));
                }
            }
            let y = yt.as_mut_ptr().add(j * batch + rc);
            for (q, a) in acc.iter().enumerate() {
                _mm_storeu_ps(y.add(4 * q), *a);
            }
        }
    }

    /// SSE2 4-lane matvec block; doubles as the 8-lane tail (two calls)
    /// and the AVX2 level's sub-16 tail.
    ///
    /// # Safety
    /// Requires `rc + 4 <= batch`.
    #[target_feature(enable = "sse2")]
    unsafe fn forward_lanes4_sse2(&self, xt: &[f32], yt: &mut [f32], rc: usize, batch: usize) {
        use std::arch::x86_64::*;
        let in_dim = self.in_dim;
        for j in 0..self.out_dim {
            let mut acc = _mm_set1_ps(self.bias.w[j]);
            let w_row = &self.weights.w[j * in_dim..(j + 1) * in_dim];
            for (i, &w) in w_row.iter().enumerate() {
                let wv = _mm_set1_ps(w);
                acc = _mm_add_ps(
                    acc,
                    _mm_mul_ps(wv, _mm_loadu_ps(xt.as_ptr().add(i * batch + rc))),
                );
            }
            _mm_storeu_ps(yt.as_mut_ptr().add(j * batch + rc), acc);
        }
    }

    /// One cascade step at lane `rc` for the given dispatch `level`;
    /// returns the number of lanes consumed. See [`Conv1d::forward_block`].
    fn forward_block(
        &self,
        level: Level,
        xt: &[f32],
        yt: &mut [f32],
        rc: usize,
        batch: usize,
    ) -> usize {
        let left = batch - rc;
        // SAFETY: each vector kernel touches exactly its block of lanes
        // starting at `rc`, chosen only when `left` covers it; `level` is
        // clamped to runtime-detected CPU features by `crate::simd`.
        unsafe {
            if left >= LANE_BLOCK {
                match level {
                    Level::Avx2 => self.forward_lanes16_avx2(xt, yt, rc, batch),
                    Level::Sse2 => self.forward_lanes16_sse2(xt, yt, rc, batch),
                    Level::Scalar => self.forward_lanes::<LANE_BLOCK>(xt, yt, rc, batch),
                }
                LANE_BLOCK
            } else if left >= 8 {
                match level {
                    Level::Avx2 => self.forward_lanes8_avx2(xt, yt, rc, batch),
                    Level::Sse2 => {
                        self.forward_lanes4_sse2(xt, yt, rc, batch);
                        self.forward_lanes4_sse2(xt, yt, rc + 4, batch);
                    }
                    Level::Scalar => self.forward_lanes::<8>(xt, yt, rc, batch),
                }
                8
            } else if left >= 4 {
                match level {
                    Level::Avx2 | Level::Sse2 => self.forward_lanes4_sse2(xt, yt, rc, batch),
                    Level::Scalar => self.forward_lanes::<4>(xt, yt, rc, batch),
                }
                4
            } else {
                self.forward_lanes::<1>(xt, yt, rc, batch);
                1
            }
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
impl Dense {
    /// Portable cascade step: same block widths, scalar kernels only.
    fn forward_block(
        &self,
        _level: crate::simd::Level,
        xt: &[f32],
        yt: &mut [f32],
        rc: usize,
        batch: usize,
    ) -> usize {
        let left = batch - rc;
        if left >= LANE_BLOCK {
            self.forward_lanes::<LANE_BLOCK>(xt, yt, rc, batch);
            LANE_BLOCK
        } else if left >= 8 {
            self.forward_lanes::<8>(xt, yt, rc, batch);
            8
        } else if left >= 4 {
            self.forward_lanes::<4>(xt, yt, rc, batch);
            4
        } else {
            self.forward_lanes::<1>(xt, yt, rc, batch);
            1
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let x = input.clone().flatten();
        assert_eq!(x.rows(), self.in_dim, "dense input dim mismatch");
        let mut out = Tensor::zeros(self.out_dim, 1);
        for j in 0..self.out_dim {
            let mut acc = self.bias.w[j];
            for i in 0..self.in_dim {
                acc += self.weights.w[j * self.in_dim + i] * x.get(i, 0);
            }
            out.set(j, 0, acc);
        }
        self.last_flops = (2 * self.out_dim * self.in_dim + self.out_dim) as u64;
        self.cached_input = Some(x);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward before forward")
            .clone();
        assert_eq!(grad_out.len(), self.out_dim);
        let mut grad_in = Tensor::zeros(self.in_dim, 1);
        for j in 0..self.out_dim {
            let go = grad_out.data()[j];
            self.bias.g[j] += go;
            for i in 0..self.in_dim {
                self.weights.g[j * self.in_dim + i] += go * x.get(i, 0);
                let cur = grad_in.get(i, 0);
                grad_in.set(i, 0, cur + go * self.weights.w[j * self.in_dim + i]);
            }
        }
        grad_in
    }

    fn forward_batch(&self, scratch: &mut Scratch) {
        let (batch, ch, len) = scratch.shape();
        let in_dim = ch * len;
        assert_eq!(in_dim, self.in_dim, "dense batch input dim mismatch");
        let out_dim = self.out_dim;
        // Same feature-major, lane-blocked, stride-padded scheme as the
        // conv kernel: a dense layer is the kernel == len == 1 special case.
        let stride = crate::batch::lane_stride(batch);
        let in_n = stride * in_dim;
        let out_n = stride * out_dim;
        let level = crate::simd::active_level();
        scratch.map_layer_with_aux_raw(out_dim, 1, in_n + out_n, |inp, out, aux| {
            let (xt, yt) = aux.split_at_mut(in_n);
            transpose_to_feature_major(&inp, xt, stride);
            // Same 16 → 8 → 4 → 1 lane cascade as the conv kernel so small
            // batches stay vectorized, dispatched to the active SIMD level.
            let mut rc = 0;
            while rc < stride {
                rc += self.forward_block(level, xt, yt, rc, stride);
            }
            transpose_to_sample_major(yt, out, batch, out_dim, stride);
        });
    }

    fn backward_batch(&mut self, input: BatchView<'_>, grad: &mut Scratch, input_grad: bool) {
        let (batch, ch, len) = (input.batch(), input.channels(), input.len_t());
        let in_dim = self.in_dim;
        assert_eq!(ch * len, in_dim, "dense backward input dim mismatch");
        assert_eq!(grad.shape(), (batch, self.out_dim, 1), "dense grad shape");
        let (w, wg, bg) = (
            &self.weights.w[..],
            &mut self.weights.g[..],
            &mut self.bias.g[..],
        );
        grad.map_layer(ch, len, move |g_out, g_in| {
            for r in 0..batch {
                let (x, go_row) = (input.row(r), g_out.row(r));
                let gi = &mut g_in[r * in_dim..(r + 1) * in_dim];
                gi.fill(0.0);
                for (j, &go) in go_row.iter().enumerate() {
                    bg[j] += go;
                    // Every `i` is its own accumulator, so the two updates
                    // of the per-sample loop run as two vectorisable sweeps.
                    let wg_row = &mut wg[j * in_dim..(j + 1) * in_dim];
                    for (g, &xv) in wg_row.iter_mut().zip(x) {
                        *g += go * xv;
                    }
                    if input_grad {
                        let w_row = &w[j * in_dim..(j + 1) * in_dim];
                        for (g, &wv) in gi.iter_mut().zip(w_row) {
                            *g += go * wv;
                        }
                    }
                }
            }
        });
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut ParamSet)) {
        f(&mut self.weights);
        f(&mut self.bias);
    }

    fn params_mut(&mut self) -> Vec<&mut ParamSet> {
        vec![&mut self.weights, &mut self.bias]
    }

    fn params(&self) -> Vec<&ParamSet> {
        vec![&self.weights, &self.bias]
    }

    fn last_flops(&self) -> u64 {
        self.last_flops
    }
}

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

/// Rectified linear unit.
#[derive(Debug, Default)]
pub struct ReLU {
    mask: Option<Tensor>,
}

impl ReLU {
    /// New activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for ReLU {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.mask = Some(input.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
        input.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("backward before forward");
        let mut g = grad_out.clone();
        for (gv, mv) in g.data_mut().iter_mut().zip(mask.data()) {
            *gv *= mv;
        }
        g
    }

    fn forward_batch(&self, scratch: &mut Scratch) {
        // Elementwise and shape-preserving: rectify in place.
        for v in scratch.cur_mut() {
            *v = v.max(0.0);
        }
    }

    fn backward_batch(&mut self, input: BatchView<'_>, grad: &mut Scratch, input_grad: bool) {
        if !input_grad {
            return; // no parameters
        }
        // Multiply by the mask, as `backward` does (a select would differ
        // on NaN and on the sign of zero).
        for (g, &x) in grad.cur_mut().iter_mut().zip(input.data()) {
            *g *= if x > 0.0 { 1.0 } else { 0.0 };
        }
    }
}

/// Logistic sigmoid.
#[derive(Debug, Default)]
pub struct Sigmoid {
    output: Option<Tensor>,
}

impl Sigmoid {
    /// New activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = input.map(|v| 1.0 / (1.0 + (-v).exp()));
        self.output = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self.output.as_ref().expect("backward before forward");
        let mut g = grad_out.clone();
        for (gv, yv) in g.data_mut().iter_mut().zip(y.data()) {
            *gv *= yv * (1.0 - yv);
        }
        g
    }

    fn forward_batch(&self, scratch: &mut Scratch) {
        for v in scratch.cur_mut() {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
    }

    fn backward_batch(&mut self, input: BatchView<'_>, grad: &mut Scratch, input_grad: bool) {
        if !input_grad {
            return; // no parameters
        }
        for (g, &x) in grad.cur_mut().iter_mut().zip(input.data()) {
            let y = 1.0 / (1.0 + (-x).exp());
            *g *= y * (1.0 - y);
        }
    }
}

// ---------------------------------------------------------------------------
// Global max pooling
// ---------------------------------------------------------------------------

/// Global max pooling over the time axis: `(C, L) → (C, 1)`.
#[derive(Debug, Default)]
pub struct GlobalMaxPool1d {
    argmax: Vec<usize>,
    in_cols: usize,
}

impl GlobalMaxPool1d {
    /// New pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalMaxPool1d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (c, l) = (input.rows(), input.cols());
        assert!(l > 0, "cannot max-pool an empty sequence");
        self.argmax.clear();
        self.in_cols = l;
        let mut out = Tensor::zeros(c, 1);
        for ch in 0..c {
            let (mut best_t, mut best_v) = (0usize, f32::NEG_INFINITY);
            for t in 0..l {
                let v = input.get(ch, t);
                if v > best_v {
                    best_v = v;
                    best_t = t;
                }
            }
            self.argmax.push(best_t);
            out.set(ch, 0, best_v);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let c = self.argmax.len();
        assert_eq!(grad_out.len(), c, "pool grad shape mismatch");
        let mut grad_in = Tensor::zeros(c, self.in_cols);
        for ch in 0..c {
            grad_in.set(ch, self.argmax[ch], grad_out.data()[ch]);
        }
        grad_in
    }

    fn forward_batch(&self, scratch: &mut Scratch) {
        let (batch, c, l) = scratch.shape();
        assert!(l > 0, "cannot max-pool an empty sequence");
        scratch.map_layer(c, 1, |inp, out| {
            for r in 0..batch {
                let row = inp.row(r);
                for ch in 0..c {
                    let mut best = f32::NEG_INFINITY;
                    for &v in &row[ch * l..(ch + 1) * l] {
                        if v > best {
                            best = v;
                        }
                    }
                    out[r * c + ch] = best;
                }
            }
        });
    }

    fn backward_batch(&mut self, input: BatchView<'_>, grad: &mut Scratch, input_grad: bool) {
        if !input_grad {
            return; // no parameters
        }
        let (batch, c, l) = (input.batch(), input.channels(), input.len_t());
        assert_eq!(grad.shape(), (batch, c, 1), "pool grad shape mismatch");
        grad.map_layer(c, l, |g_out, g_in| {
            g_in.fill(0.0);
            for r in 0..batch {
                let row = input.row(r);
                for ch in 0..c {
                    // The first maximum, as `forward` records it.
                    let (mut best_t, mut best_v) = (0usize, f32::NEG_INFINITY);
                    for (t, &v) in row[ch * l..(ch + 1) * l].iter().enumerate() {
                        if v > best_v {
                            best_v = v;
                            best_t = t;
                        }
                    }
                    g_in[(r * c + ch) * l + best_t] = g_out.row(r)[ch];
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerical gradient check: perturb each parameter and each input and
    /// compare the analytic gradient with the finite difference of a scalar
    /// loss `L = Σ out²/2` (so ∂L/∂out = out).
    fn check_layer_gradients(layer: &mut dyn Layer, input: &Tensor, tol: f32) {
        let eps = 1e-3f32;
        let loss_of = |out: &Tensor| -> f32 { out.data().iter().map(|&v| 0.5 * v * v).sum() };
        // Analytic pass.
        let out = layer.forward(input);
        let grad_in = layer.backward(&out.clone());

        // Parameter gradients.
        let analytic_param_grads: Vec<Vec<f32>> =
            layer.params().iter().map(|p| p.g.clone()).collect();
        for (pi, grads) in analytic_param_grads.iter().enumerate() {
            for wi in 0..grads.len() {
                let orig = layer.params()[pi].w[wi];
                layer.params_mut()[pi].w[wi] = orig + eps;
                let lp = loss_of(&layer.forward(input));
                layer.params_mut()[pi].w[wi] = orig - eps;
                let lm = loss_of(&layer.forward(input));
                layer.params_mut()[pi].w[wi] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - grads[wi]).abs() < tol * (1.0 + numeric.abs()),
                    "param set {pi} weight {wi}: analytic {} vs numeric {numeric}",
                    grads[wi]
                );
            }
        }

        // Input gradients.
        for idx in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let lp = loss_of(&layer.forward(&plus));
            let lm = loss_of(&layer.forward(&minus));
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad_in.data()[idx];
            assert!(
                (numeric - analytic).abs() < tol * (1.0 + numeric.abs()),
                "input {idx}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    fn sample_input(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = init_rng(seed);
        let data = glorot_uniform(&mut rng, 1, 1, rows * cols);
        Tensor::from_vec(rows, cols, data)
    }

    #[test]
    fn conv1d_gradients_check_out() {
        let mut layer = Conv1d::new(2, 3, 3, 1);
        let input = sample_input(2, 5, 11);
        check_layer_gradients(&mut layer, &input, 2e-2);
    }

    #[test]
    fn dense_gradients_check_out() {
        let mut layer = Dense::new(4, 3, 2);
        let input = sample_input(4, 1, 12);
        check_layer_gradients(&mut layer, &input, 2e-2);
    }

    #[test]
    fn relu_gradients_check_out() {
        let mut layer = ReLU::new();
        let input = sample_input(3, 4, 13);
        check_layer_gradients(&mut layer, &input, 2e-2);
    }

    #[test]
    fn sigmoid_gradients_check_out() {
        let mut layer = Sigmoid::new();
        let input = sample_input(2, 3, 14);
        check_layer_gradients(&mut layer, &input, 2e-2);
    }

    #[test]
    fn conv1d_same_padding_preserves_length() {
        let mut layer = Conv1d::new(1, 4, 3, 3);
        let input = sample_input(1, 7, 15);
        let out = layer.forward(&input);
        assert_eq!(out.rows(), 4);
        assert_eq!(out.cols(), 7);
    }

    #[test]
    fn conv1d_identity_kernel() {
        // A kernel that is 1 at the center and 0 elsewhere, zero bias,
        // reproduces the input.
        let mut layer = Conv1d::new(1, 1, 3, 4);
        layer.params_mut()[0].w.copy_from_slice(&[0.0, 1.0, 0.0]);
        layer.params_mut()[1].w[0] = 0.0;
        let input = sample_input(1, 6, 16);
        let out = layer.forward(&input);
        for t in 0..6 {
            assert!((out.get(0, t) - input.get(0, t)).abs() < 1e-6);
        }
    }

    #[test]
    fn maxpool_selects_max_and_routes_gradient() {
        let mut layer = GlobalMaxPool1d::new();
        let input = Tensor::from_vec(2, 3, vec![1.0, 5.0, 2.0, -1.0, -3.0, -2.0]);
        let out = layer.forward(&input);
        assert_eq!(out.data(), &[5.0, -1.0]);
        let grad = layer.backward(&Tensor::vector(vec![1.0, 2.0]));
        assert_eq!(grad.data(), &[0.0, 1.0, 0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn dense_param_count() {
        let layer = Dense::new(10, 4, 5);
        assert_eq!(layer.param_count(), 10 * 4 + 4);
    }

    #[test]
    fn flops_are_reported() {
        let mut conv = Conv1d::new(1, 32, 3, 6);
        conv.forward(&sample_input(1, 5, 17));
        // 2 * out * len * in * k + out * len = 2*32*5*1*3 + 32*5
        assert_eq!(conv.last_flops(), 960 + 160);
        let mut dense = Dense::new(64, 128, 7);
        dense.forward(&sample_input(64, 1, 18));
        assert_eq!(dense.last_flops(), 2 * 64 * 128 + 128);
    }

    #[test]
    #[should_panic(expected = "kernel size must be odd")]
    fn even_kernel_panics() {
        let _ = Conv1d::new(1, 1, 4, 0);
    }

    #[test]
    fn relu_zeroes_negatives() {
        let mut layer = ReLU::new();
        let out = layer.forward(&Tensor::vector(vec![-1.0, 0.0, 2.0]));
        assert_eq!(out.data(), &[0.0, 0.0, 2.0]);
    }

    /// Run `batch` random samples through `forward` one by one and through
    /// `forward_batch` all at once; the two paths must agree bit-for-bit
    /// (same arithmetic order, no FMA contraction on test targets).
    fn assert_batch_matches_sequential(
        layer: &mut dyn Layer,
        batch: usize,
        in_ch: usize,
        len: usize,
        seed: u64,
    ) {
        use crate::batch::Scratch;
        let samples: Vec<Tensor> = (0..batch)
            .map(|r| sample_input(in_ch, len, seed + r as u64))
            .collect();
        let mut scratch = Scratch::new();
        let buf = scratch.begin(batch, in_ch, len);
        for (r, s) in samples.iter().enumerate() {
            buf[r * in_ch * len..(r + 1) * in_ch * len].copy_from_slice(s.data());
        }
        layer.forward_batch(&mut scratch);
        let (b, out_ch, out_len) = scratch.shape();
        assert_eq!(b, batch);
        for (r, s) in samples.iter().enumerate() {
            let seq = layer.forward(s);
            assert_eq!((seq.rows(), seq.cols()), (out_ch, out_len));
            let got = &scratch.cur()[r * out_ch * out_len..(r + 1) * out_ch * out_len];
            assert_eq!(seq.data(), got, "sample {r} diverges");
        }
    }

    #[test]
    fn conv1d_batch_matches_sequential() {
        // Batch > ROW_BLOCK to exercise the partial tail block.
        let mut layer = Conv1d::new(2, 3, 3, 21);
        assert_batch_matches_sequential(&mut layer, 11, 2, 5, 100);
        let mut wide = Conv1d::new(1, 4, 5, 22);
        assert_batch_matches_sequential(&mut wide, 3, 1, 4, 200);
    }

    #[test]
    fn dense_batch_matches_sequential() {
        let mut layer = Dense::new(6, 4, 23);
        assert_batch_matches_sequential(&mut layer, 10, 2, 3, 300);
    }

    #[test]
    fn activation_and_pool_batch_match_sequential() {
        assert_batch_matches_sequential(&mut ReLU::new(), 9, 2, 4, 400);
        assert_batch_matches_sequential(&mut Sigmoid::new(), 9, 2, 4, 500);
        assert_batch_matches_sequential(&mut GlobalMaxPool1d::new(), 9, 3, 4, 600);
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        let mut layer = Sigmoid::new();
        let out = layer.forward(&Tensor::vector(vec![-10.0, 0.0, 10.0]));
        assert!(out.data()[0] < 0.001);
        assert!((out.data()[1] - 0.5).abs() < 1e-6);
        assert!(out.data()[2] > 0.999);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Lighter-weight analytic-vs-numeric check for proptest: verify the
    /// input gradient only (parameter gradients are covered by the
    /// deterministic tests above).
    fn input_gradient_matches(
        layer: &mut dyn Layer,
        input: &Tensor,
        tol: f32,
    ) -> Result<(), String> {
        let eps = 1e-2f32;
        let loss_of = |out: &Tensor| -> f32 { out.data().iter().map(|&v| 0.5 * v * v).sum() };
        let out = layer.forward(input);
        let grad_in = layer.backward(&out.clone());
        for idx in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let lp = loss_of(&layer.forward(&plus));
            let lm = loss_of(&layer.forward(&minus));
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad_in.data()[idx];
            if (numeric - analytic).abs() > tol * (1.0 + numeric.abs()) {
                return Err(format!(
                    "input {idx}: analytic {analytic} vs numeric {numeric}"
                ));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Conv1D input gradients hold for random shapes and inputs.
        #[test]
        fn conv1d_gradients_hold_for_random_shapes(
            in_ch in 1usize..4,
            out_ch in 1usize..5,
            kernel in prop_oneof![Just(1usize), Just(3), Just(5)],
            len in 3usize..8,
            seed in 0u64..1000,
            data in proptest::collection::vec(-1.0f32..1.0, 4 * 8),
        ) {
            let mut layer = Conv1d::new(in_ch, out_ch, kernel, seed);
            let input = Tensor::from_vec(in_ch, len, data[..in_ch * len].to_vec());
            prop_assert!(input_gradient_matches(&mut layer, &input, 0.08).is_ok());
        }

        /// Dense input gradients hold for random shapes and inputs.
        #[test]
        fn dense_gradients_hold_for_random_shapes(
            in_dim in 1usize..10,
            out_dim in 1usize..8,
            seed in 0u64..1000,
            data in proptest::collection::vec(-1.0f32..1.0, 10),
        ) {
            let mut layer = Dense::new(in_dim, out_dim, seed);
            let input = Tensor::from_vec(in_dim, 1, data[..in_dim].to_vec());
            prop_assert!(input_gradient_matches(&mut layer, &input, 0.08).is_ok());
        }

        /// Max pooling forward: output equals the per-channel maximum, and
        /// the backward routes all gradient mass to one slot per channel.
        #[test]
        fn maxpool_invariants(
            rows in 1usize..5,
            cols in 1usize..7,
            data in proptest::collection::vec(-10.0f32..10.0, 5 * 7),
        ) {
            let input = Tensor::from_vec(rows, cols, data[..rows * cols].to_vec());
            let mut pool = GlobalMaxPool1d::new();
            let out = pool.forward(&input);
            for r in 0..rows {
                let max = (0..cols).map(|c| input.get(r, c)).fold(f32::MIN, f32::max);
                prop_assert_eq!(out.get(r, 0), max);
            }
            let grad = pool.backward(&Tensor::vector(vec![1.0; rows]));
            for r in 0..rows {
                let nonzero = (0..cols).filter(|&c| grad.get(r, c) != 0.0).count();
                prop_assert_eq!(nonzero, 1, "row {} must route grad to one slot", r);
            }
        }
    }
}
