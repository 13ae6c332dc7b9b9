//! Batched execution: borrowed batch views, reusable scratch buffers and
//! the tape a training pass keeps for its backward.
//!
//! A gate that scores `m` concurrent streams per round cannot afford a
//! heap allocation per layer per sample: the paper reports ~2.4 µs/packet
//! of selection overhead at m = 1000, which only works if a steady-state
//! round never touches the allocator. Training goes through the same
//! buffers. This module provides the three pieces the batched paths are
//! built from:
//!
//! * [`BatchView`] — a borrowed, row-major `(batch, channels, len)` view of
//!   caller-owned activations (one row per sample, each row a flattened
//!   channels × time tensor);
//! * [`Scratch`] — a pair of ping-pong activation buffers plus a small aux
//!   buffer for recurrent state. Layers read the current activation and
//!   write their output into the other buffer via
//!   [`Layer::forward_batch`](crate::layers::Layer::forward_batch); the
//!   buffers only ever grow, so once they reach the high-water shape every
//!   subsequent pass is allocation-free. A second `Scratch` carries the
//!   gradient back through
//!   [`Layer::backward_batch`](crate::layers::Layer::backward_batch);
//! * [`Tape`] — each layer's input, kept by a training-mode forward
//!   ([`Sequential::forward_batch_keep`](crate::model::Sequential::forward_batch_keep))
//!   for the backward. One grow-only buffer per layer, sized by the
//!   largest mini-batch seen.
//!
//! Per-sample arithmetic order in the batched kernels matches the
//! per-sample `forward`/`backward` implementations, so outputs and
//! accumulated gradients agree bit-for-bit on targets without FMA
//! contraction.

/// A borrowed row-major batch of equally-shaped samples.
///
/// Layout: sample `r` occupies `data[r*channels*len .. (r+1)*channels*len]`,
/// itself row-major `(channels, len)` like [`crate::tensor::Tensor`].
#[derive(Debug, Clone, Copy)]
pub struct BatchView<'a> {
    data: &'a [f32],
    batch: usize,
    channels: usize,
    len: usize,
}

impl<'a> BatchView<'a> {
    /// Wrap a buffer. Panics if the length doesn't match the shape.
    pub fn new(data: &'a [f32], batch: usize, channels: usize, len: usize) -> Self {
        assert_eq!(
            data.len(),
            batch * channels * len,
            "batch view length {} != {batch}x{channels}x{len}",
            data.len()
        );
        BatchView {
            data,
            batch,
            channels,
            len,
        }
    }

    /// Number of samples.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Channels per sample.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Time steps per sample.
    pub fn len_t(&self) -> usize {
        self.len
    }

    /// Raw data, batch-major.
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// One sample's flattened `(channels, len)` activation.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f32] {
        let stride = self.channels * self.len;
        &self.data[r * stride..(r + 1) * stride]
    }

    /// Element access within sample `r`.
    #[inline]
    pub fn at(&self, r: usize, ch: usize, t: usize) -> f32 {
        debug_assert!(r < self.batch && ch < self.channels && t < self.len);
        self.data[(r * self.channels + ch) * self.len + t]
    }
}

/// Grow-only resize: never shrinks, so capacity (and the absence of
/// allocations) is monotone across calls.
fn grow(v: &mut Vec<f32>, n: usize) {
    if v.len() < n {
        v.resize(n, 0.0);
    }
}

/// Lane stride (possibly padded batch) for feature-major kernel buffers.
///
/// A feature-major buffer stores one row per feature with sample lanes
/// contiguous at a stride of `batch` elements. When that stride's byte
/// size is a large power-of-two multiple the rows alias to a handful of
/// L1 cache sets — and at exactly 4 KiB every row sits on its own page,
/// thrashing the DTLB. At m = 1024 this *inverts* the SIMD advantage
/// (the vector kernels run slower than scalar). Padding the stride by
/// one lane block breaks the resonance; callers zero the padded lanes
/// and discard their outputs.
pub fn lane_stride(batch: usize) -> usize {
    if batch >= 256 && batch.is_multiple_of(256) {
        batch + 16
    } else {
        batch
    }
}

/// Reusable ping-pong activation buffers for one batched forward pass.
///
/// A pass starts with [`Scratch::begin`], which shapes the input activation
/// and hands out the buffer to fill. Each layer then calls
/// [`Scratch::map_layer`] (or [`Scratch::map_layer_with_aux`] for
/// recurrent layers that need per-step state), which presents the current
/// activation as a [`BatchView`], collects the output in the opposite
/// buffer, and flips. Buffers never shrink: after one warm-up pass at the
/// high-water shape, no call allocates.
#[derive(Debug, Default)]
pub struct Scratch {
    a: Vec<f32>,
    b: Vec<f32>,
    /// Which buffer holds the current activation.
    cur_in_a: bool,
    batch: usize,
    channels: usize,
    len: usize,
    aux: Vec<f32>,
}

impl Scratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a pass: shape the activation to `(batch, channels, len)` and
    /// return the input buffer for the caller to fill. Contents are
    /// whatever the previous pass left — the caller must write every
    /// element it wants defined.
    pub fn begin(&mut self, batch: usize, channels: usize, len: usize) -> &mut [f32] {
        self.batch = batch;
        self.channels = channels;
        self.len = len;
        self.cur_in_a = true;
        let n = batch * channels * len;
        grow(&mut self.a, n);
        &mut self.a[..n]
    }

    /// Current activation shape `(batch, channels, len)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.batch, self.channels, self.len)
    }

    /// Number of samples in the current pass.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Current activation, read-only.
    pub fn cur(&self) -> &[f32] {
        let n = self.batch * self.channels * self.len;
        if self.cur_in_a {
            &self.a[..n]
        } else {
            &self.b[..n]
        }
    }

    /// Current activation as a [`BatchView`].
    pub fn view(&self) -> BatchView<'_> {
        BatchView::new(self.cur(), self.batch, self.channels, self.len)
    }

    /// Current activation, mutable — for in-place layers (activations)
    /// that keep the shape.
    pub fn cur_mut(&mut self) -> &mut [f32] {
        let n = self.batch * self.channels * self.len;
        if self.cur_in_a {
            &mut self.a[..n]
        } else {
            &mut self.b[..n]
        }
    }

    /// Run one layer step: `f` reads the current activation and writes the
    /// `(batch, out_ch, out_len)` output (every element must be written);
    /// the output then becomes the current activation.
    pub fn map_layer(
        &mut self,
        out_ch: usize,
        out_len: usize,
        f: impl FnOnce(BatchView<'_>, &mut [f32]),
    ) {
        self.map_layer_with_aux(out_ch, out_len, 0, |inp, out, _| f(inp, out));
    }

    /// [`Scratch::map_layer`] plus a zero-initialized aux slice of
    /// `aux_len` floats for per-step recurrent state.
    pub fn map_layer_with_aux(
        &mut self,
        out_ch: usize,
        out_len: usize,
        aux_len: usize,
        f: impl FnOnce(BatchView<'_>, &mut [f32], &mut [f32]),
    ) {
        grow(&mut self.aux, aux_len);
        self.aux[..aux_len].fill(0.0);
        self.map_layer_with_aux_raw(out_ch, out_len, aux_len, f);
    }

    /// [`Scratch::map_layer_with_aux`] without the zero fill: the aux slice
    /// holds whatever a previous layer left. For kernels that fully
    /// overwrite their aux workspace (e.g. the transposed conv/dense
    /// buffers), skipping the fill keeps large batches memory-bound on
    /// compute, not on clearing scratch.
    pub fn map_layer_with_aux_raw(
        &mut self,
        out_ch: usize,
        out_len: usize,
        aux_len: usize,
        f: impl FnOnce(BatchView<'_>, &mut [f32], &mut [f32]),
    ) {
        let in_n = self.batch * self.channels * self.len;
        let out_n = self.batch * out_ch * out_len;
        grow(&mut self.aux, aux_len);
        if self.cur_in_a {
            grow(&mut self.b, out_n);
        } else {
            grow(&mut self.a, out_n);
        }
        let (cur, next): (&[f32], &mut [f32]) = if self.cur_in_a {
            (&self.a[..in_n], &mut self.b[..out_n])
        } else {
            (&self.b[..in_n], &mut self.a[..out_n])
        };
        let aux = &mut self.aux[..aux_len];
        f(
            BatchView::new(cur, self.batch, self.channels, self.len),
            next,
            aux,
        );
        self.cur_in_a = !self.cur_in_a;
        self.channels = out_ch;
        self.len = out_len;
    }
}

/// Each layer's input activation from one training-mode batched forward,
/// kept for the matching batched backward.
///
/// Entry `l` holds the `(batch, channels, len)` activation layer `l` read.
/// Buffers are grow-only: once the largest mini-batch has been kept, later
/// passes copy into existing storage and never allocate.
#[derive(Debug, Default)]
pub struct Tape {
    kept: Vec<Kept>,
}

#[derive(Debug, Default)]
struct Kept {
    data: Vec<f32>,
    batch: usize,
    channels: usize,
    len: usize,
}

impl Tape {
    /// Empty tape; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Keep a copy of `input` as layer `layer`'s input.
    pub fn keep(&mut self, layer: usize, input: BatchView<'_>) {
        if self.kept.len() <= layer {
            self.kept.resize_with(layer + 1, Kept::default);
        }
        let k = &mut self.kept[layer];
        let n = input.data().len();
        grow(&mut k.data, n);
        k.data[..n].copy_from_slice(input.data());
        (k.batch, k.channels, k.len) = (input.batch(), input.channels(), input.len_t());
    }

    /// Layer `layer`'s kept input. Panics if nothing was kept for it.
    pub fn input(&self, layer: usize) -> BatchView<'_> {
        let k = &self.kept[layer];
        BatchView::new(
            &k.data[..k.batch * k.channels * k.len],
            k.batch,
            k.channels,
            k.len,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_layout_and_access() {
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let v = BatchView::new(&data, 2, 2, 3);
        assert_eq!(v.batch(), 2);
        assert_eq!(v.row(1), &[6.0, 7.0, 8.0, 9.0, 10.0, 11.0]);
        assert_eq!(v.at(1, 1, 2), 11.0);
    }

    #[test]
    #[should_panic(expected = "batch view length")]
    fn view_checks_length() {
        let data = [0.0f32; 5];
        let _ = BatchView::new(&data, 2, 1, 3);
    }

    #[test]
    fn map_layer_ping_pongs_and_reshapes() {
        let mut s = Scratch::new();
        s.begin(2, 1, 3).copy_from_slice(&[1., 2., 3., 4., 5., 6.]);
        // Sum each sample into a single scalar.
        s.map_layer(1, 1, |inp, out| {
            for r in 0..inp.batch() {
                out[r] = inp.row(r).iter().sum();
            }
        });
        assert_eq!(s.shape(), (2, 1, 1));
        assert_eq!(s.cur(), &[6.0, 15.0]);
    }

    #[test]
    fn buffers_never_shrink_and_stop_allocating() {
        let mut s = Scratch::new();
        // Warm up at the high-water shape.
        s.begin(4, 2, 5).fill(1.0);
        s.map_layer(3, 5, |_, out| out.fill(0.0));
        let cap_a = s.a.capacity();
        let cap_b = s.b.capacity();
        // Smaller and equal passes must not grow capacity.
        for batch in [1usize, 4, 2] {
            s.begin(batch, 2, 5).fill(0.5);
            s.map_layer(3, 5, |_, out| out.fill(0.0));
            assert_eq!(s.a.capacity(), cap_a);
            assert_eq!(s.b.capacity(), cap_b);
        }
    }

    #[test]
    fn aux_is_zeroed_per_layer() {
        let mut s = Scratch::new();
        s.begin(1, 1, 1).fill(0.0);
        s.map_layer_with_aux(1, 1, 4, |_, out, aux| {
            assert_eq!(aux, &[0.0; 4]);
            aux.fill(9.0);
            out.fill(0.0);
        });
        s.begin(1, 1, 1).fill(0.0);
        s.map_layer_with_aux(1, 1, 4, |_, out, aux| {
            assert_eq!(aux, &[0.0; 4], "aux must be re-zeroed");
            out.fill(0.0);
        });
    }

    #[test]
    fn tape_keeps_each_layer_input_and_stops_growing() {
        let mut tape = Tape::new();
        let big: Vec<f32> = (0..12).map(|i| i as f32).collect();
        tape.keep(1, BatchView::new(&big, 2, 2, 3));
        tape.keep(0, BatchView::new(&big[..4], 4, 1, 1));
        assert_eq!(tape.input(1).row(1), &[6.0, 7.0, 8.0, 9.0, 10.0, 11.0]);
        assert_eq!(tape.input(0).data(), &[0.0, 1.0, 2.0, 3.0]);
        let cap = tape.kept[1].data.capacity();
        tape.keep(1, BatchView::new(&big[..6], 1, 2, 3));
        assert_eq!(tape.input(1).data(), &big[..6]);
        assert_eq!(tape.kept[1].data.capacity(), cap);
    }
}
