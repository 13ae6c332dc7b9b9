//! Bit-identity of the SIMD lane kernels.
//!
//! The runtime-dispatched AVX2/SSE2 kernels must produce *exactly* the
//! same f32 bits as the portable scalar lane cascade — they use separate
//! multiply and add instructions (no FMA) and the same per-lane
//! accumulation order, so any difference is a kernel bug, not a rounding
//! nicety. These tests sweep all layer types, odd batch sizes (every
//! 16/8/4/1 cascade boundary and its off-by-one neighbours), and
//! non-lane-aligned feature counts, comparing every runnable dispatch
//! level against the scalar reference and the per-sample sequential path.
//!
//! The batched backward is held to the same standard against the
//! per-sample `backward`: weight, bias and input gradients, bit for bit.

use pg_nn::batch::{BatchView, Scratch};
use pg_nn::layers::{Conv1d, Dense, GlobalMaxPool1d, Layer, ReLU, Sigmoid};
use pg_nn::simd::{available_levels, with_level, Level};
use pg_nn::tensor::Tensor;
use proptest::prelude::*;

/// Run `layer.forward_batch` over `data` at the given dispatch level and
/// return the flattened row-major output.
fn run_batch(
    layer: &dyn Layer,
    data: &[f32],
    batch: usize,
    ch: usize,
    len: usize,
    level: Level,
) -> Vec<f32> {
    with_level(level, || {
        let mut s = Scratch::new();
        s.begin(batch, ch, len).copy_from_slice(data);
        layer.forward_batch(&mut s);
        s.cur().to_vec()
    })
}

/// Assert every runnable level reproduces the scalar batch output bit for
/// bit, and that the scalar batch output matches the sequential forward.
fn assert_bit_identical(layer: &mut dyn Layer, data: &[f32], batch: usize, ch: usize, len: usize) {
    let reference = run_batch(layer, data, batch, ch, len, Level::Scalar);
    for level in available_levels() {
        let got = run_batch(layer, data, batch, ch, len, level);
        assert_eq!(reference, got, "level {level:?} diverges from scalar");
    }
    // Scalar batch vs per-sample sequential: the anchor the whole chain of
    // equalities hangs from.
    let stride = ch * len;
    for r in 0..batch {
        let sample = Tensor::from_vec(ch, len, data[r * stride..(r + 1) * stride].to_vec());
        let seq = layer.forward(&sample);
        let out_n = seq.len();
        assert_eq!(
            seq.data(),
            &reference[r * out_n..(r + 1) * out_n],
            "sample {r} diverges from sequential"
        );
    }
}

fn wave(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            (((i as u64).wrapping_mul(2654435761).wrapping_add(seed * 97)) % 2000) as f32 / 500.0
                - 2.0
        })
        .collect()
}

/// Every cascade boundary and its off-by-one neighbours: exercises the
/// 16-lane body, the 8- and 4-lane partial blocks, and the 1-lane tail of
/// each dispatch level (including the AVX2 level's SSE2 sub-16 fallback).
const EDGE_BATCHES: &[usize] = &[1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 20, 24, 31, 33];

#[test]
fn conv1d_edge_batches_bit_identical() {
    for &batch in EDGE_BATCHES {
        let mut layer = Conv1d::new(3, 5, 3, 42 + batch as u64);
        let data = wave(batch * 3 * 7, batch as u64);
        assert_bit_identical(&mut layer, &data, batch, 3, 7);
    }
}

#[test]
fn dense_edge_batches_bit_identical() {
    for &batch in EDGE_BATCHES {
        // 13 input features: deliberately not a multiple of any lane width.
        let mut layer = Dense::new(13, 6, 7 + batch as u64);
        let data = wave(batch * 13, batch as u64 + 100);
        assert_bit_identical(&mut layer, &data, batch, 13, 1);
    }
}

#[test]
fn elementwise_layers_edge_batches_bit_identical() {
    for &batch in &[1usize, 9, 16, 17, 33] {
        assert_bit_identical(&mut ReLU::new(), &wave(batch * 6, 1), batch, 2, 3);
        assert_bit_identical(&mut Sigmoid::new(), &wave(batch * 6, 2), batch, 2, 3);
        assert_bit_identical(
            &mut GlobalMaxPool1d::new(),
            &wave(batch * 6, 3),
            batch,
            2,
            3,
        );
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Upstream gradient for `batch` rows of `out_n` outputs: a wave with every
/// third entry zero, and all of row 1 zero when there is a row 1 — the
/// zeros `Conv1d`'s `go == 0.0` skip and ReLU's mask produce.
fn upstream(batch: usize, out_n: usize, seed: u64) -> Vec<f32> {
    let mut g = wave(batch * out_n, seed);
    for (e, v) in g.iter_mut().enumerate() {
        if e % 3 == 1 || e / out_n == 1 {
            *v = 0.0;
        }
    }
    g
}

/// Two successive batches through one layer three times: per sample with
/// `forward` + `backward`, per batch with `backward_batch`, and per batch
/// without the input gradient (a first layer's backward), all accumulating
/// into gradients never zeroed in between. After each batch the input
/// gradients and every parameter gradient agree bit for bit.
fn assert_backward_bit_identical(
    make: impl Fn() -> Box<dyn Layer>,
    inputs: [&[f32]; 2],
    batch: usize,
    ch: usize,
    len: usize,
) {
    let (mut per_sample, mut batched, mut params_only) = (make(), make(), make());
    let row_n = ch * len;
    let (mut grad, mut scrap) = (Scratch::new(), Scratch::new());
    for (pass, input) in inputs.into_iter().enumerate() {
        assert_eq!(input.len(), batch * row_n);
        // Row 1's upstream gradient is all zero; an infinity in its input
        // shows whether a zero term is skipped (as `Conv1d` does) or added.
        let mut input = input.to_vec();
        if batch > 1 {
            input[row_n] = f32::INFINITY;
        }
        let input = &input[..];
        let out = per_sample.forward(&Tensor::from_vec(ch, len, input[..row_n].to_vec()));
        let (out_ch, out_len) = (out.rows(), out.cols());
        let out_n = out_ch * out_len;
        let g_out = upstream(batch, out_n, 7 + pass as u64);
        let mut expected = Vec::with_capacity(batch * row_n);
        for r in 0..batch {
            let x = Tensor::from_vec(ch, len, input[r * row_n..(r + 1) * row_n].to_vec());
            per_sample.forward(&x);
            let g = Tensor::from_vec(out_ch, out_len, g_out[r * out_n..(r + 1) * out_n].to_vec());
            expected.extend_from_slice(per_sample.backward(&g).data());
        }
        let view = BatchView::new(input, batch, ch, len);
        grad.begin(batch, out_ch, out_len).copy_from_slice(&g_out);
        batched.backward_batch(view, &mut grad, true);
        scrap.begin(batch, out_ch, out_len).copy_from_slice(&g_out);
        params_only.backward_batch(view, &mut scrap, false);
        assert_eq!(grad.shape(), (batch, ch, len), "pass {pass}");
        assert_eq!(
            bits(grad.cur()),
            bits(&expected),
            "input grad, batch {batch} pass {pass}"
        );
        let sets = per_sample.params().into_iter().zip(batched.params());
        for (k, ((a, b), c)) in sets.zip(params_only.params()).enumerate() {
            assert_eq!(
                bits(&a.g),
                bits(&b.g),
                "param set {k}, batch {batch} pass {pass}"
            );
            assert_eq!(
                bits(&a.g),
                bits(&c.g),
                "param set {k} w/o input grad, batch {batch}"
            );
        }
    }
}

/// The backward batch sizes: the forward's cascade edges plus the
/// training mini-batch size.
const BACKWARD_BATCHES: &[usize] = &[1, 3, 4, 7, 8, 15, 16, 17, 256];

#[test]
fn conv1d_backward_batch_bit_identical() {
    for &batch in BACKWARD_BATCHES {
        let (a, b) = (wave(batch * 3 * 7, 1), wave(batch * 3 * 7, 2));
        assert_backward_bit_identical(|| Box::new(Conv1d::new(3, 5, 3, 9)), [&a, &b], batch, 3, 7);
        let (a, b) = (wave(batch * 5, 3), wave(batch * 5, 4));
        assert_backward_bit_identical(|| Box::new(Conv1d::new(1, 4, 5, 10)), [&a, &b], batch, 1, 5);
        // Whole blocks of eight input channels take the lane path.
        let (a, b) = (wave(batch * 8 * 5, 11), wave(batch * 8 * 5, 12));
        let conv = || -> Box<dyn Layer> { Box::new(Conv1d::new(8, 8, 3, 13)) };
        assert_backward_bit_identical(conv, [&a, &b], batch, 8, 5);
        let (a, b) = (wave(batch * 16 * 6, 14), wave(batch * 16 * 6, 15));
        let conv = || -> Box<dyn Layer> { Box::new(Conv1d::new(16, 3, 5, 16)) };
        assert_backward_bit_identical(conv, [&a, &b], batch, 16, 6);
    }
}

#[test]
fn dense_backward_batch_bit_identical() {
    for &batch in BACKWARD_BATCHES {
        // 13 = 1 channel × 13 and 13 features as (13, 1): flattening is
        // the identity on the flat row either way.
        let (a, b) = (wave(batch * 13, 5), wave(batch * 13, 6));
        assert_backward_bit_identical(|| Box::new(Dense::new(13, 6, 11)), [&a, &b], batch, 13, 1);
        assert_backward_bit_identical(|| Box::new(Dense::new(13, 6, 12)), [&a, &b], batch, 1, 13);
    }
}

#[test]
fn elementwise_and_pool_backward_batch_bit_identical() {
    for &batch in BACKWARD_BATCHES {
        let (a, b) = (wave(batch * 12, 7), wave(batch * 12, 8));
        assert_backward_bit_identical(|| Box::new(ReLU::new()), [&a, &b], batch, 3, 4);
        assert_backward_bit_identical(|| Box::new(Sigmoid::new()), [&a, &b], batch, 3, 4);
        assert_backward_bit_identical(|| Box::new(GlobalMaxPool1d::new()), [&a, &b], batch, 3, 4);
        // Ties: three levels only, so most channels repeat their maximum
        // and the gradient must land on the first one.
        let ties =
            |seed| -> Vec<f32> { wave(batch * 12, seed).iter().map(|v| v.round()).collect() };
        let (a, b) = (ties(9), ties(10));
        assert_backward_bit_identical(|| Box::new(GlobalMaxPool1d::new()), [&a, &b], batch, 3, 4);
        assert_backward_bit_identical(|| Box::new(ReLU::new()), [&a, &b], batch, 3, 4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conv1D: random shapes (including non-lane-aligned batch and
    /// channel counts) are bit-identical across every dispatch level.
    #[test]
    fn conv1d_bit_identical_across_levels(
        batch in 1usize..40,
        in_ch in 1usize..4,
        out_ch in 1usize..6,
        kernel in prop_oneof![Just(1usize), Just(3), Just(5)],
        len in 1usize..9,
        seed in 0u64..1000,
        data in proptest::collection::vec(-2.0f32..2.0, 40 * 3 * 8),
    ) {
        let mut layer = Conv1d::new(in_ch, out_ch, kernel, seed);
        let n = batch * in_ch * len;
        assert_bit_identical(&mut layer, &data[..n], batch, in_ch, len);
    }

    /// Dense: random (non-aligned) widths are bit-identical across levels.
    #[test]
    fn dense_bit_identical_across_levels(
        batch in 1usize..40,
        ch in 1usize..5,
        len in 1usize..7,
        out_dim in 1usize..9,
        seed in 0u64..1000,
        data in proptest::collection::vec(-2.0f32..2.0, 40 * 4 * 6),
    ) {
        let mut layer = Dense::new(ch * len, out_dim, seed);
        let n = batch * ch * len;
        assert_bit_identical(&mut layer, &data[..n], batch, ch, len);
    }

    /// Activations and pooling keep bit-identity too (they share the
    /// scratch machinery even without dedicated vector kernels).
    #[test]
    fn elementwise_bit_identical_across_levels(
        batch in 1usize..34,
        ch in 1usize..4,
        len in 1usize..6,
        data in proptest::collection::vec(-4.0f32..4.0, 34 * 3 * 5),
    ) {
        let n = batch * ch * len;
        assert_bit_identical(&mut ReLU::new(), &data[..n], batch, ch, len);
        assert_bit_identical(&mut Sigmoid::new(), &data[..n], batch, ch, len);
        assert_bit_identical(&mut GlobalMaxPool1d::new(), &data[..n], batch, ch, len);
    }
}
