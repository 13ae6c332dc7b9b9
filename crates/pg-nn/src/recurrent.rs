//! Simple recurrent layer (Elman RNN) with backpropagation through time.
//!
//! The paper's §5.2 reports exploring "fully connected, recurrent, and
//! LSTM layers" for the packet-size embedding before settling on 1-D
//! convolutions for parameter efficiency. This layer makes that comparison
//! reproducible (see the `ablation_embedding` experiment).
//!
//! Semantics: input `(in_ch, L)` is consumed left-to-right;
//! `h_t = tanh(W_x·x_t + W_h·h_{t−1} + b)`; the output is the full hidden
//! sequence `(hidden, L)` so it composes with `GlobalMaxPool1d` exactly
//! like a convolution branch.

use crate::batch::{BatchView, Scratch};
use crate::init::{glorot_uniform, init_rng};
use crate::layers::{backward_batch_per_row, Layer};
use crate::param::ParamSet;
use crate::tensor::Tensor;

/// Elman RNN over the time axis. See module docs.
#[derive(Debug)]
pub struct Rnn {
    in_ch: usize,
    hidden: usize,
    /// Input weights `W_x[h][i]`.
    wx: ParamSet,
    /// Recurrent weights `W_h[h][h']`.
    wh: ParamSet,
    /// Bias.
    bias: ParamSet,
    /// Cached input and hidden sequence from the last forward pass.
    cached_input: Option<Tensor>,
    cached_hidden: Option<Tensor>,
    last_flops: u64,
}

impl Rnn {
    /// New RNN layer with Glorot initialization.
    pub fn new(in_ch: usize, hidden: usize, seed: u64) -> Self {
        let mut rng = init_rng(seed);
        let wx = glorot_uniform(&mut rng, in_ch, hidden, hidden * in_ch);
        let wh = glorot_uniform(&mut rng, hidden, hidden, hidden * hidden);
        Rnn {
            in_ch,
            hidden,
            wx: ParamSet::new(wx),
            wh: ParamSet::new(wh),
            bias: ParamSet::new(vec![0.0; hidden]),
            cached_input: None,
            cached_hidden: None,
            last_flops: 0,
        }
    }

    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }
}

impl Layer for Rnn {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.rows(), self.in_ch, "rnn input channel mismatch");
        let len = input.cols();
        let mut out = Tensor::zeros(self.hidden, len);
        let mut prev = vec![0.0f32; self.hidden];
        for t in 0..len {
            for h in 0..self.hidden {
                let mut acc = self.bias.w[h];
                for i in 0..self.in_ch {
                    acc += self.wx.w[h * self.in_ch + i] * input.get(i, t);
                }
                for hp in 0..self.hidden {
                    acc += self.wh.w[h * self.hidden + hp] * prev[hp];
                }
                out.set(h, t, acc.tanh());
            }
            for h in 0..self.hidden {
                prev[h] = out.get(h, t);
            }
        }
        self.last_flops = (2 * len * self.hidden * (self.in_ch + self.hidden + 1)) as u64;
        self.cached_input = Some(input.clone());
        self.cached_hidden = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward before forward")
            .clone();
        let hidden = self
            .cached_hidden
            .as_ref()
            .expect("backward before forward")
            .clone();
        let len = input.cols();
        assert_eq!(grad_out.rows(), self.hidden);
        assert_eq!(grad_out.cols(), len);

        let mut grad_in = Tensor::zeros(self.in_ch, len);
        // dL/dh_t carried backwards through time.
        let mut carry = vec![0.0f32; self.hidden];
        for t in (0..len).rev() {
            // Total gradient at h_t: direct + carried from t+1.
            let mut dh = vec![0.0f32; self.hidden];
            for h in 0..self.hidden {
                dh[h] = grad_out.get(h, t) + carry[h];
            }
            // Through tanh: dz = dh · (1 − h²).
            let mut dz = vec![0.0f32; self.hidden];
            for h in 0..self.hidden {
                let y = hidden.get(h, t);
                dz[h] = dh[h] * (1.0 - y * y);
            }
            // Parameter and input gradients.
            for h in 0..self.hidden {
                self.bias.g[h] += dz[h];
                for i in 0..self.in_ch {
                    self.wx.g[h * self.in_ch + i] += dz[h] * input.get(i, t);
                    let cur = grad_in.get(i, t);
                    grad_in.set(i, t, cur + dz[h] * self.wx.w[h * self.in_ch + i]);
                }
            }
            // Recurrent gradients into h_{t−1}.
            let mut next_carry = vec![0.0f32; self.hidden];
            if t > 0 {
                for h in 0..self.hidden {
                    for hp in 0..self.hidden {
                        self.wh.g[h * self.hidden + hp] += dz[h] * hidden.get(hp, t - 1);
                        next_carry[hp] += dz[h] * self.wh.w[h * self.hidden + hp];
                    }
                }
            } else {
                // h_{−1} = 0: recurrent weight gradient contribution is 0.
            }
            carry = next_carry;
        }
        grad_in
    }

    /// Batched inference fallback: the recurrence serializes the time axis,
    /// so samples are processed **per row** (no cross-row blocking as in
    /// the conv/dense kernels) — still `&self`, cache-free, and
    /// allocation-free after scratch warm-up. The previous hidden state is
    /// read back from the already-written output column `t − 1`.
    fn forward_batch(&self, scratch: &mut Scratch) {
        let (batch, in_ch, len) = scratch.shape();
        assert_eq!(in_ch, self.in_ch, "rnn batch input channel mismatch");
        let hd = self.hidden;
        scratch.map_layer(hd, len, |inp, out| {
            for r in 0..batch {
                let x = inp.row(r);
                let o = &mut out[r * hd * len..(r + 1) * hd * len];
                for t in 0..len {
                    for h in 0..hd {
                        let mut acc = self.bias.w[h];
                        for i in 0..in_ch {
                            acc += self.wx.w[h * in_ch + i] * x[i * len + t];
                        }
                        if t > 0 {
                            for hp in 0..hd {
                                acc += self.wh.w[h * hd + hp] * o[hp * len + t - 1];
                            }
                        }
                        o[h * len + t] = acc.tanh();
                    }
                }
            }
        });
    }

    /// No batched kernel: a per-row loop over the per-sample
    /// `forward` + `backward` (which always forms the input gradient).
    fn backward_batch(&mut self, input: BatchView<'_>, grad: &mut Scratch, _input_grad: bool) {
        backward_batch_per_row(self, input, grad);
    }

    fn params_mut(&mut self) -> Vec<&mut ParamSet> {
        vec![&mut self.wx, &mut self.wh, &mut self.bias]
    }

    fn params(&self) -> Vec<&ParamSet> {
        vec![&self.wx, &self.wh, &self.bias]
    }

    fn last_flops(&self) -> u64 {
        self.last_flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerical gradient check (same scheme as the layers module).
    fn check_gradients(layer: &mut Rnn, input: &Tensor, tol: f32) {
        let eps = 1e-3f32;
        let loss_of = |out: &Tensor| -> f32 { out.data().iter().map(|&v| 0.5 * v * v).sum() };
        let out = layer.forward(input);
        let grad_in = layer.backward(&out.clone());

        let analytic: Vec<Vec<f32>> = layer.params().iter().map(|p| p.g.clone()).collect();
        for (pi, grads) in analytic.iter().enumerate() {
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
                    "param {pi}[{wi}]: analytic {} vs numeric {numeric}",
                    grads[wi]
                );
            }
        }
        for idx in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let lp = loss_of(&layer.forward(&plus));
            let lm = loss_of(&layer.forward(&minus));
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad_in.data()[idx]).abs() < tol * (1.0 + numeric.abs()),
                "input {idx}: analytic {} vs numeric {numeric}",
                grad_in.data()[idx]
            );
        }
    }

    #[test]
    fn bptt_gradients_check_out() {
        let mut layer = Rnn::new(2, 3, 1);
        let input = Tensor::from_vec(2, 4, vec![0.3, -0.2, 0.5, 0.1, -0.4, 0.2, 0.0, 0.6]);
        check_gradients(&mut layer, &input, 3e-2);
    }

    #[test]
    fn output_shape_and_range() {
        let mut layer = Rnn::new(1, 8, 2);
        let out = layer.forward(&Tensor::from_vec(1, 5, vec![0.1, 0.9, -0.3, 0.0, 2.0]));
        assert_eq!((out.rows(), out.cols()), (8, 5));
        assert!(out.data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn state_carries_across_time() {
        // With zero input after t=0, the hidden state must still evolve
        // (recurrence), so h_1 generally differs from h_0 mapping of zero.
        let mut layer = Rnn::new(1, 4, 3);
        let out = layer.forward(&Tensor::from_vec(1, 3, vec![1.0, 0.0, 0.0]));
        let h1: Vec<f32> = (0..4).map(|h| out.get(h, 1)).collect();
        let h2: Vec<f32> = (0..4).map(|h| out.get(h, 2)).collect();
        assert_ne!(h1, vec![0.0; 4], "recurrence should propagate h_0");
        assert_ne!(h1, h2, "state should keep evolving");
    }

    #[test]
    fn param_count() {
        let layer = Rnn::new(2, 5, 4);
        assert_eq!(layer.param_count(), 2 * 5 + 5 * 5 + 5);
    }

    #[test]
    fn batch_matches_sequential() {
        use crate::batch::Scratch;
        use crate::init::glorot_uniform;
        let mut layer = Rnn::new(2, 4, 6);
        let (batch, in_ch, len) = (5usize, 2usize, 4usize);
        let mut rng = crate::init::init_rng(77);
        let samples: Vec<Tensor> = (0..batch)
            .map(|_| Tensor::from_vec(in_ch, len, glorot_uniform(&mut rng, 1, 1, in_ch * len)))
            .collect();
        let mut scratch = Scratch::new();
        let buf = scratch.begin(batch, in_ch, len);
        for (r, s) in samples.iter().enumerate() {
            buf[r * in_ch * len..(r + 1) * in_ch * len].copy_from_slice(s.data());
        }
        layer.forward_batch(&mut scratch);
        for (r, s) in samples.iter().enumerate() {
            let seq = layer.forward(s);
            let stride = seq.len();
            let got = &scratch.cur()[r * stride..(r + 1) * stride];
            assert_eq!(seq.data(), got, "sample {r} diverges");
        }
    }

    #[test]
    fn flops_reported() {
        let mut layer = Rnn::new(1, 8, 5);
        layer.forward(&Tensor::from_vec(1, 5, vec![0.0; 5]));
        assert_eq!(layer.last_flops(), 2 * 5 * 8 * (1 + 8 + 1));
    }
}
