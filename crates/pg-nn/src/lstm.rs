//! LSTM layer with backpropagation through time.
//!
//! Completes the paper's §5.2 exploration set ("fully connected, recurrent,
//! and LSTM layers"). Standard formulation, per time step `t`:
//!
//! ```text
//! i_t = σ(W_i·x_t + U_i·h_{t−1} + b_i)      input gate
//! f_t = σ(W_f·x_t + U_f·h_{t−1} + b_f)      forget gate
//! o_t = σ(W_o·x_t + U_o·h_{t−1} + b_o)      output gate
//! g_t = tanh(W_g·x_t + U_g·h_{t−1} + b_g)   candidate
//! c_t = f_t ⊙ c_{t−1} + i_t ⊙ g_t
//! h_t = o_t ⊙ tanh(c_t)
//! ```
//!
//! The output is the hidden sequence `(hidden, L)`, composing with
//! `GlobalMaxPool1d` like the other embedding branches. The forget-gate
//! bias is initialized to 1 (the standard trick for gradient flow).

use crate::batch::{BatchView, Scratch};
use crate::init::{glorot_uniform, init_rng};
use crate::layers::{backward_batch_per_row, Layer};
use crate::param::ParamSet;
use crate::tensor::Tensor;

/// Gate order inside the stacked parameter blocks: i, f, o, g.
const GATES: usize = 4;

/// LSTM over the time axis. See module docs.
#[derive(Debug)]
pub struct Lstm {
    in_ch: usize,
    hidden: usize,
    /// Input weights, stacked `[gate][h][i]`.
    wx: ParamSet,
    /// Recurrent weights, stacked `[gate][h][h']`.
    wh: ParamSet,
    /// Biases, stacked `[gate][h]`.
    bias: ParamSet,
    /// Caches from the last forward pass, per time step.
    cache: Option<Cache>,
    last_flops: u64,
}

#[derive(Debug)]
struct Cache {
    input: Tensor,
    /// Gate activations per step: `[t][gate*hidden + h]`.
    gates: Vec<Vec<f32>>,
    /// Cell states per step (post-update).
    cells: Vec<Vec<f32>>,
    /// Hidden states per step.
    hidden: Vec<Vec<f32>>,
}

impl Lstm {
    /// New LSTM with Glorot initialization and forget bias 1.
    pub fn new(in_ch: usize, hidden: usize, seed: u64) -> Self {
        let mut rng = init_rng(seed);
        let wx = glorot_uniform(&mut rng, in_ch, hidden, GATES * hidden * in_ch);
        let wh = glorot_uniform(&mut rng, hidden, hidden, GATES * hidden * hidden);
        let mut bias = vec![0.0f32; GATES * hidden];
        for h in 0..hidden {
            bias[hidden + h] = 1.0; // forget gate
        }
        Lstm {
            in_ch,
            hidden,
            wx: ParamSet::new(wx),
            wh: ParamSet::new(wh),
            bias: ParamSet::new(bias),
            cache: None,
            last_flops: 0,
        }
    }

    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    #[inline]
    fn wx_at(&self, gate: usize, h: usize, i: usize) -> f32 {
        self.wx.w[(gate * self.hidden + h) * self.in_ch + i]
    }

    #[inline]
    fn wh_at(&self, gate: usize, h: usize, hp: usize) -> f32 {
        self.wh.w[(gate * self.hidden + h) * self.hidden + hp]
    }
}

#[inline]
fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

impl Layer for Lstm {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.rows(), self.in_ch, "lstm input channel mismatch");
        let len = input.cols();
        let hd = self.hidden;
        let mut out = Tensor::zeros(hd, len);
        let mut gates = Vec::with_capacity(len);
        let mut cells = Vec::with_capacity(len);
        let mut hiddens = Vec::with_capacity(len);
        let mut h_prev = vec![0.0f32; hd];
        let mut c_prev = vec![0.0f32; hd];

        for t in 0..len {
            let mut g = vec![0.0f32; GATES * hd];
            for gate in 0..GATES {
                for h in 0..hd {
                    let mut acc = self.bias.w[gate * hd + h];
                    for i in 0..self.in_ch {
                        acc += self.wx_at(gate, h, i) * input.get(i, t);
                    }
                    for hp in 0..hd {
                        acc += self.wh_at(gate, h, hp) * h_prev[hp];
                    }
                    g[gate * hd + h] = if gate == 3 { acc.tanh() } else { sigmoid(acc) };
                }
            }
            let mut c = vec![0.0f32; hd];
            let mut hh = vec![0.0f32; hd];
            for h in 0..hd {
                let (i_g, f_g, o_g, g_g) = (g[h], g[hd + h], g[2 * hd + h], g[3 * hd + h]);
                c[h] = f_g * c_prev[h] + i_g * g_g;
                hh[h] = o_g * c[h].tanh();
                out.set(h, t, hh[h]);
            }
            gates.push(g);
            cells.push(c.clone());
            hiddens.push(hh.clone());
            h_prev = hh;
            c_prev = c;
        }

        self.last_flops = (2 * len * GATES * hd * (self.in_ch + hd + 1) + 10 * len * hd) as u64;
        self.cache = Some(Cache {
            input: input.clone(),
            gates,
            cells,
            hidden: hiddens,
        });
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward before forward");
        let len = cache.input.cols();
        let hd = self.hidden;
        assert_eq!(grad_out.rows(), hd);
        assert_eq!(grad_out.cols(), len);

        let mut grad_in = Tensor::zeros(self.in_ch, len);
        let mut dh_carry = vec![0.0f32; hd];
        let mut dc_carry = vec![0.0f32; hd];

        for t in (0..len).rev() {
            let g = &cache.gates[t];
            let c = &cache.cells[t];
            let c_prev: &[f32] = if t > 0 { &cache.cells[t - 1] } else { &[] };
            let h_prev: &[f32] = if t > 0 { &cache.hidden[t - 1] } else { &[] };

            // dL/dz per gate pre-activation, stacked like the params.
            let mut dz = vec![0.0f32; GATES * hd];
            let mut dc_next = vec![0.0f32; hd];
            for h in 0..hd {
                let dh = grad_out.get(h, t) + dh_carry[h];
                let (i_g, f_g, o_g, g_g) = (g[h], g[hd + h], g[2 * hd + h], g[3 * hd + h]);
                let tc = c[h].tanh();
                // Through h = o ⊙ tanh(c).
                let do_ = dh * tc;
                let dc = dh * o_g * (1.0 - tc * tc) + dc_carry[h];
                // Through c = f ⊙ c_prev + i ⊙ g.
                let cp = if t > 0 { c_prev[h] } else { 0.0 };
                let di = dc * g_g;
                let df = dc * cp;
                let dg = dc * i_g;
                dc_next[h] = dc * f_g;
                // Through the activations.
                dz[h] = di * i_g * (1.0 - i_g);
                dz[hd + h] = df * f_g * (1.0 - f_g);
                dz[2 * hd + h] = do_ * o_g * (1.0 - o_g);
                dz[3 * hd + h] = dg * (1.0 - g_g * g_g);
            }

            // Parameter, input, and recurrent gradients.
            let mut dh_next = vec![0.0f32; hd];
            for gate in 0..GATES {
                for h in 0..hd {
                    let d = dz[gate * hd + h];
                    if d == 0.0 {
                        continue;
                    }
                    self.bias.g[gate * hd + h] += d;
                    for i in 0..self.in_ch {
                        self.wx.g[(gate * hd + h) * self.in_ch + i] += d * cache.input.get(i, t);
                        let cur = grad_in.get(i, t);
                        grad_in.set(i, t, cur + d * self.wx_at(gate, h, i));
                    }
                    if t > 0 {
                        for hp in 0..hd {
                            self.wh.g[(gate * hd + h) * self.hidden + hp] += d * h_prev[hp];
                            dh_next[hp] += d * self.wh_at(gate, h, hp);
                        }
                    }
                }
            }
            dh_carry = dh_next;
            dc_carry = dc_next;
        }
        self.cache = Some(cache);
        grad_in
    }

    /// Batched inference fallback: like [`Rnn`](crate::recurrent::Rnn),
    /// the recurrence serializes time, so samples run **per row** — the
    /// aux scratch holds the gate activations and cell state of the
    /// current step only (`5·hidden` floats), reused across rows and
    /// rounds. Hidden state is read back from output column `t − 1`.
    fn forward_batch(&self, scratch: &mut Scratch) {
        let (batch, in_ch, len) = scratch.shape();
        assert_eq!(in_ch, self.in_ch, "lstm batch input channel mismatch");
        let hd = self.hidden;
        scratch.map_layer_with_aux(hd, len, (GATES + 1) * hd, |inp, out, aux| {
            let (g, c) = aux.split_at_mut(GATES * hd);
            for r in 0..batch {
                let x = inp.row(r);
                let o = &mut out[r * hd * len..(r + 1) * hd * len];
                c[..hd].fill(0.0);
                for t in 0..len {
                    for gate in 0..GATES {
                        for h in 0..hd {
                            let mut acc = self.bias.w[gate * hd + h];
                            for i in 0..in_ch {
                                acc += self.wx_at(gate, h, i) * x[i * len + t];
                            }
                            if t > 0 {
                                for hp in 0..hd {
                                    acc += self.wh_at(gate, h, hp) * o[hp * len + t - 1];
                                }
                            }
                            g[gate * hd + h] = if gate == 3 { acc.tanh() } else { sigmoid(acc) };
                        }
                    }
                    for h in 0..hd {
                        let (i_g, f_g, o_g, g_g) = (g[h], g[hd + h], g[2 * hd + h], g[3 * hd + h]);
                        // c[h] still holds c_{t−1}; overwrite in place.
                        let cc = f_g * c[h] + i_g * g_g;
                        c[h] = cc;
                        o[h * len + t] = o_g * cc.tanh();
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

    fn check_gradients(layer: &mut Lstm, input: &Tensor, tol: f32) {
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
        let mut layer = Lstm::new(2, 3, 1);
        let input = Tensor::from_vec(2, 4, vec![0.3, -0.2, 0.5, 0.1, -0.4, 0.2, 0.0, 0.6]);
        check_gradients(&mut layer, &input, 3e-2);
    }

    #[test]
    fn output_shape_and_range() {
        let mut layer = Lstm::new(1, 6, 2);
        let out = layer.forward(&Tensor::from_vec(1, 5, vec![0.1, 0.9, -0.3, 0.0, 2.0]));
        assert_eq!((out.rows(), out.cols()), (6, 5));
        assert!(out.data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let layer = Lstm::new(1, 4, 3);
        let b = &layer.params()[2].w;
        assert!(b[4..8].iter().all(|&x| x == 1.0), "forget biases");
        assert!(b[0..4].iter().all(|&x| x == 0.0), "input biases");
    }

    #[test]
    fn cell_state_carries_memory() {
        // A pulse at t=0 should still influence the hidden state at t=3
        // through the cell state, even with zero inputs afterwards.
        let mut layer = Lstm::new(1, 4, 4);
        let pulsed = layer.forward(&Tensor::from_vec(1, 4, vec![2.0, 0.0, 0.0, 0.0]));
        let silent = layer.forward(&Tensor::from_vec(1, 4, vec![0.0, 0.0, 0.0, 0.0]));
        let diff: f32 = (0..4)
            .map(|h| (pulsed.get(h, 3) - silent.get(h, 3)).abs())
            .sum();
        assert!(diff > 1e-3, "memory should persist, diff {diff}");
    }

    #[test]
    fn param_count() {
        let layer = Lstm::new(2, 5, 5);
        assert_eq!(layer.param_count(), 4 * (5 * 2 + 5 * 5 + 5));
    }

    #[test]
    fn batch_matches_sequential() {
        use crate::batch::Scratch;
        let mut layer = Lstm::new(2, 3, 9);
        let (batch, in_ch, len) = (4usize, 2usize, 5usize);
        let mut rng = crate::init::init_rng(78);
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
    fn trains_on_a_memory_task() {
        use crate::layers::{Dense, GlobalMaxPool1d};
        use crate::loss::bce_with_logits;
        use crate::model::Sequential;
        use crate::optim::RmsProp;
        use rand::Rng;

        // Label = 1 iff the FIRST element of the sequence exceeds 0.5 —
        // max-pooled convs can't isolate position, but an LSTM can carry it.
        let mut net = Sequential::new(vec![
            Box::new(Lstm::new(1, 8, 6)),
            Box::new(GlobalMaxPool1d::new()),
            Box::new(Dense::new(8, 1, 7)),
        ]);
        let opt = RmsProp::with_lr(0.02);
        let mut rng = crate::init::init_rng(8);
        let sample = |rng: &mut rand::rngs::StdRng| {
            let x: Vec<f32> = (0..6).map(|_| rng.gen_range(0.0..1.0)).collect();
            let label = if x[0] > 0.5 { 1.0 } else { 0.0 };
            (Tensor::from_vec(1, 6, x), label)
        };
        for _ in 0..500 {
            net.zero_grad();
            for _ in 0..8 {
                let (x, r) = sample(&mut rng);
                let z = net.forward(&x);
                let (_, dz) = bce_with_logits(r, z.data()[0]);
                net.backward(&Tensor::vector(vec![dz]));
            }
            net.scale_grad(1.0 / 8.0);
            net.step(&opt);
        }
        let mut correct = 0;
        for _ in 0..200 {
            let (x, r) = sample(&mut rng);
            let z = net.forward(&x).data()[0];
            if ((z > 0.0) as i32 as f32 - r).abs() < 0.5 {
                correct += 1;
            }
        }
        let acc = f64::from(correct) / 200.0;
        assert!(acc > 0.85, "LSTM memory-task accuracy {acc}");
    }
}
