//! Layer containers.

use crate::batch::{Scratch, Tape};
use crate::layers::Layer;
use crate::optim::Optimizer;
use crate::param::ParamSet;
use crate::tensor::Tensor;

/// An ordered stack of layers sharing one forward/backward pipeline.
///
/// Multi-input architectures (like the contextual predictor's three views)
/// are built from several `Sequential` branches whose outputs are
/// concatenated by the caller; gradients are split back with
/// [`split_grad`](Sequential::split_grad) helpers on the caller side.
#[derive(Debug)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Build from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Forward through every layer.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Inference-mode batched forward: run every layer's
    /// [`Layer::forward_batch`] over the scratch activations. Takes
    /// `&self` — no training caches are touched, and nothing allocates
    /// once the scratch has warmed up to its high-water shape. The result
    /// is left as the scratch's current activation.
    pub fn forward_batch(&self, scratch: &mut Scratch) {
        for layer in &self.layers {
            layer.forward_batch(scratch);
        }
    }

    /// Training-mode batched forward: [`Sequential::forward_batch`], with
    /// each layer's input kept in `tape` for [`Sequential::backward_batch`].
    pub fn forward_batch_keep(&self, scratch: &mut Scratch, tape: &mut Tape) {
        for (l, layer) in self.layers.iter().enumerate() {
            tape.keep(l, scratch.view());
            layer.forward_batch(scratch);
        }
    }

    /// Batched backward through every layer (reverse order): `grad`'s
    /// current activation is ∂L/∂output of the pass `tape` kept. With
    /// `input_grad` it leaves as ∂L/∂(network input); without it the first
    /// layer skips that gradient and `grad` is left unspecified.
    /// Parameter gradients accumulate bit-identically to per-sample
    /// [`Sequential::backward`] calls in row order (see
    /// [`Layer::backward_batch`]).
    pub fn backward_batch(&mut self, tape: &Tape, grad: &mut Scratch, input_grad: bool) {
        for (l, layer) in self.layers.iter_mut().enumerate().rev() {
            layer.backward_batch(tape.input(l), grad, input_grad || l > 0);
        }
    }

    /// Backward through every layer (reverse order); returns ∂L/∂input.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// All trainable parameter sets.
    pub fn params_mut(&mut self) -> Vec<&mut ParamSet> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Read-only parameter sets.
    pub fn params(&self) -> Vec<&ParamSet> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Total trainable scalar count.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Visit every parameter set without collecting them (allocation-free).
    fn for_each_param(&mut self, mut f: impl FnMut(&mut ParamSet)) {
        for layer in &mut self.layers {
            layer.for_each_param(&mut f);
        }
    }

    /// Zero all accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.for_each_param(|p| p.zero_grad());
    }

    /// Scale all accumulated gradients (1/batch normalisation).
    pub fn scale_grad(&mut self, s: f32) {
        self.for_each_param(|p| p.scale_grad(s));
    }

    /// Apply an optimizer step to every parameter set.
    pub fn step(&mut self, opt: &dyn Optimizer) {
        self.for_each_param(|p| opt.step(p));
    }

    /// FLOPs of the last forward pass, summed over layers.
    pub fn last_flops(&self) -> u64 {
        self.layers.iter().map(|l| l.last_flops()).sum()
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv1d, Dense, GlobalMaxPool1d, ReLU};
    use crate::loss::bce_with_logits;
    use crate::optim::RmsProp;

    fn tiny_net(seed: u64) -> Sequential {
        Sequential::new(vec![
            Box::new(Conv1d::new(1, 8, 3, seed)),
            Box::new(ReLU::new()),
            Box::new(Conv1d::new(8, 8, 3, seed + 1)),
            Box::new(ReLU::new()),
            Box::new(GlobalMaxPool1d::new()),
            Box::new(Dense::new(8, 1, seed + 2)),
        ])
    }

    #[test]
    fn forward_shapes() {
        let mut net = tiny_net(1);
        let out = net.forward(&Tensor::from_vec(1, 5, vec![0.1, 0.2, 0.3, 0.4, 0.5]));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn learns_a_simple_rule() {
        // Label = 1 iff the max of the window exceeds 0.5: learnable by
        // conv + max-pool. Train and verify accuracy on held-out samples.
        let mut net = tiny_net(2);
        let opt = RmsProp::with_lr(0.01);
        let mut rng = crate::init::init_rng(3);
        let sample = |rng: &mut rand::rngs::StdRng| {
            use rand::Rng;
            let x: Vec<f32> = (0..5).map(|_| rng.gen_range(0.0..1.0)).collect();
            let label = if x.iter().cloned().fold(f32::MIN, f32::max) > 0.5 {
                1.0
            } else {
                0.0
            };
            (Tensor::from_vec(1, 5, x), label)
        };
        for _ in 0..400 {
            net.zero_grad();
            for _ in 0..16 {
                let (x, r) = sample(&mut rng);
                let z = net.forward(&x);
                let (_, dz) = bce_with_logits(r, z.data()[0]);
                net.backward(&Tensor::vector(vec![dz]));
            }
            net.scale_grad(1.0 / 16.0);
            net.step(&opt);
        }
        let mut correct = 0;
        let n = 300;
        for _ in 0..n {
            let (x, r) = sample(&mut rng);
            let z = net.forward(&x).data()[0];
            let pred = if z > 0.0 { 1.0 } else { 0.0 };
            if (pred - r).abs() < 0.5 {
                correct += 1;
            }
        }
        let acc = f64::from(correct) / f64::from(n);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn param_count_sums_layers() {
        let net = tiny_net(4);
        // conv1: 8*1*3+8, conv2: 8*8*3+8, dense: 8+1
        assert_eq!(net.param_count(), (24 + 8) + (192 + 8) + (8 + 1));
    }

    #[test]
    fn zero_grad_clears_everything() {
        let mut net = tiny_net(5);
        let x = Tensor::from_vec(1, 5, vec![0.5; 5]);
        let out = net.forward(&x);
        net.backward(&out);
        assert!(net.params().iter().any(|p| p.g.iter().any(|&g| g != 0.0)));
        net.zero_grad();
        assert!(net.params().iter().all(|p| p.g.iter().all(|&g| g == 0.0)));
    }

    #[test]
    fn flops_accumulate() {
        let mut net = tiny_net(6);
        net.forward(&Tensor::from_vec(1, 5, vec![0.1; 5]));
        assert!(net.last_flops() > 0);
    }
}
