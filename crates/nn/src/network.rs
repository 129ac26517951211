//! Sequential network container with batched training semantics.

use crate::losses::{accuracy, softmax_cross_entropy};
use crate::{Layer, LayerClass, NetworkSpec};
use reram_tensor::{Shape4, Tensor};

/// A sequential stack of layers with the paper's batched-update training
/// semantics: gradients accumulate across the examples of a batch and are
/// applied once per batch ("the weight updates due to each input are stored
/// and only applied at the end of a batch", §III-A.2).
#[derive(Debug)]
pub struct Network {
    name: String,
    /// Per-entry input shape (batch extent is taken from the data).
    input_shape: Shape4,
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Creates an empty network expecting inputs shaped like `input_shape`
    /// per batch entry (its `n` extent is ignored).
    pub fn new(name: impl Into<String>, input_shape: Shape4) -> Self {
        Self {
            name: name.into(),
            input_shape: input_shape.with_batch(1),
            layers: Vec::new(),
        }
    }

    /// Appends a layer; builder-style.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Network display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers (all kinds).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Number of weighted layers — the paper's `L`.
    pub fn weighted_layer_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| l.class() == LayerClass::Weighted)
            .count()
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Immutable access to the layer stack.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Per-entry input shape.
    pub fn input_shape(&self) -> Shape4 {
        self.input_shape
    }

    /// Output shape for a batch of `n` entries.
    pub fn output_shape(&self, n: usize) -> Shape4 {
        let mut s = self.input_shape.with_batch(n);
        for l in &self.layers {
            s = l.output_shape(s);
        }
        s
    }

    /// Runs the network forward.
    ///
    /// # Panics
    ///
    /// Panics if the input's per-entry shape disagrees with the network's.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(
            input.shape().with_batch(1),
            self.input_shape,
            "input shape {} does not match network input {}",
            input.shape(),
            self.input_shape
        );
        let mut x = input.clone();
        for l in &mut self.layers {
            x = l.forward(&x, train);
        }
        x
    }

    /// Back-propagates a loss gradient through every layer, accumulating
    /// parameter gradients. Returns the gradient w.r.t. the network input.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for l in self.layers.iter_mut().rev() {
            g = l.backward(&g);
        }
        g
    }

    /// Applies all accumulated gradients (one "weight update cycle").
    pub fn apply_update(&mut self, lr: f32) {
        for l in &mut self.layers {
            l.apply_update(lr);
        }
    }

    /// Discards accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Clamps every trainable parameter to `[-limit, limit]` (WGAN critic
    /// weight clipping).
    pub fn clip_weights(&mut self, limit: f32) {
        for l in &mut self.layers {
            l.clip_weights(limit);
        }
    }

    /// Sets the SGD momentum coefficient on every layer (`0.0` = plain SGD).
    ///
    /// # Panics
    ///
    /// Panics if `mu` is outside `[0, 1)`.
    pub fn set_momentum(&mut self, mu: f32) {
        assert!((0.0..1.0).contains(&mu), "momentum {mu} outside [0, 1)");
        for l in &mut self.layers {
            l.set_momentum(mu);
        }
    }

    /// One supervised training step on a classification batch: forward,
    /// softmax cross-entropy, backward, update. Returns `(loss, accuracy)`.
    pub fn train_batch(&mut self, input: &Tensor, labels: &[usize], lr: f32) -> (f32, f32) {
        let logits = self.forward(input, true);
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        let acc = accuracy(&logits, labels);
        self.backward(&grad);
        self.apply_update(lr);
        (loss, acc)
    }

    /// Classifies a batch, returning the argmax class per entry.
    #[expect(
        clippy::expect_used,
        reason = "logits are NaN-free by construction and networks always have a positive class count"
    )]
    pub fn predict(&mut self, input: &Tensor) -> Vec<usize> {
        let logits = self.forward(input, false);
        let s = logits.shape();
        (0..s.n)
            .map(|n| {
                (0..s.c)
                    .max_by(|&a, &b| {
                        logits
                            .at(n, a, 0, 0)
                            .partial_cmp(&logits.at(n, b, 0, 0))
                            .expect("finite logits")
                    })
                    .expect("non-empty logits")
            })
            .collect()
    }

    /// Extracts the geometry description for the cost models.
    pub fn spec(&self) -> NetworkSpec {
        let mut shape = self.input_shape;
        let mut specs = Vec::new();
        for l in &self.layers {
            if let Some(s) = l.spec(shape) {
                specs.push(s);
            }
            shape = l.output_shape(shape);
        }
        NetworkSpec::new(self.name.clone(), self.input_shape, specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{ActivationLayer, Conv2d, Flatten, Linear, Pool2d};
    use reram_tensor::init::seeded_rng;

    fn tiny_cnn() -> Network {
        let mut rng = seeded_rng(1);
        Network::new("tiny", Shape4::new(1, 1, 8, 8))
            .push(Conv2d::new(1, 4, 3, 1, 1, &mut rng))
            .push(ActivationLayer::relu())
            .push(Pool2d::max(2))
            .push(Flatten::new())
            .push(Linear::new(4 * 4 * 4, 3, &mut rng))
    }

    #[test]
    fn forward_shape() {
        let mut net = tiny_cnn();
        let x = Tensor::ones(Shape4::new(5, 1, 8, 8));
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), Shape4::new(5, 3, 1, 1));
        assert_eq!(net.output_shape(5), y.shape());
    }

    #[test]
    fn counts() {
        let net = tiny_cnn();
        assert_eq!(net.len(), 5);
        assert_eq!(net.weighted_layer_count(), 2);
        assert_eq!(net.param_count(), (4 * 9 + 4) + (64 * 3 + 3));
        assert!(!net.is_empty());
    }

    #[test]
    fn spec_tracks_shapes() {
        let net = tiny_cnn();
        let spec = net.spec();
        assert_eq!(spec.weighted_layer_count(), 2);
        // Flatten contributes no spec; conv, relu, pool, fc do.
        assert_eq!(spec.layers.len(), 4);
    }

    #[test]
    fn training_reduces_loss_on_fixed_batch() {
        let mut net = tiny_cnn();
        let mut rng = seeded_rng(2);
        let x = reram_tensor::init::uniform(Shape4::new(6, 1, 8, 8), -1.0, 1.0, &mut rng);
        let labels = [0usize, 1, 2, 0, 1, 2];
        let (first_loss, _) = net.train_batch(&x, &labels, 0.05);
        let mut last = first_loss;
        for _ in 0..30 {
            let (loss, _) = net.train_batch(&x, &labels, 0.05);
            last = loss;
        }
        assert!(
            last < first_loss * 0.5,
            "loss did not halve: {first_loss} -> {last}"
        );
    }

    #[test]
    fn predict_matches_argmax() {
        let mut net = tiny_cnn();
        let x = Tensor::ones(Shape4::new(2, 1, 8, 8));
        let preds = net.predict(&x);
        let logits = net.forward(&x, false);
        for (n, &p) in preds.iter().enumerate() {
            for c in 0..3 {
                assert!(logits.at(n, p, 0, 0) >= logits.at(n, c, 0, 0));
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match network input")]
    fn forward_rejects_wrong_shape() {
        let mut net = tiny_cnn();
        let _ = net.forward(&Tensor::ones(Shape4::new(1, 1, 9, 9)), false);
    }

    #[test]
    fn network_is_send() {
        // Networks are dispatched to worker threads in sweep harnesses
        // (C-SEND-SYNC); Layer being a plain data trait keeps this true.
        fn assert_send<T: Send>() {}
        // Compile-time check only: a Box<dyn Layer> must be Send for the
        // container to be.
        assert_send::<crate::layers::Linear>();
        assert_send::<crate::layers::Conv2d>();
    }

    #[test]
    fn momentum_accelerates_descent_on_quadratic() {
        // Same network, same fixed batch: momentum SGD reaches a lower loss
        // than plain SGD in the same number of steps on this convex-ish
        // problem.
        let run = |mu: f32| {
            let mut net = tiny_cnn();
            if mu > 0.0 {
                net.set_momentum(mu);
            }
            let mut rng = seeded_rng(7);
            let x = reram_tensor::init::uniform(Shape4::new(6, 1, 8, 8), -1.0, 1.0, &mut rng);
            let labels = [0usize, 1, 2, 0, 1, 2];
            let mut last = f32::INFINITY;
            for _ in 0..15 {
                let (loss, _) = net.train_batch(&x, &labels, 0.01);
                last = loss;
            }
            last
        };
        let plain = run(0.0);
        let momentum = run(0.9);
        assert!(
            momentum < plain,
            "momentum {momentum} should beat plain {plain}"
        );
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn rejects_bad_momentum() {
        tiny_cnn().set_momentum(1.5);
    }

    #[test]
    fn zero_grad_discards_pending_updates() {
        let mut net = tiny_cnn();
        let x = Tensor::ones(Shape4::new(2, 1, 8, 8));
        let y0 = net.forward(&x, true);
        let (_, grad) = softmax_cross_entropy(&y0, &[0, 1]);
        net.backward(&grad);
        net.zero_grad();
        net.apply_update(1.0);
        let y1 = net.forward(&x, false);
        assert_eq!(y0, y1, "update after zero_grad must be a no-op");
    }
}
