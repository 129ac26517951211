//! Fully connected (inner product) layer — paper Eq. 2.

use crate::backend::LinearEngine;
use crate::{Layer, LayerClass, LayerSpec};
use rand::Rng;
use reram_tensor::{init, ops, Matrix, Shape2, Shape4, Tensor};

/// Inner product layer `y = W x + b` with optional crossbar-backed forward.
///
/// Activations flow as tensors shaped `(n, features, 1, 1)`; the layer
/// flattens whatever spatial extent its input carries, matching the paper's
/// "the values in data tube of `l` are considered as a vector".
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Matrix, // (out, in)
    bias: Vec<f32>,
    grad_w: Matrix,
    grad_b: Vec<f32>,
    momentum: f32,
    vel_w: Matrix,
    vel_b: Vec<f32>,
    engine: LinearEngine,
    cached_input: Option<Matrix>,
}

impl Linear {
    /// Creates an `in_features → out_features` layer, Xavier-initialized.
    ///
    /// # Panics
    ///
    /// Panics if either feature count is zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        assert!(in_features > 0 && out_features > 0, "zero feature count");
        let shape = Shape2::new(out_features, in_features);
        Self {
            weight: init::xavier_uniform_matrix(shape, rng),
            bias: vec![0.0; out_features],
            grad_w: Matrix::zeros(shape),
            grad_b: vec![0.0; out_features],
            momentum: 0.0,
            vel_w: Matrix::zeros(shape),
            vel_b: vec![0.0; out_features],
            engine: LinearEngine::float(),
            cached_input: None,
        }
    }

    /// Routes forward products through the given engine (crossbar mode).
    pub fn with_engine(mut self, engine: LinearEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The weight matrix `(out × in)`.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Replaces the weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if the shape differs.
    pub fn set_weight(&mut self, w: Matrix) {
        assert_eq!(w.shape(), self.weight.shape(), "weight shape mismatch");
        self.weight = w;
        self.engine.invalidate();
    }

    /// The execution engine (to inspect crossbar statistics).
    pub fn engine(&self) -> &LinearEngine {
        &self.engine
    }

    fn in_features(&self) -> usize {
        self.weight.cols()
    }

    fn out_features(&self) -> usize {
        self.weight.rows()
    }
}

impl Layer for Linear {
    fn name(&self) -> &'static str {
        "fc"
    }

    fn class(&self) -> LayerClass {
        LayerClass::Weighted
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let x = input.to_matrix();
        assert_eq!(
            x.cols(),
            self.in_features(),
            "fc: input features {} vs expected {}",
            x.cols(),
            self.in_features()
        );
        if train {
            self.cached_input = Some(x.clone());
        }
        let y = self.engine.matmul(&x, &self.weight, Some(&self.bias));
        Tensor::from_vec(
            Shape4::new(input.shape().n, self.out_features(), 1, 1),
            y.data().to_vec(),
        )
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "Layer trait contract — backward follows a training forward"
        )]
        let x = self
            .cached_input
            .as_ref()
            .expect("fc backward before forward(train=true)");
        let g = grad_out.to_matrix();
        assert_eq!(g.cols(), self.out_features(), "fc backward: gradient width");
        let gw = ops::linear_backward_weight(&g, x);
        for (a, b) in self.grad_w.data_mut().iter_mut().zip(gw.data()) {
            *a += b;
        }
        for (gb, gv) in self.grad_b.iter_mut().zip(ops::linear_backward_bias(&g)) {
            *gb += gv;
        }
        let gin = self.engine.matmul_backward(&g, &self.weight);
        Tensor::from_vec(
            Shape4::new(grad_out.shape().n, self.in_features(), 1, 1),
            gin.data().to_vec(),
        )
    }

    fn apply_update(&mut self, lr: f32) {
        let mu = self.momentum;
        for ((w, v), g) in self
            .weight
            .data_mut()
            .iter_mut()
            .zip(self.vel_w.data_mut())
            .zip(self.grad_w.data())
        {
            *v = mu * *v - lr * g;
            *w += *v;
        }
        for ((b, v), g) in self.bias.iter_mut().zip(&mut self.vel_b).zip(&self.grad_b) {
            *v = mu * *v - lr * g;
            *b += *v;
        }
        self.zero_grad();
        self.engine.invalidate();
    }

    fn set_momentum(&mut self, mu: f32) {
        self.momentum = mu;
    }

    fn zero_grad(&mut self) {
        self.grad_w = Matrix::zeros(self.weight.shape());
        self.grad_b = vec![0.0; self.bias.len()];
    }

    fn clip_weights(&mut self, limit: f32) {
        for w in self.weight.data_mut() {
            *w = w.clamp(-limit, limit);
        }
        for b in &mut self.bias {
            *b = b.clamp(-limit, limit);
        }
        self.engine.invalidate();
    }

    fn param_count(&self) -> usize {
        self.weight.shape().len() + self.bias.len()
    }

    fn output_shape(&self, input: Shape4) -> Shape4 {
        Shape4::new(input.n, self.out_features(), 1, 1)
    }

    fn spec(&self, _input: Shape4) -> Option<LayerSpec> {
        Some(LayerSpec::Fc {
            in_features: self.in_features(),
            out_features: self.out_features(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_crossbar::CrossbarConfig;
    use reram_tensor::init::seeded_rng;

    fn input() -> Tensor {
        Tensor::from_fn(Shape4::new(3, 5, 1, 1), |n, c, _, _| {
            ((n * 5 + c) % 7) as f32 / 7.0 - 0.3
        })
    }

    #[test]
    fn forward_shape_and_values() {
        let mut rng = seeded_rng(1);
        let mut fc = Linear::new(5, 4, &mut rng);
        let x = input();
        let y = fc.forward(&x, false);
        assert_eq!(y.shape(), Shape4::new(3, 4, 1, 1));
        let want = ops::linear(&x.to_matrix(), fc.weight(), Some(&[0.0; 4]));
        assert_eq!(y.data(), want.data());
    }

    #[test]
    fn flattens_spatial_input() {
        let mut rng = seeded_rng(2);
        let mut fc = Linear::new(2 * 3 * 3, 4, &mut rng);
        let x = Tensor::ones(Shape4::new(1, 2, 3, 3));
        let y = fc.forward(&x, false);
        assert_eq!(y.shape(), Shape4::new(1, 4, 1, 1));
    }

    #[test]
    fn gradient_check() {
        let mut rng = seeded_rng(3);
        let mut fc = Linear::new(4, 3, &mut rng);
        let x = Tensor::from_fn(Shape4::new(2, 4, 1, 1), |n, c, _, _| {
            (n as f32 - c as f32) * 0.3
        });
        let y = fc.forward(&x, true);
        let g = Tensor::ones(y.shape());
        let gin = fc.backward(&g);
        let eps = 1e-2;
        for &(n, c) in &[(0usize, 0usize), (1, 3)] {
            let mut xp = x.clone();
            xp.add_at(n, c, 0, 0, eps);
            let mut xm = x.clone();
            xm.add_at(n, c, 0, 0, -eps);
            let num = (fc.forward(&xp, false).sum() - fc.forward(&xm, false).sum()) / (2.0 * eps);
            assert!((num - gin.at(n, c, 0, 0)).abs() < 1e-2);
        }
    }

    #[test]
    fn crossbar_engine_close_to_float() {
        let mut rng = seeded_rng(4);
        let fc = Linear::new(20, 6, &mut rng);
        let mut cb = fc
            .clone()
            .with_engine(LinearEngine::crossbar(CrossbarConfig::default()));
        let mut fl = fc;
        let x = Tensor::from_fn(Shape4::new(2, 20, 1, 1), |n, c, _, _| {
            ((n + c) % 11) as f32 / 11.0 - 0.4
        });
        let yf = fl.forward(&x, false);
        let yc = cb.forward(&x, false);
        let rms = (yf.squared_distance(&yc) / yf.len() as f32).sqrt();
        assert!(rms < 0.01, "rms {rms}");
    }

    #[test]
    fn update_descends_loss() {
        let mut rng = seeded_rng(5);
        let mut fc = Linear::new(5, 2, &mut rng);
        let x = input();
        let target = Tensor::zeros(Shape4::new(3, 2, 1, 1));
        let y0 = fc.forward(&x, true);
        let l0 = y0.squared_distance(&target);
        let g = (&y0 - &target).map(|v| 2.0 * v);
        let _ = fc.backward(&g);
        fc.apply_update(0.05);
        let y1 = fc.forward(&x, false);
        assert!(y1.squared_distance(&target) < l0);
    }

    #[test]
    fn spec_reports_features() {
        let mut rng = seeded_rng(6);
        let fc = Linear::new(100, 10, &mut rng);
        assert_eq!(
            fc.spec(Shape4::new(1, 100, 1, 1)),
            Some(LayerSpec::Fc {
                in_features: 100,
                out_features: 10
            })
        );
        assert_eq!(fc.param_count(), 1010);
    }
}
