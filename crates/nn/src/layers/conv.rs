//! Convolution layer (paper Eq. 1).

use crate::backend::LinearEngine;
use crate::{Layer, LayerClass, LayerSpec};
use rand::Rng;
use reram_tensor::{init, ops, Matrix, Shape2, Shape4, Tensor};

/// 2-D convolution with bias, square kernels, and optional crossbar-backed
/// forward execution.
#[derive(Debug)]
pub struct Conv2d {
    weight: Tensor,
    bias: Vec<f32>,
    grad_w: Tensor,
    grad_b: Vec<f32>,
    momentum: f32,
    vel_w: Tensor,
    vel_b: Vec<f32>,
    stride: usize,
    pad: usize,
    engine: LinearEngine,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution of `in_c → out_c` channels with `k × k`
    /// kernels, Xavier-initialized.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero.
    pub fn new(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            in_c > 0 && out_c > 0 && k > 0 && stride > 0,
            "zero conv extent"
        );
        let shape = Shape4::new(out_c, in_c, k, k);
        Self {
            weight: init::xavier_uniform(shape, rng),
            bias: vec![0.0; out_c],
            grad_w: Tensor::zeros(shape),
            grad_b: vec![0.0; out_c],
            momentum: 0.0,
            vel_w: Tensor::zeros(shape),
            vel_b: vec![0.0; out_c],
            stride,
            pad,
            engine: LinearEngine::float(),
            cached_input: None,
        }
    }

    /// Routes forward products through the given engine (crossbar mode).
    pub fn with_engine(mut self, engine: LinearEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Kernel tensor `(out_c, in_c, k, k)`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Replaces the kernel tensor (e.g. to load trained weights).
    ///
    /// # Panics
    ///
    /// Panics if the shape differs.
    pub fn set_weight(&mut self, w: Tensor) {
        assert_eq!(w.shape(), self.weight.shape(), "weight shape mismatch");
        self.weight = w;
        self.engine.invalidate();
    }

    /// The execution engine (to inspect crossbar statistics).
    pub fn engine(&self) -> &LinearEngine {
        &self.engine
    }

    /// Weight matrix as mapped to crossbars: `(out_c, in_c*k*k)`.
    fn weight_matrix(&self) -> Matrix {
        let s = self.weight.shape();
        Matrix::from_vec(
            Shape2::new(s.n, s.c * s.h * s.w),
            self.weight.data().to_vec(),
        )
    }

    fn forward_via_engine(&mut self, input: &Tensor) -> Tensor {
        let is = input.shape();
        let ws = self.weight.shape();
        let (oh, ow) = ops::conv_output_hw(is.h, is.w, ws.h, ws.w, self.stride, self.pad);
        let wmat = self.weight_matrix();
        let mut out = Tensor::zeros(Shape4::new(is.n, ws.n, oh, ow));
        for n in 0..is.n {
            let cols = ops::im2col(input, n, ws.h, ws.w, self.stride, self.pad);
            let y = self.engine.matmul(&cols, &wmat, Some(&self.bias));
            for co in 0..ws.n {
                for oy in 0..oh {
                    for ox in 0..ow {
                        out.set(n, co, oy, ox, y.at(oy * ow + ox, co));
                    }
                }
            }
        }
        out
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv"
    }

    fn class(&self) -> LayerClass {
        LayerClass::Weighted
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.cached_input = Some(input.clone());
        }
        if self.engine.is_crossbar() {
            self.forward_via_engine(input)
        } else {
            ops::conv2d(input, &self.weight, Some(&self.bias), self.stride, self.pad)
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "Layer trait contract — backward follows a training forward"
        )]
        let input = self
            .cached_input
            .as_ref()
            .expect("conv backward before forward(train=true)");
        let gw = ops::conv2d_backward_weight(
            grad_out,
            input,
            self.weight.shape(),
            self.stride,
            self.pad,
        );
        self.grad_w.axpy(1.0, &gw);
        for (gb, g) in self
            .grad_b
            .iter_mut()
            .zip(ops::conv2d_backward_bias(grad_out))
        {
            *gb += g;
        }
        ops::conv2d_backward_input(grad_out, &self.weight, self.stride, self.pad, input.shape())
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
        self.grad_w = Tensor::zeros(self.weight.shape());
        self.grad_b = vec![0.0; self.bias.len()];
    }

    fn clip_weights(&mut self, limit: f32) {
        self.weight.map_inplace(|w| w.clamp(-limit, limit));
        for b in &mut self.bias {
            *b = b.clamp(-limit, limit);
        }
        self.engine.invalidate();
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn output_shape(&self, input: Shape4) -> Shape4 {
        let ws = self.weight.shape();
        let (oh, ow) = ops::conv_output_hw(input.h, input.w, ws.h, ws.w, self.stride, self.pad);
        Shape4::new(input.n, ws.n, oh, ow)
    }

    fn spec(&self, input: Shape4) -> Option<LayerSpec> {
        let ws = self.weight.shape();
        Some(LayerSpec::Conv {
            in_c: ws.c,
            out_c: ws.n,
            k: ws.h,
            stride: self.stride,
            pad: self.pad,
            in_h: input.h,
            in_w: input.w,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_crossbar::CrossbarConfig;
    use reram_tensor::init::seeded_rng;

    fn input() -> Tensor {
        Tensor::from_fn(Shape4::new(2, 3, 6, 6), |n, c, h, w| {
            ((n + c * 2 + h * 3 + w) % 7) as f32 / 7.0 - 0.4
        })
    }

    #[test]
    fn forward_matches_raw_op() {
        let mut rng = seeded_rng(1);
        let mut layer = Conv2d::new(3, 4, 3, 1, 1, &mut rng);
        let x = input();
        let y = layer.forward(&x, false);
        let want = ops::conv2d(&x, layer.weight(), Some(&[0.0; 4]), 1, 1);
        assert_eq!(y, want);
        assert_eq!(y.shape(), layer.output_shape(x.shape()));
    }

    #[test]
    fn crossbar_forward_close_to_float() {
        // Same seed, same weights: one float copy, one crossbar copy.
        let mut fl = Conv2d::new(3, 4, 3, 1, 1, &mut seeded_rng(2));
        let mut cb = Conv2d::new(3, 4, 3, 1, 1, &mut seeded_rng(2))
            .with_engine(LinearEngine::crossbar(CrossbarConfig::default()));
        let x = input();
        let yf = fl.forward(&x, false);
        let yc = cb.forward(&x, false);
        let rms = (yf.squared_distance(&yc) / yf.len() as f32).sqrt();
        assert!(rms < 0.01, "rms {rms}");
    }

    #[test]
    fn backward_accumulates_until_update() {
        let mut rng = seeded_rng(3);
        let mut layer = Conv2d::new(3, 2, 3, 1, 0, &mut rng);
        let x = input();
        let y = layer.forward(&x, true);
        let g = Tensor::ones(y.shape());
        let _ = layer.backward(&g);
        let w_before = layer.weight().clone();
        let _ = layer.forward(&x, true);
        let _ = layer.backward(&g);
        layer.apply_update(0.1);
        // Two accumulated backward passes applied at once.
        let delta = (&w_before - layer.weight()).abs_max();
        assert!(delta > 0.0);
        // Gradients cleared after update.
        layer.apply_update(0.1);
        assert_eq!(layer.weight(), {
            // second update with zero grads is a no-op
            layer.weight()
        });
    }

    #[test]
    fn update_descends_loss() {
        let mut rng = seeded_rng(4);
        let mut layer = Conv2d::new(3, 2, 3, 1, 0, &mut rng);
        let x = input();
        let target = Tensor::zeros(layer.output_shape(x.shape()));
        let loss = |y: &Tensor, t: &Tensor| y.squared_distance(t) / y.len() as f32;
        let y0 = layer.forward(&x, true);
        let l0 = loss(&y0, &target);
        // d(mse)/dy = 2 (y - t) / len
        let g = (&y0 - &target).map(|v| 2.0 * v / y0.len() as f32);
        let _ = layer.backward(&g);
        layer.apply_update(0.5);
        let y1 = layer.forward(&x, false);
        assert!(loss(&y1, &target) < l0);
    }

    #[test]
    fn param_count_and_spec() {
        let mut rng = seeded_rng(5);
        let layer = Conv2d::new(3, 8, 5, 1, 2, &mut rng);
        assert_eq!(layer.param_count(), 3 * 8 * 25 + 8);
        let spec = layer.spec(Shape4::new(1, 3, 28, 28)).expect("weighted");
        assert!(spec.is_weighted());
        assert_eq!(spec.crossbar_matrix(), Some((75, 8)));
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut rng = seeded_rng(6);
        let mut layer = Conv2d::new(1, 1, 3, 1, 0, &mut rng);
        let _ = layer.backward(&Tensor::zeros(Shape4::new(1, 1, 1, 1)));
    }
}
