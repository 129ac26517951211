//! Fractional-strided convolution layer — the FCNN of §II-A.3 and Fig. 7.

use crate::{Layer, LayerClass, LayerSpec};
use rand::Rng;
use reram_tensor::{init, ops, Shape4, Tensor};

/// Up-sampling (transposed) convolution used by GAN generators.
///
/// Weight layout is `(in_c, out_c, k, k)`. The forward pass runs the
/// zero-insertion construction of Fig. 7(a); the backward input pass is the
/// strided convolution of Fig. 7(b).
#[derive(Debug, Clone)]
pub struct FracConv2d {
    weight: Tensor,
    bias: Vec<f32>,
    grad_w: Tensor,
    grad_b: Vec<f32>,
    momentum: f32,
    vel_w: Tensor,
    vel_b: Vec<f32>,
    stride: usize,
    pad: usize,
    cached_input: Option<Tensor>,
}

impl FracConv2d {
    /// Creates a fractional-strided convolution of `in_c → out_c` channels
    /// with `k × k` kernels, DCGAN-style N(0, 0.02) initialization.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero or `pad >= k`.
    pub fn new(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(in_c > 0 && out_c > 0 && k > 0 && stride > 0, "zero extent");
        assert!(pad < k, "pad {pad} must be < kernel {k}");
        let shape = Shape4::new(in_c, out_c, k, k);
        Self {
            weight: init::normal(shape, 0.02, rng),
            bias: vec![0.0; out_c],
            grad_w: Tensor::zeros(shape),
            grad_b: vec![0.0; out_c],
            momentum: 0.0,
            vel_w: Tensor::zeros(shape),
            vel_b: vec![0.0; out_c],
            stride,
            pad,
            cached_input: None,
        }
    }

    /// Kernel tensor `(in_c, out_c, k, k)`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }
}

impl Layer for FracConv2d {
    fn name(&self) -> &'static str {
        "frac_conv"
    }

    fn class(&self) -> LayerClass {
        LayerClass::Weighted
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.cached_input = Some(input.clone());
        }
        ops::conv_transpose2d(input, &self.weight, Some(&self.bias), self.stride, self.pad)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "Layer trait contract — backward follows a training forward"
        )]
        let input = self
            .cached_input
            .as_ref()
            .expect("frac_conv backward before forward(train=true)");
        let gw = ops::conv_transpose2d_backward_weight(
            grad_out,
            input,
            self.weight.shape(),
            self.stride,
            self.pad,
        );
        self.grad_w.axpy(1.0, &gw);
        // Bias gradient: per-output-channel sum of the upstream gradient.
        let gs = grad_out.shape();
        for n in 0..gs.n {
            for c in 0..gs.c {
                for h in 0..gs.h {
                    for w in 0..gs.w {
                        self.grad_b[c] += grad_out.at(n, c, h, w);
                    }
                }
            }
        }
        ops::conv_transpose2d_backward_input(grad_out, &self.weight, self.stride, self.pad)
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
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn output_shape(&self, input: Shape4) -> Shape4 {
        let ws = self.weight.shape();
        let (oh, ow) =
            ops::conv_transpose_output_hw(input.h, input.w, ws.h, ws.w, self.stride, self.pad);
        Shape4::new(input.n, ws.c, oh, ow)
    }

    fn spec(&self, input: Shape4) -> Option<LayerSpec> {
        let ws = self.weight.shape();
        Some(LayerSpec::FracConv {
            in_c: ws.n,
            out_c: ws.c,
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
    use reram_tensor::init::seeded_rng;

    fn input() -> Tensor {
        Tensor::from_fn(Shape4::new(2, 4, 4, 4), |n, c, h, w| {
            ((n + c + h * 2 + w) % 5) as f32 / 5.0 - 0.3
        })
    }

    #[test]
    fn doubles_spatial_extent() {
        let mut rng = seeded_rng(1);
        let mut l = FracConv2d::new(4, 2, 4, 2, 1, &mut rng);
        let x = input();
        let y = l.forward(&x, false);
        assert_eq!(y.shape(), Shape4::new(2, 2, 8, 8));
        assert_eq!(l.output_shape(x.shape()), y.shape());
    }

    #[test]
    fn gradient_check_input() {
        let mut rng = seeded_rng(2);
        let mut l = FracConv2d::new(2, 2, 4, 2, 1, &mut rng);
        let x = Tensor::from_fn(Shape4::new(1, 2, 3, 3), |_, c, h, w| {
            (c as f32 - h as f32 + w as f32) * 0.2
        });
        let y = l.forward(&x, true);
        let gin = l.backward(&Tensor::ones(y.shape()));
        let eps = 1e-2;
        for &(c, h, w) in &[(0usize, 0usize, 0usize), (1, 2, 1)] {
            let mut xp = x.clone();
            xp.add_at(0, c, h, w, eps);
            let mut xm = x.clone();
            xm.add_at(0, c, h, w, -eps);
            let num = (l.forward(&xp, false).sum() - l.forward(&xm, false).sum()) / (2.0 * eps);
            assert!(
                (num - gin.at(0, c, h, w)).abs() < 1e-2,
                "numeric {num} vs {}",
                gin.at(0, c, h, w)
            );
        }
    }

    #[test]
    fn update_descends_loss() {
        let mut rng = seeded_rng(3);
        let mut l = FracConv2d::new(4, 2, 4, 2, 1, &mut rng);
        let x = input();
        let target = Tensor::zeros(l.output_shape(x.shape()));
        let y0 = l.forward(&x, true);
        let l0 = y0.squared_distance(&target);
        let g = (&y0 - &target).map(|v| 2.0 * v / y0.len() as f32);
        let _ = l.backward(&g);
        l.apply_update(1.0);
        let y1 = l.forward(&x, false);
        assert!(y1.squared_distance(&target) < l0);
    }

    #[test]
    fn spec_is_weighted_frac_conv() {
        let mut rng = seeded_rng(4);
        let l = FracConv2d::new(8, 4, 4, 2, 1, &mut rng);
        let spec = l.spec(Shape4::new(1, 8, 7, 7)).expect("weighted");
        assert!(matches!(spec, LayerSpec::FracConv { stride: 2, .. }));
        assert!(spec.is_weighted());
    }

    #[test]
    #[should_panic(expected = "must be < kernel")]
    fn rejects_oversized_pad() {
        let mut rng = seeded_rng(5);
        let _ = FracConv2d::new(1, 1, 3, 2, 3, &mut rng);
    }
}
