//! Elementwise activation layer.

use crate::activations::{Activation, LutActivation};
use crate::{Layer, LayerClass, LayerSpec};
use reram_tensor::{Shape4, Tensor};

/// Applies an [`Activation`] elementwise; the "element-wise non-linearity
/// activation function" that "always follows" a convolutional layer
/// (§II-A.1). Architecturally this is peripheral circuitry fused into the
/// preceding crossbar stage.
///
/// With [`ActivationLayer::with_lut`] the *forward* pass evaluates the
/// function through a finite look-up table, modelling ReGAN's configurable
/// LUT peripheral (Fig. 10 Ⓑ); the backward pass keeps the analytic
/// derivative — training happens off-LUT while the deployed hardware
/// evaluates through the table, so LUT resolution studies measure exactly
/// the hardware-visible error.
#[derive(Debug, Clone)]
pub struct ActivationLayer {
    activation: Activation,
    lut: Option<LutActivation>,
    cached_input: Option<Tensor>,
}

impl ActivationLayer {
    /// Creates an activation layer.
    pub fn new(activation: Activation) -> Self {
        Self {
            activation,
            lut: None,
            cached_input: None,
        }
    }

    /// Convenience constructor for ReLU.
    pub fn relu() -> Self {
        Self::new(Activation::Relu)
    }

    /// Evaluates forward passes through a LUT of `entries` samples over
    /// `[lo, hi]` (ReGAN's hardware activation path).
    ///
    /// # Panics
    ///
    /// Panics if `entries < 2` or `lo >= hi`.
    pub fn with_lut(mut self, lo: f32, hi: f32, entries: usize) -> Self {
        self.lut = Some(LutActivation::of(self.activation, lo, hi, entries));
        self
    }

    /// The wrapped activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Whether forward evaluation goes through a LUT.
    pub fn uses_lut(&self) -> bool {
        self.lut.is_some()
    }
}

impl Layer for ActivationLayer {
    fn name(&self) -> &'static str {
        self.activation.name()
    }

    fn class(&self) -> LayerClass {
        LayerClass::Auxiliary
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.cached_input = Some(input.clone());
        }
        match &self.lut {
            Some(lut) => input.map(|x| lut.apply(x)),
            None => input.map(|x| self.activation.apply(x)),
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
            .expect("activation backward before forward(train=true)");
        input.zip_map(grad_out, |x, g| self.activation.derivative(x) * g)
    }

    fn output_shape(&self, input: Shape4) -> Shape4 {
        input
    }

    fn spec(&self, input: Shape4) -> Option<LayerSpec> {
        Some(LayerSpec::Activation {
            elems: input.batch_stride(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_clamps_negatives() {
        let mut l = ActivationLayer::relu();
        let x = Tensor::from_vec(Shape4::new(1, 1, 1, 4), vec![-2.0, -0.5, 0.5, 2.0]);
        let y = l.forward(&x, false);
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut l = ActivationLayer::relu();
        let x = Tensor::from_vec(Shape4::new(1, 1, 1, 4), vec![-2.0, -0.5, 0.5, 2.0]);
        let _ = l.forward(&x, true);
        let g = Tensor::filled(x.shape(), 3.0);
        let gin = l.backward(&g);
        assert_eq!(gin.data(), &[0.0, 0.0, 3.0, 3.0]);
    }

    #[test]
    fn tanh_round_trip_gradient() {
        let mut l = ActivationLayer::new(Activation::Tanh);
        let x = Tensor::from_vec(Shape4::new(1, 1, 1, 2), vec![0.3, -0.7]);
        let _ = l.forward(&x, true);
        let gin = l.backward(&Tensor::ones(x.shape()));
        let eps = 1e-3;
        for i in 0..2 {
            let num = ((x.data()[i] + eps).tanh() - (x.data()[i] - eps).tanh()) / (2.0 * eps);
            assert!((num - gin.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn lut_forward_approximates_analytic() {
        let mut exact = ActivationLayer::new(Activation::Sigmoid);
        let mut lut = ActivationLayer::new(Activation::Sigmoid).with_lut(-8.0, 8.0, 512);
        assert!(lut.uses_lut());
        let x = Tensor::from_fn(Shape4::new(1, 1, 8, 8), |_, _, h, w| {
            (h as f32 - 4.0) + (w as f32) * 0.1
        });
        let ye = exact.forward(&x, false);
        let yl = lut.forward(&x, false);
        let rms = (ye.squared_distance(&yl) / ye.len() as f32).sqrt();
        assert!(rms < 0.01, "LUT rms {rms}");
    }

    #[test]
    fn coarse_lut_is_visibly_worse() {
        let x = Tensor::from_fn(Shape4::new(1, 1, 4, 8), |_, _, h, w| {
            (h as f32 - 2.0) * 0.9 + (w as f32) * 0.13
        });
        let mut exact = ActivationLayer::new(Activation::Tanh);
        let mut coarse = ActivationLayer::new(Activation::Tanh).with_lut(-4.0, 4.0, 8);
        let mut fine = ActivationLayer::new(Activation::Tanh).with_lut(-4.0, 4.0, 1024);
        let ye = exact.forward(&x, false);
        let ec = ye.squared_distance(&coarse.forward(&x, false));
        let ef = ye.squared_distance(&fine.forward(&x, false));
        assert!(ec > 10.0 * ef, "coarse {ec} vs fine {ef}");
    }

    #[test]
    fn lut_backward_uses_analytic_derivative() {
        let mut l = ActivationLayer::relu().with_lut(-4.0, 4.0, 64);
        let x = Tensor::from_vec(Shape4::new(1, 1, 1, 2), vec![-1.0, 1.0]);
        let _ = l.forward(&x, true);
        let gin = l.backward(&Tensor::ones(x.shape()));
        assert_eq!(gin.data(), &[0.0, 1.0]);
    }

    #[test]
    fn shape_preserved_and_auxiliary() {
        let l = ActivationLayer::relu();
        let s = Shape4::new(2, 3, 4, 5);
        assert_eq!(l.output_shape(s), s);
        assert_eq!(l.class(), LayerClass::Auxiliary);
        assert_eq!(l.spec(s), Some(LayerSpec::Activation { elems: 60 }));
        assert_eq!(l.param_count(), 0);
    }
}
