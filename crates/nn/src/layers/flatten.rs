//! Flatten adapter between spatial and vector layers.

use crate::{Layer, LayerClass, LayerSpec};
use reram_tensor::{Shape4, Tensor};

/// Reshapes `(n, c, h, w)` to `(n, c*h*w, 1, 1)`.
///
/// The paper notes the discriminator's last layer "is the flattened version
/// of previous CNN layer and does not require extra computation"
/// (§III-B.4) — accordingly this layer is free in the cost models.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_shape: Option<Shape4>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn class(&self) -> LayerClass {
        LayerClass::Auxiliary
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.cached_shape = Some(input.shape());
        }
        input.reshape(self.output_shape(input.shape()))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "Layer trait contract — backward follows a training forward"
        )]
        let shape = self
            .cached_shape
            .expect("flatten backward before forward(train=true)");
        grad_out.reshape(shape)
    }

    fn output_shape(&self, input: Shape4) -> Shape4 {
        Shape4::new(input.n, input.batch_stride(), 1, 1)
    }

    fn spec(&self, _input: Shape4) -> Option<LayerSpec> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut l = Flatten::new();
        let x = Tensor::from_fn(Shape4::new(2, 3, 4, 5), |n, c, h, w| (n + c + h + w) as f32);
        let y = l.forward(&x, true);
        assert_eq!(y.shape(), Shape4::new(2, 60, 1, 1));
        let back = l.backward(&y);
        assert_eq!(back, x);
    }

    #[test]
    fn is_cost_free() {
        let l = Flatten::new();
        assert_eq!(l.spec(Shape4::new(1, 2, 3, 4)), None);
        assert_eq!(l.param_count(), 0);
    }
}
