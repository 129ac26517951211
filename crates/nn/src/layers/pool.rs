//! Pooling layer (max and average) — paper §II-A.1.

use crate::{Layer, LayerClass, LayerSpec};
use reram_tensor::{ops, Shape4, Tensor};

/// Down-sampling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Pass the maximum element of each window (PipeLayer realizes this
    /// with a running-maximum register, §III-A.3 (c)).
    Max,
    /// Take the mean of each window.
    Avg,
}

/// Pooling over `k × k` windows with a fixed stride.
#[derive(Debug, Clone)]
pub struct Pool2d {
    kind: PoolKind,
    k: usize,
    stride: usize,
    cached: Option<PoolCache>,
}

#[derive(Debug, Clone)]
enum PoolCache {
    Max(ops::MaxPoolIndices),
    Avg(Shape4),
}

impl Pool2d {
    /// Creates a pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `stride` is zero.
    pub fn new(kind: PoolKind, k: usize, stride: usize) -> Self {
        assert!(k > 0 && stride > 0, "zero pooling extent");
        Self {
            kind,
            k,
            stride,
            cached: None,
        }
    }

    /// Standard non-overlapping max pool of window `k`.
    pub fn max(k: usize) -> Self {
        Self::new(PoolKind::Max, k, k)
    }

    /// Standard non-overlapping average pool of window `k`.
    pub fn avg(k: usize) -> Self {
        Self::new(PoolKind::Avg, k, k)
    }
}

impl Layer for Pool2d {
    fn name(&self) -> &'static str {
        match self.kind {
            PoolKind::Max => "max_pool",
            PoolKind::Avg => "avg_pool",
        }
    }

    fn class(&self) -> LayerClass {
        LayerClass::Auxiliary
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        match self.kind {
            PoolKind::Max => {
                let (y, idx) = ops::max_pool2d(input, self.k, self.stride);
                if train {
                    self.cached = Some(PoolCache::Max(idx));
                }
                y
            }
            PoolKind::Avg => {
                if train {
                    self.cached = Some(PoolCache::Avg(input.shape()));
                }
                ops::avg_pool2d(input, self.k, self.stride)
            }
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "Layer trait contract — backward follows a training forward"
    )]
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self
            .cached
            .as_ref()
            .expect("pool backward before forward(train=true)")
        {
            PoolCache::Max(idx) => ops::max_pool2d_backward(grad_out, idx),
            PoolCache::Avg(shape) => {
                ops::avg_pool2d_backward(grad_out, *shape, self.k, self.stride)
            }
        }
    }

    fn output_shape(&self, input: Shape4) -> Shape4 {
        let (oh, ow) = ops::pool_output_hw(input.h, input.w, self.k, self.stride);
        Shape4::new(input.n, input.c, oh, ow)
    }

    fn spec(&self, input: Shape4) -> Option<LayerSpec> {
        Some(LayerSpec::Pool {
            c: input.c,
            k: self.k,
            stride: self.stride,
            in_h: input.h,
            in_w: input.w,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input() -> Tensor {
        Tensor::from_fn(Shape4::new(1, 2, 4, 4), |_, c, h, w| {
            (c * 16 + h * 4 + w) as f32
        })
    }

    #[test]
    fn max_pool_layer_forward() {
        let mut l = Pool2d::max(2);
        let y = l.forward(&input(), false);
        assert_eq!(y.shape(), Shape4::new(1, 2, 2, 2));
        assert_eq!(y.at(0, 0, 0, 0), 5.0);
        assert_eq!(y.at(0, 1, 1, 1), 31.0);
    }

    #[test]
    fn avg_pool_layer_forward() {
        let mut l = Pool2d::avg(2);
        let y = l.forward(&input(), false);
        assert_eq!(y.at(0, 0, 0, 0), 2.5);
    }

    #[test]
    fn max_backward_gradient_mass() {
        let mut l = Pool2d::max(2);
        let x = input();
        let y = l.forward(&x, true);
        let gin = l.backward(&Tensor::ones(y.shape()));
        assert_eq!(gin.shape(), x.shape());
        assert_eq!(gin.sum(), y.len() as f32);
    }

    #[test]
    fn avg_backward_gradient_mass() {
        let mut l = Pool2d::avg(2);
        let x = input();
        let y = l.forward(&x, true);
        let gin = l.backward(&Tensor::ones(y.shape()));
        assert!((gin.sum() - y.len() as f32).abs() < 1e-5);
    }

    #[test]
    fn output_shape_and_spec() {
        let l = Pool2d::max(2);
        let s = Shape4::new(4, 8, 28, 28);
        assert_eq!(l.output_shape(s), Shape4::new(4, 8, 14, 14));
        assert!(matches!(l.spec(s), Some(LayerSpec::Pool { k: 2, .. })));
        assert_eq!(l.class(), LayerClass::Auxiliary);
    }
}
