//! Neural-network substrate with full training support.
//!
//! Implements every layer type the paper's workloads use (§II-A): CONV,
//! POOL (max and average), inner-product/FC, ReLU and friends, batch
//! normalization (including the *virtual* batch normalization ReGAN builds
//! into its wordline drivers, Fig. 10 Ⓐ), and the fractional-strided
//! convolution of GAN generators (Fig. 7) — each with both a forward and a
//! backward pass, because the paper's contribution is accelerating
//! *training*, not just inference.
//!
//! On top of the layers sit:
//!
//! * [`Network`] — a sequential model with forward, backward and
//!   batch-accumulated weight updates (the paper's semantics: "the weight
//!   updates due to each input are stored and only applied at the end of a
//!   batch", §III-A.2),
//! * [`Gan`] — the two-network Generator/Discriminator system of §II-A.3
//!   with the exact D-on-real / D-on-fake / G training phases of Fig. 8,
//! * [`models`] — the model zoo (LeNet-like, MLP, VGG-like, DCGAN),
//! * [`spec`] — geometry descriptions of networks consumed by the
//!   accelerator and GPU cost models,
//! * [`backend`] — optional ReRAM-crossbar-backed execution of the
//!   matrix-multiply layers, closing the loop between the functional model
//!   and the hardware substrate.
//!
//! # Example
//!
//! ```
//! use reram_nn::{models, losses::softmax_cross_entropy};
//! use reram_tensor::{Shape4, Tensor, init};
//!
//! let mut rng = init::seeded_rng(1);
//! let mut net = models::mlp(4, &[8], 3, &mut rng);
//! let x = Tensor::ones(Shape4::new(2, 4, 1, 1));
//! let y = net.forward(&x, true);
//! assert_eq!(y.shape(), Shape4::new(2, 3, 1, 1));
//! let (loss, grad) = softmax_cross_entropy(&y, &[0, 2]);
//! assert!(loss > 0.0);
//! net.backward(&grad);
//! net.apply_update(0.01);
//! ```

#![warn(missing_docs)]
#![allow(
    clippy::needless_range_loop,
    reason = "dense matrix/tensor kernels index multiple arrays by the same coordinate; explicit index loops read closer to the paper's equations than iterator chains would"
)]

pub mod activations;
pub mod backend;
pub mod gan;
pub mod layers;
pub mod losses;
pub mod metrics;
pub mod models;
pub mod network;
pub mod spec;
pub mod trainer;

pub use gan::{Gan, GanStepStats};
pub use network::Network;
pub use spec::{LayerKind, LayerSpec, LayerWork, NetworkSpec};
pub use trainer::{TrainConfig, TrainHistory, Trainer};

use reram_tensor::{Shape4, Tensor};

/// Classification of a layer for architectural cost mapping.
///
/// The accelerator schedules work per *weighted* layer (the rectangles of
/// the paper's Fig. 5); auxiliary layers (activation, pooling, norm) fuse
/// into the preceding weighted layer's pipeline stage, mirroring how
/// PipeLayer's morphable subarrays contain the activation/pooling
/// peripherals (§III-A.3 (c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerClass {
    /// Holds weights on crossbars (CONV, FC, fractional-strided CONV).
    Weighted,
    /// Fused peripheral computation (activation, pooling, flatten, norm).
    Auxiliary,
}

/// A differentiable network layer.
///
/// `forward` caches whatever the matching `backward` needs; `backward`
/// consumes the most recent forward state and *accumulates* parameter
/// gradients (batched update semantics). `apply_update` performs the SGD
/// step and clears the accumulators — the "one cycle to update all weights
/// within the batch" of §III-A.2.
pub trait Layer: std::fmt::Debug {
    /// Human-readable layer kind, e.g. `"conv"`.
    fn name(&self) -> &'static str;

    /// Whether the layer holds crossbar-mapped weights.
    fn class(&self) -> LayerClass;

    /// Runs the layer forward. `train` enables training-only behaviour
    /// (batch statistics collection, activation caching).
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Back-propagates `grad_out`, returning the gradient w.r.t. the input
    /// and accumulating parameter gradients.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward` in training
    /// mode or with a gradient of the wrong shape.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Applies accumulated gradients with learning rate `lr` (scaled by the
    /// caller for batch averaging) and clears them.
    fn apply_update(&mut self, _lr: f32) {}

    /// Discards accumulated gradients without applying them.
    fn zero_grad(&mut self) {}

    /// Clamps every trainable parameter to `[-limit, limit]`.
    ///
    /// Used by WGAN critic training (weight clipping enforces the Lipschitz
    /// constraint — paper reference \[11\]); a no-op for parameterless layers.
    fn clip_weights(&mut self, _limit: f32) {}

    /// Sets the momentum coefficient used by subsequent `apply_update`
    /// calls (`0.0` = plain SGD). A no-op for parameterless layers.
    fn set_momentum(&mut self, _mu: f32) {}

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Output shape for a given input shape.
    fn output_shape(&self, input: Shape4) -> Shape4;

    /// Geometry description used by the architectural cost models, if the
    /// layer is architecturally visible.
    fn spec(&self, input: Shape4) -> Option<LayerSpec>;
}
