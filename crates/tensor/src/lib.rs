//! Minimal 4-D tensor library used by the ReRAM accelerator reproduction.
//!
//! The crate provides exactly the numerical substrate the paper's workloads
//! need: an NCHW [`Tensor`], a 2-D [`Matrix`], parameter initializers, and
//! forward **and** backward kernels for the layer types in the paper's §II-A
//! (convolution, pooling, inner product) plus the fractional-strided
//! convolution used by GAN generators (§II-A.3, Fig. 7).
//!
//! # Example
//!
//! ```
//! use reram_tensor::{Shape4, Tensor, ops};
//!
//! let input = Tensor::ones(Shape4::new(1, 1, 4, 4));
//! let weight = Tensor::ones(Shape4::new(1, 1, 3, 3));
//! let out = ops::conv2d(&input, &weight, None, 1, 0);
//! assert_eq!(out.shape(), Shape4::new(1, 1, 2, 2));
//! assert_eq!(out.data()[0], 9.0);
//! ```

#![warn(missing_docs)]
#![allow(
    clippy::needless_range_loop,
    reason = "dense matrix/tensor kernels index multiple arrays by the same coordinate; explicit index loops read closer to the paper's equations than iterator chains would"
)]

mod error;
mod matrix;
mod shape;
mod tensor;

pub mod init;
pub mod ops;

pub use error::ShapeError;
pub use matrix::Matrix;
pub use shape::{Shape2, Shape4};
pub use tensor::Tensor;
