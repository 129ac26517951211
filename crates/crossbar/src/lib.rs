//! Behavioural, energy and latency model of ReRAM crossbar compute arrays.
//!
//! This crate is the compute substrate of the paper (§II-B, Fig. 3): a ReRAM
//! crossbar stores a matrix as cell conductances and computes a matrix-vector
//! multiplication in the analog domain — inputs drive the wordlines, and the
//! current summed on each bitline is the dot product of the input vector with
//! that bitline's column of weights.
//!
//! The model covers the full circuit stack the paper's accelerators use:
//!
//! * [`device`] — the ReRAM cell: discrete conductance levels, programming,
//!   write variation and read noise,
//! * [`array`](mod@array) — a fixed-geometry crossbar of cells whose one
//!   MVM kernel is the spike driver and integrate-and-fire counter readout
//!   of PipeLayer §III-A.3 (a, b): inputs are applied as weighted spike
//!   trains, bitline currents are integrated into digital counts without a
//!   conventional ADC,
//! * [`quant`] — fixed-point quantization of weights/activations and bit
//!   slicing of multi-bit weights across cells,
//! * [`tile`] — partitioning of large matrices over grids of arrays with
//!   horizontal collection and vertical summation of partial results
//!   (Fig. 3(c)), using differential positive/negative arrays for signed
//!   weights (Fig. 10 Ⓑ),
//! * [`cost`] — per-component latency/energy/area accounting, in the
//!   dimensioned quantities of [`units`].
//!
//! # Example
//!
//! ```
//! use reram_crossbar::{CrossbarConfig, tile::TiledMatrix};
//! use reram_tensor::{Matrix, Shape2};
//!
//! let w = Matrix::from_fn(Shape2::new(300, 200), |r, c| {
//!     ((r * 7 + c * 3) % 13) as f32 / 13.0 - 0.5
//! });
//! let mut tiled = TiledMatrix::program(&w, &CrossbarConfig::default());
//! let x = vec![0.25_f32; 200];
//! let y = tiled.matvec(&x);
//! let exact = w.matvec(&x);
//! let err: f32 = y.iter().zip(&exact).map(|(a, b)| (a - b).abs()).sum();
//! assert!(err / 300.0 < 1e-2);
//! ```

#![warn(missing_docs)]
#![allow(
    clippy::needless_range_loop,
    reason = "dense matrix/tensor kernels index multiple arrays by the same coordinate; explicit index loops read closer to the paper's equations than iterator chains would"
)]

pub mod array;
pub mod cost;
pub mod device;
pub mod quant;
pub mod readout;
pub mod tile;
pub mod units;

mod config;
#[cfg(test)]
mod test_support;

pub use config::CrossbarConfig;
pub use cost::{ComponentEnergy, CrossbarCostModel, MvmCost};
pub use device::{ReramCell, ReramDeviceModel};
pub use readout::{ReadoutCost, ReadoutKind, ReadoutModel};
pub use tile::TiledMatrix;
