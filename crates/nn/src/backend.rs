//! Execution backends for matrix-multiply layers.
//!
//! The functional network can run its forward matrix products either in
//! plain floating point or *through the ReRAM crossbar model* — quantized,
//! bit-sliced, spike-coded, optionally noisy. The latter closes the loop
//! between the algorithmic substrate and the hardware substrate: training a
//! network with [`LinearEngine::crossbar`] demonstrates the in-situ compute
//! path PipeLayer relies on, including the reprogramming performed at every
//! weight update (§III-A.3 (a): "in weight update, [the spike driver]
//! serves as write driver to tune weights stored in the ReRAM array").
//!
//! By default backward passes stay in floating point: the forward
//! quantization is what determines functional fidelity (quantization-aware
//! training), while the *cost* of backward crossbar passes is accounted by
//! the architectural model in `reram-core`. [`LinearEngine::crossbar_full`]
//! additionally runs the *error back-propagation* product through a second,
//! transposed crossbar copy — exactly how PipeLayer supports training: the
//! backward pass "can be simply realized through matrix multiplication"
//! with the transposed weights kept in their own arrays (§II-A.2). The
//! weight-gradient outer product stays in floating point (it is an
//! accumulation, not an MVM, and uses different hardware). These
//! substitutions are recorded in DESIGN.md.

use std::borrow::Borrow;

use reram_crossbar::{CrossbarConfig, TiledMatrix};
use reram_tensor::{ops, Matrix};

/// Strategy for computing `y = x W^T + b` inside weighted layers.
///
/// The `Crossbar` variant is much larger than `Float`, but exactly one
/// engine lives per weighted layer, so the footprint is irrelevant and a
/// box would only add indirection.
#[derive(Debug)]
#[allow(
    clippy::large_enum_variant,
    reason = "one engine per weighted layer; boxing the crossbar variant would only add indirection"
)]
pub enum LinearEngine {
    /// Exact floating-point products.
    Float,
    /// Products through the tiled ReRAM crossbar model.
    Crossbar {
        /// Array geometry/precision configuration.
        config: CrossbarConfig,
        /// Programmed weight grid; `None` until the first forward.
        tiled: Option<TiledMatrix>,
        /// Transposed weight grid for error back-propagation; `None` unless
        /// the engine was built with [`LinearEngine::crossbar_full`] and a
        /// backward product ran.
        tiled_t: Option<TiledMatrix>,
        /// Whether backward products also go through crossbars.
        backward_on_crossbar: bool,
        /// Set when the layer's weights changed since the forward grid was
        /// last programmed.
        dirty: bool,
        /// Same, for the transposed grid (the two grids are touched by
        /// different passes, so each tracks staleness independently).
        dirty_t: bool,
    },
}

impl LinearEngine {
    /// Floating-point engine.
    pub fn float() -> Self {
        LinearEngine::Float
    }

    /// Crossbar engine: forward products on crossbars, backward in float.
    pub fn crossbar(config: CrossbarConfig) -> Self {
        LinearEngine::Crossbar {
            config,
            tiled: None,
            tiled_t: None,
            backward_on_crossbar: false,
            dirty: true,
            dirty_t: true,
        }
    }

    /// Crossbar engine that also routes the error back-propagation product
    /// through a transposed weight copy (PipeLayer's training datapath).
    pub fn crossbar_full(config: CrossbarConfig) -> Self {
        LinearEngine::Crossbar {
            config,
            tiled: None,
            tiled_t: None,
            backward_on_crossbar: true,
            dirty: true,
            dirty_t: true,
        }
    }

    /// Whether this engine routes products through the crossbar model.
    pub fn is_crossbar(&self) -> bool {
        matches!(self, LinearEngine::Crossbar { .. })
    }

    /// Marks the weights as changed; the crossbar grids reprogram on their
    /// next product (a PipeLayer weight-update cycle).
    pub fn invalidate(&mut self) {
        if let LinearEngine::Crossbar { dirty, dirty_t, .. } = self {
            *dirty = true;
            *dirty_t = true;
        }
    }

    /// Physical arrays currently programmed (0 for the float engine or
    /// before the first product).
    pub fn array_count(&self) -> usize {
        match self {
            LinearEngine::Crossbar { tiled, tiled_t, .. } => {
                tiled.as_ref().map_or(0, TiledMatrix::array_count)
                    + tiled_t.as_ref().map_or(0, TiledMatrix::array_count)
            }
            LinearEngine::Float => 0,
        }
    }

    /// Grid reprogramming operations performed by the forward grid.
    pub fn reprogram_count(&self) -> u64 {
        match self {
            LinearEngine::Crossbar { tiled: Some(t), .. } => t.reprogram_count(),
            _ => 0,
        }
    }

    /// Computes `y = x W^T + b` where `x` is `(batch × in)` and `w` is
    /// `(out × in)`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are inconsistent.
    pub fn matmul(&mut self, x: &Matrix, w: &Matrix, bias: Option<&[f32]>) -> Matrix {
        match self {
            LinearEngine::Float => ops::linear(x, w, bias),
            LinearEngine::Crossbar {
                config,
                tiled,
                dirty,
                ..
            } => {
                let mut y = sync_grid(tiled, dirty, config, || w).matmul_rows(x);
                if let Some(b) = bias {
                    assert_eq!(b.len(), w.rows(), "bias length vs out features");
                    for r in 0..y.rows() {
                        for (c, bv) in b.iter().enumerate() {
                            y.set(r, c, y.at(r, c) + bv);
                        }
                    }
                }
                y
            }
        }
    }

    /// Computes the error back-propagation product `G W` where `g` is
    /// `(batch × out)` and `w` is `(out × in)`.
    ///
    /// On a [`LinearEngine::crossbar_full`] engine this runs through a
    /// transposed weight copy programmed into its own arrays; otherwise it
    /// is the exact float product. The transposed grid reprograms together
    /// with the forward grid on weight updates.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are inconsistent.
    pub fn matmul_backward(&mut self, g: &Matrix, w: &Matrix) -> Matrix {
        match self {
            LinearEngine::Crossbar {
                config,
                tiled_t,
                backward_on_crossbar: true,
                dirty_t,
                ..
            } => sync_grid(tiled_t, dirty_t, config, || w.transposed()).matmul_rows(g),
            _ => ops::linear_backward_input(g, w),
        }
    }
}

/// Brings a grid in line with the layer's weights before a product:
/// programs it on first use and, after a weight update, tunes only the
/// changed cells, as the write driver does in hardware. `weights` is called
/// only when the grid is written, so the transposed copy is built only then.
fn sync_grid<'g, M: Borrow<Matrix>>(
    grid: &'g mut Option<TiledMatrix>,
    dirty: &mut bool,
    config: &CrossbarConfig,
    weights: impl FnOnce() -> M,
) -> &'g mut TiledMatrix {
    let stale = std::mem::replace(dirty, false);
    match grid {
        Some(t) => {
            if stale {
                t.reprogram_delta(weights().borrow());
            }
            t
        }
        None => grid.insert(TiledMatrix::program(weights().borrow(), config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_tensor::Shape2;

    fn w() -> Matrix {
        Matrix::from_fn(Shape2::new(6, 10), |r, c| {
            ((r * 13 + c * 7) % 17) as f32 / 17.0 - 0.5
        })
    }

    fn x() -> Matrix {
        Matrix::from_fn(Shape2::new(3, 10), |r, c| ((r + c) % 9) as f32 / 9.0 - 0.4)
    }

    #[test]
    fn float_engine_is_exact_linear() {
        let mut e = LinearEngine::float();
        let y = e.matmul(&x(), &w(), None);
        assert_eq!(y, ops::linear(&x(), &w(), None));
        assert!(!e.is_crossbar());
        assert_eq!(e.array_count(), 0);
    }

    #[test]
    fn crossbar_engine_close_to_float() {
        let mut e = LinearEngine::crossbar(CrossbarConfig::default());
        let bias = [0.1, -0.2, 0.3, 0.0, 0.05, -0.05];
        let yc = e.matmul(&x(), &w(), Some(&bias));
        let yf = ops::linear(&x(), &w(), Some(&bias));
        assert!(e.is_crossbar());
        assert!(e.array_count() > 0);
        for i in 0..yc.rows() {
            for j in 0..yc.cols() {
                assert!(
                    (yc.at(i, j) - yf.at(i, j)).abs() < 0.02,
                    "({i},{j}): {} vs {}",
                    yc.at(i, j),
                    yf.at(i, j)
                );
            }
        }
    }

    #[test]
    fn invalidate_triggers_reprogram() {
        let mut e = LinearEngine::crossbar(CrossbarConfig::default());
        let _ = e.matmul(&x(), &w(), None);
        assert_eq!(e.reprogram_count(), 0);
        e.invalidate();
        let mut w2 = w();
        w2.set(0, 0, 5.0);
        let y2 = e.matmul(&x(), &w2, None);
        assert_eq!(e.reprogram_count(), 1);
        let yf = ops::linear(&x(), &w2, None);
        assert!((y2.at(0, 0) - yf.at(0, 0)).abs() < 0.1);
    }

    #[test]
    fn unchanged_weights_do_not_reprogram() {
        let mut e = LinearEngine::crossbar(CrossbarConfig::default());
        let _ = e.matmul(&x(), &w(), None);
        let _ = e.matmul(&x(), &w(), None);
        assert_eq!(e.reprogram_count(), 0);
    }

    #[test]
    fn backward_on_crossbar_close_to_float() {
        let mut full = LinearEngine::crossbar_full(CrossbarConfig::default());
        let g = Matrix::from_fn(Shape2::new(3, 6), |r, c| {
            ((r * 3 + c) % 7) as f32 / 7.0 - 0.4
        });
        let got = full.matmul_backward(&g, &w());
        let want = ops::linear_backward_input(&g, &w());
        assert_eq!(got.shape(), want.shape());
        for i in 0..got.rows() {
            for j in 0..got.cols() {
                assert!(
                    (got.at(i, j) - want.at(i, j)).abs() < 0.02,
                    "({i},{j}): {} vs {}",
                    got.at(i, j),
                    want.at(i, j)
                );
            }
        }
        // Two grids are provisioned: forward (lazily, none yet) + transposed.
        assert!(full.array_count() > 0);
    }

    #[test]
    fn plain_crossbar_backward_is_exact_float() {
        let mut e = LinearEngine::crossbar(CrossbarConfig::default());
        let g = Matrix::from_fn(Shape2::new(2, 6), |r, c| (r + c) as f32 * 0.1);
        let got = e.matmul_backward(&g, &w());
        assert_eq!(got, ops::linear_backward_input(&g, &w()));
    }

    #[test]
    fn transposed_grid_tracks_weight_updates() {
        let mut e = LinearEngine::crossbar_full(CrossbarConfig::default());
        let g = Matrix::from_fn(Shape2::new(1, 6), |_, c| if c == 0 { 1.0 } else { 0.0 });
        let w1 = w();
        let b1 = e.matmul_backward(&g, &w1);
        // Update the weights, invalidate, and check backward follows.
        let mut w2 = w1.clone();
        for v in w2.data_mut() {
            *v *= 2.0;
        }
        e.invalidate();
        let b2 = e.matmul_backward(&g, &w2);
        for (a, b) in b1.data().iter().zip(b2.data()) {
            assert!((2.0 * a - b).abs() < 0.05, "{a} vs {b}");
        }
    }
}
