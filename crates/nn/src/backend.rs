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
        /// Reprogram operations performed by *previous* lives of this
        /// engine: a clone drops its live grids (they reprogram lazily) but
        /// carries the count forward so endurance accounting survives the
        /// clone-heavy training loops.
        reprograms_prior: u64,
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
            reprograms_prior: 0,
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
            reprograms_prior: 0,
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

    /// Grid reprogramming operations performed by the *live* forward grid
    /// (resets when the engine is cloned — see [`LinearEngine::reprograms_total`]).
    pub fn reprogram_count(&self) -> u64 {
        match self {
            LinearEngine::Crossbar { tiled: Some(t), .. } => t.reprogram_count(),
            _ => 0,
        }
    }

    /// Cumulative forward-grid reprogram operations across the engine's
    /// whole lineage, *including* lives discarded by [`Clone`]. This is the
    /// counter endurance accounting should read: cloning a layer (e.g. to
    /// compare float vs crossbar execution, or to snapshot a model) must not
    /// silently erase wear already inflicted on the cells.
    pub fn reprograms_total(&self) -> u64 {
        match self {
            LinearEngine::Crossbar {
                reprograms_prior, ..
            } => reprograms_prior + self.reprogram_count(),
            LinearEngine::Float => 0,
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
                match tiled {
                    Some(t) if *dirty => {
                        // Weight update: tune only the changed cells, as the
                        // write driver does in hardware.
                        t.reprogram_delta(w);
                        *dirty = false;
                    }
                    Some(_) => {}
                    None => {
                        *tiled = Some(TiledMatrix::program(w, config));
                        *dirty = false;
                    }
                }
                #[expect(
                    clippy::expect_used,
                    reason = "the branch above just populated the grid"
                )]
                let t = tiled.as_mut().expect("grid just programmed");
                let mut y = t.matmul_rows(x);
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
    #[expect(
        clippy::expect_used,
        reason = "the branch above just populated the grid"
    )]
    pub fn matmul_backward(&mut self, g: &Matrix, w: &Matrix) -> Matrix {
        match self {
            LinearEngine::Crossbar {
                config,
                tiled_t,
                backward_on_crossbar: true,
                dirty_t,
                ..
            } => {
                match tiled_t {
                    Some(t) if *dirty_t => {
                        t.reprogram_delta(&w.transposed());
                        *dirty_t = false;
                    }
                    Some(_) => {}
                    None => {
                        *tiled_t = Some(TiledMatrix::program(&w.transposed(), config));
                        *dirty_t = false;
                    }
                }
                tiled_t
                    .as_mut()
                    .expect("transposed grid just programmed")
                    .matmul_rows(g)
            }
            _ => ops::linear_backward_input(g, w),
        }
    }
}

impl Clone for LinearEngine {
    /// Cloning resets *live* crossbar state (the clone reprograms lazily);
    /// the configuration and backward mode are preserved, and the
    /// cumulative reprogram count carries over so
    /// [`LinearEngine::reprograms_total`] is monotone across clones.
    fn clone(&self) -> Self {
        match self {
            LinearEngine::Float => LinearEngine::Float,
            LinearEngine::Crossbar {
                config,
                backward_on_crossbar,
                ..
            } => {
                let mut clone = if *backward_on_crossbar {
                    LinearEngine::crossbar_full(config.clone())
                } else {
                    LinearEngine::crossbar(config.clone())
                };
                if let LinearEngine::Crossbar {
                    reprograms_prior, ..
                } = &mut clone
                {
                    *reprograms_prior = self.reprograms_total();
                }
                clone
            }
        }
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
    fn clone_preserves_kind() {
        let e = LinearEngine::crossbar(CrossbarConfig::default());
        assert!(e.clone().is_crossbar());
        assert!(!LinearEngine::float().clone().is_crossbar());
    }

    #[test]
    fn clone_carries_cumulative_reprogram_count() {
        let mut e = LinearEngine::crossbar(CrossbarConfig::default());
        let _ = e.matmul(&x(), &w(), None);
        e.invalidate();
        let mut w2 = w();
        w2.set(0, 0, 3.0);
        let _ = e.matmul(&x(), &w2, None);
        assert_eq!(e.reprogram_count(), 1);
        assert_eq!(e.reprograms_total(), 1);

        let mut c = e.clone();
        // Live count resets (the clone has no programmed grid yet) but the
        // cumulative total survives.
        assert_eq!(c.reprogram_count(), 0);
        assert_eq!(c.reprograms_total(), 1);

        // Wear inflicted by the clone accumulates on top.
        let _ = c.matmul(&x(), &w2, None);
        c.invalidate();
        let mut w3 = w2.clone();
        w3.set(1, 1, -2.0);
        let _ = c.matmul(&x(), &w3, None);
        assert_eq!(c.reprogram_count(), 1);
        assert_eq!(c.reprograms_total(), 2);

        // A second-generation clone still sees the whole lineage.
        assert_eq!(c.clone().reprograms_total(), 2);
        assert_eq!(LinearEngine::float().reprograms_total(), 0);
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

    #[test]
    fn clone_preserves_backward_mode() {
        let e = LinearEngine::crossbar_full(CrossbarConfig::default());
        let mut c = e.clone();
        // The clone still routes backward through crossbars: programming a
        // grid on first use gives a non-zero array count afterwards.
        let g = Matrix::from_fn(Shape2::new(1, 6), |_, _| 0.5);
        let _ = c.matmul_backward(&g, &w());
        assert!(c.array_count() > 0);
    }
}
