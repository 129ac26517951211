//! Partitioned mapping of large matrices onto crossbar grids — Fig. 3(c).
//!
//! "For a large matrix that can not fit in a single array, the input and the
//! output shall be partitioned and grouped into multiple arrays. The output
//! of each array is a partial sum, which is collected horizontally and
//! summed vertically to generate the final calculation results."
//!
//! [`TiledMatrix`] implements exactly that: the weight matrix is split along
//! its input dimension into *row tiles* (wordline groups) and along its
//! output dimension into *column tiles* (bitline groups); partial sums from
//! row tiles are added to produce each output. Signed weights use a
//! differential pair of arrays (positive and negative magnitudes) whose
//! outputs are merged by a subtractor, as in the paper's Fig. 10 Ⓑ.

use crate::array::CrossbarArray;
use crate::quant::{differential_split, slice_magnitude, Quantizer};
use crate::CrossbarConfig;
use reram_telemetry::{self as telemetry, Event};
use reram_tensor::Matrix;

/// A weight matrix programmed across a grid of differential crossbar pairs,
/// supporting quantized matrix-vector multiplication.
#[derive(Debug, Clone)]
pub struct TiledMatrix {
    config: CrossbarConfig,
    out_dim: usize,
    in_dim: usize,
    /// Scale fitted to the programmed matrix; `None` while no scale fits it
    /// (all weights zero), and products use scale 1.
    weight_fit: Option<Quantizer>,
    row_tiles: usize,
    col_tiles: usize,
    /// `pos[rt * col_tiles + ct]` and the matching `neg` array hold the
    /// magnitudes of positive / negative weights of that tile.
    pos: Vec<CrossbarArray>,
    neg: Vec<CrossbarArray>,
    /// On an ideal device (no write or read noise), the grid folded into
    /// one signed integer matrix, `out × in` row-major:
    /// `Σ_k 2^(k·cell_bits)·(pos_level − neg_level)` over a weight's bit
    /// slices, read from the cells' effective (stuck-at included) levels.
    /// `None` on a noisy device, whose products stay bit-serial.
    folded: Option<Vec<i64>>,
    scratch: Scratch,
    reprogram_count: u64,
}

/// Buffers the product kernels reuse from call to call.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Signed input codes of the current row.
    codes: Vec<i64>,
    /// One input polarity's codes (magnitudes of one sign, others 0).
    polarity: Vec<u64>,
    /// Merged integer outputs of the current row.
    acc: Vec<i128>,
}

/// One mapped cell as [`TiledMatrix::for_each_cell`] reports it.
#[derive(Debug, Clone, Copy)]
struct CellSite {
    /// Grid index `rt * col_tiles + ct` of the array pair.
    array: usize,
    row: usize,
    col: usize,
    /// Row-major index of the cell's weight in the `out × in` matrix.
    entry: usize,
    /// Binary weight of the cell's bit slice: `k · cell_bits`.
    shift: u32,
}

impl TiledMatrix {
    /// Programs matrix `w` (shape `out × in`, computing `y = W x`) onto a
    /// crossbar grid.
    ///
    /// # Panics
    ///
    /// Panics if `w` is empty or `config` is invalid.
    pub fn program(w: &Matrix, config: &CrossbarConfig) -> Self {
        #[expect(
            clippy::panic,
            reason = "documented contract — invalid configs abort programming"
        )]
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid crossbar config: {e}"));
        assert!(
            w.rows() > 0 && w.cols() > 0,
            "cannot program an empty matrix"
        );
        let (out_dim, in_dim) = (w.rows(), w.cols());
        let logical_cols = config.logical_cols();
        let row_tiles = in_dim.div_ceil(config.rows);
        let col_tiles = out_dim.div_ceil(logical_cols);

        let mut this = Self {
            config: config.clone(),
            out_dim,
            in_dim,
            weight_fit: Quantizer::try_fit(config.weight_bits, w.abs_max()),
            row_tiles,
            col_tiles,
            pos: Vec::with_capacity(row_tiles * col_tiles),
            neg: Vec::with_capacity(row_tiles * col_tiles),
            folded: config.is_noiseless().then(|| vec![0; out_dim * in_dim]),
            scratch: Scratch::default(),
            reprogram_count: 0,
        };
        let slices = config.slices_per_weight();
        for i in 0..row_tiles * col_tiles {
            // Column tile `ct` maps its weights' slices onto its first
            // bitlines; the rest stay unmapped.
            let ct = i % col_tiles;
            let mapped = logical_cols.min(out_dim - ct * logical_cols) * slices;
            // Vary the noise seed per array so variations are independent.
            let array = |k: u64| {
                let mut cfg = config.clone();
                cfg.noise_seed = config.noise_seed.wrapping_add(2 * i as u64 + k);
                CrossbarArray::new(&cfg).with_mapped_cols(mapped)
            };
            this.pos.push(array(0));
            this.neg.push(array(1));
        }
        this.write_levels(w);
        this
    }

    /// Reprograms the grid with new weights (a PipeLayer weight update).
    ///
    /// # Panics
    ///
    /// Panics if the new matrix's shape differs from the programmed one.
    pub fn reprogram(&mut self, w: &Matrix) {
        assert_eq!(
            (w.rows(), w.cols()),
            (self.out_dim, self.in_dim),
            "reprogram requires the original {}x{} shape",
            self.out_dim,
            self.in_dim
        );
        self.weight_fit = Quantizer::try_fit(self.config.weight_bits, w.abs_max());
        self.reprogram_count += 1;
        telemetry::record(Event::WeightUpdate, 1);
        self.write_levels(w);
    }

    /// Incrementally reprograms only the cells whose level changed — the
    /// paper's weight-update path, where the spike driver "serves as write
    /// driver to tune weights stored in the ReRAM array" (§III-A.3 (a)).
    /// Returns the number of cell programming pulses issued.
    ///
    /// The existing quantization scale is kept so unchanged weights map to
    /// unchanged levels; if a new weight exceeds the current full-scale
    /// range, or the grid holds no fitted scale and `w` has one, the grid
    /// falls back to a full reprogram with a refitted scale.
    ///
    /// # Panics
    ///
    /// Panics if the new matrix's shape differs from the programmed one.
    pub fn reprogram_delta(&mut self, w: &Matrix) -> u64 {
        assert_eq!(
            (w.rows(), w.cols()),
            (self.out_dim, self.in_dim),
            "reprogram_delta requires the original {}x{} shape",
            self.out_dim,
            self.in_dim
        );
        let refit = match self.weight_fit {
            Some(q) => w.abs_max() > q.dequantize(q.q_max()),
            None => Quantizer::try_fit(self.config.weight_bits, w.abs_max()).is_some(),
        };
        if refit {
            let cells = (self.config.rows * self.config.cols) as u64
                * 2
                * (self.row_tiles * self.col_tiles) as u64;
            self.reprogram(w);
            return cells;
        }
        self.reprogram_count += 1;
        telemetry::record(Event::WeightUpdate, 1);
        // The walk reads the grid geometry while the sink tunes the arrays
        // and moves each touched weight of the fold by its cells' change.
        let (mut pos, mut neg) = (std::mem::take(&mut self.pos), std::mem::take(&mut self.neg));
        let mut folded = self.folded.take();
        let mut pulses = 0u64;
        self.for_each_cell(w, |site, p, n| {
            for (sign, array, level) in
                [(1, &mut pos[site.array], p), (-1, &mut neg[site.array], n)]
            {
                let before = array.level_at(site.row, site.col);
                if before != level {
                    array.program_cell(site.row, site.col, level);
                    pulses += 1;
                    if let Some(f) = folded.as_mut() {
                        let after = array.level_at(site.row, site.col);
                        f[site.entry] +=
                            sign * ((i64::from(after) - i64::from(before)) << site.shift);
                    }
                }
            }
        });
        (self.pos, self.neg, self.folded) = (pos, neg, folded);
        pulses
    }

    /// Programs every array from `w` in full: mapped cells get their
    /// levels, every other cell level 0. Then refolds the ideal grid.
    fn write_levels(&mut self, w: &Matrix) {
        let cells = self.config.rows * self.config.cols;
        let mut pos_levels = vec![0u32; self.pos.len() * cells];
        let mut neg_levels = vec![0u32; self.neg.len() * cells];
        let cols = self.config.cols;
        self.for_each_cell(w, |site, p, n| {
            let i = site.array * cells + site.row * cols + site.col;
            pos_levels[i] = p;
            neg_levels[i] = n;
        });
        let levels = pos_levels.chunks(cells).zip(neg_levels.chunks(cells));
        for ((pos, neg), (p, n)) in self.pos.iter_mut().zip(&mut self.neg).zip(levels) {
            pos.program(p);
            neg.program(n);
        }
        if let Some(mut folded) = self.folded.take() {
            let (slices, cell_bits) = (self.config.slices_per_weight(), self.config.cell_bits);
            self.for_each_weight(|array, row, col, entry| {
                let (p, n) = (&self.pos[array], &self.neg[array]);
                folded[entry] = (0..slices)
                    .map(|k| {
                        let diff = i64::from(p.level_at(row, col + k))
                            - i64::from(n.level_at(row, col + k));
                        diff << (k as u32 * cell_bits)
                    })
                    .sum();
            });
            self.folded = Some(folded);
        }
    }

    /// The one place cell levels come from weights. Quantizes `w` with the
    /// grid's current scale, splits each weight into its differential pair
    /// and bit slices, and calls `visit(site, pos, neg)` for every mapped
    /// cell: in [`for_each_weight`](Self::for_each_weight) order, a
    /// weight's slices on adjacent bitlines, lowest first.
    fn for_each_cell(&self, w: &Matrix, mut visit: impl FnMut(CellSite, u32, u32)) {
        let slices = self.config.slices_per_weight();
        let cell_bits = self.config.cell_bits;
        let quant = self.weight_quant();
        self.for_each_weight(|array, row, col, entry| {
            let q = quant.quantize(w.data()[entry]);
            let (p, n) = differential_split(q);
            let p = slice_magnitude(p, cell_bits, slices);
            let n = slice_magnitude(n, cell_bits, slices);
            for (k, (&ps, &ns)) in p.iter().zip(&n).enumerate() {
                let site = CellSite {
                    array,
                    row,
                    col: col + k,
                    entry,
                    shift: k as u32 * cell_bits,
                };
                visit(site, ps, ns);
            }
        });
    }

    /// The grid layout: calls `visit(array, wordline, bitline, entry)` for
    /// every mapped weight, where `bitline` is the first of the weight's
    /// slice bitlines and `entry` its row-major index in the `out × in`
    /// matrix. Arrays come in grid order (`rt * col_tiles + ct`) and each
    /// array's weights in row-major order. Write variation is keyed by
    /// cell and pulse, so the order moves no draw.
    fn for_each_weight(&self, mut visit: impl FnMut(usize, usize, usize, usize)) {
        let slices = self.config.slices_per_weight();
        let logical_cols = self.config.logical_cols();
        let rows = self.config.rows;
        for rt in 0..self.row_tiles {
            for ct in 0..self.col_tiles {
                let array = rt * self.col_tiles + ct;
                for row in 0..rows {
                    let in_idx = rt * rows + row;
                    if in_idx >= self.in_dim {
                        break;
                    }
                    for j in 0..logical_cols {
                        let out_idx = ct * logical_cols + j;
                        if out_idx >= self.out_dim {
                            break;
                        }
                        visit(array, row, j * slices, out_idx * self.in_dim + in_idx);
                    }
                }
            }
        }
    }

    /// The weight quantizer: the fitted one, or scale 1 while none fits.
    fn weight_quant(&self) -> Quantizer {
        self.weight_fit
            .unwrap_or_else(|| Quantizer::fit(self.config.weight_bits, 0.0))
    }

    /// Output dimension (`W` rows).
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Input dimension (`W` columns).
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Grid extent as `(row_tiles, col_tiles)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.row_tiles, self.col_tiles)
    }

    /// Total physical arrays used (differential pairs count as two).
    pub fn array_count(&self) -> usize {
        2 * self.row_tiles * self.col_tiles
    }

    /// The configuration the grid was programmed with.
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// Number of whole-grid reprogramming operations since creation.
    pub fn reprogram_count(&self) -> u64 {
        self.reprogram_count
    }

    /// Quantized matrix-vector product `y = W x`.
    ///
    /// Inputs are quantized to `input_bits`, split by sign, driven through
    /// every row tile as spike trains, and the per-array partial sums are
    /// merged (bit-slice weights within an array, subtraction across the
    /// differential pair, addition across row tiles) before dequantization.
    /// On an ideal device the merged sum is computed from the folded
    /// integer matrix instead, with the same result and the same counts.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn matvec(&mut self, x: &[f32]) -> Vec<f32> {
        let mut s = std::mem::take(&mut self.scratch);
        let scale = self.product(x, &mut s);
        let y = s.acc.iter().map(|&v| v as f32 * scale).collect();
        self.scratch = s;
        y
    }

    /// Batched product: row `b` of the result is
    /// [`matvec`](Self::matvec) of row `b` of `xs`, each row with its own
    /// input quantizer.
    ///
    /// `xs` is `(batch × in)`; the result is `(batch × out)`.
    ///
    /// # Panics
    ///
    /// Panics if `xs.cols() != self.in_dim()`.
    pub fn matmul_rows(&mut self, xs: &Matrix) -> Matrix {
        let mut out = Vec::with_capacity(xs.rows() * self.out_dim);
        let mut s = std::mem::take(&mut self.scratch);
        for r in 0..xs.rows() {
            let scale = self.product(xs.row(r), &mut s);
            out.extend(s.acc.iter().map(|&v| v as f32 * scale));
        }
        self.scratch = s;
        Matrix::from_vec(reram_tensor::Shape2::new(xs.rows(), self.out_dim), out)
    }

    /// Integer product of one input row into `s.acc`; returns the scale
    /// that dequantizes it.
    ///
    /// Positive input magnitudes add and negative ones subtract, one
    /// polarity pass each; a row tile whose wordline codes are all zero is
    /// skipped. On a noisy device every remaining pair of array calls runs
    /// bit-serially ([`CrossbarArray::mvm_codes`]). On an ideal device each
    /// array's I&F count is the exact integer `Σ_r level[r][c]·x_r`, so the
    /// merged sum equals `Σ_i folded[o][i]·x_i` over the signed codes — one
    /// pass over the folded matrix — and each array call only books its
    /// counts.
    fn product(&mut self, x: &[f32], s: &mut Scratch) -> f32 {
        assert_eq!(
            x.len(),
            self.in_dim,
            "input length {} vs in_dim {}",
            x.len(),
            self.in_dim
        );
        let abs_max = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let input_quant = Quantizer::fit(self.config.input_bits, abs_max);
        s.codes.clear();
        s.codes.extend(x.iter().map(|&v| input_quant.quantize(v)));
        s.acc.clear();
        s.acc.resize(self.out_dim, 0);
        if let Some(folded) = &self.folded {
            for (a, w) in s.acc.iter_mut().zip(folded.chunks_exact(self.in_dim)) {
                *a = w
                    .iter()
                    .zip(&s.codes)
                    .map(|(&w, &q)| i128::from(w) * i128::from(q))
                    .sum();
            }
        }
        for sign in [1i64, -1] {
            s.polarity.clear();
            s.polarity
                .extend(s.codes.iter().map(|&q| (sign * q).max(0) as u64));
            self.accumulate_polarity(sign, s);
        }
        self.weight_quant().scale() * input_quant.scale()
    }

    /// One input polarity (`s.polarity`) through every non-zero row tile.
    fn accumulate_polarity(&mut self, sign: i64, s: &mut Scratch) {
        let rows = self.config.rows;
        let slices = self.config.slices_per_weight();
        let cell_bits = self.config.cell_bits;
        let logical_cols = self.config.logical_cols();
        let input_bits = self.config.input_bits;

        for (rt, chunk) in s.polarity.chunks(rows).enumerate() {
            if chunk.iter().all(|&c| c == 0) {
                continue;
            }
            for ct in 0..self.col_tiles {
                let idx = rt * self.col_tiles + ct;
                if self.folded.is_some() {
                    self.pos[idx].record_mvm(chunk, input_bits);
                    self.neg[idx].record_mvm(chunk, input_bits);
                    continue;
                }
                let p = self.pos[idx].mvm_codes(chunk, input_bits);
                let n = self.neg[idx].mvm_codes(chunk, input_bits);
                for j in 0..logical_cols {
                    let out_idx = ct * logical_cols + j;
                    if out_idx >= self.out_dim {
                        break;
                    }
                    // Merge bit slices: slice k carries weight 2^(k*cell_bits).
                    let mut partial = 0i128;
                    for k in 0..slices {
                        let weight = 1i128 << (k as u32 * cell_bits);
                        let col = j * slices + k;
                        partial += weight * (p[col] as i128 - n[col] as i128);
                    }
                    s.acc[out_idx] += i128::from(sign) * partial;
                }
            }
        }
    }

    /// Total wordline spikes driven across all arrays (energy proxy).
    pub fn total_spikes(&self) -> u64 {
        self.pos
            .iter()
            .chain(&self.neg)
            .map(CrossbarArray::spike_count)
            .sum()
    }

    /// Total cell programming operations across all arrays.
    pub fn total_writes(&self) -> u64 {
        self.pos
            .iter()
            .chain(&self.neg)
            .map(CrossbarArray::write_count)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::counted;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use reram_tensor::Shape2;

    fn test_config() -> CrossbarConfig {
        CrossbarConfig {
            rows: 8,
            cols: 16,
            cell_bits: 4,
            weight_bits: 8,
            input_bits: 8,
            ..CrossbarConfig::default()
        }
    }

    fn pattern_matrix(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(Shape2::new(rows, cols), |r, c| {
            (((r * 31 + c * 17) % 21) as f32 - 10.0) / 10.0
        })
    }

    fn pattern_vec(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 13 % 19) as f32 - 9.0) / 9.0).collect()
    }

    fn assert_close(got: &[f32], want: &[f32], tol: f32) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= tol,
                "output {i}: got {g}, want {w} (tol {tol})"
            );
        }
    }

    #[test]
    fn single_tile_matvec_matches_exact() {
        let w = pattern_matrix(4, 8); // fits one 8x16 array (2 slices/weight)
        let mut t = TiledMatrix::program(&w, &test_config());
        assert_eq!(t.grid(), (1, 1));
        let x = pattern_vec(8);
        let y = t.matvec(&x);
        assert_close(&y, &w.matvec(&x), 0.05);
    }

    #[test]
    fn multi_tile_matches_exact() {
        // 20 outputs x 25 inputs on 8-row tiles with 8 logical cols:
        // grid = ceil(25/8) x ceil(20/8) = 4 x 3.
        let w = pattern_matrix(20, 25);
        let mut t = TiledMatrix::program(&w, &test_config());
        assert_eq!(t.grid(), (4, 3));
        assert_eq!(t.array_count(), 24);
        let x = pattern_vec(25);
        let y = t.matvec(&x);
        assert_close(&y, &w.matvec(&x), 0.2);
    }

    #[test]
    fn negative_weights_and_inputs_handled() {
        let w = Matrix::from_vec(Shape2::new(2, 2), vec![-1.0, 0.5, 0.25, -0.75]);
        let mut t = TiledMatrix::program(&w, &test_config());
        let x = vec![-0.5, 1.0];
        let y = t.matvec(&x);
        assert_close(&y, &w.matvec(&x), 0.02);
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let w = pattern_matrix(6, 6);
        let mut t = TiledMatrix::program(&w, &test_config());
        let y = t.matvec(&[0.0; 6]);
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn vanishing_magnitudes_quantize_to_zero() {
        // Scales of 1e-42 underflow at 16 bits and fall back to 1.
        let cfg = CrossbarConfig::default();
        let tiny = Matrix::from_vec(Shape2::new(1, 3), vec![1e-42, 0.0, -1e-42]);
        let mut t = TiledMatrix::program(&tiny, &cfg);
        assert_eq!(t.matvec(&[1.0, 1.0, 1.0]), [0.0]);
        let mut t = TiledMatrix::program(&pattern_matrix(2, 3), &cfg);
        assert_eq!(t.matvec(&[1e-42, 0.0, -1e-42]), [0.0, 0.0]);
    }

    #[test]
    fn delta_update_from_zero_grid_refits() {
        let mut t = TiledMatrix::program(&Matrix::zeros(Shape2::new(2, 3)), &test_config());
        assert_eq!(t.reprogram_delta(&Matrix::zeros(Shape2::new(2, 3))), 0);
        let w = Matrix::from_fn(Shape2::new(2, 3), |r, c| 0.1 * (r + c) as f32 - 0.1);
        assert!(t.reprogram_delta(&w) > 0);
        let x = [1.0; 3];
        assert_close(&t.matvec(&x), &w.matvec(&x), 0.01);
    }

    #[test]
    fn identity_matrix_preserves_vector() {
        let w = Matrix::identity(8);
        let mut t = TiledMatrix::program(&w, &test_config());
        let x = pattern_vec(8);
        let y = t.matvec(&x);
        assert_close(&y, &x, 0.02);
    }

    #[test]
    fn reprogram_changes_results() {
        let w1 = Matrix::identity(4);
        let w2 = Matrix::from_fn(Shape2::new(4, 4), |r, c| if r == c { 2.0 } else { 0.0 });
        let mut t = TiledMatrix::program(&w1, &test_config());
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y1 = t.matvec(&x);
        t.reprogram(&w2);
        let y2 = t.matvec(&x);
        assert_eq!(t.reprogram_count(), 1);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((2.0 * a - b).abs() < 0.1, "{a} vs {b}");
        }
    }

    #[test]
    fn delta_reprogram_writes_only_changed_cells() {
        let w1 = pattern_matrix(6, 6);
        let mut t = TiledMatrix::program(&w1, &test_config());
        // Unchanged weights: zero pulses.
        assert_eq!(t.reprogram_delta(&w1.clone()), 0);
        // Change a single weight (within the existing full-scale range).
        let mut w2 = w1.clone();
        w2.set(2, 3, w2.at(2, 3) * 0.5);
        let pulses = t.reprogram_delta(&w2);
        // One weight = at most slices cells in each differential array.
        assert!(pulses >= 1 && pulses <= 2 * t.config().slices_per_weight() as u64);
        // Results follow the new weights.
        let x = pattern_vec(6);
        let y = t.matvec(&x);
        let want = w2.matvec(&x);
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn delta_reprogram_falls_back_on_range_growth() {
        let w1 = pattern_matrix(4, 4);
        let mut t = TiledMatrix::program(&w1, &test_config());
        // A weight far outside the old full-scale range forces a refit.
        let mut w2 = w1.clone();
        w2.set(0, 0, 100.0);
        let pulses = t.reprogram_delta(&w2);
        assert!(pulses > 0);
        let x = pattern_vec(4);
        let y = t.matvec(&x);
        let want = w2.matvec(&x);
        for (a, b) in y.iter().zip(&want) {
            // Coarser scale now (full range 100), so tolerance is wider.
            assert!((a - b).abs() < 2.0, "{a} vs {b}");
        }
    }

    #[test]
    fn delta_cheaper_than_full_reprogram() {
        let w1 = pattern_matrix(20, 25);
        let mut full = TiledMatrix::program(&w1, &test_config());
        let mut delta = TiledMatrix::program(&w1, &test_config());
        // Small update: perturb 3 weights slightly.
        let mut w2 = w1.clone();
        for (r, c) in [(0, 0), (5, 7), (19, 24)] {
            w2.set(r, c, w2.at(r, c) + 0.01);
        }
        let writes_before_full = full.total_writes();
        full.reprogram(&w2);
        let full_writes = full.total_writes() - writes_before_full;
        let writes_before_delta = delta.total_writes();
        let _ = delta.reprogram_delta(&w2);
        let delta_writes = delta.total_writes() - writes_before_delta;
        assert!(
            delta_writes * 10 < full_writes,
            "delta {delta_writes} vs full {full_writes}"
        );
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn matvec_rejects_wrong_len() {
        let mut t = TiledMatrix::program(&Matrix::identity(4), &test_config());
        let _ = t.matvec(&[1.0; 5]);
    }

    #[test]
    fn matmul_rows_batches() {
        let w = pattern_matrix(5, 7);
        let mut t = TiledMatrix::program(&w, &test_config());
        let xs = Matrix::from_fn(Shape2::new(3, 7), |r, c| ((r + c) % 5) as f32 / 5.0 - 0.4);
        let ys = t.matmul_rows(&xs);
        assert_eq!(ys.shape(), Shape2::new(3, 5));
        for r in 0..3 {
            assert_close(ys.row(r), &w.matvec(xs.row(r)), 0.1);
        }
    }

    #[test]
    fn paper_fig4_balanced_grid() {
        // Fig. 4(b): an 1152x256 matrix divided into 18 (= 9 x 2) groups of
        // 128x128 arrays. Our grid counts tiles the same way (the paper's
        // figure counts the differential pair as one group).
        let cfg = CrossbarConfig {
            weight_bits: 4,
            cell_bits: 4,
            ..CrossbarConfig::default()
        }; // 1 slice/weight: 128 logical cols
        let w = Matrix::zeros(Shape2::new(256, 1152));
        let t = TiledMatrix::program(&w, &cfg);
        assert_eq!(t.grid(), (9, 2));
        assert_eq!(t.grid().0 * t.grid().1, 18);
    }

    #[test]
    fn tiled_matrix_is_send() {
        // Grids move between threads in fleet-style sweeps (C-SEND-SYNC).
        fn assert_send<T: Send>() {}
        assert_send::<TiledMatrix>();
    }

    #[test]
    fn noisy_grid_close_to_ideal() {
        let w = pattern_matrix(10, 12);
        let ideal_cfg = test_config();
        let noisy_cfg = test_config().with_noise(0.01, 0.01, 3);
        let mut ti = TiledMatrix::program(&w, &ideal_cfg);
        let mut tn = TiledMatrix::program(&w, &noisy_cfg);
        let x = pattern_vec(12);
        let yi = ti.matvec(&x);
        let yn = tn.matvec(&x);
        for (a, b) in yi.iter().zip(&yn) {
            assert!((a - b).abs() < 0.5, "ideal {a} vs noisy {b}");
        }
    }

    #[test]
    fn noisy_grid_bits_do_not_depend_on_array_call_order() {
        // Swapping every differential pair makes each product call the
        // former negative array of a pair first and merge it with the
        // opposite sign. Each array still sees the same calls, so every
        // output is the exact negation.
        let cfg = test_config()
            .with_noise(0.05, 0.05, 4)
            .with_faults(0.02, 0.02, 4);
        let mut grid = TiledMatrix::program(&pattern_matrix(20, 25), &cfg);
        let mut swapped = grid.clone();
        std::mem::swap(&mut swapped.pos, &mut swapped.neg);
        for salt in 0..3 {
            let x: Vec<f32> = pattern_vec(25 + salt).split_off(salt);
            let negated: Vec<f32> = swapped.matvec(&x).iter().map(|v| -v).collect();
            assert_eq!(grid.matvec(&x), negated);
        }
    }

    /// What one program → matvec → reprogram → matvec → in-range delta →
    /// matvec → fallback delta → matvec → `matmul_rows` sequence produces.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct Trace {
        outputs: Vec<Vec<u32>>,
        pulses: Vec<u64>,
        spikes: Vec<u64>,
        mvms: Vec<Vec<u64>>,
        writes: u64,
    }

    fn observe(t: &TiledMatrix, trace: &mut Trace, y: &[f32]) {
        trace.outputs.push(y.iter().map(|v| v.to_bits()).collect());
        trace.spikes.push(t.total_spikes());
        let mvms = t.pos.iter().chain(&t.neg).map(CrossbarArray::mvm_count);
        trace.mvms.push(mvms.collect());
    }

    /// Drives the sequence on `t`. With `bit_serial`, the fold is dropped
    /// right after programming, so every product takes the bit-serial
    /// reference path of the same cells.
    fn drive(mut t: TiledMatrix, bit_serial: bool, weights: &[Matrix; 3], xs: &Matrix) -> Trace {
        if bit_serial {
            t.folded = None;
        }
        let mut trace = Trace::default();
        let x = xs.row(0);
        let y = t.matvec(x);
        observe(&t, &mut trace, &y);
        t.reprogram(&weights[0]);
        let y = t.matvec(x);
        observe(&t, &mut trace, &y);
        for w in &weights[1..] {
            trace.pulses.push(t.reprogram_delta(w));
            let y = t.matvec(x);
            observe(&t, &mut trace, &y);
        }
        let ys = t.matmul_rows(xs);
        observe(&t, &mut trace, ys.data());
        trace.writes = t.total_writes();
        trace
    }

    /// Signed values in `[-1, 1]`, a quarter of them exactly zero.
    fn signed(rng: &mut StdRng) -> f32 {
        if rng.gen_bool(0.25) {
            0.0
        } else {
            rng.gen_range(-1.0f32..=1.0)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// On ideal devices, faults allowed, the folded product is bit
        /// for bit the bit-serial one, with the same spike, MVM, pulse,
        /// write and telemetry counts, through every way of writing cells.
        #[test]
        fn folded_product_is_bit_identical_to_bit_serial(
            cell_bits in 1u32..=8,
            weight_bits in 2u32..=32,
            input_bits in 2u32..=32,
            rows in 1usize..=9,
            logical_cols in 1usize..=3,
            spare_cols in 0usize..=3,
            out_dim in 1usize..=9,
            in_dim in 1usize..=20,
            stuck_off in 0.0f64..0.25,
            stuck_on in 0.0f64..0.25,
            seed in 0u64..u64::MAX,
        ) {
            let slices = weight_bits.div_ceil(cell_bits) as usize;
            let config = CrossbarConfig {
                rows,
                cols: slices * logical_cols + spare_cols,
                cell_bits,
                weight_bits,
                input_bits,
                ..CrossbarConfig::default()
            }
            .with_faults(stuck_off, stuck_on, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let shape = Shape2::new(out_dim, in_dim);
            let w1 = Matrix::from_fn(shape, |_, _| signed(&mut rng));
            let w2 = Matrix::from_fn(shape, |_, _| signed(&mut rng));
            // In range: every weight halved, negated or kept, the largest
            // halved so none can pass the full scale.
            let big = w2.data().iter().map(|v| v.abs()).fold(0.0f32, f32::max);
            let mut w3 = w2.clone();
            for v in w3.data_mut() {
                *v = match rng.gen_range(0..3) {
                    _ if v.abs() == big => *v * 0.5,
                    0 => *v * 0.5,
                    1 => -*v,
                    _ => *v,
                };
            }
            // Past the full scale: the full-reprogram fallback.
            let mut w4 = w3.clone();
            w4.set(rng.gen_range(0..out_dim), rng.gen_range(0..in_dim), 4.0);
            // Rows: mixed signs, one silent row tile, non-negative only,
            // all zero.
            let xs = Matrix::from_fn(Shape2::new(4, in_dim), |r, c| match r {
                1 if c < rows => 0.0,
                2 => signed(&mut rng).abs(),
                3 => 0.0,
                _ => signed(&mut rng),
            });
            let weights = [w2, w3, w4];
            let grid = TiledMatrix::program(&w1, &config);
            prop_assert!(grid.folded.is_some());
            let (fast, fast_counts) = counted(|| drive(grid.clone(), false, &weights, &xs));
            let (slow, slow_counts) = counted(|| drive(grid, true, &weights, &xs));
            prop_assert_eq!(fast, slow);
            prop_assert_eq!(fast_counts, slow_counts);
        }
    }

    #[test]
    fn noisy_grid_keeps_no_fold() {
        let w = pattern_matrix(3, 4);
        for cfg in [
            test_config().with_noise(0.01, 0.0, 1),
            test_config().with_noise(0.0, 0.01, 1),
        ] {
            assert!(TiledMatrix::program(&w, &cfg).folded.is_none());
        }
        assert!(
            TiledMatrix::program(&w, &test_config().with_faults(0.1, 0.1, 1))
                .folded
                .is_some()
        );
    }
}
