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
    weight_quant: Quantizer,
    row_tiles: usize,
    col_tiles: usize,
    /// `pos[rt * col_tiles + ct]` and the matching `neg` array hold the
    /// magnitudes of positive / negative weights of that tile.
    pos: Vec<CrossbarArray>,
    neg: Vec<CrossbarArray>,
    reprogram_count: u64,
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
            weight_quant: Quantizer::fit(config.weight_bits, w.abs_max()),
            row_tiles,
            col_tiles,
            pos: Vec::with_capacity(row_tiles * col_tiles),
            neg: Vec::with_capacity(row_tiles * col_tiles),
            reprogram_count: 0,
        };
        for i in 0..row_tiles * col_tiles {
            // Vary the noise seed per array so variations are independent.
            let mut cfg = config.clone();
            cfg.noise_seed = config.noise_seed.wrapping_add(2 * i as u64);
            this.pos.push(CrossbarArray::new(&cfg));
            cfg.noise_seed = config.noise_seed.wrapping_add(2 * i as u64 + 1);
            this.neg.push(CrossbarArray::new(&cfg));
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
        self.weight_quant = Quantizer::fit(self.config.weight_bits, w.abs_max());
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
    /// range the grid falls back to a full reprogram with a refitted scale.
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
        let full_scale = self.weight_quant.dequantize(self.weight_quant.q_max());
        if w.abs_max() > full_scale {
            let cells = (self.config.rows * self.config.cols) as u64
                * 2
                * (self.row_tiles * self.col_tiles) as u64;
            self.reprogram(w);
            return cells;
        }
        self.reprogram_count += 1;
        telemetry::record(Event::WeightUpdate, 1);
        // The walk reads the grid geometry while the sink tunes the arrays.
        let (mut pos, mut neg) = (std::mem::take(&mut self.pos), std::mem::take(&mut self.neg));
        let mut pulses = 0u64;
        self.for_each_cell(w, |idx, r, col, p, n| {
            for (array, level) in [(&mut pos[idx], p), (&mut neg[idx], n)] {
                if array.level_at(r, col) != level {
                    array.program_cell(r, col, level);
                    pulses += 1;
                }
            }
        });
        (self.pos, self.neg) = (pos, neg);
        pulses
    }

    /// Programs every array from `w` in full: mapped cells get their
    /// levels, every other cell level 0.
    fn write_levels(&mut self, w: &Matrix) {
        let cells = self.config.rows * self.config.cols;
        let mut pos_levels = vec![0u32; self.pos.len() * cells];
        let mut neg_levels = vec![0u32; self.neg.len() * cells];
        let cols = self.config.cols;
        self.for_each_cell(w, |idx, r, col, p, n| {
            pos_levels[idx * cells + r * cols + col] = p;
            neg_levels[idx * cells + r * cols + col] = n;
        });
        let levels = pos_levels.chunks(cells).zip(neg_levels.chunks(cells));
        for ((pos, neg), (p, n)) in self.pos.iter_mut().zip(&mut self.neg).zip(levels) {
            pos.program(p);
            neg.program(n);
        }
    }

    /// The one place cell levels come from weights. Quantizes `w` with the
    /// grid's current scale, splits each weight into its differential pair
    /// and bit slices, and calls `visit(array, wordline, bitline, pos, neg)`
    /// for every mapped cell. Arrays come in grid order
    /// (`rt * col_tiles + ct`) and each array's cells in row-major order —
    /// the order its device RNG draws programming variation in.
    fn for_each_cell(&self, w: &Matrix, mut visit: impl FnMut(usize, usize, usize, u32, u32)) {
        let slices = self.config.slices_per_weight();
        let cell_bits = self.config.cell_bits;
        let logical_cols = self.config.logical_cols();
        let rows = self.config.rows;
        for rt in 0..self.row_tiles {
            for ct in 0..self.col_tiles {
                let idx = rt * self.col_tiles + ct;
                for r in 0..rows {
                    let in_idx = rt * rows + r;
                    if in_idx >= self.in_dim {
                        break;
                    }
                    for j in 0..logical_cols {
                        let out_idx = ct * logical_cols + j;
                        if out_idx >= self.out_dim {
                            break;
                        }
                        let q = self.weight_quant.quantize(w.at(out_idx, in_idx));
                        let (p, n) = differential_split(q);
                        let p = slice_magnitude(p, cell_bits, slices);
                        let n = slice_magnitude(n, cell_bits, slices);
                        for (k, (&ps, &ns)) in p.iter().zip(&n).enumerate() {
                            visit(idx, r, j * slices + k, ps, ns);
                        }
                    }
                }
            }
        }
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
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn matvec(&mut self, x: &[f32]) -> Vec<f32> {
        assert_eq!(
            x.len(),
            self.in_dim,
            "matvec: input length {} vs in_dim {}",
            x.len(),
            self.in_dim
        );
        let abs_max = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let input_quant = Quantizer::fit(self.config.input_bits, abs_max);
        let codes: Vec<i64> = x.iter().map(|&v| input_quant.quantize(v)).collect();

        let mut acc = vec![0i128; self.out_dim];
        // Two polarity passes: positive input magnitudes add, negative subtract.
        for (sign, polarity_codes) in [
            (
                1i128,
                codes.iter().map(|&q| q.max(0) as u64).collect::<Vec<_>>(),
            ),
            (
                -1i128,
                codes
                    .iter()
                    .map(|&q| (-q).max(0) as u64)
                    .collect::<Vec<_>>(),
            ),
        ] {
            if polarity_codes.iter().all(|&c| c == 0) {
                continue;
            }
            self.accumulate_polarity(&polarity_codes, sign, &mut acc);
        }

        let scale = self.weight_quant.scale() * input_quant.scale();
        acc.iter().map(|&v| v as f32 * scale).collect()
    }

    fn accumulate_polarity(&mut self, codes: &[u64], sign: i128, acc: &mut [i128]) {
        let rows = self.config.rows;
        let slices = self.config.slices_per_weight();
        let cell_bits = self.config.cell_bits;
        let logical_cols = self.config.logical_cols();
        let input_bits = self.config.input_bits;

        for rt in 0..self.row_tiles {
            // Chunk of the input vector on this tile's wordlines, zero-padded.
            let mut chunk = vec![0u64; rows];
            for r in 0..rows {
                let idx = rt * rows + r;
                if idx < self.in_dim {
                    chunk[r] = codes[idx];
                }
            }
            if chunk.iter().all(|&c| c == 0) {
                continue;
            }
            for ct in 0..self.col_tiles {
                let idx = rt * self.col_tiles + ct;
                let p = self.pos[idx].mvm_codes(&chunk, input_bits);
                let n = self.neg[idx].mvm_codes(&chunk, input_bits);
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
                    acc[out_idx] += sign * partial;
                }
            }
        }
    }

    /// Batched product: one [`matvec`](Self::matvec) per row of `xs`.
    ///
    /// `xs` is `(batch × in)`; the result is `(batch × out)`.
    ///
    /// # Panics
    ///
    /// Panics if `xs.cols() != self.in_dim()`.
    pub fn matmul_rows(&mut self, xs: &Matrix) -> Matrix {
        let mut out = Vec::with_capacity(xs.rows() * self.out_dim);
        for r in 0..xs.rows() {
            out.extend(self.matvec(xs.row(r)));
        }
        Matrix::from_vec(reram_tensor::Shape2::new(xs.rows(), self.out_dim), out)
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
}
