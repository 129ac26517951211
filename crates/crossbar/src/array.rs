//! A single ReRAM crossbar array — paper Fig. 3(a, b).
//!
//! "The vector is represented by the input signals on the wordlines. Each
//! element of the matrix is programmed into the cell conductance in the
//! crossbar array. Thus, the current flowing to the end of each bitline is
//! viewed as the result of the matrix-vector multiplication."

use crate::device::{ReramCell, ReramDeviceModel};
use crate::CrossbarConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reram_telemetry::{self as telemetry, Event};

/// Fixed-geometry crossbar of ReRAM cells with bit-serial analog MVM.
///
/// Cells are stored row-major: `cells[r * cols + c]` sits at wordline `r`,
/// bitline `c`. The array is unsigned — sign handling lives one level up in
/// [`crate::tile::TiledMatrix`] via differential array pairs.
///
/// Stuck-at cell faults (manufacturing defects / worn-out cells) are drawn
/// once at construction and persist: a stuck cell ignores every subsequent
/// programming pulse and always presents its stuck conductance.
#[derive(Debug, Clone)]
pub struct CrossbarArray {
    rows: usize,
    cols: usize,
    cells: Vec<ReramCell>,
    /// Per-cell stuck level (`None` = healthy).
    stuck: Vec<Option<u32>>,
    device: ReramDeviceModel,
    /// Bitlines `0..mapped_cols` carry weights; the kernel sums and senses
    /// only these.
    mapped_cols: usize,
    mvm_count: u64,
    spike_count: u64,
}

impl CrossbarArray {
    /// Creates an array with all cells programmed to level 0, every
    /// bitline mapped.
    pub fn new(config: &CrossbarConfig) -> Self {
        let mut device = ReramDeviceModel::new(
            config.cell_bits,
            config.write_sigma,
            config.read_sigma,
            config.noise_seed,
        );
        let max_level = device.max_level();
        let stuck: Vec<Option<u32>> = if config.stuck_off_rate > 0.0 || config.stuck_on_rate > 0.0 {
            // Drawn once, from an RNG of their own: the variation and read
            // draws are keyed by event and never touch it.
            let mut rng =
                StdRng::seed_from_u64(config.noise_seed.wrapping_mul(0x51_7c_c1_b7_27_22_0a_95));
            (0..config.rows * config.cols)
                .map(|_| {
                    let r: f64 = rng.gen();
                    if r < config.stuck_off_rate {
                        Some(0)
                    } else if r < config.stuck_off_rate + config.stuck_on_rate {
                        Some(max_level)
                    } else {
                        None
                    }
                })
                .collect()
        } else {
            vec![None; config.rows * config.cols]
        };
        let mut cells = vec![ReramCell::default(); stuck.len()];
        for (i, (cell, s)) in cells.iter_mut().zip(&stuck).enumerate() {
            device.program(cell, i, s.unwrap_or(0));
        }
        Self {
            rows: config.rows,
            cols: config.cols,
            cells,
            stuck,
            device,
            mapped_cols: config.cols,
            mvm_count: 0,
            spike_count: 0,
        }
    }

    /// The same array with only bitlines `0..cols` mapped: `mvm_codes`
    /// neither sums nor senses the others, and reports 0 for them.
    ///
    /// # Panics
    ///
    /// Panics if `cols` exceeds the array's bitlines.
    pub(crate) fn with_mapped_cols(mut self, cols: usize) -> Self {
        assert!(cols <= self.cols, "{cols} mapped bitlines of {}", self.cols);
        self.mapped_cols = cols;
        self
    }

    /// Number of stuck (faulty) cells in this array.
    pub fn fault_count(&self) -> usize {
        self.stuck.iter().filter(|s| s.is_some()).count()
    }

    /// Wordline count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bitline count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Programs the whole array from row-major levels.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != rows * cols` or any level exceeds the
    /// device range.
    pub fn program(&mut self, levels: &[u32]) {
        assert_eq!(
            levels.len(),
            self.rows * self.cols,
            "program: {} levels for a {}x{} array",
            levels.len(),
            self.rows,
            self.cols
        );
        let cells = self.cells.iter_mut().zip(levels).zip(&self.stuck);
        for (i, ((cell, &l), s)) in cells.enumerate() {
            self.device.program(cell, i, s.unwrap_or(l));
        }
    }

    /// Programs a single cell (used by in-place weight updates).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range or the level too large.
    pub fn program_cell(&mut self, row: usize, col: usize, level: u32) {
        assert!(
            row < self.rows && col < self.cols,
            "cell ({row},{col}) out of range"
        );
        let i = row * self.cols + col;
        let effective = self.stuck[i].unwrap_or(level);
        self.device.program(&mut self.cells[i], i, effective);
    }

    /// The digital level currently programmed at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn level_at(&self, row: usize, col: usize) -> u32 {
        assert!(
            row < self.rows && col < self.cols,
            "cell ({row},{col}) out of range"
        );
        self.cells[row * self.cols + col].level()
    }

    /// Full spike-coded matrix-vector multiplication: the spike driver and
    /// integrate-and-fire (I&F) readout of §III-A.3 (a, b).
    ///
    /// `codes` holds one unsigned input code per driven wordline; wordlines
    /// past `codes.len()` stay idle. Frame `t` of `input_bits` fires every
    /// wordline whose code has bit `t` set and sums the active cells'
    /// conductances on each mapped bitline. The device adds the frame's
    /// read noise (keyed by this call's index, the frame and the bitline),
    /// I&F converts each current to a spike count, and the counts merge
    /// with weight `2^t`. Returns one count per bitline:
    /// `y_c = Σ_t 2^t · IF(Σ_r g[r][c] · bit_t(x_r) + noise)`, and 0 on
    /// bitlines that are not mapped.
    ///
    /// # Panics
    ///
    /// Panics if there are more codes than rows or a code exceeds
    /// `input_bits`.
    pub fn mvm_codes(&mut self, codes: &[u64], input_bits: u32) -> Vec<u64> {
        let call = self.mvm_count;
        self.record_mvm(codes, input_bits);
        let mapped = self.mapped_cols;
        let mut acc = vec![0u64; self.cols];
        let mut currents = vec![0.0f64; mapped];
        for t in 0..input_bits {
            currents.fill(0.0);
            for (row, &code) in self.cells.chunks_exact(self.cols).zip(codes) {
                if (code >> t) & 1 == 1 {
                    for (cur, cell) in currents.iter_mut().zip(row) {
                        *cur += cell.conductance();
                    }
                }
            }
            self.device.add_read_noise(call, t, &mut currents);
            for (a, &cur) in acc.iter_mut().zip(&currents) {
                *a += integrate_fire(cur) * (1 << t);
            }
        }
        acc
    }

    /// Books one spike-coded MVM over `codes`: the array's MVM and spike
    /// counters and the telemetry of its closed-form circuit activity. The
    /// bit-serial [`mvm_codes`](Self::mvm_codes) and the folded exact path
    /// of [`crate::tile::TiledMatrix`] both book through here, so their
    /// counts cannot drift apart.
    ///
    /// `codes` are the driven wordlines' input codes; wordlines past them
    /// stay idle. Every one of the `rows` wordlines still gets one DAC drive, each of the `input_bits` frames
    /// one I&F conversion per bitline, and every set code bit one spike.
    ///
    /// # Panics
    ///
    /// Panics if there are more codes than rows or a code needs more than
    /// `input_bits` bits.
    pub(crate) fn record_mvm(&mut self, codes: &[u64], input_bits: u32) {
        assert!(
            codes.len() <= self.rows,
            "{} codes for {} rows",
            codes.len(),
            self.rows
        );
        let limit = if input_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << input_bits) - 1
        };
        let mut spikes = 0u64;
        for &c in codes {
            assert!(c <= limit, "code {c} exceeds {input_bits} input bits");
            spikes += u64::from(c.count_ones());
        }
        self.mvm_count += 1;
        self.spike_count += spikes;
        let frames = u64::from(input_bits);
        // Batched: one recorder acquisition for the whole MVM.
        telemetry::with_recorder(|t| {
            t.record(Event::CrossbarMvm, 1);
            t.record(Event::SpikeFrame, frames);
            t.record(Event::DacConversion, self.rows as u64);
            t.record(Event::AdcConversion, frames * self.cols as u64);
        });
    }

    /// Number of MVM operations performed.
    pub fn mvm_count(&self) -> u64 {
        self.mvm_count
    }

    /// Number of wordline spikes driven (dynamic energy proxy).
    pub fn spike_count(&self) -> u64 {
        self.spike_count
    }

    /// Number of cell programming operations (endurance proxy).
    pub fn write_count(&self) -> u64 {
        self.device.write_count()
    }
}

/// I&F conversion of one frame's integrated bitline current into a spike
/// count: rounded to the nearest unit and clamped at zero. An ideal
/// device's frame current is an exact integer, so the count is exact; with
/// noise this rounding is the quantization the physical I&F applies.
fn integrate_fire(current: f64) -> u64 {
    current.round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::counted;
    use reram_telemetry::EVENT_COUNT;

    fn small_config() -> CrossbarConfig {
        CrossbarConfig {
            rows: 4,
            cols: 4,
            cell_bits: 4,
            weight_bits: 4,
            input_bits: 4,
            ..CrossbarConfig::default()
        }
    }

    #[test]
    fn new_array_is_all_zero() {
        let mut a = CrossbarArray::new(&small_config());
        let y = a.mvm_codes(&[15, 15, 15, 15], 4);
        assert!(y.iter().all(|&v| v == 0));
    }

    #[test]
    fn program_and_read_back_levels() {
        let mut a = CrossbarArray::new(&small_config());
        let levels: Vec<u32> = (0..16).collect();
        a.program(&levels);
        assert_eq!(a.level_at(0, 0), 0);
        assert_eq!(a.level_at(3, 3), 15);
        assert_eq!(a.level_at(1, 2), 6);
    }

    #[test]
    fn frame_t_sums_active_rows_with_weight_two_to_the_t() {
        let mut a = CrossbarArray::new(&small_config());
        let levels: Vec<u32> = (0..16).collect();
        a.program(&levels);
        for t in 0..4 {
            // Rows 0 and 2 fire in frame t only; row 3 stays idle.
            let y = a.mvm_codes(&[1 << t, 0, 1 << t], 4);
            for c in 0..4 {
                assert_eq!(y[c], ((c + (8 + c)) << t) as u64);
            }
        }
    }

    #[test]
    fn integrate_fire_rounds_and_clamps() {
        assert_eq!(integrate_fire(3.4), 3);
        assert_eq!(integrate_fire(3.6), 4);
        assert_eq!(integrate_fire(2.5), 3);
        assert_eq!(integrate_fire(-0.7), 0);
        for i in 0..100u64 {
            assert_eq!(integrate_fire(i as f64), i);
        }
    }

    #[test]
    fn mvm_codes_computes_integer_product() {
        let mut a = CrossbarArray::new(&small_config());
        // g = row-major 4x4 matrix of levels.
        let g = [1u32, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0];
        a.program(&g);
        let x = [3u64, 0, 7, 15];
        let y = a.mvm_codes(&x, 4);
        for c in 0..4 {
            let want: u64 = (0..4).map(|r| g[r * 4 + c] as u64 * x[r]).sum();
            assert_eq!(y[c], want, "column {c}");
        }
    }

    #[test]
    fn mvm_is_exact_for_max_inputs() {
        let mut a = CrossbarArray::new(&small_config());
        a.program(&[15u32; 16]);
        let y = a.mvm_codes(&[15; 4], 4);
        // Every column: 4 rows * 15 * 15 = 900.
        assert!(y.iter().all(|&v| v == 900));
    }

    #[test]
    fn counters_accumulate() {
        let mut a = CrossbarArray::new(&small_config());
        a.program(&[1; 16]);
        let _ = a.mvm_codes(&[0b1010, 0b0101, 0, 0b1111], 4);
        assert_eq!(a.mvm_count(), 1);
        // spikes = popcount sum = 2 + 2 + 0 + 4 = 8
        assert_eq!(a.spike_count(), 8);
        // writes = initial 16 + programmed 16
        assert_eq!(a.write_count(), 32);
        // Zero codes fire no spike and read nothing.
        assert_eq!(a.mvm_codes(&[0; 4], 4), [0; 4]);
        assert_eq!((a.mvm_count(), a.spike_count()), (2, 8));
    }

    /// Two calls of `codes` on a fresh, programmed array: both outputs (the
    /// second keyed by the next call index), the MVM and spike counts, and
    /// the telemetry tallies.
    fn twice(cfg: &CrossbarConfig, codes: &[u64]) -> (Vec<Vec<u64>>, u64, u64, [u64; EVENT_COUNT]) {
        let mut a = CrossbarArray::new(cfg);
        a.program(&(0..16).collect::<Vec<u32>>());
        let (ys, counts) = counted(|| vec![a.mvm_codes(codes, 4), a.mvm_codes(codes, 4)]);
        (ys, a.mvm_count(), a.spike_count(), counts)
    }

    #[test]
    fn short_code_slice_matches_its_zero_padded_form() {
        let noisy_faulty = small_config()
            .with_noise(0.05, 0.05, 9)
            .with_faults(0.2, 0.2, 9);
        for cfg in [small_config(), noisy_faulty] {
            assert_eq!(twice(&cfg, &[5, 12]), twice(&cfg, &[5, 12, 0, 0]));
        }
    }

    #[test]
    fn mapped_bitlines_read_what_the_full_array_reads() {
        // Sensing fewer bitlines skips their draws and nothing else: every
        // mapped count of every call, and every count booked, is the full
        // array's.
        let cfg = small_config()
            .with_noise(0.3, 0.4, 3)
            .with_faults(0.1, 0.1, 3);
        let mut full = CrossbarArray::new(&cfg);
        full.program(&(0..16).map(|l| l % 7 + 4).collect::<Vec<u32>>());
        for mapped in 0..=4 {
            let mut part = full.clone().with_mapped_cols(mapped);
            let mut whole = full.clone();
            for codes in [[9u64, 3, 14, 6], [15, 0, 1, 8], [9, 3, 14, 6]] {
                let (y, counts) = counted(|| part.mvm_codes(&codes, 4));
                let (want, want_counts) = counted(|| whole.mvm_codes(&codes, 4));
                assert_eq!(y[..mapped], want[..mapped]);
                assert!(y[mapped..].iter().all(|&v| v == 0));
                assert_eq!(counts, want_counts);
            }
            assert_eq!(part.mvm_count(), whole.mvm_count());
        }
    }

    #[test]
    fn read_noise_moves_with_the_call_index() {
        // Equal codes on equal cells read different noise in the next call,
        // and a clone replays both calls bit for bit.
        let cfg = small_config().with_noise(0.0, 0.4, 5);
        let mut a = CrossbarArray::new(&cfg);
        a.program(&[10; 16]);
        let mut b = a.clone();
        let first = a.mvm_codes(&[15; 4], 4);
        let second = a.mvm_codes(&[15; 4], 4);
        assert_ne!(first, second);
        assert_eq!(b.mvm_codes(&[15; 4], 4), first);
        assert_eq!(b.mvm_codes(&[15; 4], 4), second);
    }

    #[test]
    #[should_panic(expected = "exceeds 4 input bits")]
    fn mvm_rejects_oversized_code() {
        let mut a = CrossbarArray::new(&small_config());
        let _ = a.mvm_codes(&[16], 4);
    }

    #[test]
    fn noisy_array_stays_close_to_ideal() {
        let cfg = small_config().with_noise(0.02, 0.02, 5);
        let mut noisy = CrossbarArray::new(&cfg);
        let mut ideal = CrossbarArray::new(&small_config());
        let g: Vec<u32> = (0..16).map(|i| (i * 3) % 16).collect();
        noisy.program(&g);
        ideal.program(&g);
        let x = [7u64, 3, 15, 1];
        let yn = noisy.mvm_codes(&x, 4);
        let yi = ideal.mvm_codes(&x, 4);
        for (a, b) in yn.iter().zip(&yi) {
            let diff = (*a as i64 - *b as i64).abs();
            assert!(diff <= 16, "noisy {a} vs ideal {b}");
        }
    }

    #[test]
    #[should_panic(expected = "5 codes for 4 rows")]
    fn more_codes_than_rows_panics() {
        let mut a = CrossbarArray::new(&small_config());
        let _ = a.mvm_codes(&[1, 2, 3, 4, 5], 4);
    }

    #[test]
    fn fault_free_array_has_no_stuck_cells() {
        let a = CrossbarArray::new(&small_config());
        assert_eq!(a.fault_count(), 0);
    }

    #[test]
    fn fault_rate_statistics() {
        let cfg = CrossbarConfig {
            rows: 64,
            cols: 64,
            ..CrossbarConfig::default()
        }
        .with_faults(0.05, 0.05, 17);
        let a = CrossbarArray::new(&cfg);
        let rate = a.fault_count() as f64 / (64.0 * 64.0);
        assert!((rate - 0.10).abs() < 0.03, "fault rate {rate}");
    }

    #[test]
    fn stuck_cells_ignore_programming() {
        let cfg = small_config().with_faults(0.5, 0.0, 23);
        let mut a = CrossbarArray::new(&cfg);
        let faults_before = a.fault_count();
        assert!(faults_before > 0, "need at least one stuck cell");
        a.program(&[15u32; 16]);
        // Stuck-off cells still read level 0 after programming to 15.
        let zeros = (0..4)
            .flat_map(|r| (0..4).map(move |c| (r, c)))
            .filter(|&(r, c)| a.level_at(r, c) == 0)
            .count();
        assert_eq!(zeros, faults_before);
    }

    #[test]
    fn stuck_on_cells_add_current() {
        let cfg = small_config().with_faults(0.0, 0.5, 29);
        let mut a = CrossbarArray::new(&cfg);
        // Without programming anything, stuck-on cells conduct at max.
        let y = a.mvm_codes(&[1, 1, 1, 1], 4);
        let total: u64 = y.iter().sum();
        assert_eq!(total, a.fault_count() as u64 * 15);
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        let cfg = small_config().with_faults(0.3, 0.1, 31);
        let a = CrossbarArray::new(&cfg);
        let b = CrossbarArray::new(&cfg);
        assert_eq!(a.fault_count(), b.fault_count());
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(a.level_at(r, c), b.level_at(r, c));
            }
        }
    }

    #[test]
    fn program_cell_updates_single_weight() {
        let mut a = CrossbarArray::new(&small_config());
        a.program_cell(2, 1, 9);
        assert_eq!(a.level_at(2, 1), 9);
        assert_eq!(a.level_at(2, 2), 0);
    }
}
