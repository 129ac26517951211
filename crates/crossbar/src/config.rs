use serde::{Deserialize, Serialize};

/// Geometry and precision configuration of a ReRAM crossbar subsystem.
///
/// Defaults follow the published component budgets of the PipeLayer/ISAAC
/// line of work: 128×128 arrays (the subarray size of the paper's Fig. 4
/// balanced mapping), 4-bit cells, 16-bit weights sliced across four cells,
/// and 16 bit-serial input spike cycles per MVM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossbarConfig {
    /// Wordlines per array (input vector slice length).
    pub rows: usize,
    /// Physical bitlines per array.
    pub cols: usize,
    /// Bits stored per ReRAM cell (conductance levels = `2^cell_bits`).
    pub cell_bits: u32,
    /// Bits per weight magnitude; sliced across `weight_bits / cell_bits`
    /// adjacent bitlines.
    pub weight_bits: u32,
    /// Bits per input value; applied bit-serially as spikes over
    /// `input_bits` cycles (the weighted spike coding of \[9\]).
    pub input_bits: u32,
    /// Standard deviation of programming (write) variation, as a fraction of
    /// one conductance level. `0.0` gives an ideal device.
    pub write_sigma: f64,
    /// Standard deviation of read (bitline current) noise, as a fraction of
    /// one unit cell current. `0.0` gives an ideal readout.
    pub read_sigma: f64,
    /// Fraction of cells stuck at the lowest conductance (stuck-at-off
    /// manufacturing/endurance faults). `0.0` gives a fault-free array.
    pub stuck_off_rate: f64,
    /// Fraction of cells stuck at the highest conductance (stuck-at-on).
    pub stuck_on_rate: f64,
    /// Seed of device variation, read noise and stuck-at faults, so noisy
    /// experiments reproduce.
    pub noise_seed: u64,
}

impl CrossbarConfig {
    /// Configuration with all non-idealities disabled (exact fixed-point
    /// arithmetic). This is the reference configuration used by the
    /// functional experiments.
    pub fn ideal() -> Self {
        Self::default()
    }

    /// Same configuration with device variation and read noise enabled.
    pub fn with_noise(mut self, write_sigma: f64, read_sigma: f64, seed: u64) -> Self {
        self.write_sigma = write_sigma;
        self.read_sigma = read_sigma;
        self.noise_seed = seed;
        self
    }

    /// Same configuration with stuck-at cell faults enabled.
    pub fn with_faults(mut self, stuck_off_rate: f64, stuck_on_rate: f64, seed: u64) -> Self {
        self.stuck_off_rate = stuck_off_rate;
        self.stuck_on_rate = stuck_on_rate;
        self.noise_seed = seed;
        self
    }

    /// Same configuration with a different array geometry.
    pub fn with_array_size(mut self, rows: usize, cols: usize) -> Self {
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Whether the devices add neither write variation nor read noise.
    /// Stuck-at faults may still be present.
    pub(crate) fn is_noiseless(&self) -> bool {
        self.write_sigma == 0.0 && self.read_sigma == 0.0
    }

    /// Number of cells (physical bitlines) a single weight occupies.
    pub fn slices_per_weight(&self) -> usize {
        debug_assert!(self.cell_bits > 0);
        self.weight_bits.div_ceil(self.cell_bits) as usize
    }

    /// Logical (weight) columns available per physical array.
    ///
    /// # Panics
    ///
    /// Panics if the array is narrower than one weight slice group.
    pub fn logical_cols(&self) -> usize {
        let s = self.slices_per_weight();
        assert!(
            self.cols >= s,
            "array has {} bitlines but one weight needs {s}",
            self.cols
        );
        self.cols / s
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    #[must_use = "the validation outcome must be checked"]
    pub fn validate(&self) -> Result<(), String> {
        if self.rows == 0 || self.cols == 0 {
            return Err("array geometry must be non-zero".into());
        }
        if self.cell_bits == 0 || self.cell_bits > 8 {
            return Err(format!("cell_bits {} outside 1..=8", self.cell_bits));
        }
        // One bit of each quantized width is the sign.
        if !(2..=32).contains(&self.weight_bits) {
            return Err(format!("weight_bits {} outside 2..=32", self.weight_bits));
        }
        if !(2..=32).contains(&self.input_bits) {
            return Err(format!("input_bits {} outside 2..=32", self.input_bits));
        }
        if self.cols < self.slices_per_weight() {
            return Err(format!(
                "array width {} cannot hold one {}-bit weight at {} bits/cell",
                self.cols, self.weight_bits, self.cell_bits
            ));
        }
        if !(0.0..1.0).contains(&self.write_sigma) || !(0.0..1.0).contains(&self.read_sigma) {
            return Err("noise sigmas must lie in [0, 1)".into());
        }
        if !(0.0..=1.0).contains(&self.stuck_off_rate)
            || !(0.0..=1.0).contains(&self.stuck_on_rate)
            || self.stuck_off_rate + self.stuck_on_rate > 1.0
        {
            return Err("stuck-at rates must lie in [0, 1] and sum to at most 1".into());
        }
        Ok(())
    }
}

impl Default for CrossbarConfig {
    fn default() -> Self {
        Self {
            rows: 128,
            cols: 128,
            cell_bits: 4,
            weight_bits: 16,
            input_bits: 16,
            write_sigma: 0.0,
            read_sigma: 0.0,
            stuck_off_rate: 0.0,
            stuck_on_rate: 0.0,
            noise_seed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(CrossbarConfig::default().validate(), Ok(()));
    }

    #[test]
    fn slices_per_weight_rounds_up() {
        let mut c = CrossbarConfig::default();
        assert_eq!(c.slices_per_weight(), 4); // 16 / 4
        c.cell_bits = 3;
        assert_eq!(c.slices_per_weight(), 6); // ceil(16/3)
    }

    #[test]
    fn logical_cols_divides_out_slices() {
        let c = CrossbarConfig::default();
        assert_eq!(c.logical_cols(), 32); // 128 / 4
    }

    #[test]
    fn validate_rejects_zero_geometry() {
        let c = CrossbarConfig::default().with_array_size(0, 128);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_narrow_array() {
        let c = CrossbarConfig::default().with_array_size(128, 2);
        assert!(c.validate().unwrap_err().contains("cannot hold"));
    }

    #[test]
    fn validate_rejects_bad_bit_widths() {
        for bits in [0, 1, 33] {
            let weight = CrossbarConfig {
                weight_bits: bits,
                ..CrossbarConfig::default()
            };
            assert!(weight.validate().unwrap_err().contains("weight_bits"));
            let input = CrossbarConfig {
                input_bits: bits,
                ..CrossbarConfig::default()
            };
            assert!(input.validate().unwrap_err().contains("input_bits"));
        }
    }

    #[test]
    fn validate_rejects_bad_sigma() {
        let c = CrossbarConfig::default().with_noise(1.5, 0.0, 0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_fault_rates() {
        let c = CrossbarConfig::default().with_faults(0.7, 0.7, 0);
        assert!(c.validate().is_err());
        let c = CrossbarConfig::default().with_faults(-0.1, 0.0, 0);
        assert!(c.validate().is_err());
        let ok = CrossbarConfig::default().with_faults(0.01, 0.01, 3);
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn with_noise_sets_fields() {
        let c = CrossbarConfig::default().with_noise(0.02, 0.01, 42);
        assert_eq!(c.write_sigma, 0.02);
        assert_eq!(c.read_sigma, 0.01);
        assert_eq!(c.noise_seed, 42);
        assert_eq!(c.validate(), Ok(()));
    }
}
